"""No module-level integer constant of the library decides an answer: a size
or count knob would make the answer depend on where it is set.  Read from
the source with ``ast``."""

import ast
from pathlib import Path

import trajhedge

SRC = Path(trajhedge.__file__).parent

ALLOWED = {
    # a guard on the exchange loop: reaching it raises, it never answers
    "pricing.MAX_ROUNDS",
    # the input format: the highest family polynomial degree it accepts
    "poly.MAX_FAMILY_DEGREE",
    # how many answers the memo keeps, not what they are
    "poly._MEMO_SIZE",
}


def integer_constants(source: str, module: str) -> list[str]:
    """Names (module.name) bound to an integer literal at module level."""
    found = []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        else:
            continue
        if isinstance(value, ast.UnaryOp) and isinstance(value.op, (ast.USub, ast.UAdd)):
            value = value.operand
        if not (isinstance(value, ast.Constant) and type(value.value) is int):
            continue
        for target in targets:
            for node in ast.walk(target):
                if isinstance(node, ast.Name):
                    found.append(f"{module}.{node.id}")
    return found


def test_the_guard_sees_integer_constants():
    source = "A = 3\nB: int = -2\nC, D = 1, 2\nE = 1.5\nF = True\ndef g():\n    H = 4\n"
    assert integer_constants(source, "m") == ["m.A", "m.B"]


def test_no_integer_knob_outside_the_allow_list():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found.extend(integer_constants(path.read_text(), path.stem))
    assert set(found) == ALLOWED
