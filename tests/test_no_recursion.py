"""No function of the library calls itself: a deep but valid model must not
hit Python's recursion limit.  Read from the source with ``ast``."""

import ast
from pathlib import Path

import trajhedge

SRC = Path(trajhedge.__file__).parent

# its truncation at max_measures follows the depth-first expansion order,
# which is part of the measure set it returns
ALLOWED = {"oracle.martingale_measures.expand"}


def _calls_itself(fn: ast.AST) -> bool:
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            callee = node.func
            if isinstance(callee, ast.Name) and callee.id == fn.name:
                return True
            if (isinstance(callee, ast.Attribute) and callee.attr == fn.name
                    and isinstance(callee.value, ast.Name)
                    and callee.value.id in ("self", "cls")):
                return True
    return False


def self_calling_functions() -> list[str]:
    """Qualified names (module.outer.inner) of every self-calling function,
    methods and nested closures included."""
    found = []
    stack = [(path.stem, ast.parse(path.read_text())) for path in sorted(SRC.glob("*.py"))]
    while stack:
        prefix, node = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef) and _calls_itself(child):
                    found.append(name)
                stack.append((name, child))
            else:
                stack.append((prefix, child))
    return sorted(found)


def test_the_guard_sees_nested_self_calls():
    module = ast.parse(
        "def outer():\n"
        "    def ev(x):\n"
        "        return ev(x - 1) if x else 0\n"
        "    return ev(3)\n"
        "class C:\n"
        "    def walk(self):\n"
        "        return self.walk()\n"
    )
    assert _calls_itself(module.body[0].body[0])
    assert not _calls_itself(module.body[0])
    assert _calls_itself(module.body[1].body[0])


def test_no_recursion_outside_the_allow_list():
    assert set(self_calling_functions()) == ALLOWED
