#!/usr/bin/env python3
"""Mutation probe: one flipped comparison at a time, against named tests.

    python3 tests/mutation_probe.py                      # default targets, all tests
    python3 tests/mutation_probe.py pricing:_tail --tests tests/test_exchange.py
    python3 tests/mutation_probe.py --list               # mutants only, nothing run

A target is ``module:qualname`` inside ``src/trajhedge`` (``pricing:_tail``,
``pricing:ScanGroup.violation``).  Every ``<``, ``<=``, ``>``, ``>=``, ``==``
and ``!=`` in the target becomes its flip (``<`` -> ``<=``, ``==`` -> ``!=``,
...), one mutant at a time, in a copy of ``src/`` under a temporary folder;
the named tests then run there with ``pytest -x``.  A mutant that passes them
all survives.  The mutants in ``EQUIVALENT`` cannot change an answer on model
inputs; they are listed with their reason and not run, so a re-run reports
only new survivors.  Exit status 1 when a mutant survives.

Standard library only (it runs pytest in a subprocess).  Pytest does not
collect this file, and it is not part of the tier-1 run: each surviving
mutant costs one full run of the named tests, so the defaults take minutes.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "trajhedge"

DEFAULT_TARGETS = [
    "lp:min_max_affine",
    "lp:_band_edge",
    "lp:_tight",
    "decomposition:verify_decomposition",
    "pricing:_asymptotic_value",
    "pricing:_tail",
    "pricing:ScanGroup.violation",
    "pricing:_family_constraints",
    "poly:split_ranges",
    "model:overlay_pieces",
    "analysis:_straddles",
    "model:TrajectoryTree.validate",
    "analysis:_increment_summary",
    "analysis:_step_rows",
    "model:PayoffSpec.is_nonnegative",
    "analysis:EventSet.covered_nodes",
    "analysis:EventSet.fully_covered_nodes",
    "pricing:check_supermartingale",
    "pricing:violations",
    "pricing:member_violations",
    "decomposition:decomposition_feasible",
    "pricing:feasible_position",
    "pricing:_attained",
    "model:exceeds",
    "model:_stopped_member_pieces",
    "model:supermartingale_transform",
    "decomposition:_from_hedge",
]

FLIP = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="),
        ast.GtE: (">=", ">"), ast.Eq: ("==", "!="), ast.NotEq: ("!=", "==")}

# mutant key -> why it cannot change an answer on model inputs.  A key is
# "module:qualname:comparison#k:new operator", k counting equal comparison
# texts within the target from 1.
EQUIVALENT = {
    "lp:min_max_affine:row[1] * floor[2] > floor[1] * row[2]#1:>=":
        "zero-slope rows of equal value have equal integer forms, and only the "
        "floor's value is read",
    "lp:min_max_affine:n * bd > bn * d#1:>=":
        "crossings of equal height meet at one point (a flat stretch needs a "
        "zero-slope row), and a floor at that height pins the band to it",
    "lp:_band_edge:d < 0#1:<=":
        "d is a nonzero slope times the floor's positive denominator",
    "lp:_band_edge:n * best_d > best_n * d#1:>=":
        "a tie keeps another integer form of the same bound, and every use of "
        "the edge is scale-invariant",
    "lp:_band_edge:n * best_d < best_n * d#1:<=":
        "a tie keeps another integer form of the same bound, and every use of "
        "the edge is scale-invariant",
    "pricing:_asymptotic_value:direction > 0#1:>=": "direction is +1 or -1",
    "pricing:_asymptotic_value:direction < 0#1:<=": "direction is +1 or -1",
    "pricing:_asymptotic_value:direction > 0#2:>=": "direction is +1 or -1",
    "pricing:_asymptotic_value:direction < 0#2:<=": "direction is +1 or -1",
    "pricing:_tail:k < len(den)#1:<=":
        "reads past d only when d is the zero polynomial, and add_family rejects "
        "constant polynomials",
    "pricing:_tail:a > 0#1:>=":
        "the branch is reached only with a != 0",
    "pricing:_attained:len(tight) > 1#1:>=":
        "sorting a list of one label leaves it as it is",
}


@dataclass
class Mutant:
    key: str
    line: int
    module: str
    source: bytes  # the mutated module


def _find(tree: ast.AST, qualname: str) -> ast.AST:
    node = tree
    for part in qualname.split("."):
        node = next(
            (n for n in ast.iter_child_nodes(node)
             if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == part),
            None,
        )
        if node is None:
            raise SystemExit(f"error: no {qualname!r} in its module")
    return node


def mutants(target: str) -> list[Mutant]:
    module, _, qualname = target.partition(":")
    data = (PACKAGE / f"{module}.py").read_bytes()
    starts = [0]
    for line in data.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))

    def offset(lineno: int, col: int) -> int:  # ast columns count UTF-8 bytes
        return starts[lineno - 1] + col

    seen: dict[str, int] = {}
    out = []
    compares = [n for n in ast.walk(_find(ast.parse(data), qualname))
                if isinstance(n, ast.Compare)]
    for cmp in sorted(compares, key=lambda n: (n.lineno, n.col_offset)):
        text = data[offset(cmp.lineno, cmp.col_offset):
                    offset(cmp.end_lineno, cmp.end_col_offset)].decode()
        text = " ".join(text.split())
        seen[text] = seen.get(text, 0) + 1
        operands = [cmp.left, *cmp.comparators]
        for op, left, right in zip(cmp.ops, operands, operands[1:]):
            if type(op) not in FLIP:
                continue
            old, new = FLIP[type(op)]
            lo = offset(left.end_lineno, left.end_col_offset)
            hi = offset(right.lineno, right.col_offset)
            gap = data[lo:hi]
            at = lo + gap.index(old.encode())
            source = data[:at] + new.encode() + data[at + len(old):]
            key = f"{target}:{text}#{seen[text]}:{new}"
            out.append(Mutant(key, cmp.lineno, module, source))
    return out


def run_tests(workdir: Path, tests: list[str], timeout: float) -> str:
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "killed (timeout)"
    return "SURVIVED" if done.returncode == 0 else "killed"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("targets", nargs="*", default=DEFAULT_TARGETS,
                    help="module:qualname inside src/trajhedge")
    ap.add_argument("--tests", nargs="+", default=["tests"],
                    help="pytest arguments naming the tests to run (default: tests)")
    ap.add_argument("--timeout", type=float, default=600, help="seconds per mutant")
    ap.add_argument("--list", action="store_true", help="list the mutants, run nothing")
    args = ap.parse_args(argv)

    todo = [m for t in args.targets for m in mutants(t)]
    survivors = ran = 0
    with tempfile.TemporaryDirectory(prefix="mutation-probe-") as tmp:
        work = Path(tmp)
        shutil.copytree(PACKAGE, work / "src" / "trajhedge",
                        ignore=shutil.ignore_patterns("__pycache__"))
        for m in todo:
            why = EQUIVALENT.get(m.key)
            if why is not None:
                print(f"equivalent  {m.key}  ({why})")
                continue
            if args.list:
                print(f"mutant      {m.key}  (line {m.line})")
                continue
            path = work / "src" / "trajhedge" / f"{m.module}.py"
            original = path.read_bytes()
            path.write_bytes(m.source)
            try:
                verdict = run_tests(work, args.tests, args.timeout)
            finally:
                path.write_bytes(original)
            ran += 1
            survivors += verdict == "SURVIVED"
            print(f"{verdict:<11} {m.key}  (line {m.line})", flush=True)
    if not args.list:
        print(f"{ran} mutants run, {survivors} survived, {len(todo) - ran} equivalent")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
