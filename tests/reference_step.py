"""``pricing._build_step_problem`` as it stood while it sorted and screened
a node's explicit children on every call.

A verbatim copy, with its harvest test ``_harvested``: the children in id
order, each skipped when its continuation value is the -inf marker or its
move is a harvested cylinder (every increment at the node has one weak sign
and the move is strict with that sign).  The family members come from
today's ``pricing._family_constraints``.  ``test_pricing.py`` compares the
step rows that ``analysis`` derives once per tree against it.
"""

from fractions import Fraction
from typing import Sequence

from trajhedge.analysis import Analysis, IncrementSummary
from trajhedge.lp import AffinePiece
from trajhedge.model import Piece, TrajectoryTree
from trajhedge.pricing import PriceValue, StepProblem, _family_constraints


def _harvested(s: IncrementSummary, inc: Fraction) -> bool:
    """Is the move a harvested cylinder (one-sided increments at the node)?"""
    return (s.plus_ray and inc > 0) or (s.minus_ray and inc < 0)


def _build_step_problem(
    tree: TrajectoryTree,
    analysis: Analysis,
    nid: str,
    child_values: dict[str, PriceValue],
    family_pieces: dict[str, Sequence[Piece]],
) -> StepProblem:
    node = tree.node(nid)
    s = analysis.summaries[nid]
    fixed: list[AffinePiece] = []
    for inc, child in sorted(node.children, key=lambda c: c[1]):
        v = child_values[child]
        # a float child value is only ever the -inf marker
        if type(v) is float or _harvested(s, inc):
            continue
        fixed.append(AffinePiece(inc, v, f"node:{child}"))
    if not node.families:
        return StepProblem(fixed, [])
    members, groups = _family_constraints(tree, s, node, family_pieces)
    return StepProblem(fixed + members, groups)
