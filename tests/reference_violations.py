"""The places where a process climbs, as the library found them while three
loops each walked the nodes and the member windows on their own.

Verbatim copies of ``pricing.check_supermartingale``,
``decomposition._violation_nodes``, ``decomposition._exception_set`` and
``decomposition.decomposition_feasible`` (its member loop tests each alive
window's increments against the slack);
``decomposition._member_violation_ranges`` is the copy kept in
``reference_pieces``.  ``test_violations.py`` asserts that today's single
walk, ``pricing.violations``, gives the same verdicts, node witnesses,
exception sets and feasibility answers.
"""

from fractions import Fraction
from typing import Optional, Sequence

from trajhedge.analysis import EventSet, FamilyAtom, NodeAtom, analyze
from trajhedge.model import ProcessSequence, TrajectoryTree, exceeds, member_diff
from trajhedge.poly import grid_member_above, grid_summary, rat
from trajhedge.pricing import (
    MINUS_INF,
    StepMemo,
    feasible_position,
    next_values,
    node_step,
)

from reference_pieces import _member_violation_ranges


def check_supermartingale(
    tree: TrajectoryTree, f: ProcessSequence, steps: Optional[StepMemo] = None
) -> tuple[bool, Optional[str]]:
    """One-step prices dominate the running values off the null cover.

    A caller that goes on to use the same one-step prices passes its own
    ``steps``; by default the check makes one and drops it."""
    steps = StepMemo(f) if steps is None else steps
    analysis = steps.analysis
    for j in range(tree.horizon):
        for nd in tree.nodes_at_time(j):
            if nd.is_leaf or analysis.fully_covered(nd.nid):
                continue
            if exceeds(steps.step(nd.nid).value, f[j].node_values[nd.nid]):
                return False, nd.nid
        # member positions: the sequence itself must not climb along survivors
        for fam in tree.families_born_by(j):
            for lo_r, hi_r in analysis.alive_member_ranges(fam.fid):
                diff = member_diff(f, fam.fid, j, lo_r, hi_r)
                if diff is None:
                    continue
                for seg_lo, seg_hi, poly in diff:
                    s = grid_summary(poly, seg_lo, seg_hi)
                    if s.has_pos:
                        n = grid_member_above(poly, Fraction(0), seg_lo, seg_hi)
                        return False, f"family:{fam.fid}:n={n}"
    return True, None


def _violation_nodes(tree: TrajectoryTree, f: ProcessSequence, steps: StepMemo):
    """Nodes where the one-step price strictly exceeds the running value."""
    out: set[str] = set()
    for j in range(tree.horizon):
        for nd in tree.nodes_at_time(j):
            if nd.is_leaf:
                continue
            if exceeds(steps.step(nd.nid).value, f[j].node_values[nd.nid]):
                out.add(nd.nid)
    return out


def _exception_set(tree: TrajectoryTree, f: ProcessSequence, steps: StepMemo) -> EventSet:
    """Arbitrage moves, failure cylinders and one-step violations.

    Starts from the null cover: its arbitrage moves, and its sure-win nodes,
    which all fail continuity from below.  Independent of the slack sequence
    by construction."""
    ev = steps.analysis.null_cover.copy()
    for nid, ok in steps.analysis.l_holds.items():
        if not ok:
            ev.add(NodeAtom(nid))
    for nid in _violation_nodes(tree, f, steps):
        ev.add(NodeAtom(nid))
    for j in range(tree.horizon):
        for fam in tree.families_born_by(j):
            wins = _member_violation_ranges(tree, f, fam.fid, j)
            if wins:
                ev.add(FamilyAtom(fam.fid, tuple(wins)))
    return ev


def decomposition_feasible(
    tree: TrajectoryTree, f: ProcessSequence, deltas: Sequence
) -> tuple[bool, Optional[str]]:
    """Does any hedge satisfy the per-period inequalities off the null cover?

    The reconstruction with nonnegative compensator increments demands
    f_{j+1} - f_j <= delta_j + h * increment on all non-null children; this
    solves the resulting one-position system node by node, exactly.  Unlike
    the pricing kernel, only null-cover cylinders are waived: covered
    children continue at -inf, and failure of continuity from below at a
    non-null node does not excuse that node.  The step builder's harvest
    rule drops no more: harvested children are null-cover atoms, and the
    null cover leaves a harvest node's families only their zero-increment
    members.
    """
    analysis = analyze(tree)
    deltas = [rat(x) for x in deltas]
    for j in range(tree.horizon):
        for nd in tree.nodes_at_time(j):
            if nd.is_leaf or analysis.fully_covered(nd.nid):
                continue
            target = f[j].node_values[nd.nid] + deltas[j]
            values, pieces = next_values(f, nd.nid, analysis.fully_covered)
            step = node_step(analysis, nd.nid, values, pieces)
            # a -inf one-step value (every child waived, too) needs no position
            if step.value != MINUS_INF and feasible_position(step, target) is None:
                return False, nd.nid
        for fam in tree.families_born_by(j):
            for w_lo, w_hi in analysis.alive_member_ranges(fam.fid):
                for lo, hi, poly in member_diff(f, fam.fid, j, w_lo, w_hi) or []:
                    if grid_summary(poly.shift(-deltas[j]), lo, hi).has_pos:
                        return False, f"family:{fam.fid}"
    return True, None
