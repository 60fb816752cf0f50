"""``decomposition.decomposition_feasible`` as it stood while it built its
one-step problems by hand.

A verbatim copy: explicit children outside the null cover become plain
constraints, and every family payoff piece, cut to the family's alive member
windows, becomes a scan group.  ``test_decomposition.py`` compares today's
version, which builds through ``pricing.node_step``, against it.
"""

from typing import Optional, Sequence

from trajhedge.analysis import analyze
from trajhedge.lp import AffinePiece
from trajhedge.model import ProcessSequence, TrajectoryTree, member_diff
from trajhedge.poly import grid_summary, intersect_ranges, rat
from trajhedge.pricing import (
    MINUS_INF,
    ScanGroup,
    StepProblem,
    feasible_position,
    solve_step,
)


def decomposition_feasible(
    tree: TrajectoryTree, f: ProcessSequence, deltas: Sequence
) -> tuple[bool, Optional[str]]:
    """Does any hedge satisfy the per-period inequalities off the null cover?

    The reconstruction with nonnegative compensator increments demands
    f_{j+1} - f_j <= delta_j + h * increment on all non-null children; this
    solves the resulting one-position system node by node, exactly.  Unlike
    the pricing kernel, only null-cover cylinders are waived: failure of
    continuity from below at a non-null node does not excuse that node.
    """
    analysis = analyze(tree)
    deltas = [rat(x) for x in deltas]
    cover = analysis.null_cover
    for j in range(tree.horizon):
        for nd in tree.nodes_at_time(j):
            if nd.is_leaf or analysis.fully_covered(nd.nid):
                continue
            target = f[j].node_values[nd.nid] + deltas[j]
            fixed: list[AffinePiece] = []
            groups: list[ScanGroup] = []
            for inc, child in sorted(nd.children, key=lambda c: c[1]):
                if analysis.fully_covered(child):
                    continue
                fixed.append(
                    AffinePiece(inc, f[j + 1].node_values[child], f"node:{child}")
                )
            for fid in sorted(nd.families):
                fam = tree.family(fid)
                for window in analysis.alive_member_ranges(fid):
                    for p_lo, p_hi, vpoly in f[j + 1].family_values[fid]:
                        meet = intersect_ranges(window, (p_lo, p_hi))
                        if meet is not None:
                            groups.append(ScanGroup(fid, fam.poly, vpoly, *meet))
            problem = StepProblem(fixed, groups)
            if not fixed and not groups:
                continue
            step = solve_step(problem)
            # a -inf one-step value needs no position at all
            if step.value != MINUS_INF and feasible_position(step, target) is None:
                return False, nd.nid
        for fam in tree.families_born_by(j):
            for w_lo, w_hi in analysis.alive_member_ranges(fam.fid):
                for lo, hi, poly in member_diff(f, fam.fid, j, w_lo, w_hi) or []:
                    shifted = poly.shift(-deltas[j])
                    s = grid_summary(shifted, lo, hi)
                    if s.has_pos or (s.limit is not None and s.limit > 0):
                        return False, f"family:{fam.fid}"
    return True, None
