"""``decomposition.verify_decomposition`` as it stood while it carried hedge
gains and the compensator down the tree in ``Fraction`` arithmetic.

A verbatim copy, with its helpers ``_gains_and_compensator``,
``_add_increments`` (as the library had it before member pieces were
combined by ``model.overlay_pieces``) and ``restrict_piece`` (as the library
had it before the verifier overlaid the compensator with the process pieces).
``test_decomposition.py`` compares today's verifier, which checks each edge's
residual as one integer identity, against it on generated and tampered
decompositions.
"""

from fractions import Fraction
from typing import Optional

from trajhedge.analysis import analyze
from trajhedge.decomposition import Decomposition, _alive_windows
from trajhedge.model import (
    ModelError,
    Piece,
    ProcessSequence,
    TrajectoryTree,
    member_cover_gap,
)
from trajhedge.poly import Poly, grid_member_above, grid_summary, intersect_ranges


def verify_decomposition(
    tree: TrajectoryTree, f: ProcessSequence, d: Decomposition
) -> tuple[bool, str]:
    """Exact check of nonnegativity, reconstruction and exception containment.

    Exception coverage, hedge gains and the compensator are carried from
    parent to child in one pass, so the check is linear in the tree size; it
    reads only ``d`` and re-derives everything else from the tree and f.
    """
    analysis = analyze(tree)
    ok, why = d.exception_set.subset_of(tree, analysis.null_cover)
    if not ok:
        return False, f"exception set not null: {why}"
    if len(d.deltas) != tree.horizon or any(x <= 0 for x in d.deltas):
        return False, "slack sequence invalid"
    if d.base != f[0].node_values[tree.root]:
        return False, "base differs from the initial value"
    covered = d.exception_set.covered_nodes(tree)

    # compensator increments nonnegative off exceptions
    for j in range(tree.horizon):
        alpha = d.alphas[j]
        for nd in tree.nodes_at_time(j + 1):
            if nd.nid in covered:
                continue
            if nd.nid not in alpha.node_values:
                return False, f"missing compensator increment at {nd.nid!r}"
            if alpha.node_values[nd.nid] < 0:
                return False, f"negative compensator increment at {nd.nid!r}"
        for fam in tree.families_born_by(j + 1):
            if fam.fid not in alpha.family_values:
                return False, f"missing compensator increments on {fam.fid!r}"
            gap = member_cover_gap(fam, alpha.family_values[fam.fid])
            if gap:
                why = f"missing compensator increments on {fam.fid!r}: pieces {gap}"
                return False, why
            for lo, hi, poly in alpha.family_values[fam.fid]:
                for w_lo, w_hi in _alive_windows(d.exception_set, covered, fam, lo, hi):
                    s = grid_summary(poly, w_lo, w_hi)
                    if s.has_neg:
                        n = grid_member_above(-poly, Fraction(0), w_lo, w_hi)
                        return (
                            False,
                            f"negative compensator increment on {fam.fid!r} n={n}",
                        )

    # reconstruction identity, node by node and member window by window
    gains, comp = _gains_and_compensator(tree, d, covered)
    member_comp: dict[str, list[tuple[int, Optional[int], Poly]]] = {}
    for i in range(tree.horizon + 1):
        capital = d.base + sum(d.deltas[:i], Fraction(0))
        for nd in tree.nodes_at_time(i):
            if nd.nid in covered:
                continue
            if f[i].node_values[nd.nid] != capital + gains[nd.nid] - comp[nd.nid]:
                return False, f"reconstruction fails at {nd.nid!r} time {i}"
        for fam in tree.families_born_by(i):
            parent = tree.node(fam.parent)
            if parent.nid in covered:
                continue
            h = d.hedge.at(parent.time, parent.nid)
            base_gain = fam.poly.scale(h).shift(capital + gains[parent.nid])
            if fam.fid not in member_comp:  # i is the family's birth
                member_comp[fam.fid] = [
                    (fam.n0, None, Poly.constant(comp[parent.nid]))
                ]
            a_path = member_comp[fam.fid] = _add_increments(
                member_comp[fam.fid], d.alphas[i - 1].family_values[fam.fid]
            )
            for lo, hi, a_poly in a_path:
                for w_lo, w_hi in _alive_windows(d.exception_set, covered, fam, lo, hi):
                    target = restrict_piece(f[i].family_values[fam.fid], w_lo, w_hi)
                    diff = (base_gain - a_poly) - target
                    if diff.is_zero():
                        continue
                    s = grid_summary(diff, w_lo, w_hi)
                    if s.has_pos or s.has_neg:
                        return (
                            False,
                            f"reconstruction fails on {fam.fid!r} "
                            f"members {w_lo}..{w_hi} time {i}",
                        )
    # spot re-derivation of one-step domination off exceptions
    for j in range(tree.horizon):
        for nd in tree.nodes_at_time(j):
            if nd.is_leaf or nd.nid in covered:
                continue
            h = d.hedge.at(j, nd.nid)
            fj = f[j].node_values[nd.nid]
            for inc, child in nd.children:
                if child in covered:
                    continue
                if f[j + 1].node_values[child] > fj + d.deltas[j] + h * inc:
                    return False, f"one-step domination fails into {child!r}"
    return True, ""


def _gains_and_compensator(tree, d: Decomposition, covered: set[str]):
    """Hedge gains and compensator A_i at every uncovered node, top down.

    Gains exclude the capital; a child adds its parent's position times its
    increment, and its own compensator increment.  Covered nodes (and so
    their whole subtrees) are skipped."""
    gains: dict[str, Fraction] = {}
    comp: dict[str, Fraction] = {}
    stack = []
    if tree.root not in covered:
        gains[tree.root] = comp[tree.root] = Fraction(0)
        stack.append(tree.node(tree.root))
    while stack:
        node = stack.pop()
        h = d.hedge.at(node.time, node.nid)
        for inc, child in node.children:
            if child in covered:
                continue
            gains[child] = gains[node.nid] + h * inc
            comp[child] = comp[node.nid] + d.alphas[node.time].node_values[child]
            stack.append(tree.node(child))
    return gains, comp


def _add_increments(pieces, increments):
    """Member compensator pieces plus one period's increment pieces."""
    refined: list[tuple[int, Optional[int], Poly]] = []
    for lo, hi, acc in pieces:
        for p_lo, p_hi, inc_poly in increments:
            meet = intersect_ranges((lo, hi), (p_lo, p_hi))
            if meet is not None:
                refined.append((*meet, acc + inc_poly))
    return sorted(refined)


def restrict_piece(pieces: tuple[Piece, ...], lo: int, hi: Optional[int]) -> Poly:
    """Polynomial of the piece that covers the member range [lo, hi]."""
    for p_lo, p_hi, poly in pieces:
        if p_lo <= lo and (p_hi is None or (hi is not None and hi <= p_hi)):
            return poly
    raise ModelError("piece grids do not align")
