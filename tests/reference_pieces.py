"""Member-piece code as the library had it while each caller split and
combined family member windows with its own loop.

Verbatim copies of ``model.add_payoffs``, ``model.member_diff``,
``model._nonneg_windows``, ``decomposition._member_violation_ranges``,
``decomposition._positive_segments``, ``decomposition._mask_exceptions`` and
``pricing.indicator_payoff``; ``decomposition._add_increments`` is the copy
kept in ``reference_verify``.  ``test_pieces.py`` asserts that today's
``poly.split_ranges`` and ``model.overlay_pieces`` callers return exactly
the same piece tuples, boundaries included.
"""

from fractions import Fraction
from typing import Optional

from trajhedge.analysis import EventSet
from trajhedge.model import (
    MINUS_INF,
    ModelError,
    NRange,
    PayoffSpec,
    Piece,
    ProcessSequence,
    TrajectoryTree,
    Value,
    sign_segments,
)
from trajhedge.poly import Poly, grid_summary, intersect_ranges, ranges_excluding

from reference_verify import _add_increments  # noqa: F401  (re-exported)


def add_payoffs(tree: TrajectoryTree, f: PayoffSpec, g: PayoffSpec) -> PayoffSpec:
    """f + g for equal maturities (family pieces refined to a common grid)."""
    if f.maturity != g.maturity:
        raise ModelError("payoff addition needs equal maturities")
    node_values: dict[str, Value] = {}
    for k in f.node_values:
        a, b = f.node_values[k], g.node_values[k]
        if a == MINUS_INF or b == MINUS_INF:
            node_values[k] = MINUS_INF
        else:
            node_values[k] = a + b
    fam_values: dict[str, tuple[Piece, ...]] = {}
    for fid in f.family_values:
        pieces: list[Piece] = []
        for lo_a, hi_a, pa in f.family_values[fid]:
            for lo_b, hi_b, pb in g.family_values[fid]:
                meet = intersect_ranges((lo_a, hi_a), (lo_b, hi_b))
                if meet is not None:
                    pieces.append((*meet, pa + pb))
        fam_values[fid] = tuple(sorted(pieces))
    out = PayoffSpec(f.maturity, node_values, fam_values)
    out.validate(tree)
    return out


def member_diff(f: ProcessSequence, fid: str, j: int, lo: int, hi: Optional[int]):
    """(f_{j+1} - f_j) on members of fid in [lo, hi], as refined pieces, or
    None while the family is not yet born at j + 1."""
    tree = f.tree
    birth = tree.family_birth(fid)
    if j + 1 <= tree.horizon and j + 1 < birth:
        return None
    out = []
    if j < birth:
        # previous value is the parent's node value at time j
        prev_const = f[j].node_values[tree.ancestor_at(tree.family(fid).parent, j)]
        for p_lo, p_hi, poly in f[j + 1].family_values[fid]:
            meet = intersect_ranges((p_lo, p_hi), (lo, hi))
            if meet is not None:
                out.append((*meet, poly.shift(-prev_const)))
        return out
    for p_lo, p_hi, poly_next in f[j + 1].family_values[fid]:
        for q_lo, q_hi, poly_prev in f[j].family_values[fid]:
            meet = intersect_ranges((p_lo, p_hi), (q_lo, q_hi), (lo, hi))
            if meet is not None:
                out.append((*meet, poly_next - poly_prev))
    return out


def _nonneg_windows(poly: Poly, n0: int) -> list[NRange]:
    segs = sign_segments(poly, n0, None)
    return [(lo, hi) for lo, hi, nonneg in segs if nonneg]


def _member_violation_ranges(tree, f, fid, j) -> list[tuple[int, Optional[int]]]:
    """Member windows where f_{j+1} > f_j strictly (flat continuations)."""
    fam = tree.family(fid)
    diff = member_diff(f, fid, j, fam.n0, None)
    if diff is None:
        return []
    windows: list[tuple[int, Optional[int]]] = []
    for lo, hi, poly in diff:
        if poly.is_zero():
            continue
        s = grid_summary(poly, lo, hi)
        if not s.has_pos:
            continue
        segs = _positive_segments(poly, lo, hi)
        windows.extend(segs)
    return windows


def _positive_segments(poly: Poly, lo: int, hi: Optional[int]):
    out = []
    for seg_lo, seg_hi, nonneg in sign_segments(poly, lo, hi):
        if not nonneg:
            continue
        zeros = grid_summary(poly, seg_lo, seg_hi).zeros
        out.extend(ranges_excluding(seg_lo, seg_hi, list(zeros)))
    return out


def _mask_exceptions(tree, exceptions, covered, fid, lo, hi, poly) -> list[Piece]:
    """Zero the increment polynomial on excepted member windows."""
    if tree.family(fid).parent in covered:
        return [(lo, hi, Poly.constant(0))]
    pieces: list[Piece] = []
    alive = [(lo, hi)]
    for cut in exceptions.member_ranges(fid):
        nxt = []
        for a_lo, a_hi in alive:
            meet = intersect_ranges((a_lo, a_hi), cut)
            if meet is None:
                nxt.append((a_lo, a_hi))
                continue
            i_lo, i_hi = meet
            if a_lo < i_lo:
                nxt.append((a_lo, i_lo - 1))
            pieces.append((i_lo, i_hi, Poly.constant(0)))
            if i_hi is not None and (a_hi is None or i_hi < a_hi):
                nxt.append((i_hi + 1, a_hi))
        alive = nxt
    pieces.extend((a_lo, a_hi, poly) for a_lo, a_hi in alive)
    return pieces


def indicator_payoff(tree: TrajectoryTree, event: EventSet) -> PayoffSpec:
    """Indicator of a union of cylinders/member windows, matured at the horizon."""
    t = tree.horizon
    node_values = {
        nd.nid: Fraction(1) if event.covers_path(tree, nd.nid) else Fraction(0)
        for nd in tree.nodes_at_time(t)
    }
    fam_values: dict[str, tuple[Piece, ...]] = {}
    for fam in tree.families_born_by(t):
        fid = fam.fid
        if event.covers_path(tree, fam.parent):
            fam_values[fid] = ((fam.n0, None, Poly.constant(1)),)
            continue
        pieces: list[Piece] = []
        ones = sorted(event.member_ranges(fid))
        cursor = fam.n0
        for lo, hi in ones:
            lo = max(lo, cursor)
            if hi is not None and lo > hi:
                continue
            if lo > cursor:
                pieces.append((cursor, lo - 1, Poly.constant(0)))
            pieces.append((lo, hi, Poly.constant(1)))
            if hi is None:
                cursor = None
                break
            cursor = hi + 1
        if cursor is not None:
            pieces.append((cursor, None, Poly.constant(0)))
        fam_values[fid] = tuple(pieces)
    spec = PayoffSpec(t, node_values, fam_values)
    spec.validate(tree)
    return spec
