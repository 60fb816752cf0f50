"""Constructive supermartingale decompositions and their verification.

A supermartingale splits, off an exception set contained in the null cover
and up to per-period slacks, into a buy-and-hold gains process minus a
nondecreasing compensator.  The hedge at each healthy up-down node is any
finite position whose one-step cost stays within the period's slack of the
running value; an unattained one-step infimum is repaired by exactly that
slack.  Positions vanish at non-up-down nodes and after the first exception.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .analysis import EventSet, NodeAtom, NodeClass, analyze
from .model import (
    ZERO,
    HedgeSequence,
    PayoffSpec,
    Piece,
    ProcessSequence,
    QueryError,
    SimpleStrategy,
    TrajectoryTree,
    member_cover_gap,
    member_diff,
    overlay_pieces,
    wealth,
    wealth_on_member,
)
from .poly import Poly, grid_member_above, grid_summary, rat, split_ranges, subtract_ranges
from .pricing import (
    MINUS_INF,
    PricingError,
    StepMemo,
    check_supermartingale,
    feasible_position,
    member_violations,
    next_values,
    node_step,
    violations,
)


class DecompositionError(QueryError):
    pass


class HypothesisError(DecompositionError):
    """A required hypothesis was not verified by the analysis layer."""


@dataclass
class Decomposition:
    """base + hedge gains - compensator + accumulated slacks, off exceptions."""

    base: Fraction
    hedge: HedgeSequence
    alphas: list[PayoffSpec]  # compensator increments; entry j has maturity j+1
    deltas: list[Fraction]
    exception_set: EventSet

    def compensator_at_node(self, tree: TrajectoryTree, nid: str) -> Fraction:
        """A_i at an explicit node (sum of increments along the path)."""
        node = tree.node(nid)
        path = tree.path_to(nid)
        total = Fraction(0)
        for j in range(node.time):
            total += self.alphas[j].node_values[path[j + 1]]
        return total


# ---------------------------------------------------------------------------
# construction


def _exception_set(f: ProcessSequence, steps: StepMemo) -> EventSet:
    """The null cover (its arbitrage moves and sure-win nodes), the nodes
    where continuity from below fails, and every place where f climbs
    (``violations``).  Independent of the slack sequence by construction."""
    ev = steps.analysis.null_cover.copy()
    for nid, ok in steps.analysis.l_holds.items():
        if not ok:
            ev.add(NodeAtom(nid))
    for atom in violations(f, steps):
        ev.add(atom)
    return ev


def doob_decompose(
    tree: TrajectoryTree, f: ProcessSequence, deltas: Sequence
) -> Decomposition:
    """Hedge + compensator split of a supermartingale for the given slacks.

    Each node's one-step price of the next value is solved once and shared
    by the supermartingale check, the exception set and the hedge choice.
    """
    steps = StepMemo(f)
    analysis = steps.analysis
    deltas = [rat(d) for d in deltas]
    if len(deltas) != tree.horizon:
        raise DecompositionError("need one positive slack per period")
    if any(d <= 0 for d in deltas):
        raise DecompositionError("slacks must be strictly positive")
    if not analysis.l_ae.holds:
        raise HypothesisError(
            "decomposition requires the a.e. continuity assumption: "
            + "; ".join(analysis.l_ae.witnesses)
        )
    ok, witness = check_supermartingale(tree, f, steps)
    if not ok:
        raise DecompositionError(f"not a supermartingale: violation at {witness}")

    exceptions = _exception_set(f, steps)
    covered = exceptions.covered_nodes(tree)
    hedge = HedgeSequence()
    for j in range(tree.horizon):
        for nd in tree.nodes_at_time(j):
            if nd.is_leaf:
                continue
            h = ZERO
            healthy = analysis.node_class[nd.nid] is NodeClass.UP_DOWN
            if healthy and nd.nid not in covered:
                target = f[j].node_values[nd.nid] + deltas[j]
                step = steps.step(nd.nid)
                if step.problem is None:  # every node failing continuity is excepted
                    raise PricingError(f"no one-step problem at node {nd.nid!r}")
                found = feasible_position(step, target)
                if found is None:
                    raise DecompositionError(
                        f"no finite hedge within the slack at node {nd.nid!r}"
                    )
                h = found
            hedge.set(j, nd.nid, h)

    d = _from_hedge(tree, f, deltas, hedge, exceptions, covered)
    ok, why = verify_decomposition(tree, f, d)
    if not ok:  # pragma: no cover - construction is verified on the way out
        raise DecompositionError(f"internal verification failed: {why}")
    return d


def _mask_exceptions(tree, exceptions, covered, fid, lo, hi, poly) -> list[Piece]:
    """Zero the increment polynomial on excepted member windows."""
    if tree.family(fid).parent in covered:
        return [(lo, hi, Poly.constant(0))]
    masked, alive = split_ranges([(lo, hi)], exceptions.member_ranges(fid))
    zero = Poly.constant(0)
    return [(*m, zero) for m in masked] + [(*a, poly) for a in alive]


def decomposition_from_hedge(
    tree: TrajectoryTree,
    f: ProcessSequence,
    deltas: Sequence,
    hedge: HedgeSequence,
) -> Decomposition:
    """Fill in compensator increments for a given hedge (not verified here)."""
    exceptions = _exception_set(f, StepMemo(f))
    return _from_hedge(
        tree, f, [rat(d) for d in deltas], hedge, exceptions,
        exceptions.covered_nodes(tree),
    )


def _from_hedge(
    tree: TrajectoryTree,
    f: ProcessSequence,
    deltas: list[Fraction],
    hedge: HedgeSequence,
    exceptions: EventSet,
    covered: set[str],
) -> Decomposition:
    """decomposition_from_hedge with the exception set and its covered nodes."""
    base = f[0].node_values[tree.root]
    alphas: list[PayoffSpec] = []
    for j in range(tree.horizon):
        alpha_nodes: dict[str, Fraction] = {}
        alpha_fams: dict[str, tuple[Piece, ...]] = {}
        for nd in tree.nodes_at_time(j):
            if nd.is_leaf:
                continue
            h, fv, dj = hedge.at(j, nd.nid), f[j].node_values[nd.nid], deltas[j]
            # alpha = (f_j + delta_j) + h * inc - f_{j+1}, one Fraction per child,
            # from f_j + delta_j = qn / qd over the product of the denominators
            qn = fv.numerator * dj.denominator + dj.numerator * fv.denominator
            qd, hn, hd = fv.denominator * dj.denominator, h.numerator, h.denominator
            for inc, child in nd.children:
                if child in covered:
                    alpha_nodes[child] = ZERO
                    continue
                v = f[j + 1].node_values[child]
                gd = hd * inc.denominator
                alpha_nodes[child] = Fraction(
                    (qn * gd + hn * inc.numerator * qd) * v.denominator
                    - v.numerator * qd * gd,
                    qd * gd * v.denominator,
                )
            for fid in nd.families:
                gain = tree.family(fid).poly.scale(h).shift(fv + dj)
                pieces: list[Piece] = []
                for lo, hi, vpoly in f[j + 1].family_values[fid]:
                    alpha_poly = gain - vpoly
                    pieces.extend(
                        _mask_exceptions(
                            tree, exceptions, covered, fid, lo, hi, alpha_poly
                        )
                    )
                alpha_fams[fid] = tuple(sorted(pieces))
        for fam in tree.families_born_by(j):
            if fam.fid in alpha_fams:
                continue
            pieces = []
            for lo, hi, diff in member_diff(f, fam.fid, j, fam.n0, None):
                alpha_poly = Poly.constant(deltas[j]) - diff
                pieces.extend(
                    _mask_exceptions(
                        tree, exceptions, covered, fam.fid, lo, hi, alpha_poly
                    )
                )
            alpha_fams[fam.fid] = tuple(sorted(pieces))
        spec = PayoffSpec(j + 1, alpha_nodes, alpha_fams)
        spec.validate(tree)
        alphas.append(spec)
    return Decomposition(base, hedge, alphas, deltas, exceptions)


# ---------------------------------------------------------------------------
# verification


def verify_decomposition(
    tree: TrajectoryTree, f: ProcessSequence, d: Decomposition
) -> tuple[bool, str]:
    """Exact check of nonnegativity, reconstruction and exception containment.

    Each uncovered edge is checked once, against its parent's identity, so
    the check is linear in the tree size; it reads only ``d`` and re-derives
    everything else from the tree and f.
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
            a = alpha.node_values[nd.nid]
            if type(a) is float or a.numerator < 0:  # a float is only the -inf marker
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

    # reconstruction identity, edge by edge and member window by window.  Once
    # p at time j meets f_j(p) = capital_j + gains(p) - A_j(p) (the root does,
    # by the base check), its child c meets its own exactly when alpha_j(c)
    # equals r = f_j(p) + delta_j + h_p * inc - f_{j+1}(c), tested as one
    # integer identity over the product of the denominators.  One-step
    # domination into c (r >= 0) needs no test of its own: the loop above has
    # returned on any negative alpha at an uncovered node, and this one returns
    # unless r equals alpha.
    terms: dict[str, tuple[int, int, int, int]] = {}
    member_comp: dict[str, list[tuple[int, Optional[int], Poly]]] = {}
    for i in range(1, tree.horizon + 1):
        j = i - 1
        fj, fi, alpha = f[j].node_values, f[i].node_values, d.alphas[j].node_values
        for nd in tree.nodes_at_time(i):
            if nd.nid in covered:
                continue
            if nd.parent not in terms:  # f_j(p) + delta_j and h_p, once per parent
                fp, dj, h = fj[nd.parent], d.deltas[j], d.hedge.at(j, nd.parent)
                qn = fp.numerator * dj.denominator + dj.numerator * fp.denominator
                qd = fp.denominator * dj.denominator
                terms[nd.parent] = (qn, qd, h.numerator, h.denominator)
            qn, qd, hn, hd = terms[nd.parent]
            inc, v, a = nd.inc_from_parent, fi[nd.nid], alpha[nd.nid]
            gd = hd * inc.denominator
            qgd = qd * gd  # r = num / (qgd * v.denominator), a positive denominator
            num = (qn * gd + hn * inc.numerator * qd) * v.denominator - v.numerator * qgd
            if num * a.denominator != a.numerator * qgd * v.denominator:
                return False, f"reconstruction fails at {nd.nid!r} time {i}"
        # a member's identity starts from its parent P's, already checked:
        # capital_i + gains(P) - A(P) = f_t(P) + delta_t + ... + delta_{i-1}
        for fam in tree.families_born_by(i):
            parent = tree.node(fam.parent)
            if parent.nid in covered:
                continue
            t = parent.time
            start = f[t].node_values[parent.nid] + sum(d.deltas[t:i], Fraction(0))
            base_gain = fam.poly.scale(d.hedge.at(t, parent.nid)).shift(start)
            a_path = member_comp[fam.fid] = sorted(overlay_pieces(
                member_comp.get(fam.fid, [(fam.n0, None, Poly.constant(0))]),
                d.alphas[j].family_values[fam.fid],
                operator.add,
            ))
            for lo, hi, diff in overlay_pieces(
                a_path, f[i].family_values[fam.fid], lambda a, v: base_gain - a - v
            ):
                if diff.is_zero():
                    continue
                for w_lo, w_hi in _alive_windows(d.exception_set, covered, fam, lo, hi):
                    s = grid_summary(diff, w_lo, w_hi)
                    if s.has_pos or s.has_neg:
                        return (
                            False,
                            f"reconstruction fails on {fam.fid!r} "
                            f"members {w_lo}..{w_hi} time {i}",
                        )
    return True, ""


def _alive_windows(
    exceptions: EventSet, covered: set[str], fam, lo: int, hi: Optional[int]
):
    """Member windows of [lo, hi] that the exceptions leave uncovered."""
    if fam.parent in covered:
        return []
    return subtract_ranges([(lo, hi)], exceptions.member_ranges(fam.fid))


# ---------------------------------------------------------------------------
# feasibility of the linear system (used for impossibility certificates)


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
    members.  A member continues flat, so no position covers an alive
    member that climbs by more than the slack (``member_violations``).
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
            alive = analysis.alive_member_ranges(fam.fid)
            if alive and split_ranges(member_violations(f, fam.fid, j, deltas[j]), alive)[0]:
                return False, f"family:{fam.fid}"
    return True, None


# ---------------------------------------------------------------------------
# martingale-part floor and convergence


def martingale_floor_check(
    tree: TrajectoryTree, f: ProcessSequence, d: Decomposition
) -> tuple[bool, Optional[str]]:
    """base + all slacks + hedge gains stays nonnegative on every trajectory."""
    analysis = analyze(tree)
    if not analysis.h1.holds:
        raise HypothesisError(
            "floor lemma needs the healthy-straddle hypothesis: "
            + "; ".join(analysis.h1.witnesses)
        )
    for spec in f.specs:
        if not spec.is_nonnegative(tree):
            raise DecompositionError("floor lemma applies to nonnegative processes")
    v0 = d.base + sum(d.deltas, Fraction(0))
    strat = SimpleStrategy(v0, d.hedge)
    for nd in sorted(tree.nodes.values(), key=lambda n: (n.time, n.nid)):
        if wealth(tree, strat, nd.nid) < 0:
            return False, nd.nid
    for fid in sorted(tree.families):
        poly = wealth_on_member(tree, strat, fid)
        fam = tree.family(fid)
        s = grid_summary(poly, fam.n0, None)
        if s.has_neg:
            n = grid_member_above(-poly, Fraction(0), fam.n0, None)
            return False, f"family:{fid}:n={n}"
    return True, None


@dataclass
class ConvergenceReport:
    limits_exist_off: str
    divergence_cover: list[str]
    l_ae_holds: bool
    h1_holds: bool
    warnings: list[str] = field(default_factory=list)

    def render(self) -> str:
        lines = [
            f"limits: {self.limits_exist_off}",
            "divergence cover:" if self.divergence_cover else "divergence cover: (empty)",
        ]
        lines.extend(f"  {a}" for a in self.divergence_cover)
        for w in self.warnings:
            lines.append(f"warning: {w}")
        return "\n".join(lines) + "\n"


def convergence_report(tree: TrajectoryTree, f: ProcessSequence) -> ConvergenceReport:
    """Pointwise limits of a nonnegative supermartingale on this model class.

    Every trajectory is constant from the horizon on, so limits exist
    everywhere; the report certifies that plus the hypothesis verdicts, and
    records the null cover as the divergence cover.
    """
    analysis = analyze(tree)
    if not analysis.l_ae.holds:
        raise HypothesisError(
            "convergence requires the a.e. continuity assumption: "
            + "; ".join(analysis.l_ae.witnesses)
        )
    ok, witness = check_supermartingale(tree, f)
    if not ok:
        raise DecompositionError(f"not a supermartingale: violation at {witness}")
    for spec in f.specs:
        if not spec.is_nonnegative(tree):
            raise DecompositionError("convergence applies to nonnegative processes")
    warnings = []
    if not analysis.h1.holds:
        warnings.append(
            "healthy-straddle hypothesis fails: the floor bound on the hedge "
            "gains is not guaranteed (limits below certified by eventual "
            "constancy instead)"
        )
    return ConvergenceReport(
        limits_exist_off="every trajectory (constant from the horizon on)",
        divergence_cover=analysis.null_cover.atoms_sorted(),
        l_ae_holds=analysis.l_ae.holds,
        h1_holds=analysis.h1.holds,
        warnings=warnings,
    )
