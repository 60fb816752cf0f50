"""The two conditional superhedging operators on finite trajectory trees.

``sigma_bar`` prices a finite-maturity claim by backward induction of a
one-step kernel: minimal capital V such that some position h gives
``V + h * increment >= continuation`` on every surviving child.  Children are
dropped ("waived") when no portfolio can be forced to pay there:

* children where continuity from below fails contribute -inf continuations
  (any shortfall is recoverable at arbitrarily negative cost);
* when every increment at a node has one weak sign, countably many cheap
  one-sided positions harvest unbounded gains on all strictly-moving
  children, so their constraints vanish (the node is an arbitrage node and
  those children are null cylinders).

Family branches make the one-step program semi-infinite; it is solved by a
constraint-exchange loop seeded with each family's limit constraint, with an
exact violation oracle.  An optimum that runs off to |h| = infinity is the
unattained-infimum case; its value is the exact asymptotic envelope.

``i_bar`` is the null operator: one aggregated strategy whose wealth stays
nonnegative at every surviving node and dominates the claim at maturity,
solved as a single exact LP with the same harvest waivers.   Its value on
payoffs beyond the proven cases is reported as the model value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

from .analysis import Analysis, EventSet, analyze
from .lp import AffinePiece, MinMaxResult, min_max_affine, minimize
from .model import (
    MINUS_INF,
    HedgeSequence,
    PayoffSpec,
    Piece,
    ProcessSequence,
    SimpleStrategy,
    TrajectoryTree,
    abs_payoff,
)
from .poly import Poly, grid_member_above, grid_summary, rat_str

DRIFT_THRESHOLD = Fraction(10**6)
MAX_ROUNDS = 200
DEFAULT_TOLERANCE = Fraction(1, 10**9)
EXPAND_LIMIT = 64  # bounded member ranges up to this size become plain rows


class PricingError(ValueError):
    pass


class UnconvergedError(PricingError):
    def __init__(self, interval: "Interval"):
        super().__init__(
            f"exchange did not close below tolerance; best interval "
            f"[{rat_str(interval.lo)}, {rat_str(interval.hi)}]"
        )
        self.interval = interval


@dataclass(frozen=True)
class Interval:
    lo: Fraction
    hi: Fraction

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo


PriceValue = Union[Fraction, float, Interval]


def value_bounds(v: PriceValue) -> tuple:
    if isinstance(v, Interval):
        return v.lo, v.hi
    return v, v


def value_le(a: PriceValue, b: PriceValue) -> bool:
    """Conservative a <= b: certain under interval uncertainty."""
    return value_bounds(a)[1] <= value_bounds(b)[0]


@dataclass
class PriceResult:
    value: PriceValue
    attained: bool
    hedge: Optional[SimpleStrategy] = None
    active: list[str] = field(default_factory=list)
    note: str = ""

    def exact(self) -> Fraction:
        if isinstance(self.value, Fraction):
            return self.value
        raise PricingError(f"value is not an exact rational: {self.value}")


# ---------------------------------------------------------------------------
# one-step kernel


@dataclass
class ScanGroup:
    """Countably many constraints V >= v(1/n) - h * d(1/n), n in [lo, hi]."""

    fid: str
    dpoly: Poly
    vpoly: Poly
    n_lo: int
    n_hi: Optional[int]

    def piece_at(self, n: int) -> AffinePiece:
        return AffinePiece(
            self.dpoly.at_index(n), self.vpoly.at_index(n), f"family:{self.fid}:n={n}"
        )

    def limit_piece(self) -> AffinePiece:
        return AffinePiece(
            self.dpoly.constant_term,
            self.vpoly.constant_term,
            f"family:{self.fid}:limit",
        )


@dataclass
class StepProblem:
    fixed: list[AffinePiece]
    groups: list[ScanGroup]


@dataclass
class StepResult:
    value: PriceValue
    attained: bool
    h: Optional[Fraction]
    tight_children: list[str]
    active: list[str]
    note: str = ""


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
    groups: list[ScanGroup] = []
    for inc, child in sorted(node.children, key=lambda c: c[1]):
        v = child_values[child]
        if v == MINUS_INF:
            continue
        if s.plus_ray and inc > 0:
            continue
        if s.minus_ray and inc < 0:
            continue
        lo, hi = value_bounds(v)
        # a child interval enters through its upper bound (safe superhedge)
        fixed.append(AffinePiece(inc, hi, f"node:{child}"))
    for fid in sorted(node.families):
        fam = tree.family(fid)
        if fid not in family_pieces:
            raise PricingError(f"no continuation values for family {fid!r}")
        killed_ray = (s.plus_ray or s.minus_ray) and not fam.poly.is_zero()
        if killed_ray:
            zeros = grid_summary(fam.poly, fam.n0, None).zeros
            for lo_p, hi_p, vpoly in family_pieces[fid]:
                for n in zeros:
                    if n >= lo_p and (hi_p is None or n <= hi_p):
                        fixed.append(
                            AffinePiece(
                                Fraction(0), vpoly.at_index(n), f"family:{fid}:n={n}"
                            )
                        )
            continue
        for lo_p, hi_p, vpoly in family_pieces[fid]:
            if hi_p is not None and hi_p - lo_p + 1 <= EXPAND_LIMIT:
                for n in range(lo_p, hi_p + 1):
                    fixed.append(
                        AffinePiece(
                            fam.poly.at_index(n),
                            vpoly.at_index(n),
                            f"family:{fid}:n={n}",
                        )
                    )
            else:
                groups.append(ScanGroup(fid, fam.poly, vpoly, lo_p, hi_p))
    return StepProblem(fixed, groups)


def _group_violation(group: ScanGroup, V: Fraction, h: Fraction):
    """Most violated member of the group at (V, h), exactly."""
    psi = group.vpoly - group.dpoly.scale(h)
    psi = psi.shift(-V)
    summary = grid_summary(psi, group.n_lo, group.n_hi)
    if summary.max_val > 0:
        return summary.max_arg, summary.max_val
    if summary.limit is not None and summary.limit > 0:
        n = grid_member_above(psi, Fraction(0), group.n_lo, group.n_hi)
        if n is not None:
            return n, psi.at_index(n)
    return None, Fraction(0)


def _asymptotic_value(problem: StepProblem, direction: int):
    """Envelope value as h -> +-inf, or None when that direction is blocked."""
    floor = None
    for p in problem.fixed:
        sgn = p.slope
        if (direction > 0 and sgn < 0) or (direction < 0 and sgn > 0):
            return None
        if sgn == 0:
            floor = p.value if floor is None else max(floor, p.value)
    for g in problem.groups:
        s = grid_summary(g.dpoly, g.n_lo, g.n_hi)
        if (direction > 0 and s.has_neg) or (direction < 0 and s.has_pos):
            return None
        for n in s.zeros:
            v = g.vpoly.at_index(n)
            floor = v if floor is None else max(floor, v)
        if g.n_hi is None and g.dpoly.constant_term == 0:
            v = g.vpoly.constant_term
            floor = v if floor is None else max(floor, v)
    return MINUS_INF if floor is None else floor


def _blocking_member(problem: StepProblem, direction: int) -> Optional[AffinePiece]:
    """A group member whose slope blocks the drift direction, if any."""
    for g in problem.groups:
        probe = -g.dpoly if direction > 0 else g.dpoly
        n = grid_member_above(probe, Fraction(0), g.n_lo, g.n_hi)
        if n is not None:
            return g.piece_at(n)
    return None


def _tangent_candidate(group: ScanGroup, V: Fraction) -> Optional[Fraction]:
    """Slope of the binding tail constraints: lowest-order coefficient ratio."""
    num = group.vpoly.shift(-V)
    den = group.dpoly
    na, nb = list(num.coeffs), list(den.coeffs)
    k = 0
    while k < max(len(na), len(nb)):
        a = na[k] if k < len(na) else Fraction(0)
        b = nb[k] if k < len(nb) else Fraction(0)
        if b != 0:
            return a / b
        if a != 0:
            return None
        k += 1
    return None


def _step_feasible(problem: StepProblem, V: Fraction, h: Fraction) -> bool:
    for p in problem.fixed:
        if p.value - h * p.slope > V:
            return False
    for g in problem.groups:
        n, viol = _group_violation(g, V, h)
        if n is not None:
            return False
    return True


def solve_step(problem: StepProblem, tolerance: Fraction = DEFAULT_TOLERANCE) -> StepResult:
    """Exact value of the one-step program, attained flag and certificate."""
    working: list[AffinePiece] = list(problem.fixed)
    for g in problem.groups:
        if g.n_hi is None:
            working.append(g.limit_piece())
        top = g.n_lo + 3 if g.n_hi is None else min(g.n_lo + 3, g.n_hi)
        for n in range(g.n_lo, top + 1):
            working.append(g.piece_at(n))
        if g.n_hi is not None:
            working.append(g.piece_at(g.n_hi))
    seen = {p.label for p in working}

    stagnant = 0
    last_value: Optional[Fraction] = None
    last_point: Optional[tuple[Fraction, Fraction]] = None
    res: MinMaxResult = min_max_affine(working)
    for _ in range(MAX_ROUNDS):
        if res.value == MINUS_INF and not res.drift:
            return StepResult(MINUS_INF, False, None, [], [], "no surviving constraints")
        if res.drift:
            blocker = _blocking_member(problem, res.drift)
            if blocker is None:
                limit = _asymptotic_value(problem, res.drift)
                if limit is None:
                    raise PricingError("unblocked drift direction has no asymptotic value")
                if limit == MINUS_INF:
                    return StepResult(
                        MINUS_INF, False, None, [], [], "one-sided harvest"
                    )
                return _drift_result(problem, limit, res.drift)
            if blocker.label in seen:  # pragma: no cover - blocked drift recurring
                raise PricingError("exchange stalled on a blocked drift direction")
            seen.add(blocker.label)
            working.append(blocker)
            res = min_max_affine(working)
            continue

        V, h = res.value, res.h
        if not isinstance(V, Fraction) or h is None:
            raise PricingError("min-max round returned no finite value and hedge")
        last_point = (V, h)
        violations = []
        for g in problem.groups:
            n, viol = _group_violation(g, V, h)
            if n is not None:
                violations.append((viol, g, n))
        if not violations:
            tight_children = [
                lbl.split(":", 1)[1] for lbl in res.tight if lbl.startswith("node:")
            ]
            return StepResult(V, True, h, tight_children, sorted(res.tight))

        if abs(h) > DRIFT_THRESHOLD:
            direction = 1 if h > 0 else -1
            limit = _asymptotic_value(problem, direction)
            if limit is not None and limit == V:
                return _drift_result(problem, limit, direction)

        if last_value == V:
            stagnant += 1
        else:
            stagnant, last_value = 0, V
        if stagnant >= 20:
            for _, g, _n in violations:
                cand = _tangent_candidate(g, V)
                if cand is not None and _step_feasible(problem, V, cand):
                    return StepResult(V, True, cand, [], [], "tangent hedge")

        for viol, g, n in sorted(violations, key=lambda t: -t[0]):
            label = f"family:{g.fid}:n={n}"
            if label not in seen:
                seen.add(label)
                working.append(g.piece_at(n))
        res = min_max_affine(working)

    if last_point is None:
        raise PricingError("exchange made no progress")
    V, h = last_point
    worst = Fraction(0)
    for g in problem.groups:
        _, viol = _group_violation(g, V, h)
        worst = max(worst, viol)
    interval = Interval(V, V + worst)
    if interval.width <= tolerance:
        return StepResult(interval, False, h, [], [], "interval (round cap)")
    raise UnconvergedError(interval)


def _drift_result(problem: StepProblem, limit: Fraction, direction: int) -> StepResult:
    active = []
    for p in problem.fixed:
        if p.slope == 0 and p.value == limit:
            active.append(p.label)
    for g in problem.groups:
        if g.n_hi is None and g.dpoly.constant_term == 0 and g.vpoly.constant_term == limit:
            active.append(f"family:{g.fid}:limit")
    note = f"infimum approached as h -> {'+' if direction > 0 else '-'}inf"
    return StepResult(limit, False, None, [], sorted(active), note)


def one_step_superhedge(
    tree: TrajectoryTree,
    nid: str,
    child_values: dict[str, PriceValue],
    family_pieces: Optional[dict[str, Sequence[Piece]]] = None,
    analysis: Optional[Analysis] = None,
    tolerance: Fraction = DEFAULT_TOLERANCE,
) -> StepResult:
    """Single-period superhedging kernel at a node (continuation values given)."""
    analysis = analysis or analyze(tree)
    if analysis.l_fails(nid):
        return StepResult(
            MINUS_INF, False, None, [], [], "continuity from below fails here"
        )
    problem = _build_step_problem(
        tree, analysis, nid, child_values, family_pieces or {}
    )
    if not problem.fixed and not problem.groups:
        return StepResult(MINUS_INF, False, None, [], [], "all children waived")
    return solve_step(problem, tolerance)


def one_step_feasible_hedge(
    tree: TrajectoryTree,
    nid: str,
    child_values: dict[str, PriceValue],
    family_pieces: Optional[dict[str, Sequence[Piece]]],
    target: Fraction,
    analysis: Optional[Analysis] = None,
) -> Optional[Fraction]:
    """A finite position h with target + h*inc >= continuation on survivors.

    Returns None exactly when no finite position exists (the one-step value
    exceeds the target, or equals it without attainment).
    """
    analysis = analysis or analyze(tree)
    problem = _build_step_problem(
        tree, analysis, nid, child_values, family_pieces or {}
    )
    if not problem.fixed and not problem.groups:
        return Fraction(0)
    step = solve_step(problem)
    lo, hi = value_bounds(step.value)
    if hi != MINUS_INF and hi > target:
        if lo == hi:
            return None
        raise UnconvergedError(Interval(lo, hi))
    if step.attained and hi <= target:
        return step.h
    if hi != MINUS_INF and lo == target and not step.attained:
        return None  # infimum equals the target but is never reached
    # unattained infimum strictly below the target: walk out in the drift
    # direction until the slack certifies feasibility
    for direction in (-1, 1):
        a = _asymptotic_value(problem, direction)
        if a is None:
            continue
        if a != MINUS_INF and a >= target:
            continue
        h = Fraction(direction)
        for _ in range(200):
            if _step_feasible(problem, target, h):
                return h
            h *= 2
    return None


# ---------------------------------------------------------------------------
# sigma_bar: backward induction


@dataclass
class _NodeEval:
    value: PriceValue
    attained: bool
    h: Optional[Fraction]
    tight_children: list[str]
    active: list[str]
    note: str = ""


def sigma_bar(
    tree: TrajectoryTree,
    f: PayoffSpec,
    nid: Optional[str] = None,
    tolerance: Fraction = DEFAULT_TOLERANCE,
) -> PriceResult:
    """Conditional superhedging price of f at a node (default: the root)."""
    nid = nid if nid is not None else tree.root
    analysis = analyze(tree)
    f.validate(tree)
    memo: dict[str, _NodeEval] = {}

    def ev(cur: str) -> _NodeEval:
        if cur in memo:
            return memo[cur]
        node = tree.node(cur)
        if analysis.l_fails(cur):
            out = _NodeEval(
                MINUS_INF, False, None, [], [], "continuity from below fails"
            )
        elif node.time >= f.maturity:
            site = tree.ancestor_at(cur, f.maturity)
            v = f.node_values[site]
            out = _NodeEval(v, v != MINUS_INF, Fraction(0), [], [f"payoff:{site}"])
        else:
            child_values = {child: ev(child).value for _, child in node.children}
            pieces = {fid: f.family_values[fid] for fid in node.families}
            step = one_step_superhedge(
                tree, cur, child_values, pieces, analysis, tolerance
            )
            attained = step.attained and all(
                ev(c).attained for c in step.tight_children
            )
            out = _NodeEval(
                step.value, attained, step.h, step.tight_children, step.active,
                step.note,
            )
        memo[cur] = out
        return out

    top = ev(nid)
    hedge = HedgeSequence()
    for sub in tree.subtree(nid):
        e = memo.get(sub)
        if e is not None and e.h is not None and not tree.node(sub).is_leaf:
            if tree.node(sub).time < f.maturity:
                hedge.set(tree.node(sub).time, sub, e.h)
    strategy = None
    if top.attained and isinstance(top.value, Fraction):
        strategy = SimpleStrategy(
            top.value, hedge, start_time=tree.node(nid).time, start_node=nid
        )
    return PriceResult(top.value, top.attained, strategy, top.active, top.note)


def sigma_bar_all(
    tree: TrajectoryTree,
    f: PayoffSpec,
    tolerance: Fraction = DEFAULT_TOLERANCE,
) -> dict[str, PriceValue]:
    """Conditional outer price of f at every node, in one shared recursion."""
    analysis = analyze(tree)
    f.validate(tree)
    memo: dict[str, PriceValue] = {}

    def ev(cur: str) -> PriceValue:
        if cur in memo:
            return memo[cur]
        node = tree.node(cur)
        if analysis.l_fails(cur):
            out: PriceValue = MINUS_INF
        elif node.time >= f.maturity:
            out = f.node_values[tree.ancestor_at(cur, f.maturity)]
        else:
            child_values = {child: ev(child) for _, child in node.children}
            pieces = {fid: f.family_values[fid] for fid in node.families}
            step = one_step_superhedge(
                tree, cur, child_values, pieces, analysis, tolerance
            )
            out = step.value
        memo[cur] = out
        return out

    for nd in sorted(tree.nodes.values(), key=lambda n: -n.time):
        ev(nd.nid)
    return memo


def i_bar_backward_all(
    tree: TrajectoryTree,
    f: PayoffSpec,
    tolerance: Fraction = DEFAULT_TOLERANCE,
) -> dict[str, PriceValue]:
    """Null-operator value at every node via the backward route."""
    return dict(_i_bar_backward_memo(tree, f, tolerance))


def sigma_bar_payoff(
    tree: TrajectoryTree, f: PayoffSpec, at_time: int,
    tolerance: Fraction = DEFAULT_TOLERANCE,
) -> PayoffSpec:
    """sigma_bar_k f as a maturity-k payoff (values -inf where continuity fails)."""
    if at_time > f.maturity:
        raise PricingError("evaluation time after maturity")
    node_values: dict[str, PriceValue] = {}
    for nd in tree.nodes_at_time(at_time):
        r = sigma_bar(tree, f, nd.nid, tolerance)
        if isinstance(r.value, Interval):
            raise UnconvergedError(r.value)
        node_values[nd.nid] = r.value
    fam_values = {}
    for fam in tree.families_born_by(at_time):
        fam_values[fam.fid] = f.family_values[fam.fid]
    spec = PayoffSpec(at_time, node_values, fam_values)
    spec.validate(tree)
    return spec


def tower_check(
    tree: TrajectoryTree, f: PayoffSpec, j: int, k: int
) -> tuple[bool, Optional[str]]:
    """sigma_j(sigma_k f) <= sigma_j f at every time-j node; witness on failure."""
    if not 0 <= j <= k <= f.maturity:
        raise PricingError("need j <= k <= maturity")
    inner = sigma_bar_payoff(tree, f, k)
    for nd in tree.nodes_at_time(j):
        lhs = sigma_bar(tree, inner, nd.nid).value
        rhs = sigma_bar(tree, f, nd.nid).value
        if lhs == MINUS_INF:
            continue
        if rhs == MINUS_INF or not value_le(lhs, rhs):
            return False, nd.nid
    return True, None


def check_integrable(tree: TrajectoryTree, f: PayoffSpec, j: int = 0) -> bool:
    """Outer and inner prices of f agree at time j off the null cover."""
    analysis = analyze(tree)
    neg = f.map_values(lambda v: -v)
    for nd in tree.nodes_at_time(j):
        if analysis.fully_covered(nd.nid):
            continue
        a = sigma_bar(tree, f, nd.nid).value
        b = sigma_bar(tree, neg, nd.nid).value
        if a == MINUS_INF or b == MINUS_INF:
            return False
        if a != -b:
            return False
    return True


# ---------------------------------------------------------------------------
# supermartingale check (one-step prices against the running values)


def one_step_price_of_next(
    tree: TrajectoryTree, f: ProcessSequence, nid: str,
    analysis: Optional[Analysis] = None,
) -> StepResult:
    analysis = analysis or analyze(tree)
    node = tree.node(nid)
    j = node.time
    child_values: dict[str, PriceValue] = {}
    for _, child in node.children:
        if analysis.l_fails(child):
            child_values[child] = MINUS_INF
        else:
            child_values[child] = f[j + 1].node_values[child]
    pieces = {fid: f[j + 1].family_values[fid] for fid in node.families}
    return one_step_superhedge(tree, nid, child_values, pieces, analysis)


def check_supermartingale(
    tree: TrajectoryTree, f: ProcessSequence
) -> tuple[bool, Optional[str]]:
    """One-step prices dominate the running values off the null cover."""
    analysis = analyze(tree)
    for j in range(tree.horizon):
        for nd in tree.nodes_at_time(j):
            if nd.is_leaf or analysis.fully_covered(nd.nid):
                continue
            step = one_step_price_of_next(tree, f, nd.nid, analysis)
            lo, hi = value_bounds(step.value) if step.value != MINUS_INF else (
                MINUS_INF, MINUS_INF
            )
            if hi == MINUS_INF:
                continue
            target = f[j].node_values[nd.nid]
            if hi <= target:
                continue
            if lo > target:
                return False, nd.nid
            raise UnconvergedError(Interval(lo, hi))
        # member positions: the sequence itself must not climb along survivors
        for fam in tree.families_born_by(j):
            for lo_r, hi_r in analysis.alive_member_ranges(fam.fid):
                diff = _member_diff(f, fam.fid, j, lo_r, hi_r)
                if diff is None:
                    continue
                for seg_lo, seg_hi, poly in diff:
                    s = grid_summary(poly, seg_lo, seg_hi)
                    if s.has_pos:
                        n = grid_member_above(poly, Fraction(0), seg_lo, seg_hi)
                        return False, f"family:{fam.fid}:n={n}"
    return True, None


def _member_diff(f: ProcessSequence, fid: str, j: int, lo: int, hi: Optional[int]):
    """(f_{j+1} - f_j) on members of fid in [lo, hi], as refined pieces."""
    tree = f.tree
    birth = tree.family_birth(fid)
    if j + 1 <= tree.horizon and j + 1 < birth:
        return None
    out = []
    if j < birth:
        # previous value is the parent's node value at time j
        prev_const = f[j].node_values[tree.ancestor_at(tree.family(fid).parent, j)]
        for p_lo, p_hi, poly in f[j + 1].family_values[fid]:
            s_lo, s_hi = max(p_lo, lo), _min_hi(p_hi, hi)
            if s_hi is not None and s_lo > s_hi:
                continue
            out.append((s_lo, s_hi, poly.shift(-prev_const)))
        return out
    for p_lo, p_hi, poly_next in f[j + 1].family_values[fid]:
        for q_lo, q_hi, poly_prev in f[j].family_values[fid]:
            s_lo = max(p_lo, q_lo, lo)
            s_hi = _min_hi(_min_hi(p_hi, q_hi), hi)
            if s_hi is not None and s_lo > s_hi:
                continue
            if s_hi is None or s_lo <= s_hi:
                out.append((s_lo, s_hi, poly_next - poly_prev))
    return out


def _min_hi(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


# ---------------------------------------------------------------------------
# i_bar: aggregated nonnegative-wealth program


def i_bar(
    tree: TrajectoryTree,
    f: PayoffSpec,
    nid: Optional[str] = None,
    tolerance: Fraction = DEFAULT_TOLERANCE,
) -> PriceResult:
    """Null-operator value: cheapest nonnegative aggregate dominating f."""
    nid = nid if nid is not None else tree.root
    analysis = analyze(tree)
    f.validate(tree)
    if not f.is_nonnegative(tree):
        raise PricingError("the null operator applies to nonnegative payoffs")
    start = tree.node(nid)
    if start.time > f.maturity:
        # the claim is a constant here; it is harvested for free from bad nodes
        if not analysis.good[nid]:
            return PriceResult(Fraction(0), True, None, [], "bad node: free harvest")
        site = tree.ancestor_at(nid, f.maturity)
        v = f.node_values[site]
        return PriceResult(v, True, None, [f"payoff:{site}"])

    # ---- collect alive structure ------------------------------------------
    var_of: dict[str, int] = {}
    wealth: dict[str, dict[int, Fraction]] = {nid: {0: Fraction(1)}}
    rows: list[tuple[dict[int, Fraction], Fraction, str]] = []
    groups: list[tuple[str, ScanGroup]] = []  # (owner node, group)

    order: list[str] = []
    stack = [nid]
    while stack:
        cur = stack.pop()
        order.append(cur)
        node = tree.node(cur)
        if node.time >= f.maturity:
            continue
        s = analysis.summaries[cur]
        for inc, child in sorted(node.children, key=lambda c: c[1], reverse=True):
            if (s.plus_ray and inc > 0) or (s.minus_ray and inc < 0):
                continue  # harvested cylinder: no constraints inside
            stack.append(child)

    def hvar(owner: str) -> int:
        if owner not in var_of:
            var_of[owner] = len(var_of) + 1
        return var_of[owner]

    for cur in order:
        node = tree.node(cur)
        w = wealth[cur]
        rows.append((dict(w), Fraction(0), f"floor:{cur}"))
        if node.time >= f.maturity:
            # a bad site's whole future is harvestable: its claim is waived
            if analysis.good[cur]:
                rows.append((dict(w), f.node_values[cur], f"payoff:{cur}"))
            continue
        s = analysis.summaries[cur]
        alive_children = [
            (inc, child)
            for inc, child in sorted(node.children, key=lambda c: c[1])
            if not ((s.plus_ray and inc > 0) or (s.minus_ray and inc < 0))
        ]
        needs_hedge = any(inc != 0 for inc, _ in alive_children)
        fam_alive: list[tuple[str, bool]] = []
        for fid in sorted(node.families):
            fam = tree.family(fid)
            killed = (s.plus_ray or s.minus_ray) and not fam.poly.is_zero()
            fam_alive.append((fid, killed))
            if not killed:
                needs_hedge = True
        hv = hvar(cur) if needs_hedge else None
        for inc, child in alive_children:
            cw = dict(w)
            if hv is not None and inc != 0:
                cw[hv] = cw.get(hv, Fraction(0)) + inc
            wealth[child] = cw
        for fid, killed in fam_alive:
            fam = tree.family(fid)
            if killed:
                zeros = grid_summary(fam.poly, fam.n0, None).zeros
                for lo_p, hi_p, vpoly in f.family_values[fid]:
                    for n in zeros:
                        if n >= lo_p and (hi_p is None or n <= hi_p):
                            rows.append(
                                (dict(w), vpoly.at_index(n), f"family:{fid}:n={n}")
                            )
                continue
            for lo_p, hi_p, vpoly in f.family_values[fid]:
                if hi_p is not None and hi_p - lo_p + 1 <= EXPAND_LIMIT:
                    for n in range(lo_p, hi_p + 1):
                        cw = dict(w)
                        if hv is not None:
                            cw[hv] = cw.get(hv, Fraction(0)) + fam.poly.at_index(n)
                        rows.append((cw, vpoly.at_index(n), f"family:{fid}:n={n}"))
                else:
                    groups.append((cur, ScanGroup(fid, fam.poly, vpoly, lo_p, hi_p)))

    # seed rows for scan groups: limit + first members
    work_rows = list(rows)
    seen: set[str] = set()

    def group_row(owner: str, g: ScanGroup, n: Optional[int]):
        w = dict(wealth[owner])
        hv = var_of.get(owner)
        if n is None:
            slope, v = g.dpoly.constant_term, g.vpoly.constant_term
            label = f"family:{g.fid}:limit"
        else:
            slope, v = g.dpoly.at_index(n), g.vpoly.at_index(n)
            label = f"family:{g.fid}:n={n}"
        if hv is not None and slope != 0:
            w[hv] = w.get(hv, Fraction(0)) + slope
        return (w, v, label)

    for owner, g in groups:
        if g.n_hi is None:
            work_rows.append(group_row(owner, g, None))
        top = g.n_lo + 3 if g.n_hi is None else min(g.n_lo + 3, g.n_hi)
        for n in range(g.n_lo, top + 1):
            work_rows.append(group_row(owner, g, n))
    seen = {label for _, _, label in work_rows}

    nvars = len(var_of) + 1
    cost = [Fraction(0)] * nvars
    cost[0] = Fraction(1)

    def densify(w: dict[int, Fraction]) -> list[Fraction]:
        return [w.get(i, Fraction(0)) for i in range(nvars)]

    result = None
    for _ in range(MAX_ROUNDS):
        mat = [densify(w) for w, _, _ in work_rows]
        rhs = [v for _, v, _ in work_rows]
        sol = minimize(cost, mat, rhs)
        if sol.status != "optimal":  # pragma: no cover - program is feasible
            raise PricingError(f"nonnegative-wealth program {sol.status}")
        violations = []
        for owner, g in groups:
            w_here = sum(
                coef * sol.x[i] for i, coef in wealth[owner].items()
            )
            hv = var_of.get(owner)
            h_here = sol.x[hv] if hv is not None else Fraction(0)
            psi = g.vpoly - g.dpoly.scale(h_here)
            psi = psi.shift(-w_here)
            s = grid_summary(psi, g.n_lo, g.n_hi)
            worst_n = None
            if s.max_val > 0:
                worst_n = s.max_arg
            elif s.limit is not None and s.limit > 0:
                worst_n = grid_member_above(psi, Fraction(0), g.n_lo, g.n_hi)
            if worst_n is not None:
                violations.append((psi.at_index(worst_n), owner, g, worst_n))
        if not violations:
            result = (sol, work_rows)
            break
        for viol, owner, g, n in sorted(violations, key=lambda t: -t[0]):
            label = f"family:{g.fid}:n={n}"
            if label not in seen:
                seen.add(label)
                work_rows.append(group_row(owner, g, n))
    if result is None:
        worst = max(v for v, *_ in violations)
        interval = Interval(sol.value, sol.value + worst)
        if interval.width <= tolerance:
            return PriceResult(interval, False, None, [], "interval (round cap)")
        raise UnconvergedError(interval)

    sol, final_rows = result
    hedge = HedgeSequence()
    for owner, idx in var_of.items():
        hedge.set(tree.node(owner).time, owner, sol.x[idx])
    strategy = SimpleStrategy(
        sol.value, hedge, start_time=start.time, start_node=nid
    )
    active = sorted(final_rows[i][2] for i in sol.tight)
    note = "model value (aggregated nonnegative-strategy program)"
    return PriceResult(sol.value, True, strategy, active, note)


def i_bar_backward(
    tree: TrajectoryTree,
    f: PayoffSpec,
    nid: Optional[str] = None,
    tolerance: Fraction = DEFAULT_TOLERANCE,
) -> PriceValue:
    """Null-operator value by backward induction (independent of the LP).

    The minimal entering wealth from which a nonnegative aggregate can cover
    the claim propagates node-wise: at each surviving node it is the one-step
    kernel value over the children's requirements, floored at zero.
    """
    nid = nid if nid is not None else tree.root
    return _i_bar_backward_memo(tree, f, tolerance)[nid]


def _i_bar_backward_memo(
    tree: TrajectoryTree, f: PayoffSpec, tolerance: Fraction
) -> dict[str, PriceValue]:
    analysis = analyze(tree)
    f.validate(tree)
    if not f.is_nonnegative(tree):
        raise PricingError("the null operator applies to nonnegative payoffs")

    memo: dict[str, PriceValue] = {}

    def ev(cur: str) -> PriceValue:
        if cur in memo:
            return memo[cur]
        node = tree.node(cur)
        if node.time >= f.maturity:
            if not analysis.good[cur]:
                out: PriceValue = Fraction(0)
            else:
                out = f.node_values[tree.ancestor_at(cur, f.maturity)]
        else:
            s = analysis.summaries[cur]
            child_values = {}
            for inc, child in node.children:
                if (s.plus_ray and inc > 0) or (s.minus_ray and inc < 0):
                    child_values[child] = MINUS_INF  # harvested cylinder
                else:
                    child_values[child] = ev(child)
            pieces = {fid: f.family_values[fid] for fid in node.families}
            problem = _build_step_problem(tree, analysis, cur, child_values, pieces)
            if not problem.fixed and not problem.groups:
                out = Fraction(0)
            else:
                step = solve_step(problem, tolerance)
                lo, hi = value_bounds(step.value)
                if hi == MINUS_INF or hi <= 0:
                    out = Fraction(0)
                elif lo != hi and lo < 0:
                    out = Interval(Fraction(0), hi)
                else:
                    out = step.value
        memo[cur] = out
        return out

    for nd in sorted(tree.nodes.values(), key=lambda n: -n.time):
        ev(nd.nid)
    return memo


def norm_j(
    tree: TrajectoryTree, g: PayoffSpec, nid: Optional[str] = None
) -> PriceResult:
    """Conditional norm: null-operator value of |g|."""
    return i_bar(tree, abs_payoff(tree, g), nid)


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


def is_null(
    tree: TrajectoryTree, event: EventSet, nid: Optional[str] = None
) -> tuple[bool, PriceResult]:
    """Is the event a conditionally null set at the node (default root)?"""
    if event.is_empty():
        return True, PriceResult(Fraction(0), True, None, [], "empty event")
    res = i_bar(tree, indicator_payoff(tree, event), nid)
    lo, hi = value_bounds(res.value)
    return hi == 0, res
