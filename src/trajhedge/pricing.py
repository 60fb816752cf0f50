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
exact violation oracle.  Every answer is an exact rational or -inf, and the
loop stops only on one of three exact tests:

* attained: no member is violated at the working optimum;
* tangent: a violated family's tail is tangent at the working value, at a
  position that passes every constraint (the optimum no finite working set
  reaches);
* drift: a violated family's tail is violated at every position and the
  working value is the asymptotic envelope in an unblocked direction (the
  unattained infimum as |h| -> infinity).

Its round cap is a guard that raises ``UnconvergedError``, never an answer.

``i_bar`` is the null operator: one aggregated strategy whose wealth stays
nonnegative at every surviving node and dominates the claim at maturity.
Wealth links each node only to its parent, so this is the same backward
induction floored at zero, with a position per node as its certificate (the
aggregated program, as one exact LP, is the test oracle ``oracle.i_bar_lp``).
Its value on payoffs beyond the proven cases is reported as the model value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence, Union

from .analysis import Analysis, Atom, EventSet, FamilyAtom, IncrementSummary, NodeAtom, analyze
from .lp import AffinePiece, MinMaxResult, min_max_affine
from .model import (
    MINUS_INF,
    ZERO,
    Family,
    HedgeSequence,
    Node,
    NRange,
    PayoffSpec,
    Piece,
    ProcessSequence,
    QueryError,
    SimpleStrategy,
    TrajectoryTree,
    abs_payoff,
    exceeds,
    member_diff,
    nonneg_windows,
)
from .poly import Poly, grid_member_above, grid_summary, ranges_excluding, rat_str, split_ranges

MAX_ROUNDS = 200  # a guard on the exchange loop, never an answer (see solve_step)


class PricingError(QueryError):
    pass


class UnconvergedError(PricingError):
    def __init__(self, interval: "Interval"):
        super().__init__(
            f"exchange did not close; best interval "
            f"[{rat_str(interval.lo)}, {rat_str(interval.hi)}]"
        )
        self.interval = interval


@dataclass(frozen=True)
class Interval:
    lo: Fraction
    hi: Fraction


PriceValue = Union[Fraction, float]  # an exact rational, or the -inf marker


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

    def seed_pieces(self) -> list[AffinePiece]:
        """The exchange's opening members: the first four, with the limit of
        an unbounded window or the last member of a bounded one."""
        if self.n_hi is None:
            head = range(self.n_lo, self.n_lo + 4)
            return [self.limit_piece(), *(self.piece_at(n) for n in head)]
        ns = sorted({*range(self.n_lo, min(self.n_lo + 3, self.n_hi) + 1), self.n_hi})
        return [self.piece_at(n) for n in ns]

    def violation(self, V: Fraction, h: Fraction) -> tuple[Optional[int], Fraction]:
        """A member with v - h * d > V (the grid maximum when one is
        attained) and its excess, or (None, 0) when no member exceeds V."""
        psi = (self.vpoly - self.dpoly.scale(h)).shift(-V)
        n = grid_member_above(psi, Fraction(0), self.n_lo, self.n_hi)
        return (None, Fraction(0)) if n is None else (n, psi.at_index(n))


def scan_groups(fam: Family, pieces: Sequence[Piece]) -> list[ScanGroup]:
    """One scan group per payoff piece on the family's members."""
    return [ScanGroup(fam.fid, fam.poly, vpoly, lo, hi) for lo, hi, vpoly in pieces]


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
    # the problem solved; None where continuity from below fails
    problem: Optional[StepProblem] = field(default=None, compare=False, repr=False)


def _build_step_problem(
    tree: TrajectoryTree,
    analysis: Analysis,
    nid: str,
    child_values: dict[str, PriceValue],
    family_pieces: dict[str, Sequence[Piece]],
) -> StepProblem:
    fixed: list[AffinePiece] = []
    for inc, child, label in analysis.step_children[nid]:
        v = child_values[child]
        # a float child value is only ever the -inf marker
        if type(v) is not float:
            fixed.append(AffinePiece(inc, v, label))
    node = tree.node(nid)
    if not node.families:
        return StepProblem(fixed, [])
    members, groups = _family_constraints(tree, analysis.summaries[nid], node, family_pieces)
    return StepProblem(fixed + members, groups)


def _family_constraints(
    tree: TrajectoryTree,
    s: IncrementSummary,
    node: Node,
    family_pieces: dict[str, Sequence[Piece]],
) -> tuple[list[AffinePiece], list[ScanGroup]]:
    """Member constraints of a node's families, as plain pieces and scan groups.

    At a harvest node every moving member is a harvested cylinder, so only
    the zero-increment members constrain, as plain pieces; elsewhere each
    member range is a scan group."""
    fixed: list[AffinePiece] = []
    groups: list[ScanGroup] = []
    for fid in sorted(node.families):
        fam = tree.family(fid)
        if fid not in family_pieces:
            raise PricingError(f"no continuation values for family {fid!r}")
        scans = scan_groups(fam, family_pieces[fid])
        if s.plus_ray or s.minus_ray:
            zeros = grid_summary(fam.poly, fam.n0, None).zeros
            for g in scans:
                fixed.extend(
                    g.piece_at(n)
                    for n in zeros
                    if n >= g.n_lo and (g.n_hi is None or n <= g.n_hi)
                )
            continue
        groups.extend(scans)
    return fixed, groups


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


def _tail(group: ScanGroup, V: Fraction) -> tuple[Optional[Fraction], bool]:
    """The group's members as n -> inf against level V, read off the
    lowest-order coefficients of v - V and d at t = 0 in one walk.

    Returns the tangent slope, the ratio of those coefficients at the order
    of d (None when v - V has a lower order), and whether the tail is
    violated at every h: on an unbounded window, v - V of lower order than d
    with a positive leading coefficient."""
    num, den = group.vpoly.shift(-V).coeffs, group.dpoly.coeffs
    for k in range(max(len(num), len(den))):
        a = num[k] if k < len(num) else 0
        b = den[k] if k < len(den) else 0
        if b != 0:
            return a / b, False
        if a != 0:
            return None, a > 0 and group.n_hi is None
    return None, False


def _step_feasible(problem: StepProblem, V: Fraction, h: Fraction) -> bool:
    for p in problem.fixed:
        if p.value - h * p.slope > V:
            return False
    for g in problem.groups:
        n, _ = g.violation(V, h)
        if n is not None:
            return False
    return True


def solve_step(problem: StepProblem) -> StepResult:
    """Exact value of the one-step program, attained flag and certificate.

    Constraint exchange: the working set's min-max value V never exceeds the
    step's value V*.  A round that leaves violated members closes the step
    exactly when
      * the tail of a violated group is tangent at V, at a slope h that
        passes every constraint (V = V*, attained there: "tangent hedge"), or
      * the tail of a violated unbounded group is violated at every h (so no
        finite h reaches V) and V is the envelope's limit in an unblocked
        direction (V = V*, approached as |h| -> inf);
    otherwise the round's most violated members join the working set.

    Why MAX_ROUNDS is never reached: on a closed h-interval that avoids each
    unbounded group's tangent slope, only finitely many of its members rise
    above its limit piece, so there the program is a finite max and exchange
    ends with no violation.  At a tangent slope the tail adds no slope beyond
    its limit piece's, which the working set holds from the first round, so V
    reaches V* once the finitely many head members active at the optimum are
    in; a working optimum that still sees violations is then the tangent
    itself, or lies at |h| = inf, where some tail stays violated at every h.
    The cap raises ``UnconvergedError`` rather than answer.  The result
    carries ``problem``.
    """
    result = _exchange(problem)
    result.problem = problem
    return result


def _exchange(problem: StepProblem) -> StepResult:
    """``solve_step``'s answer, before the problem is attached."""
    if not problem.groups:
        # no member to add and none to block a drift: one round is final
        res = min_max_affine(problem.fixed)
        if res.drift:
            return _drift_exit(problem, res.drift)
        if type(res.value) is float:  # the -inf marker
            return StepResult(MINUS_INF, False, None, [], [], "no surviving constraints")
        return _attained(res)
    working: list[AffinePiece] = list(problem.fixed)
    for g in problem.groups:
        working.extend(g.seed_pieces())
    seen = {p.label for p in working}

    res: MinMaxResult = min_max_affine(working)
    for _ in range(MAX_ROUNDS):
        if type(res.value) is float and not res.drift:  # the -inf marker
            return StepResult(MINUS_INF, False, None, [], [], "no surviving constraints")
        if res.drift:
            # the working set is one-sided; after its blocker it never is again
            blocker = _blocking_member(problem, res.drift)
            if blocker is None:
                return _drift_exit(problem, res.drift)
            if blocker.label in seen:  # pragma: no cover - blocked drift recurring
                raise PricingError("exchange stalled on a blocked drift direction")
            seen.add(blocker.label)
            working.append(blocker)
            res = min_max_affine(working)
            continue

        V, h = res.value, res.h
        if not isinstance(V, Fraction) or h is None:
            raise PricingError("min-max round returned no finite value and hedge")
        violations = []
        for g in problem.groups:
            n, viol = g.violation(V, h)
            if n is not None:
                violations.append((viol, g, n))
        if not violations:
            return _attained(res)

        tails = [_tail(g, V) for _, g, _n in violations]
        if any(everywhere for _, everywhere in tails):
            # no h reaches V, so no tangent can: V* = V only as a limit
            for direction in (1, -1):
                if _asymptotic_value(problem, direction) == V:
                    return _drift_result(problem, V, direction)
        else:
            for cand, _ in tails:
                if cand is not None and _step_feasible(problem, V, cand):
                    return StepResult(V, True, cand, [], [], "tangent hedge")

        for viol, g, n in sorted(violations, key=lambda t: -t[0]):
            label = f"family:{g.fid}:n={n}"
            if label not in seen:
                seen.add(label)
                working.append(g.piece_at(n))
        res = min_max_affine(working)

    # every round after a blocker is two-sided, so V and violations are bound
    raise UnconvergedError(Interval(V, V + max(viol for viol, _, _ in violations)))


def _attained(res: MinMaxResult) -> StepResult:
    """The step's answer from a final min-max round with a finite optimum."""
    tight = res.tight
    tight_children = [lbl[5:] for lbl in tight if lbl.startswith("node:")]
    active = sorted(tight) if len(tight) > 1 else tight
    return StepResult(res.value, True, res.h, tight_children, active)


def _drift_exit(problem: StepProblem, direction: int) -> StepResult:
    """The step's answer when no member blocks the drift direction."""
    limit = _asymptotic_value(problem, direction)
    if limit is None:
        raise PricingError("unblocked drift direction has no asymptotic value")
    if limit == MINUS_INF:
        return StepResult(MINUS_INF, False, None, [], [], "one-sided harvest")
    return _drift_result(problem, limit, direction)


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


def node_step(
    analysis: Analysis,
    nid: str,
    child_values: dict[str, PriceValue],
    family_pieces: dict[str, Sequence[Piece]],
) -> StepResult:
    """The node's one-step problem, solved; the answer of an empty problem
    (every child waived) is -inf.  Children valued -inf and harvested moves
    drop out; the result carries the problem."""
    problem = _build_step_problem(analysis.tree, analysis, nid, child_values, family_pieces)
    if not problem.fixed and not problem.groups:
        return StepResult(MINUS_INF, False, None, [], [], "all children waived", problem)
    return solve_step(problem)


def one_step_superhedge(
    tree: TrajectoryTree,
    nid: str,
    child_values: dict[str, PriceValue],
    family_pieces: Optional[dict[str, Sequence[Piece]]] = None,
    analysis: Optional[Analysis] = None,
) -> StepResult:
    """Single-period superhedging kernel at a node (continuation values given):
    ``node_step``, but -inf, with no problem, where continuity from below
    fails."""
    analysis = analysis or analyze(tree)
    if analysis.l_fails(nid):
        return StepResult(MINUS_INF, False, None, [], [], "continuity from below fails here")
    return node_step(analysis, nid, child_values, family_pieces or {})


def feasible_position(step: StepResult, target: Fraction) -> Optional[Fraction]:
    """A finite h with target >= value - h * slope on every constraint of
    the step's problem.

    An empty problem needs position 0; otherwise None exactly when no finite
    position exists (the value exceeds the target, or equals it without
    attainment).  An unattained value below the target is approached along
    an unblocked drift direction; along each one whose asymptotic value is
    below the target, the answer is the least passing |h| = 2^k, found by
    doubling k + 1 and then bisecting, as feasibility is monotone in |h|.

    Some finite |h| passes.  No slope has the wrong sign for the direction,
    so no cost v - h * d grows with |h| (hence the monotonicity).  Costs with
    d = 0 (zero-slope pieces and members, an unbounded window's limit when
    d(0) = 0) are at most the asymptotic value, below the target.  Members
    past some N stay near the limit: below the target when d(0) = 0, with
    slopes near d(0) != 0 otherwise, so they pass together; the finitely
    many others pass one by one.  Both directions are unblocked only when
    every slope is zero, and then h = -1 passes.
    """
    problem = step.problem
    if not problem.fixed and not problem.groups:
        return Fraction(0)
    if exceeds(step.value, target):
        return None
    if step.attained:
        return step.h
    for direction in (-1, 1):
        a = _asymptotic_value(problem, direction)
        if a is None or (a != MINUS_INF and a >= target):
            continue
        lo, hi = -1, 0  # |h| = 2^lo fails (lo = -1: none tried); 2^hi is tried next
        while not _step_feasible(problem, target, direction << hi):
            lo, hi = hi, 2 * hi + 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if _step_feasible(problem, target, direction << mid) else (mid, hi)
        return Fraction(direction << hi)
    return None


# ---------------------------------------------------------------------------
# the backward engine of sigma_bar and i_bar


@dataclass(slots=True)
class _NodeEval:
    value: PriceValue
    attained: bool
    h: Optional[Fraction]
    active: list[str]
    note: str = ""


def _backward(
    tree: TrajectoryTree,
    f: PayoffSpec,
    analysis: Analysis,
    starts: Sequence[str],
    floored: bool,
) -> dict[str, _NodeEval]:
    """Backward induction of the one-step kernel: every node the starts reach
    gets its own entry.  An explicit stack collects the nodes down to
    maturity (and, unfloored, to nodes where continuity from below fails:
    -inf), then the table fills level by level from the deepest up, so depth
    is not bounded by recursion.  ``floored`` picks the operator's rules:
    ``sigma_bar`` takes the payoff at maturity, the step's value, and its
    position, attained when the step and every tight child are; ``i_bar``
    waives a bad site's payoff (its future is harvestable), floors the value
    at zero (the least entering wealth of a nonnegative aggregate) and, where
    the step can move wealth (a nonzero slope or a scan group), keeps the
    step's position, which covers the step from that value too."""
    f.validate(tree)
    if floored and not f.is_nonnegative(tree):
        raise PricingError("the null operator applies to nonnegative payoffs")
    table: dict[str, _NodeEval] = {}
    levels: list[list[Node]] = [[] for _ in range(tree.horizon + 1)]
    seen: set[str] = set()
    stack = list(starts)
    while stack:
        nid = stack.pop()
        if nid in seen:
            continue
        seen.add(nid)
        node = tree.node(nid)
        if not floored and analysis.l_fails(nid):
            table[nid] = _NodeEval(MINUS_INF, False, None, [], "continuity from below fails")
        elif node.time >= f.maturity:
            site = nid if node.time == f.maturity else tree.ancestor_at(nid, f.maturity)
            v = f.node_values[site]
            if not floored:
                table[nid] = _NodeEval(v, type(v) is not float, ZERO, [f"payoff:{site}"])
            elif analysis.good[nid]:
                table[nid] = _NodeEval(v, True, None, [f"payoff:{site}"])
            else:
                table[nid] = _NodeEval(ZERO, True, None, [])
        else:
            levels[node.time].append(node)
            stack.extend(child for _, child in node.children)

    for level in reversed(levels):
        for node in level:
            child_values = {child: table[child].value for _, child in node.children}
            pieces = {fid: f.family_values[fid] for fid in node.families}
            step = node_step(analysis, node.nid, child_values, pieces)
            value, h = step.value, step.h
            if not floored:
                attained = step.attained and all(table[c].attained for c in step.tight_children)
            else:
                # a float value is only ever the -inf marker
                positive = type(value) is not float and value.numerator > 0
                value, h, attained = value if positive else ZERO, None, True
                problem = step.problem
                if problem.groups or any(p.slope.numerator != 0 for p in problem.fixed):
                    # Floored, only harvest waives a child: no child value is
                    # -inf.  A harvest node keeps no moving child and only
                    # zero-increment members, so a step that moves wealth is
                    # at a node with increments of both strict signs and
                    # keeps every child and every member range (as scan
                    # groups).  Both slope signs remain, no drift direction
                    # is unblocked, and the exchange ends attained or tangent.
                    if not step.attained:
                        raise PricingError(f"floored step at node {node.nid!r} not attained")
                    h = step.h
            table[node.nid] = _NodeEval(value, attained, h, step.active, step.note)
    return table


def sigma_bar(
    tree: TrajectoryTree,
    f: PayoffSpec,
    nid: Optional[str] = None,
) -> PriceResult:
    """Conditional superhedging price of f at a node (default: the root)."""
    nid = nid if nid is not None else tree.root
    table = _backward(tree, f, analyze(tree), [nid], floored=False)
    top = table[nid]
    hedge = HedgeSequence()
    for sub, e in table.items():  # the nodes below nid that the pass reached
        if e.h is not None:
            node = tree.node(sub)
            if not node.is_leaf and node.time < f.maturity:
                hedge.set(node.time, sub, e.h)
    strategy = None
    if top.attained and isinstance(top.value, Fraction):
        strategy = SimpleStrategy(
            top.value, hedge, start_time=tree.node(nid).time, start_node=nid
        )
    return PriceResult(top.value, top.attained, strategy, top.active, top.note)


def sigma_bar_all(
    tree: TrajectoryTree,
    f: PayoffSpec,
) -> dict[str, PriceValue]:
    """Conditional outer price of f at every node, in one backward pass."""
    table = _backward(tree, f, analyze(tree), list(tree.nodes), floored=False)
    return {nid: e.value for nid, e in table.items()}


def sigma_bar_payoff(tree: TrajectoryTree, f: PayoffSpec, at_time: int) -> PayoffSpec:
    """sigma_bar_k f as a maturity-k payoff (values -inf where continuity fails)."""
    if at_time > f.maturity:
        raise PricingError("evaluation time after maturity")
    starts = [nd.nid for nd in tree.nodes_at_time(at_time)]
    table = _backward(tree, f, analyze(tree), starts, floored=False)
    node_values: dict[str, PriceValue] = {nid: table[nid].value for nid in starts}
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
        if sigma_bar(tree, inner, nd.nid).value > sigma_bar(tree, f, nd.nid).value:
            return False, nd.nid
    return True, None


def check_integrable(tree: TrajectoryTree, f: PayoffSpec, j: int = 0) -> bool:
    """Outer and inner prices of f agree at time j off the null cover."""
    analysis = analyze(tree)
    # a float value is only ever the -inf marker, and stays one: the step
    # waives a child valued -inf under either sign
    neg = f.map_values(lambda v: v if type(v) is float else -v)
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


def next_values(
    f: ProcessSequence, nid: str, waived: Callable[[str], bool]
) -> tuple[dict[str, PriceValue], dict[str, Sequence[Piece]]]:
    """Continuation values of f_{j+1} below the time-j node nid, -inf at
    each waived child, and its families' payoff pieces."""
    node = f.tree.node(nid)
    nxt = f[node.time + 1]
    child_values: dict[str, PriceValue] = {
        child: MINUS_INF if waived(child) else nxt.node_values[child]
        for _, child in node.children
    }
    return child_values, {fid: nxt.family_values[fid] for fid in node.families}


class StepMemo:
    """Each node's one-step price of a process's next value, solved at most once.

    At a time-j node it is ``one_step_superhedge`` of f_{j+1}, with the
    children where continuity from below fails continuing at -inf.  Steps
    are solved on demand, so the first request solves (and raises) exactly
    where an unshared call would.  The caller that makes a memo owns it and
    drops it when its own call returns."""

    def __init__(self, f: ProcessSequence):
        self.f = f
        self.analysis = analyze(f.tree)
        self._steps: dict[str, StepResult] = {}

    def step(self, nid: str) -> StepResult:
        entry = self._steps.get(nid)
        if entry is None:
            values, pieces = next_values(self.f, nid, self.analysis.l_fails)
            entry = self._steps[nid] = one_step_superhedge(
                self.f.tree, nid, values, pieces, self.analysis
            )
        return entry


def member_violations(f: ProcessSequence, fid: str, j: int, slack=ZERO) -> list[NRange]:
    """Member windows of fid where f_{j+1} - f_j > slack strictly; none
    while the family is not yet born at j + 1."""
    diff = member_diff(f, fid, j, f.tree.family(fid).n0, None)
    windows: list[NRange] = []
    for lo, hi, poly in diff or ():
        if slack:
            poly = poly.shift(-slack)
        if poly.is_zero() or not grid_summary(poly, lo, hi).has_pos:
            continue
        for seg_lo, seg_hi in nonneg_windows(poly, lo, hi):
            zeros = grid_summary(poly, seg_lo, seg_hi).zeros
            windows.extend(ranges_excluding(seg_lo, seg_hi, list(zeros)))
    return windows


def violations(f: ProcessSequence, steps: StepMemo) -> Iterator[Atom]:
    """Where f climbs, period by period and on demand: each internal time-j
    node whose step in ``steps`` exceeds f_j, then each family born by j with
    its ``member_violations``.  The null cover is not consulted."""
    tree = f.tree
    for j in range(tree.horizon):
        for nd in tree.nodes_at_time(j):
            if not nd.is_leaf and exceeds(steps.step(nd.nid).value, f[j].node_values[nd.nid]):
                yield NodeAtom(nd.nid)
        for fam in tree.families_born_by(j):
            windows = member_violations(f, fam.fid, j)
            if windows:
                yield FamilyAtom(fam.fid, tuple(windows))


def check_supermartingale(
    tree: TrajectoryTree, f: ProcessSequence, steps: Optional[StepMemo] = None
) -> tuple[bool, Optional[str]]:
    """One-step prices dominate the running values off the null cover.

    The witness is the first of ``violations`` that the null cover does not
    hold: a node id, or ``family:<fid>:n=<n>`` with n the first member that
    escapes.  A caller that goes on to use the same one-step prices passes
    its own ``steps``; by default the check makes one and drops it."""
    steps = StepMemo(f) if steps is None else steps
    analysis = steps.analysis
    for atom in violations(f, steps):
        if isinstance(atom, FamilyAtom):
            escaped, _ = split_ranges(list(atom.ranges), analysis.alive_member_ranges(atom.family))
            if escaped:
                return False, f"family:{atom.family}:n={min(lo for lo, _ in escaped)}"
        elif not analysis.fully_covered(atom.node):
            return False, atom.node
    return True, None


# ---------------------------------------------------------------------------
# i_bar: backward induction of the floored kernel


def i_bar(
    tree: TrajectoryTree,
    f: PayoffSpec,
    nid: Optional[str] = None,
) -> PriceResult:
    """Null-operator value: cheapest nonnegative aggregate dominating f.

    The certificate takes each position from the backward pass along the
    non-harvested children."""
    nid = nid if nid is not None else tree.root
    analysis = analyze(tree)
    table = _backward(tree, f, analysis, [nid], floored=True)
    start = tree.node(nid)
    top = table[nid]
    if start.time > f.maturity:
        # the claim is a constant here; it is harvested for free from bad nodes
        note = "" if analysis.good[nid] else "bad node: free harvest"
        return PriceResult(top.value, True, None, top.active, note)
    hedge, stack = HedgeSequence(), [nid]
    while stack:
        node = tree.node(stack.pop())
        if node.time >= f.maturity:
            continue
        h = table[node.nid].h
        if h is not None:
            hedge.set(node.time, node.nid, h)
        stack.extend(child for _, child, _ in analysis.step_children[node.nid])
    strategy = SimpleStrategy(top.value, hedge, start_time=start.time, start_node=nid)
    note = "model value (aggregated nonnegative-strategy program)"
    return PriceResult(top.value, True, strategy, top.active, note)


def i_bar_backward(
    tree: TrajectoryTree,
    f: PayoffSpec,
    nid: Optional[str] = None,
) -> PriceValue:
    """Null-operator value alone, from the same backward pass as ``i_bar``."""
    nid = nid if nid is not None else tree.root
    return _backward(tree, f, analyze(tree), [nid], floored=True)[nid].value


def i_bar_backward_all(
    tree: TrajectoryTree,
    f: PayoffSpec,
) -> dict[str, PriceValue]:
    """Null-operator value at every node, in one backward pass."""
    table = _backward(tree, f, analyze(tree), list(tree.nodes), floored=True)
    return {nid: e.value for nid, e in table.items()}


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
        ones, zeros = split_ranges([(fam.n0, None)], event.member_ranges(fid))
        pieces = [(*r, Poly.constant(1)) for r in ones]
        pieces += [(*r, Poly.constant(0)) for r in zeros]
        fam_values[fid] = tuple(sorted(pieces, key=lambda p: p[0]))
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
    return res.value == 0, res
