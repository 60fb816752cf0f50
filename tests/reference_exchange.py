"""The constraint-exchange loop of ``pricing.solve_step`` as it stood while
three tuned exits decided its answers.

A verbatim copy of the loop with its drift threshold (|h| > 10^6), its
20-round stagnation counter before the tangent test, and its round cap with
an interval answer below a tolerance.  ``test_exchange.py`` compares the exact
stop rules of today's loop against it.
"""

from fractions import Fraction
from typing import Optional

from trajhedge.lp import AffinePiece, MinMaxResult, min_max_affine
from trajhedge.model import MINUS_INF
from trajhedge.pricing import (
    Interval,
    PricingError,
    ScanGroup,
    StepProblem,
    StepResult,
    UnconvergedError,
    _asymptotic_value,
    _attained,
    _blocking_member,
    _drift_exit,
    _drift_result,
    _step_feasible,
)

DRIFT_THRESHOLD = Fraction(10**6)
MAX_ROUNDS = 200
DEFAULT_TOLERANCE = Fraction(1, 10**9)


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


def solve_step(problem: StepProblem, tolerance: Fraction = DEFAULT_TOLERANCE) -> StepResult:
    """Exact value of the one-step program, attained flag and certificate."""
    if not problem.groups:
        # no member to add and none to block a drift: one round is final
        res = min_max_affine(problem.fixed)
        if res.drift:
            return _drift_exit(problem, res.drift)
        if res.value == MINUS_INF:
            return StepResult(MINUS_INF, False, None, [], [], "no surviving constraints")
        return _attained(res)
    working: list[AffinePiece] = list(problem.fixed)
    for g in problem.groups:
        working.extend(g.seed_pieces())
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
        last_point = (V, h)
        violations = []
        for g in problem.groups:
            n, viol = g.violation(V, h)
            if n is not None:
                violations.append((viol, g, n))
        if not violations:
            return _attained(res)

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
        _, viol = g.violation(V, h)
        worst = max(worst, viol)
    interval = Interval(V, V + worst)
    if interval.hi - interval.lo <= tolerance:
        return StepResult(interval, False, h, [], [], "interval (round cap)")
    raise UnconvergedError(interval)
