"""The exchange loop's exact stop rules against the tuned loop they replaced,
and the number of exchange rounds the corpus takes."""

import sys
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

import trajhedge.lp as lp
import trajhedge.pricing as pricing
from trajhedge.corpus import run_corpus
from trajhedge.lp import AffinePiece
from trajhedge.poly import Poly
from trajhedge.pricing import (
    Interval,
    ScanGroup,
    StepProblem,
    UnconvergedError,
    _step_feasible,
    solve_step,
)

import reference_exchange

# small rationals, with 0 and +-1 drawn often so that tails meet the floors
coefs = st.one_of(st.sampled_from([Q(0), Q(1), Q(-1)]), st.builds(
    Q, st.integers(-4, 4), st.integers(1, 3)))


def polys(min_size=0):
    """Degree <= 4 over coefs, with 0-2 vanishing coefficients after the
    constant term, so that v - V and d meet at t = 0 in every order."""
    return st.integers(0, 2).flatmap(lambda k: st.tuples(
        coefs, st.lists(coefs, min_size=min_size, max_size=4 - k)
    ).map(lambda c: Poly([c[0]] + [Q(0)] * k + c[1])))


@st.composite
def single_group_problems(draw):
    """One scan group on a bounded or an unbounded window, plus 0-3 fixed
    pieces, some of them zero-slope floors."""
    dpoly = draw(polys(min_size=1).filter(lambda p: not p.is_zero()))
    n_lo = draw(st.integers(1, 3))
    n_hi = draw(st.one_of(st.none(), st.integers(n_lo, n_lo + 12)))
    fixed = []
    for i in range(draw(st.integers(0, 3))):
        slope = Q(0) if draw(st.booleans()) else draw(coefs)
        fixed.append(AffinePiece(slope, draw(coefs), f"node:c{i}"))
    return StepProblem(fixed, [ScanGroup("f", dpoly, draw(polys()), n_lo, n_hi)])


def _drift_direction(note: str):
    return note[-4:] if note.startswith("infimum approached") else None


def _outcome(solve, problem):
    try:
        return solve(problem)
    except UnconvergedError as exc:
        return exc.interval


@settings(max_examples=300, deadline=None)
@given(problem=single_group_problems())
def test_exact_stop_rules_match_tuned_reference(problem):
    ref = _outcome(reference_exchange.solve_step, problem)
    got = _outcome(solve_step, problem)
    if not isinstance(got, Interval) and got.attained:
        assert _step_feasible(problem, got.value, got.h)
    if isinstance(ref, Interval) or isinstance(ref.value, Interval):
        # the reference ran out of rounds: an answer must lie in its interval
        box = ref if isinstance(ref, Interval) else ref.value
        if not isinstance(got, Interval):
            assert box.lo <= got.value <= box.hi
        return
    assert not isinstance(got, Interval), problem
    assert (got.value, got.attained) == (ref.value, ref.attained)
    assert _drift_direction(got.note) == _drift_direction(ref.note)


def _rounds(monkeypatch, problem):
    calls = []
    real = lp.min_max_affine

    def counting(pieces):
        calls.append(len(pieces))
        return real(pieces)

    monkeypatch.setattr(pricing, "min_max_affine", counting)
    return solve_step(problem), len(calls)


def test_equal_asymptote_alone_is_no_drift(monkeypatch):
    # V = 0 equals the envelope's limit as h -> -inf from the first round, yet
    # the tail t + t^2 - 4t^3 - h*(-t) is below 0 for h < -1: the optimum is
    # attained at a finite position
    problem = StepProblem(
        [AffinePiece(Q(0), Q(0), "node:z")],
        [ScanGroup("f", Poly.parse("0,-1"), Poly.parse("0,1,1,-4"), 1, None)],
    )
    step, rounds = _rounds(monkeypatch, problem)
    assert step.value == 0 and step.attained and step.h == Q(-17, 16)
    assert _step_feasible(problem, step.value, step.h)
    assert rounds == 3


def test_drift_closes_in_one_round(monkeypatch):
    # t + h*t^2 > 0 for small t at every h: the infimum 0 is approached as
    # h -> -inf, decided in the first round (the tuned loop took 19)
    problem = StepProblem(
        [], [ScanGroup("f", Poly.parse("0,0,-1"), Poly.parse("0,1"), 1, None)]
    )
    step, rounds = _rounds(monkeypatch, problem)
    assert (step.value, step.attained, step.h) == (0, False, None)
    assert step.note == "infimum approached as h -> -inf"
    assert step.active == ["family:f:limit"]
    assert rounds == 1
    assert reference_exchange.solve_step(problem) == step


@pytest.mark.parametrize("floor", [Q(-1), Q(0)])
@pytest.mark.parametrize("sign", [1, -1])
def test_flat_piece_on_the_drift_side_only_floors(sign, floor):
    # t - h*sign*t^2 > 0 for small t at every h: the infimum 0 is approached
    # as h -> sign*inf.  A zero-slope piece does not block that direction; it
    # floors the envelope, and is active when it meets the limit
    problem = StepProblem(
        [AffinePiece(Q(0), floor, "node:z")],
        [ScanGroup("f", Poly([0, 0, sign]), Poly.parse("0,1"), 1, None)],
    )
    step = solve_step(problem)
    assert (step.value, step.attained, step.h) == (0, False, None)
    assert step.note == f"infimum approached as h -> {'+' if sign > 0 else '-'}inf"
    assert step.active == ["family:f:limit"] + (["node:z"] if floor == 0 else [])
    assert reference_exchange.solve_step(problem) == step


def test_constant_payoff_equal_to_the_working_value():
    # v = 1 on every member, and d = t^2 - t/5 is negative beyond n = 5: the
    # first round sits at V = 1 with h >= 1, where those members are violated
    # while v - V is the zero polynomial, so the tail test reads d alone
    problem = StepProblem(
        [AffinePiece(Q(1), Q(2), "node:c")],
        [ScanGroup("f", Poly.parse("0,-1/5,1"), Poly.parse("1"), 1, None)],
    )
    step = solve_step(problem)
    assert (step.value, step.attained, step.h) == (Q(102, 101), True, Q(100, 101))
    assert step.active == ["family:f:n=10", "node:c"]
    assert reference_exchange.solve_step(problem) == step


def test_tangent_hedge_closes_in_first_round(monkeypatch):
    # the case of test_properties::test_exchange_tangent_hedge_path: the
    # members 1 + t - 2t^2 - h*t accumulate at the tail, so no finite working
    # set reaches the optimum h = 1; the tangent test finds it at once, where
    # the tuned loop first waited out its stagnation count
    problem = StepProblem(
        [AffinePiece(Q(-1), Q(0), "node:blk")],
        [ScanGroup("f", Poly.parse("0,1"), Poly.parse("1,1,-2"), 1, None)],
    )
    step, rounds = _rounds(monkeypatch, problem)
    assert (step.value, step.attained, step.h) == (1, True, 1)
    assert step.note == "tangent hedge"
    assert rounds == 1
    assert reference_exchange.solve_step(problem) == step


def test_corpus_exchange_round_count(monkeypatch):
    # one min-max round per one-step solve: no solve in the corpus walks a
    # position out towards |h| = inf or waits out a stagnation count
    counts = {"solve_step": 0, "min_max_affine": 0}
    for name, real in (("solve_step", pricing.solve_step),
                       ("min_max_affine", lp.min_max_affine)):
        def counting(*args, _name=name, _real=real, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        for modname, mod in list(sys.modules.items()):
            if modname == "trajhedge" or modname.startswith("trajhedge."):
                for attr, val in list(vars(mod).items()):
                    if val is real:
                        monkeypatch.setattr(mod, attr, counting)
    rows = run_corpus()
    assert all(r.ok for r in rows)
    assert counts == {"solve_step": 22, "min_max_affine": 22}
