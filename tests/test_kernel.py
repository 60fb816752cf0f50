"""The integer min-max kernel against its Fraction reference, and the
group-free ``solve_step`` path against the exchange loop."""

from fractions import Fraction as Q

from hypothesis import given, settings, strategies as st

from trajhedge.lp import AffinePiece, min_max_affine
from trajhedge.pricing import StepProblem, solve_step

from reference_kernel import min_max_affine as reference_min_max_affine

small_rat = st.builds(Q, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def piece_lists(draw, label="p"):
    """0-6 pieces of small rationals.  Some pass through one common point
    (equal crossings and ties in the tight set), some have zero slope, some
    are floors above every crossing, and whole inputs may be one-sided."""
    V, h = draw(small_rat), draw(small_rat)
    side = draw(st.sampled_from(["mixed", "pos", "neg"]))
    pieces = []
    for i in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["free", "through", "zero", "high-floor"]))
        slope = draw(small_rat)
        if side == "pos":
            slope = abs(slope)
        elif side == "neg":
            slope = -abs(slope)
        if kind == "zero":
            slope, value = Q(0), draw(small_rat)
        elif kind == "high-floor":
            # crossings are convex combinations of values, all below 43
            slope, value = Q(0), Q(draw(st.integers(43, 60)))
        elif kind == "through":
            value = V + h * slope
        else:
            value = draw(small_rat)
        pieces.append(AffinePiece(slope, value, f"{label}{i}"))
    return pieces


def _outcome(kernel, pieces):
    try:
        r = kernel(pieces)
    except Exception as exc:  # compared, never swallowed: both must match
        return ("raised", type(exc), str(exc))
    return (r.value, type(r.value), r.h, type(r.h), r.drift, r.tight)


@settings(max_examples=400, deadline=None)
@given(pieces=piece_lists())
def test_integer_kernel_matches_fraction_reference(pieces):
    assert _outcome(min_max_affine, pieces) == _outcome(reference_min_max_affine, pieces)


class _TruthyNoGroups(list):
    """No scan groups, yet truthy: sends ``solve_step`` through the loop."""

    def __bool__(self):
        return True


@settings(max_examples=300, deadline=None)
@given(pieces=piece_lists(label="node:c"))
def test_group_free_fast_path_matches_exchange_loop(pieces):
    fast = solve_step(StepProblem(list(pieces), []))
    loop = solve_step(StepProblem(list(pieces), _TruthyNoGroups()))
    assert fast == loop
