"""Grid analysis is checked against brute-force enumeration of the grid,
and the integer Sturm kernel against a Fraction-only reference copy."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from trajhedge.poly import (
    GridSummary,
    Poly,
    _int_coeffs,
    _sign_at,
    _sturm_chain,
    cauchy_bound,
    grid_member_above,
    grid_nonneg,
    grid_summary,
    intersect_ranges,
    parse_rat,
    ranges_excluding,
    rat_str,
    root_integer_neighbors,
    split_ranges,
    subtract_ranges,
)

small_rat = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)
coeff_lists = st.lists(small_rat, min_size=1, max_size=5)

BRUTE_N = 600  # tail beyond this is governed by the limit for these coefficients


def brute_values(p, n_lo, n_hi):
    top = n_hi if n_hi is not None else BRUTE_N
    return [(n, p.at_index(n)) for n in range(n_lo, top + 1)]


def test_rational_round_trip():
    assert parse_rat("3/4") == Fraction(3, 4)
    assert parse_rat("-5") == Fraction(-5)
    assert rat_str(Fraction(-5, 10)) == "-1/2"
    assert rat_str(Fraction(7)) == "7"
    with pytest.raises(ValueError):
        parse_rat("1/0")


@pytest.mark.parametrize("text", ["1_0", "\u0661", "1/-2", "1/+2", "1/00", " 1", "1 ", "1/",
                                  "/2", "1.5", "+", "", "0x10", "\uff11"])
def test_rational_literals_outside_the_grammar_are_rejected(text):
    # [+-]?[0-9]+(/[0-9]+)? with a nonzero denominator, ASCII digits only
    with pytest.raises(ValueError, match="bad rational literal"):
        parse_rat(text)


def test_rational_literals_of_the_grammar():
    assert [parse_rat(t) for t in ("+7", "-0", "0/3", "12/008", "-6/4")] == [
        7, 0, 0, Fraction(3, 2), Fraction(-3, 2)]


def test_poly_basics():
    p = Poly.parse("0,0,-1")  # -t^2
    assert p.degree == 2
    assert p(Fraction(1, 3)) == Fraction(-1, 9)
    assert p.at_index(2) == Fraction(-1, 4)
    assert (p + Poly.parse("0,0,1")).is_zero()
    assert p.derivative() == Poly.parse("0,-2")
    assert p.reversed_in_n() == Poly.parse("-1")
    q = Poly.parse("1,2") * Poly.parse("3,0,1")
    assert q == Poly.parse("3,6,1,2")
    with pytest.raises(ValueError):
        Poly.parse("1,1,1,1,1,1")


def test_root_neighbors_exact_integer_root():
    # (n-3)(n-7) has roots exactly at integers
    p = Poly.parse("21,-10,1")
    ns = root_integer_neighbors(p, 1, None)
    assert 3 in ns and 7 in ns


@settings(max_examples=250, deadline=None)
@given(coeffs=coeff_lists, n_lo=st.integers(1, 6))
def test_grid_summary_matches_brute_force_unbounded(coeffs, n_lo):
    p = Poly(coeffs)
    s = grid_summary(p, n_lo, None)
    vals = brute_values(p, n_lo, None)
    limit = p.constant_term
    assert s.limit == limit
    if p.is_zero():
        assert s.all_zero
        return
    # attained candidate extrema really are grid values
    assert p.at_index(s.max_arg) == s.max_val
    assert p.at_index(s.min_arg) == s.min_val
    # and they dominate the brute-force prefix
    assert all(v <= s.max_val or v <= s.sup_cl for _, v in vals)
    assert max(v for _, v in vals) <= s.sup_cl
    assert min(v for _, v in vals) >= s.inf_cl
    # sign flags agree with the prefix plus the limit
    brute_pos = any(v > 0 for _, v in vals) or limit > 0
    brute_neg = any(v < 0 for _, v in vals) or limit < 0
    assert s.has_pos == brute_pos
    assert s.has_neg == brute_neg
    # zero attainment over the prefix is found exactly
    brute_zeros = [n for n, v in vals if v == 0]
    assert set(brute_zeros) <= set(s.zeros)


@settings(max_examples=200, deadline=None)
@given(coeffs=coeff_lists, n_lo=st.integers(1, 5), width=st.integers(0, 40))
def test_grid_summary_matches_brute_force_bounded(coeffs, n_lo, width):
    p = Poly(coeffs)
    n_hi = n_lo + width
    s = grid_summary(p, n_lo, n_hi)
    vals = [v for _, v in brute_values(p, n_lo, n_hi)]
    if p.is_zero():
        assert s.all_zero
        return
    assert s.max_val == max(vals)
    assert s.min_val == min(vals)
    assert s.sup_cl == max(vals) and s.inf_cl == min(vals)


@settings(max_examples=150, deadline=None)
@given(coeffs=coeff_lists, n_lo=st.integers(1, 4), thr=small_rat)
def test_member_above_is_sound(coeffs, n_lo, thr):
    p = Poly(coeffs)
    n = grid_member_above(p, thr, n_lo, None)
    vals = brute_values(p, n_lo, None)
    if n is not None:
        assert p.at_index(n) > thr
    else:
        assert all(v <= thr for _, v in vals)
        assert p.constant_term <= thr


def test_grid_nonneg_tail_violation():
    # prefix stays positive, limit is negative: the tail must be flagged
    p = Poly.parse("-1/7,2")  # 2t - 1/7: negative for n >= 15
    ok, witness = grid_nonneg(p, 1, None)
    assert not ok
    assert p.at_index(witness) < 0


def test_ranges_excluding():
    assert ranges_excluding(1, None, [3]) == [(1, 2), (4, None)]
    assert ranges_excluding(2, 10, [2, 10]) == [(3, 9)]
    assert ranges_excluding(1, 4, []) == [(1, 4)]
    assert ranges_excluding(1, 2, [1, 2]) == []


def test_intersect_ranges_matches_member_sets():
    # hi None is unbounded: members up to 12 stand for it, and the meet is
    # unbounded exactly when every range is
    bounds = [(lo, hi) for lo in range(1, 6) for hi in [None, *range(1, 6)]]
    bounds = [(lo, hi) for lo, hi in bounds if hi is None or lo <= hi]
    for ranges in itertools.product(bounds, repeat=2):
        for extra in ([], [(3, None)]):
            rs = list(ranges) + extra
            common = set.intersection(
                *(set(range(lo, 13 if hi is None else hi + 1)) for lo, hi in rs)
            )
            meet = intersect_ranges(*rs)
            if not common:
                assert meet is None
                continue
            lo, hi = meet
            assert lo == min(common)
            assert hi == (None if all(h is None for _, h in rs) else max(common))


def test_split_ranges_matches_member_sets():
    # each cut takes, as disjoint nonempty ranges, exactly the members of the
    # runs that no earlier cut took; what is left is the rest.  Members up to
    # 14 stand for an unbounded range, which stays unbounded exactly when no
    # cut bounds it
    def members(ranges):
        out = [n for lo, hi in ranges for n in range(lo, 15 if hi is None else hi + 1)]
        assert len(out) == len(set(out)) and all(hi is None or lo <= hi for lo, hi in ranges)
        return set(out)

    bounds = [(lo, hi) for lo in range(1, 7) for hi in [None, *range(lo, 7)]]
    for runs in ([(2, None)], [(1, 2), (4, 5)], [(3, 3), (5, None)]):
        for cuts in itertools.product(bounds, repeat=2):
            taken, left = split_ranges(runs, cuts)
            assert left == subtract_ranges(runs, cuts)
            rest = members(runs)
            for k, cut in enumerate(cuts):
                before = len(split_ranges(runs, cuts[:k])[0])
                step = split_ranges(runs, cuts[: k + 1])[0]
                assert step[:before] == split_ranges(runs, cuts[:k])[0]
                assert members(step[before:]) == rest & members([cut])
                rest -= members([cut])
            assert members(left) == rest
            assert members(taken) | rest == members(runs)
            assert any(hi is None for _, hi in left) == (
                any(hi is None for _, hi in runs)
                and not any(hi is None for _, hi in cuts)
            )


# ---------------------------------------------------------------------------
# reference: Sturm isolation and grid summary on Fraction arithmetic only,
# without memo; the library must return exactly the same answers.


def _ref_variations(chain, x):
    signs = []
    for q in chain:
        v = q(x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _ref_nudge(p, x, step):
    while p(x) == 0:
        x += step
    return x


def ref_root_integer_neighbors(p, lo, hi):
    if p.degree <= 0:
        return []
    right = Fraction(hi + 1) if hi is not None else cauchy_bound(p) + 1
    left = Fraction(lo - 1)
    if right <= left:
        right = left + 1
    out = set()

    def clamp_add(x):
        for m in (math.floor(x), math.ceil(x)):
            if m >= lo and (hi is None or m <= hi):
                out.add(int(m))

    chain = _sturm_chain(p)
    a = _ref_nudge(p, left, Fraction(-1, 97))
    b = _ref_nudge(p, right, Fraction(1, 97))
    stack = [(a, b, _ref_variations(chain, a) - _ref_variations(chain, b))]
    while stack:
        a, b, count = stack.pop()
        if count <= 0:
            continue
        if b - a <= Fraction(1, 4):
            clamp_add(a)
            clamp_add(b)
            continue
        mid = (a + b) / 2
        if p(mid) == 0:
            clamp_add(mid)
            mid = _ref_nudge(p, mid + (b - a) / 1024, (b - a) / 1024)
        va, vm, vb = (_ref_variations(chain, x) for x in (a, mid, b))
        stack.append((a, mid, va - vm))
        stack.append((mid, b, vm - vb))
    return sorted(out)


def ref_grid_summary(p, n_lo, n_hi):
    limit = p.constant_term if n_hi is None else None
    if p.is_zero():
        zero = Fraction(0)
        return GridSummary(n_lo, n_hi, limit, zero, n_lo, zero, n_lo, (), all_zero=True)
    cand = {n_lo} | ({n_hi} if n_hi is not None else set())
    dp = p.derivative()
    if not dp.is_zero() and dp.degree >= 1:
        cand.update(ref_root_integer_neighbors(dp.reversed_in_n(), n_lo, n_hi))
    if n_hi is not None:
        cand = {n for n in cand if n_lo <= n <= n_hi}
    best_max = best_min = None
    arg_max = arg_min = n_lo
    for n in sorted(cand):
        v = p.at_index(n)
        if best_max is None or v > best_max:
            best_max, arg_max = v, n
        if best_min is None or v < best_min:
            best_min, arg_min = v, n
    zeros = tuple(n for n in ref_root_integer_neighbors(p.reversed_in_n(), n_lo, n_hi)
                  if p.at_index(n) == 0)
    return GridSummary(n_lo, n_hi, limit, best_max, arg_max, best_min, arg_min, zeros)


# degree 1-4 with Cauchy bounds up to ~2*10^6: large integer coefficients
# next to a leading coefficient of magnitude at least 1/2
big_coeff = st.one_of(small_rat, st.integers(-10**6, 10**6))
lead_coeff = st.fractions(min_value=Fraction(1, 2), max_value=4, max_denominator=6) \
    .flatmap(lambda c: st.sampled_from([c, -c]))
wide_polys = st.builds(
    lambda low, lead: Poly([*low, lead]),
    st.lists(big_coeff, min_size=1, max_size=4),
    lead_coeff,
)
grid_ranges = st.tuples(st.integers(1, 50), st.one_of(st.none(), st.integers(0, 10**6))) \
    .map(lambda r: (r[0], None if r[1] is None else r[0] + r[1]))


@settings(max_examples=150, deadline=None)
@given(p=wide_polys, rng=grid_ranges)
def test_root_neighbors_match_fraction_reference(p, rng):
    lo, hi = rng
    assert root_integer_neighbors(p, lo, hi) == ref_root_integer_neighbors(p, lo, hi)


@settings(max_examples=100, deadline=None)
@given(p=wide_polys, rng=grid_ranges)
def test_grid_summary_matches_fraction_reference(p, rng):
    lo, hi = rng
    assert grid_summary(p, lo, hi) == ref_grid_summary(p, lo, hi)


@settings(max_examples=150, deadline=None)
@given(p=wide_polys, x=st.fractions(min_value=-10**7, max_value=10**7, max_denominator=10**6))
def test_integer_horner_sign_matches_fraction_value(p, x):
    v = p(x)
    assert _sign_at(_int_coeffs(p), x) == (v > 0) - (v < 0)
    for q in _sturm_chain(p):
        w = q(x)
        assert _sign_at(_int_coeffs(q), x) == (w > 0) - (w < 0)


def test_memo_hands_out_independent_lists():
    p = Poly.parse("21,-10,1")  # (n-3)(n-7)
    first = root_integer_neighbors(p, 1, None)
    expected = list(first)
    first.clear()
    first.append(-99)
    assert root_integer_neighbors(p, 1, None) == expected


def test_memo_keys_on_coefficients_not_identity():
    a = Poly([Fraction(1, 3), -2, 0, 1])
    b = Poly.parse("1/3,-2,0,1,0")  # trailing zero is dropped
    assert a is not b and a == b and hash(a) == hash(b)
    assert root_integer_neighbors(a, 1, 40) == root_integer_neighbors(b, 1, 40)
    assert grid_summary(a, 2) == grid_summary(b, 2, None)
    assert grid_summary(a, 2) == ref_grid_summary(b, 2, None)


def test_root_neighbors_contain_sympy_roots():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")

    @settings(max_examples=40, deadline=None)
    @given(p=wide_polys, rng=grid_ranges)
    def check(p, rng):
        lo, hi = rng
        coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
        got = set(root_integer_neighbors(p, lo, hi))
        for r in sympy.real_roots(sympy.Poly(coeffs, x)):
            for m in (int(sympy.floor(r)), int(sympy.ceiling(r))):
                if m >= lo and (hi is None or m <= hi):
                    assert m in got

    check()
