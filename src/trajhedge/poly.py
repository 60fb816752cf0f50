"""Exact rational polynomials and their behaviour on reciprocal-integer grids.

Family branches of a trajectory tree carry increments ``p(1/n)`` for integer
``n >= n0``, where ``p`` is a polynomial with rational coefficients of degree
at most 4.  Everything the rest of the library asks about such a branch
reduces to questions about the countable value set ``{p(1/n) : n >= n0}``:
does it contain a positive value, does it attain zero, what are the closure
bounds (including the limit ``p(0)``), where is the grid maximum.  This module
answers those questions exactly, using Sturm-sequence root isolation instead
of floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Sequence

MAX_FAMILY_DEGREE = 4

# ---------------------------------------------------------------------------
# rationals


def rat(x) -> Fraction:
    """Coerce ints/strings/Fractions to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return parse_rat(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def parse_rat(text: str) -> Fraction:
    """Parse ``p`` or ``p/q`` (optionally signed) into a Fraction."""
    s = text.strip()
    try:
        if "/" in s:
            num, den = s.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational literal {text!r}") from exc


def rat_str(q: Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# polynomials


class Poly:
    """Immutable polynomial over Q, coefficients in ascending degree order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("Poly is immutable")

    # -- basics ------------------------------------------------------------
    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # zero polynomial has degree -1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    @property
    def constant_term(self) -> Fraction:
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def __call__(self, t) -> Fraction:
        t = rat(t)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def at_index(self, n: int) -> Fraction:
        """Value of the polynomial at t = 1/n."""
        return self(Fraction(1, n))

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return Poly([a[i] + (b[i] if i < len(b) else 0) for i in range(len(a))])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def scale(self, k) -> "Poly":
        k = rat(k)
        return Poly([k * c for c in self.coeffs])

    def shift(self, k) -> "Poly":
        """Add the constant k."""
        k = rat(k)
        if not self.coeffs:
            return Poly([k])
        return Poly([self.coeffs[0] + k, *self.coeffs[1:]])

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def reversed_in_n(self) -> "Poly":
        """q(n) = n^deg * p(1/n); same sign as p(1/n) for n > 0."""
        return Poly(tuple(reversed(self.coeffs)))

    # -- misc ---------------------------------------------------------------
    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({self.format_coeffs()})"

    def format_coeffs(self) -> str:
        if not self.coeffs:
            return "0"
        return ",".join(rat_str(c) for c in self.coeffs)

    @classmethod
    def constant(cls, c) -> "Poly":
        return cls([rat(c)])

    @classmethod
    def parse(cls, text: str) -> "Poly":
        coeffs = [parse_rat(part) for part in text.split(",")]
        if len(coeffs) > MAX_FAMILY_DEGREE + 1:
            raise ValueError(f"polynomial degree exceeds {MAX_FAMILY_DEGREE}: {text!r}")
        return cls(coeffs)


POLY_ZERO = Poly()
POLY_T = Poly([0, 1])


# ---------------------------------------------------------------------------
# real-root isolation (Sturm sequences)


def _poly_rem(a: Poly, b: Poly) -> Poly:
    """Remainder of a divided by b (b nonzero)."""
    r = list(a.coeffs)
    bc = b.coeffs
    db = len(bc) - 1
    lead = bc[-1]
    while len(r) - 1 >= db and r:
        dr = len(r) - 1
        factor = r[-1] / lead
        for i in range(db + 1):
            r[dr - db + i] -= factor * bc[i]
        while r and r[-1] == 0:
            r.pop()
    return Poly(r)


def _sturm_chain(p: Poly) -> list[Poly]:
    chain = [p, p.derivative()]
    while not chain[-1].is_zero() and chain[-1].degree > 0:
        rem = _poly_rem(chain[-2], chain[-1])
        if rem.is_zero():
            break
        chain.append(-rem)
    return [q for q in chain if not q.is_zero()]


def _int_coeffs(p: Poly) -> tuple[int, ...]:
    """p times the positive lcm of its denominators: integer coefficients,
    same sign as p at every point."""
    m = math.lcm(*(c.denominator for c in p.coeffs))
    return tuple(c.numerator * (m // c.denominator) for c in p.coeffs)


def _sign_at(coeffs: Sequence[int], x: Fraction) -> int:
    """Sign of P(x), for integer coefficients, as the sign of q^d * P(p/q).

    With x = p/q and q > 0, Horner on the homogenised polynomial stays in the
    integers and avoids the gcd that every Fraction operation pays.
    """
    num, den = x.numerator, x.denominator
    acc, scale = 0, 1
    for c in reversed(coeffs):
        acc = acc * num + c * scale
        scale *= den
    return (acc > 0) - (acc < 0)


def _variations(chain: Sequence[Sequence[int]], x: Fraction) -> int:
    """Sign changes of an integer Sturm chain at x (zeros skipped)."""
    count = prev = 0
    for coeffs in chain:
        s = _sign_at(coeffs, x)
        if s:
            if prev and s != prev:
                count += 1
            prev = s
    return count


def cauchy_bound(p: Poly) -> Fraction:
    """All real roots of p lie in (-B, B)."""
    if p.degree <= 0:
        return Fraction(1)
    lead = abs(p.coeffs[-1])
    return Fraction(1) + max(abs(c) / lead for c in p.coeffs[:-1])


def _nudge_off_root(coeffs: Sequence[int], x: Fraction, step: Fraction) -> Fraction:
    while _sign_at(coeffs, x) == 0:
        x += step
    return x


# Distinct (poly, lo, hi) inputs kept by each memo below.  Family questions
# repeat the same few polynomials many times over; the answers are small.
_MEMO_SIZE = 4096


def root_integer_neighbors(p: Poly, lo: int, hi: Optional[int]) -> list[int]:
    """Integers in [lo, hi] adjacent to (or equal to) a real root of p.

    Used to turn "where can the grid sequence p(1/n) change sign or
    monotonicity" into a finite candidate list.  hi=None means unbounded;
    the Cauchy bound caps the search in that case.  Answers are memoized on
    (p, lo, hi); each call gets its own list.
    """
    return list(_root_integer_neighbors(p, lo, hi))


@lru_cache(maxsize=_MEMO_SIZE)
def _root_integer_neighbors(p: Poly, lo: int, hi: Optional[int]) -> tuple[int, ...]:
    if p.is_zero():
        raise ValueError("zero polynomial has no isolated roots")
    if p.degree <= 0:
        return ()
    bound = cauchy_bound(p)
    right = Fraction(hi + 1) if hi is not None else bound + 1
    left = Fraction(lo - 1)
    if right <= left:
        right = left + 1

    out: set[int] = set()

    def clamp_add(x: Fraction) -> None:
        for m in (math.floor(x), math.ceil(x)):
            if m >= lo and (hi is None or m <= hi):
                out.add(int(m))

    chain = [_int_coeffs(q) for q in _sturm_chain(p)]
    ip = chain[0]
    a = _nudge_off_root(ip, left, Fraction(-1, 97))
    b = _nudge_off_root(ip, right, Fraction(1, 97))
    # each entry carries the variation counts of its endpoints, so a split
    # evaluates the chain at the midpoint only
    stack = [(a, b, _variations(chain, a), _variations(chain, b))]
    while stack:
        a, b, va, vb = stack.pop()
        if va - vb <= 0:
            continue
        if b - a <= Fraction(1, 4):
            clamp_add(a)
            clamp_add(b)
            continue
        mid = (a + b) / 2
        if _sign_at(ip, mid) == 0:
            clamp_add(mid)
            mid = _nudge_off_root(ip, mid + (b - a) / 1024, (b - a) / 1024)
        vm = _variations(chain, mid)
        stack.append((a, mid, va, vm))
        stack.append((mid, b, vm, vb))
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# grid analysis


@dataclass(frozen=True)
class GridSummary:
    """Exact facts about {p(1/n) : n_lo <= n <= n_hi} (n_hi=None: unbounded)."""

    n_lo: int
    n_hi: Optional[int]
    limit: Optional[Fraction]  # p(0) when the grid is unbounded
    max_val: Fraction  # best attained value over candidates (true grid max if attained)
    max_arg: int
    min_val: Fraction
    min_arg: int
    zeros: tuple[int, ...]  # members with p(1/n) == 0
    all_zero: bool = False

    @property
    def sup_cl(self) -> Fraction:
        return self.max_val if self.limit is None else max(self.max_val, self.limit)

    @property
    def inf_cl(self) -> Fraction:
        return self.min_val if self.limit is None else min(self.min_val, self.limit)

    @property
    def sup_attained(self) -> bool:
        return self.limit is None or self.max_val >= self.limit

    @property
    def inf_attained(self) -> bool:
        return self.limit is None or self.min_val <= self.limit

    @property
    def has_pos(self) -> bool:
        # limit > 0 forces members near the tail above 0 as well
        return self.max_val > 0 or (self.limit is not None and self.limit > 0)

    @property
    def has_neg(self) -> bool:
        return self.min_val < 0 or (self.limit is not None and self.limit < 0)

    @property
    def has_zero(self) -> bool:
        return self.all_zero or bool(self.zeros)


def _candidates(p: Poly, n_lo: int, n_hi: Optional[int]) -> list[int]:
    cand = {n_lo}
    if n_hi is not None:
        cand.add(n_hi)
    dp = p.derivative()
    if not dp.is_zero() and dp.degree >= 1:
        # turning points of n -> p(1/n) sit at sign changes of p'(1/n)
        q1 = dp.reversed_in_n()
        cand.update(root_integer_neighbors(q1, n_lo, n_hi))
    if n_hi is not None:
        cand = {n for n in cand if n_lo <= n <= n_hi}
    return sorted(cand)


def grid_summary(p: Poly, n_lo: int, n_hi: Optional[int] = None) -> GridSummary:
    """Exact extremum/sign summary of p over the reciprocal grid.

    Answers are memoized on (p, n_lo, n_hi).
    """
    return _grid_summary(p, n_lo, n_hi)


@lru_cache(maxsize=_MEMO_SIZE)
def _grid_summary(p: Poly, n_lo: int, n_hi: Optional[int]) -> GridSummary:
    if n_lo < 1:
        raise ValueError("grid starts at n >= 1")
    if n_hi is not None and n_hi < n_lo:
        raise ValueError("empty grid range")
    limit = p.constant_term if n_hi is None else None
    if p.is_zero():
        zero = Fraction(0)
        return GridSummary(n_lo, n_hi, limit, zero, n_lo, zero, n_lo, (), all_zero=True)

    best_max = best_min = None
    arg_max = arg_min = n_lo
    for n in _candidates(p, n_lo, n_hi):
        v = p.at_index(n)
        if best_max is None or v > best_max:
            best_max, arg_max = v, n
        if best_min is None or v < best_min:
            best_min, arg_min = v, n

    q0 = p.reversed_in_n()
    zeros = tuple(
        n for n in root_integer_neighbors(q0, n_lo, n_hi) if p.at_index(n) == 0
    )
    return GridSummary(n_lo, n_hi, limit, best_max, arg_max, best_min, arg_min, zeros)


def grid_member_above(
    p: Poly, threshold: Fraction, n_lo: int, n_hi: Optional[int] = None
) -> Optional[int]:
    """Some n with p(1/n) > threshold, or None if no member exceeds it."""
    s = grid_summary(p, n_lo, n_hi)
    if s.max_val > threshold:
        return s.max_arg
    if s.limit is not None and s.limit > threshold:
        # tail climbs towards the limit; walk out until we cross
        n = s.max_arg + 1
        for _ in range(4096):
            if n_hi is not None and n > n_hi:
                break
            if p.at_index(n) > threshold:
                return n
            n *= 2
        raise RuntimeError("tail search failed to certify limit crossing")
    return None


def grid_nonneg(p: Poly, n_lo: int, n_hi: Optional[int] = None):
    """(True, None) if p >= 0 on the whole grid, else (False, witness n)."""
    witness = grid_member_above(-p, Fraction(0), n_lo, n_hi)
    return (witness is None), witness


def ranges_excluding(
    n_lo: int, n_hi: Optional[int], excluded: Sequence[int]
) -> list[tuple[int, Optional[int]]]:
    """Split [n_lo, n_hi] into maximal runs avoiding the excluded members."""
    runs: list[tuple[int, Optional[int]]] = []
    start = n_lo
    for n in sorted(set(excluded)):
        if n < start or (n_hi is not None and n > n_hi):
            continue
        if n > start:
            runs.append((start, n - 1))
        start = n + 1
    if n_hi is None:
        runs.append((start, None))
    elif start <= n_hi:
        runs.append((start, n_hi))
    return runs
