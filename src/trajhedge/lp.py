"""Exact rational linear programming, sized for small hedging programs.

Two solvers live here:

* ``minimize`` - a dense two-phase simplex over Fractions with Bland's rule
  (deterministic, exact) for programs ``min c.x  s.t.  A x >= b`` with free
  variables.  It serves the test oracle ``oracle.i_bar_lp``, which re-solves
  it from scratch each exchange round; each round's tableau grows by a row
  and its slack, so a family tree of 7 nodes with member windows of 68 and
  78 bounded members already runs for minutes (ROADMAP item 4).
* ``min_max_affine`` - the one-step kernel's inner problem
  ``min_h max_i (v_i - h * d_i)`` solved in closed form via crossing pairs,
  including the unbounded directions.  It works on integers: each piece
  ``d = a/b``, ``v = c/e`` becomes ``(a*e, c*b, b*e)``, its slope and value
  over one positive denominator.  The crossing of a positive and a negative
  slope is then an integer pair ``N/D`` with ``D > 0``, crossings are
  compared by cross-multiplying, tightness is an integer identity, and only
  the answer's value and position are built as ``Fraction``s.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .poly import rat


class LPError(RuntimeError):
    pass


@dataclass
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Optional[Fraction] = None
    x: list[Fraction] = field(default_factory=list)
    tight: list[int] = field(default_factory=list)  # indices of active rows


def minimize(c: Sequence, rows: Sequence[Sequence], rhs: Sequence) -> LPResult:
    """min c.x subject to rows[i] . x >= rhs[i], x free.

    Free variables are split into positive parts; a two-phase simplex with
    Bland's rule keeps everything rational and deterministic.
    """
    m, n = len(rows), len(c)
    c = [rat(v) for v in c]
    A = [[rat(v) for v in row] for row in rows]
    b = [rat(v) for v in rhs]
    # columns: u (n), w (n), s (m slacks, A x - s = b), artificials as needed;
    # rows with b <= 0 start on their slack, so only b > 0 rows need one
    ncols = 2 * n + m
    T = []
    basis: list[int] = []
    needs_art: list[int] = []
    for i in range(m):
        row = A[i] + [-v for v in A[i]] + [Fraction(0)] * m
        row[2 * n + i] = Fraction(-1)
        if b[i] <= 0:
            row = [-v for v in row]
            T.append(row + [-b[i]])
            basis.append(2 * n + i)
        else:
            T.append(row + [b[i]])
            basis.append(-1)  # placeholder for an artificial
            needs_art.append(i)

    art_cols = []
    for i in needs_art:
        col = ncols + len(art_cols)
        art_cols.append(col)
        for j, row in enumerate(T):
            row.insert(-1, Fraction(1) if j == i else Fraction(0))
        basis[i] = col
    width = ncols + len(art_cols)

    def pivot(r, col):
        piv = T[r][col]
        T[r] = [v / piv for v in T[r]]
        for i in range(m):
            if i != r and T[i][col] != 0:
                f = T[i][col]
                T[i] = [a - f * p for a, p in zip(T[i], T[r])]
        basis[r] = col

    def run_phase(obj, allowed: int):
        # obj: full-length cost row; only columns < allowed may enter
        while True:
            # reduced costs: c_j - z_j via basis costs
            red = list(obj[:width])
            for i, bcol in enumerate(basis):
                cb = obj[bcol]
                if cb != 0:
                    for j in range(width):
                        red[j] -= cb * T[i][j]
            enter = -1
            for j in range(allowed):  # Bland: first improving column
                if red[j] < 0:
                    enter = j
                    break
            if enter < 0:
                return
            ratio = None
            leave = -1
            for i in range(m):
                if T[i][enter] > 0:
                    r = T[i][width] / T[i][enter]
                    if ratio is None or r < ratio or (
                        r == ratio and basis[i] < basis[leave]
                    ):
                        ratio, leave = r, i
            if leave < 0:
                raise _Unbounded()
            pivot(leave, enter)

    class _Unbounded(Exception):
        pass

    # phase 1: minimize sum of artificials
    obj1 = [Fraction(0)] * width
    for col in art_cols:
        obj1[col] = Fraction(1)
    try:
        run_phase(obj1, width)
    except _Unbounded:  # pragma: no cover - phase 1 is always bounded
        raise LPError("phase 1 unbounded")
    infeas = sum(T[i][width] for i in range(m) if basis[i] in set(art_cols))
    if infeas != 0:
        return LPResult("infeasible")
    # drive leftover artificials out of the basis where possible
    for i in range(m):
        if basis[i] in set(art_cols):
            for j in range(ncols):
                if T[i][j] != 0:
                    pivot(i, j)
                    break

    # phase 2
    obj2 = [Fraction(0)] * width
    for j in range(n):
        obj2[j] = c[j]
        obj2[n + j] = -c[j]
    try:
        run_phase(obj2, ncols)  # artificials may not re-enter
    except _Unbounded:
        return LPResult("unbounded")

    sol = [Fraction(0)] * width
    for i, col in enumerate(basis):
        if col < width:
            sol[col] = T[i][width]
    x = [sol[j] - sol[n + j] for j in range(n)]
    value = sum(ci * xi for ci, xi in zip(c, x))
    tight = [
        i
        for i in range(m)
        if sum(A[i][j] * x[j] for j in range(n)) == b[i]
    ]
    return LPResult("optimal", value, x, tight)


# ---------------------------------------------------------------------------
# one-dimensional min-max kernel


class AffinePiece(NamedTuple):
    """One constraint V >= value - h * slope of the one-step program."""

    slope: Fraction  # the price increment
    value: Fraction  # the continuation requirement
    label: str


@dataclass
class MinMaxResult:
    value: object  # Fraction or -inf
    h: Optional[Fraction]  # None when the optimum needs |h| -> infinity
    drift: int  # 0 attained, +1 needs h -> +inf, -1 needs h -> -inf
    tight: list[str] = field(default_factory=list)

    @property
    def attained(self) -> bool:
        return self.drift == 0


MINUS_INF = float("-inf")


def min_max_affine(pieces: Sequence[AffinePiece]) -> MinMaxResult:
    """Solve min over h of max_i (value_i - h * slope_i) exactly.

    Empty input is vacuous (-inf).  With constraints only on one slope sign
    and no zero-slope floor the optimum runs off to h = +-inf.  Two-sided
    inputs are optimal at the highest crossing of a positive and a negative
    slope, or on the floor when a zero slope is at least that high; the
    first pair with a strictly higher crossing wins.
    """
    if not pieces:
        return MinMaxResult(MINUS_INF, None, 0)
    # each piece as integers (s, v, w): slope s/w, value v/w, w > 0
    rows: list[tuple] = []
    pos: list[tuple] = []
    neg: list[tuple] = []
    zeros: list[tuple] = []
    floor: Optional[tuple] = None  # first zero-slope row of greatest value
    for p in pieces:
        a, b = p.slope.numerator, p.slope.denominator
        c, d = p.value.numerator, p.value.denominator
        row = (a * d, c * b, b * d, p)
        rows.append(row)
        if a > 0:
            pos.append(row)
        elif a < 0:
            neg.append(row)
        else:
            zeros.append(row)
            if floor is None or row[1] * floor[2] > floor[1] * row[2]:
                floor = row

    if not pos and not neg:
        return MinMaxResult(
            floor[3].value, Fraction(0), 0, _tight(zeros, 0, 1, floor[1], floor[2])
        )

    if not neg or not pos:
        # pushing h toward the empty side silences every sloped constraint
        if floor is None:
            return MinMaxResult(MINUS_INF, None, +1 if pos else -1)
        hn, hd = _band_edge(pos or neg, floor, lower=bool(pos))
        tight = _tight(zeros + (pos or neg), hn, hd, floor[1], floor[2])
        return MinMaxResult(floor[3].value, Fraction(hn, hd), 0, tight)

    # two-sided: a crossing N/D of a positive and a negative slope, D > 0,
    # compared with the best so far by cross-multiplying
    bn, bd = (floor[1], floor[2]) if floor is not None else (None, 1)
    pair = None
    for sp, vp, wp, _ in pos:
        for sq, vq, wq, _ in neg:
            n = sp * vq - sq * vp
            d = sp * wq - sq * wp
            if bn is None or n * bd > bn * d:
                bn, bd, pair = n, d, (vp, wp, vq, wq)
    if bn is None:
        raise LPError("two-sided min-max found no crossing and no floor")
    if pair is None:
        # the floor dominates every crossing; any h in the feasible band works
        hn, hd = _band_edge(pos, floor, lower=True)
        un, ud = _band_edge(neg, floor, lower=False)
        if hn * ud > un * hd:
            raise LPError("empty feasible band for the slope under the floor")
        tight = _tight(rows, hn, hd, bn, bd)
        return MinMaxResult(floor[3].value, Fraction(hn, hd), 0, tight)
    vp, wp, vq, wq = pair
    hn = vp * wq - vq * wp  # the crossing's h, over the same D
    tight = _tight(rows, hn, bd, bn, bd)
    return MinMaxResult(Fraction(bn, bd), Fraction(hn, bd), 0, tight)


def _band_edge(rows: list, floor: tuple, lower: bool) -> tuple[int, int]:
    """The binding edge of {h : value - h * slope <= floor} over rows of one
    slope sign, as integers (n, d) with d > 0: the largest lower bound for
    positive slopes, the smallest upper bound for negative ones."""
    zv, zw = floor[1], floor[2]
    best_n, best_d = None, 1
    for s, v, w, _ in rows:
        n, d = v * zw - zv * w, s * zw
        if d < 0:
            n, d = -n, -d
        if best_n is None or (
            n * best_d > best_n * d if lower else n * best_d < best_n * d
        ):
            best_n, best_d = n, d
    return best_n, best_d


def _tight(rows: list, hn: int, hd: int, bn: int, bd: int) -> list[str]:
    """Labels of the rows with value - h * slope == V, for h = hn/hd and
    V = bn/bd (hd, bd > 0), in row order."""
    return [
        row[3].label for row in rows if (row[1] * hd - hn * row[0]) * bd == bn * hd * row[2]
    ]
