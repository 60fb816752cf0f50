"""Exact rational linear programming, sized for small hedging programs.

Two solvers live here:

* ``minimize`` - a dense two-phase simplex over Fractions with Bland's rule
  (deterministic, exact) for programs ``min c.x  s.t.  A x >= b`` with free
  variables.  It serves the test oracle ``oracle.i_bar_lp`` on trees of a
  few dozen nodes, so no sparsity or scaling tricks are needed.
* ``min_max_affine`` - the one-step kernel's inner problem
  ``min_h max_i (v_i - h * d_i)`` solved in closed form via crossing pairs,
  including the unbounded directions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

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


@dataclass(frozen=True)
class AffinePiece:
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
    and no zero-slope floor the optimum runs off to h = +-inf.
    """
    if not pieces:
        return MinMaxResult(MINUS_INF, None, 0)
    zeros = [p for p in pieces if p.slope == 0]
    pos = [p for p in pieces if p.slope > 0]
    neg = [p for p in pieces if p.slope < 0]
    z_best = max((p.value for p in zeros), default=None)

    if not pos and not neg:
        val = z_best
        tight = [p.label for p in zeros if p.value == val]
        return MinMaxResult(val, Fraction(0), 0, tight)

    if not neg:
        # pushing h upward silences every positive-slope constraint
        if z_best is None:
            return MinMaxResult(MINUS_INF, None, +1)
        h = max((p.value - z_best) / p.slope for p in pos)
        tight = [p.label for p in zeros if p.value == z_best]
        tight += [p.label for p in pos if p.value - h * p.slope == z_best]
        return MinMaxResult(z_best, h, 0, tight)

    if not pos:
        if z_best is None:
            return MinMaxResult(MINUS_INF, None, -1)
        h = min((p.value - z_best) / p.slope for p in neg)
        tight = [p.label for p in zeros if p.value == z_best]
        tight += [p.label for p in neg if p.value - h * p.slope == z_best]
        return MinMaxResult(z_best, h, 0, tight)

    # two-sided: optimum at a crossing of a positive and a negative slope
    best = z_best
    best_h: Optional[Fraction] = None
    for p in pos:
        for q in neg:
            val = (p.slope * q.value - q.slope * p.value) / (p.slope - q.slope)
            if best is None or val > best:
                best = val
                best_h = (p.value - q.value) / (p.slope - q.slope)
    if best is None:
        raise LPError("two-sided min-max found no crossing and no floor")
    if best_h is None:
        # the floor dominates every crossing; any h in the feasible band works
        lo = max((p.value - best) / p.slope for p in pos)
        hi = min((q.value - best) / q.slope for q in neg)
        if lo > hi:
            raise LPError("empty feasible band for the slope under the floor")
        best_h = lo
    tight = [p.label for p in pieces if p.value - best_h * p.slope == best]
    return MinMaxResult(best, best_h, 0, tight)
