"""The one-step min-max kernel as it stood before its integer rewrite.

A verbatim copy of the Fraction-arithmetic ``lp.min_max_affine``, kept as
the reference that ``test_kernel.py`` compares the integer kernel against.
"""

from fractions import Fraction
from typing import Optional, Sequence

from trajhedge.lp import MINUS_INF, AffinePiece, LPError, MinMaxResult


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
