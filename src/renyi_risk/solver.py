"""The one scalar root finder: bracket growth, then safeguarded interpolation."""

from __future__ import annotations

import math
from typing import Callable, Tuple

_MAX_EXPANSIONS = 400
_MAX_STEPS = 10_000
#: Steps beyond bisection's count that the interpolation may spend before
#: the projection onto the bisection schedule forces midpoints.
_SLACK = 8


class SolverError(RuntimeError):
    """Bracket expansion or iteration cap reached before convergence."""


def find_root(
    g: Callable[[float], float], lo: float, hi: float, tol: float
) -> Tuple[float, int]:
    """Sign change of a nondecreasing ``g``; returns ``(root, steps)``.

    Growth evaluates g(lo) first.  While it is nonnegative, that point
    becomes hi and lo moves twice as far from the starting hi; the starting
    hi is never evaluated.  Otherwise, while g(hi) is negative, that point
    becomes lo and hi moves twice as far from the starting lo.  So each
    doubling costs one evaluation, and the bracket handed on, with g(lo) < 0
    <= g(hi), spans the last doubling's outer half only.  Each step then
    evaluates g once inside the bracket and keeps that sign pattern.  The
    point is the inverse quadratic interpolant through both ends and the end
    replaced last, else the secant through the ends, with the value at an
    end kept twice in a row halved (the Illinois rule), so neither end
    sticks.  It is held at least half the stopping width from either end, so
    that an approach from one side still closes the bracket.  The midpoint
    is taken instead when an end value is not finite, or when the last two
    steps did not halve the width together.  Last, the point is projected
    onto the interval around the midpoint that keeps the width on a
    bisection schedule with ``_SLACK`` spare steps (the ITP method of
    Oliveira and Takahashi, 2021), so with w0 the width after growth there
    are at most ceil(log2(w0 / tol)) + 8 steps.  The search stops once the
    width is at most ``tol * (1 + |lo| + |hi|)`` (or the floats between the
    ends run out) and returns the midpoint and the number of steps, which is
    the number of evaluations of g after bracketing.  Raises ``SolverError``
    when either the expansion or the iteration cap is hit.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    expansions = 0
    if (flo := g(lo)) >= 0.0:
        far = hi
        while flo >= 0.0:
            expansions += 1
            if expansions > _MAX_EXPANSIONS:
                raise SolverError(f"no sign change after {_MAX_EXPANSIONS} expansions")
            hi, fhi, lo = lo, flo, far - 2.0 * (far - lo)
            flo = g(lo)
    else:
        far = lo
        while (fhi := g(hi)) < 0.0:
            expansions += 1
            if expansions > _MAX_EXPANSIONS:
                raise SolverError(f"no sign change after {_MAX_EXPANSIONS} expansions")
            lo, flo, hi = hi, fhi, far + 2.0 * (hi - far)
    w0 = hi - lo
    slo, shi = flo, fhi  # the end values the secant uses, Illinois-halved
    c = fc = None  # the end replaced last
    side = 0  # -1 when that was lo, 1 when it was hi
    w1, w2 = w0, math.inf  # the widths one and two steps ago
    steps = 0
    while (hi - lo) > tol * (1.0 + abs(lo) + abs(hi)):
        if steps >= _MAX_STEPS:
            raise SolverError(f"root search did not converge in {_MAX_STEPS} steps")
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        x = mid
        delta = tol * (0.5 + min(abs(lo), abs(hi)))
        # interpolate unless an end value is not finite, the last two steps
        # did not halve the width together, or the bracket is within 2 delta
        if (math.isfinite(flo) and math.isfinite(fhi) and hi - lo <= 0.5 * w2
                and hi - lo > 2.0 * delta):
            x = math.nan
            if c is not None and math.isfinite(fc) and fc != flo and fc != fhi:
                x = (lo * fhi * fc / ((flo - fhi) * (flo - fc))
                     + hi * flo * fc / ((fhi - flo) * (fhi - fc))
                     + c * flo * fhi / ((fc - flo) * (fc - fhi)))
            if not lo < x < hi:
                x = lo - slo * (hi - lo) / (shi - slo)
            x = mid if math.isnan(x) else min(max(x, lo + delta), hi - delta)
        # the ITP projection: afterwards the width is at most w0 2^(_SLACK - steps - 1)
        r = max(w0 * 2.0 ** (_SLACK - 1 - steps) - 0.5 * (hi - lo), 0.0)
        x = min(max(x, mid - r), mid + r)
        fx = g(x)
        steps += 1
        w2, w1 = w1, hi - lo
        if fx < 0.0:
            if side < 0:
                shi *= 0.5
            c, fc, lo, flo, slo, side = lo, flo, x, fx, fx, -1
        else:
            if side > 0:
                slo *= 0.5
            c, fc, hi, fhi, shi, side = hi, fhi, x, fx, fx, 1
    return 0.5 * (lo + hi), steps
