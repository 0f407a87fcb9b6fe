"""The one scalar root finder: bracket growth, then safeguarded Newton steps."""

from __future__ import annotations

import math
from typing import Callable, Tuple

_MAX_EXPANSIONS = 400
#: Steps beyond bisection's count that the Newton steps may spend before
#: the projection onto the bisection schedule forces midpoints.
_SLACK = 8


class SolverError(RuntimeError):
    """Bracket expansion cap reached before the sign change was found."""


def find_root(
    g: Callable[[float], Tuple[float, float]], lo: float, hi: float, tol: float
) -> Tuple[float, int]:
    """Sign change of a nondecreasing g; returns ``(root, evaluations)``.

    g returns ``(value, slope)``, the slope nan where the caller has none;
    only a finite positive slope is used.  Growth evaluates g(lo), then
    moves toward the sign change by Newton steps capped by a reach from the
    starting end that doubles: up to lo + (hi - lo), lo + 2 (hi - lo), ...
    while g < 0, down to hi - 2 (hi - lo), hi - 4 (hi - lo), ... while g > 0.
    It takes the cap, and doubles the reach, where the Newton point does not
    lie strictly before it, and after a Newton point that kept the sign; so
    without slopes each point is a doubling, and once g(lo) > 0 the starting
    hi is never evaluated.  Each step then evaluates g once inside the
    bracket g(lo) < 0 < g(hi): at the Newton point from the end with the
    smaller |g|, or from the other end where only that one's slope is
    usable, or at the secant point through both ends where neither is, if
    it lies strictly inside, else at the midpoint; before that test, a
    point that rounds onto or past its own end moves half the stopping
    width from that end toward the other (Brent's rule), so a converged
    Newton point closes the bracket instead of stalling against it.  The
    point is then projected onto the interval around the midpoint that
    keeps the width on a bisection schedule with ``_SLACK`` spare steps
    (the ITP method of Oliveira and Takahashi, 2021), so with w0 the width
    after growth there are at most ceil(log2(w0 / tol)) + 8 steps: below
    2 110 for any finite w0 and positive tol, which is why they have no cap.
    The search returns an exact zero of g as soon as it evaluates one, else
    the midpoint once the width is at most ``tol * (1 + |lo| + |hi|)`` (or
    the floats between the ends run out), all taken from halves of the ends,
    as growth's caps are, so none overflows.  ``evaluations`` counts every
    evaluation of g, growth included.  Raises ``SolverError`` when growth hits the cap.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    inf = math.inf
    x, (fx, dx) = lo, g(lo)
    if fx == 0.0:
        return x, 1
    # growth: the direction to the sign change, the end the reach is
    # measured from, and half the reach of the next cap
    half = 0.5 * hi - 0.5 * lo
    sign, far, reach = (-1.0, hi, 2.0 * half) if fx > 0.0 else (1.0, lo, half)
    newton = False  # whether the last growth point was a Newton point
    expansions = 0
    while True:
        expansions += 1
        if expansions > _MAX_EXPANSIONS:
            raise SolverError(f"no sign change after {_MAX_EXPANSIONS} expansions")
        cap = 2.0 * (0.5 * far + sign * reach)
        nxt = x - fx / dx if 0.0 < dx < inf else cap
        newton = not newton and 0.0 < sign * (nxt - x) and 0.0 < sign * (cap - nxt)
        if not newton:
            nxt = cap
            reach *= 2.0
        fn, dn = g(nxt)
        if fn == 0.0:
            return nxt, 1 + expansions
        if (fn < 0.0) != (sign > 0.0):
            break
        x, fx, dx = nxt, fn, dn
    lo, flo, dlo, hi, fhi, dhi = (nxt, fn, dn, x, fx, dx) if nxt < x else (x, fx, dx, nxt, fn, dn)
    half0 = 0.5 * hi - 0.5 * lo  # half the width after growth
    scale = 2.0 ** _SLACK  # 2^(_SLACK - steps), halved exactly after each step
    steps = 0
    while 0.5 * hi - 0.5 * lo > tol * (0.5 + 0.5 * abs(lo) + 0.5 * abs(hi)):
        mid = 0.5 * lo + 0.5 * hi
        if mid <= lo or mid >= hi:
            break
        # the end with the smaller |g|, or the other where only its slope is usable
        a, b = ((lo, flo, dlo), (hi, fhi, dhi)) if -flo < fhi else ((hi, fhi, dhi), (lo, flo, dlo))
        end, fend, dend = b if not 0.0 < a[2] < inf and 0.0 < b[2] < inf else a
        x = end - fend / dend if 0.0 < dend < inf else lo - flo * (hi - lo) / (fhi - flo)
        # Brent's rule: a point that rounds onto or past its own end moves
        # half the stopping width from that end instead
        if x <= lo if end == lo else x >= hi:
            x = end + math.copysign(tol * (0.5 + 0.5 * abs(lo) + 0.5 * abs(hi)), mid - end)
        if not lo < x < hi:
            x = mid
        # the ITP projection: afterwards the half-width is at most half0 2^(_SLACK - steps - 1)
        r = max(half0 * scale - (0.5 * hi - 0.5 * lo), 0.0)
        x = mid - r if x < mid - r else mid + r if x > mid + r else x
        fx, dx = g(x)
        steps += 1
        if fx == 0.0:
            return x, 1 + expansions + steps
        scale *= 0.5
        if fx < 0.0:
            lo, flo, dlo = x, fx, dx
        else:
            hi, fhi, dhi = x, fx, dx
    return 0.5 * lo + 0.5 * hi, 1 + expansions + steps
