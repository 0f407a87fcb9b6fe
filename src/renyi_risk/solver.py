"""The one scalar root finder: bracket growth, then bisection of a monotone function."""

from __future__ import annotations

from typing import Callable, Tuple

_MAX_EXPANSIONS = 400
_MAX_STEPS = 10_000


class SolverError(RuntimeError):
    """Bracket expansion or iteration cap reached before convergence."""


def find_root(
    g: Callable[[float], float], lo: float, hi: float, tol: float
) -> Tuple[float, int]:
    """Sign change of a nondecreasing ``g``; returns ``(root, steps)``.

    The wrong-signed end is moved away from the other one, doubling the
    width each time, until g(lo) < 0 <= g(hi).  Bisection then keeps that
    sign pattern and stops once the width is at most
    ``tol * (1 + |lo| + |hi|)`` (or the floats between the ends run out),
    returning the midpoint and the number of bisection steps.  Raises
    ``SolverError`` when either the expansion or the iteration cap is hit.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    expansions = 0
    while g(lo) >= 0.0:
        expansions += 1
        if expansions > _MAX_EXPANSIONS:
            raise SolverError(f"no sign change after {_MAX_EXPANSIONS} expansions")
        lo = hi - 2.0 * (hi - lo)
    while g(hi) < 0.0:
        expansions += 1
        if expansions > _MAX_EXPANSIONS:
            raise SolverError(f"no sign change after {_MAX_EXPANSIONS} expansions")
        hi = lo + 2.0 * (hi - lo)
    steps = 0
    while (hi - lo) > tol * (1.0 + abs(lo) + abs(hi)):
        if steps >= _MAX_STEPS:
            raise SolverError(f"bisection did not converge in {_MAX_STEPS} steps")
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        steps += 1
    return 0.5 * (lo + hi), steps
