"""The test for the boundary point at infinity.

A measure's path runs in the upper half plane H and ends on its boundary,
where the Palm coefficient gamma_{n-1} = 1 puts the last point, and with
it the boundary slope of the operator, at infinity.  That slope is
``math.inf``; :func:`is_inf` recognizes it, real or complex, in
:func:`circdirac.dirac.boundary_direction`.  The benchmark's tracer
records this module as a layer of its own and its self-test asserts an
``is_inf`` span, so the function stays here until the benchmark change of
ROADMAP item 1 moves it into ``dirac``.
"""

from __future__ import annotations

import math

__all__ = ["is_inf"]


def is_inf(z) -> bool:
    """True if ``z`` represents the point at infinity."""
    z = complex(z)
    return math.isinf(z.real) or math.isinf(z.imag)
