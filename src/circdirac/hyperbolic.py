"""The boundary point at infinity and the involution iota of the disk.

A measure's path runs in the upper half plane H and ends on its boundary,
where the Palm coefficient gamma_{n-1} = 1 puts the last point, and with
it the boundary slope of the operator, at infinity.  That point is a
first-class value (``INF``), not an exception.

iota(gamma) = -gamma (1 - conj(gamma)) / (1 - gamma) keeps the modulus and
sends the parameter of an affine disk isometry (fixing the boundary point
1, sending gamma to 0) to the parameter of its inverse; the Palm transform
applies it to the interior modified coefficients.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["INF", "is_inf", "iota_array"]

#: Point at infinity on the boundary of the half plane.
INF = complex(math.inf, 0.0)


def is_inf(z) -> bool:
    """True if ``z`` represents the point at infinity."""
    z = complex(z)
    return math.isinf(z.real) or math.isinf(z.imag)


def iota_array(gammas: np.ndarray) -> np.ndarray:
    """iota applied entrywise; gamma = 1, its pole, gives nan/inf."""
    g = np.asarray(gammas, dtype=complex)
    return -g * (1.0 - np.conj(g)) / (1.0 - g)
