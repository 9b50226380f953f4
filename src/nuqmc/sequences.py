"""Deterministic low-discrepancy generators (transform inputs, fuzzing stock)."""

from __future__ import annotations

import numpy as np

from .discrepancy import PointSet
from .errors import ValidationError
from .measures import _allocation, _int

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


def van_der_corput(n: int, base: int = 2) -> float:
    """Radical inverse of index ``n >= 1`` in the given base."""
    base = _int(base, "base", 2)
    n = _int(n, "index", 1)
    inv = 0.0
    denom = 1.0
    while n > 0:
        n, digit = divmod(n, base)
        denom *= base
        inv += digit / denom
    return inv


def halton(n_points: int, dimension: int) -> PointSet:
    """First ``n_points`` of the Halton sequence (bases = first d primes, d <= 8).

    Index-stable: point ``n`` is the same regardless of ``n_points``.
    """
    dimension = _int(dimension, "dimension")
    if not 1 <= dimension <= len(_PRIMES):
        raise ValidationError(f"dimension must be in 1..{len(_PRIMES)}")
    n_points = _int(n_points, "n_points", 1)
    too_many = ValidationError(f"{n_points} x {dimension} coordinates do not fit in memory")
    with _allocation(8 * n_points * dimension, too_many):
        pts = np.empty((n_points, dimension))
        for s in range(dimension):
            pts[:, s] = _radical_inverses(n_points, _PRIMES[s])
    return PointSet(dimension, pts)


def _radical_inverses(n_points: int, base: int) -> np.ndarray:
    """:func:`van_der_corput` of the indices ``1..n_points``, one digit
    position at a time: the same divisions and additions in the same order,
    so the same floats (an index out of digits adds ``+0.0``)."""
    n = np.arange(1, n_points + 1)
    inv = np.zeros(n_points)
    denom = 1.0
    while n[-1] > 0:  # the last index has the most digits
        n, digit = np.divmod(n, base)
        denom *= base
        inv += digit / denom
    return inv
