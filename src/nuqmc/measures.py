"""Normalized and signed Borel measures on the unit cube ``[0,1]^d``.

A measure is represented by its anchored distribution function
``F(a) = mass([0, a])`` over closed anchored boxes.  Four concrete
representations are provided:

* :class:`UniformMeasure` -- Lebesgue measure on the cube,
* :class:`DiscreteMeasure` -- a probability measure on finitely many atoms,
* :class:`ProductMeasure` -- a product of one-dimensional CDFs
  (:class:`AxisCdf`), each allowed to carry jumps (atoms) and plateaus,
* :class:`AnalyticCdfMeasure` -- a closed-form CDF callback, evaluated on
  whole ``(k, d)`` batches of points.

Every one of them also has a private ``_cdf_table(coords, left)``: the CDF
on the product grid ``coords[0] x ... x coords[d-1]`` (nondecreasing
coordinate arrays), taking the left limit on axis ``s`` wherever the boolean
array ``left[s]`` is True.  It returns ``rows(start, stop, out, cols)``,
which writes the table's axis-0 indices ``start:stop`` into the C-contiguous
float array ``out`` and returns it, so that a caller can stream a large table
in slabs through one buffer.  ``cols`` selects columns on the other axes: one
increasing index array per axis ``1..d-1`` (``np.arange`` for every column),
and ``out`` has the shape ``(stop - start, len(cols[0]), ...)``.  Every entry
read through a selection is the same float as the full table's entry at those
indices:
uniform and product tables gather their per-axis factors (evaluated once per
``_cdf_table`` call), an analytic table builds its corners from the selected
coordinates, and a discrete table moves each atom to the first selected
column at or after its own.  A discrete selection must not leave two atom
columns in one gap ``(s_{k-1}, s_k]`` between consecutive selected columns
(so it is enough to select every atom's column): its prefix sums would then
add those atoms in another order than the full table does.  The reader
checks this and raises ``ValueError`` on such a selection.  The exact
discrepancy engine reads only the columns where a count can change; the
exact cell masses of :mod:`nuqmc.integrate` read whole tables.  Every table
read works on whole arrays: an analytic measure calls its callback once per
read, never once per cell.  Uniform and product tables are read with NumPy's
ufunc buffer cut to one row where that is faster, restored before the read
returns or raises (see ``_product_table``); a discrete table's axis-0 prefix
sums add long rows one at a time, by the rule the exact engine's counts
share (``_prefix_rows``).

Scattered points go through a second private method,
``_cdf_points(points, left)``: the CDF at the rows of the ``(k, d)`` array
``points``, with the left limit on the axes where the ``(k, d)`` boolean
array ``left`` is True.  The randomized discrepancy search reads a whole
chunk of corners through it, and the public ``cdf``/``cdf_one_sided`` of
every measure are one-row calls into it.

Signed measures are restricted to the purely atomic case
(:class:`DiscreteSignedMeasure`), which is all the function/measure
correspondence of :mod:`nuqmc.variation` produces.  Jordan decomposition and
total variation are exact there.  Its atoms are validated and merged as
arrays; a merged weight is the same float a sequential sum would give.

Every coordinate entering the package (points, atoms, breakpoints, corners,
CDF arguments) passes one ingest check: ``_unit`` (``0 <= x <= 1``, which
NaN and the infinities fail) or ``_breakpoints`` (a strictly increasing grid
from 0.0 to 1.0).  Constructors store copies of the arrays they are given.

All numeric comparisons in this package use a documented floating point
tolerance of ``1e-12`` (non-dyadic rational fixtures make bit-exact
comparisons impossible).  Every object is immutable after construction and
every operation is a pure function, so concurrent evaluation needs no
synchronization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    UnsupportedMeasureError,
    ValidationError,
)

#: Comparison tolerance for normalization / mass checks.
TOLERANCE = 1e-12

#: Per-axis evaluation flags for one-sided CDF limits.
AT_POINT = "at"
LEFT_LIMIT = "left"

#: Tables whose rows have at least this many cells are prefix-summed along
#: axis 0 one row at a time (see ``_prefix_rows``).
_ROW_LOOP_CELLS = 512
#: Last-axis lengths of a product table read with a ufunc buffer of one row
#: (see ``_product_table``).
_ROW_BUFFER = range(256, 8192)


def _unit(values, name: str) -> np.ndarray:
    """``values`` as a float array whose every entry satisfies
    ``0 <= x <= 1``, a test that NaN and the infinities fail."""
    arr = np.asarray(values, dtype=float)
    inside = (arr >= 0.0) & (arr <= 1.0)
    if not np.all(inside):
        raise ValidationError(f"{name} must lie in [0,1], got {float(arr[~inside].flat[0])}")
    return arr


def _breakpoints(values, name: str) -> np.ndarray:
    """A fresh read-only copy of ``values``: a 1-d grid of at least two
    entries, from 0.0 to 1.0 and strictly increasing."""
    arr = np.array(_unit(values, name))
    if arr.ndim != 1 or arr.size < 2:
        raise ValidationError(f"{name} must be a 1-d array of size >= 2")
    if arr[0] != 0.0 or arr[-1] != 1.0:
        raise ValidationError(f"{name} must start at 0.0 and end at 1.0")
    if np.any(np.diff(arr) <= 0):
        raise ValidationError(f"{name} must be strictly increasing")
    arr.flags.writeable = False
    return arr


def _unit_point(a, dimension: int, name: str = "point") -> np.ndarray:
    arr = np.asarray(a, dtype=float).reshape(-1)
    if arr.size != dimension:
        raise DimensionMismatchError(
            f"{name} has {arr.size} coordinates, expected {dimension}"
        )
    return _unit(arr, name)


def _limit_flags(flags, dimension: int) -> tuple[str, ...]:
    if flags is None:
        return (AT_POINT,) * dimension
    out = tuple(flags)
    if len(out) != dimension:
        raise DimensionMismatchError(
            f"expected {dimension} limit flags, got {len(out)}"
        )
    for f in out:
        if f not in (AT_POINT, LEFT_LIMIT):
            raise ValidationError(f"unknown limit flag {f!r}")
    return out


def _inside(locations: np.ndarray, corners: np.ndarray, left: np.ndarray) -> np.ndarray:
    """``(k, n)`` mask whose row ``i`` marks the rows of ``locations`` that
    lie in the anchored box with upper corner ``corners[i]``, open on the
    axes where ``left[i]`` is True and closed on the others."""
    # x < a exactly when x <= the largest float below a
    upper = np.where(left, np.nextafter(corners, -np.inf), corners)
    inside = np.ones((corners.shape[0], locations.shape[0]), dtype=bool)
    for s in range(locations.shape[1]):
        inside &= locations[:, s] <= upper[:, s, None]
    return inside


class _PointCdf:
    """The public point evaluations of a measure with ``_cdf_points``."""

    def cdf(self, a) -> float:
        """``F(a) = mass([0, a])``."""
        return self.cdf_one_sided(a, None)

    def cdf_one_sided(self, a, flags) -> float:
        """``F`` at ``a`` with left limits on the axes flagged ``"left"``."""
        a = _unit_point(a, self.dimension)
        left = np.array([f == LEFT_LIMIT for f in _limit_flags(flags, self.dimension)])
        return float(self._cdf_points(a[None, :], left[None, :])[0])


def _upper_axis(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates ``xs`` approached from below, followed by the closed end
    ``1``: the per-axis ``(coords, left)`` pair of a :meth:`_cdf_table` call
    that evaluates the one-sided limits at cell upper corners."""
    coords = np.concatenate([xs, [1.0]])
    return coords, np.arange(coords.size) < xs.size


def _prefix_rows(c: np.ndarray) -> np.ndarray:
    """Prefix sums of ``c`` along axis 0, in place.  Rows of at least
    ``_ROW_LOOP_CELLS`` cells are added one row at a time: a cumsum along
    axis 0 strides across them and is several times slower.  Both add the
    rows in the same order, so the sums are the same floats."""
    if math.prod(c.shape[1:]) < _ROW_LOOP_CELLS:
        return np.cumsum(c, axis=0, out=c)
    prev = c[0]
    for row in c[1:]:
        np.add(row, prev, out=row)
        prev = row
    return c


def _product_table(factors: Sequence[np.ndarray]):
    """Row reader of the table ``factors[0] x ... x factors[-1]``, built in
    ``reduce(np.multiply.outer, ...)`` axis order so that every entry is the
    same floating point product whichever rows and columns are read.

    NumPy copies the operands of this broadcast product through its ufunc
    buffer when a row is shorter than the buffer (8192 entries): about 1.6
    ns a cell against 0.5 with a buffer no longer than one row.  So a last
    axis of ``_ROW_BUFFER`` entries is read with the buffer cut to its
    length (a multiple of 16, as NumPy 1.x requires), restored afterwards;
    on shorter last axes a small buffer is slower."""

    def rows(start: int, stop: int, out: np.ndarray, cols) -> np.ndarray:
        axes = [factors[0][start:stop]] + [f[j] for f, j in zip(factors[1:], cols)]
        head = reduce(np.multiply.outer, axes[:-1], 1.0)  # 1.0 * x == x exactly
        n = axes[-1].size
        if n not in _ROW_BUFFER:
            return np.multiply.outer(head, axes[-1], out=out)
        size = np.setbufsize(n - n % 16)
        try:
            return np.multiply.outer(head, axes[-1], out=out)
        finally:
            np.setbufsize(size)

    return rows


def _covering_index(coords: np.ndarray, left: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """First index ``j`` with ``x < coords[j]``, or ``x <= coords[j]`` where
    ``left[j]`` is False; ``coords.size`` when there is none.  ``coords`` is
    nondecreasing, and among equal coordinates the left limits come first."""
    lo = np.searchsorted(coords, xs, side="left")
    hi = np.searchsorted(coords, xs, side="right")
    n_left = np.concatenate([[0], np.cumsum(left)])
    return lo + n_left[hi] - n_left[lo]


@dataclass(frozen=True)
class Atom:
    """A weighted point mass.  The weight may be negative (signed measures)."""

    location: tuple[float, ...]
    weight: float


class DiscreteSignedMeasure(_PointCdf):
    """A finite signed measure supported on finitely many distinct atoms.

    Atoms at identical locations are merged at construction (weights summed,
    exact zeros dropped), which makes Jordan decomposition and total
    variation canonical.  ``atoms`` is an iterable of :class:`Atom` objects
    or ``(location, weight)`` pairs; code holding the atoms as arrays builds
    the measure with :meth:`_from_arrays` instead.
    """

    def __init__(self, dimension: int, atoms: Iterable) -> None:
        locs: list[np.ndarray] = []
        ws: list[float] = []
        for atom in atoms:
            loc, w = (atom.location, atom.weight) if isinstance(atom, Atom) else atom
            loc = np.asarray(loc, dtype=float).reshape(-1)
            if loc.size != dimension:
                raise DimensionMismatchError(
                    f"atom location has {loc.size} coordinates, expected {dimension}"
                )
            locs.append(loc)
            ws.append(float(w))
        # an empty input takes the shape (0, d); _init_arrays rejects d < 1
        locations = np.asarray(locs) if locs else np.empty((0, max(int(dimension), 0)))
        self._init_arrays(dimension, locations, np.asarray(ws, dtype=float))

    @classmethod
    def _from_arrays(cls, dimension: int, locations, weights) -> "DiscreteSignedMeasure":
        """The measure with atoms at the rows of the ``(n, d)`` array
        ``locations`` and the ``(n,)`` weights ``weights``."""
        nu = cls.__new__(cls)
        nu._init_arrays(dimension, np.asarray(locations, dtype=float),
                        np.asarray(weights, dtype=float))
        return nu

    def _init_arrays(self, dimension: int, locations: np.ndarray, weights: np.ndarray) -> None:
        if dimension < 1:
            raise ValidationError("dimension must be >= 1")
        self.dimension = int(dimension)
        n = weights.size
        if weights.ndim != 1 or locations.shape != (n, self.dimension):
            raise DimensionMismatchError(
                f"atom locations have shape {locations.shape} and weights shape "
                f"{weights.shape}, expected ({n}, {self.dimension}) and ({n},)"
            )
        _unit(locations, "atom locations")
        if not np.all(np.isfinite(weights)):
            raise ValidationError("atom weight must be finite")
        # merge duplicates: lexicographic sort, then sum each run of equal
        # rows; bincount adds a run's weights one after another in sorted
        # order, so every sum is the same float as a sequential loop's
        order = np.lexsort(locations.T[::-1])
        locations = locations[order]
        weights = weights[order]
        starts = np.ones(n, dtype=bool)
        starts[1:] = np.any(locations[1:] != locations[:-1], axis=1)
        weights = np.bincount(np.cumsum(starts) - 1, weights=weights)
        nonzero = weights != 0.0
        locations = locations[starts][nonzero]
        weights = weights[nonzero]
        locations.flags.writeable = False
        weights.flags.writeable = False
        self.locations = locations
        self.weights = weights

    def __len__(self) -> int:
        return self.weights.size

    def __repr__(self) -> str:
        return (
            f"DiscreteSignedMeasure(d={self.dimension}, atoms={len(self)}, "
            f"mass={self.mass:.6g})"
        )

    @property
    def atoms(self) -> tuple[Atom, ...]:
        return tuple(
            Atom(tuple(loc), float(w))
            for loc, w in zip(self.locations, self.weights)
        )

    @property
    def mass(self) -> float:
        return float(self.weights.sum())

    def _cdf_points(self, points: np.ndarray, left: np.ndarray) -> np.ndarray:
        """CDF at scattered points (see the module docstring): each value is
        the sum of the weights inside, taken in atom order, one point at a
        time so that it is the same float whatever the other points are."""
        inside = _inside(self.locations, points, left)
        return np.array([self.weights[row].sum() for row in inside], dtype=float)

    def axis_coordinates(self, axis: int) -> np.ndarray:
        if not len(self):
            return np.empty(0)
        return np.unique(self.locations[:, axis])


def jordan_decompose_measure(
    nu: DiscreteSignedMeasure,
) -> tuple[DiscreteSignedMeasure, DiscreteSignedMeasure]:
    """Split ``nu`` into its mutually singular positive and negative parts.

    Returns ``(positive, negative)`` with disjoint supports and
    ``nu = positive - negative`` atom by atom.
    """
    pos_mask = nu.weights > 0
    neg_mask = nu.weights < 0
    positive = DiscreteSignedMeasure._from_arrays(
        nu.dimension, nu.locations[pos_mask], nu.weights[pos_mask]
    )
    negative = DiscreteSignedMeasure._from_arrays(
        nu.dimension, nu.locations[neg_mask], -nu.weights[neg_mask]
    )
    return positive, negative


def total_variation(nu: DiscreteSignedMeasure) -> float:
    """Total variation ``|nu|([0,1]^d)``, i.e. the sum of absolute weights.

    Summed per sign class so the identity with the Jordan part masses is
    bit-exact rather than merely within tolerance.
    """
    w = nu.weights
    return float(w[w > 0].sum() + (-w[w < 0]).sum())


class AxisCdf:
    """One-dimensional right-continuous piecewise-linear CDF on ``[0,1]``.

    Both one-sided values are stored at every breakpoint so that jumps
    (atoms) are representable and left limits ``G(x-)`` are exact; plateaus
    are allowed.  ``values_left[0]`` is always 0 (there is no mass below 0).
    """

    def __init__(
        self,
        breakpoints: Sequence[float],
        values: Sequence[float],
        values_left: Sequence[float] | None = None,
    ) -> None:
        bp = _breakpoints(breakpoints, "breakpoints")
        va = np.array(values, dtype=float)
        if va.shape != bp.shape:
            raise ValidationError("values must match breakpoints in length")
        if values_left is None:
            vl = va.copy()
            vl[0] = 0.0
        else:
            vl = np.array(values_left, dtype=float)
            if vl.shape != bp.shape:
                raise ValidationError("values_left must match breakpoints in length")
        if not (np.all(np.isfinite(va)) and np.all(np.isfinite(vl))):
            # NaN slips through the ordering checks below: every comparison is False
            raise ValidationError("CDF values must be finite")
        if vl[0] != 0.0:
            raise ValidationError("values_left[0] must be 0 (no mass below 0)")
        chain = np.empty(2 * bp.size)
        chain[0::2] = vl
        chain[1::2] = va
        if np.any(np.diff(chain) < 0):
            raise ValidationError("CDF data must be nondecreasing")
        if abs(va[-1] - 1.0) > TOLERANCE:
            raise ValidationError(f"G(1) must equal 1, got {va[-1]}")
        for arr in (va, vl):
            arr.flags.writeable = False
        self.breakpoints = bp
        self.values = va
        self.values_left = vl

    @classmethod
    def identity(cls) -> "AxisCdf":
        return cls([0.0, 1.0], [0.0, 1.0])

    @property
    def is_continuous(self) -> bool:
        return bool(np.all(self.values[1:] == self.values_left[1:]) and self.values[0] == 0.0)

    def value(self, x: float) -> float:
        return float(self.values_at(np.asarray([x]))[0])

    def left_value(self, x: float) -> float:
        return float(self.left_values_at(np.asarray([x]))[0])

    def values_at(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized ``G(x)`` (right-continuous value)."""
        return self._one_sided_at(xs, False)

    def left_values_at(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized left limit ``G(x-)``."""
        return self._one_sided_at(xs, True)

    def _one_sided_at(self, xs, left) -> np.ndarray:
        """Vectorized ``G(x)``, or ``G(x-)`` where the boolean ``left`` (one
        flag, or one per ``x``) is True: the two differ only at breakpoints."""
        xs = _unit(xs, "CDF argument")
        bp, va, vl = self.breakpoints, self.values, self.values_left
        j = np.searchsorted(bp, xs, side="right") - 1
        j = np.clip(j, 0, bp.size - 2)
        x0 = bp[j]
        x1 = bp[j + 1]
        y0 = va[j]
        y1 = vl[j + 1]
        t = (xs - x0) / (x1 - x0)
        out = y0 + t * (y1 - y0)
        exact = np.searchsorted(bp, xs, side="left")
        on_break = (exact < bp.size) & (bp[np.minimum(exact, bp.size - 1)] == xs)
        k = exact[on_break]
        out[on_break] = np.where(left[on_break] if np.ndim(left) else left, vl[k], va[k])
        return out

    def pseudo_inverse(self, y: float) -> float:
        """Smallest ``x`` with ``G(x) >= y``; exact on the piecewise data."""
        return float(self._pseudo_inverse_at(np.asarray([y], dtype=float))[0])

    def _pseudo_inverse_at(self, ys: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`pseudo_inverse`."""
        ys = _unit(ys, "pseudo-inverse argument")
        bp, va, vl = self.breakpoints, self.values, self.values_left
        # nondecreasing chain va[0], vl[1], va[1], ..., vl[n-1], va[n-1]: its
        # first entry >= y is va[0] (index 0, answer 0), the end vl[j] of the
        # ramp over (bp[j-1], bp[j]) (odd index 2j-1), or the top va[j] of the
        # jump at bp[j] (even index 2j); past the end only when G(1) < y
        chain = np.empty(2 * bp.size - 1)
        chain[0::2] = va
        chain[1::2] = vl[1:]
        k = np.searchsorted(chain, ys, side="left")
        inside = k < chain.size
        j = np.minimum((k + 1) // 2, bp.size - 1)
        out = np.where(inside, bp[j], 1.0)
        ramp = inside & (k % 2 == 1)
        j = j[ramp]
        t = (ys[ramp] - va[j - 1]) / (vl[j] - va[j - 1])
        out[ramp] = bp[j - 1] + t * (bp[j] - bp[j - 1])
        return out


@dataclass(frozen=True)
class UniformMeasure(_PointCdf):
    """Lebesgue measure on ``[0,1]^d``."""

    dimension: int

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValidationError("dimension must be >= 1")

    def axis_coordinates(self, axis: int) -> np.ndarray:
        return np.empty(0)

    def _cdf_points(self, points: np.ndarray, left: np.ndarray) -> np.ndarray:
        """CDF at scattered points (see the module docstring); continuous,
        so the left limits are the values."""
        return np.prod(points, axis=1)

    def _cdf_table(self, coords, left):
        """CDF table on a product grid (see the module docstring)."""
        return _product_table([np.asarray(c, dtype=float) for c in coords])


class DiscreteMeasure(_PointCdf):
    """A probability measure on finitely many atoms (all weights positive,
    total mass 1 within tolerance)."""

    def __init__(self, atoms: DiscreteSignedMeasure) -> None:
        if np.any(atoms.weights <= 0):
            raise ValidationError("discrete probability measure needs positive weights")
        if abs(atoms.mass - 1.0) > TOLERANCE:
            raise ValidationError(f"total mass must be 1, got {atoms.mass}")
        self.support = atoms
        self.dimension = atoms.dimension

    @classmethod
    def from_points(cls, dimension: int, locations, weights) -> "DiscreteMeasure":
        """Atoms at the rows of the ``(n, d)`` array ``locations`` with the
        ``(n,)`` weights ``weights``."""
        return cls(DiscreteSignedMeasure._from_arrays(dimension, locations, weights))

    @classmethod
    def empirical(cls, points: np.ndarray) -> "DiscreteMeasure":
        """Empirical measure of a point set (weight 1/N per point, duplicates merge)."""
        pts = np.asarray(points, dtype=float)
        n = pts.shape[0]
        return cls(DiscreteSignedMeasure._from_arrays(pts.shape[1], pts, np.full(n, 1.0 / n)))

    def axis_coordinates(self, axis: int) -> np.ndarray:
        return self.support.axis_coordinates(axis)

    def _cdf_points(self, points: np.ndarray, left: np.ndarray) -> np.ndarray:
        """CDF at scattered points (see the module docstring)."""
        return self.support._cdf_points(points, left)

    def _cdf_table(self, coords, left):
        """CDF table on a product grid (see the module docstring).

        Each atom lands in the first table cell that covers it; the rows read
        are prefix sums along axis 0, then axis 1, and so on.  Atoms covered
        only by earlier rows are summed into the first row read, in the
        support's axis-0 order, which reproduces the axis-0 prefix sum of
        the whole table bit for bit.  Under a column selection an atom moves
        to the first selected column at or after its cell, and atoms past
        the last selected column drop out; a selection that leaves two atom
        columns in one gap raises ``ValueError``.
        """
        shape = tuple(len(c) for c in coords)
        locations, weights = self.support.locations, self.support.weights
        cells = [
            _covering_index(np.asarray(c, dtype=float), np.asarray(f, dtype=bool), locations[:, s])
            for s, (c, f) in enumerate(zip(coords, left))
        ]
        covered = np.all([j < n for j, n in zip(cells, shape)], axis=0)
        cells = [j[covered] for j in cells]
        weights = weights[covered]
        atom_cols = [np.unique(j) for j in cells[1:]]

        def rows(start: int, stop: int, out: np.ndarray, cols) -> np.ndarray:
            for c, u in zip(cols, atom_cols):
                gaps = np.searchsorted(c, u)
                gaps = gaps[gaps < c.size]
                if np.any(gaps[1:] == gaps[:-1]):
                    raise ValueError("column selection leaves two atom columns in one gap")
            at = [np.searchsorted(c, j) for c, j in zip(cols, cells[1:])]
            keep = cells[0] < stop
            for j, c in zip(at, cols):
                keep &= j < c.size
            flat = np.ravel_multi_index(
                [np.maximum(cells[0][keep] - start, 0)] + [j[keep] for j in at], out.shape
            )
            out.fill(0.0)
            np.add.at(out.reshape(-1), flat, weights[keep])  # in support order
            _prefix_rows(out)
            for s in range(1, out.ndim):
                np.cumsum(out, axis=s, out=out)
            return out

        return rows


class ProductMeasure(_PointCdf):
    """Product of one-dimensional CDFs: ``F(a) = prod_s G_s(a_s)``."""

    def __init__(self, axes: Sequence[AxisCdf]) -> None:
        axes = tuple(axes)
        if not axes:
            raise ValidationError("product measure needs at least one axis")
        self.axes = axes
        self.dimension = len(axes)

    def axis_coordinates(self, axis: int) -> np.ndarray:
        return self.axes[axis].breakpoints

    def _cdf_points(self, points: np.ndarray, left: np.ndarray) -> np.ndarray:
        """CDF at scattered points (see the module docstring): the product of
        the axis factors, multiplied in axis order."""
        factors = [ax._one_sided_at(x, f) for ax, x, f in zip(self.axes, points.T, left.T)]
        return np.prod(np.stack(factors, axis=1), axis=1)

    def _cdf_table(self, coords, left):
        """CDF table on a product grid (see the module docstring)."""
        return _product_table([
            ax._one_sided_at(c, f) for ax, c, f in zip(self.axes, coords, left)
        ])


class AnalyticCdfMeasure(_PointCdf):
    """Measure given by a closed-form anchored CDF callback ``F``.

    The callbacks work on batches of points.  ``cdf(a)`` takes a ``(k, d)``
    float array and returns the ``(k,)`` values ``F(a[i])``.
    ``continuous=True`` declares that the CDF has no atoms so that left
    limits coincide with point values; otherwise a ``left_limit(a, left)``
    callback must be supplied for one-sided evaluation.  It takes ``(k, d)``
    points and a ``(k, d)`` boolean array, True where the limit from the left
    is taken on that axis, and returns ``(k,)`` values; a row with no True
    entry asks for ``F`` itself.  Both must compute each value from its own
    point alone, and nondecreasing in every coordinate: the exact
    discrepancy engine reads a table on a few columns and relies on both
    (see :mod:`nuqmc.discrepancy`).  ``grid_hints`` may list per-axis
    coordinates worth injecting into exact discrepancy grids (kinks, say);
    correctness does not depend on them.
    """

    def __init__(
        self,
        dimension: int,
        cdf: Callable[[np.ndarray], np.ndarray],
        continuous: bool = True,
        left_limit: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
        grid_hints: Sequence[Sequence[float]] | None = None,
        label: str = "analytic",
    ) -> None:
        if dimension < 1:
            raise ValidationError("dimension must be >= 1")
        self.dimension = int(dimension)
        self._cdf = cdf
        self.continuous = bool(continuous)
        self._left_limit = left_limit
        self.label = label
        if grid_hints is None:
            self._hints = tuple(np.empty(0) for _ in range(dimension))
        else:
            self._hints = tuple(np.array(_unit(h, "grid hints")) for h in grid_hints)
        norm = self.cdf(np.ones(self.dimension))
        if abs(norm - 1.0) > TOLERANCE:
            raise ValidationError(f"F(1,...,1) must equal 1, got {norm}")

    def _cdf_points(self, points: np.ndarray, left: np.ndarray) -> np.ndarray:
        """CDF at scattered points (see the module docstring): one callback
        call for the whole batch, to ``left_limit`` if any axis of any point
        takes a left limit."""
        if self.continuous or not left.any():
            return self._cdf(points)
        if self._left_limit is None:
            raise UnsupportedMeasureError(
                "analytic CDF declared discontinuous has no one-sided limit callback"
            )
        return self._left_limit(points, left)

    def axis_coordinates(self, axis: int) -> np.ndarray:
        return self._hints[axis]

    def _cdf_table(self, coords, left):
        """CDF table on a product grid (see the module docstring): one
        callback call per read, on all the corners of the rows read."""
        coords = [np.asarray(c, dtype=float) for c in coords]
        left = [np.asarray(f, dtype=bool) for f in left]

        def corners(axes):
            return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))

        def rows(start: int, stop: int, out: np.ndarray, cols) -> np.ndarray:
            picks = [slice(start, stop)] + list(cols)
            points = corners([c[j] for c, j in zip(coords, picks)])
            flags = corners([f[j] for f, j in zip(left, picks)])
            out[...] = np.reshape(self._cdf_points(points, flags), out.shape)
            return out

        return rows


def cdf_eval(m, a) -> float:
    """Anchored CDF ``F(a) = m([0, a])`` of a measure at a point.

    Accepts any of the measure classes above as well as a raw
    :class:`DiscreteSignedMeasure`.
    """
    return m.cdf(a)


def cdf_one_sided(m, a, flags=None) -> float:
    """CDF with left limits taken on the axes flagged ``"left"``."""
    return m.cdf_one_sided(a, flags)


def box_measure(m, lower, upper, lower_open=None, upper_open=None) -> float:
    """Measure of an axis-parallel box with per-axis open/closed sides.

    The default is the closed box ``[lower, upper]``.  Computed by
    inclusion-exclusion over the anchored CDF, taking one-sided limits where
    a closed lower side (or an open upper side) requires them.  A degenerate
    axis (``lower == upper``, both sides closed) measures the mass of the
    slab through that coordinate.
    """
    d = m.dimension
    lo = _unit_point(lower, d, "lower corner")
    hi = _unit_point(upper, d, "upper corner")
    if np.any(lo > hi):
        raise ValidationError("box needs lower <= upper componentwise")
    lo_open = tuple(bool(b) for b in (lower_open or (False,) * d))
    hi_open = tuple(bool(b) for b in (upper_open or (False,) * d))
    if len(lo_open) != d or len(hi_open) != d:
        raise DimensionMismatchError("openness flags must have one entry per axis")

    total = 0.0
    corner = np.empty(d)
    flags: list[str] = [AT_POINT] * d
    for bits in range(1 << d):
        sign = 1.0
        for s in range(d):
            if bits >> s & 1:  # this axis takes the lower coordinate
                sign = -sign
                corner[s] = lo[s]
                flags[s] = AT_POINT if lo_open[s] else LEFT_LIMIT
            else:
                corner[s] = hi[s]
                flags[s] = LEFT_LIMIT if hi_open[s] else AT_POINT
        total += sign * m.cdf_one_sided(corner, tuple(flags))
    return total
