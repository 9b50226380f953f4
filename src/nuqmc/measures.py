"""Normalized and signed Borel measures on the unit cube ``[0,1]^d``.

A measure is represented by its anchored distribution function
``F(a) = mass([0, a])`` over closed anchored boxes.  Three representations
are provided:

* :class:`ProductMeasure` -- a product of one-dimensional CDFs
  (:class:`AxisCdf`), each allowed to carry jumps (atoms) and plateaus;
  :class:`UniformMeasure` is the product of ``d`` identity axes,
* :class:`DiscreteSignedMeasure` -- finitely many weighted atoms;
  :class:`DiscreteMeasure` is one with positive weights adding up to 1,
* :class:`AnalyticCdfMeasure` -- a closed-form CDF callback, evaluated on
  whole ``(k, d)`` batches of points.

Every probability measure has a private ``_cdf_table(coords, left)``: the CDF
on the product grid ``coords[0] x ... x coords[d-1]`` (nondecreasing
coordinate arrays), taking the left limit on axis ``s`` wherever the boolean
array ``left[s]`` is True.  It returns ``rows(start, stop, out, cols)``, which
writes the table's axis-0 indices ``start:stop`` into the C-contiguous float
array ``out`` and returns it, so that a caller can stream a large table in
slabs through one buffer.  ``cols`` selects columns on the other axes: one
increasing index array per axis ``1..d-1`` (``np.arange`` for every column),
and ``out`` has the shape ``(stop - start, len(cols[0]), ...)``.  Every entry
read through a selection is the same float as the full table's entry at those
indices: product tables gather their per-axis factors (evaluated once per
``_cdf_table`` call, see ``_factor``), and an analytic table builds its
corners from the selected coordinates.  The exact discrepancy engine reads
only the columns where a count can change; the exact cell masses of
:mod:`nuqmc.integrate` read whole tables.  Every table read works on whole
arrays: an analytic measure calls its callback once per read, never once per
cell.  Product tables are read with NumPy's ufunc buffer cut to one row where
that is faster, restored before the read returns or raises (see
``_product_table``).  Of the signed measures only a DiscreteMeasure has a
table, and only the exact engine reads it.  Only the discrete measures add
``axis_coordinates`` to the exact grids: their atoms' columns, which every
selection of the engine keeps, on grids that end at 1.0.  A
DiscreteMeasure's mass thus lies on the grid lines (``_mass_on_grid``, False
elsewhere): its table reads closed corners only, a left limit raising
``ValueError``, and each atom lands in its own column.

The distribution function of atoms on a grid, ``F(x) = nu([0, x])``, has one
implementation, ``_prefix_table``: each atom's weight added at its cell in
atom order, then prefix sums along every axis, axis 0 first (``_prefix_sums``,
whose axis-0 pass adds long rows one at a time by the rule the exact engine's
counts share, ``_prefix_rows``).  A discrete table's rows, the step function
of :func:`~nuqmc.variation.measure_to_function` and the prefix variation of
:func:`~nuqmc.variation.hk0_prefix_grid` are built by it.

Scattered points go through a second private method,
``_cdf_points(points, left)``: the CDF at the rows of the ``(k, d)`` array
``points``, with the left limit on the axes where the ``(k, d)`` boolean
array ``left`` is True.  It is the one way a measure is read at a corner:
the randomized discrepancy search reads a whole chunk of corners through
it, :func:`box_measure` the ``2^d`` corners of its inclusion-exclusion in
one call, and the public ``cdf``/``cdf_one_sided`` of every measure and
:func:`~nuqmc.discrepancy.one_sided_deviation` make one-row calls into it.

Signed measures are restricted to the purely atomic case
(:class:`DiscreteSignedMeasure`), which is all the function/measure
correspondence of :mod:`nuqmc.variation` produces.  Jordan decomposition and
total variation are exact there.  It has one constructor,
``DiscreteSignedMeasure(dimension, locations, weights)``, on an ``(n, d)``
location array and ``(n,)`` weights, which every build in the package calls;
duplicate locations are merged as arrays, and a merged weight is the same
float a sequential sum would give.

Every number entering the package is read by ``_floats``, which turns ragged
nesting into ``DimensionMismatchError`` and anything else that is not numbers
into ``ValidationError``; a single number by ``_float``, never a bool or text;
a whole number (a dimension, count, index, face axis or cell budget) by
``_int``, an integer or an integral float, never a bool.  Every coordinate
(points, atoms, breakpoints, corners, CDF arguments) then passes one ingest
check: ``_unit`` (``0 <= x <= 1``, which NaN and the infinities fail) or
``_breakpoints`` (a strictly increasing grid from 0.0 to 1.0).  Constructors
store copies of the arrays they are given.

All numeric comparisons in this package use a documented floating point
tolerance of ``1e-12`` (non-dyadic rational fixtures make bit-exact
comparisons impossible).  Every object is immutable after construction and
every operation is a pure function, so concurrent evaluation needs no
synchronization.
"""

from __future__ import annotations

import math
import numbers
from contextlib import contextmanager
from functools import reduce
from typing import Callable, Sequence

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

#: Rows of at least this many cells are prefix-summed along axis 0 one row
#: at a time (see ``_prefix_rows``), and the exact walk counts uncrowded
#: slabs of such rows from their points' orthants
#: (``discrepancy._slab_maxima``).  Both pay from about 160 cells on: the
#: row loop took 1.7 ns a cell against 3.3 for a strided ``cumsum`` on rows
#: of 256 cells, and the orthant counts cut uniform d = 2 walks of
#: N = 300-1024 by 14-30 %.  Below 256, uncrowded d = 2 walks still gain,
#: but walks of crowded rows lose about as much.
_ROW_LOOP_CELLS = 256
#: Last-axis lengths of a product table read with a ufunc buffer of one row
#: (see ``_product_table``).
_ROW_BUFFER = range(256, 8192)


def _floats(values, name: str) -> np.ndarray:
    """``values`` as a float array.  Ragged nesting raises
    ``DimensionMismatchError`` and other input that is not numbers
    ``ValidationError``, never NumPy's ``ValueError`` or ``TypeError``, nor
    the ``OverflowError`` of an integer past the float range."""
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as err:
        # NumPy's message when nesting puts a sequence where a number belongs
        ragged = str(err).startswith("setting an array element with a sequence")
        error = DimensionMismatchError if ragged else ValidationError
        raise error(f"{name}: expected a list of numbers ({err})") from None


def _int(value, name: str, minimum: int | None = None) -> int:
    """``value`` as a Python int: an integer or an integral float, never a
    bool, and at least ``minimum`` when one is given; anything else raises
    ``ValidationError``."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}")
    return int(value)


@contextmanager
def _allocation(n_bytes: int, err: Exception):
    """Raises ``err`` when the arrays of ``n_bytes`` bytes that the body
    allocates do not fit: more bytes than one array can address, checked
    before the body runs, or than memory holds."""
    if n_bytes > np.iinfo(np.intp).max:
        raise err
    try:
        yield
    except MemoryError:
        raise err from None


def _float(value, name: str) -> float:
    """``value`` as a Python float: one number or a 0-d array of one, never a
    bool or text; anything else raises ``ValidationError``."""
    if isinstance(value, np.ndarray) and value.ndim == 0:
        value = value[()]
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name}: expected one number, got {value!r}")
    try:
        return float(value)
    except OverflowError as err:  # an integer past the float range
        raise ValidationError(f"{name}: {err}") from None


def _unit(values, name: str) -> np.ndarray:
    """``values`` as a float array whose every entry satisfies
    ``0 <= x <= 1``, a test that NaN and the infinities fail."""
    arr = _floats(values, name)
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
    arr = _floats(a, name).reshape(-1)
    if arr.size != dimension:
        raise DimensionMismatchError(
            f"{name} has {arr.size} coordinates, expected {dimension}"
        )
    return _unit(arr, name)


def _strictly_increasing_rows(a: np.ndarray) -> bool:
    """True iff the rows of the 2-d array ``a`` strictly increase in
    lexicographic order (so no two are equal)."""
    columns = np.ascontiguousarray(a.T)
    lo, hi = columns[:, :-1], columns[:, 1:]
    later = lo[-1] < hi[-1]
    for s in reversed(range(a.shape[1] - 1)):
        later &= lo[s] == hi[s]
        later |= lo[s] < hi[s]
    return bool(later.all())


def _corner(a, flags, dimension: int, name: str = "point",
            values=(AT_POINT, LEFT_LIMIT)) -> tuple[np.ndarray, np.ndarray]:
    """The point ``a`` as a ``(1, d)`` corner and ``flags`` as its ``(1, d)``
    mask: all False for None, else exactly ``dimension`` entries, each
    ``values[0]`` (False) or ``values[1]`` (True), from a tuple or an array.
    By default the mask is True on the axes flagged ``"left"``: one row of a
    ``_cdf_points`` call."""
    corner = _unit_point(a, dimension, name)[None, :]
    if flags is None:
        return corner, np.zeros((1, dimension), dtype=bool)
    meaning = dict(zip(values, (False, True)))
    try:
        flags = list(flags)
        mask = [meaning[f] for f in flags]
    except (KeyError, TypeError):
        raise ValidationError(
            f"flags of the {name} must be one of {values} per axis, got {flags!r}"
        ) from None
    if len(mask) != dimension:
        raise DimensionMismatchError(f"the {name} has {len(mask)} flags, expected {dimension}")
    return corner, np.array([mask])


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
    """The public point evaluations of a measure with ``_cdf_points``, and
    the defaults of one with no exact-grid coordinates and no CDF table."""

    _mass_on_grid = False

    def axis_coordinates(self, axis: int) -> np.ndarray:
        return np.empty(0)

    def _cdf_table(self, coords, left):
        raise UnsupportedMeasureError(f"no CDF table for {type(self).__name__}")

    def cdf(self, a) -> float:
        """``F(a) = mass([0, a])``."""
        return self.cdf_one_sided(a, None)

    def cdf_one_sided(self, a, flags) -> float:
        """``F`` at ``a`` with left limits on the axes flagged ``"left"``."""
        return float(self._cdf_points(*_corner(a, flags, self.dimension))[0])


def _upper_axis(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates ``xs`` approached from below, followed by the closed end
    ``1``: the per-axis ``(coords, left)`` pair of a :meth:`_cdf_table` call
    that evaluates the one-sided limits at cell upper corners."""
    coords = np.concatenate([xs, [1.0]])
    return coords, np.arange(coords.size) < xs.size


def _prefix_rows(c: np.ndarray) -> np.ndarray:
    """Prefix sums of ``c`` along axis 0, in place.  Rows of at least
    ``_ROW_LOOP_CELLS`` (256) cells are added one row at a time: a cumsum
    along axis 0 strides across them and is about 2x slower there, more on
    longer rows; on rows under about 160 cells the per-row call costs more.
    Both add the rows in the same order, so the sums are the same floats."""
    if math.prod(c.shape[1:]) < _ROW_LOOP_CELLS:
        return np.cumsum(c, axis=0, out=c)
    prev = c[0]
    for row in c[1:]:
        np.add(row, prev, out=row)
        prev = row
    return c


def _prefix_sums(c: np.ndarray) -> np.ndarray:
    """Prefix sums of ``c`` along every axis, in place: axis 0 by
    ``_prefix_rows``, then the others in order."""
    _prefix_rows(c)
    for s in range(1, c.ndim):
        np.cumsum(c, axis=s, out=c)
    return c


def _prefix_table(out: np.ndarray, cells, weights: np.ndarray) -> np.ndarray:
    """The distribution function on a grid of the atoms ``weights`` at the
    cells ``cells`` (one index array per axis of the C-contiguous ``out``),
    written into ``out``: each weight added at its cell in atom order,
    starting from 0.0, then ``_prefix_sums``."""
    out.fill(0.0)
    np.add.at(out.reshape(-1), np.ravel_multi_index(cells, out.shape), weights)
    return _prefix_sums(out)


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


class DiscreteSignedMeasure(_PointCdf):
    """A finite signed measure supported on finitely many distinct atoms.

    The atoms sit at the rows of the ``(n, d)`` array ``locations`` with the
    ``(n,)`` weights ``weights``; an input with no entries, such as ``[]``,
    is read as ``(0, d)``.  Atoms at identical locations are merged at
    construction (weights summed, exact zeros dropped), which makes Jordan
    decomposition and total variation canonical.
    """

    def __init__(self, dimension: int, locations, weights) -> None:
        self.dimension = _int(dimension, "dimension", 1)
        locations = _floats(locations, "atom locations")
        weights = _floats(weights, "atom weights")
        if locations.size == 0 and locations.ndim == 1:
            locations = locations.reshape(0, self.dimension)
        n = weights.size
        if weights.ndim != 1 or locations.shape != (n, self.dimension):
            raise DimensionMismatchError(
                f"atom locations have shape {locations.shape} and weights shape "
                f"{weights.shape}, expected ({n}, {self.dimension}) and ({n},)"
            )
        _unit(locations, "atom locations")
        if not np.all(np.isfinite(weights)):
            raise ValidationError("atom weight must be finite")
        if not _strictly_increasing_rows(locations):
            # merge duplicates: lexicographic sort, then sum each run of equal
            # rows; bincount adds a run's weights one after another in sorted
            # order, so every sum is the same float as a sequential loop's
            order = np.lexsort(locations.T[::-1])
            locations = locations[order]
            weights = weights[order]
            starts = np.ones(n, dtype=bool)
            starts[1:] = np.any(locations[1:] != locations[:-1], axis=1)
            weights = np.bincount(np.cumsum(starts) - 1, weights=weights)
            locations = locations[starts]
        # rows already in that order (grid vertices in C order, a subset of a
        # measure's atoms) skip the sort: every run is one atom, and its sum
        # 0.0 + w is w or a zero that is dropped here either way
        nonzero = weights != 0.0
        locations = np.compress(nonzero, locations, axis=0)
        weights = weights[nonzero]
        locations.flags.writeable = False
        weights.flags.writeable = False
        self.locations = locations
        self.weights = weights

    def __len__(self) -> int:
        return self.weights.size

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(d={self.dimension}, atoms={len(self)}, "
            f"mass={self.mass:.6g})"
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
    positive = DiscreteSignedMeasure(nu.dimension, nu.locations[pos_mask], nu.weights[pos_mask])
    negative = DiscreteSignedMeasure(nu.dimension, nu.locations[neg_mask], -nu.weights[neg_mask])
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
        va = np.array(_floats(values, "CDF values"))
        if va.shape != bp.shape:
            raise ValidationError("values must match breakpoints in length")
        if values_left is None:
            vl = va.copy()
            vl[0] = 0.0
        else:
            vl = np.array(_floats(values_left, "CDF left values"))
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

    @staticmethod
    def identity() -> "AxisCdf":
        """``G(x) = x``: one shared axis (see ``_factor``)."""
        return _IDENTITY

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


_IDENTITY = AxisCdf([0.0, 1.0], [0.0, 1.0])


class DiscreteMeasure(DiscreteSignedMeasure):
    """A probability measure on finitely many atoms: a discrete signed
    measure whose weights are all positive, with total mass 1 within
    tolerance."""

    _mass_on_grid = True

    def __init__(self, atoms: DiscreteSignedMeasure) -> None:
        if np.any(atoms.weights <= 0):
            raise ValidationError("discrete probability measure needs positive weights")
        if abs(atoms.mass - 1.0) > TOLERANCE:
            raise ValidationError(f"total mass must be 1, got {atoms.mass}")
        self.dimension = atoms.dimension
        self.locations = atoms.locations
        self.weights = atoms.weights

    @classmethod
    def from_points(cls, dimension: int, locations, weights) -> "DiscreteMeasure":
        """Atoms at the rows of the ``(n, d)`` array ``locations`` with the
        ``(n,)`` weights ``weights``."""
        return cls(DiscreteSignedMeasure(dimension, locations, weights))

    @classmethod
    def empirical(cls, points: np.ndarray) -> "DiscreteMeasure":
        """Empirical measure of a point set (weight 1/N per point, duplicates merge)."""
        pts = _floats(points, "points")
        if pts.size == 0:
            raise ValidationError("point set must contain at least one point")
        if pts.ndim != 2:
            raise DimensionMismatchError(f"points must form an (N, d) array, got shape {pts.shape}")
        return cls.from_points(pts.shape[1], pts, np.full(len(pts), 1.0 / len(pts)))

    def _cdf_table(self, coords, left):
        """CDF table on a product grid (see the module docstring), read as
        the exact walk reads it: on grids that end at 1.0, at closed corners
        only (a left limit raises ``ValueError``), and on column selections
        that keep every atom's column.

        Each atom lands in the first table cell at or after it, and the
        rows read are ``_prefix_table`` of those cells.  Atoms of earlier
        rows are added into the first row read, in atom order, which
        reproduces the axis-0 prefix sum of the whole table bit for bit.
        """
        if any(np.any(f) for f in left):
            raise ValueError("a discrete table reads closed corners only")
        cells = [np.searchsorted(c, self.locations[:, s]) for s, c in enumerate(coords)]

        def rows(start: int, stop: int, out: np.ndarray, cols) -> np.ndarray:
            keep = cells[0] < stop
            at = [np.maximum(cells[0][keep] - start, 0)]
            at += [np.searchsorted(c, j[keep]) for c, j in zip(cols, cells[1:])]
            return _prefix_table(out, at, self.weights[keep])

        return rows


def _factor(ax: AxisCdf, x, left) -> np.ndarray:
    """``G(x)`` of the axis ``ax``, ``G(x-)`` where ``left`` is True; for the
    identity axis ``x`` itself, the floats its ramp gives (``0 + x/1 * 1``)."""
    if ax is _IDENTITY:
        return np.asarray(x, dtype=float)
    return ax._one_sided_at(x, left)


class ProductMeasure(_PointCdf):
    """Product of one-dimensional CDFs: ``F(a) = prod_s G_s(a_s)``."""

    def __init__(self, axes: Sequence[AxisCdf]) -> None:
        axes = tuple(axes)
        if not axes or not all(isinstance(ax, AxisCdf) for ax in axes):
            raise ValidationError("product measure needs at least one axis, each an AxisCdf")
        self.axes = axes
        self.dimension = len(axes)

    def _cdf_points(self, points: np.ndarray, left: np.ndarray) -> np.ndarray:
        """CDF at scattered points (see the module docstring): the product of
        the axis factors, multiplied in axis order."""
        factors = [_factor(ax, x, f) for ax, x, f in zip(self.axes, points.T, left.T)]
        return np.prod(np.stack(factors, axis=1), axis=1)

    def _cdf_table(self, coords, left):
        """CDF table on a product grid (see the module docstring)."""
        return _product_table([_factor(ax, c, f) for ax, c, f in zip(self.axes, coords, left)])


class UniformMeasure(ProductMeasure):
    """Lebesgue measure on ``[0,1]^d``: the product of ``d`` identity axes."""

    def __init__(self, dimension: int) -> None:
        self.dimension = _int(dimension, "dimension", 1)

    @property
    def axes(self) -> tuple[AxisCdf, ...]:
        """Built when read: the measure stores no axis, whatever its dimension."""
        return (_IDENTITY,) * self.dimension


class AnalyticCdfMeasure(_PointCdf):
    """Measure given by a closed-form anchored CDF callback ``F``.

    The callbacks work on batches of points.  ``cdf(a)`` takes a ``(k, d)``
    float array and returns the ``(k,)`` values ``F(a[i])``.
    ``continuous=True`` declares that the CDF has no atoms so that left
    limits coincide with point values, and a ``left_limit`` given with it
    raises ``ValidationError``; otherwise a ``left_limit(a, left)``
    callback must be supplied for one-sided evaluation.  It takes ``(k, d)``
    points and a ``(k, d)`` boolean array, True where the limit from the left
    is taken on that axis, and returns ``(k,)`` values; a row with no True
    entry asks for ``F`` itself; a callback that returns another number of
    values, or one that is not finite, raises ``ValidationError``.  Both
    must compute each value from its own point alone, and nondecreasing in
    every coordinate: the exact discrepancy engine reads a table on a few
    columns and relies on both (see :mod:`nuqmc.discrepancy`).  Monotonicity is also why the exact
    grids need none of the CDF's own coordinates (kinks, atoms): the
    supremum over a cell of the points' grid is read at its corners.
    """

    def __init__(
        self,
        dimension: int,
        cdf: Callable[[np.ndarray], np.ndarray],
        continuous: bool = True,
        left_limit: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
        label: str = "analytic",
    ) -> None:
        self.dimension = _int(dimension, "dimension", 1)
        self._cdf = cdf
        self.continuous = bool(continuous)
        if self.continuous and left_limit is not None:
            raise ValidationError("left_limit is never called with continuous=True: "
                                  "pass continuous=False with a left_limit callback")
        self._left_limit = left_limit
        self.label = label
        norm = self.cdf(np.ones(self.dimension))
        if abs(norm - 1.0) > TOLERANCE:
            raise ValidationError(f"F(1,...,1) must equal 1, got {norm}")

    def _cdf_points(self, points: np.ndarray, left: np.ndarray) -> np.ndarray:
        """CDF at scattered points (see the module docstring): one callback
        call for the whole batch, to ``left_limit`` if any axis of any point
        takes a left limit."""
        if self.continuous or not left.any():
            return _callback_values("cdf", self._cdf(points), len(points))
        if self._left_limit is None:
            raise UnsupportedMeasureError(
                "analytic CDF declared discontinuous has no one-sided limit callback"
            )
        return _callback_values("left_limit", self._left_limit(points, left), len(points))

    def _cdf_table(self, coords, left):
        """CDF table on a product grid (see the module docstring): one
        callback call per read, on all the corners of the rows read, in C
        order.  A continuous measure never reads the left-limit flags, so
        they are only built for the others."""
        coords = [np.asarray(c, dtype=float) for c in coords]
        left = [np.asarray(f, dtype=bool) for f in left]
        d = self.dimension

        def corners(axes, dtype):
            # one (n_1, ..., n_d, d) array filled axis by axis by broadcasting
            out = np.empty(tuple(a.size for a in axes) + (d,), dtype=dtype)
            for s, a in enumerate(axes):
                out[..., s] = a.reshape((-1,) + (1,) * (d - 1 - s))
            return out.reshape(-1, d)

        def rows(start: int, stop: int, out: np.ndarray, cols) -> np.ndarray:
            picks = [slice(start, stop)] + list(cols)
            points = corners([c[j] for c, j in zip(coords, picks)], float)
            if self.continuous:
                values = _callback_values("cdf", self._cdf(points), len(points))
            else:
                values = self._cdf_points(points, corners([f[j] for f, j in zip(left, picks)], bool))
            out[...] = values.reshape(out.shape)
            return out

        return rows


def _callback_values(name: str, values, k: int) -> np.ndarray:
    """What the analytic callback ``name`` returned for ``k`` points, as a
    ``(k,)`` float array; any other number of values, or one that is not
    finite, raises ``ValidationError`` naming the callback."""
    values = _floats(values, f"values of the {name} callback")
    if values.size != k:
        raise ValidationError(f"the {name} callback returned {values.size} values for {k} points")
    if not np.all(np.isfinite(values)):
        raise ValidationError(f"the {name} callback returned a value that is not finite")
    return values.reshape(k)


def box_measure(m, lower, upper, lower_open=None, upper_open=None) -> float:
    """Measure of an axis-parallel box with per-axis open/closed sides.

    The default is the closed box ``[lower, upper]``; ``lower_open`` and
    ``upper_open`` are ``d`` booleans each.  Computed by inclusion-exclusion
    over the anchored CDF, its ``2^d`` corners read in one ``_cdf_points``
    call, taking one-sided limits where a closed lower side (or an open
    upper side) requires them.  A degenerate axis (``lower == upper``, both
    sides closed) measures the mass of the slab through that coordinate.
    """
    d = m.dimension
    lo, lo_open = _corner(lower, lower_open, d, "lower corner", (False, True))
    hi, hi_open = _corner(upper, upper_open, d, "upper corner", (False, True))
    if np.any(lo > hi):
        raise ValidationError("box needs lower <= upper componentwise")
    # corner `bits` takes the lower coordinate on the axes whose bit is set
    takes_lower = (np.arange(1 << d)[:, None] >> np.arange(d)) & 1 == 1
    corners = np.where(takes_lower, lo, hi)
    left = np.where(takes_lower, ~lo_open, hi_open)
    signs = np.where(takes_lower.sum(axis=1) % 2 == 1, -1.0, 1.0)
    total = 0.0
    for term in (signs * m._cdf_points(corners, left)).tolist():
        total += term
    return total
