"""Quasi-volumes, Vitali and Hardy-Krause variation, and the correspondence
between right-continuous functions of bounded variation and signed measures.

Functions live on rectangular grids (:class:`GridFunction`).  Variation of a
grid function is defined as the supremum over sub-partitions of its own grid;
by refinement monotonicity that supremum is attained at the finest grid, so
every variation here is a finite sum over grid cells.  For the two supported
interpretations -- multilinear interpolation and right-continuous step
extension -- the grid supremum equals the true variation of the extended
function, because cell quasi-volume densities keep a constant sign inside
each cell.  No such claim is made for other extensions.

Decompositions (the prefix-variation split into completely monotone parts and
the unique variation-additive split) are exact at grid vertices; for step
functions they are exact everywhere.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, ValidationError
from .measures import (DiscreteSignedMeasure, _breakpoints, _floats, _int,
                       _prefix_sums, _prefix_table, _unit)

#: Interpretation flags for :class:`GridFunction`.
STEP = "step"
MULTILINEAR = "multilinear"

#: Anchor flags for Hardy-Krause variation.
ANCHOR_ONE = "one"
ANCHOR_ZERO = "zero"

#: Slack for sign tests on quasi-volumes (fixtures use non-dyadic rationals).
MONOTONE_TOL = 1e-12


@dataclass(frozen=True)
class Box:
    """A closed axis-parallel box ``[lower, upper]`` inside the unit cube."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self) -> None:
        lo = _unit(self.lower, "box lower corner")
        hi = _unit(self.upper, "box upper corner")
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValidationError("box corners must be points of equal dimension")
        if np.any(lo > hi):
            raise ValidationError("box needs lower <= upper componentwise")
        object.__setattr__(self, "lower", tuple(float(x) for x in lo))
        object.__setattr__(self, "upper", tuple(float(x) for x in hi))

    @classmethod
    def _unchecked(cls, lower: tuple[float, ...], upper: tuple[float, ...]) -> "Box":
        """The box ``Box(lower, upper)`` without the checks: for corners
        that are already tuples of Python floats in ``[0, 1]``, ``lower <=
        upper``, copied from validated input with no arithmetic between."""
        box = object.__new__(cls)
        object.__setattr__(box, "lower", lower)
        object.__setattr__(box, "upper", upper)
        return box

    @property
    def dimension(self) -> int:
        return len(self.lower)


@dataclass(frozen=True)
class FaceSelector:
    """A nonempty set of free axes; the remaining axes are pinned to the
    anchor corner (1 or 0)."""

    axes: tuple[int, ...]
    anchor: str = ANCHOR_ONE

    def __post_init__(self) -> None:
        axes = tuple(sorted(set(_int(a, "face axes", 0) for a in self.axes)))
        if not axes:
            raise ValidationError("face needs at least one free axis")
        if self.anchor not in (ANCHOR_ONE, ANCHOR_ZERO):
            raise ValidationError(f"unknown anchor {self.anchor!r}")
        object.__setattr__(self, "axes", axes)


def _vertex_values(values, shape: tuple[int, ...]) -> np.ndarray:
    """A fresh read-only copy of ``values`` as finite vertex values of a grid
    of ``shape``; values of the right size but another shape are reshaped."""
    vals = _floats(values, "vertex values")
    if vals.size == math.prod(shape):
        vals = vals.reshape(shape)
    if vals.shape != shape:
        raise ValidationError(
            f"values shape {vals.shape} does not match grid shape {shape}"
        )
    if not np.all(np.isfinite(vals)):
        raise ValidationError("vertex values must be finite")
    vals = vals.copy()
    vals.flags.writeable = False
    return vals


class GridFunction:
    """A function on ``[0,1]^d`` given by vertex values on a rectangular grid.

    Parameters
    ----------
    breakpoints:
        One strictly increasing array per axis, each starting at 0.0 and
        ending at 1.0.
    values:
        Array of vertex values, shape ``(len(b_1), ..., len(b_d))``
        (row-major / C order).
    interp:
        ``"step"`` for the right-continuous step extension (constant on
        half-open grid cells) or ``"multilinear"`` for cellwise multilinear
        interpolation.
    """

    def __init__(self, breakpoints, values, interp: str = STEP) -> None:
        bps = [_breakpoints(b, "breakpoints") for b in breakpoints]
        if not bps:
            raise ValidationError("dimension must be >= 1")
        vals = _vertex_values(values, tuple(b.size for b in bps))
        if interp not in (STEP, MULTILINEAR):
            raise ValidationError(f"unknown interpretation {interp!r}")
        self.breakpoints = tuple(bps)
        self.values = vals
        self.interp = interp

    @property
    def dimension(self) -> int:
        return len(self.breakpoints)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def __repr__(self) -> str:
        return f"GridFunction(d={self.dimension}, shape={self.shape}, interp={self.interp!r})"

    def value_at_origin(self) -> float:
        return float(self.values.flat[0])

    def with_values(self, values) -> "GridFunction":
        """The same grid and interpretation with new vertex values; only the
        values are checked, the breakpoints being validated and read-only."""
        out = copy.copy(self)
        out.values = _vertex_values(values, self.shape)
        return out

    def vertex_index(self, point) -> tuple[int, ...]:
        """Grid index of a point that must lie exactly on the grid."""
        p = _floats(point, "point").reshape(-1)
        if p.size != self.dimension:
            raise DimensionMismatchError(
                f"point has {p.size} coordinates, expected {self.dimension}"
            )
        idx = []
        for s, b in enumerate(self.breakpoints):
            pos = int(np.searchsorted(b, p[s]))
            if pos >= b.size or b[pos] != p[s]:
                raise ValidationError(f"coordinate {p[s]!r} is not a breakpoint of axis {s}")
            idx.append(pos)
        return tuple(idx)

    def vertex_coordinates(self) -> np.ndarray:
        """All grid vertices as an ``(n_vertices, d)`` array (C order)."""
        mesh = np.meshgrid(*self.breakpoints, indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=-1)

    def evaluate(self, points) -> np.ndarray:
        """Evaluate the interpreted function at points of ``[0,1]^d``."""
        pts = _unit(points, "evaluation points")
        squeeze = pts.ndim == 1
        pts = np.atleast_2d(pts)
        if pts.shape[1] != self.dimension:
            raise DimensionMismatchError(
                f"points have {pts.shape[1]} coordinates, expected {self.dimension}"
            )
        if self.interp == STEP:
            idx = tuple(
                np.searchsorted(b, pts[:, s], side="right") - 1
                for s, b in enumerate(self.breakpoints)
            )
            out = self.values[idx]
        else:
            d = self.dimension
            cell = []
            frac = []
            for s, b in enumerate(self.breakpoints):
                j = np.clip(np.searchsorted(b, pts[:, s], side="right") - 1, 0, b.size - 2)
                cell.append(j)
                frac.append((pts[:, s] - b[j]) / (b[j + 1] - b[j]))
            out = np.zeros(pts.shape[0])
            for bits in range(1 << d):
                weight = np.ones(pts.shape[0])
                index = []
                for s in range(d):
                    if bits >> s & 1:
                        index.append(cell[s] + 1)
                        weight = weight * frac[s]
                    else:
                        index.append(cell[s])
                        weight = weight * (1.0 - frac[s])
                out = out + weight * self.values[tuple(index)]
        return float(out[0]) if squeeze else out


@dataclass(frozen=True)
class JordanPair:
    """The unique variation-additive split ``f = f(0) + f_plus - f_minus``
    into completely monotone parts vanishing at the origin."""

    f_plus: GridFunction
    f_minus: GridFunction


def _differences(values: np.ndarray, pin: int | None = None) -> np.ndarray:
    """Mixed first differences along every axis, unpadded (the quasi-volumes
    of adjacent cells) or padded with a zero before (``pin`` 0) or after (-1)
    each axis: padded, the atoms of the measure of a step function."""
    pad = {} if pin is None else {"prepend" if pin == 0 else "append": 0.0}
    for s in range(values.ndim):
        values = np.diff(values, axis=s, **pad)
    return values


def quasi_volume(f: GridFunction, box: Box) -> float:
    """Alternating corner sum of ``f`` over a grid-aligned box: the mixed
    difference of its ``2^d`` corner block.

    The corner at ``upper`` enters with positive sign; axes of zero extent
    contribute zero.  Corners must lie on grid vertices (callers snap).
    """
    if box.dimension != f.dimension:
        raise DimensionMismatchError("box and function dimensions differ")
    lo = f.vertex_index(box.lower)
    hi = f.vertex_index(box.upper)
    return float(_differences(f.values[np.ix_(*zip(lo, hi))]).reshape(()))


def vitali_variation(f: GridFunction, face: FaceSelector | None = None) -> float:
    """Variation in the sense of Vitali over the full grid or a face.

    With a face selector, the function is restricted to the face whose free
    axes are ``face.axes`` and whose remaining coordinates are pinned at the
    anchor corner.  The supremum over sub-partitions of the grid is attained
    at the finest grid, which is what gets summed.
    """
    if face is None:
        return float(np.abs(_differences(f.values)).sum())
    if face.axes[-1] >= f.dimension:
        raise ValidationError("face axis out of range")
    pin = -1 if face.anchor == ANCHOR_ONE else 0
    values = f.values[tuple(slice(None) if s in face.axes else pin for s in range(f.dimension))]
    return float(np.abs(_differences(values)).sum())


def hk_variation(f: GridFunction, anchor: str = ANCHOR_ONE) -> float:
    """Hardy-Krause variation of ``f`` anchored at 1 (or at 0).

    The correspondence principle: ``_differences(f.values, pin)`` holds the
    atoms of a signed measure ``nu`` with ``f(x) = nu([0, x])`` (at anchor 1,
    ``±nu([x, 1])``) and ``|nu| = V_HK(f) + |f(anchor)|``.  One sum regroups
    the per-face sums' terms: bit for bit whenever the sums are exact.
    """
    if anchor not in (ANCHOR_ONE, ANCHOR_ZERO):
        raise ValidationError(f"unknown anchor {anchor!r}")
    pin = -1 if anchor == ANCHOR_ONE else 0
    atoms = np.abs(_differences(f.values, pin))
    atoms[(pin,) * f.dimension] = 0.0
    return float(atoms.sum())


def hk0_prefix_grid(f: GridFunction) -> np.ndarray:
    """Anchored-at-0 variation of ``f`` on ``[0, v]`` for every grid vertex ``v``.

    The absolute atoms of :func:`hk_variation` at anchor 0, prefix-summed
    along every axis; the origin entry is 0.
    """
    prefix = np.abs(_differences(f.values, 0))
    prefix[(0,) * f.dimension] = 0.0
    return _prefix_sums(prefix)


def hk0_prefix(f: GridFunction, x) -> float:
    """Anchored-at-0 variation of ``f`` on the sub-box ``[0, x]``.

    ``x`` must be a grid vertex; the degenerate box ``[0, 0]`` has
    variation 0.
    """
    idx = f.vertex_index(x)
    return float(hk0_prefix_grid(f)[idx])


def leonov_decompose(f: GridFunction) -> tuple[GridFunction, GridFunction]:
    """Prefix-variation split ``f = f1 - f2`` into completely monotone parts.

    ``f1`` is the anchored prefix variation ``x -> V(f; [0, x])`` and
    ``f2 = f1 - f``.  This split is not variation-minimal; see
    :func:`jordan_decompose_function` for the unique minimal one.
    """
    prefix = hk0_prefix_grid(f)
    return f.with_values(prefix), f.with_values(prefix - f.values)


def jordan_decompose_function(f: GridFunction) -> JordanPair:
    """The unique split ``f = f(0) + f_plus - f_minus`` into completely
    monotone parts vanishing at the origin whose anchored-at-0 variations add
    up to the variation of ``f``.

    ``f_plus = (prefix + (f - f(0))) / 2`` and
    ``f_minus = (prefix - (f - f(0))) / 2`` where ``prefix`` is the anchored
    prefix variation.
    """
    prefix = hk0_prefix_grid(f)
    centered = f.values - f.value_at_origin()
    return JordanPair(
        f_plus=f.with_values(0.5 * (prefix + centered)),
        f_minus=f.with_values(0.5 * (prefix - centered)),
    )


def is_completely_monotone(f: GridFunction) -> bool:
    """True iff every atom of ``nu`` with ``f(x) = nu([0, x])`` but the
    origin's ``f(0)`` is ``>= -MONOTONE_TOL``: every quasi-volume of every
    face is a sum of atoms.  In floats an atom is bit for bit the
    quasi-volume of one adjacent cell of a face pinned at 0, so this reads a
    subset of the values a walk over every face at every pinned position
    reads.
    """
    atoms = _differences(f.values, 0)
    atoms[(0,) * f.dimension] = 0.0
    return bool(atoms.min() >= -MONOTONE_TOL)


def mirror(f: GridFunction) -> GridFunction:
    """Reflect through the cube center: ``g(x) = f(1 - x)``.

    Exchanges the roles of the two anchors:
    ``hk_variation(f, "one") == hk_variation(mirror(f), "zero")``.
    """
    bps = tuple((1.0 - b)[::-1] for b in f.breakpoints)
    vals = f.values[(slice(None, None, -1),) * f.dimension]
    return GridFunction(bps, vals, f.interp)


def function_to_measure(f: GridFunction) -> DiscreteSignedMeasure:
    """Signed measure whose anchored CDF reproduces a step grid function.

    Atom weights are the d-fold mixed backward differences of the vertex
    values (an axis at coordinate 0 has no predecessor and contributes the
    anchored value itself, so ``f(0)`` lands as an atom at the origin).
    Satisfies ``result.cdf(v) == f(v)`` at every grid vertex and
    ``total_variation(result) == hk_variation(f, "zero") + |f(0)|``.
    """
    if f.interp != STEP:
        raise ValidationError("function_to_measure needs the step interpretation")
    w = _differences(f.values, 0)
    idx = np.nonzero(w)
    coords = np.stack([b[i] for b, i in zip(f.breakpoints, idx)], axis=-1)
    return DiscreteSignedMeasure(f.dimension, coords, w[idx])


def measure_to_function(nu: DiscreteSignedMeasure) -> GridFunction:
    """Right-continuous step function ``x -> nu([0, x])``.

    The grid is the atom coordinates united with {0, 1} per axis;
    round-trips with :func:`function_to_measure`.
    """
    bps = [np.unique(np.concatenate([[0.0, 1.0], nu.axis_coordinates(s)]))
           for s in range(nu.dimension)]
    cells = [np.searchsorted(b, nu.locations[:, s]) for s, b in enumerate(bps)]
    vals = _prefix_table(np.empty(tuple(b.size for b in bps)), cells, nu.weights)
    return GridFunction(bps, vals, STEP)


def _indicator(corner, inside) -> GridFunction:
    """Step function that is 1 where ``inside(b, corner[s])`` holds on every
    axis ``s`` and 0 elsewhere, on the grid ``{0, corner[s], 1}``."""
    c = _unit(corner, "box corner").reshape(-1)
    bps = [np.unique(np.concatenate([[0.0, 1.0], [x]])) for x in c]
    vals = np.ones(tuple(b.size for b in bps))
    for s, b in enumerate(bps):
        shape = [1] * len(bps)
        shape[s] = b.size
        vals = vals * inside(b, c[s]).astype(float).reshape(shape)
    return GridFunction(bps, vals, STEP)


def box_indicator(upper) -> GridFunction:
    """Step indicator of the half-open anchored box ``[0, upper)``.

    The closed-box indicator is not right-continuous, so this is the step
    representative; counts and masses agree with the closed box whenever no
    point or atom sits exactly on the boundary.
    """
    return _indicator(upper, np.less)


def corner_indicator(lower) -> GridFunction:
    """Step indicator of the closed corner box ``[lower, 1]``.

    This one is right-continuous, hence exactly representable.
    """
    return _indicator(lower, np.greater_equal)
