"""Shared oracles and random generators for the test suite.

The oracles are deliberately independent of the library code paths they
check: variation by enumerating every sub-partition of a grid, discrepancy
by dense-grid evaluation of the deviation itself (or, for the streamed exact
engine, by the whole-grid reduction it replaced), signed measures by the
per-atom merge loop the array constructor replaced, and the
piecewise-constant Chelson density integrated segment by segment (in floats
and as exact rationals) rather than through its closed-form CDF.  The face
loops of the variation module, its two indicator builders and the
segment-by-segment pseudo-inverse are kept here as written before they were
folded into shared code paths, so the shared paths can be compared with them
bit for bit; where a shared path regroups a float sum, both are checked
against the exact rational sum within a stated rounding bound instead.  So
are the per-point one-sided CDFs of the measures, the per-corner box masses
and the per-trial randomized discrepancy search, which now evaluate whole
batches.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from itertools import combinations, product

import numpy as np

from nuqmc import (
    AnalyticCdfMeasure,
    AxisCdf,
    DiscreteMeasure,
    DiscreteSignedMeasure,
    GridFunction,
    PointSet,
    ProductMeasure,
    STEP,
    UniformMeasure,
    one_sided_deviation,
)
from nuqmc.discrepancy import _SEARCH_BLOCK


# ---------------------------------------------------------------------------
# variation oracles
# ---------------------------------------------------------------------------

def _partitions_of_axis(n_vertices: int):
    """All vertex subsets forming a partition of [0,1] on this axis."""
    interior = range(1, n_vertices - 1)
    for r in range(n_vertices - 1):
        for chosen in combinations(interior, r):
            yield (0,) + chosen + (n_vertices - 1,)


def vitali_by_enumeration(values: np.ndarray, axes) -> float:
    """Supremum of sum |quasi-volume| over ALL sub-partitions of the grid.

    Axes not listed must already be pinned (size-1 dims are fine).
    """
    axes = tuple(axes)
    choices = []
    for s in range(values.ndim):
        if s in axes:
            choices.append(list(_partitions_of_axis(values.shape[s])))
        else:
            choices.append([None])
    best = 0.0
    for combo in product(*choices):
        v = values
        for s, sel in enumerate(combo):
            if sel is not None:
                v = np.take(v, sel, axis=s)
        for s, sel in enumerate(combo):
            if sel is not None:
                v = np.diff(v, axis=s)
        best = max(best, float(np.abs(v).sum()))
    return best


def hk_by_enumeration(f: GridFunction, anchor: str) -> float:
    """Hardy-Krause variation with every face evaluated by full enumeration."""
    d = f.dimension
    pin = -1 if anchor == "one" else 0
    total = 0.0
    for r in range(1, d + 1):
        for axes in combinations(range(d), r):
            v = f.values
            for s in range(d):
                if s not in axes:
                    v = np.take(v, [pin], axis=s)
            total += vitali_by_enumeration(v, axes)
    return total


# ---------------------------------------------------------------------------
# discrepancy oracles
# ---------------------------------------------------------------------------

def dense_uniform_star_discrepancy(ps: PointSet, n_per_axis: int) -> float:
    """Brute-force uniform star-discrepancy over a dense candidate grid,
    evaluating both the at-point and left-limit deviations (d <= 2)."""
    pts = ps.points
    n = ps.n
    cands = [
        np.unique(np.concatenate([np.linspace(0.0, 1.0, n_per_axis), pts[:, s]]))
        for s in range(ps.dimension)
    ]
    best = 0.0
    if ps.dimension == 1:
        c = cands[0]
        xs = np.sort(pts[:, 0])
        for side in ("right", "left"):
            counts = np.searchsorted(xs, c, side=side)
            best = max(best, float(np.max(np.abs(counts / n - c))))
        return best
    if ps.dimension != 2:
        raise ValueError("dense oracle is implemented for d <= 2")
    c1, c2 = cands
    for strict1, strict2 in product((False, True), repeat=2):
        m1 = (pts[None, :, 0] < c1[:, None]) if strict1 else (pts[None, :, 0] <= c1[:, None])
        m2 = (pts[None, :, 1] < c2[:, None]) if strict2 else (pts[None, :, 1] <= c2[:, None])
        counts = m1.astype(float) @ m2.astype(float).T
        f = np.multiply.outer(c1, c2)
        best = max(best, float(np.max(np.abs(counts / n - f))))
    return best


def brute_force_star_discrepancy(ps: PointSet, m, per_axis) -> float:
    """Generic (slow) brute force: one-sided deviation at every candidate
    corner and every per-axis flag combination."""
    grids = [np.asarray(g, dtype=float) for g in per_axis]
    best = 0.0
    for corner in product(*grids):
        for flags in product(("at", "left"), repeat=ps.dimension):
            best = max(best, one_sided_deviation(corner, ps, m, flags))
    return best


def _dense_cdf_arrays(m, grids):
    """CDF at every cell's lower corner, and the one-sided limit at its
    upper corner (left limits except on the degenerate final interval),
    as whole-grid arrays; None for the limit of a measure whose mass lies
    on the grid, where it is the lower corner's value."""
    d = len(grids)
    shape = tuple(g.size for g in grids)
    uppers = [np.concatenate([g[1:], [1.0]]) for g in grids]
    if isinstance(m, UniformMeasure):
        return reduce(np.multiply.outer, grids), reduce(np.multiply.outer, uppers)
    if isinstance(m, ProductMeasure):
        lo = reduce(np.multiply.outer, [ax.values_at(g) for ax, g in zip(m.axes, grids)])
        hi = reduce(np.multiply.outer, [
            np.concatenate([ax.left_values_at(g[1:]), [ax.value(1.0)]])
            for ax, g in zip(m.axes, grids)
        ])
        return lo, hi
    if isinstance(m, DiscreteMeasure):
        lo = np.zeros(shape)
        idx = tuple(np.searchsorted(g, m.locations[:, s]) for s, g in enumerate(grids))
        np.add.at(lo, idx, m.weights)
        for s in range(d):
            np.cumsum(lo, axis=s, out=lo)
        return lo, None  # atoms lie on the grid: F(u-) = F(l) on a cell [l, u)
    if isinstance(m, AnalyticCdfMeasure):
        # one batched read per array over all its corners, in C order: the
        # callback contract makes each value independent of the batch
        def corners(axes):
            return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)

        lo = m._cdf_points(corners(grids), np.zeros((math.prod(shape), d), dtype=bool))
        hi = m._cdf_points(corners(uppers), corners([np.arange(n) < n - 1 for n in shape]))
        return lo.reshape(shape), hi.reshape(shape)
    raise TypeError(f"no dense CDF arrays for {type(m).__name__}")


def dense_star_discrepancy(ps: PointSet, m, extra=None):
    """Exact star-discrepancy by whole-grid reduction: vertex counts and CDF
    arrays over the entire critical grid, then one argmax of each deviation.
    ``extra``, one array per axis, adds grid lines the value must not need
    (a measure's breakpoints or atoms, say).

    Returns ``(value, witness, flags, attained)`` with the same tie rule as
    the library (first occurrence in C order; the attained term wins ties).
    A discrete measure's atoms lie on the grid, so on a cell ``[l, u)`` both
    the count and ``F`` at ``u-`` are their values at ``l``: its supremum is
    the first maximum of ``|count/N - F|`` at the lower corners, attained.
    """
    d = ps.dimension
    extra = [np.empty(0)] * d if extra is None else extra
    grids = [
        np.unique(np.concatenate([[0.0, 1.0], ps.points[:, s],
                                  np.asarray(m.axis_coordinates(s), dtype=float),
                                  np.asarray(extra[s], dtype=float)]))
        for s in range(d)
    ]
    counts = np.zeros(tuple(g.size for g in grids), dtype=np.int64)
    idx = tuple(np.searchsorted(g, ps.points[:, s], side="right") - 1 for s, g in enumerate(grids))
    np.add.at(counts, idx, 1)
    for s in range(d):
        np.cumsum(counts, axis=s, out=counts)
    frac = counts / ps.n
    f_lo, f_hi = _dense_cdf_arrays(m, grids)
    dev_lo = np.abs(frac - f_lo) if f_hi is None else frac - f_lo
    lo_idx = np.unravel_index(int(np.argmax(dev_lo)), dev_lo.shape)
    if f_hi is not None:
        dev_hi = f_hi - frac
        hi_idx = np.unravel_index(int(np.argmax(dev_hi)), dev_hi.shape)
    if f_hi is None or dev_lo[lo_idx] >= dev_hi[hi_idx]:
        witness = tuple(float(grids[s][lo_idx[s]]) for s in range(d))
        return float(dev_lo[lo_idx]), witness, ("at",) * d, True
    last = [hi_idx[s] == grids[s].size - 1 for s in range(d)]
    witness = tuple(1.0 if last[s] else float(grids[s][hi_idx[s] + 1]) for s in range(d))
    flags = tuple("at" if last[s] else "left" for s in range(d))
    return float(dev_hi[hi_idx]), witness, flags, False


def measure_coordinates(m) -> list[np.ndarray]:
    """Per axis, where ``m``'s CDF breaks: a product's axis breakpoints, a
    discrete measure's atom columns, nothing for the others.  Corners there
    are the ones worth testing; the exact grids need only the atoms."""
    if isinstance(m, ProductMeasure):
        return [ax.breakpoints for ax in m.axes]
    return [np.asarray(m.axis_coordinates(s), dtype=float) for s in range(m.dimension)]


def atom_mixture(c, w_atom=0.5):
    """Half uniform, half an atom at ``c`` (weights ``1 - w_atom`` and
    ``w_atom``), in d = 2: an analytic measure with a ``left_limit``
    callback."""
    c = np.asarray(c, dtype=float)

    def cdf(a):
        return (1.0 - w_atom) * np.prod(a, axis=1) + np.where(np.all(c <= a, axis=1), w_atom, 0.0)

    def left_limit(a, left):
        inside = np.all(np.where(left, c < a, c <= a), axis=1)
        return (1.0 - w_atom) * np.prod(a, axis=1) + np.where(inside, w_atom, 0.0)

    return AnalyticCdfMeasure(2, cdf, continuous=False, left_limit=left_limit)


def reference_cdf_one_sided(m, a, flags) -> float:
    """One-sided CDF at one point, one axis at a time, as each measure
    computed it before its batched ``_cdf_points``."""
    a = np.asarray(a, dtype=float)
    if isinstance(m, UniformMeasure):
        return float(np.prod(a))
    if isinstance(m, ProductMeasure):
        return float(np.prod([
            ax.left_value(x) if f == "left" else ax.value(x)
            for ax, x, f in zip(m.axes, a, flags)
        ]))
    if isinstance(m, DiscreteSignedMeasure):
        if not len(m):
            return 0.0
        inside = np.ones(len(m), dtype=bool)
        for s, f in enumerate(flags):
            col = m.locations[:, s]
            inside &= (col < a[s]) if f == "left" else (col <= a[s])
        return float(m.weights[inside].sum())
    if isinstance(m, AnalyticCdfMeasure):
        return m.cdf_one_sided(a, flags)
    raise TypeError(f"no reference CDF for {type(m).__name__}")


def reference_box_measure(m, lower, upper, lower_open=None, upper_open=None) -> float:
    """Box mass by inclusion-exclusion with one ``cdf_one_sided`` call per
    corner, as ``box_measure`` computed it before reading its corners in one
    batch."""
    d = m.dimension
    lo_open = tuple(bool(b) for b in (lower_open or (False,) * d))
    hi_open = tuple(bool(b) for b in (upper_open or (False,) * d))
    total = 0.0
    for bits in range(1 << d):
        sign, corner, flags = 1.0, [], []
        for s in range(d):
            if bits >> s & 1:  # this axis takes the lower coordinate
                sign = -sign
                corner.append(lower[s])
                flags.append("at" if lo_open[s] else "left")
            else:
                corner.append(upper[s])
                flags.append("left" if hi_open[s] else "at")
        total += sign * m.cdf_one_sided(corner, tuple(flags))
    return total


def reference_axis_values(ax: AxisCdf, xs: np.ndarray, left: bool) -> np.ndarray:
    """``G(x)`` (or ``G(x-)``) of a piecewise-linear axis CDF, as its two
    separate evaluations computed it."""
    bp, va, vl = ax.breakpoints, ax.values, ax.values_left
    j = np.clip(np.searchsorted(bp, xs, side="right") - 1, 0, bp.size - 2)
    t = (xs - bp[j]) / (bp[j + 1] - bp[j])
    out = va[j] + t * (vl[j + 1] - va[j])
    exact = np.searchsorted(bp, xs, side="left")
    on_break = (exact < bp.size) & (bp[np.minimum(exact, bp.size - 1)] == xs)
    out[on_break] = (vl if left else va)[exact[on_break]]
    return out


def reference_one_sided_deviation(a, ps: PointSet, m, flags) -> float:
    """The one-sided deviation at one corner, counting one axis at a time."""
    inside = np.ones(ps.n, dtype=bool)
    for s, f in enumerate(flags):
        col = ps.points[:, s]
        inside &= (col < a[s]) if f == "left" else (col <= a[s])
    return abs(int(inside.sum()) / ps.n - reference_cdf_one_sided(m, a, flags))


def reference_random_search(ps: PointSet, m, trials: int, seed: int):
    """The randomized lower bound one trial at a time, on the library's
    draws: whole blocks of ``_SEARCH_BLOCK`` trials, each drawn as the
    selectors, the pool indices, the free coordinates and the limit flags
    in that order.  Under a discrete measure the best corner is named as the
    closed box holding the same points and atoms, unless a left-flagged 0.0
    makes its box empty.  Returns ``(value, witness, flags, attained)``."""
    d = ps.dimension
    rng = np.random.default_rng(seed)
    pools = [
        np.unique(np.concatenate(
            [[1.0], ps.points[:, s], np.asarray(m.axis_coordinates(s), dtype=float)]
        ))
        for s in range(d)
    ]
    sizes = [p.size for p in pools]
    best = -1.0
    best_corner = (1.0,) * d
    best_flags = ("at",) * d
    for done in range(0, trials, _SEARCH_BLOCK):
        u = rng.random((_SEARCH_BLOCK, d))
        index = rng.integers(sizes, size=(_SEARCH_BLOCK, d))
        free = rng.random((_SEARCH_BLOCK, d))
        left = rng.random((_SEARCH_BLOCK, d)) < 0.5
        for t in range(min(_SEARCH_BLOCK, trials - done)):
            corner = []
            for s in range(d):
                if u[t, s] < 0.5:
                    corner.append(float(pools[s][index[t, s]]))
                elif u[t, s] < 0.6:
                    corner.append(1.0)
                else:
                    corner.append(float(free[t, s]))
            flags = tuple("left" if f else "at" for f in left[t])
            dev = reference_one_sided_deviation(corner, ps, m, flags)
            if dev > best:
                best, best_corner, best_flags = dev, tuple(corner), flags
    if isinstance(m, DiscreteSignedMeasure) and (0.0, "left") not in zip(best_corner, best_flags):
        # the points and atoms lie on the pool coordinates: [0, a) on an axis
        # holds what the closed [0, b] does, b the last pool coordinate below a
        best_corner = tuple(float(max((x for x in p if x < a), default=0.0)) if f == "left" else a
                            for p, a, f in zip(pools, best_corner, best_flags))
        best_flags = ("at",) * d
    return best, best_corner, best_flags, all(f == "at" for f in best_flags)


# ---------------------------------------------------------------------------
# quadrature oracle for the Chelson density
# ---------------------------------------------------------------------------

def chelson_box_mass(lower, upper) -> float:
    """Mass of a box under the density (1/2 above the diagonal, 3/2 below),
    integrated in the first coordinate segment by segment.

    The inner integral in y2 is linear in y1 between the kinks at y1 = l2
    and y1 = h2, so the midpoint rule per segment is exact.
    """
    l1, l2 = lower
    h1, h2 = upper
    kinks = sorted({l1, h1, min(max(l2, l1), h1), min(max(h2, l1), h1)})
    total = 0.0
    for a, b in zip(kinks[:-1], kinks[1:]):
        y1 = 0.5 * (a + b)
        above = max(0.0, h2 - max(l2, y1))
        below = max(0.0, min(h2, y1) - l2)
        total += (0.5 * above + 1.5 * below) * (b - a)
    return total


def chelson_cdf_scalar(a) -> float:
    """The Chelson CDF at one point, evaluated with Python floats: the
    formula the batched :func:`nuqmc.chelson_cdf` must reproduce bit for bit."""
    a1, a2 = float(a[0]), float(a[1])
    if a1 <= a2:
        return 0.5 * a1 * a1 + 0.5 * a1 * a2
    return 1.5 * a1 * a2 - 0.5 * a2 * a2


def chelson_cdf_exact(a) -> Fraction:
    """``F(a)`` of the Chelson density as an exact rational, integrated from
    the density rather than taken from the closed form.

    For fixed ``y1`` the density is 3/2 on ``y2 < y1`` and 1/2 above, so the
    inner integral over ``[0, a2]`` is linear in ``y1`` on each side of the
    kink ``y1 = a2`` and the midpoint rule on each side is exact.
    """
    a1, a2 = Fraction(a[0]), Fraction(a[1])
    kink = min(a1, a2)
    total = Fraction(0)
    for lo, hi in ((Fraction(0), kink), (kink, a1)):
        y1 = (lo + hi) / 2
        below = min(y1, a2)
        total += (Fraction(3, 2) * below + Fraction(1, 2) * (a2 - below)) * (hi - lo)
    return total


# ---------------------------------------------------------------------------
# signed-measure oracle
# ---------------------------------------------------------------------------

def reference_signed_measure(dimension: int, atoms) -> tuple[np.ndarray, np.ndarray]:
    """``(locations, weights)`` of the merged measure of the
    ``(location, weight)`` pairs ``atoms``, by the per-atom loop the array
    constructor of :class:`DiscreteSignedMeasure` replaced: stable
    lexicographic sort, then each weight added to its run's running sum in
    sorted order, then exact zeros dropped."""
    locs, ws = [], []
    for loc, w in atoms:
        locs.append(np.asarray(loc, dtype=float).reshape(-1))
        ws.append(float(w))
    if not locs:
        return np.empty((0, dimension)), np.empty(0)
    locations = np.asarray(locs)
    weights = np.asarray(ws)
    order = np.lexsort(locations.T[::-1])
    keep_locs: list[np.ndarray] = []
    keep_ws: list[float] = []
    for loc, w in zip(locations[order], weights[order]):
        if keep_locs and np.array_equal(keep_locs[-1], loc):
            keep_ws[-1] += w
        else:
            keep_locs.append(loc)
            keep_ws.append(w)
    locations = np.asarray(keep_locs)
    weights = np.asarray(keep_ws)
    nonzero = weights != 0.0
    return locations[nonzero], weights[nonzero]


# ---------------------------------------------------------------------------
# reference face loops, indicator builders and pseudo-inverse
# ---------------------------------------------------------------------------

def reference_cell_sum(values: np.ndarray, axes, pin_index) -> float:
    """Sum of |quasi-volume| over the finest cells of a face restriction."""
    v = values
    for s in range(values.ndim):
        if s not in axes and pin_index is not None:
            v = np.take(v, [pin_index], axis=s)
    for s in axes:
        v = np.diff(v, axis=s)
    return float(np.abs(v).sum())


def reference_hk_variation(f: GridFunction, pin_index: int) -> float:
    """Hardy-Krause variation with the pinned axes at ``pin_index``
    (-1 for the anchor at one, 0 for the anchor at zero)."""
    d = f.dimension
    total = 0.0
    for r in range(1, d + 1):
        for axes in combinations(range(d), r):
            total += reference_cell_sum(f.values, axes, pin_index)
    return total


def reference_hk0_prefix_grid(f: GridFunction) -> np.ndarray:
    vals = f.values
    d = f.dimension
    out = np.zeros(vals.shape)
    for r in range(1, d + 1):
        for axes in combinations(range(d), r):
            v = vals
            for s in range(d):
                if s not in axes:
                    v = np.take(v, [0], axis=s)
            for s in axes:
                v = np.diff(v, axis=s)
            v = np.abs(v)
            for s in axes:
                v = np.cumsum(v, axis=s)
            pad = [(1, 0) if s in axes else (0, 0) for s in range(d)]
            out += np.pad(v, pad)
    return out


def reference_is_completely_monotone(f: GridFunction, tol: float) -> bool:
    """The face walk: every adjacent-cell quasi-volume of every face, pinned
    at every grid position, ``>= -tol``."""
    d = f.dimension
    for r in range(1, d + 1):
        for axes in combinations(range(d), r):
            v = f.values
            for s in axes:
                v = np.diff(v, axis=s)
            if v.size and float(v.min()) < -tol:
                return False
    return True


def reference_function_to_measure(f: GridFunction) -> tuple[np.ndarray, np.ndarray]:
    """``(locations, weights)`` of the measure of a step function: the mixed
    differences with a zero before every axis, masked over every vertex."""
    w = f.values
    for s in range(f.dimension):
        w = np.diff(w, axis=s, prepend=0.0)
    mesh = np.meshgrid(*f.breakpoints, indexing="ij")
    coords = np.stack([m.reshape(-1) for m in mesh], axis=-1)
    weights = w.reshape(-1)
    return coords[weights != 0.0], weights[weights != 0.0]


def reference_measure_values(nu: DiscreteSignedMeasure, breakpoints) -> np.ndarray:
    """``nu([0, v])`` at every vertex ``v`` of the grid: each atom added at
    its vertex in atom order, then prefix sums along every axis."""
    vals = np.zeros(tuple(len(b) for b in breakpoints))
    idx = tuple(np.searchsorted(b, nu.locations[:, s]) for s, b in enumerate(breakpoints))
    np.add.at(vals, idx, nu.weights)
    for s in range(vals.ndim):
        vals = np.cumsum(vals, axis=s)
    return vals


def reference_box_indicator(upper) -> GridFunction:
    u = np.asarray(upper, dtype=float).reshape(-1)
    bps = [np.unique(np.concatenate([[0.0, 1.0], [c]])) for c in u]
    vals = np.ones(tuple(b.size for b in bps))
    for s, b in enumerate(bps):
        shape = [1] * len(bps)
        shape[s] = b.size
        vals = vals * (b < u[s]).astype(float).reshape(shape)
    return GridFunction(bps, vals, STEP)


def reference_corner_indicator(lower) -> GridFunction:
    c = np.asarray(lower, dtype=float).reshape(-1)
    bps = [np.unique(np.concatenate([[0.0, 1.0], [x]])) for x in c]
    vals = np.ones(tuple(b.size for b in bps))
    for s, b in enumerate(bps):
        shape = [1] * len(bps)
        shape[s] = b.size
        vals = vals * (b >= c[s]).astype(float).reshape(shape)
    return GridFunction(bps, vals, STEP)


def reference_pseudo_inverse(ax: AxisCdf, y: float) -> float:
    """Smallest ``x`` with ``G(x) >= y``, one segment at a time."""
    bp, va, vl = ax.breakpoints, ax.values, ax.values_left
    if va[0] >= y:
        return 0.0
    for j in range(1, bp.size):
        if va[j - 1] < y <= vl[j]:
            t = (y - va[j - 1]) / (vl[j] - va[j - 1])
            return float(bp[j - 1] + t * (bp[j] - bp[j - 1]))
        if vl[j] < y <= va[j]:
            return float(bp[j])
    return 1.0


# ---------------------------------------------------------------------------
# exact rational oracle for the variation sums, and its rounding bound
# ---------------------------------------------------------------------------
#
# Every float is a rational, so the mixed differences of the vertex values,
# their absolute sums and prefix sums are exact as Fractions.  In floats, with
# u = 2^-53 and Higham's gamma_n = n u / (1 - n u) (Accuracy and Stability of
# Numerical Algorithms, Lemmas 3.1 and 3.3):
#
# - each of the d ``np.diff`` levels rounds once, so a computed difference is
#   sum_c +-v_c (1 + t_c) over its corners c with |t_c| <= gamma_d; it is off
#   by at most gamma_d * A, A being the sum of |v_c| over its corners;
# - n such terms summed in any binary tree (NumPy's pairwise sum, a running
#   sum face by face, or d cumsums) pass through at most n - 1 additions, so
#   the sum of the computed terms is off by at most gamma_{n-1} times their
#   absolute sum, itself at most (exact + gamma_d * sum A);
# - with gamma_j + gamma_k + gamma_j gamma_k <= gamma_{j+k} these give
#
#       |computed - exact| <= gamma_{n+d-1} * (exact + sum of A over the n terms).
#
# The bound holds for every grouping of the terms, so the library's one sum
# and the face loops above must both meet it.  n counts the array entries a
# sum may read (the zeroed anchor entry too, which only loosens it).

_UNIT_ROUNDOFF = Fraction(1, 2**53)


def gamma(n: int) -> Fraction:
    """Higham's ``gamma_n = n u / (1 - n u)``, exactly."""
    return n * _UNIT_ROUNDOFF / (1 - n * _UNIT_ROUNDOFF)


def _exact_atoms(values: np.ndarray, pin: int) -> tuple[np.ndarray, np.ndarray]:
    """Object arrays of Fractions: the mixed differences of ``values`` padded
    with a zero before every axis (``pin`` 0) or after it (-1), as
    ``nuqmc.variation._differences`` pads them, and beside each the sum of
    ``|v|`` over its corners."""
    atoms = np.array([Fraction(x) for x in values.flat], dtype=object).reshape(values.shape)
    corners = np.abs(atoms)
    for s in range(atoms.ndim):
        pairs = []
        for x in (atoms, corners):
            zero = np.full_like(x.take([0], axis=s), Fraction(0))
            x = np.concatenate([zero, x] if pin == 0 else [x, zero], axis=s)
            n = x.shape[s]
            pairs.append((x.take(range(1, n), axis=s), x.take(range(n - 1), axis=s)))
        (hi, lo), (abs_hi, abs_lo) = pairs
        atoms, corners = hi - lo, abs_hi + abs_lo
    return atoms, corners


def exact_hk_variation(f: GridFunction, pin: int) -> tuple[Fraction, Fraction]:
    """``(exact, bound)``: the Hardy-Krause variation with the pinned axes at
    ``pin`` as a Fraction, and the rounding bound on any float sum of it."""
    atoms, corners = _exact_atoms(f.values, pin)
    atoms[(pin,) * f.dimension] = Fraction(0)
    exact = sum(np.abs(atoms).flat, Fraction(0))
    return exact, gamma(atoms.size + f.dimension - 1) * (exact + sum(corners.flat, Fraction(0)))


def exact_hk0_prefix_grid(f: GridFunction) -> tuple[np.ndarray, np.ndarray]:
    """``(exact, bound)`` object arrays over the grid: the anchored-at-0
    variation on ``[0, v]`` at every vertex ``v``, and its rounding bound,
    ``n`` being the ``prod(v_s + 1)`` entries at or below ``v``."""
    atoms, corners = _exact_atoms(f.values, 0)
    atoms[(0,) * f.dimension] = Fraction(0)
    exact, scale = np.abs(atoms), corners
    for s in range(f.dimension):
        exact, scale = np.cumsum(exact, axis=s), np.cumsum(scale, axis=s)
    n = np.prod(np.indices(f.shape) + 1, axis=0)
    bound = np.array([gamma(int(k) + f.dimension - 1) for k in n.flat],
                     dtype=object).reshape(f.shape) * (exact + scale)
    return exact, bound


def exact_monotone_verdict(f: GridFunction, tol: float) -> bool | None:
    """Complete monotonicity read off the exact atoms of ``f``: the mixed
    differences of its float vertex values with a zero before every axis, as
    ``is_completely_monotone`` pads them, the origin atom aside.  They are
    taken in whole numbers over one power of two, so exactly, and far faster
    than in Fractions.

    A float atom is ``d`` differences of its ``2^d`` corners, so it lies
    within ``gamma_d * sum |corner values|`` of the exact one.  An exact
    atom further than that below ``-tol`` decides False; else one within that
    distance of ``-tol`` leaves the float verdict open (None); else True."""
    ratios = [x.as_integer_ratio() for x in (*f.values.flat, tol)]
    k = max(q.bit_length() for _, q in ratios)
    *whole, t = [n << (k - q.bit_length()) for n, q in ratios]
    atoms = np.array(whole, dtype=object).reshape(f.shape)
    corners = np.abs(atoms)
    for s in range(f.dimension):
        atoms = np.diff(atoms, axis=s, prepend=0)
        # c[i] + c[i - 1] = 2 c[i] - (c[i] - c[i - 1]), with c[-1] = 0
        corners = 2 * corners - np.diff(corners, axis=s, prepend=0)
    num, den = gamma(f.dimension).as_integer_ratio()
    margins = [((a + t) * den, c * num) for a, c in zip(atoms.flat, corners.flat)][1:]
    if any(m < -b for m, b in margins):
        return False
    return None if any(abs(m) <= b for m, b in margins) else True


def within_rounding(computed, exact, bound) -> bool:
    """True iff every ``|computed - exact| <= bound``, compared as Fractions."""
    return all(abs(Fraction(float(c)) - e) <= b
               for c, e, b in zip(np.ravel(computed), np.ravel(exact), np.ravel(bound)))


# ---------------------------------------------------------------------------
# random generators
# ---------------------------------------------------------------------------

def random_grid_function(rng, d=None, max_intervals=3, interp=STEP,
                         low=-2.0, high=2.0) -> GridFunction:
    if d is None:
        d = int(rng.integers(1, 4))
    bps = []
    for _ in range(d):
        k = int(rng.integers(0, max_intervals))
        interior = rng.uniform(0.05, 0.95, size=k)
        bps.append(np.unique(np.concatenate([[0.0, 1.0], interior])))
    shape = tuple(b.size for b in bps)
    return GridFunction(bps, rng.uniform(low, high, size=shape), interp)


def random_signed_measure(rng, d, max_atoms=20, wlow=-2.0, whigh=2.0) -> DiscreteSignedMeasure:
    n = int(rng.integers(1, max_atoms + 1))
    locs = rng.random((n, d))
    if rng.random() < 0.3:
        locs[0] = 0.0  # atom at the origin exercises the anchored term
    if n > 1 and rng.random() < 0.3:
        locs[-1] = 1.0
    w = rng.uniform(wlow, whigh, size=n)
    w[w == 0.0] = 0.5
    return DiscreteSignedMeasure(d, locs, w)


def random_discrete_probability(rng, d, max_atoms=20) -> DiscreteMeasure:
    n = int(rng.integers(1, max_atoms + 1))
    locs = rng.random((n, d))
    w = rng.random(n) + 0.05
    w = w / w.sum()
    return DiscreteMeasure(DiscreteSignedMeasure(d, locs, w))


def random_point_set(rng, d, max_points=64) -> PointSet:
    n = int(rng.integers(1, max_points + 1))
    return PointSet(d, rng.random((n, d)))


def random_strict_axis_cdf(rng, max_segments=4) -> AxisCdf:
    """Continuous, strictly increasing piecewise-linear CDF (invertible)."""
    k = int(rng.integers(1, max_segments))
    bp = np.unique(np.concatenate([[0.0, 1.0], rng.uniform(0.05, 0.95, size=k)]))
    inc = rng.random(bp.size - 1) + 0.1
    v = np.concatenate([[0.0], np.cumsum(inc)])
    v = v / v[-1]
    v[-1] = 1.0
    return AxisCdf(bp, v)


def random_general_axis_cdf(rng, max_segments=4) -> AxisCdf:
    """CDF with random plateaus and jumps (atoms), still normalized."""
    k = int(rng.integers(1, max_segments))
    bp = np.unique(np.concatenate([[0.0, 1.0], rng.uniform(0.05, 0.95, size=k)]))
    n = bp.size
    steps = rng.random(2 * n - 1)
    steps[rng.random(2 * n - 1) < 0.4] = 0.0
    if steps.sum() == 0.0:
        steps[-1] = 1.0
    chain = np.concatenate([[0.0], np.cumsum(steps)])
    chain = chain / chain[-1]
    values_left = chain[0::2].copy()
    values = chain[1::2].copy()
    values[-1] = 1.0
    return AxisCdf(bp, values, values_left)


def completely_monotone_function(rng, breakpoints, scale=1.0) -> GridFunction:
    """Separable nondecreasing product, vanishing at the origin corner.

    Products of per-axis nondecreasing nonnegative factors have nonnegative
    quasi-volumes of every dimension.
    """
    factors = []
    for b in breakpoints:
        inc = rng.random(b.size - 1) * scale
        factors.append(np.concatenate([[0.0], np.cumsum(inc)]))
    vals = np.ones(tuple(b.size for b in breakpoints))
    for s, fac in enumerate(factors):
        shape = [1] * len(breakpoints)
        shape[s] = fac.size
        vals = vals * fac.reshape(shape)
    return GridFunction(breakpoints, vals, STEP)


def grids_equal(f: GridFunction, g: GridFunction) -> bool:
    return f.shape == g.shape and all(
        np.array_equal(a, b) for a, b in zip(f.breakpoints, g.breakpoints)
    )


def measures_match(a: DiscreteSignedMeasure, b: DiscreteSignedMeasure, tol: float) -> bool:
    """Atomwise equality up to ``tol``, treating missing atoms as weight 0."""
    diff: dict = {}
    for loc, w in zip(a.locations, a.weights):
        diff[tuple(loc)] = diff.get(tuple(loc), 0.0) + w
    for loc, w in zip(b.locations, b.weights):
        diff[tuple(loc)] = diff.get(tuple(loc), 0.0) - w
    return all(abs(v) <= tol for v in diff.values())
