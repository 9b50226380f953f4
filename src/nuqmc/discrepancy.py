"""Exact star-discrepancy of finite point sets with respect to uniform,
product, discrete, and analytic-CDF measures.

The supremum runs over closed anchored boxes ``[0, a]``.  The counting
function is constant on the half-open cells of the critical grid (point
coordinates, atom coordinates, CDF breakpoints, and {0, 1}) while the
measure's CDF is componentwise monotone there, so the supremum over each
cell is reached either at the cell's lower corner (an attained value) or at
its upper corner approached from below (a one-sided limit, which need not be
attained -- e.g. a single point forces an unattained supremum under any
continuous CDF).  Exact mode enumerates all cells, in any dimension; cost
is the product of the per-axis grid sizes ``m_s``, so a cell budget, checked
before any allocation, gates it; beyond that only the randomized
lower-bound search is offered.

Exact mode streams the grid in slabs of whole axis-0 rows (about 2^16 cells,
at least one row), carrying the prefix counts of one slab's last row into
the next.  Peak memory is two float64 slab buffers of at most
``max(2^16, m_1 ... m_{d-1})`` cells and the int64 carried row, so the cell
budget bounds time, and memory only through the row length (300 points in
d=4 on one axis-0 coordinate: rows of 302^3 cells, about 630 MiB).  The
points are sorted by axis-0 row, so a slab builds its counts row by row:
each row starts as a copy of the row before, and the point it holds at cells
``(j_1, ..., j_{d-1})`` adds 1 on the orthant ``[j_1:, ..., j_{d-1}:]``.
Slabs of short rows, or with a row holding several points, histogram their
points and sum along every axis instead.  The measure supplies its CDF
tables slab by slab through one ``_cdf_table`` method per measure class.

The randomized search keeps its per-trial draws but evaluates a chunk of
corners at once, through each measure's batched ``_cdf_points``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, DimensionMismatchError, ValidationError
from .measures import (
    AT_POINT,
    LEFT_LIMIT,
    _inside,
    _limit_flags,
    _unit_point,
    _upper_axis,
    cdf_one_sided,
)
from .variation import Box

#: Default gate for exact cell enumeration.
CELL_BUDGET = 10**8

#: Cells per slab of the streamed critical grid (rounded down to whole
#: axis-0 rows, at least one row).
_SLAB_CELLS = 2**16
#: Rows at least this long are counted one row at a time: from the point's
#: orthant when each row holds at most one point, else by a row-by-row
#: axis-0 prefix sum of the slab's histogram.
_ROW_LOOP_CELLS = 512

EXACT_GRID = "exact"
RANDOM_SEARCH = "search"


class PointSet:
    """N points in ``[0,1]^d`` (the sample whose discrepancy is measured)."""

    def __init__(self, dimension: int, points) -> None:
        if dimension < 1:
            raise ValidationError("dimension must be >= 1")
        pts = np.asarray(points, dtype=float)
        if pts.size == 0:
            raise ValidationError("point set must contain at least one point")
        if pts.ndim == 1 and pts.size % dimension == 0:  # flat coordinates
            pts = pts.reshape(-1, dimension)
        if pts.ndim != 2 or pts.shape[1] != dimension:
            raise DimensionMismatchError(
                f"points must form an (N, {dimension}) array, got shape {pts.shape}"
            )
        if not np.all(np.isfinite(pts)):
            raise ValidationError("points must be finite")
        if np.any(pts < 0.0) or np.any(pts > 1.0):
            raise ValidationError("points must lie in [0,1]^d")
        pts = pts.copy()
        pts.flags.writeable = False
        self.dimension = int(dimension)
        self.points = pts

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def __repr__(self) -> str:
        return f"PointSet(d={self.dimension}, n={self.n})"


@dataclass(frozen=True)
class DiscrepancyResult:
    """Outcome of a discrepancy computation.

    ``witness_box`` is the anchored box realizing ``value``; when
    ``attained`` is False the witness is a one-sided limit and
    ``witness_flags`` records which axes approach the corner from below.
    """

    value: float
    witness_box: Box
    witness_flags: tuple[str, ...]
    attained: bool
    method: str


def local_discrepancy(a, ps: PointSet, m, limit_flags=None) -> float:
    """``|#{x_n <= a}/N - F(a)|`` with left limits of F on the flagged axes.

    The count always uses the closed-box convention; see
    :func:`one_sided_deviation` for the fully one-sided evaluation.
    """
    a = _unit_point(a, ps.dimension)
    if m.dimension != ps.dimension:
        raise DimensionMismatchError("measure and point set dimensions differ")
    count = int(np.all(ps.points <= a, axis=1).sum())
    return abs(count / ps.n - cdf_one_sided(m, a, limit_flags))


def one_sided_deviation(a, ps: PointSet, m, limit_flags=None) -> float:
    """Limit of the local discrepancy as the corner is approached from below
    on the flagged axes (count strict there, F by left limit).

    Unlike mixing a closed count with a one-sided CDF, this quantity is a
    limit of actual local discrepancies and therefore never exceeds the
    star-discrepancy.
    """
    a = _unit_point(a, ps.dimension)
    if m.dimension != ps.dimension:
        raise DimensionMismatchError("measure and point set dimensions differ")
    left = np.array([f == LEFT_LIMIT for f in _limit_flags(limit_flags, ps.dimension)])
    return float(_deviations(ps, _measure_method(m, "_cdf_points"), a[None, :], left[None, :])[0])


def _deviations(ps: PointSet, cdf_points, corners: np.ndarray, left: np.ndarray) -> np.ndarray:
    """:func:`one_sided_deviation` at the rows of ``corners``, with the left
    limits where ``left`` is True; ``cdf_points`` is the measure's
    ``_cdf_points``."""
    counts = np.count_nonzero(_inside(ps.points, corners, left), axis=1)
    return np.abs(counts / ps.n - cdf_points(corners, left))


def _measure_method(m, name: str):
    """The private array method ``name`` every supported measure class has."""
    method = getattr(m, name, None)
    if method is None:
        raise ValidationError(f"unsupported measure type {type(m).__name__}")
    return method


def _critical_grids(ps: PointSet, m) -> list[np.ndarray]:
    grids = []
    for s in range(ps.dimension):
        grids.append(
            np.unique(
                np.concatenate(
                    [[0.0, 1.0], ps.points[:, s], np.asarray(m.axis_coordinates(s), dtype=float)]
                )
            )
        )
    return grids


def _slab_maxima(ps: PointSet, grids, table_of):
    """Largest ``count/N - F`` at the cells' lower corners and largest
    ``F(upper-) - count/N`` over the critical grid, each with the grid index
    of its first occurrence in C order.

    The grid is walked in slabs of whole axis-0 rows, each compared with the
    measure's CDF tables for the same rows.  A row's prefix counts are the
    previous row's (the previous slab's last row for a slab's first row)
    plus 1 on the orthant ``[j_1:, ..., j_{d-1}:]`` of the point it holds,
    if any.  Slabs of short rows, or with a row holding several points,
    histogram their points and sum along every axis instead.  Memory is two
    slab buffers and the carried row, however many rows the grid has; an
    earlier slab keeps a tie, as one argmax over the whole grid would.
    """
    sizes = [g.size for g in grids]
    f_lo = table_of(grids, [np.zeros(g.size, dtype=bool) for g in grids])
    uppers = [_upper_axis(g[1:]) for g in grids]
    f_hi = table_of([c for c, _ in uppers], [f for _, f in uppers])

    # grid cell of every point, the points ordered by axis-0 row
    cells = [np.searchsorted(g, ps.points[:, s], side="right") - 1 for s, g in enumerate(grids)]
    order = np.argsort(cells[0], kind="stable")
    cells = [c[order] for c in cells]

    row_cells = int(np.prod(sizes[1:], dtype=np.int64))
    step = min(sizes[0], max(1, _SLAB_CELLS // row_cells))
    # rows that take the orthant counts: long ones holding at most one point
    orthant = np.zeros(sizes[0], dtype=bool)
    if row_cells >= _ROW_LOOP_CELLS:
        orthant = np.bincount(cells[0], minlength=sizes[0]) < 2
    # two slab buffers for the whole walk: the counts, divided by N in place,
    # and the CDF tables (the histogram's int64 scratch before that)
    counts = np.empty((step,) + tuple(sizes[1:]))
    table = np.empty(counts.shape)
    carry = np.zeros(sizes[1:], dtype=np.int64)
    lo_candidates, hi_candidates = [], []
    for start in range(0, sizes[0], step):
        stop = min(start + step, sizes[0])
        rows = stop - start
        first, last = np.searchsorted(cells[0], [start, stop])
        slab_cells = [cells[0][first:last] - start] + [c[first:last] for c in cells[1:]]
        if orthant[start:stop].all():
            c = _orthant_counts(counts[:rows], carry, slab_cells)
        else:
            c = _histogram_counts(table[:rows].view(np.int64), carry, slab_cells)
        carry[...] = c[-1]
        share = np.divide(c, ps.n, out=counts[:rows])

        t = table[:rows]
        dev = np.subtract(share, f_lo(start, stop, t), out=t)
        i = int(np.argmax(dev))  # largest at a lower corner (attained)
        lo_candidates.append((dev.flat[i], start * row_cells + i))
        dev = np.subtract(f_hi(start, stop, t), share, out=t)
        i = int(np.argmax(dev))  # approached at an upper corner (one-sided)
        hi_candidates.append((dev.flat[i], start * row_cells + i))

    def first_max(candidates):
        value, flat_index = candidates[int(np.argmax([v for v, _ in candidates]))]
        return float(value), np.unravel_index(flat_index, sizes)

    return first_max(lo_candidates), first_max(hi_candidates)


def _orthant_counts(c: np.ndarray, carry: np.ndarray, point_cells) -> np.ndarray:
    """Prefix counts of a slab written into ``c``: each row is the row before
    it (``carry`` for the first) plus 1 on the orthant of the point it holds,
    if any.  ``point_cells[s]`` are the slab cells of the slab's points on
    axis ``s``, ordered by row."""
    prev, r = carry, 0
    for hit, *tail in zip(*(j.tolist() for j in point_cells)):
        c[r:hit + 1] = prev  # the rows without a point, then the point's row
        c[(hit,) + tuple(slice(j, None) for j in tail)] += 1
        prev, r = c[hit], hit + 1
    c[r:] = prev
    return c


def _histogram_counts(c: np.ndarray, carry: np.ndarray, point_cells) -> np.ndarray:
    """Prefix counts of a slab written into the int64 array ``c``: the
    points at the slab cells ``point_cells`` (one array per axis)
    histogrammed, summed along axes 1..d-1, then along axis 0 starting from
    the row ``carry``."""
    c.fill(0)
    np.add.at(c.reshape(-1), np.ravel_multi_index(point_cells, c.shape), 1)
    for s in range(1, c.ndim):
        np.cumsum(c, axis=s, out=c)
    c[0] += carry
    if carry.size < _ROW_LOOP_CELLS:
        np.cumsum(c, axis=0, out=c)
    else:  # a strided cumsum over long rows is slower than a row loop
        for r in range(1, c.shape[0]):
            c[r] += c[r - 1]
    return c


def star_discrepancy(ps: PointSet, m, cell_budget: int = CELL_BUDGET) -> DiscrepancyResult:
    """Exact star-discrepancy ``sup_a |#{x_n <= a}/N - F(a)|``.

    Enumerates the critical grid, in any dimension; reports whether the
    supremum is attained and a witness box (with one-sided flags when it is
    not).  Raises :class:`BudgetExceededError` when the grid has more than
    ``cell_budget`` cells; use :func:`random_search_lower_bound` then.
    """
    if m.dimension != ps.dimension:
        raise DimensionMismatchError("measure and point set dimensions differ")
    d = ps.dimension
    grids = _critical_grids(ps, m)
    n_cells = math.prod(g.size for g in grids)  # exact: an int64 product wraps past 2^63
    if n_cells > cell_budget:
        raise BudgetExceededError(
            f"critical grid has {n_cells} cells, budget is {cell_budget}; "
            "use random_search_lower_bound"
        )

    table_of = _measure_method(m, "_cdf_table")
    (best_lo, best_lo_idx), (best_hi, best_hi_idx) = _slab_maxima(ps, grids, table_of)

    if best_lo >= best_hi:
        witness = tuple(float(grids[s][best_lo_idx[s]]) for s in range(d))
        flags = (AT_POINT,) * d
        value, attained = best_lo, True
    else:
        witness = []
        flags = []
        for s in range(d):
            j = best_hi_idx[s]
            if j == grids[s].size - 1:
                witness.append(1.0)
                flags.append(AT_POINT)
            else:
                witness.append(float(grids[s][j + 1]))
                flags.append(LEFT_LIMIT)
        witness = tuple(witness)
        flags = tuple(flags)
        value, attained = best_hi, False

    return DiscrepancyResult(
        value=value,
        witness_box=Box(lower=(0.0,) * d, upper=witness),
        witness_flags=flags,
        attained=attained,
        method=EXACT_GRID,
    )


def random_search_lower_bound(
    ps: PointSet, m, trials: int, seed: int
) -> DiscrepancyResult:
    """Randomized lower bound for the star-discrepancy.

    Maximizes the one-sided deviation over random corners, corners snapped
    to point/measure coordinates, and random per-axis limit flags.  Every
    evaluation is a limit of actual local discrepancies, so the result never
    exceeds the exact star-discrepancy.  Deterministic for a fixed seed.
    """
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    if m.dimension != ps.dimension:
        raise DimensionMismatchError("measure and point set dimensions differ")
    cdf_points = _measure_method(m, "_cdf_points")
    try:
        rng = np.random.default_rng(seed)
    except (TypeError, ValueError) as err:
        raise ValidationError(f"invalid seed {seed!r}: {err}") from err
    d = ps.dimension
    pools = [
        np.unique(
            np.concatenate(
                [[1.0], ps.points[:, s], np.asarray(m.axis_coordinates(s), dtype=float)]
            )
        )
        for s in range(d)
    ]

    # the draws are made one trial and one axis at a time, so a seed gives the
    # same corners however many trials are evaluated together
    chunk = max(1, _SLAB_CELLS // ps.n)
    best, best_corner, best_left = -1.0, np.ones(d), np.zeros(d, dtype=bool)
    for done in range(0, trials, chunk):
        corners, left = [], []
        for _ in range(min(chunk, trials - done)):
            for s in range(d):
                u = rng.random()
                if u < 0.5:
                    corners.append(pools[s][rng.integers(pools[s].size)])
                elif u < 0.6:
                    corners.append(1.0)
                else:
                    corners.append(rng.random())
                left.append(rng.random() < 0.5)
        corners = np.reshape(corners, (-1, d))
        left = np.reshape(left, (-1, d))
        dev = _deviations(ps, cdf_points, corners, left)
        i = int(np.argmax(np.nan_to_num(dev, nan=-1.0)))  # as `>` below, NaN never wins
        if dev[i] > best:  # the first trial to reach the maximum keeps it
            best, best_corner, best_left = float(dev[i]), corners[i], left[i]

    return DiscrepancyResult(
        value=best,
        witness_box=Box(lower=(0.0,) * d, upper=tuple(float(c) for c in best_corner)),
        witness_flags=tuple(LEFT_LIMIT if f else AT_POINT for f in best_left),
        attained=not best_left.any(),
        method=RANDOM_SEARCH,
    )
