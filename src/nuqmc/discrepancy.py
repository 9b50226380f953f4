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

Exact mode streams the grid in slabs of whole axis-0 rows, carrying the
prefix counts of one slab's last row into the next, and evaluates each slab
on its critical boxes only.  In row ``i`` a count can change along an axis
``s >= 1`` only at a column that holds a point of rows ``<= i``, so a slab
reads just the *active* columns of every such axis: column 0, the last
column, each measure coordinate's column and each column holding a point of
the rows read so far.  A compressed column stands for the run of dense
columns up to the next active one, where the count is constant; the
lower-corner CDF is read at the run's first column and the one-sided
upper-corner CDF at its last, so both maxima over the run are read exactly.
The attained term's first compressed maximum is its dense first occurrence;
the one-sided term's lies in the row of its first compressed maximum, which
is read densely once to name the witness (see ``_slab_maxima``).  Values,
witnesses and flags are bit for bit those of the whole-grid reduction.  When
each row holds one point, the active columns of row ``i`` on each axis are
about ``i`` of ``N``, so a walk reads about ``1/d`` of the dense grid.

This rests on one premise: the computed CDF table is nondecreasing along
each axis of the grid.  It holds exactly for uniform, product and discrete
tables (products of nondecreasing nonnegative factors, prefix sums of
positive weights); for :class:`~nuqmc.measures.AnalyticCdfMeasure` it is
part of the callback contract.

Slabs hold about 2^16 compressed cells, at least one row.  Peak memory is
two float64 slab buffers of at most ``max(2^16, m_1 ... m_{d-1})`` cells and
the int64 carried row, so the cell budget bounds time, and memory only
through the row length (300 points in d=4 on one axis-0 coordinate: rows of
302^3 cells, about 630 MiB); slab buffers larger than one array can
address, or than memory holds, end in
:class:`~nuqmc.errors.BudgetExceededError`, not a traceback.
The points are sorted by axis-0 row, so a slab builds its counts row by
row: each row starts as a copy of the row before, and the point it holds at
compressed cells ``(j_1, ..., j_{d-1})`` adds 1 on the orthant
``[j_1:, ..., j_{d-1}:]``.  Slabs of short rows, or with a row holding
several points, histogram their points and sum along every axis instead.
The measure supplies its CDF tables slab by slab, on the active columns,
through one ``_cdf_table`` method per measure class.

The randomized search keeps its per-trial draws but evaluates a chunk of
corners at once, through each measure's batched ``_cdf_points``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, DimensionMismatchError, ValidationError
from .measures import (
    AT_POINT,
    LEFT_LIMIT,
    _ROW_LOOP_CELLS,
    _inside,
    _limit_flags,
    _prefix_rows,
    _unit,
    _unit_point,
    _upper_axis,
    cdf_one_sided,
)
from .variation import Box

#: Default gate for exact cell enumeration.
CELL_BUDGET = 10**8

#: Cells per slab of the streamed critical grid (rounded down to whole
#: axis-0 rows, at least one row).  Slabs of compressed rows of at least
#: ``measures._ROW_LOOP_CELLS`` cells are counted one row at a time: from
#: the point's orthant when each row holds at most one point, else by a
#: row-by-row axis-0 prefix sum of the slab's histogram.
_SLAB_CELLS = 2**16

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
        pts = _unit(pts, "points").copy()
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


def _slab_maxima(ps: PointSet, m, grids):
    """The supremum over the critical grid: the larger of the largest
    ``count/N - F`` at the cells' lower corners (attained) and the largest
    ``F(upper-) - count/N`` (one-sided), the attained term winning a tie.
    Returns ``(value, grid index, attained)``, the index being the first
    occurrence in C order.

    The grid is walked in slabs of whole axis-0 rows, sized by the cells a
    slab reads.  In row ``i`` the count changes along an axis ``s >= 1`` only
    at a column holding a point of rows ``<= i``, so a slab reads just its
    *active* columns on every such axis: column 0, the last column, each
    measure coordinate's column, and each column holding a point of the rows
    up to the slab's last.  A compressed column stands for the run of dense
    columns up to the next active one, on which every count is constant; it
    reads the lower-corner table at the run's first column and the
    upper-corner table at its last.  The computed CDF is nondecreasing along
    each axis (see the module docstring), so:

    * moving a cell down to the start of its run keeps its count and cannot
      raise ``F``: the attained term's first compressed maximum is its dense
      first occurrence;
    * moving a cell up to the end of its run keeps its count and cannot
      lower ``F(upper-)``: the one-sided term's dense first occurrence lies
      in the row of its first compressed maximum, but maybe not at a run's
      end (``F(upper-)`` can be flat there), so that one row is read densely
      to name the witness.

    A slab whose active columns are all its columns (every slab once every
    point has been read, so every grid that fits one slab) names its
    one-sided witness directly, with no second read.

    A row's prefix counts are the previous row's (the previous slab's last
    row, widened by an index gather when columns activate) plus 1 on the
    orthant ``[j_1:, ..., j_{d-1}:]`` of the point it holds, if any.  Slabs
    of compressed rows shorter than ``_ROW_LOOP_CELLS``, or with a row
    holding several points, histogram their points and sum along every axis
    instead.  Memory is two slab buffers and the carried row, however many
    rows the grid has; an earlier slab keeps a tie, as one argmax over the
    whole grid would.
    """
    d = ps.dimension
    sizes = [g.size for g in grids]
    n_rows, row_cells = sizes[0], math.prod(sizes[1:])
    table_of = _measure_method(m, "_cdf_table")
    # two float64 slab buffers for the whole walk: the counts, divided by N
    # in place, and the CDF tables (the histogram's int64 scratch before
    # that); a dense row, for the re-read, fits in each.  The carried row
    # lives in a third, int64 buffer of one dense row.
    counts, table, carried = _slab_buffers(min(math.prod(sizes), max(_SLAB_CELLS, row_cells)),
                                           row_cells)
    f_lo = table_of(grids, [np.zeros(g.size, dtype=bool) for g in grids])
    uppers = [_upper_axis(g[1:]) for g in grids]
    f_hi = table_of([c for c, _ in uppers], [f for _, f in uppers])

    # grid cell of every point, the points ordered by axis-0 row
    cells = [np.searchsorted(g, ps.points[:, s], side="right") - 1 for s, g in enumerate(grids)]
    order = np.argsort(cells[0], kind="stable")
    cells = [c[order] for c in cells]
    # per row r: the points of rows < r, and, read only where rows reach
    # _ROW_LOOP_CELLS, the rows < r that hold several points
    before = np.searchsorted(cells[0], np.arange(n_rows + 1))
    crowded = (np.concatenate([[0], np.cumsum(np.diff(before) > 1)])
               if row_cells >= _ROW_LOOP_CELLS else None)

    # per axis s >= 1: the first row from which each column is active, and
    # the active columns; and the compressed row length once rows 0..r have
    # been read.  The one slab of a grid that fits one holds every point, so
    # it reads every column.
    every = [np.arange(size) for size in sizes[1:]]
    active = hi_cols = every
    width = np.full(n_rows, row_cells)
    carry = carried.reshape(sizes[1:])
    if math.prod(sizes) > _SLAB_CELLS:
        since = [np.full(size, n_rows) for size in sizes[1:]]  # row n_rows: never
        width.fill(1)
        for s, opens in enumerate(since, start=1):
            opens[[0, -1]] = 0
            opens[np.searchsorted(grids[s], np.asarray(m.axis_coordinates(s), dtype=float))] = 0
            np.minimum.at(opens, cells[s], cells[0])
            width *= np.cumsum(np.bincount(opens, minlength=n_rows + 1))[:n_rows]
        carry = carried[:1].reshape((1,) * (d - 1))
    carry.fill(0)  # the counts of row -1
    lo_candidates, hi_candidates = [], []
    start = 0
    while start < n_rows:
        # as many rows as fill _SLAB_CELLS compressed cells, at least one
        rows = min(n_rows - start, max(1, _SLAB_CELLS // int(width[start])))
        if rows * width[start + rows - 1] > _SLAB_CELLS:  # columns activate on the way
            # k rows fit while k * width[start + k - 1], which grows with k, does
            rows = max(1, bisect_right(range(1, rows + 1), _SLAB_CELLS,
                                       key=lambda k: k * width[start + k - 1]))
        stop = start + rows
        if width[stop - 1] > carry.size:  # columns activate: widen the carried row
            active = [np.flatnonzero(opens < stop) for opens in since]
            # a compressed column reads the first column of its run below,
            # the last column above
            hi_cols = [np.append(a[1:] - 1, size - 1) for a, size in zip(active, sizes[1:])]
            # gather it one axis at a time through the two slab buffers, free
            # until this slab's counts
            staged = carry
            for s, (opens, a) in enumerate(zip(since, active)):
                shape = staged.shape[:s] + (a.size,) + staged.shape[s + 1:]
                out = (table, counts)[s % 2].view(np.int64)[:math.prod(shape)].reshape(shape)
                # every index is in range; mode "raise" would copy through a temporary
                staged = np.take(staged, _carried_columns(opens, a, start), axis=s, out=out,
                                 mode="clip")
            carry = carried[:staged.size].reshape(staged.shape)
            carry[...] = staged
        dense = carry.size == row_cells
        shape = (rows,) + carry.shape
        n_cells = math.prod(shape)

        # the slab cells of the slab's points: each column is active
        first, last = before[start], before[stop]
        slab_cells = [cells[0][first:last] - start]
        slab_cells += [np.searchsorted(a, c[first:last]) for a, c in zip(active, cells[1:])]
        if carry.size >= _ROW_LOOP_CELLS and crowded[stop] == crowded[start]:
            c = _orthant_counts(counts[:n_cells].reshape(shape), carry, slab_cells)
        else:
            c = _histogram_counts(table[:n_cells].view(np.int64).reshape(shape), carry, slab_cells)
        carry[...] = c[-1]
        share = np.divide(c, ps.n, out=counts[:n_cells].reshape(shape))

        t = table[:n_cells].reshape(shape)
        dev = np.subtract(share, f_lo(start, stop, t, active), out=t)
        i = int(np.argmax(dev))  # largest at a lower corner (attained)
        r, *j = np.unravel_index(i, shape)
        lo_candidates.append((dev.flat[i], (start + r, *(a[k] for a, k in zip(active, j)))))
        dev = np.subtract(f_hi(start, stop, t, hi_cols), share, out=t)
        i = int(np.argmax(dev))  # approached at an upper corner (one-sided)
        r, *j = np.unravel_index(i, shape)  # a compressed slab names its row only
        hi_candidates.append((dev.flat[i], (start + r, tuple(j) if dense else None)))
        start = stop

    def first_max(candidates):
        value, index = candidates[int(np.argmax([v for v, _ in candidates]))]
        return float(value), index

    lo_value, lo_index = first_max(lo_candidates)
    hi_value, (row, hi_index) = first_max(hi_candidates)
    if lo_value >= hi_value:
        return lo_value, tuple(int(j) for j in lo_index), True
    if hi_index is None:  # a row of a compressed slab: read it densely
        shape = (1,) + tuple(sizes[1:])
        upto = before[row + 1]  # the points of rows <= row
        c = _histogram_counts(table[:row_cells].view(np.int64).reshape(shape),
                              np.zeros((), dtype=np.int64),
                              [np.zeros(upto, dtype=np.intp)] + [j[:upto] for j in cells[1:]])
        share = np.divide(c, ps.n, out=counts[:row_cells].reshape(shape))
        t = table[:row_cells].reshape(shape)
        dev = np.subtract(f_hi(row, row + 1, t, every), share, out=share)
        hi_index = np.unravel_index(int(np.argmax(dev)), sizes[1:])
    return hi_value, tuple(int(j) for j in (row, *hi_index)), False


def _carried_columns(opens: np.ndarray, active: np.ndarray, start: int) -> np.ndarray:
    """For each of the ``active`` columns of one axis, the compressed column
    of the carried row (the counts of row ``start - 1``) whose run holds it:
    the number of columns after column 0, up to it, that are active in rows
    ``< start``.  Column 0 is active from row 0 on, so row -1's carried row
    is one cell."""
    index = np.empty(active.size, dtype=np.intp)
    index[0] = 0
    np.add.accumulate(opens[active[1:]] < start, dtype=np.intp, out=index[1:])
    return index


def _slab_buffers(cells: int, row_cells: int):
    """Two float64 buffers of ``cells`` cells and an int64 buffer of
    ``row_cells`` cells (one grid row), or :class:`BudgetExceededError` when
    they cannot be allocated."""
    err = BudgetExceededError(
        f"critical grid rows have {row_cells} cells; two slab buffers of "
        f"{cells} cells and a carried row do not fit in memory"
    )
    if cells > np.iinfo(np.intp).max // 8:  # more bytes than one array can address
        raise err
    try:
        return np.empty(cells), np.empty(cells), np.empty(row_cells, dtype=np.int64)
    except MemoryError:
        raise err from None


def _orthant_counts(c: np.ndarray, carry: np.ndarray, point_cells) -> np.ndarray:
    """Prefix counts of a slab written into ``c``: each row is the row before
    it (``carry`` for the first) plus 1 on the orthant of the point it holds,
    if any.  ``point_cells[s]`` are the slab cells of the slab's points on
    axis ``s``, ordered by row."""
    prev, r = carry, 0
    orthants = ([slice(j, None) for j in cols.tolist()] for cols in point_cells[1:])
    for hit, *orthant in zip(point_cells[0].tolist(), *orthants):
        c[r:hit + 1] = prev  # the rows without a point, then the point's row
        prev, r = c[hit, ...], hit + 1
        v = prev[(*orthant, ...)]  # a view, also of a 0-d row
        np.add(v, 1.0, out=v)  # `+=` would copy v back onto itself
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
    return _prefix_rows(c)


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

    value, index, attained = _slab_maxima(ps, m, grids)
    if attained:
        witness = tuple(float(g[j]) for g, j in zip(grids, index))
        flags = (AT_POINT,) * d
    else:  # the upper corner, approached from below except on the last column
        last = [j == g.size - 1 for g, j in zip(grids, index)]
        witness = tuple(1.0 if end else float(g[j + 1]) for g, j, end in zip(grids, index, last))
        flags = tuple(AT_POINT if end else LEFT_LIMIT for end in last)

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
