"""Exact star-discrepancy of finite point sets with respect to uniform,
product, discrete, and analytic-CDF measures.

The supremum runs over closed anchored boxes ``[0, a]``.  The counting
function is constant on the half-open cells of the critical grid (point
coordinates, a discrete measure's atom coordinates, and {0, 1}) while the
measure's CDF is componentwise monotone there, so the supremum over each
cell is reached either at the cell's lower corner (an attained value) or at
its upper corner approached from below (a one-sided limit, which need not be
attained -- e.g. a single point forces an unattained supremum under any
continuous CDF).  A discrete measure's atoms lie on the grid lines, so on a
cell ``[l, u)`` both its CDF and the count at ``u-`` are their values at
``l``: its supremum is the largest ``|count/N - F|`` at the lower corners,
read from one table and always attained.  Exact mode enumerates all cells,
in any dimension; cost is the product of the per-axis grid sizes ``m_s``,
so a cell budget, checked before any allocation, gates it; beyond that only
the randomized lower-bound search is offered.

Exact mode streams the grid in slabs of whole axis-0 rows, carrying the
prefix counts of one slab's last row into the next, and evaluates each slab
on its critical boxes only, the *active* columns where a count can change;
``_slab_maxima`` says how a slab counts and reads them.  Values, witnesses
and flags are bit for bit those of the whole-grid reduction.  When each row
holds one point, the active columns of row ``i`` on each axis are about
``i`` of ``N``, so a walk reads about ``1/d`` of the dense grid.

This rests on one premise: the computed CDF table is nondecreasing along
each axis of the grid.  It holds exactly for uniform, product and discrete
tables (products of nondecreasing nonnegative factors, prefix sums of
positive weights); for :class:`~nuqmc.measures.AnalyticCdfMeasure` it is
part of the callback contract.

Slabs hold about 2^16 compressed cells, at least one row.  Peak memory is
three float64 buffers, two of a slab of at most ``max(2^16, m_1 ... m_{d-1})``
cells and the carried row, and, in d = 2, a step row of two grid rows, so
the cell budget bounds time, and memory only through the row length (300
points in d=4 on one axis-0 coordinate: rows of 302^3 cells, about 630
MiB); slab buffers larger than one array can address, or than memory
holds, end in :class:`~nuqmc.errors.BudgetExceededError`, not a traceback.
The measure supplies its CDF tables slab by slab, on the active columns,
through one ``_cdf_table`` method per measure class.

The randomized search keeps its per-trial draws but evaluates a chunk of
corners at once, through each measure's batched ``_cdf_points``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .errors import (
    BudgetExceededError,
    DimensionMismatchError,
    UnsupportedMeasureError,
    ValidationError,
)
from .measures import (
    AT_POINT,
    LEFT_LIMIT,
    _ROW_LOOP_CELLS,
    _allocation,
    _corner,
    _PointCdf,
    _floats,
    _inside,
    _int,
    _prefix_table,
    _unit,
    _upper_axis,
)
from .variation import Box

#: Default gate for exact cell enumeration.
CELL_BUDGET = 10**8

#: Cells per slab of the streamed critical grid (rounded down to whole
#: axis-0 rows, at least one row).  Slabs of compressed rows of at least
#: ``measures._ROW_LOOP_CELLS`` (256) cells are counted one row at a time:
#: from the point's orthant when each row holds at most one point, else by
#: ``measures._prefix_table``, whose axis-0 pass adds such rows one at a
#: time.  On shorter rows that pass is a ``cumsum``, which costs less than
#: one NumPy call a row there.
_SLAB_CELLS = 2**16

#: Trials of the randomized search drawn together, as one array call per
#: kind of draw.  Fixed, so that a seed's first trials are the same corners
#: whatever the trial count, and the search holds one block of corners
#: however many trials it makes.
_SEARCH_BLOCK = 256

#: ``max`` of ``(value, index, attained)`` candidates by this key keeps the
#: largest value, an attained one winning a tie, and the first of equals.
_RANK = itemgetter(0, 2)

EXACT_GRID = "exact"
RANDOM_SEARCH = "search"


class PointSet:
    """N points in ``[0,1]^d`` (the sample whose discrepancy is measured)."""

    def __init__(self, dimension: int, points) -> None:
        dimension = _int(dimension, "dimension", 1)
        pts = _floats(points, "points")
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
        self.dimension = dimension
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
    An exact result under a discrete measure is always attained, and so is
    a searched one unless its box is empty (a value of 0).
    """

    value: float
    witness_box: Box
    witness_flags: tuple[str, ...]
    attained: bool
    method: str


def one_sided_deviation(a, ps: PointSet, m, limit_flags=None) -> float:
    """Limit of the local discrepancy as the corner is approached from below
    on the flagged axes (count strict there, F by left limit).

    With no flags it is the closed-box local discrepancy
    ``|#{x_n <= a}/N - F(a)|``.  Unlike mixing a closed count with a
    one-sided CDF, this quantity is a limit of actual local discrepancies
    and therefore never exceeds the star-discrepancy.  A signed measure
    has none: :class:`~nuqmc.errors.UnsupportedMeasureError`.
    """
    corner, left = _corner(a, limit_flags, ps.dimension)
    _check_measure(ps, m)
    return float(_deviations(ps, m._cdf_points, corner, left)[0])


def _check_measure(ps: PointSet, m) -> None:
    """The measure check of every discrepancy of ``ps`` under ``m``, exact,
    searched or local: the dimensions agree, and ``m`` has a CDF table.  A
    signed measure has none, and its CDF need not be nondecreasing, the
    premise of the exact walk, so it has no star-discrepancy here:
    :class:`~nuqmc.errors.UnsupportedMeasureError`."""
    if m.dimension != ps.dimension:
        raise DimensionMismatchError("measure and point set dimensions differ")
    if type(m)._cdf_table is _PointCdf._cdf_table:
        raise UnsupportedMeasureError(
            f"no star-discrepancy under {type(m).__name__}: it has no CDF table"
        )


def _deviations(ps: PointSet, cdf_points, corners: np.ndarray, left: np.ndarray) -> np.ndarray:
    """:func:`one_sided_deviation` at the rows of ``corners``, with the left
    limits where ``left`` is True; ``cdf_points`` is the measure's
    ``_cdf_points``."""
    counts = np.count_nonzero(_inside(ps.points, corners, left), axis=1)
    return np.abs(counts / ps.n - cdf_points(corners, left))


def _critical_grids(ps: PointSet, m, cell_budget) -> list[np.ndarray]:
    """The critical grids of ``ps`` under ``m`` (one an axis), or
    :class:`BudgetExceededError` past ``cell_budget`` cells: exact mode's gate."""
    cell_budget = _int(cell_budget, "cell_budget", 1)
    _check_measure(ps, m)
    grids = [np.unique(np.concatenate([[0.0, 1.0], ps.points[:, s], m.axis_coordinates(s)]))
             for s in range(ps.dimension)]
    n_cells = math.prod(g.size for g in grids)  # exact: an int64 product wraps past 2^63
    if n_cells > cell_budget:
        raise BudgetExceededError(
            f"critical grid has {n_cells} cells, budget is {cell_budget}; "
            "use random_search_lower_bound"
        )
    return grids


def _slab_maxima(ps: PointSet, m, grids):
    """The supremum over the critical grid: the larger of the largest
    ``count/N - F`` at the cells' lower corners (attained) and the largest
    ``F(upper-) - count/N`` (one-sided), the attained term winning a tie.
    When the measure's mass lies on the grid lines (``m._mass_on_grid``),
    ``F(upper-) - count(upper-)/N`` is ``F - count/N`` at the lower corner,
    so only the lower corners' table is read and the supremum is the
    largest ``|count/N - F|`` there, attained.  Returns ``(value, grid
    index, attained)``, the index being the first occurrence in C order.

    The grid is walked in slabs of whole axis-0 rows, sized by the cells a
    slab reads.  In row ``i`` the count changes along an axis ``s >= 1`` only
    at a column holding a point of rows ``<= i``, so a slab reads just its
    *active* columns on every such axis: column 0, the last column, each
    atom's column, and each column holding a point of the rows up to the
    slab's last.  A compressed column stands for the run of dense
    columns up to the next active one, on which every count is constant; it
    reads the lower-corner table at the run's first column and the
    upper-corner table at its last.  The computed CDF is nondecreasing along
    each axis (see the module docstring), so:

    * moving a cell down to the start of its run keeps its count and cannot
      raise ``F``: the attained term's first compressed maximum is its dense
      first occurrence, and so is ``|count/N - F|``'s when ``F`` is constant
      on the run too (each atom's column is active);
    * moving a cell up to the end of its run keeps its count and cannot
      lower ``F(upper-)``: the one-sided term's dense first occurrence lies
      in the row of its first compressed maximum, but maybe not at a run's
      end (``F(upper-)`` can be flat there), so that one row is read again,
      on every column, to name the witness.

    A slab whose active columns are all its columns (every slab once every
    point has been read, so every grid that fits one slab) names its
    one-sided witness directly, with no second read.  A grid that fits one
    slab is read with none of the streaming bookkeeping: its slab cells are
    the points' grid cells, and only the orthant counts of long rows sort
    the points by row.

    A row's prefix counts are the previous row's (the previous slab's last
    row, widened by an index gather when columns activate) plus 1 on the
    orthant ``[j_1:, ..., j_{d-1}:]`` of the point it holds, if any; a d = 2
    row is one add of a window of a step row (see ``_orthant_counts``).
    Slabs of compressed rows shorter than ``_ROW_LOOP_CELLS``, or with a row
    holding several points, are the distribution function of their points
    instead (``_prefix_table``), counted from zero, the carried row then
    added to every row in place.  Every count, carried row
    included, is a float64 in units of ``unit``: ``2^-m`` when ``N = 2^m``,
    where each ``k/N`` is ``k * 2^-m`` exactly, so the counts are the shares
    and no divide pass follows; a whole point for any other ``N``, the
    counts then divided by ``N``.  Sums of those units are exact either
    way, so both count paths give the same floats, in whatever order a
    slab's sums run.  Memory is two slab buffers, the carried row and, in
    d = 2, a step row of two dense rows; an earlier slab keeps a tie, as one
    argmax over the whole grid would.
    """
    d = ps.dimension
    sizes = [g.size for g in grids]
    n_rows, row_cells = sizes[0], math.prod(sizes[1:])
    # three float64 buffers for the whole walk: the counts and the CDF tables,
    # each holding a slab or a dense row, and the carried row
    counts, table, carried = _slab_buffers(min(math.prod(sizes), max(_SLAB_CELLS, row_cells)),
                                           row_cells)
    f_lo = m._cdf_table(grids, [np.zeros(g.size, dtype=bool) for g in grids])
    f_hi = None if m._mass_on_grid else m._cdf_table(*zip(*(_upper_axis(g[1:]) for g in grids)))

    # grid cell of every point
    cells = [np.searchsorted(g, ps.points[:, s], side="right") - 1 for s, g in enumerate(grids)]
    # every count is in units of `unit`: for N = 2^m every k/N is k * 2^-m
    # exactly, so the counts are the shares themselves; a d = 2 row adds a
    # window of `step`, a dense row of zeros, then one of units
    n = ps.n
    exact_unit = n & (n - 1) == 0
    unit = 1.0 / n if exact_unit else 1.0
    step = np.repeat([0.0, unit], row_cells) if d == 2 and row_cells >= _ROW_LOOP_CELLS else None
    every = [np.arange(size) for size in sizes[1:]]

    def read(start, stop, carry, active, hi_cols, slab_cells, orthant):
        """Rows ``start:stop`` on the ``active`` columns (``hi_cols`` for
        the upper corners), counted on from ``carry``, the counts of row
        ``start - 1``, left holding the counts of row ``stop - 1``, or from
        zero when ``carry`` is None.  ``slab_cells`` are the slab cells of
        the slab's points, in row order where ``orthant`` counts from their
        orthants.  Returns each term's largest deviation as ``(value, slab
        index of its first occurrence, attained)``."""
        shape = (stop - start, *(a.size for a in active))
        n_cells = math.prod(shape)
        share = counts[:n_cells].reshape(shape)
        if orthant:
            _orthant_counts(share, 0.0 if carry is None else carry, slab_cells, unit, step)
        else:
            _prefix_table(share, slab_cells, unit)
            if carry is not None:  # the carried row, on every row of the slab
                np.add(share, carry, out=share)
        if carry is not None:
            carry[...] = share[-1]
        if not exact_unit:  # whole points, as shares count/N
            np.divide(share, n, out=share)
        t = table[:n_cells].reshape(shape)
        dev = np.subtract(share, f_lo(start, stop, t, active), out=t)
        if f_hi is None:  # F(u-) = F(l) and A(u-) = A(l) on a cell [l, u)
            np.abs(dev, out=dev)
        i = int(np.argmax(dev))  # largest at a lower corner (attained)
        found = [(dev.flat[i], np.unravel_index(i, shape), True)]
        if f_hi is not None:
            dev = np.subtract(f_hi(start, stop, t, hi_cols), share, out=t)
            i = int(np.argmax(dev))  # approached at an upper corner (one-sided)
            found.append((dev.flat[i], np.unravel_index(i, shape), False))
        return found

    if math.prod(sizes) <= _SLAB_CELLS:
        # one slab holds every row and point: its columns are all active,
        # its slab cells are the grid cells, and its maxima are the grid's
        orthant = row_cells >= _ROW_LOOP_CELLS
        if orthant:  # the points in row order, unless a row holds several
            order = np.argsort(cells[0], kind="stable")
            cells = [c[order] for c in cells]
            orthant = not np.any(cells[0][1:] == cells[0][:-1])
        value, index, attained = max(read(0, n_rows, None, every, every, cells, orthant),
                                     key=_RANK)
        return float(value), tuple(int(j) for j in index), attained

    # the points ordered by axis-0 row; per row r: the points of rows < r,
    # and, read only where rows reach _ROW_LOOP_CELLS, the rows < r that
    # hold several points
    order = np.argsort(cells[0], kind="stable")
    cells = [c[order] for c in cells]
    before = np.searchsorted(cells[0], np.arange(n_rows + 1))
    crowded = (np.concatenate([[0], np.cumsum(np.diff(before) > 1)])
               if row_cells >= _ROW_LOOP_CELLS else None)

    # per axis s >= 1: the first row from which each column is active, and
    # the active columns; and the compressed row length once rows 0..r have
    # been read
    since = [np.full(size, n_rows) for size in sizes[1:]]  # row n_rows: never
    width = np.ones(n_rows, dtype=np.int64)
    for s, opens in enumerate(since, start=1):
        opens[[0, -1]] = 0
        opens[np.searchsorted(grids[s], m.axis_coordinates(s))] = 0
        np.minimum.at(opens, cells[s], cells[0])
        width *= np.cumsum(np.bincount(opens, minlength=n_rows + 1))[:n_rows]
    active = hi_cols = every
    carry = carried[:1].reshape((1,) * (d - 1))
    carry.fill(0)  # the counts of row -1

    candidates = []
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
                out = (table, counts)[s % 2][:math.prod(shape)].reshape(shape)
                # every index is in range; mode "raise" would copy through a temporary
                staged = np.take(staged, _carried_columns(opens, a, start), axis=s, out=out,
                                 mode="clip")
            carry = carried[:staged.size].reshape(staged.shape)
            carry[...] = staged
        dense = carry.size == row_cells

        # the slab cells of the slab's points: each column is active
        first, last = before[start], before[stop]
        slab_cells = [cells[0][first:last] - start]
        slab_cells += [np.searchsorted(a, c[first:last]) for a, c in zip(active, cells[1:])]
        orthant = carry.size >= _ROW_LOOP_CELLS and crowded[stop] == crowded[start]
        for value, (r, *j), attained in read(start, stop, carry, active, hi_cols, slab_cells,
                                             orthant):
            # a compressed slab names the row only of a one-sided maximum
            at = tuple(a[k] for a, k in zip(active, j)) if attained or dense else None
            candidates.append((value, (start + r, at), attained))
        start = stop

    value, (row, at), attained = max(candidates, key=_RANK)
    if at is None:  # a row of a compressed slab: read it on every column,
        # counted from zero with the points of rows <= row folded into it
        upto = before[row + 1]
        folded = [np.zeros(upto, dtype=np.intp)] + [j[:upto] for j in cells[1:]]
        _, (_, *at), _ = read(row, row + 1, None, every, every, folded, False)[1]
    return float(value), tuple(int(j) for j in (row, *at)), attained


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
    """Two float64 buffers of ``cells`` cells and one of ``row_cells`` cells
    (one grid row), or :class:`BudgetExceededError` when they cannot be
    allocated."""
    with _allocation(8 * cells, BudgetExceededError(
            f"critical grid rows have {row_cells} cells; two slab buffers of "
            f"{cells} cells and a carried row do not fit in memory")):
        return np.empty(cells), np.empty(cells), np.empty(row_cells)


def _orthant_counts(c: np.ndarray, carry: np.ndarray | float, point_cells, unit: float,
                    step: np.ndarray | None) -> np.ndarray:
    """Prefix counts of a slab, in multiples of ``unit``, written into ``c``:
    each row is the row before it (``carry``, a row or 0.0, for the first)
    plus ``unit`` on the orthant of the point it holds, if any.  ``point_cells[s]``
    are the slab cells of the slab's points on axis ``s``, ordered by row.

    A d = 2 row with a point is one add of a window of ``step`` (zeros, then
    as many units as a dense row has cells): the window starting ``j`` cells
    before the units adds ``unit`` from column ``j`` on.  Other rows with a
    point add on a view of their orthant."""
    prev, r = c[0, ...], 1
    prev[...] = carry  # row -1, staged in row 0
    if step is not None:
        half = step.size // 2
        w = c.shape[1]
        for hit, j in zip(point_cells[0].tolist(), point_cells[1].tolist()):
            if r < hit:
                c[r:hit] = prev  # the rows without a point
            prev, r = np.add(prev, step[half - j:half - j + w], out=c[hit]), hit + 1
    else:
        orthants = ([slice(j, None) for j in cols.tolist()] for cols in point_cells[1:])
        for hit, *orthant in zip(point_cells[0].tolist(), *orthants):
            c[r:hit + 1] = prev  # the rows without a point, then the point's row
            prev, r = c[hit, ...], hit + 1
            v = prev[(*orthant, ...)]  # a view, also of a 0-d row
            np.add(v, unit, out=v)  # `+=` would copy v back onto itself
    c[r:] = prev
    return c


def star_discrepancy(ps: PointSet, m, cell_budget: int = CELL_BUDGET) -> DiscrepancyResult:
    """Exact star-discrepancy ``sup_a |#{x_n <= a}/N - F(a)|``.

    Enumerates the critical grid, in any dimension; reports whether the
    supremum is attained and a witness box (with one-sided flags when it is
    not).  Raises :class:`BudgetExceededError` when the grid has more than
    ``cell_budget`` cells, an integer >= 1; use
    :func:`random_search_lower_bound` then.  A signed measure has no CDF
    table: :class:`~nuqmc.errors.UnsupportedMeasureError`.
    """
    d = ps.dimension
    grids = _critical_grids(ps, m, cell_budget)
    value, index, attained = _slab_maxima(ps, m, grids)
    # the lower corner, or the upper one, approached from below but on the
    # last column: the axes of the table the maximum was read from
    axes = [(g, np.zeros(g.size, dtype=bool)) if attained else _upper_axis(g[1:]) for g in grids]
    witness = tuple(float(coords[j]) for (coords, _), j in zip(axes, index))
    flags = tuple(LEFT_LIMIT if left[j] else AT_POINT for (_, left), j in zip(axes, index))

    return DiscrepancyResult(
        value=value,
        # grid coordinates: point, atom and end coordinates, validated
        witness_box=Box._unchecked((0.0,) * d, witness),
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
    exceeds the exact star-discrepancy.  ``trials`` (at least 1) and
    ``seed`` (at least 0) are whole numbers, read as every count is, so
    ``seed=None`` is refused.  Deterministic for a fixed seed, and
    the corners come in blocks of ``_SEARCH_BLOCK`` trials, so the first
    trials of a seed are the same corners whatever the trial count: more
    trials never lower the bound.  Under a discrete measure the best corner
    is reported as the closed box holding the same points and atoms, so the
    result is attained.  A signed measure has no star-discrepancy to bound:
    :class:`~nuqmc.errors.UnsupportedMeasureError`.
    """
    trials = _int(trials, "trials", 1)
    _check_measure(ps, m)
    rng = np.random.default_rng(_int(seed, "seed", 0))
    d = ps.dimension
    pools = [np.unique(np.concatenate([[1.0], ps.points[:, s], m.axis_coordinates(s)]))
             for s in range(d)]
    sizes = np.array([p.size for p in pools])
    flat_pools, offsets = np.concatenate(pools), np.cumsum(sizes) - sizes

    chunk = max(1, _SLAB_CELLS // ps.n)
    best, best_corner, best_left = -1.0, np.ones(d), np.zeros(d, dtype=bool)
    for done in range(0, trials, _SEARCH_BLOCK):
        # a whole block is drawn even when fewer trials remain, so the first
        # trials of a seed are the same corners whatever the trial count
        u = rng.random((_SEARCH_BLOCK, d))
        snapped = flat_pools[offsets + rng.integers(sizes, size=(_SEARCH_BLOCK, d))]
        free = rng.random((_SEARCH_BLOCK, d))
        left = rng.random((_SEARCH_BLOCK, d)) < 0.5
        corners = np.where(u < 0.5, snapped, np.where(u < 0.6, 1.0, free))
        used = min(_SEARCH_BLOCK, trials - done)
        for lo in range(0, used, chunk):
            hi = min(lo + chunk, used)
            dev = _deviations(ps, m._cdf_points, corners[lo:hi], left[lo:hi])
            i = int(np.argmax(dev))
            if dev[i] > best:  # the first trial to reach the maximum keeps it
                best, best_corner, best_left = float(dev[i]), corners[lo + i], left[lo + i]

    if m._mass_on_grid and not np.any(best_left & (best_corner == 0.0)):
        # the points and atoms lie on the pool coordinates, so on an axis
        # [0, a) holds what [0, b] does, b the largest pool coordinate below
        # a (0.0 if none is): the same count and F.  A left-flagged 0.0
        # bounds an empty box, which only wins at 0, and is kept as drawn
        below = [p[np.searchsorted(p, a) - 1] if p[0] < a else 0.0
                 for p, a in zip(pools, best_corner)]
        best_corner = np.where(best_left, below, best_corner)
        best_left = np.zeros(d, dtype=bool)

    return DiscrepancyResult(
        value=best,
        # pool coordinates, 0.0, 1.0 or a draw in [0, 1)
        witness_box=Box._unchecked((0.0,) * d, tuple(float(c) for c in best_corner)),
        witness_flags=tuple(LEFT_LIMIT if f else AT_POINT for f in best_left),
        attained=not best_left.any(),
        method=RANDOM_SEARCH,
    )
