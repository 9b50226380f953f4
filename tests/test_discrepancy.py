"""Exact star-discrepancy engine and the randomized lower-bound search."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nuqmc.discrepancy as engine
from nuqmc import (
    AnalyticCdfMeasure,
    AxisCdf,
    Box,
    BudgetExceededError,
    DimensionMismatchError,
    DiscreteMeasure,
    DiscreteSignedMeasure,
    PointSet,
    ProductMeasure,
    GridFunction,
    UniformMeasure,
    UnsupportedMeasureError,
    ValidationError,
    chelson_cdf,
    chelson_measure,
    halton,
    integral_under_measure,
    one_sided_deviation,
    random_search_lower_bound,
    star_discrepancy,
)
from helpers import (
    atom_mixture,
    brute_force_star_discrepancy,
    dense_star_discrepancy,
    dense_uniform_star_discrepancy,
    gamma,
    measure_coordinates,
    random_discrete_probability,
    random_general_axis_cdf,
    random_point_set,
    random_signed_measure,
    random_strict_axis_cdf,
    reference_one_sided_deviation,
    reference_random_search,
    within_rounding,
)

TOL = 1e-12


class TestLocalDiscrepancy:
    """The closed-box local discrepancy: ``one_sided_deviation`` with no
    flags."""

    def test_single_midpoint(self):
        ps = PointSet(1, [[0.5]])
        assert one_sided_deviation((0.5,), ps, UniformMeasure(1)) == pytest.approx(0.5)

    def test_chelson_at_point(self):
        ps = PointSet(2, [[7 / 9, 20 / 27]])
        got = one_sided_deviation((1.0, 20 / 27), ps, chelson_measure())
        assert got == pytest.approx(119 / 729, abs=TOL)

    def test_empirical_measure_vanishes(self):
        rng = np.random.default_rng(3)
        ps = PointSet(2, rng.random((8, 2)))
        m = DiscreteMeasure.from_points(2, ps.points, np.full(ps.n, 1 / ps.n))
        for _ in range(50):
            a = rng.random(2)
            assert one_sided_deviation(a, ps, m) <= TOL

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            one_sided_deviation((0.5, 0.5), PointSet(1, [[0.5]]), UniformMeasure(1))


def _discrete_cases():
    """300 random point sets of 1 to 39 points in d = 1..3, each with a
    discrete measure of 1 to 39 equal atoms."""
    rng = np.random.default_rng(5)
    for _ in range(300):
        d = int(rng.integers(1, 4))
        ps = PointSet(d, rng.random((int(rng.integers(1, 40)), d)))
        k = int(rng.integers(1, 40))
        yield ps, DiscreteMeasure.from_points(d, rng.random((k, d)), np.full(k, 1.0 / k))


class TestStarDiscrepancyExact:
    def test_single_point_uniform_unattained(self):
        ps = PointSet(2, [[56 / 81, 20 / 23]])
        res = star_discrepancy(ps, UniformMeasure(2))
        assert res.value == pytest.approx(20 / 23, abs=TOL)
        assert not res.attained
        assert res.witness_box.upper[1] == pytest.approx(20 / 23, abs=TOL)
        # the witness reproduces the value through the one-sided evaluation
        assert one_sided_deviation(
            res.witness_box.upper, ps, UniformMeasure(2), res.witness_flags
        ) == pytest.approx(res.value, abs=TOL)

    def test_chelson_single_point(self):
        ps = PointSet(2, [[7 / 9, 20 / 27]])
        res = star_discrepancy(ps, chelson_measure())
        assert res.value == pytest.approx(610 / 729, abs=TOL)
        assert not res.attained

    def test_two_points_1d(self):
        ps = PointSet(1, [[0.25], [0.75]])
        res = star_discrepancy(ps, UniformMeasure(1))
        assert res.value == pytest.approx(0.25, abs=TOL)
        assert res.value == pytest.approx(
            dense_uniform_star_discrepancy(ps, 100_000), abs=1e-9
        )

    def test_attained_witness_reproduces_value(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            d = int(rng.integers(1, 3))
            ps = random_point_set(rng, d, max_points=12)
            m = random_discrete_probability(rng, d, max_atoms=6)
            res = star_discrepancy(ps, m)
            got = one_sided_deviation(res.witness_box.upper, ps, m, res.witness_flags)
            assert got == pytest.approx(res.value, abs=TOL)

    def test_point_at_one_gives_unattained_sup_one(self):
        res = star_discrepancy(PointSet(1, [[1.0]]), UniformMeasure(1))
        assert res.value == pytest.approx(1.0, abs=TOL)
        assert not res.attained

    def test_empirical_self_discrepancy_is_zero(self):
        rng = np.random.default_rng(5)
        ps = PointSet(2, rng.random((6, 2)))
        m = DiscreteMeasure.from_points(2, ps.points, np.full(ps.n, 1 / ps.n))
        res = star_discrepancy(ps, m)
        assert res.value <= TOL

    def test_value_in_unit_interval_and_duplication_invariance(self):
        for seed, discrete in [(6, False), (7, True)]:
            rng = np.random.default_rng(seed)
            for _ in range(100 if discrete else 20):
                d = int(rng.integers(1, 4))
                ps = random_point_set(rng, d, max_points=39 if discrete else 10)
                m = random_discrete_probability(rng, d, 39) if discrete else UniformMeasure(d)
                res = star_discrepancy(ps, m)
                assert 0.0 <= res.value <= 1.0
                doubled = PointSet(d, np.vstack([ps.points, ps.points]))
                res2 = star_discrepancy(doubled, m)
                assert res2.value == pytest.approx(res.value, abs=TOL)
                if discrete:
                    # counts and F are read at closed corners only: doubling
                    # or permuting the points, or permuting the atoms,
                    # changes no bit
                    order = rng.permutation(len(m))
                    moved = DiscreteMeasure.from_points(d, m.locations[order], m.weights[order])
                    shuffled = PointSet(d, rng.permutation(ps.points))
                    for other in [res2, star_discrepancy(shuffled, m), star_discrepancy(ps, moved)]:
                        assert _summary(other) == _summary(res)

    def test_discrete_supremum_is_attained_and_exact(self):
        # the atoms lie on the grid, so the supremum is a closed-box maximum:
        # attained, and |#{x <= w}/N - F(w)| at the witness, which the exact
        # rational sum bounds within the rounding of the float sums
        for ps, m in _discrete_cases():
            d, k = ps.dimension, len(m)
            res = star_discrepancy(ps, m)
            w = np.array(res.witness_box.upper)
            assert res.attained and res.witness_flags == ("at",) * d
            share = Fraction(int(np.all(ps.points <= w, axis=1).sum()), ps.n)
            mass = sum((Fraction(x) for x in m.weights[np.all(m.locations <= w, axis=1)]),
                       Fraction(0))
            bound = gamma(k + 2) * (share + mass)
            assert within_rounding([res.value], [abs(share - mass)], [bound])
            # _cdf_points sums the atoms in another order than the table
            local = one_sided_deviation(w, ps, m, res.witness_flags)
            assert within_rounding([local], [abs(share - mass)], [bound])

    def test_uniform_equals_identity_product(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            d = int(rng.integers(1, 4))
            ps = random_point_set(rng, d, max_points=16)
            direct = star_discrepancy(ps, UniformMeasure(d)).value
            via_product = star_discrepancy(
                ps, ProductMeasure([AxisCdf.identity() for _ in range(d)])
            ).value
            assert direct == pytest.approx(via_product, abs=TOL)

    def test_matches_generic_brute_force_on_product_measure(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            ps = random_point_set(rng, 2, max_points=6)
            m = ProductMeasure([random_general_axis_cdf(rng) for _ in range(2)])
            cands = [
                np.unique(np.concatenate([np.linspace(0, 1, 21), ps.points[:, s],
                                          m.axes[s].breakpoints]))
                for s in range(2)
            ]
            brute = brute_force_star_discrepancy(ps, m, cands)
            exact = star_discrepancy(ps, m).value
            assert brute <= exact + TOL
            assert exact == pytest.approx(brute, abs=1e-9)

    def test_matches_generic_brute_force_in_3d(self):
        rng = np.random.default_rng(14)
        for trial in range(6):
            ps = random_point_set(rng, 3, max_points=5)
            if trial % 3 == 0:
                m = UniformMeasure(3)
            elif trial % 3 == 1:
                m = random_discrete_probability(rng, 3, max_atoms=4)
            else:
                m = ProductMeasure([random_general_axis_cdf(rng) for _ in range(3)])
            cands = [
                np.unique(np.concatenate([
                    np.linspace(0, 1, 7), ps.points[:, s], c,
                ]))
                for s, c in enumerate(measure_coordinates(m))
            ]
            brute = brute_force_star_discrepancy(ps, m, cands)
            exact = star_discrepancy(ps, m).value
            assert brute <= exact + TOL
            assert exact == pytest.approx(brute, abs=1e-9)

    def test_points_coinciding_with_atoms_and_breakpoints(self):
        m = DiscreteMeasure(DiscreteSignedMeasure(2, [(0.25, 0.5), (0.75, 0.5)], [0.5, 0.5]))
        ps = PointSet(2, [[0.25, 0.5], [0.75, 0.5], [0.75, 0.5], [0.25, 0.5]])
        assert star_discrepancy(ps, m).value <= TOL
        shifted = PointSet(2, [[0.25, 0.5], [0.25, 0.5], [0.75, 0.5], [0.5, 0.5]])
        res = star_discrepancy(shifted, m)
        cands = [np.unique(np.concatenate([np.linspace(0, 1, 41), [0.25, 0.5, 0.75]]))] * 2
        assert res.value == pytest.approx(
            brute_force_star_discrepancy(shifted, m, cands), abs=TOL
        )

    def test_atoms_on_cube_corners(self):
        # mass at 0 is picked up by every box; mass at 1 only by a = 1
        m = DiscreteMeasure(
            DiscreteSignedMeasure(1, [(0.0,), (1.0,)], [0.5, 0.5])
        )
        res = star_discrepancy(PointSet(1, [[0.0]]), m)
        # count jumps to 1 at a = 0 while F(0) = 1/2, and stays ahead by 1/2
        # until the atom at 1 closes the gap
        assert res.value == pytest.approx(0.5, abs=TOL)
        assert res.attained
        brute = brute_force_star_discrepancy(
            PointSet(1, [[0.0]]), m, [np.linspace(0, 1, 201)]
        )
        assert res.value == pytest.approx(brute, abs=TOL)

    def test_analytic_cdf_with_an_atom(self):
        # closed-form mixture of the uniform measure and a point mass; the
        # declared-discontinuous path must use the left-limit callback
        rng = np.random.default_rng(16)
        for _ in range(10):
            c = rng.uniform(0.1, 0.9, 2)
            m = atom_mixture(c, float(rng.uniform(0.1, 0.9)))
            ps = random_point_set(rng, 2, max_points=6)
            cands = [
                np.unique(np.concatenate([np.linspace(0, 1, 41), ps.points[:, s], [c[s]]]))
                for s in range(2)
            ]
            exact = star_discrepancy(ps, m).value
            assert exact == pytest.approx(
                brute_force_star_discrepancy(ps, m, cands), abs=TOL
            )

    def test_exact_mode_in_four_dimensions(self):
        rng = np.random.default_rng(15)
        ps = PointSet(4, rng.random((3, 4)))
        exact = star_discrepancy(ps, UniformMeasure(4)).value
        cands = [np.unique(np.concatenate([np.linspace(0, 1, 5), ps.points[:, s]]))
                 for s in range(4)]
        brute = brute_force_star_discrepancy(ps, UniformMeasure(4), cands)
        assert brute <= exact + TOL
        assert exact == pytest.approx(brute, abs=1e-9)

    def test_exact_mode_in_five_dimensions(self):
        # no dimension gate: the 3^5 cells fit the default budget, not one less
        ps = PointSet(5, np.full((1, 5), 0.5))
        res = star_discrepancy(ps, UniformMeasure(5))
        assert res.value == 31 / 32
        assert res.witness_box.upper == (0.5,) * 5
        assert res.witness_flags == ("at",) * 5
        assert res.attained
        with pytest.raises(BudgetExceededError):
            star_discrepancy(ps, UniformMeasure(5), cell_budget=3**5 - 1)

    @pytest.mark.parametrize("d", [40, 64])
    def test_cell_count_does_not_wrap(self, d):
        # 3^40 wraps to a negative int64, 3^64 to a positive one under 2^63
        with pytest.raises(BudgetExceededError, match=f"has {3**d} cells"):
            star_discrepancy(PointSet(d, np.full((1, d), 0.5)), UniformMeasure(d))

    def test_cell_budget_gate(self):
        rng = np.random.default_rng(9)
        ps = PointSet(2, rng.random((40, 2)))
        with pytest.raises(BudgetExceededError):
            star_discrepancy(ps, UniformMeasure(2), cell_budget=100)


_SLAB_KINDS = ["uniform-d2", "uniform-d3", "uniform-d4", "jump-product", "discrete-on-points",
               "chelson", "d1", "tensor-d3", "rounded-d2", "alternating-rows",
               "uniform-d5", "uniform-d6", "uniform-d7", "jump-product-d5", "jump-product-d6",
               "discrete-d5", "discrete-d7", "jump-plateau-run", "discrete-shared-columns",
               "ulp-run"]


def _run_points(rng):
    """40 points whose one-sided supremum is approached at ``(u0, 0.972)``,
    ``u0 <= 0.6`` the first axis-0 coordinate past the point ``(0.25, 0.972)``,
    and on the four axis-1 coordinates one ulp apart below 0.972, held by
    rows past 0.6: in the row of the supremum they lie inside one run of
    equal counts, where ``F(u-)`` rounds to its value at 0.972."""
    y = [0.972]
    for _ in range(4):
        y.insert(0, np.nextafter(y[0], 0.0))
    below = np.stack([[0.8, 0.85, 0.9, 0.95], y[:4]], axis=1)
    rest = np.stack([np.append(0.6, rng.uniform(0.6, 1.0, 34)), rng.random(35)], axis=1)
    return np.concatenate([[[0.25, y[4]]], below, rest])


def _slab_case(kind):
    rng = np.random.default_rng(_SLAB_KINDS.index(kind))
    if kind == "jump-plateau-run":
        # G_0 ramps to 1 at 0.5 and stays there; G_1 jumps to 0.5 at 0, then
        # ramps to 1 with slope 0.5
        m = ProductMeasure([AxisCdf([0.0, 0.5, 1.0], [0.0, 1.0, 1.0]),
                            AxisCdf([0.0, 1.0], [0.5, 1.0], [0.0, 1.0])])
        return PointSet(2, _run_points(rng)), m
    if kind == "ulp-run":
        return PointSet(2, _run_points(rng)), UniformMeasure(2)
    if kind == "discrete-shared-columns":
        # atoms on 8 axis-1 coordinates and the float after each, 3 atoms to a
        # column: adjacent columns and columns shared by atoms of other rows
        x1 = np.round(rng.random(8), 3)
        x1 = np.repeat(np.concatenate([x1, np.nextafter(x1, 1.0)]), 3)
        atoms = np.stack([rng.random(x1.size), x1], axis=1)
        w = rng.random(x1.size) + 0.05
        pts = rng.random((400, 2))
        pts[:24] = atoms[::2]  # points on atoms, too
        return PointSet(2, pts), DiscreteMeasure.from_points(2, atoms, w / w.sum())
    if kind.startswith("uniform"):
        d = int(kind[-1])
        n = {2: 600, 3: 80, 4: 20, 5: 12, 6: 6, 7: 4}[d]
        return PointSet(d, rng.random((n, d))), UniformMeasure(d)
    if kind[-2:] in ("d5", "d6", "d7"):  # jump/plateau product or discrete, past d = 4
        d = int(kind[-1])
        pts = rng.random(({5: 7, 6: 4, 7: 3}[d], d))
        if kind.startswith("jump-product"):
            pts[:2] = rng.integers(0, 5, (2, d)) / 4.0  # duplicates, and points at 0 and 1
            return PointSet(d, pts), ProductMeasure([random_general_axis_cdf(rng) for _ in range(d)])
        atoms = np.concatenate([pts[:2], rng.random((2, d))])
        w = rng.random(4) + 0.05
        return PointSet(d, pts), DiscreteMeasure.from_points(d, atoms, w / w.sum())
    if kind == "jump-product":
        pts = rng.random((600, 2))
        pts[:40] = rng.integers(0, 9, (40, 2)) / 8.0  # duplicates, and points at 0 and 1
        return PointSet(2, pts), ProductMeasure([random_general_axis_cdf(rng) for _ in range(2)])
    if kind == "discrete-on-points":
        pts = rng.random((600, 2))
        atoms = np.concatenate([pts[:60], rng.random((20, 2))])
        w = rng.random(80) + 0.05
        return PointSet(2, pts), DiscreteMeasure.from_points(2, atoms, w / w.sum())
    if kind == "chelson":
        return PointSet(2, rng.random((20, 2))), chelson_measure()
    if kind == "tensor-d3":  # 22^2 points in every row, rows of 24^2 cells
        g = (np.arange(22) + 0.5) / 22
        pts = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
        return PointSet(3, pts), UniformMeasure(3)
    if kind == "rounded-d2":  # axis-0 ties in some rows, one point in most
        return PointSet(2, np.round(rng.random((900, 2)) * 1024) / 1024), UniformMeasure(2)
    if kind == "alternating-rows":
        # rows of 1024 cells, 64 to a slab once every column is active: the
        # first 64 rows hold one point each, the next 64 two each, and so on
        per_row = 1 + (np.arange(1, 769) // 64) % 2  # grid row 0 is x = 0
        x0 = np.repeat((np.arange(768) + 0.5) / 768, per_row)
        x1 = (np.arange(1022) + 0.5) / 1022
        x1 = np.concatenate([x1, rng.choice(x1, x0.size - x1.size)])
        return PointSet(2, np.stack([x0, rng.permutation(x1)], axis=1)), UniformMeasure(2)
    return PointSet(1, rng.random((3000, 1))), UniformMeasure(1)


def _walk_geometry(ps, m, slab_cells):
    """The slabs of an exact walk of a d = 2 case, restated from its geometry:
    ``(slabs, held, reread)``, each slab ``(start, stop, width)`` with
    ``width`` the compressed cells of its last row, ``held[i]`` the points
    row ``i`` holds, and ``reread`` whether the row of a one-sided supremum
    lies in a compressed slab, so that it is read densely once more.

    Compressed row ``i`` has a cell for column 0, the last column, each
    measure coordinate's column and each column holding a point of rows
    ``<= i``; a grid that fits one slab reads every column.  A slab is the
    most rows, at least one, whose count times its last row's width fits
    ``slab_cells``.
    """
    g0, g1 = (np.union1d(np.union1d([0.0, 1.0], ps.points[:, s]), m.axis_coordinates(s))
              for s in range(2))
    row = np.searchsorted(g0, ps.points[:, 0])  # every point is on the grid
    held = np.bincount(row, minlength=g0.size)
    fixed = np.union1d([0.0, 1.0], m.axis_coordinates(1))
    width = np.array([np.union1d(fixed, ps.points[row <= i, 1]).size for i in range(g0.size)])
    if g0.size * g1.size <= slab_cells:
        width[:] = g1.size
    slabs, start = [], 0
    while start < g0.size:
        stop = start + 1
        while stop < g0.size and (stop + 1 - start) * width[stop] <= slab_cells:
            stop += 1
        slabs.append((start, stop, width[stop - 1]))
        start = stop
    _, witness, flags, attained = dense_star_discrepancy(ps, m)
    r = g0.size - 1 if flags[0] == "at" else np.searchsorted(g0, witness[0]) - 1
    reread = not attained and any(a <= r < b and w < g1.size for a, b, w in slabs)
    return slabs, held, reread


def _summary(res):
    return res.value, res.witness_box.upper, res.witness_flags, res.attained


class TestSlabEngine:
    """The streamed exact engine against the whole-grid reduction it
    replaced: equal values, witnesses and flags, not merely close ones."""

    @pytest.mark.parametrize("slab_cells", [None, 97, 1])
    @pytest.mark.parametrize("kind", _SLAB_KINDS)
    def test_matches_dense_reduction(self, kind, slab_cells, monkeypatch):
        # the default slab size splits the large grids into several slabs;
        # 97 cells splits every grid, including Chelson's and the 1-d one,
        # and 1 cell makes every row a slab
        if slab_cells is not None:
            monkeypatch.setattr(engine, "_SLAB_CELLS", slab_cells)
        ps, m = _slab_case(kind)
        assert _summary(star_discrepancy(ps, m)) == dense_star_discrepancy(ps, m)

    @pytest.mark.parametrize("row_loop_cells", [1, 2**62])
    @pytest.mark.parametrize("slab_cells", [None, 97, 1])
    @pytest.mark.parametrize("kind", _SLAB_KINDS)
    def test_each_count_path_matches_dense_reduction(self, kind, slab_cells, row_loop_cells,
                                                     monkeypatch):
        # a row loop threshold of 1 sends every slab whose rows hold at most
        # one point each to the orthant counts, 2^62 every slab to the
        # histogram
        if slab_cells is not None:
            monkeypatch.setattr(engine, "_SLAB_CELLS", slab_cells)
        monkeypatch.setattr(engine, "_ROW_LOOP_CELLS", row_loop_cells)
        ps, m = _slab_case(kind)
        assert _summary(star_discrepancy(ps, m)) == dense_star_discrepancy(ps, m)

    @pytest.mark.parametrize("kind, slab_cells, histogram_calls", [
        # rows r >= 1 hold one point each, on distinct axis-1 columns, so
        # compressed row r has r + 2 cells (column 0, the last, r point
        # columns): slabs of 2^14 cells are rows 0-126 (127 x 128 cells),
        # rows 127-205 (79 x 207), then rows of 268 cells and more; the first
        # two take the histogram (every default slab has rows of 256 cells
        # or more)
        ("uniform-d2", 2**14, "geometry"),
        ("uniform-d2", 1, "geometry"),  # one row per slab: rows 0-253 are under 256 cells
        # rows 1-22 hold 22^2 points each, so every column is active from row
        # 1 on: one dense slab of all 24 rows
        ("tensor-d3", None, 1),
        # slabs of many rows that mix rows of one point and of two
        ("alternating-rows", None, "geometry"),
        ("alternating-rows", 1, "geometry"),
        ("rounded-d2", 1, "geometry"),
        ("d1", 97, 31),  # rows of one cell: every slab, though no row is crowded
    ])
    def test_count_path_of_each_slab(self, kind, slab_cells, histogram_calls, monkeypatch):
        # a slab takes the orthant counts when its compressed rows reach
        # _ROW_LOOP_CELLS and each holds at most one point, else the
        # histogram; the dense re-read of a row histograms it, too
        calls = []

        def spy(*args):
            calls.append(args)
            return histogram(*args)

        histogram = engine._prefix_table
        monkeypatch.setattr(engine, "_prefix_table", spy)
        if slab_cells is not None:
            monkeypatch.setattr(engine, "_SLAB_CELLS", slab_cells)
        ps, m = _slab_case(kind)
        if histogram_calls == "geometry":
            slabs, held, reread = _walk_geometry(ps, m, engine._SLAB_CELLS)
            takes = [w < engine._ROW_LOOP_CELLS or held[a:b].max() > 1 for a, b, w in slabs]
            if kind == "alternating-rows" and slab_cells is None:
                # a slab of long rows whose first row holds one point and a
                # later one two: the most points of any row decides
                assert any(w >= engine._ROW_LOOP_CELLS and held[a] == 1 and held[a:b].max() == 2
                           for a, b, w in slabs)
            else:
                assert 0 < sum(takes) < len(slabs)
            histogram_calls = sum(takes) + reread
        star_discrepancy(ps, m)
        assert len(calls) == histogram_calls

    @pytest.mark.parametrize("n, slab_cells, short, long", [
        # one slab: rows of 255 cells (253 points on distinct columns) take
        # the histogram, rows of 256 (254 points) the orthant counts
        (253, None, 255, None),
        (254, None, None, 256),
        # one row per slab: compressed row r has r + 2 cells, so the slab of
        # row 253 (255 cells) takes the histogram and that of row 254 (256
        # cells) the orthant counts
        (600, 1, 255, 256),
    ])
    def test_count_path_at_the_row_loop_cut_off(self, n, slab_cells, short, long, monkeypatch):
        widths = {"histogram": [], "orthant": []}

        def spy(path, counts):
            def count(c, *args):
                widths[path].append(math.prod(c.shape[1:]))
                return counts(c, *args)
            return count

        monkeypatch.setattr(engine, "_prefix_table", spy("histogram", engine._prefix_table))
        monkeypatch.setattr(engine, "_orthant_counts", spy("orthant", engine._orthant_counts))
        if slab_cells is not None:
            monkeypatch.setattr(engine, "_SLAB_CELLS", slab_cells)
        assert engine._ROW_LOOP_CELLS == 256
        ps, m = PointSet(2, np.random.default_rng(n).random((n, 2))), UniformMeasure(2)
        assert _summary(star_discrepancy(ps, m)) == dense_star_discrepancy(ps, m)
        assert min(widths["orthant"], default=256) >= 256
        assert (short in widths["histogram"]) == (short is not None)
        assert (long in widths["orthant"]) == (long is not None)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 3).flatmap(lambda d: st.lists(
            st.lists(st.integers(0, 8), min_size=d, max_size=d), min_size=1, max_size=12)),
        st.sampled_from([None, 97, 5, 1]),
        st.sampled_from([None, 1, 2**62]),
    )
    def test_dyadic_points_with_ties(self, points, slab_cells, row_loop_cells):
        # coordinates in {0, 1/8, ..., 1}: repeated rows, repeated points and
        # points on the cube's faces are frequent
        ps = PointSet(len(points[0]), np.asarray(points) / 8)
        with pytest.MonkeyPatch.context() as mp:
            if slab_cells is not None:
                mp.setattr(engine, "_SLAB_CELLS", slab_cells)
            if row_loop_cells is not None:
                mp.setattr(engine, "_ROW_LOOP_CELLS", row_loop_cells)
            res = star_discrepancy(ps, UniformMeasure(ps.dimension))
        assert _summary(res) == dense_star_discrepancy(ps, UniformMeasure(ps.dimension))

    @pytest.mark.parametrize("points, witness, flags, attained", [
        # symmetric set: 27/64 at (1/8, 5/8) in row 1 and at (5/8, 1/8) in row 2
        ([[0.875, 0.875], [0.625, 0.125], [0.125, 0.625], [0.125, 0.125]],
         (0.125, 0.625), ("at", "at"), True),
        # 3/8 approached at four upper corners, in rows 1, 3 and 4
        ([[0.75, 0.625], [0.625, 0.875], [0.625, 0.375], [0.125, 0.5]],
         (0.625, 1.0), ("left", "left"), False),
    ])
    def test_earlier_slab_wins_a_tie(self, points, witness, flags, attained, monkeypatch):
        ps = PointSet(2, points)
        expect = dense_star_discrepancy(ps, UniformMeasure(2))
        assert expect[1:] == (witness, flags, attained)
        monkeypatch.setattr(engine, "_SLAB_CELLS", 1)  # one grid row per slab
        assert _summary(star_discrepancy(ps, UniformMeasure(2))) == expect

    def test_peak_memory_is_a_slab_constant(self):
        # 2050^2 = 4.2e6 cells: about 168 MB as whole-grid arrays
        ps = PointSet(2, halton(2048, 2).points)
        tracemalloc.start()
        try:
            star_discrepancy(ps, UniformMeasure(2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_peak_memory_of_a_compressed_walk(self):
        # about 1.3 MiB at N = 4096 before slabs were compressed: the gathered
        # columns, the compressed buffers and the dense re-read row stay small
        ps = PointSet(2, halton(4096, 2).points)
        tracemalloc.start()
        try:
            star_discrepancy(ps, UniformMeasure(2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("kind", ["jump-plateau-run", "ulp-run"])
    def test_one_sided_maximum_first_occurs_inside_a_run(self, kind, monkeypatch):
        # read one row per slab, the row of the supremum is compressed, and
        # the dense first occurrence is not the end of its run, so only the
        # dense re-read of that row names the witness
        ps, m = _slab_case(kind)
        value, witness, flags, attained = dense_star_discrepancy(ps, m)
        assert not attained and flags == ("left", "left")
        g0, g1 = (np.union1d([0.0, 1.0], ps.points[:, s]) for s in range(2))
        g0, g1 = np.union1d(g0, m.axis_coordinates(0)), np.union1d(g1, m.axis_coordinates(1))
        row, col = np.searchsorted(g0, witness[0]) - 1, np.searchsorted(g1, witness[1]) - 1
        held = ps.points[ps.points[:, 0] <= g0[row], 1]
        active = np.union1d(np.union1d([0.0, 1.0], m.axis_coordinates(1)), held)
        assert active.size < g1.size  # the row is compressed
        assert g1[col + 1] not in active  # the run goes on past the witness
        monkeypatch.setattr(engine, "_SLAB_CELLS", 1)
        assert _summary(star_discrepancy(ps, m)) == (value, witness, flags, attained)

    def test_analytic_callback_is_called_once_per_table_read(self):
        # one slab here, so one read of lower-corner and one of upper-corner
        # CDF values; a per-cell loop would call the callback about 5000 times
        batches = []

        def counting_cdf(a):
            batches.append(a.shape)
            return chelson_cdf(a)

        m = AnalyticCdfMeasure(2, counting_cdf)
        ps = PointSet(2, np.random.default_rng(24).random((48, 2)))
        batches.clear()
        res = star_discrepancy(ps, m)
        assert len(batches) <= 4
        assert all(len(shape) == 2 and shape[1] == 2 for shape in batches)
        assert res.value == star_discrepancy(ps, chelson_measure()).value


class TestGridWithoutMeasureCoordinates:
    """The exact grid holds no breakpoint of a product's axes and no atom of
    an analytic CDF: a nondecreasing CDF takes its supremum over a cell of
    the points' grid at the cell's corners.  So the value is, bit for bit,
    the dense maximum on the grid with those coordinates added, and the
    witness, which may move along a plateau of the CDF, realises it."""

    @staticmethod
    def _check(ps, m, extra):
        res = star_discrepancy(ps, m)
        assert res.value == dense_star_discrepancy(ps, m, extra)[0]
        assert one_sided_deviation(res.witness_box.upper, ps, m, res.witness_flags) == res.value

    @staticmethod
    def _points(rng, n, marks):
        """``n`` random points, about a third of their coordinates moved
        onto the per-axis ``marks``."""
        pts = rng.random((n, len(marks)))
        snapped = np.stack([rng.choice(np.asarray(c), n) for c in marks], axis=1)
        return PointSet(len(marks), np.where(rng.random(pts.shape) < 0.3, snapped, pts))

    @pytest.mark.parametrize("slab_cells", [None, 1])
    def test_jump_plateau_run(self, slab_cells, monkeypatch):
        if slab_cells is not None:
            monkeypatch.setattr(engine, "_SLAB_CELLS", slab_cells)
        ps, m = _slab_case("jump-plateau-run")
        self._check(ps, m, measure_coordinates(m))

    @pytest.mark.parametrize("slab_cells", [None, 1])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_random_jump_plateau_products(self, d, slab_cells, monkeypatch):
        if slab_cells is not None:
            monkeypatch.setattr(engine, "_SLAB_CELLS", slab_cells)
        rng = np.random.default_rng([d, 80])
        for _ in range(40):
            m = ProductMeasure([random_general_axis_cdf(rng) for _ in range(d)])
            marks = measure_coordinates(m)
            self._check(self._points(rng, int(rng.integers(1, 12)), marks), m, marks)

    @pytest.mark.parametrize("slab_cells", [None, 1])
    def test_analytic_atom_mixture(self, slab_cells, monkeypatch):
        if slab_cells is not None:
            monkeypatch.setattr(engine, "_SLAB_CELLS", slab_cells)
        rng = np.random.default_rng(81)
        for _ in range(40):
            c = rng.uniform(0.1, 0.9, 2)
            m = atom_mixture(c, float(rng.uniform(0.1, 0.9)))
            marks = [[c[0]], [c[1]]]
            self._check(self._points(rng, int(rng.integers(1, 12)), marks), m, marks)

    def test_signed_measure_has_no_table(self):
        # it once raised ValidationError here and UnsupportedIntegrandError
        # in the integral
        nu = random_signed_measure(np.random.default_rng(82), 2, max_atoms=5)
        with pytest.raises(UnsupportedMeasureError):
            star_discrepancy(PointSet(2, [[0.5, 0.5]]), nu)
        with pytest.raises(UnsupportedMeasureError):
            integral_under_measure(GridFunction([[0.0, 0.5, 1.0]] * 2, np.ones((3, 3))), nu)
        # nor a searched lower bound or a local deviation: the search once
        # reported 2.0 here, a "lower bound" on a D* that is not computed
        ps = PointSet(1, [[0.5]])
        nu = DiscreteSignedMeasure(1, [[0.25], [0.75]], [2.0, -1.0])
        with pytest.raises(UnsupportedMeasureError):
            random_search_lower_bound(ps, nu, 50, 0)
        with pytest.raises(UnsupportedMeasureError):
            one_sided_deviation([0.5], ps, nu)
        with pytest.raises(UnsupportedMeasureError):
            one_sided_deviation([0.5], ps, nu, ("left",))
        # a positive measure of mass 1 is a DiscreteMeasure, and has both
        m = DiscreteMeasure(DiscreteSignedMeasure(1, [[0.25], [0.75]], [0.5, 0.5]))
        assert random_search_lower_bound(ps, m, 50, 0).value <= star_discrepancy(ps, m).value
        assert one_sided_deviation([0.5], ps, m) == 0.5  # |1 - F(0.5)|


#: Measure and point kinds of the one-slab sweep.
_ONE_SLAB_MEASURES = ["uniform", "smooth-product", "jump-product", "discrete-on-points",
                      "chelson", "atom-mixture"]
_ONE_SLAB_POINTS = ["random", "eighths", "faces", "shared-rows"]


def _one_slab_case(measure, points, d, n):
    """``n`` points in ``d`` dimensions, ``"random"``, rounded to
    ``"eighths"`` (tied coordinates, points on 0 and 1), with a third of
    their coordinates moved onto the cube's ``"faces"`` (0 or 1), or in
    ``"shared-rows"`` (every second point on the axis-0 coordinate of the
    one before), and a measure of the kind ``measure``."""
    rng = np.random.default_rng([d, n, _ONE_SLAB_POINTS.index(points),
                                 _ONE_SLAB_MEASURES.index(measure)])
    pts = rng.random((n, d))
    if points == "eighths":
        pts = np.round(pts * 8) / 8
    elif points == "faces":
        face = rng.random((n, d)) < 1 / 3
        pts[face] = rng.integers(0, 2, int(face.sum()))
    elif points == "shared-rows":
        pts[1::2, 0] = pts[:n - 1:2, 0]
    if measure == "uniform":
        m = UniformMeasure(d)
    elif measure == "smooth-product":
        m = ProductMeasure([random_strict_axis_cdf(rng) for _ in range(d)])
    elif measure == "jump-product":
        m = ProductMeasure([random_general_axis_cdf(rng) for _ in range(d)])
    elif measure == "discrete-on-points":
        atoms = np.concatenate([pts[:3], rng.random((3, d))])
        w = rng.random(len(atoms)) + 0.05
        m = DiscreteMeasure.from_points(d, atoms, w / w.sum())
    elif measure == "chelson":
        m = chelson_measure()
    else:
        m = atom_mixture(pts[0], float(rng.uniform(0.1, 0.9)))  # an atom on a point
    return PointSet(d, pts), m


class TestOneSlab:
    """Grids that fit one slab at the default ``_SLAB_CELLS`` are read in
    that one slab, on every column, with no streaming bookkeeping: equal
    to the whole-grid reduction bit for bit, for every measure kind."""

    @pytest.mark.parametrize("points", _ONE_SLAB_POINTS)
    @pytest.mark.parametrize("measure, d, n", [
        (measure, d, n) for measure in _ONE_SLAB_MEASURES
        for d, n in [(1, 1), (1, 5), (1, 64), (2, 1), (2, 5), (2, 32), (2, 64),
                     (3, 1), (3, 5), (3, 32)]
        if d == 2 or measure not in ("chelson", "atom-mixture")  # two-dimensional
    ])
    def test_matches_dense_reduction(self, measure, d, n, points):
        ps, m = _one_slab_case(measure, points, d, n)
        grids = engine._critical_grids(ps, m, engine.CELL_BUDGET)
        assert np.prod([g.size for g in grids]) <= engine._SLAB_CELLS
        assert _summary(star_discrepancy(ps, m)) == dense_star_discrepancy(ps, m)

    @pytest.mark.parametrize("points, orthant", [("random", 1), ("shared-rows", 0)])
    def test_long_rows_count_from_orthants_in_row_order(self, points, orthant, monkeypatch):
        # d = 3, N = 32: one slab of 34 rows of 34^2 >= _ROW_LOOP_CELLS cells,
        # counted from the points' orthants in row order unless a row holds
        # several points
        calls = []

        def spy(*args):
            calls.append(args)
            return orthant_counts(*args)

        orthant_counts = engine._orthant_counts
        monkeypatch.setattr(engine, "_orthant_counts", spy)
        ps, m = _one_slab_case("uniform", points, 3, 32)
        assert _summary(star_discrepancy(ps, m)) == dense_star_discrepancy(ps, m)
        assert len(calls) == orthant


class TestWitnessBox:
    """The witness boxes are built from grid or pool coordinates without
    the validating constructor; each equals the box it would build."""

    @pytest.mark.parametrize("kind", _SLAB_KINDS)
    def test_equals_the_validated_box(self, kind):
        ps, m = _slab_case(kind)
        for res in (star_discrepancy(ps, m), random_search_lower_bound(ps, m, 300, 5)):
            box = res.witness_box
            assert box == Box(box.lower, box.upper)
            assert all(type(x) is float for x in box.lower + box.upper)
            assert box.lower == (0.0,) * ps.dimension

    @pytest.mark.parametrize("lower, upper", [
        ((0.0, float("nan")), (1.0, 1.0)),
        ((0.0, 0.0), (1.0, float("nan"))),
        ((0.0, -0.5), (1.0, 1.0)),
        ((0.0, 0.0), (1.5, 1.0)),
        ((0.6, 0.0), (0.5, 1.0)),
    ])
    def test_public_constructor_still_validates(self, lower, upper):
        with pytest.raises(ValidationError):
            Box(lower, upper)


#: The sizes 2^m - 1, 2^m, 2^m + 1 of the unit sweep, per dimension: the
#: walk counts in units of 2^-m when N = 2^m, in whole points otherwise.
_UNIT_SIZES = {1: range(5, 12), 2: range(5, 12), 3: range(5, 8), 4: range(5, 6)}


def _unit_case(kind, d, n, points, rng):
    """``n`` points in ``d`` dimensions, random, rounded to eighths (a few
    short rows, each holding many points) or ``"paired"`` (random, with every
    16th point moved onto the axis-0 coordinate of the point before it, so
    that some long rows hold two points), and a measure of class ``kind``.
    Product and discrete measures add rows that hold no point."""
    pts = rng.random((n, d))
    if points == "eighths":
        pts = np.round(pts * 8) / 8
    elif points == "paired":
        pts[1::16, 0] = pts[:-1:16, 0]
    if kind == "uniform":
        m = UniformMeasure(d)
    elif kind == "product":
        m = ProductMeasure([random_general_axis_cdf(rng) for _ in range(d)])
    elif kind == "discrete":
        m = random_discrete_probability(rng, d, max_atoms=8)
    else:
        m = chelson_measure()
    return PointSet(d, pts), m


class TestCountUnits:
    """The walk's counts in units of ``1/N`` when ``N`` is a power of two,
    in whole points otherwise, and its d = 2 rows built by one add of a
    window of the step row: equal to the whole-grid reduction, bit for bit,
    on either side of each power of two and at every slab size."""

    @pytest.mark.parametrize("kind, d", [(kind, d) for kind in ["uniform", "product", "discrete"]
                                         for d in _UNIT_SIZES] + [("chelson", 2)])
    def test_matches_dense_reduction_around_powers_of_two(self, kind, d, monkeypatch):
        rng = np.random.default_rng(d)
        # up to 2^10 + 1 Chelson points, whose rows reach the orthant and
        # step-window counts
        exponents = range(5, 11) if kind == "chelson" else _UNIT_SIZES[d]
        for e, k in ((e, k) for e in exponents for k in (-1, 0, 1)):
            # random and paired points take turns, so that each size class
            # sees both; past 2^9 points a slab of 97 cells is one row but
            # for the first short rows, as a slab of 1 cell is
            for points in ["eighths", ("random", "paired")[(e + k) % 2]]:
                ps, m = _unit_case(kind, d, 2**e + k, points, rng)
                expect = dense_star_discrepancy(ps, m)
                for slab_cells in [2**16, 97, 1][:3 if e < 10 else 2]:
                    monkeypatch.setattr(engine, "_SLAB_CELLS", slab_cells)
                    got = _summary(star_discrepancy(ps, m))
                    assert got == expect, (ps.n, points, slab_cells)


class TestSeededKernel:
    """The walk's short or crowded slabs are ``measures._prefix_table`` of
    their points, seeded on the first row with the atoms of the carried row:
    bit for bit the carried row plus the prefix sums of the slab's histogram,
    counted in int64."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
    def test_matches_an_int64_reference(self, d, seed, crowded, power_of_two):
        rng = np.random.default_rng(seed)
        n = {1: 64, 2: 256, 3: 32, 4: 8}[d] + (0 if power_of_two else int(rng.integers(1, 7)))
        pts = rng.random((n, d))
        if crowded:  # about two points to an axis-0 row
            pts[:, 0] = np.round(pts[:, 0] * (n // 2)) / (n // 2)
        carried, slabs = [], []

        def differences(values, pin=None):
            carried.append(values.copy())
            return differences_of(values, pin)

        def table(out, cells, weights, seed=None):
            carry = None if seed is None else carried.pop()
            out = prefix_table(out, cells, weights, seed)
            slabs.append((carry, [c.copy() for c in cells], weights, out.copy()))
            return out

        differences_of, prefix_table = engine._differences, engine._prefix_table
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "_differences", differences)
            mp.setattr(engine, "_prefix_table", table)
            # many slabs, so nonzero carries; in d = 2 slabs of several
            # crowded rows of 256 cells or more, which the kernel adds one
            # row at a time
            mp.setattr(engine, "_SLAB_CELLS", {1: 16, 2: 1024}.get(d, 64))
            star_discrepancy(PointSet(d, pts), UniformMeasure(d))
        assert any(carry is not None and carry.any() for carry, *_ in slabs)
        for carry, cells, unit, got in slabs:
            assert unit == (1.0 / n if power_of_two else 1.0)
            want = np.zeros(got.shape, dtype=np.int64)
            np.add.at(want, tuple(cells), 1)
            for s in range(d):
                want = np.cumsum(want, axis=s)
            if carry is not None:
                assert np.array_equal(carry / unit, np.round(carry / unit))
                want += (carry / unit).astype(np.int64)  # the carried row, on every row
            assert got.tobytes() == (want * unit).tobytes()


class TestWitnessRecheck:
    """The one-sided deviation at an exact witness, with its flags, is the
    reported value itself: the walk's counts in units of ``2^-m`` or whole
    points and its CDF tables give the floats the point evaluation gives.
    (A discrete measure's table sums its atoms in another order.)"""

    @pytest.mark.parametrize("slab_cells", [None, 97])
    @pytest.mark.parametrize("kind", ["uniform", "product", "chelson"])
    def test_equals_the_value(self, kind, slab_cells, monkeypatch):
        if slab_cells is not None:  # streamed, with witness rows read again
            monkeypatch.setattr(engine, "_SLAB_CELLS", slab_cells)
        rng = np.random.default_rng(["uniform", "product", "chelson"].index(kind) + 40)
        for case in range(50):
            d = 2 if kind == "chelson" else case % 3 + 1
            e = int(rng.integers(0, 9 if d < 3 else 6))
            n = max(1, 2**e + int(rng.integers(-1, 2)))  # 2^e - 1, 2^e, 2^e + 1
            ps, m = _unit_case(kind, d, n, ("random", "eighths", "paired")[case % 3], rng)
            res = star_discrepancy(ps, m)
            local = one_sided_deviation(res.witness_box.upper, ps, m, res.witness_flags)
            assert local == res.value, (n, d, res)


class TestRandomSearch:
    def test_never_exceeds_exact(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            d = int(rng.integers(1, 3))
            ps = random_point_set(rng, d, max_points=12)
            m = random_discrete_probability(rng, d, max_atoms=5)
            exact = star_discrepancy(ps, m).value
            search = random_search_lower_bound(ps, m, trials=500, seed=int(rng.integers(1 << 30)))
            assert search.value <= exact + TOL

    def test_snapping_finds_the_unattained_supremum(self):
        ps = PointSet(2, [[56 / 81, 20 / 23]])
        res = random_search_lower_bound(ps, UniformMeasure(2), trials=10_000, seed=123)
        assert res.value >= 20 / 23 - 1e-9

    def test_deterministic_for_fixed_seed(self):
        ps = PointSet(2, [[0.3, 0.7], [0.6, 0.2]])
        m = UniformMeasure(2)
        a = random_search_lower_bound(ps, m, trials=1, seed=42)
        b = random_search_lower_bound(ps, m, trials=1, seed=42)
        assert a.value == b.value
        assert a.witness_box.upper == b.witness_box.upper
        assert a.witness_flags == b.witness_flags

    def test_trials_must_be_positive(self):
        with pytest.raises(ValidationError):
            random_search_lower_bound(PointSet(1, [[0.5]]), UniformMeasure(1), 0, 1)

    @pytest.mark.parametrize("seed", [-1, -(2**70)])
    def test_negative_seed_is_a_validation_error(self, seed):
        with pytest.raises(ValidationError, match="seed"):
            random_search_lower_bound(PointSet(1, [[0.5]]), UniformMeasure(1), 5, seed)

    @pytest.mark.parametrize("seed", [True, None, [1, 2], 1.5], ids=repr)
    def test_seed_is_a_whole_number(self, seed):
        # read like every count: seed=None would draw a new bound each call
        with pytest.raises(ValidationError, match="^seed: expected an integer"):
            random_search_lower_bound(PointSet(1, [[0.5]]), UniformMeasure(1), 5, seed)

    @pytest.mark.parametrize("seed", [2.0, np.int64(2)], ids=repr)
    def test_an_integral_seed_is_that_integer(self, seed):
        ps = PointSet(2, [[0.3, 0.7], [0.6, 0.2]])
        expect = _summary(random_search_lower_bound(ps, chelson_measure(), 300, 2))
        assert _summary(random_search_lower_bound(ps, chelson_measure(), 300, seed)) == expect

    def test_trials_then_measure_then_seed(self):
        ps = PointSet(1, [[0.5]])
        with pytest.raises(ValidationError, match="^trials"):
            random_search_lower_bound(ps, UniformMeasure(2), 0, None)
        with pytest.raises(DimensionMismatchError):
            random_search_lower_bound(ps, UniformMeasure(2), 5, None)

    @pytest.mark.parametrize("slab_cells", [None, 97, 1])
    @pytest.mark.parametrize("kind", ["uniform", "product", "discrete", "chelson"])
    def test_matches_the_per_trial_loop(self, kind, slab_cells, monkeypatch):
        # chunks of about _SLAB_CELLS / N corners; 1 makes every trial a chunk
        if slab_cells is not None:
            monkeypatch.setattr(engine, "_SLAB_CELLS", slab_cells)
        rng = np.random.default_rng(["uniform", "product", "discrete", "chelson"].index(kind) + 30)
        for d in [2] if kind == "chelson" else range(1, 7):
            pts = rng.random((int(rng.integers(1, 60)), d))
            if rng.random() < 0.5:
                pts = np.round(pts * 8) / 8  # ties, and points on the faces
            ps = PointSet(d, pts)
            if kind == "uniform":
                m = UniformMeasure(d)
            elif kind == "product":
                m = ProductMeasure([random_general_axis_cdf(rng) for _ in range(d)])
            elif kind == "discrete":
                m = random_discrete_probability(rng, d, max_atoms=12)
            else:
                m = chelson_measure()
            # the last search runs past its first block of draws
            for seed, extra in ((0, 0), (7, 0), (int(rng.integers(2**40)), engine._SEARCH_BLOCK)):
                trials = extra + int(rng.integers(1, 200))
                expect = reference_random_search(ps, m, trials, seed)
                assert _summary(random_search_lower_bound(ps, m, trials, seed)) == expect

    def test_more_trials_never_lower_the_bound(self):
        # a seed's first trials are the same corners whatever the trial count
        rng = np.random.default_rng(34)
        block = engine._SEARCH_BLOCK
        for d, measure in [(2, chelson_measure()), (3, UniformMeasure(3)),
                           (4, random_discrete_probability(rng, 4, max_atoms=8))]:
            ps = PointSet(d, rng.random((40, d)))
            seed = int(rng.integers(2**40))
            results = [random_search_lower_bound(ps, measure, trials, seed)
                       for trials in (1, 50, block - 1, block, block + 1, 3 * block + 7)]
            for fewer, more in zip(results, results[1:]):
                assert more.value >= fewer.value
                if more.value == fewer.value:  # the earlier trial keeps the maximum
                    assert _summary(more) == _summary(fewer)

    def test_memory_is_one_block_whatever_the_trial_count(self):
        ps = PointSet(3, np.random.default_rng(35).random((8, 3)))
        m = UniformMeasure(3)
        # a block's float arrays: selectors, snapped and free coordinates, corners
        block_bytes = 4 * engine._SEARCH_BLOCK * ps.dimension * 8
        random_search_lower_bound(ps, m, 1, 1)  # first-call allocations outside the count
        peaks = []
        for trials in (10**3, 10**5):
            tracemalloc.start()
            try:
                random_search_lower_bound(ps, m, trials, 1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # 10^5 trials of 3 float coordinates alone would take 2.4 MB
        assert peaks[1] <= peaks[0] + block_bytes

    def test_one_sided_deviation_matches_the_per_axis_count(self):
        rng = np.random.default_rng(33)
        for d in range(1, 5):
            ps = PointSet(d, np.round(rng.random((30, d)) * 4) / 4)
            m = ProductMeasure([random_general_axis_cdf(rng) for _ in range(d)])
            for _ in range(40):
                a = np.round(rng.random(d) * 8) / 8
                flags = tuple(rng.choice(["at", "left"], d))
                assert one_sided_deviation(a, ps, m, flags) == \
                    reference_one_sided_deviation(a, ps, m, flags)

    def test_discrete_search_names_closed_boxes(self):
        # a discrete measure's atoms and the points lie on the pool
        # coordinates, so the best corner is named as a closed box with the
        # same count and F: attained, and re-checked to the same float
        for ps, m in _discrete_cases():
            res = random_search_lower_bound(ps, m, 256, 0)
            assert res.attained and res.witness_flags == ("at",) * ps.dimension
            assert one_sided_deviation(res.witness_box.upper, ps, m) == res.value
            assert _summary(res) == reference_random_search(ps, m, 256, 0)

    def test_witness_reproduces_value(self):
        ps = PointSet(2, [[0.3, 0.7], [0.6, 0.2], [0.9, 0.9]])
        m = UniformMeasure(2)
        res = random_search_lower_bound(ps, m, trials=200, seed=7)
        assert one_sided_deviation(
            res.witness_box.upper, ps, m, res.witness_flags
        ) == pytest.approx(res.value, abs=TOL)


class TestPointSetValidation:
    def test_repr(self):
        assert repr(PointSet(3, np.full((5, 3), 0.5))) == "PointSet(d=3, n=5)"

    def test_rejects_out_of_cube(self):
        with pytest.raises(ValidationError):
            PointSet(1, [[1.5]])

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            PointSet(1, np.empty((0, 1)))

    @pytest.mark.parametrize("dimension, points", [
        (2, [0.1, 0.2, 0.3]),  # flat coordinates that do not fill whole points
        (2**60, []),  # no points, and no room for one
        (2, np.empty((0, 3))),
    ])
    def test_malformed_shapes_are_validation_errors(self, dimension, points):
        with pytest.raises(ValidationError):
            PointSet(dimension, points)

    def test_mixed_closed_count_is_not_a_lower_bound(self):
        # a closed count with a left-limit F can exceed the true supremum,
        # which is why the search uses the fully one-sided evaluation instead
        ps = PointSet(1, [[0.5]])
        m = DiscreteMeasure.from_points(1, ps.points, np.full(ps.n, 1 / ps.n))
        mixed = abs(1 / ps.n - m.cdf_one_sided((0.5,), ("left",)))
        assert mixed == 1.0  # exceeds the exact value 0
        assert star_discrepancy(ps, m).value == 0.0
        assert one_sided_deviation((0.5,), ps, m, ("left",)) == 0.0
