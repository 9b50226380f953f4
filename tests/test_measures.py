"""Measure representations: CDF evaluation, Jordan decomposition, total
variation, and box masses via inclusion-exclusion."""

from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nuqmc import (
    AnalyticCdfMeasure,
    Atom,
    AxisCdf,
    Box,
    DiscreteMeasure,
    DiscreteSignedMeasure,
    DimensionMismatchError,
    GridFunction,
    PointSet,
    ProductMeasure,
    UniformMeasure,
    ValidationError,
    UnsupportedMeasureError,
    box_indicator,
    box_measure,
    cdf_eval,
    cdf_one_sided,
    chelson_cdf,
    chelson_conditional,
    chelson_measure,
    conditional_transform_2d,
    corner_indicator,
    jordan_decompose_measure,
    kh_certificate,
    local_discrepancy,
    one_sided_deviation,
    pseudo_inverse,
    star_discrepancy,
    total_variation,
)
from nuqmc.measures import _covering_index, _upper_axis
from helpers import (
    chelson_box_mass,
    random_discrete_probability,
    random_general_axis_cdf,
    random_signed_measure,
    reference_axis_values,
    reference_cdf_one_sided,
    reference_signed_measure,
)

TOL = 1e-12


class TestCdfEval:
    def test_uniform_box(self):
        assert cdf_eval(UniformMeasure(2), (1.0, 0.8)) == pytest.approx(0.8, abs=TOL)

    def test_chelson_box(self):
        assert cdf_eval(chelson_measure(), (1.0, 0.8)) == pytest.approx(22 / 25, abs=TOL)

    def test_atom_outside_box(self):
        m = DiscreteMeasure(DiscreteSignedMeasure(2, [((0.5, 0.5), 1.0)]))
        assert cdf_eval(m, (0.25, 1.0)) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            cdf_eval(UniformMeasure(2), (0.5,))

    def test_normalization_at_the_far_corner(self):
        rng = np.random.default_rng(11)
        specs = [
            UniformMeasure(3),
            random_discrete_probability(rng, 2),
            ProductMeasure([random_general_axis_cdf(rng) for _ in range(2)]),
            chelson_measure(),
        ]
        for m in specs:
            assert cdf_eval(m, np.ones(m.dimension)) == pytest.approx(1.0, abs=TOL)

    def test_monotone_in_every_coordinate(self):
        rng = np.random.default_rng(12)
        specs = [
            UniformMeasure(2),
            random_discrete_probability(rng, 2),
            ProductMeasure([random_general_axis_cdf(rng) for _ in range(2)]),
            chelson_measure(),
        ]
        for m in specs:
            for _ in range(200):
                a = rng.random(2)
                b = a.copy()
                s = rng.integers(2)
                b[s] = rng.uniform(a[s], 1.0)
                assert cdf_eval(m, b) >= cdf_eval(m, a) - TOL


class TestJordanDecomposition:
    def test_sign_split(self):
        nu = DiscreteSignedMeasure(1, [((0.5,), 2.0), ((0.75,), -1.0)])
        pos, neg = jordan_decompose_measure(nu)
        assert pos.atoms == (type(pos.atoms[0])((0.5,), 2.0),)
        assert [(a.location, a.weight) for a in neg.atoms] == [((0.75,), 1.0)]

    def test_all_positive(self):
        nu = DiscreteSignedMeasure(1, [((0.2,), 1.0), ((0.8,), 0.5)])
        pos, neg = jordan_decompose_measure(nu)
        assert len(neg) == 0
        assert np.array_equal(pos.locations, nu.locations)
        assert np.array_equal(pos.weights, nu.weights)

    def test_cancellation_on_merge(self):
        nu = DiscreteSignedMeasure(1, [((0.5,), 1.0), ((0.5,), -1.0)])
        assert len(nu) == 0
        pos, neg = jordan_decompose_measure(nu)
        assert len(pos) == 0 and len(neg) == 0

    def test_supports_disjoint_and_reconstruct(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            nu = random_signed_measure(rng, 2, max_atoms=10)
            pos, neg = jordan_decompose_measure(nu)
            pos_locs = {tuple(l) for l in pos.locations}
            neg_locs = {tuple(l) for l in neg.locations}
            assert not pos_locs & neg_locs
            rebuilt = DiscreteSignedMeasure(
                2,
                list(zip(pos.locations, pos.weights))
                + list(zip(neg.locations, -neg.weights)),
            )
            assert np.array_equal(rebuilt.locations, nu.locations)
            assert np.allclose(rebuilt.weights, nu.weights)


class TestTotalVariation:
    def test_two_atoms(self):
        assert total_variation(
            DiscreteSignedMeasure(1, [((0.5,), 2.0), ((0.75,), -1.0)])
        ) == 3.0

    def test_empty(self):
        assert total_variation(DiscreteSignedMeasure(1, [])) == 0.0

    def test_matches_jordan_masses(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            nu = random_signed_measure(rng, 3, max_atoms=10)
            pos, neg = jordan_decompose_measure(nu)
            assert total_variation(nu) == pytest.approx(pos.mass + neg.mass, abs=0.0)


class TestBoxMeasure:
    def test_uniform_quarter(self):
        assert box_measure(UniformMeasure(2), (0, 0), (0.5, 0.5)) == pytest.approx(0.25)

    def test_open_side_excludes_atom(self):
        m = DiscreteMeasure(DiscreteSignedMeasure(2, [((0.5, 0.5), 1.0)]))
        assert box_measure(m, (0, 0), (0.5, 0.5), upper_open=(True, True)) == 0.0
        assert box_measure(m, (0, 0), (0.5, 0.5)) == 1.0

    def test_chelson_upper_right_corner_box(self):
        # half-open (a, 1] via inclusion-exclusion vs. quadrature of the density
        m = chelson_measure()
        a = (7 / 9, 20 / 27)
        got = box_measure(m, a, (1.0, 1.0), lower_open=(True, True))
        by_cdf = (
            1.0
            - cdf_eval(m, (1.0, a[1]))
            - cdf_eval(m, (a[0], 1.0))
            + cdf_eval(m, a)
        )
        assert got == pytest.approx(by_cdf, abs=TOL)
        assert got == pytest.approx(chelson_box_mass(a, (1.0, 1.0)), abs=1e-9)

    def test_chelson_random_boxes_match_quadrature(self):
        rng = np.random.default_rng(21)
        m = chelson_measure()
        for _ in range(100):
            lo = rng.random(2) * 0.9
            hi = lo + rng.random(2) * (1.0 - lo)
            assert box_measure(m, lo, hi) == pytest.approx(
                chelson_box_mass(lo, hi), abs=1e-9
            )

    def test_half_open_split_sums_to_one(self):
        # any half-open split of the cube must carry the full mass, atoms included
        rng = np.random.default_rng(31)
        for _ in range(20):
            m = random_discrete_probability(rng, 2, max_atoms=12)
            cuts = [
                np.unique(np.concatenate([[0.0, 1.0], rng.random(rng.integers(1, 4))]))
                for _ in range(2)
            ]
            total = 0.0
            for i in range(cuts[0].size - 1):
                for j in range(cuts[1].size - 1):
                    lo = (cuts[0][i], cuts[1][j])
                    hi = (cuts[0][i + 1], cuts[1][j + 1])
                    last = (i == cuts[0].size - 2, j == cuts[1].size - 2)
                    total += box_measure(
                        m, lo, hi, upper_open=tuple(not x for x in last)
                    )
            assert total == pytest.approx(1.0, abs=TOL)

    def test_degenerate_axis_measures_the_slab(self):
        m = DiscreteMeasure(DiscreteSignedMeasure(2, [((0.5, 0.25), 0.5), ((0.5, 0.75), 0.5)]))
        assert box_measure(m, (0.5, 0.0), (0.5, 0.5)) == pytest.approx(0.5)

    def test_analytic_without_limits_raises(self):
        m = AnalyticCdfMeasure(1, lambda a: a[:, 0], continuous=False)
        with pytest.raises(UnsupportedMeasureError):
            box_measure(m, (0.2,), (0.7,), upper_open=(True,))

    def test_additive_across_a_splitting_plane(self):
        rng = np.random.default_rng(33)
        specs = [
            UniformMeasure(2),
            random_discrete_probability(rng, 2, max_atoms=10),
            ProductMeasure([random_general_axis_cdf(rng) for _ in range(2)]),
            chelson_measure(),
        ]
        for m in specs:
            for _ in range(50):
                lo = rng.random(2) * 0.8
                hi = lo + rng.random(2) * (1.0 - lo)
                axis = int(rng.integers(2))
                cut = rng.uniform(lo[axis], hi[axis])
                mid_hi = hi.copy()
                mid_hi[axis] = cut
                mid_lo = lo.copy()
                mid_lo[axis] = cut
                half_open = [False, False]
                half_open[axis] = True  # [lo, cut) plus the closed [cut, hi]
                whole = box_measure(m, lo, hi)
                parts = box_measure(m, lo, mid_hi, upper_open=tuple(half_open)) + \
                    box_measure(m, mid_lo, hi)
                assert parts == pytest.approx(whole, abs=TOL)


class TestAxisCdf:
    def test_identity(self):
        ax = AxisCdf.identity()
        assert ax.value(0.3) == pytest.approx(0.3)
        assert ax.left_value(0.3) == pytest.approx(0.3)
        assert ax.is_continuous

    def test_jump_and_plateau(self):
        # mass 1/2 spread on [0, 1/4], atom of 1/2 at 3/4
        ax = AxisCdf([0.0, 0.25, 0.75, 1.0], [0.0, 0.5, 1.0, 1.0], [0.0, 0.5, 0.5, 1.0])
        assert ax.value(0.75) == 1.0
        assert ax.left_value(0.75) == 0.5
        assert ax.value(0.5) == 0.5  # plateau
        assert not ax.is_continuous

    def test_validation(self):
        with pytest.raises(ValidationError):
            AxisCdf([0.0, 0.5], [0.0, 1.0])  # must end at 1
        with pytest.raises(ValidationError):
            AxisCdf([0.0, 1.0], [0.5, 0.4])  # decreasing

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0.01, 0.99), min_size=1, max_size=6), st.floats(0, 1), st.floats(0, 1))
    def test_hypothesis_monotone(self, interior, x, y):
        bp = np.unique(np.concatenate([[0.0, 1.0], interior]))
        inc = np.linspace(1, 2, bp.size - 1)
        v = np.concatenate([[0.0], np.cumsum(inc)])
        v /= v[-1]
        v[-1] = 1.0
        ax = AxisCdf(bp, v)
        lo, hi = min(x, y), max(x, y)
        assert ax.value(hi) >= ax.value(lo)
        assert ax.value(lo) >= ax.left_value(lo)


def test_one_sided_left_limit_on_atoms():
    m = DiscreteMeasure(DiscreteSignedMeasure(1, [((0.5,), 1.0)]))
    assert cdf_one_sided(m, (0.5,), ("left",)) == 0.0
    assert cdf_one_sided(m, (0.5,), ("at",)) == 1.0


def test_atoms_merge_and_drop_zeros():
    nu = DiscreteSignedMeasure(2, [((0.5, 0.5), 1.0), ((0.5, 0.5), 2.0), ((0.1, 0.1), 0.0)])
    assert len(nu) == 1
    assert nu.weights[0] == 3.0


class TestSignedMeasureArrays:
    """The array constructor against the per-atom merge loop it replaced:
    equal locations and weights, bit for bit."""

    @staticmethod
    def _atoms(rng, d):
        pool = rng.choice([0.0, 0.25, 0.5, 1.0, *rng.random(4)], size=(8, d))
        pool[0] = 0.0
        rows = rng.integers(0, pool.shape[0], size=160)  # runs of about 20 per location
        locs = pool[rows]
        # weights over 16 orders of magnitude: a sum's last bit depends on its order
        ws = rng.standard_normal(rows.size) * 10.0 ** rng.integers(-8, 8, size=rows.size)
        # a location whose weights cancel to an exact 0
        locs = np.vstack([locs, np.full((3, d), 0.75)])
        ws = np.concatenate([ws, [0.5, 0.25, -0.75]])
        # -0.0 coordinates at the origin, where the pool already has 0.0
        neg = np.flatnonzero(rows == 0)[::2]
        locs[neg] = -0.0
        order = rng.permutation(ws.size)
        locs, ws = locs[order], ws[order]
        return [
            Atom(tuple(loc), w) if i % 3 == 0 else (list(loc) if i % 3 == 1 else loc, w)
            for i, (loc, w) in enumerate(zip(locs, ws))
        ], locs, ws

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_matches_the_per_atom_loop(self, d):
        rng = np.random.default_rng(300 + d)
        for _ in range(5):
            atoms, locs, ws = self._atoms(rng, d)
            ref_locs, ref_ws = reference_signed_measure(d, atoms)
            for nu in (DiscreteSignedMeasure(d, atoms),
                       DiscreteSignedMeasure._from_arrays(d, locs, ws)):
                assert np.array_equal(nu.locations, ref_locs)
                assert np.array_equal(np.signbit(nu.locations), np.signbit(ref_locs))
                assert np.array_equal(nu.weights, ref_ws)
                assert not np.any(np.all(nu.locations == 0.75, axis=1))

    def test_empty(self):
        for nu in (DiscreteSignedMeasure(3, []),
                   DiscreteSignedMeasure._from_arrays(3, np.empty((0, 3)), np.empty(0))):
            assert nu.locations.shape == (0, 3)
            assert nu.weights.shape == (0,)
            assert nu.mass == 0.0

    @pytest.mark.parametrize("atoms", [
        [((0.5,), 1.0)],
        [((0.5, 0.5, 0.5), 1.0)],
        [((0.5, 0.5), 1.0), ((0.5,), 1.0)],
    ], ids=["short", "long", "ragged"])
    def test_wrong_location_length(self, atoms):
        with pytest.raises(DimensionMismatchError):
            DiscreteSignedMeasure(2, atoms)

    def test_wrong_array_shape(self):
        with pytest.raises(DimensionMismatchError):
            DiscreteSignedMeasure._from_arrays(2, np.full((3, 3), 0.5), np.ones(3))
        with pytest.raises(DimensionMismatchError):
            DiscreteSignedMeasure._from_arrays(2, np.full((3, 2), 0.5), np.ones(4))

    @pytest.mark.parametrize("loc, w", [
        ((0.5, np.nan), 1.0), ((np.inf, 0.5), 1.0), ((0.5, 1.5), 1.0), ((-0.1, 0.5), 1.0),
        ((0.5, 0.5), np.nan), ((0.5, 0.5), np.inf),
    ], ids=["nan", "inf", "above", "below", "nan-weight", "inf-weight"])
    def test_invalid_atom(self, loc, w):
        with pytest.raises(ValidationError) as err:
            DiscreteSignedMeasure(2, [((0.25, 0.25), 1.0), (loc, w)])
        assert err.type is ValidationError


class TestAxisCdfFinite:
    @pytest.mark.parametrize("breakpoints, values, values_left", [
        ([0.0, 0.5, 1.0], [0.0, np.nan, 1.0], None),
        ([0.0, 0.5, 1.0], [0.0, 0.5, 1.0], [0.0, np.nan, 1.0]),
        ([0.0, np.nan, 1.0], [0.0, 0.5, 1.0], None),
        ([0.0, 0.5, 1.0], [0.0, np.inf, 1.0], None),
    ], ids=["nan-value", "nan-left-value", "nan-breakpoint", "inf-value"])
    def test_non_finite_data_is_rejected(self, breakpoints, values, values_left):
        with pytest.raises(ValidationError):
            AxisCdf(breakpoints, values, values_left)


class TestPointCdf:
    """``cdf``/``cdf_one_sided`` are one-row calls into ``_cdf_points``: the
    same floats as the per-axis evaluation they replaced, and the same as
    the rows of a batched call."""

    @pytest.mark.parametrize("kind", ["uniform", "product", "discrete", "signed", "empty",
                                      "chelson"])
    def test_scalar_and_batched_match_the_per_axis_evaluation(self, kind):
        rng = np.random.default_rng(["uniform", "product", "discrete", "signed", "empty",
                                     "chelson"].index(kind) + 50)
        for d in [2] if kind == "chelson" else range(1, 5):
            if kind == "uniform":
                m = UniformMeasure(d)
            elif kind == "product":
                m = ProductMeasure([random_general_axis_cdf(rng) for _ in range(d)])
            elif kind == "discrete":
                m = random_discrete_probability(rng, d, max_atoms=30)
            elif kind == "signed":
                m = random_signed_measure(rng, d, max_atoms=30)
            elif kind == "empty":
                m = DiscreteSignedMeasure(d, [])
            else:
                m = chelson_measure()
            # corners on the atoms and breakpoints, their neighbours, and 0 and 1
            coords = [np.concatenate([m.axis_coordinates(s), rng.random(5), [0.0, 1.0]])
                      for s in range(d)]
            points = np.stack([rng.choice(c, 60) for c in coords], axis=1)
            points = np.where(rng.random(points.shape) < 0.2,
                              np.nextafter(points, rng.choice([0.0, 1.0], points.shape)), points)
            left = rng.random(points.shape) < 0.5
            batched = m._cdf_points(points, left)
            for a, row, value in zip(points, left, batched):
                flags = tuple("left" if f else "at" for f in row)
                expect = reference_cdf_one_sided(m, a, flags)
                assert m.cdf_one_sided(a, flags) == expect
                assert value == expect
                assert m.cdf(a) == reference_cdf_one_sided(m, a, ("at",) * d)

    def test_axis_values_at_a_mix_of_flags(self):
        # one pass over a mixed flag array equals the two separate evaluations
        rng = np.random.default_rng(56)
        for _ in range(50):
            ax = random_general_axis_cdf(rng)
            xs = np.concatenate([ax.breakpoints, rng.random(20), [0.0, 1.0]])
            xs = np.concatenate([xs, np.nextafter(xs, 0.0), np.nextafter(xs, 1.0)])
            left = rng.random(xs.size) < 0.5
            expect = np.where(left, reference_axis_values(ax, xs, True),
                              reference_axis_values(ax, xs, False))
            assert np.array_equal(ax._one_sided_at(xs, left), expect)
            assert np.array_equal(ax.values_at(xs), reference_axis_values(ax, xs, False))
            assert np.array_equal(ax.left_values_at(xs), reference_axis_values(ax, xs, True))


class TestCdfTableColumns:
    """A ``_cdf_table`` rows reader given a column selection writes the full
    table's entries at those columns, bit for bit."""

    @pytest.mark.parametrize("kind", ["uniform", "product", "discrete", "chelson"])
    def test_selected_columns_equal_the_gathered_table(self, kind):
        rng = np.random.default_rng(["uniform", "product", "discrete", "chelson"].index(kind) + 70)
        for d in [2] if kind == "chelson" else [1, 2, 3]:
            if kind == "uniform":
                m = UniformMeasure(d)
            elif kind == "product":
                m = ProductMeasure([random_general_axis_cdf(rng) for _ in range(d)])
            elif kind == "discrete":
                m = random_discrete_probability(rng, d, max_atoms=30)
            else:
                m = chelson_measure()
            grids = [np.union1d(np.append(rng.random(6), [0.0, 1.0]), m.axis_coordinates(s))
                     for s in range(d)]
            # the lower corners, and the upper corners approached from below
            for coords, left in [(grids, [np.zeros(g.size, dtype=bool) for g in grids]),
                                 zip(*(_upper_axis(g[1:]) for g in grids))]:
                coords, left = list(coords), list(left)
                rows = m._cdf_table(coords, left)
                full = rows(0, coords[0].size, np.empty([c.size for c in coords]),
                            [np.arange(c.size) for c in coords[1:]])
                must = [np.empty(0, dtype=np.intp) for _ in range(d)]
                if kind == "discrete":  # every atom column selected: no gap holds two
                    must = [_covering_index(c, f, m.support.locations[:, s])
                            for s, (c, f) in enumerate(zip(coords, left))]
                for _ in range(10):
                    start = int(rng.integers(coords[0].size))
                    stop = int(rng.integers(start, coords[0].size)) + 1
                    cols = [np.union1d(rng.choice(c.size, int(rng.integers(1, c.size + 1))),
                                       j[j < c.size]) for c, j in zip(coords[1:], must[1:])]
                    out = np.empty((stop - start,) + tuple(c.size for c in cols))
                    expect = full[start:stop][np.ix_(np.arange(stop - start), *cols)]
                    assert np.array_equal(rows(start, stop, out, cols), expect)

    @pytest.mark.parametrize("last", [255, 256, 8191, 8192, 9000])
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("kind", ["uniform", "product"])
    def test_product_table_at_the_edges_of_the_row_buffer(self, kind, d, last):
        # last axes of 256..8191 entries are read with a ufunc buffer of one
        # row; the product is the same float either way
        rng = np.random.default_rng([d, last])
        shape = (3, 4)[:d - 1] + (last,)
        coords = [np.union1d(rng.random(n - 2), [0.0, 1.0]) for n in shape]
        left = [rng.random(c.size) < 0.5 for c in coords]
        if kind == "uniform":
            m, factors = UniformMeasure(d), coords
        else:
            m = ProductMeasure([random_general_axis_cdf(rng) for _ in range(d)])
            factors = [ax._one_sided_at(c, f) for ax, c, f in zip(m.axes, coords, left)]
        expect = reduce(np.multiply.outer, factors)
        rows = m._cdf_table(coords, left)
        cols = [np.arange(n) for n in shape[1:]]
        assert np.array_equal(rows(0, 3, np.empty(shape), cols), expect)
        assert np.array_equal(rows(1, 3, np.empty((2,) + shape[1:]), cols), expect[1:])
        pick = np.sort(rng.choice(last, last - 7, replace=False))  # 7 columns fewer
        out = np.empty(shape[:-1] + (pick.size,))
        assert np.array_equal(rows(0, 3, out, cols[:-1] + [pick]), expect[..., pick])

    @pytest.mark.parametrize("shape", [(40, 600), (12, 24, 30), (5, 8192)])
    def test_discrete_table_of_long_rows(self, shape):
        # rows of 512 cells or more are prefix-summed along axis 0 one row at
        # a time: the same floats as a cumsum over the whole grid
        rng = np.random.default_rng(list(shape))
        d = len(shape)
        m = random_discrete_probability(rng, d, max_atoms=200)
        coords = [np.union1d(rng.random(n - 2), [0.0, 1.0]) for n in shape]
        left = [np.zeros(c.size, dtype=bool) for c in coords]
        expect = np.zeros(shape)
        at = [_covering_index(c, f, m.support.locations[:, s])
              for s, (c, f) in enumerate(zip(coords, left))]
        inside = np.all([j < n for j, n in zip(at, shape)], axis=0)
        np.add.at(expect, tuple(j[inside] for j in at), m.support.weights[inside])
        for s in range(d):
            expect = np.cumsum(expect, axis=s)
        rows = m._cdf_table(coords, left)
        cols = [np.arange(n) for n in shape[1:]]
        assert np.array_equal(rows(0, shape[0], np.empty(shape), cols), expect)
        out = np.empty((shape[0] - 2,) + shape[1:])
        assert np.array_equal(rows(2, shape[0], out, cols), expect[2:])

    def test_two_atom_columns_in_one_gap_are_refused(self):
        # atoms on axis-1 columns 1 and 2; selecting columns 0 and 2 leaves
        # both in the gap (0, 2], where they would be summed out of order
        m = DiscreteMeasure.from_points(2, [[0.5, 0.25], [0.5, 0.5]], [0.5, 0.5])
        coords = [np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.25, 0.5, 1.0])]
        rows = m._cdf_table(coords, [np.zeros(c.size, dtype=bool) for c in coords])
        assert np.array_equal(rows(0, 3, np.empty((3, 3)), [np.array([0, 1, 2])]),
                              rows(0, 3, np.empty((3, 4)), [np.arange(4)])[:, :3])
        with pytest.raises(ValueError, match="two atom columns in one gap"):
            rows(0, 3, np.empty((3, 2)), [np.array([0, 2])])


class TestUfuncBufferScope:
    """Product tables shrink NumPy's ufunc buffer for one read; the caller's
    buffer size is the same after every public call, and after a read that
    raises."""

    @pytest.fixture(autouse=True)
    def odd_buffer(self):
        size = np.setbufsize(4096)  # not the default, so a reset to it would show
        try:
            yield
        finally:
            np.setbufsize(size)

    def test_star_discrepancy(self):
        ps = PointSet(2, np.random.default_rng(90).random((600, 2)))
        star_discrepancy(ps, UniformMeasure(2))
        assert np.getbufsize() == 4096

    def test_kh_certificate(self):
        rng = np.random.default_rng(91)
        bps = [np.union1d(rng.random(300), [0.0, 1.0])] * 2
        f = GridFunction(bps, rng.integers(-3, 4, (302, 302)).astype(float))
        m = ProductMeasure([random_general_axis_cdf(rng) for _ in range(2)])
        kh_certificate(f, PointSet(2, rng.random((300, 2))), m)
        assert np.getbufsize() == 4096

    def test_read_that_raises(self):
        coords = [np.linspace(0.0, 1.0, 3), np.linspace(0.0, 1.0, 300)]
        rows = UniformMeasure(2)._cdf_table(coords, [np.zeros(c.size, dtype=bool)
                                                     for c in coords])
        with pytest.raises(ValueError):
            rows(0, 3, np.empty((3, 299)), [np.arange(300)])  # an out of the wrong shape
        assert np.getbufsize() == 4096


_PS = PointSet(2, [[0.25, 0.5]])

#: every public way a coordinate enters, given one bad coordinate ``x``
_INGEST = {
    "PointSet": lambda x: PointSet(2, [[0.5, x]]),
    "DiscreteSignedMeasure": lambda x: DiscreteSignedMeasure(2, [((0.5, x), 1.0)]),
    "DiscreteMeasure.from_points": lambda x: DiscreteMeasure.from_points(2, [[x, 0.5]], [1.0]),
    "cdf": lambda x: UniformMeasure(2).cdf([0.5, x]),
    "cdf_one_sided": lambda x: cdf_one_sided(UniformMeasure(2), [x, 0.5], ("left", "at")),
    "box_measure-lower": lambda x: box_measure(UniformMeasure(2), [x, 0.0], [1.0, 1.0]),
    "box_measure-upper": lambda x: box_measure(UniformMeasure(2), [0.0, 0.0], [1.0, x]),
    "local_discrepancy": lambda x: local_discrepancy([0.5, x], _PS, UniformMeasure(2)),
    "one_sided_deviation": lambda x: one_sided_deviation([x, 0.5], _PS, UniformMeasure(2)),
    "AxisCdf-breakpoints": lambda x: AxisCdf([0.0, x, 1.0], [0.0, 0.5, 1.0]),
    "AxisCdf.value": lambda x: AxisCdf.identity().value(x),
    "AxisCdf.left_value": lambda x: AxisCdf.identity().left_value(x),
    "AxisCdf.values_at": lambda x: AxisCdf.identity().values_at(np.array([0.5, x])),
    "AxisCdf.pseudo_inverse": lambda x: AxisCdf.identity().pseudo_inverse(x),
    "pseudo_inverse-axis": lambda x: pseudo_inverse(AxisCdf.identity(), x),
    "pseudo_inverse-callback": lambda x: pseudo_inverse(lambda t: t, x),
    "AnalyticCdfMeasure-hints": lambda x: AnalyticCdfMeasure(2, chelson_cdf, grid_hints=[[x], []]),
    "GridFunction": lambda x: GridFunction([[0.0, x, 1.0]], [0.0, 1.0, 2.0]),
    "GridFunction.evaluate": lambda x: GridFunction(
        [[0.0, 0.5, 1.0]], [0.0, 1.0, 5.0]).evaluate([[x]]),
    "Box-lower": lambda x: Box((x, 0.0), (1.0, 1.0)),
    "Box-upper": lambda x: Box((0.0, 0.0), (0.5, x)),
    "box_indicator": lambda x: box_indicator((x, 0.5)),
    "corner_indicator": lambda x: corner_indicator((0.5, x)),
    "conditional_transform_2d": lambda x: conditional_transform_2d((x, 0.5),
                                                                    chelson_conditional()),
}


class TestCoordinateIngest:
    """Every coordinate entering the package goes through one check, which
    NaN and the infinities fail as surely as values outside [0,1]."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.5, 1.5])
    @pytest.mark.parametrize("entry", sorted(_INGEST))
    def test_coordinate_outside_the_unit_interval_is_rejected(self, entry, bad):
        with pytest.raises(ValidationError):
            _INGEST[entry](bad)

    @pytest.mark.parametrize("case", ["points", "atoms", "axis", "grid-function", "grid-hints"])
    def test_constructors_copy_the_callers_arrays(self, case):
        b = np.array([0.0, 0.5, 1.0])
        v = np.array([0.0, 0.25, 1.0])
        if case == "points":
            given, kept = [b], [PointSet(1, b).points]
        elif case == "atoms":
            w = np.array([0.25, 0.25, 0.5])
            m = DiscreteMeasure.from_points(1, b.reshape(-1, 1), w)
            given, kept = [b, w], [m.support.locations, m.support.weights]
        elif case == "axis":
            a = AxisCdf(b, v, v)
            given, kept = [b, v], [a.breakpoints, a.values, a.values_left]
        elif case == "grid-function":
            f = GridFunction([b], v)
            given, kept = [b, v], [f.breakpoints[0], f.values]
        else:
            m = AnalyticCdfMeasure(1, lambda a: a[:, 0], grid_hints=[b])
            given, kept = [b], [m.axis_coordinates(0)]
        before = [k.copy() for k in kept]
        for g in given:
            g[1] = 0.75  # the caller's array stays the caller's to write
        for k, old in zip(kept, before):
            assert np.array_equal(k, old)
