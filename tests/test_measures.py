"""Measure representations: CDF evaluation, Jordan decomposition, total
variation, and box masses via inclusion-exclusion."""

import tracemalloc
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nuqmc import (
    AnalyticCdfMeasure,
    AxisCdf,
    Box,
    DiscreteMeasure,
    DiscreteSignedMeasure,
    DimensionMismatchError,
    FaceSelector,
    GridFunction,
    PointSet,
    ProductMeasure,
    UniformMeasure,
    ValidationError,
    box_indicator,
    box_measure,
    chelson_cdf,
    chelson_conditional,
    chelson_measure,
    conditional_transform_2d,
    corner_indicator,
    chelson_identity_check,
    forward_cdf_map,
    function_to_measure,
    halton,
    hk_variation,
    importance_sampling_estimate,
    is_completely_monotone,
    jordan_decompose_measure,
    kh_certificate,
    one_sided_deviation,
    pseudo_inverse,
    quasi_volume,
    random_search_lower_bound,
    star_discrepancy,
    total_variation,
    van_der_corput,
    vitali_variation,
)
from nuqmc.jsonio import measure_from_dict
from nuqmc.measures import _upper_axis
from helpers import (
    atom_mixture,
    chelson_box_mass,
    measure_coordinates,
    random_discrete_probability,
    random_general_axis_cdf,
    random_signed_measure,
    reference_axis_values,
    reference_box_measure,
    reference_cdf_one_sided,
    reference_signed_measure,
)

TOL = 1e-12


class TestCdfEval:
    def test_uniform_box(self):
        assert UniformMeasure(2).cdf((1.0, 0.8)) == pytest.approx(0.8, abs=TOL)

    def test_chelson_box(self):
        assert chelson_measure().cdf((1.0, 0.8)) == pytest.approx(22 / 25, abs=TOL)

    def test_atom_outside_box(self):
        m = DiscreteMeasure(DiscreteSignedMeasure(2, [(0.5, 0.5)], [1.0]))
        assert m.cdf((0.25, 1.0)) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            UniformMeasure(2).cdf((0.5,))

    def test_normalization_at_the_far_corner(self):
        rng = np.random.default_rng(11)
        specs = [
            UniformMeasure(3),
            random_discrete_probability(rng, 2),
            ProductMeasure([random_general_axis_cdf(rng) for _ in range(2)]),
            chelson_measure(),
        ]
        for m in specs:
            assert m.cdf(np.ones(m.dimension)) == pytest.approx(1.0, abs=TOL)

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
                assert m.cdf(b) >= m.cdf(a) - TOL


class TestJordanDecomposition:
    def test_sign_split(self):
        nu = DiscreteSignedMeasure(1, [(0.5,), (0.75,)], [2.0, -1.0])
        pos, neg = jordan_decompose_measure(nu)
        assert (pos.locations.tolist(), pos.weights.tolist()) == ([[0.5]], [2.0])
        assert (neg.locations.tolist(), neg.weights.tolist()) == ([[0.75]], [1.0])

    def test_all_positive(self):
        nu = DiscreteSignedMeasure(1, [(0.2,), (0.8,)], [1.0, 0.5])
        pos, neg = jordan_decompose_measure(nu)
        assert len(neg) == 0
        assert np.array_equal(pos.locations, nu.locations)
        assert np.array_equal(pos.weights, nu.weights)

    def test_cancellation_on_merge(self):
        nu = DiscreteSignedMeasure(1, [(0.5,), (0.5,)], [1.0, -1.0])
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
                np.concatenate([pos.locations, neg.locations]),
                np.concatenate([pos.weights, -neg.weights]),
            )
            assert np.array_equal(rebuilt.locations, nu.locations)
            assert np.allclose(rebuilt.weights, nu.weights)


class TestTotalVariation:
    def test_two_atoms(self):
        assert total_variation(
            DiscreteSignedMeasure(1, [(0.5,), (0.75,)], [2.0, -1.0])
        ) == 3.0

    def test_empty(self):
        assert total_variation(DiscreteSignedMeasure(1, [], [])) == 0.0

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
        m = DiscreteMeasure(DiscreteSignedMeasure(2, [(0.5, 0.5)], [1.0]))
        assert box_measure(m, (0, 0), (0.5, 0.5), upper_open=(True, True)) == 0.0
        assert box_measure(m, (0, 0), (0.5, 0.5)) == 1.0

    def test_chelson_upper_right_corner_box(self):
        # half-open (a, 1] via inclusion-exclusion vs. quadrature of the density
        m = chelson_measure()
        a = (7 / 9, 20 / 27)
        got = box_measure(m, a, (1.0, 1.0), lower_open=(True, True))
        by_cdf = (
            1.0
            - m.cdf((1.0, a[1]))
            - m.cdf((a[0], 1.0))
            + m.cdf(a)
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
        m = DiscreteMeasure(DiscreteSignedMeasure(2, [(0.5, 0.25), (0.5, 0.75)], [0.5, 0.5]))
        assert box_measure(m, (0.5, 0.0), (0.5, 0.5)) == pytest.approx(0.5)

    def test_analytic_without_limits_raises(self):
        # refused when built, not at the first one-sided read
        with pytest.raises(ValidationError, match="continuous=False needs a left_limit"):
            AnalyticCdfMeasure(1, lambda a: a[:, 0], continuous=False)

    @pytest.mark.parametrize("continuous", [True, False])
    @pytest.mark.parametrize("limit", [None, lambda a, left: chelson_cdf(a)],
                             ids=["no-left-limit", "left-limit"])
    def test_continuity_goes_with_left_limit(self, continuous, limit):
        # continuous=True without left_limit and False with it build; the
        # other two are refused, naming both parameters
        if continuous == (limit is not None):
            with pytest.raises(ValidationError) as err:
                AnalyticCdfMeasure(2, chelson_cdf, continuous=continuous, left_limit=limit)
            assert "continuous=" in str(err.value) and "left_limit" in str(err.value)
            return
        m = AnalyticCdfMeasure(2, chelson_cdf, continuous=continuous, left_limit=limit)
        assert box_measure(m, (0.2, 0.3), (0.7, 0.9), upper_open=(True, True)) == \
            box_measure(chelson_measure(), (0.2, 0.3), (0.7, 0.9))

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


    @pytest.mark.parametrize("kind", ["uniform", "product", "discrete", "signed", "chelson",
                                      "atom"])
    def test_matches_the_per_corner_loop(self, kind):
        # the 2^d corners read in one batch give the floats of one
        # cdf_one_sided call per corner, on random open and closed sides,
        # degenerate axes, and corners on the atoms and breakpoints
        rng = np.random.default_rng(["uniform", "product", "discrete", "signed", "chelson",
                                     "atom"].index(kind) + 40)
        for d in [2] if kind in ("chelson", "atom") else range(1, 5):
            if kind == "uniform":
                m = UniformMeasure(d)
            elif kind == "product":
                m = ProductMeasure([random_general_axis_cdf(rng) for _ in range(d)])
            elif kind == "discrete":
                m = random_discrete_probability(rng, d, max_atoms=20)
            elif kind == "signed":
                m = random_signed_measure(rng, d, max_atoms=20)
            elif kind == "chelson":
                m = chelson_measure()
            else:
                m = atom_mixture((0.5, 0.25))
            marks = [[0.5], [0.25]] if kind == "atom" else measure_coordinates(m)
            coords = [np.concatenate([marks[s], rng.random(4), [0.0, 1.0]]) for s in range(d)]
            for _ in range(40):
                a, b = (np.array([rng.choice(c) for c in coords]) for _ in range(2))
                lo = np.minimum(a, b)
                hi = np.where(rng.random(d) < 0.2, lo, np.maximum(a, b))
                sides = {}
                for key in ("lower_open", "upper_open"):
                    if rng.random() < 0.7:
                        sides[key] = tuple(bool(x) for x in rng.random(d) < 0.5)
                assert box_measure(m, lo, hi, **sides) == reference_box_measure(m, lo, hi,
                                                                                **sides)

    @pytest.mark.parametrize("m", [UniformMeasure(3), chelson_measure(),
                                   DiscreteMeasure.from_points(2, [[0.5, 0.5]], [1.0])],
                             ids=["uniform", "chelson", "discrete"])
    def test_one_cdf_points_call_per_box(self, m, monkeypatch):
        calls = []
        read = type(m)._cdf_points

        def counting(self, points, left):
            calls.append(points.shape)
            return read(self, points, left)

        monkeypatch.setattr(type(m), "_cdf_points", counting)
        d = m.dimension
        box_measure(m, [0.25] * d, [0.75] * d, upper_open=(True,) * d)
        assert calls == [(2**d, d)]

    def test_openness_flags_from_an_array(self):
        m = DiscreteMeasure.from_points(2, [[0.5, 0.5]], [1.0])
        assert box_measure(m, (0.5, 0.0), (1.0, 1.0), lower_open=np.array([True, False])) == 0.0
        assert box_measure(m, (0.5, 0.0), (1.0, 1.0), lower_open=np.array([False, True])) == 1.0

    @pytest.mark.parametrize("flags", [(), (True,), (True, False, True), np.array([True])],
                             ids=["empty", "short", "long", "short-array"])
    @pytest.mark.parametrize("side", ["lower_open", "upper_open"])
    def test_openness_flags_of_the_wrong_length_are_refused(self, side, flags):
        # an empty tuple once read as all closed: 0.16 for [0.1, 0.5]^2
        with pytest.raises(DimensionMismatchError):
            box_measure(UniformMeasure(2), (0.1, 0.1), (0.5, 0.5), **{side: flags})

    @pytest.mark.parametrize("flags", [("at", "left"), True, [[True, False]], (2, 0)],
                             ids=["strings", "scalar", "nested", "integers"])
    def test_openness_flags_that_are_not_booleans_are_refused(self, flags):
        with pytest.raises(ValidationError):
            box_measure(UniformMeasure(2), (0.1, 0.1), (0.5, 0.5), lower_open=flags)


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
    m = DiscreteMeasure(DiscreteSignedMeasure(1, [(0.5,)], [1.0]))
    assert m.cdf_one_sided((0.5,), ("left",)) == 0.0
    assert m.cdf_one_sided((0.5,), ("at",)) == 1.0


def test_atoms_merge_and_drop_zeros():
    nu = DiscreteSignedMeasure(2, [(0.5, 0.5), (0.5, 0.5), (0.1, 0.1)], [1.0, 2.0, 0.0])
    assert len(nu) == 1
    assert nu.weights[0] == 3.0


class TestSignedMeasureArrays:
    """The constructor against the per-atom merge loop it replaced: equal
    locations and weights, bit for bit, from arrays and from lists."""

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
        return locs[order], ws[order]

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_matches_the_per_atom_loop(self, d):
        rng = np.random.default_rng(300 + d)
        for _ in range(5):
            locs, ws = self._atoms(rng, d)
            ref_locs, ref_ws = reference_signed_measure(d, zip(locs, ws))
            for nu in (DiscreteSignedMeasure(d, locs, ws),
                       DiscreteSignedMeasure(d, locs.tolist(), ws.tolist())):
                assert np.array_equal(nu.locations, ref_locs)
                assert np.array_equal(np.signbit(nu.locations), np.signbit(ref_locs))
                assert np.array_equal(nu.weights, ref_ws)
                assert not np.any(np.all(nu.locations == 0.75, axis=1))

    @pytest.fixture
    def lexsort_calls(self, monkeypatch):
        calls = []
        lexsort = np.lexsort

        def counting(keys):
            calls.append(len(keys[0]) if len(keys) else 0)
            return lexsort(keys)

        monkeypatch.setattr(np, "lexsort", counting)
        return calls

    @staticmethod
    def _canonical(rng, d):
        """C-order vertices of a random grid (rows strictly increasing in
        lexicographic order) with weights over 16 orders of magnitude, some
        of them +-0.0."""
        axes = [np.unique(np.concatenate([[0.0, 1.0], rng.random(2)])) for _ in range(d)]
        locs = np.stack([m.reshape(-1) for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
        ws = rng.standard_normal(len(locs)) * 10.0 ** rng.integers(-8, 8, size=len(locs))
        ws[rng.random(len(locs)) < 0.2] = rng.choice([0.0, -0.0])
        return locs, ws

    @staticmethod
    def _same(nu, ref_locs, ref_ws):
        return all(a.shape == b.shape and np.array_equal(a, b)
                   and np.array_equal(np.signbit(a), np.signbit(b))
                   for a, b in ((nu.locations, ref_locs), (nu.weights, ref_ws)))

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_canonical_rows_skip_the_sort(self, d, lexsort_calls):
        rng = np.random.default_rng(320 + d)
        locs, ws = self._canonical(rng, d)
        cases = [(locs, ws), (locs[:1], ws[:1]), (locs[:1], np.array([-0.0])),
                 (locs[:0], ws[:0]), (locs[ws > 0], ws[ws > 0])]
        for case_locs, case_ws in cases:
            ref = reference_signed_measure(d, list(zip(case_locs, case_ws)))
            lexsort_calls.clear()
            nu = DiscreteSignedMeasure(d, case_locs, case_ws)
            assert lexsort_calls == []
            assert self._same(nu, *ref)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_other_rows_take_the_sort(self, d, lexsort_calls):
        rng = np.random.default_rng(340 + d)
        locs, ws = self._canonical(rng, d)
        order = rng.permutation(len(ws))
        twice = np.repeat(np.arange(len(ws)), 2)  # each row twice, adjacent
        origin = np.zeros((2, d))
        origin[1, 0] = -0.0  # equal rows, though their bits differ
        for case_locs, case_ws in ((locs[order], ws[order]), (locs[twice], ws[twice]),
                                   (locs[::-1], ws[::-1]), (origin, np.array([1.0, 2.0]))):
            ref = reference_signed_measure(d, list(zip(case_locs, case_ws)))
            lexsort_calls.clear()
            nu = DiscreteSignedMeasure(d, case_locs, case_ws)
            assert lexsort_calls == [len(case_ws)]
            assert self._same(nu, *ref)

    @pytest.mark.parametrize("loc, w", [
        ((0.5, np.nan), 1.0), ((0.5, 1.5), 1.0), ((0.5, -0.1), 1.0),
        ((0.5, 0.5), np.nan), ((0.5, 0.5), -np.inf),
    ], ids=["nan", "above", "below", "nan-weight", "inf-weight"])
    def test_canonical_rows_are_still_checked(self, loc, w):
        locs = np.array([(0.25, 0.25), loc])
        with pytest.raises(ValidationError):
            DiscreteSignedMeasure(2, locs, np.array([1.0, w]))

    def test_empty(self):
        for nu in (DiscreteSignedMeasure(3, [], []),
                   DiscreteSignedMeasure(3, np.empty((0, 3)), np.empty(0))):
            assert nu.locations.shape == (0, 3)
            assert nu.weights.shape == (0,)
            assert nu.mass == 0.0

    @pytest.mark.parametrize("locations", [
        [(0.5,)],
        [(0.5, 0.5, 0.5)],
        [(0.5, 0.5), (0.5,)],
    ], ids=["short", "long", "ragged"])
    def test_wrong_location_length(self, locations):
        with pytest.raises(DimensionMismatchError):
            DiscreteSignedMeasure(2, locations, np.ones(len(locations)))

    def test_wrong_array_shape(self):
        with pytest.raises(DimensionMismatchError):
            DiscreteSignedMeasure(2, np.full((3, 3), 0.5), np.ones(3))
        with pytest.raises(DimensionMismatchError):
            DiscreteSignedMeasure(2, np.full((3, 2), 0.5), np.ones(4))
        with pytest.raises(DimensionMismatchError):  # an empty input of the wrong width
            DiscreteSignedMeasure(2, np.empty((0, 3)), [])

    @pytest.mark.parametrize("loc, w", [
        ((0.5, np.nan), 1.0), ((np.inf, 0.5), 1.0), ((0.5, 1.5), 1.0), ((-0.1, 0.5), 1.0),
        ((0.5, 0.5), np.nan), ((0.5, 0.5), np.inf),
    ], ids=["nan", "inf", "above", "below", "nan-weight", "inf-weight"])
    def test_invalid_atom(self, loc, w):
        with pytest.raises(ValidationError) as err:
            DiscreteSignedMeasure(2, [(0.25, 0.25), loc], [1.0, w])
        assert err.type is ValidationError


class TestOneConstructor:
    """Every signed measure the package builds goes through
    ``DiscreteSignedMeasure.__init__``."""

    @pytest.fixture
    def built(self, monkeypatch):
        built = []
        init = DiscreteSignedMeasure.__init__

        def recording(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self)

        monkeypatch.setattr(DiscreteSignedMeasure, "__init__", recording)
        return built

    @pytest.mark.parametrize("entry", [
        "function_to_measure", "jordan_decompose_measure", "DiscreteMeasure.from_points",
        "measure_from_dict",
    ])
    def test_internal_builds_call_the_constructor(self, entry, built):
        locs = np.array([[0.25, 0.5], [0.75, 0.25]])
        if entry == "function_to_measure":
            results = [function_to_measure(corner_indicator((0.5, 0.25)))]
        elif entry == "jordan_decompose_measure":
            nu = function_to_measure(GridFunction([[0.0, 0.5, 1.0]] * 2, [[0, 1, 0], [2, 0, 1],
                                                                          [1, 1, 3]]))
            built.clear()
            results = list(jordan_decompose_measure(nu))
        elif entry == "DiscreteMeasure.from_points":
            results = [DiscreteMeasure.from_points(2, locs, [0.5, 0.5])]
        else:
            atoms = [{"x": x, "w": 0.5} for x in locs.tolist()]
            results = [measure_from_dict({"type": "discrete", "atoms": atoms})]
        assert len(built) == len(results)
        # a probability measure keeps the arrays of the signed measure it was built from
        assert all(any(r.locations is b.locations and r.weights is b.weights for b in built)
                   for r in results)
        assert all(len(r) for r in results)


#: ragged or non-numeric input at the library's entry points, with the error
#: each must raise instead of NumPy's ``ValueError``/``TypeError``
_MALFORMED = {
    "PointSet": (lambda: PointSet(2, [[0.1, 0.2], [0.3]]), DimensionMismatchError),
    "cdf": (lambda: UniformMeasure(2).cdf([[0.1], [0.2, 0.3]]), DimensionMismatchError),
    "GridFunction": (lambda: GridFunction([[0, 1]], [[0, 1], [2]]), DimensionMismatchError),
    "Box": (lambda: Box((0.0, [0.1]), (1.0, 1.0)), DimensionMismatchError),
    "PointSet-text": (lambda: PointSet(1, ["a"]), ValidationError),
    "PointSet-arrays": (lambda: PointSet(2, [np.zeros((2, 2)), np.zeros((2, 3))]),
                        DimensionMismatchError),
    "DiscreteSignedMeasure": (
        lambda: DiscreteSignedMeasure(2, [(0.5, 0.5), (0.5,)], [1.0, 1.0]),
        DimensionMismatchError),
}

_PS = PointSet(2, [[0.25, 0.5], [0.75, 0.25]])
_STEP = GridFunction([[0.0, 0.5, 1.0]] * 2, np.arange(1.0, 10.0))


def _one_value_cdf(a):
    """A Chelson CDF callback that returns one value for a whole batch."""
    return chelson_cdf(a)[:1]


def _nan_below_top(a):
    """A CDF callback that is 1 at the top corner and NaN everywhere else."""
    return np.where(np.all(a == 1.0, axis=1), 1.0, np.nan)


#: whole numbers, cell budgets and callback results that once
#: ended in Python's or NumPy's error, or were silently truncated or ignored
_MALFORMED.update({
    "search-trials-float": (lambda: random_search_lower_bound(_PS, UniformMeasure(2), 2.5, 0),
                            ValidationError),
    "halton-n-float": (lambda: halton(2.5, 2), ValidationError),
    "halton-n-bool": (lambda: halton(True, 2), ValidationError),
    "van-der-corput-base-float": (lambda: van_der_corput(3, 2.5), ValidationError),
    "AnalyticCdfMeasure-dimension-float": (lambda: AnalyticCdfMeasure(2.5, chelson_cdf),
                                           ValidationError),
    "UniformMeasure-dimension-float": (lambda: UniformMeasure(2.5), ValidationError),
    "PointSet-dimension-bool": (lambda: PointSet(True, [[0.5]]), ValidationError),
    "DiscreteSignedMeasure-dimension-float": (
        lambda: DiscreteSignedMeasure(2.5, [(0.5, 0.5)], [1.0]), ValidationError),
    "FaceSelector-axis-float": (lambda: FaceSelector((0.5,)), ValidationError),
    "cell-budget-nan": (lambda: star_discrepancy(_PS, UniformMeasure(2), float("nan")),
                        ValidationError),
    "cell-budget-float": (lambda: star_discrepancy(_PS, UniformMeasure(2), 12.5),
                          ValidationError),
    "cell-budget-zero": (lambda: star_discrepancy(_PS, UniformMeasure(2), 0), ValidationError),
    "certificate-budget-nan": (
        lambda: kh_certificate(_STEP, _PS, UniformMeasure(2), cell_budget=float("nan")),
        ValidationError),
    "importance-budget-nan": (
        lambda: importance_sampling_estimate(_STEP, _STEP, _PS, UniformMeasure(2),
                                             cell_budget=float("nan")),
        ValidationError),
    "cdf-callback-size": (
        lambda: star_discrepancy(_PS, AnalyticCdfMeasure(2, _one_value_cdf)), ValidationError),
    "left-limit-callback-size": (
        lambda: star_discrepancy(_PS, AnalyticCdfMeasure(
            2, chelson_cdf, continuous=False, left_limit=lambda a, left: _one_value_cdf(a))),
        ValidationError),
    "ProductMeasure-axis-text": (lambda: ProductMeasure(["a"]), ValidationError),
    "cdf-callback-nan": (
        lambda: star_discrepancy(_PS, AnalyticCdfMeasure(2, _nan_below_top)), ValidationError),
    "cdf-callback-nan-at-top": (
        lambda: AnalyticCdfMeasure(1, lambda a: np.full(len(a), np.nan)), ValidationError),
    "left-limit-callback-inf": (
        lambda: star_discrepancy(_PS, AnalyticCdfMeasure(
            2, chelson_cdf, continuous=False,
            left_limit=lambda a, left: np.where(left.any(axis=1), np.inf, chelson_cdf(a)))),
        ValidationError),
})


#: the documented refusals of each entry point, with the error each raises
#: and the words of its rule
_REFUSED = {
    "breakpoints-not-1d": (lambda: AxisCdf([[0.0, 1.0]], [[0.0, 1.0]]), ValidationError,
                           "1-d array of size >= 2"),
    "breakpoints-one-entry": (lambda: GridFunction([[1.0]], [1.0]), ValidationError,
                              "1-d array of size >= 2"),
    "breakpoints-repeated": (lambda: AxisCdf([0.0, 0.5, 0.5, 1.0], [0.0, 0.5, 0.5, 1.0]),
                             ValidationError, "strictly increasing"),
    "AxisCdf-values-length": (lambda: AxisCdf([0.0, 0.5, 1.0], [0.0, 1.0]), ValidationError,
                              "values must match breakpoints"),
    "AxisCdf-values-left-length": (
        lambda: AxisCdf([0.0, 0.5, 1.0], [0.0, 0.5, 1.0], [0.0, 1.0]), ValidationError,
        "values_left must match breakpoints"),
    "AxisCdf-values-left-start": (lambda: AxisCdf([0.0, 1.0], [0.5, 1.0], [0.25, 1.0]),
                                  ValidationError, "values_left[0] must be 0"),
    "AxisCdf-mass": (lambda: AxisCdf([0.0, 1.0], [0.0, 0.5]), ValidationError,
                     "G(1) must equal 1"),
    "AnalyticCdfMeasure-mass": (lambda: AnalyticCdfMeasure(1, lambda a: 0.5 * a[:, 0]),
                                ValidationError, "F(1,...,1) must equal 1"),
    "AnalyticCdfMeasure-left-limit-continuous": (
        lambda: AnalyticCdfMeasure(2, chelson_cdf, continuous=True,
                                   left_limit=lambda a, left: chelson_cdf(a)),
        ValidationError, "left_limit is never called with continuous=True"),
    "box_measure-order": (lambda: box_measure(UniformMeasure(2), (0.5, 0.5), (0.25, 1.0)),
                          ValidationError, "lower <= upper"),
    "Box-dimensions": (lambda: Box((0.0,), (1.0, 1.0)), ValidationError, "equal dimension"),
    "FaceSelector-no-axes": (lambda: FaceSelector(()), ValidationError, "at least one free axis"),
    "FaceSelector-anchor": (lambda: FaceSelector((0,), "middle"), ValidationError,
                            "unknown anchor"),
    "GridFunction-no-axes": (lambda: GridFunction([], []), ValidationError, "dimension"),
    "vertex_index-dimension": (lambda: _STEP.vertex_index((0.5,)), DimensionMismatchError,
                               "1 coordinates, expected 2"),
    "evaluate-dimension": (lambda: _STEP.evaluate([[0.5, 0.5, 0.5]]), DimensionMismatchError,
                           "3 coordinates, expected 2"),
    "quasi_volume-dimension": (lambda: quasi_volume(_STEP, Box((0.0,), (0.5,))),
                               DimensionMismatchError, "dimensions differ"),
    "vitali_variation-face-axis": (lambda: vitali_variation(_STEP, FaceSelector((2,))),
                                   ValidationError, "face axis out of range"),
    "hk_variation-anchor": (lambda: hk_variation(_STEP, "middle"), ValidationError,
                            "unknown anchor"),
    "forward_cdf_map-type": (lambda: forward_cdf_map((0.5, 0.5), chelson_measure()),
                             ValidationError, "ConditionalCdf2D or ProductMeasure"),
    "identity-check-dimension": (
        lambda: chelson_identity_check(PointSet(1, [[0.5]]), chelson_conditional(),
                                       chelson_measure()),
        DimensionMismatchError, "two-dimensional"),
}
_MALFORMED.update({entry: (call, error) for entry, (call, error, _) in _REFUSED.items()})

#: text, bytes, booleans, complex numbers and None, which NumPy's float
#: conversion once parsed, cast or read as NaN
_MALFORMED.update({
    "PointSet-text-coordinates": (lambda: PointSet(2, [["0.1", "0.2"]]), ValidationError),
    "PointSet-none": (lambda: PointSet(2, [[None, 0.5]]), ValidationError),
    "cdf-text-and-bool": (lambda: UniformMeasure(2).cdf(["0.5", True]), ValidationError),
    "GridFunction-bool-breakpoints-text-values": (
        lambda: GridFunction([[False, True]], ["1", "2"]), ValidationError),
    "DiscreteSignedMeasure-bytes-weights": (
        lambda: DiscreteSignedMeasure(1, [[0.5]], [b"1"]), ValidationError),
    "AxisCdf-complex-values": (lambda: AxisCdf([0.0, 1.0], [0j, 1.0]), ValidationError),
    "AxisCdf-fraction-text-values": (
        lambda: AxisCdf([0.0, 1.0], [Fraction(0), "1"]), ValidationError),
})

#: a boolean among numbers, which NumPy reads as 1.0 or 0.0: the library
#: refuses it as the CLI's JSON reader does
_MALFORMED.update({
    "PointSet-bool-among-numbers": (lambda: PointSet(2, [[True, 0.5]]), ValidationError),
    "PointSet-bool-in-a-later-point": (lambda: PointSet(2, [[0.5, 0.2], [1, False]]),
                                       ValidationError),
    "cdf-bool-among-numbers": (lambda: UniformMeasure(2).cdf([True, 0.5]), ValidationError),
    "GridFunction-bool-among-breakpoints": (
        lambda: GridFunction([[0, 0.5, True]], [1, 2, 3]), ValidationError),
    "AxisCdf-bool-among-values": (lambda: AxisCdf([0.0, 1.0], [False, 1]), ValidationError),
    "DiscreteSignedMeasure-bool-among-weights": (
        lambda: DiscreteSignedMeasure(1, [[0.25], [0.5]], [True, 0.5]), ValidationError),
    "PointSet-numpy-bool-among-numbers": (lambda: PointSet(1, [0.25, np.True_]),
                                          ValidationError),
})


@pytest.mark.parametrize("entry", sorted(_MALFORMED))
def test_malformed_input_raises_a_validation_error(entry):
    call, error = _MALFORMED[entry]
    with pytest.raises(ValidationError) as err:
        call()
    assert err.type is error
    if entry in _REFUSED:  # refused by its own rule, not by an earlier check
        assert _REFUSED[entry][2] in str(err.value)


def test_object_arrays_of_numbers_are_read_entry_by_entry():
    # Fractions and integers past int64 make NumPy build an object array
    assert PointSet(1, [[Fraction(1, 3)], [0.5]]).points.tolist() == [[1 / 3], [0.5]]
    nu = DiscreteSignedMeasure(1, [[0.5]], [2**70])
    assert nu.weights.dtype == float and nu.weights.tolist() == [float(2**70)]
    assert UniformMeasure(2).cdf([Fraction(1, 2), 1]) == 0.5


def test_a_one_or_zero_that_is_not_a_boolean_is_a_number():
    # the entries equal to 0 or 1 are looked up for booleans, and these pass
    assert PointSet(2, [[1, 0], [0.5, 1]]).points.tolist() == [[1.0, 0.0], [0.5, 1.0]]
    assert UniformMeasure(2).cdf([Fraction(1), 1]) == 1.0
    assert AxisCdf([0, 1], (0, Fraction(1))).values_at(np.array([0.5])).tolist() == [0.5]


@pytest.mark.parametrize("callback", ["cdf", "left_limit"])
def test_callback_with_the_wrong_number_of_values_is_named(callback):
    call, _ = _MALFORMED[callback.replace("_", "-") + "-callback-size"]
    with pytest.raises(ValidationError) as err:
        call()
    assert str(err.value).startswith(f"the {callback} callback returned 1 values for ")


@pytest.mark.parametrize("entry, callback", [
    ("cdf-callback-nan", "cdf"), ("cdf-callback-nan-at-top", "cdf"),
    ("left-limit-callback-inf", "left_limit"),
])
def test_callback_value_that_is_not_finite_is_named(entry, callback):
    # a NaN once passed the F(1,...,1) check (abs(nan - 1) > tol is False)
    # and made star_discrepancy report value=nan
    call, _ = _MALFORMED[entry]
    with pytest.raises(ValidationError) as err:
        call()
    assert str(err.value) == f"the {callback} callback returned a value that is not finite"


def test_whole_numbers_may_be_integral_floats():
    # the rule of the JSON readers: an integer or an integral float, never a bool
    assert halton(4.0, 2.0).points.tolist() == halton(4, 2).points.tolist()
    assert UniformMeasure(2.0).dimension == 2 and type(UniformMeasure(2.0).dimension) is int
    assert FaceSelector((1.0, 0)).axes == (0, 1)
    assert star_discrepancy(_PS, UniformMeasure(2), float(10**6)) == star_discrepancy(
        _PS, UniformMeasure(2))


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
                m = DiscreteSignedMeasure(d, [], [])
            else:
                m = chelson_measure()
            # corners on the atoms and breakpoints, their neighbours, and 0 and 1
            coords = [np.concatenate([c, rng.random(5), [0.0, 1.0]])
                      for c in measure_coordinates(m)]
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
            grids = [np.union1d(np.append(rng.random(6), [0.0, 1.0]), c)
                     for c in measure_coordinates(m)]
            # the lower corners, and but for a discrete table, which reads
            # closed corners only, the upper corners approached from below
            tables = [(grids, [np.zeros(g.size, dtype=bool) for g in grids])]
            if kind != "discrete":
                tables.append(zip(*(_upper_axis(g[1:]) for g in grids)))
            for coords, left in tables:
                coords, left = list(coords), list(left)
                rows = m._cdf_table(coords, left)
                full = rows(0, coords[0].size, np.empty([c.size for c in coords]),
                            [np.arange(c.size) for c in coords[1:]])
                must = [np.empty(0, dtype=np.intp) for _ in range(d)]
                if kind == "discrete":  # every atom column selected: no gap holds two
                    must = [np.searchsorted(c, m.locations[:, s]) for s, c in enumerate(coords)]
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

    @pytest.mark.parametrize("shape", [(40, 300), (40, 600), (12, 24, 30), (5, 8192)])
    def test_discrete_table_of_long_rows(self, shape):
        # rows of 256 cells or more are prefix-summed along axis 0 one row at
        # a time: the same floats as a cumsum over the whole grid
        rng = np.random.default_rng(list(shape))
        d = len(shape)
        m = random_discrete_probability(rng, d, max_atoms=200)
        coords = [np.union1d(rng.random(n - 2), [0.0, 1.0]) for n in shape]
        left = [np.zeros(c.size, dtype=bool) for c in coords]
        expect = np.zeros(shape)
        at = [np.searchsorted(c, m.locations[:, s]) for s, c in enumerate(coords)]
        inside = np.all([j < n for j, n in zip(at, shape)], axis=0)
        np.add.at(expect, tuple(j[inside] for j in at), m.weights[inside])
        for s in range(d):
            expect = np.cumsum(expect, axis=s)
        rows = m._cdf_table(coords, left)
        cols = [np.arange(n) for n in shape[1:]]
        assert np.array_equal(rows(0, shape[0], np.empty(shape), cols), expect)
        out = np.empty((shape[0] - 2,) + shape[1:])
        assert np.array_equal(rows(2, shape[0], out, cols), expect[2:])

    def test_a_left_limit_is_refused(self):
        # a left limit is refused: the atoms lie on the exact grid, which
        # reads a discrete table at closed corners only
        m = DiscreteMeasure.from_points(2, [[0.5, 0.25], [0.5, 0.5]], [0.5, 0.5])
        coords = [np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.25, 0.5, 1.0])]
        with pytest.raises(ValueError, match="closed corners only"):
            m._cdf_table(coords, [np.zeros(3, dtype=bool), np.arange(4) == 2])


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
    "DiscreteSignedMeasure": lambda x: DiscreteSignedMeasure(2, [(0.5, x)], [1.0]),
    "DiscreteMeasure.from_points": lambda x: DiscreteMeasure.from_points(2, [[x, 0.5]], [1.0]),
    "cdf": lambda x: UniformMeasure(2).cdf([0.5, x]),
    "cdf_one_sided": lambda x: UniformMeasure(2).cdf_one_sided([x, 0.5], ("left", "at")),
    "box_measure-lower": lambda x: box_measure(UniformMeasure(2), [x, 0.0], [1.0, 1.0]),
    "box_measure-upper": lambda x: box_measure(UniformMeasure(2), [0.0, 0.0], [1.0, x]),
    "one_sided_deviation": lambda x: one_sided_deviation([x, 0.5], _PS, UniformMeasure(2)),
    "AxisCdf-breakpoints": lambda x: AxisCdf([0.0, x, 1.0], [0.0, 0.5, 1.0]),
    "AxisCdf.value": lambda x: AxisCdf.identity().value(x),
    "AxisCdf.left_value": lambda x: AxisCdf.identity().left_value(x),
    "AxisCdf.values_at": lambda x: AxisCdf.identity().values_at(np.array([0.5, x])),
    "AxisCdf.pseudo_inverse": lambda x: AxisCdf.identity().pseudo_inverse(x),
    "pseudo_inverse-callback": lambda x: pseudo_inverse(lambda t: t, x),
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

    @pytest.mark.parametrize("case", ["points", "atoms", "axis", "grid-function"])
    def test_constructors_copy_the_callers_arrays(self, case):
        b = np.array([0.0, 0.5, 1.0])
        v = np.array([0.0, 0.25, 1.0])
        if case == "points":
            given, kept = [b], [PointSet(1, b).points]
        elif case == "atoms":
            w = np.array([0.25, 0.25, 0.5])
            m = DiscreteMeasure.from_points(1, b.reshape(-1, 1), w)
            given, kept = [b, w], [m.locations, m.weights]
        elif case == "axis":
            a = AxisCdf(b, v, v)
            given, kept = [b, v], [a.breakpoints, a.values, a.values_left]
        else:
            f = GridFunction([b], v)
            given, kept = [b, v], [f.breakpoints[0], f.values]
        before = [k.copy() for k in kept]
        for g in given:
            g[1] = 0.75  # the caller's array stays the caller's to write
        for k, old in zip(kept, before):
            assert np.array_equal(k, old)


class TestUniformIsAProductOfIdentityAxes:
    """``UniformMeasure`` is a ``ProductMeasure`` of ``d`` references to the
    one identity axis, whose factor is read as the coordinate itself."""

    @staticmethod
    def _fresh(d):
        # new axes are not the shared identity axis, so they read their ramps
        return ProductMeasure([AxisCdf([0.0, 1.0], [0.0, 1.0]) for _ in range(d)])

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_same_results_as_a_product_of_fresh_identity_axes(self, d):
        rng = np.random.default_rng([d, 19])
        uniform, fresh = UniformMeasure(d), self._fresh(d)
        for _ in range(12):
            n = int(rng.integers(1, (48, 32, 16, 8)[d - 1] + 1))
            pts = rng.random((n, d))
            pts[rng.random((n, d)) < 0.1] = 1.0  # some coordinates on the closed end
            ps = PointSet(d, pts)
            assert star_discrepancy(ps, uniform) == star_discrepancy(ps, fresh)
            seed = int(rng.integers(2**31))
            assert random_search_lower_bound(ps, uniform, 300, seed) == \
                random_search_lower_bound(ps, fresh, 300, seed)

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_cdf_is_the_product_of_the_coordinates(self, d):
        rng = np.random.default_rng([d, 20])
        points = rng.random((64, d))
        points[:8] = rng.choice([0.0, 1.0], (8, d))
        left = rng.random((64, d)) < 0.5
        expect = np.prod(points, axis=1)
        assert np.array_equal(UniformMeasure(d)._cdf_points(points, left), expect)
        assert np.array_equal(self._fresh(d)._cdf_points(points, left), expect)
        coords = [np.union1d(rng.random(5), [0.0, 1.0]) for _ in range(d)]
        flags = [rng.random(c.size) < 0.5 for c in coords]
        shape = [c.size for c in coords]
        cols = [np.arange(n) for n in shape[1:]]
        tables = [m._cdf_table(coords, flags)(0, shape[0], np.empty(shape), cols)
                  for m in (UniformMeasure(d), self._fresh(d))]
        assert np.array_equal(tables[0], reduce(np.multiply.outer, coords))
        assert np.array_equal(tables[1], tables[0])

    def test_axes_are_one_shared_identity_axis_made_when_read(self):
        m = UniformMeasure(3)
        assert isinstance(m, ProductMeasure) and AxisCdf.identity() is AxisCdf.identity()
        assert m.axes == (AxisCdf.identity(),) * 3 and m.axis_coordinates(0).size == 0
        assert m != UniformMeasure(3)  # equality is identity

    def test_any_dimension_stores_no_axes(self):
        tracemalloc.start()
        try:
            m = UniformMeasure(10**8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert m.dimension == 10**8 and peak < 2**20
        assert UniformMeasure(1e300).dimension == int(1e300)


class TestDiscreteMeasureIsASignedMeasure:
    def test_keeps_the_atoms_arrays(self):
        atoms = DiscreteSignedMeasure(2, [(0.75, 0.25), (0.25, 0.5)], [0.5, 0.5])
        m = DiscreteMeasure(atoms)
        assert isinstance(m, DiscreteSignedMeasure)
        assert m.locations is atoms.locations and m.weights is atoms.weights
        assert repr(m) == "DiscreteMeasure(d=2, atoms=2, mass=1)"
        assert repr(atoms) == "DiscreteSignedMeasure(d=2, atoms=2, mass=1)"

    def test_total_variation_and_jordan_parts(self):
        m = DiscreteMeasure.from_points(1, [[0.25], [0.75]], [0.25, 0.75])
        assert total_variation(m) == 1.0
        positive, negative = jordan_decompose_measure(m)
        assert np.array_equal(positive.locations, m.locations)
        assert np.array_equal(positive.weights, m.weights) and len(negative) == 0

    @pytest.mark.parametrize("weights", [[1.5, -0.5], [0.25, 0.25]], ids=["negative", "mass"])
    def test_refuses_what_is_not_a_probability(self, weights):
        with pytest.raises(ValidationError):
            DiscreteMeasure(DiscreteSignedMeasure(1, [[0.25], [0.75]], weights))
