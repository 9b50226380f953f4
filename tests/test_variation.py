"""Grid-function variation, monotone decompositions, and the
function/measure correspondence, checked against enumeration oracles."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nuqmc import (
    ANCHOR_ONE,
    ANCHOR_ZERO,
    Box,
    FaceSelector,
    DiscreteSignedMeasure,
    GridFunction,
    MULTILINEAR,
    STEP,
    ValidationError,
    box_indicator,
    chelson_cdf,
    corner_indicator,
    function_to_measure,
    hk0_prefix,
    hk0_prefix_grid,
    hk_variation,
    is_completely_monotone,
    jordan_decompose_function,
    jordan_decompose_measure,
    leonov_decompose,
    measure_to_function,
    mirror,
    quasi_volume,
    total_variation,
    vitali_variation,
)
from helpers import (
    completely_monotone_function,
    exact_hk0_prefix_grid,
    exact_hk_variation,
    exact_monotone_verdict,
    hk_by_enumeration,
    measures_match,
    random_grid_function,
    random_signed_measure,
    reference_box_indicator,
    reference_cell_sum,
    reference_corner_indicator,
    reference_function_to_measure,
    reference_hk0_prefix_grid,
    reference_hk_variation,
    reference_is_completely_monotone,
    reference_measure_values,
    vitali_by_enumeration,
    within_rounding,
)

TOL = 1e-12


def product_xy() -> GridFunction:
    return GridFunction([[0.0, 1.0], [0.0, 1.0]], [[0.0, 0.0], [0.0, 1.0]], MULTILINEAR)


def hat_1d() -> GridFunction:
    return GridFunction([[0.0, 0.5, 1.0]], [0.0, 1.0, 0.0], STEP)


class TestQuasiVolume:
    def test_separable_product(self):
        assert quasi_volume(product_xy(), Box((0, 0), (1, 1))) == 1.0

    def test_constant(self):
        f = GridFunction([[0.0, 0.5, 1.0]], [3.0, 3.0, 3.0])
        assert quasi_volume(f, Box((0,), (1,))) == 0.0

    def test_chelson_cdf_box(self):
        bps = [[0.0, 1.0], [0.0, 0.8, 1.0]]
        mesh = np.meshgrid(*bps, indexing="ij")
        vals = np.vectorize(lambda x, y: chelson_cdf((x, y)))(*mesh)
        f = GridFunction(bps, vals, MULTILINEAR)
        assert quasi_volume(f, Box((0, 0), (1, 0.8))) == pytest.approx(22 / 25, abs=TOL)

    def test_off_grid_corner_rejected(self):
        with pytest.raises(ValidationError):
            quasi_volume(product_xy(), Box((0, 0), (0.3, 1)))


class TestVitaliVariation:
    def test_corner_indicator(self):
        f = corner_indicator((0.5, 0.5))
        assert vitali_variation(f) == 1.0
        assert vitali_by_enumeration(f.values, (0, 1)) == 1.0

    def test_product_xy(self):
        f = product_xy()
        assert vitali_variation(f) == 1.0
        assert vitali_by_enumeration(f.values, (0, 1)) == 1.0

    def test_constant(self):
        f = GridFunction([[0.0, 0.5, 1.0], [0.0, 1.0]], np.full((3, 2), 2.5))
        assert vitali_variation(f) == 0.0

    def test_finest_grid_attains_the_partition_supremum(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            f = random_grid_function(rng, d=2, max_intervals=3)
            assert vitali_variation(f) == pytest.approx(
                vitali_by_enumeration(f.values, (0, 1)), abs=1e-10
            )

    def test_face_restriction(self):
        f = corner_indicator((0.5, 0.5))
        assert vitali_variation(f, FaceSelector((0,), ANCHOR_ONE)) == 1.0
        assert vitali_variation(f, FaceSelector((0,), ANCHOR_ZERO)) == 0.0

    def test_negative_face_axis_is_rejected(self):
        with pytest.raises(ValidationError):
            vitali_variation(corner_indicator((0.5, 0.5)), FaceSelector((-1,)))
        with pytest.raises(ValidationError):
            FaceSelector((0, -2), ANCHOR_ZERO)


class TestHKVariation:
    def test_corner_indicator_both_anchors(self):
        f = corner_indicator((0.5, 0.5))
        assert hk_variation(f, ANCHOR_ONE) == 3.0
        assert hk_variation(f, ANCHOR_ZERO) == 1.0

    def test_corner_indicator_scales_like_2d_minus_1(self):
        for d in (1, 2, 3):
            f = corner_indicator((0.5,) * d)
            assert hk_variation(f, ANCHOR_ONE) == 2**d - 1
            assert hk_variation(f, ANCHOR_ZERO) == 1.0

    def test_product_xy(self):
        f = product_xy()
        assert hk_variation(f, ANCHOR_ONE) == pytest.approx(3.0, abs=TOL)
        assert hk_variation(f, ANCHOR_ZERO) == pytest.approx(1.0, abs=TOL)
        assert hk_by_enumeration(f, ANCHOR_ONE) == pytest.approx(3.0, abs=TOL)
        assert hk_by_enumeration(f, ANCHOR_ZERO) == pytest.approx(1.0, abs=TOL)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            f = random_grid_function(rng, d=2, max_intervals=3)
            for anchor in (ANCHOR_ONE, ANCHOR_ZERO):
                assert hk_variation(f, anchor) == pytest.approx(
                    hk_by_enumeration(f, anchor), abs=1e-10
                )

    def test_two_sided_bound(self):
        # each anchor's variation controls the other up to the face count
        rng = np.random.default_rng(44)
        for d in (1, 2, 3, 4):
            for _ in range(10):
                f = random_grid_function(rng, d=d, max_intervals=2)
                one = hk_variation(f, ANCHOR_ONE)
                zero = hk_variation(f, ANCHOR_ZERO)
                faces = 2**d - 1
                assert one <= faces * zero + 1e-9
                assert zero <= faces * one + 1e-9


class TestPrefixVariation:
    def test_completely_monotone_prefix_is_the_increment(self):
        rng = np.random.default_rng(45)
        for _ in range(10):
            bps = [np.unique(np.concatenate([[0.0, 1.0], rng.random(2)])) for _ in range(2)]
            h = completely_monotone_function(rng, bps)
            for v in h.vertex_coordinates()[:: max(1, len(h.values.flat) // 8)]:
                assert hk0_prefix(h, v) == pytest.approx(
                    h.evaluate(v) - h.value_at_origin(), abs=1e-10
                )

    def test_zero_at_origin(self):
        f = hat_1d()
        assert hk0_prefix(f, (0.0,)) == 0.0

    def test_jump_sum_oracle_1d(self):
        f = hat_1d()
        assert hk0_prefix(f, (1.0,)) == 2.0
        assert hk0_prefix(f, (0.5,)) == 1.0

    def test_off_grid_rejected(self):
        with pytest.raises(ValidationError):
            hk0_prefix(hat_1d(), (0.3,))

    def test_grid_matches_pointwise(self):
        # oracle: direct definition over the sub-grid [0, v], all faces at 0
        rng = np.random.default_rng(46)
        f = random_grid_function(rng, d=2, max_intervals=3)
        grid = hk0_prefix_grid(f)
        for idx in np.ndindex(f.shape):
            sub = f.values[tuple(slice(0, i + 1) for i in idx)]
            total = 0.0
            for axes in [(0,), (1,), (0, 1)]:
                v2 = sub
                for s in range(2):
                    if s not in axes:
                        v2 = np.take(v2, [0], axis=s)
                total += vitali_by_enumeration(v2, axes)
            assert grid[idx] == pytest.approx(total, abs=1e-10)


class TestWithValues:
    def test_matches_the_constructor_on_the_same_grid(self):
        rng = np.random.default_rng(46)
        for _ in range(20):
            f = random_grid_function(rng, max_intervals=3)
            values = rng.uniform(-2, 2, size=f.values.size)  # flat, as the constructor reads it
            g, expect = f.with_values(values), GridFunction(f.breakpoints, values, f.interp)
            assert g.breakpoints is f.breakpoints  # validated and read-only already
            assert g.interp == expect.interp
            assert np.array_equal(g.values, expect.values)
            assert not g.values.flags.writeable and not np.shares_memory(g.values, values)

    @pytest.mark.parametrize("values", [[0.0, np.nan, 1.0], [0.0, np.inf, 1.0], [0.0, 1.0]])
    def test_values_are_still_checked(self, values):
        f = GridFunction([[0.0, 0.5, 1.0]], [0.0, 1.0, 2.0])
        with pytest.raises(ValidationError):
            f.with_values(values)


class TestLeonov:
    def test_completely_monotone_input(self):
        rng = np.random.default_rng(47)
        bps = [np.array([0.0, 0.5, 1.0])] * 2
        h = completely_monotone_function(rng, bps)
        shifted = h.with_values(h.values + 1.5)  # nonzero value at the origin
        f1, f2 = leonov_decompose(shifted)
        assert np.allclose(f1.values, shifted.values - 1.5, atol=1e-10)
        assert np.allclose(f2.values, -1.5, atol=1e-10)

    def test_constant(self):
        f = GridFunction([[0.0, 1.0]], [2.0, 2.0])
        f1, f2 = leonov_decompose(f)
        assert np.allclose(f1.values, 0.0)
        assert np.allclose(f2.values, -2.0)

    def test_hat(self):
        f1, f2 = leonov_decompose(hat_1d())
        assert np.array_equal(f1.values, [0.0, 1.0, 2.0])
        assert np.array_equal(f2.values, [0.0, 0.0, 2.0])

    def test_parts_completely_monotone(self):
        rng = np.random.default_rng(48)
        for _ in range(30):
            f = random_grid_function(rng, max_intervals=3)
            f1, f2 = leonov_decompose(f)
            assert is_completely_monotone(f1)
            assert is_completely_monotone(f2)
            assert np.allclose(f1.values - f2.values, f.values, atol=1e-10)


class TestJordanFunction:
    def test_completely_monotone_input(self):
        rng = np.random.default_rng(49)
        bps = [np.array([0.0, 0.25, 1.0])] * 2
        h = completely_monotone_function(rng, bps)
        shifted = h.with_values(h.values + 0.7)
        pair = jordan_decompose_function(shifted)
        assert np.allclose(pair.f_plus.values, h.values, atol=1e-10)
        assert np.allclose(pair.f_minus.values, 0.0, atol=1e-10)

    def test_negated_monotone_input(self):
        rng = np.random.default_rng(50)
        bps = [np.array([0.0, 0.5, 1.0])]
        h = completely_monotone_function(rng, bps)
        f = h.with_values(-h.values)
        pair = jordan_decompose_function(f)
        assert np.allclose(pair.f_plus.values, 0.0, atol=1e-10)
        assert np.allclose(pair.f_minus.values, h.values - h.value_at_origin(), atol=1e-10)

    def test_hat(self):
        pair = jordan_decompose_function(hat_1d())
        assert np.array_equal(pair.f_plus.values, [0.0, 1.0, 1.0])
        assert np.array_equal(pair.f_minus.values, [0.0, 0.0, 1.0])

    def test_variation_additivity_and_monotonicity(self):
        rng = np.random.default_rng(51)
        for _ in range(40):
            f = random_grid_function(rng, max_intervals=3)
            pair = jordan_decompose_function(f)
            assert pair.f_plus.value_at_origin() == 0.0
            assert pair.f_minus.value_at_origin() == 0.0
            assert is_completely_monotone(pair.f_plus)
            assert is_completely_monotone(pair.f_minus)
            total = hk_variation(pair.f_plus, ANCHOR_ZERO) + hk_variation(
                pair.f_minus, ANCHOR_ZERO
            )
            assert total == pytest.approx(hk_variation(f, ANCHOR_ZERO), abs=1e-10)

    def test_any_other_decomposition_pays_more_variation(self):
        rng = np.random.default_rng(52)
        for _ in range(20):
            f = random_grid_function(rng, d=2, max_intervals=2)
            pair = jordan_decompose_function(f)
            bump = completely_monotone_function(rng, f.breakpoints, scale=0.5)
            if bump.values.flat[-1] <= 0.0:
                continue
            g_plus = pair.f_plus.with_values(pair.f_plus.values + bump.values)
            g_minus = pair.f_minus.with_values(pair.f_minus.values + bump.values)
            assert is_completely_monotone(g_plus)
            assert is_completely_monotone(g_minus)
            competing = hk_variation(g_plus, ANCHOR_ZERO) + hk_variation(
                g_minus, ANCHOR_ZERO
            )
            assert competing > hk_variation(f, ANCHOR_ZERO) + 1e-9


class TestCompleteMonotonicity:
    def test_product_xy(self):
        assert is_completely_monotone(product_xy())

    def test_hat_is_not(self):
        assert not is_completely_monotone(hat_1d())

    def test_interior_pins_are_checked(self):
        # monotone on boundary faces but with a dip visible only when pinned
        # at the middle coordinate
        vals = np.array([
            [0.0, 0.0, 0.0],
            [0.0, 1.0, 0.5],
            [0.0, 1.0, 1.0],
        ])
        f = GridFunction([[0.0, 0.5, 1.0]] * 2, vals, STEP)
        assert not is_completely_monotone(f)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, -1e-12])
    def test_tolerance_must_be_finite_and_nonnegative(self, tol):
        # a NaN or infinite tolerance would pass every function
        f = GridFunction([[0.0, 1.0]] * 2, [[0.0, 1.0], [1.0, 0.0]], STEP)
        assert not is_completely_monotone(f)
        assert not is_completely_monotone(f, 0.0)
        with pytest.raises(ValidationError):
            is_completely_monotone(f, tol)


class TestMirror:
    def test_symmetric_function_is_fixed(self):
        vals = np.array([[0.0, 1.0], [1.0, 0.0]])
        f = GridFunction([[0.0, 1.0]] * 2, vals, STEP)
        g = mirror(f)
        assert np.array_equal(g.values, vals[::-1, ::-1])
        assert np.array_equal(g.values, vals)  # this one happens to be symmetric

    def test_reflects_corner_indicator(self):
        g = mirror(corner_indicator((0.5, 0.5)))
        # image is the indicator of [0, (1/2,1/2)] on the reflected grid
        expect = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        assert np.array_equal(g.values, expect)

    def test_swaps_anchors(self):
        rng = np.random.default_rng(53)
        for _ in range(30):
            f = random_grid_function(rng, max_intervals=3)
            g = mirror(f)
            assert hk_variation(f, ANCHOR_ONE) == pytest.approx(
                hk_variation(g, ANCHOR_ZERO), abs=1e-10
            )
            assert hk_variation(f, ANCHOR_ZERO) == pytest.approx(
                hk_variation(g, ANCHOR_ONE), abs=1e-10
            )


class TestFunctionToMeasure:
    def test_unit_jump_1d(self):
        f = GridFunction([[0.0, 0.5, 1.0]], [0.0, 1.0, 1.0], STEP)
        nu = function_to_measure(f)
        assert (nu.locations.tolist(), nu.weights.tolist()) == ([[0.5]], [1.0])

    def test_constant_lands_at_the_origin(self):
        f = GridFunction([[0.0, 1.0]], [2.5, 2.5], STEP)
        nu = function_to_measure(f)
        assert (nu.locations.tolist(), nu.weights.tolist()) == ([[0.0]], [2.5])

    def test_corner_indicator_is_a_point_mass(self):
        nu = function_to_measure(corner_indicator((0.5, 0.5)))
        assert (nu.locations.tolist(), nu.weights.tolist()) == ([[0.5, 0.5]], [1.0])

    def test_multilinear_rejected(self):
        with pytest.raises(ValidationError):
            function_to_measure(product_xy())

    def test_cdf_reproduces_the_function(self):
        rng = np.random.default_rng(54)
        for _ in range(20):
            f = random_grid_function(rng, max_intervals=3)
            nu = function_to_measure(f)
            for idx, v in zip(np.ndindex(f.shape), f.vertex_coordinates()):
                assert nu.cdf(v) == pytest.approx(float(f.values[idx]), abs=1e-10)

    def test_total_variation_identity(self):
        rng = np.random.default_rng(55)
        for _ in range(30):
            f = random_grid_function(rng, max_intervals=3)
            nu = function_to_measure(f)
            assert total_variation(nu) == pytest.approx(
                hk_variation(f, ANCHOR_ZERO) + abs(f.value_at_origin()), abs=1e-10
            )

    def test_jordan_parts_match_measure_parts_off_origin(self):
        rng = np.random.default_rng(56)
        for _ in range(20):
            f = random_grid_function(rng, d=2, max_intervals=2)
            pair = jordan_decompose_function(f)
            pos, neg = jordan_decompose_measure(function_to_measure(f))
            for part, gf in ((pos, pair.f_plus), (neg, pair.f_minus)):
                if len(part):
                    off_origin = ~np.all(part.locations == 0.0, axis=1)
                    locs = part.locations[off_origin]
                    ws = part.weights[off_origin]
                else:
                    locs = np.empty((0, 2))
                    ws = np.empty(0)
                for idx, v in zip(np.ndindex(f.shape), f.vertex_coordinates()):
                    got = float(ws[np.all(locs <= v, axis=1)].sum()) if len(ws) else 0.0
                    assert got == pytest.approx(float(gf.values[idx]), abs=1e-10)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
class TestCorrespondenceIdentity:
    """``V_HK(f) = |nu_f|([0,1]^d) - |f(anchor)|`` with ``f(x) = nu_f([0, x])``,
    as an equality: whole-number values make every sum exact in floats."""

    @staticmethod
    def cases(d):
        rng = np.random.default_rng(700 + d)
        for _ in range(10):
            f = random_grid_function(rng, d=d, max_intervals=3)
            yield f.with_values(rng.integers(-9, 10, size=f.shape).astype(float))

    def test_anchor_zero(self, d):
        for f in self.cases(d):
            hk0 = hk_variation(f, ANCHOR_ZERO)
            assert hk0 + abs(f.value_at_origin()) == total_variation(function_to_measure(f))
            assert hk0_prefix_grid(f)[(-1,) * d] == hk0

    def test_anchor_one_through_mirror(self, d):
        for f in self.cases(d):
            g = mirror(f)
            hk1 = hk_variation(f, ANCHOR_ONE)
            assert hk1 + abs(f.values[(-1,) * d]) == total_variation(function_to_measure(g))
            assert hk0_prefix_grid(g)[(-1,) * d] == hk1


class TestMeasureToFunction:
    def test_dirac_gives_corner_indicator(self):
        nu = DiscreteSignedMeasure(2, [(0.5, 0.5)], [1.0])
        f = measure_to_function(nu)
        expect = corner_indicator((0.5, 0.5))
        assert np.array_equal(f.values, expect.values)

    def test_empty_measure(self):
        f = measure_to_function(DiscreteSignedMeasure(2, [], []))
        assert np.array_equal(f.values, np.zeros((2, 2)))

    def test_round_trip(self):
        rng = np.random.default_rng(57)
        for _ in range(50):
            d = int(rng.integers(1, 4))
            nu = random_signed_measure(rng, d, max_atoms=20)
            back = function_to_measure(measure_to_function(nu))
            assert measures_match(nu, back, 1e-10)


class TestSplitAdditivity:
    def test_quadrant_split(self):
        rng = np.random.default_rng(58)
        for _ in range(20):
            f = random_grid_function(rng, d=2, max_intervals=3)
            n1, n2 = f.shape
            if n1 < 3 or n2 < 3:
                continue
            b = (n1 - 1, n2 - 1)
            c = (int(rng.integers(1, n1 - 1)), int(rng.integers(1, n2 - 1)))

            def vit(i0, i1, j0, j1):
                block = f.values[i0 : i1 + 1, j0 : j1 + 1]
                return float(np.abs(np.diff(np.diff(block, axis=0), axis=1)).sum())

            whole = vit(0, b[0], 0, b[1])
            parts = (
                vit(0, c[0], 0, c[1])
                + vit(c[0], b[0], 0, c[1])
                + vit(0, c[0], c[1], b[1])
                + vit(c[0], b[0], c[1], b[1])
            )
            assert whole == pytest.approx(parts, abs=1e-10)


class TestTriangleInequalities:
    def test_hk0_triangle_and_increment_form(self):
        rng = np.random.default_rng(59)
        for _ in range(30):
            f = random_grid_function(rng, d=2, max_intervals=3)
            g = f.with_values(rng.uniform(-2, 2, size=f.shape))
            fg = f.with_values(f.values + g.values)
            assert hk_variation(fg, ANCHOR_ZERO) <= (
                hk_variation(f, ANCHOR_ZERO) + hk_variation(g, ANCHOR_ZERO) + 1e-10
            )
            pf, pg, pfg = (hk0_prefix_grid(h) for h in (f, g, fg))
            n1, n2 = f.shape
            a = (int(rng.integers(0, n1)), int(rng.integers(0, n2)))
            b = (int(rng.integers(a[0], n1)), int(rng.integers(a[1], n2)))
            lhs = pfg[b] - pfg[a]
            rhs = (pf[b] - pf[a]) + (pg[b] - pg[a])
            assert lhs <= rhs + 1e-10

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(-3, 3, allow_nan=False), min_size=9, max_size=9),
        st.lists(st.floats(-3, 3, allow_nan=False), min_size=9, max_size=9),
    )
    def test_hypothesis_triangle(self, fv, gv):
        bps = [[0.0, 0.5, 1.0]] * 2
        f = GridFunction(bps, np.reshape(fv, (3, 3)), STEP)
        g = GridFunction(bps, np.reshape(gv, (3, 3)), STEP)
        fg = f.with_values(f.values + g.values)
        assert hk_variation(fg, ANCHOR_ZERO) <= (
            hk_variation(f, ANCHOR_ZERO) + hk_variation(g, ANCHOR_ZERO) + 1e-9
        )


class TestRefinement:
    def test_inserting_breakpoints_never_decreases_variation(self):
        rng = np.random.default_rng(60)
        for interp in (STEP, MULTILINEAR):
            for _ in range(20):
                f = random_grid_function(rng, d=2, max_intervals=2, interp=interp)
                new_bps = [
                    np.unique(np.concatenate([b, rng.uniform(0.05, 0.95, size=1)]))
                    for b in f.breakpoints
                ]
                mesh = np.meshgrid(*new_bps, indexing="ij")
                pts = np.stack([c.reshape(-1) for c in mesh], axis=-1)
                refined = GridFunction(
                    new_bps, f.evaluate(pts).reshape([b.size for b in new_bps]), interp
                )
                assert vitali_variation(refined) >= vitali_variation(f) - 1e-10
                assert hk_variation(refined, ANCHOR_ZERO) >= hk_variation(f, ANCHOR_ZERO) - 1e-10


def bit_equal(a, b) -> bool:
    """Same shape, same values and same sign bits (so ``-0.0 != 0.0``)."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def integer_valued(f: GridFunction) -> bool:
    """Whole-number vertex values, whose variation sums are exact in floats."""
    return bool(np.all(f.values == np.round(f.values)))


def kernel_cases(d: int):
    """Step and multilinear functions of dimension ``d``: random values,
    rounded values (ties, exact and negative zeros), and completely
    monotone functions with a dip just inside and just outside the
    default tolerance."""
    rng = np.random.default_rng(400 + d)
    for interp in (STEP, MULTILINEAR):
        for _ in range(5):
            f = random_grid_function(rng, d=d, max_intervals=3, interp=interp)
            yield f
            yield f.with_values(np.round(f.values))
        for dip in (0.5e-12, 2e-12):
            bps = [np.array([0.0, 0.3, 0.6, 1.0])] * d
            vals = completely_monotone_function(rng, bps).values.copy()
            vals[(1,) * d] -= dip
            yield GridFunction(bps, vals, interp)
        # length-2 axes, as in (4, 4, 4, 4, 2, 2): a face block there is one
        # difference wide, and a pinned index is also the last one
        for shape in ((4,) * max(d - 2, 0) + (2,) * min(d, 2),
                      tuple(2 + s % 2 for s in range(d))):
            bps = [np.linspace(0.0, 1.0, n) for n in shape]
            yield GridFunction(bps, rng.integers(-3, 4, size=shape).astype(float), interp)
            yield GridFunction(bps, rng.standard_normal(shape), interp)


def all_faces(d: int):
    for r in range(1, d + 1):
        yield from combinations(range(d), r)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
class TestSharedFaceKernel:
    """The face loops share one kernel; every float must stay as the
    separate loops computed it."""

    def test_vitali_on_the_full_grid_and_every_face(self, d):
        for f in kernel_cases(d):
            assert bit_equal(vitali_variation(f), reference_cell_sum(f.values, tuple(range(d)), None))
            for anchor, pin in ((ANCHOR_ONE, -1), (ANCHOR_ZERO, 0)):
                for axes in all_faces(d):
                    assert bit_equal(vitali_variation(f, FaceSelector(axes, anchor)),
                                     reference_cell_sum(f.values, axes, pin))

    def test_hk_variation_at_both_anchors(self, d):
        # one sum of the atoms regroups the face loops' terms: bit for bit
        # where the sums are exact, else both within rounding of the exact sum
        for f in kernel_cases(d):
            for anchor, pin in ((ANCHOR_ONE, -1), (ANCHOR_ZERO, 0)):
                got, face_loops = hk_variation(f, anchor), reference_hk_variation(f, pin)
                exact, bound = exact_hk_variation(f, pin)
                assert within_rounding(got, exact, bound)
                assert within_rounding(face_loops, exact, bound)
                if integer_valued(f):
                    assert bit_equal(got, face_loops)

    def test_prefix_grid_and_decompositions(self, d):
        for f in kernel_cases(d):
            prefix, face_loops = hk0_prefix_grid(f), reference_hk0_prefix_grid(f)
            exact, bound = exact_hk0_prefix_grid(f)
            assert within_rounding(prefix, exact, bound)
            assert within_rounding(face_loops, exact, bound)
            if integer_valued(f):
                assert bit_equal(prefix, face_loops)
            f1, f2 = leonov_decompose(f)
            assert bit_equal(f1.values, prefix)
            assert bit_equal(f2.values, prefix - f.values)
            pair = jordan_decompose_function(f)
            centered = f.values - f.value_at_origin()
            assert bit_equal(pair.f_plus.values, 0.5 * (prefix + centered))
            assert bit_equal(pair.f_minus.values, 0.5 * (prefix - centered))

    def test_complete_monotonicity(self, d):
        verdicts = set()
        for f in kernel_cases(d):
            for tol in (0.0, 1e-12):
                verdict = reference_is_completely_monotone(f, tol)
                assert is_completely_monotone(f, tol) is verdict
                verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_complete_monotonicity_reads_the_atoms(self, d):
        # the atoms are a subset of the face walk's floats: its verdict on
        # whole numbers, never False where it says True, and in floats the
        # exact atoms' verdict wherever rounding cannot flip it
        rng = np.random.default_rng(700 + d)
        cases = list(kernel_cases(d))
        for _ in range(50):
            f = random_grid_function(rng, d=d, max_intervals=3)
            pair = jordan_decompose_function(f)
            cases += [f, f.with_values(np.round(f.values)), pair.f_plus, pair.f_minus]
        decided = set()
        for f in cases:
            for tol in (0.0, 1e-12):
                got = is_completely_monotone(f, tol)
                walk = reference_is_completely_monotone(f, tol)
                if integer_valued(f):
                    assert got is walk
                assert got or not walk
                exact = exact_monotone_verdict(f, tol)
                if exact is not None:
                    assert got is exact
                    decided.add(exact)
        assert decided == {True, False}

    def test_measure_round_trip(self, d):
        for f in kernel_cases(d):
            if f.interp != STEP:
                continue
            nu = function_to_measure(f)
            locs, ws = reference_function_to_measure(f)
            assert bit_equal(nu.locations, locs) and bit_equal(nu.weights, ws)
            back = measure_to_function(nu)
            assert all(bit_equal(a, b) for a, b in zip(back.breakpoints, f.breakpoints))
            assert bit_equal(back.values, reference_measure_values(nu, f.breakpoints))
            pos, neg = jordan_decompose_measure(nu)
            for part, mask, sign in ((pos, ws > 0, 1.0), (neg, ws < 0, -1.0)):
                assert bit_equal(part.locations, locs[mask])
                assert bit_equal(part.weights, sign * ws[mask])

    def test_indicators(self, d):
        rng = np.random.default_rng(500 + d)
        corners = [np.zeros(d), np.ones(d), np.full(d, 0.5), rng.random(d),
                   rng.choice([0.0, 0.25, 1.0], size=d)]
        for c in corners:
            for build, reference in ((box_indicator, reference_box_indicator),
                                     (corner_indicator, reference_corner_indicator)):
                got, want = build(c), reference(c)
                assert got.interp == want.interp == STEP
                assert all(bit_equal(a, b) for a, b in zip(got.breakpoints, want.breakpoints))
                assert bit_equal(got.values, want.values)


class TestFaceLoopCost:
    """The face sums and the monotonicity check read every face out of one
    pinned-difference array, so they difference the grid once per axis, not
    once per face (63 faces at d = 6)."""

    @pytest.fixture
    def diff_calls(self, monkeypatch):
        calls = []
        diff = np.diff

        def counting(*args, **kwargs):
            calls.append(kwargs.get("axis"))
            return diff(*args, **kwargs)

        monkeypatch.setattr(np, "diff", counting)
        return calls

    @staticmethod
    def length_two_axes_d6():
        rng = np.random.default_rng(600)
        shape = (4, 4, 4, 4, 2, 2)
        return GridFunction([np.linspace(0.0, 1.0, n) for n in shape],
                            rng.integers(-9, 10, size=shape).astype(float))

    def test_face_sums_difference_once_per_axis(self, diff_calls):
        f = self.length_two_axes_d6()
        for run in (lambda: hk_variation(f, ANCHOR_ONE), lambda: hk_variation(f, ANCHOR_ZERO),
                    lambda: hk0_prefix_grid(f), lambda: vitali_variation(f)):
            diff_calls.clear()
            run()
            assert diff_calls == list(range(6))

    def test_monotonicity_differences_once_per_axis(self, diff_calls):
        f_plus = jordan_decompose_function(self.length_two_axes_d6()).f_plus
        diff_calls.clear()
        assert is_completely_monotone(f_plus)
        assert diff_calls == list(range(6))
