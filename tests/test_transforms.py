"""Pseudo-inverse CDFs, product and conditional transforms, and the failure
of the transformed-discrepancy identity for non-product measures."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nuqmc import (
    AxisCdf,
    ConditionalCdf2D,
    PointSet,
    ProductMeasure,
    UniformMeasure,
    chelson_cdf,
    chelson_conditional,
    chelson_density,
    chelson_identity_check,
    ValidationError,
    chelson_measure,
    conditional_transform_2d,
    forward_cdf_map,
    product_transform,
    pseudo_inverse,
    star_discrepancy,
)
from nuqmc.transforms import chelson_marginal
from helpers import (
    chelson_box_mass,
    chelson_cdf_exact,
    chelson_cdf_scalar,
    random_general_axis_cdf,
    random_point_set,
    random_strict_axis_cdf,
    reference_pseudo_inverse,
)

TOL = 1e-12


def dirac_half_cdf() -> AxisCdf:
    return AxisCdf([0.0, 0.5, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0])


class TestPseudoInverse:
    def test_chelson_marginal_worked_value(self):
        assert pseudo_inverse(chelson_marginal, 56 / 81) == pytest.approx(7 / 9, abs=1e-12)

    def test_identity(self):
        ax = AxisCdf.identity()
        for y in (0.0, 0.3, 1.0):
            assert pseudo_inverse(ax, y) == pytest.approx(y, abs=TOL)

    def test_jump_maps_to_the_jump_location(self):
        ax = dirac_half_cdf()
        assert pseudo_inverse(ax, 0.3) == 0.5
        assert pseudo_inverse(ax, 0.0) == 0.0

    def test_plateau_maps_to_its_left_edge(self):
        ax = AxisCdf([0.0, 0.25, 0.75, 1.0], [0.0, 0.5, 0.5, 1.0])
        assert pseudo_inverse(ax, 0.5) == pytest.approx(0.25, abs=TOL)

    def test_square_cdf_callback(self):
        assert pseudo_inverse(lambda x: x * x, 0.25) == pytest.approx(0.5, abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(st.floats(0, 1), st.floats(0, 1), st.integers(0, 2**31 - 1))
    def test_hypothesis_galois(self, y, x, seed):
        rng = np.random.default_rng(seed)
        ax = random_general_axis_cdf(rng)
        inv = pseudo_inverse(ax, y)
        assert ax.value(inv) >= y - TOL
        assert pseudo_inverse(ax, ax.value(x)) <= x + TOL

    def test_array_path_matches_the_segment_loop(self):
        rng = np.random.default_rng(64)
        axes = [random_general_axis_cdf(rng, max_segments=6) for _ in range(150)]
        axes += [random_strict_axis_cdf(rng) for _ in range(30)]
        axes += [dirac_half_cdf(), AxisCdf([0.0, 0.5, 1.0], [0.0, 0.5, 1.0 - 5e-13])]
        compared = 0
        for ax in axes:
            data = np.concatenate([ax.values, ax.values_left])
            ys = np.concatenate([data, np.nextafter(data, 0.0), np.nextafter(data, 1.0),
                                 rng.random(32), [0.0, -0.0, 1.0]])
            ys = ys[(ys >= 0.0) & (ys <= 1.0)]
            want = np.array([reference_pseudo_inverse(ax, y) for y in ys])
            got = ax._pseudo_inverse_at(ys)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
            assert np.array_equal([ax.pseudo_inverse(y) for y in ys], want)
            compared += ys.size
        assert compared > 10_000

    @pytest.mark.parametrize("y", [-0.1, 1.5, float("nan")])
    def test_argument_outside_the_unit_interval(self, y):
        ax = random_general_axis_cdf(np.random.default_rng(65))
        with pytest.raises(ValidationError):
            ax.pseudo_inverse(y)
        with pytest.raises(ValidationError):
            ax._pseudo_inverse_at(np.array([0.5, y]))


class TestProductTransform:
    def test_identity_axes(self):
        rng = np.random.default_rng(61)
        ps = random_point_set(rng, 2, max_points=16)
        m = ProductMeasure([AxisCdf.identity(), AxisCdf.identity()])
        image = product_transform(ps, m)
        assert np.allclose(image.points, ps.points, atol=TOL)

    def test_discrepancy_preserved_for_invertible_axes(self):
        rng = np.random.default_rng(62)
        for _ in range(15):
            d = int(rng.integers(1, 4))
            m = ProductMeasure([random_strict_axis_cdf(rng) for _ in range(d)])
            ps = random_point_set(rng, d, max_points=32)
            image = product_transform(ps, m)
            left = star_discrepancy(image, m).value
            right = star_discrepancy(ps, UniformMeasure(d)).value
            assert left == pytest.approx(right, abs=1e-10)

    def test_discrepancy_never_grows_with_flats_and_atoms(self):
        rng = np.random.default_rng(63)
        for _ in range(15):
            d = int(rng.integers(1, 4))
            m = ProductMeasure([random_general_axis_cdf(rng) for _ in range(d)])
            ps = random_point_set(rng, d, max_points=32)
            image = product_transform(ps, m)
            left = star_discrepancy(image, m).value
            right = star_discrepancy(ps, UniformMeasure(d)).value
            assert left <= right + TOL

    def test_matches_the_pointwise_segment_loop(self):
        rng = np.random.default_rng(66)
        for d in (1, 2, 3):
            m = ProductMeasure([random_general_axis_cdf(rng, max_segments=6) for _ in range(d)])
            ps = random_point_set(rng, d, max_points=64)
            want = [[reference_pseudo_inverse(ax, x) for ax, x in zip(m.axes, p)] for p in ps.points]
            assert np.array_equal(product_transform(ps, m).points, np.array(want).reshape(-1, d))


class TestConditionalTransform:
    def test_chelson_worked_point(self):
        z = conditional_transform_2d((56 / 81, 20 / 23), chelson_conditional())
        assert z[0] == pytest.approx(7 / 9, abs=1e-12)
        assert z[1] == pytest.approx(20 / 27, abs=1e-12)

    def test_product_form_reduces_to_marginals(self):
        rng = np.random.default_rng(64)
        ax1 = random_strict_axis_cdf(rng)
        ax2 = random_strict_axis_cdf(rng)
        cdf = ConditionalCdf2D(
            marginal=ax1.value,
            conditional=lambda y2, y1: ax2.value(y2),
        )
        m = ProductMeasure([ax1, ax2])
        ps = random_point_set(rng, 2, max_points=16)
        via_product = product_transform(ps, m)
        for x, expect in zip(ps.points, via_product.points):
            z = conditional_transform_2d(x, cdf)
            assert np.allclose(z, expect, atol=1e-9)

    def test_uniform_density_is_the_identity(self):
        cdf = ConditionalCdf2D(marginal=lambda y: y, conditional=lambda y2, y1: y2)
        z = conditional_transform_2d((0.3, 0.8), cdf)
        assert np.allclose(z, (0.3, 0.8), atol=1e-12)

    def test_a_plateau_maps_to_its_left_edge(self):
        # the conditional CDF is flat at 1/2 on [0.25, 0.75): its generalized
        # inverse takes 1/2 to the left edge of the plateau
        def conditional(y2, y1):
            return min(2.0 * y2, 0.5) if y2 < 0.75 else 0.5 + 2.0 * (y2 - 0.75)

        cdf = ConditionalCdf2D(marginal=lambda y: y, conditional=conditional)
        z1, z2 = conditional_transform_2d((0.3, 0.5), cdf)
        assert z1 == pytest.approx(0.3, abs=1e-13)
        assert z2 == 0.25

    def test_forward_map_inverts_the_transform(self):
        rng = np.random.default_rng(65)
        cdf = chelson_conditional()
        for _ in range(50):
            x = rng.random(2)
            z = conditional_transform_2d(x, cdf)
            back = forward_cdf_map(z, cdf)
            assert np.allclose(back, x, atol=1e-9)


class TestForwardCdfMap:
    def test_chelson_probe_is_fixed(self):
        assert forward_cdf_map((1.0, 0.8), chelson_conditional()) == pytest.approx(
            (1.0, 0.8), abs=TOL
        )

    def test_identity_cdfs(self):
        m = ProductMeasure([AxisCdf.identity(), AxisCdf.identity()])
        assert forward_cdf_map((0.2, 0.9), m) == pytest.approx((0.2, 0.9), abs=TOL)

    def test_chelson_worked_values_forward(self):
        got = forward_cdf_map((7 / 9, 20 / 27), chelson_conditional())
        assert got[0] == pytest.approx(56 / 81, abs=TOL)
        assert got[1] == pytest.approx(20 / 23, abs=TOL)


class TestChelsonFixture:
    def test_density_and_cdf_are_consistent(self):
        assert chelson_density((0.2, 0.8)) == 0.5
        assert chelson_density((0.8, 0.2)) == 1.5
        assert chelson_cdf((1.0, 1.0)) == pytest.approx(1.0, abs=TOL)
        rng = np.random.default_rng(66)
        for _ in range(100):
            a = rng.random(2)
            assert chelson_cdf(a) == pytest.approx(chelson_box_mass((0, 0), a), abs=1e-9)

    def test_batched_cdf_matches_the_scalar_formula(self):
        rng = np.random.default_rng(67)
        a = rng.random((500, 2))
        a[::5, 1] = a[::5, 0]  # on the diagonal, where the two formulas meet
        a[1::7] = rng.choice([0.0, 1.0], size=(a[1::7].shape[0], 2))
        got = chelson_cdf(a)
        assert got.shape == (500,)
        assert np.array_equal(got, [chelson_cdf_scalar(p) for p in a])
        assert chelson_cdf(a[3]) == chelson_cdf_scalar(a[3])

    def test_cdf_is_exact_at_dyadic_points(self):
        rng = np.random.default_rng(68)
        a = rng.integers(0, 2**10 + 1, size=(300, 2)) / 2**10
        a[::4, 1] = a[::4, 0]
        for point, value in zip(a, chelson_cdf(a)):
            assert Fraction(float(value)) == chelson_cdf_exact(point)

    def test_identity_check_reports_failure(self):
        ps = PointSet(2, [[56 / 81, 20 / 23]])
        report = chelson_identity_check(ps, chelson_conditional(), chelson_measure())
        assert report.mu_discrepancy == pytest.approx(610 / 729, abs=TOL)
        assert report.uniform_discrepancy == pytest.approx(20 / 23, abs=TOL)
        assert not report.identity_holds
        assert report.measure_mass_probe == pytest.approx(22 / 25, abs=TOL)
        assert report.uniform_mass_probe_image == pytest.approx(0.8, abs=TOL)
        # the box-indicator identity fails at the probe: the transformed
        # point is inside the box, the original is not inside its image
        assert report.transformed_in_probe == 1
        assert report.original_in_probe_image == 0

    def test_identity_holds_for_product_form(self):
        rng = np.random.default_rng(67)
        ax1 = random_strict_axis_cdf(rng)
        ax2 = random_strict_axis_cdf(rng)
        cdf = ConditionalCdf2D(marginal=ax1.value, conditional=lambda y2, y1: ax2.value(y2))
        m = ProductMeasure([ax1, ax2])
        ps = random_point_set(rng, 2, max_points=12)
        report = chelson_identity_check(ps, cdf, m)
        assert report.identity_holds

    def test_identity_exact_for_uniform(self):
        rng = np.random.default_rng(68)
        cdf = ConditionalCdf2D(marginal=lambda y: y, conditional=lambda y2, y1: y2)
        ps = random_point_set(rng, 2, max_points=8)
        report = chelson_identity_check(ps, cdf, UniformMeasure(2))
        assert report.mu_discrepancy == pytest.approx(report.uniform_discrepancy, abs=TOL)
        assert report.identity_holds
