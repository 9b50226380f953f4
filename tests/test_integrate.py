"""QMC estimates, exact reference integrals, and error certificates."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from nuqmc import (
    ANCHOR_ONE,
    AnalyticCdfMeasure,
    AxisCdf,
    BudgetExceededError,
    DimensionMismatchError,
    GridFunction,
    MULTILINEAR,
    PointSet,
    ProductMeasure,
    STEP,
    UniformMeasure,
    UnsupportedIntegrandError,
    ValidationError,
    box_indicator,
    box_measure,
    chelson_measure,
    hk_variation,
    importance_sampling_estimate,
    integral_under_measure,
    kh_certificate,
    one_sided_deviation,
    product_transform,
    qmc_estimate,
    star_discrepancy,
)
from nuqmc import discrepancy, integrate
from nuqmc.integrate import CERTIFICATE_TOL
from helpers import (
    random_discrete_probability,
    random_general_axis_cdf,
    random_grid_function,
    random_point_set,
)

TOL = 1e-12


class TestQmcEstimate:
    def test_constant(self):
        ps = PointSet(2, [[0.1, 0.2], [0.9, 0.4]])
        assert qmc_estimate(lambda x: 3.25, ps) == 3.25

    def test_indicator_recovers_counting(self):
        rng = np.random.default_rng(70)
        ps = random_point_set(rng, 2, max_points=32)
        a = (0.6, 0.7)
        f = box_indicator(a)
        frac = np.mean(np.all(ps.points < np.asarray(a), axis=1))
        assert qmc_estimate(f, ps) == pytest.approx(float(frac), abs=TOL)

    def test_product_function(self):
        f = GridFunction([[0.0, 1.0]] * 2, [[0.0, 0.0], [0.0, 1.0]], MULTILINEAR)
        ps = PointSet(2, [[0.5, 0.5], [1.0, 1.0]])
        assert qmc_estimate(f, ps) == pytest.approx(5 / 8, abs=TOL)


class TestIntegralUnderMeasure:
    def test_discrete_measure_weighted_sum(self):
        rng = np.random.default_rng(71)
        m = random_discrete_probability(rng, 2, max_atoms=10)
        f = random_grid_function(rng, d=2, max_intervals=3)
        expect = float(np.sum(m.weights * f.evaluate(m.locations)))
        assert integral_under_measure(f, m) == pytest.approx(expect, abs=TOL)

    def test_box_indicator_under_chelson(self):
        f = box_indicator((1.0, 0.8))
        assert integral_under_measure(f, chelson_measure()) == pytest.approx(
            22 / 25, abs=TOL
        )

    def test_step_riemann_sum_under_uniform(self):
        rng = np.random.default_rng(72)
        for _ in range(10):
            f = random_grid_function(rng, d=2, max_intervals=3, interp=STEP)
            got = integral_under_measure(f, UniformMeasure(2))
            # oracle: independent cellwise sum, value times volume
            b1, b2 = f.breakpoints
            expect = 0.0
            for i in range(b1.size - 1):
                for j in range(b2.size - 1):
                    expect += f.values[i, j] * (b1[i + 1] - b1[i]) * (b2[j + 1] - b2[j])
            assert got == pytest.approx(expect, abs=1e-10)
            # and a blunt midpoint-mesh quadrature for independence
            mesh = np.linspace(1e-4, 1 - 1e-4, 101)
            xx, yy = np.meshgrid(mesh, mesh, indexing="ij")
            pts = np.stack([xx.reshape(-1), yy.reshape(-1)], axis=-1)
            coarse = float(np.mean(f.evaluate(pts)))
            assert got == pytest.approx(coarse, abs=0.2)

    def test_step_under_product_with_atoms(self):
        rng = np.random.default_rng(73)
        for _ in range(10):
            m = ProductMeasure([random_general_axis_cdf(rng) for _ in range(2)])
            f = random_grid_function(rng, d=2, max_intervals=3, interp=STEP)
            got = integral_under_measure(f, m)
            # oracle: per-cell box masses through box_measure, including the
            # degenerate boundary slabs at coordinate 1
            expect = 0.0
            b1, b2 = f.breakpoints
            for i in range(b1.size):
                for j in range(b2.size):
                    lo = (b1[i], b2[j])
                    hi = (b1[min(i + 1, b1.size - 1)], b2[min(j + 1, b2.size - 1)])
                    upper_open = (i + 1 < b1.size, j + 1 < b2.size)
                    expect += f.values[i, j] * box_measure(m, lo, hi, upper_open=upper_open)
            assert got == pytest.approx(expect, abs=1e-10)

    def test_multilinear_against_continuous_measure_unsupported(self):
        f = GridFunction([[0.0, 1.0]], [0.0, 1.0], MULTILINEAR)
        with pytest.raises(UnsupportedIntegrandError):
            integral_under_measure(f, UniformMeasure(1))

    def test_dimension_mismatch(self):
        f = GridFunction([[0.0, 0.5, 1.0]] * 2, np.zeros((3, 3)))
        with pytest.raises(DimensionMismatchError):
            integral_under_measure(f, UniformMeasure(1))


class TestCertificate:
    def test_box_indicator_bound_is_the_discrepancy(self):
        rng = np.random.default_rng(74)
        ps = random_point_set(rng, 2, max_points=16)
        a = (0.35, 0.85)
        cert = kh_certificate(box_indicator(a), ps, UniformMeasure(2))
        assert cert.variation == pytest.approx(1.0, abs=TOL)
        assert cert.bound == pytest.approx(cert.discrepancy, abs=TOL)
        assert cert.satisfied
        assert cert.observed_error <= cert.discrepancy + 1e-10

    def test_constant_function(self):
        f = GridFunction([[0.0, 1.0]] * 2, np.full((2, 2), 2.0), STEP)
        ps = PointSet(2, [[0.4, 0.9]])
        cert = kh_certificate(f, ps, UniformMeasure(2))
        assert cert.variation == 0.0
        assert cert.observed_error == pytest.approx(0.0, abs=TOL)
        assert cert.satisfied

    def test_fuzz_never_violated(self):
        rng = np.random.default_rng(75)
        for _ in range(100):
            d = int(rng.integers(1, 4))
            f = random_grid_function(rng, d=d, max_intervals=3, interp=STEP)
            m = random_discrete_probability(rng, d, max_atoms=8)
            ps = random_point_set(rng, d, max_points=24)
            cert = kh_certificate(f, ps, m)
            assert cert.satisfied, (
                f"certificate violated: error={cert.observed_error} "
                f"bound={cert.bound}"
            )

    def test_five_dimensional_step_function(self):
        # no dimension gate: a 4^5-cell step function against a jump/plateau
        # product measure, certified through the exact 5-d discrepancy
        rng = np.random.default_rng(80)
        bps = [np.linspace(0.0, 1.0, 5)] * 5
        f = GridFunction(bps, rng.uniform(-1, 1, (5,) * 5), STEP)
        m = ProductMeasure([random_general_axis_cdf(rng) for _ in range(5)])
        ps = PointSet(5, rng.random((16, 5)))
        cert = kh_certificate(f, ps, m)
        assert cert.discrepancy == star_discrepancy(ps, m).value
        assert cert.bound == cert.variation * cert.discrepancy
        assert cert.observed_error == abs(cert.estimate - integral_under_measure(f, m))
        assert cert.satisfied

    def test_indicator_tightness_channel(self):
        rng = np.random.default_rng(76)
        for _ in range(50):
            d = int(rng.integers(1, 3))
            a = rng.uniform(0.1, 0.95, size=d)
            m = random_discrete_probability(rng, d, max_atoms=8)
            ps = random_point_set(rng, d, max_points=16)
            cert = kh_certificate(box_indicator(a), ps, m)
            assert cert.observed_error == pytest.approx(
                one_sided_deviation(a, ps, m), abs=TOL
            )


    @pytest.mark.xfail(strict=True, reason="CERTIFICATE_TOL is a fixed absolute slack: "
                       "two ulps of rounding in a 1e9 integrand read as a violated theorem")
    def test_large_integrand_rounding_is_no_false_alarm(self):
        # Koksma-Hlawka is attained here, by a box indicator whose edge is
        # the witness: in exact arithmetic the observed error equals V*D*,
        # but the float estimate and reference miss by two ulps
        # (observed 1039499367.2967963 against a bound 1039499367.2967961)
        ps = PointSet(1, [[0.8357776908784215], [0.7700597213115217],
                          [0.4196858776626041], [0.13243145206943718]])
        b = box_indicator([0.7700597213115217])
        cert = kh_certificate(b.with_values(3849146263.82845 * b.values), ps, UniformMeasure(1))
        assert cert.satisfied

    def test_overflowing_function_is_refused(self):
        # once estimate=inf, variation=inf, bound=inf and satisfied=True
        f = GridFunction([[0.0, 1.0]], [1e308, -1e308])
        with np.errstate(over="ignore"), pytest.raises(ValidationError) as err:
            kh_certificate(f, PointSet(1, [[0.25], [0.75]]), UniformMeasure(1))
        assert str(err.value) == "certificate is not finite: estimate = inf"


#: An analytic CDF that is 1e308 below the top corner: the exact
#: discrepancy under it is finite, and ten times it is not.
_HUGE_CDF = AnalyticCdfMeasure(1, lambda a: np.where(np.all(a == 1.0, axis=1), 1.0, 1e308))


def _product_density(rng, d):
    """A random product step density ``g`` on 2-4 breakpoints an axis, and
    the product measure ``m_g`` with density ``g``: its CDF is piecewise
    linear, so a certificate under it is a theorem, not a coincidence."""
    bps = [np.unique(np.concatenate([[0.0, 1.0], rng.uniform(0.1, 0.9, 2)]))
           for _ in range(d)]
    axes = []
    g_vals = np.ones(tuple(b.size for b in bps))
    for s, b in enumerate(bps):
        dens = rng.uniform(0.2, 2.0, size=b.size - 1)
        total = float(np.sum(dens * np.diff(b)))
        dens = dens / total
        cdf_vals = np.concatenate([[0.0], np.cumsum(dens * np.diff(b))])
        cdf_vals[-1] = 1.0
        axes.append(AxisCdf(b, cdf_vals))
        per_vertex = np.concatenate([dens, [dens[-1]]])
        shape = [1] * d
        shape[s] = b.size
        g_vals = g_vals * per_vertex.reshape(shape)
    return GridFunction(bps, g_vals, STEP), ProductMeasure(axes)


class TestImportanceSampling:
    def test_ideal_density_is_exact_for_any_points(self):
        rng = np.random.default_rng(77)
        f = random_grid_function(rng, d=2, max_intervals=3, interp=STEP, low=0.5, high=2.0)
        integral = integral_under_measure(f, UniformMeasure(2))
        g = f.with_values(f.values / integral)
        # g integrates to 1: it is the ideal importance density for f
        ps = random_point_set(rng, 2, max_points=8)
        m_g = random_discrete_probability(rng, 2, max_atoms=4)  # any measure works here
        estimate, cert = importance_sampling_estimate(f, g, ps, m_g)
        assert estimate == pytest.approx(integral, abs=1e-12)
        assert cert.variation == pytest.approx(0.0, abs=1e-10)
        assert cert.satisfied

    def test_unit_density_reduces_to_plain_estimate(self):
        rng = np.random.default_rng(78)
        f = random_grid_function(rng, d=2, max_intervals=2, interp=STEP)
        ones = f.with_values(np.ones(f.shape))
        ps = random_point_set(rng, 2, max_points=12)
        estimate, cert = importance_sampling_estimate(f, ones, ps, UniformMeasure(2))
        plain = kh_certificate(f, ps, UniformMeasure(2))
        assert estimate == pytest.approx(plain.estimate, abs=TOL)
        assert cert.variation == pytest.approx(plain.variation, abs=TOL)
        assert cert.bound == pytest.approx(plain.bound, abs=TOL)
        assert cert.satisfied

    def test_transformed_points_certificate(self):
        # mu_g must really be the measure with density g: build a product
        # step density, so its CDF is a piecewise-linear product measure and
        # the bound is a theorem rather than a coincidence
        rng = np.random.default_rng(79)
        for _ in range(25):
            d = int(rng.integers(1, 3))
            g, m_g = _product_density(rng, d)
            f = GridFunction(g.breakpoints, rng.uniform(-1, 1, g.shape), STEP)
            ps = product_transform(random_point_set(rng, d, max_points=32), m_g)
            estimate, cert = importance_sampling_estimate(f, g, ps, m_g)
            manual = float(np.mean(f.evaluate(ps.points) / g.evaluate(ps.points)))
            assert estimate == pytest.approx(manual, abs=TOL)
            assert cert.reference_integral == pytest.approx(
                integral_under_measure(f, UniformMeasure(d)), abs=TOL
            )
            assert cert.satisfied, (
                f"importance-sampling bound violated: error={cert.observed_error} "
                f"bound={cert.bound}"
            )

    def test_callback_with_supplied_variation(self):
        ps = PointSet(1, [[0.25], [0.75]])
        estimate, cert = importance_sampling_estimate(
            lambda x: float(x[0]),
            lambda x: 1.0,
            ps,
            UniformMeasure(1),
            variation=1.0,
            reference_integral=0.5,
        )
        assert estimate == pytest.approx(0.5, abs=TOL)
        assert cert.satisfied

    def test_step_pair_on_other_grids_is_certified_exactly(self):
        # g's product density and f live on different breakpoints; f/g is read
        # at the vertices of their union, where both are constant on each cell
        rng = np.random.default_rng(82)
        for _ in range(25):
            d = int(rng.integers(1, 3))
            g, m_g = _product_density(rng, d)
            f = random_grid_function(rng, d=d, max_intervals=3, interp=STEP)
            ps = product_transform(random_point_set(rng, d, max_points=32), m_g)
            estimate, cert = importance_sampling_estimate(f, g, ps, m_g)
            assert estimate == float(np.mean(f.evaluate(ps.points) / g.evaluate(ps.points)))
            union = [np.union1d(a, b) for a, b in zip(f.breakpoints, g.breakpoints)]
            vertices = np.stack([c.reshape(-1) for c in np.meshgrid(*union, indexing="ij")],
                                axis=-1)
            ratio = GridFunction(union, f.evaluate(vertices) / g.evaluate(vertices), STEP)
            assert cert.variation == hk_variation(ratio, ANCHOR_ONE)
            assert cert.reference_integral == integral_under_measure(f, UniformMeasure(d))
            assert cert.discrepancy == star_discrepancy(ps, m_g).value
            assert cert.satisfied, (
                f"importance-sampling bound violated: error={cert.observed_error} "
                f"bound={cert.bound}"
            )

    def test_same_grid_pair_is_the_ratio_function_certificate(self):
        # a pair on one grid is its own union: bit for bit the certificate of
        # f/g formed vertex by vertex, with no field beyond these seven
        rng = np.random.default_rng(83)
        for _ in range(25):
            d = int(rng.integers(1, 4))
            f = random_grid_function(rng, d=d, max_intervals=3, interp=STEP)
            g = f.with_values(rng.uniform(0.25, 4.0, f.shape))
            ps = random_point_set(rng, d, max_points=16)
            m_g = ProductMeasure([random_general_axis_cdf(rng) for _ in range(d)])
            estimate, cert = importance_sampling_estimate(f, g, ps, m_g)
            ratio = f.with_values(f.values / g.values)
            variation = hk_variation(ratio, ANCHOR_ONE)
            disc = star_discrepancy(ps, m_g).value
            reference = integral_under_measure(f, UniformMeasure(d))
            assert estimate == cert.estimate == qmc_estimate(ratio, ps)
            assert dataclasses.asdict(cert) == {
                "estimate": estimate, "reference_integral": reference,
                "observed_error": abs(estimate - reference), "variation": variation,
                "discrepancy": disc, "bound": variation * disc,
                "satisfied": abs(estimate - reference) <= variation * disc + CERTIFICATE_TOL,
            }

    @pytest.mark.parametrize("f, g, point", [
        (GridFunction([[0.0, 0.5, 1.0], [0.0, 0.5, 1.0]], np.arange(1.0, 10.0), STEP),
         GridFunction([[0.0, 0.5, 1.0], [0.0, 0.5, 1.0]], np.linspace(0.5, 1.5, 9),
                      MULTILINEAR), [0.1, 0.2]),
        (lambda x: float(x[0]), lambda x: 2.0 * x[0], [0.5]),
    ], ids=["multilinear", "callback"])
    def test_pair_without_an_exact_variation_is_refused(self, f, g, point):
        # no proxy: without variation= there is nothing to certify, and the
        # density (0 on the face x = 0 for the callback) is never read
        ps, m = PointSet(len(point), [point]), UniformMeasure(len(point))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UnsupportedIntegrandError) as err:
                importance_sampling_estimate(f, g, ps, m)
        assert "variation=" in str(err.value)
        estimate, cert = importance_sampling_estimate(f, g, ps, m, variation=1.0)
        at = np.asarray(point)
        direct = [h.evaluate(at) if isinstance(h, GridFunction) else h(at) for h in (f, g)]
        assert estimate == float(direct[0] / direct[1])
        assert cert.variation == 1.0
        assert cert.satisfied is None  # no reference integral supplied

    def test_cell_budget_gates_the_certificate_discrepancy(self):
        rng = np.random.default_rng(81)
        f = random_grid_function(rng, d=2, max_intervals=2, interp=STEP)
        ps = random_point_set(rng, 2, max_points=4)  # at least a 3 x 3 critical grid
        with pytest.raises(BudgetExceededError):
            kh_certificate(f, ps, UniformMeasure(2), cell_budget=8)
        with pytest.raises(BudgetExceededError):
            importance_sampling_estimate(f, f.with_values(np.ones(f.shape)), ps,
                                         UniformMeasure(2), cell_budget=8)
        with pytest.raises(TypeError):
            kh_certificate(f, ps, UniformMeasure(2), cell_budjet=8)

    def test_critical_grid_is_built_once(self, monkeypatch):
        # the budget gate and the walk of the certificate's D* are one call
        # of star_discrepancy; the spy counts the build under every module
        # name it is reachable by
        builds = []
        build = discrepancy._critical_grids
        for module in (discrepancy, integrate):
            if hasattr(module, "_critical_grids"):
                monkeypatch.setattr(module, "_critical_grids",
                                    lambda *args: builds.append(args) or build(*args))
        f = GridFunction([[0.0, 0.5, 1.0]], [1.0, 2.0, 3.0])
        g = GridFunction([[0.0, 1.0]], [1.0, 1.0])
        importance_sampling_estimate(f, g, PointSet(1, [[0.25], [0.75]]), UniformMeasure(1))
        assert len(builds) == 1

    def test_cell_budget_is_checked_before_the_union_grid(self):
        # a 2001 x 2001 union grid (about 150 MiB with its variation) for a
        # 4 x 4 critical grid: the budget refuses it before it is built
        f = GridFunction([np.linspace(0.0, 1.0, 2001), [0.0, 1.0]], np.ones((2001, 2)))
        g = GridFunction([[0.0, 1.0], np.linspace(0.0, 1.0, 2001)], np.ones((2, 2001)))
        ps = PointSet(2, [[0.25, 0.5], [0.75, 0.125]])
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError, match="16 cells"):
                importance_sampling_estimate(f, g, ps, UniformMeasure(2), cell_budget=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            importance_sampling_estimate(lambda x: 1.0, lambda x: 1.0, PointSet(1, [[0.5]]),
                                         UniformMeasure(2), variation=1.0)

    def test_step_pair_of_other_dimensions_is_refused(self):
        # the union of their breakpoints would silently drop f's last axis
        f = GridFunction([[0.0, 0.5, 1.0]] * 2, np.ones((3, 3)))
        g = GridFunction([[0.0, 0.25, 1.0]], [1.0, 1.0, 1.0])
        with pytest.raises(DimensionMismatchError):
            importance_sampling_estimate(f, g, PointSet(2, [[0.5, 0.5]]), UniformMeasure(2))

    def test_nonpositive_density_rejected(self):
        ps = PointSet(1, [[0.5]])
        with pytest.raises(ValidationError):
            importance_sampling_estimate(
                lambda x: 1.0, lambda x: 0.0, ps, UniformMeasure(1), variation=1.0
            )
        # a step density is read at every vertex of the union grid
        f = GridFunction([[0.0, 0.5, 1.0]], [1.0, 2.0, 3.0])
        g = GridFunction([[0.0, 0.25, 1.0]], [1.0, 0.0, 1.0])
        with pytest.raises(ValidationError, match="density must be positive"):
            importance_sampling_estimate(f, g, ps, UniformMeasure(1))

    @pytest.mark.parametrize("kwargs, message", [
        ({"f": lambda x: float("inf")}, "estimate = inf"),
        ({"reference_integral": float("nan")}, "reference_integral = nan"),
        ({"variation": float("inf")}, "variation = inf"),
        ({"m_g": _HUGE_CDF, "variation": 10.0}, "bound = inf"),
    ], ids=["estimate", "reference", "variation", "bound"])
    def test_certificate_that_is_not_finite_is_refused(self, kwargs, message):
        # the first factor that is infinite or NaN is named; a certificate
        # built on it would read satisfied=True (or False) and prove nothing
        args = {"f": lambda x: float(x[0]), "m_g": UniformMeasure(1), "variation": 1.0,
                "reference_integral": 0.5, **kwargs}
        with pytest.raises(ValidationError) as err:
            importance_sampling_estimate(args.pop("f"), lambda x: 1.0, PointSet(1, [[0.25], [0.75]]),
                                         args.pop("m_g"), **args)
        assert str(err.value) == f"certificate is not finite: {message}"

    @pytest.mark.parametrize("step", [False, True], ids=["callback", "step-pair"])
    @pytest.mark.parametrize("kwargs, message", [
        ({"variation": -1.0}, "variation must be >= 0"),
        ({"variation": "abc"}, "variation: expected one number, got 'abc'"),
        ({"variation": [1.0, 2.0]}, "variation: expected one number"),
        ({"reference_integral": "x"}, "reference_integral: expected one number, got 'x'"),
        ({"reference_integral": [0.5]}, "reference_integral: expected one number"),
    ], ids=["negative", "text", "two-numbers", "reference-text", "reference-list"])
    def test_callers_bound_is_one_number(self, kwargs, message, step):
        # a negative variation once gave bound = -0.17 and satisfied=False, the
        # certificate's evidence of a bug; text ended in Python's ValueError
        # or TypeError
        f, g = ((GridFunction([[0.0, 0.5, 1.0]], [1.0, 2.0, 3.0]),
                 GridFunction([[0.0, 1.0]], [1.0, 1.0])) if step
                else (lambda x: float(x[0]), lambda x: 1.0))
        args = {"variation": 1.0, "reference_integral": 1.5, **kwargs}
        with pytest.raises(ValidationError, match=message):
            importance_sampling_estimate(f, g, PointSet(1, [[0.25], [0.75]]), UniformMeasure(1),
                                         **args)

    @pytest.mark.parametrize("kwargs", [
        {"variation": 0.0}, {"variation": 1e9}, {"reference_integral": 2.0},
        {"variation": 1.0, "reference_integral": 2.0},
    ], ids=["variation-zero", "variation-large", "reference", "both"])
    def test_step_pair_takes_neither_override(self, kwargs):
        # its variation and reference integral are exact: an override once
        # replaced them, and a variation below hk_variation(f/g) could read
        # satisfied=True against a bound that is not the theorem's
        f = GridFunction([[0.0, 0.5, 1.0]], [1.0, 2.0, 3.0])
        g = GridFunction([[0.0, 1.0]], [1.0, 1.0])
        ps = PointSet(1, [[0.25], [0.75]])
        with pytest.raises(ValidationError) as err:
            importance_sampling_estimate(f, g, ps, UniformMeasure(1), **kwargs)
        assert "variation=" in str(err.value) and "reference_integral=" in str(err.value)
        _, cert = importance_sampling_estimate(f, g, ps, UniformMeasure(1))
        assert (cert.variation, cert.reference_integral) == (
            hk_variation(f, ANCHOR_ONE), integral_under_measure(f, UniformMeasure(1)))

    def test_callers_bound_from_numpy(self):
        estimate, cert = importance_sampling_estimate(
            lambda x: float(x[0]), lambda x: 1.0, PointSet(1, [[0.25], [0.75]]),
            UniformMeasure(1), variation=np.float64(2.0), reference_integral=np.array(0.5))
        assert (cert.variation, cert.reference_integral) == (2.0, 0.5)
        assert type(cert.variation) is float and type(cert.reference_integral) is float
        assert cert.bound == 2.0 * cert.discrepancy and cert.satisfied
