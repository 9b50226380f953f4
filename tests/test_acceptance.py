"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Tolerances are pinned here, not configurable.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from nuqmc import (
    ANCHOR_ONE,
    ANCHOR_ZERO,
    PointSet,
    ProductMeasure,
    UniformMeasure,
    box_indicator,
    chelson_conditional,
    chelson_identity_check,
    chelson_measure,
    conditional_transform_2d,
    corner_indicator,
    forward_cdf_map,
    function_to_measure,
    halton,
    hk_variation,
    is_completely_monotone,
    jordan_decompose_function,
    kh_certificate,
    leonov_decompose,
    measure_to_function,
    one_sided_deviation,
    product_transform,
    star_discrepancy,
    total_variation,
)
from helpers import (
    dense_uniform_star_discrepancy,
    measures_match,
    random_discrete_probability,
    random_general_axis_cdf,
    random_grid_function,
    random_point_set,
    random_signed_measure,
    random_strict_axis_cdf,
)


@contextmanager
def criterion(number: int, description: str, time_limit: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"[acceptance] criterion {number}: FAIL ({elapsed:.2f}s) {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[acceptance] criterion {number}: PASS ({elapsed:.2f}s) {description}")
    assert elapsed < time_limit, f"criterion {number} exceeded {time_limit}s"


def test_criterion_1_chelson_counterexample():
    with criterion(1, "Chelson counterexample, exact rationals", 1.0):
        x = (56 / 81, 20 / 23)
        cdf = chelson_conditional()
        m = chelson_measure()

        z = conditional_transform_2d(x, cdf)
        assert z[0] == pytest.approx(7 / 9, abs=1e-12)
        assert z[1] == pytest.approx(20 / 27, abs=1e-12)

        d_transformed = star_discrepancy(PointSet(2, [z]), m).value
        d_original = star_discrepancy(PointSet(2, [x]), UniformMeasure(2)).value
        assert d_transformed == pytest.approx(610 / 729, abs=1e-12)
        assert d_original == pytest.approx(20 / 23, abs=1e-12)

        probe = (1.0, 0.8)
        assert m.cdf(probe) == pytest.approx(22 / 25, abs=1e-12)
        image = forward_cdf_map(probe, cdf)
        assert float(np.prod(image)) == pytest.approx(0.8, abs=1e-12)

        report = chelson_identity_check(PointSet(2, [x]), cdf, m, probe=probe)
        assert not report.identity_holds


def test_criterion_2_variation_fixtures():
    with criterion(2, "corner-box indicator variation, d=1..6", 5.0):
        for d in range(1, 7):
            f = corner_indicator((0.5,) * d)
            assert hk_variation(f, ANCHOR_ONE) == float(2**d - 1)
            assert hk_variation(f, ANCHOR_ZERO) == 1.0


def test_criterion_3_measure_function_correspondence():
    with criterion(3, "measure<->function identity, 500 random signed measures", 30.0):
        rng = np.random.default_rng(2024_03)
        for _ in range(500):
            d = int(rng.integers(1, 4))
            nu = random_signed_measure(rng, d, max_atoms=20, wlow=-2.0, whigh=2.0)
            f = measure_to_function(nu)
            tv = total_variation(nu)
            identity = hk_variation(f, ANCHOR_ZERO) + abs(f.value_at_origin())
            assert tv == pytest.approx(identity, abs=1e-10)
            back = function_to_measure(f)
            assert measures_match(nu, back, 1e-10)


def test_criterion_4_monotone_decompositions():
    with criterion(4, "decomposition properties, 500 random step functions", 60.0):
        rng = np.random.default_rng(2024_04)
        for _ in range(500):
            d = int(rng.integers(1, 4))
            f = random_grid_function(rng, d=d, max_intervals=3)
            pair = jordan_decompose_function(f)
            assert pair.f_plus.value_at_origin() == 0.0
            assert pair.f_minus.value_at_origin() == 0.0
            assert is_completely_monotone(pair.f_plus)
            assert is_completely_monotone(pair.f_minus)
            split = hk_variation(pair.f_plus, ANCHOR_ZERO) + hk_variation(
                pair.f_minus, ANCHOR_ZERO
            )
            assert split == pytest.approx(hk_variation(f, ANCHOR_ZERO), abs=1e-10)

            f1, f2 = leonov_decompose(f)
            assert is_completely_monotone(f1)
            assert is_completely_monotone(f2)

            one = hk_variation(f, ANCHOR_ONE)
            zero = hk_variation(f, ANCHOR_ZERO)
            assert one <= (2**d - 1) * zero + 1e-10


def test_criterion_5_certificate_fuzzing():
    with criterion(5, "error certificates, 1000 fuzzed triples", 60.0):
        rng = np.random.default_rng(2024_05)
        for _ in range(1000):
            d = int(rng.integers(1, 4))
            f = random_grid_function(rng, d=d, max_intervals=3)
            m = random_discrete_probability(rng, d, max_atoms=12)
            ps = random_point_set(rng, d, max_points=64)
            cert = kh_certificate(f, ps, m)
            assert cert.satisfied, (
                f"bound violated: error={cert.observed_error} bound={cert.bound}"
            )
        for _ in range(200):
            d = int(rng.integers(1, 4))
            a = rng.uniform(0.05, 0.999, size=d)
            m = random_discrete_probability(rng, d, max_atoms=12)
            ps = random_point_set(rng, d, max_points=32)
            cert = kh_certificate(box_indicator(a), ps, m)
            assert cert.observed_error == pytest.approx(
                one_sided_deviation(a, ps, m), abs=1e-12
            )


def test_criterion_6_product_transform_discrepancy():
    with criterion(6, "product transform preserves/bounds discrepancy", 60.0):
        rng = np.random.default_rng(2024_06)
        for _ in range(200):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(1, 65))
            ps = halton(n, d)
            m = ProductMeasure([random_strict_axis_cdf(rng) for _ in range(d)])
            left = star_discrepancy(product_transform(ps, m), m).value
            right = star_discrepancy(ps, UniformMeasure(d)).value
            assert left == pytest.approx(right, abs=1e-10)
        for _ in range(200):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(1, 65))
            ps = halton(n, d)
            m = ProductMeasure([random_general_axis_cdf(rng) for _ in range(d)])
            left = star_discrepancy(product_transform(ps, m), m).value
            right = star_discrepancy(ps, UniformMeasure(d)).value
            assert left <= right + 1e-12


def test_criterion_7_discrepancy_oracle_equivalence():
    with criterion(7, "exact grid vs dense brute force, 100 point sets", 120.0):
        rng = np.random.default_rng(2024_07)
        for _ in range(100):
            d = int(rng.integers(1, 3))
            n = int(rng.integers(1, 17))
            ps = PointSet(d, rng.random((n, d)))
            exact = star_discrepancy(ps, UniformMeasure(d)).value
            per_axis = 1_000_000 if d == 1 else 1_000
            brute = dense_uniform_star_discrepancy(ps, per_axis)
            assert exact == pytest.approx(brute, abs=1e-6)
