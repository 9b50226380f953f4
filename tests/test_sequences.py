"""Van der Corput / Halton generators and their discrepancy behavior."""

import numpy as np
import pytest

from nuqmc import (
    PointSet,
    UniformMeasure,
    ValidationError,
    halton,
    star_discrepancy,
    van_der_corput,
)


def test_radical_inverse_base2():
    assert van_der_corput(1, 2) == 0.5
    assert van_der_corput(3, 2) == 0.75


def test_radical_inverse_base3_digit_reversal():
    # 5 = 12 in base 3, reversed digits give 2/3 + 1/9
    assert van_der_corput(5, 3) == pytest.approx(7 / 9, abs=1e-15)


def test_invalid_arguments():
    with pytest.raises(ValidationError):
        van_der_corput(1, 1)
    with pytest.raises(ValidationError):
        van_der_corput(0, 2)
    with pytest.raises(ValidationError):
        halton(4, 9)


def test_halton_equals_the_scalar_radical_inverse():
    # the array recurrence makes the same divisions and additions, digit
    # position by digit position: the same floats in every base
    pts = halton(3000, 8).points
    for s, base in enumerate((2, 3, 5, 7, 11, 13, 17, 19)):
        assert pts[:, s].tolist() == [van_der_corput(n, base) for n in range(1, 3001)]


def test_first_halton_point():
    ps = halton(1, 2)
    assert ps.points[0, 0] == pytest.approx(0.5)
    assert ps.points[0, 1] == pytest.approx(1 / 3)


def test_coordinates_interior_and_index_stable():
    long = halton(64, 3)
    short = halton(16, 3)
    assert np.all(long.points > 0.0) and np.all(long.points < 1.0)
    assert np.array_equal(long.points[:16], short.points)


def test_discrepancy_small_in_1d():
    res = star_discrepancy(halton(16, 1), UniformMeasure(1))
    assert res.value <= 0.2


def test_dyadic_block_discrepancy_decreases():
    values = []
    for k in range(1, 11):
        ps = halton(2**k, 1)
        values.append(star_discrepancy(ps, UniformMeasure(1)).value)
    for prev, cur in zip(values, values[1:]):
        assert cur <= prev + 1e-15


def test_beats_pseudo_random_for_most_seeds():
    m = UniformMeasure(2)
    halton_value = star_discrepancy(halton(64, 2), m).value
    wins = 0
    seeds = range(11)
    for seed in seeds:
        rng = np.random.default_rng(seed)
        rand_value = star_discrepancy(PointSet(2, rng.random((64, 2))), m).value
        wins += halton_value < rand_value
    assert wins > len(seeds) // 2
