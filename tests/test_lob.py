import math

import numpy as np
import pytest

from hyperideal.errors import SingularityError
from hyperideal.lob import SERIES_DEGREE, backend, lob, lob_deriv, lob_second

from .oracles import lob_quadrature, lob_series, series_coefficients

# frozen with 25-digit arithmetic during development
LOB_PI_6 = 0.5074708032048268
LOB_PI_3 = 0.3383138688032179
LOB_ONE = 0.3635730254316396
CATALAN = 0.9159655941772190


def test_exact_zeros():
    assert lob(0.0) == 0.0
    assert lob(math.pi / 2) == 0.0
    assert lob(math.pi) == 0.0
    assert lob(-math.pi / 2) == 0.0


def test_special_values():
    assert lob(math.pi / 6) == pytest.approx(LOB_PI_6, abs=1e-14)
    assert lob(math.pi / 3) == pytest.approx(LOB_PI_3, abs=1e-14)
    assert lob(math.pi / 4) == pytest.approx(CATALAN / 2, abs=1e-14)
    assert lob(1.0) == pytest.approx(LOB_ONE, abs=1e-14)


def test_maximum_at_pi_6():
    xs = np.linspace(0.01, math.pi - 0.01, 500)
    assert np.max(lob(xs)) <= LOB_PI_6 + 1e-15


def test_periodicity_and_oddness(rng):
    xs = rng.uniform(-10.0, 10.0, 10000)
    assert np.max(np.abs(lob(xs + math.pi) - lob(xs))) <= 1e-13
    assert np.max(np.abs(lob(-xs) + lob(xs))) <= 1e-13


def test_quadrature_oracle_agreement():
    xs = np.linspace(0.0, math.pi, 1000)
    errs = [abs(lob(x) - lob_quadrature(x)) for x in xs]
    assert max(errs) <= 1e-12


def test_deriv_values():
    assert lob_deriv(math.pi / 6) == pytest.approx(0.0, abs=1e-15)
    assert lob_deriv(math.pi / 2) == pytest.approx(-math.log(2.0), abs=1e-15)
    assert lob_deriv(math.pi / 4) == pytest.approx(-math.log(2.0) / 2, abs=1e-15)


def test_deriv_matches_finite_differences(rng):
    h = 1e-6
    xs = rng.uniform(0.05, math.pi - 0.05, 200)
    fd = (lob(xs + h) - lob(xs - h)) / (2 * h)
    rel = np.abs(fd - lob_deriv(xs)) / np.maximum(1.0, np.abs(lob_deriv(xs)))
    assert np.max(rel) <= 1e-6


def test_deriv_singularity():
    with pytest.raises(SingularityError):
        lob_deriv(0.0)
    with pytest.raises(SingularityError):
        lob_deriv(math.pi)


def test_second_derivative_is_neg_cot():
    assert lob_second(math.pi / 4) == pytest.approx(-1.0, abs=1e-14)
    with pytest.raises(SingularityError):
        lob_second(0.0)


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        lob(float("nan"))
    with pytest.raises(ValueError):
        lob_deriv(float("inf"))
    with pytest.raises(ValueError):
        lob_second(float("nan"))


def test_array_and_scalar_forms():
    xs = np.array([[0.3, 0.7], [1.1, 2.9]])
    out = lob(xs)
    assert out.shape == xs.shape
    assert out[0, 0] == lob(0.3)
    assert isinstance(lob(0.3), float)


def test_backends_agree(rng):
    xs = rng.uniform(-20.0, 20.0, 5000)
    ours = lob(xs)
    reference = lob_series(xs)
    assert np.max(np.abs(ours - reference)) <= 1e-15
    assert backend() == "numpy"


def test_fallback_exact_zeros():
    vals = lob_series(np.array([0.0, math.pi / 2, math.pi, -math.pi / 2]))
    assert np.all(vals == 0.0)


def test_series_degree_is_the_smallest_with_a_negligible_tail():
    # dropped tail of the series at |t| = pi/2, where it is largest
    terms = series_coefficients() * (math.pi / 2) ** (2 * np.arange(1, 41) + 1)
    assert terms[SERIES_DEGREE:].sum() < 1e-17 <= terms[SERIES_DEGREE - 1:].sum()


def test_kernel_matches_series_reference(rng):
    near_half_pi = np.concatenate(
        [c + rng.uniform(-1e-3, 1e-3, 20000) for c in (math.pi / 2, -math.pi / 2)]
    )
    tiny = np.concatenate([10.0 ** -np.arange(1, 301), -(10.0 ** -np.arange(1, 301))])
    uniform = rng.uniform(-50.0, 50.0, 100000)
    for xs in (near_half_pi, tiny, uniform):
        assert np.max(np.abs(lob(xs) - lob_series(xs))) <= 2.3e-16


def test_empty_and_zero_dimensional_arrays():
    empty = lob(np.array([]))
    assert isinstance(empty, np.ndarray) and empty.shape == (0,)
    assert lob(np.empty((2, 0))).shape == (2, 0)
    zero_d = lob(np.array(0.3))
    assert isinstance(zero_d, float) and zero_d == lob(0.3)
    assert lob(np.array(math.pi / 2)) == 0.0
