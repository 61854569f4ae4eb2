"""Milnor's Lobachevsky function and its derivatives.

The function is pi-periodic, odd, and smooth away from integer multiples of
pi, where the graph has a vertical tangent.  ``lob`` is the hot kernel of the
whole package.  On the reduced interval [-pi/2, pi/2] it is evaluated as

    L(t) = t - t*log|2t| + sum_{n>=1} zeta(2n) t^(2n+1) / (n (2n+1) pi^(2n)),

with the series cut at a fixed degree and summed by Horner's rule in t^2.
"""

import math

import numpy as np

from .errors import SingularityError

# zeta(2n) to 20 significant digits, n = 1..SERIES_DEGREE.  The series term n
# is about 4^-n at |t| = pi/2; SERIES_DEGREE is the smallest degree whose
# dropped tail there, sum_{n > N} zeta(2n) (pi/2) / (n (2n+1) 4^n), is below
# 1e-17 (6.2e-18; degree 22 leaves 2.7e-17).
ZETA_EVEN = (
    1.6449340668482264365,
    1.0823232337111381915,
    1.0173430619844491397,
    1.0040773561979443394,
    1.0009945751278180853,
    1.0002460865533080483,
    1.0000612481350587048,
    1.0000152822594086519,
    1.0000038172932649998,
    1.0000009539620338728,
    1.0000002384505027277,
    1.0000000596081890513,
    1.0000000149015548284,
    1.0000000037253340248,
    1.0000000009313274324,
    1.0000000002328311834,
    1.0000000000582077209,
    1.0000000000145519219,
    1.0000000000036379795,
    1.0000000000009094948,
    1.0000000000002273737,
    1.0000000000000568434,
    1.0000000000000142109,
)
SERIES_DEGREE = len(ZETA_EVEN)


def _series_coefficients():
    """c_n = zeta(2n) / (n (2n+1) pi^(2n)), n = 1..SERIES_DEGREE."""
    pi2 = math.pi * math.pi
    coefs = []
    p = 1.0
    for n, z in enumerate(ZETA_EVEN, start=1):
        p *= pi2
        coefs.append(z / (n * (2 * n + 1) * p))
    return coefs


# Horner order: highest degree first.
_HORNER = tuple(reversed(_series_coefficients()))
_HALF_PI = 0.5 * np.pi


def _lob_array(x):
    """Lobachevsky function over a finite float64 array.

    Arguments are reduced to [-pi/2, pi/2] by pi-periodicity; exact float
    multiples of pi/2 map to exactly 0.0 so the classical identities hold
    bit-for-bit at those points.
    """
    theta = x - np.rint(x / np.pi) * np.pi
    live = (theta != 0.0) & (np.abs(theta) != _HALF_PI)
    out = np.zeros_like(theta)
    t = theta[live]
    u = t * t
    acc = np.full_like(u, _HORNER[0])
    for coef in _HORNER[1:]:
        acc *= u
        acc += coef
    out[live] = (t - t * np.log(2.0 * np.abs(t))) + t * u * acc
    return out


def _check_pi_multiple(arr, name):
    reduced = arr - np.rint(arr / np.pi) * np.pi
    if np.any(reduced == 0.0):
        raise SingularityError(f"{name}: argument is a multiple of pi")


def _neg_log_2sin(arr):
    _check_pi_multiple(arr, "lob_deriv")
    return -np.log(2.0 * np.abs(np.sin(arr)))


def _neg_cot(arr):
    _check_pi_multiple(arr, "lob_second")
    return -np.cos(arr) / np.sin(arr)


def _elementwise(name, kernel, x):
    """``kernel`` on ``x`` as a float64 array, after rejecting non-finite
    entries; a float for scalar or 0-d input, an array otherwise."""
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name}: argument must be finite")
    out = kernel(arr)
    return float(out) if arr.ndim == 0 else out


def backend() -> str:
    """Name of the Lobachevsky kernel; always ``"numpy"``, the only one there is."""
    return "numpy"


def lob(x):
    """Lobachevsky function at ``x`` (radians); scalar or elementwise on arrays.

    Exact float multiples of pi/2 return exactly 0.0.  Absolute accuracy is
    better than 1e-13 everywhere.
    """
    return _elementwise("lob", _lob_array, x)


def lob_deriv(x):
    """Derivative -log|2 sin x|; singular at integer multiples of pi."""
    return _elementwise("lob_deriv", _neg_log_2sin, x)


def lob_second(x):
    """Second derivative -cot x; singular at integer multiples of pi."""
    return _elementwise("lob_second", _neg_cot, x)
