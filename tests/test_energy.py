import math

import numpy as np
import pytest

from hyperideal import energy
from hyperideal.errors import DomainError
from hyperideal.lob import lob

from .oracles import (
    FIVE_TRIPLES_ALT,
    fd_gradient,
    fd_jacobian,
    lob_quadrature,
    sample_delta,
    volume_grad_sum,
    volume_sum,
)

PI = math.pi

BAD_ALPHA = np.array([0.0, PI, 0.0])
BAD_GAMMA = np.array([PI, 0.0, 0.0])


def sample(rng, n, margin=0.0):
    return sample_delta(n, rng, margin=margin)


# -- v0 -------------------------------------------------------------------------


def test_v0_regular_ideal_tetrahedron():
    ref = 3 * lob_quadrature(PI / 3)
    assert energy.v0([PI / 3, PI / 3, PI / 3]) == pytest.approx(ref, abs=1e-13)
    assert ref == pytest.approx(1.0149416064096536, abs=1e-12)


def test_v0_catalan():
    got = energy.v0([PI / 2, PI / 4, PI / 4])
    assert got == pytest.approx(2 * lob_quadrature(PI / 4), abs=1e-13)
    assert got == pytest.approx(0.9159655941772190, abs=1e-12)


def test_v0_degenerate_sides_vanish(rng):
    for beta in rng.uniform(0.05, PI - 0.05, 50):
        assert energy.v0([0.0, beta, PI - beta]) == pytest.approx(0.0, abs=1e-13)


def test_v0_domain_checked():
    with pytest.raises(DomainError):
        energy.v0([0.5, 0.5, 0.5])
    with pytest.raises(DomainError):
        energy.v0([-0.1, 0.6, PI - 0.5])


# -- five tetrahedra -------------------------------------------------------------


def test_five_tetra_symmetric_point():
    a = 0.4
    triples = energy.five_tetra([a, a, a], [PI / 3, PI / 3, PI / 3])
    assert np.allclose(triples[0], [PI / 3] * 3, atol=1e-15)
    assert np.allclose(triples[1], [PI / 3] * 3, atol=1e-15)
    for i in range(3):
        assert np.allclose(triples[2 + i], [PI / 3, PI / 3 + a, PI / 3 - a], atol=1e-15)


def test_five_tetra_zero_alpha():
    g = np.array([0.5, 1.2, PI - 1.7])
    triples = energy.five_tetra([0.0, 0.0, 0.0], g)
    for i in range(3):
        assert triples[0][i] == pytest.approx((PI - g[i]) / 2, abs=1e-15)
        assert triples[1][i] == pytest.approx((PI - g[i]) / 2, abs=1e-15)
        assert np.allclose(triples[2 + i][1:], [(PI - g[i]) / 2] * 2, atol=1e-15)


def test_five_tetra_badly_degenerate_point():
    triples = energy.five_tetra(BAD_ALPHA, BAD_GAMMA)
    for triple in triples:
        assert sorted(triple) == pytest.approx([0.0, 0.0, PI], abs=0.0)


def test_five_tetra_triples_in_closed_delta0(rng):
    a, g = sample(rng, 2000)
    triples = energy.five_tetra(a, g)
    assert np.all(triples > 0.0)
    assert np.max(np.abs(triples.sum(axis=-1) - PI)) <= 1e-12


# -- truncated volume ------------------------------------------------------------


def test_tet_volume_badly_degenerate_is_exactly_zero():
    assert energy.tet_volume(BAD_ALPHA, BAD_GAMMA) == 0.0


def test_tet_volume_symmetric_identity():
    v = energy.tet_volume([PI / 4] * 3, [PI / 3] * 3)
    rhs = 0.5 * (
        2 * energy.v0([PI / 3] * 3)
        + 3 * energy.v0([PI / 3, PI / 3 + PI / 4, PI / 3 - PI / 4])
    )
    assert v == pytest.approx(rhs, abs=1e-13)


def test_five_tetra_decomposition(rng):
    a, g = sample(rng, 100000)
    v = energy.tet_volume(a, g)
    five = lob(energy.five_tetra(a, g)).sum(axis=(-1, -2))
    assert np.max(np.abs(2 * v - five)) <= 1e-12


def test_alternative_decomposition(rng):
    a, g = sample(rng, 100000)
    v = energy.tet_volume(a, g)
    idx = np.array(FIVE_TRIPLES_ALT)
    alt = lob(energy.lob_arguments(a, g)[..., idx]).sum(axis=(-1, -2))
    assert np.max(np.abs(2 * v - alt)) <= 1e-12


def test_volume_nonnegative_and_zero_only_when_bad(rng):
    a, g = sample(rng, 5000)
    assert np.all(energy.tet_volume(a, g) > 0.0)
    # mildly degenerate boundary point: positive volume
    assert energy.tet_volume([0.2, 0.2, 0.2], [0.0, PI / 2, PI / 2]) > 0.0
    # alpha-degenerate: positive volume
    assert energy.tet_volume([0.0, 0.3, 0.3], [PI / 3] * 3) > 0.0


def test_volume_outside_closure_rejected():
    with pytest.raises(DomainError):
        energy.tet_volume([2.0, 2.0, 2.0], [PI / 3] * 3)
    # off the gamma-sum plane by 1e-6: outside Delta, as for in_delta
    off_plane = [PI / 3, PI / 3, PI / 3 + 1e-6]
    with pytest.raises(DomainError):
        energy.tet_volume([0.3] * 3, off_plane)
    with pytest.raises(DomainError):
        energy.tet_volume_grad([0.3] * 3, off_plane)


# -- gradient ---------------------------------------------------------------------


def test_grad_matches_finite_differences(rng):
    a, g = sample(rng, 1000, margin=0.05)
    grads = energy.tet_volume_grad(a, g)
    for k in rng.choice(1000, size=40, replace=False):
        x = np.concatenate([a[k], g[k]])
        assert energy.tet_volume(a[k], g[k]) == volume_sum(a[k], g[k])
        fd = fd_gradient(lambda u: volume_sum(u[:3], u[3:]), x)
        rel = np.abs(fd - grads[k]) / np.maximum(1.0, np.abs(grads[k]))
        assert np.max(rel) <= 1e-6


def test_truncated_lengths_positive(rng):
    a, g = sample(rng, 5000, margin=1e-4)
    grads = energy.tet_volume_grad(a, g)
    assert np.all(-2.0 * grads[:, :3] > 0.0)


def test_grad_even_in_alpha_near_zero():
    # d/d alpha_12 -> 0 as alpha_12 -> 0+ because V is even in the alphas
    g = np.array([PI / 3, PI / 3, PI / 3])
    for eps in (1e-3, 1e-5, 1e-7):
        grad = energy.tet_volume_grad([eps, 0.4, 0.4], g)
        assert abs(grad[0]) < 50 * eps * abs(math.log(eps))


def test_grad_symmetric_point_gamma_partials_equal():
    grad = energy.tet_volume_grad([0.3, 0.3, 0.3], [PI / 3] * 3)
    assert np.allclose(grad[3:], grad[3], atol=1e-14)
    assert np.allclose(grad[:3], grad[0], atol=1e-14)


def test_hessian_matches_fd_of_grad(rng):
    a, g = sample(rng, 20, margin=0.1)
    for k in range(5):
        x = np.concatenate([a[k], g[k]])
        h_an = energy.tet_volume_hess(a[k], g[k])
        assert np.array_equal(energy.tet_volume_grad(a[k], g[k]), volume_grad_sum(a[k], g[k]))
        h_fd = fd_jacobian(lambda u: volume_grad_sum(u[:3], u[3:]), x)
        assert np.max(np.abs(h_an - h_fd)) <= 1e-6


def test_hessian_is_the_sum_over_the_arguments_bit_for_bit(rng, monkeypatch):
    """The table product sums sum_k w_k ARG_COEF[k]^T ARG_COEF[k] in the
    einsum's order, for one triangle, a lone row and many rows."""
    for shape in [(15,), (1, 15), (2, 15), (7, 15), (2, 3, 15), (512, 15), (5000, 15)]:
        w = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 7, shape)
        monkeypatch.setattr(energy, "lob_arguments", lambda alpha, gamma: np.full(shape, 1.0))
        monkeypatch.setattr(energy, "lob_second", lambda args: 2.0 * w)
        got = energy.tet_volume_hess(None, None)
        want = np.einsum("...k,ki,kj->...ij", w, energy.ARG_COEF, energy.ARG_COEF)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


# -- boundary derivative dichotomy -------------------------------------------------


def _directional_derivative(p, q, t):
    x = (1 - t) * p + t * q
    return float(energy.tet_volume_grad(x[:3], x[3:]) @ (q - p))


def test_boundary_derivative_dichotomy(rng):
    qa, qg = sample_delta(1, rng, margin=0.3)
    q = np.concatenate([qa[0], qg[0]])
    # mildly degenerate: log-divergent derivative, so each decade toward the
    # boundary adds about the same increment (no tapering off)
    p_mild = np.array([0.2, 0.2, 0.2, 0.0, PI / 2, PI / 2])
    d_mild = [_directional_derivative(p_mild, q, t) for t in (1e-3, 1e-4, 1e-5)]
    assert d_mild[2] > d_mild[1] > d_mild[0] > 0.0
    inc1, inc2 = d_mild[1] - d_mild[0], d_mild[2] - d_mild[1]
    assert inc2 > 0.8 * inc1

    # badly degenerate: finite positive limit, increments collapse
    p_bad = np.concatenate([BAD_ALPHA, BAD_GAMMA])
    d_bad = [_directional_derivative(p_bad, q, t) for t in (1e-3, 1e-4, 1e-5)]
    assert all(d > 0.0 for d in d_bad)
    assert abs(d_bad[2] - d_bad[1]) < 0.5 * abs(d_bad[1] - d_bad[0])


# -- classification ----------------------------------------------------------------


def test_classify_interior(rng):
    a, g = sample(rng, 10, margin=0.05)
    for k in range(10):
        assert energy.classify(a[k], g[k]) == energy.INTERIOR


def test_classify_examples():
    assert energy.classify(BAD_ALPHA, BAD_GAMMA) == energy.BAD
    assert energy.classify([0.0, 0.3, 0.3], [PI / 3] * 3) == energy.ALPHA_DEG
    assert energy.classify([0.2, 0.2, 0.2], [0.0, PI / 2, PI / 2]) == energy.MILD


def test_classify_permuted_bad_points():
    # gamma_i = alpha_jk = pi for each permutation
    for i in range(3):
        gamma = np.zeros(3)
        gamma[i] = PI
        alpha = np.zeros(3)
        alpha[(i + 1) % 3] = PI  # side opposite corner i
        assert energy.classify(alpha, gamma) == energy.BAD


def test_classify_outside_rejected():
    with pytest.raises(DomainError):
        energy.classify([4.0, 0.0, 0.0], [PI, 0.0, 0.0])


# -- volume formula suite ------------------------------------------------------------


def test_vol_p1_values():
    assert energy.vol_p1(PI / 6) == pytest.approx(0.5 * lob_quadrature(PI / 6), abs=1e-13)
    assert energy.vol_p1(PI / 6) == pytest.approx(0.2537354016024134, abs=1e-12)
    assert energy.vol_p1(PI / 4) == pytest.approx(0.9159655941772190 / 4, abs=1e-12)
    assert energy.vol_p1(1e-9) == pytest.approx(0.0, abs=1e-7)
    with pytest.raises(DomainError):
        energy.vol_p1(PI / 2)


def test_vol_prism_symmetry(rng):
    from itertools import permutations

    for _ in range(50):
        abc = rng.uniform(0.05, 1.0, 3)
        if abc.sum() >= PI:
            continue
        vals = [energy.vol_prism(*perm) for perm in permutations(abc)]
        assert np.ptp(vals) <= 1e-13


def test_vol_prism_subdivision_oracle(rng):
    # three ideal tetrahedra of the prism subdivision
    for _ in range(200):
        a, b, g = rng.uniform(0.05, 1.0, 3)
        if a + b + g >= PI - 0.05:
            continue
        gp = 0.5 * (PI - a - b + g)
        ap = 0.5 * (PI + a - b - g)
        bp = 0.5 * (PI - a + b - g)
        lam = 0.5 * (PI - a - b - g)
        mu = PI - gp
        sub = (
            energy.v0([a, bp, gp])
            + energy.v0([b, gp, ap])
            + energy.v0([g, lam, mu])
        )
        assert energy.vol_prism(a, b, g) == pytest.approx(sub, abs=1e-12)


def test_vol_p3_is_half_prism(rng):
    for _ in range(10000):
        a, b, g = rng.uniform(0.01, 1.04, 3)
        if a + b + g >= PI:
            continue
        assert energy.vol_p3(a, b, g) == 0.5 * energy.vol_prism(a, b, g)


def test_vol_p4_symmetric_in_first_two(rng):
    for _ in range(100):
        a, b, g = rng.uniform(0.05, 1.0, 3)
        if a + b + g >= PI:
            continue
        assert energy.vol_p4(a, b, g) == pytest.approx(energy.vol_p4(b, a, g), abs=1e-15)


def test_pyramid_identity(rng):
    a, g = sample(rng, 100000)
    v = energy.tet_volume(a, g)
    p4 = (
        energy.vol_p4(a[:, 0], a[:, 2], g[:, 0])
        + energy.vol_p4(a[:, 1], a[:, 0], g[:, 1])
        + energy.vol_p4(a[:, 2], a[:, 1], g[:, 2])
    )
    assert np.max(np.abs(v - p4)) <= 1e-12


def test_vol_p4_obtuse_base(rng):
    # self-intersecting base: one of alpha, beta obtuse; identity still holds
    got = energy.vol_p4(2.0, 0.3, 0.5)
    assert np.isfinite(got)
    assert got == pytest.approx(energy.vol_p4(0.3, 2.0, 0.5), abs=1e-15)


def test_vol_p4_flat_limit():
    # approaching alpha + beta + gamma = pi the two gamma-dependent terms
    # cancel and the value tends to (lob(a) + lob(b)) / 2
    from hyperideal.lob import lob

    limit = 0.5 * (lob(1.0) + lob(0.8))
    errs = [
        abs(energy.vol_p4(1.0, 0.8, PI - 1.8 - eps) - limit)
        for eps in (1e-2, 1e-4, 1e-6)
    ]
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] < 1e-4


# -- ideal concavity ------------------------------------------------------------------


def ideal_hessian_fd(a, b, h=1e-6):
    """Numerical Hessian of f(a, b) = v0(a, b, pi-a-b): central differences
    of the closed-form first derivatives (lob_deriv differences)."""
    from hyperideal.lob import lob_deriv

    def grad(u):
        return np.array(
            [lob_deriv(u[0]) - lob_deriv(u[0] + u[1]),
             lob_deriv(u[1]) - lob_deriv(u[0] + u[1])]
        )

    hess = fd_jacobian(grad, np.array([a, b]), h=h)
    return 0.5 * (hess + hess.T)


def test_ideal_volume_hessian_determinant(rng):
    count = 0
    while count < 1000:
        a, b = rng.uniform(0.06, PI - 0.06, 2)
        if a + b >= PI - 0.05:
            continue
        count += 1
        hess = ideal_hessian_fd(a, b)
        assert hess[0, 0] < 0.0 and hess[1, 1] < 0.0
        assert np.linalg.det(hess) == pytest.approx(1.0, abs=1e-6)
