"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the line per criterion.
"""

import math
import time

import numpy as np

from hyperideal import energy
from hyperideal.coherent import AngleSystem, build_constraints, find_coherent, tangent_basis
from hyperideal.lob import lob
from hyperideal.pattern import (
    compat_residuals,
    metric_from_lengths,
    probe,
    read_angles,
    truncated_lengths,
    verify_pattern,
)
from hyperideal.solve import CONVERGED, maximize, objective_grad, solve_problem
from hyperideal.surface import AngleData, GluedTriangulation

from .conftest import bundled_instance
from .oracles import (
    FIVE_TRIPLES_ALT,
    fd_jacobian,
    lob_quadrature,
    objective_sum,
    permuted,
    random_disk,
    sample_coherent,
    sample_delta,
    single_triangle_feasible,
    symmetric_torus,
)

PI = math.pi


def _report(num, desc, ok, detail=""):
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}  {desc}"
    if detail:
        line += f"  [{detail}]"
    print(line, flush=True)
    assert ok, line


def test_criterion_01_lob_oracle():
    t0 = time.perf_counter()
    xs = np.linspace(0.0, PI, 1000)
    worst = max(abs(lob(x) - lob_quadrature(x)) for x in xs)
    elapsed = time.perf_counter() - t0
    _report(
        1,
        "lob matches the quadrature oracle on a 1000-point grid",
        worst <= 1e-12 and elapsed < 1.0,
        f"max err {worst:.2e}, {elapsed:.2f}s",
    )


def _delta_samples():
    rng = np.random.default_rng(987654321)
    return sample_delta(100000, rng)


def test_criterion_02_five_tetrahedra_identity():
    t0 = time.perf_counter()
    a, g = _delta_samples()
    v2 = 2.0 * energy.tet_volume(a, g)
    five = lob(energy.five_tetra(a, g)).sum(axis=(-1, -2))
    err_main = float(np.max(np.abs(v2 - five)))
    idx = np.array(FIVE_TRIPLES_ALT)
    alt = lob(energy.lob_arguments(a, g)[..., idx]).sum(axis=(-1, -2))
    err_alt = float(np.max(np.abs(v2 - alt)))
    elapsed = time.perf_counter() - t0
    _report(
        2,
        "2V equals the five-ideal-tetrahedra sum (both regroupings), 1e5 samples",
        err_main <= 1e-12 and err_alt <= 1e-12 and elapsed < 10.0,
        f"errs {err_main:.2e}/{err_alt:.2e}, {elapsed:.1f}s",
    )


def test_criterion_03_pyramid_identity():
    a, g = _delta_samples()
    v = energy.tet_volume(a, g)
    p4 = (
        energy.vol_p4(a[:, 0], a[:, 2], g[:, 0])
        + energy.vol_p4(a[:, 1], a[:, 0], g[:, 1])
        + energy.vol_p4(a[:, 2], a[:, 1], g[:, 2])
    )
    err = float(np.max(np.abs(v - p4)))
    _report(3, "V equals the three-special-pyramid sum, 1e5 samples",
            err <= 1e-12, f"max err {err:.2e}")


def test_criterion_04_concavity_evidence():
    from .test_energy import ideal_hessian_fd

    rng = np.random.default_rng(24680)
    worst_det = 0.0
    diag_ok = True
    count = 0
    while count < 1000:
        a, b = rng.uniform(0.06, PI - 0.06, 2)
        if a + b >= PI - 0.05:
            continue
        count += 1
        hess = ideal_hessian_fd(a, b)
        diag_ok &= hess[0, 0] < 0.0 and hess[1, 1] < 0.0
        worst_det = max(worst_det, abs(np.linalg.det(hess) - 1.0))

    tri, data = bundled_instance("torus.json")
    cs = build_constraints(tri, data)
    basis = tangent_basis(cs)
    max_eig = -np.inf
    for x in sample_coherent(cs, rng, n=10):
        hn = fd_jacobian(
            lambda z: objective_grad(AngleSystem(x.values + basis @ z)),
            np.zeros(basis.shape[1]),
        )
        red = basis.T @ hn
        max_eig = max(max_eig, float(np.max(np.linalg.eigvalsh(0.5 * (red + red.T)))))
    _report(
        4,
        "det Hess(ideal volume) = 1 with negative diagonal; reduced Hess of F negative",
        worst_det <= 1e-6 and diag_ok and max_eig < -1e-8,
        f"|det-1| max {worst_det:.2e}, max eig {max_eig:.2e}",
    )


def test_criterion_05_gradient_correctness():
    rng = np.random.default_rng(13579)
    worst = 0.0
    exact = True
    for name, n_pts in (("torus.json", 34), ("disk2.json", 33), ("fan3.json", 33)):
        tri, data = bundled_instance(name)
        cs = build_constraints(tri, data)
        for x in sample_coherent(cs, rng, n=n_pts):
            g = objective_grad(x)
            from hyperideal.solve import objective_f

            exact = exact and objective_f(x) == objective_sum(x.values)
            fd = np.empty_like(g)
            h = 1e-6
            for i in range(g.size):
                vp, vm = x.values.copy(), x.values.copy()
                vp[i] += h
                vm[i] -= h
                fd[i] = (objective_sum(vp) - objective_sum(vm)) / (2 * h)
            rel = np.abs(fd - g) / np.maximum(1.0, np.abs(g))
            worst = max(worst, float(np.max(rel)))
    _report(5, "objective gradient matches central differences at 100 coherent points",
            worst <= 1e-6 and exact, f"max rel err {worst:.2e}, F exact: {exact}")


def test_criterion_06_symmetric_torus_solve():
    tri, data = bundled_instance("torus.json")
    x, rep = solve_problem(tri, data)
    angles_ok = (
        rep.status == CONVERGED
        and rep.iterations <= 30
        and np.max(np.abs(x.alphas() - PI / 4)) <= 1e-8
        and np.max(np.abs(x.gammas() - PI / 3)) <= 1e-8
    )
    dm = metric_from_lengths(truncated_lengths(x, tri), tri)
    metric_ok = (
        np.ptp(dm.radii) <= 1e-8 * np.max(dm.radii)
        and np.ptp(dm.lengths) <= 1e-8 * np.max(dm.lengths)
    )
    vr = verify_pattern(tri, data, dm)
    residual_ok = max(vr.max_theta_residual, vr.max_xi_residual) <= 1e-7
    _report(
        6,
        "symmetric torus: alpha=pi/4, gamma=pi/3, equilateral metric, tiny residuals",
        angles_ok and metric_ok and residual_ok,
        f"{rep.iterations} iterations, theta residual {vr.max_theta_residual:.2e}",
    )


def test_criterion_07_criticality_means_fit():
    rng = np.random.default_rng(1029384756)
    names = ["torus.json", "triangle.json", "disk2.json", "fan3.json"]
    instances = [bundled_instance(n) for n in names]
    for _ in range(3):
        tri, dm = random_disk(rng)
        instances.append((tri, probe(tri, dm)[0]))
    worst_compat = 0.0
    worst_fit = 0.0
    for tri, data in instances:
        x, rep = solve_problem(tri, data)
        assert rep.status == CONVERGED
        c1, c2 = compat_residuals(tri, x)
        worst_compat = max(worst_compat, c1, c2)
        dm = metric_from_lengths(truncated_lengths(x, tri), tri)
        for t in range(tri.triangle_count):
            got = read_angles(dm.lengths[tri.side_edge[t]], dm.radii[tri.corner_class[t]])
            worst_fit = max(worst_fit, float(np.max(np.abs(got - x.values[6 * t:6 * t + 6]))))
    _report(
        7,
        "at converged solutions the decorated triangles fit back together",
        worst_compat <= 1e-7 and worst_fit <= 1e-6,
        f"compat {worst_compat:.2e}, read-back {worst_fit:.2e}",
    )


def test_criterion_08_round_trip_oracle():
    rng = np.random.default_rng(5672341)
    worst = 0.0
    n_disk, n_torus = 30, 20
    cases = [random_disk(rng) for _ in range(n_disk)]
    cases += [symmetric_torus(rho=rng.uniform(0.08, 0.45), side=1.0) for _ in range(n_torus)]
    for tri, dm in cases:
        data, _ = probe(tri, dm)
        x, rep = solve_problem(tri, data)
        assert rep.status == CONVERGED
        rec = metric_from_lengths(truncated_lengths(x, tri), tri)
        scale = dm.radii[0] / rec.radii[0]
        rel = max(
            float(np.max(np.abs(rec.radii * scale - dm.radii) / dm.radii)),
            float(np.max(np.abs(rec.lengths * scale - dm.lengths) / dm.lengths)),
        )
        worst = max(worst, rel)
    _report(
        8,
        "probe -> solve -> reconstruct returns the original metric up to scale (50 cases)",
        worst <= 1e-6,
        f"max rel err {worst:.2e}",
    )


def test_criterion_09_feasibility_oracle():
    rng = np.random.default_rng(43218765)
    tri = GluedTriangulation(1, [])
    disagreements = 0
    for k in range(10000):
        if k % 3 == 0:
            theta = rng.uniform(PI / 2, PI - 0.05, 3)
        else:
            theta = rng.uniform(0.05, PI - 0.05, 3)
        xi = rng.dirichlet((1.0, 1.0, 1.0)) * PI
        if k % 5 == 4:
            xi = rng.uniform(0.1, 2.0, 3)
        data = AngleData(theta=theta, xi=xi)
        lp = isinstance(find_coherent(build_constraints(tri, data)), AngleSystem)
        disagreements += lp != single_triangle_feasible(theta, xi)
    _report(9, "LP verdict matches the closed-form single-triangle test on 1e4 draws",
            disagreements == 0, f"{disagreements} disagreements")


def test_criterion_10_uniqueness():
    rng = np.random.default_rng(777)
    tri, data = bundled_instance("torus.json")
    cs = build_constraints(tri, data)
    x1, _ = maximize(tri, data, find_coherent(cs), cs=cs)
    perm = permuted(cs, rng.permutation(len(cs.b_eq)), rng.permutation(len(cs.h_ineq)))
    x2, _ = maximize(tri, data, find_coherent(perm), cs=perm)
    diff = float(np.max(np.abs(x1.values - x2.values)))
    _report(10, "two feasible starts converge to the same maximizer",
            diff <= 1e-7, f"sup diff {diff:.2e}")


def test_criterion_11_degeneracy_classifier():
    bad_alpha, bad_gamma = [0.0, PI, 0.0], [PI, 0.0, 0.0]
    ok = (
        energy.classify(bad_alpha, bad_gamma) == energy.BAD
        and energy.classify([0.0, 0.3, 0.3], [PI / 3] * 3) == energy.ALPHA_DEG
        and energy.classify([0.2, 0.2, 0.2], [0.0, PI / 2, PI / 2]) == energy.MILD
        and energy.tet_volume(bad_alpha, bad_gamma) == 0.0
    )
    _report(11, "degeneracy classifier and exact zero at the badly degenerate point", ok)
