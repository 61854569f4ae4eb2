import math

import numpy as np
import pytest
from scipy.optimize import linprog

import hyperideal.solve as solve_mod
from hyperideal.coherent import (
    AngleSystem,
    Infeasible,
    _strictly_coherent,
    build_constraints,
    find_coherent,
    find_max_slack,
    tangent_basis,
)
from hyperideal.errors import NotCoherentError
from hyperideal.pattern import probe
from hyperideal.solve import (
    CONVERGED,
    DEFAULT_MAX_ITERS,
    DEFAULT_TOL,
    INFEASIBLE,
    MAX_ITERS,
    maximize,
    objective_f,
    objective_grad,
    solve_problem,
)
from hyperideal.surface import AngleData, GluedTriangulation

from .conftest import bundled_instance
from .oracles import (
    fd_gradient,
    objective_sum,
    permuted,
    sample_coherent,
    scipy_csr,
    tangent_span_vectors,
)
from .test_surface import GEN

PI = math.pi
TORUS = GluedTriangulation(2, [((0, 0), (1, 0)), ((0, 1), (1, 1)), ((0, 2), (1, 2))])
TORUS_DATA = AngleData(theta=np.full(3, PI / 2), xi=np.array([2 * PI]))


def test_objective_symmetric_point():
    from hyperideal.energy import tet_volume

    x = AngleSystem(np.tile([PI / 4] * 3 + [PI / 3] * 3, 2))
    expected = 2 * tet_volume([PI / 4] * 3, [PI / 3] * 3)
    assert objective_f(x) == pytest.approx(expected, abs=1e-14)


def test_objective_grad_symmetry():
    x = AngleSystem(np.tile([PI / 4] * 3 + [PI / 3] * 3, 2))
    g = objective_grad(x)
    assert np.allclose(g.reshape(2, 6)[:, :3], g[0], atol=1e-14)
    assert np.allclose(g.reshape(2, 6)[:, 3:], g[3], atol=1e-14)


def test_objective_grad_matches_fd(rng):
    for name in ("torus.json", "disk2.json", "fan3.json"):
        tri, data = bundled_instance(name)
        cs = build_constraints(tri, data)
        for x in sample_coherent(cs, rng, n=4):
            assert objective_f(x) == objective_sum(x.values)
            fd = fd_gradient(objective_sum, x.values)
            g = objective_grad(x)
            rel = np.abs(fd - g) / np.maximum(1.0, np.abs(g))
            assert np.max(rel) <= 1e-6


def test_torus_converges_to_symmetric_point():
    x, rep = solve_problem(TORUS, TORUS_DATA)
    assert rep.status == CONVERGED
    assert rep.iterations <= 30
    assert np.max(np.abs(x.alphas() - PI / 4)) <= 1e-8
    assert np.max(np.abs(x.gammas() - PI / 3)) <= 1e-8
    assert rep.min_slack > 0.0
    assert max(rep.compat1, rep.compat2) <= 1e-9


def test_monotone_objective_and_interior_iterates():
    cs = build_constraints(TORUS, TORUS_DATA)
    x0 = find_coherent(cs)
    x, rep = maximize(TORUS, TORUS_DATA, x0, cs=cs)
    assert rep.status == CONVERGED
    assert objective_f(x) >= objective_f(x0) - 1e-14
    assert rep.min_slack > 0.0


def test_pinned_instance_returns_immediately():
    tri, data = bundled_instance("triangle.json")
    x, rep = solve_problem(tri, data)
    assert rep.status == CONVERGED
    assert rep.iterations == 0
    assert np.allclose(x.values[:3], PI / 6, atol=1e-9)


def test_infeasible_status():
    tri, data = bundled_instance("triangle_infeasible.json")
    x, rep = solve_problem(tri, data)
    assert x is None
    assert rep.status == INFEASIBLE


def _early_start_instances():
    for name in ("torus.json", "disk2.json", "fan3.json", "triangle.json",
                 "triangle_infeasible.json"):
        yield name, bundled_instance(name)
    for cone in (False, True):
        tri, dm = GEN.lattice_torus(np.random.default_rng(5), 5, cone=cone)
        assert tri.triangle_count == 50
        yield f"T = 50 torus, cone {cone}", (tri, probe(tri, dm)[0])


def test_early_start_leads_to_the_max_slack_answer():
    # the solve path starts Newton at the LP's first strictly coherent
    # iterate after one step; F's maximizer on the open polytope does not
    # depend on it
    for name, (tri, data) in _early_start_instances():
        cs = build_constraints(tri, data)
        early, deep = find_coherent(cs), find_max_slack(cs)
        if isinstance(deep, Infeasible):
            assert isinstance(early, Infeasible) and early.s_star == deep.s_star, name
            continue
        assert _strictly_coherent(cs, early.values), name
        (x, rep), (x_deep, rep_deep) = (maximize(tri, data, start, cs=cs) for start in (early, deep))
        assert rep.status == rep_deep.status == CONVERGED, name
        assert np.max(np.abs(x.values - x_deep.values)) <= 1e-11, name


def test_not_coherent_start_rejected():
    bad = AngleSystem(np.tile([0.1] * 3 + [1.0] * 3, 2))
    with pytest.raises(NotCoherentError):
        maximize(TORUS, TORUS_DATA, bad)


def test_uniqueness_from_permuted_starts(rng):
    cs = build_constraints(TORUS, TORUS_DATA)
    x1, _ = maximize(TORUS, TORUS_DATA, find_coherent(cs), cs=cs)
    perm = permuted(cs, rng.permutation(len(cs.b_eq)), rng.permutation(len(cs.h_ineq)))
    x2, _ = maximize(TORUS, TORUS_DATA, find_coherent(perm), cs=perm)
    assert np.max(np.abs(x1.values - x2.values)) <= 1e-7


def test_solutions_from_random_coherent_starts_agree(rng):
    tri, data = bundled_instance("disk2.json")
    cs = build_constraints(tri, data)
    sols = [
        maximize(tri, data, x0, cs=cs)[0].values
        for x0 in sample_coherent(cs, rng, n=3)
    ]
    assert np.max(np.abs(sols[1] - sols[0])) <= 1e-7
    assert np.max(np.abs(sols[2] - sols[0])) <= 1e-7


def test_reduced_hessian_negative_definite(rng):
    from hyperideal.solve import _hess_blocks

    from .oracles import _reduced_hessian

    cs = build_constraints(TORUS, TORUS_DATA)
    basis = tangent_basis(cs)
    for x in sample_coherent(cs, rng, n=10):
        red = _reduced_hessian(_hess_blocks(x), basis)
        assert np.max(np.linalg.eigvalsh(0.5 * (red + red.T))) < -1e-8


def test_tangent_span_matches_null_space():
    for name in ("torus.json", "disk2.json", "fan3.json", "triangle.json"):
        tri, data = bundled_instance(name)
        cs = build_constraints(tri, data)
        basis = tangent_basis(cs)
        span = tangent_span_vectors(tri)
        if span.shape[0]:
            assert np.max(np.abs(cs.a_eq @ span.T)) < 1e-12
            assert np.linalg.matrix_rank(span) == basis.shape[1]
        else:
            assert basis.shape[1] == 0


def test_flip_diagnostic_for_zero_theta():
    # theta = 0 on every edge of the torus: the optimum drives alpha to the
    # symmetric point with alpha = pi/2, so no flip is recommended there;
    # build a deliberately tiny-alpha coherent point instead and check the
    # diagnostic machinery directly.
    from hyperideal.solve import _flip_diagnostics

    data = AngleData(theta=np.zeros(3), xi=np.array([2 * PI]))
    x = AngleSystem(np.tile([1e-9, PI / 2, PI - 1e-9 - PI / 2] + [PI / 3] * 3, 2))
    notes = _flip_diagnostics(TORUS, data, x)
    assert any("flip" in n for n in notes)


def test_iterates_monotone_and_strictly_interior(rng):
    tri, data = bundled_instance("disk2.json")
    cs = build_constraints(tri, data)
    x0 = sample_coherent(cs, rng, n=1)[0]
    seen = []
    # iterate k is where a budget of k iterations stops; a run that stops
    # short of k took no k-th step, so it adds no iterate
    for k in range(1, DEFAULT_MAX_ITERS + 1):
        xk, rep = maximize(tri, data, x0, cs=cs, max_iters=k)
        if rep.iterations < k:
            break
        seen.append((rep.objective, float(np.min(cs.h_ineq - cs.g_ineq @ xk.values))))
        if rep.status == CONVERGED:
            break
    assert seen, "solver took no steps"
    values = [f for f, _ in seen]
    assert all(b >= a - 1e-13 for a, b in zip(values, values[1:]))
    assert all(slack > 0.0 for _, slack in seen)


def _probed_lattice_disk():
    tri, dm = GEN.lattice_disk(np.random.default_rng(1), 5)
    assert tri.triangle_count == 50
    return tri, probe(tri, dm)[0]


@pytest.mark.parametrize("instance", [
    lambda: bundled_instance("disk2.json"),
    lambda: bundled_instance("triangle.json"),  # pinned: no Newton step
    _probed_lattice_disk,
], ids=["disk2", "triangle", "lattice disk T=50"])
def test_objective_evaluated_once_per_point(monkeypatch, instance):
    """maximize evaluates F once at its start and once per line-search
    candidate, its gradient once at the start and once per accepted point
    (neither for a pinned system), and its report keeps the F it holds for
    the final point."""
    tri, data = instance()
    cs = build_constraints(tri, data)
    x0 = find_coherent(cs)
    real, points = solve_mod.objective_f, []
    real_grad, grad_points = solve_mod.objective_grad, []

    def objective(x):
        points.append(x.values.tobytes())
        return real(x)

    def gradient(x):
        grad_points.append(x.values.tobytes())
        return real_grad(x)

    monkeypatch.setattr(solve_mod, "objective_f", objective)
    monkeypatch.setattr(solve_mod, "objective_grad", gradient)
    x, rep = maximize(tri, data, x0, cs=cs)
    assert rep.status == CONVERGED
    assert points[0] == x0.values.tobytes()
    assert len(set(points)) == len(points) >= rep.iterations + 1
    assert rep.objective == real(x)
    assert len(grad_points) == (rep.iterations + 1 if cs.rank < cs.dimension else 0)
    assert set(grad_points) <= set(points)


def _near_vertex(cs, seed, blend):
    """(1 - blend) of the HiGHS vertex for a random cost of ``seed`` plus
    ``blend`` of the max-slack point: a strictly coherent start whose
    smallest slacks are about ``blend`` times the max-slack point's."""
    vertex = linprog(np.random.default_rng(seed).standard_normal(cs.dimension),
                     A_ub=scipy_csr(cs.g_ineq), b_ub=cs.h_ineq, A_eq=scipy_csr(cs.a_eq),
                     b_eq=cs.b_eq, bounds=(None, None), method="highs").x
    return AngleSystem((1.0 - blend) * vertex + blend * find_max_slack(cs).values)


def test_every_newton_iterate_keeps_a_hundredth_of_each_slack():
    """From near a vertex of the polytope, where steps run into the cap, an
    accepted iterate keeps at least 1 % of each slack of the one before."""
    tri, data = _probed_lattice_disk()
    cs = build_constraints(tri, data)
    x0 = _near_vertex(cs, 0, 0.01)
    slacks = [cs.h_ineq - cs.g_ineq @ x0.values]
    assert 1e-5 < np.min(slacks[0]) < 1e-3
    for k in range(1, DEFAULT_MAX_ITERS + 1):
        xk, rep = maximize(tri, data, x0, cs=cs, max_iters=k)
        if rep.iterations < k:
            break
        slacks.append(cs.h_ineq - cs.g_ineq @ xk.values)
        if rep.status == CONVERGED:
            break
    assert rep.status == CONVERGED
    kept = [np.min((after + 1e-14) / before) for before, after in zip(slacks, slacks[1:])]
    assert min(kept) >= 0.01
    assert min(kept) < 0.1, "no step came near the cap"


@pytest.mark.parametrize("seed, blend, max_iters, status", [
    (2, 1e-6, DEFAULT_MAX_ITERS, CONVERGED),
    (0, 1e-5, 30, MAX_ITERS),
])
def test_start_near_a_vertex_ends_with_a_status(seed, blend, max_iters, status):
    """So near a vertex, the rounding of a capped step can leave Delta, where
    F or its gradient raises: the line search rejects such a candidate as it
    rejects one that fails the Armijo test."""
    tri, data = _probed_lattice_disk()
    cs = build_constraints(tri, data)
    x, rep = maximize(tri, data, _near_vertex(cs, seed, blend), cs=cs, max_iters=max_iters)
    assert rep.status == status
    if status == CONVERGED:
        assert np.max(np.abs(x.values - solve_problem(tri, data)[0].values)) <= 1e-8


def test_max_iters_status_when_budget_exhausted():
    x, rep = solve_problem(*bundled_instance("disk2.json"), max_iters=1)
    assert rep.status == "max_iters"
    assert rep.iterations == 1


def test_larger_delaunay_disk_end_to_end(rng):
    # a ~20-triangle disk keeps the whole pipeline honest beyond desk scale
    from scipy.spatial import Delaunay

    from hyperideal.pattern import (
        metric_from_lengths,
        probe,
        truncated_lengths,
        verify_pattern,
    )
    from .oracles import _min_angle, _oriented_simplices

    points = None
    for _ in range(200):
        cand = rng.uniform(0.0, 1.0, (14, 2))
        simplices = _oriented_simplices(cand, Delaunay(cand).simplices)
        if min(_min_angle(cand, t) for t in simplices) > 0.25:
            points = cand
            break
    assert points is not None
    side_of = {}
    for t, tri_pts in enumerate(simplices):
        for s in range(3):
            side_of[(tri_pts[s], tri_pts[(s + 1) % 3])] = (t, s)
    gluings, seen = [], set()
    for (a, b), (t, s) in side_of.items():
        if (b, a) in side_of and (b, a) not in seen:
            seen.add((a, b))
            gluings.append(((t, s), side_of[(b, a)]))
    tri = GluedTriangulation(len(simplices), gluings)
    assert tri.triangle_count >= 15

    lengths = np.empty(len(tri.edges))
    for e in tri.edges:
        t, s = e.sides[0]
        pa, pb = points[simplices[t][s]], points[simplices[t][(s + 1) % 3]]
        lengths[e.index] = float(np.hypot(*(pa - pb)))
    radii = np.full(len(tri.vertices), np.inf)
    for e in tri.edges:
        t, s = e.sides[0]
        for c in (s, (s + 1) % 3):
            v = tri.corner_class[(t, c)]
            radii[v] = min(radii[v], 0.2 * lengths[e.index])
    from hyperideal.pattern import DecoratedMetric

    data, probed = probe(tri, DecoratedMetric(lengths=lengths, radii=radii))
    x, rep = solve_problem(tri, data)
    assert rep.status == CONVERGED
    assert np.max(np.abs(x.values - probed.values)) <= 1e-7
    dm = metric_from_lengths(truncated_lengths(x, tri), tri)
    report = verify_pattern(tri, data, dm)
    assert report.max_theta_residual <= 1e-7


def test_sphere_topology_end_to_end():
    # two triangles glued into a sphere (chi = 2): one ideal vertex plus
    # hyperideal vertices of a polyhedron; solves like any other instance
    from hyperideal.pattern import metric_from_lengths, truncated_lengths, verify_pattern

    tri = GluedTriangulation(2, [((0, 0), (1, 0)), ((0, 1), (1, 2)), ((0, 2), (1, 1))])
    assert tri.euler_characteristic() == 2
    data = AngleData(theta=np.full(3, 2.0), xi=np.full(3, 2 * PI / 3))
    x, rep = solve_problem(tri, data)
    assert rep.status == CONVERGED
    dm = metric_from_lengths(truncated_lengths(x, tri), tri)
    assert verify_pattern(tri, data, dm).max_theta_residual <= 1e-7


def test_thin_polytope_still_converges():
    # theta barely above pi/3 leaves only eps of slack at the optimum; at
    # 7e-7 the last Newton steps change F by less than its rounding noise,
    # which an Armijo test cannot resolve
    for eps in (1e-6, 7e-7):
        theta = PI / 3 + eps
        data = AngleData(theta=np.full(3, theta), xi=np.array([2 * PI]))
        x, rep = solve_problem(TORUS, data)
        assert rep.status == CONVERGED
        assert np.max(np.abs(x.alphas() - (PI - theta) / 2)) <= 1e-10
        assert np.max(np.abs(x.gammas() - PI / 3)) <= 1e-10
        assert 0.0 < rep.min_slack < 2 * eps


def test_thin_polytope_sweep_converges():
    # below ~2e-7 of slack the projected gradient floors near 1e-9, formed
    # from differences of O(1) angles; the Newton decrement still resolves
    # the maximizer
    for eps in np.logspace(-8, -4, 41):
        theta = PI / 3 + eps
        data = AngleData(theta=np.full(3, theta), xi=np.array([2 * PI]))
        x, rep = solve_problem(TORUS, data)
        assert rep.status == CONVERGED, eps
        assert np.max(np.abs(x.alphas() - (PI - theta) / 2)) <= 1e-10, eps
        assert np.max(np.abs(x.gammas() - PI / 3)) <= 1e-10, eps


def test_gradient_test_still_takes_a_trusted_newton_step():
    # along the flattest tangent direction of a thin polytope a point whose
    # projected gradient passes tol lies tol / |lambda| from the maximizer,
    # above the sweep's 1e-10; one full Newton step resolves it
    from hyperideal.solve import _hess_blocks

    from .oracles import _reduced_hessian

    theta = PI / 3 + 5.01e-6
    data = AngleData(theta=np.full(3, theta), xi=np.array([2 * PI]))
    cs = build_constraints(TORUS, data)
    exact = np.tile(np.r_[np.full(3, (PI - theta) / 2), np.full(3, PI / 3)], 2)
    basis = tangent_basis(cs)
    red = _reduced_hessian(_hess_blocks(AngleSystem(exact)), basis)
    lam, vec = np.linalg.eigh(0.5 * (red + red.T))
    flat = basis @ vec[:, np.argmax(lam)]
    project = cs.kkt.identity_solve

    def pgn(v):
        return np.max(np.abs(project(objective_grad(AngleSystem(v)))))

    x0 = exact + 0.4 * DEFAULT_TOL / (pgn(exact + 1e-6 * flat) / 1e-6) * flat
    assert pgn(x0) <= DEFAULT_TOL
    assert np.max(np.abs(x0 - exact)) > 1e-10
    x, rep = maximize(TORUS, data, AngleSystem(x0), cs=cs)
    assert rep.status == CONVERGED and rep.iterations == 1
    assert np.max(np.abs(x.values - exact)) <= 1e-13


def test_objective_zero_when_all_triangles_badly_degenerate():
    bad = [0.0, PI, 0.0, PI, 0.0, 0.0]
    x = AngleSystem(np.tile(bad, 2))
    from hyperideal.solve import objective_f

    assert objective_f(x) == 0.0
