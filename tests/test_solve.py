import math

import numpy as np
import pytest

from hyperideal.coherent import (
    AngleSystem,
    build_constraints,
    find_coherent,
    sample_coherent,
    tangent_basis,
)
from hyperideal.errors import NotCoherentError
from hyperideal.solve import (
    CONVERGED,
    INFEASIBLE,
    maximize,
    objective_f,
    objective_grad,
    solve_problem,
)
from hyperideal.surface import AngleData, GluedTriangulation

from .conftest import bundled_instance
from .oracles import fd_gradient, tangent_span_vectors

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
            fd = fd_gradient(lambda v: objective_f(AngleSystem(v)), x.values)
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


def test_not_coherent_start_rejected():
    bad = AngleSystem(np.tile([0.1] * 3 + [1.0] * 3, 2))
    with pytest.raises(NotCoherentError):
        maximize(TORUS, TORUS_DATA, bad)


def test_uniqueness_from_permuted_starts(rng):
    cs = build_constraints(TORUS, TORUS_DATA)
    x1, _ = maximize(TORUS, TORUS_DATA, find_coherent(cs), cs=cs)
    perm = cs.permuted(rng.permutation(len(cs.b_eq)), rng.permutation(len(cs.h_ineq)))
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

    def watch(it, xk, fk):
        slack = float(np.min(cs.h_ineq - cs.g_ineq @ xk.values))
        seen.append((fk, slack))

    maximize(tri, data, x0, cs=cs, callback=watch)
    assert seen, "solver took no steps"
    values = [f for f, _ in seen]
    assert all(b >= a - 1e-13 for a, b in zip(values, values[1:]))
    assert all(slack > 0.0 for _, slack in seen)


def test_max_iters_status_when_budget_exhausted():
    x, rep = solve_problem(TORUS, TORUS_DATA, max_iters=1)
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


def test_objective_zero_when_all_triangles_badly_degenerate():
    bad = [0.0, PI, 0.0, PI, 0.0, 0.0]
    x = AngleSystem(np.tile(bad, 2))
    from hyperideal.solve import objective_f

    assert objective_f(x) == 0.0
