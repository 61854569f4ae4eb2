import math

import numpy as np
import pytest

from hyperideal.coherent import AngleSystem
from hyperideal.errors import NotCriticalError, PreconditionError, SurfaceError
from hyperideal.pattern import (
    DecoratedMetric,
    compat_residuals,
    metric_from_lengths,
    orthocircle,
    probe,
    read_angles,
    truncated_lengths,
    verify_pattern,
)
from hyperideal.solve import solve_problem
from hyperideal.surface import AngleData, GluedTriangulation

from .conftest import bundled_instance
from .oracles import random_disk, symmetric_torus

PI = math.pi
TORUS = GluedTriangulation(2, [((0, 0), (1, 0)), ((0, 1), (1, 1)), ((0, 2), (1, 2))])
TORUS_DATA = AngleData(theta=np.full(3, PI / 2), xi=np.array([2 * PI]))


def solved_torus():
    x, rep = solve_problem(TORUS, TORUS_DATA)
    return x


# -- truncated lengths ---------------------------------------------------------


def test_truncated_lengths_symmetric():
    x = solved_torus()
    tl = truncated_lengths(x, TORUS)
    assert np.ptp(tl.a_edge) <= 1e-10
    assert tl.a_vertex.tolist() == [0.0]
    # cosh(a) = 2 at the right-angled symmetric torus
    assert math.cosh(tl.a_edge[0]) == pytest.approx(2.0, abs=1e-10)


def test_truncated_lengths_sides_agree():
    tri, data = bundled_instance("disk2.json")
    x, _ = solve_problem(tri, data)
    tl = truncated_lengths(x, tri)
    assert np.all(tl.a_edge > 0.0)
    assert tl.max_cycle_residual <= 1e-7


def test_truncated_lengths_rejects_non_critical():
    x = solved_torus()
    bad = AngleSystem(x.values.copy())
    bad.values[0] += 2e-3
    bad.values[6] -= 2e-3  # keep the edge sum, break criticality
    with pytest.raises(NotCriticalError):
        truncated_lengths(bad, TORUS)


def test_compat_residuals_at_critical_point():
    x = solved_torus()
    c1, c2 = compat_residuals(TORUS, x)
    assert c1 <= 1e-9 and c2 <= 1e-9


# -- metric --------------------------------------------------------------------


def test_metric_from_lengths_gauge_and_formula():
    x = solved_torus()
    tl = truncated_lengths(x, TORUS)
    dm = metric_from_lengths(tl, TORUS)
    assert dm.radii[0] == 1.0
    assert np.allclose(dm.lengths, math.sqrt(6.0), atol=1e-10)
    dm.validate(TORUS)


def test_metric_formula_direct_cases():
    # all potentials zero, all a_edge = c: r = 1, l = sqrt(2 + 2 cosh c)
    from hyperideal.pattern import TruncatedLengths

    tl = TruncatedLengths(
        a_edge=np.full(3, 0.7), a_vertex=np.zeros(1), max_cycle_residual=0.0
    )
    dm = metric_from_lengths(tl, TORUS)
    assert np.allclose(dm.lengths, math.sqrt(2 + 2 * math.cosh(0.7)), atol=1e-15)
    # a -> 0 limit: tangent circles l = r_i + r_j (excluded boundary of (i))
    tl0 = TruncatedLengths(
        a_edge=np.full(3, 1e-12), a_vertex=np.zeros(1), max_cycle_residual=0.0
    )
    assert metric_from_lengths(tl0, TORUS).lengths[0] == pytest.approx(2.0, abs=1e-9)


# -- orthocircle and read-off -----------------------------------------------------


def test_orthocircle_equilateral():
    for rho in (0.2, 0.4, 0.55):
        center, radius = orthocircle(2.0, 2.0, 2.0, rho, rho, rho)
        assert np.allclose(center, [1.0, 1.0 / math.sqrt(3.0)], atol=1e-12)
        assert radius == pytest.approx(math.sqrt(4.0 / 3.0 - rho * rho), abs=1e-12)


def test_orthocircle_powers_agree(rng):
    for _ in range(50):
        l = rng.uniform(1.5, 3.0, 3)
        if (l[0] + l[1] <= l[2]) or (l[1] + l[2] <= l[0]) or (l[2] + l[0] <= l[1]):
            continue
        r = rng.uniform(0.1, 0.3, 3)
        try:
            center, radius = orthocircle(*l, *r)
        except PreconditionError:
            continue
        from hyperideal.pattern import place_canonical

        pts = place_canonical(*l)
        powers = [np.sum((center - p) ** 2) - rr * rr for p, rr in zip(pts, r)]
        assert np.ptp(powers) <= 1e-12
        # orthogonality: |c - v|^2 = R^2 + r^2
        for p, rr in zip(pts, r):
            assert np.sum((center - p) ** 2) == pytest.approx(
                radius**2 + rr**2, abs=1e-10
            )


def test_orthocircle_rejects_overlapping_circles():
    with pytest.raises(PreconditionError):
        orthocircle(2.0, 2.0, 2.0, 1.1, 1.0, 0.4)


def test_read_angles_equilateral_symmetric():
    angles = read_angles(np.full(3, 2.0), np.full(3, 0.5))
    assert np.ptp(angles[:3]) <= 1e-14
    assert np.allclose(angles[3:], PI / 3, atol=1e-14)


def test_read_angles_gamma_sum_and_delta(rng):
    for _ in range(50):
        l = rng.uniform(1.5, 3.0, 3)
        if (l[0] + l[1] <= l[2]) or (l[1] + l[2] <= l[0]) or (l[2] + l[0] <= l[1]):
            continue
        r = rng.uniform(0.05, 0.25, 3)
        try:
            angles = read_angles(l, r)
        except PreconditionError:
            continue
        assert angles[3:].sum() == pytest.approx(PI, abs=1e-10)
        # gamma is the euclidean corner angle of the bare triangle
        from hyperideal.pattern import _corner_angles, place_canonical

        assert np.allclose(angles[3:], _corner_angles(place_canonical(*l)), atol=1e-12)


def test_read_angles_reproduces_solved_torus():
    x = solved_torus()
    dm = metric_from_lengths(truncated_lengths(x, TORUS), TORUS)
    for t in range(2):
        got = read_angles(dm.lengths[TORUS.side_edge[t]], dm.radii[TORUS.corner_class[t]])
        assert np.max(np.abs(got - x.values[6 * t:6 * t + 6])) <= 1e-6


# -- probe -------------------------------------------------------------------------


def test_probe_symmetric_torus():
    tri, dm = symmetric_torus(rho=0.3, side=1.0)
    data, x = probe(tri, dm)
    assert np.ptp(data.theta) <= 1e-12
    assert data.xi[0] == pytest.approx(2 * PI, abs=1e-12)


def test_probe_cross_checks_face_circle_angle():
    tri, dm = symmetric_torus(rho=1.0, side=math.sqrt(6.0))
    data, x = probe(tri, dm)
    assert np.allclose(data.theta, PI / 2, atol=1e-10)
    assert np.allclose(x.alphas(), PI / 4, atol=1e-10)


def test_probe_two_triangle_disk():
    tri = GluedTriangulation(2, [((0, 0), (1, 0))])
    dm = DecoratedMetric(lengths=np.full(5, 2.0), radii=np.full(4, 0.4))
    data, x = probe(tri, dm)
    assert 0.0 <= data.theta[0] < PI
    # boundary thetas in (0, pi)
    assert np.all(data.theta[1:] > 0.0) and np.all(data.theta[1:] < PI)


def test_probe_rejects_overlapping_vertex_circles():
    tri = GluedTriangulation(2, [((0, 0), (1, 0))])
    dm = DecoratedMetric(lengths=np.full(5, 2.0), radii=np.full(4, 1.05))
    with pytest.raises(PreconditionError, match="edge"):
        probe(tri, dm)


def test_probe_scale_invariance():
    tri, dm = symmetric_torus(rho=0.37, side=1.3)
    data, x = probe(tri, dm)
    for lam in (0.5, 2.0):  # power-of-two scalings are bit-exact
        data2, x2 = probe(tri, dm.scaled(lam))
        assert np.array_equal(x2.values, x.values)
        assert np.array_equal(data2.theta, data.theta)
    data10, x10 = probe(tri, dm.scaled(10.0))
    assert np.max(np.abs(x10.values - x.values)) <= 1e-13


def test_probed_system_is_critical():
    # the probed angle system comes from an actual pattern, so it satisfies
    # the compatibility conditions without any optimization
    tri, dm = random_disk(np.random.default_rng(7))
    data, x = probe(tri, dm)
    c1, c2 = compat_residuals(tri, x)
    assert max(c1, c2) <= 1e-9


# -- verify_pattern ------------------------------------------------------------------


def test_verify_pattern_solved_instances():
    for name in ("torus.json", "disk2.json", "fan3.json"):
        tri, data = bundled_instance(name)
        x, rep = solve_problem(tri, data)
        dm = metric_from_lengths(truncated_lengths(x, tri), tri)
        report = verify_pattern(tri, data, dm)
        assert report.max_theta_residual <= 1e-7
        assert report.max_xi_residual <= 1e-7
        assert report.min_condition_i_slack > 0.0
        assert report.min_condition_ii_margin > 0.0


def test_verify_pattern_detects_perturbation():
    tri, data = bundled_instance("disk2.json")
    x, _ = solve_problem(tri, data)
    dm = metric_from_lengths(truncated_lengths(x, tri), tri)
    dm.lengths[0] *= 1.01
    report = verify_pattern(tri, data, dm)
    assert report.max_theta_residual > 1e-3


def test_verify_pattern_scale_invariant():
    tri, data = bundled_instance("fan3.json")
    x, _ = solve_problem(tri, data)
    dm = metric_from_lengths(truncated_lengths(x, tri), tri)
    r1 = verify_pattern(tri, data, dm)
    r2 = verify_pattern(tri, data, dm.scaled(2.0))
    assert r1 == r2


def test_disconnected_surface_rejected():
    # the potentials are integrated along one tree: a surface with two
    # loose triangles is refused before any reconstruction can start
    with pytest.raises(SurfaceError, match="the surface is disconnected"):
        GluedTriangulation(2, [])


def test_solve_reproduces_probed_angle_system():
    from .oracles import random_disk

    tri, dm = random_disk(np.random.default_rng(42))
    data, probed = probe(tri, dm)
    x, rep = solve_problem(tri, data)
    assert np.max(np.abs(x.values - probed.values)) <= 1e-6


def test_cone_singularity_round_trip():
    # closed fan of six 72-degree wedges: the hub is an interior vertex with
    # cone angle 2.4*pi; probe -> solve -> reconstruct reproduces the metric
    k = 6
    tri = GluedTriangulation(k, [((t, 2), ((t + 1) % k, 0)) for t in range(k)])
    hub = tri.corner_class[(0, 0)]
    assert not tri.boundary_vertex[hub]
    rim = 2.0 * math.sin(math.radians(36.0))
    lengths = np.empty(len(tri.edges))
    for e in tri.edges:
        t, s = e.sides[0]
        lengths[e.index] = rim if s == 1 else 1.0
    dm = DecoratedMetric(lengths=lengths, radii=np.full(len(tri.vertices), 0.12))
    data, probed = probe(tri, dm)
    assert data.xi[hub] == pytest.approx(2.4 * PI, abs=1e-12)
    x, rep = solve_problem(tri, data)
    assert rep.status == "converged"
    assert np.max(np.abs(x.values - probed.values)) <= 1e-8
    rec = metric_from_lengths(truncated_lengths(x, tri), tri)
    scale = dm.radii[0] / rec.radii[0]
    assert np.max(np.abs(rec.lengths * scale - dm.lengths) / dm.lengths) <= 1e-8

    from hyperideal.layout import ATLAS, lay_out

    from .oracles import vertex_holonomy

    cl = lay_out(tri, rec)
    assert cl.mode == ATLAS  # non-flat interior vertex forces an atlas
    hol = vertex_holonomy(tri, cl, 0, 0)
    assert hol.cone_angle == pytest.approx(2.4 * PI, abs=1e-7)
