import math

import numpy as np
import pytest

from hyperideal.coherent import (
    AngleSystem,
    Infeasible,
    build_constraints,
    find_coherent,
    is_coherent,
    tangent_basis,
)
from hyperideal.surface import AngleData, GluedTriangulation

from .conftest import bundled_instance
from .oracles import lattice_disk, permuted, row_labels, sample_coherent, single_triangle_feasible

PI = math.pi
TORUS = GluedTriangulation(2, [((0, 0), (1, 0)), ((0, 1), (1, 1)), ((0, 2), (1, 2))])


def torus_data(theta=PI / 2):
    return AngleData(theta=np.full(3, theta), xi=np.array([2 * PI]))


def symmetric_point(theta):
    return AngleSystem(np.tile([(PI - theta) / 2] * 3 + [PI / 3] * 3, 2))


# -- constraint assembly -----------------------------------------------------------


def test_row_counts_single_triangle():
    tri = GluedTriangulation(1, [])
    data = AngleData(theta=np.full(3, 5 * PI / 6), xi=np.full(3, PI / 3))
    cs = build_constraints(tri, data)
    assert cs.a_eq.shape == (7, 6)  # 1 triangle sum + 3 boundary + 3 vertex
    assert cs.g_ineq.shape == (9, 6)  # 6 positivity + 3 delta rows


def test_row_counts_torus():
    cs = build_constraints(TORUS, torus_data())
    assert cs.a_eq.shape == (6, 12)  # 2 + 3 + 1
    assert cs.g_ineq.shape == (18, 12)
    # closed surface: vertex rows sum equals triangle rows sum -> dependency
    assert cs.rank < cs.a_eq.shape[0]


def test_row_counts_two_triangle_disk():
    tri = GluedTriangulation(2, [((0, 0), (1, 0))])
    data = AngleData(theta=np.full(5, PI / 2), xi=np.full(4, 1.0))
    cs = build_constraints(tri, data)
    assert cs.a_eq.shape == (11, 12)  # 2 + 1 + 4 + 4


# -- membership --------------------------------------------------------------------


def test_symmetric_torus_point_coherent():
    cs = build_constraints(TORUS, torus_data(PI / 2))
    assert is_coherent(symmetric_point(PI / 2), cs).ok


def test_symmetric_point_tight_at_pi_third():
    cs = build_constraints(TORUS, torus_data(PI / 3))
    report = is_coherent(symmetric_point(PI / 3), cs)
    assert not report.ok
    assert any("delta bound" in label for label, _ in report.violations)


def test_negative_gamma_named():
    cs = build_constraints(TORUS, torus_data())
    x = symmetric_point(PI / 2)
    x.values[3] = -0.1
    x.values[4] = PI - PI / 3 - x.values[3] - x.values[5]
    report = is_coherent(x, cs)
    assert not report.ok
    assert any("gamma[0][0] > 0" == label for label, _ in report.violations)


@pytest.mark.parametrize("case", ["lattice disk", "torus", "one triangle"])
def test_every_row_named_as_built(case):
    # x = -1 breaks every equality and sign row, x = 10 every equality and
    # Delta row; each report lists its rows in row order
    if case == "lattice disk":
        tri = lattice_disk(np.random.default_rng(7), 4)[0]
    elif case == "torus":
        tri = bundled_instance("torus.json")[0]
    else:
        tri = GluedTriangulation(1, [])
    data = AngleData(theta=np.full(len(tri.edge_sides), 1.0), xi=np.full(tri.vertex_count, 1.0))
    cs = build_constraints(tri, data)
    labels_eq, labels_ineq = row_labels(tri)
    n = cs.dimension
    for value, rows in ((-1.0, slice(None, n)), (10.0, slice(n, None))):
        x = np.full(n, value)
        res, slack = (cs.a_eq @ x - cs.b_eq).tolist(), (cs.h_ineq - cs.g_ineq @ x).tolist()
        assert is_coherent(AngleSystem(x), cs).violations == \
            list(zip(labels_eq, res)) + list(zip(labels_ineq, slack))[rows]


# -- feasibility -------------------------------------------------------------------


def test_find_coherent_torus():
    cs = build_constraints(TORUS, torus_data())
    x = find_coherent(cs)
    assert isinstance(x, AngleSystem)
    assert is_coherent(x, cs).ok


def test_single_triangle_pinned_feasible():
    tri = GluedTriangulation(1, [])
    data = AngleData(theta=np.full(3, 5 * PI / 6), xi=np.full(3, PI / 3))
    x = find_coherent(build_constraints(tri, data))
    assert isinstance(x, AngleSystem)
    assert np.allclose(x.values[:3], PI / 6, atol=1e-9)
    assert np.allclose(x.values[3:], PI / 3, atol=1e-9)


def test_single_triangle_right_angles_infeasible():
    tri = GluedTriangulation(1, [])
    data = AngleData(theta=np.full(3, PI / 2), xi=np.full(3, PI / 3))
    res = find_coherent(build_constraints(tri, data))
    assert isinstance(res, Infeasible)
    assert res.s_star <= 1e-9
    assert not res  # falsy certificate


def test_inconsistent_equalities_certified():
    tri = GluedTriangulation(1, [])
    data = AngleData(theta=np.full(3, 5 * PI / 6), xi=np.full(3, 2 * PI / 3))
    res = find_coherent(build_constraints(tri, data))
    assert isinstance(res, Infeasible)
    assert res.reason == "equalities_inconsistent"


def test_verdict_stable_under_row_permutation(rng):
    tri = GluedTriangulation(1, [])
    for _ in range(50):
        theta = rng.uniform(0.05, PI - 0.05, 3)
        xi = rng.dirichlet((1.0, 1.0, 1.0)) * PI
        cs = build_constraints(tri, AngleData(theta=theta, xi=xi))
        v1 = isinstance(find_coherent(cs), AngleSystem)
        perm = permuted(cs, rng.permutation(len(cs.b_eq)), rng.permutation(len(cs.h_ineq)))
        v2 = isinstance(find_coherent(perm), AngleSystem)
        assert v1 == v2


def test_matches_closed_form_oracle(rng):
    tri = GluedTriangulation(1, [])
    disagreements = 0
    for k in range(2000):
        if k % 3 == 0:
            theta = rng.uniform(PI / 2, PI - 0.05, 3)
        else:
            theta = rng.uniform(0.05, PI - 0.05, 3)
        xi = rng.dirichlet((1.0, 1.0, 1.0)) * PI
        if k % 5 == 4:
            xi = rng.uniform(0.1, 2.0, 3)  # generally inconsistent sum
        data = AngleData(theta=theta, xi=xi)
        cs = build_constraints(tri, data)
        found = find_coherent(cs)
        lp = isinstance(found, AngleSystem)
        if lp:
            assert is_coherent(found, cs).ok
        closed = single_triangle_feasible(theta, xi)
        disagreements += lp != closed
    assert disagreements == 0


def test_sample_coherent_strictly_interior(rng):
    cs = build_constraints(TORUS, torus_data())
    for x in sample_coherent(cs, rng, n=20):
        report = is_coherent(x, cs)
        assert report.ok
        assert report.min_slack > 1e-10


def test_tangent_basis_dimension():
    cs = build_constraints(TORUS, torus_data())
    basis = tangent_basis(cs)
    assert basis.shape == (12, 12 - cs.rank)
    assert np.max(np.abs(cs.a_eq @ basis)) < 1e-12


def test_degenerate_polytope_reported_infeasible():
    # a single triangle whose Delta bound leaves only ~5e-10 of slack: the
    # closed polytope is nonempty but no strictly coherent system exists
    tri = GluedTriangulation(1, [])
    t = 2 * PI / 3 + 2.5e-10
    data = AngleData(theta=np.full(3, t), xi=np.full(3, PI / 3))
    res = find_coherent(build_constraints(tri, data))
    assert isinstance(res, Infeasible)
    assert res.reason == "max_slack_nonpositive"
    assert 0.0 < res.s_star <= 1e-9


def test_all_zero_theta_torus_infeasible():
    # theta = 0 everywhere on the torus would force all three face circles to
    # coincide; the Delta bounds make that infeasible, which the LP certifies
    data = AngleData(theta=np.zeros(3), xi=np.array([2 * PI]))
    res = find_coherent(build_constraints(TORUS, data))
    assert isinstance(res, Infeasible)
