"""The max-slack interior point against HiGHS, and its failure statuses."""

import math

import numpy as np
import pytest

import hyperideal.coherent as coherent_mod
from hyperideal.cli import main
from hyperideal.coherent import (
    FEASIBLE_SLACK,
    AngleSystem,
    Infeasible,
    build_constraints,
    find_max_slack,
    is_coherent,
)
from hyperideal.errors import ConvergenceError
from hyperideal.pattern import DecoratedMetric, probe
from hyperideal.solve import INFEASIBLE, solve_problem
from hyperideal.surface import AngleData, GluedTriangulation

from .conftest import bundled_instance, bundled_text
from .oracles import lattice_disk, max_slack_highs, permuted, random_disk

PI = math.pi
TORUS = GluedTriangulation(2, [((0, 0), (1, 0)), ((0, 1), (1, 1)), ((0, 2), (1, 2))])
# one-vertex tori of TORUS's gluing as (lengths, radius, s*); forming
# Z^T G^T D G Z explicitly made the dense step on both exactly singular
# near the optimum
ENDGAME_TORI = [
    ([0.85714303057747188, 1.1468918543224431, 1.1427977654366173], 0.23691028274999731,
     0.10516040765),
    ([1.0341375073141306, 0.85078922608789, 1.1231221534197513], 0.25394386387218043,
     0.13622127624),
]
BUNDLED = ("torus.json", "disk2.json", "fan3.json", "triangle.json", "triangle_infeasible.json")


def _probed_constraints(tri, dm):
    return build_constraints(tri, probe(tri, dm)[0])


def _assert_agrees_with_highs(cs):
    found = find_max_slack(cs)
    reference = max_slack_highs(cs)
    if isinstance(found, Infeasible):
        assert reference <= FEASIBLE_SLACK
        assert abs(found.s_star - reference) <= 1e-9
    else:
        assert reference > FEASIBLE_SLACK
        assert is_coherent(found, cs).ok
        assert abs(float(np.min(cs.h_ineq - cs.g_ineq @ found.values)) - reference) <= 1e-9
    return found


def test_max_slack_matches_highs(rng):
    systems = [build_constraints(*bundled_instance(name)) for name in BUNDLED]
    systems += [_probed_constraints(*random_disk(rng)) for _ in range(6)]
    # s* = eps: on both sides of the feasibility threshold and below zero
    for eps in (-1e-10, 1e-10, 1e-8):
        data = AngleData(theta=np.full(3, PI / 3 + eps), xi=np.array([2 * PI]))
        systems.append(build_constraints(TORUS, data))
    systems += [
        permuted(cs, rng.permutation(len(cs.b_eq)), rng.permutation(len(cs.h_ineq)))
        for cs in systems
    ]
    for cs in systems:
        _assert_agrees_with_highs(cs)


def test_max_slack_matches_highs_through_sparse_branch():
    cs = _probed_constraints(*lattice_disk(np.random.default_rng(7), 16))
    assert cs.dimension == 6 * 512
    assert cs.dimension + cs.rank > coherent_mod.DENSE_KKT_MAX
    _assert_agrees_with_highs(cs)


@pytest.mark.parametrize("first, second, moved", [(3, 270, 6.0), (9, 23, 3.0), (13, 15, 1.0)])
def test_xi_moved_between_interior_vertices_is_infeasible_at_scale(monkeypatch, first, second,
                                                                   moved):
    # s* = -0.88, -0.37 and -0.054: the LP's opening range-space steps lose
    # accuracy before any iterate is coherent, and the LU takes over
    tri, dm = lattice_disk(np.random.default_rng(7), 16)
    data = probe(tri, dm)[0]
    assert not (tri.boundary_vertex[first] or tri.boundary_vertex[second])
    xi = data.xi.copy()
    xi[first] -= moved
    xi[second] += moved
    data = AngleData(theta=data.theta, xi=xi)
    lu = []
    real, real_lu = coherent_mod._RangeSpace.solver, coherent_mod._lu_solver

    def solver(self, blocks):
        lu.append(False)
        return real(self, blocks)

    def lu_solver(cs, a, f):
        lu.append(True)
        return real_lu(cs, a, f)

    monkeypatch.setattr(coherent_mod._RangeSpace, "solver", solver)
    monkeypatch.setattr(coherent_mod, "_lu_solver", lu_solver)
    x, report = solve_problem(tri, data)
    assert x is None and report.status == INFEASIBLE
    # the min-norm start and the first LP step on the range-space path
    assert lu[:2] == [False, False] and any(lu)
    monkeypatch.undo()
    cs = build_constraints(tri, data)
    assert cs.dimension + cs.rank > coherent_mod.DENSE_KKT_MAX
    found = find_max_slack(cs)
    assert isinstance(found, Infeasible) and found.s_star < 0.0
    assert abs(found.s_star - max_slack_highs(cs)) <= 1e-9


@pytest.mark.parametrize("lengths, radius, s_star", ENDGAME_TORI)
def test_max_slack_endgame_needs_no_rescue(monkeypatch, lengths, radius, s_star):
    # near the optimum z/w spans up to 1e19; both branches must still reach
    # the gap tolerance rather than keep the point of a failed factorization
    data = probe(TORUS, DecoratedMetric(lengths=np.array(lengths), radii=np.array([radius])))[0]
    monkeypatch.setattr(coherent_mod, "LP_RESCUE_GAP", 0.0)
    for limit in (10**9, 0):
        monkeypatch.setattr(coherent_mod, "DENSE_KKT_MAX", limit)
        cs = build_constraints(TORUS, data)
        found = find_max_slack(cs)
        assert cs.kkt.dense == (limit > 0)
        found_s = float(np.min(cs.h_ineq - cs.g_ineq @ found.values))
        assert abs(found_s - s_star) <= 1e-9
        assert abs(found_s - max_slack_highs(cs)) <= 1e-9


@pytest.mark.parametrize("name", ["torus.json", "disk2.json"])
def test_strictly_coherent_start_takes_a_range_space_step(monkeypatch, name):
    # the min-norm start of both is already strictly coherent: the first LP
    # step still goes to the range-space method, after which the solve
    # path stops, while the LP to its optimum still ends on the LU
    tri, data = bundled_instance(name)
    cs = build_constraints(tri, data)
    assert coherent_mod._strictly_coherent(cs, next(coherent_mod._max_slack(cs)))
    lu = []
    real_lu = coherent_mod._lu_solver

    def lu_solver(cs, a, f):
        lu.append(1)
        return real_lu(cs, a, f)

    monkeypatch.setattr(coherent_mod, "_lu_solver", lu_solver)
    x, report = solve_problem(tri, data)
    assert x is not None and report.status == "converged" and lu == []
    assert isinstance(find_max_slack(cs), AngleSystem) and lu


def _fail_factorizations_after(monkeypatch, calls):
    """Every KKT factorization after the first ``calls`` raises, on the
    range-space path and the LU alike."""
    real, real_lu = coherent_mod._RangeSpace.solver, coherent_mod._lu_solver
    count = []

    def counted(factorize):
        count.append(1)
        if len(count) > calls:
            raise np.linalg.LinAlgError("singular matrix")
        return factorize()

    monkeypatch.setattr(coherent_mod._RangeSpace, "solver",
                        lambda self, blocks: counted(lambda: real(self, blocks)))
    monkeypatch.setattr(coherent_mod, "_lu_solver", lambda cs, a, f: counted(lambda: real_lu(cs, a, f)))


def test_interior_point_failure_is_a_convergence_error(monkeypatch, tmp_path):
    cs = build_constraints(*bundled_instance("disk2.json"))
    monkeypatch.setattr(coherent_mod, "LP_MAX_ITERS", 2)
    with pytest.raises(ConvergenceError):
        find_max_slack(cs)
    p = tmp_path / "disk2.json"
    p.write_text(bundled_text("disk2.json"))
    assert main(["check", str(p)]) == 4

    monkeypatch.undo()
    _fail_factorizations_after(monkeypatch, 3)  # three steps: cs keeps its min-norm solve
    with pytest.raises(ConvergenceError):
        find_max_slack(cs)


def test_failed_factorization_near_the_optimum_keeps_the_primal_point(monkeypatch):
    cs = build_constraints(*bundled_instance("disk2.json"))
    exact = find_max_slack(cs).values
    _fail_factorizations_after(monkeypatch, 5)
    monkeypatch.setattr(coherent_mod, "LP_RESCUE_GAP", math.inf)
    found = find_max_slack(cs)
    assert isinstance(found, AngleSystem)
    assert np.all(np.isfinite(found.values))
    assert is_coherent(found, cs).ok
    assert not np.array_equal(found.values, exact)
