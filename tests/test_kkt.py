"""The sparse solve path: combinatorial rank, KKT Newton steps, statuses."""

import gc
import math
import weakref

import numpy as np
import pytest

import hyperideal.coherent as coherent_mod
import hyperideal.solve as solve_mod
from hyperideal.cli import main
from hyperideal.files import canonical_json, geometry_dict
from hyperideal.coherent import AngleSystem, build_constraints, find_coherent, find_max_slack, is_coherent
from hyperideal.pattern import metric_from_lengths, probe, truncated_lengths, verify_pattern
from hyperideal.solve import (
    CONVERGED,
    LINE_SEARCH_FAILED,
    maximize,
    objective_grad,
    solve_problem,
)

from .conftest import bundled_instance, bundled_text
from .oracles import kkt_solve_reference, lattice_disk, permuted, tangent_span_vectors
from .test_surface import GEN

PI = math.pi
BUNDLED = ("torus.json", "disk2.json", "fan3.json", "triangle.json", "triangle_infeasible.json")


def _check_rank(cs):
    dense = cs.a_eq.toarray()
    assert cs.rank == np.linalg.matrix_rank(dense)
    assert int(np.sum(cs.independent_eq)) == cs.rank
    assert np.linalg.matrix_rank(dense[cs.independent_eq]) == cs.rank


def test_combinatorial_rank_matches_matrix_rank(rng):
    for name in BUNDLED:
        cs = build_constraints(*bundled_instance(name))
        _check_rank(cs)
        _check_rank(permuted(cs, rng.permutation(len(cs.b_eq)), rng.permutation(len(cs.h_ineq))))


def test_constraints_are_sparse():
    cs = build_constraints(*bundled_instance("fan3.json"))
    assert isinstance(cs.a_eq, coherent_mod.SparseRows) and isinstance(cs.g_ineq, coherent_mod.SparseRows)
    perm = permuted(cs, np.arange(len(cs.b_eq))[::-1], np.arange(len(cs.h_ineq))[::-1])
    assert np.array_equal(perm.a_eq.toarray(), cs.a_eq.toarray()[::-1])


def _kkt_parts(name):
    tri, data = bundled_instance(name)
    cs = build_constraints(tri, data)
    x = find_coherent(cs)
    return cs, solve_mod._hess_blocks(x), coherent_mod._RangeSpace(cs).identity_solve(objective_grad(x))


def test_dense_and_sparse_newton_directions_agree(monkeypatch):
    cs, blocks, pg = _kkt_parts("fan3.json")
    monkeypatch.setattr(coherent_mod, "DENSE_KKT_MAX", 10**9)
    dense = coherent_mod._RangeSpace(cs)
    monkeypatch.setattr(coherent_mod, "DENSE_KKT_MAX", 0)
    sparse = coherent_mod._RangeSpace(cs)
    assert dense.dense and not sparse.dense
    d_dense = dense.solver(blocks)(-pg)
    d_sparse = sparse.solver(blocks)(-pg)
    assert np.max(np.abs(d_dense - d_sparse)) <= 1e-10
    assert np.max(np.abs(cs.a_eq @ d_dense)) <= 1e-12
    assert d_dense @ pg > 0.0


def _torus50():
    tri, dm = GEN.lattice_torus(np.random.default_rng(5), 5)
    return build_constraints(tri, probe(tri, dm)[0])


def _lp_solves(monkeypatch, cs):
    """Runs find_max_slack on cs and returns every KKT factorization that
    the max-slack LP asked for, in order, as (is_lu, matrix) pairs: the
    formed blocks of a range-space step or the row factor of an LU step."""
    calls = []
    real, real_lu = coherent_mod._RangeSpace.solver, coherent_mod._lu_solver

    def solver(self, blocks):
        calls.append((False, blocks))
        return real(self, blocks)

    def lu_solver(cs, a, f):
        calls.append((True, f))
        return real_lu(cs, a, f)

    monkeypatch.setattr(coherent_mod._RangeSpace, "solver", solver)
    monkeypatch.setattr(coherent_mod, "_lu_solver", lu_solver)
    find_max_slack(cs)
    monkeypatch.undo()
    return calls


def _lu_row_factors(monkeypatch, cs):
    """The row factor of every step of the max-slack LP on cs, in order, with
    every range-space step but the min-norm start's (H = I) made to fail,
    so that each step takes the LU of the whole KKT matrix."""
    real = coherent_mod._RangeSpace.solver

    def solver(self, blocks):
        if not np.array_equal(blocks, np.broadcast_to(np.eye(6), blocks.shape)):
            raise np.linalg.LinAlgError("range-space step turned off")
        return real(self, blocks)

    monkeypatch.setattr(coherent_mod._RangeSpace, "solver", solver)
    return [f for is_lu, f in _lp_solves(monkeypatch, cs) if is_lu]


def test_dense_and_sparse_lp_steps_agree(monkeypatch, rng):
    # the LP's own row factor D^(1/2) G at its third step on the LU, where D
    # spreads over about seven orders of magnitude
    cs = _torus50()
    f = _lu_row_factors(monkeypatch, cs)[2]
    assert f.shape == (50, 9, 6)
    sparse_calls = []
    real = coherent_mod._sparse_solver

    def sparse_solver(*args):
        sparse_calls.append(1)
        return real(*args)

    monkeypatch.setattr(coherent_mod, "_sparse_solver", sparse_solver)
    monkeypatch.setattr(coherent_mod, "DENSE_KKT_MAX", 10**9)
    dense = coherent_mod._lu_solver(cs, cs.a_eq[cs.independent_eq], f)
    assert len(sparse_calls) == 0
    monkeypatch.setattr(coherent_mod, "DENSE_KKT_MAX", 0)
    sparse = coherent_mod._lu_solver(cs, cs.a_eq[cs.independent_eq], f)
    assert len(sparse_calls) == 1
    rhs = rng.standard_normal((cs.dimension + len(cs.b_eq), 2))
    expected = kkt_solve_reference(cs, np.einsum("tri,trj->tij", f, f), rhs)
    for found in (dense(rhs), sparse(rhs)):
        assert np.linalg.norm(found - expected) <= 1e-9 * np.linalg.norm(expected)


def test_projection_is_orthogonal(monkeypatch):
    from hyperideal.coherent import tangent_basis

    tri, data = bundled_instance("disk2.json")
    cs = build_constraints(tri, data)
    g = objective_grad(find_coherent(cs))
    basis = tangent_basis(cs)
    expected = basis @ (basis.T @ g)
    for limit in (10**9, 0):
        monkeypatch.setattr(coherent_mod, "DENSE_KKT_MAX", limit)
        assert np.max(np.abs(coherent_mod._RangeSpace(cs).identity_solve(g) - expected)) <= 1e-13


def test_lattice_disk_through_sparse_branch():
    rng = np.random.default_rng(2024)
    tri, dm = lattice_disk(rng, 8)
    assert tri.triangle_count >= 128
    data, probed = probe(tri, dm)
    cs = build_constraints(tri, data)
    assert cs.dimension + cs.rank > coherent_mod.DENSE_KKT_MAX

    # move the known answer along a few edge vectors of the tangent space
    span = tangent_span_vectors(tri)
    picks = rng.choice(len(tri.gluings), 6, replace=False)
    x0 = AngleSystem(probed.values + 0.05 * rng.uniform(-1.0, 1.0, 6) @ span[picks])
    assert is_coherent(x0, cs).ok

    x, rep = maximize(tri, data, x0, cs=cs)
    assert rep.status == CONVERGED
    assert np.max(np.abs(x.values - probed.values)) <= 1e-7
    report = verify_pattern(tri, data, metric_from_lengths(truncated_lengths(x, tri), tri))
    assert report.max_theta_residual <= 1e-8


def test_one_identity_factorization_per_solve(monkeypatch):
    tri, dm = lattice_disk(np.random.default_rng(2024), 8)
    data, probed = probe(tri, dm)
    real, real_lu = coherent_mod._RangeSpace.solver, coherent_mod._lu_solver
    identity, lu = [], []

    def solver(self, blocks):
        assert not self.dense
        identity.append(np.array_equal(blocks, np.broadcast_to(np.eye(6), np.shape(blocks))))
        return real(self, blocks)

    def lu_solver(cs, f):
        lu.append(1)
        return real_lu(cs, f)

    monkeypatch.setattr(coherent_mod._RangeSpace, "solver", solver)
    monkeypatch.setattr(coherent_mod, "_lu_solver", lu_solver)
    x, rep = solve_problem(tri, data)
    assert rep.status == CONVERGED
    assert np.max(np.abs(x.values - probed.values)) <= 1e-7
    # the min-norm start of the max-slack LP and Newton's projector share it
    assert sum(identity) == 1 and len(identity) > 1
    # a feasible solve never builds the LU of the whole KKT matrix
    assert len(lu) == 0


def test_kkt_is_freed_with_its_system(monkeypatch):
    # a reference cycle through the kept H = I solve would hold every
    # factorization until the cyclic collector ran
    tri, data = bundled_instance("disk2.json")
    gc.disable()
    try:
        for limit in (10**9, 0):
            monkeypatch.setattr(coherent_mod, "DENSE_KKT_MAX", limit)
            cs = build_constraints(tri, data)
            maximize(tri, data, find_coherent(cs), cs=cs)
            kkt = weakref.ref(cs.kkt)
            assert kkt().dense == (limit > 0)
            del cs
            assert kkt() is None
    finally:
        gc.enable()


def _fail_every_trial_step(monkeypatch):
    real = solve_mod.objective_f
    calls = []

    def objective(x):
        calls.append(1)
        return real(x) if len(calls) == 1 else -np.inf

    monkeypatch.setattr(solve_mod, "objective_f", objective)


def test_line_search_failure_has_its_own_status(monkeypatch):
    _fail_every_trial_step(monkeypatch)
    tri, data = bundled_instance("disk2.json")
    x, rep = solve_problem(tri, data)
    assert rep.status == LINE_SEARCH_FAILED
    assert rep.iterations == 0


def test_cli_reports_line_search_failure(monkeypatch, tmp_path, capsys):
    _fail_every_trial_step(monkeypatch)
    p = tmp_path / "disk2.json"
    p.write_text(bundled_text("disk2.json"))
    assert main(["solve", str(p)]) == 4
    err = capsys.readouterr().err
    assert "line search failed at iteration 0" in err
    assert "did not converge" not in err


def _range_space_case(case):
    """(constraint system above DENSE_KKT_MAX, a strictly coherent point)."""
    if case == "disk-newton start":
        from perfbench.start import max_slack_start

        tri, dm = GEN.lattice_disk(np.random.default_rng(1), 16)
        data = probe(tri, dm)[0]
        return build_constraints(tri, data), AngleSystem(max_slack_start(tri, data)[0])
    tri, dm = GEN.lattice_torus(np.random.default_rng(6), 7, cone=case == "cone torus")
    cs = build_constraints(tri, probe(tri, dm)[0])
    if case == "permuted":
        rng = np.random.default_rng(8)
        cs = permuted(cs, rng.permutation(len(cs.b_eq)), rng.permutation(len(cs.h_ineq)))
    return cs, find_coherent(cs)


@pytest.mark.parametrize("case", ["disk-newton start", "flat torus", "cone torus", "permuted"])
def test_range_space_step_matches_the_kkt(case, rng):
    cs, x = _range_space_case(case)
    kkt = cs.kkt
    assert cs.dimension + cs.rank > coherent_mod.DENSE_KKT_MAX and not kkt.dense
    n = cs.dimension
    blocks = solve_mod._hess_blocks(x)
    identity = np.broadcast_to(np.eye(6), blocks.shape)
    g = objective_grad(x)
    b = cs.b_eq
    # the range-space step meets every row that it reads, the LU only the
    # independent rows: the two agree on consistent right-hand sides
    consistent = cs.a_eq @ rng.standard_normal((n, 2))
    for h, rhs in ((blocks, -g),  # a Newton step
                   (identity, np.concatenate([np.zeros(n), b])),  # the min-norm start
                   (identity, np.concatenate([g, b])),
                   (blocks, np.concatenate([rng.standard_normal((n, 2)), consistent]))):
        found = kkt.solver(h)(rhs)
        expected = kkt_solve_reference(cs, h, rhs)[:n]  # the range-space step returns x alone
        assert found.shape == expected.shape
        assert np.linalg.norm(found - expected) <= 1e-10 * np.linalg.norm(expected)
    start = kkt.identity_solve(np.concatenate([np.zeros(n), b]))
    assert np.max(np.abs(cs.a_eq @ start - cs.b_eq)) <= 1e-12


def test_range_space_leaves_one_vertex_row_per_component():
    # the vertex rows of the surface, which the gluings connect, sum to its
    # triangle rows, which each triangle enforces itself: keeping them all
    # in C makes S = C M C^T singular
    tri, dm = GEN.lattice_disk(np.random.default_rng(3), 5)
    assert tri.triangle_count == 50
    cs = build_constraints(tri, probe(tri, dm)[0])
    x = find_max_slack(cs)
    space = cs.kkt
    n_t = cs.dimension // 6
    left = np.setdiff1d(np.arange(len(cs.b_eq)), np.union1d(space.c_rows, space.triangle_rows))
    assert left.tolist() == [len(cs.b_eq) - tri.vertex_count]  # the first vertex row
    blocks = solve_mod._hess_blocks(x)
    p = coherent_mod._PLANE
    m = p @ np.linalg.solve(p.T @ blocks @ p, p.T)
    c = cs.a_eq[space.c_rows].toarray().reshape(len(space.c_rows), n_t, 6)
    singular = np.linalg.svd(np.einsum("ati,tij,btj->ab", c, m, c), compute_uv=False)
    assert singular.min() >= 1e-6 * singular.max()  # 8e-4 here; 2e-17 with every vertex row


def test_min_norm_start_at_scale():
    # the range-space step reads each triangle's gamma sum from its own row;
    # rebuilt from the other rows of its component, the left-out triangle
    # row's right-hand side was a difference of two sums of about 25000,
    # which, summed one term after another, was off by 5e-9 at T = 8192
    tri, dm = GEN.lattice_torus(np.random.default_rng(1), 64)
    cs = build_constraints(tri, probe(tri, dm)[0])
    assert tri.triangle_count == 8192
    x = cs.kkt.identity_solve(np.concatenate([np.zeros(cs.dimension), cs.b_eq]))
    residual = np.abs(cs.a_eq @ x - cs.b_eq)
    assert np.max(residual) <= 1e-11
    assert np.max(residual[:tri.triangle_count]) <= 8 * np.spacing(np.pi)


@pytest.mark.parametrize("surface", ["disk", "cone torus"])
def test_triangle_gamma_sums_are_met_to_their_own_rounding(surface):
    # each range-space step reads a triangle's gamma sum from its own row,
    # so the sum is off by no more than the rounding of its three gammas
    rng = np.random.default_rng(1)
    tri, dm = GEN.lattice_disk(rng, 16) if surface == "disk" else GEN.lattice_torus(rng, 16, cone=True)
    assert tri.triangle_count == 512
    data = probe(tri, dm)[0]
    cs = build_constraints(tri, data)
    start = next(coherent_mod._max_slack(cs))
    x0 = find_coherent(cs)
    x, rep = maximize(tri, data, x0, cs=cs)
    assert rep.status == CONVERGED
    for point in (start, x0.values, x.values):
        gamma_sums = np.sum(point.reshape(-1, 6)[:, 3:], axis=1)
        assert np.max(np.abs(gamma_sums - PI)) <= 8 * np.spacing(PI)


def test_lp_row_factor_reaches_the_kkt_lu(monkeypatch, rng):
    tri, dm = GEN.lattice_torus(np.random.default_rng(6), 7)
    cs = build_constraints(tri, probe(tri, dm)[0])
    calls = _lp_solves(monkeypatch, cs)
    lu = [is_lu for is_lu, _ in calls]
    # the min-norm start and the LP's opening steps took the range-space
    # path, every later step the LU
    assert np.array_equal(calls[0][1], np.broadcast_to(np.eye(6), (98, 6, 6)))
    assert 1 < lu.index(True) and all(lu[lu.index(True):])
    assert sum(lu) > 2
    f = _lu_row_factors(monkeypatch, cs)[2]
    rhs = rng.standard_normal((cs.dimension + len(cs.b_eq), 2))
    found = coherent_mod._lu_solver(cs, cs.a_eq[cs.independent_eq], f)(rhs)
    expected = kkt_solve_reference(cs, np.einsum("tri,trj->tij", f, f), rhs)
    assert found.shape == expected.shape  # the multipliers too
    assert np.linalg.norm(found - expected) <= 1e-10 * np.linalg.norm(expected)


def test_import_loads_no_dense_scipy_modules():
    import subprocess
    import sys

    code = "import sys, hyperideal; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_dense_branch_solves_with_numpy_alone():
    # a cold 50-triangle solve stays on the dense branch, which needs no
    # scipy module at all
    import subprocess
    import sys

    tri, dm = lattice_disk(np.random.default_rng(5), 5)
    cs = build_constraints(tri, probe(tri, dm)[0])
    assert tri.triangle_count == 50 and cs.dimension + cs.rank <= coherent_mod.DENSE_KKT_MAX
    code = (
        "import sys\n"
        "from hyperideal import files, pattern, solve\n"
        "tri, dm = files.parse_geometry(sys.stdin.read())\n"
        "x, rep = solve.solve_problem(tri, pattern.probe(tri, dm)[0])\n"
        "print(rep.status, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run([sys.executable, "-c", code], input=canonical_json(geometry_dict(tri, dm)),
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["converged", "[]"]


def test_sparse_branch_solves_without_a_graph_search():
    # the range-space step leaves out the first vertex row, with no graph
    # search; scipy.sparse.csgraph stays unloaded
    import subprocess
    import sys

    tri, dm = lattice_disk(np.random.default_rng(5), 8)
    cs = build_constraints(tri, probe(tri, dm)[0])
    assert tri.triangle_count == 128 and cs.dimension + cs.rank > coherent_mod.DENSE_KKT_MAX
    code = (
        "import sys\n"
        "from hyperideal import files, pattern, solve\n"
        "tri, dm = files.parse_geometry(sys.stdin.read())\n"
        "x, rep = solve.solve_problem(tri, pattern.probe(tri, dm)[0])\n"
        "print(rep.status, [m for m in ('scipy.sparse.linalg', 'scipy.sparse.csgraph') "
        "if m in sys.modules])"
    )
    out = subprocess.run([sys.executable, "-c", code], input=canonical_json(geometry_dict(tri, dm)),
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["converged", "['scipy.sparse.linalg']"]
