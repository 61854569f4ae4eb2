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
from hyperideal.coherent import AngleSystem, build_constraints, find_coherent, is_coherent
from hyperideal.pattern import metric_from_lengths, probe, truncated_lengths, verify_pattern
from hyperideal.solve import (
    CONVERGED,
    LINE_SEARCH_FAILED,
    maximize,
    objective_grad,
    solve_problem,
)
from hyperideal.surface import AngleData, GluedTriangulation

from .conftest import bundled_instance, bundled_text
from .oracles import kkt_solve_reference, lattice_disk, tangent_span_vectors
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
        _check_rank(cs.permuted(rng.permutation(len(cs.b_eq)), rng.permutation(len(cs.h_ineq))))


def test_rank_of_two_component_surface():
    tri = GluedTriangulation(2, [])
    data = AngleData(theta=np.full(6, 5 * PI / 6), xi=np.full(6, PI / 3))
    cs = build_constraints(tri, data)
    assert cs.rank == 12
    _check_rank(cs)


def test_constraints_are_sparse():
    cs = build_constraints(*bundled_instance("fan3.json"))
    assert cs.a_eq.format == "csr" and cs.g_ineq.format == "csr"
    perm = cs.permuted(np.arange(len(cs.b_eq))[::-1], np.arange(len(cs.h_ineq))[::-1])
    assert np.array_equal(perm.a_eq.toarray(), cs.a_eq.toarray()[::-1])


def _kkt_parts(name):
    tri, data = bundled_instance(name)
    cs = build_constraints(tri, data)
    x = find_coherent(cs)
    return cs, solve_mod._hess_blocks(x), coherent_mod._KKT(cs).projector()(objective_grad(x))


def test_dense_and_sparse_newton_directions_agree(monkeypatch):
    cs, blocks, pg = _kkt_parts("fan3.json")
    monkeypatch.setattr(coherent_mod, "DENSE_KKT_MAX", 10**9)
    dense = coherent_mod._KKT(cs)
    monkeypatch.setattr(coherent_mod, "DENSE_KKT_MAX", 0)
    sparse = coherent_mod._KKT(cs)
    assert dense.dense and not sparse.dense
    d_dense = dense.solver(blocks)(-pg)
    d_sparse = sparse.solver(blocks)(-pg)
    assert np.max(np.abs(d_dense - d_sparse)) <= 1e-10
    assert np.max(np.abs(cs.a_eq @ d_dense)) <= 1e-12
    assert d_dense @ pg > 0.0


@pytest.mark.parametrize("k", [1, 31, 32, 33, 64, 65, 151])
@pytest.mark.parametrize("columns", [None, 3])
def test_block_substitution_matches_lu(rng, k, columns):
    r = np.linalg.qr(rng.standard_normal((2 * k, k)), mode="r")
    b = rng.standard_normal(k if columns is None else (k, columns))
    for transpose in (False, True):
        x = coherent_mod._solve_upper(r, b, transpose)
        assert x.shape == b.shape
        expected = np.linalg.solve(r.T if transpose else r, b)
        assert np.max(np.abs(x - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_block_substitution_is_backward_stable_on_a_wide_diagonal(rng):
    k = 151
    u = np.linalg.qr(rng.standard_normal((2 * k, k)), mode="r")
    diagonal = rng.permutation(np.logspace(-9, 9, k))
    r = diagonal[:, None] * (u / np.diag(u)[:, None])
    b = rng.standard_normal((k, 3))
    for m, transpose in ((r, False), (r.T, True)):
        x = coherent_mod._solve_upper(r, b, transpose)
        assert np.linalg.norm(m @ x - b) / (np.linalg.norm(m) * np.linalg.norm(x)) <= 1e-15


def _torus50():
    tri, dm = GEN.lattice_torus(np.random.default_rng(5), 5)
    return build_constraints(tri, probe(tri, dm)[0])


def test_dense_bases_span_the_constraints():
    systems = [build_constraints(*bundled_instance(name)) for name in BUNDLED]
    systems.append(build_constraints(GluedTriangulation(2, []),
                                     AngleData(theta=np.full(6, 5 * PI / 6), xi=np.full(6, PI / 3))))
    systems.append(_torus50())
    for cs in systems:
        kkt = coherent_mod._KKT(cs)
        assert kkt.dense
        a = cs.a_eq.toarray()[cs.independent_eq]
        q1, z = kkt.range_basis, kkt.null_basis
        assert z.shape == (cs.dimension, cs.dimension - cs.rank)
        assert np.max(np.abs(a @ z), initial=0.0) <= 1e-13
        assert np.max(np.abs(z.T @ z - np.eye(z.shape[1])), initial=0.0) <= 1e-13
        assert np.max(np.abs(q1.T @ q1 - np.eye(cs.rank))) <= 1e-13
        assert np.max(np.abs(q1.T @ z), initial=0.0) <= 1e-13
        assert np.max(np.abs(a @ kkt.pinv_t.T - np.eye(cs.rank))) <= 1e-13


def test_dense_and_sparse_lp_steps_agree(monkeypatch, rng):
    # the LP's own row factor D^(1/2) G at its third step, where D spreads
    # over about two orders of magnitude
    cs = _torus50()
    factors = []
    real = coherent_mod._KKT.gram

    def gram(self, factor):
        factors.append(factor)
        return real(self, factor)

    monkeypatch.setattr(coherent_mod._KKT, "gram", gram)
    find_coherent(cs)
    monkeypatch.undo()
    f = factors[2]
    assert f.shape == (50, 9, 6)
    monkeypatch.setattr(coherent_mod, "DENSE_KKT_MAX", 10**9)
    dense = coherent_mod._KKT(cs)
    monkeypatch.setattr(coherent_mod, "DENSE_KKT_MAX", 0)
    sparse = coherent_mod._KKT(cs)
    assert dense.dense and not sparse.dense
    rhs = rng.standard_normal((dense.size, 2))
    expected = sparse.solver(sparse.gram(f))(rhs)
    # the per-triangle R factors stand exactly for F
    unreduced = coherent_mod._null_space_solve(coherent_mod._RowFactor(f), dense.null_basis,
                                               dense.pinv_t)(rhs)
    for found in (dense.solver(dense.gram(f))(rhs), unreduced):
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
        assert np.max(np.abs(coherent_mod._KKT(cs).projector()(g) - expected)) <= 1e-13


def test_lattice_disk_through_sparse_branch():
    rng = np.random.default_rng(2024)
    tri, dm = lattice_disk(rng, 8)
    assert tri.triangle_count >= 128
    data, probed = probe(tri, dm)
    cs = build_constraints(tri, data)
    assert cs.dimension + cs.rank > coherent_mod.DENSE_KKT_MAX

    # move the known answer along a few edge vectors of the tangent space
    span = tangent_span_vectors(tri)
    picks = rng.choice(len(tri.interior_edges), 6, replace=False)
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
    real = coherent_mod._KKT.solver
    identity = []

    def solver(self, blocks):
        assert not self.dense
        identity.append(not isinstance(blocks, coherent_mod._RowFactor)
                        and np.array_equal(blocks, np.broadcast_to(np.eye(6), np.shape(blocks))))
        return real(self, blocks)

    monkeypatch.setattr(coherent_mod._KKT, "solver", solver)
    x, rep = solve_problem(tri, data)
    assert rep.status == CONVERGED
    assert np.max(np.abs(x.values - probed.values)) <= 1e-7
    # the min-norm start of the max-slack LP and Newton's projector share it
    assert sum(identity) == 1 and len(identity) > 1


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


def _two_disks():
    """Two probed 50-triangle lattice disks as one surface of two
    components, and its max-slack point."""
    (tri1, dm1), (tri2, dm2) = (GEN.lattice_disk(np.random.default_rng(seed), 5) for seed in (3, 4))
    shift = tri1.triangle_count
    tri = GluedTriangulation(2 * shift, list(tri1.gluings) + [
        ((t + shift, s), (u + shift, r)) for (t, s), (u, r) in tri2.gluings])
    x = np.concatenate([probe(tri1, dm1)[1].values, probe(tri2, dm2)[1].values])
    alphas, gammas = x.reshape(-1, 6)[:, :3], x.reshape(-1, 6)[:, 3:]
    sides = tri.edge_sides
    theta = PI - alphas[sides[:, 0, 0], sides[:, 0, 1]]
    interior = len(tri.gluings)
    theta[:interior] -= alphas[sides[:interior, 1, 0], sides[:interior, 1, 1]]
    xi = np.array([sum(gammas[t, c] for t, c in cls) for cls in tri.vertices])
    cs = build_constraints(tri, AngleData(theta=theta, xi=xi))
    return cs, find_coherent(cs)


def _range_space_case(case):
    """(constraint system above DENSE_KKT_MAX, a strictly coherent point)."""
    if case == "disk-newton start":
        from perfbench.start import max_slack_start

        tri, dm = GEN.lattice_disk(np.random.default_rng(1), 16)
        data = probe(tri, dm)[0]
        return build_constraints(tri, data), AngleSystem(max_slack_start(tri, data)[0])
    if case == "two components":
        return _two_disks()
    tri, dm = GEN.lattice_torus(np.random.default_rng(6), 7, cone=case == "cone torus")
    cs = build_constraints(tri, probe(tri, dm)[0])
    if case == "permuted":
        rng = np.random.default_rng(8)
        cs = cs.permuted(rng.permutation(len(cs.b_eq)), rng.permutation(len(cs.h_ineq)))
    return cs, find_coherent(cs)


@pytest.mark.parametrize("case", ["disk-newton start", "flat torus", "cone torus",
                                  "two components", "permuted"])
def test_range_space_step_matches_the_kkt(case, rng):
    cs, x = _range_space_case(case)
    kkt = cs.kkt
    assert kkt.size > coherent_mod.DENSE_KKT_MAX and not kkt.dense
    n = cs.dimension
    blocks = solve_mod._hess_blocks(x)
    identity = np.broadcast_to(np.eye(6), blocks.shape)
    g = objective_grad(x)
    b = cs.b_eq[cs.independent_eq]
    for h, rhs in ((blocks, -g),  # a Newton step
                   (identity, np.concatenate([np.zeros(n), b])),  # the min-norm start
                   (identity, np.concatenate([g, b])),
                   (blocks, rng.standard_normal((kkt.size, 2)))):
        found = kkt.solver(h)(rhs)
        expected = kkt_solve_reference(cs, h, rhs)[:n]  # the range-space step returns x alone
        assert found.shape == expected.shape
        assert np.linalg.norm(found - expected) <= 1e-10 * np.linalg.norm(expected)
    start = kkt.identity_solve(np.concatenate([np.zeros(n), b]))
    assert np.max(np.abs(cs.a_eq @ start - cs.b_eq)) <= 1e-12


def test_range_space_leaves_one_vertex_row_per_component():
    # the vertex rows of a gluing component sum to its triangle rows, which
    # each triangle enforces itself: keeping them all in C makes S = C M C^T
    # singular by one per component
    cs, x = _two_disks()
    space = cs.kkt.range_space
    n_t = cs.dimension // 6
    left = np.setdiff1d(np.arange(len(cs.b_eq)), np.union1d(space.c_rows, space.triangle_rows))
    assert len(left) == 2
    owners = [set(cs.a_eq[row].indices // 6 < n_t // 2) for row in left]
    assert owners == [{True}, {False}]  # one vertex row of each disk
    blocks = solve_mod._hess_blocks(x)
    p = coherent_mod._PLANE
    m = p @ np.linalg.solve(p.T @ blocks @ p, p.T)
    c = cs.a_eq[space.c_rows].toarray().reshape(len(space.c_rows), n_t, 6)
    singular = np.linalg.svd(np.einsum("ati,tij,btj->ab", c, m, c), compute_uv=False)
    assert singular.min() >= 1e-6 * singular.max()  # 7e-4 here; 1e-17 with every vertex row


def test_min_norm_start_at_scale():
    # the right-hand side of the left-out triangle row is a difference of
    # two sums of about 25000: summed one term after another it was off by
    # 5e-9 at T = 8192, above EQ_TOL, and the equalities read inconsistent
    tri, dm = GEN.lattice_torus(np.random.default_rng(1), 64)
    cs = build_constraints(tri, probe(tri, dm)[0])
    assert tri.triangle_count == 8192
    x = cs.kkt.identity_solve(np.concatenate([np.zeros(cs.dimension), cs.b_eq[cs.independent_eq]]))
    assert np.max(np.abs(cs.a_eq @ x - cs.b_eq)) <= 1e-11


def test_lp_row_factor_reaches_the_kkt_lu(monkeypatch, rng):
    tri, dm = GEN.lattice_torus(np.random.default_rng(6), 7)
    cs = build_constraints(tri, probe(tri, dm)[0])
    factors, range_space = [], []
    real_gram, real_solver = coherent_mod._KKT.gram, coherent_mod._RangeSpace.solver

    def gram(self, factor):
        factors.append(factor)
        return real_gram(self, factor)

    def solver(self, blocks):
        range_space.append(blocks)
        return real_solver(self, blocks)

    monkeypatch.setattr(coherent_mod._KKT, "gram", gram)
    monkeypatch.setattr(coherent_mod._RangeSpace, "solver", solver)
    find_coherent(cs)
    monkeypatch.undo()
    # only the min-norm start took the range-space path, every LP step the LU
    assert len(range_space) == 1
    assert np.array_equal(range_space[0], np.broadcast_to(np.eye(6), (98, 6, 6)))
    assert len(factors) > 2
    f = factors[2]
    rhs = rng.standard_normal((cs.kkt.size, 2))
    found = cs.kkt.solver(cs.kkt.gram(f))(rhs)
    expected = kkt_solve_reference(cs, np.einsum("tri,trj->tij", f, f), rhs)
    assert found.shape == expected.shape  # the multipliers too
    assert np.linalg.norm(found - expected) <= 1e-10 * np.linalg.norm(expected)


def test_import_loads_no_dense_scipy_modules():
    import subprocess
    import sys

    code = (
        "import sys, hyperideal; "
        "print(sorted(m for m in ('scipy.linalg', 'scipy.optimize', 'scipy.sparse.csgraph') "
        "if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_dense_branch_solves_with_numpy_alone():
    # a cold 50-triangle solve stays on the dense branch, which needs neither
    # splu nor scipy.linalg
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
        "print(rep.status, [m for m in ('scipy.sparse.linalg', 'scipy.linalg', "
        "'scipy.sparse.csgraph') if m in sys.modules])"
    )
    out = subprocess.run([sys.executable, "-c", code], input=canonical_json(geometry_dict(tri, dm)),
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["converged", "[]"]
