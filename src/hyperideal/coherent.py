"""Coherent angle systems: constraint assembly, membership, feasibility.

A coherent angle system assigns six angles to every triangle (see
``energy`` for the layout) subject to:

* per triangle: membership in Delta;
* per interior edge: the two incident alphas sum to pi - theta;
* per boundary side: alpha = pi - theta;
* per vertex class: the incident gammas sum to Xi.

Variable indexing is fixed once per triangulation: triangle ``t`` owns the
slice ``6t..6t+5`` as (a_side0, a_side1, a_side2, g_corner0, g_corner1,
g_corner2); side ``s`` runs between corners ``s`` and ``s+1``.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy import sparse

from .energy import in_delta
from .errors import ConvergenceError, NotCoherentError
from .surface import AngleData, GluedTriangulation

EQ_TOL = 1e-10
SLACK_TOL = 1e-10
FEASIBLE_SLACK = 1e-9
TANGENT_RCOND = 1e-10  # relative singular-value cut of tangent_basis
# KKT systems with at most this many unknowns (angles plus multipliers) are
# solved densely by the null-space method.  In larger ones Newton's formed
# blocks take the range-space step and the LP's row factor a sparse LU of
# the whole matrix.  The break-even below was measured with both on that
# LU; for the faster range-space step it has not been measured again.
# Whole torus solves (solve_problem, 2 cores, one BLAS thread):
# - in a warm process the sparse LU is already faster: 38 against 43-44 ms
#   at 449 unknowns (50 triangles), 52-53 against 73-85 ms at 647 (72);
# - but the first sparse solve in a process imports scipy.sparse.linalg:
#   75-81 ms and 8.7 MB, about 10 % of the 85 MB peak RSS of a cold
#   50-triangle torus solve;
# - so a single cold solve takes 44-51 ms dense and 80-131 ms sparse at 449
#   unknowns, 75-95 against 130-139 ms at 647, and about breaks even near
#   881 (98 triangles: 106-133 against 135-143 ms).
DENSE_KKT_MAX = 600
# The max-slack interior point stops once the duality gap is at most
# LP_GAP_TOL and every residual at most LP_RESIDUAL_TOL.  The dual residual
# grows again once the gap is below ~1e-12, so no tighter residual is asked.
LP_GAP_TOL = 1e-10
LP_RESIDUAL_TOL = 1e-6
# Near the optimum z/w spans up to 1e19 and the factorization can fail; with
# the gap already this small the current primal point is kept.
LP_RESCUE_GAP = 1e-8
LP_MAX_ITERS = 100
LP_STEP_KEEP = 0.99  # share of the step to the boundary of w, z >= 0 taken
# Largest diagonal block that _solve_upper hands to np.linalg.solve, whose LU
# spends 2/3 b^3 flops on it.  A solve with R^T and then R at k = 151 (the
# 50-triangle torus) took 400, 340 and 350 us with 32, 48 and 64, against
# 520 us for two LUs of the whole R (one BLAS thread).
SUBSTITUTION_BLOCK = 64
# An orthonormal basis (6 x 5) of a triangle's gamma-sum plane: its three
# alphas and two directions along which the gamma sum stays fixed.
_PLANE = np.zeros((6, 5))
_PLANE[:3, :3] = np.eye(3)
_PLANE[3:, 3] = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
_PLANE[3:, 4] = np.array([1.0, 1.0, -2.0]) / np.sqrt(6.0)


@dataclass
class AngleSystem:
    """A point of R^{6|T|} in the per-triangle angle layout."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1 or self.values.size % 6:
            raise ValueError("AngleSystem needs a flat vector of length 6|T|")

    @property
    def triangle_count(self):
        return self.values.size // 6

    def as_triangles(self):
        """View of shape (T, 6) rows (a12, a23, a31, g1, g2, g3)."""
        return self.values.reshape(-1, 6)

    def alphas(self):
        return self.as_triangles()[:, :3]

    def gammas(self):
        return self.as_triangles()[:, 3:]

    def copy(self):
        return AngleSystem(self.values.copy())


@dataclass
class ConstraintSystem:
    """Linear description of the closure of the coherent polytope.

    Equalities ``a_eq x = b_eq``; strict inequalities ``g_ineq x < h_ineq``.
    ``a_eq`` and ``g_ineq`` are ``scipy.sparse`` CSR matrices.  ``rank`` is
    the rank of ``a_eq``, and ``independent_eq`` marks a set of ``rank``
    equality rows that spans the same row space (one redundant gamma-sum row
    per connected component is left out).
    """

    a_eq: sparse.csr_matrix
    b_eq: np.ndarray
    labels_eq: list
    g_ineq: sparse.csr_matrix
    h_ineq: np.ndarray
    labels_ineq: list
    rank: int
    independent_eq: np.ndarray

    @property
    def dimension(self):
        return self.a_eq.shape[1]

    @cached_property
    def kkt(self):
        """The KKT matrices of this system (``_KKT``), built on first use and
        shared by ``find_coherent`` and ``maximize``."""
        return _KKT(self)

    def permuted(self, perm_eq, perm_ineq):
        """Row-permuted copy (same polytope, different solver path)."""
        return ConstraintSystem(
            a_eq=self.a_eq[perm_eq],
            b_eq=self.b_eq[perm_eq],
            labels_eq=[self.labels_eq[i] for i in perm_eq],
            g_ineq=self.g_ineq[perm_ineq],
            h_ineq=self.h_ineq[perm_ineq],
            labels_ineq=[self.labels_ineq[i] for i in perm_ineq],
            rank=self.rank,
            independent_eq=self.independent_eq[perm_eq],
        )


def _csr(row_lengths, cols, n_cols, vals=None):
    """CSR matrix whose rows hold ``row_lengths`` consecutive entries of
    ``cols``/``vals`` (all ones by default)."""
    indptr = np.concatenate([[0], np.cumsum(row_lengths)])
    vals = np.ones(len(cols)) if vals is None else vals
    return sparse.csr_matrix((vals, cols, indptr), shape=(len(row_lengths), n_cols))


def build_constraints(tri: GluedTriangulation, data: AngleData) -> ConstraintSystem:
    """Assemble the coherence constraints for (tri, data), deterministically.

    Rows, in order: the gamma sum of every triangle, the alpha sum (interior)
    or alpha (boundary) of every edge, the gamma sum of every vertex class.
    """
    data.validate(tri)
    n_t = tri.triangle_count
    n = 6 * n_t
    n_e = len(tri.edge_sides)
    n_int = len(tri.gluings)
    n_v = len(tri.vertices)

    # an interior edge row holds both sides, a boundary edge row its one side
    sides = np.concatenate([tri.edge_sides[:n_int].reshape(-1, 2), tri.edge_sides[n_int:, 0]])
    corners = np.array([corner for cls in tri.vertices for corner in cls])
    a_eq = _csr(
        [3] * n_t + [2] * n_int + [1] * (n_e - n_int) + [len(cls) for cls in tri.vertices],
        np.concatenate([
            np.arange(n).reshape(n_t, 6)[:, 3:].ravel(),
            6 * sides[:, 0] + sides[:, 1],
            6 * corners[:, 0] + 3 + corners[:, 1],
        ]),
        n,
    )
    b_eq = np.concatenate([
        np.full(n_t, np.pi),
        np.pi - np.asarray(data.theta, dtype=float),
        np.asarray(data.xi, dtype=float),
    ])
    labels = [f"triangle {t} gamma sum" for t in range(n_t)]
    labels += [f"edge {e} alpha sum" for e in range(n_int)]
    labels += [f"edge {e} boundary alpha" for e in range(n_int, n_e)]
    labels += [f"vertex {v} gamma sum" for v in range(n_v)]

    # rows 6t+k: x[6t+k] > 0; rows n + 3t + c: Delta bound at corner c of t,
    # gamma[t][c] + alpha[t][c] + alpha[t][c-1] < pi
    tc = np.arange(3 * n_t)
    t, c = tc // 3, tc % 3
    delta_cols = np.stack([6 * t + 3 + c, 6 * t + c, 6 * t + (c + 2) % 3], axis=1)
    g_ineq = _csr(
        [1] * n + [3] * (3 * n_t),
        np.concatenate([np.arange(n), delta_cols.ravel()]),
        n,
        vals=np.concatenate([-np.ones(n), np.ones(9 * n_t)]),
    )
    h_ineq = np.concatenate([np.zeros(n), np.full(3 * n_t, np.pi)])
    g_labels = []
    for t in range(n_t):
        g_labels += [f"alpha[{t}][{s}] > 0" for s in range(3)]
        g_labels += [f"gamma[{t}][{c}] > 0" for c in range(3)]
    g_labels += [f"triangle {t} corner {c} delta bound" for t in range(n_t) for c in range(3)]

    # Every alpha lies in exactly one edge row, so the edge rows are
    # independent of each other and of the gamma rows.  The gamma rows are
    # the unsigned incidence matrix of the bipartite triangle/vertex-class
    # graph, of rank (nodes - components): per component, the triangle rows
    # and the vertex rows sum to the same row, and dropping any one of them
    # leaves independent rows.  The components of that graph are the gluing
    # components, so the dropped rows are their smallest triangles.
    roots = np.flatnonzero(tri.component == np.arange(n_t))
    independent = np.ones(a_eq.shape[0], dtype=bool)
    independent[roots] = False
    return ConstraintSystem(
        a_eq=a_eq,
        b_eq=b_eq,
        labels_eq=labels,
        g_ineq=g_ineq,
        h_ineq=h_ineq,
        labels_ineq=g_labels,
        rank=n_t + n_e + n_v - len(roots),
        independent_eq=independent,
    )


@dataclass
class CoherenceReport:
    ok: bool
    max_equality_residual: float
    min_slack: float
    violations: list = field(default_factory=list)


def is_coherent(x: AngleSystem, cs: ConstraintSystem) -> CoherenceReport:
    """Test membership in the open coherent polytope, with per-constraint residuals."""
    v = x.values
    if v.size != cs.dimension:
        raise NotCoherentError("angle system dimension does not match constraints")
    res = cs.a_eq @ v - cs.b_eq
    slack = cs.h_ineq - cs.g_ineq @ v
    violations = [
        (cs.labels_eq[i], float(res[i])) for i in np.flatnonzero(np.abs(res) > EQ_TOL)
    ] + [
        (cs.labels_ineq[i], float(slack[i])) for i in np.flatnonzero(slack <= SLACK_TOL)
    ]
    # per-triangle Delta membership is implied by the rows above at equal
    # tolerances; re-checked for safety.
    if not np.all(in_delta(x.alphas(), x.gammas(), closed=False, tol=SLACK_TOL)):
        if not violations:
            violations.append(("delta membership", float("nan")))
    return CoherenceReport(
        ok=not violations,
        max_equality_residual=float(np.max(np.abs(res))) if res.size else 0.0,
        min_slack=float(np.min(slack)) if slack.size else float("inf"),
        violations=violations,
    )


@dataclass
class Infeasible:
    """Certificate that no strictly coherent angle system exists."""

    reason: str
    s_star: float = None
    message: str = ""

    def __bool__(self):
        return False


class _RowFactor(NamedTuple):
    """Per-triangle row factor F of shape (T, r, 6) standing for the block
    diagonal H = F^T F, as ``_KKT.gram`` hands it to ``_KKT.solver``."""

    rows: np.ndarray


class _KKT:
    """KKT matrices [H A^T; A 0] over the independent equality rows A of a
    constraint system, with H block-diagonal, one 6x6 block per triangle.

    A block of H need only be definite on its triangle's gamma-sum plane,
    so H is never factorized alone.  Systems of at most ``DENSE_KKT_MAX``
    unknowns are solved by the null-space method.  A^T splits into an
    alpha block (the edge rows) and a gamma block (the triangle and vertex
    rows); one complete QR of each, taken here, gives the range basis Q1,
    an orthonormal null basis Z of A (k = n - rank columns) and the
    pseudo-inverse A+ = Q1 R^-T by block substitution, and each ``solver``
    call factorizes only the k x k reduced matrix Z^T H Z.  In larger
    systems formed blocks (Newton's Hessian, H = I) go to the range-space
    method (``_RangeSpace``) and a row factor (the LP's barrier Hessian,
    whose z/w spreads too far for it) to a sparse LU of the whole matrix.
    """

    def __init__(self, cs: ConstraintSystem):
        n = cs.dimension
        self.size = n + cs.rank
        self.block_shape = (n // 6, 6, 6)
        self.dense = self.size <= DENSE_KKT_MAX
        if self.dense:
            # A is block diagonal up to the order of rows and columns: the
            # edge rows hold only alphas, the triangle and vertex rows only
            # gammas, so each block gets its own complete QR
            a = cs.a_eq.toarray()[cs.independent_eq]
            angles = np.arange(n).reshape(-1, 6)
            alphas, gammas = angles[:, :3].ravel(), angles[:, 3:].ravel()
            alpha_rows = np.any(a[:, alphas] != 0.0, axis=1)
            self.range_basis = np.zeros((n, cs.rank))
            self.null_basis = np.zeros((n, n - cs.rank))
            self.pinv_t = np.zeros((cs.rank, n))
            done = 0
            for rows, cols in ((np.flatnonzero(alpha_rows), alphas),
                               (np.flatnonzero(~alpha_rows), gammas)):
                q, r = np.linalg.qr(a[np.ix_(rows, cols)].T, mode="complete")
                m, k = len(rows), len(cols) - len(rows)
                self.range_basis[np.ix_(cols, rows)] = q[:, :m]
                self.null_basis[cols, done:done + k] = q[:, m:]
                self.pinv_t[np.ix_(rows, cols)] = _solve_upper(r[:m], q[:, :m].T)  # R^-1 Q1^T
                done += k
        else:
            first = np.arange(0, n, 6)[:, None, None]
            h_rows = np.broadcast_to(first + np.arange(6)[:, None], self.block_shape)
            h_cols = np.broadcast_to(first + np.arange(6), self.block_shape)
            a = cs.a_eq[cs.independent_eq].tocoo()
            self.rows = np.concatenate([h_rows.ravel(), n + a.row, a.col])
            self.cols = np.concatenate([h_cols.ravel(), a.col, n + a.row])
            self.a_vals = np.concatenate([a.data, a.data])
            self.range_space = _RangeSpace(cs)

    @cached_property
    def identity_solve(self):
        """``solver`` with H = I, factorized on first use and kept: the
        min-norm start of ``find_coherent`` and the sparse projector."""
        return self.solver(np.broadcast_to(np.eye(6), self.block_shape))

    def projector(self):
        """Returns g -> the orthogonal projection of g onto the null space
        of A: by the range basis Q1 when dense, else ``identity_solve``."""
        if self.dense:
            q = self.range_basis
            return lambda g: g - q @ (q.T @ g)
        return self.identity_solve

    def gram(self, factor):
        """What ``solver`` takes for H = F^T F, F a (T, r, 6) per-triangle
        row factor: a ``_RowFactor``, which sends a sparse solve to the LU
        of the whole KKT matrix.  When dense it holds the (T, 6, 6) R
        factors of a stacked QR of F (R^T R = F^T F), where a QR of R Z
        reduces H without squaring its conditioning; else F itself."""
        if self.dense:
            return _RowFactor(np.linalg.qr(factor, mode="r"))
        return _RowFactor(factor)

    def solver(self, blocks):
        """Factorize with H = ``blocks``, (T, 6, 6) diagonal blocks or a
        ``gram`` row factor; returns rhs -> the leading ``len(rhs)`` rows of
        the solution of [H A^T; A 0] sol = rhs padded with zeros, so ``r``
        gives d of [r; 0] and a full [r; e] gives [d; lam].  The sparse
        range-space path (formed blocks) returns d alone, also for a full
        [r; e].  ``rhs`` may hold several columns.  Raises
        ``numpy.linalg.LinAlgError`` or ``RuntimeError`` if the matrix is
        singular."""
        if self.dense:
            solve = _null_space_solve(blocks, self.null_basis, self.pinv_t)
        elif not isinstance(blocks, _RowFactor):
            return self.range_space.solver(blocks)
        else:
            from scipy.sparse import csc_matrix
            from scipy.sparse.linalg import splu

            f = blocks.rows
            vals = np.concatenate([np.einsum("tri,trj->tij", f, f).ravel(), self.a_vals])
            # minimum-degree ordering of A^T A: about half the fill of the
            # default COLAMD ordering on lattice disks of 512 to 2048 triangles
            solve = splu(csc_matrix((vals, (self.rows, self.cols)), shape=(self.size, self.size)),
                         permc_spec="MMD_ATA").solve

        # run must not hold self: identity_solve keeps it on self, and the
        # cycle would keep the factorization until the cyclic collector ran
        size = self.size

        def run(rhs):
            full = np.zeros((size,) + rhs.shape[1:])
            full[:len(rhs)] = rhs
            return solve(full)[:len(rhs)]

        return run


class _RangeSpace:
    """The range-space method (Nocedal-Wright 16.2) for the KKT system of
    formed blocks H_t, each definite on its triangle's gamma-sum plane.

    Each triangle enforces its own gamma-sum row: x_t = x0_t + P y_t, with
    P = ``_PLANE`` and the gammas of x0_t a third of the row's right-hand
    side, so the triangle contributes M_t = P K_t^-1 P^T, K_t = P^T H_t P.
    The other rows C, the edge rows and all vertex rows but one per gluing
    component, get their multipliers mu from the definite matrix
    S = C M C^T, one sparse LU, and x = x0 + M (s - C^T mu), s = r - H x0.

    The row roles are read from ``a_eq``, so a ``permuted`` copy works:
    every row holds ones, and every angle lies in exactly one edge or
    vertex row.  In a gluing component the triangle rows and the vertex
    rows sum to the same row, so the one row that the independent set
    leaves out gets its right-hand side from the others.
    """

    def __init__(self, cs: ConstraintSystem):
        from scipy.sparse.csgraph import connected_components

        a = cs.a_eq
        m, n = a.shape
        n_t = n // 6
        starts = a.indptr[:-1]
        owner = a.indices // 6
        gamma = a.indices[starts] % 6 >= 3  # a row holds only alphas or only gammas
        # a triangle's gamma-sum row holds its own three gammas and no more
        own = np.flatnonzero(
            gamma & (np.diff(a.indptr) == 3)
            & (np.minimum.reduceat(owner, starts) == np.maximum.reduceat(owner, starts)))
        self.triangle_rows = np.empty(n_t, dtype=int)
        self.triangle_rows[owner[starts[own]]] = own
        triangle = np.zeros(m, dtype=bool)
        triangle[self.triangle_rows] = True
        # rows linked by shared angles: the gamma rows of a gluing component
        # are linked, and each edge row is alone
        _, component = connected_components(a @ a.T, directed=False)
        vertex = np.flatnonzero(gamma & ~triangle)
        kept = ~triangle
        kept[vertex[np.unique(component[vertex], return_index=True)[1]]] = False
        self.c_rows = c_rows = np.flatnonzero(kept)
        # within a component the triangle rows (sign +1) and the vertex rows
        # (sign -1) have a zero signed sum, so the right-hand side of the row
        # that the independent set leaves out follows from the others
        sign = np.where(triangle, 1.0, -1.0)
        self.independent = cs.independent_eq
        self.implied = []
        for row in np.flatnonzero(~cs.independent_eq):
            rows = np.flatnonzero(component == component[row])
            self.implied.append((row, rows, -sign[row] * sign[rows]))

        self.c = a[c_rows]
        held = self.c.tocoo()
        at_c = np.full(n, -1)  # the row of C that holds each angle, if any
        at_c[held.col] = held.row
        # S gathers M_t[i, j] at (row of angle i, row of angle j); its CSC
        # pattern and each entry's slot in it are fixed here
        at_c = at_c.reshape(n_t, 6)
        s_row = np.broadcast_to(at_c[:, :, None], (n_t, 6, 6)).ravel()
        s_col = np.broadcast_to(at_c[:, None, :], (n_t, 6, 6)).ravel()
        self.entries = np.flatnonzero((s_row >= 0) & (s_col >= 0))
        key = s_col[self.entries] * len(c_rows) + s_row[self.entries]
        unique, self.slot = np.unique(key, return_inverse=True)
        self.indices = unique % len(c_rows)
        self.indptr = np.searchsorted(unique, np.arange(len(c_rows) + 1) * len(c_rows))

    def solver(self, blocks):
        """``_KKT.solver`` for formed blocks, returning x alone."""
        from scipy.sparse.linalg import splu

        m = _PLANE @ np.linalg.solve(_PLANE.T @ blocks @ _PLANE, _PLANE.T)
        size = len(self.indptr) - 1
        s = sparse.csc_matrix(
            (np.bincount(self.slot, m.reshape(-1)[self.entries], len(self.indices)),
             self.indices, self.indptr), shape=(size, size))
        # splu's partial pivoting is as fast here as its symmetric mode
        lu = splu(s, permc_spec="MMD_AT_PLUS_A")
        c, c_t, n_t = self.c, self.c.T, len(m)

        def blockwise(mats, v):
            return (mats @ v.reshape(n_t, 6, -1)).reshape(v.shape)

        def run(rhs):
            r, e = rhs[:6 * n_t], rhs[6 * n_t:]
            x0, e_c = np.zeros(r.shape), 0.0
            if len(e):
                full = self._every_row(e.reshape(len(e), -1)).reshape((-1,) + e.shape[1:])
                x0.reshape(n_t, 6, -1)[:, 3:] = full[self.triangle_rows].reshape(n_t, 1, -1) / 3.0
                e_c = full[self.c_rows]
            y = x0 + blockwise(m, r - blockwise(blocks, x0))
            return y - blockwise(m, c_t @ lu.solve(c @ y - e_c))

        return run

    def _every_row(self, e):
        """The right-hand sides (m, k) of all equality rows from those of the
        independent rows, e (rank, k).  An implied one is rounded exactly:
        its sum cancels terms of the size of pi times the triangle count,
        and added one after another they left 5e-9 at T = 8192."""
        full = np.zeros((len(self.independent), e.shape[1]))
        full[self.independent] = e
        for row, rows, signs in self.implied:
            full[row] = [math.fsum(v) for v in (signs[:, None] * full[rows]).T]
        return full


def _solve_upper(r, b, transpose=False):
    """Solves R x = b, or R^T x = b with ``transpose``, for an upper
    triangular k x k R and b of k rows, by 2 x 2 block substitution: the
    off-diagonal blocks are products, and diagonal blocks of at most
    ``SUBSTITUTION_BLOCK`` rows go to ``np.linalg.solve``, whose LU of an
    upper triangular matrix does no elimination.  R^-1 is never formed: it
    costs more flops than the few right-hand sides each factor is used for.
    Raises ``numpy.linalg.LinAlgError`` on a zero diagonal entry."""
    k = len(r)
    if k <= SUBSTITUTION_BLOCK:
        if transpose:  # R^T reversed in rows and columns is upper triangular
            return np.linalg.solve(r[::-1, ::-1].T, b[::-1])[::-1]
        return np.linalg.solve(r, b)
    h = k // 2
    if transpose:
        top = _solve_upper(r[:h, :h], b[:h], True)
        return np.concatenate([top, _solve_upper(r[h:, h:], b[h:] - r[:h, h:].T @ top, True)])
    bottom = _solve_upper(r[h:, h:], b[h:])
    return np.concatenate([_solve_upper(r[:h, :h], b[:h] - r[:h, h:] @ bottom), bottom])


def _null_space_solve(blocks, null, pinv_t):
    """Returns [r; e] -> [x; lam] solving [H A^T; A 0] [x; lam] = [r; e] by
    the null-space method: x = A+ e + Z u with Z^T H Z u = Z^T (r - H A+ e),
    then lam = (A+)^T (r - H x).  For a ``_RowFactor`` R, Z^T H Z = U^T U
    with U the triangular factor of a QR of R Z (6T x k), solved by block
    substitution with U^T and then U; other blocks form Z^T H Z."""
    n, k = null.shape
    z = null.reshape(n // 6, 6, k)
    if isinstance(blocks, _RowFactor):
        f = blocks.rows
        upper = np.linalg.qr((f @ z).reshape(-1, k), mode="r")

        def reduced(v):
            return _solve_upper(upper, _solve_upper(upper, v, transpose=True))

        blocks = f.transpose(0, 2, 1) @ f  # only for products H x
    else:
        m = null.T @ (blocks @ z).reshape(n, k)

        def reduced(v):
            return np.linalg.solve(m, v)

    def h_times(v):
        return (blocks @ v.reshape(len(z), 6, -1)).reshape(v.shape)

    def solve(full):
        r, e = full[:n], full[n:]
        x = pinv_t.T @ e
        x += null @ reduced(null.T @ (r - h_times(x)))
        return np.concatenate([x, pinv_t @ (r - h_times(x))])

    return solve


def _triangle_rows(g):
    """The rows of a CSR matrix G each of whose rows lies within one
    triangle's six columns (true of every inequality row), grouped by
    triangle: (T, r) row indices and their (T, r, 6) entries, for r rows
    per triangle."""
    row_triangle = g.indices[g.indptr[:-1]] // 6
    rows = np.argsort(row_triangle, kind="stable").reshape(g.shape[1] // 6, -1)
    slot = np.empty(g.shape[0], dtype=int)
    slot[rows] = np.arange(rows.shape[1])
    entry_row = np.repeat(np.arange(g.shape[0]), np.diff(g.indptr))
    local = np.zeros(rows.shape + (6,))
    local[row_triangle[entry_row], slot[entry_row], g.indices % 6] = g.data
    return rows, local


def _fraction_to_boundary(v, dv):
    """Largest step in (0, 1] keeping v + step * dv >= 0, times LP_STEP_KEEP
    unless it is the full step."""
    shrink = dv < 0.0
    if not np.any(shrink):
        return 1.0
    return float(min(1.0, LP_STEP_KEEP * np.min(-v[shrink] / dv[shrink])))


def _max_slack(cs: ConstraintSystem, x):
    """Maximize s over {A x = b, G x + s <= h} from a solution x of A x = b.

    Mehrotra's predictor-corrector on the slacks w = h - G x - s and their
    multipliers z (sum z = 1).  The barrier Hessian G^T diag(z/w) G has the
    block pattern of the Hessian of F, so each step factorizes the same KKT
    matrix as a Newton step of ``maximize``, with the scalar s eliminated by
    one more solve.  The Hessian is handed over as its per-triangle row
    factor diag(z/w)^(1/2) G (``_KKT.gram``).  Returns the last primal x.
    """
    a = cs.a_eq[cs.independent_eq]
    b = cs.b_eq[cs.independent_eq]
    g, h = cs.g_ineq, cs.h_ineq
    a_t, g_t = a.T, g.T  # CSC views, built once: .T makes a new one on every call
    n, m = cs.dimension, len(h)
    rows, local = _triangle_rows(g)
    slack = h - g @ x
    s = float(np.min(slack)) - 1.0
    w = slack - s
    z = (1.0 / w) / np.sum(1.0 / w)  # every w_i z_i equal: a centered start
    y = np.zeros(cs.rank)
    for _ in range(LP_MAX_ITERS):
        r_p = a @ x - b
        r_w = g @ x + s + w - h
        r_d = a_t @ y + g_t @ z
        r_s = float(np.sum(z)) - 1.0
        gap = float(w @ z)
        residual = max(np.max(np.abs(r_p)), np.max(np.abs(r_w)), np.max(np.abs(r_d)), abs(r_s))
        if gap <= LP_GAP_TOL and residual <= LP_RESIDUAL_TOL:
            return x
        d = z / w
        u = g_t @ d

        def direction(r_c, q=None):
            """Newton step (dx, ds, dy, dw, dz) with W dz + Z dw = r_c, and q,
            the solution for [u; 0] that eliminates ds; a first call solves
            for q in the same factorization."""
            v = r_c / w + d * r_w
            rhs = np.concatenate([-r_d - g_t @ v, -r_p])
            if q is None:
                q, p = solve(np.column_stack([np.concatenate([u, np.zeros(cs.rank)]), rhs])).T
            else:
                p = solve(rhs)
            ds = (-r_s - np.sum(v) - u @ p[:n]) / (np.sum(d) - u @ q[:n])
            dxy = p - ds * q
            dw = -r_w - g @ dxy[:n] - ds
            if not np.all(np.isfinite(dxy)):
                raise RuntimeError("non-finite interior-point direction")
            return (dxy[:n], ds, dxy[n:], dw, (r_c - z * dw) / w), q

        try:
            solve = cs.kkt.solver(cs.kkt.gram(np.sqrt(d)[rows][..., None] * local))
            (_, _, _, dw, dz), q = direction(-w * z)
            mu = gap / m
            step_p, step_d = _fraction_to_boundary(w, dw), _fraction_to_boundary(z, dz)
            sigma = (((w + step_p * dw) @ (z + step_d * dz)) / m / mu) ** 3
            (dx, ds, dy, dw, dz), _ = direction(sigma * mu - w * z - dw * dz, q)
        except (np.linalg.LinAlgError, RuntimeError) as exc:
            if gap <= LP_RESCUE_GAP:
                return x
            raise ConvergenceError(f"max-slack interior point failed: {exc}") from exc
        step_p, step_d = _fraction_to_boundary(w, dw), _fraction_to_boundary(z, dz)
        x, s, w = x + step_p * dx, s + step_p * ds, w + step_p * dw
        y, z = y + step_d * dy, z + step_d * dz
    raise ConvergenceError(f"max-slack interior point: no optimum in {LP_MAX_ITERS} iterations")


def find_coherent(cs: ConstraintSystem):
    """Max-slack feasibility: a deep interior point, or an Infeasible certificate.

    Maximizes s subject to the equalities and every inequality holding with
    slack >= s, by an interior point on the sparse KKT system that Newton
    uses.  Equalities whose min-norm solution leaves a residual above
    ``EQ_TOL`` on any row are inconsistent.  An optimum s* <= 1e-9 means the
    open polytope is empty (a zero-slack-only polytope has no strictly
    coherent point), reported as Infeasible together with s*.  A pinned
    system (rank = dimension) reads its slack off the unique solution.
    """
    rhs = np.concatenate([np.zeros(cs.dimension), cs.b_eq[cs.independent_eq]])
    x = cs.kkt.identity_solve(rhs)[:cs.dimension]
    if np.max(np.abs(cs.a_eq @ x - cs.b_eq)) > EQ_TOL:
        return Infeasible(
            reason="equalities_inconsistent",
            message="the equality constraints have no solution",
        )
    if cs.rank < cs.dimension:
        x = _max_slack(cs, x)
    s = float(np.min(cs.h_ineq - cs.g_ineq @ x))
    if s > FEASIBLE_SLACK:
        return AngleSystem(x)
    degenerate = " (polytope is nonempty but has empty relative interior)" if s > 0 else ""
    return Infeasible(
        reason="max_slack_nonpositive",
        s_star=s,
        message=f"maximum uniform slack {s:.3e} <= {FEASIBLE_SLACK:.0e}{degenerate}",
    )


def tangent_basis(cs: ConstraintSystem):
    """Orthonormal basis of the equality null space, shape (6|T|, k).

    Right singular vectors of singular values at most ``TANGENT_RCOND`` times the
    largest one; a dense SVD, so for small systems and checks only.
    """
    a = cs.a_eq.toarray()
    _, sv, vh = np.linalg.svd(a, full_matrices=True)
    tol = np.amax(sv, initial=0.0) * TANGENT_RCOND
    return vh[int(np.sum(sv > tol)):].T
