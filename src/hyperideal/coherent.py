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

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from .energy import in_delta
from .errors import ConvergenceError, NotCoherentError
from .surface import AngleData, GluedTriangulation

EQ_TOL = 1e-10
SLACK_TOL = 1e-10
FEASIBLE_SLACK = 1e-9
TANGENT_RCOND = 1e-10  # relative singular-value cut of tangent_basis
# KKT systems with at most this many unknowns (angles plus multipliers) are
# factorized by numpy, larger ones by scipy.sparse.linalg.splu, whose first
# use imports scipy.sparse with it, so a smaller solve needs numpy alone.
# The cold break-even lies above this value: in fresh processes (2 cores,
# one BLAS thread), find_max_slack, which ends its LP on the LU of the
# whole matrix, takes 123-143 ms dense against 193-278 ms sparse, the
# import of scipy.sparse included, at 648 unknowns (a 72-triangle torus).
# The solve path factorizes only S and stays faster dense up to about 2600
# (288 triangles).  The value is kept so that no benchmarked size changes
# branch.
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
# share of the distance to the boundary that a step takes: of w, z >= 0 in
# the LP, of the strict inequalities' slacks in Newton (solve.maximize)
STEP_KEEP = 0.99
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

    def as_triangles(self):
        """View of shape (T, 6) rows (a12, a23, a31, g1, g2, g3)."""
        return self.values.reshape(-1, 6)

    def alphas(self):
        return self.as_triangles()[:, :3]

    def gammas(self):
        return self.as_triangles()[:, 3:]


def _sum_products(out_index, data, x, size):
    """``out[out_index[j]] += data[j] * x[j]`` over the entries j in stored
    order, the order in which scipy's CSR and CSC products sum, so the
    results agree bit for bit; x may hold several columns."""
    terms = data.reshape((-1,) + (1,) * (x.ndim - 1)) * x
    if x.ndim == 1:
        return np.bincount(out_index, terms, size)
    k = x.shape[1]
    flat = (out_index[:, None] * k + np.arange(k)).ravel()
    return np.bincount(flat, terms.ravel(), size * k).reshape(size, k)


class SparseRows:
    """A sparse matrix stored by rows (CSR): row i holds the entries
    ``data[indptr[i]:indptr[i + 1]]`` in the columns ``indices[...]``, and
    ``rows`` names the row of every entry.

    It offers what the package needs and no more: ``@`` on a vector or a
    column stack, ``.T @``, row selection by an int, an index array or a
    mask (``a[rows]``, a new ``SparseRows``) and ``toarray()``.
    """

    def __init__(self, data, indices, indptr, shape):
        self.data, self.indices, self.indptr = data, indices, indptr
        self.shape = tuple(shape)
        self.rows = np.repeat(np.arange(self.shape[0]), np.diff(indptr))

    def __matmul__(self, x):
        x = np.asarray(x)
        return _sum_products(self.rows, self.data, x[self.indices], self.shape[0])

    @property
    def T(self):
        return _TransposedRows(self)

    def __getitem__(self, rows):
        rows = np.atleast_1d(np.arange(self.shape[0])[rows])
        lengths = np.diff(self.indptr)[rows]
        indptr = np.concatenate([[0], np.cumsum(lengths)])
        take = np.repeat(self.indptr[rows] - indptr[:-1], lengths) + np.arange(indptr[-1])
        return SparseRows(self.data[take], self.indices[take], indptr, (len(rows), self.shape[1]))

    def toarray(self):
        dense = np.zeros(self.shape)
        np.add.at(dense, (self.rows, self.indices), self.data)
        return dense


class _TransposedRows(NamedTuple):
    """The transpose of a ``SparseRows``, for ``@`` alone."""

    of: SparseRows

    def __matmul__(self, x):
        a = self.of
        return _sum_products(a.indices, a.data, np.asarray(x)[a.rows], a.shape[1])


@dataclass
class ConstraintSystem:
    """Linear description of the closure of the coherent polytope.

    Equalities ``a_eq x = b_eq``; strict inequalities ``g_ineq x < h_ineq``;
    both are ``SparseRows`` of unnamed rows (``is_coherent`` names those it
    reports).  ``rank`` is the rank of ``a_eq``; ``independent_eq`` marks
    ``rank`` equality rows that span the same row space (the one redundant
    row, triangle 0's gamma sum, is left out), which only the LU of the
    whole KKT matrix uses.
    """

    a_eq: SparseRows
    b_eq: np.ndarray
    g_ineq: SparseRows
    h_ineq: np.ndarray
    rank: int
    independent_eq: np.ndarray

    @property
    def dimension(self):
        return self.a_eq.shape[1]

    @cached_property
    def kkt(self):
        """The range-space solver of this system's KKT matrices
        (``_RangeSpace``), built on first use and shared by the max-slack LP
        and ``maximize``."""
        return _RangeSpace(self)


def _csr(row_lengths, cols, n_cols, vals=None):
    """``SparseRows`` whose rows hold ``row_lengths`` consecutive entries of
    ``cols``/``vals`` (all ones by default)."""
    indptr = np.concatenate([[0], np.cumsum(row_lengths)])
    vals = np.ones(len(cols)) if vals is None else vals
    return SparseRows(vals, cols, indptr, (len(row_lengths), n_cols))


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

    # an interior edge row holds both sides, a boundary edge row its one side;
    # a vertex row holds the corners 3t + c of its class in ascending order
    sides = np.concatenate([tri.edge_sides[:n_int].reshape(-1, 2), tri.edge_sides[n_int:, 0]])
    corners = np.argsort(tri.corner_class, axis=None, kind="stable")
    class_size = np.bincount(tri.corner_class.ravel())
    a_eq = _csr(
        np.concatenate([np.repeat([3, 2, 1], [n_t, n_int, n_e - n_int]), class_size]),
        np.concatenate([
            np.arange(n).reshape(n_t, 6)[:, 3:].ravel(),
            6 * sides[:, 0] + sides[:, 1],
            6 * (corners // 3) + 3 + corners % 3,
        ]),
        n,
    )
    b_eq = np.concatenate([
        np.full(n_t, np.pi),
        np.pi - np.asarray(data.theta, dtype=float),
        np.asarray(data.xi, dtype=float),
    ])

    # rows 6t+k: x[6t+k] > 0; rows n + 3t + c: Delta bound at corner c of t,
    # gamma[t][c] + alpha[t][c] + alpha[t][c-1] < pi
    t, c = np.divmod(np.arange(3 * n_t), 3)
    delta_cols = np.stack([6 * t + 3 + c, 6 * t + c, 6 * t + (c + 2) % 3], axis=1)
    g_ineq = _csr(
        np.repeat([1, 3], [n, 3 * n_t]),
        np.concatenate([np.arange(n), delta_cols.ravel()]),
        n,
        vals=np.concatenate([-np.ones(n), np.ones(9 * n_t)]),
    )
    h_ineq = np.concatenate([np.zeros(n), np.full(3 * n_t, np.pi)])

    # Every alpha lies in exactly one edge row, so the edge rows are
    # independent of each other and of the gamma rows.  The gamma rows are
    # the unsigned incidence matrix of the bipartite triangle/vertex-class
    # graph, which the gluings connect, of rank (nodes - 1): the triangle
    # rows and the vertex rows sum to the same row, and dropping any one of
    # them, here triangle 0's, leaves independent rows.
    independent = np.ones(a_eq.shape[0], dtype=bool)
    independent[0] = False
    return ConstraintSystem(
        a_eq=a_eq,
        b_eq=b_eq,
        g_ineq=g_ineq,
        h_ineq=h_ineq,
        rank=n_t + n_e + tri.vertex_count - 1,
        independent_eq=independent,
    )


def _eq_labels(a, rows):
    """The names of the equality rows ``rows`` of ``a``, in the order of
    ``build_constraints``: T = dimension // 6 triangle rows, then the edge
    rows, which hold alphas (two on an interior edge), then the vertex rows."""
    if not len(rows):
        return []
    n_t, size = a.shape[1] // 6, np.diff(a.indptr)
    edge = a.indices[a.indptr[:-1]] % 6 < 3
    n_te = n_t + int(np.count_nonzero(edge))
    return [f"triangle {i} gamma sum" if i < n_t
            else f"edge {i - n_t} {'alpha sum' if size[i] == 2 else 'boundary alpha'}" if edge[i]
            else f"vertex {i - n_te} gamma sum" for i in rows.tolist()]


def _ineq_labels(n, rows):
    """The names of the inequality rows ``rows`` of a system of dimension n:
    the sign row of every angle, then the Delta bound at every corner."""
    return [f"{'alpha' if i % 6 < 3 else 'gamma'}[{i // 6}][{i % 3}] > 0" if i < n
            else f"triangle {(i - n) // 3} corner {(i - n) % 3} delta bound" for i in rows.tolist()]


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
    eq, ineq = np.flatnonzero(np.abs(res) > EQ_TOL), np.flatnonzero(slack <= SLACK_TOL)
    violations = list(zip(_eq_labels(cs.a_eq, eq), res[eq].tolist()))
    violations += zip(_ineq_labels(cs.dimension, ineq), slack[ineq].tolist())
    # per-triangle Delta membership is implied by the rows above at equal
    # tolerances; re-checked for safety.
    if not violations and not np.all(in_delta(x.alphas(), x.gammas(), closed=False)):
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


def _sparse_solver(arrays, size, ordering):
    """Returns rhs -> the solution of matrix sol = rhs by one ``splu``
    factorization with the column ordering ``ordering``, the square matrix
    of order ``size`` given by ``arrays`` as to ``scipy.sparse.csc_matrix``:
    (data, (row, col)) or (data, indices, indptr).  scipy is imported here,
    on first use.  Raises ``RuntimeError`` if the matrix is singular."""
    from scipy.sparse import csc_matrix
    from scipy.sparse.linalg import splu

    return splu(csc_matrix(arrays, shape=(size, size)), permc_spec=ordering).solve


class _RangeSpace:
    """The range-space method (Nocedal-Wright 16.2) for the KKT matrices
    [H A^T; A 0] of a constraint system, with H block-diagonal, one formed
    6x6 block H_t per triangle.

    A block of H need only be definite on its triangle's gamma-sum plane,
    so H is never factorized alone.  Each triangle enforces its own
    gamma-sum row: x_t = x0_t + P y_t, with P = ``_PLANE`` and the gammas of
    x0_t a third of the row's right-hand side, so the triangle contributes
    M_t = P K_t^-1 P^T, K_t = P^T H_t P.  The other rows C, the edge rows and
    all vertex rows but the first, get their multipliers mu from the
    definite matrix S = C M C^T, and x = x0 + M (s - C^T mu), s = r - H x0.
    Systems of at most ``DENSE_KKT_MAX`` unknowns (angles plus independent
    equality rows) factorize S by ``np.linalg.solve``, which keeps no
    factor, larger ones once with ``splu``.

    The right-hand side of every triangle row and every row of C is read
    from its own entry of e, so a triangle's gamma sum holds to the rounding
    of its three gammas.  The gluings connect the surface, so the triangle
    rows and the vertex rows sum to the same row, and the vertex row left
    out of C holds when e is consistent.  The row roles are read from
    ``a_eq``, so a row-permuted copy works: every row holds ones, and every
    angle lies in exactly one edge or vertex row.
    """

    def __init__(self, cs: ConstraintSystem):
        a = cs.a_eq
        n = a.shape[1]
        n_t = n // 6
        self.dense = n + cs.rank <= DENSE_KKT_MAX
        starts = a.indptr[:-1]
        owner = a.indices // 6
        gamma = a.indices[starts] % 6 >= 3  # a row holds only alphas or only gammas
        # a triangle's gamma-sum row holds its own three gammas and no more
        own = np.flatnonzero(
            gamma & (np.diff(a.indptr) == 3)
            & (np.minimum.reduceat(owner, starts) == np.maximum.reduceat(owner, starts)))
        self.triangle_rows = np.empty(n_t, dtype=int)
        self.triangle_rows[owner[starts[own]]] = own
        kept = np.ones(len(gamma), dtype=bool)
        kept[self.triangle_rows] = False
        kept[np.flatnonzero(gamma & kept)[0]] = False  # the first vertex row
        self.c_rows = c_rows = np.flatnonzero(kept)
        self.c = a[c_rows]
        at_c = np.full(n, -1)  # the row of C that holds each angle, if any
        at_c[self.c.indices] = self.c.rows
        # S gathers M_t[i, j] at (row of angle i, row of angle j); its CSC
        # pattern and each entry's slot in it are fixed here
        at_c = at_c.reshape(n_t, 6)
        s_row = np.broadcast_to(at_c[:, :, None], (n_t, 6, 6)).ravel()
        s_col = np.broadcast_to(at_c[:, None, :], (n_t, 6, 6)).ravel()
        self.entries = np.flatnonzero((s_row >= 0) & (s_col >= 0))
        # each entry's index in the flat column-major S, which is symmetric,
        # and its slot in the CSC pattern of S
        self.flat = s_col[self.entries] * len(c_rows) + s_row[self.entries]
        unique, self.slot = np.unique(self.flat, return_inverse=True)
        self.indices = unique % len(c_rows)
        self.indptr = np.searchsorted(unique, np.arange(len(c_rows) + 1) * len(c_rows))

    @cached_property
    def identity_solve(self):
        """``solver`` with H = I, built on first use and kept (numpy
        factorizes S again on each call, ``splu`` once): the min-norm start
        of the max-slack LP and, on a gradient, its orthogonal projection
        onto the null space of A."""
        return self.solver(np.broadcast_to(np.eye(6), (len(self.triangle_rows), 6, 6)))

    def solver(self, blocks):
        """Factorize with H = ``blocks``, (T, 6, 6); returns rhs -> x, the
        solution of [H A^T; A 0] [x; lam] = [r; e] for ``rhs`` = r (e = 0) or
        r followed by the right-hand side of every equality row.  It reads e
        on every row it enforces, ``_lu_solver`` on the independent rows
        alone; the two agree on consistent e, as every caller's is.  ``rhs``
        may hold several columns.  Raises ``numpy.linalg.LinAlgError`` or
        ``RuntimeError`` if the matrix is singular."""
        m = _PLANE @ np.linalg.solve(_PLANE.T @ blocks @ _PLANE, _PLANE.T)
        size = len(self.c_rows)
        vals = m.reshape(-1)[self.entries]
        if self.dense:
            solve = partial(np.linalg.solve, np.bincount(self.flat, vals, size * size).reshape(size, size))
        else:
            # splu's partial pivoting is as fast here as its symmetric mode
            solve = _sparse_solver((np.bincount(self.slot, vals, len(self.indices)),
                                    self.indices, self.indptr), size, "MMD_AT_PLUS_A")
        # locals, not self: the kept identity_solve must not hold self
        c, c_t, n_t = self.c, self.c.T, len(m)
        triangle_rows, c_rows = self.triangle_rows, self.c_rows

        def blockwise(mats, v):
            return (mats @ v.reshape(n_t, 6, -1)).reshape(v.shape)

        def run(rhs):
            r, e = rhs[:6 * n_t], rhs[6 * n_t:]
            x0, e_c = np.zeros(r.shape), 0.0
            if len(e):
                x0.reshape(n_t, 6, -1)[:, 3:] = e[triangle_rows].reshape(n_t, 1, -1) / 3.0
                e_c = e[c_rows]
            y = x0 + blockwise(m, r - blockwise(blocks, x0))
            return y - blockwise(m, c_t @ solve(c @ y - e_c))

        return run


def _lu_solver(cs: ConstraintSystem, a, f):
    """The LU of the whole KKT matrix [H A^T; A 0], H = F^T F block-diagonal
    for the per-triangle row factor ``f`` of shape (T, r, 6) and A = ``a``
    the independent equality rows of ``cs``: the max-slack LP's step once
    z/w has spread too far for formed blocks.  Returns rhs -> [x; lam] for ``rhs`` = r
    followed by the right-hand side of every equality row, of which the
    independent rows are read; lam is over those rows.  ``rhs`` may hold
    several columns.  Systems of at most ``DENSE_KKT_MAX`` unknowns solve by
    ``np.linalg.solve``, larger ones factorize once with ``splu``.  Raises
    ``numpy.linalg.LinAlgError`` or ``RuntimeError`` if the matrix is
    singular."""
    n = cs.dimension
    size = n + cs.rank
    h = np.arange(n)  # block t holds rows and columns 6t..6t+5
    rows = np.concatenate([np.repeat(h, 6), n + a.rows, a.indices])
    cols = np.concatenate([np.repeat(h.reshape(-1, 6), 6, axis=0).ravel(), a.indices, n + a.rows])
    vals = np.concatenate([np.einsum("tri,trj->tij", f, f).ravel(), a.data, a.data])
    if size <= DENSE_KKT_MAX:
        solve = partial(np.linalg.solve, np.bincount(rows * size + cols, vals, size * size).reshape(size, size))
    else:
        # minimum-degree ordering of A^T A: about half the fill of the
        # default COLAMD ordering on lattice disks of 512 to 2048 triangles
        solve = _sparse_solver((vals, (rows, cols)), size, "MMD_ATA")
    read = np.concatenate([np.ones(n, dtype=bool), cs.independent_eq])
    return lambda rhs: solve(rhs[read])


def _triangle_rows(g):
    """The rows of a ``SparseRows`` G each of whose rows lies within one
    triangle's six columns (true of every inequality row), grouped by
    triangle: (T, r) row indices and their (T, r, 6) entries, for r rows
    per triangle."""
    row_triangle = g.indices[g.indptr[:-1]] // 6
    rows = np.argsort(row_triangle, kind="stable").reshape(g.shape[1] // 6, -1)
    slot = np.empty(g.shape[0], dtype=int)
    slot[rows] = np.arange(rows.shape[1])
    local = np.zeros(rows.shape + (6,))
    local[row_triangle[g.rows], slot[g.rows], g.indices % 6] = g.data
    return rows, local


def _fraction_to_boundary(v, dv):
    """Largest step in (0, 1] keeping v + step * dv >= 0, times STEP_KEEP
    unless it is the full step."""
    shrink = dv < 0.0
    if not np.any(shrink):
        return 1.0
    return float(min(1.0, STEP_KEEP * np.min(-v[shrink] / dv[shrink])))


def _strictly_coherent(cs: ConstraintSystem, x):
    """True if x meets every equality within ``EQ_TOL`` and every inequality
    with slack above ``FEASIBLE_SLACK``."""
    return bool(np.max(np.abs(cs.a_eq @ x - cs.b_eq)) <= EQ_TOL
                and np.min(cs.h_ineq - cs.g_ineq @ x) > FEASIBLE_SLACK)


def _max_slack(cs: ConstraintSystem):
    """Maximize s over {A x = b, G x + s <= h}: a generator of the primal
    iterates x, the last primal x last.  The first is the min-norm solution
    of the equalities, or None if it leaves a residual above ``EQ_TOL`` on
    any row (the equalities are inconsistent); a pinned system (rank =
    dimension) has no other.

    Mehrotra's predictor-corrector on the slacks w = h - G x - s and their
    multipliers z (sum z = 1).  The barrier Hessian G^T diag(z/w) G has the
    block pattern of the Hessian of F, so each step factorizes the same KKT
    matrix as a Newton step of ``maximize``, with the scalar s eliminated by
    one more solve.  The first step, and every later one until an iterate
    after the start is strictly coherent, hands the formed blocks to the
    range-space method, which gives no multipliers: the step in x, s, w and
    z does not depend on y, whose term A^T y in the right-hand side only
    moves dy, so y stays put.  From then on, and from the first range-space
    step that raises, is not finite or misses the equalities by more than
    ``EQ_TOL``, the Hessian goes over as its per-triangle row factor
    diag(z/w)^(1/2) G to the LU of the whole KKT matrix (``_lu_solver``),
    which also steps y: as z/w spreads toward the optimum, the formed blocks
    lose accuracy.  So ``find_coherent``, which stops at the first strictly
    coherent iterate after one step, builds that LU only when a range-space
    step fails, and ``find_max_slack`` ends on it.
    """
    x = cs.kkt.identity_solve(np.concatenate([np.zeros(cs.dimension), cs.b_eq]))
    if np.max(np.abs(cs.a_eq @ x - cs.b_eq)) > EQ_TOL:
        yield None
        return
    yield x
    if cs.rank == cs.dimension:
        return
    a, g, h = cs.a_eq[cs.independent_eq], cs.g_ineq, cs.h_ineq
    n, m = cs.dimension, len(h)
    rows, local = _triangle_rows(g)
    slack = h - g @ x
    s = float(np.min(slack)) - 1.0
    w = slack - s
    z = (1.0 / w) / np.sum(1.0 / w)  # every w_i z_i equal: a centered start
    y = np.zeros(cs.rank)
    ranged = True
    for k in range(LP_MAX_ITERS):
        r_p = cs.a_eq @ x - cs.b_eq
        r_w = g @ x + s + w - h
        r_d = a.T @ y + g.T @ z
        r_s = float(np.sum(z)) - 1.0
        gap = float(w @ z)
        residual = max(np.max(np.abs(r_p)), np.max(np.abs(r_w)), np.max(np.abs(r_d)), abs(r_s))
        if gap <= LP_GAP_TOL and residual <= LP_RESIDUAL_TOL:
            return
        ranged = ranged and not (k and _strictly_coherent(cs, x))
        d = z / w
        u = g.T @ d
        f = np.sqrt(d)[rows][..., None] * local

        def direction(solve, r_c, q=None):
            """Newton step (dx, ds, dy, dw, dz) with W dz + Z dw = r_c, and q,
            the solution for [u; 0] that eliminates ds; a first call solves
            for q in the same factorization."""
            v = r_c / w + d * r_w
            rhs = np.concatenate([-r_d - g.T @ v, -r_p])
            if q is None:
                q, p = solve(np.column_stack([np.concatenate([u, np.zeros(len(r_p))]), rhs])).T
            else:
                p = solve(rhs)
            ds = (-r_s - np.sum(v) - u @ p[:n]) / (np.sum(d) - u @ q[:n])
            dxy = p - ds * q
            dw = -r_w - g @ dxy[:n] - ds
            if not np.all(np.isfinite(dxy)):
                raise RuntimeError("non-finite interior-point direction")
            dy = dxy[n:] if len(dxy) > n else 0.0
            return (dxy[:n], ds, dy, dw, (r_c - z * dw) / w), q

        def predictor_corrector(solve):
            (_, _, _, dw, dz), q = direction(solve, -w * z)
            mu = gap / m
            step_p, step_d = _fraction_to_boundary(w, dw), _fraction_to_boundary(z, dz)
            sigma = (((w + step_p * dw) @ (z + step_d * dz)) / m / mu) ** 3
            return direction(solve, sigma * mu - w * z - dw * dz, q)[0]

        step = None
        if ranged:
            try:
                step = predictor_corrector(cs.kkt.solver(np.einsum("tri,trj->tij", f, f)))
                # as z/w spreads, the range-space step loses the equalities first
                if np.max(np.abs(cs.a_eq @ step[0] + r_p)) > EQ_TOL:
                    raise RuntimeError("inaccurate range-space direction")
            except (np.linalg.LinAlgError, RuntimeError):
                step, ranged = None, False
        if step is None:
            try:
                step = predictor_corrector(_lu_solver(cs, a, f))
            except (np.linalg.LinAlgError, RuntimeError) as exc:
                if gap <= LP_RESCUE_GAP:
                    return
                raise ConvergenceError(f"max-slack interior point failed: {exc}") from exc
        dx, ds, dy, dw, dz = step
        step_p, step_d = _fraction_to_boundary(w, dw), _fraction_to_boundary(z, dz)
        x, s, w = x + step_p * dx, s + step_p * ds, w + step_p * dw
        y, z = y + step_d * dy, z + step_d * dz
        yield x
    raise ConvergenceError(f"max-slack interior point: no optimum in {LP_MAX_ITERS} iterations")


def _verdict(cs: ConstraintSystem, x):
    """``AngleSystem(x)`` if x has slack above ``FEASIBLE_SLACK``, else the
    Infeasible certificate of the last LP iterate x (None: inconsistent)."""
    if x is None:
        return Infeasible(
            reason="equalities_inconsistent",
            message="the equality constraints have no solution",
        )
    s = float(np.min(cs.h_ineq - cs.g_ineq @ x))
    if s > FEASIBLE_SLACK:
        return AngleSystem(x)
    degenerate = " (polytope is nonempty but has empty relative interior)" if s > 0 else ""
    return Infeasible(
        reason="max_slack_nonpositive",
        s_star=s,
        message=f"maximum uniform slack {s:.3e} <= {FEASIBLE_SLACK:.0e}{degenerate}",
    )


def find_max_slack(cs: ConstraintSystem):
    """Max-slack feasibility: a deep interior point, or an Infeasible certificate.

    Maximizes s subject to the equalities and every inequality holding with
    slack >= s, by an interior point on the KKT systems that Newton uses.
    Equalities whose min-norm solution leaves a residual above ``EQ_TOL``
    on any row are inconsistent.  An optimum s* <= 1e-9 means the open
    polytope is empty (a zero-slack-only polytope has no strictly coherent
    point), reported as Infeasible together with s*.  A pinned system
    (rank = dimension) reads its slack off the unique solution.
    """
    for x in _max_slack(cs):
        pass
    return _verdict(cs, x)


def find_coherent(cs: ConstraintSystem):
    """A strictly coherent angle system, or an Infeasible certificate: the
    start of the solve path.

    ``find_max_slack``'s interior point, stopped at its first strictly
    coherent iterate after one step: F is strictly concave on the open
    polytope, so any such point leads Newton to the one maximizer.  The
    min-norm start's slack is an accident of the data (where it was already
    strictly coherent, Newton took 678 steps from it against 426 from the
    first step, on 136 instances of ``tests.lp_sweep``).  Data with no
    strictly coherent point gets ``find_max_slack``'s certificate.
    """
    for step, x in enumerate(_max_slack(cs)):
        if step and _strictly_coherent(cs, x):
            return AngleSystem(x)
    return _verdict(cs, x)


def tangent_basis(cs: ConstraintSystem):
    """Orthonormal basis of the equality null space, shape (6|T|, k).

    Right singular vectors of singular values at most ``TANGENT_RCOND`` times the
    largest one; a dense SVD, so for small systems and checks only.
    """
    a = cs.a_eq.toarray()
    _, sv, vh = np.linalg.svd(a, full_matrices=True)
    tol = np.amax(sv, initial=0.0) * TANGENT_RCOND
    return vh[int(np.sum(sv > tol)):].T
