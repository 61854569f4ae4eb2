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

import numpy as np
from scipy import sparse

from . import _simplex
from .energy import in_delta
from .errors import NotCoherentError
from .surface import BOUNDARY, AngleData, GluedTriangulation

EQ_TOL = 1e-10
SLACK_TOL = 1e-10
FEASIBLE_SLACK = 1e-9
TANGENT_RCOND = 1e-10  # relative singular-value cut of tangent_basis
SAMPLE_SPREAD = 0.8  # share of the center's slack a sample may use up


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


def _component_roots(tri: GluedTriangulation):
    """Smallest triangle index of every connected component of the
    triangle/vertex-class incidence graph."""
    parent = list(range(tri.triangle_count))

    def find(t):
        while parent[t] != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    for corners in tri.vertices:
        for t, _ in corners[1:]:
            a, b = find(corners[0][0]), find(t)
            if a != b:
                parent[max(a, b)] = min(a, b)  # roots stay the smallest index
    return sorted({find(t) for t in range(tri.triangle_count)})


def build_constraints(tri: GluedTriangulation, data: AngleData) -> ConstraintSystem:
    """Assemble the coherence constraints for (tri, data), deterministically.

    Rows, in order: the gamma sum of every triangle, the alpha sum (interior)
    or alpha (boundary) of every edge, the gamma sum of every vertex class.
    """
    data.validate(tri)
    n_t = tri.triangle_count
    n = 6 * n_t
    n_e = len(tri.edges)
    n_v = len(tri.vertices)

    sides = np.array([(t, s) for e in tri.edges for t, s in e.sides])
    corners = np.array([corner for cls in tri.vertices for corner in cls])
    a_eq = _csr(
        [3] * n_t + [len(e.sides) for e in tri.edges] + [len(cls) for cls in tri.vertices],
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
    labels += [
        f"edge {e.index} boundary alpha" if e.kind == BOUNDARY else f"edge {e.index} alpha sum"
        for e in tri.edges
    ]
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
    # leaves independent rows.
    roots = _component_roots(tri)
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


def find_coherent(cs: ConstraintSystem):
    """Max-slack feasibility: a deep interior point, or an Infeasible certificate.

    Maximizes s subject to the equalities and every inequality holding with
    slack >= s.  An optimum s* <= 1e-9 means the open polytope is empty (a
    zero-slack-only polytope has no strictly coherent point), reported as
    Infeasible together with s*.
    """
    a_eq = cs.a_eq.toarray()
    status, x, s = _simplex.max_slack_lp(a_eq, cs.b_eq, cs.g_ineq.toarray(), cs.h_ineq)
    if status == _simplex.INFEASIBLE:
        return Infeasible(
            reason="equalities_inconsistent",
            message="the equality constraints have no solution",
        )
    if status != _simplex.OPTIMAL:
        raise RuntimeError(f"max-slack LP ended with status {status}")
    if s > FEASIBLE_SLACK:
        # tableau elimination leaves ~1e-12 equality residue; a least-squares
        # correction (far below the slack scale) removes it
        res = a_eq @ x - cs.b_eq
        x = x - np.linalg.lstsq(a_eq, res, rcond=None)[0]
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


def sample_coherent(cs: ConstraintSystem, rng, n=1):
    """Random strictly coherent angle systems (empty list if infeasible).

    Starts from the max-slack point and perturbs within the tangent space,
    capping each step so that every strict inequality keeps at least
    ``1 - SAMPLE_SPREAD`` of the center's slack.
    """
    center = find_coherent(cs)
    if isinstance(center, Infeasible):
        return []
    basis = tangent_basis(cs)
    out = []
    x0 = center.values
    slack0 = cs.h_ineq - cs.g_ineq @ x0
    for _ in range(n):
        if basis.shape[1] == 0:
            out.append(AngleSystem(x0.copy()))
            continue
        d = basis @ rng.standard_normal(basis.shape[1])
        drop = cs.g_ineq @ d
        with np.errstate(divide="ignore"):
            caps = np.where(drop > 0.0, SAMPLE_SPREAD * slack0 / drop, np.inf)
        step = rng.uniform(0.0, 1.0) * min(1.0, float(np.min(caps)))
        out.append(AngleSystem(x0 + step * d))
    return out
