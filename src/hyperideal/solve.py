"""Maximization of the total truncated volume over the coherent polytope.

The objective F is the sum of per-triangle truncated volumes; it is smooth
and strictly concave on the open polytope, with a +infinity inward derivative
at the mildly degenerate parts of the boundary, so the maximizer is interior
and unique.  Newton's method on the affine space of the equality constraints
(each step a sparse KKT solve) with an Armijo backtracking line search
reaches it quadratically; steps are capped so every strict inequality keeps
at least 1% of its current slack, which keeps all Lobachevsky arguments away
from their singularities.
"""

import logging
from dataclasses import dataclass, field

import numpy as np

from .coherent import (
    AngleSystem,
    ConstraintSystem,
    Infeasible,
    build_constraints,
    find_coherent,
    is_coherent,
)
from .energy import tet_volume, tet_volume_grad, tet_volume_hess
from .errors import DomainError, NotCoherentError
from .pattern import compat_residuals
from .surface import INTERIOR, AngleData, GluedTriangulation

logger = logging.getLogger(__name__)

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITERS = 200
ARMIJO_C1 = 1e-4
ARMIJO_SHRINK = 0.5
SLACK_KEEP = 1e-2
# KKT systems with at most this many unknowns (angles plus multipliers) are
# factorized densely, larger ones with a sparse LU.  One factorization alone
# is cheaper sparse from about 250 unknowns on, but the first sparse solve in
# a process also imports scipy.sparse.linalg (~0.1 s, ~9 MB); for a single
# cold solve the two break even between 450 and 650 unknowns.
DENSE_KKT_MAX = 600
# When the increase a Newton step predicts, half the step times the slope, is
# at most this many float spacings of F, objective differences are rounding
# noise and an Armijo test can stall on it; the capped Newton step is then
# taken without one (quadratic contraction takes over).
NEWTON_TRUST_ULPS = 64

CONVERGED = "converged"
MAX_ITERS = "max_iters"
LINE_SEARCH_FAILED = "line_search_failed"
INFEASIBLE = "infeasible"


@dataclass
class SolveReport:
    objective: float
    projected_grad_norm: float
    iterations: int
    min_slack: float
    compat1: float
    compat2: float
    status: str
    diagnostics: list = field(default_factory=list)


def objective_f(x: AngleSystem) -> float:
    """F = sum of per-triangle truncated volumes; finite and nonnegative."""
    try:
        return float(np.sum(tet_volume(x.alphas(), x.gammas())))
    except DomainError as exc:
        raise DomainError(f"objective_f: {exc}") from exc


def objective_grad(x: AngleSystem) -> np.ndarray:
    """Gradient of F, shape (6|T|,); requires strict Delta membership."""
    return tet_volume_grad(x.alphas(), x.gammas()).reshape(-1)


def _hess_blocks(x: AngleSystem) -> np.ndarray:
    return tet_volume_hess(x.alphas(), x.gammas())


def _reduced_hessian(blocks, basis):
    n_t = blocks.shape[0]
    hn = np.empty((6 * n_t, basis.shape[1]))
    for t in range(n_t):
        hn[6 * t:6 * t + 6] = blocks[t] @ basis[6 * t:6 * t + 6]
    return basis.T @ hn


class _KKT:
    """KKT matrices [H A^T; A 0] over the independent equality rows A of a
    constraint system, with H block-diagonal, one 6x6 block per triangle.

    The matrix is factorized as a whole, since a block of H is definite only
    on its triangle's gamma-sum plane.  Systems of at most ``DENSE_KKT_MAX``
    unknowns go to a dense LU, larger ones to a sparse LU.
    """

    def __init__(self, cs: ConstraintSystem):
        n = self.n = cs.dimension
        size = n + cs.rank
        self.pad = np.zeros(cs.rank)
        first = np.arange(0, n, 6)[:, None, None]
        self.h_rows = np.broadcast_to(first + np.arange(6)[:, None], (n // 6, 6, 6))
        self.h_cols = np.broadcast_to(first + np.arange(6), (n // 6, 6, 6))
        self.dense = size <= DENSE_KKT_MAX
        if self.dense:
            a = cs.a_eq.toarray()[cs.independent_eq]
            self.template = np.zeros((size, size))
            self.template[n:, :n] = a
            self.template[:n, n:] = a.T
        else:
            a = cs.a_eq[cs.independent_eq].tocoo()
            self.rows = np.concatenate([self.h_rows.ravel(), n + a.row, a.col])
            self.cols = np.concatenate([self.h_cols.ravel(), a.col, n + a.row])
            self.a_vals = np.concatenate([a.data, a.data])
            self.size = size

    def projector(self):
        """Returns g -> the orthogonal projection of g onto the null space
        of A: a reduced QR of A^T when dense, else the KKT system with
        H = I, factorized once."""
        if self.dense:
            q = np.linalg.qr(self.template[self.n:, :self.n].T)[0]
            return lambda g: g - q @ (q.T @ g)
        return self.solver(np.broadcast_to(np.eye(6), self.h_rows.shape))

    def solver(self, blocks):
        """Factorize with H = ``blocks``; returns r -> d solving
        [H A^T; A 0] [d; lam] = [r; 0].  Raises ``numpy.linalg.LinAlgError``
        or ``RuntimeError`` if the matrix is singular."""
        n, pad = self.n, self.pad
        if self.dense:
            kkt = self.template.copy()
            kkt[self.h_rows, self.h_cols] = blocks
            return lambda r: np.linalg.solve(kkt, np.concatenate([r, pad]))[:n]
        from scipy.sparse import csc_matrix
        from scipy.sparse.linalg import splu

        vals = np.concatenate([np.ravel(blocks), self.a_vals])
        # minimum-degree ordering of A^T A: about half the fill of the default
        # COLAMD ordering on lattice disks of 512 to 2048 triangles
        lu = splu(csc_matrix((vals, (self.rows, self.cols)), shape=(self.size, self.size)),
                  permc_spec="MMD_ATA")
        return lambda r: lu.solve(np.concatenate([r, pad]))[:n]


def _max_step(cs, x, d):
    """Largest step along d keeping every strict slack >= SLACK_KEEP of itself."""
    slack = cs.h_ineq - cs.g_ineq @ x
    drop = cs.g_ineq @ d
    mask = drop > 0.0
    if not np.any(mask):
        return 1.0
    return float(min(1.0, np.min((1.0 - SLACK_KEEP) * slack[mask] / drop[mask])))


def maximize(tri: GluedTriangulation, data: AngleData, x0: AngleSystem,
             tol=DEFAULT_TOL, max_iters=DEFAULT_MAX_ITERS,
             cs: ConstraintSystem = None, callback=None):
    """Maximize F from a strictly coherent start; returns (x*, SolveReport).

    Newton with Armijo backtracking on the affine space of the equality
    constraints: each step solves the sparse KKT system of the Hessian and
    the independent equality rows.  A projected-gradient step replaces it
    when the factorization fails, gives a non-finite direction, or gives no
    ascent.  Stationarity is the sup norm of the gradient projected
    orthogonally onto the tangent space of the equality constraints.
    ``callback(iteration, x, f)`` is invoked after every accepted step.
    """
    if cs is None:
        cs = build_constraints(tri, data)
    check = is_coherent(x0, cs)
    if not check.ok:
        raise NotCoherentError(f"starting point is not coherent: {check.violations[:3]}")
    x = x0.values.copy()

    def report(status, iters, pgn):
        xs = AngleSystem(x)
        c1, c2 = compat_residuals(tri, xs)
        slack = float(np.min(cs.h_ineq - cs.g_ineq @ x))
        rep = SolveReport(
            objective=objective_f(xs),
            projected_grad_norm=pgn,
            iterations=iters,
            min_slack=slack,
            compat1=c1,
            compat2=c2,
            status=status,
            diagnostics=_flip_diagnostics(tri, data, xs),
        )
        return xs, rep

    if cs.rank == cs.dimension:
        return report(CONVERGED, 0, 0.0)

    kkt = _KKT(cs)
    project = kkt.projector()
    fx = objective_f(AngleSystem(x))
    for it in range(max_iters):
        g = objective_grad(AngleSystem(x))
        pg = project(g)
        pgn = float(np.max(np.abs(pg)))
        if pgn <= tol:
            return report(CONVERGED, it, pgn)

        try:
            # -pg differs from -g by a combination of equality rows, which
            # only moves the multipliers; its size bounds the solve's rounding
            d = kkt.solver(_hess_blocks(AngleSystem(x)))(-pg)
            use_newton = bool(np.all(np.isfinite(d)))
        except (np.linalg.LinAlgError, RuntimeError):
            use_newton = False
        if not use_newton or d @ g <= 0.0:
            # no Newton direction, or not an ascent direction (concavity
            # must have failed numerically)
            d = pg

        step = _max_step(cs, x, d)
        slope = float(g @ d)
        if use_newton and 0.5 * step * slope <= NEWTON_TRUST_ULPS * np.spacing(abs(fx)):
            x = x + step * d
            fx = objective_f(AngleSystem(x))
            if callback is not None:
                callback(it, AngleSystem(x.copy()), fx)
            continue

        accepted = False
        for _ in range(60):
            cand = x + step * d
            f_cand = objective_f(AngleSystem(cand))
            if f_cand >= fx + ARMIJO_C1 * step * slope:
                accepted = True
                break
            step *= ARMIJO_SHRINK
        if not accepted:
            logger.warning("line search failed at iteration %d", it)
            return report(LINE_SEARCH_FAILED, it, pgn)
        x = cand
        fx = f_cand
        if callback is not None:
            callback(it, AngleSystem(x.copy()), fx)

    pgn = float(np.max(np.abs(project(objective_grad(AngleSystem(x))))))
    status = CONVERGED if pgn <= tol else MAX_ITERS
    return report(status, max_iters, pgn)


def _flip_diagnostics(tri, data, x: AngleSystem):
    """Edges with theta = 0 whose alpha collapsed: the face circles coincide
    and the edge could be flipped out of the triangulation."""
    notes = []
    values = x.values
    for e in tri.edges:
        if e.kind == INTERIOR and data.theta[e.index] < 1e-12:
            for (t, s) in e.sides:
                if values[6 * t + s] < 1e-8:
                    notes.append(
                        f"edge {e.index}: theta = 0 and alpha[{t}][{s}] < 1e-8; "
                        "the two face circles coincide and a flip is recommended"
                    )
                    break
    return notes


def solve_problem(tri: GluedTriangulation, data: AngleData,
                  tol=DEFAULT_TOL, max_iters=DEFAULT_MAX_ITERS):
    """find_coherent + maximize; returns (x, report) with x None when infeasible."""
    cs = build_constraints(tri, data)
    start = find_coherent(cs)
    if isinstance(start, Infeasible):
        rep = SolveReport(
            objective=float("nan"), projected_grad_norm=float("nan"),
            iterations=0, min_slack=float("nan"), compat1=float("nan"),
            compat2=float("nan"), status=INFEASIBLE,
            diagnostics=[start.message],
        )
        return None, rep
    return maximize(tri, data, start, tol=tol, max_iters=max_iters, cs=cs)
