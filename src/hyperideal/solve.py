"""Maximization of the total truncated volume over the coherent polytope.

The objective F is the sum of per-triangle truncated volumes; it is smooth
and strictly concave on the open polytope, with a +infinity inward derivative
at the mildly degenerate parts of the boundary, so the maximizer is interior
and unique.  Newton's method on the affine space of the equality constraints
(each step one solve of the KKT system of the Hessian, see ``coherent._KKT``)
with an Armijo backtracking line search reaches it quadratically; steps are
capped so every strict inequality keeps at least 1% of its current slack,
which keeps all Lobachevsky arguments away from their singularities.
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
from .errors import DomainError, NotCoherentError, PreconditionError
from .pattern import compat_residuals
from .surface import AngleData, GluedTriangulation

logger = logging.getLogger(__name__)

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITERS = 200
ARMIJO_C1 = 1e-4
ARMIJO_SHRINK = 0.5
SLACK_KEEP = 1e-2
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
    constraints: each step solves the KKT system of the Hessian and the
    independent equality rows, by the null-space method on small systems
    and by the range-space method on large ones (``coherent._KKT``).  A
    projected-gradient step replaces it when the factorization fails,
    gives a non-finite direction, or gives no ascent.  Stationarity is the
    sup norm of the gradient projected orthogonally onto the tangent space
    of the equality constraints, or a full Newton step whose predicted
    increase is at most ``NEWTON_TRUST_ULPS`` float spacings of F.  A point
    that passes the gradient test still takes such a full Newton step if it
    has one: the test bounds the distance to the maximizer only by tol over
    the smallest curvature.  ``callback(iteration, x, f)`` is invoked after
    every accepted step.
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

    project = cs.kkt.projector()

    def projected_norm(v):
        return float(np.max(np.abs(project(objective_grad(AngleSystem(v))))))

    fx = objective_f(AngleSystem(x))
    for it in range(max_iters):
        g = objective_grad(AngleSystem(x))
        pg = project(g)
        pgn = float(np.max(np.abs(pg)))
        try:
            # -pg differs from -g by a combination of equality rows, which
            # only moves the multipliers; its size bounds the solve's rounding
            d = cs.kkt.solver(_hess_blocks(AngleSystem(x)))(-pg)
            newton = bool(np.all(np.isfinite(d)) and d @ g > 0.0)
        except (np.linalg.LinAlgError, RuntimeError):
            newton = False
        if not newton:
            # no Newton direction, or not an ascent direction (concavity
            # must have failed numerically)
            d = pg

        step = _max_step(cs, x, d)
        slope = float(g @ d)
        trusted = newton and 0.5 * step * slope <= NEWTON_TRUST_ULPS * np.spacing(abs(fx))
        # a passed gradient test bounds the distance to the maximizer only by
        # tol over the smallest curvature, so a trusted full step goes first
        if pgn <= tol and not (trusted and step == 1.0):
            return report(CONVERGED, it, pgn)
        if trusted:
            x = x + step * d
            fx = objective_f(AngleSystem(x))
            if callback is not None:
                callback(it, AngleSystem(x.copy()), fx)
            if step == 1.0:
                # the Newton decrement g.d, which is affine-invariant, puts F
                # within rounding of its maximum; the projected gradient
                # itself can floor above tol on thin polytopes, where it is
                # formed from differences of O(1) angles
                return report(CONVERGED, it + 1, projected_norm(x))
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

    pgn = projected_norm(x)
    status = CONVERGED if pgn <= tol else MAX_ITERS
    return report(status, max_iters, pgn)


def _flip_diagnostics(tri, data, x: AngleSystem):
    """Edges with theta = 0 whose alpha collapsed: the face circles coincide
    and the edge could be flipped out of the triangulation."""
    interior = len(tri.gluings)
    sides = tri.edge_sides[:interior]
    collapsed = x.alphas()[sides[..., 0], sides[..., 1]] < 1e-8
    notes = []
    for e in np.flatnonzero((data.theta[:interior] < 1e-12) & collapsed.any(axis=1)):
        t, s = sides[e, np.argmax(collapsed[e])]
        notes.append(
            f"edge {e}: theta = 0 and alpha[{t}][{s}] < 1e-8; "
            "the two face circles coincide and a flip is recommended"
        )
    return notes


def solve_problem(tri: GluedTriangulation, data: AngleData,
                  tol=DEFAULT_TOL, max_iters=DEFAULT_MAX_ITERS):
    """find_coherent + maximize; returns (x, report) with x None when infeasible."""
    if tri.component.any():
        raise PreconditionError("surface is disconnected")
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
