"""Self-contained dense simplex solver (two phases, Bland's anti-cycling rule).

Solves   min c.y   s.t.  M y = d,  y >= 0   on small dense instances.
Deterministic: entering variable is the smallest improving index, leaving row
breaks ratio ties by smallest basis index, so identical inputs always take
the identical pivot path.
"""

import numpy as np

from .errors import ConvergenceError

PIVOT_TOL = 1e-9
INFEAS_TOL = 1e-8  # phase-1 optimum above which M y = d, y >= 0 is infeasible

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def _pivot(T, basis, row, col):
    T[row] /= T[row, col]
    for i in range(T.shape[0]):
        if i != row and T[i, col] != 0.0:
            T[i] -= T[i, col] * T[row]
    basis[row] = col


def _pivot_loop(T, basis, cost, max_pivots):
    """Bland-rule pivoting until optimal/unbounded; mutates T and basis."""
    ncols = T.shape[1] - 1
    for _ in range(max_pivots):
        reduced = cost[:ncols] - cost[basis] @ T[:, :ncols]
        improving = np.flatnonzero(reduced < -PIVOT_TOL)
        if improving.size == 0:
            return OPTIMAL
        col = int(improving[0])
        coefs = T[:, col]
        rows = np.flatnonzero(coefs > PIVOT_TOL)
        if rows.size == 0:
            return UNBOUNDED
        ratios = T[rows, -1] / coefs[rows]
        best = np.min(ratios)
        ties = rows[ratios <= best + PIVOT_TOL * (1.0 + abs(best))]
        row = int(ties[np.argmin(basis[ties])])
        _pivot(T, basis, row, col)
    raise ConvergenceError("simplex: pivot limit exceeded")


def solve_standard_min(c, M, d):
    """Two-phase simplex for  min c.y  s.t.  M y = d, y >= 0.

    Returns (status, y, objective); y and objective are None unless optimal.
    """
    M = np.array(M, dtype=float)
    d = np.array(d, dtype=float)
    c = np.asarray(c, dtype=float)
    m, n = M.shape
    flip = d < 0
    M[flip] *= -1.0
    d[flip] *= -1.0

    max_pivots = 20000 + 200 * (m + n)

    # phase 1: artificial basis, minimize the total infeasibility
    T = np.hstack([M, np.eye(m), d[:, None]])
    basis = np.arange(n, n + m)
    cost1 = np.concatenate([np.zeros(n), np.ones(m)])
    status = _pivot_loop(T, basis, cost1, max_pivots)
    if status != OPTIMAL:  # phase 1 is bounded below by 0, so this cannot happen
        raise ConvergenceError("simplex: phase 1 failed")
    if cost1[basis] @ T[:, -1] > INFEAS_TOL:
        return INFEASIBLE, None, None

    # drive leftover artificials out of the basis; drop redundant rows
    keep = np.ones(m, dtype=bool)
    for i in range(m):
        if basis[i] >= n:
            cols = np.flatnonzero(np.abs(T[i, :n]) > PIVOT_TOL)
            if cols.size:
                _pivot(T, basis, i, int(cols[0]))
            else:
                keep[i] = False
    T = np.hstack([T[keep][:, :n], T[keep][:, -1:]])
    basis = basis[keep]

    status = _pivot_loop(T, basis, c, max_pivots)
    if status != OPTIMAL:
        return status, None, None
    y = np.zeros(n)
    y[basis] = T[:, -1]
    return OPTIMAL, y, float(c @ y)


def max_slack_lp(a_eq, b_eq, g_ineq, h_ineq):
    """Maximize the uniform slack s over {A x = b, G x + s <= h}.

    Returns (status, x, s).  ``infeasible`` means the equality system itself
    is inconsistent; otherwise the LP always has an optimum (s is bounded
    above whenever the inequalities pin a compact polytope, which they do for
    every constraint system built in this package).
    """
    a_eq = np.atleast_2d(np.asarray(a_eq, dtype=float))
    g = np.atleast_2d(np.asarray(g_ineq, dtype=float))
    me, n = a_eq.shape
    mi = g.shape[0]
    # y = [x+, x-, s+, s-, w]
    M = np.zeros((me + mi, 2 * n + 2 + mi))
    M[:me, :n] = a_eq
    M[:me, n:2 * n] = -a_eq
    M[me:, :n] = g
    M[me:, n:2 * n] = -g
    M[me:, 2 * n] = 1.0
    M[me:, 2 * n + 1] = -1.0
    M[me:, 2 * n + 2:] = np.eye(mi)
    d = np.concatenate([b_eq, h_ineq])
    c = np.zeros(2 * n + 2 + mi)
    c[2 * n] = -1.0
    c[2 * n + 1] = 1.0
    status, y, _ = solve_standard_min(c, M, d)
    if status != OPTIMAL:
        return status, None, None
    x = y[:n] - y[n:2 * n]
    s = float(y[2 * n] - y[2 * n + 1])
    return OPTIMAL, x, s
