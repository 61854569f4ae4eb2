"""A strictly coherent start computed outside the program under test.

The max-slack LP (maximize s subject to the coherence equalities and every
strict inequality holding with slack >= s) is assembled here as sparse rows
and solved with HiGHS, followed by the least-squares equality correction
that ``find_coherent`` applies.  The start therefore stays fixed when the
program's own constraint format or LP solver changes.
"""

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from hyperideal.surface import INTERIOR


def _rows(entries, n_cols):
    """CSR matrix from per-row lists of (column, value)."""
    ij = [(r, c, v) for r, row in enumerate(entries) for c, v in row]
    r, c, v = (np.array(a) for a in zip(*ij))
    return sparse.csr_matrix((v.astype(float), (r, c)), shape=(len(entries), n_cols))


def coherence_rows(tri, data):
    """(a_eq, b_eq, g_ineq, h_ineq): a_eq x = b_eq and g_ineq x < h_ineq.

    Variables: triangle t owns 6t..6t+5 = (alpha side 0..2, gamma corner 0..2).
    """
    n_t = tri.triangle_count
    eq, b = [], []
    for t in range(n_t):
        eq.append([(6 * t + 3 + c, 1.0) for c in range(3)])
        b.append(np.pi)
    for e in tri.edges:
        sides = e.sides if e.kind == INTERIOR else e.sides[:1]
        eq.append([(6 * t + s, 1.0) for t, s in sides])
        b.append(np.pi - data.theta[e.index])
    for v, corners in enumerate(tri.vertices):
        eq.append([(6 * t + 3 + c, 1.0) for t, c in corners])
        b.append(data.xi[v])
    ineq, h = [], []
    for t in range(n_t):
        for k in range(6):
            ineq.append([(6 * t + k, -1.0)])
            h.append(0.0)
    for t in range(n_t):
        for c in range(3):
            ineq.append([(6 * t + 3 + c, 1.0), (6 * t + c, 1.0), (6 * t + (c + 2) % 3, 1.0)])
            h.append(np.pi)
    n = 6 * n_t
    return _rows(eq, n), np.array(b), _rows(ineq, n), np.array(h)


def max_slack_start(tri, data):
    """Max-slack point of the coherent polytope, equality-corrected; (x, s*)."""
    a_eq, b_eq, g, h = coherence_rows(tri, data)
    n = a_eq.shape[1]
    cost = np.zeros(n + 1)
    cost[-1] = -1.0
    res = linprog(
        cost,
        A_ub=sparse.hstack([g, np.ones((g.shape[0], 1))]).tocsr(),
        b_ub=h,
        A_eq=sparse.hstack([a_eq, sparse.csr_matrix((a_eq.shape[0], 1))]).tocsr(),
        b_eq=b_eq,
        bounds=(None, None),
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"max-slack LP failed: {res.message}")
    x, s = res.x[:n], float(res.x[-1])
    dense = a_eq.toarray()
    x = x - np.linalg.lstsq(dense, dense @ x - b_eq, rcond=None)[0]
    return x, s
