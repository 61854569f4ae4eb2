"""Independent oracles and random-instance generators used across the tests.

Everything here deliberately avoids the code paths it is used to check: the
Lobachevsky oracles integrate the defining integral (singular parts split off
in closed form, Gauss-Legendre for the smooth remainder) or sum its series
term by term with coefficients from exact Bernoulli numbers, derivatives come
from central differences, and feasibility of pinned instances from the
closed-form slack analysis, and max-slack optima from HiGHS.
"""

import io
import math
from collections import deque
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np
from scipy import sparse
from scipy.optimize import linprog
from scipy.sparse.linalg import spsolve
from scipy.spatial import Delaunay

from hyperideal.coherent import (
    AngleSystem,
    Infeasible,
    build_constraints,
    find_max_slack,
    is_coherent,
    tangent_basis,
)
from hyperideal.energy import ARG_COEF, in_delta, lob_arguments
from hyperideal.errors import PreconditionError
from hyperideal.layout import (
    ATLAS,
    FACE_CIRCLE_COLOR,
    MARGIN,
    SCALE,
    STROKE_WIDTH,
    TRIANGLE_COLOR,
    VERTEX_CIRCLE_COLOR,
    _check_fits,
)
from hyperideal.lob import lob, lob_deriv
from hyperideal.pattern import DecoratedMetric, PatternReport, probe, verify_pattern
from hyperideal.surface import INTERIOR, AngleData, GluedTriangulation

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)
SAMPLE_SPREAD = 0.8  # share of the center's slack a sample may use up


def lob_quadrature(x):
    """-int_0^x log|2 sin t| dt for x in [0, pi], to near machine precision."""
    if x == 0.0:
        return 0.0
    pi = math.pi
    px = (pi - x) * math.log(pi - x) if x != pi else 0.0
    closed = -x * math.log(2.0 / pi) - x * math.log(x) + px + 2.0 * x - pi * math.log(pi)
    t = 0.5 * x * (_GL_NODES + 1.0)
    smooth = np.log(np.sinc(t / pi)) + np.log(pi / (pi - t))
    return closed - 0.5 * x * float(_GL_WEIGHTS @ smooth)


# args-row indices (``energy.lob_arguments``) of the alternative regrouping
# of 2V into five ideal triples, an independent check of ``FIVE_TRIPLES``
FIVE_TRIPLES_ALT = ((0, 1, 2), (6, 7, 8), (3, 10, 14), (4, 11, 12), (5, 9, 13))


def sample_delta(n, rng, margin=0.0):
    """Draw ``n`` points uniformly from Delta (rejection sampling).

    With ``margin > 0`` every positivity and triangle-bound constraint is
    required to hold with at least that slack.
    """
    alphas = np.empty((n, 3))
    gammas = np.empty((n, 3))
    got = 0
    while got < n:
        m = max(2 * (n - got), 64)
        g = rng.dirichlet((1.0, 1.0, 1.0), size=m) * np.pi
        a = rng.uniform(0.0, np.pi, size=(m, 3))
        tri = g + a + np.roll(a, 1, axis=-1)
        ok = (
            (g > margin).all(axis=1)
            & (a > margin).all(axis=1)
            & (tri < np.pi - margin).all(axis=1)
        )
        k = min(int(ok.sum()), n - got)
        alphas[got:got + k] = a[ok][:k]
        gammas[got:got + k] = g[ok][:k]
        got += k
    return alphas, gammas


def series_coefficients(count=40):
    """c_n = zeta(2n) / (n (2n+1) pi^(2n)) = |B_2n| 4^n / (2 n (2n+1) (2n)!),
    n = 1..count, from exact Bernoulli numbers; no zeta table involved."""
    bern = [Fraction(1)]
    for m in range(1, 2 * count + 1):
        bern.append(-sum(math.comb(m + 1, k) * bern[k] for k in range(m)) / (m + 1))
    return np.array([
        float(abs(bern[2 * n]) * 4**n / (2 * n * (2 * n + 1) * math.factorial(2 * n)))
        for n in range(1, count + 1)
    ])


_COEF = series_coefficients()
_HALF_PI = 0.5 * np.pi
TERM_TOL = 1e-16


def lob_series(x):
    """Reference Lobachevsky function over a float64 array: the same
    reduction as the kernel, then the series summed term by term with Kahan
    compensation until a term falls below TERM_TOL."""
    x = np.asarray(x, dtype=np.float64)
    theta = x - np.rint(x / np.pi) * np.pi
    live = (theta != 0.0) & (np.abs(theta) != _HALF_PI)

    out = np.zeros_like(theta)
    if not np.any(live):
        return out

    t = theta[live]
    u = t * t
    # Kahan-compensated accumulation: main term first, then the series.
    s = t - t * np.log(2.0 * np.abs(t))
    c = np.zeros_like(t)
    p = t * u
    for coef in _COEF:
        term = coef * p
        y = term - c
        hi = s + y
        c = (hi - s) - y
        s = hi
        if np.max(np.abs(term)) < TERM_TOL:
            break
        p = p * u
    out[live] = s
    return out


def volume_sum(alpha, gamma):
    """The 15-term sum of ``tet_volume`` without its Delta test, so that it is
    defined off the gamma-sum planes, where finite differences go."""
    return 0.5 * lob(lob_arguments(alpha, gamma)).sum(axis=-1)


def volume_grad_sum(alpha, gamma):
    """The sum of ``tet_volume_grad`` without its Delta test."""
    return 0.5 * (lob_deriv(lob_arguments(alpha, gamma)) @ ARG_COEF)


def objective_sum(values):
    """The sum of ``objective_f`` without its Delta test, on a flat angle vector."""
    x = AngleSystem(values)
    return float(np.sum(volume_sum(x.alphas(), x.gammas())))


def fd_gradient(f, x, h=1e-6):
    """Central-difference gradient of a scalar function of a flat vector."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.size)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        out[i] = (f(xp) - f(xm)) / (2.0 * h)
    return out


def fd_jacobian(g, x, h=1e-6):
    """Central-difference Jacobian of a vector function of a flat vector."""
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        cols.append((g(xp) - g(xm)) / (2.0 * h))
    return np.stack(cols, axis=-1)


def single_triangle_feasible(theta, xi, eq_tol=1e-8, slack_tol=1e-9):
    """Closed-form feasibility for one unglued triangle.

    Boundary data pins everything: alpha_s = pi - theta_s and gamma_c = xi_c,
    so the instance is feasible iff the xi sum to pi and the pinned point
    satisfies every strict inequality with slack above the solver threshold.
    """
    theta = np.asarray(theta, dtype=float)
    xi = np.asarray(xi, dtype=float)
    if abs(xi.sum() - math.pi) > eq_tol:
        return False
    slacks = []
    for c in range(3):
        slacks.append(xi[c])  # gamma positivity
        slacks.append(math.pi - theta[c])  # alpha positivity
        slacks.append(theta[c] + theta[(c + 2) % 3] - math.pi - xi[c])  # Delta bound
    return min(slacks) > slack_tol


def scipy_csr(rows):
    """The scipy CSR matrix of a ``SparseRows``, from the same arrays."""
    return sparse.csr_matrix((rows.data, rows.indices, rows.indptr), shape=rows.shape)


def max_slack_highs(cs):
    """The max-slack LP of ``cs`` solved by HiGHS on its sparse rows: the
    optimal s*, or None when the equalities are inconsistent."""
    n = cs.dimension
    cost = np.zeros(n + 1)
    cost[-1] = -1.0
    res = linprog(
        cost,
        A_ub=sparse.hstack([scipy_csr(cs.g_ineq), np.ones((cs.g_ineq.shape[0], 1))]).tocsr(),
        b_ub=cs.h_ineq,
        A_eq=sparse.hstack([scipy_csr(cs.a_eq), sparse.csr_matrix((cs.a_eq.shape[0], 1))]).tocsr(),
        b_eq=cs.b_eq,
        bounds=(None, None),
        method="highs",
    )
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    return float(res.x[-1])


def permuted(cs, perm_eq, perm_ineq):
    """A row-permuted copy of ``cs``: the same polytope, a different solver path."""
    return replace(
        cs,
        a_eq=cs.a_eq[perm_eq],
        b_eq=cs.b_eq[perm_eq],
        g_ineq=cs.g_ineq[perm_ineq],
        h_ineq=cs.h_ineq[perm_ineq],
        independent_eq=cs.independent_eq[perm_eq],
        component_eq=cs.component_eq[perm_eq],
    )


def row_labels(tri):
    """The names of every equality and inequality row that
    ``build_constraints`` makes for ``tri``, one list each, spelled out
    row by row: the reference for ``is_coherent``'s names."""
    n_t, n_e, n_int = tri.triangle_count, len(tri.edge_sides), len(tri.gluings)
    labels_eq = [f"triangle {t} gamma sum" for t in range(n_t)]
    labels_eq += [f"edge {e} alpha sum" for e in range(n_int)]
    labels_eq += [f"edge {e} boundary alpha" for e in range(n_int, n_e)]
    labels_eq += [f"vertex {v} gamma sum" for v in range(tri.vertex_count)]
    labels_ineq = []
    for t in range(n_t):
        labels_ineq += [f"alpha[{t}][{s}] > 0" for s in range(3)]
        labels_ineq += [f"gamma[{t}][{c}] > 0" for c in range(3)]
    labels_ineq += [f"triangle {t} corner {c} delta bound" for t in range(n_t) for c in range(3)]
    return labels_eq, labels_ineq


def kkt_solve_reference(cs, blocks, rhs):
    """[x; lam] solving [H A^T; A 0] [x; lam] = [r; e] by ``spsolve`` of the
    whole matrix: H the block diagonal of the (T, 6, 6) ``blocks``, A the
    independent equality rows of ``cs`` and lam their multipliers.  ``rhs``
    is r, with e = 0, or r followed by the right-hand side of every equality
    row, of which e takes the independent rows."""
    n = cs.dimension
    a = scipy_csr(cs.a_eq[cs.independent_eq])
    kkt = sparse.bmat([[sparse.block_diag(list(blocks)), a.T], [a, None]], format="csc")
    full = np.zeros((kkt.shape[0],) + np.shape(rhs)[1:])
    full[:n] = rhs[:n]
    full[n:] = rhs[n:][cs.independent_eq] if len(rhs) > n else 0.0
    return spsolve(kkt, full)


def sample_coherent(cs, rng, n=1):
    """Random strictly coherent angle systems (empty list if infeasible).

    Starts from the max-slack point and perturbs within the tangent space,
    capping each step so that every strict inequality keeps at least
    ``1 - SAMPLE_SPREAD`` of the center's slack.
    """
    center = find_max_slack(cs)
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


def symmetric_torus(rho, side=1.0):
    """The one-vertex torus made of two equilateral triangles with circle
    radius rho; valid for 0 < rho < side/2."""
    tri = GluedTriangulation(2, [((0, 0), (1, 0)), ((0, 1), (1, 1)), ((0, 2), (1, 2))])
    dm = DecoratedMetric(lengths=np.full(3, float(side)), radii=np.array([float(rho)]))
    return tri, dm


def derive_vertices_loop(tri):
    """Vertex classes by a union-find over (t, c) corner tuples, ordered by
    their smallest corner, each class sorted: the reference for
    ``GluedTriangulation.vertices``."""
    parent = {(t, c): (t, c) for t in range(tri.triangle_count) for c in range(3)}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    for (t, s), (t2, s2) in tri.gluings:
        union((t, s), (t2, (s2 + 1) % 3))
        union((t, (s + 1) % 3), (t2, s2))
    classes = {}
    for corner in parent:
        classes.setdefault(find(corner), []).append(corner)
    return [sorted(classes[root]) for root in sorted(classes)]


def vertex_rows_loop(tri):
    """The vertex-class rows of ``build_constraints``, read from
    ``GluedTriangulation.vertices`` one class at a time: the row lengths, the
    columns 6t + 3 + c of their entries in order, and the component of each
    class's first corner."""
    lengths, cols, component = [], [], []
    for corners in tri.vertices:
        lengths.append(len(corners))
        cols += [6 * t + 3 + c for t, c in corners]
        component.append(int(tri.component[corners[0][0]]))
    return lengths, cols, component


def component_roots_loop(tri):
    """Per triangle, the smallest triangle index of its connected component
    of the triangle/vertex-class incidence graph, over ``derive_vertices_loop``."""
    parent = list(range(tri.triangle_count))

    def find(t):
        while parent[t] != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    for corners in derive_vertices_loop(tri):
        for t, _ in corners[1:]:
            a, b = find(corners[0][0]), find(t)
            if a != b:
                parent[max(a, b)] = min(a, b)  # roots stay the smallest index
    return [find(t) for t in range(tri.triangle_count)]


def is_connected_loop(tri):
    """Depth-first search over the gluings from triangle 0."""
    seen = {0}
    stack = [0]
    adj = {}
    for (t, _), (t2, _) in tri.gluings:
        adj.setdefault(t, set()).add(t2)
        adj.setdefault(t2, set()).add(t)
    while stack:
        t = stack.pop()
        for t2 in adj.get(t, ()):
            if t2 not in seen:
                seen.add(t2)
                stack.append(t2)
    return len(seen) == tri.triangle_count


def boundary_flags_loop(tri, vertices):
    """Per vertex class: True if a side incident to one of its corners is in
    no gluing."""
    glued = {side for pair in tri.gluings for side in pair}
    return [any((t, s) not in glued for t, c in corners for s in (c, (c + 2) % 3))
            for corners in vertices]


def corner_walks_loop(tri):
    """(corners, closed) around the vertex at every corner (t, c), keyed by
    (t, c), by crossing sides through a side -> partner dict of the gluings:
    from the boundary on, or a cycle from (t, c) at an interior vertex."""
    partner = {}
    for a, b in tri.gluings:
        partner[a], partner[b] = b, a

    def step_forward(corner):  # cross side c, land on its far end
        t2, s2 = partner.get(corner, (None, None))
        return None if t2 is None else (t2, (s2 + 1) % 3)

    def step_back(corner):  # cross side (c+2) % 3, land on its near end
        return partner.get((corner[0], (corner[1] + 2) % 3))

    def walk(start):
        closed = False
        cur = start
        while True:
            prev = step_back(cur)
            if prev is None:
                break
            if prev == start:
                cur = start
                closed = True
                break
            cur = prev
        chain = [cur]
        while True:
            nxt = step_forward(chain[-1])
            if nxt is None:
                return chain, False
            if closed and nxt == chain[0]:
                return chain, True
            chain.append(nxt)

    return {(t, c): walk((t, c)) for t in range(tri.triangle_count) for c in range(3)}


def _potential_walk(tri, gp):
    """BFS potentials on the vertex-class/triangle incidence graph.

    Returns (psi_vertex, max_cycle_residual) where psi differences along a
    class->triangle->class path accumulate the gamma-partial differences; the
    residual is the largest mismatch over non-tree incidences (one per
    fundamental cycle of the graph).
    """
    n_v = len(tri.vertices)
    n_t = tri.triangle_count
    psi_v = np.full(n_v, np.nan)
    psi_t = np.full(n_t, np.nan)
    psi_v[0] = 0.0
    queue = deque([("v", 0)])
    residual = 0.0
    corners_of_class = {v: cls for v, cls in enumerate(tri.vertices)}
    while queue:
        kind, i = queue.popleft()
        if kind == "v":
            for t, c in corners_of_class[i]:
                cand = psi_v[i] - gp[t, c]
                if math.isnan(psi_t[t]):
                    psi_t[t] = cand
                    queue.append(("t", t))
                else:
                    residual = max(residual, abs(psi_t[t] - cand))
        else:
            for c in range(3):
                v = tri.corner_class[(i, c)]
                cand = psi_t[i] + gp[i, c]
                if math.isnan(psi_v[v]):
                    psi_v[v] = cand
                    queue.append(("v", v))
                else:
                    residual = max(residual, abs(psi_v[v] - cand))
    if np.any(np.isnan(psi_v)) or np.any(np.isnan(psi_t)):
        raise PreconditionError("surface is disconnected")
    return psi_v, residual


def tangent_span_vectors(tri: GluedTriangulation):
    """The edge and cycle tangent vectors that span the coherent tangent space.

    One vector per interior edge (+1 on one side's alpha, -1 on the other's)
    plus one per fundamental cycle of the vertex/triangle incidence graph
    (alternating +-1 on gamma coordinates around the cycle).
    """
    n = 6 * tri.triangle_count
    vectors = []
    for e in tri.edges:
        if e.kind != INTERIOR:
            continue
        (t, s), (t2, s2) = e.sides
        v = np.zeros(n)
        v[6 * t + s] += 1.0
        v[6 * t2 + s2] -= 1.0
        vectors.append(v)

    # spanning tree of the bipartite incidence graph; corners are its edges
    parent = {("v", 0): None}  # node -> (parent node, connecting corner)
    queue = [("v", 0)]
    corners_of_class = {v: cls for v, cls in enumerate(tri.vertices)}
    tree_corners = set()
    while queue:
        node = queue.pop()
        if node[0] == "v":
            incident = [(("t", t), (t, c)) for t, c in corners_of_class[node[1]]]
        else:
            t = node[1]
            incident = [(("v", tri.corner_class[(t, c)]), (t, c)) for c in range(3)]
        for nxt, corner in incident:
            if nxt not in parent:
                parent[nxt] = (node, corner)
                tree_corners.add(corner)
                queue.append(nxt)

    def root_chain(node):
        """[(node, corner to parent), ..., (root, None)]"""
        chain = []
        while True:
            link = parent[node]
            if link is None:
                chain.append((node, None))
                return chain
            chain.append((node, link[1]))
            node = link[0]

    for t in range(tri.triangle_count):
        for c in range(3):
            corner = (t, c)
            if corner in tree_corners:
                continue
            # fundamental cycle: class(c) --corner-- t --tree path-- class(c)
            chain_t = root_chain(("t", t))
            chain_v = root_chain(("v", tri.corner_class[corner]))
            nodes_t = [nd for nd, _ in chain_t]
            nodes_v = [nd for nd, _ in chain_v]
            # strip the common tail above the lowest common ancestor
            ka, kb = len(chain_v) - 1, len(chain_t) - 1
            while ka > 0 and kb > 0 and nodes_v[ka - 1] == nodes_t[kb - 1]:
                ka -= 1
                kb -= 1
            # corner sequence of the closed walk starting at class(c):
            # the non-tree corner, up from t to the LCA, down from LCA to class(c)
            walk = [corner]
            walk += [cr for _, cr in chain_t[:kb]]
            walk += [cr for _, cr in reversed(chain_v[:ka])]
            # nodes alternate class/triangle; each triangle visit contributes
            # +gamma(exit corner) - gamma(entry corner)
            node = ("v", tri.corner_class[corner])
            v = np.zeros(n)
            for k, cr in enumerate(walk):
                if node[0] == "t":
                    tt = node[1]
                    entry, exit_ = walk[k - 1], cr
                    v[6 * tt + 3 + entry[1]] -= 1.0
                    v[6 * tt + 3 + exit_[1]] += 1.0
                nxt_t = ("t", cr[0])
                node = nxt_t if node[0] == "v" else ("v", tri.corner_class[cr])
            vectors.append(v)
    return np.array(vectors) if vectors else np.zeros((0, n))


def _oriented_simplices(points, simplices):
    out = []
    for a, b, c in simplices:
        pa, pb, pc = points[a], points[b], points[c]
        cross = (pb[0] - pa[0]) * (pc[1] - pa[1]) - (pb[1] - pa[1]) * (pc[0] - pa[0])
        out.append((a, b, c) if cross > 0 else (a, c, b))
    return out


def _min_angle(points, tri):
    pa, pb, pc = (np.asarray(points[v]) for v in tri)
    angs = []
    for p, q, r in ((pa, pb, pc), (pb, pc, pa), (pc, pa, pb)):
        u, v = q - p, r - p
        angs.append(math.atan2(abs(u[0] * v[1] - u[1] * v[0]), float(u @ v)))
    return min(angs)


def _glued(simplices):
    """Triangulation of counterclockwise point-index triples, with every side
    glued to the side that runs the opposite way."""
    gluings = []
    side_of = {}
    for t, tri_pts in enumerate(simplices):
        for s in range(3):
            key = (tri_pts[s], tri_pts[(s + 1) % 3])
            side_of[key] = (t, s)
    seen = set()
    for (a, b), (t, s) in side_of.items():
        if (b, a) in side_of and (b, a) not in seen:
            seen.add((a, b))
            gluings.append(((t, s), side_of[(b, a)]))
    return GluedTriangulation(len(simplices), gluings)


def _side_lengths(tri, points, simplices):
    lengths = np.empty(len(tri.edges))
    for e in tri.edges:
        t, s = e.sides[0]
        pa = points[simplices[t][s]]
        pb = points[simplices[t][(s + 1) % 3]]
        lengths[e.index] = float(np.hypot(*(pa - pb)))
    return lengths


def lattice_patch(n):
    """The (n + 1)^2 points and the 2 n^2 counterclockwise point-index
    triples of an n x n rhombic patch of the triangular lattice; point
    i + (n + 1) j is on the rim when i or j is 0 or n."""
    def vid(i, j):
        return i + (n + 1) * j

    points = np.array([[i + 0.5 * j, 0.5 * math.sqrt(3.0) * j]
                       for j in range(n + 1) for i in range(n + 1)])
    simplices = []
    for j in range(n):
        for i in range(n):
            simplices.append((vid(i, j), vid(i + 1, j), vid(i, j + 1)))
            simplices.append((vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)))
    return points, simplices


def _shortest_edges(tri, lengths):
    """Per vertex class, the length of its shortest edge."""
    t, s = tri.edge_sides[:, 0].T
    shortest = np.full(tri.vertex_count, np.inf)
    for c in (s, (s + 1) % 3):
        np.minimum.at(shortest, tri.corner_class[t, c], lengths)
    return shortest


def lattice_disk(rng, n):
    """A flat n x n rhombic patch of the triangular lattice, T = 2 n^2.

    Lattice points are moved by up to 0.08 of the spacing; each vertex
    circle gets 0.2 to 0.3 of its shortest incident edge as radius.
    """
    points, simplices = lattice_patch(n)
    points += 0.08 * rng.uniform(-1.0, 1.0, points.shape)
    tri = _glued(simplices)
    lengths = _side_lengths(tri, points, simplices)
    radii = rng.uniform(0.2, 0.3, tri.vertex_count) * _shortest_edges(tri, lengths)
    return tri, DecoratedMetric(lengths=lengths, radii=radii)


def flat_disk(points, simplices):
    """The disk of the point-index triples ``simplices``, each made
    counterclockwise, with its side lengths read off ``points`` and each
    vertex circle a quarter of its shortest incident edge; the points may
    overlap, as the drawing of a disk that wraps over itself."""
    simplices = _oriented_simplices(points, simplices)
    tri = _glued(simplices)
    lengths = _side_lengths(tri, points, simplices)
    return tri, DecoratedMetric(lengths=lengths, radii=0.25 * _shortest_edges(tri, lengths))


def _interiors_overlap(p, q, eps):
    """Strict interior overlap of two triangles via separating axes; the axes
    are unit normals, so ``eps`` is a distance."""
    for a, b in ((p, q), (q, p)):
        for s in range(3):
            edge = a[(s + 1) % 3] - a[s]
            normal = np.array([-edge[1], edge[0]]) / math.hypot(*edge)
            pa = (a - a[s]) @ normal
            pb = (b - a[s]) @ normal
            if pa.max() <= pb.min() + eps or pb.max() <= pa.min() + eps:
                return False
    return True


def first_overlapping_pair(positions):
    """Reference overlap check of a global layout: every pair of triangles,
    in lexicographic order; the first overlapping pair, or None."""
    count = len(positions)
    scale = max(float(np.max(np.abs(positions[t]))) for t in range(count))
    eps = 1e-9 * max(1.0, scale)
    for t in range(count):
        for t2 in range(t + 1, count):
            if _interiors_overlap(positions[t], positions[t2], eps):
                return t, t2
    return None


def lower_facet_violations(tri, positions, radii, tol=1e-9):
    """Global weighted-Delaunay check of a developed flat disk, brute force.

    Every vertex class v, at the first corner of its class in ``positions``
    (T, 3, 2), is lifted to (x, y, x^2 + y^2 - r_v^2).  Returns the
    triangles whose plane through their three lifted corners has some
    lifted vertex below it by more than ``tol`` times the squared size of
    the drawing: none for a weighted Delaunay triangulation, whose
    triangles are the lower facets of the lifted points.
    """
    positions = np.asarray(positions, dtype=float)
    first = np.unique(tri.corner_class.ravel(), return_index=True)[1]
    sites = positions.reshape(-1, 2)[first]
    lifted = np.column_stack([sites, np.sum(sites ** 2, axis=1) - np.asarray(radii) ** 2])
    p = lifted[tri.corner_class]  # (T, 3, 3)
    normal = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    height = np.einsum("tvk,tk->tv", lifted[None] - p[:, :1], normal) / normal[:, 2:]
    scale = max(1.0, float(np.max(np.abs(sites)))) ** 2
    return np.flatnonzero(height.min(axis=1) < -tol * scale)


def random_disk(rng, n_tri_range=(2, 6), max_attempts=400):
    """A random triangulated disk with a valid decorated metric.

    Points are drawn uniformly, Delaunay-triangulated, and rejected until the
    triangle count is in range, the triangles are well shaped, and the probe
    preconditions hold with comfortable margins.
    """
    lo, hi = n_tri_range
    for _ in range(max_attempts):
        n_pts = int(rng.integers(4, 7))
        points = rng.uniform(0.0, 1.0, (n_pts, 2))
        try:
            simplices = _oriented_simplices(points, Delaunay(points).simplices)
        except Exception:
            continue
        if not lo <= len(simplices) <= hi:
            continue
        if min(_min_angle(points, t) for t in simplices) < 0.3:
            continue

        tri = _glued(simplices)
        lengths = _side_lengths(tri, points, simplices)
        rfrac = rng.uniform(0.15, 0.3)
        radii = np.full(len(tri.vertices), np.inf)
        for e in tri.edges:
            t, s = e.sides[0]
            for c in (s, (s + 1) % 3):
                v = tri.corner_class[(t, c)]
                radii[v] = min(radii[v], rfrac * lengths[e.index])
        dm = DecoratedMetric(lengths=lengths, radii=radii)
        try:
            data, _ = probe(tri, dm)
        except Exception:
            continue
        report = verify_pattern(tri, data, dm)
        if report.min_condition_ii_margin < 0.05 or report.min_condition_i_slack < 0.05:
            continue
        return tri, dm
    raise RuntimeError("failed to generate a random disk instance")


def _reduced_hessian(blocks, basis):
    n_t = blocks.shape[0]
    hn = np.empty((6 * n_t, basis.shape[1]))
    for t in range(n_t):
        hn[6 * t:6 * t + 6] = blocks[t] @ basis[6 * t:6 * t + 6]
    return basis.T @ hn


# -- reference read-off: one triangle, one edge at a time ------------------------


def place_canonical(l12, l23, l31):
    if l12 + l23 <= l31 or l23 + l31 <= l12 or l31 + l12 <= l23:
        raise PreconditionError("triangle inequality violated")
    x = (l12 * l12 + l31 * l31 - l23 * l23) / (2.0 * l12)
    y2 = l31 * l31 - x * x
    if y2 <= 0.0:
        raise PreconditionError("degenerate triangle")
    return np.array([[0.0, 0.0], [l12, 0.0], [x, math.sqrt(y2)]])


def place_on_segment(l_sides, pa, pb):
    pa = np.asarray(pa, dtype=float)
    pb = np.asarray(pb, dtype=float)
    local = place_canonical(*l_sides)
    u = (pb - pa) / l_sides[0]
    rot = np.array([[u[0], -u[1]], [u[1], u[0]]])
    return pa + local @ rot.T


def radical_center(points, radii):
    p1, p2, p3 = (np.asarray(p, dtype=float) for p in points)
    r1, r2, r3 = radii
    A = 2.0 * np.array([p2 - p1, p3 - p1])
    b = np.array(
        [
            p2 @ p2 - p1 @ p1 - r2 * r2 + r1 * r1,
            p3 @ p3 - p1 @ p1 - r3 * r3 + r1 * r1,
        ]
    )
    center = np.linalg.solve(A, b)
    power = float((center - p1) @ (center - p1) - r1 * r1)
    return center, power


def orthocircle(l12, l23, l31, r1, r2, r3):
    points = place_canonical(l12, l23, l31)
    for (i, j, l) in ((0, 1, l12), (1, 2, l23), (2, 0, l31)):
        radii = (r1, r2, r3)
        if radii[i] + radii[j] >= l:
            raise PreconditionError("vertex circles touch or overlap")
    center, power = radical_center(points, (r1, r2, r3))
    if power <= 0.0:
        raise PreconditionError("radical center has nonpositive power; no orthocircle")
    return center, math.sqrt(power)


def _cross2(u, v):
    return float(u[0] * v[1] - u[1] * v[0])


def _signed_edge_distances(points, center):
    out = np.empty(3)
    for s in range(3):
        pa, pb = points[s], points[(s + 1) % 3]
        u = pb - pa
        out[s] = _cross2(u, center - pa) / float(np.hypot(*u))
    return out


def corner_angles(points):
    out = np.empty(3)
    for c in range(3):
        u = points[(c + 1) % 3] - points[c]
        v = points[(c + 2) % 3] - points[c]
        out[c] = math.atan2(abs(_cross2(u, v)), float(u @ v))
    return out


def read_angles(lengths, radii):
    """Angles (a12, a23, a31, g1, g2, g3) of one decorated triangle."""
    l12, l23, l31 = lengths
    r1, r2, r3 = radii
    points = place_canonical(l12, l23, l31)
    center, radius = orthocircle(l12, l23, l31, r1, r2, r3)
    h = _signed_edge_distances(points, center)
    if np.any(np.abs(h) >= radius):
        raise PreconditionError("an edge line does not meet the orthocircle")
    alpha = np.arccos(np.clip(h / radius, -1.0, 1.0))
    gamma = corner_angles(points)
    if not np.all(in_delta(alpha, gamma, closed=False)):
        raise PreconditionError("read-off angles fall outside Delta")
    return np.concatenate([alpha, gamma])


def _face_circle_on_edge(tri, dm, t, s):
    sides = dm.lengths[tri.side_edge[t]]
    radii = dm.radii[tri.corner_class[t]]
    rolled_l = np.roll(sides, -s)
    rolled_r = np.roll(radii, -s)
    points = place_canonical(*rolled_l)
    center, power = radical_center(points, rolled_r)
    if power <= 0.0:
        raise PreconditionError(f"triangle {t}: no orthocircle")
    return center[0], center[1], math.sqrt(power)


def face_circle_intersection_angle(tri, dm, edge):
    (t, s), (t2, s2) = edge.sides
    cx, h, rad = _face_circle_on_edge(tri, dm, t, s)
    cx2, h2, rad2 = _face_circle_on_edge(tri, dm, t2, s2)
    l = dm.lengths[edge.index]
    d2 = (cx - (l - cx2)) ** 2 + (h + h2) ** 2
    cosang = (rad * rad + rad2 * rad2 - d2) / (2.0 * rad * rad2)
    return math.acos(min(1.0, max(-1.0, cosang)))


def delaunay_margins(tri, dm, edge):
    (t, s), (t2, s2) = edge.sides
    l = dm.lengths[edge.index]
    margins = []
    for (ta, sa, tb, sb) in ((t, s, t2, s2), (t2, s2, t, s)):
        cx, h, rad = _face_circle_on_edge(tri, dm, ta, sa)
        far = place_on_segment(np.roll(dm.lengths[tri.side_edge[tb]], -sb),
                               (l, 0.0), (0.0, 0.0))[2]
        rho = dm.radii[tri.corner_class[tb, (sb + 2) % 3]]
        d2 = (cx - far[0]) ** 2 + (h - far[1]) ** 2
        cosang = (d2 - rad * rad - rho * rho) / (2.0 * rad * rho)
        margins.append(0.5 * math.pi - math.acos(min(1.0, max(-1.0, cosang))))
    return margins


def validate_metric(tri, dm):
    if np.any(dm.lengths <= 0.0) or np.any(dm.radii <= 0.0):
        raise PreconditionError("lengths and radii must be positive")
    for e in tri.edges:
        (t, s) = e.sides[0]
        ri = dm.radii[tri.corner_class[(t, s)]]
        rj = dm.radii[tri.corner_class[(t, (s + 1) % 3)]]
        if ri + rj >= dm.lengths[e.index]:
            raise PreconditionError(
                f"edge {e.index}: vertex circles touch or overlap "
                f"(r_i + r_j = {ri + rj:.12g} >= l = {dm.lengths[e.index]:.12g})"
            )
    for t in range(tri.triangle_count):
        l = dm.lengths[tri.side_edge[t]]
        if (l[0] + l[1] <= l[2]) or (l[1] + l[2] <= l[0]) or (l[2] + l[0] <= l[1]):
            raise PreconditionError(f"triangle {t} violates the triangle inequality")


def probe_loop(tri, dm, cross_check_tol=1e-10):
    """Reference ``probe``: the read-off one triangle and one edge at a time."""
    validate_metric(tri, dm)
    for e in tri.edges:
        if e.kind == INTERIOR:
            for m in delaunay_margins(tri, dm, e):
                if m <= 0.0:
                    raise PreconditionError(
                        f"edge {e.index}: Delaunay condition (ii) violated "
                        f"(face circle meets far vertex circle at {0.5 * math.pi - m:.6g} rad)"
                    )
    values = np.empty(6 * tri.triangle_count)
    for t in range(tri.triangle_count):
        values[6 * t:6 * t + 6] = read_angles(
            dm.lengths[tri.side_edge[t]], dm.radii[tri.corner_class[t]]
        )
    x = AngleSystem(values)
    theta = np.empty(len(tri.edges))
    for e in tri.edges:
        if e.kind == INTERIOR:
            (t, s), (t2, s2) = e.sides
            theta[e.index] = np.pi - values[6 * t + s] - values[6 * t2 + s2]
            direct = face_circle_intersection_angle(tri, dm, e)
            if abs(direct - theta[e.index]) > cross_check_tol:
                raise PreconditionError(
                    f"edge {e.index}: face-circle angle cross-check failed "
                    f"({direct:.12g} vs {theta[e.index]:.12g})"
                )
        else:
            ((t, s),) = e.sides
            theta[e.index] = np.pi - values[6 * t + s]
        if not 0.0 <= theta[e.index] < np.pi:
            raise PreconditionError(f"edge {e.index}: theta out of range [0, pi)")
    xi = np.zeros(len(tri.vertices))
    for v, corners in enumerate(tri.vertices):
        xi[v] = sum(values[6 * t + 3 + c] for t, c in corners)
    data = AngleData(theta=theta, xi=xi)
    report = is_coherent(x, build_constraints(tri, data))
    if not report.ok:
        raise PreconditionError(f"probed angle system is not coherent: {report.violations[:3]}")
    return data, x


def verify_pattern_loop(tri, data, dm):
    """Reference ``verify_pattern``: the read-off one triangle and one edge at a time."""
    values = np.empty(6 * tri.triangle_count)
    for t in range(tri.triangle_count):
        values[6 * t:6 * t + 6] = read_angles(
            dm.lengths[tri.side_edge[t]], dm.radii[tri.corner_class[t]]
        )
    theta_res = 0.0
    cond_i = math.inf
    cond_ii = 0.5 * math.pi
    for e in tri.edges:
        if e.kind == INTERIOR:
            (t, s), (t2, s2) = e.sides
            theta = np.pi - values[6 * t + s] - values[6 * t2 + s2]
            cond_ii = min(cond_ii, *delaunay_margins(tri, dm, e))
        else:
            ((t, s),) = e.sides
            theta = np.pi - values[6 * t + s]
        theta_res = max(theta_res, abs(theta - data.theta[e.index]))
        t, s = e.sides[0]
        ri = dm.radii[tri.corner_class[(t, s)]]
        rj = dm.radii[tri.corner_class[(t, (s + 1) % 3)]]
        cond_i = min(cond_i, (dm.lengths[e.index] - ri - rj) / dm.lengths[e.index])
    xi_res = 0.0
    for v, corners in enumerate(tri.vertices):
        xi = sum(values[6 * t + 3 + c] for t, c in corners)
        xi_res = max(xi_res, abs(xi - data.xi[v]))
    return PatternReport(
        max_theta_residual=float(theta_res),
        max_xi_residual=float(xi_res),
        min_condition_i_slack=float(cond_i),
        min_condition_ii_margin=float(cond_ii),
    )


# -- reference global development: one triangle at a time ----------------------


def develop_loop(tri, dm):
    """Reference global development of a flat disk, positions (T, 3, 2).

    Triangle 0 is placed with its longest side on the positive x axis,
    starting at the origin; breadth-first from it, each triangle is placed
    on the already placed copy of the side it shares with its parent.
    """
    sides = dm.lengths[tri.side_edge[0]]
    k = int(np.argmax(sides))
    developed = {0: np.roll(place_canonical(*np.roll(sides, -k)), k, axis=0)}
    queue = deque([0])
    while queue:
        t = queue.popleft()
        for s in range(3):
            edge = tri.edges[tri.side_edge[t, s]]
            if edge.kind != INTERIOR:
                continue
            side_a, side_b = edge.sides
            t2, s2 = side_b if side_a == (t, s) else side_a
            if t2 in developed:
                continue
            pa, pb = developed[t][(s + 1) % 3], developed[t][s]
            rolled = place_on_segment(np.roll(dm.lengths[tri.side_edge[t2]], -s2), pa, pb)
            developed[t2] = np.roll(rolled, s2, axis=0)
            queue.append(t2)
    return np.array([developed[t] for t in range(tri.triangle_count)])


def _across(rot, shift, rotation, translation, near_is_target):
    """The isometry (rot, shift) of the chart on the near side of an edge,
    extended to the chart on the far side: composed with the edge's
    transition when the near chart is its target, else with its inverse."""
    if not near_is_target:
        rotation, translation = rotation.T, -rotation.T @ translation
    return rot @ rotation, rot @ translation + shift


def develop_composed_loop(tri, positions, rot, trans):
    """Reference for ``layout._develop``, one triangle at a time: each chart
    of ``positions`` moved by the transitions ``rot``, ``trans`` composed
    along the spanning forest, in ``forest_order``."""
    moves = [None] * tri.triangle_count
    moves[0] = (np.eye(2), np.zeros(2))
    # side 3t + s of every edge's target, the first side of its gluing
    target = (3 * tri.edge_sides[:, 0, 0] + tri.edge_sides[:, 0, 1]).tolist()
    side_edge, parent = tri.side_edge.ravel().tolist(), tri.parent_corner.tolist()
    for t in tri.forest_order[1:].tolist():
        x = parent[t]
        e = side_edge[x]
        moves[t] = _across(*moves[x // 3], rot[e], trans[e], target[e] == x)
    rotation, translation = map(np.array, zip(*moves))
    return positions @ np.swapaxes(rotation, 1, 2) + translation[:, None, :]


# -- holonomy: the transitions composed around a vertex -------------------------


@dataclass
class HolonomyReport:
    """Loop composition of transitions around an interior vertex.

    ``rotation``/``translation`` form the closure isometry (a rotation by the
    cone angle mod 2pi about the vertex image, so identity at a flat vertex);
    ``cone_angle`` is the unwrapped total turning of the developed corner
    wedges; ``vertex_drift`` is how far the vertex image moved during the
    development (zero when the transitions are exact).
    """

    rotation: np.ndarray
    translation: np.ndarray
    cone_angle: float
    vertex_drift: float


def vertex_holonomy(tri, layout, t, c):
    """Develop the charts of ``layout`` once around the vertex at corner
    (t, c): its transitions composed along the corner walk, each as the
    global development composes it."""
    walk, closed = corner_walks_loop(tri)[(t, c)]
    if not closed:
        raise PreconditionError("holonomy is defined for interior vertices only")
    _check_fits(tri, layout)
    rot, shift, total, images = np.eye(2), np.zeros(2), 0.0, []
    for tk, ck in walk:
        vertices = layout.vertices[tk]
        images.append(rot @ vertices[ck] + shift)
        total += corner_angles(vertices)[ck]
        e = tri.side_edge[tk, ck]
        near_is_target = layout.sides[e, 0].tolist() == [tk, ck]
        rot, shift = _across(rot, shift, layout.rotation[e], layout.translation[e], near_is_target)
    drift = max(float(np.hypot(*(p - images[0]))) for p in images)
    return HolonomyReport(rotation=rot, translation=shift, cone_angle=total, vertex_drift=drift)


# -- reference SVG export: one chart at a time ---------------------------------


def _fmt(x):
    return format(float(x), ".9g")


def export_svg_loop(tri, cl):
    """Reference SVG export, one chart at a time: per-chart bounding boxes
    and pixel coordinates, and a set of the vertex classes already drawn.
    Chart k, triangle k, is read from the layout's arrays by index."""
    n = len(cl.vertices)
    if not n:
        raise PreconditionError("layout has no charts")

    def chart_bbox(k):
        vertices, center, radius = cl.vertices[k], cl.face_center[k], cl.face_radius[k]
        rad = max(float(radius), float(np.max(cl.vertex_radii[k])))
        lo = np.minimum(vertices.min(axis=0), center - radius)
        hi = np.maximum(vertices.max(axis=0), center + radius)
        lo = np.minimum(lo, (vertices - rad).min(axis=0))
        hi = np.maximum(hi, (vertices + rad).max(axis=0))
        return lo, hi

    shifts = {}
    if cl.mode == ATLAS:
        boxes = [chart_bbox(k) for k in range(n)]
        cell = np.max([hi - lo for lo, hi in boxes], axis=0) * 1.1
        cols = max(1, math.ceil(math.sqrt(n)))
        for k in range(n):
            lo, _ = boxes[k]
            cellpos = np.array([(k % cols) * cell[0], (k // cols) * cell[1]])
            shifts[k] = cellpos - lo
    else:
        for k in range(n):
            shifts[k] = np.zeros(2)

    lo = np.full(2, np.inf)
    hi = np.full(2, -np.inf)
    for k in range(n):
        blo, bhi = chart_bbox(k)
        lo = np.minimum(lo, blo + shifts[k])
        hi = np.maximum(hi, bhi + shifts[k])
    width = (hi[0] - lo[0]) * SCALE + 2 * MARGIN
    height = (hi[1] - lo[1]) * SCALE + 2 * MARGIN

    def to_px(p, shift):
        q = (np.asarray(p) + shift - lo) * SCALE
        return q[0] + MARGIN, height - MARGIN - q[1]

    out = io.StringIO()
    out.write(
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">\n'
    )

    def chart_elements(k, indent, drawn_vertices=None):
        """SVG lines of chart k; with ``drawn_vertices``, a vertex circle
        whose vertex class is in the set is skipped, otherwise added to it."""
        shift = shifts[k]
        pts = [to_px(p, shift) for p in cl.vertices[k]]
        d = (
            f"M {_fmt(pts[0][0])} {_fmt(pts[0][1])} "
            f"L {_fmt(pts[1][0])} {_fmt(pts[1][1])} "
            f"L {_fmt(pts[2][0])} {_fmt(pts[2][1])} Z"
        )
        lines = [
            f'{indent}<path d="{d}" fill="none" stroke="{TRIANGLE_COLOR}" '
            f'stroke-width="{_fmt(STROKE_WIDTH)}"/>'
        ]
        for c in range(3):
            if drawn_vertices is not None:
                vclass = tri.corner_class[(k, c)]
                if vclass in drawn_vertices:
                    continue
                drawn_vertices.add(vclass)
            cx, cy = pts[c]
            lines.append(
                f'{indent}<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" '
                f'r="{_fmt(cl.vertex_radii[k, c] * SCALE)}" fill="none" '
                f'stroke="{VERTEX_CIRCLE_COLOR}" stroke-width="{_fmt(STROKE_WIDTH)}"/>'
            )
        fx, fy = to_px(cl.face_center[k], shift)
        lines.append(
            f'{indent}<circle cx="{_fmt(fx)}" cy="{_fmt(fy)}" '
            f'r="{_fmt(cl.face_radius[k] * SCALE)}" fill="none" '
            f'stroke="{FACE_CIRCLE_COLOR}" stroke-width="{_fmt(STROKE_WIDTH)}" '
            'stroke-dasharray="4 3"/>'
        )
        return lines

    if cl.mode == ATLAS:
        for k in range(n):
            out.write(f'  <g class="chart" id="chart-{k}">\n')
            for line in chart_elements(k, "    "):
                out.write(line + "\n")
            sx, sy = to_px(cl.vertices[k].mean(axis=0), shifts[k])
            out.write(
                f'    <text x="{_fmt(sx)}" y="{_fmt(sy)}" font-size="12" '
                f'text-anchor="middle">t{k}</text>\n'
            )
            out.write("  </g>\n")
        for e in range(len(cl.sides)):
            (target, _), (source, _) = cl.sides[e]
            deg = math.degrees(math.atan2(cl.rotation[e, 1, 0], cl.rotation[e, 0, 0]))
            out.write(
                f'  <text x="{_fmt(MARGIN)}" y="{_fmt(14 * (e + 1))}" font-size="11">'
                f"edge {e}: chart {source} &#8594; chart {target}, "
                f"rot {_fmt(deg)}&#176;</text>\n"
            )
    else:
        drawn_vertices = set()
        for k in range(n):
            for line in chart_elements(k, "  ", drawn_vertices):
                out.write(line + "\n")
    out.write("</svg>\n")
    return out.getvalue()
