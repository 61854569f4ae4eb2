"""Independent oracles and random-instance generators used across the tests.

Everything here deliberately avoids the code paths it is used to check: the
Lobachevsky oracles integrate the defining integral (singular parts split off
in closed form, Gauss-Legendre for the smooth remainder) or sum its series
term by term with coefficients from exact Bernoulli numbers, derivatives come
from central differences, and feasibility of pinned instances from the
closed-form slack analysis.
"""

import math
from fractions import Fraction

import numpy as np
from scipy.spatial import Delaunay

from hyperideal.coherent import AngleSystem, build_constraints, is_coherent
from hyperideal.energy import in_delta
from hyperideal.errors import PreconditionError
from hyperideal.pattern import DecoratedMetric, PatternReport, probe, verify_pattern
from hyperideal.surface import INTERIOR, AngleData, GluedTriangulation

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


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


def symmetric_torus(rho, side=1.0):
    """The one-vertex torus made of two equilateral triangles with circle
    radius rho; valid for 0 < rho < side/2."""
    tri = GluedTriangulation(2, [((0, 0), (1, 0)), ((0, 1), (1, 1)), ((0, 2), (1, 2))])
    dm = DecoratedMetric(lengths=np.full(3, float(side)), radii=np.array([float(rho)]))
    return tri, dm


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


def lattice_disk(rng, n):
    """A flat n x n rhombic patch of the triangular lattice, T = 2 n^2.

    Lattice points are moved by up to 0.08 of the spacing; each vertex
    circle gets 0.2 to 0.3 of its shortest incident edge as radius.
    """
    def vid(i, j):
        return i + (n + 1) * j

    points = np.array([[i + 0.5 * j, 0.5 * math.sqrt(3.0) * j]
                       for j in range(n + 1) for i in range(n + 1)])
    points += 0.08 * rng.uniform(-1.0, 1.0, points.shape)
    simplices = []
    for j in range(n):
        for i in range(n):
            simplices.append((vid(i, j), vid(i + 1, j), vid(i, j + 1)))
            simplices.append((vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)))
    tri = _glued(simplices)
    lengths = _side_lengths(tri, points, simplices)
    shortest = np.full(len(tri.vertices), np.inf)
    for e in tri.edges:
        t, s = e.sides[0]
        for c in (s, (s + 1) % 3):
            v = tri.corner_class[(t, c)]
            shortest[v] = min(shortest[v], lengths[e.index])
    radii = rng.uniform(0.2, 0.3, len(tri.vertices)) * shortest
    return tri, DecoratedMetric(lengths=lengths, radii=radii)


def _interiors_overlap(p, q, eps):
    """Strict interior overlap of two triangles via separating axes."""
    for a, b in ((p, q), (q, p)):
        for s in range(3):
            edge = a[(s + 1) % 3] - a[s]
            normal = np.array([-edge[1], edge[0]])
            pa = (a - a[s]) @ normal
            pb = (b - a[s]) @ normal
            if pa.max() <= pb.min() + eps or pb.max() <= pa.min() + eps:
                return False
    return True


def first_overlapping_pair(positions):
    """Reference overlap check of a global layout: every pair of triangles,
    in lexicographic order; the first overlapping pair, or None."""
    scale = max(float(np.max(np.abs(positions[t]))) for t in positions)
    eps = 1e-9 * max(1.0, scale)
    count = len(positions)
    for t in range(count):
        for t2 in range(t + 1, count):
            if _interiors_overlap(positions[t], positions[t2], eps):
                return t, t2
    return None


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
    sides = dm.triangle_sides(tri, t)
    radii = dm.corner_radii(tri, t)
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
        far = place_on_segment(np.roll(dm.triangle_sides(tri, tb), -sb),
                               (l, 0.0), (0.0, 0.0))[2]
        rho = dm.corner_radii(tri, tb)[(sb + 2) % 3]
        d2 = (cx - far[0]) ** 2 + (h - far[1]) ** 2
        cosang = (d2 - rad * rad - rho * rho) / (2.0 * rad * rho)
        if abs(cosang) > 1.0:
            margins.append(0.5 * math.pi)
        else:
            margins.append(0.5 * math.pi - math.acos(cosang))
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
        l = dm.triangle_sides(tri, t)
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
            dm.triangle_sides(tri, t), dm.corner_radii(tri, t)
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
            dm.triangle_sides(tri, t), dm.corner_radii(tri, t)
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
