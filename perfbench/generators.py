"""Seeded instances with a known answer.

Every instance is an explicit decorated metric: one length per edge and one
vertex-circle radius per vertex class, read off jittered points of the
triangular lattice or of a random Delaunay disk.  ``probe`` turns it into
problem data, so the pattern a solve must return is the metric itself, up
to scale.  The same ``numpy.random.Generator`` state gives the same instance.
"""

import math

import numpy as np
from scipy.spatial import Delaunay

from hyperideal.errors import PreconditionError
from hyperideal.pattern import DecoratedMetric, probe, verify_pattern
from hyperideal.surface import GluedTriangulation

JITTER = 0.08  # of the lattice spacing
RADIUS_FRACTION = (0.2, 0.3)  # of the shortest incident edge


def _lattice_point(i, j):
    return np.array([i + 0.5 * j, 0.5 * math.sqrt(3.0) * j])


def _lattice_triangles(n):
    """Corner (i, j) triples of an n x n rhombic lattice patch, counterclockwise."""
    out = []
    for j in range(n):
        for i in range(n):
            a, b, c, d = (i, j), (i + 1, j), (i, j + 1), (i + 1, j + 1)
            out.append((a, b, c))
            out.append((b, d, c))
    return out


def _glue(corner_ids):
    """Triangulation whose sides with opposite vertex pairs are glued.

    ``corner_ids[t][c]`` is the vertex of corner ``c`` of triangle ``t``; a
    vertex pair must name at most one edge.
    """
    side_of = {}
    for t, ids in enumerate(corner_ids):
        for s in range(3):
            side_of[(ids[s], ids[(s + 1) % 3])] = (t, s)
    gluings = [
        (side, side_of[(b, a)])
        for (a, b), side in side_of.items()
        if (b, a) in side_of and a < b
    ]
    gluings.sort()
    tri = GluedTriangulation(len(corner_ids), gluings)
    if len(tri.vertices) != len({v for ids in corner_ids for v in ids}) or any(
        len({corner_ids[t][c] for t, c in cls}) != 1 for cls in tri.vertices
    ):
        raise ValueError("gluing does not reproduce the vertex ids")
    return tri


def _radii(rng, tri, lengths):
    shortest = np.full(len(tri.vertices), np.inf)
    for e in tri.edges:
        t, s = e.sides[0]
        for c in (s, (s + 1) % 3):
            v = tri.corner_class[(t, c)]
            shortest[v] = min(shortest[v], lengths[e.index])
    return rng.uniform(*RADIUS_FRACTION, len(tri.vertices)) * shortest


def _metric_from_points(rng, tri, corner_points):
    """Decorated metric of a triangulation drawn with ``corner_points[t][c]``."""
    lengths = np.empty(len(tri.edges))
    for e in tri.edges:
        t, s = e.sides[0]
        lengths[e.index] = float(np.hypot(*(corner_points[t][(s + 1) % 3] - corner_points[t][s])))
    return DecoratedMetric(lengths=lengths, radii=_radii(rng, tri, lengths))


def lattice_torus(rng, n, cone=False):
    """Periodic n x n lattice torus, T = 2 n^2, n >= 3.

    Flat: vertices jittered periodically, so every cone angle is 2 pi.
    Cone: unit lattice lengths jittered independently per edge, so the cone
    angles differ from 2 pi while their sum stays pi T.
    """
    if n < 3:
        raise ValueError("a lattice torus needs n >= 3")
    cells = _lattice_triangles(n)
    corner_ids = [tuple((i % n) + n * (j % n) for i, j in cell) for cell in cells]
    tri = _glue(corner_ids)
    if cone:
        lengths = 1.0 + JITTER * rng.uniform(-1.0, 1.0, len(tri.edges))
        return tri, DecoratedMetric(lengths=lengths, radii=_radii(rng, tri, lengths))
    jitter = JITTER * rng.uniform(-1.0, 1.0, (n * n, 2))
    points = [
        [_lattice_point(i, j) + jitter[(i % n) + n * (j % n)] for i, j in cell]
        for cell in cells
    ]
    return tri, _metric_from_points(rng, tri, points)


def lattice_disk(rng, n):
    """Flat n x n rhombic lattice disk with jittered vertices, T = 2 n^2."""
    cells = _lattice_triangles(n)
    corner_ids = [tuple(i + (n + 1) * j for i, j in cell) for cell in cells]
    tri = _glue(corner_ids)
    jitter = JITTER * rng.uniform(-1.0, 1.0, ((n + 1) * (n + 1), 2))
    points = [
        [_lattice_point(i, j) + jitter[i + (n + 1) * j] for i, j in cell]
        for cell in cells
    ]
    return tri, _metric_from_points(rng, tri, points)


def _near_equilateral(rng):
    return 1.0 + 0.15 * rng.uniform(-1.0, 1.0, 3)


def single_triangle(rng):
    """One unglued triangle: the data pin every angle (tangent dimension 0)."""
    tri = GluedTriangulation(1, [])
    lengths = _near_equilateral(rng)
    return tri, DecoratedMetric(lengths=lengths, radii=_radii(rng, tri, lengths))


def one_vertex_torus(rng):
    """Two congruent triangles glued side to side: a flat one-vertex torus."""
    tri = GluedTriangulation(2, [((0, 0), (1, 0)), ((0, 1), (1, 1)), ((0, 2), (1, 2))])
    lengths = _near_equilateral(rng)
    return tri, DecoratedMetric(lengths=lengths, radii=_radii(rng, tri, lengths))


def _min_angle(pts):
    out = math.pi
    for k in range(3):
        u, v = pts[(k + 1) % 3] - pts[k], pts[(k + 2) % 3] - pts[k]
        out = min(out, math.atan2(abs(u[0] * v[1] - u[1] * v[0]), float(u @ v)))
    return out


def delaunay_disk(rng, n_tri_range=(4, 8), max_attempts=4000):
    """Delaunay triangulation of random points, rejected until it has
    ``n_tri_range`` triangles, no angle below 0.3 rad and comfortable
    margins in both probe preconditions."""
    lo, hi = n_tri_range
    for _ in range(max_attempts):
        points = rng.uniform(0.0, 1.0, (int(rng.integers(5, 10)), 2))
        simplices = []
        for a, b, c in Delaunay(points).simplices:
            u, v = points[b] - points[a], points[c] - points[a]
            simplices.append((a, b, c) if u[0] * v[1] - u[1] * v[0] > 0 else (a, c, b))
        if not lo <= len(simplices) <= hi:
            continue
        corner_points = [points[list(s)] for s in simplices]
        if min(_min_angle(p) for p in corner_points) < 0.3:
            continue
        tri = _glue([tuple(int(v) for v in s) for s in simplices])
        dm = _metric_from_points(rng, tri, corner_points)
        try:
            data, _ = probe(tri, dm)
        except PreconditionError:  # the draw breaks condition (i) or (ii)
            continue
        report = verify_pattern(tri, data, dm)
        if min(report.min_condition_i_slack, report.min_condition_ii_margin) >= 0.05:
            return tri, dm
    raise RuntimeError("no Delaunay disk met the margins")


def tiny_set(rng, rounds):
    """``rounds`` of: a pinned triangle, a one-vertex torus, two Delaunay
    disks and the 8-triangle lattice disk.

    Two disks per round put the median operation inside one instance kind
    rather than on the gap between two kinds; their triangle counts cycle
    through 4..8, so every seed gets the same mix of sizes.
    """
    out = []
    sizes = iter(range(2 * rounds))
    for _ in range(rounds):
        out.append(single_triangle(rng))
        out.append(one_vertex_torus(rng))
        for _ in range(2):
            count = 4 + next(sizes) % 5
            out.append(delaunay_disk(rng, (count, count)))
        out.append(lattice_disk(rng, 2))
    return out
