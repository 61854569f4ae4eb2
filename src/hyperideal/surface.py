"""Triangulated surfaces given as triangles plus side gluings.

Combinatorial conventions:

* triangles are indexed 0..T-1, corners and sides 0..2;
* side ``s`` of a triangle has endpoint corners ``s`` and ``(s+1) % 3``;
* a gluing of side (t, s) to (t2, s2) identifies corner ``s`` of ``t`` with
  corner ``(s2+1) % 3`` of ``t2`` and corner ``(s+1) % 3`` of ``t`` with
  corner ``s2`` of ``t2`` (sides are matched with opposite direction, which
  keeps the gluing orientation-compatible).

Vertices are equivalence classes of corners and are always derived from the
gluings, never user-supplied; this is what makes non-regular triangulations
(such as the one-vertex torus) unproblematic.  Instances should be treated as
immutable after construction.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import SchemaError, SurfaceError

INTERIOR = "interior"
BOUNDARY = "boundary"


@dataclass(frozen=True)
class Edge:
    """One edge of the glued surface: a gluing (interior) or a free side (boundary)."""

    index: int
    kind: str
    sides: tuple  # ((t, s),) for boundary, ((t, s), (t2, s2)) for interior


class GluedTriangulation:
    """Triangles plus side gluings, with derived edges and vertex classes."""

    def __init__(self, triangle_count, gluings, vertices=None):
        if triangle_count < 1:
            raise SurfaceError("need at least one triangle")
        self.triangle_count = int(triangle_count)
        self.gluings = tuple(
            (tuple(a), tuple(b)) for a, b in gluings
        )
        self._check_gluings()
        self.edges = self._derive_edges()
        # (E, 2, 2): the sides (t, s) of every edge in edge order, a boundary
        # edge's one side twice; the interior rows are the gluings
        self.edge_sides = np.array([(e.sides * 2)[:2] for e in self.edges])
        # (T, 3) lookups side (t, s) -> edge and corner (t, c) -> vertex class;
        # -1 marks a corner that a user-supplied partition leaves out
        self.side_edge = np.full((self.triangle_count, 3), -1)
        self.side_edge[self.edge_sides[..., 0], self.edge_sides[..., 1]] = \
            np.arange(len(self.edges))[:, None]
        derived = self._derive_vertices()
        self.vertices = tuple(tuple(c) for c in (derived if vertices is None else vertices))
        self.corner_class = np.full((self.triangle_count, 3), -1)
        for v, corners in enumerate(self.vertices):
            for c in corners:
                self.corner_class[c] = v

    # -- construction helpers -------------------------------------------------

    def _check_gluings(self):
        seen = set()
        for a, b in self.gluings:
            for t, s in (a, b):
                if not (0 <= t < self.triangle_count) or s not in (0, 1, 2):
                    raise SurfaceError(f"gluing references invalid side {(t, s)}")
            if a == b:
                raise SurfaceError(f"side {a} glued to itself")
            for side in (a, b):
                if side in seen:
                    raise SurfaceError(f"side {side} appears in two gluings")
                seen.add(side)

    def _derive_edges(self):
        edges = []
        glued = set()
        for a, b in self.gluings:
            edges.append(Edge(len(edges), INTERIOR, (a, b)))
            glued.add(a)
            glued.add(b)
        for t in range(self.triangle_count):
            for s in range(3):
                if (t, s) not in glued:
                    edges.append(Edge(len(edges), BOUNDARY, ((t, s),)))
        return tuple(edges)

    def _derive_vertices(self):
        parent = {(t, c): (t, c) for t in range(self.triangle_count) for c in range(3)}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x, y):
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[max(rx, ry)] = min(rx, ry)

        for (t, s), (t2, s2) in self.gluings:
            union((t, s), (t2, (s2 + 1) % 3))
            union((t, (s + 1) % 3), (t2, s2))
        classes = {}
        for corner in parent:
            classes.setdefault(find(corner), []).append(corner)
        return [sorted(classes[root]) for root in sorted(classes)]

    # -- queries ---------------------------------------------------------------

    @property
    def interior_edges(self):
        return [e for e in self.edges if e.kind == INTERIOR]

    @property
    def boundary_edges(self):
        return [e for e in self.edges if e.kind == BOUNDARY]

    def vertex_is_boundary(self, v):
        """True if some side incident to vertex class ``v`` is unglued."""
        for t, c in self.vertices[v]:
            for s in (c, (c + 2) % 3):
                if self.edges[self.side_edge[(t, s)]].kind == BOUNDARY:
                    return True
        return False

    def euler_characteristic(self):
        return len(self.vertices) - len(self.edges) + self.triangle_count

    def is_disk(self):
        """Connected, genus 0, one boundary component (checked via chi = 1)."""
        return self.euler_characteristic() == 1 and len(self.boundary_edges) > 0 \
            and self._is_connected()

    def _is_connected(self):
        seen = {0}
        stack = [0]
        adj = {}
        for (t, _), (t2, _) in self.gluings:
            adj.setdefault(t, set()).add(t2)
            adj.setdefault(t2, set()).add(t)
        while stack:
            t = stack.pop()
            for t2 in adj.get(t, ()):
                if t2 not in seen:
                    seen.add(t2)
                    stack.append(t2)
        return len(seen) == self.triangle_count

    def _cross(self, out_side, from_first):
        """Corner reached by crossing ``out_side``; None at the boundary."""
        edge = self.edges[self.side_edge[out_side]]
        if edge.kind == BOUNDARY:
            return None
        a, b = edge.sides
        t2, s2 = b if out_side == a else a
        return (t2, (s2 + 1) % 3) if from_first else (t2, s2)

    def step_forward(self, corner):
        """Next corner counterclockwise around the vertex (cross side ``c``)."""
        t, c = corner
        return self._cross((t, c), from_first=True)

    def step_back(self, corner):
        """Previous corner around the vertex (cross side ``(c+2) % 3``)."""
        t, c = corner
        return self._cross((t, (c + 2) % 3), from_first=False)

    def boundary_cycles(self):
        """Directed boundary sides grouped into cycles (surface on the left).

        The successor of a boundary side is found by walking the corner chain
        around its head vertex to the corner whose forward side is unglued.
        """
        remaining = {e.sides[0] for e in self.edges if e.kind == BOUNDARY}
        cycles = []
        while remaining:
            start = min(remaining)
            remaining.remove(start)
            cycle = [start]
            cur = start
            while True:
                t, s = cur
                chain, _ = self.corner_walk(t, (s + 1) % 3)
                nxt = chain[-1]
                if nxt == start:
                    break
                cycle.append(nxt)
                remaining.remove(nxt)
                cur = nxt
            cycles.append(cycle)
        return cycles

    def corner_walk(self, t, c):
        """Corners around the vertex at (t, c), ordered; returns (corners, closed).

        For a boundary vertex the chain starts at the boundary, so it covers
        the class in order; for an interior vertex the cycle starts at (t, c).
        """
        start = (t, c)
        closed = False
        cur = start
        while True:
            prev = self.step_back(cur)
            if prev is None:
                break
            if prev == start:
                cur = start
                closed = True
                break
            cur = prev
        chain = [cur]
        while True:
            nxt = self.step_forward(chain[-1])
            if nxt is None:
                return chain, False
            if closed and nxt == chain[0]:
                return chain, True
            chain.append(nxt)
            if len(chain) > 3 * self.triangle_count:
                raise SurfaceError("corner walk failed to terminate")


@dataclass(frozen=True)
class AngleData:
    """Problem data: intersection angles per edge, total corner angle per vertex."""

    theta: np.ndarray  # per edge index, radians
    xi: np.ndarray  # per vertex class, radians

    def validate(self, tri: GluedTriangulation):
        if len(self.theta) != len(tri.edges):
            raise SchemaError("theta must have one entry per edge")
        if len(self.xi) != len(tri.vertices):
            raise SchemaError("xi must have one entry per vertex class")
        for e in tri.edges:
            th = self.theta[e.index]
            if not np.isfinite(th):
                raise SchemaError(f"theta at edge {e.index} is not finite")
            if e.kind == INTERIOR and not 0.0 <= th < math.pi:
                raise SchemaError(f"interior theta at edge {e.index} outside [0, pi)")
            if e.kind == BOUNDARY and not 0.0 < th < math.pi:
                raise SchemaError(f"boundary theta at edge {e.index} outside (0, pi)")
        if not np.all(np.isfinite(self.xi)) or np.any(self.xi <= 0.0):
            raise SchemaError("xi entries must be finite and positive")


def parse_problem(text):
    """Parse a problem file; returns (GluedTriangulation, AngleData)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"problem file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("problem file must be a JSON object")
    for key in ("triangles", "gluings", "theta", "xi"):
        if key not in doc:
            raise SchemaError(f"problem file is missing key {key!r}")
    try:
        gluings = [(tuple(g["a"]), tuple(g["b"])) for g in doc["gluings"]]
    except (TypeError, KeyError) as exc:
        raise SchemaError("each gluing needs 'a': [t, s] and 'b': [t2, s2]") from exc
    try:
        tri = GluedTriangulation(int(doc["triangles"]), gluings)
    except SurfaceError:
        raise
    theta_doc = doc["theta"]
    if not isinstance(theta_doc, dict) or set(theta_doc) - {"interior", "boundary"}:
        raise SchemaError("theta must be {'interior': [...], 'boundary': [...]}")
    interior = [float(x) for x in theta_doc.get("interior", [])]
    boundary = [float(x) for x in theta_doc.get("boundary", [])]
    n_int = len(tri.interior_edges)
    n_bdy = len(tri.boundary_edges)
    if len(interior) != n_int:
        raise SchemaError(f"theta.interior has {len(interior)} entries, expected {n_int}")
    if len(boundary) != n_bdy:
        raise SchemaError(f"theta.boundary has {len(boundary)} entries, expected {n_bdy}")
    theta = np.array(interior + boundary, dtype=float)
    xi = np.array([float(x) for x in doc["xi"]], dtype=float)
    data = AngleData(theta=theta, xi=xi)
    data.validate(tri)
    return tri, data


def problem_dict(tri, data):
    """JSON-able problem document for (tri, data), inverse of parse_problem."""
    n_int = len(tri.interior_edges)
    return {
        "triangles": tri.triangle_count,
        "gluings": [{"a": list(a), "b": list(b)} for a, b in tri.gluings],
        "theta": {
            "interior": [float(x) for x in data.theta[:n_int]],
            "boundary": [float(x) for x in data.theta[n_int:]],
        },
        "xi": [float(x) for x in data.xi],
    }


def validate_surface(tri):
    """Diagnostics report: list of invariant violations (empty iff valid)."""
    violations = []
    seen = set()
    for a, b in tri.gluings:
        if a == b:
            violations.append(f"side {a} glued to itself")
        for side in (a, b):
            if side in seen:
                violations.append(f"side {side} appears in two gluings")
            seen.add(side)
    corners = [(t, c) for t in range(tri.triangle_count) for c in range(3)]
    claimed = [c for cls in tri.vertices for c in cls]
    if sorted(claimed) != corners:
        violations.append("vertex classes do not partition the corners")
    if not violations:
        derived = GluedTriangulation(tri.triangle_count, tri.gluings).vertices
        if set(map(frozenset, tri.vertices)) != set(map(frozenset, derived)):
            for cls in tri.vertices:
                if frozenset(cls) not in set(map(frozenset, derived)):
                    violations.append(
                        f"non-manifold vertex: corners {sorted(cls)} do not form a "
                        "single chain or cycle under side adjacency"
                    )
    n_int, n_bdy = len(tri.interior_edges), len(tri.boundary_edges)
    if n_int != len(tri.gluings):
        violations.append("interior edge count differs from gluing count")
    if n_bdy != 3 * tri.triangle_count - 2 * len(tri.gluings):
        violations.append("boundary edge count is inconsistent")
    return violations
