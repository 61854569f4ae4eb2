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
(such as the one-vertex torus) unproblematic.  ``GluedTriangulation`` reads
the gluings once into one corner-adjacency array (``forward``: the corner
reached by crossing a side) and derives the edge sides, the vertex classes,
their boundary flags and one spanning forest of the gluings from it.  The
forest gives the connected components; the vertex potentials (``pattern``)
and the flat-disk development (``layout``) are integrated along it.
Instances should be treated as immutable after construction.
"""

import json
import math
from dataclasses import dataclass
from functools import cached_property

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


def _min_labels(n, pairs):
    """The smallest element of each element's class under ``pairs`` of
    0..n-1, as a list.

    Union-find in which every link points to a smaller element, so each root
    is its class minimum and one ascending pass leaves every element on its
    root.
    """
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for a, b in pairs:
        a, b = find(a), find(b)
        if a < b:
            parent[b] = a
        elif b < a:
            parent[a] = b
    for x in range(n):
        parent[x] = parent[parent[x]]
    return parent


def _surface_faults(triangle_count, gluings):
    """One message per fault of the triangle count and the gluings: no
    triangle, a side out of range, a side glued to itself, a side in two
    gluings."""
    if triangle_count < 1:
        yield "need at least one triangle"
    seen = set()
    for a, b in gluings:
        for t, s in (a, b):
            if not (0 <= t < triangle_count) or s not in (0, 1, 2):
                yield f"gluing references invalid side {(t, s)}"
        if a == b:
            yield f"side {a} glued to itself"
        for side in (a, b):
            if side in seen:
                yield f"side {side} appears in two gluings"
            seen.add(side)


class GluedTriangulation:
    """Triangles plus side gluings, with derived edges, vertex classes and one
    spanning forest.

    Corner ``c`` and side ``s`` of triangle ``t`` are numbered ``3t + c`` and
    ``3t + s`` in the flat arrays.  ``forward[3t + c]`` is the corner reached
    by crossing side ``c`` (the next corner counterclockwise around the
    vertex), -1 where that side is unglued, and ``backward`` is its inverse.
    Everything combinatorial is read from the gluings once:

    * ``edge_sides`` (E, 2, 2): the sides (t, s) of every edge, the gluings
      in order, then every unglued side, twice, in (t, s) order;
      ``side_edge`` (T, 3) is its inverse; the ``Edge`` objects of ``edges``
      are made from it on first use;
    * ``vertices``: the corner classes that ``forward`` links, ordered by
      their smallest corner, each class sorted; ``corner_class`` (T, 3)
      indexes them and ``boundary_vertex`` (V,) flags the classes with an
      unglued side;
    * one spanning forest of the gluings, breadth-first across sides 0, 1, 2
      from each triangle not yet reached, in ascending order: the visit
      order ``forest_order`` (T,), parents first; ``parent_corner`` (T,),
      the corner ``x = 3p + s`` of the parent p whose side leads to the
      triangle ``forward[x] // 3``, -1 at a root; ``component`` (T,), the
      root of each tree, which is the smallest triangle of its component.
    """

    def __init__(self, triangle_count, gluings):
        self.triangle_count = n_t = int(triangle_count)
        self.gluings = tuple(
            (tuple(a), tuple(b)) for a, b in gluings
        )
        for fault in _surface_faults(n_t, self.gluings):
            raise SurfaceError(fault)
        # crossing side s of t from corner s lands on corner (s2+1) % 3 of
        # the partner side (t2, s2): glued sides run in opposite directions
        n = 3 * n_t
        forward = [-1] * n
        glued = []  # both sides 3t + s of every gluing
        for (t, s), (t2, s2) in self.gluings:
            forward[3 * t + s] = 3 * t2 + (s2 + 1) % 3
            forward[3 * t2 + s2] = 3 * t + (s + 1) % 3
            glued += (3 * t + s, 3 * t2 + s2)
        self.forward = np.array(forward)
        linked = np.flatnonzero(self.forward >= 0)
        free = np.flatnonzero(self.forward < 0)
        self.backward = np.full(n, -1)
        self.backward[self.forward[linked]] = linked

        edge_side = np.concatenate([np.array(glued, dtype=int), np.repeat(free, 2)]).reshape(-1, 2)
        self.edge_sides = np.stack(np.divmod(edge_side, 3), axis=-1)
        side_edge = np.empty(n, dtype=int)
        side_edge[edge_side] = np.arange(len(edge_side))[:, None]
        self.side_edge = side_edge.reshape(n_t, 3)

        # a label is the smallest corner of its class, so the classes come
        # out ordered by smallest corner, each class sorted, and a class's
        # number is the count of class minima below its own
        labels = _min_labels(n, zip(linked.tolist(), self.forward[linked].tolist()))
        classes = {}
        for x, root in enumerate(labels):
            classes.setdefault(root, []).append(divmod(x, 3))
        self.vertices = tuple(map(tuple, classes.values()))
        first = np.array(labels)
        corner_class = np.cumsum(first == np.arange(n))[first] - 1
        self.corner_class = corner_class.reshape(n_t, 3)
        self.boundary_vertex = np.zeros(len(self.vertices), dtype=bool)
        self.boundary_vertex[corner_class[free]] = True

        # the spanning forest: each queue is read while it grows
        order, parent, component = [], [-1] * n_t, [-1] * n_t
        for root in range(n_t):
            if component[root] < 0:
                component[root] = root
                queue = [root]
                for t in queue:
                    for x in range(3 * t, 3 * t + 3):
                        child = forward[x] // 3  # -1 at an unglued side
                        if child >= 0 and component[child] < 0:
                            component[child], parent[child] = root, x
                            queue.append(child)
                order += queue
        self.forest_order = np.array(order)
        self.parent_corner = np.array(parent)
        self.component = np.array(component)

    @cached_property
    def edges(self):
        """One ``Edge`` per row of ``edge_sides``; a boundary row repeats its side."""
        rows = [tuple(map(tuple, row)) for row in self.edge_sides.tolist()]
        return tuple(Edge(e, INTERIOR, (a, b)) if a != b else Edge(e, BOUNDARY, (a,))
                     for e, (a, b) in enumerate(rows))

    # -- queries ---------------------------------------------------------------

    @property
    def interior_edges(self):
        return [e for e in self.edges if e.kind == INTERIOR]

    @property
    def boundary_edges(self):
        return [e for e in self.edges if e.kind == BOUNDARY]

    def vertex_is_boundary(self, v):
        """True if some side incident to vertex class ``v`` is unglued."""
        return bool(self.boundary_vertex[v])

    def euler_characteristic(self):
        return len(self.vertices) - len(self.edge_sides) + self.triangle_count

    def is_disk(self):
        """Connected, genus 0, one boundary component (checked via chi = 1)."""
        return self.euler_characteristic() == 1 and len(self.edge_sides) > len(self.gluings) \
            and not self.component.any()

    def boundary_cycles(self):
        """Directed boundary sides grouped into cycles (surface on the left).

        The successor of a boundary side is found by walking the corner chain
        around its head vertex to the corner whose forward side is unglued.
        """
        remaining = {divmod(x, 3) for x in np.flatnonzero(self.forward < 0).tolist()}
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
        start = cur = int(3 * t + c)
        closed = False
        while self.backward[cur] >= 0:
            cur = int(self.backward[cur])
            if cur == start:
                closed = True
                break
        chain = [cur]
        nxt = self.forward[cur]
        while nxt >= 0 and nxt != chain[0]:
            chain.append(int(nxt))
            nxt = self.forward[nxt]
        return [divmod(x, 3) for x in chain], closed


@dataclass(frozen=True)
class AngleData:
    """Problem data: intersection angles per edge, total corner angle per vertex."""

    theta: np.ndarray  # per edge index, radians
    xi: np.ndarray  # per vertex class, radians

    def validate(self, tri: GluedTriangulation):
        n_e, n_int = len(tri.edge_sides), len(tri.gluings)
        if len(self.theta) != n_e:
            raise SchemaError("theta must have one entry per edge")
        if len(self.xi) != len(tri.vertices):
            raise SchemaError("xi must have one entry per vertex class")
        theta = np.asarray(self.theta, dtype=float)
        in_range = np.where(np.arange(n_e) < n_int, 0.0 <= theta, 0.0 < theta) & (theta < math.pi)
        bad = np.flatnonzero(~(np.isfinite(theta) & in_range))
        if bad.size:
            e = bad[0]
            if not np.isfinite(theta[e]):
                raise SchemaError(f"theta at edge {e} is not finite")
            if e < n_int:
                raise SchemaError(f"interior theta at edge {e} outside [0, pi)")
            raise SchemaError(f"boundary theta at edge {e} outside (0, pi)")
        if not np.all(np.isfinite(self.xi)) or np.any(self.xi <= 0.0):
            raise SchemaError("xi entries must be finite and positive")


def parse_header(text, what, keys):
    """The JSON object of a ``what`` file, checked for ``keys``, with its
    "triangles" count and "gluings"; returns (count, gluings, doc).

    Callers check the list lengths that count and gluings fix before they
    build the triangulation, whose cost grows with the count: a huge count
    in a small file then fails at once.  Faulty gluings are reported first,
    since they make those lengths meaningless."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{what} file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"{what} file must be a JSON object")
    for key in keys:
        if key not in doc:
            raise SchemaError(f"{what} file is missing key {key!r}")
    count = doc["triangles"]
    # type, not isinstance: a JSON true is a bool, which is an int subclass
    if type(count) is not int:
        raise SchemaError("'triangles' must be an integer")
    form = "each gluing needs 'a': [t, s] and 'b': [t2, s2]"
    try:
        gluings = [(tuple(g["a"]), tuple(g["b"])) for g in doc["gluings"]]
    except (TypeError, KeyError) as exc:
        raise SchemaError(form) from exc
    if not all(len(side) == 2 and all(type(i) is int for i in side)
               for pair in gluings for side in pair):
        raise SchemaError(form)
    for fault in _surface_faults(count, gluings):
        raise SurfaceError(fault)
    return count, gluings, doc


def float_array(value, name, count):
    """``value``, a JSON list of ``count`` numbers, as a float array."""
    # type, not isinstance: a JSON true is a bool, which is an int subclass
    if not isinstance(value, list) or any(type(x) not in (int, float) for x in value):
        raise SchemaError(f"{name} must be a list of numbers")
    if len(value) != count:
        raise SchemaError(f"{name} has {len(value)} entries, expected {count}")
    try:
        return np.array(value, dtype=float)
    except OverflowError:  # an integer literal beyond the float range
        raise SchemaError(f"{name} holds a number out of range") from None


def parse_problem(text):
    """Parse a problem file; returns (GluedTriangulation, AngleData)."""
    count, gluings, doc = parse_header(text, "problem", ("triangles", "gluings", "theta", "xi"))
    theta_doc = doc["theta"]
    if not isinstance(theta_doc, dict) or set(theta_doc) - {"interior", "boundary"}:
        raise SchemaError("theta must be {'interior': [...], 'boundary': [...]}")
    n_int = len(gluings)
    theta = np.concatenate([
        float_array(theta_doc.get("interior", []), "theta.interior", n_int),
        float_array(theta_doc.get("boundary", []), "theta.boundary", 3 * count - 2 * n_int),
    ])
    tri = GluedTriangulation(count, gluings)
    data = AngleData(theta=theta, xi=float_array(doc["xi"], "xi", len(tri.vertices)))
    data.validate(tri)
    return tri, data


def problem_dict(tri, data):
    """JSON-able problem document for (tri, data), inverse of parse_problem."""
    n_int = len(tri.gluings)
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
    violations = list(_surface_faults(tri.triangle_count, tri.gluings))
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
