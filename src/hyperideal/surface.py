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
their boundary flags and one spanning tree of the gluings from it.  A
surface that the gluings do not connect is refused; the vertex potentials
(``pattern``) and the flat-disk development (``layout``) are integrated
along the tree.  Instances should be treated as immutable after
construction.
"""

import json
import math
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

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


_INDEX = (int, np.integer)  # the types of a triangle count or a side index


def _surface_fault(triangle_count, gluings):
    """The first fault of the triangle count and the gluings, or None: a
    count or index that is not an integer (a JSON true or false is a bool),
    no triangle, a gluing that is not two sides (t, s), a side out of range,
    a side glued to itself, a side in two gluings."""
    if not isinstance(triangle_count, _INDEX) or type(triangle_count) is bool:
        return "the triangle count must be an integer"
    if triangle_count < 1:
        return "need at least one triangle"
    seen = set()
    for gluing in gluings:
        try:
            (t, s), (t2, s2) = gluing
        except (TypeError, ValueError):
            return f"gluing {gluing!r} is not two sides (t, s)"
        a, b = (t, s), (t2, s2)
        for t, s in (a, b):
            if not (isinstance(t, _INDEX) and isinstance(s, _INDEX) and 0 <= t < triangle_count
                    and 0 <= s < 3) or type(t) is bool or type(s) is bool:
                return f"gluing references invalid side {(t, s)}"
        if a == b:
            return f"side {a} glued to itself"
        for side in (a, b):
            if side in seen:
                return f"side {side} appears in two gluings"
            seen.add(side)
    return None


class GluedTriangulation:
    """A connected surface of triangles and side gluings, with derived edges,
    vertex classes and one spanning tree.

    Corner ``c`` and side ``s`` of triangle ``t`` are numbered ``3t + c`` and
    ``3t + s`` in the flat arrays.  ``forward[3t + c]`` is the corner reached
    by crossing side ``c`` (the next corner counterclockwise around the
    vertex), -1 where that side is unglued, and ``backward`` is its inverse.
    Only the constructor checks the count and the gluings, and that the
    gluings connect every triangle (``SurfaceError``).  Everything
    combinatorial is read from the gluings once:

    * ``edge_sides`` (E, 2, 2): the sides (t, s) of every edge, the gluings
      in order, then every unglued side, twice, in (t, s) order;
      ``side_edge`` (T, 3) is its inverse; the ``Edge`` objects of ``edges``
      are made from it on first use;
    * the vertex classes: the corner classes that ``forward`` links,
      numbered 0..V-1 in the order of their smallest corner;
      ``corner_class`` (T, 3) is the class of every corner, ``first_corner``
      (V,) the smallest corner 3t + c of every class, ``vertex_count`` is V
      and ``boundary_vertex`` (V,) flags the classes with an unglued side;
      ``vertices``, the sorted (t, c) corners of every class, is made from
      ``corner_class`` on first use;
    * one spanning tree of the gluings, breadth-first across sides 0, 1, 2
      from triangle 0: the visit order ``tree_order`` (T,), parents
      first; ``parent_corner`` (T,), the corner ``x = 3p + s`` of the
      parent p whose side leads to the triangle ``forward[x] // 3``, -1 at
      the root, triangle 0.

    The interior edges are the first ``len(gluings)`` rows of
    ``edge_sides`` and the boundary edges the rest.  ``euler_characteristic``
    and ``is_disk`` are the only queries.
    """

    def __init__(self, triangle_count, gluings):
        try:
            gluings = list(gluings)
        except TypeError:
            raise SurfaceError(f"the gluings {gluings!r} are not a sequence of gluings") from None
        fault = _surface_fault(triangle_count, gluings)
        if fault:
            raise SurfaceError(fault)
        self.gluings = tuple((tuple(a), tuple(b)) for a, b in gluings)
        self.triangle_count = n_t = int(triangle_count)
        # crossing side s of t from corner s lands on corner (s2+1) % 3 of
        # the partner side (t2, s2): glued sides run in opposite directions
        n = 3 * n_t
        pairs = np.array(self.gluings, dtype=int).reshape(-1, 2, 2)
        glued = 3 * pairs[..., 0] + pairs[..., 1]  # both sides 3t + s of every gluing
        self.forward = np.full(n, -1)
        self.forward[glued] = (3 * pairs[..., 0] + (pairs[..., 1] + 1) % 3)[:, ::-1]
        linked = np.flatnonzero(self.forward >= 0)
        free = np.flatnonzero(self.forward < 0)
        self.backward = np.full(n, -1)
        self.backward[self.forward[linked]] = linked

        edge_side = np.concatenate([glued, np.repeat(free, 2).reshape(-1, 2)])
        self.edge_sides = np.stack(np.divmod(edge_side, 3), axis=-1)
        side_edge = np.empty(n, dtype=int)
        side_edge[edge_side] = np.arange(len(edge_side))[:, None]
        self.side_edge = side_edge.reshape(n_t, 3)

        # every corner's class minimum, by pointer doubling along the corner
        # chains: a round takes the minimum over the corners one pointer
        # ahead and behind, then squares both pointers (an end points at
        # itself), so after k rounds a label is the minimum over 2^k - 1
        # steps each way; the first round that changes nothing has read
        # every chain and cycle whole
        corner = np.arange(n)
        ahead = np.where(self.forward >= 0, self.forward, corner)
        behind = np.where(self.backward >= 0, self.backward, corner)
        first = corner
        while True:
            label = np.minimum(first, np.minimum(first[ahead], first[behind]))
            if np.array_equal(label, first):
                break
            first, ahead, behind = label, ahead[ahead], behind[behind]
        # a class's number is the count of class minima below its own, so
        # the classes are ordered by their smallest corner
        smallest = first == corner
        self.first_corner = np.flatnonzero(smallest)
        corner_class = np.cumsum(smallest)[first] - 1
        self.corner_class = corner_class.reshape(n_t, 3)
        self.vertex_count = len(self.first_corner)
        self.boundary_vertex = np.bincount(corner_class[free], minlength=self.vertex_count) > 0

        # the spanning tree: the queue is read while it grows
        neighbor = (self.forward // 3).tolist()  # -1 at an unglued side
        order, parent, reached = [0], [-1] * n_t, [True] + [False] * (n_t - 1)
        for t in order:
            for x in range(3 * t, 3 * t + 3):
                child = neighbor[x]
                if child >= 0 and not reached[child]:
                    reached[child], parent[child] = True, x
                    order.append(child)
        if len(order) < n_t:
            raise SurfaceError("the surface is disconnected: no chain of gluings links "
                               f"triangle {reached.index(False)} to triangle 0")
        self.tree_order = np.array(order)
        self.parent_corner = np.array(parent)

    @cached_property
    def vertices(self):
        """The corners (t, c) of every vertex class, each class sorted."""
        corners = np.argsort(self.corner_class, axis=None, kind="stable").tolist()
        ends = np.cumsum(np.bincount(self.corner_class.ravel())).tolist()
        return tuple(tuple(divmod(x, 3) for x in corners[a:b])
                     for a, b in zip([0] + ends, ends))

    @cached_property
    def edges(self):
        """One ``Edge`` per row of ``edge_sides``; a boundary row repeats its side."""
        rows = [tuple(map(tuple, row)) for row in self.edge_sides.tolist()]
        return tuple(Edge(e, INTERIOR, (a, b)) if a != b else Edge(e, BOUNDARY, (a,))
                     for e, (a, b) in enumerate(rows))

    def euler_characteristic(self):
        return self.vertex_count - len(self.edge_sides) + self.triangle_count

    def is_disk(self):
        """Genus 0 with one boundary component (checked via chi = 1)."""
        return self.euler_characteristic() == 1 and len(self.edge_sides) > len(self.gluings)


@dataclass(frozen=True)
class AngleData:
    """Problem data: intersection angles per edge, total corner angle per vertex."""

    theta: np.ndarray  # per edge index, radians
    xi: np.ndarray  # per vertex class, radians

    def validate(self, tri: GluedTriangulation):
        n_e, n_int = len(tri.edge_sides), len(tri.gluings)
        if len(self.theta) != n_e:
            raise SchemaError("theta must have one entry per edge")
        if len(self.xi) != tri.vertex_count:
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


def json_object(text, what):
    """The JSON object that the text of a ``what`` file holds."""
    try:
        return object_of(json.loads(text), what)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{what} file is not valid JSON: {exc}") from exc


def object_of(doc, what):
    """``doc``, checked to be the JSON object of a ``what`` file."""
    if not isinstance(doc, dict):
        raise SchemaError(f"{what} file must be a JSON object")
    return doc


def parse_header(doc, what, keys):
    """The "triangles" count and the (a, b) side pairs of the "gluings",
    unchecked, of ``doc``, the JSON object of a ``what`` file with ``keys``.
    Callers check the list lengths that these fix before they build the
    triangulation, which checks the gluings and whose cost grows with the
    count: a huge count in a small file then fails at once."""
    for key in keys:
        if key not in doc:
            raise SchemaError(f"{what} file is missing key {key!r}")
    count = doc["triangles"]
    # type, not isinstance: a JSON true is a bool, which is an int subclass
    if type(count) is not int or count < 1:
        raise SchemaError("'triangles' must be a positive integer")
    try:
        return count, list(map(itemgetter("a", "b"), doc["gluings"]))
    except (TypeError, KeyError) as exc:
        raise SchemaError("each gluing needs 'a': [t, s] and 'b': [t2, s2]") from exc


def float_array(value, name, shape):
    """``value``, JSON lists of numbers nested to the tuple ``shape``, as a
    float array."""
    entries = np.array(value, dtype=object)
    if entries.shape == (0,):  # [] reads as shape (0,)
        entries = entries.reshape(0, *shape[1:])
    if entries.shape != shape:
        raise SchemaError(f"{name} has shape {entries.shape}, expected {shape}")
    # type, not isinstance: a JSON true is a bool, which is an int subclass
    if not set(map(type, entries.flat)) <= {int, float}:
        raise SchemaError(f"{name} must hold numbers only")
    try:
        return entries.astype(float)
    except OverflowError:  # an integer literal beyond the float range
        raise SchemaError(f"{name} holds a number out of range") from None


def parse_problem(text):
    """Parse a problem file; returns (GluedTriangulation, AngleData)."""
    return problem_of(json_object(text, "problem"))


def problem_of(doc):
    """(GluedTriangulation, AngleData) of the JSON object of a problem file."""
    count, gluings = parse_header(doc, "problem", ("triangles", "gluings", "theta", "xi"))
    theta_doc = doc["theta"]
    if not isinstance(theta_doc, dict) or set(theta_doc) - {"interior", "boundary"}:
        raise SchemaError("theta must be {'interior': [...], 'boundary': [...]}")
    n_int = len(gluings)
    theta = np.concatenate([
        float_array(theta_doc.get("interior", []), "theta.interior", (n_int,)),
        float_array(theta_doc.get("boundary", []), "theta.boundary", (3 * count - 2 * n_int,)),
    ])
    tri = GluedTriangulation(count, gluings)
    data = AngleData(theta=theta, xi=float_array(doc["xi"], "xi", (tri.vertex_count,)))
    data.validate(tri)
    return tri, data


def problem_dict(tri, data):
    """JSON-able problem document for (tri, data), inverse of parse_problem."""
    n_int = len(tri.gluings)
    return {
        "triangles": tri.triangle_count,
        "gluings": [{"a": list(a), "b": list(b)} for a, b in tri.gluings],
        "theta": {
            "interior": np.asarray(data.theta[:n_int], dtype=float).tolist(),
            "boundary": np.asarray(data.theta[n_int:], dtype=float).tolist(),
        },
        "xi": np.asarray(data.xi, dtype=float).tolist(),
    }
