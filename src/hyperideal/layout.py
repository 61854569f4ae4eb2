"""Planar drawings of decorated metrics: global layouts and chart atlases.

Every triangle is placed once, in its own chart, and each interior edge gets
the orientation-preserving isometry (transition) that moves the neighbor
chart into abutting position.  A simply connected flat instance (disk
topology, interior cone angles 2pi) is developed into the plane by composing
the transitions along the one spanning forest of the gluings that
``GluedTriangulation`` derives; everything else is drawn as the atlas.  Both
forms carry the face circle and the vertex circles and are exportable as SVG
and JSON.
"""

import json
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, SchemaError
from .files import canonical_json
from .pattern import (
    DecoratedMetric,
    _corner_angles,
    _dot,
    _vertex_sums,
    place_canonical,
    radical_center,
)
from .surface import GluedTriangulation

logger = logging.getLogger(__name__)

GLOBAL = "global"
ATLAS = "atlas"
FLAT_TOL = 1e-7  # |cone angle - 2 pi| below which an interior vertex is flat

# SVG drawing
SCALE = 100.0  # drawing units per metric unit
MARGIN = 20.0
STROKE_WIDTH = 1.5
TRIANGLE_COLOR = "#1f3b57"
VERTEX_CIRCLE_COLOR = "#c23b22"
FACE_CIRCLE_COLOR = "#2a7f62"


@dataclass
class ChartLayout:
    """A drawing of a decorated metric as arrays: chart k is triangle k and
    transition e is interior edge e, the gluing e.

    Per chart, ``vertices`` (T, 3, 2) in corner order, ``face_center``
    (T, 2), ``face_radius`` (T,) and ``vertex_radii`` (T, 3).  Per
    transition, ``sides`` (E, 2, 2) = ((target t, s), (source t2, s2)), the
    gluing, and the isometry x -> rotation @ x + translation, ``rotation``
    (E, 2, 2) and ``translation`` (E, 2), that moves the source chart into
    abutting position across side s of the target chart, which stays fixed.
    """

    mode: str
    vertices: np.ndarray
    face_center: np.ndarray
    face_radius: np.ndarray
    vertex_radii: np.ndarray
    sides: np.ndarray
    rotation: np.ndarray
    translation: np.ndarray


def _check_fits(tri, cl):
    """PreconditionError unless ``cl`` has one chart per triangle of ``tri``
    and one transition per interior edge, stored with its gluing's sides."""
    charts = {len(a) for a in (cl.vertices, cl.face_center, cl.face_radius, cl.vertex_radii)}
    gluings = tri.edge_sides[:len(tri.gluings)]
    if charts != {tri.triangle_count} or {len(cl.rotation), len(cl.translation)} != {len(gluings)} \
            or not np.array_equal(cl.sides, gluings):
        raise PreconditionError(
            f"layout needs {tri.triangle_count} charts and {len(gluings)} transitions, one per "
            "triangle and one per interior edge, stored with the sides of its gluing"
        )


def _overlap_tol(pts):
    """The distance below which two triangles of ``pts`` (T, 3, 2) that
    cross each other do not overlap: 1e-9 of the largest coordinate, at
    least 1e-9."""
    return 1e-9 * max(1.0, float(np.max(np.abs(pts))))


def _interiors_overlap(p, q, eps):
    """Strict interior overlap of triangle pairs via separating axes.

    ``p`` and ``q`` have shape (k, 3, 2); returns k booleans.  The axes are
    unit normals, so ``eps`` is a distance.
    """
    separated = np.zeros(len(p), dtype=bool)
    for a, b in ((p, q), (q, p)):
        for s in range(3):
            edge = a[:, (s + 1) % 3] - a[:, s]
            normal = np.stack([-edge[:, 1], edge[:, 0]], axis=1) / np.hypot(*edge.T)[:, None]
            pa = np.einsum("kci,ki->kc", a - a[:, s:s + 1], normal)
            pb = np.einsum("kci,ki->kc", b - a[:, s:s + 1], normal)
            separated |= pa.max(axis=1) <= pb.min(axis=1) + eps
            separated |= pb.max(axis=1) <= pa.min(axis=1) + eps
    return ~separated


def _meeting_boxes(lo, hi):
    """Every pair (p, q) of the boxes [lo, hi] (n, 2) that meet, each once,
    as two index arrays, found by one sort-and-sweep: with the boxes sorted
    by lower x, box k meets in x exactly the run of later boxes whose lower
    x is at most its upper x, and of those pairs the ones whose boxes also
    meet in y are kept."""
    n = len(lo)
    order = np.argsort(lo[:, 0], kind="stable")
    after = np.arange(1, n + 1)  # sorted position where each box's run starts
    runs = np.searchsorted(lo[order, 0], hi[order, 0], side="right") - after
    p = order[np.repeat(np.arange(n), runs)]
    q = order[np.arange(len(p)) + np.repeat(after - np.cumsum(runs) + runs, runs)]
    meet = (lo[p, 1] <= hi[q, 1]) & (lo[q, 1] <= hi[p, 1])
    return p[meet], q[meet]


def _first_overlap(pts):
    """The first pair (t, t2), t < t2 in lexicographic order, of the
    triangles ``pts`` (T, 3, 2) whose interiors overlap, or None.  Only
    pairs whose bounding boxes meet are tested."""
    n = len(pts)
    p, q = _meeting_boxes(pts.min(axis=1), pts.max(axis=1))
    i, j = np.divmod(np.sort(np.minimum(p, q) * n + np.maximum(p, q)), n)
    hits = np.flatnonzero(_interiors_overlap(pts[i], pts[j], _overlap_tol(pts)))
    return (int(i[hits[0]]), int(j[hits[0]])) if hits.size else None


def _segments_apart(a, b, eps):
    """Whether the segments ``a`` and ``b`` (k, 2, 2) are more than ``eps``
    apart along one of their unit directions or unit normals (k booleans)."""
    d = np.concatenate([a[:, 1] - a[:, 0], b[:, 1] - b[:, 0]], axis=1).reshape(-1, 2, 2)
    d /= np.hypot(d[..., 0], d[..., 1])[..., None]
    axes = np.concatenate([d, np.stack([-d[..., 1], d[..., 0]], axis=-1)], axis=1)
    pa, pb = np.einsum("kci,kxi->kxc", a, axes), np.einsum("kci,kxi->kxc", b, axes)
    apart = (pa.max(axis=2) + eps < pb.min(axis=2)) | (pb.max(axis=2) + eps < pa.min(axis=2))
    return apart.any(axis=1)


def _embedded(tri, pts):
    """True only if ``tri`` is a disk and ``_first_overlap(pts)`` is None
    for its development ``pts`` (T, 3, 2); False decides nothing.

    The certificate reads the welded drawing W, in which every corner sits
    at the first corner of its vertex class, so W is a continuous
    piecewise-linear map of the disk.  Such a map, orientation preserving
    on every triangle and with a simple boundary curve, is injective (the
    degree argument), so no two triangles of W overlap.  With eps the
    sweep's tolerance, the checks are:

    * every triangle of W is counterclockwise, with every height above eps;
    * every boundary vertex's angle sum in W is below 2 pi - 1e-9, so the
      two boundary segments at a vertex meet only there;
    * the boundary has at least three segments, none of whose ends are one
      class, and any two segments without a common class are more than eps
      apart (only the pairs whose boxes, grown by eps, meet are tested);
    * every corner of ``pts`` lies within mu <= 0.45 eps of its place in W.

    ``_interiors_overlap`` reports a pair whose least projection overlap on
    the edge normals exceeds eps.  For two triangles that is their
    penetration depth, the shortest move that separates them, and moving
    every corner by at most mu changes it by at most 2 mu.  So no pair of
    ``pts`` overlaps by more than 0.9 eps; the rest of eps covers the
    rounding of the test's projections.
    """
    if not tri.is_disk():
        return False
    eps = _overlap_tol(pts)
    flat = pts.reshape(-1, 2)
    welded = flat[tri.first_corner][tri.corner_class]
    if np.max(np.hypot(*(flat - welded.reshape(-1, 2)).T)) > 0.45 * eps:
        return False
    edge = np.roll(welded, -1, axis=1) - welded
    longest = np.hypot(edge[..., 0], edge[..., 1]).max(axis=1)
    twice_area = edge[:, 0, 0] * edge[:, 1, 1] - edge[:, 0, 1] * edge[:, 1, 0]
    if not np.all(twice_area > eps * longest):
        return False
    sums = _vertex_sums(tri, _corner_angles(welded))
    if np.any(sums[tri.boundary_vertex] >= 2.0 * math.pi - 1e-9):
        return False
    t, s = tri.edge_sides[len(tri.gluings):, 0].T
    ends = np.stack([s, (s + 1) % 3], axis=1)
    cls = tri.corner_class[t[:, None], ends]
    if len(t) < 3 or np.any(cls[:, 0] == cls[:, 1]):
        return False
    seg = welded[t[:, None], ends]
    p, q = _meeting_boxes(seg.min(axis=1) - eps, seg.max(axis=1) + eps)
    apart = (cls[p, :, None] != cls[q, None, :]).all(axis=(1, 2))
    p, q = p[apart], q[apart]
    return bool(np.all(_segments_apart(seg[p], seg[q], eps)))


def _chart_positions(tri, dm):
    """Every triangle in its own chart, placed in one batch: the longest side
    on the positive x axis, starting at the origin."""
    sides = dm.lengths[tri.side_edge]
    rows = np.arange(tri.triangle_count)[:, None]
    longest = np.argmax(sides, axis=1)[:, None]
    placed = place_canonical(*sides[rows, (longest + np.arange(3)) % 3].T)
    return placed[rows, (np.arange(3) - longest) % 3]


def _transitions(tri, positions):
    """Per interior edge, the isometry (rotation (n, 2, 2), translation (n, 2))
    carrying side s2 of the source chart t2 onto side s of the target chart
    t, run the other way, where ((t, s), (t2, s2)) is the gluing."""
    (t, s), (t2, s2) = np.moveaxis(tri.edge_sides[:len(tri.gluings)], 0, -1)
    qa, qb = positions[t2, s2], positions[t2, (s2 + 1) % 3]
    pa, pb = positions[t, (s + 1) % 3], positions[t, s]
    u, v = qb - qa, pb - pa
    norms = np.hypot(u[:, 0], u[:, 1]) * np.hypot(v[:, 0], v[:, 1])
    cosang = _dot(u, v) / norms
    sinang = (u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]) / norms
    rot = np.stack([np.stack([cosang, -sinang], axis=-1),
                    np.stack([sinang, cosang], axis=-1)], axis=-2)
    return rot, pa - (rot @ qa[:, :, None])[:, :, 0]


def _develop(tri, positions, rot, trans):
    """The charts of a flat disk moved into one plane: triangle 0, the root
    of the spanning forest, keeps its chart, and each other chart is moved
    by the transitions composed along the forest, parents first.

    The forest is breadth-first, so each depth is a run of ``forest_order``
    whose parents all lie in the run before it; one depth is composed at a
    time.  A triangle's move is its parent's (R, S) followed by the
    transition across the parent's side, inverted where the parent is the
    edge's source: (R @ rotation, R @ translation + S).
    """
    n = tri.triangle_count
    order = tri.forest_order
    rank = np.empty(n, dtype=int)
    rank[order] = np.arange(n)
    x = tri.parent_corner[order[1:]]
    up = rank[x // 3]  # each non-root triangle's parent, by rank
    e = tri.side_edge.ravel()[x]
    step_rot, step_shift = rot[e], trans[e][..., None]
    # the edge's target is the first side of its gluing
    inverse = 3 * tri.edge_sides[e, 0, 0] + tri.edge_sides[e, 0, 1] != x
    back = np.swapaxes(step_rot[inverse], 1, 2)
    step_rot[inverse], step_shift[inverse] = back, -back @ step_shift[inverse]
    rotation, translation = np.empty((n, 2, 2)), np.empty((n, 2, 1))
    rotation[0], translation[0] = np.eye(2), 0.0
    start, end = 0, 1  # ranks of the current depth
    while end < n:
        start, end = end, 1 + int(np.searchsorted(up, end))
        k = slice(start - 1, end - 1)  # the depth's rows of the per-step arrays
        r = rotation[up[k]]
        rotation[start:end] = r @ step_rot[k]
        translation[start:end] = r @ step_shift[k] + translation[up[k]]
    rotation, translation = rotation[rank], translation[rank, :, 0]
    return positions @ np.swapaxes(rotation, 1, 2) + translation[:, None, :]


def lay_out(tri: GluedTriangulation, dm: DecoratedMetric) -> ChartLayout:
    """Global development for flat disks, chart atlas otherwise.

    A development that ``_embedded`` certifies has no overlapping pair; any
    other is swept by ``_first_overlap``, and a pair it finds is logged as a
    warning, with the drawing emitted as-is.
    """
    dm.validate(tri)
    positions = _chart_positions(tri, dm)
    cone = _vertex_sums(tri, _corner_angles(positions))
    flat_interior = np.all(tri.boundary_vertex | (np.abs(cone - 2.0 * math.pi) <= FLAT_TOL))
    mode = GLOBAL if tri.is_disk() and flat_interior else ATLAS
    rot, trans = _transitions(tri, positions)
    if mode == GLOBAL:
        positions = _develop(tri, positions, rot, trans)
        # a non-convex instance can wrap over itself: the drawing is
        # emitted as-is, but a warning names the first offending pair
        pair = None if _embedded(tri, positions) else _first_overlap(positions)
        if pair is not None:
            logger.warning(
                "global development overlaps itself (triangles %d and %d); "
                "drawing emitted as-is", *pair,
            )
        rot, trans = _transitions(tri, positions)

    radii = dm.radii[tri.corner_class]
    center, power = radical_center(positions, radii)
    missing = np.flatnonzero(power <= 0.0)
    if missing.size:
        raise PreconditionError(f"triangle {missing[0]}: no orthocircle")
    return ChartLayout(mode=mode, vertices=positions, face_center=center,
                       face_radius=np.sqrt(power), vertex_radii=radii,
                       sides=tri.edge_sides[:len(tri.gluings)].copy(),
                       rotation=rot, translation=trans)


# -- serialization -------------------------------------------------------------


def layout_to_dict(cl: ChartLayout):
    charts = zip(cl.vertices.tolist(), cl.face_center.tolist(), cl.face_radius.tolist(),
                 cl.vertex_radii.tolist())
    (target, target_side), (source, source_side) = np.moveaxis(cl.sides, 0, -1).tolist()
    transitions = zip(source, target, source_side, target_side, cl.rotation.tolist(),
                      cl.translation.tolist())
    return {
        "mode": cl.mode,
        "charts": [
            {"triangle": k, "vertices": v, "face_center": c, "face_radius": r, "vertex_radii": vr}
            for k, (v, c, r, vr) in enumerate(charts)
        ],
        "transitions": [
            {"edge": e, "source": t2, "target": t, "source_side": s2, "target_side": s,
             "rotation": rot, "translation": shift}
            for e, (t2, t, s2, s, rot, shift) in enumerate(transitions)
        ],
    }


def layout_to_json(cl: ChartLayout) -> str:
    """The canonical JSON text of ``cl``, as ``hyperideal layout --format json`` writes it."""
    return canonical_json(layout_to_dict(cl))


def _index(value):
    # type, not isinstance: a JSON true is a bool, which is an int subclass
    if type(value) is not int:
        raise SchemaError(f"index {value!r} is not an integer")
    return value


def _number(value):
    # the type rule of surface.float_array: a JSON true is a bool, an int subclass
    if type(value) not in (int, float) or not math.isfinite(value):
        raise SchemaError(f"{value!r} is not a finite number")
    return float(value)


def _array(items, key, shape):
    """Field ``key`` of every item as one float array of shape
    (len(items), *shape), each entry a finite JSON number."""
    out = np.array([item[key] for item in items], dtype=object)
    if not items:  # [] reads as shape (0,)
        out = out.reshape(0, *shape)
    if out.shape != (len(items), *shape):
        raise SchemaError(f"{key} of shape {out.shape} where {(len(items), *shape)} is required")
    return np.array([_number(x) for x in out.flat], dtype=float).reshape(out.shape)


def layout_from_json(text: str) -> ChartLayout:
    """The layout that ``layout_to_json`` wrote: chart k must be triangle k
    and transition k edge k."""
    try:
        doc = json.loads(text)
        charts, transitions = doc["charts"], doc["transitions"]
        if [_index(c["triangle"]) for c in charts] != list(range(len(charts))):
            raise SchemaError("chart k must be triangle k")
        if [_index(t["edge"]) for t in transitions] != list(range(len(transitions))):
            raise SchemaError("transition k must be edge k")
        sides = [[[_index(t["target"]), _index(t["target_side"])],
                  [_index(t["source"]), _index(t["source_side"])]] for t in transitions]
        if doc["mode"] not in (GLOBAL, ATLAS):
            raise SchemaError(f"layout mode {doc['mode']!r} is neither {GLOBAL!r} nor {ATLAS!r}")
        return ChartLayout(
            mode=doc["mode"],
            vertices=_array(charts, "vertices", (3, 2)),
            face_center=_array(charts, "face_center", (2,)),
            face_radius=_array(charts, "face_radius", ()),
            vertex_radii=_array(charts, "vertex_radii", (3,)),
            sides=np.array(sides, dtype=int).reshape(-1, 2, 2),
            rotation=_array(transitions, "rotation", (2, 2)),
            translation=_array(transitions, "translation", (2,)),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"invalid layout JSON: {exc}") from exc


# -- SVG export ----------------------------------------------------------------


def export_svg(tri: GluedTriangulation, cl: ChartLayout) -> str:
    """Well-formed SVG 1.1: one path per triangle, circle elements for vertex
    and face circles; atlas charts are arranged on a grid, labeled, with their
    transitions annotated.  A global drawing shows each vertex circle once,
    at the first corner of its class in chart order."""
    _check_fits(tri, cl)
    if cl.mode not in (GLOBAL, ATLAS):
        raise PreconditionError(f"layout mode {cl.mode!r} is neither {GLOBAL!r} nor {ATLAS!r}")
    atlas = cl.mode == ATLAS
    n, vertices, center, radius = tri.triangle_count, cl.vertices, cl.face_center, cl.face_radius

    # per chart: the box of its vertices, face circle and vertex circles
    rad = np.maximum(radius, cl.vertex_radii.max(axis=1))[:, None, None]
    lo = np.minimum(vertices.min(axis=1), center - radius[:, None])
    hi = np.maximum(vertices.max(axis=1), center + radius[:, None])
    lo = np.minimum(lo, (vertices - rad).min(axis=1))
    hi = np.maximum(hi, (vertices + rad).max(axis=1))
    shift = np.zeros_like(lo)
    if atlas:  # chart k's box moves to the corner of grid cell k
        cell = np.max(hi - lo, axis=0) * 1.1
        cols = math.ceil(math.sqrt(n))
        k = np.arange(n)
        shift = np.stack([k % cols * cell[0], k // cols * cell[1]], axis=1) - lo
    lo, hi = (lo + shift).min(axis=0), (hi + shift).max(axis=0)
    width = (hi[0] - lo[0]) * SCALE + 2 * MARGIN
    height = (hi[1] - lo[1]) * SCALE + 2 * MARGIN

    # pixel coordinates of the three vertices, the face center and the label
    points = np.concatenate(
        [vertices, center[:, None], vertices.mean(axis=1)[:, None]], axis=1)
    q = (points + shift[:, None] - lo) * SCALE
    x, y = q[..., 0] + MARGIN, height - MARGIN - q[..., 1]
    drawn = np.full((n, 3), atlas)
    if not atlas:  # each vertex circle at the first corner of its class
        drawn.flat[tri.first_corner] = True

    # every number of the charts goes through one % pass: chart k's row
    # holds k, the path, the three vertex circles, the face circle and the
    # label with k, where a global drawing keeps neither k nor the label and
    # only the vertex circles it draws; %d prints the float k as an integer
    k = np.arange(n, dtype=float)
    rows = np.concatenate([
        k[:, None], np.stack([x[:, :3], y[:, :3]], axis=-1).reshape(n, 6),
        np.stack([x[:, :3], y[:, :3], cl.vertex_radii * SCALE], axis=-1).reshape(n, 9),
        np.stack([x[:, 3], y[:, 3], radius * SCALE, x[:, 4], y[:, 4], k], axis=-1)], axis=1)
    keep = np.concatenate([np.full((n, 1), atlas), np.ones((n, 6), dtype=bool),
                           np.repeat(drawn, 3, axis=1), np.ones((n, 3), dtype=bool),
                           np.full((n, 3), atlas)], axis=1)
    stroke = "%.9g" % STROKE_WIDTH
    indent = "    " if atlas else "  "
    circle = (f'{indent}<circle cx="%.9g" cy="%.9g" r="%.9g" fill="none" '
              f'stroke="{{}}" stroke-width="{stroke}"{{}}/>\n')
    vertex_circle = circle.format(VERTEX_CIRCLE_COLOR, "")
    face_circle = circle.format(FACE_CIRCLE_COLOR, ' stroke-dasharray="4 3"')
    path = (f'{indent}<path d="M %.9g %.9g L %.9g %.9g L %.9g %.9g Z" fill="none" '
            f'stroke="{TRIANGLE_COLOR}" stroke-width="{stroke}"/>\n')
    head = '  <g class="chart" id="chart-%d">\n' if atlas else ""
    tail = ('    <text x="%.9g" y="%.9g" font-size="12" text-anchor="middle">t%d</text>\n'
            "  </g>\n") if atlas else ""
    templates = [head + path + vertex_circle * c + face_circle + tail for c in range(4)]
    charts = "".join([templates[c] for c in drawn.sum(axis=1).tolist()])

    parts = ['<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
             'width="%.9g" height="%.9g" viewBox="0 0 %.9g %.9g">\n' % (width, height, width, height),
             charts % tuple(rows[keep].tolist())]
    if atlas:
        e = np.arange(len(cl.sides), dtype=float)
        deg = [math.degrees(math.atan2(sin, cos))
               for sin, cos in zip(cl.rotation[:, 1, 0].tolist(), cl.rotation[:, 0, 0].tolist())]
        labels = np.stack([np.full_like(e, MARGIN), 14.0 * (e + 1), e, cl.sides[:, 1, 0],
                           cl.sides[:, 0, 0], deg], axis=-1)
        label = ('  <text x="%.9g" y="%.9g" font-size="11">'
                 "edge %d: chart %d &#8594; chart %d, rot %.9g&#176;</text>\n")
        parts.append(label * len(e) % tuple(labels.ravel().tolist()))
    parts.append("</svg>\n")
    return "".join(parts)
