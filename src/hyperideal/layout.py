"""Planar drawings of decorated metrics: global layouts and chart atlases.

A simply connected flat instance (disk topology, interior cone angles 2pi)
is developed into the plane by breadth-first gluing.  Everything else gets an
atlas: each triangle drawn in canonical position plus, per interior edge, the
orientation-preserving isometry that moves the neighbor chart into abutting
position.  Both forms carry the face circle and the vertex circles and are
exportable as SVG and JSON.
"""

import io
import json
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError, SchemaError
from .pattern import DecoratedMetric, _corner_angles, place_on_segment, radical_center
from .surface import INTERIOR, GluedTriangulation

logger = logging.getLogger(__name__)

GLOBAL = "global"
ATLAS = "atlas"
FLAT_TOL = 1e-7


@dataclass
class Transition:
    """Isometry x -> rotation @ x + translation carrying one chart onto the
    abutting position across an interior edge."""

    edge: int
    source: int  # triangle whose chart is moved
    target: int  # triangle whose chart stays fixed
    source_side: int
    target_side: int
    rotation: np.ndarray  # (2, 2)
    translation: np.ndarray  # (2,)

    @property
    def angle(self):
        return math.atan2(self.rotation[1, 0], self.rotation[0, 0])

    def apply(self, points):
        return np.asarray(points) @ self.rotation.T + self.translation


@dataclass
class TriangleChart:
    triangle: int
    vertices: np.ndarray  # (3, 2), corner order
    face_center: np.ndarray  # (2,)
    face_radius: float
    vertex_radii: np.ndarray  # (3,)


@dataclass
class ChartLayout:
    mode: str
    charts: list
    transitions: list = field(default_factory=list)


def _chart_for(tri, dm, t, positions):
    center, power = radical_center(positions, dm.corner_radii(tri, t))
    if power <= 0.0:
        raise PreconditionError(f"triangle {t}: no orthocircle")
    return TriangleChart(
        triangle=t,
        vertices=np.asarray(positions, dtype=float),
        face_center=center,
        face_radius=math.sqrt(power),
        vertex_radii=dm.corner_radii(tri, t),
    )


def _canonical_positions(tri, dm, t):
    """Longest side of the triangle on the positive x axis, starting at 0."""
    sides = dm.triangle_sides(tri, t)
    s = int(np.argmax(sides))
    rolled = place_on_segment(np.roll(sides, -s), (0.0, 0.0), (sides[s], 0.0))
    positions = np.empty((3, 2))
    for c in range(3):
        positions[c] = rolled[(c - s) % 3]
    return positions


def _abutting_positions(tri, dm, t2, s2, pos_fixed, s_fixed):
    """Positions of triangle ``t2`` glued along its side ``s2`` to the already
    placed side ``s_fixed`` of the chart ``pos_fixed``."""
    pa = pos_fixed[(s_fixed + 1) % 3]
    pb = pos_fixed[s_fixed]
    rolled = place_on_segment(np.roll(dm.triangle_sides(tri, t2), -s2), pa, pb)
    positions = np.empty((3, 2))
    for c in range(3):
        positions[c] = rolled[(c - s2) % 3]
    return positions


def _interiors_overlap(p, q, eps):
    """Strict interior overlap of triangle pairs via separating axes.

    ``p`` and ``q`` have shape (k, 3, 2); returns k booleans.
    """
    separated = np.zeros(len(p), dtype=bool)
    for a, b in ((p, q), (q, p)):
        for s in range(3):
            edge = a[:, (s + 1) % 3] - a[:, s]
            normal = np.stack([-edge[:, 1], edge[:, 0]], axis=1)
            pa = np.einsum("kci,ki->kc", a - a[:, s:s + 1], normal)
            pb = np.einsum("kci,ki->kc", b - a[:, s:s + 1], normal)
            separated |= pa.max(axis=1) <= pb.min(axis=1) + eps
            separated |= pb.max(axis=1) <= pa.min(axis=1) + eps
    return ~separated


def _first_overlap(positions):
    """The first pair (t, t2), t < t2 in lexicographic order, of triangles
    whose interiors overlap, or None.

    Only pairs whose bounding boxes share a cell of a uniform grid, about
    one mean triangle wide, and overlap are tested, so triangles of similar
    size cost O(T) tests.
    """
    pts = np.array([positions[t] for t in range(len(positions))])
    eps = 1e-9 * max(1.0, float(np.max(np.abs(pts))))
    lo, hi = pts.min(axis=1), pts.max(axis=1)
    cell = float(np.mean(np.max(hi - lo, axis=1))) or 1.0
    while True:
        first = np.floor((lo - lo.min(axis=0)) / cell).astype(int)
        last = np.floor((hi - lo.min(axis=0)) / cell).astype(int)
        if np.sum(np.prod(last - first + 1, axis=1)) <= 8 * len(pts):
            break
        cell *= 2.0  # a few large triangles would cover too many cells
    buckets = {}
    for t in range(len(pts)):
        for ix in range(first[t, 0], last[t, 0] + 1):
            for iy in range(first[t, 1], last[t, 1] + 1):
                buckets.setdefault((ix, iy), []).append(t)
    pairs = sorted({
        (a, b) for members in buckets.values()
        for k, a in enumerate(members) for b in members[k + 1:]
    })
    if not pairs:
        return None
    i, j = np.array(pairs).T
    boxes_meet = np.all((lo[i] <= hi[j]) & (lo[j] <= hi[i]), axis=1)
    i, j = i[boxes_meet], j[boxes_meet]
    hits = np.flatnonzero(_interiors_overlap(pts[i], pts[j], eps))
    return (int(i[hits[0]]), int(j[hits[0]])) if hits.size else None


def _warn_if_overlapping(positions):
    """Global developments of non-convex instances can wrap over themselves;
    the drawing is emitted as-is, but a warning names the first offending pair."""
    pair = _first_overlap(positions)
    if pair is not None:
        logger.warning(
            "global development overlaps itself (triangles %d and %d); "
            "drawing emitted as-is", *pair,
        )


def geometric_cone_angles(tri, dm):
    """Total euclidean corner angle per vertex class of the decorated metric."""
    out = np.zeros(len(tri.vertices))
    for t in range(tri.triangle_count):
        sides = dm.triangle_sides(tri, t)
        ang = _corner_angles(place_on_segment(sides, (0.0, 0.0), (sides[0], 0.0)))
        for c in range(3):
            out[tri.corner_class[(t, c)]] += ang[c]
    return out


def lay_out(tri: GluedTriangulation, dm: DecoratedMetric, flat_tol=FLAT_TOL) -> ChartLayout:
    """Global development for flat disks, chart atlas otherwise."""
    dm.validate(tri)
    cone = geometric_cone_angles(tri, dm)
    flat_interior = all(
        tri.vertex_is_boundary(v) or abs(cone[v] - 2.0 * math.pi) <= flat_tol
        for v in range(len(tri.vertices))
    )
    mode = GLOBAL if tri.is_disk() and flat_interior else ATLAS

    if mode == GLOBAL:
        positions = {0: _canonical_positions(tri, dm, 0)}
        queue = [0]
        while queue:
            t = queue.pop(0)
            for s in range(3):
                edge = tri.edges[tri.side_edge[(t, s)]]
                if edge.kind != INTERIOR:
                    continue
                side_a, side_b = edge.sides
                t2, s2 = side_b if side_a == (t, s) else side_a
                if t2 in positions:
                    continue
                positions[t2] = _abutting_positions(tri, dm, t2, s2, positions[t], s)
                queue.append(t2)
        charts = [_chart_for(tri, dm, t, positions[t]) for t in range(tri.triangle_count)]
        _warn_if_overlapping(positions)
    else:
        charts = [
            _chart_for(tri, dm, t, _canonical_positions(tri, dm, t))
            for t in range(tri.triangle_count)
        ]
        positions = {c.triangle: c.vertices for c in charts}

    transitions = []
    for edge in tri.edges:
        if edge.kind != INTERIOR:
            continue
        (t, s), (t2, s2) = edge.sides
        target_pos = positions[t]
        moved = _abutting_positions(tri, dm, t2, s2, target_pos, s)
        source_pos = positions[t2]
        # isometry: source chart corners of t2 -> abutting corners
        qa, qb = source_pos[s2], source_pos[(s2 + 1) % 3]
        pa, pb = moved[s2], moved[(s2 + 1) % 3]
        u = qb - qa
        v = pb - pa
        nu, nv = np.hypot(*u), np.hypot(*v)
        cosang = float(u @ v) / (nu * nv)
        sinang = float(u[0] * v[1] - u[1] * v[0]) / (nu * nv)
        rot = np.array([[cosang, -sinang], [sinang, cosang]])
        trans = pa - rot @ qa
        transitions.append(Transition(edge.index, source=t2, target=t,
                                      source_side=s2, target_side=s,
                                      rotation=rot, translation=trans))
    return ChartLayout(mode=mode, charts=charts, transitions=transitions)


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


def vertex_holonomy(tri, layout: ChartLayout, t, c) -> HolonomyReport:
    """Develop the charts once around the vertex at corner (t, c)."""
    walk, closed = tri.corner_walk(t, c)
    if not closed:
        raise PreconditionError("holonomy is defined for interior vertices only")
    charts = {ch.triangle: ch for ch in layout.charts}
    by_edge = {tr.edge: tr for tr in layout.transitions}
    rot = np.eye(2)
    shift = np.zeros(2)
    total = 0.0
    p_ref = None
    drift = 0.0
    for tk, ck in walk:
        chart = charts[tk]
        p = rot @ chart.vertices[ck] + shift
        if p_ref is None:
            p_ref = p
        else:
            drift = max(drift, float(np.hypot(*(p - p_ref))))
        total += _corner_angles(chart.vertices)[ck]
        tr = by_edge[tri.side_edge[(tk, ck)]]
        if (tr.target, tr.target_side) == (tk, ck):
            r2, t2 = tr.rotation, tr.translation
        elif (tr.source, tr.source_side) == (tk, ck):
            r2 = tr.rotation.T
            t2 = -tr.rotation.T @ tr.translation
        else:
            raise PreconditionError("transition does not match the crossed side")
        rot, shift = rot @ r2, rot @ t2 + shift
    return HolonomyReport(rotation=rot, translation=shift,
                          cone_angle=total, vertex_drift=drift)


# -- serialization -------------------------------------------------------------


def layout_to_dict(cl: ChartLayout):
    return {
        "mode": cl.mode,
        "charts": [
            {
                "triangle": c.triangle,
                "vertices": [[float(x) for x in p] for p in c.vertices],
                "face_center": [float(x) for x in c.face_center],
                "face_radius": float(c.face_radius),
                "vertex_radii": [float(r) for r in c.vertex_radii],
            }
            for c in cl.charts
        ],
        "transitions": [
            {
                "edge": tr.edge,
                "source": tr.source,
                "target": tr.target,
                "source_side": tr.source_side,
                "target_side": tr.target_side,
                "rotation": [[float(x) for x in row] for row in tr.rotation],
                "translation": [float(x) for x in tr.translation],
            }
            for tr in cl.transitions
        ],
    }


def layout_to_json(cl: ChartLayout) -> str:
    return json.dumps(layout_to_dict(cl), indent=2) + "\n"


def layout_from_json(text: str) -> ChartLayout:
    try:
        doc = json.loads(text)
        charts = [
            TriangleChart(
                triangle=int(c["triangle"]),
                vertices=np.array(c["vertices"], dtype=float),
                face_center=np.array(c["face_center"], dtype=float),
                face_radius=float(c["face_radius"]),
                vertex_radii=np.array(c["vertex_radii"], dtype=float),
            )
            for c in doc["charts"]
        ]
        transitions = [
            Transition(
                edge=int(t["edge"]),
                source=int(t["source"]),
                target=int(t["target"]),
                source_side=int(t["source_side"]),
                target_side=int(t["target_side"]),
                rotation=np.array(t["rotation"], dtype=float),
                translation=np.array(t["translation"], dtype=float),
            )
            for t in doc["transitions"]
        ]
        return ChartLayout(mode=doc["mode"], charts=charts, transitions=transitions)
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise SchemaError(f"invalid layout JSON: {exc}") from exc


# -- SVG export ----------------------------------------------------------------


@dataclass
class SvgOptions:
    scale: float = 100.0  # drawing units per metric unit
    margin: float = 20.0
    stroke_width: float = 1.5
    triangle_color: str = "#1f3b57"
    vertex_circle_color: str = "#c23b22"
    face_circle_color: str = "#2a7f62"
    annotate: bool = True


def _fmt(x):
    return format(float(x), ".9g")


def export_svg(tri: GluedTriangulation, cl: ChartLayout, options: SvgOptions = None) -> str:
    """Well-formed SVG 1.1: one path per triangle, circle elements for vertex
    and face circles; atlas charts are arranged on a grid with their
    transitions annotated."""
    opt = options or SvgOptions()
    if not cl.charts:
        raise PreconditionError("layout has no charts")

    def chart_bbox(chart):
        rad = max(float(chart.face_radius), float(np.max(chart.vertex_radii)))
        lo = np.minimum(chart.vertices.min(axis=0), chart.face_center - chart.face_radius)
        hi = np.maximum(chart.vertices.max(axis=0), chart.face_center + chart.face_radius)
        lo = np.minimum(lo, (chart.vertices - rad).min(axis=0))
        hi = np.maximum(hi, (chart.vertices + rad).max(axis=0))
        return lo, hi

    shifts = {}
    if cl.mode == ATLAS:
        boxes = [chart_bbox(c) for c in cl.charts]
        cell = np.max([hi - lo for lo, hi in boxes], axis=0) * 1.1
        cols = max(1, math.ceil(math.sqrt(len(cl.charts))))
        for k, chart in enumerate(cl.charts):
            lo, _ = boxes[k]
            cellpos = np.array([(k % cols) * cell[0], (k // cols) * cell[1]])
            shifts[chart.triangle] = cellpos - lo
    else:
        for chart in cl.charts:
            shifts[chart.triangle] = np.zeros(2)

    lo = np.full(2, np.inf)
    hi = np.full(2, -np.inf)
    for chart in cl.charts:
        blo, bhi = chart_bbox(chart)
        lo = np.minimum(lo, blo + shifts[chart.triangle])
        hi = np.maximum(hi, bhi + shifts[chart.triangle])
    scale = opt.scale
    width = (hi[0] - lo[0]) * scale + 2 * opt.margin
    height = (hi[1] - lo[1]) * scale + 2 * opt.margin

    def to_px(p, shift):
        q = (np.asarray(p) + shift - lo) * scale
        return q[0] + opt.margin, height - opt.margin - q[1]

    out = io.StringIO()
    out.write(
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">\n'
    )

    def chart_elements(chart, indent, drawn_vertices=None):
        """SVG lines of one chart; with ``drawn_vertices``, a vertex circle
        whose vertex class is in the set is skipped, otherwise added to it."""
        shift = shifts[chart.triangle]
        pts = [to_px(p, shift) for p in chart.vertices]
        d = (
            f"M {_fmt(pts[0][0])} {_fmt(pts[0][1])} "
            f"L {_fmt(pts[1][0])} {_fmt(pts[1][1])} "
            f"L {_fmt(pts[2][0])} {_fmt(pts[2][1])} Z"
        )
        lines = [
            f'{indent}<path d="{d}" fill="none" stroke="{opt.triangle_color}" '
            f'stroke-width="{_fmt(opt.stroke_width)}"/>'
        ]
        for c in range(3):
            if drawn_vertices is not None:
                vclass = tri.corner_class[(chart.triangle, c)]
                if vclass in drawn_vertices:
                    continue
                drawn_vertices.add(vclass)
            cx, cy = pts[c]
            lines.append(
                f'{indent}<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" '
                f'r="{_fmt(chart.vertex_radii[c] * scale)}" fill="none" '
                f'stroke="{opt.vertex_circle_color}" stroke-width="{_fmt(opt.stroke_width)}"/>'
            )
        fx, fy = to_px(chart.face_center, shift)
        lines.append(
            f'{indent}<circle cx="{_fmt(fx)}" cy="{_fmt(fy)}" '
            f'r="{_fmt(chart.face_radius * scale)}" fill="none" '
            f'stroke="{opt.face_circle_color}" stroke-width="{_fmt(opt.stroke_width)}" '
            'stroke-dasharray="4 3"/>'
        )
        return lines

    if cl.mode == ATLAS:
        for chart in cl.charts:
            out.write(f'  <g class="chart" id="chart-{chart.triangle}">\n')
            for line in chart_elements(chart, "    "):
                out.write(line + "\n")
            if opt.annotate:
                sx, sy = to_px(chart.vertices.mean(axis=0), shifts[chart.triangle])
                out.write(
                    f'    <text x="{_fmt(sx)}" y="{_fmt(sy)}" font-size="12" '
                    f'text-anchor="middle">t{chart.triangle}</text>\n'
                )
            out.write("  </g>\n")
        if opt.annotate:
            for k, tr in enumerate(cl.transitions):
                deg = math.degrees(tr.angle)
                out.write(
                    f'  <text x="{_fmt(opt.margin)}" y="{_fmt(14 * (k + 1))}" font-size="11">'
                    f"edge {tr.edge}: chart {tr.source} &#8594; chart {tr.target}, "
                    f"rot {_fmt(deg)}&#176;</text>\n"
                )
    else:
        drawn_vertices = set()
        for chart in cl.charts:
            for line in chart_elements(chart, "  ", drawn_vertices):
                out.write(line + "\n")
    out.write("</svg>\n")
    return out.getvalue()
