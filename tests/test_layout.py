import dataclasses
import math

import numpy as np
import pytest

from hyperideal.errors import PreconditionError
from hyperideal.layout import (
    ATLAS,
    GLOBAL,
    _chart_positions,
    export_svg,
    lay_out,
    layout_from_json,
    layout_to_json,
)
from hyperideal.pattern import (
    DecoratedMetric,
    _corner_angles,
    _vertex_sums,
    metric_from_lengths,
    truncated_lengths,
)
from hyperideal.solve import solve_problem
from hyperideal.surface import GluedTriangulation

from .conftest import bundled_instance
from .oracles import random_disk, vertex_holonomy

PI = math.pi


def solved_metric(name):
    tri, data = bundled_instance(name)
    x, rep = solve_problem(tri, data)
    return tri, metric_from_lengths(truncated_lengths(x, tri), tri)


def test_single_triangle_global_canonical():
    tri = GluedTriangulation(1, [])
    dm = DecoratedMetric(lengths=np.array([3.0, 2.0, 2.4]), radii=np.array([0.4, 0.5, 0.3]))
    cl = lay_out(tri, dm)
    assert cl.mode == GLOBAL
    v = cl.vertices[0]
    # longest edge (side 0) on the positive x axis
    assert np.allclose(v[0], [0.0, 0.0], atol=1e-15)
    assert np.allclose(v[1], [3.0, 0.0], atol=1e-15)
    assert v[2][1] > 0.0


def test_placed_side_lengths_match_metric():
    tri, dm = solved_metric("fan3.json")
    cl = lay_out(tri, dm)
    for t, vertices in enumerate(cl.vertices):
        for s in range(3):
            placed = np.hypot(*(vertices[(s + 1) % 3] - vertices[s]))
            want = dm.lengths[tri.side_edge[(t, s)]]
            assert abs(placed - want) <= 1e-9 * max(1.0, want)


def test_global_mode_shared_edges_coincide():
    tri, dm = solved_metric("disk2.json")
    cl = lay_out(tri, dm)
    assert cl.mode == GLOBAL
    for e in tri.edges:
        if e.kind != "interior":
            continue
        (t, s), (t2, s2) = e.sides
        p = cl.vertices[t]
        q = cl.vertices[t2]
        assert np.max(np.abs(p[s] - q[(s2 + 1) % 3])) <= 1e-9
        assert np.max(np.abs(p[(s + 1) % 3] - q[s2])) <= 1e-9


def test_transitions_align_shared_edges():
    tri, dm = solved_metric("torus.json")
    cl = lay_out(tri, dm)
    assert cl.mode == ATLAS
    assert len(cl.rotation) == 3
    for k, (rotation, translation) in enumerate(zip(cl.rotation, cl.translation)):
        e = tri.edges[k]
        (t, s), (t2, s2) = e.sides
        moved = cl.vertices[t2] @ rotation.T + translation
        p = cl.vertices[t]
        assert np.max(np.abs(moved[s2] - p[(s + 1) % 3])) <= 1e-9
        assert np.max(np.abs(moved[(s2 + 1) % 3] - p[s])) <= 1e-9


def test_face_circle_orthogonal_to_vertex_circles():
    for name in ("torus.json", "disk2.json", "fan3.json"):
        tri, dm = solved_metric(name)
        cl = lay_out(tri, dm)
        for t in range(tri.triangle_count):
            for c in range(3):
                d2 = float(np.sum((cl.vertices[t, c] - cl.face_center[t]) ** 2))
                resid = abs(d2 - cl.face_radius[t] ** 2 - cl.vertex_radii[t, c] ** 2)
                assert resid <= 1e-9


def test_torus_holonomy_is_cone_angle():
    tri, dm = solved_metric("torus.json")
    cl = lay_out(tri, dm)
    rep = vertex_holonomy(tri, cl, 0, 0)
    assert rep.cone_angle == pytest.approx(2 * PI, abs=1e-7)
    assert np.max(np.abs(rep.rotation - np.eye(2))) <= 1e-7
    assert rep.vertex_drift <= 1e-9


def test_mode_selection_cone_disk():
    # a disk whose interior vertex has cone angle != 2pi gets an atlas
    rng = np.random.default_rng(3)
    for _ in range(40):
        tri, dm = random_disk(rng)
        interior = [v for v in range(len(tri.vertices)) if not tri.boundary_vertex[v]]
        if not interior:
            continue
        dm2 = DecoratedMetric(lengths=dm.lengths.copy(), radii=dm.radii.copy())
        dm2.lengths[0] *= 1.2
        try:
            cl = lay_out(tri, dm2)
        except PreconditionError:
            continue
        cone = _vertex_sums(tri, _corner_angles(_chart_positions(tri, dm2)))
        flat = all(
            tri.boundary_vertex[v] or abs(cone[v] - 2 * PI) <= 1e-7
            for v in range(len(tri.vertices))
        )
        assert cl.mode == (GLOBAL if flat else ATLAS)
        return
    pytest.skip("no disk with an interior vertex sampled")


def test_json_round_trip_bit_exact():
    from .test_svg import _instances  # test_svg imports this module

    for tri, dm in _instances():
        text = layout_to_json(lay_out(tri, dm))
        again = layout_to_json(layout_from_json(text))
        assert again == text


def test_layout_that_does_not_fit_the_triangulation():
    tri, dm = solved_metric("torus.json")
    cl = lay_out(tri, dm)
    charts = ("vertices", "face_center", "face_radius", "vertex_radii")
    one_chart = dataclasses.replace(cl, **{f: getattr(cl, f)[:1] for f in charts})
    one_transition = dataclasses.replace(
        cl, **{f: getattr(cl, f)[:1] for f in ("sides", "rotation", "translation")})
    # every transition stored with the next edge's sides
    shifted_sides = dataclasses.replace(cl, sides=np.roll(cl.sides, 1, axis=0))
    for bad in (one_chart, one_transition, shifted_sides):
        with pytest.raises(PreconditionError):
            export_svg(tri, bad)
        with pytest.raises(PreconditionError):
            vertex_holonomy(tri, bad, 0, 0)


def test_svg_counts_single_triangle():
    tri = GluedTriangulation(1, [])
    dm = DecoratedMetric(lengths=np.full(3, 2.0), radii=np.full(3, 0.4))
    svg = export_svg(tri, lay_out(tri, dm))
    assert svg.count("<path") == 1
    assert svg.count("<circle") == 4
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")


def test_svg_counts_torus_atlas():
    tri, dm = solved_metric("torus.json")
    svg = export_svg(tri, lay_out(tri, dm))
    assert svg.count('<g class="chart"') == 2
    assert svg.count("<circle") == 8


def test_svg_is_parseable_xml():
    import xml.etree.ElementTree as ET

    tri, dm = solved_metric("fan3.json")
    root = ET.fromstring(export_svg(tri, lay_out(tri, dm)))
    assert root.tag.endswith("svg")


def test_overlapping_global_development_warns(caplog):
    import logging

    # a fan of six 72-degree wedges around a boundary vertex develops to 432
    # degrees and wraps over itself; still a disk, still "flat" (no interior
    # vertices), so global mode is chosen and the overlap is only warned about
    k = 6
    gluings = [((t, 2), (t + 1, 0)) for t in range(k - 1)]
    tri = GluedTriangulation(k, gluings)
    rim = 2.0 * math.sin(math.radians(36.0))
    lengths = np.empty(len(tri.edges))
    for e in tri.edges:
        t, s = e.sides[0]
        lengths[e.index] = rim if s == 1 else 1.0
    dm = DecoratedMetric(lengths=lengths, radii=np.full(len(tri.vertices), 0.1))
    with caplog.at_level(logging.WARNING, logger="hyperideal.layout"):
        cl = lay_out(tri, dm)
    assert cl.mode == GLOBAL
    assert any("overlaps" in rec.message for rec in caplog.records)


def test_flat_disk_development_has_no_overlap_warning(caplog):
    import logging

    tri, dm = solved_metric("fan3.json")
    with caplog.at_level(logging.WARNING, logger="hyperideal.layout"):
        lay_out(tri, dm)
    assert not any("overlaps" in rec.message for rec in caplog.records)
