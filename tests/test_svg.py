import dataclasses
import json

import numpy as np
import pytest

from hyperideal.errors import PreconditionError, SchemaError
from hyperideal.layout import (
    export_svg,
    lay_out,
    layout_from_json,
    layout_to_json,
)

from .oracles import export_svg_loop, lattice_disk, random_disk, symmetric_torus
from .test_layout import solved_metric

FEASIBLE = ("disk2.json", "fan3.json", "torus.json", "triangle.json")


def _instances():
    out = [solved_metric(name) for name in FEASIBLE]
    for seed in range(5):
        out.append(random_disk(np.random.default_rng(seed)))
    out.append(lattice_disk(np.random.default_rng(8), 8))
    out.append(symmetric_torus(0.3))
    return out


def test_svg_matches_one_chart_at_a_time_export():
    modes = set()
    for tri, dm in _instances():
        cl = lay_out(tri, dm)
        modes.add(cl.mode)
        assert export_svg(tri, cl) == export_svg_loop(tri, cl)
    assert modes == {"global", "atlas"}


@pytest.mark.parametrize("name", ["torus.json", "fan3.json"])
def test_svg_of_json_round_tripped_layout_matches(name):
    tri, dm = solved_metric(name)
    cl = layout_from_json(layout_to_json(lay_out(tri, dm)))
    assert export_svg(tri, cl) == export_svg_loop(tri, cl)


@pytest.mark.parametrize("ids", [[0, 0], [1, -1], [0, 7]])
def test_layout_json_rejects_chart_ids_that_are_not_the_triangles(ids):
    tri, dm = solved_metric("disk2.json")
    doc = json.loads(layout_to_json(lay_out(tri, dm)))
    for chart, t in zip(doc["charts"], ids):
        chart["triangle"] = t
    with pytest.raises(SchemaError):
        layout_from_json(json.dumps(doc))


def test_layout_json_rejects_edge_ids_out_of_order():
    tri, dm = solved_metric("torus.json")
    doc = json.loads(layout_to_json(lay_out(tri, dm)))
    doc["transitions"].reverse()
    with pytest.raises(SchemaError):
        layout_from_json(json.dumps(doc))


def test_svg_rejects_an_unknown_mode():
    tri, dm = solved_metric("torus.json")
    cl = lay_out(tri, dm)
    with pytest.raises(PreconditionError):
        export_svg(tri, dataclasses.replace(cl, mode="Atlas"))


@pytest.mark.parametrize("mode", ["globl", "Atlas", None])
def test_layout_json_rejects_unknown_mode(mode):
    tri, dm = solved_metric("disk2.json")
    doc = json.loads(layout_to_json(lay_out(tri, dm)))
    doc["mode"] = mode
    with pytest.raises(SchemaError):
        layout_from_json(json.dumps(doc))


@pytest.mark.parametrize("field, keep", [("vertices", 2), ("face_center", 1), ("vertex_radii", 2)])
def test_layout_json_rejects_chart_arrays_of_the_wrong_shape(field, keep):
    tri, dm = solved_metric("disk2.json")
    doc = json.loads(layout_to_json(lay_out(tri, dm)))
    for chart in doc["charts"]:
        chart[field] = chart[field][:keep]
    with pytest.raises(SchemaError):
        layout_from_json(json.dumps(doc))


@pytest.mark.parametrize("path, value", [
    (("charts", 0, "face_radius"), "2.5"),
    (("charts", 1, "vertices", 1, 0), "0.25"),
    (("charts", 0, "vertex_radii", 2), True),
    (("charts", 1, "vertices", 2, 1), float("nan")),
    (("transitions", 0, "rotation", 0, 1), float("inf")),
    (("charts", 0, "face_radius"), 10 ** 400),  # beyond the float range
])
def test_layout_json_rejects_values_that_are_not_finite_numbers(path, value):
    tri, dm = solved_metric("disk2.json")
    doc = json.loads(layout_to_json(lay_out(tri, dm)))
    *keys, last = path
    field = doc
    for key in keys:
        field = field[key]
    field[last] = value
    with pytest.raises(SchemaError):
        layout_from_json(json.dumps(doc))

