"""File schemas: canonical JSON, solution files, geometry files.

Every file is written by ``json.dumps``: floats as Python's shortest
round-trip ``repr`` (``0.1``, ``1.0``, ``-0.0``), keys in insertion order, so
a given input always produces byte-identical output files.
"""

import json

import numpy as np

from .errors import SchemaError
from .pattern import DecoratedMetric
from .surface import (GluedTriangulation, float_array, json_object, object_of, parse_header,
                      problem_dict, problem_of)


def canonical_json(value) -> str:
    """Deterministic JSON text: floats as their shortest round-trip repr,
    insertion key order."""
    try:
        return json.dumps(value, allow_nan=False) + "\n"
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"cannot serialize: {exc}") from exc


def angle_system_dict(tri, data, x):
    """The "problem" and "angles" blocks of an angle system ``x`` of (tri,
    data): what ``check -o`` writes, and how a solution file starts."""
    return {
        "problem": problem_dict(tri, data),
        "angles": {
            "alpha": [list(map(float, row)) for row in x.alphas()],
            "gamma": [list(map(float, row)) for row in x.gammas()],
        },
    }


def solution_dict(tri, data, x, report, tl, dm):
    doc = angle_system_dict(tri, data, x)
    doc["a_edge"] = [float(v) for v in tl.a_edge]
    doc["a_vertex"] = [float(v) for v in tl.a_vertex]
    doc["lengths"] = [float(v) for v in dm.lengths]
    doc["radii"] = [float(v) for v in dm.radii]
    doc["report"] = {
        "objective": report.objective,
        "grad_norm": report.projected_grad_norm,
        "iterations": report.iterations,
        "min_slack": report.min_slack,
        "residuals": {"compat1": report.compat1, "compat2": report.compat2},
        "status": report.status,
        "diagnostics": list(report.diagnostics),
    }
    return doc


def read_solution(text):
    """Parse a solution file; returns (tri, data, angles (T,6), dm or None)."""
    doc = json_object(text, "solution")
    if "problem" not in doc:
        raise SchemaError("solution file is missing the embedded 'problem'")
    tri, data = problem_of(object_of(doc["problem"], "problem"))
    try:
        alpha, gamma = (np.array([float_array(row, f"angles.{key}", 3) for row in doc["angles"][key]])
                        for key in ("alpha", "gamma"))
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"solution file has invalid 'angles': {exc}") from exc
    if alpha.shape != (tri.triangle_count, 3) or gamma.shape != (tri.triangle_count, 3):
        raise SchemaError("solution angles have the wrong shape")
    dm = None
    if "lengths" in doc and "radii" in doc:
        dm = DecoratedMetric(lengths=float_array(doc["lengths"], "lengths", len(tri.edge_sides)),
                             radii=float_array(doc["radii"], "radii", tri.vertex_count))
    return tri, data, np.hstack([alpha, gamma]).reshape(-1), dm


def geometry_dict(tri, dm):
    return {
        "triangles": tri.triangle_count,
        "gluings": [{"a": list(a), "b": list(b)} for a, b in tri.gluings],
        "lengths": [float(v) for v in dm.lengths],
        "radii": [float(v) for v in dm.radii],
    }


def parse_geometry(text):
    """Parse a geometry file; returns (GluedTriangulation, DecoratedMetric)."""
    doc = json_object(text, "geometry")
    count, gluings = parse_header(doc, "geometry", ("triangles", "gluings", "lengths", "radii"))
    lengths = float_array(doc["lengths"], "lengths", 3 * count - len(gluings))
    tri = GluedTriangulation(count, gluings)
    return tri, DecoratedMetric(lengths=lengths,
                                radii=float_array(doc["radii"], "radii", tri.vertex_count))
