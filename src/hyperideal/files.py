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
            "alpha": np.asarray(x.alphas(), dtype=float).tolist(),
            "gamma": np.asarray(x.gammas(), dtype=float).tolist(),
        },
    }


def solution_dict(tri, data, x, report, tl, dm):
    doc = angle_system_dict(tri, data, x)
    doc["a_edge"] = np.asarray(tl.a_edge, dtype=float).tolist()
    doc["a_vertex"] = np.asarray(tl.a_vertex, dtype=float).tolist()
    doc["lengths"] = np.asarray(dm.lengths, dtype=float).tolist()
    doc["radii"] = np.asarray(dm.radii, dtype=float).tolist()
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
        alpha, gamma = (float_array(doc["angles"][key], f"angles.{key}", (tri.triangle_count, 3))
                        for key in ("alpha", "gamma"))
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"solution file has invalid 'angles': {exc}") from exc
    dm = None
    if "lengths" in doc and "radii" in doc:
        dm = DecoratedMetric(lengths=float_array(doc["lengths"], "lengths", (len(tri.edge_sides),)),
                             radii=float_array(doc["radii"], "radii", (tri.vertex_count,)))
    return tri, data, np.hstack([alpha, gamma]).reshape(-1), dm


def geometry_dict(tri, dm):
    return {
        "triangles": tri.triangle_count,
        "gluings": [{"a": list(a), "b": list(b)} for a, b in tri.gluings],
        "lengths": np.asarray(dm.lengths, dtype=float).tolist(),
        "radii": np.asarray(dm.radii, dtype=float).tolist(),
    }


def parse_geometry(text):
    """Parse a geometry file; returns (GluedTriangulation, DecoratedMetric)."""
    doc = json_object(text, "geometry")
    count, gluings = parse_header(doc, "geometry", ("triangles", "gluings", "lengths", "radii"))
    lengths = float_array(doc["lengths"], "lengths", (3 * count - len(gluings),))
    tri = GluedTriangulation(count, gluings)
    return tri, DecoratedMetric(lengths=lengths,
                                radii=float_array(doc["radii"], "radii", (tri.vertex_count,)))
