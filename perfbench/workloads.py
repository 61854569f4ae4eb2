"""The three workloads: input preparation, the timed operation, the gate.

Preparation runs before timing and produces JSON-able inputs; ``load``
turns them back into objects in the process that times the operations.  An
operation looks every program function up on the ``hyperideal`` package or
one of its modules at call time, so a tracer that replaces those attributes
sees each call.
"""

import json

import numpy as np

import hyperideal
from hyperideal.files import canonical_json, geometry_dict, parse_geometry
from hyperideal.surface import problem_dict

import generators
import start

THETA_TOL = 1e-8  # theta and Xi residuals, radians
LENGTH_TOL = 1e-7  # relative length and radius error after fixing the scale

TINY_ROUNDS = 13  # 13 x 5 = 65 instances
TORUS_N = 5  # T = 50
TORUS_COUNT = 32  # alternating flat and cone, more than a run gets through
DISK_N = 16  # T = 512


class GateError(Exception):
    """An operation's output failed the correctness gate."""


def gate(report, pattern, truth, dm, svg=None):
    """Check one solve against its ground truth; returns (theta/Xi residual,
    relative length/radius error) or raises GateError."""
    if report.status != "converged":
        raise GateError(f"status {report.status}")
    residual = max(pattern.max_theta_residual, pattern.max_xi_residual)
    if not residual <= THETA_TOL:
        raise GateError(f"angle residual {residual:.3e}")
    scale = truth.radii[0] / dm.radii[0]
    err = max(
        float(np.max(np.abs(scale * dm.lengths - truth.lengths) / truth.lengths)),
        float(np.max(np.abs(scale * dm.radii - truth.radii) / truth.radii)),
    )
    if not err <= LENGTH_TOL:
        raise GateError(f"relative length/radius error {err:.3e}")
    if svg is not None and "<path" not in svg:
        raise GateError("empty SVG")
    return residual, err


def _solved_metric(tri, data, x, report):
    """The CLI's reconstruction: lengths, metric, verification; gate-ready."""
    if report.status != "converged":
        raise GateError(f"status {report.status}")
    tl = hyperideal.truncated_lengths(x, tri)
    dm = hyperideal.metric_from_lengths(tl, tri)
    return tl, dm, hyperideal.verify_pattern(tri, data, dm)


# -- tiny-roundtrip: probe -> problem JSON -> solve -> solution JSON -> SVG ----


def prepare_tiny(rng):
    return [{"geometry": geometry_dict(tri, dm)} for tri, dm in generators.tiny_set(rng, TINY_ROUNDS)]


def load_tiny(item):
    tri, dm = parse_geometry(json.dumps(item["geometry"]))
    return {"tri": tri, "truth": dm}


def op_tiny(inst):
    tri, truth = inst["tri"], inst["truth"]
    data, _ = hyperideal.probe(tri, truth)
    text = hyperideal.files.canonical_json(hyperideal.surface.problem_dict(tri, data))
    tri, data = hyperideal.parse_problem(text)
    x, report = hyperideal.solve_problem(tri, data)
    tl, dm, pattern = _solved_metric(tri, data, x, report)
    hyperideal.files.canonical_json(hyperideal.files.solution_dict(tri, data, x, report, tl=tl, dm=dm))
    svg = hyperideal.export_svg(tri, hyperideal.lay_out(tri, dm))
    return gate(report, pattern, truth, dm, svg)


# -- torus-cold: the CLI's `solve` on a problem file ---------------------------


def prepare_torus(rng):
    out = []
    for k in range(TORUS_COUNT):
        tri, dm = generators.lattice_torus(rng, TORUS_N, cone=bool(k % 2))
        data, _ = hyperideal.probe(tri, dm)
        out.append({"problem": canonical_json(problem_dict(tri, data)), "geometry": geometry_dict(tri, dm)})
    return out


def load_torus(item):
    _, dm = parse_geometry(json.dumps(item["geometry"]))
    return {"problem": item["problem"], "truth": dm}


def op_torus(inst):
    tri, data = hyperideal.parse_problem(inst["problem"])
    x, report = hyperideal.solve_problem(tri, data)
    tl, dm, pattern = _solved_metric(tri, data, x, report)
    hyperideal.files.canonical_json(hyperideal.files.solution_dict(tri, data, x, report, tl=tl, dm=dm))
    return gate(report, pattern, inst["truth"], dm)


# -- disk-newton: constraints -> Newton from a fixed start -> global layout ----


def prepare_disk(rng):
    tri, dm = generators.lattice_disk(rng, DISK_N)
    data, _ = hyperideal.probe(tri, dm)
    x0, _ = start.max_slack_start(tri, data)
    return [{
        "problem": canonical_json(problem_dict(tri, data)),
        "geometry": geometry_dict(tri, dm),
        "start": [float(v) for v in x0],
    }]


def load_disk(item):
    tri, data = hyperideal.parse_problem(item["problem"])
    _, dm = parse_geometry(json.dumps(item["geometry"]))
    return {"tri": tri, "data": data, "start": np.array(item["start"]), "truth": dm}


def op_disk(inst):
    tri, data = inst["tri"], inst["data"]
    cs = hyperideal.build_constraints(tri, data)
    x, report = hyperideal.maximize(tri, data, hyperideal.AngleSystem(inst["start"]), cs=cs)
    _, dm, pattern = _solved_metric(tri, data, x, report)
    layout = hyperideal.lay_out(tri, dm)
    if layout.mode != "global":
        raise GateError(f"layout mode {layout.mode}")
    svg = hyperideal.export_svg(tri, layout)
    return gate(report, pattern, inst["truth"], dm, svg)


# name -> (prepare, load, op, ops per stopping unit)
WORKLOADS = {
    "tiny-roundtrip": (prepare_tiny, load_tiny, op_tiny, 1),
    "torus-cold": (prepare_torus, load_torus, op_torus, 2),
    "disk-newton": (prepare_disk, load_disk, op_disk, 1),
}
