"""Euclidean hyperideal circle patterns.

Decide feasibility of the coherent angle polytope, maximize the concave
truncated-volume functional over it, reconstruct the circle pattern (edge
lengths and vertex-circle radii, up to scale) from the critical point, verify
it against the prescribed data, and export planar drawings.

Typical use::

    from hyperideal import (
        parse_problem, solve_problem, truncated_lengths, metric_from_lengths,
    )

    tri, data = parse_problem(open("torus.json").read())
    x, report = solve_problem(tri, data)
    dm = metric_from_lengths(truncated_lengths(x, tri), tri)
"""

from .coherent import (
    AngleSystem,
    ConstraintSystem,
    Infeasible,
    build_constraints,
    find_coherent,
    find_max_slack,
    is_coherent,
)
from .energy import (
    classify,
    five_tetra,
    tet_volume,
    tet_volume_grad,
    v0,
    vol_p1,
    vol_p3,
    vol_p4,
    vol_prism,
)
from .layout import ChartLayout, export_svg, lay_out, layout_from_json, layout_to_json
from .lob import backend, lob, lob_deriv
from .pattern import (
    DecoratedMetric,
    TruncatedLengths,
    metric_from_lengths,
    orthocircle,
    probe,
    read_angles,
    truncated_lengths,
    verify_pattern,
)
from .solve import SolveReport, maximize, objective_f, objective_grad, solve_problem
from .surface import AngleData, GluedTriangulation, parse_problem

__all__ = [
    "AngleData",
    "AngleSystem",
    "ChartLayout",
    "ConstraintSystem",
    "DecoratedMetric",
    "GluedTriangulation",
    "Infeasible",
    "SolveReport",
    "TruncatedLengths",
    "backend",
    "build_constraints",
    "classify",
    "export_svg",
    "find_coherent",
    "find_max_slack",
    "five_tetra",
    "is_coherent",
    "lay_out",
    "layout_from_json",
    "layout_to_json",
    "lob",
    "lob_deriv",
    "maximize",
    "metric_from_lengths",
    "objective_f",
    "objective_grad",
    "orthocircle",
    "parse_problem",
    "probe",
    "read_angles",
    "solve_problem",
    "tet_volume",
    "tet_volume_grad",
    "truncated_lengths",
    "v0",
    "verify_pattern",
    "vol_p1",
    "vol_p3",
    "vol_p4",
    "vol_prism",
]

__version__ = "0.1.0"
