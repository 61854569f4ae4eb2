"""Command-line interface.

Subcommands: check, solve, layout, probe, volume, selftest.  Exit codes:
0 success/feasible, 2 infeasible, 3 parse error, 4 solver non-convergence,
5 precondition violation.
"""

import argparse
import logging
import math
import re
import sys

import numpy as np

from . import energy
from .coherent import Infeasible, build_constraints, find_coherent, is_coherent
from .errors import (
    ConvergenceError,
    DomainError,
    NotCoherentError,
    NotCriticalError,
    PreconditionError,
    SchemaError,
    SingularityError,
    SurfaceError,
)
from .files import canonical_json, parse_geometry, read_solution, solution_dict
from .layout import export_svg, lay_out, layout_to_dict
from .lob import LOB_PI_3, LOB_PI_4, LOB_PI_6, lob
from .pattern import (
    DecoratedMetric,
    metric_from_lengths,
    probe,
    truncated_lengths,
    verify_pattern,
)
from .solve import CONVERGED, INFEASIBLE, LINE_SEARCH_FAILED, solve_problem
from .surface import parse_problem, problem_dict

logger = logging.getLogger("hyperideal")

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_PARSE = 3
EXIT_NO_CONVERGENCE = 4
EXIT_PRECONDITION = 5

_PI_RE = re.compile(r"^([+-]?(?:\d+\.?\d*|\.\d+)?)\s*\*?\s*pi\s*(?:/\s*(\d+\.?\d*))?$")


def parse_angle(text: str) -> float:
    """Parse an angle literal in radians: '0.5', 'pi/3', '5pi/6', '2*pi'."""
    s = text.strip().lower().replace("π", "pi")
    m = _PI_RE.match(s)
    if m:
        num = m.group(1)
        factor = float(num) if num not in ("", "+", "-") else float(num + "1")
        value = factor * math.pi
        if m.group(2):
            value /= float(m.group(2))
        return value
    try:
        return float(s)
    except ValueError:
        raise SchemaError(f"cannot parse angle literal {text!r}") from None


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SchemaError(message)


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc


def _emit(text, path):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _run_check(args):
    tri, data = parse_problem(_read(args.input))
    cs = build_constraints(tri, data)
    found = find_coherent(cs)
    if isinstance(found, Infeasible):
        print(f"infeasible ({found.reason}): {found.message}")
        return EXIT_INFEASIBLE
    report = is_coherent(found, cs)
    print(f"feasible: coherent angle system found (min slack {report.min_slack:.6g})")
    if args.output:
        doc = {
            "problem": problem_dict(tri, data),
            "angles": {
                "alpha": [list(map(float, r)) for r in found.alphas()],
                "gamma": [list(map(float, r)) for r in found.gammas()],
            },
        }
        _emit(canonical_json(doc), args.output)
    return EXIT_OK


def _run_solve(args):
    if not 0.0 < args.tol <= 1e-4:
        raise SchemaError("--tol must lie in (0, 1e-4]")
    if args.max_iters < 1:
        raise SchemaError("--max-iters must be at least 1")
    tri, data = parse_problem(_read(args.input))
    x, report = solve_problem(tri, data, tol=args.tol, max_iters=args.max_iters)
    if report.status == INFEASIBLE:
        print(f"infeasible: {report.diagnostics[0] if report.diagnostics else ''}")
        return EXIT_INFEASIBLE
    if report.status != CONVERGED:
        if report.status == LINE_SEARCH_FAILED:
            what = f"line search failed at iteration {report.iterations}"
        else:
            what = f"did not converge in {report.iterations} iterations"
        print(
            f"{what} (projected gradient {report.projected_grad_norm:.3e})",
            file=sys.stderr,
        )
        return EXIT_NO_CONVERGENCE
    tl = truncated_lengths(x, tri)
    dm = metric_from_lengths(tl, tri)
    pattern_report = verify_pattern(tri, data, dm)
    logger.info(
        "solved: F=%.12g, %d iterations, theta residual %.3e",
        report.objective, report.iterations, pattern_report.max_theta_residual,
    )
    doc = solution_dict(tri, data, x, report, tl=tl, dm=dm)
    _emit(canonical_json(doc), args.output)
    for note in report.diagnostics:
        print(f"note: {note}", file=sys.stderr)
    return EXIT_OK


def _run_layout(args):
    tri, data, values, dm = read_solution(_read(args.input))
    if dm is None:
        raise PreconditionError("solution file carries no lengths/radii to lay out")
    cl = lay_out(tri, dm)
    if args.format == "svg":
        _emit(export_svg(tri, cl), args.output)
    else:
        _emit(canonical_json(layout_to_dict(cl)), args.output)
    return EXIT_OK


def _run_probe(args):
    tri, dm = parse_geometry(_read(args.input))
    data, x = probe(tri, dm)
    _emit(canonical_json(problem_dict(tri, data)), args.output)
    return EXIT_OK


def _run_volume(args):
    groups = [
        ("ideal", 3, lambda v: energy.v0(v)),
        ("tet", 6, lambda v: energy.tet_volume(v[:3], v[3:])),
        ("p1", 1, lambda v: energy.vol_p1(v[0])),
        ("prism", 3, lambda v: energy.vol_prism(*v)),
        ("p3", 3, lambda v: energy.vol_p3(*v)),
        ("p4", 3, lambda v: energy.vol_p4(*v)),
    ]
    chosen = [(name, n, fn) for name, n, fn in groups if getattr(args, name) is not None]
    if len(chosen) != 1:
        raise SchemaError("volume needs exactly one of --ideal/--tet/--p1/--prism/--p3/--p4")
    name, n, fn = chosen[0]
    values = [parse_angle(v) for v in getattr(args, name)]
    print(format(float(fn(np.array(values))), ".17g"))
    return EXIT_OK


def _selftest_lob_oracle(x):
    """Quadrature of the defining integral (singular parts in closed form)."""
    nodes, weights = np.polynomial.legendre.leggauss(32)
    if x == 0.0:
        return 0.0
    pi = math.pi
    px = (pi - x) * math.log(pi - x) if x != pi else 0.0
    closed = -x * math.log(2.0 / pi) - x * math.log(x) + px + 2.0 * x - pi * math.log(pi)
    t = 0.5 * x * (nodes + 1.0)
    smooth = np.log(np.sinc(t / pi)) + np.log(pi / (pi - t))
    return closed - 0.5 * x * float(weights @ smooth)


def _run_selftest(args):
    from .surface import AngleData, GluedTriangulation

    rng = np.random.default_rng(20240901)
    failures = 0

    def check(name, ok, detail=""):
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}  {name}{'  ' + detail if detail else ''}")
        failures += 0 if ok else 1

    refs = [(math.pi / 6, LOB_PI_6), (math.pi / 3, LOB_PI_3), (math.pi / 4, LOB_PI_4)]
    check("lob special values", all(abs(lob(x) - v) < 1e-14 for x, v in refs))
    grid = np.linspace(0.0, math.pi, 201)
    worst = max(abs(lob(g) - _selftest_lob_oracle(g)) for g in grid)
    check("lob vs quadrature oracle", worst <= 1e-12, f"max err {worst:.2e}")
    xs = rng.uniform(-10, 10, 2000)
    check("lob periodicity/oddness",
          np.max(np.abs(lob(xs + math.pi) - lob(xs))) <= 1e-13
          and np.max(np.abs(lob(-xs) + lob(xs))) <= 1e-13)

    a, g = energy.sample_delta(20000, rng)
    v = energy.tet_volume(a, g)
    five = lob(energy.five_tetra(a, g)).sum(axis=(-1, -2))
    check("five-tetrahedra identity", np.max(np.abs(2 * v - five)) <= 1e-12)
    alt = lob(energy.lob_arguments(a, g)[..., np.array(energy.FIVE_TRIPLES_ALT)]).sum(axis=(-1, -2))
    check("alternative decomposition", np.max(np.abs(2 * v - alt)) <= 1e-12)
    p4 = (energy.vol_p4(a[:, 0], a[:, 2], g[:, 0])
          + energy.vol_p4(a[:, 1], a[:, 0], g[:, 1])
          + energy.vol_p4(a[:, 2], a[:, 1], g[:, 2]))
    check("pyramid identity", np.max(np.abs(v - p4)) <= 1e-12)

    ab = rng.uniform(0.1, 1.0, (200, 3))
    ab = ab[ab.sum(axis=1) < math.pi - 0.05]
    al, be, ga = ab[:, 0], ab[:, 1], ab[:, 2]
    gp = 0.5 * (math.pi - al - be + ga)
    ap = 0.5 * (math.pi + al - be - ga)
    bp = 0.5 * (math.pi - al + be - ga)
    lam = 0.5 * (math.pi - al - be - ga)
    mu = math.pi - gp
    sub = (energy.v0(np.stack([al, bp, gp], axis=-1))
           + energy.v0(np.stack([be, gp, ap], axis=-1))
           + energy.v0(np.stack([ga, lam, mu], axis=-1)))
    check("prism subdivision identity",
          np.max(np.abs(energy.vol_prism(al, be, ga) - sub)) <= 1e-12)

    torus = GluedTriangulation(2, [((0, 0), (1, 0)), ((0, 1), (1, 1)), ((0, 2), (1, 2))])
    data = AngleData(theta=np.full(3, math.pi / 2), xi=np.array([2 * math.pi]))
    x, rep = solve_problem(torus, data)
    ok = (rep.status == CONVERGED
          and np.max(np.abs(x.alphas() - math.pi / 4)) < 1e-8
          and np.max(np.abs(x.gammas() - math.pi / 3)) < 1e-8)
    check("symmetric torus solve", ok, f"{rep.iterations} iterations")
    dm = metric_from_lengths(truncated_lengths(x, torus), torus)
    vr = verify_pattern(torus, data, dm)
    check("torus pattern residuals",
          max(vr.max_theta_residual, vr.max_xi_residual) <= 1e-7)

    data2, x2 = probe(torus, DecoratedMetric(lengths=np.full(3, 2.0), radii=np.array([0.55])))
    x3, rep3 = solve_problem(torus, data2)
    dm3 = metric_from_lengths(truncated_lengths(x3, torus), torus)
    scale = 2.0 / dm3.lengths[0]
    ok = (np.max(np.abs(dm3.lengths * scale - 2.0)) < 1e-6
          and abs(dm3.radii[0] * scale - 0.55) < 1e-6)
    check("probe/solve round trip", ok)

    print("selftest:", "all passed" if failures == 0 else f"{failures} failed")
    return EXIT_OK if failures == 0 else 1


def build_parser():
    p = _Parser(prog="hyperideal",
                description="Euclidean hyperideal circle patterns: check, solve, draw.")
    p.add_argument("--verbose", action="store_true", help="verbose logging")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="decide feasibility of the coherent polytope")
    c.add_argument("input")
    c.add_argument("-o", "--output", help="write the found angle system here")
    c.set_defaults(func=_run_check)

    s = sub.add_parser("solve", help="maximize the volume functional and reconstruct")
    s.add_argument("input")
    s.add_argument("-o", "--output", help="solution file (stdout when omitted)")
    s.add_argument("--tol", type=float, default=1e-10,
                   help="projected-gradient tolerance (default 1e-10)")
    s.add_argument("--max-iters", type=int, default=200)
    s.set_defaults(func=_run_solve)

    l = sub.add_parser("layout", help="draw a solution file as SVG or JSON")
    l.add_argument("input")
    l.add_argument("-o", "--output")
    l.add_argument("--format", choices=("svg", "json"), default="svg")
    l.set_defaults(func=_run_layout)

    pr = sub.add_parser("probe", help="read a problem file off an explicit geometry")
    pr.add_argument("input")
    pr.add_argument("-o", "--output")
    pr.set_defaults(func=_run_probe)

    v = sub.add_parser("volume", help="evaluate the volume formulas on angle literals")
    v.add_argument("--ideal", nargs=3, metavar="G")
    v.add_argument("--tet", nargs=6, metavar="A")
    v.add_argument("--p1", nargs=1, metavar="A")
    v.add_argument("--prism", nargs=3, metavar="A")
    v.add_argument("--p3", nargs=3, metavar="A")
    v.add_argument("--p4", nargs=3, metavar="A")
    v.set_defaults(func=_run_volume)

    t = sub.add_parser("selftest", help="run the bundled identity suite")
    t.set_defaults(func=_run_selftest)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING)
        return args.func(args)
    except (SchemaError, SurfaceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (PreconditionError, DomainError, NotCoherentError,
            NotCriticalError, SingularityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
