"""Command-line interface.

Subcommands: check, solve, layout, probe, volume, selftest.  Exit codes:
0 success/feasible, 2 infeasible, 3 parse error (also an unreadable or
non-UTF-8 input, or an unwritable output), 4 solver non-convergence,
5 precondition violation.
"""

import argparse
import contextlib
import io
import logging
import math
import re
import sys
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np

from . import energy
from .coherent import Infeasible, build_constraints, find_max_slack, is_coherent
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
from .files import angle_system_dict, canonical_json, parse_geometry, read_solution, solution_dict
from .layout import export_svg, lay_out, layout_from_json, layout_to_json
from .pattern import metric_from_lengths, probe, truncated_lengths, verify_pattern
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
            if float(m.group(2)) == 0.0:
                raise SchemaError(f"angle literal {text!r} divides by zero")
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
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc


def _emit(text, path):
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise SchemaError(f"cannot write {path}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _run_check(args):
    tri, data = parse_problem(_read(args.input))
    cs = build_constraints(tri, data)
    found = find_max_slack(cs)
    if isinstance(found, Infeasible):
        print(f"infeasible ({found.reason}): {found.message}")
        return EXIT_INFEASIBLE
    report = is_coherent(found, cs)
    print(f"feasible: coherent angle system found (min slack {report.min_slack:.6g})")
    if args.output:
        _emit(canonical_json(angle_system_dict(tri, data, found)), args.output)
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
        _emit(layout_to_json(cl), args.output)
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


FEASIBLE = ("torus", "disk2", "fan3", "triangle")


def _reads_back(text):
    """Whether layout JSON ``text`` reads back to the same bytes."""
    try:
        return layout_to_json(layout_from_json(text)) == text
    except SchemaError:
        return False


def _run_selftest(args):
    """Run the subcommands on the bundled instances, as a user would: each
    feasible one has a pattern, the infeasible one gets a certificate."""
    failures = 0

    def check(name, ok, detail=""):
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}  {name}{'  ' + detail if detail else ''}")
        failures += 0 if ok else 1

    def run(*argv):
        """Exit code of ``hyperideal argv`` and a detail naming it, with the
        subcommand's last message when it fails."""
        said = io.StringIO()
        with contextlib.redirect_stdout(said), contextlib.redirect_stderr(said):
            code = main([str(a) for a in argv])
        last = said.getvalue().strip().splitlines()[-1:] if code else []
        return code, ": ".join([f"exit {code}"] + last)

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for item in (resources.files("hyperideal") / "instances").iterdir():
            (tmp / item.name).write_bytes(item.read_bytes())

        expected = {**dict.fromkeys(FEASIBLE, EXIT_OK), "triangle_infeasible": EXIT_INFEASIBLE}
        for name, want in expected.items():
            code, detail = run("check", tmp / f"{name}.json")
            check(f"check {name}", code == want, detail)
        for name in ("torus", "disk2"):
            outs = [tmp / f"{name}.check{k}.json" for k in (1, 2)]
            codes = [run("check", tmp / f"{name}.json", "-o", out)[0] for out in outs]
            check(f"check -o {name} is deterministic",
                  codes == [EXIT_OK] * 2 and outs[0].read_bytes() == outs[1].read_bytes())

        solutions = {}
        for name in FEASIBLE:
            sol, svg, js = (tmp / f"{name}.{ext}" for ext in ("solution.json", "svg", "lay.json"))
            code, detail = run("solve", tmp / f"{name}.json", "-o", sol)
            residual = math.inf
            if code == EXIT_OK:
                tri, data, values, dm = read_solution(sol.read_text(encoding="utf-8"))
                report = verify_pattern(tri, data, dm)
                residual = max(report.max_theta_residual, report.max_xi_residual)
                solutions[name] = values.reshape(-1, 6), dm
            check(f"solve {name}", residual <= 1e-8, f"{detail}, theta/xi residual {residual:.1e}")
            code, detail = run("layout", sol, "-o", svg)
            drawn = code == EXIT_OK and "<path" in svg.read_text(encoding="utf-8")
            check(f"layout {name}", drawn, detail)
            code, detail = run("layout", sol, "--format", "json", "-o", js)
            check(f"layout --format json {name} reads back",
                  code == EXIT_OK and _reads_back(js.read_text(encoding="utf-8")), detail)

        error = math.inf
        if "torus" in solutions:
            error = np.max(np.abs(solutions["torus"][0] - np.repeat([math.pi / 4, math.pi / 3], 3)))
        check("torus angles pi/4, pi/3", error <= 1e-8, f"max error {error:.1e}")

        probed = tmp / "disk2.probed.json"
        code, detail = run("probe", tmp / "disk2_geometry.json", "-o", probed)
        check("probe disk2_geometry gives disk2",
              code == EXIT_OK and probed.read_bytes() == (tmp / "disk2.json").read_bytes(), detail)
        error = math.inf
        if "disk2" in solutions:
            truth = parse_geometry((tmp / "disk2_geometry.json").read_text(encoding="utf-8"))[1]
            dm = solutions["disk2"][1]
            scale = truth.lengths[0] / dm.lengths[0]
            error = max(np.max(np.abs(dm.lengths * scale - truth.lengths)),
                        np.max(np.abs(dm.radii * scale - truth.radii)))
        check("disk2 solution gives back disk2_geometry", error <= 1e-6, f"max error {error:.1e}")

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

    t = sub.add_parser("selftest", help="run the subcommands on the bundled instances")
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
