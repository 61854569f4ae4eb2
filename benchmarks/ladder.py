"""Scaling ladder: the whole pipeline on generated instances of growing size.

    PYTHONPATH=src python benchmarks/ladder.py [--max-t T] [--baseline REV]
        [--out FILE]

Rungs: flat lattice disks, flat lattice tori and cone lattice tori from
``perfbench/generators.py`` with n = 8, 16, 32, 48 and 64, that is
T = 2 n^2 = 128 to 8192 triangles, up to ``--max-t``.  Each instance is
drawn from ``numpy.random.default_rng(n)`` and made into problem data by
``probe``, so its answer is known.  Each rung runs in a fresh process,
which reports the wall seconds of every stage as it finishes it: parse,
constraint assembly, the max-slack LP, ``maximize``, the reconstruction of
lengths and radii with its verification, layout and SVG.  It also reports
the LP's iteration count (calls of ``_KKT.gram``, one per interior-point
step), Newton's, and its peak RSS so far after each stage, so that a
rung and its baseline compare at the same stage.  A stage still running
``CAP_S`` = 60 seconds after the previous one finished is recorded as
"capped" (the first stage: 60 seconds after the process started) and the
process is stopped.

A rung's gate: ``maximize`` converges, the theta and Xi residuals of the
solved pattern are at most 1e-8, and its lengths and radii, scaled to the
known answer, are within 1e-7 relative error (the tolerances of
``perfbench``).  The script exits with status 1 when any rung's gate
fails or a stage is capped.

``--baseline REV`` exports the source tree of that git revision with
``git archive`` into a temporary directory and runs every rung again with
its ``src/`` up to and including ``maximize``.  ``calibration`` times
``lob`` on 1e6 arguments (best of five), so that ladders taken on
different machines can be compared.  Every process runs with one BLAS
thread.  The result is JSON, written to ``--out`` or printed.
"""

import argparse
import json
import os
import platform
import queue
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_ENV)

FAMILIES = ("disk", "torus", "cone")
SIZES = (8, 16, 32, 48, 64)  # T = 2 n^2
STAGES = ("parse", "build_constraints", "find_coherent", "maximize", "reconstruct", "lay_out",
          "export_svg")
THETA_TOL = 1e-8
LENGTH_TOL = 1e-7
CAP_S = 60.0  # seconds allowed per stage


def peak_rss_mb():
    """This process's peak resident set, from /proc/self/status on Linux.
    ``getrusage`` is no substitute: across ``exec`` it keeps the high-water
    mark of the process that spawned this one."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def child(problem_path, geometry_path, last_stage):
    """Runs the stages of one rung up to ``last_stage`` with the hyperideal
    on ``sys.path``, printing one JSON line per finished stage."""
    import numpy as np

    import hyperideal
    import hyperideal.coherent as coherent
    from hyperideal.files import parse_geometry

    lp_steps = [0]
    if hasattr(coherent, "_KKT"):
        gram = coherent._KKT.gram

        def counting_gram(self, factor):
            lp_steps[0] += 1
            return gram(self, factor)

        coherent._KKT.gram = counting_gram

    def stage(name, run):
        start = time.perf_counter()
        value = run()
        seconds = time.perf_counter() - start
        print(json.dumps({"stage": name, "s": seconds, "peak_rss_mb": peak_rss_mb()}), flush=True)
        return value

    text = Path(problem_path).read_text()
    tri, data = stage("parse", lambda: hyperideal.parse_problem(text))
    cs = stage("build_constraints", lambda: hyperideal.build_constraints(tri, data))
    x0 = stage("find_coherent", lambda: hyperideal.find_coherent(cs))
    print(json.dumps({"lp_iterations": lp_steps[0]}), flush=True)
    x, report = stage("maximize", lambda: hyperideal.maximize(tri, data, x0, cs=cs))
    print(json.dumps({"newton_iterations": report.iterations, "status": report.status}), flush=True)
    if last_stage == "maximize":
        return

    def reconstruct():
        dm = hyperideal.metric_from_lengths(hyperideal.truncated_lengths(x, tri), tri)
        return dm, hyperideal.verify_pattern(tri, data, dm)

    dm, pattern = stage("reconstruct", reconstruct)
    _, truth = parse_geometry(Path(geometry_path).read_text())
    scale = truth.radii[0] / dm.radii[0]
    print(json.dumps({
        "theta_residual": max(pattern.max_theta_residual, pattern.max_xi_residual),
        "length_rel_err": max(
            float(np.max(np.abs(scale * dm.lengths - truth.lengths) / truth.lengths)),
            float(np.max(np.abs(scale * dm.radii - truth.radii) / truth.radii))),
    }), flush=True)
    layout = stage("lay_out", lambda: hyperideal.lay_out(tri, dm))
    print(json.dumps({"layout_mode": layout.mode}), flush=True)
    stage("export_svg", lambda: hyperideal.export_svg(tri, layout))


def run_rung(problem_path, geometry_path, src, last_stage):
    """One rung in a fresh process: {"stages": {name: seconds or "capped"},
    "peak_rss_mb": {name: MB after that stage}} and the other facts that
    the process reported."""
    result = {"stages": {}, "peak_rss_mb": {}}
    lines = queue.Queue()
    with subprocess.Popen(
            [sys.executable, __file__, "--child", str(problem_path), str(geometry_path), last_stage],
            env=dict(os.environ, PYTHONPATH=str(src)), stdout=subprocess.PIPE, text=True,
            cwd=ROOT) as proc:

        def read():
            for line in proc.stdout:
                lines.put(line)
            lines.put(None)

        reader = threading.Thread(target=read)
        reader.start()
        while True:
            try:
                line = lines.get(timeout=CAP_S)
            except queue.Empty:
                proc.kill()
                pending = [s for s in STAGES[:STAGES.index(last_stage) + 1]
                           if s not in result["stages"]]
                result["stages"][pending[0]] = "capped"
                break
            if line is None:
                break
            fact = json.loads(line)
            if "stage" in fact:
                result["stages"][fact["stage"]] = fact["s"]
                result["peak_rss_mb"][fact["stage"]] = fact["peak_rss_mb"]
            else:
                result.update(fact)
        proc.wait()
        reader.join()
    if proc.returncode and "capped" not in result["stages"].values():
        result["error"] = f"exit status {proc.returncode}"
    return result


def gate(result):
    """None when the rung passed, else what failed."""
    if "capped" in result["stages"].values():
        return "capped"
    if "error" in result:
        return result["error"]
    if result.get("status") != "converged":
        return f"status {result.get('status')}"
    if not result.get("theta_residual", float("inf")) <= THETA_TOL:
        return f"angle residual {result.get('theta_residual')}"
    if not result.get("length_rel_err", float("inf")) <= LENGTH_TOL:
        return f"relative length/radius error {result.get('length_rel_err')}"
    return None


def calibration():
    """Seconds of one ``lob`` call on 1e6 arguments in (0, pi), best of five."""
    import numpy as np

    from hyperideal.lob import lob

    x = np.linspace(1e-3, np.pi - 1e-3, 10**6)
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        lob(x)
        best = min(best, time.perf_counter() - start)
    return best


def export_revision(rev, into):
    """The tracked files of git revision ``rev`` under ``into``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return subprocess.run(["git", "rev-parse", rev], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--max-t", type=int, default=8192, help="largest rung, in triangles")
    ap.add_argument("--baseline", help="git revision whose maximize is timed on every rung too")
    ap.add_argument("--out", help="JSON file to write (default: standard output)")
    args = ap.parse_args()

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import numpy as np
    import scipy

    import generators
    from hyperideal import probe
    from hyperideal.files import canonical_json, geometry_dict
    from hyperideal.surface import problem_dict

    out = {
        "machine": {"python": platform.python_version(), "numpy": np.__version__,
                    "scipy": scipy.__version__, "nproc": os.cpu_count(), "env": PINNED_ENV},
        "calibration": {"lob_1e6_args_s": calibration()},
        "cap_s": CAP_S,
        "gates": {"theta_residual": THETA_TOL, "length_rel_err": LENGTH_TOL},
        "baseline": None,
        "rungs": [],
    }
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if args.baseline:
            (tmp / "baseline").mkdir()
            out["baseline"] = export_revision(args.baseline, tmp / "baseline")
        for n in SIZES:
            if 2 * n * n > args.max_t:
                continue
            for family in FAMILIES:
                rng = np.random.default_rng(n)
                if family == "disk":
                    tri, dm = generators.lattice_disk(rng, n)
                else:
                    tri, dm = generators.lattice_torus(rng, n, cone=family == "cone")
                problem, geometry = tmp / "problem.json", tmp / "geometry.json"
                problem.write_text(canonical_json(problem_dict(tri, probe(tri, dm)[0])))
                geometry.write_text(canonical_json(geometry_dict(tri, dm)))
                rung = {"family": family, "n": n, "T": tri.triangle_count}
                rung.update(run_rung(problem, geometry, ROOT / "src", STAGES[-1]))
                rung["gate"] = gate(rung) or "ok"
                failed = failed or rung["gate"] != "ok"
                if args.baseline:
                    rung["baseline"] = run_rung(problem, geometry, tmp / "baseline" / "src",
                                                "maximize")
                out["rungs"].append(rung)
                print(f"{family} T={rung['T']}: " + ", ".join(
                    f"{k} {v if isinstance(v, str) else f'{v:.3f}'}" for k, v in rung["stages"].items())
                    + f"; gate {rung['gate']}", file=sys.stderr, flush=True)
    text = json.dumps(out, indent=1, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) == 5 and sys.argv[1] == "--child":
        child(*sys.argv[2:])
    else:
        sys.exit(main())
