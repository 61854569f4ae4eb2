"""Pipeline benchmark of hyperideal: end-to-end metrics, or layer spans.

    python3 perfbench/run.py --workload tiny-roundtrip|torus-cold|disk-newton \\
        --seed N --seconds S --trace 0|1

    for w in tiny-roundtrip torus-cold disk-newton; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 30 --trace 0; done

Run from the root of a source checkout; the package is imported from
``src/``.  The benchmark:

1. times set-up (import plus a warm-up solve of the bundled torus) in
   fresh processes, before and after the timed phase, and reports the
   median;
2. makes the workload's instances from ``--seed`` in this process, each
   with a known answer (see ``generators.py`` and ``workloads.py``);
3. hands them to ``worker.py``, which runs operations for ``--seconds``,
   checks every result against the known answer, and reports raw timings;
4. prints one ``name = value unit`` line per metric and, as the last line,
   ``{"correct", "attempted", "failed", "metrics"}`` as JSON.

``--trace 0`` gives the end-to-end metrics, ``--trace 1`` the per-layer
ones.  Every process runs with the environment in ``PINNED_ENV``.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Set before numpy loads, here and in every worker: one BLAS thread (run
# totals spread several times less than with two on a 2-core machine), and
# no transparent-huge-page advice from numpy, whose effect on peak RSS
# depends on the machine's free huge pages rather than on the program.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMPY_MADVISE_HUGEPAGE": "0",
}
os.environ.update(PINNED_ENV)

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 7  # one of them is the worker's own set-up
RUN_LIMIT_S = 170.0
P90_MIN_OPS = 100  # a p90 needs ten samples beyond it

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "latency_p50_s": "s",
    "peak_rss_mb": "MB",
}


def _child(args, stdin_text=None, timeout=60.0):
    """Run a worker and return its last stdout line as JSON."""
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        input=stdin_text, capture_output=True, text=True, timeout=timeout, cwd=ROOT,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_samples(count):
    """Set-up seconds of ``count`` fresh worker processes."""
    return [_child(["--setup-only"])["setup_s"] for _ in range(count)]


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(result, setup_times):
    lat = result["latencies"]
    return {
        "setup_s": statistics.median(setup_times),
        "throughput_ops_s": len(lat) / result["timed_s"],
        "latency_p50_s": statistics.median(lat),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(result):
    import spans

    units = {name: unit for name, (unit, _, _) in spans.LAYER_METRICS.items()}
    units.update({"lob.scalar_us": "us", "lob.arr15_us": "us", "lob.arr1e6_ns_per_arg": "ns",
                  "pattern.theta_residual_max": "rad", "pattern.length_rel_err_max": "ratio",
                  "trace.overhead_ratio": "ratio"})
    values = dict(result["layers"])
    values["pattern.theta_residual_max"] = result["theta_residual_max"]
    values["pattern.length_rel_err_max"] = result["length_rel_err_max"]
    values["trace.overhead_ratio"] = result["overhead_ratio"]
    return {name: (values[name], unit) for name, unit in units.items()}


def environment(backend):
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": backend,
        "nproc": os.cpu_count(),
        "pinned_env": PINNED_ENV,
    }


def main():
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    t_begin = time.perf_counter()

    # half of the set-up samples before the timed phase and half after it,
    # so that their median spans the run rather than one moment of it
    extra_setups = 0 if args.trace else SETUP_SAMPLES - 1
    setup_s = setup_samples(extra_setups // 2)

    import numpy as np

    prepare = workloads.WORKLOADS[args.workload][0]
    t0 = time.perf_counter()
    items = prepare(np.random.default_rng(args.seed))
    prep_s = time.perf_counter() - t0

    result = _child(
        ["--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        stdin_text=json.dumps(items),
        timeout=RUN_LIMIT_S - (time.perf_counter() - t_begin),
    )
    setup_s += [result["setup_s"]] + setup_samples(extra_setups - len(setup_s))
    attempted, failed = result["attempted"], result["failed"]

    print("env " + json.dumps(environment(result["backend"])))
    print(f"workload {args.workload}: seed {args.seed}, {attempted} ops in {result['timed_s']:.2f} s "
          f"(input preparation {prep_s:.2f} s, not timed)")
    for message in result["errors"]:
        print(f"failed op: {message}")
    print(f"failed_ratio = {failed / attempted:.6g} ratio")
    print(f"accuracy: theta/Xi residual max {result['theta_residual_max']}, "
          f"length/radius relative error max {result['length_rel_err_max']}")
    metrics = {}
    if args.trace and "layers" in result:
        metrics = per_layer(result)
        if result["absent"]:
            print("absent spans (reported as 0): " + ", ".join(result["absent"]))
    elif not args.trace and result["latencies"]:
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end(result, setup_s).items()}
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    if not args.trace and len(result["latencies"]) >= P90_MIN_OPS:
        print(f"latency_p90_s = {percentile(result['latencies'], 0.9):.6g} s (not gated)")
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    if not (ROOT / "src" / "hyperideal" / "__init__.py").is_file():
        sys.exit(f"{ROOT / 'src' / 'hyperideal'} not found: run from the root of a hyperideal checkout")
    sys.path.insert(0, str(ROOT / "src"))
    main()
