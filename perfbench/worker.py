"""Timed half of the benchmark, run by ``run.py`` in a process of its own.

    python3 perfbench/worker.py --setup-only
    python3 perfbench/worker.py --workload NAME --seconds S --trace 0|1 < inputs.json

Each run first times its set-up: ``import hyperideal`` plus one warm-up
solve, layout and SVG of the bundled ``torus.json``.  It then reads the
prepared inputs from standard input, runs operations for about
``--seconds`` (never starting one predicted to end later, but at least
one), and prints one JSON line of raw results.  Its peak RSS therefore
covers set-up and the timed phase, never input preparation.

With ``--trace 1`` every instance runs twice in a row, untraced and then
traced; the pairs give the tracing overhead and the traced runs the layer
spans.  A kernel section then times ``lob`` on its own.
"""

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

MAX_ERRORS_SHOWN = 3


def setup():
    """Import the package and warm it up on the bundled torus; seconds taken."""
    t0 = time.perf_counter()
    import hyperideal

    text = (ROOT / "src" / "hyperideal" / "instances" / "torus.json").read_text()
    tri, data = hyperideal.parse_problem(text)
    x, report = hyperideal.solve_problem(tri, data)
    dm = hyperideal.metric_from_lengths(hyperideal.truncated_lengths(x, tri), tri)
    hyperideal.export_svg(tri, hyperideal.lay_out(tri, dm))
    return time.perf_counter() - t0


def _per_call(fn, arg, calls, repeats):
    """Median over ``repeats`` batches of the seconds per call."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn(arg)
        times.append((time.perf_counter() - t0) / calls)
    return statistics.median(times)


def kernel_section(seed):
    """``lob`` on a scalar, on 15-element arrays and on 1e6 arguments."""
    import numpy as np
    from hyperideal.lob import lob

    rng = np.random.default_rng(seed)
    return {
        "lob.scalar_us": 1e6 * _per_call(lob, float(rng.uniform(0.1, 3.0)), 200, 9),
        "lob.arr15_us": 1e6 * _per_call(lob, rng.uniform(-10.0, 10.0, 15), 200, 9),
        "lob.arr1e6_ns_per_arg": 1e9 / 1e6 * _per_call(lob, rng.uniform(-10.0, 10.0, 1_000_000), 1, 5),
    }


def timed_phase(op, instances, seconds, unit, tracer):
    """Run ``op`` over the instances in order, cycling, in units of ``unit``
    instances, while the next unit is predicted to end within ``seconds``;
    at least one unit runs.  With a tracer, each instance runs as an
    untraced/traced pair."""
    passes = 2 if tracer else 1
    latencies, accuracy, errors, pairs = [], [], [], []
    attempted = 0
    t_start = time.perf_counter()
    k = 0
    while True:
        inst = instances[k % len(instances)]
        pair = []
        for traced in range(passes):
            if traced:
                tracer.begin_op(attempted)
                tracer.install()
            t0 = time.perf_counter()
            try:
                result = op(inst)
            except Exception as exc:  # a failed op is counted, not fatal
                result = None
                if len(errors) < MAX_ERRORS_SHOWN:
                    errors.append("".join(traceback.format_exception_only(exc)).strip())
            dt = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
            attempted += 1
            if result is not None:
                latencies.append(dt)
                accuracy.append(result)
                pair.append((attempted - 1, dt))
        if len(pair) == 2:
            pairs.append(pair)
        k += 1
        elapsed = time.perf_counter() - t_start
        if k % unit == 0 and elapsed + unit * elapsed / k > seconds:
            break
    return {
        "timed_s": time.perf_counter() - t_start,
        "attempted": attempted,
        "failed": attempted - len(latencies),
        "latencies": latencies,
        "pairs": pairs,
        "errors": errors,
        "theta_residual_max": max((a for a, _ in accuracy), default=None),
        "length_rel_err_max": max((e for _, e in accuracy), default=None),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    setup_s = setup()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    import hyperideal
    import spans
    import workloads

    _, load, op, unit = workloads.WORKLOADS[args.workload]
    instances = [load(item) for item in json.load(sys.stdin)]
    tracer = spans.Tracer() if args.trace else None
    out = timed_phase(op, instances, args.seconds, unit, tracer)
    out["setup_s"] = setup_s
    out["backend"] = hyperideal.backend()
    if tracer and out["pairs"]:
        traced = [b[0] for _, b in out["pairs"]]
        values = spans.layer_metrics(tracer.spans, traced)
        out["layers"] = {name: statistics.median(v) for name, v in values.items()}
        out["layers"].update(kernel_section(args.seed))
        out["overhead_ratio"] = statistics.median(b[1] / a[1] for a, b in out["pairs"]) - 1.0
        out["absent"] = tracer.absent
        spans_dir = Path.cwd() / ".bench_out"
        spans_dir.mkdir(exist_ok=True)
        with open(spans_dir / f"spans_{args.workload}_{args.seed}.jsonl", "w") as fh:
            for record in tracer.spans:
                fh.write(json.dumps(record) + "\n")
    del out["pairs"]
    print(json.dumps(out))


if __name__ == "__main__":
    main()
