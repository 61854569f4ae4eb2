"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import hyperideal  # noqa: E402

import generators  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import start  # noqa: E402
import workloads  # noqa: E402


def _geometry_docs(seed):
    rng = np.random.default_rng(seed)
    instances = generators.tiny_set(rng, 1) + [
        generators.lattice_torus(rng, 3),
        generators.lattice_torus(rng, 3, cone=True),
        generators.lattice_disk(rng, 3),
    ]
    return [hyperideal.files.geometry_dict(tri, dm) for tri, dm in instances]


def test_generators_are_deterministic_per_seed():
    assert _geometry_docs(11) == _geometry_docs(11)
    assert _geometry_docs(11) != _geometry_docs(12)


def test_generated_instances_pass_probe():
    rng = np.random.default_rng(5)
    tri, dm = generators.lattice_torus(rng, 4, cone=True)
    data, _ = hyperideal.probe(tri, dm)
    assert abs(np.sum(data.xi) - np.pi * tri.triangle_count) < 1e-9
    assert np.max(np.abs(data.xi - 2.0 * np.pi)) > 1e-3
    tri, dm = generators.lattice_torus(rng, 4)
    data, _ = hyperideal.probe(tri, dm)
    assert np.allclose(data.xi, 2.0 * np.pi, atol=1e-9)


def _solved_tiny(seed=3):
    tri, truth = generators.lattice_disk(np.random.default_rng(seed), 2)
    data, _ = hyperideal.probe(tri, truth)
    x, report = hyperideal.solve_problem(tri, data)
    _, dm, pattern = workloads._solved_metric(tri, data, x, report)
    return report, pattern, truth, dm


def test_gate_accepts_the_solved_pattern():
    report, pattern, truth, dm = _solved_tiny()
    residual, err = workloads.gate(report, pattern, truth, dm, svg="<svg><path d=''/></svg>")
    assert residual <= workloads.THETA_TOL and err <= workloads.LENGTH_TOL


@pytest.mark.parametrize("perturb", ["length", "radius", "scale_only", "theta", "status", "svg"])
def test_gate_rejects_a_perturbed_result(perturb):
    report, pattern, truth, dm = _solved_tiny()
    svg = "<svg><path d=''/></svg>"
    if perturb == "scale_only":  # a uniform rescale is not an error
        workloads.gate(report, pattern, truth, dm.scaled(3.0), svg)
        return
    if perturb == "length":
        dm.lengths[1] *= 1.0 + 1e-6
    elif perturb == "radius":
        dm.radii[-1] *= 1.0 - 1e-6
    elif perturb == "theta":
        pattern.max_theta_residual = 1e-6
    elif perturb == "status":
        report.status = "max_iters"
    elif perturb == "svg":
        svg = ""
    with pytest.raises(workloads.GateError):
        workloads.gate(report, pattern, truth, dm, svg)


def test_highs_start_is_coherent():
    tri, dm = generators.lattice_disk(np.random.default_rng(2), 3)
    data, _ = hyperideal.probe(tri, dm)
    x0, s_star = start.max_slack_start(tri, data)
    assert s_star > 0.0
    check = hyperideal.is_coherent(hyperideal.AngleSystem(x0), hyperideal.build_constraints(tri, data))
    assert check.ok, check.violations[:3]


def test_tracer_sees_internal_calls_and_restores_the_program():
    text = (ROOT / "src" / "hyperideal" / "instances" / "torus.json").read_text()
    before = hyperideal.solve.find_coherent
    tracer = spans.Tracer()
    tracer.begin_op(0)
    tracer.install()
    try:
        tri, data = hyperideal.parse_problem(text)
        hyperideal.solve_problem(tri, data)
    finally:
        tracer.uninstall()
    assert hyperideal.solve.find_coherent is before
    assert tracer.absent == []
    values = spans.layer_metrics(tracer.spans, [0])
    assert values["coherent.lp_calls"] == [1]
    assert values["solve.newton_iters"][0] > 0
    assert values["solve.f_evals"][0] >= values["solve.newton_iters"][0]
    assert values["lob.calls"][0] > 0 and values["lob.args"][0] >= 15 * values["lob.calls"][0]
    assert all(v[0] >= 0.0 for name, v in values.items() if name.endswith("_s"))


def test_a_removed_function_is_absent_not_an_error(monkeypatch):
    monkeypatch.setitem(spans.SPANS, "coherent.gone", ("hyperideal.coherent", "no_such_function"))
    monkeypatch.setitem(spans.LAYER_METRICS, "coherent.gone_s", ("s", ["coherent.gone"], "self"))
    tracer = spans.Tracer()
    assert tracer.absent == ["coherent.gone"]
    assert spans.layer_metrics([], [0])["coherent.gone_s"] == [0.0]


def _fake_result():
    return {
        "latencies": [0.01, 0.02, 0.03], "timed_s": 0.07, "peak_rss_mb": 80.0,
        "layers": {name: 1.0 for name in spans.LAYER_METRICS}
        | {"lob.scalar_us": 1.0, "lob.arr15_us": 1.0, "lob.arr1e6_ns_per_arg": 1.0},
        "theta_residual_max": 1e-12, "length_rel_err_max": 1e-12, "overhead_ratio": 0.01,
    }


def test_every_metric_has_the_unit_declared_in_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {name: run.END_TO_END_UNITS[name] for name in run.end_to_end(_fake_result(), [0.4])}
    layer = {name: unit for name, (_, unit) in run.per_layer(_fake_result()).items()}
    assert e2e == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert layer == {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_percentile_is_nearest_rank():
    assert run.percentile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert run.percentile(list(range(1, 101)), 0.9) == 90


def test_exits_without_a_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tiny-roundtrip", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
