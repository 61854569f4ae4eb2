import json
import math

import numpy as np
import pytest

from hyperideal.cli import main, parse_angle
from hyperideal.files import canonical_json, read_solution

from .conftest import bundled_text


@pytest.fixture
def torus_file(tmp_path):
    p = tmp_path / "torus.json"
    p.write_text(bundled_text("torus.json"))
    return str(p)


def test_parse_angle_literals():
    assert parse_angle("pi/3") == pytest.approx(math.pi / 3)
    assert parse_angle("5pi/6") == pytest.approx(5 * math.pi / 6)
    assert parse_angle("2*pi") == pytest.approx(2 * math.pi)
    assert parse_angle("-pi") == pytest.approx(-math.pi)
    assert parse_angle("0.75") == 0.75
    assert parse_angle("π/4") == pytest.approx(math.pi / 4)
    from hyperideal.errors import SchemaError

    with pytest.raises(SchemaError):
        parse_angle("three")


def test_check_feasible(torus_file, capsys):
    assert main(["check", torus_file]) == 0
    assert "feasible" in capsys.readouterr().out


def test_check_infeasible(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(bundled_text("triangle_infeasible.json"))
    assert main(["check", str(p)]) == 2
    assert "infeasible" in capsys.readouterr().out


def test_check_dump_angles(torus_file, tmp_path):
    out = tmp_path / "angles.json"
    assert main(["check", torus_file, "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert "angles" in doc and "problem" in doc


def test_solve_writes_solution(torus_file, tmp_path):
    out = tmp_path / "solution.json"
    assert main(["solve", torus_file, "-o", str(out)]) == 0
    tri, data, values, dm = read_solution(out.read_text())
    assert np.allclose(values.reshape(-1, 6)[:, :3], math.pi / 4, atol=1e-8)
    assert np.allclose(values.reshape(-1, 6)[:, 3:], math.pi / 3, atol=1e-8)
    doc = json.loads(out.read_text())
    assert doc["report"]["status"] == "converged"
    assert doc["report"]["iterations"] <= 30


def test_solution_files_are_deterministic(torus_file, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["solve", torus_file, "-o", str(a)]) == 0
    assert main(["solve", torus_file, "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_solution_passes_check_when_reread(torus_file, tmp_path):
    from hyperideal.coherent import AngleSystem, build_constraints, is_coherent

    out = tmp_path / "solution.json"
    assert main(["solve", torus_file, "-o", str(out)]) == 0
    tri, data, values, dm = read_solution(out.read_text())
    assert is_coherent(AngleSystem(values), build_constraints(tri, data)).ok


def test_solve_infeasible_exit_code(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(bundled_text("triangle_infeasible.json"))
    assert main(["solve", str(p)]) == 2


def test_parse_error_exit_code(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert main(["check", str(p)]) == 3
    assert main(["solve", "/nonexistent/file.json"]) == 3


def test_usage_error_exit_code():
    assert main(["volume"]) == 3
    assert main(["volume", "--ideal", "x", "y", "z"]) == 3


def test_layout_svg_and_json(torus_file, tmp_path):
    sol = tmp_path / "solution.json"
    assert main(["solve", torus_file, "-o", str(sol)]) == 0
    svg = tmp_path / "out.svg"
    assert main(["layout", str(sol), "-o", str(svg)]) == 0
    assert svg.read_text().startswith("<svg")
    js = tmp_path / "out.json"
    assert main(["layout", str(sol), "--format", "json", "-o", str(js)]) == 0
    assert json.loads(js.read_text())["mode"] == "atlas"


def test_probe_geometry_to_problem(tmp_path):
    geo = tmp_path / "geom.json"
    geo.write_text(bundled_text("disk2_geometry.json"))
    out = tmp_path / "problem.json"
    assert main(["probe", str(geo), "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc == json.loads(bundled_text("disk2.json"))


def test_probe_precondition_exit_code(tmp_path):
    overlapping = json.loads(bundled_text("disk2_geometry.json"))
    overlapping["radii"] = [2.0 for _ in overlapping["radii"]]  # circles overlap
    not_finite = json.loads(bundled_text("disk2_geometry.json"))
    not_finite["lengths"][0] = float("nan")
    for doc in (overlapping, not_finite):
        geo = tmp_path / "geom.json"
        geo.write_text(json.dumps(doc))
        assert main(["probe", str(geo)]) == 5


def test_volume_subcommand(capsys):
    assert main(["volume", "--ideal", "pi/3", "pi/3", "pi/3"]) == 0
    out = capsys.readouterr().out.strip()
    assert abs(float(out) - 1.0149416064096536) < 1e-12

    assert main(["volume", "--p1", "pi/6"]) == 0
    assert abs(float(capsys.readouterr().out) - 0.2537354016024134) < 1e-12

    assert main(["volume", "--tet", "pi/4", "pi/4", "pi/4", "pi/3", "pi/3", "pi/3"]) == 0
    v = float(capsys.readouterr().out)
    assert abs(v - 1.9030155120181003) < 1e-10

    assert main(["volume", "--prism", "pi/6", "pi/6", "pi/6"]) == 0
    prism = float(capsys.readouterr().out)
    assert main(["volume", "--p3", "pi/6", "pi/6", "pi/6"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(prism / 2, abs=1e-15)

    assert main(["volume", "--p4", "0.4", "0.5", "0.6"]) == 0
    assert math.isfinite(float(capsys.readouterr().out))


def test_volume_domain_error_exit_code(capsys):
    assert main(["volume", "--p1", "pi"]) == 5


def test_canonical_json_17g():
    text = canonical_json({"x": 0.1, "n": 3, "s": "hi", "b": True, "v": [1.5, None]})
    assert json.loads(text) == {"x": 0.1, "n": 3, "s": "hi", "b": True, "v": [1.5, None]}
    assert "0.10000000000000001" in text


def test_selftest(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("PASS") >= 8


def test_solve_flag_validation(torus_file):
    assert main(["solve", torus_file, "--tol", "1e-3"]) == 3
    assert main(["solve", torus_file, "--tol", "0"]) == 3
    assert main(["solve", torus_file, "--max-iters", "0"]) == 3


def test_solver_non_convergence_exit_code(torus_file):
    assert main(["solve", torus_file, "--max-iters", "1"]) == 4


def test_layout_rejects_non_finite_metric(tmp_path):
    problem = tmp_path / "fan3.json"
    problem.write_text(bundled_text("fan3.json"))
    sol = tmp_path / "solution.json"
    assert main(["solve", str(problem), "-o", str(sol)]) == 0
    doc = json.loads(sol.read_text())
    doc["lengths"][0] = float("nan")
    sol.write_text(json.dumps(doc))
    svg = tmp_path / "out.svg"
    assert main(["layout", str(sol), "-o", str(svg)]) == 5
    assert not svg.exists()


def test_layout_requires_reconstruction(torus_file, tmp_path):
    dump = tmp_path / "angles.json"
    assert main(["check", torus_file, "-o", str(dump)]) == 0
    # a check dump has no lengths/radii, so layout is a precondition error
    assert main(["layout", str(dump)]) == 5
