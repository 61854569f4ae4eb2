import json
import math
import subprocess
import sys

import numpy as np
import pytest

from hyperideal import solve as solve_mod
from hyperideal import surface
from hyperideal.cli import main, parse_angle
from hyperideal.coherent import Infeasible
from hyperideal.errors import SchemaError
from hyperideal.files import canonical_json, geometry_dict, parse_geometry, read_solution
from hyperideal.layout import layout_from_json
from hyperideal.surface import parse_problem, problem_dict

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
    noise = tmp_path / "noise.json"
    noise.write_bytes(np.random.default_rng(0).bytes(100))
    with pytest.raises(UnicodeDecodeError):
        noise.read_bytes().decode("utf-8")
    assert main(["solve", str(noise)]) == 3
    torus = tmp_path / "torus.json"
    torus.write_text(bundled_text("torus.json"))
    assert main(["solve", str(torus), "-o", str(tmp_path / "missing" / "out.json")]) == 3


def test_usage_error_exit_code():
    assert main(["volume"]) == 3
    assert main(["volume", "--ideal", "x", "y", "z"]) == 3
    assert main(["volume", "--p1", "pi/0"]) == 3


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
    # gamma sum off pi by 7.3e-6: outside Delta
    assert main(["volume", "--tet", "pi/4", "pi/4", "pi/4", "1.0472", "1.0472", "1.0472"]) == 5
    capsys.readouterr()

    assert main(["volume", "--prism", "pi/6", "pi/6", "pi/6"]) == 0
    prism = float(capsys.readouterr().out)
    assert main(["volume", "--p3", "pi/6", "pi/6", "pi/6"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(prism / 2, abs=1e-15)

    assert main(["volume", "--p4", "0.4", "0.5", "0.6"]) == 0
    assert math.isfinite(float(capsys.readouterr().out))


def test_volume_domain_error_exit_code(capsys):
    assert main(["volume", "--p1", "pi"]) == 5


def test_canonical_json_repr():
    text = canonical_json({"x": 0.1, "n": 3, "s": "hi", "b": True, "v": [1.5, None]})
    assert text == '{"x": 0.1, "n": 3, "s": "hi", "b": true, "v": [1.5, null]}\n'
    for value, written in ((1.0, "1.0"), (-0.0, "-0.0"), (1e16, "1e+16"), (5e-324, "5e-324")):
        assert canonical_json(value) == written + "\n"
    bits = np.random.default_rng(7).integers(0, 2**64, size=12000, dtype=np.uint64)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)][:10000]
    assert values.size == 10000
    back = np.array(json.loads(canonical_json(values.tolist())), dtype=np.float64)
    assert np.array_equal(back.view(np.uint64), values.view(np.uint64))
    for bad in (math.nan, math.inf, -math.inf, {1.0}, np.array([1.0])):
        with pytest.raises(SchemaError):
            canonical_json({"v": [bad]})


@pytest.mark.parametrize("name", ["torus", "disk2", "fan3", "triangle", "triangle_infeasible",
                                  "disk2_geometry"])
def test_bundled_instances_are_canonical(name):
    text = bundled_text(f"{name}.json")
    if name.endswith("_geometry"):
        assert canonical_json(geometry_dict(*parse_geometry(text))) == text
    else:
        assert canonical_json(problem_dict(*parse_problem(text))) == text


def test_selftest(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("PASS") >= 8


@pytest.mark.parametrize("module, failing", [
    ("hyperideal.cli", "FAIL  check torus"),  # what `check` calls
    ("hyperideal.solve", "FAIL  disk2 solution gives back"),  # every later stage lacks a solution
])
def test_selftest_reports_a_broken_stage(monkeypatch, capsys, module, failing):
    # check decides by find_max_slack, solve starts from find_coherent
    start = {"hyperideal.cli": "find_max_slack", "hyperideal.solve": "find_coherent"}[module]
    monkeypatch.setattr(f"{module}.{start}",
                        lambda cs: Infeasible(reason="max_slack_nonpositive", message="broken"))
    assert main(["selftest"]) == 1
    out = capsys.readouterr().out
    assert failing in out
    assert "PASS" in out and out.rstrip().endswith("failed")


def test_solve_flag_validation(torus_file):
    assert main(["solve", torus_file, "--tol", "1e-3"]) == 3
    assert main(["solve", torus_file, "--tol", "0"]) == 3
    assert main(["solve", torus_file, "--max-iters", "0"]) == 3


def test_solver_non_convergence_exit_code(tmp_path):
    p = tmp_path / "disk2.json"
    p.write_text(bundled_text("disk2.json"))
    assert main(["solve", str(p), "--max-iters", "1"]) == 4


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


def test_malformed_fields_exit_code(torus_file, tmp_path, capsys):
    problem = json.loads(bundled_text("torus.json"))
    geometry = json.loads(bundled_text("disk2_geometry.json"))
    solved = tmp_path / "solution.json"
    assert main(["solve", torus_file, "-o", str(solved)]) == 0
    solution = json.loads(solved.read_text())

    def changed(doc, edit):
        doc = json.loads(json.dumps(doc))
        edit(doc)
        return doc

    cases = [
        ("solve", changed(problem, lambda d: d.update(triangles="x"))),
        ("solve", changed(problem, lambda d: d["theta"]["interior"].__setitem__(0, "a"))),
        ("probe", changed(geometry, lambda d: d["gluings"].__setitem__(0, {"a": 1, "b": 2}))),
        ("probe", changed(geometry, lambda d: d["gluings"][0].pop("b"))),
        ("probe", changed(geometry, lambda d: d["lengths"].__setitem__(0, "x"))),
        ("layout", changed(solution, lambda d: d["radii"].__setitem__(0, "x"))),
        # numbers spelled as strings, JSON booleans, integers beyond the float range
        ("check", changed(problem, lambda d: d["theta"].update(
            interior=[repr(v) for v in d["theta"]["interior"]]))),
        ("check", changed(problem, lambda d: d["xi"].__setitem__(0, True))),
        ("check", changed(problem, lambda d: d["xi"].__setitem__(0, 10**400))),
        ("probe", changed(geometry, lambda d: d["lengths"].__setitem__(0, repr(d["lengths"][0])))),
        ("layout", changed(solution, lambda d: d["angles"]["alpha"][0].__setitem__(
            0, repr(d["angles"]["alpha"][0][0])))),
    ]
    for command, doc in cases:
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main([command, str(path)]) == 3, doc
        assert capsys.readouterr().err.startswith("error: "), doc


@pytest.mark.parametrize("count", [2.7, "2", True])
def test_non_integer_triangle_count_exit_code(tmp_path, count):
    doc = json.loads(bundled_text("torus.json"))
    doc["triangles"] = count
    p = tmp_path / "problem.json"
    p.write_text(json.dumps(doc))
    assert main(["check", str(p)]) == 3


def test_boolean_gluing_index_exit_code(tmp_path):
    doc = json.loads(bundled_text("torus.json"))
    doc["gluings"][0]["a"] = [False, False]  # would read as [0, 0]
    p = tmp_path / "problem.json"
    p.write_text(json.dumps(doc))
    assert main(["check", str(p)]) == 3


def test_repeated_gluing_side_exit_code(tmp_path, capsys):
    # caught by the triangulation, after the list lengths
    doc = json.loads(bundled_text("torus.json"))
    doc["gluings"][1]["a"] = doc["gluings"][0]["a"]
    p = tmp_path / "problem.json"
    p.write_text(json.dumps(doc))
    assert main(["check", str(p)]) == 3
    assert "appears in two gluings" in capsys.readouterr().err


def test_each_file_reader_checks_the_gluings_once(monkeypatch, torus_file, tmp_path):
    sol = tmp_path / "solution.json"
    assert main(["solve", torus_file, "-o", str(sol)]) == 0
    calls = []
    check = surface._surface_fault
    monkeypatch.setattr(surface, "_surface_fault", lambda *args: calls.append(1) or check(*args))
    for read, text in ((parse_problem, bundled_text("torus.json")),
                       (parse_geometry, bundled_text("disk2_geometry.json")),
                       (read_solution, sol.read_text())):
        calls.clear()
        read(text)
        assert len(calls) == 1, read


@pytest.mark.parametrize("group, key, value", [
    ("charts", "triangle", 1.7), ("charts", "triangle", True), ("transitions", "edge", True),
    ("transitions", "source", 0.5), ("transitions", "target_side", 1.0),
])
def test_layout_json_rejects_non_integer_indices(torus_file, tmp_path, group, key, value):
    sol, js = tmp_path / "solution.json", tmp_path / "layout.json"
    assert main(["solve", torus_file, "-o", str(sol)]) == 0
    assert main(["layout", str(sol), "--format", "json", "-o", str(js)]) == 0
    doc = json.loads(js.read_text())
    layout_from_json(json.dumps(doc))
    doc[group][0][key] = value
    with pytest.raises(SchemaError):  # the CLI's exit 3
        layout_from_json(json.dumps(doc))


@pytest.mark.parametrize("doc", ["problem", 5])
def test_non_object_solution_exit_code(tmp_path, doc):
    p = tmp_path / "solution.json"
    p.write_text(json.dumps(doc))
    assert main(["layout", str(p)]) == 3


def test_huge_triangle_count_fails_fast(tmp_path):
    # the list lengths that the count and the gluings fix are checked before
    # the triangulation, whose construction grows with the count, is built
    count = 10**9
    problem = {"triangles": count, "gluings": [],
               "theta": {"interior": [], "boundary": [1.0] * 3}, "xi": [1.0] * 3}
    geometry = {"triangles": count, "gluings": [], "lengths": [1.0] * 3, "radii": [0.2] * 3}
    code = "import sys\nfrom hyperideal.cli import main\nsys.exit(main(sys.argv[1:]))"
    for command, doc in (("check", problem), ("solve", problem), ("probe", geometry)):
        p = tmp_path / f"{command}.json"
        p.write_text(json.dumps(doc))
        out = subprocess.run([sys.executable, "-c", code, command, str(p)],
                             capture_output=True, text=True, timeout=30)
        assert out.returncode == 3, (command, out.stderr)


def test_solve_rejects_disconnected_surface_before_feasibility(monkeypatch, tmp_path, capsys):
    def no_feasibility(cs):
        raise AssertionError("find_coherent ran on a disconnected surface")

    monkeypatch.setattr(solve_mod, "find_coherent", no_feasibility)
    doc = {"triangles": 2, "gluings": [],
           "theta": {"interior": [], "boundary": [5 * math.pi / 6] * 6}, "xi": [math.pi / 3] * 6}
    p = tmp_path / "two_triangles.json"
    p.write_text(json.dumps(doc))
    assert main(["solve", str(p)]) == 5
    assert "surface is disconnected" in capsys.readouterr().err


# keys of the problem, geometry and solution schemas, for drawn dicts
_SCHEMA_KEYS = ("triangles", "gluings", "a", "b", "theta", "interior", "boundary", "xi",
                "lengths", "radii", "problem", "angles", "alpha", "gamma", "report")
_EXIT_CODES = {0, 2, 3, 4, 5}


def _nodes(doc, path=()):
    """The path of every node of a JSON document, the root first."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, item in items:
        yield from _nodes(item, path + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def test_cli_never_raises_on_edited_documents(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    solved = tmp_path / "solution.json"
    (tmp_path / "fan3.json").write_text(bundled_text("fan3.json"))
    assert main(["solve", str(tmp_path / "fan3.json"), "-o", str(solved)]) == 0
    problems = [json.loads(bundled_text(f"{name}.json"))
                for name in ("torus", "disk2", "fan3", "triangle", "triangle_infeasible")]
    documents = [(command, doc) for command in ("check", "solve") for doc in problems]
    documents += [("probe", json.loads(bundled_text("disk2_geometry.json"))),
                  ("layout", json.loads(solved.read_text()))]
    values = st.recursive(
        st.none() | st.booleans() | st.integers(-10**20, 10**20) | st.floats() | st.text(max_size=4),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.sampled_from(_SCHEMA_KEYS), inner, max_size=3),
        max_leaves=6)
    path = tmp_path / "edited.json"

    @hypothesis.settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @hypothesis.given(st.data())
    def run(data):
        command, doc = data.draw(st.sampled_from(documents))
        node = data.draw(st.sampled_from(list(_nodes(doc))))
        path.write_text(json.dumps(_replaced(doc, node, data.draw(values))))
        assert main([command, str(path)]) in _EXIT_CODES

    run()


def test_cli_never_raises_on_raw_bytes(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    path = tmp_path / "raw.json"

    @hypothesis.settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @hypothesis.given(hypothesis.strategies.binary())
    def run(raw):
        path.write_bytes(raw)
        for command in ("check", "solve", "probe", "layout"):
            assert main([command, str(path)]) in _EXIT_CODES

    run()
