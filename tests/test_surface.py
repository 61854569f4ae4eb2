import importlib.util
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from hyperideal.coherent import build_constraints
from hyperideal.energy import tet_volume_grad
from hyperideal.errors import SchemaError, SurfaceError
from hyperideal.pattern import (
    COMPAT_TOL,
    _potentials,
    compat_residuals,
    probe,
    truncated_lengths,
)
from hyperideal.solve import solve_problem
from hyperideal.surface import (
    AngleData,
    GluedTriangulation,
    parse_problem,
    problem_dict,
)

from . import oracles
from .conftest import bundled_instance

TORUS_GLUINGS = [((0, 0), (1, 0)), ((0, 1), (1, 1)), ((0, 2), (1, 2))]


def torus_text(theta=math.pi / 2, xi=2 * math.pi):
    return json.dumps(
        {
            "triangles": 2,
            "gluings": [{"a": list(a), "b": list(b)} for a, b in TORUS_GLUINGS],
            "theta": {"interior": [theta] * 3, "boundary": []},
            "xi": [xi],
        }
    )


def test_torus_combinatorics():
    tri = GluedTriangulation(2, TORUS_GLUINGS)
    assert len(tri.vertices) == 1
    assert len(tri.gluings) == 3
    assert len(tri.edge_sides) - len(tri.gluings) == 0
    assert tri.euler_characteristic() == 0
    assert len(tri.vertices[0]) == 6


def test_single_triangle_disk():
    tri = GluedTriangulation(1, [])
    assert len(tri.vertices) == 3
    assert len(tri.edge_sides) - len(tri.gluings) == 3
    assert tri.euler_characteristic() == 1
    assert tri.is_disk()


def test_self_gluing_rejected():
    with pytest.raises(SurfaceError):
        GluedTriangulation(1, [((0, 0), (0, 0))])


def test_side_used_twice_rejected():
    with pytest.raises(SurfaceError):
        GluedTriangulation(2, [((0, 0), (1, 0)), ((0, 0), (1, 1))])


def test_out_of_range_side_rejected():
    with pytest.raises(SurfaceError):
        GluedTriangulation(1, [((0, 0), (2, 1))])


@pytest.mark.parametrize("count, gluings", [
    (2.7, []),
    (2.0, []),
    (2, [((0.5, 0), (1, 0))]),
    (2, [((0, 1.0), (1, 0))]),
    (2, [((0, 0), (np.float64(1.0), 0))]),
    (True, []),  # a JSON true or false is a bool, an int subclass
    (2, [((True, 0), (1, 0))]),
])
def test_non_integer_count_or_index_rejected(count, gluings):
    with pytest.raises(SurfaceError, match="integer|invalid side"):
        GluedTriangulation(count, gluings)


@pytest.mark.parametrize("gluing", [
    ((0, 0, 0), (1, 0)),  # a side of three indices
    ((0,), (1, 0)),  # a side of one index
    ((0, 0), (1, 0), (1, 1)),  # three sides
    5,  # no sides
    ((0, 0), 5),  # a side that is no pair
])
def test_malformed_gluing_rejected(gluing):
    with pytest.raises(SurfaceError, match=f"gluing {re.escape(repr(gluing))} is not two sides"):
        GluedTriangulation(2, [gluing])


@pytest.mark.parametrize("gluings", [5, None, 3.5])
def test_non_iterable_gluings_rejected(gluings):
    with pytest.raises(SurfaceError, match=f"the gluings {gluings!r} are not a sequence"):
        GluedTriangulation(2, gluings)


def test_numpy_integer_indices_accepted():
    tri = GluedTriangulation(np.int64(2), [((np.int64(0), 0), (1, np.int32(0)))])
    assert tri.vertices == GluedTriangulation(2, [((0, 0), (1, 0))]).vertices
    assert all(type(i) is int for cls in tri.vertices for corner in cls for i in corner)


def test_corner_count_partition():
    for gluings, n in ((TORUS_GLUINGS, 2), ([((0, 0), (1, 0))], 2),
                       ([((0, 0), (1, 2)), ((1, 0), (2, 2))], 3)):
        tri = GluedTriangulation(n, gluings)
        corners = [c for cls in tri.vertices for c in cls]
        assert sorted(corners) == [(t, c) for t in range(n) for c in range(3)]


def test_vertex_classes_deterministic():
    a = GluedTriangulation(2, TORUS_GLUINGS)
    b = GluedTriangulation(2, TORUS_GLUINGS)
    assert a.vertices == b.vertices
    assert [e.sides for e in a.edges] == [e.sides for e in b.edges]


def test_parse_problem_torus():
    tri, data = parse_problem(torus_text())
    assert tri.triangle_count == 2
    assert len(data.theta) == 3
    assert data.xi[0] == pytest.approx(2 * math.pi)


def test_parse_round_trip():
    tri, data = parse_problem(torus_text())
    assert parse_problem(json.dumps(problem_dict(tri, data)))[0].vertices == tri.vertices


def test_parse_rejects_bad_inputs():
    with pytest.raises(SchemaError):
        parse_problem("not json")
    with pytest.raises(SchemaError):
        parse_problem(json.dumps({"triangles": 1}))
    # theta out of range on an interior edge
    with pytest.raises(SchemaError):
        parse_problem(torus_text(theta=math.pi))
    with pytest.raises(SchemaError):
        parse_problem(torus_text(theta=-0.1))
    # xi must be positive
    with pytest.raises(SchemaError):
        parse_problem(torus_text(xi=0.0))
    # wrong theta count
    doc = json.loads(torus_text())
    doc["theta"]["interior"] = [1.0, 1.0]
    with pytest.raises(SchemaError):
        parse_problem(json.dumps(doc))
    # boundary theta = 0 rejected (interior 0 is fine)
    doc = {
        "triangles": 1,
        "gluings": [],
        "theta": {"interior": [], "boundary": [0.0, 1.0, 1.0]},
        "xi": [1.0, 1.0, 1.0],
    }
    with pytest.raises(SchemaError):
        parse_problem(json.dumps(doc))


def test_interior_theta_zero_accepted():
    text = torus_text(theta=0.0)
    tri, data = parse_problem(text)
    assert data.theta[0] == 0.0


def test_edge_counts_invariant():
    for gluings, n in ((TORUS_GLUINGS, 2), ([((0, 0), (1, 0))], 2), ([], 1)):
        tri = GluedTriangulation(n, gluings)
        assert len(tri.gluings) == len(gluings)
        assert len(tri.edge_sides) - len(tri.gluings) == 3 * n - 2 * len(gluings)


def test_fold_gluing_same_triangle():
    # gluing two sides of one triangle: a cone; still a valid surface
    tri = GluedTriangulation(1, [((0, 0), (0, 1))])
    assert len(tri.vertices) == 2
    assert tri.euler_characteristic() == 1


def _load_perfbench_generators():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "generators.py"
    spec = importlib.util.spec_from_file_location("perfbench_generators", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GEN = _load_perfbench_generators()


# corner 0 of every triangle at the center: side 0 of t glued to side 2 of t + 1
FAN_GLUINGS = [((t, 0), ((t + 1) % 1000, 2)) for t in range(1000)]


def _triangulations(instances):
    return [tri for tri, _ in instances]


def _lattice(kind, n):
    rng = np.random.default_rng(n)
    if kind == "disk":
        return GEN.lattice_disk(rng, n)
    return GEN.lattice_torus(rng, n, cone=kind == "cone torus")


# name -> builder of a list of triangulations: the benchmark's instance kinds
# and lattice ladder (T = 50, 512, 4608), random disks, a fold, and long
# vertex classes: the center of an open fan (a chain of
# 1000 corners) and of a closed one (a cycle of 1000 corners), a strip of
# 2000 triangles and the one-vertex torus
FAMILIES = {
    **{f"tiny_set seed {seed}": lambda seed=seed: _triangulations(
        GEN.tiny_set(np.random.default_rng(seed), 1)) for seed in range(1, 9)},
    **{f"{kind} n={n}": lambda kind=kind, n=n: _triangulations([_lattice(kind, n)])
       for n in (5, 16, 48) for kind in ("flat torus", "cone torus", "disk")},
    "random_disk": lambda rng=np.random.default_rng(3): _triangulations(
        oracles.random_disk(rng) for _ in range(4)),
    "fold": lambda: [GluedTriangulation(1, [((0, 0), (0, 1))])],
    "open fan T=1000": lambda: [GluedTriangulation(1000, FAN_GLUINGS[:-1])],
    "closed fan T=1000": lambda: [GluedTriangulation(1000, FAN_GLUINGS)],
    # triangle t glues its side 2 to triangle t - 1, alternately at corner 0 and 2
    "strip T=2000": lambda: [GluedTriangulation(
        2000, [((t, 1 - t % 2), (t + 1, 2)) for t in range(1999)])],
    "one_vertex_torus": lambda: [GEN.one_vertex_torus(np.random.default_rng(0))[0]],
}


@pytest.mark.parametrize("family", list(FAMILIES))
def test_combinatorics_match_loop_references(family):
    for tri in FAMILIES[family]():
        vertices = oracles.derive_vertices_loop(tri)
        assert tri.vertices == tuple(map(tuple, vertices))
        flags = oracles.boundary_flags_loop(tri, vertices)
        for v, corners in enumerate(vertices):
            assert all(tri.corner_class[corner] == v for corner in corners)
            assert tri.boundary_vertex[v] == flags[v]
            assert tri.first_corner[v] == 3 * corners[0][0] + corners[0][1]
        # the spanning tree: one root, triangle 0, then every other triangle
        # once, parents first, each parent corner leading to its child
        order = tri.tree_order.tolist()
        assert order[0] == 0 and sorted(order) == list(range(tri.triangle_count))
        assert np.flatnonzero(tri.parent_corner < 0).tolist() == [0]
        reached = {0}
        for t in order[1:]:
            x = tri.parent_corner[t]
            assert tri.forward[x] // 3 == t and x // 3 in reached
            reached.add(t)
        assert tri.is_disk() == (tri.euler_characteristic() == 1
                                 and len(tri.edge_sides) > len(tri.gluings))
        data = AngleData(theta=np.full(len(tri.edges), 1.0), xi=np.full(len(vertices), 1.0))
        cs = build_constraints(tri, data)
        assert cs.rank == tri.triangle_count + len(tri.edges) + len(vertices) - 1
        assert np.flatnonzero(~cs.independent_eq).tolist() == [0]
        n_v = tri.vertex_count
        assert n_v == len(vertices)
        rows = cs.a_eq[cs.a_eq.shape[0] - n_v:]
        lengths, cols = oracles.vertex_rows_loop(tri)
        assert np.diff(rows.indptr).tolist() == lengths
        assert rows.indices.tolist() == cols
        assert np.all(rows.data == 1.0)


def _side_by_side(tri):
    """(triangle count, gluings) of two unglued copies of ``tri``."""
    n = tri.triangle_count
    return 2 * n, list(tri.gluings) + [((t + n, s), (u + n, r)) for (t, s), (u, r) in tri.gluings]


# (triangle count, gluings) of surfaces that the gluings do not connect
DISCONNECTED = {
    "two loose triangles": lambda: (2, []),
    "a glued pair and a loose triangle": lambda: (3, [((0, 0), (1, 0))]),
    "two one-vertex tori": lambda: _side_by_side(
        GEN.one_vertex_torus(np.random.default_rng(0))[0]),
}


@pytest.mark.parametrize("case", list(FAMILIES) + list(DISCONNECTED))
def test_construction_refuses_a_disconnected_surface(case):
    surfaces = ([(tri.triangle_count, tri.gluings) for tri in FAMILIES[case]()]
                if case in FAMILIES else [DISCONNECTED[case]()])
    for count, gluings in surfaces:
        connected, first = oracles.is_connected_loop(count, gluings)
        assert connected == (case in FAMILIES)
        if connected:
            GluedTriangulation(count, gluings)
            continue
        with pytest.raises(SurfaceError, match=(
                f"^the surface is disconnected: no chain of gluings links triangle {first} "
                "to triangle 0$")):
            GluedTriangulation(count, gluings)


def test_gluing_faults_come_before_connectivity():
    with pytest.raises(SurfaceError, match="appears in two gluings"):
        GluedTriangulation(3, [((0, 0), (1, 0)), ((0, 0), (1, 1))])


CRITICAL = {
    **{name: lambda name=name: bundled_instance(name)
       for name in ("disk2.json", "fan3.json", "triangle.json", "torus.json")},
    "disk T=128": lambda: GEN.lattice_disk(np.random.default_rng(1), 8),
    "cone torus T=50": lambda: GEN.lattice_torus(np.random.default_rng(5), 5, cone=True),
}


@pytest.mark.parametrize("name", list(CRITICAL))
def test_forest_potentials_match_the_walk(name):
    """The bundled instances solved, a lattice disk and a cone torus probed:
    the vertex potentials integrated along the spanning tree agree with
    the breadth-first walk over the vertex/triangle incidence graph."""
    tri, given = CRITICAL[name]()
    x = solve_problem(tri, given)[0] if isinstance(given, AngleData) else probe(tri, given)[1]
    gp = tet_volume_grad(x.alphas(), x.gammas())[:, 3:]
    psi_v, walk_residual = oracles._potential_walk(tri, gp)
    reference = -2.0 * psi_v
    reference -= reference[0]
    tl = truncated_lengths(x, tri)
    assert np.max(np.abs(tl.a_vertex - reference)) <= 1e-12
    assert max(walk_residual, tl.max_cycle_residual, compat_residuals(tri, x)[1]) <= COMPAT_TOL
    # off the critical point: exact on the tree, and a mismatch where the
    # walk finds a cycle that does not close (the walk's own residual
    # carries rounding even where the graph has no cycle)
    gp = np.random.default_rng(0).normal(size=gp.shape)
    _, mismatch = _potentials(tri, gp)
    assert np.all(mismatch[tri.parent_corner[tri.parent_corner >= 0]] == 0.0)
    assert (np.max(mismatch) > 1e-9) == (oracles._potential_walk(tri, gp)[1] > 1e-9)


@pytest.mark.parametrize("name", list(CRITICAL))
def test_compat_residuals_and_lengths_are_one_read(name):
    """compat2 is the lengths' cycle residual and compat1 half the largest
    gap between the two sides' -2 dF/dalpha, bit for bit."""
    tri, given = CRITICAL[name]()
    x = solve_problem(tri, given)[0] if isinstance(given, AngleData) else probe(tri, given)[1]
    ap = tet_volume_grad(x.alphas(), x.gammas())[:, :3]
    one, two = (-2.0 * ap[tri.edge_sides[..., 0], tri.edge_sides[..., 1]]).T
    c1, c2 = compat_residuals(tri, x)
    assert c1 == 0.5 * np.max(np.abs(one - two))
    assert c2 == truncated_lengths(x, tri).max_cycle_residual
