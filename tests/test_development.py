"""The global development of flat disks against the one-triangle-at-a-time
reference, and solved disks against the lifted weighted-Delaunay check."""

import numpy as np

from hyperideal import layout
from hyperideal.layout import GLOBAL, lay_out
from hyperideal.pattern import metric_from_lengths, probe, truncated_lengths
from hyperideal.solve import solve_problem

from . import oracles
from .conftest import bundled_instance

REL_TOL = 1e-12


def solved_metric(name):
    tri, data = bundled_instance(name)
    x, _ = solve_problem(tri, data)
    return tri, metric_from_lengths(truncated_lengths(x, tri), tri)


def flat_disks():
    cases = [solved_metric(n) for n in ("disk2.json", "fan3.json", "triangle.json")]
    rng = np.random.default_rng(20261019)
    cases += [oracles.random_disk(rng) for _ in range(4)]
    cases.append(oracles.lattice_disk(np.random.default_rng(8), 8))  # 128 triangles
    return cases


def developed(tri, dm):
    cl = lay_out(tri, dm)
    assert cl.mode == GLOBAL
    return cl.vertices


def test_development_matches_the_per_triangle_reference():
    for tri, dm in flat_disks():
        want = oracles.develop_loop(tri, dm)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(developed(tri, dm) - want)) <= REL_TOL * scale


def test_development_by_depth_is_the_per_triangle_composition():
    """Bit for bit: the same products in the same order, parents first."""
    rng = np.random.default_rng(27)
    cases = [oracles.lattice_disk(rng, n) for n in (3, 5, 8, 12, 16, 23, 32)]  # T = 18 to 2048
    cases += [oracles.random_disk(rng) for _ in range(6)]
    for tri, dm in cases:
        positions = layout._chart_positions(tri, dm)
        rot, trans = layout._transitions(tri, positions)
        got = layout._develop(tri, positions, rot, trans)
        want = oracles.develop_composed_loop(tri, positions, rot, trans)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_shared_corners_coincide_on_a_large_disk():
    tri, dm = oracles.lattice_disk(np.random.default_rng(8), 8)
    positions = developed(tri, dm)
    scale = np.max(np.abs(positions))
    (t, s), (t2, s2) = np.moveaxis(tri.edge_sides[:len(tri.gluings)], 0, -1)
    assert len(t) > tri.triangle_count
    for p, q in ((positions[t, s], positions[t2, (s2 + 1) % 3]),
                 (positions[t, (s + 1) % 3], positions[t2, s2])):
        assert np.max(np.abs(p - q)) <= REL_TOL * scale


def test_every_triangle_is_placed_once_per_call(monkeypatch):
    tri, dm = oracles.lattice_disk(np.random.default_rng(3), 4)
    calls = []

    def counted(l12, l23, l31):
        calls.append(np.shape(l12))
        return place_canonical(l12, l23, l31)

    place_canonical = layout.place_canonical
    monkeypatch.setattr(layout, "place_canonical", counted)
    assert lay_out(tri, dm).mode == GLOBAL
    assert calls == [(tri.triangle_count,)]


def solved_lattice_disk():
    """A probe -> solve round trip of a 128-triangle lattice disk."""
    tri, dm = oracles.lattice_disk(np.random.default_rng(3), 8)
    x, _ = solve_problem(tri, probe(tri, dm)[0])
    return tri, metric_from_lengths(truncated_lengths(x, tri), tri)


def test_solved_disks_are_weighted_delaunay():
    for tri, dm in (solved_metric("disk2.json"), solved_metric("fan3.json"),
                    solved_lattice_disk()):
        assert oracles.lower_facet_violations(tri, developed(tri, dm), dm.radii).size == 0


def test_weighted_delaunay_oracle_flags_a_grown_vertex_circle():
    tri, dm = solved_lattice_disk()
    radii = dm.radii.copy()
    radii[np.flatnonzero(~tri.boundary_vertex)[0]] *= 6.0
    assert oracles.lower_facet_violations(tri, developed(tri, dm), radii).size > 0
