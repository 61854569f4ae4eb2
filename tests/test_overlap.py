"""The overlap check of global layouts against the all-pairs reference: the
sort-and-sweep, and the embedding certificate that spares it."""

import logging
import math

import numpy as np
import pytest

from hyperideal.layout import FLAT_TOL, GLOBAL, _chart_positions, _embedded, _first_overlap, lay_out
from hyperideal.pattern import (
    DecoratedMetric,
    _corner_angles,
    _vertex_sums,
    metric_from_lengths,
    probe,
    truncated_lengths,
)
from hyperideal.solve import solve_problem
from hyperideal.surface import GluedTriangulation

from .conftest import bundled_instance
from .oracles import first_overlapping_pair, flat_disk, lattice_disk, lattice_patch, random_disk


def _positions(tri, dm):
    cl = lay_out(tri, dm)
    assert cl.mode == GLOBAL
    return cl.vertices


def _certified(tri, positions):
    """Whether the embedding certificate passes on ``positions``; where it
    does, the all-pairs reference must find no overlapping pair."""
    certified = _embedded(tri, positions)
    assert not certified or first_overlapping_pair(positions) is None
    return certified


def _wrapped_fan():
    # six 72-degree wedges around a boundary vertex: the development wraps
    k = 6
    tri = GluedTriangulation(k, [((t, 2), (t + 1, 0)) for t in range(k - 1)])
    rim = 2.0 * math.sin(math.radians(36.0))
    lengths = np.array([rim if e.sides[0][1] == 1 else 1.0 for e in tri.edges])
    return tri, DecoratedMetric(lengths=lengths, radii=np.full(len(tri.vertices), 0.1))


def test_wrapped_fan_same_first_pair():
    tri, dm = _wrapped_fan()
    positions = _positions(tri, dm)
    expected = first_overlapping_pair(positions)
    assert expected is not None
    assert _first_overlap(positions) == expected
    assert not _certified(tri, positions)


def test_flat_disk_has_no_overlap():
    tri, data = bundled_instance("fan3.json")
    x, _ = solve_problem(tri, data)
    positions = _positions(tri, metric_from_lengths(truncated_lengths(x, tri), tri))
    assert first_overlapping_pair(positions) is None
    assert _first_overlap(positions) is None
    assert _certified(tri, positions)


def test_large_lattice_disk_matches_reference():
    rng = np.random.default_rng(77)
    tri, dm = lattice_disk(rng, 8)
    assert tri.triangle_count >= 128
    positions = _positions(tri, dm)
    assert first_overlapping_pair(positions) is None
    assert _first_overlap(positions) is None
    assert _certified(tri, positions)

    # drop copies of triangles onto other parts of the disk
    for trial in range(6):
        moved = positions.copy()
        for t in rng.choice(tri.triangle_count, 1 + trial, replace=False):
            target = positions[int(rng.integers(tri.triangle_count))]
            moved[t] = positions[t] - positions[t].mean(axis=0) + target.mean(axis=0) \
                + rng.uniform(-0.3, 0.3, 2)
        assert _first_overlap(moved) == first_overlapping_pair(moved)
        assert not _certified(tri, moved)


def test_one_large_triangle_among_small_ones():
    rng = np.random.default_rng(5)
    tri, dm = lattice_disk(rng, 6)
    positions = _positions(tri, dm).copy()
    center = positions[3].mean(axis=0)
    positions[3] = center + 40.0 * (positions[3] - center)  # covers the disk
    expected = first_overlapping_pair(positions)
    assert expected is not None
    assert _first_overlap(positions) == expected
    assert not _certified(tri, positions)


def test_single_triangle_has_no_overlap():
    tri, data = bundled_instance("triangle.json")
    x, _ = solve_problem(tri, data)
    positions = _positions(tri, metric_from_lengths(truncated_lengths(x, tri), tri))
    assert first_overlapping_pair(positions) is None
    assert _first_overlap(positions) is None
    assert _certified(tri, positions)


def _unit(x, y):
    return np.array([[x, y], [x + 1.0, y], [x, y + 1.0]])


def _leg_100():
    return 100.0 * _unit(0.0, 0.0)


def _leg_100_mirrored(depth):
    """The mirror image of ``_leg_100`` in its hypotenuse, moved ``depth``
    across the hypotenuse into it."""
    return np.array([[100.0, 0.0], [100.0, 100.0], [0.0, 100.0]]) - depth / math.sqrt(2.0)


@pytest.mark.parametrize("positions, expected", [
    # every lower x is 0: triangles 1 and 3 overlap, 0 and 2 only touch
    ([_unit(0.0, 0.0), _unit(0.0, 3.0), _unit(0.0, 1.0), _unit(0.0, 3.5)], (1, 3)),
    # triangles 0 and 2 overlap, ties among the lower x of 0, 1 and 3
    ([_unit(0.0, 0.0), _unit(0.0, 5.0), _unit(-0.5, 0.2), _unit(0.0, 9.0)], (0, 2)),
    # equal lower x and no overlap at all
    ([_unit(1.0, 2.0 * t) for t in range(5)], None),
    # legs of 100 sharing their hypotenuse, the second moved across it by
    # 5e-8 (within the tolerance of 1e-9 * 100, a distance) and by 5e-7
    ([_leg_100(), _leg_100_mirrored(5e-8)], None),
    ([_leg_100(), _leg_100_mirrored(5e-7)], (0, 1)),
])
def test_equal_lower_x_matches_reference(positions, expected):
    positions = np.array(positions)
    assert first_overlapping_pair(positions) == expected
    assert _first_overlap(positions) == expected


def test_nested_triangles_overlap():
    # neither boundary crosses the other, yet one triangle holds the other
    positions = np.array([[[-10.0, -10.0], [20.0, -10.0], [-10.0, 20.0]], _unit(0.0, 0.0)])
    assert _first_overlap(positions) == first_overlapping_pair(positions) == (0, 1)


def test_flat_ring_is_not_certified():
    # a closed strip drawn as a flat ring: no two triangles overlap, but the
    # annulus is no disk, so the degree argument says nothing about it
    k = 8
    tri = GluedTriangulation(2 * k, [gluing for j in range(k) for gluing in (
        ((2 * j, 2), (2 * j + 1, 0)), ((2 * j + 1, 1), ((2 * j + 2) % (2 * k), 0)))])
    angle = 2.0 * math.pi * np.arange(k + 1) / k
    inner = np.stack([np.cos(angle), np.sin(angle)], axis=1)
    outer = 2.0 * inner
    positions = np.array([corners for j in range(k) for corners in (
        [inner[j], outer[j], outer[j + 1]], [inner[j], outer[j + 1], inner[j + 1]])])
    assert tri.euler_characteristic() == 0 and not tri.is_disk()
    assert first_overlapping_pair(positions) is None
    assert _first_overlap(positions) is None
    assert not _certified(tri, positions)


def test_all_triangles_stacked_in_one_place():
    tri, dm = lattice_disk(np.random.default_rng(11), 6)
    positions = _positions(tri, dm)
    stacked = positions - positions.mean(axis=1, keepdims=True)
    assert first_overlapping_pair(stacked) == (0, 1)
    assert _first_overlap(stacked) == (0, 1)
    assert not _certified(tri, stacked)


@pytest.mark.parametrize("second", [
    np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),  # along the hypotenuse
    np.array([[1.0, 0.0], [2.0, 0.0], [2.0, 1.0]]),  # at the vertex (1, 0)
    np.array([[1.0, -1.0], [2.0, 0.0], [1.0, 0.0]]),  # at (1, 0), the boxes' one common point
])
def test_triangles_that_only_touch_do_not_overlap(second):
    positions = np.array([_unit(0.0, 0.0), second])
    assert first_overlapping_pair(positions) is None
    assert _first_overlap(positions) is None


@pytest.mark.parametrize("depth, certified, expected", [
    (0.0, True, None),  # the hypotenuses coincide
    (4e-8, True, None),  # a weld distance of 0.4 eps
    (5e-8, False, None),  # 0.5 eps: the sweep decides, and finds nothing
    (5e-7, False, (0, 1)),
])
def test_glued_legs_certified_only_within_the_weld_margin(depth, certified, expected):
    # the two legs glued along their hypotenuse form a disk of two triangles
    tri = GluedTriangulation(2, [((0, 1), (1, 2))])
    positions = np.array([_leg_100(), _leg_100_mirrored(depth)])
    assert _certified(tri, positions) == certified
    assert _first_overlap(positions) == first_overlapping_pair(positions) == expected


def test_moved_interior_vertices_of_a_developed_lattice_disk():
    rng = np.random.default_rng(9)
    tri, dm = lattice_disk(rng, 5)
    positions = _positions(tri, dm)
    outcomes = set()
    for v in np.flatnonzero(~tri.boundary_vertex)[::3]:
        direction = rng.normal(size=2)
        for offset in (0.05, 0.6, 1.2):
            moved = positions.copy()
            moved[tri.corner_class == v] += offset * direction / np.hypot(*direction)
            certified = _certified(tri, moved)
            outcomes.add((offset, certified, first_overlapping_pair(moved) is None))
    # small moves keep the disk embedded and certified; large ones fold
    # triangles over, which the certificate refuses and the sweep reports
    assert (0.05, True, True) in outcomes
    assert (1.2, False, False) in outcomes
    assert not any(certified and offset == 1.2 for offset, certified, _ in outcomes)


@pytest.mark.parametrize("share, certified", [(0.3, True), (0.44, True), (0.46, False), (3.0, False)])
def test_one_corner_moved_by_a_share_of_the_tolerance(share, certified):
    tri, dm = lattice_disk(np.random.default_rng(12), 5)
    positions = _positions(tri, dm).copy()
    eps = 1e-9 * max(1.0, float(np.max(np.abs(positions))))
    positions[7, 1] += share * eps * np.array([0.6, -0.8])
    assert _certified(tri, positions) == certified


def _spiral_fan(total, growth):
    """Twelve wedges around a boundary vertex turning through ``total``,
    the spokes ``growth`` longer each."""
    k = 12
    phi = np.linspace(0.0, total, k + 1)
    r = 1.0 + growth * np.arange(k + 1)
    points = np.vstack([[0.0, 0.0], np.column_stack([r * np.cos(phi), r * np.sin(phi)])])
    return flat_disk(points, [(0, i + 1, i + 2) for i in range(k)])


def _spiral_strip(turns, width):
    """A strip of 80 triangles along a spiral whose radius grows 0.3 per
    turn: it overlaps itself after one turn when ``width`` exceeds 0.3, with
    every boundary angle sum below 2 pi."""
    k = 40
    phi = np.linspace(0.0, 2.0 * math.pi * turns, k + 1)
    r = 2.0 + 0.3 * phi / (2.0 * math.pi)
    ring = np.column_stack([np.cos(phi), np.sin(phi)])
    points = np.vstack([r[:, None] * ring, (r + width)[:, None] * ring])
    simplices = [face for i in range(k)
                 for face in ((i, k + 1 + i, i + 1), (k + 1 + i, k + 2 + i, i + 1))]
    return flat_disk(points, simplices)


def _moved_lattice(seed, jitter):
    """A flat lattice disk whose interior points moved by up to ``jitter``."""
    n = 6
    points, simplices = lattice_patch(n)
    i, j = np.divmod(np.arange(len(points)), n + 1)
    interior = (i > 0) & (i < n) & (j > 0) & (j < n)
    points[interior] += jitter * np.random.default_rng(seed).uniform(-1.0, 1.0, (interior.sum(), 2))
    return flat_disk(points, simplices)


def _cone_defect(stretch):
    """A lattice disk with one interior edge, both of whose ends are
    interior, stretched by the factor 1 + ``stretch``: its ends and the
    two far corners become cones of about that defect."""
    tri, dm = lattice_disk(np.random.default_rng(4), 6)
    t, s = tri.edge_sides[:len(tri.gluings), 0].T
    inner = ~tri.boundary_vertex[tri.corner_class[t, s]] & ~tri.boundary_vertex[tri.corner_class[t, (s + 1) % 3]]
    lengths = dm.lengths.copy()
    lengths[np.flatnonzero(inner)[0]] *= 1.0 + stretch
    return tri, DecoratedMetric(lengths=lengths, radii=dm.radii)


def _cone_defects(tri, dm):
    cone = _vertex_sums(tri, _corner_angles(_chart_positions(tri, dm)))
    return np.abs(cone - 2.0 * math.pi)[~tri.boundary_vertex]


LAYOUT_CASES = {
    "wrapped fan": _wrapped_fan,
    **{f"fan over 2 pi by {a:g}": (lambda a=a: _spiral_fan(2.0 * math.pi + a, 0.0))
       for a in (1e-10, 1e-8, 0.3)},
    **{f"spiral fan over 2 pi by {a:g}": (lambda a=a: _spiral_fan(2.0 * math.pi + a, 0.02))
       for a in (1e-10, 1e-6, 0.3)},
    **{f"spiral strip {turns} turns, width {w}": (lambda t=turns, w=w: _spiral_strip(t, w))
       for turns in (0.9, 1.05, 1.3) for w in (0.2, 0.5)},
    **{f"lattice with interior points moved by {j}": (lambda j=j: _moved_lattice(int(10 * j), j))
       for j in (0.2, 0.5)},
    **{f"cone defect {d:g}": (lambda d=d: _cone_defect(d))
       for d in (2e-12, 1e-10, 1e-9, 5e-9, 3e-8, -1e-9, -5e-9, -3e-8)},
    "random disk": lambda: random_disk(np.random.default_rng(31)),
}


@pytest.mark.parametrize("name", LAYOUT_CASES)
def test_layout_warns_about_the_reference_pair(name, caplog):
    tri, dm = LAYOUT_CASES[name]()
    with caplog.at_level(logging.WARNING, logger="hyperideal.layout"):
        positions = _positions(tri, dm)
    warned = [rec.args for rec in caplog.records if "overlaps itself" in rec.message]
    expected = first_overlapping_pair(positions)
    assert warned == ([] if expected is None else [expected])
    certified = _certified(tri, positions)
    if "fan" in name:  # a boundary angle sum over 2 pi is never certified
        assert not certified
    if "cone defect" in name:
        assert 1e-12 <= np.max(_cone_defects(tri, dm)) <= FLAT_TOL


def test_certified_development_is_not_swept(monkeypatch):
    def swept(pts):
        raise AssertionError("a certified development was swept")

    rng = np.random.default_rng(2)
    cases = [lattice_disk(rng, 8), *(random_disk(rng) for _ in range(4))]
    tri, dm = lattice_disk(rng, 8)  # and one solved from its probed angles
    x, _ = solve_problem(tri, probe(tri, dm)[0])
    cases.append((tri, metric_from_lengths(truncated_lengths(x, tri), tri)))
    monkeypatch.setattr("hyperideal.layout._first_overlap", swept)
    for tri, dm in cases:
        assert lay_out(tri, dm).mode == GLOBAL
