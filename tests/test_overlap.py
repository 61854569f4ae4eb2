"""The sort-and-sweep overlap check of global layouts against the all-pairs reference."""

import math

import numpy as np
import pytest

from hyperideal.layout import GLOBAL, _first_overlap, lay_out
from hyperideal.pattern import DecoratedMetric, metric_from_lengths, truncated_lengths
from hyperideal.solve import solve_problem
from hyperideal.surface import GluedTriangulation

from .conftest import bundled_instance
from .oracles import first_overlapping_pair, lattice_disk


def _positions(tri, dm):
    cl = lay_out(tri, dm)
    assert cl.mode == GLOBAL
    return cl.vertices


def _wrapped_fan():
    # six 72-degree wedges around a boundary vertex: the development wraps
    k = 6
    tri = GluedTriangulation(k, [((t, 2), (t + 1, 0)) for t in range(k - 1)])
    rim = 2.0 * math.sin(math.radians(36.0))
    lengths = np.array([rim if e.sides[0][1] == 1 else 1.0 for e in tri.edges])
    return tri, DecoratedMetric(lengths=lengths, radii=np.full(len(tri.vertices), 0.1))


def test_wrapped_fan_same_first_pair():
    positions = _positions(*_wrapped_fan())
    expected = first_overlapping_pair(positions)
    assert expected is not None
    assert _first_overlap(positions) == expected


def test_flat_disk_has_no_overlap():
    tri, data = bundled_instance("fan3.json")
    x, _ = solve_problem(tri, data)
    positions = _positions(tri, metric_from_lengths(truncated_lengths(x, tri), tri))
    assert first_overlapping_pair(positions) is None
    assert _first_overlap(positions) is None


def test_large_lattice_disk_matches_reference():
    rng = np.random.default_rng(77)
    tri, dm = lattice_disk(rng, 8)
    assert tri.triangle_count >= 128
    positions = _positions(tri, dm)
    assert first_overlapping_pair(positions) is None
    assert _first_overlap(positions) is None

    # drop copies of triangles onto other parts of the disk
    for trial in range(6):
        moved = positions.copy()
        for t in rng.choice(tri.triangle_count, 1 + trial, replace=False):
            target = positions[int(rng.integers(tri.triangle_count))]
            moved[t] = positions[t] - positions[t].mean(axis=0) + target.mean(axis=0) \
                + rng.uniform(-0.3, 0.3, 2)
        assert _first_overlap(moved) == first_overlapping_pair(moved)


def test_one_large_triangle_among_small_ones():
    rng = np.random.default_rng(5)
    tri, dm = lattice_disk(rng, 6)
    positions = _positions(tri, dm).copy()
    center = positions[3].mean(axis=0)
    positions[3] = center + 40.0 * (positions[3] - center)  # covers the disk
    expected = first_overlapping_pair(positions)
    assert expected is not None
    assert _first_overlap(positions) == expected


def test_single_triangle_has_no_overlap():
    tri, data = bundled_instance("triangle.json")
    x, _ = solve_problem(tri, data)
    positions = _positions(tri, metric_from_lengths(truncated_lengths(x, tri), tri))
    assert first_overlapping_pair(positions) is None
    assert _first_overlap(positions) is None


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


def test_all_triangles_stacked_in_one_place():
    tri, dm = lattice_disk(np.random.default_rng(11), 6)
    positions = _positions(tri, dm)
    stacked = positions - positions.mean(axis=1, keepdims=True)
    assert first_overlapping_pair(stacked) == (0, 1)
    assert _first_overlap(stacked) == (0, 1)


@pytest.mark.parametrize("second", [
    np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),  # along the hypotenuse
    np.array([[1.0, 0.0], [2.0, 0.0], [2.0, 1.0]]),  # at the vertex (1, 0)
    np.array([[1.0, -1.0], [2.0, 0.0], [1.0, 0.0]]),  # at (1, 0), the boxes' one common point
])
def test_triangles_that_only_touch_do_not_overlap(second):
    positions = np.array([_unit(0.0, 0.0), second])
    assert first_overlapping_pair(positions) is None
    assert _first_overlap(positions) is None
