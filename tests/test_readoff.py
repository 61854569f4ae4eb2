"""The batched read-off of decorated triangles against the per-triangle reference."""

import dataclasses
import math

import numpy as np

from hyperideal import layout, pattern
from hyperideal.errors import PreconditionError
from hyperideal.files import parse_geometry
from hyperideal.pattern import (
    DecoratedMetric,
    metric_from_lengths,
    orthocircle,
    place_canonical,
    probe,
    read_angles,
    truncated_lengths,
    verify_pattern,
)
from hyperideal.solve import solve_problem
from hyperideal.surface import GluedTriangulation

from . import oracles
from .conftest import bundled_instance, bundled_text

ANGLE_TOL = 1e-15
# Xi sums up to six corner angles of about 1; near 2 pi one float spacing is
# 8.9e-16, so the two summation orders may round a few spacings apart
XI_TOL = 4e-15
REPORT_TOL = 1e-12


def cone_fan():
    """Closed fan of six 72-degree wedges: an interior cone vertex of 2.4 pi."""
    k = 6
    tri = GluedTriangulation(k, [((t, 2), ((t + 1) % k, 0)) for t in range(k)])
    rim = 2.0 * math.sin(math.radians(36.0))
    lengths = np.array([rim if e.sides[0][1] == 1 else 1.0 for e in tri.edges])
    return tri, DecoratedMetric(lengths=lengths, radii=np.full(len(tri.vertices), 0.12))


def solved_metric(name):
    tri, data = bundled_instance(name)
    x, _ = solve_problem(tri, data)
    return tri, metric_from_lengths(truncated_lengths(x, tri), tri)


def valid_cases():
    rng = np.random.default_rng(20261018)
    cases = [oracles.random_disk(rng) for _ in range(4)]
    cases.append(oracles.lattice_disk(np.random.default_rng(8), 8))  # 128 triangles
    # triangle.json is a single triangle: no interior edge
    cases += [solved_metric(n) for n in ("torus.json", "disk2.json", "fan3.json", "triangle.json")]
    cases.append(parse_geometry(bundled_text("disk2_geometry.json")))
    cases.append(cone_fan())
    return cases


def two_triangles(lengths, radii):
    tri = GluedTriangulation(2, [((0, 0), (1, 0))])
    return tri, DecoratedMetric(lengths=np.array(lengths, dtype=float),
                                radii=np.full(len(tri.vertices), float(radii)))


def malformed_cases():
    return {
        "overlapping vertex circles": two_triangles([2.0] * 5, 1.05),
        "broken triangle inequality": two_triangles([2.0, 2.0, 2.0, 5.0, 2.0], 0.2),
        # a long shared edge: each face circle meets the far vertex circle
        # at more than pi/2
        "Delaunay-violating edge": two_triangles([3.0, 2.0, 2.0, 2.0, 2.0], 0.5),
        # longer still, with small circles inside the other face circle:
        # theta read off the alphas is negative
        "negative theta": two_triangles([3.6, 2.0, 2.0, 2.0, 2.0], 0.2),
    }


def outcome(call):
    """(exception class, message) if ``call`` raises a PreconditionError,
    else (None, result)."""
    try:
        return None, call()
    except PreconditionError as exc:
        return type(exc), str(exc)


def assert_reports_agree(got, want):
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert abs(a - b) <= REPORT_TOL, (field.name, a, b)


def test_probe_and_verify_match_the_per_triangle_reference():
    for tri, dm in valid_cases():
        data, x = probe(tri, dm)
        ref_data, ref_x = oracles.probe_loop(tri, dm)
        assert np.max(np.abs(x.values - ref_x.values)) <= ANGLE_TOL
        assert np.max(np.abs(data.theta - ref_data.theta)) <= ANGLE_TOL
        assert np.max(np.abs(data.xi - ref_data.xi)) <= XI_TOL
        assert_reports_agree(verify_pattern(tri, ref_data, dm),
                             oracles.verify_pattern_loop(tri, ref_data, dm))
        # a perturbed metric: nonzero residuals, or the same exception
        bent = DecoratedMetric(lengths=dm.lengths * np.linspace(1.0, 1.02, len(dm.lengths)),
                               radii=dm.radii)
        kind, got = outcome(lambda: verify_pattern(tri, ref_data, bent))
        ref_kind, want = outcome(lambda: oracles.verify_pattern_loop(tri, ref_data, bent))
        assert kind is ref_kind
        if kind is None:
            assert_reports_agree(got, want)


def test_malformed_geometries_fail_like_the_reference():
    data, _ = probe(*two_triangles([2.0] * 5, 0.4))
    for name, (tri, dm) in malformed_cases().items():
        kind, message = outcome(lambda: probe(tri, dm))
        assert kind is PreconditionError, name
        assert (kind, message) == outcome(lambda: oracles.probe_loop(tri, dm)), name
        kind, got = outcome(lambda: verify_pattern(tri, data, dm))
        ref_kind, want = outcome(lambda: oracles.verify_pattern_loop(tri, data, dm))
        assert kind is ref_kind, name
        if kind is None:
            assert_reports_agree(got, want)


def test_metric_counts_that_do_not_fit_are_precondition_errors():
    tri, dm = two_triangles([2.0] * 5, 0.4)
    data, _ = probe(tri, dm)
    for bad in (DecoratedMetric(lengths=dm.lengths[:4], radii=dm.radii),  # 5 edges
                DecoratedMetric(lengths=dm.lengths, radii=dm.radii[:3])):  # 4 vertex classes
        for run in (lambda: probe(tri, bad), lambda: layout.lay_out(tri, bad),
                    lambda: verify_pattern(tri, data, bad)):
            kind, message = outcome(run)
            assert kind is PreconditionError and "one per edge and vertex class" in message


def test_verify_pattern_refuses_negative_radii_and_nan_lengths():
    # the read-off squares the radii, so negated ones matched the data exactly
    tri, dm = oracles.lattice_disk(np.random.default_rng(1), 2)
    data, _ = probe(tri, dm)
    nan_length = dm.lengths.copy()
    nan_length[3] = np.nan
    for bad, words in ((DecoratedMetric(lengths=dm.lengths, radii=-dm.radii), "positive"),
                       (DecoratedMetric(lengths=nan_length, radii=dm.radii), "finite")):
        kind, message = outcome(lambda: verify_pattern(tri, data, bad))
        assert kind is PreconditionError and words in message


def test_every_orthocircle_is_computed_once_per_call(monkeypatch):
    tri, dm = oracles.lattice_disk(np.random.default_rng(3), 4)
    data, _ = probe(tri, dm)
    calls = []

    def counted(points, radii):
        calls.append(np.shape(points)[:-2])
        return radical_center(points, radii)

    radical_center = pattern.radical_center
    monkeypatch.setattr(pattern, "radical_center", counted)
    monkeypatch.setattr(layout, "radical_center", counted)
    for run in (lambda: probe(tri, dm), lambda: verify_pattern(tri, data, dm),
                lambda: layout.lay_out(tri, dm)):
        calls.clear()
        run()
        assert calls == [(tri.triangle_count,)]


def test_geometry_helpers_broadcast_over_leading_axes():
    rng = np.random.default_rng(11)
    sides = rng.uniform(1.8, 2.2, (4, 5, 3))
    radii = rng.uniform(0.1, 0.3, (4, 5, 3))
    points = place_canonical(*np.moveaxis(sides, -1, 0))
    center, radius = orthocircle(*np.moveaxis(sides, -1, 0), *np.moveaxis(radii, -1, 0))
    angles = read_angles(sides, radii)
    assert points.shape == (4, 5, 3, 2) and center.shape == (4, 5, 2)
    assert radius.shape == (4, 5) and angles.shape == (4, 5, 6)
    for i, j in np.ndindex(4, 5):
        assert np.max(np.abs(points[i, j] - oracles.place_canonical(*sides[i, j]))) <= ANGLE_TOL
        c, r = oracles.orthocircle(*sides[i, j], *radii[i, j])
        assert np.max(np.abs(center[i, j] - c)) <= 1e-14 and abs(radius[i, j] - r) <= 1e-14
        want = oracles.read_angles(sides[i, j], radii[i, j])
        assert np.max(np.abs(angles[i, j] - want)) <= ANGLE_TOL
        assert np.max(np.abs(pattern._corner_angles(points[i, j]) - want[3:])) <= ANGLE_TOL


def test_far_vertex_circle_inside_the_face_circle_violates_condition_ii():
    # the far vertex lies 0.55 from the center of the other face circle,
    # whose radius is 2.29: the small vertex circle sits wholly inside it
    tri, dm = two_triangles([3.6, 2.0, 2.0, 2.0, 2.0], 0.2)
    data, _ = probe(*two_triangles([2.0] * 5, 0.4))
    assert verify_pattern(tri, data, dm).min_condition_ii_margin < 0.0
    kind, message = outcome(lambda: probe(tri, dm))
    assert kind is PreconditionError and "Delaunay condition (ii) violated" in message
