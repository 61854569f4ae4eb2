"""Circle-pattern reconstruction and the forward geometric oracle.

From a critical angle system, Schlaefli-type derivative identities give
truncated hyperbolic lengths: ``a_edge = -2 dF/dalpha`` (agreeing from both
sides of each interior edge) and vertex potentials ``a_vertex`` integrated
from the gamma-partial differences along the one spanning forest of the
gluings that ``GluedTriangulation`` derives.  The compat2 residual is the
largest mismatch of those differences over all corners; it vanishes exactly
when the potentials exist.  These convert to euclidean data by

    r_i = exp(-a_i)       (up to the gauge a = 0, r = 1 at vertex class 0),
    l_ij^2 = r_i^2 + r_j^2 + 2 r_i r_j cosh(a_ij).

The forward direction reads angles off an explicitly drawn decorated
triangle: gamma is the euclidean corner angle, alpha the intersection angle
of an edge line with the triangle's orthocircle (the circle orthogonal to
the three vertex circles, centered at their radical center).
"""

import math
from dataclasses import dataclass

import numpy as np

from .coherent import AngleSystem, build_constraints, is_coherent
from .energy import in_delta, tet_volume_grad
from .errors import NotCriticalError, PreconditionError
from .surface import AngleData, GluedTriangulation

COMPAT_TOL = 1e-7  # truncated lengths across an edge, potential cycles
CROSS_CHECK_TOL = 1e-10  # theta from the alphas vs the face circles


# -- compatibility residuals and potentials ----------------------------------


def _potentials(tri, gp):
    """Vertex potentials from the gamma-partials ``gp`` (T, 3), and the
    mismatch per corner (3T,).

    Crossing side x of triangle t to corner y = forward[x] of t2 steps the
    triangle potential by psi[t2] = psi[t] + gp[x] - gp[y]; the spanning
    forest fixes psi, the mismatch is how far each glued corner's step
    misses (exactly 0 on the forest), and each class's potential is
    psi[t] + gp[t, c] at its smallest corner, 0 for class 0."""
    if tri.component.any():
        raise PreconditionError("surface is disconnected")
    g = gp.ravel()
    linked = np.flatnonzero(tri.forward >= 0)
    step = np.zeros(len(g))
    step[linked] = g[linked] - g[tri.forward[linked]]
    psi = [-float(g[0])] * tri.triangle_count
    parent, steps = tri.parent_corner.tolist(), step.tolist()
    for t in tri.forest_order[1:].tolist():
        psi[t] = psi[parent[t] // 3] + steps[parent[t]]
    psi = np.array(psi)
    mismatch = np.zeros(len(g))
    mismatch[linked] = np.abs(psi[tri.forward[linked] // 3] - (psi[linked // 3] + step[linked]))
    return psi[tri.first_corner // 3] + g[tri.first_corner], mismatch


def _at_sides(tri, per_side):
    """``per_side[t, s]`` at both sides (t, s) of every edge, shape (E, 2);
    a boundary edge's one side fills both columns."""
    return per_side[tri.edge_sides[..., 0], tri.edge_sides[..., 1]]


def _end_radii(tri, radii):
    """Radii of the vertex circles at both ends of every edge, each (E,)."""
    t, s = tri.edge_sides[:, 0].T
    return radii[tri.corner_class[t, s]], radii[tri.corner_class[t, (s + 1) % 3]]


def compat_residuals(tri, x: AngleSystem):
    """(max |compat_1| over interior edges, max |compat_2| over corners)."""
    grads = tet_volume_grad(x.alphas(), x.gammas())
    ap, gp = grads[:, :3], grads[:, 3:]
    across = _at_sides(tri, ap)
    c1 = float(np.max(np.abs(across[:, 0] - across[:, 1])))
    return c1, float(np.max(_potentials(tri, gp)[1]))


# -- truncated lengths and the decorated metric -------------------------------


@dataclass
class TruncatedLengths:
    """Truncated hyperbolic edge lengths and gauge-fixed vertex potentials."""

    a_edge: np.ndarray  # per edge index, > 0
    a_vertex: np.ndarray  # per vertex class, a_vertex[0] == 0
    max_cycle_residual: float


def truncated_lengths(x: AngleSystem, tri: GluedTriangulation) -> TruncatedLengths:
    """Truncated lengths at a critical point; raises if x is not critical."""
    grads = tet_volume_grad(x.alphas(), x.gammas())
    ap, gp = grads[:, :3], grads[:, 3:]
    one, two = (-2.0 * _at_sides(tri, ap)).T
    differ = np.flatnonzero(np.abs(one - two) > 2.0 * COMPAT_TOL)
    if differ.size:
        e = differ[0]
        raise NotCriticalError(
            f"edge {e}: truncated length differs across the edge "
            f"({one[e]:.12g} vs {two[e]:.12g}); angle system is not critical"
        )
    a_edge = 0.5 * (one + two)
    psi_v, mismatch = _potentials(tri, gp)
    cycle_res = float(np.max(mismatch))
    if cycle_res > COMPAT_TOL:
        raise NotCriticalError(
            f"gamma-potential cycle residual {cycle_res:.3e} too large; "
            "angle system is not critical"
        )
    a_vertex = -2.0 * psi_v
    a_vertex -= a_vertex[0]
    if np.any(a_edge <= 0.0):
        raise NotCriticalError("nonpositive truncated edge length")
    return TruncatedLengths(a_edge=a_edge, a_vertex=a_vertex,
                            max_cycle_residual=cycle_res)


@dataclass
class DecoratedMetric:
    """Euclidean edge lengths and vertex-circle radii (a circle pattern, up to scale)."""

    lengths: np.ndarray  # per edge index
    radii: np.ndarray  # per vertex class

    def scaled(self, factor):
        return DecoratedMetric(lengths=self.lengths * factor, radii=self.radii * factor)

    def _check_entries(self, tri):
        """PreconditionError unless there is one finite positive length per
        edge and one finite positive radius per vertex class."""
        n_e, n_v = len(tri.edge_sides), tri.vertex_count
        if np.shape(self.lengths) != (n_e,) or np.shape(self.radii) != (n_v,):
            raise PreconditionError(
                f"{n_e} lengths and {n_v} radii needed, one per edge and vertex class, "
                f"not {np.size(self.lengths)} and {np.size(self.radii)}")
        if not (np.all(np.isfinite(self.lengths)) and np.all(np.isfinite(self.radii))):
            raise PreconditionError("lengths and radii must be finite")
        if np.any(self.lengths <= 0.0) or np.any(self.radii <= 0.0):
            raise PreconditionError("lengths and radii must be positive")

    def validate(self, tri):
        self._check_entries(tri)
        ri, rj = _end_radii(tri, self.radii)
        overlapping = np.flatnonzero(ri + rj >= self.lengths)
        if overlapping.size:
            e = overlapping[0]
            raise PreconditionError(
                f"edge {e}: vertex circles touch or overlap "
                f"(r_i + r_j = {ri[e] + rj[e]:.12g} >= l = {self.lengths[e]:.12g})"
            )
        l = self.lengths[tri.side_edge]
        broken = np.flatnonzero(np.any(
            np.roll(l, -1, axis=1) + np.roll(l, -2, axis=1) <= l, axis=1))
        if broken.size:
            raise PreconditionError(f"triangle {broken[0]} violates the triangle inequality")


def metric_from_lengths(tl: TruncatedLengths, tri: GluedTriangulation) -> DecoratedMetric:
    """Euclidean lengths and radii from truncated hyperbolic data (gauge r[0] = 1)."""
    radii = np.exp(-(tl.a_vertex - tl.a_vertex[0]))
    ri, rj = _end_radii(tri, radii)
    lengths = np.sqrt(ri * ri + rj * rj + 2.0 * ri * rj * np.cosh(tl.a_edge))
    return DecoratedMetric(lengths=lengths, radii=radii)


# -- planar geometry of decorated triangles -------------------------------------
#
# The functions below broadcast over leading axes: a triangle's side lengths
# (l12, l23, l31) and vertex radii (r1, r2, r3) run along the last axis, its
# corners along the second to last, point coordinates along the last.


def _dot(u, v):
    """Dot products of 2-vectors along the last axis (rounded as ``u @ v``)."""
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def place_canonical(l12, l23, l31):
    """Corners (..., 3, 2) of triangles with the given side lengths: corner 0
    at the origin, corner 1 at (l12, 0), corner 2 in the upper half plane."""
    l12, l23, l31 = np.broadcast_arrays(*(np.asarray(l, dtype=float) for l in (l12, l23, l31)))
    if np.any((l12 + l23 <= l31) | (l23 + l31 <= l12) | (l31 + l12 <= l23)):
        raise PreconditionError("triangle inequality violated")
    x = (l12 * l12 + l31 * l31 - l23 * l23) / (2.0 * l12)
    y2 = l31 * l31 - x * x
    if np.any(y2 <= 0.0):
        raise PreconditionError("degenerate triangle")
    corners = np.zeros(x.shape + (3, 2))
    corners[..., 1, 0] = l12
    corners[..., 2, 0] = x
    corners[..., 2, 1] = np.sqrt(y2)
    return corners


def radical_center(points, radii):
    """Radical center of three circles and its common power.

    The power is the squared orthocircle radius; it must be positive for the
    orthocircle to exist.
    """
    p = np.asarray(points, dtype=float)
    r = np.asarray(radii, dtype=float)
    p1 = p[..., 0, :]
    # equal-power conditions linearized: 2 (p_j - p_i) . c = |p_j|^2 - |p_i|^2 - r_j^2 + r_i^2
    a = 2.0 * (p[..., 1:, :] - p1[..., None, :])
    sq = _dot(p, p)
    b = sq[..., 1:] - sq[..., :1] - r[..., 1:] * r[..., 1:] + r[..., :1] * r[..., :1]
    center = np.linalg.solve(a, b[..., None])[..., 0]
    power = _dot(center - p1, center - p1) - r[..., 0] * r[..., 0]
    return center, power


def _orthocircles(sides, radii):
    """Canonical corners of decorated triangles and the center and radius of
    each orthocircle there."""
    points = place_canonical(*np.moveaxis(sides, -1, 0))
    if np.any(radii + np.roll(radii, -1, axis=-1) >= sides):
        raise PreconditionError("vertex circles touch or overlap")
    center, power = radical_center(points, radii)
    if np.any(power <= 0.0):
        raise PreconditionError("radical center has nonpositive power; no orthocircle")
    return points, center, np.sqrt(power)


def orthocircle(l12, l23, l31, r1, r2, r3):
    """Center and radius of the circle orthogonal to the three vertex circles,
    in the canonical placement."""
    _, center, radius = _orthocircles(np.stack(np.broadcast_arrays(l12, l23, l31), axis=-1),
                                      np.stack(np.broadcast_arrays(r1, r2, r3), axis=-1))
    return center, radius


def _side_frames(points, q):
    """``q[..., s, :]`` in the frame of side s of the triangles ``points``
    (corner s at the origin, corner s+1 on the positive x axis), scaled by
    the length of side s; and that length."""
    edge = np.roll(points, -1, axis=-2) - points
    rel = q - points
    along_across = np.stack(
        [_dot(edge, rel), edge[..., 0] * rel[..., 1] - edge[..., 1] * rel[..., 0]], axis=-1)
    return along_across, np.hypot(edge[..., 0], edge[..., 1])[..., None]


def _corner_angles(points):
    far, _ = _side_frames(points, np.roll(points, -2, axis=-2))
    return np.arctan2(np.abs(far[..., 1]), far[..., 0])


def _read_off_triangles(sides, radii):
    """Everything the pattern reads off decorated triangles, computed once.

    Returns the angles (a12, a23, a31, g1, g2, g3) (..., 6), the orthocircle
    radius (...,) and, per side s, the orthocircle center and the far corner
    s+2 in the frame of side s (..., 3, 2), where the triangle lies above.
    gamma is the euclidean corner angle; alpha the angle between an edge line
    and the orthocircle, obtuse exactly when the orthocircle center lies on
    the far side of that edge.
    """
    points, center, radius = _orthocircles(sides, radii)
    face, length = _side_frames(points, center[..., None, :])
    face /= length
    h = face[..., 1]
    if np.any(np.abs(h) >= radius[..., None]):
        raise PreconditionError("an edge line does not meet the orthocircle")
    alpha = np.arccos(h / radius[..., None])
    gamma = _corner_angles(points)
    if not np.all(in_delta(alpha, gamma, closed=False)):
        raise PreconditionError("read-off angles fall outside Delta")
    far, _ = _side_frames(points, np.roll(points, -2, axis=-2))
    return np.concatenate([alpha, gamma], axis=-1), radius, face, far / length


def read_angles(lengths, radii):
    """Angles (a12, a23, a31, g1, g2, g3) of the decorated triangle with side
    lengths (l12, l23, l31) and vertex radii (r1, r2, r3); the result lies in
    Delta."""
    return _read_off_triangles(np.asarray(lengths, dtype=float), np.asarray(radii, dtype=float))[0]


# -- probing and verification --------------------------------------------------


def _read_off(tri, dm):
    """The read-off of every triangle of ``dm``, batched."""
    return _read_off_triangles(dm.lengths[tri.side_edge], dm.radii[tri.corner_class])


def _edge_theta(tri, angles):
    """pi minus the alphas at the sides of every edge, per edge index."""
    alpha = _at_sides(tri, angles[:, :3])
    theta = np.pi - alpha[:, 0]
    interior = len(tri.gluings)
    theta[:interior] -= alpha[:interior, 1]
    return theta


def _vertex_sums(tri, per_corner):
    """Sum of ``per_corner[t, c]`` over each vertex class."""
    return np.bincount(tri.corner_class.ravel(), weights=per_corner.ravel(),
                       minlength=tri.vertex_count)


def _across_interior_edges(tri, dm, radius, face, far):
    """The two face circles of every interior edge, compared across it.

    Returns the condition (ii) margins (n, 2), pi/2 minus the angle between
    each face circle and the far vertex circle of the other triangle
    (disjoint circles count as margin pi/2, nested ones as -pi/2), and the intersection angle of
    the two face circles (n,), which is theta at the edge.  The two side
    frames of an edge run opposite ways: x -> l - x, y -> -y maps one into
    the other.
    """
    interior = len(tri.gluings)
    t, s = np.moveaxis(tri.edge_sides[:interior], -1, 0)
    l = dm.lengths[:interior, None]
    rad = radius[t]
    center = face[t, s]
    far_other = far[t, s][:, ::-1]
    rho = dm.radii[tri.corner_class[t, (s + 2) % 3]][:, ::-1]
    d2 = ((center[..., 0] - (l - far_other[..., 0])) ** 2
          + (center[..., 1] + far_other[..., 1]) ** 2)
    cos_ii = (d2 - rad * rad - rho * rho) / (2.0 * rad * rho)
    margins = 0.5 * np.pi - np.arccos(np.clip(cos_ii, -1.0, 1.0))
    (cx, h), (cx2, h2) = np.moveaxis(center, 0, -1)
    rad1, rad2 = rad.T
    d2 = (cx - (l[:, 0] - cx2)) ** 2 + (h + h2) ** 2
    cos_theta = (rad1 * rad1 + rad2 * rad2 - d2) / (2.0 * rad1 * rad2)
    return margins, np.arccos(np.clip(cos_theta, -1.0, 1.0))


def probe(tri: GluedTriangulation, dm: DecoratedMetric):
    """Read (AngleData, AngleSystem) off an explicit decorated metric.

    Preconditions: condition (i) on every edge and the edge-local Delaunay
    condition (ii) across every interior edge.  The interior theta computed
    as pi - alpha - alpha' is cross-checked against the direct intersection
    angle of the two face circles.
    """
    dm.validate(tri)
    angles, radius, face, far = _read_off(tri, dm)
    margins, direct = _across_interior_edges(tri, dm, radius, face, far)
    violated = np.flatnonzero(np.any(margins <= 0.0, axis=1))
    if violated.size:
        e = violated[0]
        m = margins[e][margins[e] <= 0.0][0]
        raise PreconditionError(
            f"edge {e}: Delaunay condition (ii) violated "
            f"(face circle meets far vertex circle at {0.5 * math.pi - m:.6g} rad)"
        )
    theta = _edge_theta(tri, angles)
    mismatch = np.zeros(len(theta), dtype=bool)
    mismatch[:len(direct)] = np.abs(direct - theta[:len(direct)]) > CROSS_CHECK_TOL
    bad = np.flatnonzero(mismatch | ~((0.0 <= theta) & (theta < np.pi)))
    if bad.size:
        e = bad[0]
        if mismatch[e]:
            raise PreconditionError(
                f"edge {e}: face-circle angle cross-check failed "
                f"({direct[e]:.12g} vs {theta[e]:.12g})"
            )
        raise PreconditionError(f"edge {e}: theta out of range [0, pi)")
    x = AngleSystem(angles.reshape(-1))
    data = AngleData(theta=theta, xi=_vertex_sums(tri, angles[:, 3:]))
    report = is_coherent(x, build_constraints(tri, data))
    if not report.ok:
        raise PreconditionError(f"probed angle system is not coherent: {report.violations[:3]}")
    return data, x


@dataclass
class PatternReport:
    """Residuals of a decorated metric against problem data (all scale-invariant)."""

    max_theta_residual: float
    max_xi_residual: float
    min_condition_i_slack: float  # min over edges of (l - r_i - r_j) / l
    min_condition_ii_margin: float  # min over interior edges, radians


def verify_pattern(tri, data: AngleData, dm: DecoratedMetric) -> PatternReport:
    """Compare the pattern read off ``dm`` with the problem data.  ``dm``
    needs one finite positive length per edge and radius per vertex class;
    an edge that breaks condition (ii) is reported, not refused."""
    dm._check_entries(tri)
    angles, radius, face, far = _read_off(tri, dm)
    margins, _ = _across_interior_edges(tri, dm, radius, face, far)
    ri, rj = _end_radii(tri, dm.radii)
    return PatternReport(
        max_theta_residual=float(np.max(np.abs(_edge_theta(tri, angles) - data.theta))),
        max_xi_residual=float(np.max(np.abs(_vertex_sums(tri, angles[:, 3:]) - data.xi))),
        min_condition_i_slack=float(np.min((dm.lengths - ri - rj) / dm.lengths)),
        min_condition_ii_margin=float(np.min(margins, initial=0.5 * np.pi)),
    )
