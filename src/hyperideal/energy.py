"""Truncated volume of a one-ideal/three-hyperideal tetrahedron and friends.

Angle layout for one tetrahedron, used everywhere in the package:

    u = (a12, a23, a31, g1, g2, g3)

where ``a`` are the dihedral angles at the edges between hyperideal vertices
(equivalently the face-circle/edge intersection angles of the decorated
triangle) and ``g`` are the dihedral angles at the edges meeting the ideal
vertex (the euclidean corner angles).  The admissible open set ``Delta`` is

    all six angles > 0,  g1+g2+g3 = pi,  g_i + a_ij + a_ki < pi.

The truncated volume is a 15-term Lobachevsky sum; the same 15 arguments
regroup into five ideal-tetrahedron angle triples, which is what makes the
function concave and drives the boundary classification.

All evaluators broadcast over leading axes: ``alpha``/``gamma`` have shape
(..., 3) and results have shape (...) or (..., k).
"""

import numpy as np

from .errors import DomainError, SingularityError
from .lob import lob, lob_deriv, lob_second

MEMBERSHIP_TOL = 1e-10

# Lobachevsky arguments as affine maps of u = (a12, a23, a31, g1, g2, g3):
# args = u @ ARG_COEF.T + ARG_CONST.  Row order: g1 g2 g3, g1' g2' g3',
# g1'' g2'' g3'', m1 m2 m3, n1 n2 n3.
ARG_COEF = np.array(
    [
        [0.0, 0.0, 0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
        [-0.5, 0.0, 0.5, -0.5, 0.0, 0.0],
        [0.5, -0.5, 0.0, 0.0, -0.5, 0.0],
        [0.0, 0.5, -0.5, 0.0, 0.0, -0.5],
        [0.5, 0.0, -0.5, -0.5, 0.0, 0.0],
        [-0.5, 0.5, 0.0, 0.0, -0.5, 0.0],
        [0.0, -0.5, 0.5, 0.0, 0.0, -0.5],
        [0.5, 0.0, 0.5, -0.5, 0.0, 0.0],
        [0.5, 0.5, 0.0, 0.0, -0.5, 0.0],
        [0.0, 0.5, 0.5, 0.0, 0.0, -0.5],
        [-0.5, 0.0, -0.5, -0.5, 0.0, 0.0],
        [-0.5, -0.5, 0.0, 0.0, -0.5, 0.0],
        [0.0, -0.5, -0.5, 0.0, 0.0, -0.5],
    ]
)
ARG_CONST = np.array([0.0] * 3 + [0.5 * np.pi] * 12)

# row k: the outer product of row k of ARG_COEF with itself, flattened, so
# that the Hessian sum_k w_k ARG_COEF[k]^T ARG_COEF[k] is one product w @ _HESS_TABLE
_HESS_TABLE = np.einsum("ki,kj->kij", ARG_COEF, ARG_COEF).reshape(15, 36)

# args-row indices of the five ideal triples of the decomposition 2V = sum V0
FIVE_TRIPLES = ((3, 4, 5), (6, 7, 8), (0, 9, 12), (1, 10, 13), (2, 11, 14))


def _stack(alpha, gamma):
    alpha = np.asarray(alpha, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    if alpha.shape[-1:] != (3,) or gamma.shape[-1:] != (3,):
        raise DomainError("alpha and gamma must have trailing dimension 3")
    return np.concatenate(np.broadcast_arrays(alpha, gamma), axis=-1)


def lob_arguments(alpha, gamma):
    """The 15 Lobachevsky arguments of the volume formula, shape (..., 15)."""
    return _stack(alpha, gamma) @ ARG_COEF.T + ARG_CONST


def in_delta(alpha, gamma, closed=False):
    """Membership in Delta (open) or its closure, elementwise over leading axes."""
    u = _stack(alpha, gamma)
    g = u[..., 3:]
    a = u[..., :3]
    # g_i pairs with the two sides at corner i: (a12,a31), (a23,a12), (a31,a23)
    tri = g + a + np.roll(a, 1, axis=-1)
    tol = MEMBERSHIP_TOL
    sum_ok = np.abs(g.sum(axis=-1) - np.pi) <= tol
    if closed:
        return sum_ok & (u >= -tol).all(axis=-1) & (tri <= np.pi + tol).all(axis=-1)
    return sum_ok & (u > tol).all(axis=-1) & (tri < np.pi - tol).all(axis=-1)


def v0(triple):
    """Volume of an ideal tetrahedron with dihedral-angle triple in closed Delta_0."""
    t = np.asarray(triple, dtype=float)
    tol = MEMBERSHIP_TOL
    if not np.all((np.abs(t.sum(axis=-1) - np.pi) <= tol) & (t >= -tol).all(axis=-1)):
        raise DomainError("v0: triple outside the closure of Delta_0")
    out = lob(t).sum(axis=-1)
    return float(out) if out.ndim == 0 else out


def five_tetra(alpha, gamma):
    """The five ideal angle triples whose volumes sum to twice the truncated volume.

    Shape (..., 5, 3); rows are (g'), (g''), (g1,m1,n1), (g2,m2,n2), (g3,m3,n3).
    """
    if not np.all(in_delta(alpha, gamma, closed=True)):
        raise DomainError("five_tetra: angles outside the closure of Delta")
    args = lob_arguments(alpha, gamma)
    idx = np.array(FIVE_TRIPLES)
    return args[..., idx]


def tet_volume(alpha, gamma):
    """Truncated volume of the tetrahedron; zero exactly at badly degenerate points."""
    if not np.all(in_delta(alpha, gamma, closed=True)):
        raise DomainError("tet_volume: angles outside the closure of Delta")
    out = 0.5 * lob(lob_arguments(alpha, gamma)).sum(axis=-1)
    return float(out) if out.ndim == 0 else out


def tet_volume_grad(alpha, gamma):
    """Gradient of the truncated volume w.r.t. (a12, a23, a31, g1, g2, g3).

    Requires the open set: every Lobachevsky argument must be at least 1e-10
    away from a multiple of pi.  ``-2 * grad[..., :3]`` are the truncated edge
    lengths between hyperideal vertices and are strictly positive on Delta.
    """
    if not np.all(in_delta(alpha, gamma, closed=False)):
        raise DomainError("tet_volume_grad: angles not strictly inside Delta")
    args = lob_arguments(alpha, gamma)
    if np.min(args) < 1e-10 or np.max(args) > np.pi - 1e-10:
        raise SingularityError("tet_volume_grad: argument too close to a multiple of pi")
    return 0.5 * (lob_deriv(args) @ ARG_COEF)


def tet_volume_hess(alpha, gamma):
    """Hessian of the truncated volume, shape (..., 6, 6); negative definite on Delta."""
    args = lob_arguments(alpha, gamma)
    if np.min(args) <= 0.0 or np.max(args) >= np.pi:
        raise SingularityError("tet_volume_hess: angles not strictly inside Delta")
    w = 0.5 * lob_second(args)
    # one matrix product with a zero row below: numpy would send a lone row
    # to gemv, whose sums run in another order than a matrix product's
    rows = np.concatenate([w.reshape(-1, 15), np.zeros((1, 15))])
    return (rows @ _HESS_TABLE)[:-1].reshape(w.shape[:-1] + (6, 6))


INTERIOR = "interior"
MILD = "mildly_degenerate"
BAD = "badly_degenerate"
ALPHA_DEG = "alpha_degenerate"


def classify(alpha, gamma):
    """Classify a point of the closure of Delta.

    Returns one of ``interior``, ``mildly_degenerate``, ``badly_degenerate``,
    ``alpha_degenerate``, keyed by how the five associated ideal tetrahedra
    degenerate: a triple sitting in an open side of the boundary triangle is a
    mild degeneration, a triple at a vertex (a permutation of (0, 0, pi)) a
    bad one, and if none of the five degenerate only some alpha can vanish.
    """
    if not np.all(in_delta(alpha, gamma, closed=True)):
        raise DomainError("classify: angles outside the closure of Delta")
    if bool(np.all(in_delta(alpha, gamma, closed=False))):
        return INTERIOR
    triples = five_tetra(alpha, gamma)
    zeros = (triples <= MEMBERSHIP_TOL).sum(axis=-1)
    if np.any(zeros == 1):
        return MILD
    if np.any(zeros >= 2):
        return BAD
    return ALPHA_DEG


def vol_p1(alpha):
    """Volume of the birectangular tetrahedron with two ideal vertices."""
    a = np.asarray(alpha, dtype=float)
    if not np.all((a > 0.0) & (a < 0.5 * np.pi)):
        raise DomainError("vol_p1: need alpha in (0, pi/2)")
    out = 0.5 * lob(a)
    return float(out) if np.ndim(alpha) == 0 else out


def vol_prism(alpha, beta, gamma):
    """Volume of the ideal triangular prism with base dihedral angles (alpha, beta, gamma)."""
    a, b, g = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (alpha, beta, gamma)))
    if not np.all((a > 0.0) & (b > 0.0) & (g > 0.0) & (a + b + g < np.pi)):
        raise DomainError("vol_prism: need positive angles with alpha+beta+gamma < pi")
    args = np.stack(
        [
            a,
            b,
            g,
            0.5 * (np.pi + a - b - g),
            0.5 * (np.pi - a + b - g),
            0.5 * (np.pi - a - b + g),
            0.5 * (np.pi - a - b - g),
        ],
        axis=-1,
    )
    out = lob(args).sum(axis=-1)
    return float(out) if np.ndim(out) == 0 else out


def vol_p3(alpha, beta, gamma):
    """Truncated volume of a tetrahedron with one hyperideal and three ideal vertices."""
    out = 0.5 * np.asarray(vol_prism(alpha, beta, gamma))
    return float(out) if out.ndim == 0 else out


_P4_SIGNS = np.array([1.0, 1.0, 1.0, -1.0, 1.0])


def vol_p4(alpha, beta, gamma):
    """Truncated volume of the special pyramid; signed 5-term Lobachevsky sum.

    Symmetric in (alpha, beta); a self-intersecting base (one of them obtuse)
    is allowed as long as alpha+beta+gamma < pi.
    """
    a, b, g = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (alpha, beta, gamma)))
    if not np.all(
        (a > 0.0) & (a < np.pi) & (b > 0.0) & (b < np.pi)
        & (g > 0.0) & (g < np.pi) & (a + b + g < np.pi)
    ):
        raise DomainError("vol_p4: need alpha, beta, gamma in (0, pi) with alpha+beta+gamma < pi")
    args = np.stack(
        [
            g,
            0.5 * (np.pi + a - b - g),
            0.5 * (np.pi - a + b - g),
            0.5 * (np.pi - a - b + g),
            0.5 * (np.pi - a - b - g),
        ],
        axis=-1,
    )
    out = 0.5 * (_P4_SIGNS * lob(args)).sum(axis=-1)
    return float(out) if np.ndim(out) == 0 else out
