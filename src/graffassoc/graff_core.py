"""Lines and planes as points on the affine Grassmannian.

A k-dimensional affine subspace of R^3 (k=1: line, k=2: plane) is stored as
an orthonormal basis ``A`` of its direction subspace together with the
orthogonal displacement ``b0``, the unique point of the subspace closest to
the origin.  Embedding the subspace one dimension up turns it into a linear
subspace of R^4, where distances between subspaces of any dimension reduce
to principal angles between orthonormal frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GraffElement",
    "LinePD",
    "PlaneHesse",
    "RigidTransform",
    "orthogonal_displacement",
    "stiefel_coordinates",
    "principal_angles",
    "graff_distance",
    "shifted_graff_distance",
    "shifted_principal_angles",
    "subspace_gap",
    "grassmann_distance",
    "from_pd",
    "to_pd",
    "from_hesse",
    "to_hesse",
    "transform_line",
    "transform_plane",
    "rotation_about_axis",
]

# Bases further than this from orthonormality are rejected outright;
# anything closer is cleaned up to machine precision at construction.
ORTHONORMAL_TOL = 1e-8

_UNIT_TOL = 1e-6


def _as_float_array(x, shape, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    return arr


def _unit_vector(v, name: str) -> np.ndarray:
    v = _as_float_array(v, (3,), name)
    norm = float(np.linalg.norm(v))
    if norm < _UNIT_TOL:
        raise ValueError(f"{name} has near-zero norm {norm:.3g}")
    return v / norm


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=float)
    arr.setflags(write=False)
    return arr


def _flips(v: np.ndarray, s: np.ndarray | float) -> np.ndarray:
    """Rows of sign-ambiguous forms (v, s) ~ (-v, -s) to negate so that s >= 0 and, where s = 0,
    v's first nonzero entry is positive: a plane's (n, d), a quaternion's (xyz, w)."""
    first = v[np.arange(len(v)), np.argmax(v != 0.0, axis=1)]
    return (s < 0.0) | ((s == 0.0) & (first < 0.0))


def rotation_about_axis(axis, angle: float) -> np.ndarray:
    """Rotation matrix for a rotation of `angle` radians about `axis`."""
    return _rotations(_unit_vector(axis, "axis")[None], np.array([float(angle)]))[0]


def _rotations(a: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Rodrigues rotations (n x 3 x 3) about unit axes a (n x 3) by angles (n)."""
    k = np.zeros((len(a), 3, 3))
    k[:, 0, 1], k[:, 0, 2], k[:, 1, 2] = -a[:, 2], a[:, 1], -a[:, 0]
    k[:, 1, 0], k[:, 2, 0], k[:, 2, 1] = a[:, 2], -a[:, 1], a[:, 0]
    return np.eye(3) + np.sin(angles)[:, None, None] * k + (1.0 - np.cos(angles))[:, None, None] * (k @ k)


@dataclass(frozen=True, eq=False)
class RigidTransform:
    """Proper rigid motion of R^3: x -> R x + t."""

    R: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        R = _as_float_array(self.R, (3, 3), "R")
        t = _as_float_array(self.t, (3,), "t")
        if np.max(np.abs(R.T @ R - np.eye(3))) > 1e-10:
            raise ValueError("R is not orthogonal within 1e-10")
        if abs(np.linalg.det(R) - 1.0) > 1e-10:
            raise ValueError("R must have determinant +1")
        object.__setattr__(self, "R", _readonly(R))
        object.__setattr__(self, "t", _readonly(t))

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(np.eye(3), np.zeros(3))

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform one point (3,) or a stack of points (n, 3)."""
        pts = np.asarray(points, dtype=float)
        return pts @ self.R.T + self.t

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """Transform equal to applying `other` first, then `self`."""
        return RigidTransform(self.R @ other.R, self.R @ other.t + self.t)


@dataclass(frozen=True, eq=False)
class GraffElement:
    """Affine subspace of R^3 in canonical (A, b0) coordinates.

    ``A`` is a 3xk orthonormal basis of the direction subspace and ``b0``
    the displacement orthogonal to it (A^T b0 = 0).  Instances are
    immutable; build them with :meth:`from_affine` or the line/plane
    conversion helpers, which canonicalize arbitrary input.
    """

    A: np.ndarray
    b0: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        if A.ndim != 2 or A.shape[0] != 3 or A.shape[1] not in (1, 2):
            raise ValueError(f"A must be 3x1 or 3x2, got {A.shape}")
        b0 = _as_float_array(self.b0, (3,), "b0")
        if not np.isfinite(A).all():
            raise ValueError("A must be finite")
        if np.abs(A.T @ A - np.eye(A.shape[1])).max() > 1e-12:
            raise ValueError("A must be orthonormal; use GraffElement.from_affine")
        if np.abs(A.T @ b0).max() > 1e-9 * max(1.0, math.sqrt(b0 @ b0)):
            raise ValueError("b0 must be orthogonal to span(A); use GraffElement.from_affine")
        object.__setattr__(self, "A", _readonly(A))
        object.__setattr__(self, "b0", _readonly(b0))

    @property
    def k(self) -> int:
        return self.A.shape[1]

    @classmethod
    def from_affine(cls, A, b) -> "GraffElement":
        """Build from any basis A (near-orthonormal) and any point b on the subspace."""
        A = np.asarray(A, dtype=float)
        if A.ndim != 2 or A.shape[0] != 3 or A.shape[1] not in (1, 2):
            raise ValueError(f"A must be 3x1 or 3x2, got {A.shape}")
        if not np.isfinite(A).all():
            raise ValueError("A must be finite")
        if np.abs(A.T @ A - np.eye(A.shape[1])).max() > ORTHONORMAL_TOL:
            raise ValueError("basis is not orthonormal")
        return _element(_frames(A[None], _as_float_array(b, (3,), "b")[None]))

    def translated(self, delta) -> "GraffElement":
        delta = _as_float_array(delta, (3,), "delta")
        return GraffElement.from_affine(self.A, self.b0 + delta)

    def transformed(self, T: RigidTransform) -> "GraffElement":
        return GraffElement.from_affine(T.R @ self.A, T.R @ self.b0 + T.t)


@dataclass(frozen=True, eq=False)
class LinePD:
    """Line in point-direction form. +a and -a denote the same line."""

    a: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", _readonly(_unit_vector(self.a, "direction")))
        object.__setattr__(self, "p", _readonly(_as_float_array(self.p, (3,), "point")))


@dataclass(frozen=True, eq=False)
class PlaneHesse:
    """Plane {x : n.x = d} in Hesse normal form, canonicalized to d >= 0."""

    n: np.ndarray
    d: float

    def __post_init__(self):
        n = _unit_vector(self.n, "normal")
        d = float(self.d)
        if not np.isfinite(d):
            raise ValueError("offset d must be finite")
        object.__setattr__(self, "n", _readonly(-n if _flips(n[None], d)[0] else n))
        object.__setattr__(self, "d", -d if d < 0.0 else d)


def orthogonal_displacement(A, b) -> np.ndarray:
    """Component of b orthogonal to span(A), for orthonormal A."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != 3:
        raise ValueError(f"A must be 3xk, got {A.shape}")
    k = A.shape[1]
    if np.max(np.abs(A.T @ A - np.eye(k))) > ORTHONORMAL_TOL:
        raise ValueError("basis is not orthonormal")
    b = _as_float_array(b, (3,), "b")
    return b - A @ (A.T @ b)


def stiefel_coordinates(el: GraffElement, rho: float) -> np.ndarray:
    """Orthonormal 4x(k+1) frame of the element embedded in R^4.

    The displacement is scaled by 1/rho before embedding, which controls
    how strongly Euclidean separation registers in the principal angles.
    """
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho}")
    s = el.b0 / rho
    eta = np.sqrt(1.0 + float(s @ s))
    Y = np.zeros((4, el.k + 1))
    Y[:3, : el.k] = el.A
    Y[:3, el.k] = s / eta
    Y[3, el.k] = 1.0 / eta
    return Y


def principal_angles(Y1: np.ndarray, Y2: np.ndarray) -> np.ndarray:
    """Principal angles (ascending, radians) between two orthonormal frames.

    Angles below pi/4 come from their sines, the singular values of
    Y2 - Y1 Y1'Y2 with Y2 the frame of fewer columns, and the rest from
    their cosines, the singular values of Y1'Y2.  Each is read where its
    inverse is well conditioned, so equal subspaces give 0, not the ~1.5e-8
    floor of arccos near 1.  Both are clamped to [0, 1] first.
    """
    Y1 = np.asarray(Y1, dtype=float)
    Y2 = np.asarray(Y2, dtype=float)
    if Y1.shape[0] != Y2.shape[0]:
        raise ValueError(f"row counts differ: {Y1.shape[0]} vs {Y2.shape[0]}")
    if Y1.shape[1] < Y2.shape[1]:
        Y1, Y2 = Y2, Y1
    C = Y1.T @ Y2
    cos = np.clip(np.linalg.svd(C, compute_uv=False), 0.0, 1.0)
    sin = np.clip(np.linalg.svd(Y2 - Y1 @ C, compute_uv=False)[::-1], 0.0, 1.0)
    return np.where(sin < cos, np.arcsin(sin), np.arccos(cos))


def graff_distance(el1: GraffElement, el2: GraffElement, rho: float) -> float:
    """Geodesic-style distance between two affine subspaces of any dimensions.

    Equal to the 2-norm of the min(k1, k2)+1 principal angles between the
    embedded subspaces.  A true metric for fixed rho, but sensitive to where
    the pair sits relative to the origin; see :func:`shifted_graff_distance`.
    """
    th = principal_angles(stiefel_coordinates(el1, rho), stiefel_coordinates(el2, rho))
    return float(np.sqrt(th @ th))


# Singular values below this are treated as zero when ranking the joint
# direction span; pairs closer to parallel than ~1e-8 rad share a span.
_SPAN_RANK_TOL = 1e-8


def subspace_gap(el1: GraffElement, el2: GraffElement) -> float:
    """Minimal Euclidean distance between the two affine subspaces (meters).

    This is the component of the relative displacement orthogonal to the
    joint direction span; it vanishes whenever the subspaces intersect.
    """
    joint = np.hstack([el1.A, el2.A])
    U, s, _ = np.linalg.svd(joint, full_matrices=True)
    delta = el2.b0 - el1.b0
    r = delta.copy()
    for col in range(min(3, joint.shape[1])):
        if s[col] > _SPAN_RANK_TOL:
            u = U[:, col]
            r -= u * float(u @ delta)
    return float(np.linalg.norm(r))


def shifted_principal_angles(el1: GraffElement, el2: GraffElement, rho: float) -> np.ndarray:
    """Principal angles of the pair shifted so el1 passes through the origin.

    The shift point on el1 is its closest point to el2, the unique choice
    (up to directions that do not matter) that makes the result independent
    of where the pair sits in the world frame.  With it the embedded frames
    block-diagonalize: the angles are those between the direction subspaces
    plus one extra angle atan(gap / rho) carrying the Euclidean separation.
    """
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho}")
    th_dir = principal_angles(el1.A, el2.A)
    th_aff = np.arctan(subspace_gap(el1, el2) / rho)
    return np.sort(np.append(th_dir, th_aff))


def shifted_graff_distance(el1: GraffElement, el2: GraffElement, rho: float) -> float:
    """Distance after shifting the pair so el1 passes through the origin.

    The shift removes all dependence on a common rigid motion of the pair
    while keeping the dependence on their relative pose, so the value is
    exactly invariant under applying the same transform to both elements,
    and symmetric in its arguments.
    """
    th = shifted_principal_angles(el1, el2, rho)
    return float(np.sqrt(th @ th))


def grassmann_distance(el1: GraffElement, el2: GraffElement) -> float:
    """Distance between the direction subspaces only (offsets ignored)."""
    th = principal_angles(el1.A, el2.A)
    return float(np.sqrt(th @ th))


def _unit_rows(v: np.ndarray) -> np.ndarray:
    # a 1x3 @ 3x1 product sums like the norm of one vector does, so each row
    # is bit-identical to normalizing it alone
    return v / np.sqrt(v[:, None, :] @ v[:, :, None])[:, 0]


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product over the last axis (broadcasting) in np.cross's arithmetic,
    without its per-call setup."""
    return a[..., [1, 2, 0]] * b[..., [2, 0, 1]] - a[..., [2, 0, 1]] * b[..., [1, 2, 0]]


def _frames(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Canonical bases and displacements from near-orthonormal bases A (n x 3 x k)
    and points b (n x 3): QR keeps column directions, b0 drops b's part in span(A)."""
    q, r = np.linalg.qr(A)
    q = q * np.sign(r.diagonal(0, 1, 2))[:, None, :]
    return q, b - (q @ (q.transpose(0, 2, 1) @ b[:, :, None]))[:, :, 0]


def _stacked_frames(k: int, v: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`_frames` of n lines (k = 1: unit directions v, points x) or n planes (k = 2:
    unit normals v, offsets x) with `_flips`'s sign rule, each row bit-identical
    to from_pd or from_hesse on the object alone."""
    if k == 1:
        return _frames(v[:, :, None], x)
    n, d = np.where(_flips(v, x)[:, None], -v, v), np.where(x < 0.0, -x, x)
    helper = np.zeros(n.shape)
    helper[np.arange(len(n)), np.argmin(np.abs(n), axis=1)] = 1.0
    u = _unit_rows(_cross(n, helper))
    return _frames(np.stack([u, _cross(n, u)], axis=2), d[:, None] * n)


def _frame_reps(A: np.ndarray) -> np.ndarray:
    """One vector per basis of A (n x 3 x k): a line's direction, a plane's unit normal."""
    return A[:, :, 0] if A.shape[2] == 1 else _unit_rows(_cross(A[:, :, 0], A[:, :, 1]))


def _rep_frames(k: int, rep: np.ndarray) -> np.ndarray:
    """Bases (n x 3 x k) from `_frame_reps`: a line's direction, or the in-plane basis
    from_hesse gives a plane with normal rep at a positive offset, which keeps rep's
    sign (a gauge every distance is invariant to; scene centroids are offset along it)."""
    return rep[:, :, None] if k == 1 else _stacked_frames(2, rep, np.ones(len(rep)))[0]


def _element(frames: tuple[np.ndarray, np.ndarray]) -> GraffElement:
    return GraffElement(frames[0][0], frames[1][0])


def from_pd(line: LinePD) -> GraffElement:
    return _element(_stacked_frames(1, line.a[None], line.p[None]))


def to_pd(el: GraffElement) -> LinePD:
    if el.k != 1:
        raise ValueError(f"element has dimension {el.k}, expected a line")
    return LinePD(el.A[:, 0], el.b0)


def from_hesse(plane: PlaneHesse) -> GraffElement:
    """Plane to affine element, using an arbitrary orthonormal in-plane basis.

    The basis choice is a gauge: all distances are invariant to it.
    """
    return _element(_stacked_frames(2, plane.n[None], np.array([plane.d])))


def to_hesse(el: GraffElement) -> PlaneHesse:
    if el.k != 2:
        raise ValueError(f"element has dimension {el.k}, expected a plane")
    n = np.cross(el.A[:, 0], el.A[:, 1])
    n /= np.linalg.norm(n)
    d = float(np.linalg.norm(el.b0))
    if d > 0.0 and float(n @ el.b0) < 0.0:
        n = -n
    return PlaneHesse(n, d)


def transform_line(line: LinePD, T: RigidTransform) -> LinePD:
    """Rigidly move a line; the returned point is the orthogonal displacement."""
    a = T.R @ line.a
    p = T.R @ line.p + T.t
    return LinePD(a, p - a * float(a @ p))


def transform_plane(plane: PlaneHesse, T: RigidTransform) -> PlaneHesse:
    """Rigidly move a plane: n' = R n, d' = d + n'.t (then re-canonicalized)."""
    n = T.R @ plane.n
    return PlaneHesse(n, plane.d + float(n @ T.t))
