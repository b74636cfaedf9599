"""Closed-form rigid registration of matched lines and planes.

Rotation comes first, from an SVD of the cross-covariance of matched
directions and normals; translation then solves a stacked linear
least-squares system built from plane offsets and point-to-line residuals.
Directions and normals carry a sign ambiguity that is resolved by seeding
candidate rotations from the two least-parallel matches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graff_core import LinePD, RigidTransform, orthogonal_displacement
# Unused here: kept so perfbench/tracing.py can still count calls under this name.
from .graff_core import from_pd  # noqa: F401

__all__ = [
    "MatchSet",
    "AlignmentError",
    "VerifyThresholds",
    "InsufficientMatchesError",
    "DegenerateConfigurationError",
    "estimate_transform",
    "alignment_error",
    "verify",
    "rotation_to_quaternion",
]

MIN_MATCHES = 3

# Rotation is underdetermined when the direction/normal cross-covariance is
# (numerically) rank deficient; same idea for the translation system.
_RANK_RTOL = 1e-9


class InsufficientMatchesError(ValueError):
    """Fewer matches than the minimum needed to attempt an estimate."""


class DegenerateConfigurationError(ValueError):
    """Matches exist but do not pin down all six degrees of freedom."""


class MatchSet:
    """Matched (source, target) lines and planes, stacked one row per match.

    Each side of a row is the object's representative vector (a line's
    direction, a plane's unit normal) and its orthogonal displacement b0.
    Plane offsets are read as the signed d = n . b0, so a normal of either
    sign describes the same plane.  Build from `LinePD`/`PlaneHesse` pairs,
    lines first, or from arrays with :meth:`stacked`.
    """

    def __init__(self, line_pairs=(), plane_pairs=()):
        lines = [(s.a, _line_b0(s), t.a, _line_b0(t)) for s, t in line_pairs]
        planes = [(s.n, s.d * s.n, t.n, t.d * t.n) for s, t in plane_pairs]
        self.is_line = np.arange(len(lines) + len(planes)) < len(lines)
        stacked = np.array(lines + planes, dtype=float).reshape(-1, 4, 3).transpose(1, 0, 2)
        self.src_rep, self.src_b0, self.tgt_rep, self.tgt_b0 = stacked

    @classmethod
    def stacked(cls, is_line, src_rep, src_b0, tgt_rep, tgt_b0) -> "MatchSet":
        """Match set from per-row arrays: a bool line mask and four n x 3 arrays."""
        matches = cls()
        matches.is_line = np.asarray(is_line, dtype=bool)
        matches.src_rep, matches.src_b0, matches.tgt_rep, matches.tgt_b0 = src_rep, src_b0, tgt_rep, tgt_b0
        return matches

    def __len__(self) -> int:
        return len(self.is_line)


def _line_b0(line: LinePD) -> np.ndarray:
    return orthogonal_displacement(line.a[:, None], line.p)


@dataclass(frozen=True)
class AlignmentError:
    rot_deg: float
    trans_m: float


@dataclass(frozen=True)
class VerifyThresholds:
    max_rot_deg: float = 5.0
    max_trans_m: float = 1.0


def _kabsch(H: np.ndarray) -> np.ndarray:
    """Rotation maximizing tr(R H) for H = sum of source x target outer products."""
    U, _, Vt = np.linalg.svd(H)
    V = Vt.T
    D = np.diag([1.0, 1.0, float(np.sign(np.linalg.det(V @ U.T)) or 1.0)])
    return V @ D @ U.T


def estimate_transform(matches: MatchSet) -> RigidTransform:
    """Estimate the rigid transform mapping source objects onto targets.

    Raises InsufficientMatchesError below 3 matches and
    DegenerateConfigurationError when rotation or translation is not fully
    constrained (e.g. all planes parallel).
    """
    n_total = len(matches)
    if n_total < MIN_MATCHES:
        raise InsufficientMatchesError(f"need at least {MIN_MATCHES} matches, got {n_total}")
    R, signs = _resolve_rotation(matches.src_rep, matches.tgt_rep)

    line, plane = matches.is_line, ~matches.is_line
    # A line only constrains translation across its direction.
    a = matches.tgt_rep[line]
    proj = np.eye(3) - a[:, :, None] * a[:, None, :]
    line_rhs = np.einsum("nab,nb->na", proj, matches.tgt_b0[line] - matches.src_b0[line] @ R.T)
    # A plane moves its offset by n.t along the sign-aligned target normal.
    n = signs[plane, None] * matches.tgt_rep[plane]
    plane_rhs = np.einsum("na,na->n", n, matches.tgt_b0[plane]) - np.einsum(
        "na,na->n", matches.src_rep[plane], matches.src_b0[plane]
    )

    A = np.concatenate([proj.reshape(-1, 3), n])
    b = np.concatenate([line_rhs.reshape(-1), plane_rhs])
    sv = np.linalg.svd(A, compute_uv=False)
    if sv.size < 3 or sv[2] <= _RANK_RTOL * sv[0]:
        raise DegenerateConfigurationError("translation is not fully constrained by these matches")
    t, *_ = np.linalg.lstsq(A, b, rcond=None)
    return RigidTransform(R, t)


def _resolve_rotation(X: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best rotation given per-match sign ambiguity of directions/normals.

    Seeds: the two least-parallel source vectors.  For each of the four sign
    hypotheses on the seeds, remaining signs follow from agreement under the
    seed rotation; the hypothesis with the lowest total residual wins.
    """
    dots = np.abs(X @ X.T)
    np.fill_diagonal(dots, np.inf)
    i, j = np.unravel_index(int(np.argmin(dots)), dots.shape)
    if i > j:
        i, j = j, i

    best = None
    for s1 in (1.0, -1.0):
        for s2 in (1.0, -1.0):
            H_seed = np.outer(X[i], s1 * Y[i]) + np.outer(X[j], s2 * Y[j])
            R_seed = _kabsch(H_seed)
            agreement = np.einsum("na,na->n", Y, X @ R_seed.T)
            signs = np.where(agreement >= 0.0, 1.0, -1.0)
            signs[i], signs[j] = s1, s2
            H = X.T @ (Y * signs[:, None])
            R = _kabsch(H)
            residual = float(np.sum(2.0 - 2.0 * signs * np.einsum("na,na->n", Y, X @ R.T)))
            if best is None or residual < best[0] - 1e-15:
                best = (residual, R, signs, H)
    _, R, signs, H = best
    sv = np.linalg.svd(H, compute_uv=False)
    if sv[1] <= _RANK_RTOL * max(sv[0], 1e-300):
        raise DegenerateConfigurationError("rotation is not fully constrained: directions are all parallel")
    return R, signs


def alignment_error(estimate: RigidTransform, truth: RigidTransform) -> AlignmentError:
    """Geodesic rotation error (degrees) and Euclidean translation error (m)."""
    cos_angle = (float(np.trace(truth.R.T @ estimate.R)) - 1.0) / 2.0
    rot = float(np.degrees(np.arccos(np.clip(cos_angle, -1.0, 1.0))))
    trans = float(np.linalg.norm(estimate.t - truth.t))
    return AlignmentError(rot, trans)


def verify(
    estimate: RigidTransform,
    truth: RigidTransform,
    thresholds: VerifyThresholds = VerifyThresholds(),
) -> bool:
    """Accept the estimate iff both errors are strictly inside the thresholds."""
    err = alignment_error(estimate, truth)
    return err.rot_deg < thresholds.max_rot_deg and err.trans_m < thresholds.max_trans_m


def rotation_to_quaternion(R: np.ndarray) -> np.ndarray:
    """Unit quaternion (w, x, y, z) for a rotation matrix, scalar part >= 0."""
    R = np.asarray(R, dtype=float)
    t = float(np.trace(R))
    if t > 0.0:
        s = np.sqrt(t + 1.0) * 2.0
        q = np.array([0.25 * s, (R[2, 1] - R[1, 2]) / s, (R[0, 2] - R[2, 0]) / s, (R[1, 0] - R[0, 1]) / s])
    else:
        i = int(np.argmax(np.diag(R)))
        if i == 0:
            s = np.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2]) * 2.0
            q = np.array([(R[2, 1] - R[1, 2]) / s, 0.25 * s, (R[0, 1] + R[1, 0]) / s, (R[0, 2] + R[2, 0]) / s])
        elif i == 1:
            s = np.sqrt(1.0 + R[1, 1] - R[0, 0] - R[2, 2]) * 2.0
            q = np.array([(R[0, 2] - R[2, 0]) / s, (R[0, 1] + R[1, 0]) / s, 0.25 * s, (R[1, 2] + R[2, 1]) / s])
        else:
            s = np.sqrt(1.0 + R[2, 2] - R[0, 0] - R[1, 1]) * 2.0
            q = np.array([(R[1, 0] - R[0, 1]) / s, (R[0, 2] + R[2, 0]) / s, (R[1, 2] + R[2, 1]) / s, 0.25 * s])
    q /= np.linalg.norm(q)
    if q[0] < 0.0:
        q = -q
    elif q[0] == 0.0 and q[np.nonzero(q)[0][0]] < 0.0:
        # 180-degree rotations: make the first nonzero component positive.
        q = -q
    return q
