"""Scan-to-scan association pipeline shared by the CLI and the benchmark.

Chains consistency-graph construction, densest-set selection, one-to-one
reduction and closed-form registration.  After the first estimate, matches
violating the self-consistency gates are dropped one at a time (worst
first, re-fitting after each) until the surviving set agrees with its own
transform; a result that cannot reach agreement is reported as failed
rather than trusted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clique_solver import solve_densest
from .consistency import (
    ConsistencyParams,
    DistanceFn,
    Scan,
    build_affinity,
    unique_matches,
)
from .graff_core import RigidTransform
# Unused here: kept so perfbench/tracing.py can still count calls under these names.
from .graff_core import to_hesse, to_pd, transform_line, transform_plane  # noqa: F401
from .registration import (
    DegenerateConfigurationError,
    InsufficientMatchesError,
    MatchSet,
    estimate_transform,
)

__all__ = [
    "Association",
    "associate_scans",
    "match_residuals",
    "MAX_ANGLE_RESIDUAL_RAD",
    "MAX_OFFSET_RESIDUAL_M",
]

# Self-consistency gates: a match disagreeing with the estimated transform
# by more than these is not an inlier (half the usual verification budget).
MAX_ANGLE_RESIDUAL_RAD = float(np.radians(2.0))
MAX_OFFSET_RESIDUAL_M = 0.5


@dataclass(frozen=True)
class Association:
    """Outcome of matching two scans; `transform` is None when it failed."""

    n_candidates: int
    matches: tuple[tuple[int, int], ...]
    objective: float
    transform: RigidTransform | None
    max_angle_residual_rad: float | None
    max_offset_residual_m: float | None
    failure: str | None


def _match_set(scan_i: Scan, scan_j: Scan, pairs) -> MatchSet:
    a, b = np.array(pairs).T
    return MatchSet.stacked(scan_i.kinds[a] == 1, scan_i.rep[a], scan_i.b0[a], scan_j.rep[b], scan_j.b0[b])


def match_residuals(matches: MatchSet, transform: RigidTransform):
    """Per-match alignment residuals under a transform: (angles rad, offsets m).

    Lines: angle between transformed and target directions (sign-free) and
    the perpendicular distance between the two lines.  Planes: angle between
    normals and the offset difference after sign alignment.
    """
    rep = matches.src_rep @ transform.R.T
    dot = np.einsum("na,na->n", rep, matches.tgt_rep)
    # arctan2 stays accurate near 0, where arccos(|dot|) floors at ~1.5e-8 rad.
    angles = np.arctan2(np.linalg.norm(np.cross(rep, matches.tgt_rep), axis=1), np.abs(dot))
    # Line offsets: foot point of the moved line, measured across the target.
    p = matches.src_b0 @ transform.R.T + transform.t
    p -= rep * np.einsum("na,na->n", rep, p)[:, None]
    r = p - matches.tgt_b0
    r -= matches.tgt_rep * np.einsum("na,na->n", matches.tgt_rep, r)[:, None]
    line_offsets = np.sqrt(np.einsum("na,na->n", r, r))
    # Plane offsets are signed (d = n . b0); the moved one gains n'.t.
    d_moved = np.einsum("na,na->n", matches.src_rep, matches.src_b0) + rep @ transform.t
    d_target = np.einsum("na,na->n", matches.tgt_rep, matches.tgt_b0)
    plane_offsets = np.abs(d_moved - np.where(dot >= 0, 1.0, -1.0) * d_target)
    return angles, np.where(matches.is_line, line_offsets, plane_offsets)


def associate_scans(
    scan_i: Scan,
    scan_j: Scan,
    params: ConsistencyParams = ConsistencyParams(),
    distance_fn: DistanceFn = DistanceFn.GRAFF_SHIFTED,
) -> Association:
    M, candidates = build_affinity(scan_i, scan_j, params, distance_fn)
    # Correspondence selection favors purity over raw density; see solve_densest.
    selection = solve_densest(M, rounding="mass_capped")
    chosen = tuple(
        (c.a, c.b) for c in unique_matches(candidates, selection.indices, selection.u)
    )

    def failed(reason: str) -> Association:
        return Association(len(candidates), chosen, selection.objective, None, None, None, reason)

    if len(chosen) < 3:
        return failed(f"only {len(chosen)} correspondences found, need at least 3")
    # Fit, then drop the single worst residual violator and re-fit until the
    # set is self-consistent; one bad match can bias the first estimate enough
    # to make good matches look bad, so removals are one at a time.
    while True:
        matches = _match_set(scan_i, scan_j, chosen)
        try:
            transform = estimate_transform(matches)
        except (InsufficientMatchesError, DegenerateConfigurationError) as exc:
            return failed(str(exc))
        angles, offsets = match_residuals(matches, transform)
        violation = np.maximum(angles / MAX_ANGLE_RESIDUAL_RAD, offsets / MAX_OFFSET_RESIDUAL_M)
        worst = int(np.argmax(violation))
        if violation[worst] <= 1.0:
            break
        if len(chosen) - 1 < 3:
            return failed("matches are mutually inconsistent under the estimated transform")
        chosen = chosen[:worst] + chosen[worst + 1 :]
    return Association(
        len(candidates), chosen, selection.objective, transform, float(angles.max()), float(offsets.max()), None
    )
