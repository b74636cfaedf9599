"""Candidate correspondences and the weighted consistency graph.

Vertices of the graph are candidate matches (object a in scan i, object b in
scan j, same dimension).  Two candidates are consistent when the invariant
distance between their objects inside scan i agrees with the distance between
the matched objects inside scan j; agreement is gated at epsilon and scored
with a Gaussian kernel of width sigma.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import product
from typing import NamedTuple, Sequence

import numpy as np

from .graff_core import _SPAN_RANK_TOL, GraffElement, shifted_graff_distance

__all__ = [
    "Scan",
    "Candidate",
    "ConsistencyParams",
    "DistanceFn",
    "generate_candidates",
    "consistency_score",
    "weight",
    "build_affinity",
    "internal_distance_matrix",
    "unique_matches",
]


class DistanceFn(str, Enum):
    """Distance used for internal object pairs when scoring consistency."""

    GRAFF_SHIFTED = "graff_shifted"
    GR_ONLY = "gr_only"
    EUCLIDEAN_CENTROID = "euclidean_centroid"
    GR_TIMES_EUCLIDEAN = "gr_times_euclidean"
    NORMAL_DOT_DIRECTION = "normal_dot_direction"


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Scan:
    """Ordered collection of landmark objects, optionally with centroids.

    Centroid metadata is only needed by the centroid-based distance
    functions; geometry-only pipelines can leave it out.

    The geometry is also stacked once, at construction, into the arrays the
    matcher reads: `kinds` (subspace dimension per object), `groups` (per
    dimension present, lines first: the object indices and their stacked
    bases), `b0` (orthogonal displacements), `rep` (a line's direction, a
    plane's unit normal) and `centroids` as an n x 3 array.
    """

    id: str
    objects: tuple[GraffElement, ...]
    centroids: np.ndarray | None = None
    kinds: np.ndarray = field(init=False, repr=False)
    groups: tuple[tuple[np.ndarray, np.ndarray], ...] = field(init=False, repr=False)
    b0: np.ndarray = field(init=False, repr=False)
    rep: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        objects = tuple(self.objects)
        n = len(objects)
        if self.centroids is not None:
            cents = np.array(self.centroids, dtype=float).reshape(len(self.centroids), 3)
            if len(cents) != n:
                raise ValueError("centroids must align one-to-one with objects")
            object.__setattr__(self, "centroids", _frozen(cents))
        kinds = np.array([el.k for el in objects], dtype=int)
        groups = []
        for k in (1, 2):
            idx = np.flatnonzero(kinds == k)
            if idx.size:
                groups.append((_frozen(idx), _frozen(np.stack([objects[i].A for i in idx]))))
        rep = np.zeros((n, 3))
        for idx, A in groups:
            if A.shape[2] == 1:
                rep[idx] = A[:, :, 0]
            else:
                normal = np.cross(A[:, :, 0], A[:, :, 1])
                # a 1x3 @ 3x1 product sums like the norm of one vector does,
                # so each normal is bit-identical to normalizing it alone
                rep[idx] = normal / np.sqrt(normal[:, None, :] @ normal[:, :, None])[:, 0]
        object.__setattr__(self, "objects", objects)
        object.__setattr__(self, "kinds", _frozen(kinds))
        object.__setattr__(self, "groups", tuple(groups))
        object.__setattr__(self, "b0", _frozen(np.array([el.b0 for el in objects], dtype=float).reshape(n, 3)))
        object.__setattr__(self, "rep", _frozen(rep))

    def __len__(self) -> int:
        return len(self.objects)


class Candidate(NamedTuple):
    a: int  # index into scan i
    b: int  # index into scan j


@dataclass(frozen=True)
class ConsistencyParams:
    epsilon: float = 0.2  # gate threshold, radians
    sigma: float = 0.02   # kernel width, radians
    rho: float = 40.0     # displacement scaling, meters

    def __post_init__(self):
        if self.epsilon <= 0 or self.sigma <= 0 or self.rho <= 0:
            raise ValueError("epsilon, sigma and rho must all be positive")


def generate_candidates(scan_i: Scan, scan_j: Scan) -> list[Candidate]:
    """All same-dimension object pairings, in lexicographic (a, b) order."""
    a_idx, b_idx = np.nonzero(scan_i.kinds[:, None] == scan_j.kinds[None, :])
    return [Candidate(a, b) for a, b in zip(a_idx.tolist(), b_idx.tolist())]


def weight(c: float, params: ConsistencyParams) -> float:
    """Kernel score in [0, 1]; scores at or beyond the gate are exactly zero."""
    if c < 0:
        raise ValueError("consistency score must be nonnegative")
    if c >= params.epsilon:
        return 0.0
    return float(np.exp(-(c * c) / (2.0 * params.sigma * params.sigma)))


def consistency_score(
    u1: Candidate,
    u2: Candidate,
    scan_i: Scan,
    scan_j: Scan,
    params: ConsistencyParams,
) -> float:
    """|d(i_a1, i_a2) - d(j_b1, j_b2)| with u1's objects as first arguments."""
    di = shifted_graff_distance(scan_i.objects[u1.a], scan_i.objects[u2.a], params.rho)
    dj = shifted_graff_distance(scan_j.objects[u1.b], scan_j.objects[u2.b], params.rho)
    return abs(di - dj)


def unique_matches(
    candidates: Sequence[Candidate],
    indices: Sequence[int],
    scores: np.ndarray,
) -> tuple[Candidate, ...]:
    """Reduce a selected candidate set to a one-to-one correspondence set.

    A landmark cannot match two different landmarks, but a dense consistent
    set may contain such duplicates when two objects are near-congruent.
    Candidates are kept in decreasing score order (ties by index), skipping
    any whose endpoint on either side is already taken.
    """
    order = sorted(indices, key=lambda k: (-float(scores[k]), k))
    used_a: set[int] = set()
    used_b: set[int] = set()
    kept: list[Candidate] = []
    for k in order:
        cand = candidates[k]
        if cand.a in used_a or cand.b in used_b:
            continue
        kept.append(cand)
        used_a.add(cand.a)
        used_b.add(cand.b)
    return tuple(sorted(kept))


def _direction_angle_sq(scan: Scan) -> np.ndarray:
    """Sum of squared principal angles between the direction subspaces of
    every object pair, batched per pair of dimensions so the small SVDs run
    vectorized.  The direction part of both Grassmannian distances."""
    D = np.zeros((len(scan), len(scan)))
    for (idx_x, Ax), (idx_y, Ay) in product(scan.groups, repeat=2):
        sigma = np.linalg.svd(np.einsum("xak,yal->xykl", Ax, Ay), compute_uv=False)
        D[np.ix_(idx_x, idx_y)] = np.sum(np.arccos(np.clip(sigma, 0.0, 1.0)) ** 2, axis=2)
    return D


def internal_distance_matrix(scan: Scan, rho: float) -> np.ndarray:
    """All pairwise shifted distances within one scan, as an n x n array.

    This is the cache that turns the O(m^2) affinity construction into
    O(n^2) distance evaluations.
    """
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    gap = np.zeros((len(scan), len(scan)))
    for (idx_x, Ax), (idx_y, Ay) in product(scan.groups, repeat=2):
        # minimal separation: displacement outside the joint span
        nx, kx = len(idx_x), Ax.shape[2]
        ny, ky = len(idx_y), Ay.shape[2]
        joint = np.concatenate(
            [np.broadcast_to(Ax[:, None], (nx, ny, 3, kx)), np.broadcast_to(Ay[None, :], (nx, ny, 3, ky))],
            axis=3,
        )
        U, s, _ = np.linalg.svd(joint, full_matrices=True)
        delta = scan.b0[idx_y][None, :, :] - scan.b0[idx_x][:, None, :]
        coeff = np.einsum("xyac,xya->xyc", U, delta)
        keep = np.zeros((nx, ny, 3))
        keep[..., : s.shape[2]] = s > _SPAN_RANK_TOL
        r = delta - np.einsum("xyac,xyc->xya", U, coeff * keep)
        gap[np.ix_(idx_x, idx_y)] = np.sqrt(np.sum(r * r, axis=2))
    th_aff = np.arctan(gap / rho)
    D = np.sqrt(_direction_angle_sq(scan) + th_aff * th_aff)
    np.fill_diagonal(D, 0.0)
    return D


def _gr_distance_matrix(scan: Scan) -> np.ndarray:
    D = np.sqrt(_direction_angle_sq(scan))
    np.fill_diagonal(D, 0.0)
    return D


def _rep_vector_angle_matrix(scan: Scan) -> np.ndarray:
    """Angle between single representative vectors: a line's direction, a
    plane's normal.  The naive direction/normal dot-product baseline."""
    D = np.arccos(np.clip(np.abs(scan.rep @ scan.rep.T), 0.0, 1.0))
    np.fill_diagonal(D, 0.0)
    return D


def _centroid_distance_matrix(scan: Scan) -> np.ndarray:
    if scan.centroids is None:
        raise ValueError(f"scan {scan.id!r} lacks centroid metadata required by this distance function")
    diff = scan.centroids[:, None, :] - scan.centroids[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=2))


def _candidate_grid(D_i: np.ndarray, D_j: np.ndarray, a_idx: np.ndarray, b_idx: np.ndarray) -> np.ndarray:
    """Consistency scores for every candidate pair.

    The internal distances are symmetric; the elementwise max merely pins
    floating-point symmetry so the affinity matrix is exactly symmetric.
    """
    Ci = D_i[np.ix_(a_idx, a_idx)]
    Cj = D_j[np.ix_(b_idx, b_idx)]
    C = np.abs(Ci - Cj)
    return np.maximum(C, C.T)


def build_affinity(
    scan_i: Scan,
    scan_j: Scan,
    params: ConsistencyParams,
    distance_fn: DistanceFn = DistanceFn.GRAFF_SHIFTED,
    max_candidates: int | None = None,
) -> tuple[np.ndarray, list[Candidate]]:
    """Affinity matrix over all candidates plus the aligned candidate list.

    `max_candidates` is a guard for very large scan pairs: the full bipartite
    same-dimension candidate set is always used, and exceeding the cap raises
    instead of silently truncating it.
    """
    distance_fn = DistanceFn(distance_fn)
    candidates = generate_candidates(scan_i, scan_j)
    m = len(candidates)
    if max_candidates is not None and m > max_candidates:
        raise ValueError(f"candidate set of size {m} exceeds the cap of {max_candidates}")
    if m == 0:
        return np.zeros((0, 0)), candidates
    a_idx, b_idx = np.array(candidates).T

    if distance_fn is DistanceFn.GR_TIMES_EUCLIDEAN:
        # Product of an angular and a radial kernel, each with its own gate;
        # the radial scale is expressed in radians via the rho scaling.
        C_th = _candidate_grid(_gr_distance_matrix(scan_i), _gr_distance_matrix(scan_j), a_idx, b_idx)
        C_r = _candidate_grid(
            _centroid_distance_matrix(scan_i) / params.rho,
            _centroid_distance_matrix(scan_j) / params.rho,
            a_idx,
            b_idx,
        )
        s2 = params.sigma * params.sigma
        M = np.exp(-(C_r * C_r) / s2) * np.exp(-(C_th * C_th) / s2)
        M[(C_th >= params.epsilon) | (C_r >= params.epsilon)] = 0.0
    else:
        if distance_fn is DistanceFn.GRAFF_SHIFTED:
            D_i = internal_distance_matrix(scan_i, params.rho)
            D_j = internal_distance_matrix(scan_j, params.rho)
        elif distance_fn is DistanceFn.GR_ONLY:
            D_i = _gr_distance_matrix(scan_i)
            D_j = _gr_distance_matrix(scan_j)
        elif distance_fn is DistanceFn.NORMAL_DOT_DIRECTION:
            D_i = _rep_vector_angle_matrix(scan_i)
            D_j = _rep_vector_angle_matrix(scan_j)
        else:
            D_i = _centroid_distance_matrix(scan_i) / params.rho
            D_j = _centroid_distance_matrix(scan_j) / params.rho
        C = _candidate_grid(D_i, D_j, a_idx, b_idx)
        M = np.exp(-(C * C) / (2.0 * params.sigma * params.sigma))
        M[C >= params.epsilon] = 0.0

    np.fill_diagonal(M, 1.0)
    return M, candidates
