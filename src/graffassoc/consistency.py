"""Candidate correspondences and the weighted consistency graph.

Vertices of the graph are candidate matches (object a in scan i, object b in
scan j, same dimension).  Two candidates are consistent when the invariant
distance between their objects inside scan i agrees with the distance between
the matched objects inside scan j; agreement is gated at epsilon and scored
with a Gaussian kernel of width sigma.  Every distance function builds its
m x m affinity through one blockwise kernel, `_blockwise_affinity`, which
holds no m x m temporary besides the affinity itself.  Every entry is finite
and in [0, 1] for any accepted `ConsistencyParams`: a score that overflows to
inf or NaN gates to 0.

A `Scan` stores each object once, as rows of `kinds`, `b0` and one direction
or normal r (`Scan.rep`), so `_pair_geometry` needs no SVD.  The direction
angle is arctan2(|r x r'|, |r . r'|) for two lines or two planes and
arcsin|d . n| for a line and a plane.  The minimal separation, the part of
delta = b0' - b0 outside the joint direction span, is |delta . (d x d')| /
|d x d'| for two lines that are not parallel, the part of delta off d for
parallel lines, |delta . n| for a plane parallel to the other object, and 0
for pairs that meet.  Parallel means sin(angle) <= sqrt(2) * 1e-8 (see
`_PARALLEL_SIN`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .graff_core import _SPAN_RANK_TOL, GraffElement, _cross, _frame_reps, _rep_frames, shifted_graff_distance

_AFFINITY_ROWS = 64  # affinity temporaries stay _AFFINITY_ROWS x m, not m x m

# graff_core.subspace_gap drops singular values <= 1e-8 of the joint basis.  A
# pair t from parallel has smallest singular value sqrt(2) sin(t / 2) ~ t / sqrt(2)
# (two lines, two planes, or a line and a plane), so the same decision on
# sin t = |r x r'| (|d . n| for a line and a plane) is sin t <= sqrt(2) * 1e-8.
_PARALLEL_SIN = math.sqrt(2.0) * _SPAN_RANK_TOL

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


def _frozen_rows(value, name: str, n: int) -> np.ndarray:
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError):  # ragged or not numbers
        arr = np.zeros(0)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError(f"{name} must be rows of 3 numbers (n x 3)")
    if len(arr) != n:
        raise ValueError(f"{name} has {len(arr)} rows for {n} objects")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    arr.setflags(write=False)
    return arr


def _scan_rows(kinds: np.ndarray, frames_of) -> tuple[np.ndarray, np.ndarray, list]:
    """`Scan.rep` and `Scan.b0` rows of objects of the given kinds, plus (idx, A)
    for each kind present, from frames_of(k, idx): the bases A (m x 3 x k) and
    displacements (m x 3) of the objects of kind k at idx."""
    rep, b0, bases = np.zeros((len(kinds), 3)), np.zeros((len(kinds), 3)), []
    for k in (1, 2):
        idx = np.flatnonzero(kinds == k)
        if idx.size:
            A, b0[idx] = frames_of(k, idx)
            rep[idx] = _frame_reps(A)
            bases.append((idx, A))
    return rep, b0, bases


@dataclass(frozen=True, eq=False)
class Scan:
    """Ordered landmark objects as the arrays the matcher reads, checked and
    frozen at construction: `kinds` (1 line, 2 plane), and n x 3 rows `rep` (a
    line's direction, a plane's unit normal), `b0` (orthogonal displacements)
    and optional `centroids`, which only the centroid-based distance
    functions need.
    """

    id: str
    kinds: np.ndarray
    rep: np.ndarray
    b0: np.ndarray
    centroids: np.ndarray | None = None

    def __post_init__(self):
        kinds = np.array(self.kinds)
        if kinds.ndim != 1 or not np.isin(kinds, (1, 2)).all():
            raise ValueError("kinds must be a sequence of 1 (line) or 2 (plane)")
        object.__setattr__(self, "kinds", kinds.astype(int))
        self.kinds.setflags(write=False)
        for name in ("rep", "b0", "centroids")[: 2 if self.centroids is None else 3]:
            object.__setattr__(self, name, _frozen_rows(getattr(self, name), name, len(kinds)))

    @classmethod
    def from_elements(cls, id: str, objects: Sequence[GraffElement], centroids=None) -> "Scan":
        """Scan of GraffElements, stacked into the stored arrays."""
        A, b0 = [el.A for el in objects], [el.b0 for el in objects]
        kinds = np.array([a.shape[1] for a in A], dtype=int)
        rep, b0, _ = _scan_rows(kinds, lambda k, idx: (np.stack([A[i] for i in idx]), [b0[i] for i in idx]))
        return cls(id, kinds, rep, b0, None if centroids is None else np.reshape(centroids, (len(centroids), 3)))

    @functools.cached_property
    def objects(self) -> tuple[GraffElement, ...]:
        """The objects as GraffElements (bases from `rep` by `_rep_frames`), built on first read."""
        objects = [None] * len(self)
        for k in (1, 2):
            idx = np.flatnonzero(self.kinds == k)
            for i, A in zip(idx, _rep_frames(k, self.rep[idx])):
                objects[i] = GraffElement(A, self.b0[i])
        return tuple(objects)

    def __len__(self) -> int:
        return len(self.kinds)


class Candidate(NamedTuple):
    a: int  # index into scan i
    b: int  # index into scan j


_new_candidate = functools.partial(tuple.__new__, Candidate)  # Candidate((a, b)) without its Python-level __new__


@dataclass(frozen=True)
class ConsistencyParams:
    epsilon: float = 0.2  # gate threshold, radians
    sigma: float = 0.02   # kernel width, radians
    rho: float = 40.0     # displacement scaling, meters

    def __post_init__(self):
        if not (self.epsilon > 0 and self.sigma > 0 and self.rho > 0):  # NaN fails too
            raise ValueError("epsilon, sigma and rho must all be positive")
        if self.sigma * self.sigma == 0.0:  # the kernels divide by sigma^2, which underflows to 0 below ~2e-162
            raise ValueError(f"sigma must square to a positive float, got {self.sigma!r}")


def _candidate_pairs(scan_i: Scan, scan_j: Scan) -> tuple[np.ndarray, np.ndarray]:
    """Every same-dimension pairing in lexicographic (a, b) order, as the index arrays a and b."""
    return np.nonzero(scan_i.kinds[:, None] == scan_j.kinds[None, :])


def generate_candidates(scan_i: Scan, scan_j: Scan) -> list[Candidate]:
    """All same-dimension object pairings, in lexicographic (a, b) order."""
    return list(map(_new_candidate, zip(*(idx.tolist() for idx in _candidate_pairs(scan_i, scan_j)))))


def weight(c: float, params: ConsistencyParams) -> float:
    """Kernel score in [0, 1]; scores at or beyond the gate are exactly zero."""
    if not c >= 0:  # negated, so NaN is rejected too
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


def _rep_sin_cos(r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cross products r x r' (n x n x 3), |r x r'| and |r . r'| of every pair
    of rows of r; |r x r| is exactly 0."""
    cross = _cross(r[:, None, :], r[None, :, :])
    return cross, np.sqrt(np.einsum("xya,xya->xy", cross, cross)), np.abs(r @ r.T)


def _pair_geometry(scan: Scan) -> tuple[np.ndarray, np.ndarray]:
    """Direction angle and minimal separation of every object pair (n x n
    each, exactly 0 on the diagonal), by the closed forms of the module doc.

    Both are symmetric bitwise: swapping a pair negates delta and r x r'
    exactly, a parallel line-line or plane-plane pair reads the r of its
    lower index, and a line-plane pair the plane's normal.
    """
    r, line, n = scan.rep, scan.kinds == 1, len(scan)
    cross, sin, cos = _rep_sin_cos(r)
    mixed = line[:, None] != line[None, :]
    sin, cos = np.where(mixed, cos, sin), np.where(mixed, sin, cos)
    parallel, lines = sin <= _PARALLEL_SIN, line[:, None] & line[None, :]
    delta = scan.b0[None, :, :] - scan.b0[:, None, :]
    gap = np.zeros((n, n))
    x, y = np.nonzero(lines & parallel)
    gap[x, y] = np.linalg.norm(_cross(delta[x, y], r[np.minimum(x, y)]), axis=1)  # |delta x d|, the part off d
    x, y = np.nonzero(lines != parallel)  # skew lines (normal d x d') or a plane parallel to the other (n)
    skew = line[x] & line[y]
    plane = np.where(line[x, None], r[y], np.where(line[y, None], r[x], r[np.minimum(x, y)]))
    normal = np.where(skew[:, None], cross[x, y], plane)
    gap[x, y] = np.abs(np.einsum("pa,pa->p", delta[x, y], normal)) / np.where(skew, sin[x, y], 1.0)
    return np.arctan2(sin, cos), gap


def internal_distance_matrix(scan: Scan, rho: float) -> np.ndarray:
    """All pairwise shifted distances within one scan, as an n x n array.

    This is the cache that turns the O(m^2) affinity construction into
    O(n^2) distance evaluations.
    """
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho}")
    theta, gap = _pair_geometry(scan)
    with np.errstate(over="ignore"):  # a tiny rho: gap / rho is inf, and arctan(inf) = pi/2 is the limit
        th_aff = np.arctan(gap / rho)
    return np.sqrt(theta * theta + th_aff * th_aff)


def _gr_distance_matrix(scan: Scan) -> np.ndarray:
    return _pair_geometry(scan)[0]


def _rep_vector_angle_matrix(scan: Scan) -> np.ndarray:
    """Angle between single representative vectors: a line's direction, a
    plane's normal (for a line and a plane, the complement of `_pair_geometry`'s
    angle).  The naive direction/normal dot-product baseline."""
    _, sin, cos = _rep_sin_cos(scan.rep)
    return np.arctan2(sin, cos)


def _centroid_distance_matrix(scan: Scan) -> np.ndarray:
    if scan.centroids is None:
        raise ValueError(f"scan {scan.id!r} lacks centroid metadata required by this distance function")
    diff = scan.centroids[:, None, :] - scan.centroids[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=2))


def _blockwise_affinity(terms, a_idx: np.ndarray, b_idx: np.ndarray, epsilon: float) -> np.ndarray:
    """Gated Gaussian affinity over candidates (a_idx[p], b_idx[p]), built in
    row blocks of the upper triangle, each mirrored into the lower one.

    Term (D_i, D_j, denom) gives pair (p, q) the score C = |D_i[a_p, a_q] -
    D_j[b_p, b_q]| and the factor exp(-(C * C) / denom); C >= epsilon in
    any term gates the pair to 0.  Every internal distance matrix is
    symmetric bitwise, so (q, p) would score the same and swapping the scans
    permutes M exactly.  Flooring the exponent at -(epsilon *
    epsilon) / denom moves no ungated entry (rounding is monotone) and keeps
    gated ones off exp's slow underflow path.  A score of inf or NaN (inf -
    inf, from distances that overflow at a tiny rho) fails the gate, and
    `np.fmax` floors its exponent like any other, so every factor is finite.
    """
    m = len(a_idx)
    M = np.empty((m, m))
    for r0 in range(0, m, _AFFINITY_ROWS):
        r1 = min(r0 + _AFFINITY_ROWS, m)
        a_r, b_r, a_c, b_c = a_idx[r0:r1], b_idx[r0:r1], a_idx[r0:], b_idx[r0:]
        block = M[r0:r1, r0:]
        for t, (D_i, D_j, denom) in enumerate(terms):
            C = np.take(D_i[a_r], a_c, axis=1)
            # inf - inf is NaN, and C * C or the quotient may overflow (rho or sigma < ~1e-155): both gate
            with np.errstate(over="ignore", invalid="ignore"):
                C -= np.take(D_j[b_r], b_c, axis=1)
                np.abs(C, out=C)
                keep = C < epsilon if t == 0 else keep & (C < epsilon)
                np.multiply(C, C, out=C)
                np.divide(C, -denom, out=C)  # exactly -(C * C) / denom: negation commutes with rounding
            np.fmax(C, (epsilon * epsilon) / -denom, out=C)  # fmax: NaN floors too
            if t == 0:
                np.exp(C, out=block)
            else:
                block *= np.exp(C, out=C)
        block *= keep  # gated entries become +0.0: every factor is finite and >= 0
        M[r1:, r0:r1] = M[r0:r1, r1:].T
    np.fill_diagonal(M, 1.0)
    return M


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
    distance_fn, (a_idx, b_idx) = DistanceFn(distance_fn), _candidate_pairs(scan_i, scan_j)
    if max_candidates is not None and a_idx.size > max_candidates:
        raise ValueError(f"candidate set of size {a_idx.size} exceeds the cap of {max_candidates}")
    candidates = list(map(_new_candidate, zip(a_idx.tolist(), b_idx.tolist())))
    distances = {
        DistanceFn.GRAFF_SHIFTED: lambda scan: internal_distance_matrix(scan, params.rho),
        DistanceFn.GR_ONLY: _gr_distance_matrix,
        DistanceFn.NORMAL_DOT_DIRECTION: _rep_vector_angle_matrix,
        DistanceFn.EUCLIDEAN_CENTROID: lambda scan: _centroid_distance_matrix(scan) / params.rho,
    }
    if distance_fn is DistanceFn.GR_TIMES_EUCLIDEAN:
        # Product of a radial and an angular kernel, each with its own gate;
        # the radial scale is expressed in radians via the rho scaling.
        s2 = params.sigma * params.sigma
        kernels = [(distances[DistanceFn.EUCLIDEAN_CENTROID], s2), (distances[DistanceFn.GR_ONLY], s2)]
    else:
        kernels = [(distances[distance_fn], 2.0 * params.sigma * params.sigma)]
    with np.errstate(over="ignore"):  # a tiny rho: centroid distances / rho overflow to inf, which the kernel gates
        terms = [(D(scan_i), D(scan_j), denom) for D, denom in kernels]
    return _blockwise_affinity(terms, a_idx, b_idx, params.epsilon), candidates
