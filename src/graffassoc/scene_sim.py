"""Synthetic landmark scenes, loop-closure pairs and benchmark campaigns.

Scenes mimic urban structure: pole-like lines biased vertical and wall-like
planes with near-horizontal normals, anchored uniformly in a cubic workspace
sized so pairwise object distances land near a target mean.  Loop pairs are
rigidly transformed copies with orientation/offset noise, partial overlap,
clutter and index permutation, with ground-truth correspondences recorded.
Random draws are taken object by object; the geometry is built on stacked arrays.
"""

from __future__ import annotations

import itertools
import operator
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .consistency import ConsistencyParams, DistanceFn, Scan, _scan_rows
from .graff_core import (
    RigidTransform,
    _frames,
    _rep_frames,
    _rotations,
    _stacked_frames,
    _unit_rows,
    rotation_about_axis,
)
from .pipeline import associate_scans
from .registration import AlignmentError, alignment_error, verify

__all__ = [
    "SceneConfig",
    "PairConfig",
    "LoopPair",
    "TrialResult",
    "TrialRecord",
    "CampaignConfig",
    "CampaignMetrics",
    "TIER_TABLE",
    "generate_scene",
    "make_loop_pair",
    "run_trial",
    "compute_metrics",
    "run_campaign",
]

# (baseline meters, overlap fraction) per difficulty tier.
TIER_TABLE: dict[str, tuple[float, float]] = {
    "easy": (0.0, 0.9),
    "medium": (8.0, 0.7),
    "hard": (16.0, 0.5),
}

# Mean pairwise distance of uniform points in a unit cube (Robbins constant);
# used to size the workspace for a target mean object distance.
_UNIT_CUBE_MEAN_DISTANCE = 0.6617071822

_STRUCTURED_FRACTION = 0.8       # objects with urban-biased orientation
_ORIENTATION_CONE_RAD = np.radians(10.0)
_YAW_RANGE_RAD = np.pi           # loop-pair yaw is uniform in +-_YAW_RANGE_RAD,
_TILT_RANGE_RAD = np.radians(5.0)  # pitch and roll in +-_TILT_RANGE_RAD


def _check_counts_and_seed(config, *counts: str) -> None:
    """Fail fast, naming the field, unless each count and the seed is a Python or NumPy integer (draws and
    `range` would truncate a float or refuse it with a bare TypeError) and the seed is nonnegative."""
    for name in (*counts, "seed"):
        try:
            operator.index(getattr(config, name))
        except TypeError:
            raise ValueError(f"{name} must be an integer, got {getattr(config, name)!r}") from None
    if config.seed < 0:
        raise ValueError("seed must be nonnegative")


@dataclass(frozen=True)
class SceneConfig:
    n_lines: int = 7
    n_planes: int = 23
    target_mean: float = 27.0          # target mean pairwise object distance, meters
    centroid_extent: float = 5.0       # span of on-object centroid sampling
    seed: int = 0

    def __post_init__(self):
        _check_counts_and_seed(self, "n_lines", "n_planes")
        if self.n_lines < 0 or self.n_planes < 0:
            raise ValueError("object counts must be nonnegative")
        if not 0 < self.target_mean < np.inf:  # NaN fails too
            raise ValueError("target_mean must be positive and finite")
        if not 0 <= self.centroid_extent < np.inf:
            raise ValueError("centroid_extent must be nonnegative and finite")

    @property
    def effective_extent(self) -> float:
        """Cube side that puts the mean pairwise anchor distance at target_mean."""
        return self.target_mean / _UNIT_CUBE_MEAN_DISTANCE


@dataclass(frozen=True)
class PairConfig:
    baseline_m: float = 0.0
    overlap: float = 1.0
    clutter: int = 0
    noise_dir_rad: float = 0.0
    noise_disp_m: float = 0.0
    centroid_extent: float = 5.0       # on-object resampling span for scan-j centroids
    seed: int = 0

    def __post_init__(self):
        _check_counts_and_seed(self, "clutter")
        if not 0.0 <= self.overlap <= 1.0:
            raise ValueError("overlap must lie in [0, 1]")
        if not 0 <= self.baseline_m < np.inf or self.clutter < 0:  # NaN fails too
            raise ValueError("baseline and clutter must be nonnegative and finite")
        if not (0 <= self.noise_dir_rad < np.inf and 0 <= self.noise_disp_m < np.inf):
            raise ValueError("noise levels must be nonnegative and finite")
        if not 0 <= self.centroid_extent < np.inf:
            raise ValueError("centroid_extent must be nonnegative and finite")


@dataclass(frozen=True)
class LoopPair:
    scan_i: Scan
    scan_j: Scan
    truth: RigidTransform
    truth_pairs: tuple[tuple[int, int], ...]
    degenerate: bool  # fewer than 3 shared objects survived the overlap cut


@dataclass(frozen=True)
class TrialResult:
    n_candidates: int
    selected: tuple[tuple[int, int], ...]
    n_true_inliers: int
    precision: float
    recall: float
    objective: float
    accept: bool
    failed: bool
    error: AlignmentError | None
    duration_s: float


def _random_unit(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _sample_line_direction(rng: np.random.Generator) -> np.ndarray:
    if rng.uniform() < _STRUCTURED_FRACTION:
        tilt = rng.uniform(0.0, _ORIENTATION_CONE_RAD)
        az = rng.uniform(0.0, 2.0 * np.pi)
        return np.array([np.sin(tilt) * np.cos(az), np.sin(tilt) * np.sin(az), np.cos(tilt)])
    return _random_unit(rng)


def _sample_plane_normal(rng: np.random.Generator) -> np.ndarray:
    if rng.uniform() < _STRUCTURED_FRACTION:
        elev = rng.uniform(-_ORIENTATION_CONE_RAD, _ORIENTATION_CONE_RAD)
        az = rng.uniform(0.0, 2.0 * np.pi)
        return np.array([np.cos(elev) * np.cos(az), np.cos(elev) * np.sin(az), np.sin(elev)])
    return _random_unit(rng)


def _anchored(k: int, v: np.ndarray, anchors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Frames of objects of kind k through the anchors: lines along v, planes with
    normals v and offsets v . anchor, as the one-object constructors build them."""
    x = anchors if k == 1 else (v[:, None, :] @ anchors[:, :, None])[:, 0, 0]
    return _stacked_frames(k, _unit_rows(v), x)


def _centroid_on(bases: list, refs: np.ndarray, offsets: list) -> np.ndarray:
    """Points near `refs` (n x 3) on the (infinite) objects, offset along each kind's
    bases (idx, A): the centroids a segmentation stage would report."""
    centroids = np.zeros(refs.shape)
    for idx, A in bases:
        centroids[idx] = refs[idx] + (A @ np.array([offsets[i] for i in idx])[:, :, None])[:, :, 0]
    return centroids


def generate_scene(cfg: SceneConfig) -> Scan:
    """Deterministic synthetic scan of pole-like lines and wall-like planes."""
    rng = np.random.default_rng(cfg.seed)
    L = cfg.effective_extent
    kinds = np.repeat([1, 2], [cfg.n_lines, cfg.n_planes])
    anchors = rng.uniform(-L / 2.0, L / 2.0, size=(len(kinds), 3))
    vectors, offsets = np.zeros(anchors.shape), []
    for i, k in enumerate(kinds.tolist()):
        vectors[i] = _sample_line_direction(rng) if k == 1 else _sample_plane_normal(rng)
        offsets.append(rng.uniform(-cfg.centroid_extent / 2.0, cfg.centroid_extent / 2.0, size=k))
    rep, b0, bases = _scan_rows(kinds, lambda k, idx: _anchored(k, vectors[idx], anchors[idx]))
    return Scan(f"scene-{cfg.seed}", kinds, rep, b0, _centroid_on(bases, anchors, offsets))


def _sample_truth(rng: np.random.Generator, pcfg: PairConfig) -> RigidTransform:
    yaw = rng.uniform(-_YAW_RANGE_RAD, _YAW_RANGE_RAD)
    pitch = rng.uniform(-_TILT_RANGE_RAD, _TILT_RANGE_RAD)
    roll = rng.uniform(-_TILT_RANGE_RAD, _TILT_RANGE_RAD)
    R = (
        rotation_about_axis([0.0, 0.0, 1.0], yaw)
        @ rotation_about_axis([0.0, 1.0, 0.0], pitch)
        @ rotation_about_axis([1.0, 0.0, 0.0], roll)
    )
    az = rng.uniform(0.0, 2.0 * np.pi)
    t = pcfg.baseline_m * np.array([np.cos(az), np.sin(az), 0.0])
    return RigidTransform(R, t)


def _object_extent(scan: Scan) -> float:
    """Rough workspace size, for placing clutter where the objects live."""
    pts = scan.b0 if scan.centroids is None else scan.centroids
    if len(pts) < 2:
        return SceneConfig().effective_extent
    return max(float(np.max(pts.max(axis=0) - pts.min(axis=0))), 10.0)


def make_loop_pair(scene: Scan, pcfg: PairConfig) -> LoopPair:
    """Second scan = transformed copy of a retained subset, plus noise,
    clutter and a random index permutation; ground truth recorded."""
    rng = np.random.default_rng(pcfg.seed)
    truth = _sample_truth(rng, pcfg)
    has_centroids = scene.centroids is not None
    n = len(scene)
    n_keep = int(round(pcfg.overlap * n))
    keep = np.array(sorted(rng.choice(n, size=n_keep, replace=False)) if n_keep else [], dtype=int)
    half_extent = pcfg.centroid_extent / 2.0

    # The random draws, object by object: kept objects' noise and centroid
    # offsets, then each clutter object's anchor, vector and offsets.
    angles, axes, shifts, offsets = [], [], [], []
    for k in scene.kinds[keep].tolist():
        if pcfg.noise_dir_rad > 0:
            angles.append(abs(rng.normal(0.0, pcfg.noise_dir_rad)))
            axes.append(_random_unit(rng))
        if pcfg.noise_disp_m > 0:
            shifts.append(rng.normal(0.0, pcfg.noise_disp_m, size=3))
        if has_centroids:
            offsets.append(rng.uniform(-half_extent, half_extent, size=k))
    n_lines = int(np.count_nonzero(scene.kinds == 1))
    n_clutter_lines = int(round(pcfg.clutter * n_lines / n)) if n else (pcfg.clutter + 1) // 2
    L = _object_extent(scene)
    clutter_kinds = np.where(np.arange(pcfg.clutter) < n_clutter_lines, 1, 2)
    anchors, vectors = np.zeros((pcfg.clutter, 3)), np.zeros((pcfg.clutter, 3))
    for c, k in enumerate(clutter_kinds.tolist()):
        anchors[c] = rng.uniform(-L / 2.0, L / 2.0, size=3)
        vectors[c] = _sample_line_direction(rng) if k == 1 else _sample_plane_normal(rng)
        if has_centroids:
            offsets.append(rng.uniform(-half_extent, half_extent, size=k))
    perm = rng.permutation(n_keep + pcfg.clutter)

    # Kept objects and clutter are moved together, in one element's arithmetic;
    # the kept ones then get their noise.
    turns = _rotations(_unit_rows(np.array(axes)), np.array(angles)) if axes else None
    shifts = np.array(shifts) if shifts else None

    def frames_of(k, idx):
        kept, clutter = idx[idx < n_keep], idx[idx >= n_keep] - n_keep
        A_c, b_c = _anchored(k, vectors[clutter], anchors[clutter])
        A = truth.R @ np.concatenate([_rep_frames(k, scene.rep[keep[kept]]), A_c])
        b = truth.R @ np.concatenate([scene.b0[keep[kept]], b_c])[:, :, None]
        A, b = _frames(A, b[:, :, 0] + truth.t)
        n = kept.size  # the kept objects, turned and moved by their noise where drawn
        A[:n], b[:n] = _frames(
            A[:n] if turns is None else turns[kept] @ A[:n], b[:n] if shifts is None else b[:n] + shifts[kept]
        )
        return A, b

    kinds = np.concatenate([scene.kinds[keep], clutter_kinds])
    rep, b0, bases = _scan_rows(kinds, frames_of)
    centroids = None
    if has_centroids:  # truth.apply one point at a time, as a 1 x 3 row times R^T
        refs = (np.concatenate([scene.centroids[keep], anchors])[:, None, :] @ truth.R.T)[:, 0, :] + truth.t
        centroids = _centroid_on(bases, refs, offsets)[perm]
    truth_pairs = tuple(sorted((int(keep[p]), new) for new, p in enumerate(perm.tolist()) if p < n_keep))
    scan_j = Scan(f"{scene.id}-loop", kinds[perm], rep[perm], b0[perm], centroids)
    return LoopPair(scene, scan_j, truth, truth_pairs, degenerate=n_keep < 3)


def run_trial(
    pair: LoopPair,
    params: ConsistencyParams = ConsistencyParams(),
    distance_fn: DistanceFn = DistanceFn.GRAFF_SHIFTED,
) -> TrialResult:
    """Full pipeline on one loop pair: affinity, selection, registration,
    verification against the recorded ground truth."""
    start = time.perf_counter()
    assoc = associate_scans(pair.scan_i, pair.scan_j, params, distance_fn)
    truth_set = set(pair.truth_pairs)
    n_true = sum(1 for c in assoc.matches if c in truth_set)
    precision = n_true / len(assoc.matches) if assoc.matches else 0.0
    recall = n_true / len(truth_set) if truth_set else 0.0
    failed = assoc.transform is None
    error = None if failed else alignment_error(assoc.transform, pair.truth)
    accept = False if failed else verify(assoc.transform, pair.truth)
    return TrialResult(
        n_candidates=assoc.n_candidates,
        selected=assoc.matches,
        n_true_inliers=n_true,
        precision=precision,
        recall=recall,
        objective=assoc.objective,
        accept=accept,
        failed=failed,
        error=error,
        duration_s=time.perf_counter() - start,
    )


@dataclass(frozen=True)
class CampaignMetrics:
    n_trials: int
    n_accepted: int
    recall_at_100_precision: float
    median_rot_err_deg: float | None
    median_trans_err_m: float | None
    timing_mean_s: float
    timing_std_s: float


def compute_metrics(results: list[TrialResult]) -> CampaignMetrics:
    """Aggregate a campaign slice.

    Recall at 100% precision ranks trials by solver objective and returns
    the largest fraction of trials acceptable with zero incorrect
    acceptances above the threshold.  Failed trials never count as
    acceptances; trials tied on objective enter together or not at all.
    """
    if not results:
        raise ValueError("compute_metrics needs at least one trial result")
    n = len(results)
    ranked = sorted((r for r in results if not r.failed), key=lambda r: -r.objective)
    true_positives = 0
    for _, group in itertools.groupby(ranked, key=lambda r: r.objective):
        group = list(group)
        if not all(r.accept for r in group):
            break
        true_positives += len(group)
    recall_100 = true_positives / n
    accepted = [r for r in results if r.accept]
    med_rot = float(np.median([r.error.rot_deg for r in accepted])) if accepted else None
    med_trans = float(np.median([r.error.trans_m for r in accepted])) if accepted else None
    durations = np.array([r.duration_s for r in results])
    return CampaignMetrics(
        n_trials=n,
        n_accepted=len(accepted),
        recall_at_100_precision=recall_100,
        median_rot_err_deg=med_rot,
        median_trans_err_m=med_trans,
        timing_mean_s=float(durations.mean()),
        timing_std_s=float(durations.std()),
    )


@dataclass(frozen=True)
class CampaignConfig:
    seed: int = 42
    trials: int = 100
    tiers: tuple[str, ...] = ("easy", "medium", "hard")
    distance_fns: tuple[DistanceFn, ...] = (DistanceFn.GRAFF_SHIFTED,)
    n_lines: int = 7
    n_planes: int = 23
    clutter: int = 5
    noise_dir_deg: float = 0.5
    noise_disp_m: float = 0.05
    overlap_easy: float = TIER_TABLE["easy"][1]
    overlap_medium: float = TIER_TABLE["medium"][1]
    overlap_hard: float = TIER_TABLE["hard"][1]
    rho: float = 40.0
    epsilon: float = 0.2
    sigma: float = 0.02
    target_mean: float = 27.0
    centroid_extent: float = 5.0

    def __post_init__(self):
        _check_counts_and_seed(self, "trials")
        if self.trials <= 0:
            raise ValueError("trials must be positive")
        object.__setattr__(self, "tiers", tuple(self.tiers))
        for tier in self.tiers:
            if tier not in TIER_TABLE:
                raise ValueError(f"unknown tier {tier!r}; expected one of {sorted(TIER_TABLE)}")
        object.__setattr__(self, "distance_fns", tuple(DistanceFn(f) for f in self.distance_fns))
        for axis in ("tiers", "distance_fns"):  # an empty axis would run no trial, a repeated value its trials twice
            values = [getattr(v, "value", v) for v in getattr(self, axis)]
            if not values:
                raise ValueError(f"{axis} must name at least one value")
            if repeated := [v for i, v in enumerate(values) if v in values[:i]]:
                raise ValueError(f"{axis} must not repeat a value: {repeated[0]!r}")
        # Built once, here, so that a bad value fails before any trial runs;
        # each trial only sets the seeds.
        object.__setattr__(self, "_params", ConsistencyParams(epsilon=self.epsilon, sigma=self.sigma, rho=self.rho))
        object.__setattr__(self, "_scene", SceneConfig(
            n_lines=self.n_lines,
            n_planes=self.n_planes,
            target_mean=self.target_mean,
            centroid_extent=self.centroid_extent,
        ))
        object.__setattr__(self, "_pairs", {
            tier: PairConfig(
                baseline_m=TIER_TABLE[tier][0],
                overlap=getattr(self, f"overlap_{tier}"),
                clutter=self.clutter,
                noise_dir_rad=float(np.radians(self.noise_dir_deg)),
                noise_disp_m=self.noise_disp_m,
                centroid_extent=self.centroid_extent,
            )
            for tier in TIER_TABLE  # every overlap_<tier> is checked, configured tier or not
        })


@dataclass(frozen=True)
class TrialRecord:
    seed_label: str
    tier: str
    distance_fn: DistanceFn
    trial_index: int
    result: TrialResult


def _derive_seeds(campaign_seed: int, tier_index: int, trial_index: int) -> tuple[int, int]:
    state = np.random.SeedSequence([campaign_seed, tier_index, trial_index]).generate_state(2, np.uint64)
    return int(state[0]), int(state[1])


def _run_pair_trials(cfg: CampaignConfig, tier_index: int, trial_index: int) -> list[TrialRecord]:
    """One scene/pair, evaluated once per configured distance function."""
    tier = cfg.tiers[tier_index]
    scene_seed, pair_seed = _derive_seeds(cfg.seed, tier_index, trial_index)
    scene = generate_scene(replace(cfg._scene, seed=scene_seed))
    pair = make_loop_pair(scene, replace(cfg._pairs[tier], seed=pair_seed))
    label = f"{cfg.seed}.{tier_index}.{trial_index}"
    return [
        TrialRecord(label, tier, fn, trial_index, run_trial(pair, cfg._params, fn))
        for fn in cfg.distance_fns
    ]


def run_campaign(cfg: CampaignConfig, workers: int = 1) -> list[TrialRecord]:
    """Run every (tier, trial, distance function) combination.

    Per-trial random streams are derived from (campaign seed, tier index,
    trial index), so results are identical for any worker count; only the
    wall-clock durations vary between runs.
    """
    jobs = [(ti, n) for ti in range(len(cfg.tiers)) for n in range(cfg.trials)]
    workers = min(workers, len(jobs))  # a process pool starts all its workers up front
    if workers <= 1:
        batches = [_run_pair_trials(cfg, ti, n) for ti, n in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_pair_trials, cfg, ti, n) for ti, n in jobs]
            batches = [f.result() for f in futures]
    return [record for batch in batches for record in batch]
