"""Synthetic landmark scenes, loop-closure pairs and benchmark campaigns.

Scenes mimic urban structure: pole-like lines biased vertical and wall-like
planes with near-horizontal normals, anchored uniformly in a cubic workspace
sized so pairwise object distances land near a target mean.  Loop pairs are
rigidly transformed copies with orientation/offset noise, partial overlap,
clutter and index permutation, with ground-truth correspondences recorded.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .clique_solver import SolverParams
from .consistency import ConsistencyParams, DistanceFn, Scan
from .graff_core import (
    GraffElement,
    LinePD,
    PlaneHesse,
    RigidTransform,
    from_hesse,
    from_pd,
    rotation_about_axis,
)
from .pipeline import PIPELINE_SOLVER, associate_scans
from .registration import AlignmentError, VerifyThresholds, alignment_error, verify

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


@dataclass(frozen=True)
class SceneConfig:
    n_lines: int = 7
    n_planes: int = 23
    extent: float | None = None        # cube side; derived from target_mean if None
    target_mean: float = 27.0          # target mean pairwise object distance, meters
    target_std: float = 16.0
    centroid_extent: float = 5.0       # span of on-object centroid sampling
    seed: int = 0

    def __post_init__(self):
        if self.n_lines < 0 or self.n_planes < 0:
            raise ValueError("object counts must be nonnegative")
        if self.extent is not None and self.extent <= 0:
            raise ValueError("extent must be positive")
        if self.target_mean <= 0:
            raise ValueError("target_mean must be positive")

    @property
    def effective_extent(self) -> float:
        if self.extent is not None:
            return self.extent
        return self.target_mean / _UNIT_CUBE_MEAN_DISTANCE


@dataclass(frozen=True)
class PairConfig:
    baseline_m: float = 0.0
    yaw_range_rad: float = np.pi
    tilt_range_rad: float = np.radians(5.0)
    overlap: float = 1.0
    clutter: int = 0
    noise_dir_rad: float = 0.0
    noise_disp_m: float = 0.0
    centroid_extent: float = 5.0       # on-object resampling span for scan-j centroids
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.overlap <= 1.0:
            raise ValueError("overlap must lie in [0, 1]")
        if self.baseline_m < 0 or self.clutter < 0:
            raise ValueError("baseline and clutter must be nonnegative")
        if self.noise_dir_rad < 0 or self.noise_disp_m < 0:
            raise ValueError("noise levels must be nonnegative")


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


def _centroid_on(el: GraffElement, ref: np.ndarray, rng: np.random.Generator, extent: float) -> np.ndarray:
    """A point near `ref` sampled on the (infinite) object, standing in for
    the centroid a segmentation stage would report."""
    offsets = rng.uniform(-extent / 2.0, extent / 2.0, size=el.k)
    return ref + el.A @ offsets


def generate_scene(cfg: SceneConfig) -> Scan:
    """Deterministic synthetic scan of pole-like lines and wall-like planes."""
    rng = np.random.default_rng(cfg.seed)
    L = cfg.effective_extent
    n = cfg.n_lines + cfg.n_planes
    anchors = rng.uniform(-L / 2.0, L / 2.0, size=(n, 3))
    objects: list[GraffElement] = []
    centroids: list[np.ndarray] = []
    for i in range(cfg.n_lines):
        el = from_pd(LinePD(_sample_line_direction(rng), anchors[i]))
        objects.append(el)
        centroids.append(_centroid_on(el, anchors[i], rng, cfg.centroid_extent))
    for i in range(cfg.n_lines, n):
        normal = _sample_plane_normal(rng)
        el = from_hesse(PlaneHesse(normal, float(normal @ anchors[i])))
        objects.append(el)
        centroids.append(_centroid_on(el, anchors[i], rng, cfg.centroid_extent))
    return Scan(id=f"scene-{cfg.seed}", objects=tuple(objects), centroids=tuple(centroids))


def _sample_truth(rng: np.random.Generator, pcfg: PairConfig) -> RigidTransform:
    yaw = rng.uniform(-pcfg.yaw_range_rad, pcfg.yaw_range_rad)
    pitch = rng.uniform(-pcfg.tilt_range_rad, pcfg.tilt_range_rad)
    roll = rng.uniform(-pcfg.tilt_range_rad, pcfg.tilt_range_rad)
    R = (
        rotation_about_axis([0.0, 0.0, 1.0], yaw)
        @ rotation_about_axis([0.0, 1.0, 0.0], pitch)
        @ rotation_about_axis([1.0, 0.0, 0.0], roll)
    )
    az = rng.uniform(0.0, 2.0 * np.pi)
    t = pcfg.baseline_m * np.array([np.cos(az), np.sin(az), 0.0])
    return RigidTransform(R, t)


def _perturb(el: GraffElement, rng: np.random.Generator, pcfg: PairConfig) -> GraffElement:
    A, b = el.A, el.b0
    if pcfg.noise_dir_rad > 0:
        angle = abs(rng.normal(0.0, pcfg.noise_dir_rad))
        A = rotation_about_axis(_random_unit(rng), angle) @ A
    if pcfg.noise_disp_m > 0:
        b = b + rng.normal(0.0, pcfg.noise_disp_m, size=3)
    return GraffElement.from_affine(A, b)


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
    n = len(scene.objects)
    n_keep = int(round(pcfg.overlap * n))
    keep = sorted(rng.choice(n, size=n_keep, replace=False)) if n_keep else []

    objects_j: list[GraffElement] = []
    centroids_j: list[np.ndarray] = []
    source_of: list[int | None] = []
    for i in keep:
        el = _perturb(scene.objects[i].transformed(truth), rng, pcfg)
        objects_j.append(el)
        if has_centroids:
            centroids_j.append(
                _centroid_on(el, truth.apply(scene.centroids[i]), rng, pcfg.centroid_extent)
            )
        source_of.append(int(i))

    n_lines = sum(1 for el in scene.objects if el.k == 1)
    n_clutter_lines = int(round(pcfg.clutter * n_lines / n)) if n else (pcfg.clutter + 1) // 2
    L = _object_extent(scene)
    for c in range(pcfg.clutter):
        anchor = rng.uniform(-L / 2.0, L / 2.0, size=3)
        if c < n_clutter_lines:
            el = from_pd(LinePD(_sample_line_direction(rng), anchor)).transformed(truth)
        else:
            normal = _sample_plane_normal(rng)
            el = from_hesse(PlaneHesse(normal, float(normal @ anchor))).transformed(truth)
        objects_j.append(el)
        if has_centroids:
            centroids_j.append(_centroid_on(el, truth.apply(anchor), rng, pcfg.centroid_extent))
        source_of.append(None)

    perm = rng.permutation(len(objects_j))
    truth_pairs = tuple(
        sorted((source_of[p], new_idx) for new_idx, p in enumerate(perm) if source_of[p] is not None)
    )
    scan_j = Scan(
        id=f"{scene.id}-loop",
        objects=tuple(objects_j[p] for p in perm),
        centroids=tuple(centroids_j[p] for p in perm) if has_centroids else None,
    )
    return LoopPair(scene, scan_j, truth, truth_pairs, degenerate=n_keep < 3)


def run_trial(
    pair: LoopPair,
    params: ConsistencyParams = ConsistencyParams(),
    distance_fn: DistanceFn = DistanceFn.GRAFF_SHIFTED,
    solver: SolverParams = PIPELINE_SOLVER,
    thresholds: VerifyThresholds = VerifyThresholds(),
) -> TrialResult:
    """Full pipeline on one loop pair: affinity, selection, registration,
    verification against the recorded ground truth."""
    start = time.perf_counter()
    assoc = associate_scans(pair.scan_i, pair.scan_j, params, distance_fn, solver)
    truth_set = set(pair.truth_pairs)
    n_true = sum(1 for c in assoc.matches if c in truth_set)
    precision = n_true / len(assoc.matches) if assoc.matches else 0.0
    recall = n_true / len(truth_set) if truth_set else 0.0
    failed = assoc.transform is None
    error = None if failed else alignment_error(assoc.transform, pair.truth)
    accept = False if failed else verify(assoc.transform, pair.truth, thresholds)
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
    recall_100 = 0.0
    pos = 0
    while pos < len(ranked):
        end = pos
        while end < len(ranked) and ranked[end].objective == ranked[pos].objective:
            end += 1
        group = ranked[pos:end]
        if all(r.accept for r in group):
            true_positives += len(group)
            recall_100 = true_positives / n
            pos = end
        else:
            break
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
    overlap_easy: float = 0.9
    overlap_medium: float = 0.7
    overlap_hard: float = 0.5
    rho: float = 40.0
    epsilon: float = 0.2
    sigma: float = 0.02
    target_mean: float = 27.0
    centroid_extent: float = 5.0

    def __post_init__(self):
        if self.trials <= 0:
            raise ValueError("trials must be positive")
        for tier in self.tiers:
            if tier not in TIER_TABLE:
                raise ValueError(f"unknown tier {tier!r}; expected one of {sorted(TIER_TABLE)}")
        object.__setattr__(self, "tiers", tuple(self.tiers))
        object.__setattr__(self, "distance_fns", tuple(DistanceFn(f) for f in self.distance_fns))

    def overlap_for(self, tier: str) -> float:
        return {
            "easy": self.overlap_easy,
            "medium": self.overlap_medium,
            "hard": self.overlap_hard,
        }[tier]

    def consistency_params(self) -> ConsistencyParams:
        return ConsistencyParams(epsilon=self.epsilon, sigma=self.sigma, rho=self.rho)


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
    baseline, _ = TIER_TABLE[tier]
    scene_seed, pair_seed = _derive_seeds(cfg.seed, tier_index, trial_index)
    scene = generate_scene(
        SceneConfig(
            n_lines=cfg.n_lines,
            n_planes=cfg.n_planes,
            target_mean=cfg.target_mean,
            centroid_extent=cfg.centroid_extent,
            seed=scene_seed,
        )
    )
    pair = make_loop_pair(
        scene,
        PairConfig(
            baseline_m=baseline,
            overlap=cfg.overlap_for(tier),
            clutter=cfg.clutter,
            noise_dir_rad=float(np.radians(cfg.noise_dir_deg)),
            noise_disp_m=cfg.noise_disp_m,
            centroid_extent=cfg.centroid_extent,
            seed=pair_seed,
        ),
    )
    params = cfg.consistency_params()
    label = f"{cfg.seed}.{tier_index}.{trial_index}"
    return [
        TrialRecord(label, tier, fn, trial_index, run_trial(pair, params, fn))
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
