from concurrent.futures import Future
from dataclasses import replace

import numpy as np
import pytest

from graffassoc import (
    AlignmentError,
    CampaignConfig,
    DistanceFn,
    PairConfig,
    SceneConfig,
    TrialResult,
    compute_metrics,
    generate_scene,
    make_loop_pair,
    run_campaign,
    run_trial,
)
from graffassoc import scene_sim
from graffassoc.scene_sim import TIER_TABLE, _derive_seeds


def scans_equal(a, b):
    if a.id != b.id or len(a.objects) != len(b.objects):
        return False
    for x, y in zip(a.objects, b.objects):
        if not (np.array_equal(x.A, y.A) and np.array_equal(x.b0, y.b0)):
            return False
    if (a.centroids is None) != (b.centroids is None):
        return False
    if a.centroids is not None:
        return all(np.array_equal(c, d) for c, d in zip(a.centroids, b.centroids))
    return True


class TestGenerateScene:
    def test_deterministic(self):
        cfg = SceneConfig(seed=123)
        assert scans_equal(generate_scene(cfg), generate_scene(cfg))

    def test_counts_default_scale(self):
        scan = generate_scene(SceneConfig(seed=0))
        lines = [el for el in scan.objects if el.k == 1]
        planes = [el for el in scan.objects if el.k == 2]
        assert len(lines) == 7 and len(planes) == 23

    def test_pairwise_distance_mean_near_target(self):
        for seed in range(10):
            scan = generate_scene(SceneConfig(seed=seed))
            C = np.stack(scan.centroids)
            dists = [
                np.linalg.norm(C[i] - C[j])
                for i in range(len(C))
                for j in range(i + 1, len(C))
            ]
            assert 21.6 <= np.mean(dists) <= 32.4

    def test_centroids_lie_near_objects(self):
        scan = generate_scene(SceneConfig(seed=4))
        for el, c in zip(scan.objects, scan.centroids):
            # centroid sampled on the object: residual orthogonal to the span
            res = (c - el.b0) - el.A @ (el.A.T @ (c - el.b0))
            assert np.linalg.norm(res) < 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            SceneConfig(n_lines=-1)


class TestMakeLoopPair:
    def test_overlap_and_clutter_counts(self):
        scene = generate_scene(SceneConfig(seed=7))
        pair = make_loop_pair(scene, PairConfig(overlap=0.5, clutter=5, seed=8))
        n_keep = round(0.5 * 30)
        assert len(pair.truth_pairs) == n_keep
        assert len(pair.scan_j.objects) == n_keep + 5
        assert not pair.degenerate

    def test_truth_pairs_reference_congruent_objects(self):
        scene = generate_scene(SceneConfig(seed=9))
        pair = make_loop_pair(scene, PairConfig(overlap=0.8, clutter=3, seed=10))
        for a, b in pair.truth_pairs:
            el_i = pair.scan_i.objects[a].transformed(pair.truth)
            el_j = pair.scan_j.objects[b]
            assert el_i.k == el_j.k
            assert np.allclose(el_i.b0, el_j.b0, atol=1e-9)

    def test_noise_perturbs_but_preserves_mapping(self):
        scene = generate_scene(SceneConfig(seed=11))
        pair = make_loop_pair(
            scene,
            PairConfig(overlap=1.0, noise_dir_rad=np.radians(0.5), noise_disp_m=0.05, seed=12),
        )
        offs = []
        for a, b in pair.truth_pairs:
            el_i = pair.scan_i.objects[a].transformed(pair.truth)
            el_j = pair.scan_j.objects[b]
            offs.append(np.linalg.norm(el_i.b0 - el_j.b0))
        assert 0.0 < np.median(offs) < 0.5

    def test_degenerate_flag(self):
        scene = generate_scene(SceneConfig(n_lines=2, n_planes=2, seed=13))
        pair = make_loop_pair(scene, PairConfig(overlap=0.25, seed=14))
        assert pair.degenerate
        assert len(pair.truth_pairs) < 3

    def test_deterministic(self):
        scene = generate_scene(SceneConfig(seed=15))
        cfg = PairConfig(overlap=0.7, clutter=4, noise_disp_m=0.02, seed=16)
        p1 = make_loop_pair(scene, cfg)
        p2 = make_loop_pair(scene, cfg)
        assert scans_equal(p1.scan_j, p2.scan_j)
        assert p1.truth_pairs == p2.truth_pairs
        assert np.array_equal(p1.truth.R, p2.truth.R)

    def test_baseline_sets_translation_norm(self):
        scene = generate_scene(SceneConfig(seed=17))
        pair = make_loop_pair(scene, PairConfig(baseline_m=16.0, seed=18))
        assert np.linalg.norm(pair.truth.t) == pytest.approx(16.0, abs=1e-9)


class TestRunTrial:
    def test_clean_pair_recovers_exactly(self):
        from conftest import rot_angle_rad
        from graffassoc import associate_scans

        for seed in range(10):
            scene = generate_scene(SceneConfig(seed=seed))
            pair = make_loop_pair(scene, PairConfig(overlap=1.0, clutter=0, seed=seed + 100))
            result = run_trial(pair)
            assert result.accept and not result.failed
            assert result.precision == 1.0 and result.recall == 1.0
            assert result.error.trans_m < 1e-8
            assoc = associate_scans(pair.scan_i, pair.scan_j)
            assert rot_angle_rad(assoc.transform.R, pair.truth.R) < 1e-8

    def test_noisy_pair_still_verifies(self):
        scene = generate_scene(SceneConfig(seed=20))
        pair = make_loop_pair(
            scene,
            PairConfig(
                baseline_m=8.0,
                overlap=0.7,
                clutter=5,
                noise_dir_rad=np.radians(0.5),
                noise_disp_m=0.05,
                seed=21,
            ),
        )
        result = run_trial(pair)
        assert result.accept
        assert result.error.trans_m < 0.5

    def test_degenerate_pair_fails_gracefully(self):
        scene = generate_scene(SceneConfig(n_lines=2, n_planes=2, seed=22))
        pair = make_loop_pair(scene, PairConfig(overlap=0.25, clutter=0, seed=23))
        result = run_trial(pair)
        assert result.failed and not result.accept
        assert result.error is None

    def test_all_distance_functions_run(self):
        scene = generate_scene(SceneConfig(seed=24))
        pair = make_loop_pair(scene, PairConfig(overlap=0.9, clutter=2, seed=25))
        for fn in DistanceFn:
            result = run_trial(pair, distance_fn=fn)
            assert result.n_candidates > 0

    def test_monotone_degradation_with_overlap(self):
        # recall (accepted fraction) averaged over 100 seeds per overlap level
        overlaps = [1.0, 0.75, 0.5, 0.25]
        rates = []
        for overlap in overlaps:
            accepted = 0
            for seed in range(100):
                scene = generate_scene(SceneConfig(n_lines=4, n_planes=12, seed=3000 + seed))
                pair = make_loop_pair(
                    scene,
                    PairConfig(
                        baseline_m=8.0,
                        overlap=overlap,
                        clutter=3,
                        noise_dir_rad=np.radians(0.5),
                        noise_disp_m=0.05,
                        seed=4000 + seed,
                    ),
                )
                if run_trial(pair).accept:
                    accepted += 1
            rates.append(accepted / 100)
        violations = [max(0.0, rates[i + 1] - rates[i]) for i in range(len(rates) - 1)]
        assert sum(v > 0 for v in violations) <= 1
        assert all(v <= 0.02 for v in violations)


def _fake(objective, accept, failed=False, rot=0.1, trans=0.05, dur=0.01):
    return TrialResult(
        n_candidates=10,
        selected=((0, 0),) * 5,
        n_true_inliers=5,
        precision=1.0,
        recall=1.0,
        objective=objective,
        accept=accept,
        failed=failed,
        error=None if failed else AlignmentError(rot, trans),
        duration_s=dur,
    )


class TestComputeMetrics:
    def test_all_correct(self):
        metrics = compute_metrics([_fake(10 - i, True) for i in range(5)])
        assert metrics.recall_at_100_precision == 1.0
        assert metrics.n_accepted == 5

    def test_false_accept_at_top_zeroes_recall(self):
        results = [_fake(100.0, False)] + [_fake(10 - i, True) for i in range(5)]
        assert compute_metrics(results).recall_at_100_precision == 0.0

    def test_false_accept_mid_rank(self):
        results = [_fake(10.0, True), _fake(9.0, True), _fake(8.0, False), _fake(7.0, True)]
        assert compute_metrics(results).recall_at_100_precision == pytest.approx(0.5)

    def test_failed_trials_never_count(self):
        results = [_fake(100.0, False, failed=True), _fake(10.0, True), _fake(9.0, True)]
        assert compute_metrics(results).recall_at_100_precision == pytest.approx(2 / 3)

    def test_matches_threshold_sweep_oracle(self):
        rng = np.random.default_rng(26)
        for _ in range(50):
            results = []
            for _ in range(rng.integers(3, 25)):
                failed = rng.uniform() < 0.15
                accept = (not failed) and rng.uniform() < 0.7
                results.append(_fake(float(rng.integers(0, 8)), accept, failed))
            # oracle: exhaustive sweep over all thresholds
            best = 0.0
            objectives = sorted({r.objective for r in results if not r.failed}, reverse=True)
            for tau in objectives:
                above = [r for r in results if not r.failed and r.objective >= tau]
                if all(r.accept for r in above):
                    best = max(best, len(above) / len(results))
            assert compute_metrics(results).recall_at_100_precision == pytest.approx(best)

    def test_median_errors_over_accepted_only(self):
        results = [
            _fake(5.0, True, rot=1.0, trans=0.1),
            _fake(4.0, True, rot=3.0, trans=0.3),
            _fake(3.0, False, rot=90.0, trans=9.0),
        ]
        metrics = compute_metrics(results)
        assert metrics.median_rot_err_deg == pytest.approx(2.0)
        assert metrics.median_trans_err_m == pytest.approx(0.2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics([])


class TestCampaign:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            CampaignConfig(trials=0)
        with pytest.raises(ValueError):
            CampaignConfig(tiers=("impossible",))
        with pytest.raises(ValueError, match="tiers must name at least one value"):
            CampaignConfig(tiers=())
        with pytest.raises(ValueError, match="distance_fns must name at least one value"):
            CampaignConfig(distance_fns=())
        with pytest.raises(ValueError, match="^tiers must not repeat a value: 'easy'$"):
            CampaignConfig(tiers=("easy", "easy"))
        with pytest.raises(ValueError, match="^distance_fns must not repeat a value: 'graff_shifted'$"):
            CampaignConfig(distance_fns=(DistanceFn.GRAFF_SHIFTED, "graff_shifted"))  # equal once converted
        assert CampaignConfig(tiers=iter(["easy"])).tiers == ("easy",)  # checked once stored
        with pytest.raises(ValueError, match=r"overlap must lie in \[0, 1\]"):
            CampaignConfig(tiers=("easy",), overlap_hard=1.5)  # checked though hard is not run

    @pytest.mark.parametrize(
        "field, bad",
        [("seed", -1), ("n_planes", -1), ("clutter", -1), ("rho", -1.0), ("rho", np.nan)]
        + [(field, bad) for field in ("noise_dir_deg", "noise_disp_m", "overlap_medium", "target_mean", "centroid_extent")
           for bad in (-1.0, np.nan, np.inf)],
    )
    def test_scene_and_pair_values_checked_up_front(self, field, bad):
        with pytest.raises(ValueError):
            CampaignConfig(**{field: bad})

    def test_tier_table(self):
        assert TIER_TABLE["easy"] == (0.0, 0.9)
        assert TIER_TABLE["medium"] == (8.0, 0.7)
        assert TIER_TABLE["hard"] == (16.0, 0.5)

    def test_seed_derivation_is_stable(self):
        assert _derive_seeds(42, 0, 0) == _derive_seeds(42, 0, 0)
        assert _derive_seeds(42, 0, 0) != _derive_seeds(42, 0, 1)
        assert _derive_seeds(42, 1, 0) != _derive_seeds(42, 0, 0)

    def test_records_deterministic_and_worker_independent(self):
        cfg = CampaignConfig(seed=5, trials=2, tiers=("easy",), n_lines=3, n_planes=8, clutter=2)
        r1 = run_campaign(cfg, workers=1)
        r2 = run_campaign(cfg, workers=2)
        assert len(r1) == len(r2) == 2
        for a, b in zip(r1, r2):
            assert a.seed_label == b.seed_label
            assert a.tier == b.tier and a.distance_fn == b.distance_fn
            assert a.result.selected == b.result.selected
            assert a.result.objective == b.result.objective
            assert a.result.precision == b.result.precision
            assert (a.result.error is None) == (b.result.error is None)
            if a.result.error is not None:
                assert a.result.error.rot_deg == b.result.error.rot_deg
                assert a.result.error.trans_m == b.result.error.trans_m

    def test_pool_never_larger_than_the_job_list(self, monkeypatch):
        # A stand-in executor runs the jobs in-process and records the pool
        # size asked for, so no real processes are started.
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(scene_sim, "ProcessPoolExecutor", InlinePool)
        cfg = CampaignConfig(seed=5, trials=3, tiers=("easy",), n_lines=3, n_planes=8, clutter=2)
        pooled = run_campaign(cfg, workers=10_000)
        assert sizes == [3]
        serial = run_campaign(cfg, workers=1)
        assert sizes == [3]
        timeless = [replace(r, result=replace(r.result, duration_s=0.0)) for r in pooled + serial]
        assert timeless[:3] == timeless[3:]

    def test_multi_fn_campaign_shares_pairs(self):
        cfg = CampaignConfig(
            seed=6,
            trials=1,
            tiers=("easy",),
            distance_fns=(DistanceFn.GRAFF_SHIFTED, DistanceFn.GR_ONLY),
            n_lines=3,
            n_planes=8,
            clutter=2,
        )
        records = run_campaign(cfg)
        assert len(records) == 2
        assert records[0].result.n_candidates == records[1].result.n_candidates


class TestConfigIntegers:
    @pytest.mark.parametrize(
        "config, field, bad, message",
        [
            (SceneConfig, "n_lines", 2.5, "^n_lines must be an integer, got 2.5$"),
            (SceneConfig, "n_planes", 3.7, "^n_planes must be an integer, got 3.7$"),
            (SceneConfig, "seed", 1.5, "^seed must be an integer, got 1.5$"),
            (SceneConfig, "seed", -1, "^seed must be nonnegative$"),
            (PairConfig, "clutter", 2.5, "^clutter must be an integer, got 2.5$"),
            (PairConfig, "seed", np.float64(4.0), "^seed must be an integer"),
            (PairConfig, "seed", -1, "^seed must be nonnegative$"),
            (CampaignConfig, "trials", 1.5, "^trials must be an integer, got 1.5$"),
            (CampaignConfig, "seed", 1.5, "^seed must be an integer, got 1.5$"),
            (CampaignConfig, "clutter", 2.5, "^clutter must be an integer, got 2.5$"),
            (CampaignConfig, "n_lines", "7", "^n_lines must be an integer, got '7'$"),
        ],
    )
    def test_counts_and_seeds_must_be_integers(self, config, field, bad, message):
        with pytest.raises(ValueError, match=message):
            config(**{field: bad})

    def test_numpy_integer_counts_and_seeds_draw_as_python_ones(self):
        scene = generate_scene(SceneConfig(n_lines=np.int64(3), n_planes=np.uint8(5), seed=np.int32(7)))
        assert scans_equal(scene, generate_scene(SceneConfig(n_lines=3, n_planes=5, seed=7)))
        pair = make_loop_pair(scene, PairConfig(overlap=0.8, clutter=np.int16(2), seed=np.uint64(9)))
        twin = make_loop_pair(scene, PairConfig(overlap=0.8, clutter=2, seed=9))
        assert scans_equal(pair.scan_j, twin.scan_j) and pair.truth_pairs == twin.truth_pairs
