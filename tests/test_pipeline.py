import json
import tracemalloc

import numpy as np
import pytest

from conftest import LADDER, ladder_pair, random_line, random_plane, random_transform, rot_angle_rad
from graffassoc import (
    CampaignConfig,
    ConsistencyParams,
    DistanceFn,
    GraffElement,
    MatchSet,
    PairConfig,
    RigidTransform,
    Scan,
    SceneConfig,
    associate_scans,
    build_affinity,
    estimate_transform,
    generate_scene,
    make_loop_pair,
    match_residuals,
    rotation_about_axis,
    run_campaign,
    run_trial,
    solve_densest,
    to_hesse,
    to_pd,
    transform_line,
    transform_plane,
    verify,
)
from graffassoc.cli import main
from graffassoc.clique_solver import ROUNDING_RULES
from graffassoc import pipeline
from graffassoc.pipeline import _match_set
from graffassoc.scan_io import save_scan


def reference_matchset(scan_i, scan_j, pairs):
    """Per-object LinePD / PlaneHesse pairs, lines first."""
    line_pairs, plane_pairs = [], []
    for a, b in pairs:
        el_i, el_j = scan_i.objects[a], scan_j.objects[b]
        if el_i.k == 1:
            line_pairs.append((to_pd(el_i), to_pd(el_j)))
        else:
            plane_pairs.append((to_hesse(el_i), to_hesse(el_j)))
    return MatchSet(line_pairs, plane_pairs)


def reference_residuals(scan_i, scan_j, pairs, transform):
    """Per-match loop over the per-object forms, in `pairs` order."""
    angles, offsets = np.zeros(len(pairs)), np.zeros(len(pairs))
    for idx, (a, b) in enumerate(pairs):
        el_i, el_j = scan_i.objects[a], scan_j.objects[b]
        if el_i.k == 1:
            moved, target = transform_line(to_pd(el_i), transform), to_pd(el_j)
            angles[idx] = np.arccos(np.clip(abs(float(moved.a @ target.a)), 0.0, 1.0))
            proj = np.eye(3) - np.outer(target.a, target.a)
            offsets[idx] = float(np.linalg.norm(proj @ (moved.p - target.p)))
        else:
            moved, target = transform_plane(to_hesse(el_i), transform), to_hesse(el_j)
            dot = float(moved.n @ target.n)
            angles[idx] = np.arccos(np.clip(abs(dot), 0.0, 1.0))
            offsets[idx] = abs(moved.d - (1.0 if dot >= 0 else -1.0) * target.d)
    return angles, offsets


def flipped(el):
    """Same subspace with the opposite normal (planes) or direction (lines)."""
    return GraffElement(-el.A if el.k == 1 else el.A[:, ::-1], el.b0)


def noisy_mix(rng, n_lines, n_planes):
    """Scan i, a noisy moved copy j (some normals flipped, one plane through
    the origin) and the shuffled identity pairs.

    Direction noise stays at least 5 mrad: arccos turns a one-ulp change in
    a dot product into 1e-16 / sin(angle) rad, so two roundings of the same
    residual agree to 1e-12 only away from zero.
    """
    objects = [random_line(rng) for _ in range(n_lines)] + [random_plane(rng) for _ in range(n_planes)]
    objects[n_lines] = GraffElement(objects[n_lines].A, np.zeros(3))  # plane with d = 0
    T = random_transform(rng, span=20.0)
    moved = []
    for el in objects:
        A = rotation_about_axis(rng.normal(size=3), rng.uniform(0.005, 0.05)) @ (T.R @ el.A)
        b = T.R @ el.b0 + T.t + rng.normal(0.0, 0.05, 3)
        out = GraffElement.from_affine(A, b)
        moved.append(flipped(out) if rng.uniform() < 0.5 else out)
    pairs = [(k, k) for k in rng.permutation(len(objects)).tolist()]
    return Scan.from_elements("i", tuple(objects)), Scan.from_elements("j", tuple(moved)), pairs, T


class TestArrayPathOracles:
    def test_residuals_match_per_object_loop(self):
        rng = np.random.default_rng(40)
        for _ in range(50):
            scan_i, scan_j, pairs, T = noisy_mix(rng, int(rng.integers(0, 5)), int(rng.integers(1, 6)))
            got = match_residuals(_match_set(scan_i, scan_j, pairs), T)
            want = reference_residuals(scan_i, scan_j, pairs, T)
            assert np.max(np.abs(got[0] - want[0])) < 1e-12
            assert np.max(np.abs(got[1] - want[1])) < 1e-12

    def test_estimate_matches_per_object_matchset(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            scan_i, scan_j, pairs, T = noisy_mix(rng, int(rng.integers(0, 4)), int(rng.integers(3, 6)))
            got = estimate_transform(_match_set(scan_i, scan_j, pairs))
            want = estimate_transform(reference_matchset(scan_i, scan_j, pairs))
            assert np.max(np.abs(got.R - want.R)) < 1e-9
            assert np.max(np.abs(got.t - want.t)) < 1e-9
            assert rot_angle_rad(got.R, T.R) < 0.05

    def test_residual_angle_agrees_with_arccos_on_noisy_pairs(self):
        # The reference runs in extended precision and divides by the vectors'
        # norms: at the sub-mrad residuals here, rounding of a float64 dot or a
        # unit norm off by one ulp moves arccos by 1e-16 / sin(angle), up to
        # ~1e-12 rad (see noisy_mix).
        L = np.longdouble
        for s in range(5):
            pair = loop_pair(s)
            assoc = associate_scans(pair.scan_i, pair.scan_j)
            matches = _match_set(pair.scan_i, pair.scan_j, assoc.matches)
            angles, _ = match_residuals(matches, assoc.transform)
            src, tgt = matches.src_rep.astype(L) @ assoc.transform.R.T.astype(L), matches.tgt_rep.astype(L)
            norms = np.sqrt(np.einsum("na,na->n", src, src) * np.einsum("na,na->n", tgt, tgt))
            dot = np.einsum("na,na->n", src, tgt) / norms
            assert np.max(np.abs(angles - np.arccos(np.clip(np.abs(dot), 0.0, 1.0)))) < 1e-12

    def test_residual_angle_has_no_arccos_floor(self, tmp_path):
        # The noise-free criterion 8 pair: every true residual angle is at
        # rounding level, which arccos(|dot|) reports as up to 3.3e-8 rad.
        pair = make_loop_pair(generate_scene(SceneConfig(seed=21)), PairConfig(overlap=0.9, clutter=3, seed=22))
        assoc = associate_scans(pair.scan_i, pair.scan_j)
        assert assoc.transform is not None
        assert assoc.max_angle_residual_rad < 1e-12
        a, b, out = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "m.json"
        save_scan(a, pair.scan_i)
        save_scan(b, pair.scan_j)
        assert main(["match", str(a), str(b), "--output", str(out)]) == 0
        assert json.loads(out.read_text())["residuals"]["max_direction_angle_rad"] < 1e-12

    def test_associate_estimate_matches_per_object_matchset(self):
        pair = loop_pair(3)
        assoc = associate_scans(pair.scan_i, pair.scan_j)
        want = estimate_transform(reference_matchset(pair.scan_i, pair.scan_j, assoc.matches))
        assert np.max(np.abs(assoc.transform.R - want.R)) < 1e-9
        assert np.max(np.abs(assoc.transform.t - want.t)) < 1e-9


def loop_pair(s, **scene):
    return make_loop_pair(
        generate_scene(SceneConfig(seed=s, **scene)),
        PairConfig(
            baseline_m=8.0,
            overlap=0.7,
            clutter=5,
            noise_dir_rad=np.radians(0.5),
            noise_disp_m=0.05,
            seed=1000 + s,
        ),
    )


def moved_scan(scan, T):
    return Scan.from_elements(
        scan.id,
        tuple(el.transformed(T) for el in scan.objects),
        None if scan.centroids is None else T.apply(scan.centroids),
    )


FIXED_MOTION = RigidTransform(rotation_about_axis([1.0, 2.0, 3.0], 0.7), np.array([5.0, -3.0, 2.0]))


@pytest.mark.parametrize("seed", range(10))
class TestPipelineProperties:
    def test_permuting_scan_j_permutes_matches(self, seed):
        pair = loop_pair(seed)
        base = associate_scans(pair.scan_i, pair.scan_j)
        perm = np.random.default_rng(seed).permutation(len(pair.scan_j))
        new_index = np.argsort(perm)
        scan_j = Scan.from_elements(
            pair.scan_j.id,
            tuple(pair.scan_j.objects[p] for p in perm),
            tuple(pair.scan_j.centroids[p] for p in perm),
        )
        permuted = associate_scans(pair.scan_i, scan_j)
        assert permuted.matches == tuple(sorted((a, int(new_index[b])) for a, b in base.matches))
        assert np.max(np.abs(permuted.transform.R - base.transform.R)) < 1e-9
        assert np.max(np.abs(permuted.transform.t - base.transform.t)) < 1e-9

    def test_moving_scan_j_composes_the_estimate(self, seed):
        pair = loop_pair(seed)
        base = associate_scans(pair.scan_i, pair.scan_j)
        moved = associate_scans(pair.scan_i, moved_scan(pair.scan_j, FIXED_MOTION))
        expected = FIXED_MOTION.compose(base.transform)
        assert moved.matches == base.matches
        assert np.max(np.abs(moved.transform.R - expected.R)) < 1e-9
        assert np.max(np.abs(moved.transform.t - expected.t)) < 1e-9


@pytest.mark.parametrize("rounding", ROUNDING_RULES)
@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("fn", list(DistanceFn))
def test_swapping_the_scans_permutes_affinity_and_selection(seed, fn, rounding):
    # Only the affinity and the selection are swap-symmetric: the final
    # translation is a least-squares fit in the target frame, so the
    # matches after refinement may differ between the two directions.
    pair = loop_pair(seed)
    params = ConsistencyParams()
    M, cands = build_affinity(pair.scan_i, pair.scan_j, params, fn)
    M_swap, cands_swap = build_affinity(pair.scan_j, pair.scan_i, params, fn)
    index = {cand: k for k, cand in enumerate(cands)}
    perm = np.array([index[b, a] for a, b in cands_swap])
    assert np.array_equal(M_swap.view(np.uint64), M[np.ix_(perm, perm)].view(np.uint64))
    sel, sel_swap = solve_densest(M, rounding=rounding), solve_densest(M_swap, rounding=rounding)
    assert sorted(perm[list(sel_swap.indices)]) == sorted(sel.indices)
    assert abs(sel_swap.objective - sel.objective) <= 1e-12


@pytest.mark.parametrize("rung", range(len(LADDER)))
def test_pipeline_selects_with_mass_capped_rounding(rung, monkeypatch):
    # The two rounding rules pick different sets on every rung, so the
    # selection the pipeline reduces to one-to-one pins its rule.
    pair = ladder_pair(rung)
    reduced = []
    unique = pipeline.unique_matches

    def recording(candidates, indices, scores):
        reduced.append(indices)
        return unique(candidates, indices, scores)

    monkeypatch.setattr(pipeline, "unique_matches", recording)
    assoc = associate_scans(pair.scan_i, pair.scan_j)
    M, _ = build_affinity(pair.scan_i, pair.scan_j, ConsistencyParams())
    capped, greedy = solve_densest(M, rounding="mass_capped"), solve_densest(M, rounding="greedy_density")
    assert capped.indices != greedy.indices
    assert reduced == [capped.indices]
    assert assoc.objective == capped.objective


def test_associate_scans_skips_validation_and_packs_edges_once(monkeypatch):
    # build_affinity's M is valid by construction, and validating it again
    # costs about 12 ms at m = 2220: the pipeline solves past
    # `_validate_affinity`, and the solve packs its edge graph once.
    from graffassoc import clique_solver

    calls = {"validate": 0, "pack": 0}
    validate, pack = clique_solver._validate_affinity, clique_solver._edge_bits

    def counting(key, fn):
        def counted(M):
            calls[key] += 1
            return fn(M)

        return counted

    monkeypatch.setattr(clique_solver, "_validate_affinity", counting("validate", validate))
    monkeypatch.setattr(clique_solver, "_edge_bits", counting("pack", pack))
    pair = ladder_pair(2)
    for fn in DistanceFn:
        packs = calls["pack"]
        associate_scans(pair.scan_i, pair.scan_j, distance_fn=fn)
        assert calls["pack"] == packs + 1, fn
    assert calls["validate"] == 0
    solve_densest(build_affinity(pair.scan_i, pair.scan_j, ConsistencyParams())[0])
    assert calls == {"validate": 1, "pack": 6}  # the public entry point does validate

def run_match(tmp_path, scan_a, scan_b, *extra):
    a, b, out = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "out.json"
    save_scan(a, scan_a)
    save_scan(b, scan_b)
    code = main(["match", str(a), str(b), "--output", str(out), *extra])
    return code, (json.loads(out.read_text()) if out.exists() else None)


class TestEdgeInputs:
    def test_empty_scan(self, tmp_path):
        pair = loop_pair(0)
        empty = Scan.from_elements("empty", ())
        for scan_a, scan_b in ((empty, pair.scan_j), (pair.scan_i, empty), (empty, empty)):
            assoc = associate_scans(scan_a, scan_b)
            assert assoc.n_candidates == 0 and assoc.transform is None
            assert assoc.failure.startswith("only 0 correspondences")
            code, doc = run_match(tmp_path, scan_a, scan_b)
            assert code == 2 and doc["num_candidates"] == 0
            assert doc["failure_reason"].startswith("only 0 correspondences")

    def test_lines_only_against_planes_only(self, tmp_path):
        lines = generate_scene(SceneConfig(n_lines=6, n_planes=0, seed=1))
        planes = generate_scene(SceneConfig(n_lines=0, n_planes=6, seed=2))
        assoc = associate_scans(lines, planes)
        assert assoc.n_candidates == 0
        assert assoc.failure.startswith("only 0 correspondences")
        code, doc = run_match(tmp_path, lines, planes)
        assert code == 2 and doc["num_candidates"] == 0

    @pytest.mark.parametrize("n_lines, n_planes", [(0, 12), (12, 0)])
    def test_single_kind_pairs_match(self, tmp_path, n_lines, n_planes):
        pair = loop_pair(4, n_lines=n_lines, n_planes=n_planes)
        assoc = associate_scans(pair.scan_i, pair.scan_j)
        assert assoc.n_candidates == len(pair.scan_i) * len(pair.scan_j)
        assert assoc.transform is not None and verify(assoc.transform, pair.truth)
        code, doc = run_match(tmp_path, pair.scan_i, pair.scan_j)
        assert code == 0 and doc["correspondences"] == [list(c) for c in assoc.matches]

    @pytest.mark.parametrize("fn", [DistanceFn.EUCLIDEAN_CENTROID, DistanceFn.GR_TIMES_EUCLIDEAN])
    def test_centroid_fns_need_centroids(self, tmp_path, capsys, fn):
        pair = loop_pair(5)
        bare_j = Scan.from_elements(pair.scan_j.id, pair.scan_j.objects)
        with pytest.raises(ValueError, match="centroid"):
            associate_scans(pair.scan_i, bare_j, distance_fn=fn)
        code, doc = run_match(tmp_path, pair.scan_i, bare_j, "--distance-fn", fn.value)
        assert code == 1 and doc is None
        assert "centroid" in capsys.readouterr().err


def test_no_production_path_builds_an_element(tmp_path, monkeypatch, capsys):
    """Scans are stored as arrays: loading, saving, scene generation, matching,
    distances and campaigns never construct a GraffElement."""

    def refuse(self):
        raise AssertionError("a GraffElement was constructed")

    monkeypatch.setattr(GraffElement, "__post_init__", refuse)
    with pytest.raises(AssertionError):
        GraffElement(np.eye(3)[:, :1], np.zeros(3))
    pair = make_loop_pair(
        generate_scene(SceneConfig(seed=8)),
        PairConfig(baseline_m=8.0, overlap=0.8, clutter=4, noise_dir_rad=0.01, noise_disp_m=0.05, seed=9),
    )
    a, b, out = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "m.json"
    save_scan(a, pair.scan_i)
    save_scan(b, pair.scan_j)
    for fn in DistanceFn:
        assert main(["match", str(a), str(b), "--distance-fn", fn.value, "--output", str(out)]) in (0, 2)
    assert main(["distance", str(a), "0", "20"]) == 0
    assert "distance_rad" in capsys.readouterr().out
    for fn in DistanceFn:
        assert run_trial(pair, distance_fn=fn).n_candidates > 0
    assert len(run_campaign(CampaignConfig(trials=1, tiers=("easy",)))) == 1


def peak_over_m2_doubles_at_m_2220(pair):
    """associate_scans on a pair with m = 2220 candidates: the bytes it holds
    at its peak above its input, in m x m float arrays (M alone is 1.0)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assoc = associate_scans(pair.scan_i, pair.scan_j)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    m = assoc.n_candidates
    assert m == 2220 and assoc.failure is None
    return peak / (8 * m * m)


def test_peak_memory_at_m_2220_at_most_1_10_m_by_m_doubles():
    # associate_scans on a 14-line / 46-plane pair with clutter 10 (m = 2220)
    # holds at most 1.10 m x m float arrays' worth of bytes above its input:
    # 1.079 measured with the first penalty at theta/32 (2% slack), where
    # stage 0 shrinks its support sooner and builds a smaller first block;
    # 1.205 from the penalty 0.25, with the solver's held columns capped at
    # |C| and read from M column by column; 1.295 uncapped, with the edge graph
    # packed as bits and each refresh block's rows released before the next;
    # 1.403 with an m x m bool edge graph.
    scene = generate_scene(SceneConfig(n_lines=14, n_planes=46, seed=4))
    pair = make_loop_pair(scene, PairConfig(baseline_m=8.0, overlap=0.8, clutter=10, seed=5))
    ratio = peak_over_m2_doubles_at_m_2220(pair)
    assert ratio <= 1.10, ratio


def match_large_pair(k):
    """Pair k of the benchmark's match_large inputs: the first draw of the
    seed key (2205, 3, k, draw) whose pair has exactly 2220 candidates."""
    for draw in range(200):
        scene_seed, pair_seed = (int(s) for s in np.random.SeedSequence([2205, 3, k, draw]).generate_state(2))
        scene = generate_scene(SceneConfig(n_lines=14, n_planes=46, seed=scene_seed))
        config = PairConfig(
            baseline_m=8.0, overlap=0.8, clutter=10, noise_dir_rad=np.radians(0.5), noise_disp_m=0.05, seed=pair_seed
        )
        pair = make_loop_pair(scene, config)
        kinds_i, kinds_j = np.asarray(pair.scan_i.kinds), np.asarray(pair.scan_j.kinds)
        if sum(np.count_nonzero(kinds_i == d) * np.count_nonzero(kinds_j == d) for d in (1, 2)) == 2220:
            return pair
    raise AssertionError(f"no match_large pair {k} with m = 2220 in 200 draws")


def test_peak_memory_at_m_2220_on_the_worst_benchmark_pair_at_most_1_24_m_by_m_doubles():
    # The benchmark's match_large pair 5 (draw 1) peaks highest of its eight
    # pairs: 1.216 m x m float arrays measured (2% slack).  It peaked at
    # 1.252 when the first block after stage 0's wide opening, which has no
    # column norms to screen by, screened its columns by its own pass and
    # read them in a second one; that block now holds no column off C.
    ratio = peak_over_m2_doubles_at_m_2220(match_large_pair(5))
    assert ratio <= 1.24, ratio
