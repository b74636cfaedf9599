import dataclasses
import tracemalloc

import numpy as np
import pytest

from conftest import random_element, random_line, random_plane, random_rotation, random_transform
from graffassoc import (
    Candidate,
    ConsistencyParams,
    DistanceFn,
    LinePD,
    PlaneHesse,
    Scan,
    binarize_constraints,
    build_affinity,
    consistency_score,
    from_hesse,
    from_pd,
    generate_candidates,
    grassmann_distance,
    internal_distance_matrix,
    shifted_graff_distance,
    to_hesse,
    to_pd,
    weight,
)
from graffassoc import clique_solver, consistency
from graffassoc.graff_core import subspace_gap
from graffassoc.consistency import (
    _blockwise_affinity,
    _centroid_distance_matrix,
    _gr_distance_matrix,
    _rep_vector_angle_matrix,
    unique_matches,
)


def make_scan(rng, n_lines, n_planes, scan_id="s", centroids=False):
    objects = [random_line(rng) for _ in range(n_lines)]
    objects += [random_plane(rng) for _ in range(n_planes)]
    cents = tuple(rng.uniform(-20, 20, 3) for _ in objects) if centroids else None
    return Scan.from_elements(id=scan_id, objects=tuple(objects), centroids=cents)


def transformed_scan(scan, T, scan_id="t"):
    return Scan.from_elements(
        id=scan_id,
        objects=tuple(el.transformed(T) for el in scan.objects),
        centroids=None if scan.centroids is None else tuple(T.apply(c) for c in scan.centroids),
    )


SPAN_RANK_TOL = 1e-8  # graff_core's rank tolerance for a joint direction span


def near_parallel_pairs(rng):
    """(element, element, t): two lines, a plane and a line, a line and a
    plane, or two planes turned t from parallel, for t = 0 and 0.5, 1 and 2 times the rank
    tolerance, offset h = 0 (coplanar, or a line in a plane) or h = 2.5 m
    along their common normal.  Each pair has its own random frame.  With
    h > 0, a parallel decision other than the rank test's moves the gap by
    about h: the line and plane pairs meet at 2x and are 2.5 m apart below."""

    def line(d, p):
        return from_pd(LinePD(d, p))

    def plane(n, p):
        return from_hesse(PlaneHesse(n, float(n @ p)))

    for t in (0.0, 0.5 * SPAN_RANK_TOL, SPAN_RANK_TOL, 2.0 * SPAN_RANK_TOL):
        c, s = np.cos(t), np.sin(t)
        for h in (0.0, 2.5):
            for build in (
                lambda d, u, w, p: (line(d, p), line(c * d + s * u, p + h * w)),
                lambda d, u, w, p: (plane(w, p), line(c * u + s * w, p + h * w)),
                lambda d, u, w, p: (line(c * u + s * w, p + h * w), plane(w, p)),
                lambda d, u, w, p: (plane(w, p), plane(c * w + s * u, p + h * w)),
            ):
                yield *build(*random_rotation(rng).T, rng.uniform(-30.0, 30.0, 3)), t


def parallel_objects():
    """Three lines along d, -d and 2d and two planes with normals +-d/|d|."""
    d = np.array([0.1, 0.2, 0.7])  # r . r rounds below 1 here, where arccos reads 2.6e-8
    n = d / np.linalg.norm(d)
    return (
        from_pd(LinePD(d, [1.0, 2.0, 3.0])),
        from_pd(LinePD(-d, [0.0, 5.0, -1.0])),
        from_pd(LinePD(2.0 * d, [4.0, 0.0, 0.0])),
        from_hesse(PlaneHesse(n, 2.0)),
        from_hesse(PlaneHesse(-n, 7.0)),
    )


def scan_arrays(**changes):
    """Arrays of a valid two-line, one-plane scan, with some replaced."""
    fields = dict(
        kinds=[1, 1, 2],
        rep=[[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 0.6, 0.8]],
        b0=[[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 1.2, 1.6]],
        centroids=[[1.0, 0.0, 5.0], [3.0, 2.0, 0.0], [1.0, 1.2, 1.6]],
    )
    fields.update(changes)
    return fields


class TestScanArrays:
    def test_valid_arrays_are_frozen(self):
        assert [f.name for f in dataclasses.fields(Scan)] == ["id", "kinds", "rep", "b0", "centroids"]
        scan = Scan("s", **scan_arrays())
        assert len(scan) == 3 and scan.kinds.dtype.kind == "i"
        for name in ("kinds", "rep", "b0", "centroids"):
            with pytest.raises(ValueError):
                getattr(scan, name)[0] = 0

    @pytest.mark.parametrize(
        "changes, message",
        [
            (dict(rep=[[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 0.6]]), "rep must be rows of 3 numbers"),
            (dict(b0=[1.0, 0.0, 0.0]), "b0 must be rows of 3 numbers"),
            (dict(centroids=np.zeros((3, 2))), "centroids must be rows of 3 numbers"),
        ],
        ids=["ragged-rep", "flat-b0", "centroids-n-x-2"],
    )
    def test_rows_must_be_n_by_3(self, changes, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            Scan("s", **scan_arrays(**changes))

    @pytest.mark.parametrize(
        "changes, message",
        [
            (dict(kinds=[1, 2]), "rep has 3 rows for 2 objects"),
            (dict(b0=np.zeros((4, 3))), "b0 has 4 rows for 3 objects"),
            (dict(centroids=np.zeros((2, 3))), "centroids has 2 rows for 3 objects"),
        ],
        ids=["kinds", "b0", "centroids"],
    )
    def test_lengths_must_agree(self, changes, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Scan("s", **scan_arrays(**changes))

    @pytest.mark.parametrize("kinds", [[1, 3, 2], [0, 1, 2], [1, 1.5, 2], [[1, 1, 2]]])
    def test_kinds_must_be_1_or_2(self, kinds):
        with pytest.raises(ValueError, match=r"^kinds must be a sequence of 1 \(line\) or 2 \(plane\)$"):
            Scan("s", **scan_arrays(kinds=kinds))

    @pytest.mark.parametrize("name", ["rep", "b0", "centroids"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_values_must_be_finite(self, name, bad):
        values = np.array(scan_arrays()[name])
        values[1, 2] = bad
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            Scan("s", **scan_arrays(**{name: values}))

    def test_objects_view(self):
        rng = np.random.default_rng(3)
        elements = [random_line(rng), random_plane(rng), random_line(rng), random_plane(rng)]
        scan = Scan.from_elements("s", elements)
        view = scan.objects
        assert view is scan.objects  # built once
        with pytest.raises(AttributeError):
            scan.objects = ()
        for el, orig, rep, b0 in zip(view, elements, scan.rep, scan.b0):
            assert el.k == orig.k and np.array_equal(el.b0, b0)
            if el.k == 1:
                assert el.A.tobytes() == rep[:, None].tobytes() == orig.A.tobytes()
            else:  # the same plane, in from_hesse's basis of the stored normal
                assert np.abs(el.A.T @ rep).max() < 1e-15
                assert shifted_graff_distance(el, orig, 40.0) < 1e-7
                assert to_hesse(el).n @ to_hesse(orig).n > 1 - 1e-15


class TestCandidates:
    def test_default_scale_count(self):
        rng = np.random.default_rng(0)
        a = make_scan(rng, 7, 23)
        b = make_scan(rng, 7, 23)
        assert len(generate_candidates(a, b)) == 7 * 7 + 23 * 23  # 578

    def test_empty_scan(self):
        rng = np.random.default_rng(1)
        assert generate_candidates(make_scan(rng, 0, 0), make_scan(rng, 3, 3)) == []

    def test_lines_only_product(self):
        rng = np.random.default_rng(2)
        cands = generate_candidates(make_scan(rng, 2, 0), make_scan(rng, 3, 0))
        assert len(cands) == 6
        assert cands == sorted(cands)  # lexicographic

    def test_no_cross_kind_candidates(self):
        rng = np.random.default_rng(3)
        a = make_scan(rng, 2, 2)
        b = make_scan(rng, 2, 2)
        for cand in generate_candidates(a, b):
            assert a.objects[cand.a].k == b.objects[cand.b].k


class TestWeight:
    def test_zero_score(self):
        assert weight(0.0, ConsistencyParams()) == 1.0

    def test_gate_boundary_is_zero(self):
        params = ConsistencyParams()
        assert weight(params.epsilon, params) == 0.0
        assert weight(params.epsilon + 1e-9, params) == 0.0

    def test_kernel_value_at_sigma(self):
        params = ConsistencyParams()
        assert weight(params.sigma, params) == pytest.approx(np.exp(-0.5), abs=1e-12)

    def test_just_under_gate_is_positive(self):
        params = ConsistencyParams()
        assert weight(params.epsilon - 1e-9, params) > 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            weight(-0.1, ConsistencyParams())
        with pytest.raises(ValueError, match="^consistency score must be nonnegative$"):
            weight(float("nan"), ConsistencyParams())

    def test_params_validated(self):
        with pytest.raises(ValueError):
            ConsistencyParams(epsilon=0.0)
        with pytest.raises(ValueError):
            ConsistencyParams(sigma=-1.0)
        with pytest.raises(ValueError):
            ConsistencyParams(rho=0.0)
        # positive, but sigma * sigma underflows to 0 and the kernels would divide by it
        with pytest.raises(ValueError, match="^sigma must square to a positive float, got 1e-170$"):
            ConsistencyParams(sigma=1e-170)
        assert ConsistencyParams(sigma=1e-160).sigma == 1e-160  # sigma * sigma subnormal, still above 0

    @pytest.mark.parametrize("name", ["epsilon", "sigma", "rho"])
    def test_nan_params_rejected(self, name):
        with pytest.raises(ValueError, match="^epsilon, sigma and rho must all be positive$"):
            ConsistencyParams(**{name: float("nan")})

    def test_infinite_gate_and_scale_accepted(self):
        # an infinite epsilon means no gate, an infinite rho no displacement term
        params = ConsistencyParams(epsilon=np.inf, rho=np.inf)
        assert weight(10.0, params) == np.exp(-(10.0 * 10.0) / (2.0 * params.sigma * params.sigma))


class TestConsistencyScore:
    def test_true_correspondences_score_zero(self):
        rng = np.random.default_rng(4)
        scan_i = make_scan(rng, 3, 3)
        scan_j = transformed_scan(scan_i, random_transform(rng))
        params = ConsistencyParams()
        for a in range(3):
            for b in range(3, 6):
                c = consistency_score(Candidate(a, a), Candidate(b, b), scan_i, scan_j, params)
                assert c < 1e-9

    def test_identical_candidates_score_zero(self):
        rng = np.random.default_rng(5)
        scan_i = make_scan(rng, 2, 2)
        scan_j = make_scan(rng, 2, 2)
        u = Candidate(0, 1)
        assert consistency_score(u, u, scan_i, scan_j, ConsistencyParams()) == 0.0

    def test_cross_dimension_internal_pairs_supported(self):
        rng = np.random.default_rng(6)
        scan_i = make_scan(rng, 2, 2)
        scan_j = make_scan(rng, 2, 2)
        # one candidate is line-line, the other plane-plane
        c = consistency_score(Candidate(0, 0), Candidate(2, 2), scan_i, scan_j, ConsistencyParams())
        assert np.isfinite(c) and c >= 0

    def test_noisy_copy_scores_below_gate(self):
        from graffassoc import PairConfig, generate_scene, make_loop_pair, SceneConfig

        scene = generate_scene(SceneConfig(seed=30))
        pair = make_loop_pair(
            scene,
            PairConfig(
                baseline_m=8.0,
                overlap=1.0,
                noise_dir_rad=np.radians(0.5),
                noise_disp_m=0.05,
                seed=31,
            ),
        )
        params = ConsistencyParams()
        truth = dict(pair.truth_pairs)
        idx_i = sorted(truth)
        scores = []
        for x in range(len(idx_i)):
            for y in range(x + 1, len(idx_i)):
                u1 = Candidate(idx_i[x], truth[idx_i[x]])
                u2 = Candidate(idx_i[y], truth[idx_i[y]])
                scores.append(consistency_score(u1, u2, pair.scan_i, pair.scan_j, params))
        scores = np.array(scores)
        assert scores.max() < params.epsilon
        assert scores.min() > 0.0


class TestInternalDistanceMatrix:
    def test_matches_pairwise_calls(self):
        rng = np.random.default_rng(7)
        scan = make_scan(rng, 4, 5)
        D = internal_distance_matrix(scan, 17.0)
        for x in range(9):
            for y in range(9):
                expect = 0.0 if x == y else shifted_graff_distance(scan.objects[x], scan.objects[y], 17.0)
                assert D[x, y] == pytest.approx(expect, abs=1e-10)

    def test_gr_matrix_matches_pairwise(self):
        rng = np.random.default_rng(8)
        scan = make_scan(rng, 3, 4)
        D = _gr_distance_matrix(scan)
        for x in range(7):
            for y in range(7):
                expect = 0.0 if x == y else grassmann_distance(scan.objects[x], scan.objects[y])
                assert D[x, y] == pytest.approx(expect, abs=1e-7)

    def test_rep_vector_matrix(self):
        rng = np.random.default_rng(9)
        scan = make_scan(rng, 2, 2)
        D = _rep_vector_angle_matrix(scan)
        assert D.shape == (4, 4)
        assert np.allclose(D, D.T)
        assert np.allclose(np.diag(D), 0.0)
        assert np.all((D >= 0) & (D <= np.pi / 2 + 1e-12))

        # Oracle: arccos of the per-object direction or normal.
        scan = make_scan(rng, 8, 8)
        reps = [to_pd(el).a if el.k == 1 else to_hesse(el).n for el in scan.objects]
        oracle = np.array([[np.arccos(min(abs(float(r @ s)), 1.0)) for s in reps] for r in reps])
        np.fill_diagonal(oracle, 0.0)
        assert np.max(np.abs(_rep_vector_angle_matrix(scan) - oracle)) <= 1e-12

        # Representatives equal up to sign: exactly 0.
        scan = Scan.from_elements("parallel", parallel_objects())
        D = _rep_vector_angle_matrix(scan)
        r = scan.rep
        same = np.array([[np.array_equal(a, b) or np.array_equal(a, -b) for b in r] for a in r])
        assert same[:3, :3].all()  # plane normals come out of a cross product
        assert np.all(D[same] == 0.0)

        # Unlike the Grassmann angle (line to plane), the baseline compares a
        # line's direction with a plane's normal.
        theta = 0.3
        line = from_pd(LinePD([np.sin(theta), 0.0, np.cos(theta)], [0.0, 0.0, 0.0]))
        across = from_pd(LinePD([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]))
        floor = from_hesse(PlaneHesse([0.0, 0.0, 1.0], 1.0))
        scan = Scan.from_elements("mixed", (line, across, floor))
        D = _rep_vector_angle_matrix(scan)
        assert D[0, 2] == pytest.approx(theta, abs=1e-12)
        assert D[1, 2] == pytest.approx(np.pi / 2, abs=1e-12)
        assert _gr_distance_matrix(scan)[0, 2] == pytest.approx(np.pi / 2 - theta, abs=1e-12)

    def test_centroid_matrix_requires_metadata(self):
        rng = np.random.default_rng(10)
        with pytest.raises(ValueError):
            _centroid_distance_matrix(make_scan(rng, 1, 1))
        scan = make_scan(rng, 1, 1, centroids=True)
        D = _centroid_distance_matrix(scan)
        assert D[0, 1] == pytest.approx(np.linalg.norm(scan.centroids[0] - scan.centroids[1]))

    @pytest.mark.parametrize("seed", range(3))
    def test_closed_form_matches_per_object_oracle(self, seed):
        # Random lines and planes plus pairs built within 1e-6 rad of
        # parallel, where the oracle's arccos floors at ~1.5e-8 rad: their
        # angle is checked against the angle they were built with.
        rng = np.random.default_rng(60 + seed)
        rho = 40.0
        objects = [random_line(rng) for _ in range(10)] + [random_plane(rng) for _ in range(10)]
        built = {}
        for el_a, el_b, t in near_parallel_pairs(rng):
            built[len(objects), len(objects) + 1] = t
            objects += [el_a, el_b]
        scan = Scan.from_elements("s", tuple(objects))
        D, D_gr = internal_distance_matrix(scan, rho), _gr_distance_matrix(scan)
        assert np.all(np.diag(D) == 0.0) and np.all(np.diag(D_gr) == 0.0)
        n = len(objects)
        for x in range(n):
            for y in range(n):
                el_x, el_y = objects[x], objects[y]
                t = built.get((min(x, y), max(x, y)))
                if x == y:
                    expect, expect_gr = 0.0, 0.0
                elif t is None:
                    expect, expect_gr = shifted_graff_distance(el_x, el_y, rho), grassmann_distance(el_x, el_y)
                else:
                    expect, expect_gr = np.hypot(t, np.arctan(subspace_gap(el_x, el_y) / rho)), t
                assert abs(D[x, y] - expect) <= 1e-10, (x, y)
                assert abs(D_gr[x, y] - expect_gr) <= 1e-10, (x, y)

    def test_symmetric_bitwise(self):
        # Swapping the scans permutes the affinity exactly only if every
        # internal distance matrix is symmetric bit for bit, parallel and
        # near-parallel pairs included.
        rng = np.random.default_rng(63)
        objects = [*parallel_objects(), *(random_element(rng) for _ in range(8))]
        objects += [el for el_a, el_b, _ in near_parallel_pairs(rng) for el in (el_a, el_b)]
        scan = Scan.from_elements("s", tuple(objects), tuple(rng.uniform(-20, 20, 3) for _ in objects))
        for D in (
            internal_distance_matrix(scan, 40.0),
            _gr_distance_matrix(scan),
            _rep_vector_angle_matrix(scan),
            _centroid_distance_matrix(scan),
        ):
            assert np.array_equal(D.view(np.uint64), D.T.view(np.uint64))

    def test_empty_scan(self):
        assert internal_distance_matrix(Scan.from_elements("e", ()), 1.0).shape == (0, 0)

    def test_nan_rho_rejected(self):
        scan = make_scan(np.random.default_rng(30), 1, 1)
        with pytest.raises(ValueError, match="rho must be positive"):
            internal_distance_matrix(scan, float("nan"))


class TestBuildAffinity:
    def test_identical_scans_give_unit_block(self):
        rng = np.random.default_rng(11)
        scan_i = make_scan(rng, 2, 3)
        scan_j = transformed_scan(scan_i, random_transform(rng))
        M, cands = build_affinity(scan_i, scan_j, ConsistencyParams())
        true_idx = [k for k, c in enumerate(cands) if c.a == c.b]
        assert len(true_idx) == 5
        block = M[np.ix_(true_idx, true_idx)]
        assert np.min(block) > 1.0 - 1e-9

    def test_shape_and_structure(self):
        rng = np.random.default_rng(12)
        scan_i = make_scan(rng, 2, 2)
        scan_j = make_scan(rng, 3, 1)
        M, cands = build_affinity(scan_i, scan_j, ConsistencyParams())
        m = 2 * 3 + 2 * 1
        assert M.shape == (m, m) and len(cands) == m
        assert np.allclose(np.diag(M), 1.0)
        assert np.array_equal(M, M.T)
        assert M.min() >= 0.0 and M.max() <= 1.0

    def test_entries_match_scalar_path(self):
        rng = np.random.default_rng(13)
        scan_i = make_scan(rng, 2, 2)
        scan_j = make_scan(rng, 2, 2)
        params = ConsistencyParams(rho=10.0)
        M, cands = build_affinity(scan_i, scan_j, params)
        for p in range(len(cands)):
            for q in range(p + 1, len(cands)):
                c_pq = consistency_score(cands[p], cands[q], scan_i, scan_j, params)
                c_qp = consistency_score(cands[q], cands[p], scan_i, scan_j, params)
                assert M[p, q] == pytest.approx(weight(max(c_pq, c_qp), params), abs=1e-9)

    def test_zero_exactly_where_gated(self):
        rng = np.random.default_rng(14)
        scan_i = make_scan(rng, 2, 3)
        scan_j = make_scan(rng, 2, 3)
        params = ConsistencyParams()
        M, cands = build_affinity(scan_i, scan_j, params)
        for p in range(len(cands)):
            for q in range(p + 1, len(cands)):
                c = max(
                    consistency_score(cands[p], cands[q], scan_i, scan_j, params),
                    consistency_score(cands[q], cands[p], scan_i, scan_j, params),
                )
                assert (M[p, q] == 0.0) == (c >= params.epsilon)

    def test_invariant_to_common_transform(self):
        rng = np.random.default_rng(15)
        scan_i = make_scan(rng, 3, 4)
        scan_j = make_scan(rng, 3, 4)
        M0, _ = build_affinity(scan_i, scan_j, ConsistencyParams())
        T = random_transform(rng)
        M1, _ = build_affinity(transformed_scan(scan_i, T), scan_j, ConsistencyParams())
        M2, _ = build_affinity(scan_i, transformed_scan(scan_j, T), ConsistencyParams())
        assert np.max(np.abs(M1 - M0)) < 1e-9
        assert np.max(np.abs(M2 - M0)) < 1e-9

    def test_equivariant_to_relabeling(self):
        rng = np.random.default_rng(16)
        scan_i = make_scan(rng, 2, 3)
        scan_j = make_scan(rng, 2, 3)
        M0, cands0 = build_affinity(scan_i, scan_j, ConsistencyParams())
        perm = rng.permutation(len(scan_i.objects))
        relabeled = Scan.from_elements("r", tuple(scan_i.objects[p] for p in perm))
        M1, cands1 = build_affinity(relabeled, scan_j, ConsistencyParams())
        # map each relabeled candidate back to the original indexing
        back = {new: int(old) for new, old in enumerate(perm)}
        lookup = {c: k for k, c in enumerate(cands0)}
        for k1, c in enumerate(cands1):
            k0 = lookup[Candidate(back[c.a], c.b)]
            for l1, d in enumerate(cands1):
                l0 = lookup[Candidate(back[d.a], d.b)]
                assert M1[k1, l1] == pytest.approx(M0[k0, l0], abs=1e-9)

    def test_planted_inliers_dominate(self):
        # Planted scenario: 10 exact inliers amid wrong pairings and clutter.
        # The 0.2 rad gate cannot reject 95% of outlier pairs (distances all
        # live in [0, ~1.6] rad), so the operative contrast is the weights:
        # the inlier block sits at 1 while cross entries stay near zero.
        # Thresholds frozen from simulation over seeds {17, 42, 99, 5}:
        # gated fraction 0.35..0.47, mean cross weight 0.11..0.20.
        from graffassoc import PairConfig, SceneConfig, generate_scene, make_loop_pair

        scene = generate_scene(SceneConfig(n_lines=5, n_planes=5, seed=17))
        pair = make_loop_pair(scene, PairConfig(overlap=1.0, clutter=2, seed=18))
        M, cands = build_affinity(pair.scan_i, pair.scan_j, ConsistencyParams())
        truth = set(pair.truth_pairs)
        inlier = [k for k, c in enumerate(cands) if (c.a, c.b) in truth]
        outlier = [k for k in range(len(cands)) if k not in inlier]
        assert len(inlier) == 10
        block = M[np.ix_(inlier, inlier)]
        assert np.min(block) > 0.9
        cross = M[np.ix_(inlier, outlier)]
        assert np.mean(cross == 0.0) >= 0.30
        assert float(cross.mean()) < 0.25
        assert float(np.min(block)) > float(cross.max()) - 1e-9

    def test_empty(self):
        M, cands = build_affinity(Scan.from_elements("a", ()), Scan.from_elements("b", ()), ConsistencyParams())
        assert M.shape == (0, 0) and cands == []

    def test_all_distance_functions_produce_valid_affinity(self):
        rng = np.random.default_rng(18)
        scan_i = make_scan(rng, 2, 3, centroids=True)
        scan_j = make_scan(rng, 2, 3, centroids=True)
        for fn in DistanceFn:
            M, cands = build_affinity(scan_i, scan_j, ConsistencyParams(), fn)
            assert M.shape == (len(cands), len(cands))
            assert np.array_equal(M, M.T)
            assert M.min() >= 0.0 and M.max() <= 1.0

    def test_candidate_cap_guard(self):
        rng = np.random.default_rng(20)
        scan_i = make_scan(rng, 2, 2)
        scan_j = make_scan(rng, 2, 2)
        M, cands = build_affinity(scan_i, scan_j, ConsistencyParams(), max_candidates=8)
        assert len(cands) == 8
        with pytest.raises(ValueError):
            build_affinity(scan_i, scan_j, ConsistencyParams(), max_candidates=7)

    def test_centroid_fn_without_metadata_raises(self):
        rng = np.random.default_rng(19)
        scan_i = make_scan(rng, 1, 2)
        scan_j = make_scan(rng, 1, 2)
        for fn in (DistanceFn.EUCLIDEAN_CENTROID, DistanceFn.GR_TIMES_EUCLIDEAN):
            with pytest.raises(ValueError):
                build_affinity(scan_i, scan_j, ConsistencyParams(), fn)


def _reference_affinity(scan_i, scan_j, params, distance_fn):
    """The builder before the blockwise kernel: whole m x m score grids, exp
    over every entry, then the gate as a mask.  Kept as the bitwise oracle."""

    def grid(D_i, D_j):
        C = np.abs(D_i[np.ix_(a_idx, a_idx)] - D_j[np.ix_(b_idx, b_idx)])
        return np.maximum(C, C.T)

    cands = generate_candidates(scan_i, scan_j)
    if not cands:
        return np.zeros((0, 0))
    a_idx, b_idx = np.array(cands).T
    if distance_fn is DistanceFn.GR_TIMES_EUCLIDEAN:
        C_th = grid(_gr_distance_matrix(scan_i), _gr_distance_matrix(scan_j))
        C_r = grid(_centroid_distance_matrix(scan_i) / params.rho, _centroid_distance_matrix(scan_j) / params.rho)
        s2 = params.sigma * params.sigma
        M = np.exp(-(C_r * C_r) / s2) * np.exp(-(C_th * C_th) / s2)
        M[(C_th >= params.epsilon) | (C_r >= params.epsilon)] = 0.0
    else:
        distances = {
            DistanceFn.GRAFF_SHIFTED: lambda scan: internal_distance_matrix(scan, params.rho),
            DistanceFn.GR_ONLY: _gr_distance_matrix,
            DistanceFn.NORMAL_DOT_DIRECTION: _rep_vector_angle_matrix,
            DistanceFn.EUCLIDEAN_CENTROID: lambda scan: _centroid_distance_matrix(scan) / params.rho,
        }[distance_fn]
        C = grid(distances(scan_i), distances(scan_j))
        M = np.exp(-(C * C) / (2.0 * params.sigma * params.sigma))
        M[C >= params.epsilon] = 0.0
    np.fill_diagonal(M, 1.0)
    return M


def _noisy_copy(rng, scan):
    """scan moved by a rigid transform, with perturbed offsets and centroids,
    so that both gated and ungated candidate pairs occur."""
    T = random_transform(rng)
    objects = tuple(el.translated(rng.normal(scale=0.05, size=3)).transformed(T) for el in scan.objects)
    cents = tuple(T.apply(c + rng.normal(scale=0.1, size=3)) for c in scan.centroids)
    return Scan.from_elements("j", objects, cents)


def _blocked_pair(seed, n_lines, n_planes):
    rng = np.random.default_rng(seed)
    scan_i = make_scan(rng, n_lines, n_planes, centroids=True)
    return scan_i, _noisy_copy(rng, scan_i)


class TestBlockwiseAffinity:
    # (lines, planes) per scan and the row-block size; m = lines^2 + planes^2
    CASES = {
        "m0": (0, 0, None),
        "m1": (1, 0, None),
        "below_one_block": (3, 5, 35),         # m = 34
        "one_block": (3, 5, 34),
        "two_blocks": (3, 5, 17),
        "one_past_a_block": (3, 5, 33),
        "default_rows_exact": (0, 8, None),    # m = 64
        "default_rows_plus_one": (1, 8, None),  # m = 65
        "default_rows_two": (8, 8, None),      # m = 128
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("fn", list(DistanceFn))
    def test_bitwise_equal_to_reference(self, monkeypatch, case, fn):
        n_lines, n_planes, rows = self.CASES[case]
        if rows is not None:
            monkeypatch.setattr(consistency, "_AFFINITY_ROWS", rows)
        scan_i, scan_j = _blocked_pair(40, n_lines, n_planes)
        params = ConsistencyParams()
        M, cands = build_affinity(scan_i, scan_j, params, fn)
        m = n_lines**2 + n_planes**2
        assert len(cands) == m
        if case.startswith("default_rows"):
            rows = consistency._AFFINITY_ROWS
            assert m in (rows, rows + 1, 2 * rows)
        ref = _reference_affinity(scan_i, scan_j, params, fn)
        assert M.shape == ref.shape
        assert np.array_equal(M.view(np.uint64), ref.view(np.uint64))
        assert np.array_equal(M, M.T)
        assert np.all(np.diag(M) == 1.0)
        if m > 1:
            assert 0.0 < np.mean(M == 0.0) < 1.0  # both gated and ungated pairs

    @pytest.mark.parametrize("fn", list(DistanceFn))
    def test_bitwise_equal_on_a_scene_pair(self, fn):
        from graffassoc import PairConfig, SceneConfig, generate_scene, make_loop_pair

        scene = generate_scene(SceneConfig(seed=21))
        pair = make_loop_pair(scene, PairConfig(overlap=0.9, clutter=3, seed=22))
        for params in (ConsistencyParams(), ConsistencyParams(epsilon=np.inf, rho=np.inf)):
            M, cands = build_affinity(pair.scan_i, pair.scan_j, params, fn)
            assert 400 <= len(cands) <= 600 and len(cands) % consistency._AFFINITY_ROWS != 0
            ref = _reference_affinity(pair.scan_i, pair.scan_j, params, fn)
            assert np.array_equal(M.view(np.uint64), ref.view(np.uint64))
            assert np.array_equal(M, M.T)
            assert np.all(np.diag(M) == 1.0)
            if params.epsilon == 0.2:
                assert 0.0 < np.mean(M == 0.0) < 1.0  # both gated and ungated pairs

    @pytest.mark.parametrize(
        "epsilon, sigma",
        [(0.2, 0.02), (1.0, 0.01), (np.inf, 0.02)],
        ids=["defaults", "wide_gate", "no_gate"],
    )
    @pytest.mark.parametrize("form", ["one_term", "two_term_first", "two_term_second"])
    @np.errstate(over="ignore")  # one ulp below an infinite gate, C * C overflows to inf
    def test_gate_boundary(self, epsilon, sigma, form):
        # C one ulp below epsilon keeps exp(-(C * C) / denom) bit for bit;
        # C at or above epsilon is gated to exactly 0.
        below = np.nextafter(epsilon, 0.0)
        values = [below, epsilon] + ([np.nextafter(epsilon, np.inf)] if np.isfinite(epsilon) else [])
        n = len(values) + 1
        D_i = np.zeros((n, n))
        D_i[0, 1:] = D_i[1:, 0] = values
        idx = np.arange(n)
        other = epsilon / 3 if np.isfinite(epsilon) else 0.1
        D_other = np.full((n, n), other)
        np.fill_diagonal(D_other, 0.0)
        zeros = np.zeros((n, n))
        if form == "one_term":
            denom = 2.0 * sigma * sigma
            M = _blockwise_affinity([(D_i, zeros, denom)], idx, idx, epsilon)
            other_factor = 1.0
        else:
            denom = sigma * sigma
            terms = [(D_i, zeros, denom), (D_other, zeros, denom)]
            M = _blockwise_affinity(terms if form == "two_term_first" else terms[::-1], idx, idx, epsilon)
            other_factor = np.exp(np.array([-(other * other) / denom]))[0]
        factor = np.exp(np.array([-(below * below) / denom]))[0]
        expected = factor * other_factor if form == "two_term_first" else other_factor * factor
        assert M[0, 1].view(np.uint64) == np.float64(expected).view(np.uint64)
        assert np.all(M[0, 2:] == 0.0) and np.all(M[2:, 0] == 0.0)
        assert M[0, 1] == M[1, 0]

    @pytest.mark.parametrize("fn", [DistanceFn.GRAFF_SHIFTED, DistanceFn.GR_TIMES_EUCLIDEAN])
    def test_peak_memory_near_one_matrix(self, fn):
        # 10 x 10 lines + 30 x 30 planes: m = 1000; the bound is 1.5 m^2 doubles
        rng = np.random.default_rng(50)
        scan_i = make_scan(rng, 10, 30, centroids=True)
        scan_j = make_scan(rng, 10, 30, centroids=True)
        tracemalloc.start()
        try:
            M, cands = build_affinity(scan_i, scan_j, ConsistencyParams(), fn)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        m = len(cands)
        assert m == 1000
        assert peak <= 1.5 * 8 * m * m


def _reference_blockwise_affinity(terms, a_idx, b_idx, epsilon):
    """`_blockwise_affinity` as it stood before its leaner passes (two-step
    fancy gathers, a mask started from np.ones, the exponent negated and then
    divided).  Kept as the bitwise oracle for the kernel."""
    m = len(a_idx)
    M = np.empty((m, m))
    for r0 in range(0, m, consistency._AFFINITY_ROWS):
        r1 = min(r0 + consistency._AFFINITY_ROWS, m)
        a_r, b_r, a_c, b_c = a_idx[r0:r1], b_idx[r0:r1], a_idx[r0:], b_idx[r0:]
        block = M[r0:r1, r0:]
        keep = np.ones(block.shape, dtype=bool)
        for t, (D_i, D_j, denom) in enumerate(terms):
            C = D_i[a_r][:, a_c] - D_j[b_r][:, b_c]
            np.abs(C, out=C)
            keep &= C < epsilon
            np.multiply(C, C, out=C)
            np.negative(C, out=C)
            np.divide(C, denom, out=C)
            np.maximum(C, -(epsilon * epsilon) / denom, out=C)
            if t == 0:
                np.exp(C, out=block)
            else:
                block *= np.exp(C, out=C)
        block *= keep
        M[r1:, r0:r1] = M[r0:r1, r1:].T
    np.fill_diagonal(M, 1.0)
    return M


def _random_terms(rng, n, epsilon, two_terms):
    """Symmetric within-scan distance matrices (zero diagonal) whose
    differences fall on both sides of epsilon, as kernel terms."""

    def distances():
        D = rng.uniform(0.0, 2.0 * epsilon, (n, n))
        D = (D + D.T) / 2.0
        np.fill_diagonal(D, 0.0)
        return D

    if two_terms:
        return [(distances(), distances(), 0.02**2), (distances(), distances(), 0.02**2)]
    return [(distances(), distances(), 2.0 * 0.02**2)]


class TestLeanAffinityKernel:
    @pytest.mark.parametrize("fn", list(DistanceFn))
    def test_scan_pairs_bitwise(self, monkeypatch, fn):
        from graffassoc import PairConfig, SceneConfig, generate_scene, make_loop_pair

        for seed in (21, 31):
            pair = make_loop_pair(generate_scene(SceneConfig(seed=seed)), PairConfig(clutter=4, seed=seed + 1))
            M, _ = build_affinity(pair.scan_i, pair.scan_j, ConsistencyParams(), fn)
            with monkeypatch.context() as patch:
                patch.setattr(consistency, "_blockwise_affinity", _reference_blockwise_affinity)
                ref, _ = build_affinity(pair.scan_i, pair.scan_j, ConsistencyParams(), fn)
            assert M.tobytes() == ref.tobytes()
            assert 0.0 < np.mean(M == 0.0) < 1.0  # both gated and ungated pairs

    @pytest.mark.parametrize("m", [1, 63, 64, 65])
    @pytest.mark.parametrize("two_terms", [False, True], ids=["one_term", "two_terms"])
    def test_direct_calls_bitwise(self, m, two_terms):
        assert consistency._AFFINITY_ROWS == 64
        rng = np.random.default_rng(m)
        terms = _random_terms(rng, 9, 0.2, two_terms)
        a_idx, b_idx = rng.integers(0, 9, m), rng.integers(0, 9, m)
        M = _blockwise_affinity(terms, a_idx, b_idx, 0.2)
        assert M.tobytes() == _reference_blockwise_affinity(terms, a_idx, b_idx, 0.2).tobytes()
        if m > 1:
            assert 0.0 < np.mean(M == 0.0) < 1.0

    @pytest.mark.parametrize("two_terms", [False, True], ids=["one_term", "two_terms"])
    def test_fully_gated_pair(self, two_terms):
        # Every pair of distinct objects differs by 1 > epsilon between the scans.
        n = 70
        idx = np.arange(n)
        far = np.ones((n, n))
        np.fill_diagonal(far, 0.0)
        terms = [(np.zeros((n, n)), far, 2.0 * 0.02**2)] * (2 if two_terms else 1)
        M = _blockwise_affinity(terms, idx, idx, 0.2)
        assert M.tobytes() == _reference_blockwise_affinity(terms, idx, idx, 0.2).tobytes()
        assert M.tobytes() == np.eye(n).tobytes()


def packed_graph(M):
    """binarize_constraints(M) as rows of bits, the form the solver takes."""
    return np.packbits(binarize_constraints(M), axis=1, bitorder="little")


class TestAffinityGraph:
    @pytest.mark.parametrize("fn", list(DistanceFn))
    def test_edges_equal_binarized_affinity(self, fn):
        # The edge graph the solve packs from the kernel's M, one bit per
        # pair, is bitwise binarize_constraints(M) packed, also where an
        # ungated weight underflows to 0 (sigma = 1e-3: exp(-C^2 / 2 sigma^2)
        # is 0 from C of about 0.04, below the gate at 0.2).
        from graffassoc import PairConfig, SceneConfig, generate_scene, make_loop_pair

        pair = make_loop_pair(generate_scene(SceneConfig(seed=21)), PairConfig(clutter=4, seed=22))
        counts = []
        for params in (ConsistencyParams(), ConsistencyParams(sigma=1e-3)):
            M = build_affinity(pair.scan_i, pair.scan_j, params, fn)[0]
            m, edges = M.shape[0], clique_solver._edge_bits(M)
            assert edges.dtype == np.uint8 and edges.shape == (m, (m + 7) // 8)
            assert edges.tobytes() == packed_graph(M).tobytes()
            counts.append(int(np.unpackbits(edges).sum()))
        assert counts[1] < counts[0]

    # (lines, planes) of scan i, then of scan j: m = lines_i * lines_j + planes_i * planes_j
    PADDING = {0: (1, 0, 0, 1), 1: (1, 0, 1, 0), 7: (7, 0, 1, 0), 8: (2, 2, 2, 2), 9: (3, 0, 3, 0), 17: (4, 1, 4, 1)}

    @pytest.mark.parametrize("m", sorted(PADDING))
    def test_padded_rows(self, m):
        # Rows of ceil(m / 8) bytes: the bits past m in each row's last byte
        # are 0, and any rows unpack to those of binarize_constraints(M).
        sizes = self.PADDING[m]
        rng = np.random.default_rng(m)
        scan_i = make_scan(rng, sizes[0], sizes[1], centroids=True)
        scan_j = make_scan(rng, sizes[2], sizes[3], centroids=True)
        for fn in DistanceFn:
            M = build_affinity(scan_i, scan_j, ConsistencyParams(epsilon=0.6), fn)[0]
            edges = clique_solver._edge_bits(M)
            assert M.shape == (m, m) and edges.dtype == np.uint8 and edges.shape == (m, (m + 7) // 8)
            assert edges.tobytes() == packed_graph(M).tobytes()
            assert not np.unpackbits(edges, axis=1, bitorder="little")[:, m:].any()
            for rows in (slice(None), np.arange(m)[::-1], np.arange(m) % 2 == 0):
                assert np.array_equal(clique_solver._edge_rows(edges, rows, m), binarize_constraints(M)[rows])


class TestUniqueMatches:
    def test_keeps_higher_scored_duplicate(self):
        cands = [Candidate(0, 0), Candidate(0, 1), Candidate(1, 1)]
        scores = np.array([0.9, 0.5, 0.8])
        kept = unique_matches(cands, [0, 1, 2], scores)
        assert kept == (Candidate(0, 0), Candidate(1, 1))

    def test_respects_both_sides(self):
        cands = [Candidate(0, 0), Candidate(1, 0), Candidate(1, 2)]
        scores = np.array([0.4, 0.9, 0.3])
        kept = unique_matches(cands, [0, 1, 2], scores)
        assert kept == (Candidate(1, 0),)

    def test_deterministic_tie_break(self):
        cands = [Candidate(0, 0), Candidate(0, 1)]
        scores = np.array([0.5, 0.5])
        assert unique_matches(cands, [0, 1], scores) == (Candidate(0, 0),)
