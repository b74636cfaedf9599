import numpy as np
import pytest

from conftest import random_transform
from graffassoc import (
    DegenerateConfigurationError,
    InsufficientMatchesError,
    LinePD,
    MatchSet,
    PlaneHesse,
    RigidTransform,
    VerifyThresholds,
    alignment_error,
    estimate_transform,
    rotation_about_axis,
    rotation_to_quaternion,
    transform_line,
    transform_plane,
    verify,
)


def random_pairs(rng, n_lines, n_planes, T, flip_signs=False):
    """Noise-free (line pairs, plane pairs) under ground-truth transform T."""
    line_pairs = []
    for _ in range(n_lines):
        src = LinePD(rng.normal(size=3), rng.uniform(-10, 10, 3))
        tgt = transform_line(src, T)
        if flip_signs and rng.uniform() < 0.5:
            tgt = LinePD(-tgt.a, tgt.p)
        line_pairs.append((src, tgt))
    plane_pairs = []
    for _ in range(n_planes):
        src = PlaneHesse(rng.normal(size=3), rng.uniform(-10, 10))
        tgt = transform_plane(src, T)
        plane_pairs.append((src, tgt))
    return line_pairs, plane_pairs


def random_matchset(rng, n_lines, n_planes, T, flip_signs=False):
    return MatchSet(*random_pairs(rng, n_lines, n_planes, T, flip_signs))


from conftest import rot_angle_rad  # noqa: E402  (stable small-angle measure)


class TestEstimateTransform:
    def test_three_planes_exact(self):
        rng = np.random.default_rng(0)
        T = random_transform(rng, span=10.0)
        matches = random_matchset(rng, 0, 3, T)
        est = estimate_transform(matches)
        assert rot_angle_rad(est.R, T.R) < 1e-10
        assert np.linalg.norm(est.t - T.t) < 1e-10

    def test_two_lines_one_plane_exact(self):
        rng = np.random.default_rng(1)
        T = random_transform(rng, span=10.0)
        matches = random_matchset(rng, 2, 1, T)
        est = estimate_transform(matches)
        assert rot_angle_rad(est.R, T.R) < 1e-8
        assert np.linalg.norm(est.t - T.t) < 1e-8

    def test_exact_recovery_random_mixes(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            T = random_transform(rng, span=20.0)
            n_lines = int(rng.integers(0, 4))
            n_planes = int(rng.integers(max(0, 3 - n_lines), 5))
            matches = random_matchset(rng, n_lines, n_planes, T)
            est = estimate_transform(matches)
            assert rot_angle_rad(est.R, T.R) < 1e-8
            assert np.linalg.norm(est.t - T.t) < 1e-8

    def test_sign_flips_do_not_matter(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            T = random_transform(rng, span=10.0)
            matches = random_matchset(rng, 3, 3, T, flip_signs=True)
            est = estimate_transform(matches)
            assert rot_angle_rad(est.R, T.R) < 1e-8
            assert np.linalg.norm(est.t - T.t) < 1e-8

    def test_plane_hesse_flip_is_identical_input(self):
        # (n, d) and (-n, -d) canonicalize to the same plane, so building the
        # target from flipped coordinates cannot change the estimate
        rng = np.random.default_rng(4)
        T = random_transform(rng, span=5.0)
        srcs = [PlaneHesse(rng.normal(size=3), rng.uniform(-5, 5)) for _ in range(4)]
        tgts = [transform_plane(s, T) for s in srcs]
        flipped = [PlaneHesse(-t.n, -t.d) for t in tgts]
        est1 = estimate_transform(MatchSet((), tuple(zip(srcs, tgts))))
        est2 = estimate_transform(MatchSet((), tuple(zip(srcs, flipped))))
        assert np.allclose(est1.R, est2.R)
        assert np.allclose(est1.t, est2.t)

    def test_reflection_resistant(self):
        # targets built with mirrored directions: sign resolution must still
        # produce a proper rotation, never a reflection
        rng = np.random.default_rng(5)
        T = random_transform(rng, span=2.0)
        _, plane_pairs = random_pairs(rng, 0, 4, T)
        mirrored = MatchSet((), tuple((src, PlaneHesse(-tgt.n, -tgt.d)) for src, tgt in plane_pairs))
        est = estimate_transform(mirrored)
        assert np.linalg.det(est.R) == pytest.approx(1.0, abs=1e-10)

    def test_too_few_matches(self):
        rng = np.random.default_rng(6)
        T = random_transform(rng)
        with pytest.raises(InsufficientMatchesError):
            estimate_transform(random_matchset(rng, 1, 1, T))
        with pytest.raises(InsufficientMatchesError):
            estimate_transform(MatchSet())

    def test_three_parallel_planes_degenerate(self):
        n = np.array([0.0, 0.0, 1.0])
        srcs = [PlaneHesse(n, d) for d in (1.0, 2.0, 5.0)]
        matches = MatchSet((), tuple((s, s) for s in srcs))
        with pytest.raises(DegenerateConfigurationError):
            estimate_transform(matches)

    def test_parallel_lines_degenerate(self):
        a = np.array([0.0, 0.0, 1.0])
        srcs = [LinePD(a, [x, 0.0, 0.0]) for x in (0.0, 1.0, 3.0)]
        matches = MatchSet(tuple((s, s) for s in srcs), ())
        with pytest.raises(DegenerateConfigurationError):
            estimate_transform(matches)

    def test_left_invariance_composition(self):
        rng = np.random.default_rng(7)
        T1 = random_transform(rng, span=5.0)
        extra = random_transform(rng, span=5.0)
        line_pairs, plane_pairs = random_pairs(rng, 2, 3, T1)
        # re-transform every target by `extra`: estimate should compose
        shifted = MatchSet(
            tuple((s, transform_line(t, extra)) for s, t in line_pairs),
            tuple((s, transform_plane(t, extra)) for s, t in plane_pairs),
        )
        est = estimate_transform(shifted)
        expected = extra.compose(T1)
        assert rot_angle_rad(est.R, expected.R) < 1e-8
        assert np.linalg.norm(est.t - expected.t) < 1e-8

    def test_estimate_is_proper_rotation(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            T = random_transform(rng)
            est = estimate_transform(random_matchset(rng, 2, 2, T))
            assert np.max(np.abs(est.R.T @ est.R - np.eye(3))) < 1e-10
            assert np.linalg.det(est.R) == pytest.approx(1.0, abs=1e-10)

    def test_independent_of_segmentation_metadata(self):
        # the estimator consumes infinite-geometry parameters only, so any
        # notion of patch extent or centroid cannot influence it
        rng = np.random.default_rng(11)
        T = random_transform(rng)
        line_pairs, plane_pairs = random_pairs(rng, 2, 3, T)
        est1 = estimate_transform(MatchSet(line_pairs, plane_pairs))
        est2 = estimate_transform(MatchSet(line_pairs, plane_pairs))
        assert np.array_equal(est1.R, est2.R)
        assert np.array_equal(est1.t, est2.t)


class TestAlignmentError:
    def test_identity(self):
        T = RigidTransform.identity()
        err = alignment_error(T, T)
        assert err.rot_deg == pytest.approx(0.0, abs=1e-12)
        assert err.trans_m == pytest.approx(0.0, abs=1e-12)

    def test_five_degree_rotation(self):
        rng = np.random.default_rng(12)
        truth = random_transform(rng)
        axis = rng.normal(size=3)
        est = RigidTransform(rotation_about_axis(axis, np.radians(5.0)) @ truth.R, truth.t)
        err = alignment_error(est, truth)
        assert err.rot_deg == pytest.approx(5.0, abs=1e-9)

    def test_translation_norm(self):
        truth = RigidTransform.identity()
        est = RigidTransform(np.eye(3), np.array([0.6, 0.8, 0.0]))
        assert alignment_error(est, truth).trans_m == pytest.approx(1.0, abs=1e-12)


class TestVerify:
    def test_small_errors_accept(self):
        rng = np.random.default_rng(13)
        truth = random_transform(rng)
        est = RigidTransform(
            rotation_about_axis(rng.normal(size=3), np.radians(0.3)) @ truth.R,
            truth.t + np.array([0.04, 0.0, 0.0]),
        )
        assert verify(est, truth)

    def test_rotation_over_threshold_rejects(self):
        truth = RigidTransform.identity()
        est = RigidTransform(rotation_about_axis([0, 0, 1], np.radians(5.1)), np.array([0.2, 0, 0]))
        assert not verify(est, truth)

    def test_boundary_is_strict(self):
        truth = RigidTransform.identity()
        est = RigidTransform(rotation_about_axis([1, 0, 0], np.radians(1.0)), np.array([1.0, 0, 0]))
        assert not verify(est, truth)

    def test_custom_thresholds(self):
        truth = RigidTransform.identity()
        est = RigidTransform(np.eye(3), np.array([1.5, 0, 0]))
        assert verify(est, truth, VerifyThresholds(max_rot_deg=5.0, max_trans_m=2.0))


class TestQuaternion:
    def test_identity(self):
        q = rotation_to_quaternion(np.eye(3))
        assert np.allclose(q, [1, 0, 0, 0])

    def test_round_trip_against_axis_angle(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            angle = rng.uniform(0, np.pi)
            R = rotation_about_axis(axis, angle)
            q = rotation_to_quaternion(R)
            expected = np.concatenate([[np.cos(angle / 2)], np.sin(angle / 2) * axis])
            if expected[0] < 0:
                expected = -expected
            assert np.allclose(q, expected, atol=1e-9) or np.allclose(q, -expected, atol=1e-9)
            assert q[0] >= 0.0
            assert np.linalg.norm(q) == pytest.approx(1.0, abs=1e-12)

    def test_half_turn_sign_convention(self):
        R = rotation_about_axis([0.0, 0.0, 1.0], np.pi)
        q = rotation_to_quaternion(R)
        assert q[0] == pytest.approx(0.0, abs=1e-9)
        nz = q[np.nonzero(np.abs(q) > 1e-9)[0][0]]
        assert nz > 0
