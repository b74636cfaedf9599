import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_element, random_line, random_plane, random_transform
from graffassoc import (
    GraffElement,
    LinePD,
    PlaneHesse,
    RigidTransform,
    from_hesse,
    from_pd,
    graff_distance,
    grassmann_distance,
    orthogonal_displacement,
    principal_angles,
    rotation_about_axis,
    shifted_graff_distance,
    shifted_principal_angles,
    stiefel_coordinates,
    to_hesse,
    to_pd,
    transform_line,
    transform_plane,
)

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])


def z_line(point) -> GraffElement:
    return from_pd(LinePD(E3, point))


class TestOrthogonalDisplacement:
    def test_line_along_z(self):
        b0 = orthogonal_displacement(E3[:, None], [1.0, 0.0, 5.0])
        assert np.allclose(b0, [1.0, 0.0, 0.0], atol=1e-12)

    def test_plane_basis(self):
        b0 = orthogonal_displacement(np.column_stack([E1, E2]), [3.0, 4.0, 2.0])
        assert np.allclose(b0, [0.0, 0.0, 2.0], atol=1e-12)

    def test_result_is_orthogonal_to_basis(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            A = np.linalg.qr(rng.normal(size=(3, 2)))[0]
            b0 = orthogonal_displacement(A, rng.normal(size=3) * 10)
            assert np.max(np.abs(A.T @ b0)) < 1e-12

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            orthogonal_displacement(np.array([[1.0], [1.0], [0.0]]), [0.0, 0.0, 0.0])


class TestStiefelCoordinates:
    def test_line_through_origin(self):
        Y = stiefel_coordinates(z_line([0, 0, 0]), 1.0)
        assert np.allclose(Y[:, 0], [0, 0, 1, 0], atol=1e-12)
        assert np.allclose(Y[:, 1], [0, 0, 0, 1], atol=1e-12)

    def test_offset_line(self):
        Y = stiefel_coordinates(z_line([1, 0, 0]), 1.0)
        assert np.allclose(Y[:, 1], np.array([1, 0, 0, 1]) / np.sqrt(2), atol=1e-12)

    def test_offset_line_scaled(self):
        Y = stiefel_coordinates(z_line([1, 0, 0]), 2.0)
        assert np.allclose(Y[:, 1], np.array([0.5, 0, 0, 1]) / np.sqrt(1.25), atol=1e-12)

    def test_columns_orthonormal(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            el = random_element(rng)
            Y = stiefel_coordinates(el, rng.uniform(0.5, 60))
            assert np.max(np.abs(Y.T @ Y - np.eye(el.k + 1))) < 1e-10

    def test_last_row_structure(self):
        el = random_plane(np.random.default_rng(0))
        Y = stiefel_coordinates(el, 1.0)
        norm = np.linalg.norm(el.b0)
        assert np.allclose(Y[3, : el.k], 0.0)
        assert Y[3, el.k] == pytest.approx(1.0 / np.sqrt(1.0 + norm**2), abs=1e-12)

    def test_rejects_bad_rho(self):
        with pytest.raises(ValueError):
            stiefel_coordinates(z_line([0, 0, 0]), 0.0)
        with pytest.raises(ValueError):
            stiefel_coordinates(z_line([0, 0, 0]), -3.0)

    def test_rejects_nan_rho(self):
        with pytest.raises(ValueError, match="rho must be positive"):
            stiefel_coordinates(z_line([0, 0, 0]), float("nan"))
        with pytest.raises(ValueError, match="rho must be positive"):
            shifted_principal_angles(z_line([0, 0, 0]), z_line([1, 0, 0]), float("nan"))


class TestPrincipalAngles:
    def test_identical_frames(self):
        Y = stiefel_coordinates(random_plane(np.random.default_rng(5)), 2.0)
        assert np.allclose(principal_angles(Y, Y), 0.0, atol=1e-7)

    def test_perpendicular_lines_through_origin(self):
        Y1 = stiefel_coordinates(from_pd(LinePD(E1, np.zeros(3))), 1.0)
        Y2 = stiefel_coordinates(from_pd(LinePD(E2, np.zeros(3))), 1.0)
        th = principal_angles(Y1, Y2)
        assert np.allclose(th, [0.0, np.pi / 2], atol=1e-12)

    def test_angles_ascending_and_clamped(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            Y1 = stiefel_coordinates(random_element(rng), 1.0)
            Y2 = stiefel_coordinates(random_element(rng), 1.0)
            th = principal_angles(Y1, Y2)
            assert np.all(np.diff(th) >= 0)
            assert np.all((th >= 0) & (th <= np.pi / 2 + 1e-12))
            assert not np.any(np.isnan(th))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            principal_angles(np.eye(4)[:, :2], np.eye(3)[:, :2])

    def test_equal_directions_give_zero_not_the_arccos_floor(self):
        # arccos of a singular value one ulp below 1 is ~1.5e-8 rad; every
        # case below read 1.49e-8 or 2.58e-8 that way.
        d = np.array([0.1, 0.2, 0.7]) / np.linalg.norm([0.1, 0.2, 0.7])
        p = np.array([1.0, 2.0, 3.0])
        line = from_pd(LinePD(d, p))
        plane = from_hesse(PlaneHesse(d, 2.5))
        assert graff_distance(line, from_pd(LinePD(d, p + 5.3 * d)), 40.0) < 1e-15
        assert grassmann_distance(line, from_pd(LinePD(-d, p))) < 1e-15
        assert shifted_principal_angles(line, from_pd(LinePD(d, [4.0, -2.0, 3.0])), 40.0)[0] < 1e-15
        for distance in (graff_distance, shifted_graff_distance):
            assert distance(plane, plane, 40.0) < 1e-15
        assert grassmann_distance(plane, plane) < 1e-15

    def test_agrees_with_arccos_of_cosines_away_from_zero(self):
        rng = np.random.default_rng(15)
        compared = 0
        for _ in range(300):
            a, b = random_element(rng), random_element(rng)
            for Y1, Y2 in ((stiefel_coordinates(a, 40.0), stiefel_coordinates(b, 40.0)), (a.A, b.A), (b.A, a.A)):
                arccos = np.arccos(np.clip(np.linalg.svd(Y1.T @ Y2, compute_uv=False), 0.0, 1.0))
                far = arccos > 1e-6
                assert np.all(np.abs(principal_angles(Y1, Y2) - arccos)[far] <= 1e-9)
                compared += np.count_nonzero(far)
        assert compared > 900


class TestGraffDistance:
    def test_zero_for_identical(self):
        el = random_plane(np.random.default_rng(8))
        assert graff_distance(el, el, 1.0) < 1e-7

    def test_parallel_lines_quarter_turn(self):
        assert graff_distance(z_line([0, 0, 0]), z_line([1, 0, 0]), 1.0) == pytest.approx(
            np.pi / 4, abs=1e-12
        )

    def test_separation_sweep_matches_atan_and_saturates(self):
        prev = 0.0
        for s in [0.1, 0.5, 1, 2, 5, 10, 50, 200, 1e4]:
            d = graff_distance(z_line([0, 0, 0]), z_line([s, 0, 0]), 1.0)
            assert d == pytest.approx(np.arctan(s), abs=1e-10)
            assert d > prev
            prev = d
        assert prev < np.pi / 2

    def test_symmetry(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            a, b = random_element(rng), random_element(rng)
            assert graff_distance(a, b, 3.0) == pytest.approx(graff_distance(b, a, 3.0), abs=1e-12)

    def test_triangle_inequality_same_dimension(self):
        rng = np.random.default_rng(10)
        for _ in range(1000):
            make = random_line if rng.uniform() < 0.5 else random_plane
            a, b, c = make(rng), make(rng), make(rng)
            dab = graff_distance(a, b, 5.0)
            dbc = graff_distance(b, c, 5.0)
            dac = graff_distance(a, c, 5.0)
            assert dac <= dab + dbc + 1e-9


class TestShiftedDistance:
    def test_rigid_invariance(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            a, b = random_element(rng), random_element(rng)
            T = random_transform(rng)
            d0 = shifted_graff_distance(a, b, 40.0)
            d1 = shifted_graff_distance(a.transformed(T), b.transformed(T), 40.0)
            assert abs(d0 - d1) < 1e-9

    def test_far_parallel_lines(self):
        a = z_line([100.0, 50.0, 0.0])
        b = z_line([101.0, 50.0, 0.0])
        assert shifted_graff_distance(a, b, 1.0) == pytest.approx(np.pi / 4, abs=1e-12)

    def test_parallel_planes(self):
        p0 = from_hesse(PlaneHesse(E3, 0.0))
        p1 = from_hesse(PlaneHesse(E3, 1.0))
        assert shifted_graff_distance(p0, p1, 1.0) == pytest.approx(np.arctan(1.0), abs=1e-12)
        th = shifted_principal_angles(p0, p1, 1.0)
        assert np.allclose(th, [0.0, 0.0, np.arctan(1.0)], atol=1e-12)

    def test_atan_oracle(self):
        for rho in (1.0, 40.0):
            for s in (0.1, 1.0, 10.0, 80.0):
                d = shifted_graff_distance(z_line([0, 0, 0]), z_line([s, 0, 0]), rho)
                assert d == pytest.approx(np.arctan(s / rho), abs=1e-10)

    def test_cross_dimension(self):
        line = random_line(np.random.default_rng(1))
        plane = random_plane(np.random.default_rng(2))
        d = shifted_graff_distance(line, plane, 40.0)
        assert np.isfinite(d)
        assert d == pytest.approx(shifted_graff_distance(plane, line, 40.0), abs=1e-12)
        assert len(shifted_principal_angles(line, plane, 40.0)) == 2

    def test_monotone_in_rho(self):
        rng = np.random.default_rng(13)
        rhos = [0.5, 1, 2, 5, 10, 40, 100]
        for _ in range(100):
            a, b = random_element(rng), random_element(rng)
            ds = [shifted_graff_distance(a, b, r) for r in rhos]
            assert all(ds[i] >= ds[i + 1] - 1e-12 for i in range(len(ds) - 1))

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.0, 2 * np.pi), st.integers(0, 2**31 - 1))
    def test_gauge_invariance_of_plane_basis(self, angle, seed):
        rng = np.random.default_rng(seed)
        plane = random_plane(rng)
        other = random_element(rng)
        Q = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
        regauged = GraffElement(plane.A @ Q, plane.b0)
        for el in (plane, regauged):
            assert abs(
                shifted_graff_distance(plane, other, 7.0) - shifted_graff_distance(el, other, 7.0)
            ) < 1e-10
        assert abs(graff_distance(plane, other, 7.0) - graff_distance(regauged, other, 7.0)) < 1e-10

    def test_gauge_invariance_with_reflection(self):
        rng = np.random.default_rng(21)
        plane = random_plane(rng)
        other = random_element(rng)
        Q = np.array([[0.0, 1.0], [1.0, 0.0]])  # swaps basis vectors, det -1
        regauged = GraffElement(plane.A @ Q, plane.b0)
        assert abs(
            graff_distance(plane, other, 2.0) - graff_distance(regauged, other, 2.0)
        ) < 1e-10


class TestGrassmannDistance:
    def test_direction_only(self):
        a = from_pd(LinePD(E1, [5.0, 5.0, 5.0]))
        b = from_pd(LinePD(E2, [-3.0, 0.0, 1.0]))
        assert grassmann_distance(a, b) == pytest.approx(np.pi / 2, abs=1e-12)

    def test_offset_blind(self):
        rng = np.random.default_rng(14)
        el = random_plane(rng)
        moved = el.translated(rng.normal(size=3) * 20)
        assert grassmann_distance(el, moved) < 1e-7


class TestConversions:
    def test_hesse_round_trip(self):
        el = from_hesse(PlaneHesse(E3, 2.0))
        assert el.k == 2
        assert np.allclose(el.b0, [0, 0, 2], atol=1e-12)
        back = to_hesse(el)
        assert np.allclose(back.n, E3, atol=1e-12)
        assert back.d == pytest.approx(2.0, abs=1e-12)

    def test_line_round_trip(self):
        el = from_pd(LinePD(E1, [0.0, 3.0, 0.0]))
        assert el.k == 1
        line = to_pd(el)
        assert abs(abs(line.a @ E1) - 1.0) < 1e-12
        assert np.allclose(line.p, [0.0, 3.0, 0.0], atol=1e-12)

    def test_round_trip_random(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            plane = to_hesse(random_plane(rng))
            again = to_hesse(from_hesse(plane))
            assert np.allclose(plane.n, again.n, atol=1e-10)
            assert plane.d == pytest.approx(again.d, abs=1e-10)

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            LinePD([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            PlaneHesse([0.0, 0.0, 0.0], 1.0)

    def test_plane_canonical_d_nonnegative(self):
        plane = PlaneHesse(-E3, -2.0)
        assert plane.d == pytest.approx(2.0)
        assert np.allclose(plane.n, E3)

    def test_wrong_dimension_conversion(self):
        with pytest.raises(ValueError):
            to_pd(random_plane(np.random.default_rng(0)))
        with pytest.raises(ValueError):
            to_hesse(random_line(np.random.default_rng(0)))


class TestTransformLaws:
    def test_line_identity(self):
        line = LinePD(E3, [1.0, 2.0, 3.0])
        out = transform_line(line, RigidTransform.identity())
        assert np.allclose(out.a, line.a)
        assert np.allclose(out.p, [1.0, 2.0, 0.0], atol=1e-12)  # canonicalized

    def test_translation_along_direction_is_noop(self):
        line = LinePD(E3, [0.0, 0.0, 0.0])
        out = transform_line(line, RigidTransform(np.eye(3), np.array([0.0, 0.0, 7.0])))
        assert np.allclose(out.p, 0.0, atol=1e-12)

    def test_line_rotation_and_offset(self):
        T = RigidTransform(rotation_about_axis(E3, np.pi / 2), np.array([1.0, 0.0, 0.0]))
        out = transform_line(LinePD(E3, [0.0, 0.0, 0.0]), T)
        assert abs(abs(out.a @ E3) - 1.0) < 1e-12
        assert np.allclose(out.p, [1.0, 0.0, 0.0], atol=1e-12)

    def test_plane_identity(self):
        plane = PlaneHesse(E3, 2.0)
        out = transform_plane(plane, RigidTransform.identity())
        assert np.allclose(out.n, plane.n)
        assert out.d == pytest.approx(plane.d)

    def test_plane_translation_along_normal(self):
        out = transform_plane(PlaneHesse(E3, 2.0), RigidTransform(np.eye(3), np.array([0, 0, 3.0])))
        assert out.d == pytest.approx(5.0, abs=1e-12)

    def test_plane_rotation_preserves_incidence(self):
        T = RigidTransform(rotation_about_axis(E1, np.pi / 2), np.zeros(3))
        out = transform_plane(PlaneHesse(E3, 2.0), T)
        x = np.array([0.0, 0.0, 2.0])  # a point of the original plane
        assert out.n @ T.apply(x) == pytest.approx(out.d, abs=1e-12)
        assert out.d == pytest.approx(2.0, abs=1e-12)

    def test_transform_consistency_with_element_transform(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            T = random_transform(rng)
            line = LinePD(rng.normal(size=3), rng.uniform(-10, 10, 3))
            via_pd = from_pd(transform_line(line, T))
            via_el = from_pd(line).transformed(T)
            assert np.allclose(via_pd.b0, via_el.b0, atol=1e-9)
            assert abs(abs(float(via_pd.A[:, 0] @ via_el.A[:, 0])) - 1.0) < 1e-12
            plane = PlaneHesse(rng.normal(size=3), rng.uniform(-10, 10))
            via_hesse = from_hesse(transform_plane(plane, T))
            via_el = from_hesse(plane).transformed(T)
            assert np.allclose(via_hesse.b0, via_el.b0, atol=1e-9)
            assert np.allclose(to_hesse(via_hesse).n, to_hesse(via_el).n, atol=1e-9)


class TestElementConstruction:
    def test_rejects_sloppy_basis(self):
        A = np.column_stack([E1, E1 + 1e-4 * E2])
        with pytest.raises(ValueError):
            GraffElement.from_affine(A, np.zeros(3))

    def test_accepts_and_cleans_near_orthonormal(self):
        A = np.column_stack([E1, E2 + 1e-10 * E1])
        el = GraffElement.from_affine(A, [0.0, 0.0, 1.0])
        assert np.max(np.abs(el.A.T @ el.A - np.eye(2))) < 1e-12

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError):
            GraffElement.from_affine(np.eye(3), np.zeros(3))

    def test_rejection_messages(self):
        with pytest.raises(ValueError, match="^A must be finite$"):
            GraffElement.from_affine(np.array([[np.nan], [0.0], [1.0]]), np.zeros(3))
        with pytest.raises(ValueError, match="^basis is not orthonormal$"):
            GraffElement.from_affine(np.array([[1.0], [1.0], [0.0]]), np.zeros(2))
        with pytest.raises(ValueError, match=r"^b must have shape \(3,\), got \(2,\)$"):
            GraffElement.from_affine(E1[:, None], np.zeros(2))

    def test_elements_are_immutable(self):
        el = random_line(np.random.default_rng(17))
        with pytest.raises(ValueError):
            el.A[0, 0] = 5.0
        with pytest.raises(ValueError):
            el.b0[0] = 5.0

    def test_rigid_transform_validation(self):
        with pytest.raises(ValueError):
            RigidTransform(np.eye(3) * 1.1, np.zeros(3))
        reflection = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            RigidTransform(reflection, np.zeros(3))
