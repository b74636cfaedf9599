import numpy as np

from graffassoc import (
    GraffElement,
    LinePD,
    PairConfig,
    PlaneHesse,
    RigidTransform,
    SceneConfig,
    from_hesse,
    from_pd,
    generate_scene,
    make_loop_pair,
    rotation_about_axis,
)


def rot_angle_rad(R1: np.ndarray, R2: np.ndarray) -> float:
    """Geodesic angle between rotations; atan2 form stays accurate near zero
    where the arccos((tr-1)/2) form floors at ~sqrt(eps)."""
    rel = R1.T @ R2
    skew = 0.5 * np.array([rel[2, 1] - rel[1, 2], rel[0, 2] - rel[2, 0], rel[1, 0] - rel[0, 1]])
    return float(np.arctan2(np.linalg.norm(skew), (np.trace(rel) - 1.0) / 2.0))


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    axis = rng.normal(size=3)
    return rotation_about_axis(axis, rng.uniform(0.0, np.pi))


def random_transform(rng: np.random.Generator, span: float = 50.0) -> RigidTransform:
    return RigidTransform(random_rotation(rng), rng.uniform(-span, span, size=3))


def random_line(rng: np.random.Generator, span: float = 30.0) -> GraffElement:
    return from_pd(LinePD(rng.normal(size=3), rng.uniform(-span, span, size=3)))


def random_plane(rng: np.random.Generator, span: float = 30.0) -> GraffElement:
    n = rng.normal(size=3)
    n /= np.linalg.norm(n)
    return from_hesse(PlaneHesse(n, rng.uniform(-span, span)))


def random_element(rng: np.random.Generator, span: float = 30.0) -> GraffElement:
    return random_line(rng, span) if rng.uniform() < 0.5 else random_plane(rng, span)


# (direction noise deg, offset noise m, clutter, overlap), the match_small ladder.
LADDER = [(0.5 + 1.5 * f, 0.05 + 0.15 * f, int(round(3 + 11 * f)), 0.8 - 0.2 * f) for f in (0.0, 0.25, 0.5, 0.75, 1.0)]


def ladder_pair(rung: int, scene_seed: int | None = None, pair_seed: int | None = None):
    """A 4-line, 10-plane loop pair at one rung of the ladder."""
    noise_deg, noise_m, clutter, overlap = LADDER[rung]
    return make_loop_pair(
        generate_scene(SceneConfig(n_lines=4, n_planes=10, seed=rung if scene_seed is None else scene_seed)),
        PairConfig(baseline_m=8.0, overlap=overlap, clutter=clutter, noise_dir_rad=np.radians(noise_deg),
                   noise_disp_m=noise_m, seed=1000 + rung if pair_seed is None else pair_seed),
    )
