"""Global data association and registration for 3D line and plane landmarks.

Landmarks are represented as affine subspaces of R^3; an invariant subspace
distance scores pairwise geometric consistency between two scans, a
densest-subgraph solver selects mutually consistent correspondences, and the
relative rigid transform is recovered in closed form.
"""

from .clique_solver import (
    Selection,
    binarize_constraints,
    brute_force_densest,
    solve_densest,
)
from .consistency import (
    Candidate,
    ConsistencyParams,
    DistanceFn,
    Scan,
    build_affinity,
    consistency_score,
    generate_candidates,
    internal_distance_matrix,
    unique_matches,
    weight,
)
from .graff_core import (
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
from .registration import (
    AlignmentError,
    DegenerateConfigurationError,
    InsufficientMatchesError,
    MatchSet,
    VerifyThresholds,
    alignment_error,
    estimate_transform,
    rotation_to_quaternion,
    verify,
)
from .pipeline import Association, associate_scans, match_residuals
from .scan_io import SCHEMA_VERSION, ScanFormatError, load_scan, save_scan
from .scene_sim import (
    TIER_TABLE,
    CampaignConfig,
    CampaignMetrics,
    LoopPair,
    PairConfig,
    SceneConfig,
    TrialRecord,
    TrialResult,
    compute_metrics,
    generate_scene,
    make_loop_pair,
    run_campaign,
    run_trial,
)

__version__ = "0.1.0"
