"""Output checks and quality aggregation for the benchmark.

Every operation's result is checked against what the program promises
(exit code agrees with the document, correspondences in range, same kind
and one-to-one, accepted transforms are proper rotations, campaign record
counts).  A violated check marks the operation failed; failed operations
make up `error_rate`.  Quality is scored against the simulator's ground
truth, independently of the program's own verification code.
"""

from __future__ import annotations

import math

import numpy as np

from graffassoc import AlignmentError, RigidTransform, TrialResult, VerifyThresholds, compute_metrics

# Tolerance on R'R = I and det R = 1 for a returned rotation.
ROTATION_TOL = 1e-6

THRESHOLDS = VerifyThresholds()


def check_rotation(R) -> list[str]:
    R = np.asarray(R, dtype=float)
    if R.shape != (3, 3) or not np.all(np.isfinite(R)):
        return [f"rotation is not a finite 3x3 matrix: shape {R.shape}"]
    problems = []
    if np.max(np.abs(R.T @ R - np.eye(3))) > ROTATION_TOL:
        problems.append("rotation is not orthonormal")
    if abs(float(np.linalg.det(R)) - 1.0) > ROTATION_TOL:
        problems.append(f"rotation is improper: det {float(np.linalg.det(R)):.6g}")
    return problems


def check_pairs(pairs, kinds_a, kinds_b) -> list[str]:
    """Correspondences index existing objects of the same kind, one-to-one."""
    problems = []
    seen_a, seen_b = set(), set()
    for pair in pairs:
        if (not isinstance(pair, (list, tuple)) or len(pair) != 2
                or not all(isinstance(x, int) and not isinstance(x, bool) for x in pair)):
            problems.append(f"correspondence {pair!r} is not a pair of integers")
            continue
        a, b = pair
        if not (0 <= a < len(kinds_a) and 0 <= b < len(kinds_b)):
            problems.append(f"correspondence {pair!r} out of range ({len(kinds_a)}, {len(kinds_b)})")
            continue
        if kinds_a[a] != kinds_b[b]:
            problems.append(f"correspondence {pair!r} pairs a line with a plane")
        if a in seen_a or b in seen_b:
            problems.append(f"correspondence {pair!r} is not one-to-one")
        seen_a.add(a)
        seen_b.add(b)
    return problems


def expected_candidates(kinds_a, kinds_b) -> int:
    """Number of same-kind object pairings between two scans."""
    return sum(kinds_a.count(k) * kinds_b.count(k) for k in (1, 2))


def transform_errors(R, t, truth: RigidTransform) -> AlignmentError:
    """Geodesic rotation error (degrees) and translation error (m)."""
    cos_angle = (float(np.trace(truth.R.T @ np.asarray(R, dtype=float))) - 1.0) / 2.0
    rot = math.degrees(math.acos(min(1.0, max(-1.0, cos_angle))))
    return AlignmentError(rot, float(np.linalg.norm(np.asarray(t, dtype=float) - truth.t)))


def trial_result(m, matches, objective, R, t, truth, truth_pairs, duration_s) -> TrialResult:
    """Score one returned association against ground truth."""
    truth_set = set(truth_pairs)
    matches = tuple(tuple(p) for p in matches)
    n_true = sum(1 for p in matches if p in truth_set)
    failed = R is None
    error = None if failed else transform_errors(R, t, truth)
    accept = not failed and error.rot_deg < THRESHOLDS.max_rot_deg and error.trans_m < THRESHOLDS.max_trans_m
    return TrialResult(
        n_candidates=m,
        selected=matches,
        n_true_inliers=n_true,
        precision=n_true / len(matches) if matches else 0.0,
        recall=n_true / len(truth_set) if truth_set else 0.0,
        objective=objective,
        accept=accept,
        failed=failed,
        error=error,
        duration_s=duration_s,
    )


def check_match_doc(doc, exit_code, kinds_a, kinds_b) -> list[str]:
    """Checks on one `graffassoc match` result document and exit code."""
    if exit_code not in (0, 2):
        return [f"match exited {exit_code}"]
    if not isinstance(doc, dict):
        return ["match wrote no result document"]
    status = doc.get("status")
    if (exit_code, status) not in ((0, "ok"), (2, "failed")):
        return [f"exit code {exit_code} disagrees with status {status!r}"]
    if not isinstance(doc.get("correspondences"), list):
        return ["correspondences is not a list"]
    if not isinstance(doc.get("objective"), (int, float)) or not math.isfinite(doc["objective"]):
        return ["objective is not a finite number"]
    problems = []
    if doc.get("num_candidates") != expected_candidates(kinds_a, kinds_b):
        problems.append(f"num_candidates {doc.get('num_candidates')!r} != {expected_candidates(kinds_a, kinds_b)}")
    problems += check_pairs(doc["correspondences"], kinds_a, kinds_b)
    if status == "ok":
        problems += check_rotation(doc.get("rotation"))
        t = np.asarray(doc.get("translation"), dtype=float)
        if t.shape != (3,) or not np.all(np.isfinite(t)):
            problems.append("translation is not a finite 3-vector")
        if len(doc["correspondences"]) < 3:
            problems.append("ok result with fewer than 3 correspondences")
    elif doc.get("rotation") is not None or not doc.get("failure_reason"):
        problems.append("failed result carries a rotation or lacks a failure reason")
    return problems


def check_association(assoc, kinds_a, kinds_b) -> list[str]:
    """Checks on one `associate_scans` result."""
    problems = []
    if assoc.n_candidates != expected_candidates(kinds_a, kinds_b):
        problems.append(f"n_candidates {assoc.n_candidates} != {expected_candidates(kinds_a, kinds_b)}")
    problems += check_pairs(assoc.matches, kinds_a, kinds_b)
    if (assoc.transform is None) == (assoc.failure is None):
        problems.append("exactly one of transform and failure must be set")
    if assoc.transform is not None:
        problems += check_rotation(assoc.transform.R)
        if len(assoc.matches) < 3:
            problems.append("transform from fewer than 3 correspondences")
    return problems


def check_campaign(records, cfg) -> list[str]:
    """Checks on one `run_campaign` record list."""
    expected = [
        (tier, fn) for tier in cfg.tiers for _ in range(cfg.trials) for fn in cfg.distance_fns
    ]
    got = [(rec.tier, rec.distance_fn) for rec in records]
    if got != expected:
        return [f"campaign returned {len(records)} records, expected {len(expected)} in tier x trial x fn order"]
    problems = []
    for rec in records:
        r = rec.result
        where = f"record {rec.seed_label}/{rec.distance_fn.value}"
        if r.failed != (r.error is None) or (r.failed and r.accept):
            problems.append(f"{where}: failed/error/accept disagree")
        elif not r.failed:
            ok = r.error.rot_deg < THRESHOLDS.max_rot_deg and r.error.trans_m < THRESHOLDS.max_trans_m
            if ok != r.accept:
                problems.append(f"{where}: accept disagrees with its alignment error")
        if not (0.0 <= r.precision <= 1.0 and 0.0 <= r.recall <= 1.0):
            problems.append(f"{where}: precision/recall outside [0, 1]")
        seen_a, seen_b = set(), set()
        for a, b in r.selected:
            if a in seen_a or b in seen_b or a < 0 or b < 0:
                problems.append(f"{where}: selection is not one-to-one")
                break
            seen_a.add(a)
            seen_b.add(b)
    return problems


class Tally:
    """Operation counts plus the trial results that quality is computed from."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.results: list[TrialResult] = []

    def add(self, problems: list[str], results=(), score: bool = True) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems
        elif score:
            self.results += list(results)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def quality(self) -> dict:
        """Quality metrics over the scored results; deterministic for a seed."""
        n = len(self.results)
        if n == 0:
            return {}
        returned = [r for r in self.results if not r.failed]
        summary = compute_metrics(self.results)
        out = {
            "accept_rate": summary.n_accepted / n,
            "wrong_transform_rate": sum(1 for r in returned if not r.accept) / n,
            "recall_at_100_precision": summary.recall_at_100_precision,
            "inlier_precision": float(np.mean([r.precision for r in returned])) if returned else 0.0,
            "scored_results": n,
        }
        if summary.median_rot_err_deg is not None:
            out["rot_err_deg_p50"] = summary.median_rot_err_deg
            out["trans_err_m_p50"] = summary.median_trans_err_m
        return out
