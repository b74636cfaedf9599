"""Command-line interface: match scans, query distances, run benchmarks.

Exit codes: 0 success / verified match, 1 input or usage error, 2 match
attempted but verification failed (fewer than 3 correspondences or a
degenerate geometry).

Numeric output precision: CSV and `distance` output use 12 significant
digits; JSON documents carry full shortest-roundtrip doubles.  All output
files end with a newline.  Wall-clock columns (`duration_s` in the bench CSV
and the timing block of the bench summary) are the only outputs that vary
between reruns with identical seeds.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
import time
from pathlib import Path

from .consistency import ConsistencyParams, DistanceFn, Scan, _pair_geometry
from .pipeline import associate_scans
from .registration import rotation_to_quaternion
from .scan_io import ScanFormatError, load_scan
from .scene_sim import CampaignConfig, TrialRecord, compute_metrics, run_campaign

__all__ = ["main", "run", "CSV_COLUMNS", "parse_campaign_config"]

CSV_COLUMNS = (
    "seed",
    "tier",
    "distance_fn",
    "m",
    "inliers",
    "precision",
    "recall",
    "rot_err_deg",
    "trans_err_m",
    "accept",
    "duration_s",
)

FAILED_SENTINEL = "failed"

_EXIT_OK = 0
_EXIT_INPUT = 1
_EXIT_UNVERIFIED = 2


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


@functools.cache  # parse_args leaves the parser unchanged, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="graffassoc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_match = sub.add_parser("match", help="associate two scan files and estimate the relative transform")
    p_match.add_argument("scan_a")
    p_match.add_argument("scan_b")
    p_match.add_argument("--rho", type=float, default=40.0)
    p_match.add_argument("--epsilon", type=float, default=0.2)
    p_match.add_argument("--sigma", type=float, default=0.02)
    p_match.add_argument(
        "--distance-fn",
        choices=[fn.value for fn in DistanceFn],
        default=DistanceFn.GRAFF_SHIFTED.value,
    )
    p_match.add_argument("--output", default="-", help="result document path, '-' for stdout")

    p_dist = sub.add_parser("distance", help="shifted distance between two objects of one scan")
    p_dist.add_argument("scan")
    p_dist.add_argument("index_a", type=int)
    p_dist.add_argument("index_b", type=int)
    p_dist.add_argument("--rho", type=float, default=40.0)

    p_bench = sub.add_parser("bench", help="run a benchmark campaign from a config file")
    p_bench.add_argument("config")
    p_bench.add_argument("--out", required=True, help="output directory for results.csv and summary.json")
    p_bench.add_argument("--workers", type=int, default=1)
    return parser


def _refuse_infinite(**params: float) -> None:
    """ValueError on an infinite parameter, which the library takes but standard JSON cannot echo."""
    for name, value in params.items():
        if math.isinf(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def _cmd_match(args) -> int:
    try:
        _refuse_infinite(rho=args.rho, epsilon=args.epsilon, sigma=args.sigma)
        scan_a = load_scan(args.scan_a)
        scan_b = load_scan(args.scan_b)
        params = ConsistencyParams(epsilon=args.epsilon, sigma=args.sigma, rho=args.rho)
        distance_fn = DistanceFn(args.distance_fn)
        assoc = associate_scans(scan_a, scan_b, params, distance_fn)
    except (ScanFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INPUT

    doc = {
        "status": "failed" if assoc.transform is None else "ok",
        "scan_a": scan_a.id,
        "scan_b": scan_b.id,
        "params": {
            "rho": args.rho,
            "epsilon": args.epsilon,
            "sigma": args.sigma,
            "distance_fn": distance_fn.value,
        },
        "num_candidates": assoc.n_candidates,
        "correspondences": [list(c) for c in assoc.matches],
        "objective": assoc.objective,
        "rotation": None,
        "quaternion_wxyz": None,
        "translation": None,
        "residuals": None,
    }
    if assoc.transform is None:
        doc["failure_reason"] = assoc.failure
        status = _EXIT_UNVERIFIED
    else:
        doc["rotation"] = [list(row) for row in assoc.transform.R]
        doc["quaternion_wxyz"] = list(rotation_to_quaternion(assoc.transform.R))
        doc["translation"] = list(assoc.transform.t)
        doc["residuals"] = {
            "max_direction_angle_rad": assoc.max_angle_residual_rad,
            "max_offset_m": assoc.max_offset_residual_m,
        }
        status = _EXIT_OK

    text = json.dumps(doc, indent=2) + "\n"
    if args.output == "-":
        sys.stdout.write(text)
    else:
        try:
            Path(args.output).write_text(text, encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
            return _EXIT_INPUT
    return status


def _cmd_distance(args) -> int:
    try:
        scan = load_scan(args.scan)
        n = len(scan)
        for name, idx in (("index_a", args.index_a), ("index_b", args.index_b)):
            if not 0 <= idx < n:
                raise ValueError(f"{name}={idx} out of range for scan with {n} objects")
        if not args.rho > 0:
            raise ValueError("rho must be positive")
    except (ScanFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INPUT
    # The shifted principal angles: min(k_a, k_b) - 1 zeros (two planes share a
    # direction), the direction angle and arctan(gap / rho), in ascending order.
    pair = [args.index_a, args.index_b]
    two = Scan(scan.id, scan.kinds[pair], scan.rep[pair], scan.b0[pair])
    theta, gap = (float(D[0, 1]) for D in _pair_geometry(two))
    th_aff = math.atan(gap / args.rho)
    angles = sorted([0.0] * (int(scan.kinds[pair].min()) - 1) + [theta, th_aff])
    distance = math.sqrt(theta * theta + th_aff * th_aff)
    sys.stdout.write(f"distance_rad {_fmt(distance)}\n")
    sys.stdout.write("principal_angles_rad " + " ".join(_fmt(a) for a in angles) + "\n")
    return _EXIT_OK


# each campaign file value is parsed like its field's default; tuples are comma lists
_CONFIG_DEFAULTS = {field.name: field.default for field in dataclasses.fields(CampaignConfig)}


def _config_value(default, text: str):
    if isinstance(default, tuple):
        return tuple(part.strip() for part in text.split(",") if part.strip())
    return type(default)(text)


def parse_campaign_config(path) -> CampaignConfig:
    """Parse the key = value campaign file (# starts a comment)."""
    values = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_DEFAULTS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _config_value(_CONFIG_DEFAULTS[key], value)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: bad value for {key!r}: {value!r}") from None
    try:
        _refuse_infinite(**{key: values[key] for key in ("rho", "epsilon", "sigma") if key in values})
        return CampaignConfig(**values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _record_row(record: TrialRecord) -> list[str]:
    r = record.result
    if r.failed or r.error is None:
        rot_err, trans_err = FAILED_SENTINEL, FAILED_SENTINEL
    else:
        rot_err, trans_err = _fmt(r.error.rot_deg), _fmt(r.error.trans_m)
    return [
        record.seed_label,
        record.tier,
        record.distance_fn.value,
        str(r.n_candidates),
        str(len(r.selected)),
        _fmt(r.precision),
        _fmt(r.recall),
        rot_err,
        trans_err,
        "true" if r.accept else "false",
        _fmt(r.duration_s),
    ]


def _summary_doc(cfg: CampaignConfig, records: list[TrialRecord]) -> dict:
    rows = []
    for fn in cfg.distance_fns:
        fn_records = [rec for rec in records if rec.distance_fn is fn]
        tiers = {}
        for tier in cfg.tiers:
            metrics = dataclasses.asdict(compute_metrics([rec.result for rec in fn_records if rec.tier == tier]))
            tiers[tier] = {key: value for key, value in metrics.items() if not key.startswith("timing_")}
        overall = compute_metrics([rec.result for rec in fn_records])
        rows.append(
            {
                "distance_fn": fn.value,
                "tiers": tiers,
                "recall_at_100_precision": overall.recall_at_100_precision,
                "timing_mean_s": overall.timing_mean_s,
                "timing_std_s": overall.timing_std_s,
            }
        )
    config = dataclasses.asdict(cfg) | {"tiers": list(cfg.tiers), "distance_fns": [fn.value for fn in cfg.distance_fns]}
    return {"schema": 1, "config": config, "results": rows}


def _cmd_bench(args) -> int:
    try:
        cfg = parse_campaign_config(args.config)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INPUT
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        probe = out_dir / ".write-probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        print(f"error: cannot write to {out_dir}: {exc}", file=sys.stderr)
        return _EXIT_INPUT

    start = time.perf_counter()
    records = run_campaign(cfg, workers=max(1, args.workers))
    elapsed = time.perf_counter() - start

    csv_lines = [",".join(CSV_COLUMNS)]
    csv_lines += [",".join(_record_row(rec)) for rec in records]
    (out_dir / "results.csv").write_text("\n".join(csv_lines) + "\n", encoding="utf-8")
    (out_dir / "summary.json").write_text(
        json.dumps(_summary_doc(cfg, records), indent=2) + "\n", encoding="utf-8"
    )
    print(f"ran {len(records)} trials in {elapsed:.1f}s -> {out_dir}", file=sys.stderr)
    return _EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; fold into the input-error code
        return _EXIT_INPUT if exc.code else _EXIT_OK
    return {"match": _cmd_match, "distance": _cmd_distance, "bench": _cmd_bench}[args.command](args)


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
