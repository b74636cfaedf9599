"""graffassoc benchmark: end-to-end latency and matching quality, plus a traced run.

Usage (from the repository root):

    python3 perfbench/run.py --workload match_small --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One process, one client, closed loop: each operation starts when the
previous one returns.  `--trace 0` measures the end-to-end metrics; `--trace
1` runs each input untraced and traced, back to back, and reports per-layer
metrics plus the tracing overhead.  The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  The exit code is 0 only when every output check passed.  See
README.md in this directory for the workloads and metrics.
"""

import time

_T_START = time.perf_counter()

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

BUILD_REPEATS = 3
WORKLOAD_NAMES = ("match_small", "campaign_mix", "match_large")

# Every end-to-end metric, name -> (unit, better), printed on each run.
# BENCHMARK.json guards the subset that every workload defines, that is never
# 0 and that is steady across seeds (README.md, "End-to-end metrics").
END_TO_END = {
    "setup_s": ("s", "lower"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_p90_ms": ("ms", "lower"),
    "ms_per_record": ("ms", "lower"),
    "peak_mem_mib": ("MiB", "lower"),
    "error_rate": ("ratio", "lower"),
    "accept_rate": ("ratio", "higher"),
    "wrong_transform_rate": ("ratio", "lower"),
    "recall_at_100_precision": ("ratio", "higher"),
    "inlier_precision": ("ratio", "higher"),
    "rot_err_deg_p50": ("deg", "lower"),
    "trans_err_m_p50": ("m", "lower"),
}
# Per-layer metrics of layers that run on one workload only; they read 0
# elsewhere, so BENCHMARK.json does not list them.  Printed and stored.
WORKLOAD_LAYERS = {
    "scan_io.load_ms": ("ms", "lower"),
    "cli.match_self_ms": ("ms", "lower"),
    "scene_sim.generate_ms": ("ms", "lower"),
    "scan_io.share": ("ratio", "lower"),
    "cli.share": ("ratio", "lower"),
    "scene_sim.share": ("ratio", "lower"),
    "harness.share": ("ratio", "lower"),
}


def import_package():
    """Import graffassoc from this checkout's src/, never from elsewhere."""
    if not (SRC / "graffassoc" / "__init__.py").is_file():
        sys.exit(f"error: {SRC}/graffassoc not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import graffassoc

    if Path(graffassoc.__file__).resolve().parent != (SRC / "graffassoc").resolve():
        sys.exit(f"error: imported graffassoc from {graffassoc.__file__}, not {SRC}")
    return graffassoc


def git_sha() -> str:
    """HEAD of the checkout read from .git without running git, if present."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def blas_threads():
    """Thread count OpenBLAS reports, queried from numpy's bundled library."""
    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "libscipy_openblas*.so")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def metadata(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "graffassoc").glob("*.py")):
        src_hash.update(path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "src_sha256": src_hash.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "processes": 1,
    }


class Runner:
    """Set-up, warm-up, timed loop and memory pass for one workload."""

    def __init__(self, workload, seed: int, workdir: Path):
        from checks import Tally

        self.w = workload
        self.tally = Tally()
        t = []
        for r in range(BUILD_REPEATS):
            t0 = time.perf_counter()
            self.inputs = self.w.build(seed, workdir / f"build{r}")
            t.append(time.perf_counter() - t0)
        self.build_s = statistics.median(t)
        self.peaks: list[tuple[int, int]] = []  # (tracemalloc peak bytes, m) per op
        self.latencies: list[float] = []

    def op(self, i: int, score: bool, tracer=None) -> float:
        """Run, time and check input `i`; an exception counts as a failed op."""
        inp = self.inputs[i % len(self.inputs)]
        t0 = time.perf_counter()
        try:
            if tracer is None:
                raw = self.w.run(inp)
            else:
                with tracer.op_span(i):
                    raw = self.w.run(inp)
        except Exception as exc:  # a crash is an operation failure, not a harness failure
            dt = time.perf_counter() - t0
            self.tally.add([f"op {i} raised {type(exc).__name__}: {exc}"])
            return dt
        dt = time.perf_counter() - t0
        problems, results, _ = self.w.check(inp, raw, dt)
        self.tally.add(problems, results, score)
        return dt

    def warm_up(self) -> float:
        t0 = time.perf_counter()
        for i in range(self.w.n_warmup):
            self.op(i, score=False)
        return time.perf_counter() - t0

    def loop(self, seconds: float) -> list[float]:
        """Closed loop over the inputs for `seconds`, and at least once over the
        scored set.  Returns per-op latencies in seconds."""
        latencies = []
        t_end = time.perf_counter() + seconds
        i = 0
        while i < self.w.n_scored or time.perf_counter() < t_end:
            latencies.append(self.op(i, score=i < self.w.n_scored))
            i += 1
        self.latencies = latencies
        return latencies

    def memory_pass(self) -> None:
        """Per-op tracemalloc peak, untimed (tracing slows allocation)."""
        tracemalloc.start()
        try:
            for i in range(self.w.n_memory):
                inp = self.inputs[i]
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                try:
                    raw = self.w.run(inp)
                except Exception as exc:  # counted like a failed timed op
                    self.tally.add([f"memory pass op {i} raised {type(exc).__name__}: {exc}"])
                    continue
                peak = tracemalloc.get_traced_memory()[1] - base
                problems, _, m = self.w.check(inp, raw, 0.0)
                self.tally.add(problems, score=False)
                self.peaks.append((peak, m))
        finally:
            tracemalloc.stop()

    def peak_mib(self) -> float:
        return statistics.median(peak for peak, _ in self.peaks) / 2**20

    def peak_over_m2_doubles(self) -> float:
        return statistics.median(peak / (8.0 * m * m) if m else 0.0 for peak, m in self.peaks)


def run_untraced(runner: Runner, args) -> dict:
    latencies = runner.loop(args.seconds)
    runner.memory_pass()
    ms = [x * 1e3 for x in latencies]
    metrics = {
        "latency_p50_ms": statistics.median(ms),
        "peak_mem_mib": runner.peak_mib(),
        "ops_timed": len(ms),
        "memory.peak_over_m2_doubles": runner.peak_over_m2_doubles(),
    }
    # p90 only with at least ten samples above it.
    if len(ms) >= 100:
        metrics["latency_p90_ms"] = statistics.quantiles(ms, n=10)[-1]
    if runner.w.name == "campaign_mix":
        metrics["ms_per_record"] = sum(ms) / (len(ms) * runner.w.records_per_op(runner.inputs[0]))
    metrics.update(runner.tally.quality())
    return metrics


def run_traced(runner: Runner, args):
    """Each input runs once untraced and once traced, back to back, in
    alternating order, so slow drift in machine speed cancels out of the
    overhead.  Per-layer metrics come from the traced ops only."""
    from tracing import Tracer

    tracer = Tracer()
    plain, traced = [], []
    t_end = time.perf_counter() + args.seconds
    i = 0
    while time.perf_counter() < t_end:
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                with tracer.installed():
                    traced.append(runner.op(i, score=False, tracer=tracer))
            else:
                plain.append(runner.op(i, score=False))
        i += 1
    runner.memory_pass()
    metrics = tracer.layer_metrics()
    metrics["memory.peak_over_m2_doubles"] = runner.peak_over_m2_doubles()
    metrics["trace.overhead_pct"] = 100.0 * (sum(traced) / sum(plain) - 1.0)
    metrics["trace.ops_compared"] = i
    runner.latencies = traced
    return metrics, tracer


def print_table(title: str, metrics: dict, units: dict) -> None:
    print(title)
    for name, value in metrics.items():
        unit, better = units.get(name, ("", ""))
        print(f"  {name:<36} {value:>16.6g} {unit:<6} {better and better + ' is better'}")


def run_one(args) -> int:
    import_package()
    import_s = time.perf_counter() - _T_START
    from workloads import WORKLOADS

    meta = metadata(args)
    print("metadata " + json.dumps(meta, sort_keys=True))
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    try:
        runner = Runner(WORKLOADS[args.workload](), args.seed, workdir)
        warm_s = runner.warm_up()
        if args.trace:
            metrics, tracer = run_traced(runner, args)
        else:
            metrics = run_untraced(runner, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tally = runner.tally
    metrics.update({
        "setup_s": import_s + runner.build_s + warm_s,
        "setup.import_s": import_s,
        "setup.build_s": runner.build_s,
        "setup.warm_up_s": warm_s,
        "error_rate": tally.error_rate,
    })
    for problem in tally.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    if args.trace:
        guarded_units = args.per_layer
        print_table(f"per-layer ({args.workload}, seed {args.seed}, means per association)",
                    metrics, {**args.per_layer, **WORKLOAD_LAYERS})
    else:
        guarded_units = args.end_to_end
        shown = {k: metrics[k] for k in END_TO_END if k in metrics}
        print_table(f"end-to-end ({args.workload}, seed {args.seed}, {metrics['ops_timed']} timed ops)",
                    shown, END_TO_END)
        if "latency_p90_ms" not in metrics:
            print(f"  latency_p90_ms: not reported, {metrics['ops_timed']} ops give fewer than 10 above p90")
    print(f"  attempted {tally.attempted} ops, failed {tally.failed}")

    results_dir = OUT_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write_spans(results_dir / f"{stem}-spans.json")
    (results_dir / f"{stem}.json").write_text(
        json.dumps({"metadata": meta, "metrics": metrics, "problems": tally.problems[:100],
                    "latencies_s": runner.latencies}, indent=1) + "\n"
    )

    missing = [k for k in guarded_units if k not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
    correct = tally.failed == 0 and not missing
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, (u, _) in guarded_units.items() if k in metrics},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, check=False)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    if not (ROOT / "BENCHMARK.json").is_file():
        sys.exit(f"error: {ROOT}/BENCHMARK.json not found")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.end_to_end = {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]}
    args.per_layer = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
