"""toepspec benchmark: closed-loop scenario reports, end to end or traced per layer.

Usage (from the repository root):

    python3 bench/run.py --workload eig_ensemble --seed 1 --seconds 25 --trace 0

One client runs `toepspec run <config.json> --out-dir <dir>` in-process through
`toepspec.cli.main`, one report after the other, over a fixed rotation of
config shapes (bench/workloads.py) until --seconds have passed; the rotation in
progress is finished.  Every report is checked against independent numpy
oracles (bench/oracles.py).  The first rotation warms the process up and is
checked but not timed.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced passes over one rotation, prints the per-layer metrics of the traced
passes (medians over passes, per rotation) and the tracing overhead, and
fails the run if any deterministic count differs between traced passes or any
report differs between passes.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  Earlier lines record the environment and run details.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads  # stdlib only: safe to import before the thread variables are cleared

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# The program's own defaults are what is measured: pinning threads here would
# hide exactly the oversubscription a thread-budget change has to remove.
THREAD_VARS = ("TOEPSPEC_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
SETUP_RUNS = 5
TAIL_ABOVE = 10  # reports that must lie above the tail percentile

END_TO_END_UNITS = {
    "setup_s": "s",
    "report_s_p50": "s",
    "report_s_tail": "s",
    "trials_per_s": "1/s",
    "nodes_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}


def scrub_thread_env() -> dict:
    """Clear the thread variables before numpy loads; returns what was set."""
    return {k: os.environ.pop(k) for k in THREAD_VARS if k in os.environ}


def _openblas_threads(package: str, libdir: str, pattern: str, symbol: str):
    base = Path(sys.modules[package].__file__).resolve().parent.parent / libdir
    for path in sorted(glob.glob(str(base / pattern))):
        try:
            fn = getattr(ctypes.CDLL(path), symbol)
        except (OSError, AttributeError):
            continue
        fn.argtypes = []
        fn.restype = ctypes.c_int
        return int(fn())
    return None


def env_record(scrubbed: dict) -> dict:
    import numpy
    import scipy

    cpu = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "TOEPSPEC_THREADS": os.environ.get("TOEPSPEC_THREADS", "unset"),
        "openblas_threads_numpy": _openblas_threads(
            "numpy", "numpy.libs", "libscipy_openblas64_*.so", "scipy_openblas_get_num_threads64_"
        ),
        "openblas_threads_scipy": _openblas_threads(
            "scipy", "scipy.libs", "libscipy_openblas-*.so", "scipy_openblas_get_num_threads"
        ),
        "thread_policy": "TOEPSPEC_THREADS, OPENBLAS_NUM_THREADS and OMP_NUM_THREADS cleared: "
        "the program runs at its own thread defaults",
        "cleared": scrubbed,
    }


def measure_setup(runs: int) -> list[float]:
    """Wall time for a fresh interpreter to import toepspec.cli and run `list`."""
    code = "import sys; sys.path.insert(0, 'src'); from toepspec import cli; sys.exit(cli.main(['list']))"
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"`toepspec list` failed: {proc.stderr.decode(errors='replace').strip()}")
    return times


# ---------------------------------------------------------------------------
# one report


class Report:
    """Timing, work units and check outcome of one `toepspec run`."""

    def __init__(self, cfg: dict, seconds: float, problems: list, report: dict | None, report_bytes: bytes, artifact_bytes: int):
        self.cfg = cfg
        self.seconds = seconds
        self.problems = problems
        self.report_bytes = report_bytes
        self.artifact_bytes = artifact_bytes
        self.criteria_failed = 0
        self.trials = self.nodes = 0
        if report is not None and not problems:
            self.criteria_failed = sum(1 for v in report["pass"].values() if v is not True)
            if cfg["scenario"] == "pseudospec_map":
                g = cfg["params"]["grid"]
                self.trials, self.nodes = 1, g["nx"] * g["ny"]
            else:
                trials = report["metrics"]["trials_run"] if cfg["scenario"] == "eigvec_outlier" else cfg["trials"]
                self.trials, self.nodes = trials, trials * cfg["n"]

    @property
    def ok(self) -> bool:
        return not self.problems


def run_report(cli, oracles, cfg: dict, work: Path) -> Report:
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    problems: list[str] = []
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["run", str(cfg_path), "--out-dir", str(out)])
    except Exception as exc:  # a crash is a failed report, not a failed benchmark
        rc = f"raised {type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    if rc != 0:
        problems.append(f"exit {rc}")
    artifact_bytes = sum(p.stat().st_size for p in out.rglob("*") if p.is_file()) if out.exists() else 0
    report = None
    report_bytes = b""
    if not problems:
        try:
            report, found = oracles.check(cfg, out)
            problems += found
            report_bytes = (out / "report.json").read_bytes()
        except Exception as exc:  # malformed output the checks did not anticipate
            problems.append(f"oracle check raised {type(exc).__name__}: {exc}")
    shutil.rmtree(out, ignore_errors=True)
    rep = Report(cfg, dt, problems, report, report_bytes, artifact_bytes)
    for p in problems:
        print(f"FAILED {cfg['scenario']} seed={cfg['seed']}: {p}", file=sys.stderr)
    return rep


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_ABOVE values above it."""
    s = sorted(values)
    n = len(s)
    if n <= TAIL_ABOVE:
        return s[-1], 100.0
    return s[n - TAIL_ABOVE - 1], 100.0 * (n - TAIL_ABOVE) / n


# ---------------------------------------------------------------------------
# the two run kinds


def measure_end_to_end(cli, oracles, workloads, name, seed, seconds, work, smoke=False, setup_runs=SETUP_RUNS):
    setup = measure_setup(setup_runs)
    stream = workloads.config_stream(name, seed, smoke)
    k = len(workloads.shapes(name, smoke))
    deadline = time.perf_counter() + seconds
    warm = [run_report(cli, oracles, next(stream), work) for _ in range(k)]
    timed: list[Report] = []
    while not timed or time.perf_counter() < deadline:
        timed.extend(run_report(cli, oracles, next(stream), work) for _ in range(k))
    everything = warm + timed
    good = [r for r in timed if r.ok]
    busy = sum(r.seconds for r in good) or float("nan")
    tail_s, tail_pct = tail([r.seconds for r in good] or [float("nan")])
    metrics = {
        "setup_s": statistics.median(setup),
        "report_s_p50": statistics.median([r.seconds for r in good]) if good else float("nan"),
        "report_s_tail": tail_s,
        "trials_per_s": sum(r.trials for r in good) / busy,
        "nodes_per_s": sum(r.nodes for r in good) / busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": sum(r.ok for r in everything) / len(everything),
    }
    info = {
        "timed_reports": len(timed),
        "shape_s_p50": [statistics.median([r.seconds for r in timed[i::k] if r.ok] or [0.0]) for i in range(k)],
        "report_s_tail_percentile": round(tail_pct, 2),
        "setup_runs_s": setup,
        "criteria_failed": sum(r.criteria_failed for r in everything),
    }
    return metrics, everything, info


def measure_traced(cli, oracles, tracer_mod, workloads, name, seed, seconds, work, smoke=False):
    configs = workloads.rotation(name, seed, smoke)
    tracer = tracer_mod.Tracer()

    def one_pass(traced: bool):
        tracer.reset()
        if traced:
            with tracer.installed():
                reps = [run_report(cli, oracles, c, work) for c in configs]
        else:
            reps = [run_report(cli, oracles, c, work) for c in configs]
        layer = tracer.metrics() if traced else {}
        layer["experiments.criteria_failed"] = sum(r.criteria_failed for r in reps)
        layer["io.artifact_bytes"] = sum(r.artifact_bytes for r in reps)
        return reps, sum(r.seconds for r in reps), layer

    deadline = time.perf_counter() + seconds
    everything = list(one_pass(False)[0])  # warm-up
    untraced, traced, layers = [], [], []
    while len(traced) < 2 or time.perf_counter() < deadline:
        for is_traced in (False, True):
            reps, wall, layer = one_pass(is_traced)
            everything.extend(reps)
            (traced if is_traced else untraced).append(wall)
            if is_traced:
                layers.append(layer)

    drift = []
    for key in layers[0]:
        if tracer_mod.is_count(key) and len({lay[key] for lay in layers}) > 1:
            drift.append(f"count {key} drifted: {[lay[key] for lay in layers]}")
    per_config = {}
    for rep in everything:
        if rep.ok:
            per_config.setdefault(json.dumps(rep.cfg, sort_keys=True), set()).add(rep.report_bytes)
    drift += [f"report of {cfg} differs between passes" for cfg, seen in per_config.items() if len(seen) > 1]
    for d in drift:
        print(f"DRIFT {d}", file=sys.stderr)

    metrics = {
        key: layers[0][key] if tracer_mod.is_count(key) else statistics.median(lay[key] for lay in layers)
        for key in layers[0]
    }
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    metrics["trace.overhead_frac"] = metrics["trace.overhead_s"] / statistics.median(untraced)
    info = {"passes_traced": len(traced), "passes_untraced": len(untraced), "drift": len(drift)}
    return metrics, everything, info, not drift


def execute(workload: str, seed: int, seconds: float, trace: bool, work: Path, smoke: bool = False, setup_runs: int = SETUP_RUNS):
    """Run one benchmark pass; returns (result object, info dict)."""
    import oracles
    import tracer as tracer_mod
    from toepspec import cli

    work.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            metrics, reports, info, steady = measure_traced(
                cli, oracles, tracer_mod, workloads, workload, seed, seconds, work, smoke
            )
            units = None
        else:
            metrics, reports, info = measure_end_to_end(
                cli, oracles, workloads, workload, seed, seconds, work, smoke, setup_runs
            )
            steady = True
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(not r.ok for r in reports)
    finite = all(math.isfinite(v) for v in metrics.values())  # false only when every report failed
    result = {
        "correct": failed == 0 and steady and finite,
        "attempted": len(reports),
        "failed": failed,
        "metrics": {
            k: {"value": v if math.isfinite(v) else 0.0, "unit": units[k] if units else _layer_unit(k)}
            for k, v in metrics.items()
        },
    }
    return result, info


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", ".overlap")):
        return "frac"
    if name.endswith("_bytes"):
        return "B"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    scrubbed = scrub_thread_env()
    sys.path.insert(0, str(SRC))
    try:
        import toepspec.cli  # noqa: F401  (loads numpy and scipy too)
    except ImportError as exc:
        print(f"error: cannot import toepspec from {SRC}: {exc}", file=sys.stderr)
        return 2
    result, info = execute(args.workload, args.seed, args.seconds, bool(args.trace), WORK)
    print("env " + json.dumps(env_record(scrubbed), sort_keys=True))
    print("info " + json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace, **info}))
    for key, m in result["metrics"].items():
        print(f"metric {key} = {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
