"""ramseykit benchmark: one workload per run, one closed-loop caller.

    python3 perfbench/run.py --workload search --seed 1 --seconds 10 --trace 0

--trace 0 times passes of the workload with no tracing until --seconds of
pass time is spent (at least one pass) and reports the end-to-end metrics;
wall_s is the mean pass time.  --trace 1
times one untraced pass, then the same pass again under the tracer, and
reports the per-layer metrics, the tracing overhead, and a span file.  Every
output is checked after timing; a failed check makes the exit code 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(provenance, every pass, every search seed) goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_PROBES = 15


def _import_program() -> None:
    """Import ramseykit from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import ramseykit
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import ramseykit from {ROOT / 'src'}: {exc}")
    if not Path(ramseykit.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"perfbench: ramseykit was imported from {ramseykit.__file__}, not src/")


def _setup_seconds(workload: str, seed: int) -> float:
    """Median set-up time of SETUP_PROBES fresh processes.

    Each child times itself, from just before it imports the package until it
    has built the workload's inputs, and prints that time.  Interpreter start
    and process spawn are left out: they are not the program's."""
    cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, check=True, timeout=120, cwd=ROOT, capture_output=True, text=True)
        times.append(float(done.stdout))
    return statistics.median(times)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return done.stdout.strip() or None


def _provenance(args) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "workload": args.workload,
        "workload_seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _calibration_s() -> float:
    """Fastest of five timings of a fixed loop that never calls the package.

    It gauges how fast the machine runs at the moment, so that a run slowed
    by other tenants can be told apart from a slower program."""
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Passes:
    """Times passes of one workload; checks and logs each pass after its
    clock has stopped, then drops its outputs so memory does not grow with
    the number of passes."""

    def __init__(self, work, checked):
        self.work = work
        self.checked = checked
        self.walls: list[float] = []
        self.rates: list[float] = []
        self.records: list = []
        self.latencies: list[float] = []

    def run(self):
        gc.collect()  # each pass starts with no garbage left by the last
        start = time.perf_counter()
        out = self.work.run()
        wall = time.perf_counter() - start
        self.work.check(out, self.checked)
        self.records.append(self.work.records(out))
        self.latencies.extend(self.work.latencies(out))
        self.walls.append(wall)
        if self.work.rate_name:
            self.rates.append(self.work.ops(out) / wall)
        return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("search", "generate", "census", "audit"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    start = time.perf_counter()
    _import_program()
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        cls(args.seed)
        print(time.perf_counter() - start)
        return 0
    import tracing

    setup_s = _setup_seconds(args.workload, args.seed) if not args.trace else None
    work = cls(args.seed)
    chk = workloads.Checked()
    calibration = [_calibration_s()]
    untraced = Passes(work, chk)
    while True:
        untraced.run()
        if args.trace or sum(untraced.walls) + untraced.walls[-1] > args.seconds:
            break

    calibration.append(_calibration_s())
    record = {"provenance": _provenance(args), "pass_wall_s": untraced.walls,
              "calibration_s": calibration}
    if args.trace:
        traced = Passes(work, chk)
        tracer = tracing.Tracer()
        with tracer:
            out = traced.run()
        metrics = tracing.layer_metrics(tracer, cls.facts(out))
        metrics["trace.overhead_s"] = traced.walls[0] - untraced.walls[0]
        record["traced_wall_s"] = traced.walls[0]
        record["traced_pass"] = traced.records[0]
        OUT.mkdir(parents=True, exist_ok=True)
        span_path = OUT / f"{args.workload}-seed{args.seed}-spans.json"
        tracer.dump(span_path, {"provenance": record["provenance"], "wall_s": traced.walls[0]})
        record["span_file"] = str(span_path.relative_to(ROOT))
    else:
        metrics = {
            "setup_s": setup_s,
            # the machine runs in slow and fast spells of seconds each; the
            # mean over the run averages them, where the fastest or the
            # median pass depends on which spell the run happened to catch
            "wall_s": statistics.fmean(untraced.walls),
            "peak_rss_mb": _peak_rss_mb(),
        }
        if untraced.rates:
            record[cls.rate_name] = statistics.median(untraced.rates)
        if untraced.latencies:
            lat = [x * 1e6 for x in untraced.latencies]
            cuts = statistics.quantiles(lat, n=100, method="inclusive")
            record["verify_us_p50"], record["verify_us_p99"] = cuts[49], cuts[98]
            record["verify_samples"] = len(lat)

    record["passes"] = untraced.records
    record["check_failures"] = chk.messages[:50]
    record["failed_frac"] = chk.failed / chk.attempted
    record["metrics"] = metrics

    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")
    print(f"workload {args.workload} seed {args.seed}: {len(untraced.walls)} untraced pass(es)")
    for name, value in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {units[name]}")
    extras = {"failed_frac": (record["failed_frac"], "frac")}
    if cls.rate_name in record:
        extras[cls.rate_name] = (record[cls.rate_name], "1/s")
    if "verify_us_p50" in record:
        extras["verify_us_p50"] = (record["verify_us_p50"], "us")
        extras["verify_us_p99"] = (record["verify_us_p99"], "us")
    for name, (value, unit) in extras.items():
        print(f"  {name:<28} {value:>14.6g} {unit}")
    print("  calibration loop " + " / ".join(f"{c:.4g}" for c in calibration)
          + " s (before / after the passes)")
    for msg in chk.messages[:20]:
        print(f"  CHECK FAILED: {msg}")

    print(json.dumps({
        "correct": chk.failed == 0,
        "attempted": chk.attempted,
        "failed": chk.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }), flush=True)
    return 0 if chk.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
