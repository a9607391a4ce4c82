"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload {mc-sweep,exact-scan,calibrate} \
        --seed N --seconds S --trace {0,1}

A run repeats whole rounds of the workload until S seconds have passed, at
least one round, then checks the outputs of the last round.  With --trace 0
it reports the end-to-end metrics named in BENCHMARK.json.  With --trace 1
it runs the same untraced rounds, then one more round with the span
wrappers installed, and reports the per-layer metrics; the traced round's
wall time minus the untraced median is the tracing overhead.  The last
line of stdout is the result object.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 9


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("mc-sweep", "exact-scan", "calibrate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any child it waited for."""
    kib = max(resource.getrusage(who).ru_maxrss
              for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib / 1024.0


def setup_seconds(config: Path) -> float:
    """Median time from starting a fresh interpreter to its first call."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), str(config)],
            stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe exited with code {proc.returncode}")
        times.append(elapsed)
    return statistics.median(times)


def per_layer_metrics(spec: dict, tracer, overhead_s: float) -> dict:
    summary = tracer.summary()
    special = {
        "trace.overhead_s": overhead_s,
        "faultsim.pool_starts": summary.get("faultsim.ProcessPoolExecutor", (0, 0.0))[0],
        "faultsim.shot_blocks": tracer.counters["faultsim.shot_blocks"],
    }
    metrics = {}
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name in special:
            value = special[name]
        else:
            span, _, field = name.rpartition(".")
            calls, self_s = summary.get(span, (0, 0.0))
            value = calls if field == "calls" else self_s
        metrics[name] = {"value": value, "unit": metric["unit"]}
    return metrics


def run(args, spec: dict, workdir: Path) -> dict:
    # Imported here: workloads imports qec_cadence, which main() located.
    import spans
    import workloads

    bench = workloads.WORKLOADS[args.workload](args.seed, workdir)
    tally = {"attempted": 0, "failed": 0, "succeeded": 0}

    def one_round() -> float:
        start = time.perf_counter()
        try:
            bench.run_round()
            tally["succeeded"] += 1
        except Exception:
            traceback.print_exc()
            tally["failed"] += bench.operations
        tally["attempted"] += bench.operations
        return time.perf_counter() - start

    round_s = []
    start = time.perf_counter()
    while not round_s or time.perf_counter() - start < args.seconds:
        round_s.append(one_round())
    run_s = statistics.median(round_s)
    peak = peak_rss_mb()

    if args.trace:
        tracer = spans.Tracer()
        for name in workloads.install_tracing(tracer):
            print(f"perfbench: {name} does not exist; not traced", file=sys.stderr)
        try:
            traced_s = one_round()
        finally:
            tracer.restore()
        (OUT_DIR / "traces").mkdir(parents=True, exist_ok=True)
        tracer.write(OUT_DIR / "traces" / f"{args.workload}-seed{args.seed}.json")
        metrics = per_layer_metrics(spec, tracer, traced_s - run_s)
    else:
        values = {
            "setup_s": setup_seconds(bench.config),
            "run_s": run_s,
            "peak_rss_mb": peak,
            "work_per_s": bench.work / run_s,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    if tally["succeeded"]:
        try:
            problems = bench.check()
        except Exception:
            problems = [traceback.format_exc()]
    else:
        problems = ["no round succeeded"]
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(SRC))
    try:
        import qec_cadence
    except ImportError as exc:
        print(f"perfbench: cannot import qec_cadence from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(qec_cadence.__file__).resolve().parent != SRC / "qec_cadence":
        print(f"perfbench: qec_cadence imported from {qec_cadence.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workdir = OUT_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = run(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
