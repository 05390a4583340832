"""smt-kit benchmark: seeded, oracle-checked workloads run in a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]

Workloads: flip-grassmannians, random-words, lattices-e7 (see workloads.py
and BENCHMARK.json for what each stresses and bypasses).  One client runs
one pass at a time, each pass a fresh interpreter (`worker.py`) that builds
its inputs from the seed and runs every task once, the next task sent only
after the previous returned.  A fresh interpreter per pass matters because
`weyl._reduce_cache` lives as long as the process: `smt-kit verify` users
pay for cold caches on every call.

--trace 0 repeats passes for about --seconds (at least MIN_PASSES; pass k
uses the seed seed*1000+k) and reports the end-to-end metrics: the medians
over passes of `setup_s`, `wall_s`, `peak_rss_mb` and of each pass's task
latency percentiles.  Only random-words has tasks enough for percentiles
(200 a pass, 10 beyond p95); flip-grassmannians and lattices-e7 run their
two parts as two tasks, so there p50 and p95 are the shorter and the longer
part.

--trace 1 runs one untraced pass and two traced passes on the same seed and
reports the per-layer metrics of tracer.py.  It checks that both traced
passes give the untraced digest and identical `.calls` counts, and reports
the tracing overhead (traced `wall_s` / untraced `wall_s`).

Every metric is printed by name with its unit; the last stdout line is the
JSON result.  The run record (machine, Python, commit, seed, every raw
value, and the aggregated spans of a traced run) is written to
perfbench/results/.  --quick runs the reduced sizes of the self-test.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402  (defines the per-layer metrics; imports no smt_kit)

WORKLOADS = ("flip-grassmannians", "random-words", "lattices-e7")
MIN_PASSES = 1
PASS_TIMEOUT_S = 170
END_TO_END = {"setup_s": "s", "wall_s": "s", "task_p50_ms": "ms", "task_p95_ms": "ms",
              "peak_rss_mb": "MB"}


class BenchError(Exception):
    """A pass that could not run to its end."""


def run_pass(workload: str, pass_seed: int, trace: bool, quick: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(pass_seed),
           "1" if trace else "0", "1" if quick else "0", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass timed out after {PASS_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["pass_seed"] = pass_seed
    out["traced"] = trace
    return out


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    k = max(0, min(len(sorted_values) - 1, -(-len(sorted_values) * q // 100) - 1))
    return sorted_values[int(k)]


def end_to_end(passes: list[dict]) -> tuple[dict, list[str]]:
    """Medians over passes; the latency percentiles are taken within each
    pass (over its tasks) first, so they do not depend on the pass count."""
    p50, p95, beyond = [], [], []
    for p in passes:
        latencies = sorted(t for _, t in p["task_latencies_s"])
        p50.append(percentile(latencies, 50))
        p95.append(percentile(latencies, 95))
        beyond.append(sum(1 for t in latencies if t > p95[-1]))
    values = {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "task_p50_ms": 1000 * statistics.median(p50),
        "task_p95_ms": 1000 * statistics.median(p95),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    n = [len(p["task_latencies_s"]) for p in passes]
    notes = [f"passes: {len(passes)}; task latency samples per pass: {min(n)}-{max(n)}, "
             f"beyond its p95: {min(beyond)}-{max(beyond)}"]
    return values, notes


def traced(passes: list[dict]) -> tuple[dict, list[str], bool]:
    plain, runs = passes[0], passes[1:]
    per_run = [tracer.layer_metrics(p["spans"]) for p in runs]
    values = {}
    for metric in tracer.METRICS:
        if metric.endswith(".self_s"):
            values[metric] = statistics.median(m[metric] for m in per_run)
        else:
            values[metric] = per_run[0][metric]
    calls = [{k: v for k, v in m.items() if k.endswith(".calls")} for m in per_run]
    repeat = all(c == calls[0] for c in calls)
    same_digest = all(p["digest"] == plain["digest"] for p in runs)
    overhead = statistics.median(p["wall_s"] for p in runs) / plain["wall_s"]
    notes = [f"tracing overhead: traced wall_s / untraced wall_s = {overhead:.3f} "
             f"({plain['wall_s']:.3f} s untraced)",
             f".calls repeat exactly across the two traced passes: {repeat}",
             f"traced digests equal the untraced digest: {same_digest}"]
    values["trace_overhead"] = overhead
    return values, notes, repeat and same_digest


def machine() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    uname = os.uname()
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "cpu": cpu,
            "os": f"{uname.sysname} {uname.release} {uname.machine}"}


def git_commit() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a git repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="reduced sizes (self-test)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "smt_kit" / "__init__.py").is_file():
        print(f"benchmark: no smt_kit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.monotonic()
    passes = []
    try:
        if args.trace:
            for trace in (False, True, True):
                passes.append(run_pass(args.workload, args.seed * 1000, trace, args.quick))
        else:
            while True:
                passes.append(run_pass(args.workload, args.seed * 1000 + len(passes),
                                       False, args.quick))
                elapsed = time.monotonic() - started
                # stop when ending now is nearer to --seconds than ending after one more pass
                if (len(passes) >= MIN_PASSES
                        and elapsed + elapsed / len(passes) / 2 > args.seconds):
                    break
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if args.trace:
        values, notes, consistent = traced(passes)
        units = dict(tracer.METRICS, trace_overhead="ratio")
    else:
        values, notes = end_to_end(passes)
        consistent = True
        units = END_TO_END
    correct = failed == 0 and consistent and all(p["attempted"] for p in passes)

    for p in passes:
        for err in p["errors"]:
            print(f"FAILED (pass seed {p['pass_seed']}): {err}")
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"fail_ratio = {failed / attempted if attempted else 1.0:.6g} ratio "
          f"({failed} failed of {attempted} checks attempted)")
    for note in notes:
        print(note)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "quick": args.quick, "machine": machine(),
        "commit": git_commit(), "runs": len(passes), "correct": correct,
        "metrics": values, "passes": passes,
    }
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-quick' if args.quick else ''}.json"
    (results / name).write_text(json.dumps(record, indent=1))
    print(f"run record: {(results / name).relative_to(ROOT)}")

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
