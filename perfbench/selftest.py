"""Self-test of the benchmark at reduced size (about a minute).

    python3 perfbench/selftest.py

For each workload it runs `run.py --quick` untraced and traced with the
same seed and checks that:
  * every metric BENCHMARK.json names is printed by name with its unit,
    both on a text line and in the final JSON line, and fail_ratio is 0;
  * the two traced passes give identical `.calls` counts and the digest of
    the untraced pass on the same seed;
and that run.py, started where the library sources are missing, exits
non-zero without printing a result.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 3

sys.path.insert(0, str(HERE))
import run  # noqa: E402
import tracer  # noqa: E402


def check(ok: bool, what: str) -> None:
    if not ok:
        print(f"FAIL: {what}")
        sys.exit(1)
    print(f"ok: {what}")


def bench(workload: str, trace: int) -> tuple[list[str], dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--quick"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    check(proc.returncode == 0, f"{workload} trace={trace} exits 0 ({proc.stderr.strip()[-500:]})")
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def record(workload: str, trace: int) -> dict:
    path = HERE / "results" / f"{workload}-seed{SEED}-trace{trace}-quick.json"
    return json.loads(path.read_text())


def printed(lines: list[str], result: dict, metrics: dict[str, str]) -> bool:
    for name, unit in metrics.items():
        if not any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines):
            return False
        if result["metrics"].get(name, {}).get("unit") != unit:
            return False
    return set(result["metrics"]) == set(metrics)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(end_to_end == run.END_TO_END, "BENCHMARK.json end_to_end matches run.py")
    check(per_layer == dict(tracer.METRICS, trace_overhead="ratio"),
          "BENCHMARK.json per_layer matches tracer.py")
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json workloads match run.py")

    for workload in run.WORKLOADS:
        lines, result = bench(workload, 0)
        check(printed(lines, result, end_to_end), f"{workload}: end-to-end metrics printed with units")
        check(any(line.startswith("fail_ratio = 0 ratio") for line in lines)
              and result["failed"] == 0 and result["correct"], f"{workload}: fail_ratio is 0")
        untraced_digest = record(workload, 0)["passes"][0]["digest"]

        lines, result = bench(workload, 1)
        check(printed(lines, result, per_layer), f"{workload}: per-layer metrics printed with units")
        check(result["correct"] and result["failed"] == 0, f"{workload}: traced run correct")
        passes = record(workload, 1)["passes"]
        calls = [{k: v for k, v in tracer.layer_metrics(p["spans"]).items() if k.endswith(".calls")}
                 for p in passes if p["traced"]]
        check(len(calls) == 2 and calls[0] == calls[1], f"{workload}: .calls repeat exactly")
        check(all(p["digest"] == untraced_digest for p in passes),
              f"{workload}: traced digests equal the untraced digest")

    bare = HERE / "results" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", run.WORKLOADS[0],
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without the library sources run.py exits non-zero and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
