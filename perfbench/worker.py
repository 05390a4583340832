"""One cold pass of one workload, in the fresh interpreter it was started in.

    python3 perfbench/worker.py WORKLOAD SEED TRACE QUICK T0_NS

`run.py` starts this script once per pass and reads the single JSON line it
prints.  T0_NS is the parent's `time.monotonic_ns()` just before the spawn
(the clock is system-wide), so `setup_s` counts interpreter start-up, the
import of `smt_kit` from `src/` and building the workload's inputs.  With
TRACE=1 the public functions of every layer are wrapped before the inputs
are built and their aggregated spans are part of the output.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main(argv: list[str]) -> int:
    name, seed, t0_ns = argv[0], int(argv[1]), int(argv[4])
    trace, quick = argv[2] == "1", argv[3] == "1"
    import workloads

    tracer = None
    if trace:  # before the inputs are built, so set-up work is traced too
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    tasks = workloads.build(name, seed, quick)
    setup_s = (time.monotonic_ns() - t0_ns) / 1e9

    answers = {}
    latencies = []
    attempted = failed = 0
    errors = []
    start = time.perf_counter()
    for task in tasks:
        t = time.perf_counter()
        try:
            answer, checks = task.run()
        except Exception as exc:  # a raised error or a cap error is a failed check
            answer, checks = f"error: {type(exc).__name__}", [("raised", False)]
            errors.append(f"{task.name}: {traceback.format_exc(limit=3)}")
        latencies.append([task.name, time.perf_counter() - t])
        answers[task.name] = answer
        attempted += len(checks)
        for check, ok in checks:
            if not ok:
                failed += 1
                errors.append(f"{task.name}: check failed: {check}")
    wall_s = time.perf_counter() - start

    canonical = json.dumps(sorted(answers.items()), sort_keys=True, default=str)
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "task_latencies_s": latencies,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "digest": hashlib.sha256(canonical.encode()).hexdigest(),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        out["spans"] = tracer.span_rows()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
