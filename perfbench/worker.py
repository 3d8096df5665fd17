"""One measured run of one workload, in a fresh interpreter.

Started by run.py.  It imports forestskein from the checkout's src/, sets
the workload up, prints READY_LINE (the parent times set-up up to that
line), runs the timed closed loop over the plan that --seconds sized, applies the
workload's correctness gates and writes its findings as JSON to --out.
With --setup-only it exits right after READY_LINE.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

READY_LINE = "PERFBENCH_READY"
ROOT = Path(__file__).resolve().parent.parent
MODULES = ("cli", "config", "corpus", "forest", "fractions", "group_presentation",
           "oracle", "ordered_action", "ore_spine", "presentation", "reversing", "snf")


def load_program() -> SimpleNamespace:
    src = ROOT / "src"
    if not (src / "forestskein" / "__init__.py").is_file():
        raise SystemExit(f"worker: no forestskein sources under {src}")
    sys.path.insert(0, str(src))
    import importlib
    mods = {name: importlib.import_module(f"forestskein.{name}") for name in MODULES}
    origin = Path(mods["cli"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"worker: forestskein imported from {origin}, not from {src}")
    return SimpleNamespace(**mods)


def latency_summary(latencies: list) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(latencies)
    ordered = sorted(latencies)
    tail_index = max(n - 11, 0)
    return {
        "samples": n,
        "p50_ms": 1000 * statistics.median(ordered),
        "tail_ms": 1000 * ordered[tail_index],
        "tail_percentile": 100 * (tail_index + 1) / n,
        "samples_beyond_tail": n - tail_index - 1,
        "max_ms": 1000 * ordered[-1],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--plant", default=None)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    fs = load_program()
    from workloads import WORKLOADS, Context
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    workload = WORKLOADS[args.workload]()
    clock = time.perf_counter
    ctx = Context(fs, args.seed, args.seconds, args.tiny, args.plant, clock, ROOT, tracer)
    workload.setup(ctx)
    print(READY_LINE, flush=True)
    if args.setup_only:
        return 0

    if tracer is not None:
        tracer.start()
    t0 = clock()
    workload.run(ctx)
    elapsed = clock() - t0
    if tracer is not None:
        tracer.stop()
    workload.check(ctx)

    attempted = len(ctx.latencies)
    payload = {
        "workload": args.workload,
        "seed": args.seed,
        "tiny": args.tiny,
        "plant": args.plant,
        "timed_s": elapsed,
        "attempted": attempted,
        "failed": ctx.failed,
        "fail_kinds": dict(ctx.fail_kinds),
        "ops_per_s": attempted / elapsed,
        "latency": latency_summary(ctx.latencies),
        "latency_by_kind": {kind: latency_summary([d for d, k in zip(ctx.latencies, ctx.kinds)
                                                   if k == kind])
                            for kind in sorted(set(ctx.kinds))},
        "slowest_ops": [[1000 * d, k, i] for d, k, i in
                        sorted(zip(ctx.latencies, ctx.kinds, range(attempted)), reverse=True)[:20]],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "errors": ctx.errors,
        "inputs": ctx.inputs,
        "gates": list(workload.GATES),
        "planted_reached": ctx.plant_reached,
    }
    if tracer is not None:
        per_call = tracer.calibrate()
        overhead = per_call * tracer.total_calls() / elapsed
        payload["trace"] = tracer.report(overhead)
    with open(args.out, "w") as fh:
        json.dump(payload, fh)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.exit(main())
