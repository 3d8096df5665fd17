#!/usr/bin/env python3
"""forestskein benchmark: one workload per run, or every workload with --all.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 10

Run from the root of a forestskein checkout.  --seconds sizes each
workload's plan: the commit that added the benchmark spends about that long
on it on 2 vCPU (query adds its two forced points, about 25 s more).  Each
run starts fresh interpreters (worker.py) so caches start cold, as for a
CLI user:

* --trace 0 measures set-up several times (probe interpreters that set up
  and exit, plus the measured one) and reports the median as setup_s, then
  reports the measured interpreter's throughput, latency and peak memory;
* --trace 1 runs the workload with every layer wrapped (tracer.py) and
  reports the per-layer metrics instead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A run whose correctness gate trips prints
correct: false and exits 1.  The full record of a run (metadata, input
properties, every latency summary, the trace) is written once, at the end,
to .perfbench_out/ in the checkout.  Without forestskein sources under
src/ the run exits 2 and prints no result.
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

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from worker import READY_LINE  # noqa: E402
from workloads import LAYER_MAP, WHY, WORKLOADS  # noqa: E402

# name -> unit of the end-to-end metrics on a --trace 0 result line.  The
# summary also prints op_tail_ms and fail_ratio; they stay off the result
# line because the tail spreads more than any allowed bound across seeds
# and the failure ratio is zero on these workloads.
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
SETUP_PROBES = 4
RUN_DEADLINE_S = 170.0


class RunFailed(RuntimeError):
    pass


def metadata() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg_at_start": list(os.getloadavg()),
    }


def _commit() -> str:
    """The checked-out commit, read from .git when the checkout has one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (no .git in the checkout)"


def _spawn(args: list, deadline: float) -> float:
    """Run a worker to its end; return the seconds until it printed READY_LINE."""
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, env=env)
    try:
        ready = None
        for line in proc.stdout:
            if ready is None and line.strip() == READY_LINE:
                ready = time.perf_counter() - t0
            if time.perf_counter() > deadline:
                raise RunFailed("worker ran past the run deadline")
        code = proc.wait(timeout=max(deadline - time.perf_counter(), 1.0))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None:
        raise RunFailed(f"worker {' '.join(args)} exited with {code}")
    return ready


def run_one(workload: str, seed: int, seconds: float, trace: int,
            tiny: bool = False, plant: str | None = None) -> dict:
    deadline = time.perf_counter() + RUN_DEADLINE_S
    meta = metadata()
    OUT.mkdir(exist_ok=True)
    base = ["--workload", workload, "--seed", str(seed)]
    if tiny:
        base.append("--tiny")
    setups = []
    if not trace:
        for _ in range(1 if tiny else SETUP_PROBES):
            setups.append(_spawn(base + ["--setup-only"], deadline))
    out = OUT / f"worker-{os.getpid()}.json"
    args = base + ["--seconds", str(seconds), "--trace", str(trace), "--out", str(out)]
    if plant:
        args += ["--plant", plant]
    try:
        ready = _spawn(args, deadline)
        payload = json.loads(out.read_text())
    finally:
        out.unlink(missing_ok=True)
    setups.append(ready)
    payload["setup_samples_s"] = setups
    payload["meta"] = meta
    payload["why"] = WHY[workload]
    lat = payload["latency"]
    payload["end_to_end"] = {
        "setup_s": {"value": statistics.median(setups), "unit": "s", "samples": len(setups)},
        "ops_per_s": {"value": payload["ops_per_s"], "unit": "1/s",
                      "samples": payload["attempted"]},
        "op_p50_ms": {"value": lat["p50_ms"], "unit": "ms", "samples": lat["samples"]},
        "op_tail_ms": {"value": lat["tail_ms"], "unit": "ms", "samples": lat["samples"],
                       "percentile": lat["tail_percentile"]},
        "peak_rss_mb": {"value": payload["peak_rss_mb"], "unit": "MB", "samples": 1},
        "fail_ratio": {"value": payload["failed"] / payload["attempted"], "unit": "ratio",
                       "samples": payload["attempted"]},
    }
    record = OUT / f"{workload}-seed{seed}-trace{trace}{'-tiny' if tiny else ''}.json"
    record.write_text(json.dumps(payload, indent=1, sort_keys=True))
    payload["record"] = str(record.relative_to(ROOT))
    return payload


def result_line(payload: dict, trace: int) -> dict:
    if trace:
        metrics = payload["trace"]["metrics"]
    else:
        metrics = {k: {"value": payload["end_to_end"][k]["value"], "unit": u}
                   for k, u in END_TO_END_UNITS.items()}
    return {"correct": not payload["errors"], "attempted": payload["attempted"],
            "failed": payload["failed"], "metrics": metrics}


def print_summary(payload: dict, trace: int):
    w = payload["workload"]
    print(f"== {w} (seed {payload['seed']}, trace {trace}): {payload['attempted']} ops "
          f"in {payload['timed_s']:.2f} s, {payload['failed']} failed")
    meta = payload["meta"]
    print(f"   commit {meta['commit'][:12]}  python {meta['python']}  nproc {meta['nproc']}  "
          f"cpu {meta['cpu_model']}  load {meta['loadavg_at_start']}")
    if not trace:
        for name, m in payload["end_to_end"].items():
            extra = f", p{m['percentile']:.2f}" if "percentile" in m else ""
            print(f"   {name:12s} {m['value']:14.4f} {m['unit']:6s} (n={m['samples']}{extra})")
    else:
        tr = payload["trace"]
        shares = ", ".join(f"{k} {v:.1%}" for k, v in
                           sorted(tr["layer_share"].items(), key=lambda kv: -kv[1]) if v)
        print(f"   self-time share: {shares}")
        for name, m in tr["metrics"].items():
            print(f"   {name:36s} {m['value']:16.6g} {m['unit']}")
        if tr["absent"]:
            print(f"   absent names: {', '.join(tr['absent'])}")
    print(f"   inputs: {json.dumps(payload['inputs'], sort_keys=True)[:2000]}")
    for err in payload["errors"]:
        print(f"   WRONG: {err}")
    print(f"   record: {payload['record']}")


def run_all(seed: int, seconds: float):
    """Every workload untraced and traced, with the stress checks of each."""
    for w in WORKLOADS:
        print(f"# {w}: {WHY[w]}")
        plain = run_one(w, seed, seconds, 0)
        print_summary(plain, 0)
        traced = run_one(w, seed, seconds, 1)
        print_summary(traced, 1)
        overhead = 1 - traced["ops_per_s"] / plain["ops_per_s"]
        print(f"   trace overhead on ops_per_s: {overhead:.1%} "
              f"(estimated from calls: {traced['trace']['metrics']['trace.overhead_est']['value']:.1%})")
        for claim, ok in stress_checks(w, traced["trace"]):
            print(f"   stress check: {claim}: {'yes' if ok else 'NO'}")
    print("# layer -> end-to-end metric it should move")
    for layer, rows in LAYER_MAP.items():
        for metric, moves, workload in rows:
            print(f"   {layer:18s} {metric:28s} -> {moves} on {workload}")


def stress_checks(workload: str, trace: dict) -> list:
    share = trace["layer_share"]
    m = {k: v["value"] for k, v in trace["metrics"].items()}
    top = max(share, key=share.get)
    if workload == "sweep":
        return [("reversing has the largest self-time share", top == "reversing")]
    if workload == "query":
        rest = max(v for k, v in share.items() if k not in ("oracle", "forest"))
        return [("oracle + forest have the largest self-time share",
                 share["oracle"] + share["forest"] > rest)]
    return [("reversing.decide_lc.repeat > 1", m["reversing.decide_lc.repeat"] > 1),
            ("snf self time > 0", m["snf.self_s"] > 0),
            ("ore_spine self time > 0", m["ore_spine.self_s"] > 0)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--all", action="store_true", help="run every workload, plain and traced")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small inputs, for the self-check")
    ap.add_argument("--plant", default=None,
                    help="plant a wrong expected value in the named gate (self-check)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "forestskein" / "__init__.py").is_file():
        print(f"run.py: no forestskein sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.all:
        run_all(args.seed, args.seconds)
        return 0
    if not args.workload:
        ap.error("--workload or --all is required")
    try:
        payload = run_one(args.workload, args.seed, args.seconds, args.trace,
                          args.tiny, args.plant)
    except RunFailed as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 3
    print_summary(payload, args.trace)
    line = result_line(payload, args.trace)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
