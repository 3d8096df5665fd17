#!/usr/bin/env python3
"""Record one BENCH_<n>.json from the benchmark in perfbench/ and the tier-1 suite.

    python3 scripts/bench_record.py --n 8 --seeds 21 22 23 24 25
    python3 scripts/bench_record.py --n 7 --root ../other-checkout --seeds 21 22 23

For each workload it runs `perfbench/run.py --workload W --seed S --trace 0`
once per seed and keeps, for every end-to-end metric, the median and the
interquartile range over the seeds.  It adds one `--trace 1` run per
workload (on the first seed) for the layer counters, the layer self-time
shares, the per-test times of `pytest --durations=0` and the metadata that
run.py records (commit, Python, nproc, CPU model), the line count of the
package source (`src_lines`), and the median time of a fixed pure-Python
calibration loop, so that entries recorded on different machines can be read
against each other.  Every run takes
run.py's own default duration, so all BENCH files share one run length.
Everything runs from --root, so a checkout of an older commit can be
measured with this script; the file is always written at the root of the
checkout that holds this script.  Only the standard library is used, and
nothing under perfbench/ is changed.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("sweep", "query", "census")
TRACED = ("oracle.saturate.calls", "oracle.strata", "oracle.forests", "forest.self_s",
          "reversing.reversals", "ordered_action.normalize.calls", "ordered_action.self_s",
          "fractions.witness.calls", "reversing.us_per_call", "snf.self_s",
          "reversing.self_s", "fractions.self_s")
_DURATION = re.compile(r"^([\d.]+)s (setup|call|teardown)\s+(\S+)$")
_SUMMARY = re.compile(r"(\d+) (passed|failed|error|errors|skipped)")
HERE = Path(__file__).resolve().parent.parent


def last_line(cmd: list, proc: subprocess.CompletedProcess) -> str:
    """The last line a command printed; its stderr is shown if it printed nothing."""
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"bench_record: {' '.join(cmd)} printed nothing "
                         f"(exit {proc.returncode}):\n{proc.stderr}")
    return lines[-1]


def calibration_s(repeats: int = 5, n: int = 1_000_000) -> float:
    """Median seconds of a fixed pure-Python loop of n modular steps: machine speed."""
    times = []
    for _ in range(repeats):
        t0, acc = time.perf_counter(), 0
        for i in range(n):
            acc = (acc * 31 + i) % 1_000_003
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def src_lines(root: Path) -> int:
    """Summed line count (as `wc -l` counts) of src/forestskein/*.py under root."""
    return sum(f.read_bytes().count(b"\n") for f in (root / "src" / "forestskein").glob("*.py"))


def run_bench(root: Path, workload: str, seed: int, trace: int) -> dict:
    """One run.py run: its result line plus the record it wrote."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    line = json.loads(last_line(cmd, proc))
    record = json.loads((root / ".perfbench_out" /
                         f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"line": line, "record": record}


def spread(values: list) -> dict:
    """Median and interquartile range of the samples."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "iqr": q3 - q1, "samples": values}


def summarize(runs: list) -> dict:
    metrics = {}
    for name in runs[0]["line"]["metrics"]:
        values = [r["line"]["metrics"][name]["value"] for r in runs]
        metrics[name] = {"unit": runs[0]["line"]["metrics"][name]["unit"], **spread(values)}
    attempted = sum(r["line"]["attempted"] for r in runs)
    failed = sum(r["line"]["failed"] for r in runs)
    return {
        "end_to_end": metrics,
        "runs": len(runs),
        "all_correct": all(r["line"]["correct"] for r in runs),
        "failed_share": failed / attempted if attempted else 0.0,
        "loadavg_at_start": [r["record"]["meta"]["loadavg_at_start"][0] for r in runs],
    }


def traced(run: dict) -> dict:
    metrics = run["line"]["metrics"]
    return {
        "seed": run["record"]["seed"],
        "correct": run["line"]["correct"],
        "metrics": {name: metrics[name]["value"] for name in TRACED if name in metrics},
        "layer_share": run["record"]["trace"]["layer_share"],
    }


def pytest_durations(root: Path) -> dict:
    """Per-test seconds (setup + call + teardown) and the suite's summary counts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
           "--durations=0", "--durations-min=0", "-p", "no:cacheprovider"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, env=env)
    wall = time.perf_counter() - t0
    tests: dict = {}
    for line in proc.stdout.splitlines():
        m = _DURATION.match(line.strip())
        if m:
            tests[m.group(3)] = round(tests.get(m.group(3), 0.0) + float(m.group(1)), 4)
    counts = {kind: int(n) for n, kind in _SUMMARY.findall(last_line(cmd, proc))}
    return {"wall_s": round(wall, 2), "counts": counts,
            "tests": dict(sorted(tests.items(), key=lambda kv: -kv[1]))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--n", type=int, required=True, help="the number in BENCH_<n>.json")
    ap.add_argument("--seeds", type=int, nargs="+", default=[21, 22, 23, 24, 25])
    ap.add_argument("--root", type=Path, default=HERE,
                    help="the checkout to measure (default: this one)")
    args = ap.parse_args(argv)
    root = args.root.resolve()

    doc: dict = {"bench": args.n, "seeds": args.seeds, "workloads": {}}
    meta = None
    for w in WORKLOADS:
        runs = []
        for seed in args.seeds:
            runs.append(run_bench(root, w, seed, 0))
            print(f"{w} seed {seed}: {runs[-1]['line']['metrics']}", flush=True)
        meta = meta or runs[0]["record"]["meta"]
        entry = summarize(runs)
        entry["trace"] = traced(run_bench(root, w, args.seeds[0], 1))
        print(f"{w} traced: {entry['trace']['metrics']}", flush=True)
        doc["workloads"][w] = entry
    doc["meta"] = {k: meta[k] for k in ("commit", "python", "nproc", "cpu_model")}
    doc["meta"]["calibration_s"] = round(calibration_s(), 4)
    doc["meta"]["src_lines"] = src_lines(root)
    doc["tier1"] = pytest_durations(root)
    print(f"tier-1: {doc['tier1']['counts']} in {doc['tier1']['wall_s']} s", flush=True)
    out = HERE / f"BENCH_{args.n}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
