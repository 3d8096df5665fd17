#!/usr/bin/env python3
"""Self-check of the benchmark itself; about a minute on 2 vCPU.

    python3 perfbench/selfcheck.py

1. A tiny run of every workload, plain and traced, must print every metric
   that BENCHMARK.json names, with its unit, and pass its gates.
2. Every correctness gate must trip when a wrong expected value is planted
   (run.py --plant GATE): the run prints correct: false and exits 1.
3. In a directory holding only BENCHMARK.json and the benchmark's files,
   run.py must exit non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import CRITERION_2, GOLDENS, WORKLOADS  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
SIX = {"setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb", "fail_ratio"}


def _record_path(stdout: str) -> str:
    return next(line.split(":", 1)[1].strip() for line in stdout.splitlines()
                if line.strip().startswith("record:"))


def run(args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py"] + args
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc, result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []

    def expect(ok, message):
        print(f"{'ok  ' if ok else 'FAIL'} {message}", flush=True)
        if not ok:
            problems.append(message)

    goldens = json.loads(GOLDENS.read_text())
    expect(all(goldens[k]["finite"] == v for k, v in CRITERION_2.items()),
           "census golden table carries the criterion-2 abelianizations")
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
           "BENCHMARK.json lists exactly the workloads the benchmark runs")

    for workload in WORKLOADS:
        for trace in (0, 1):
            proc, res = run(["--workload", workload, "--seed", "7", "--seconds", "1",
                             "--trace", str(trace), "--tiny"])
            label = f"{workload} tiny trace={trace}"
            expect(proc.returncode == 0 and res is not None and set(res) == RESULT_KEYS,
                   f"{label}: exit 0 and a result line")
            if res is None:
                continue
            got = {k: m.get("unit") for k, m in res["metrics"].items()}
            expect(got == wanted[trace], f"{label}: metrics and units match BENCHMARK.json")
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                   f"{label}: gates pass, no failed operation")
            if trace == 0:
                record = json.loads((ROOT / _record_path(proc.stdout)).read_text())
                six = record["end_to_end"]
                expect(set(six) == SIX and all(m["unit"] and m["samples"] > 0
                                               for m in six.values()),
                       f"{label}: the record holds all six end-to-end metrics "
                       f"with units and sample counts")

    for workload, cls in WORKLOADS.items():
        for gate in cls.GATES:
            proc, res = run(["--workload", workload, "--seed", "7", "--seconds", "1",
                             "--trace", "0", "--tiny", "--plant", gate])
            tripped = f"WRONG: {gate}:" in proc.stdout
            expect(proc.returncode == 1 and res is not None and res["correct"] is False
                   and tripped, f"{workload} gate {gate!r} trips on a planted wrong value")

    bare = ROOT / ".perfbench_out" / f"bare-{os.getpid()}"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc, res = run(["--workload", "sweep", "--seed", "1", "--seconds", "1",
                         "--trace", "0"], cwd=bare)
        expect(proc.returncode != 0 and res is None,
               "without the program's sources the run fails and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
