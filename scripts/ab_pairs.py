#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload in alternating pairs.

    python3 scripts/ab_pairs.py --base ../parent-checkout --workload census --pairs 10 --seed 33

Each pair runs `perfbench/run.py --workload W --seed S --trace 0` once in the
base checkout and once in the checkout that holds this script.  The side
that runs first switches from pair to pair, so a drift of the machine (a
warm file cache, a neighbour's load) does not favour one side.  For every
end-to-end metric it prints the median of each side, the ratio of change to
base in every pair and the number of pairs that favour the change; the last
line of standard output is the same summary as one JSON object.  Only the
standard library is used, and nothing under perfbench/ is changed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent


def lower_is_better() -> dict:
    """End-to-end metric -> whether lower is better, as BENCHMARK.json declares it."""
    doc = json.loads((HERE / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] == "lower" for m in doc["end_to_end"]}


def run_once(root: Path, args) -> dict:
    """The metrics of one run.py run in `root`; a failed or wrong run stops the comparison."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--trace", "0"]
    if args.seconds is not None:
        cmd += ["--seconds", str(args.seconds)]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    line = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if line is None or not line["correct"]:
        raise SystemExit(f"ab_pairs: {' '.join(cmd)} in {root} failed "
                         f"(exit {proc.returncode}):\n{proc.stderr}")
    return {name: m["value"] for name, m in line["metrics"].items()}


def summarize(pairs: list, directions: dict) -> dict:
    """Per metric: both medians, the per-pair ratios change/base, the pairs won."""
    out = {}
    for name, lower in directions.items():
        base = [b[name] for b, _ in pairs]
        head = [h[name] for _, h in pairs]
        ratios = [h / b for b, h in zip(base, head)]
        won = sum((h < b) if lower else (h > b) for b, h in zip(base, head))
        out[name] = {"base_median": statistics.median(base),
                     "change_median": statistics.median(head),
                     "ratios": [round(r, 4) for r in ratios],
                     "pairs_favouring_change": won}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", required=True, type=Path, help="root of the checkout to compare against")
    ap.add_argument("--workload", required=True, choices=("sweep", "query", "census"))
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None, help="run.py's --seconds; its default if unset")
    ap.add_argument("--tiny", action="store_true", help="run.py's small inputs, for a smoke test")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    directions = lower_is_better()
    pairs = []
    for i in range(args.pairs):
        if i % 2 == 0:
            base = run_once(args.base, args)
            head = run_once(HERE, args)
        else:
            head = run_once(HERE, args)
            base = run_once(args.base, args)
        pairs.append((base, head))
        print(f"pair {i + 1} ({'base' if i % 2 == 0 else 'change'} first): "
              + "  ".join(f"{k} {base[k]:.4g} -> {head[k]:.4g}" for k in directions),
              flush=True)
    summary = summarize(pairs, directions)
    for name, s in summary.items():
        print(f"{name:12s} median {s['base_median']:.4g} -> {s['change_median']:.4g} "
              f"(x{s['change_median'] / s['base_median']:.3f}); "
              f"{s['pairs_favouring_change']}/{args.pairs} pairs favour the change; "
              f"ratios {s['ratios']}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "pairs": args.pairs,
                      "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
