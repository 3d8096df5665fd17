#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload inside one interpreter.

    python3 scripts/ab_inproc.py --base ../parent-checkout --workload query --seed 31 --blocks 10

The base checkout's `src/forestskein` and this checkout's are loaded as two
packages side by side, so both run under the same interpreter, the same
hash seed and the same state of the machine; single `perfbench/run.py`
processes, by contrast, fall into a fast or a slow mode independent of the
code.  Each side gets its own `perfbench.workloads.Context`, and the
workload's `setup`, `run` and `check` are reused unchanged from this
checkout's `perfbench/`.

One untimed pass per side comes first, so that neither side pays alone
for what a first run warms (lazy imports, the interpreter's own caches).
Then a block runs the workload once per side: every cache of the side is
cleared, the workload is set up, its plan is timed, and its gates are
checked; a tripped gate on either side stops the comparison.  The side that
runs first switches from block to block.  For each metric it prints the
change/base ratio of every block, their median and quartiles, and the
number of blocks that favour the change.  The same is printed for the p50
latency of each op kind (census `relator` against the `cli.*` commands,
say), so that a change to one kind shows apart from the others.  The last
line of standard output is the whole summary as one JSON object, with the
metrics under `metrics` and the op kinds under `kinds`.  Peak memory and
set-up time are per process, so they are not compared here
(`scripts/ab_pairs.py` does): in one interpreter the set-up finds the imports
and the interpreter warm, about 1 ms on census against 0.13-0.2 s in a fresh
process, and its ratios between blocks say nothing of the benchmark's.  Only
the standard library is used, and nothing under perfbench/ is changed.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
MODULES = ("cli", "config", "corpus", "forest", "fractions", "group_presentation",
           "oracle", "ordered_action", "ore_spine", "presentation", "reversing", "snf")
LOWER_IS_BETTER = {"ops_per_s": False, "op_p50_ms": True}


def load_side(root: Path, alias: str):
    """The forestskein package under `root`/src, imported as `alias`, as a
    namespace of its modules the way perfbench's worker builds one."""
    package = root / "src" / "forestskein"
    spec = importlib.util.spec_from_file_location(
        alias, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    mods = {name: importlib.import_module(f"{alias}.{name}") for name in MODULES}
    return argparse.Namespace(**mods)


def clear_caches(fs) -> None:
    """Empty every module-level cache of one side, as in a fresh interpreter."""
    for mod in vars(fs).values():
        for value in list(vars(mod).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def measure(fs, root: Path, workloads, args) -> dict:
    """One cold set-up, then the timed run and gate check of the workload on one side."""
    clear_caches(fs)
    gc.collect()
    clock = time.perf_counter
    ctx = workloads.Context(fs, args.seed, args.seconds, args.tiny, None, clock, root)
    workload = workloads.WORKLOADS[args.workload]()
    workload.setup(ctx)
    t0 = clock()
    workload.run(ctx)
    elapsed = clock() - t0
    workload.check(ctx)
    if ctx.errors:
        raise SystemExit(f"ab_inproc: a gate tripped in {root}: {ctx.errors[:3]}")
    by_kind: dict = {}
    for kind, latency in zip(ctx.kinds, ctx.latencies):
        by_kind.setdefault(kind, []).append(latency)
    return {"ops_per_s": len(ctx.latencies) / elapsed,
            "op_p50_ms": 1000 * statistics.median(ctx.latencies), "failed": ctx.failed,
            "kinds": {kind: (1000 * statistics.median(ls), len(ls))
                      for kind, ls in sorted(by_kind.items())}}


def ratio_stats(ratios: list, lower: bool) -> dict:
    """The median and quartiles of change/base ratios, and how many favour the change."""
    q1, median, q3 = (statistics.quantiles(ratios, n=4, method="inclusive")
                      if len(ratios) > 1 else ratios * 3)
    return {"median_ratio": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "ratios": [round(r, 4) for r in ratios],
            "blocks_favouring_change": sum((r < 1) if lower else (r > 1) for r in ratios)}


def summarize(blocks: list) -> dict:
    """Per metric: the change/base ratio of each block, its median and quartiles,
    and the blocks that favour the change."""
    out = {name: ratio_stats([h[name] / b[name] for b, h in blocks], lower)
           for name, lower in LOWER_IS_BETTER.items()}
    out["failed"] = {"base": [b["failed"] for b, _ in blocks],
                     "change": [h["failed"] for _, h in blocks]}
    return out


def summarize_kinds(blocks: list) -> dict:
    """Per op kind that both sides ran in every block: the change/base ratio of
    its p50 latency in each block, as `summarize` reads a metric, and its op
    count in the base's first block."""
    kinds = set.intersection(*(set(b["kinds"]) & set(h["kinds"]) for b, h in blocks))
    return {kind: {**ratio_stats([h["kinds"][kind][0] / b["kinds"][kind][0]
                                  for b, h in blocks], True),
                   "ops": blocks[0][0]["kinds"][kind][1]}
            for kind in sorted(kinds)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", required=True, type=Path, help="root of the checkout to compare against")
    ap.add_argument("--workload", required=True, choices=("sweep", "query", "census"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--blocks", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=10.0, help="sizes the plan, as run.py's --seconds")
    ap.add_argument("--tiny", action="store_true", help="the workloads' small inputs, for a smoke test")
    args = ap.parse_args(argv)
    if args.blocks < 1:
        ap.error("--blocks must be at least 1")
    sys.path.insert(0, str(HERE / "perfbench"))
    import workloads
    sides = {"base": (load_side(args.base.resolve(), "forestskein_base"), args.base.resolve()),
             "change": (load_side(HERE, "forestskein_change"), HERE)}
    for side in sides.values():
        measure(*side, workloads, args)
    blocks = []
    for i in range(args.blocks):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        got = {side: measure(*sides[side], workloads, args) for side in order}
        blocks.append((got["base"], got["change"]))
        print(f"block {i + 1} ({order[0]} first): "
              + "  ".join(f"{k} {got['base'][k]:.4g} -> {got['change'][k]:.4g}"
                          for k in LOWER_IS_BETTER), flush=True)
    summary, kinds = summarize(blocks), summarize_kinds(blocks)
    rows = [(name, summary[name]) for name in LOWER_IS_BETTER]
    rows += [(f"p50 of {kind} ({s['ops']} ops)", s) for kind, s in kinds.items()]
    for name, s in rows:
        print(f"{name:10s} median ratio x{s['median_ratio']:.3f} (quartiles {s['q1']:.3f}"
              f"-{s['q3']:.3f}); {s['blocks_favouring_change']}/{args.blocks} blocks favour "
              f"the change")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "blocks": args.blocks,
                      "metrics": summary, "kinds": kinds}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
