"""Bounds and budgets, collected so reports can cite them verbatim.

The search bounds are constants, and each is resolved where it is read.
The certifiers (completeness, left-cancellativity, Ore, spine, F-infinity)
always run at them, except where the CLI sets one: the fraction bound
(`eval`/`qspace --bound`), the absorption bound (`check --bound`) and the
spine bounds (`spine --max-carets/--max-stages`).  The completeness and
left-cancellativity verdicts they share are memoized by presentation value
in `presentation.memo`, a memo bounded to the 32 presentations used last and
reset with `memo.cache_clear()`.

Budgets are settable, because callers run the same primitive under
different ones: reversing (`reverse`, `reverses_to_empty`, `words_equal`,
`left_divides`) and the oracle's class reads (`class_members`, `descend`,
and through it `normal_form`, and `normalize_point` only where it
descends: on the oracle route, or over the exact scan's cap on a
presentation with relations).  `saturate`, the stratum table of the
benchmark sweep, takes the same budget as the class reads.
"""

from __future__ import annotations

from dataclasses import dataclass

FRACTION_BOUND = 14      # caret budget for fraction-arithmetic witnesses
ORE_PAIR_BOUND = 3
ORE_SEARCH_BOUND = 5
LC_REFUTE_BOUND = 4
ABSORPTION_BOUND = 3     # caret size of trees tested for division into an iterate
ITERATE_DEPTH = 3        # absorption into the iterate t_3, read by complements against t
SPINE_CARET_BOUND = 16
SPINE_STAGE_BOUND = 8


@dataclass(frozen=True)
class OracleBudget:
    caret_cap: int = 12          # hard cap on stratum caret counts
    # Hard cap on forests per stratum.  A class read is refused by the size
    # of the stratum that holds the class, although it searches only the
    # class, so every over-budget fallback fires where saturation refused it.
    class_cap: int = 10**6


@dataclass(frozen=True)
class ReversingBudget:
    steps: int = 10_000          # rewriting steps per reversal
    index_ceiling: int = 64      # generator indices beyond this abort the run
    branch_cap: int = 2_000      # live branches in non-deterministic exploration
