"""Budget and bound defaults, collected so reports can cite them verbatim.

The certifiers (completeness, left-cancellativity, Ore, spine, F-infinity)
always run at these defaults, except for the absorption and spine bounds
that the CLI may set.  The completeness and left-cancellativity verdicts
they share are memoized by presentation value in `presentation.memo`, a
memo bounded to the 32 presentations used last and reset with
`memo.cache_clear()`.  Only the primitives take budgets: reversing
(`reverse`, `reverses_to_empty`, `words_equal`, `left_divides`) and the
oracle's class reads (`saturate`, `class_members`, `descend`, and through
it `normal_form` and `normalize_point`).
"""

from __future__ import annotations

from dataclasses import dataclass


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


@dataclass(frozen=True)
class SpineBounds:
    caret_bound: int = 16
    stage_bound: int = 8


@dataclass(frozen=True)
class SearchBounds:
    fraction_bound: int = 14     # caret budget for fraction-arithmetic witnesses
    ore_pair_bound: int = 3
    ore_search_bound: int = 5
    lc_refute_bound: int = 4
    absorption_bound: int = 3    # caret size of trees tested against iterates
    iterate_depth: int = 3
