"""Budget and bound defaults, collected so reports can cite them verbatim."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class OracleBudget:
    caret_cap: int = 12          # hard cap on saturated stratum caret counts
    class_cap: int = 10**6       # hard cap on forests per stratum


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
