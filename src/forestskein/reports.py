"""Run reports: one JSON document per CLI invocation, deterministic modulo wall time."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from .presentation import SkeinPresentation

SCHEMA_VERSION = "1"


@dataclass
class Verdict:
    prop: str
    verdict: str                 # the property's own word: yes | complete | stabilized | ...
    confidence: str              # proved | evidence | unknown | refuted, from the result:
                                 # Certificate.confidence, SpineReport.confidence, OreSearch.verdict
    bounds: dict = field(default_factory=dict)
    witness: dict | list | str | None = None
    certificate: dict | None = None

    def to_json(self) -> dict:
        out = {"property": self.prop, "verdict": self.verdict,
               "confidence": self.confidence, "bounds": self.bounds}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.certificate is not None:
            out["certificate"] = self.certificate
        return out


@dataclass
class RunReport:
    command: str
    presentation: SkeinPresentation | None
    verdicts: list = field(default_factory=list)
    bounds: dict = field(default_factory=dict)
    data: dict = field(default_factory=dict)
    started: float = field(default_factory=time.monotonic)

    def add(self, verdict: Verdict):
        self.verdicts.append(verdict)

    def to_json(self) -> dict:
        out = {
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            "bounds": self.bounds,
            "verdicts": [v.to_json() for v in self.verdicts],
            "wall_time_ms": round(1000 * (time.monotonic() - self.started), 3),
        }
        if self.presentation is not None:
            out["presentation"] = {
                "name": self.presentation.name or "anonymous",
                "hash": self.presentation.digest(),
            }
        out.update(self.data)
        return out

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, indent=2)
