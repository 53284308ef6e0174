"""Result containers for experiment runs."""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass, field

import numpy as np

from ..analysis.slowdown import SlowdownResult

__all__ = ["RunResult", "ComparisonResult"]


@dataclass(frozen=True)
class RunResult:
    """Outcome of one application run on one machine configuration."""

    app: str
    n_nodes: int
    pattern: str
    seed: int
    makespan_ns: int
    #: (ranks, iterations) wall time per iteration.
    iteration_durations_ns: np.ndarray
    injected_utilization: float
    events_processed: int
    #: Free-form extras (workload params, observer summaries).
    meta: dict[str, _t.Any] = field(default_factory=dict)

    @property
    def mean_iteration_ns(self) -> float:
        return float(self.iteration_durations_ns.mean())

    def as_dict(self) -> dict[str, _t.Any]:
        return {"app": self.app, "nodes": self.n_nodes,
                "pattern": self.pattern, "seed": self.seed,
                "makespan_ns": self.makespan_ns,
                "mean_iteration_ns": self.mean_iteration_ns,
                "injected_pct": 100 * self.injected_utilization,
                "events": self.events_processed}


@dataclass(frozen=True)
class ComparisonResult:
    """A noisy run scored against its quiet baseline."""

    quiet: RunResult
    noisy: RunResult

    @property
    def slowdown(self) -> SlowdownResult:
        return SlowdownResult(self.quiet.makespan_ns, self.noisy.makespan_ns,
                              self.noisy.injected_utilization)

    def as_dict(self) -> dict[str, _t.Any]:
        d = self.noisy.as_dict()
        d.update(quiet_makespan_ns=self.quiet.makespan_ns,
                 slowdown_pct=self.slowdown.slowdown_percent,
                 amplification=self.slowdown.amplification,
                 verdict=self.slowdown.verdict)
        return d
