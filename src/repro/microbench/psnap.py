"""PSNAP-style machine-wide noise census.

PSNAP (the PAL System Noise Activity Program) runs a fixed-work loop on
every node simultaneously and compares per-node overhead histograms —
the way operators map which nodes of a machine are noisy and how noise
varies across the fleet.  Built here on top of the FWQ process, run
concurrently on all nodes of a machine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.stats import SeriesStats, summarize_series
from ..errors import ConfigError
from ..sim import MICROSECOND
from .fwq import FWQBenchmark, FWQResult

__all__ = ["PSNAPResult", "PSNAPBenchmark"]


@dataclass(frozen=True)
class PSNAPResult:
    """Machine-wide fixed-work census."""

    work_ns: int
    per_node: dict[int, FWQResult]

    @property
    def n_nodes(self) -> int:
        return len(self.per_node)

    def node_noise_fractions(self) -> dict[int, float]:
        """node -> fraction of CPU lost to noise."""
        return {n: r.noise_fraction for n, r in self.per_node.items()}

    def noisiest_nodes(self, k: int = 5) -> list[tuple[int, float]]:
        """The ``k`` nodes losing the most CPU, worst first."""
        fracs = self.node_noise_fractions()
        ranked = sorted(fracs.items(), key=lambda kv: kv[1], reverse=True)
        return ranked[:k]

    def machine_stats(self) -> SeriesStats:
        """Distribution of per-node noise fractions across the machine."""
        return summarize_series(list(self.node_noise_fractions().values()))

    def imbalance_ratio(self) -> float:
        """Max/median per-node noise (1.0 = perfectly uniform fleet)."""
        fracs = np.array(list(self.node_noise_fractions().values()))
        med = float(np.median(fracs))
        return float(fracs.max()) / med if med > 0 else float("inf")


class PSNAPBenchmark:
    """Concurrent FWQ census across a machine."""

    def __init__(self, *, work_ns: int = 100 * MICROSECOND,
                 n_samples: int = 1024) -> None:
        if work_ns <= 0 or n_samples <= 0:
            raise ConfigError("PSNAP parameters must be > 0")
        self.work_ns = work_ns
        self.n_samples = n_samples

    def run(self, machine) -> PSNAPResult:
        """Run on every node of a :class:`repro.core.Machine`."""
        fwq = FWQBenchmark(work_ns=self.work_ns, n_samples=self.n_samples)
        out: dict[int, FWQResult] = {}
        procs = [machine.env.process(fwq.process(node, out),
                                     name=f"psnap{node.node_id}")
                 for node in machine.nodes]
        machine.env.run(until=machine.env.all_of(procs))
        return PSNAPResult(self.work_ns, out)
