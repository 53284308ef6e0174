"""Noise attribution: charging application delay to kernel activities.

The step that distinguishes *observation* from the indirect noise
benchmarks: for each instrumented application interval, work out how
much of its wall time each kernel activity stole, then explain the slow
intervals by naming the thief.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass

import numpy as np

from ..errors import TraceError
from .records import AppIntervalRecord, EventKind, classify_source
from .tracer import KtauTracer

__all__ = ["IntervalAttribution", "attribute_intervals", "AttributionSummary",
           "summarize_attribution", "explain_slow_intervals", "SlowInterval"]

#: Sources that are *observed kernel time* but not noise: the app asked
#: for syscalls; the observer's own cost is reported separately.
_NON_NOISE = {EventKind.SYSCALL}


@dataclass(frozen=True, slots=True)
class IntervalAttribution:
    """One application interval with its kernel-time breakdown."""

    interval: AppIntervalRecord
    stolen_by_source: dict[str, int]

    @property
    def duration_ns(self) -> int:
        return self.interval.duration

    @property
    def noise_ns(self) -> int:
        """Stolen time that is genuinely noise (excludes syscalls)."""
        return sum(ns for src, ns in self.stolen_by_source.items()
                   if classify_source(src) not in _NON_NOISE)

    @property
    def syscall_ns(self) -> int:
        return sum(ns for src, ns in self.stolen_by_source.items()
                   if classify_source(src) == EventKind.SYSCALL)

    @property
    def app_ns(self) -> int:
        """Wall time not accounted to any observed kernel activity
        (compute + communication wait)."""
        return self.duration_ns - sum(self.stolen_by_source.values())

    def top_thief(self) -> tuple[str, int] | None:
        """The noise source that stole the most, or None if quiet."""
        noise = {src: ns for src, ns in self.stolen_by_source.items()
                 if classify_source(src) not in _NON_NOISE and ns > 0}
        if not noise:
            return None
        src = max(noise, key=lambda s: noise[s])
        return src, noise[src]


def attribute_intervals(tracer: KtauTracer, node_id: int,
                        name: str | None = None) -> list[IntervalAttribution]:
    """Per-interval kernel breakdowns for one node's instrumented
    intervals (trace level required)."""
    out = []
    for interval in tracer.app_intervals(node_id, name):
        breakdown = tracer.stolen_breakdown(node_id, interval.start,
                                            interval.end)
        out.append(IntervalAttribution(interval, breakdown))
    return out


@dataclass(frozen=True, slots=True)
class AttributionSummary:
    """Aggregate attribution across a set of intervals."""

    n_intervals: int
    total_wall_ns: int
    total_noise_ns: int
    total_syscall_ns: int
    by_source: dict[str, int]

    @property
    def noise_fraction(self) -> float:
        return (self.total_noise_ns / self.total_wall_ns
                if self.total_wall_ns else 0.0)


def summarize_attribution(attributions: _t.Sequence[IntervalAttribution]
                          ) -> AttributionSummary:
    """Roll per-interval attributions up into one summary."""
    if not attributions:
        raise TraceError("no intervals to summarize")
    by_source: dict[str, int] = {}
    total_wall = total_noise = total_sys = 0
    for att in attributions:
        total_wall += att.duration_ns
        total_noise += att.noise_ns
        total_sys += att.syscall_ns
        for src, ns in att.stolen_by_source.items():
            by_source[src] = by_source.get(src, 0) + ns
    return AttributionSummary(len(attributions), total_wall, total_noise,
                              total_sys, by_source)


@dataclass(frozen=True, slots=True)
class SlowInterval:
    """One outlier interval and the observer's explanation of it."""

    attribution: IntervalAttribution
    slowdown_vs_median: float
    thief: str | None
    thief_ns: int


def explain_slow_intervals(attributions: _t.Sequence[IntervalAttribution],
                           *, threshold: float = 1.5) -> list[SlowInterval]:
    """Find intervals ≥ ``threshold`` × median duration and name the
    dominant noise source in each — the observer's "ghost sightings"."""
    if not attributions:
        return []
    durations = np.array([a.duration_ns for a in attributions], dtype=float)
    median = float(np.median(durations))
    if median <= 0:
        return []
    out = []
    for att in attributions:
        ratio = att.duration_ns / median
        if ratio >= threshold:
            thief = att.top_thief()
            out.append(SlowInterval(att, ratio,
                                    thief[0] if thief else None,
                                    thief[1] if thief else 0))
    out.sort(key=lambda s: s.slowdown_vs_median, reverse=True)
    return out
