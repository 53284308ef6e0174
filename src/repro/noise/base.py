"""Noise-source abstraction.

A *noise source* models one stream of kernel activity that steals CPU
from the application: timer interrupts, scheduler ticks, kernel
daemons, softirq processing, or an injected synthetic pattern.

The contract has two views of the same stream:

* **event view** — :meth:`NoiseSource.events_in` enumerates individual
  ``NoiseEvent`` occurrences.  Used by trace-fidelity simulation and by
  the ktau observer, which records every occurrence.
* **aggregate view** — :meth:`NoiseSource.stolen_between` gives the
  total CPU time stolen in a window, and :meth:`NoiseSource.wall_time`
  gives the least solution of *T = W + stolen(t, t+T)*: the wall
  clock time a compute phase of ``W`` ns of work takes when started at
  ``t``.  Used by sampled-fidelity simulation for scaling studies.

``wall_time`` is the simulator's hottest noise query (one per compute
phase), so it does not iterate on ``stolen_between``.  Each source
caches its merged busy timeline in fixed-width blocks built lazily from
:meth:`NoiseSource.busy_intervals`, and the query is one walk over
those blocks that adds up idle gaps until they cover ``W``.  The
answer is exact, so the simulated event schedule does not depend on
how it is computed.

Both views are **pure functions of the window** (randomized sources
freeze their randomness per time chunk), so the two fidelity modes are
guaranteed to agree — a property the test suite checks.
"""

from __future__ import annotations

import typing as _t
from abc import ABC, abstractmethod
from bisect import bisect_right
from dataclasses import dataclass

from ..errors import ConfigError

__all__ = ["NoiseEvent", "NoiseSource", "NullNoise", "merge_busy_time",
           "merged_intervals", "merge_interval_lists"]

#: Busy-timeline blocks are at most 2**_MAX_BLOCK_SHIFT ns (about
#: 4.2 ms) wide; a denser source uses narrower blocks holding about
#: _EVENTS_PER_BLOCK events, so no query enumerates a long window of
#: tiny events it never reaches.
_MAX_BLOCK_SHIFT = 22
_EVENTS_PER_BLOCK = 64
#: Blocks one source keeps cached for :meth:`NoiseSource.wall_time`.
_MAX_BLOCKS = 16


@dataclass(frozen=True, slots=True)
class NoiseEvent:
    """One occurrence of kernel activity.

    Attributes
    ----------
    start:
        Timestamp (ns) the activity begins stealing the CPU.
    duration:
        CPU time stolen, in ns.
    source:
        Name of the generating noise source (e.g. ``"timer-irq"``).
    """

    start: int
    duration: int
    source: str

    @property
    def end(self) -> int:
        """First instant after the activity (``start + duration``)."""
        return self.start + self.duration


def merged_intervals(events: _t.Iterable[NoiseEvent],
                     window_start: int, window_end: int) -> list[tuple[int, int]]:
    """Merge event busy intervals, clipped to ``[window_start, window_end)``.

    Overlapping events (e.g. a daemon firing during interrupt
    processing) must not double-count stolen time: a CPU can only be
    stolen once per instant.
    """
    clipped = []
    for ev in events:
        lo = max(ev.start, window_start)
        hi = min(ev.end, window_end)
        if hi > lo:
            clipped.append((lo, hi))
    if not clipped:
        return []
    clipped.sort()
    merged = [clipped[0]]
    for lo, hi in clipped[1:]:
        last_lo, last_hi = merged[-1]
        if lo <= last_hi:
            if hi > last_hi:
                merged[-1] = (last_lo, hi)
        else:
            merged.append((lo, hi))
    return merged


def merge_busy_time(events: _t.Iterable[NoiseEvent],
                    window_start: int, window_end: int) -> int:
    """Total CPU ns stolen in the window by possibly-overlapping events."""
    return sum(hi - lo for lo, hi in merged_intervals(events, window_start, window_end))


def merge_interval_lists(lists: _t.Sequence[list[tuple[int, int]]]
                         ) -> list[tuple[int, int]]:
    """Merge several already-sorted ``(lo, hi)`` interval lists."""
    flat: list[tuple[int, int]] = []
    for lst in lists:
        flat.extend(lst)
    if not flat:
        return []
    flat.sort()
    merged = [flat[0]]
    for lo, hi in flat[1:]:
        last_lo, last_hi = merged[-1]
        if lo <= last_hi:
            if hi > last_hi:
                merged[-1] = (last_lo, hi)
        else:
            merged.append((lo, hi))
    return merged


class NoiseSource(ABC):
    """One stream of CPU-stealing kernel activity.

    Subclasses must implement :meth:`events_in`,
    :meth:`max_event_duration`, and :attr:`utilization`; the aggregate
    view is derived (subclasses may override ``stolen_between`` with a
    closed form for speed — :class:`repro.noise.PeriodicNoise` does).
    """

    def __init__(self, name: str) -> None:
        if not name:
            raise ConfigError("noise source needs a non-empty name")
        self.name = name
        #: Busy-timeline block cache for :meth:`wall_time`, keyed by
        #: block index in insertion order (see :meth:`_busy_block`),
        #: and the block width's log2, set on the first query.
        self._blocks: dict[int, tuple[list[int], list[int]]] = {}
        self._shift: int | None = None

    # -- event view --------------------------------------------------------
    @abstractmethod
    def events_in(self, start: int, end: int) -> list[NoiseEvent]:
        """All events whose *start* lies in ``[start, end)``, in time order."""

    @abstractmethod
    def max_event_duration(self) -> int:
        """Upper bound on any single event's duration (for window widening)."""

    # -- aggregate view ------------------------------------------------------
    @property
    @abstractmethod
    def utilization(self) -> float:
        """Long-run fraction of CPU stolen (must be < 1)."""

    @property
    def event_rate_hz(self) -> float:
        """Long-run events per second (observer-overhead sizing).

        Default derives from utilization and the maximum event
        duration (a lower bound); concrete sources override with the
        exact rate.
        """
        max_dur = self.max_event_duration()
        if max_dur <= 0:
            return 0.0
        return self.utilization * 1e9 / max_dur

    def busy_intervals(self, start: int, end: int) -> list[tuple[int, int]]:
        """Merged CPU-busy intervals clipped to ``[start, end)``.

        Widens the event query only by *this* source's maximum event
        duration, so composites never force short-event sources to
        enumerate a long-event source's look-back window.
        """
        if end <= start:
            return []
        widened = start - self.max_event_duration()
        return merged_intervals(self.events_in(widened, end), start, end)

    def stolen_between(self, start: int, end: int) -> int:
        """Total CPU ns stolen in ``[start, end)``.

        Includes the tail of events that started before ``start`` but
        are still running at ``start``.
        """
        return sum(hi - lo for lo, hi in self.busy_intervals(start, end))

    def wall_time(self, start: int, work: int) -> int:
        """Wall-clock ns for ``work`` ns of CPU work begun at ``start``.

        Returns the least ``T >= work`` with
        ``T - stolen_between(start, start + T) == work``: the first
        instant at which the CPU has been idle for ``work`` ns since
        ``start``.  Found by one exact walk over the busy timeline
        (see :meth:`_busy_block`): skip to the first busy interval
        ending after ``start``, then add up the idle gaps between
        intervals until they cover ``work``.
        """
        if work < 0:
            raise ValueError(f"work must be >= 0 ns, got {work}")
        if work == 0:
            # Zero work needs no CPU, so nothing can be stolen from it.
            return 0
        shift = self._shift
        if shift is None:
            shift = self._shift = self._block_shift()
        t = start
        remaining = work
        index = start >> shift
        blocks = self._blocks
        while True:
            starts, ends = blocks.get(index) or self._busy_block(index, shift)
            # Intervals ending at or before t are behind the walk; an
            # interval with start <= t < end holds t inside it.
            for i in range(bisect_right(ends, t), len(ends)):
                gap = starts[i] - t
                if gap > 0:
                    if gap >= remaining:
                        return t + remaining - start
                    remaining -= gap
                t = ends[i]
            index += 1
            gap = (index << shift) - t
            if gap >= remaining:
                return t + remaining - start
            remaining -= gap
            t = index << shift

    def _block_shift(self) -> int:
        """log2 of this source's block width (see :data:`_EVENTS_PER_BLOCK`)."""
        rate = self.event_rate_hz
        if rate <= 0:
            return _MAX_BLOCK_SHIFT
        width = int(_EVENTS_PER_BLOCK * 1e9 / rate)
        return max(0, min(_MAX_BLOCK_SHIFT, width.bit_length() - 1))

    def _busy_block(self, index: int, shift: int) -> tuple[list[int], list[int]]:
        """Merged busy intervals of block ``index``, as (starts, ends).

        Block ``k`` covers ``[k << shift, (k + 1) << shift)`` and is
        built once from :meth:`busy_intervals`, so it is exactly the
        source's busy set clipped to the block (an interval that
        crosses a block edge is split there, which adds no idle time).
        At most :data:`_MAX_BLOCKS` blocks are kept; the oldest goes
        first, which suits a simulated clock that only moves forward.
        """
        lo = index << shift
        intervals = self.busy_intervals(lo, lo + (1 << shift))
        block = ([a for a, _ in intervals], [b for _, b in intervals])
        blocks = self._blocks
        if len(blocks) >= _MAX_BLOCKS:
            del blocks[next(iter(blocks))]
        blocks[index] = block
        return block

    # -- introspection -------------------------------------------------------
    def describe(self) -> dict[str, object]:
        """Human-readable parameter summary (used in reports)."""
        return {"name": self.name, "type": type(self).__name__,
                "utilization": self.utilization}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name!r} util={self.utilization:.4%}>"


class NullNoise(NoiseSource):
    """A silent source: the quiet, noiseless kernel baseline."""

    def __init__(self, name: str = "null") -> None:
        super().__init__(name)

    def events_in(self, start: int, end: int) -> list[NoiseEvent]:
        return []

    def max_event_duration(self) -> int:
        return 0

    @property
    def utilization(self) -> float:
        return 0.0

    @property
    def event_rate_hz(self) -> float:
        return 0.0

    def stolen_between(self, start: int, end: int) -> int:
        return 0

    def wall_time(self, start: int, work: int) -> int:
        if work < 0:
            raise ValueError(f"work must be >= 0 ns, got {work}")
        return work
