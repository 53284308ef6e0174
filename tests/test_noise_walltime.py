"""``NoiseSource.wall_time`` (the busy-timeline walk) against a reference.

The reference below is the fixed-point iteration plus doubling/bisection
solver that the walk replaced, kept here as an oracle: it solves the
least ``T >= work`` with ``T - stolen_between(start, start + T) == work``
using nothing but ``stolen_between``, so it shares no code with the
block cache.  The properties draw starts inside busy intervals, on the
block edges of the cache and across them, for every kind of source.
"""

from __future__ import annotations

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.noise import (
    BernoulliTickNoise,
    BurstNoise,
    CompositeNoise,
    NullNoise,
    OneOffNoise,
    PeriodicNoise,
    PoissonNoise,
    TraceNoise,
)
from repro.noise.base import _MAX_BLOCK_SHIFT, _MAX_BLOCKS
from repro.sim import Environment, Timeout
from repro.sim.events import PRIORITY_NORMAL

#: The widest block; sparse sources use it, dense ones narrower blocks.
BLOCK = 1 << _MAX_BLOCK_SHIFT


def reference_wall_time(source, start: int, work: int) -> int:
    """The former solver: direct iteration, then doubling + bisection."""
    if work == 0:
        return 0
    t = work
    for _ in range(8):
        new_t = work + source.stolen_between(start, start + t)
        if new_t == t:
            return t
        t = new_t
    hi = t
    for _ in range(10_000):
        if hi - source.stolen_between(start, start + hi) >= work:
            break
        hi *= 2
    else:  # pragma: no cover - would need utilization >= 1
        raise SimulationError("reference solver did not converge")
    lo = work
    while lo < hi:
        mid = (lo + hi) // 2
        if mid - source.stolen_between(start, start + mid) >= work:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _sources():
    """One instance of each source kind, busy enough to hit often."""
    periodic = PeriodicNoise(1_000_000, 25_000, phase=300_000,
                             name="periodic")
    slow_periodic = PeriodicNoise(100_000_000, 2_500_000, phase=BLOCK - 7,
                                  name="slow-periodic")
    poisson_const = PoissonNoise(2_000, 20_000, seed=3, name="poisson-const")
    poisson_exp = PoissonNoise(500, 80_000, seed=5,
                               duration_dist="exponential",
                               name="poisson-exp")
    tick = BernoulliTickNoise(1_000_000, 2_000, 200_000, 0.1, phase=17,
                              seed=9, name="tick")
    one_off = OneOffNoise(BLOCK - 1_000, 3 * BLOCK, name="one-off")
    trace = TraceNoise([(0, 5_000), (2_000, 9_000), (BLOCK - 10, 40),
                        (3 * BLOCK + 5, 700_000)],
                       repeat_every=5 * BLOCK, name="trace")
    burst = BurstNoise(10_000_000, 300_000, 4, 50_000, phase=BLOCK // 3,
                       name="burst")
    inner = CompositeNoise([
        PeriodicNoise(1_000_000, 30_000, phase=10, name="c-periodic"),
        BernoulliTickNoise(4_000_000, 1_000, 400_000, 0.2, seed=2,
                           name="c-tick")], name="inner")
    nested = CompositeNoise([
        inner,
        PoissonNoise(300, 200_000, seed=8, duration_dist="exponential",
                     name="c-poisson"),
        OneOffNoise(2 * BLOCK - 50_000, 120_000, name="c-one-off")],
        name="nested")
    dense = CompositeNoise([
        PeriodicNoise(997, 41, phase=5, name="d-periodic"),
        PoissonNoise(50_000, 900, seed=4, duration_dist="exponential",
                     name="d-poisson")], name="dense")
    return [periodic, slow_periodic, poisson_const, poisson_exp, tick,
            one_off, trace, burst, nested, dense]


def _block(source) -> int:
    return 1 << source._block_shift()


SOURCES = _sources()


@st.composite
def _starts(draw, source):
    """A start anywhere, on/near a block edge, or inside a busy interval."""
    block = _block(source)
    kind = draw(st.sampled_from(["any", "edge", "busy"]))
    if kind == "any":
        return draw(st.integers(0, 40 * BLOCK))
    if kind == "edge":
        return draw(st.integers(0, 40)) * block + draw(st.integers(-3, 3))
    lo = draw(st.integers(0, 40 * BLOCK))
    intervals = source.busy_intervals(lo, lo + 8 * block)
    if not intervals:
        return lo
    a, b = draw(st.sampled_from(intervals))
    return draw(st.integers(a, b - 1))


def _work(source):
    block = _block(source)
    return st.one_of(st.integers(0, 2_000), st.integers(2_000, 3 * block),
                     st.integers(block - 5, block + 5))


@pytest.mark.parametrize("source", SOURCES, ids=lambda s: s.name)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_property_wall_time_matches_reference(source, data):
    start = max(0, data.draw(_starts(source)))
    work = data.draw(_work(source))
    assert source.wall_time(start, work) == \
        reference_wall_time(source, start, work)


@pytest.mark.parametrize("source", SOURCES, ids=lambda s: s.name)
def test_wall_time_sweeps_across_block_edges(source):
    """Consecutive starts walk the cache forward and back over edges,
    including phases longer than every cached block put together."""
    fresh = [s for s in _sources() if s.name == source.name][0]
    block = _block(fresh)
    for k in (1, 2, 3, 7):
        for off in (-2, -1, 0, 1, 2):
            start = k * block + off
            for work in (1, 999, block - off, block + 1):
                assert fresh.wall_time(start, work) == \
                    reference_wall_time(fresh, start, work)
    long_work = (_MAX_BLOCKS + 4) * block
    assert fresh.wall_time(5, long_work) == \
        reference_wall_time(fresh, 5, long_work)
    assert len(fresh._blocks) <= _MAX_BLOCKS
    # Evicted blocks are rebuilt identically on a second, earlier query.
    assert fresh.wall_time(3, 4_000) == reference_wall_time(fresh, 3, 4_000)


def test_block_width_follows_event_rate():
    sparse = PeriodicNoise(1_000_000, 25_000)
    dense = PeriodicNoise(50, 1)
    assert sparse._block_shift() == _MAX_BLOCK_SHIFT
    assert OneOffNoise(10, 10)._block_shift() == _MAX_BLOCK_SHIFT
    # About 64 events of a 20 MHz source: 3.2 us, rounded down to 2 us.
    assert dense._block_shift() == 11
    assert dense.wall_time(0, 1) == 2
    assert dense.wall_time(7, 5_000) == reference_wall_time(dense, 7, 5_000)


def test_wall_time_trivial_cases():
    src = PeriodicNoise(100, 10)
    assert src.wall_time(0, 0) == 0
    with pytest.raises(ValueError):
        src.wall_time(0, -1)
    assert NullNoise().wall_time(12_345, 678) == 678
    # Starting inside an event waits for it, then works through gaps.
    assert src.wall_time(3, 5) == 12
    assert src.wall_time(3, 90) == 97
    assert src.wall_time(3, 91) == 108


# -- Timeout keeps the telemetry exact on its scheduling path ----------------

def _fnv(tuples):
    h = 0
    for tup in tuples:
        for v in tup:
            h = ((h ^ (v & 0xFFFFFFFFFFFFFFFF)) * 0x100000001B3) \
                & 0xFFFFFFFFFFFFFFFF
    return h


def test_timeout_updates_det_checksum_and_heap_depth():
    env = Environment(det_check=True, metrics=True)
    delays = [5, 0, 7, 5, 3]
    for d in delays:
        Timeout(env, d)
    env.timeout(2)
    expected = [(d, PRIORITY_NORMAL, seq)
                for seq, d in enumerate(delays + [2])]
    assert env.det_checksum == _fnv(expected)
    assert env.max_heap_depth == len(expected)
    env.run()
    assert env.events_processed == len(expected)


def test_timeout_fast_path_matches_schedule():
    """With telemetry off, Timeout pushes the same heap entries that
    ``Environment.schedule`` would."""
    fast = Environment()
    slow = Environment(det_check=True)
    for env in (fast, slow):
        for d in (4, 0, 4, 1):
            Timeout(env, d, value=d)
    key = [entry[:3] for entry in fast._queue]
    assert key == [entry[:3] for entry in slow._queue]
    assert fast.max_heap_depth == 0 and fast.det_checksum == 0
    order = [heapq.heappop(fast._queue)[3].value for _ in range(4)]
    assert order == [0, 1, 4, 4]
    with pytest.raises(ValueError):
        Timeout(fast, -1)
