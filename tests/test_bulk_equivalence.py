"""Bulk-rank fast path vs per-rank generator: byte-identity contract.

Every case runs the same benchmark twice — vectorized
(:func:`repro.mpi.collectives.bulk.run_bulk`) and through the DES
generator path — and asserts the full per-rank repetition timelines,
derived times, and timeline checksums are byte-identical.  Cases where
the engine legitimately raises :class:`BulkDivergence` (coincidental
consequential arrival ties) instead assert the ``run_auto`` fallback
returns the generator's exact result.
"""

from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro import obs
from repro.core import Machine, MachineConfig
from repro.errors import ConfigError, SimulationError
from repro.microbench import CollectiveBenchmark
from repro.mpi.collectives.bulk import run_bulk, unsupported_reason
from repro.noise import InjectionPlan, PeriodicNoise
from repro.obs import oplog
from repro.sim.bulk import (_OUT_OF_ORDER_ERRORS, BulkDivergence, BulkEngine,
                            RoundSpec, timelines_from_finish)

SH = "1x4x2@fat-tree"
REPS = 5


def _config(P, pattern=None, alignment="random", shape=None,
            topology="switch", seed=31):
    injection = (InjectionPlan(pattern, alignment=alignment, seed=seed)
                 if pattern else None)
    return MachineConfig(n_nodes=P, kernel="lightweight", network="seastar",
                         topology=topology, shape=shape,
                         injection=injection, seed=seed)


def _bench(op="allreduce", algo=None, reps=REPS):
    return CollectiveBenchmark(op, repetitions=reps, message_size=8,
                               algorithm=algo, gap_ns=500_000)


def _generator_timeline(config, bench):
    finish = [{} for _ in range(bench.repetitions)]
    machine = Machine(config)
    procs = machine.launch(lambda ctx: bench._program(ctx, finish))
    machine.run_to_completion(procs)
    return timelines_from_finish(finish, config.n_nodes)


CASES = {
    "flat-rd-4": dict(P=4),
    "flat-rd-16": dict(P=16),
    "flat-rd-64": dict(P=64),
    "barrier-7": dict(P=7, op="barrier"),
    "bcast-binomial-7": dict(P=7, op="bcast", algo="binomial"),
    "noisy-fine-random": dict(P=16, pattern="2.5pct@1000Hz"),
    "noisy-coarse-staggered": dict(P=16, pattern="2.5pct@100Hz",
                                   alignment="staggered"),
    "noisy-sync-barrier": dict(P=16, op="barrier", pattern="2.5pct@1000Hz",
                               alignment="synchronized"),
    "two-level-16": dict(P=16, algo="two-level", shape=SH),
    "two-level-ring-ragged-18": dict(P=18, algo="two-level-ring", shape=SH),
    "two-level-barrier-18": dict(P=18, op="barrier", algo="two-level",
                                 shape=SH),
    "two-level-noisy": dict(P=16, algo="two-level", shape=SH,
                            pattern="2.5pct@1000Hz"),
    "hier-fabric": dict(P=16, topology="hier:1x4x2@fat-tree"),
    "torus": dict(P=16, topology="torus:4x2x2"),
    "fat-tree-noisy": dict(P=16, topology="fat-tree",
                           pattern="2.5pct@1000Hz"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_bulk_matches_generator(name):
    case = dict(CASES[name])
    op = case.pop("op", "allreduce")
    algo = case.pop("algo", None)
    config = _config(**case)
    bench = _bench(op, algo)
    assert unsupported_reason(config, bench) is None

    try:
        res_b, tl_b = run_bulk(config, bench)
    except BulkDivergence:
        # A consequential exact-nanosecond tie the static gates cannot
        # rule out: the auto path must fall back to the generator.
        res_auto = bench.run_auto(config, bulk_min_nodes=1)
        res_gen = bench.run(Machine(config))
        assert np.array_equal(res_auto.times_ns, res_gen.times_ns)
        return

    tl_g = _generator_timeline(config, bench)
    assert np.array_equal(tl_b.starts, tl_g.starts)
    assert np.array_equal(tl_b.ends, tl_g.ends)
    assert tl_b.checksum() == tl_g.checksum()
    res_gen = bench.run(Machine(config))
    assert np.array_equal(res_b.times_ns, res_gen.times_ns)


#: Noisy recursive doubling whose strict pass books out-of-order
#: arrivals (a noise-delayed partner landing after a later round's
#: message): (P, pattern, seed).  128 ranks at 1000 Hz seed 5 diverges
#: and must match through the run_auto fallback.
OUT_OF_ORDER_CASES = [
    (64, "2.5pct@10Hz", 3),
    (64, "2.5pct@1000Hz", 2),
    (128, "2.5pct@10Hz", 3),
    (128, "2.5pct@1000Hz", 3),
    (128, "2.5pct@1000Hz", 5),
    (256, "2.5pct@10Hz", 1),
    (256, "2.5pct@1000Hz", 4),
]


@pytest.mark.parametrize("P,pattern,seed", OUT_OF_ORDER_CASES)
def test_out_of_order_arrivals_match_generator(P, pattern, seed,
                                               monkeypatch):
    lanes = []
    real = BulkEngine._slots_out_of_order

    def spy(self, dd, a, ts, sstart):
        handoff = real(self, dd, a, ts, sstart)
        lanes.append(len(dd))
        return handoff

    monkeypatch.setattr(BulkEngine, "_slots_out_of_order", spy)
    config = _config(P, pattern=pattern, seed=seed)
    bench = _bench()
    tl_g = _generator_timeline(config, bench)
    try:
        res_b, tl_b = run_bulk(config, bench)
    except BulkDivergence:
        res_auto = bench.run_auto(config, bulk_min_nodes=1)
        assert np.array_equal(res_auto.times_ns, tl_g.times_ns)
    else:
        assert np.array_equal(tl_b.starts, tl_g.starts)
        assert np.array_equal(tl_b.ends, tl_g.ends)
        assert tl_b.checksum() == tl_g.checksum()
        assert np.array_equal(res_b.times_ns, tl_g.times_ns)
    assert sum(lanes) > 0, "no lane took the out-of-order branch"


def _scalar_slot(eng, d, a, ts, sstart):
    """The out-of-order slot rule for one lane, written scalar: returns
    ``(error code, handoff, rx_free after)``, the code indexing
    ``_OUT_OF_ORDER_ERRORS`` from 1 (0 = booked)."""
    g = eng.params.g
    ha, hs = eng._hist_arr[:, d], eng._hist_start[:, d]
    rx_last, rx_free, t_now = int(eng.rx_last[d]), int(eng.rx_free[d]), int(eng.t[d])
    succ = ha > a
    succ_min = int(ha[succ].min()) if succ.any() else None
    tie = np.nonzero(ha == a)[0]
    if len(tie) > 1:
        return 1, None, None
    if len(tie) == 1:
        j = tie[0]
        s1, r1 = int(hs[j]), int(eng._hist_resume[j, d])
        ts1, sst1 = int(eng._hist_ts[j, d]), int(eng._hist_sstart[j, d])
        benign = g == 0 or (r1 >= s1 + g and t_now >= s1 + g)
        if not (benign or ts1 < ts or (ts1 == ts and sst1 < sstart)):
            return 2, None, None
        handoff = s1 + g
        if succ_min is not None and handoff + g > succ_min:
            return 3, None, None
        if a == rx_last:
            rx_free = max(rx_free, handoff + g)
        return 0, handoff, rx_free
    if a == rx_last:
        return 4, None, None
    pred, real = ha < a, ha >= 0
    if real.all() and not (real & pred).any():
        return 5, None, None
    handoff = max(a, int(hs[pred].max()) + g)
    if handoff + g > (rx_last if succ_min is None else succ_min):
        return 6, None, None
    return 0, handoff, rx_free


def _random_engine(rng, config):
    """An engine whose ranks carry random booked receive histories,
    dense enough (arrival gaps of 0-4g) to tie and collide; one rank
    in ten has had its latest slot evicted from the history."""
    P = config.n_nodes
    eng = BulkEngine(P, config.network_params(), config.build_topology())
    g = eng.params.g
    H = len(eng._hist_arr)
    for d in range(P):
        k = int(rng.integers(0, 40))
        arr = np.cumsum(rng.integers(0, 4 * g, k))
        i = np.arange(k)
        # start_i = max(arr_i, start_{i-1} + g), the NIC's serial slots.
        start = np.maximum.accumulate(arr - i * g) + i * g
        keep = i[-H:]
        fields = (arr[keep], start[keep],
                  start[keep] + rng.integers(0, 2 * g, len(keep)),
                  rng.integers(0, 3, len(keep)), rng.integers(0, 3, len(keep)))
        for plane, v in zip(eng._hist, fields):
            plane[keep % H, d] = v
        eng._hist_cur[d] = k % H
        arr, start = (int(arr[-1]), int(start[-1])) if k else (-1, -g)
        if rng.random() < 0.1:
            arr += int(rng.integers(1, g))
            start = max(arr, start + g)
        eng.rx_last[d] = arr
        eng.rx_free[d] = start + g
        eng.t[d] = max(0, start + int(rng.integers(-2 * g, 2 * g)))
    return eng


def test_out_of_order_lanes_match_scalar_rule():
    """Random histories: the vectorised out-of-order booking equals the
    scalar per-lane rule — same handoffs, bookings and rx_free, or the
    first failing lane's BulkDivergence with nothing booked."""
    rng = np.random.default_rng(2024)
    P = 6
    config = _config(P)
    outcomes = set()
    for _ in range(300):
        eng = _random_engine(rng, config)
        dd = rng.permutation(P)[:rng.integers(1, P + 1)]
        a = np.array([
            int(rng.choice(eng._hist_arr[:, d])) if rng.random() < 0.4
            else int(eng.rx_last[d]) if rng.random() < 0.2
            else int(rng.integers(0, max(1, eng.rx_last[d] + 100)))
            for d in dd])
        ts, sstart = rng.integers(0, 3, len(dd)), rng.integers(0, 3, len(dd))
        want = [_scalar_slot(eng, int(d), int(a[i]), int(ts[i]),
                             int(sstart[i])) for i, d in enumerate(dd)]
        codes = [w[0] for w in want]
        outcomes.update(codes)
        before = np.stack(eng._hist), eng._hist_cur.copy(), eng.rx_free.copy()
        if any(codes):
            with pytest.raises(BulkDivergence) as exc:
                eng._slots_out_of_order(dd, a, ts, sstart)
            first = next(c for c in codes if c)
            assert str(exc.value) == _OUT_OF_ORDER_ERRORS[first - 1]
            assert np.array_equal(np.stack(eng._hist), before[0])
            assert np.array_equal(eng.rx_free, before[2])
            continue
        handoff = eng._slots_out_of_order(dd, a, ts, sstart)
        assert handoff.tolist() == [w[1] for w in want]
        assert eng.rx_free[dd].tolist() == [w[2] for w in want]
        cur = before[1][dd]
        booked = np.stack(eng._hist)[:, cur, dd]
        assert np.array_equal(booked, np.stack(
            [a, handoff, np.maximum(eng.t[dd], handoff), ts, sstart]))
        assert np.array_equal(eng._hist_cur[dd], (cur + 1) % len(eng._hist_arr))
    assert outcomes == set(range(7))


# -- divergence fallback and tie policy ---------------------------------------
def test_known_tie_divergence_falls_back():
    """32 ranks under 100 Hz noise hits a full arrival tie (equal send
    instants on a release wave): strict mode must raise and run_auto
    must return the generator's exact result, logging the fallback."""
    config = _config(32, pattern="2.5pct@100Hz")
    bench = _bench()
    with pytest.raises(BulkDivergence) as diverged:
        run_bulk(config, bench, tie_break="strict")
    oplog.reset()
    try:
        stats = {}
        res_auto = bench.run_auto(config, bulk_min_nodes=1, stats_out=stats)
        events = oplog.get().events(event="bulk.fallback")
    finally:
        oplog.reset()
    res_gen = bench.run(Machine(config))
    assert np.array_equal(res_auto.times_ns, res_gen.times_ns)
    assert stats == {}
    assert len(events) == 1
    assert {k: events[0][k] for k in
            ("ranks", "operation", "algorithm", "message")} == {
        "ranks": 32, "operation": "allreduce",
        "algorithm": "recursive-doubling",
        "message": str(diverged.value)}


def test_deterministic_tie_break_is_reproducible():
    config = _config(32, pattern="2.5pct@100Hz")
    stats_a, stats_b = {}, {}
    _res_a, tl_a = run_bulk(config, _bench(), tie_break="deterministic",
                            stats_out=stats_a)
    _res_b, tl_b = run_bulk(config, _bench(), tie_break="deterministic",
                            stats_out=stats_b)
    assert tl_a.checksum() == tl_b.checksum()
    assert stats_a == stats_b
    assert stats_a["tie_breaks"] > 0


# -- gate and round preparation ------------------------------------------------
def _custom_source(node_id, phase, seed):
    return PeriodicNoise(1_000_000, 25_000, phase=node_id)


@pytest.mark.parametrize("pattern,reason", [
    ("2.5pct@1000Hz", None),
    ("quiet", None),
    ("2.5pct@100HzPoisson", "injected noise is not strictly periodic"),
    ("2.5pct@100Hzburst4", "injected noise is not strictly periodic"),
    (_custom_source, "injected noise is not strictly periodic"),
])
def test_gate_draws_no_phases(pattern, reason, monkeypatch):
    """unsupported_reason classifies the noise from one parsed probe;
    only run_bulk draws the P per-node phases, exactly once each."""
    calls = []
    real = InjectionPlan._phase_for

    def spy(self, node_id, n_nodes, period):
        calls.append(node_id)
        return real(self, node_id, n_nodes, period)

    monkeypatch.setattr(InjectionPlan, "_phase_for", spy)
    P = 16
    config = MachineConfig(n_nodes=P, kernel="lightweight",
                           network="seastar",
                           injection=InjectionPlan(pattern, seed=3), seed=3)
    bench = _bench(reps=2)
    assert unsupported_reason(config, bench) == reason
    assert calls == []
    if reason is None:
        run_bulk(config, bench)
        expected = [] if pattern == "quiet" else list(range(P))
        assert calls == expected


def test_prepare_rejects_repeated_destination():
    config = _config(8)
    engine = BulkEngine(8, config.network_params(), config.build_topology())
    ok = RoundSpec(np.array([0, 1]), np.array([2, 3]), 8)
    engine.prepare([ok])
    clash = RoundSpec(np.array([0, 1, 4]), np.array([2, 5, 2]), 8)
    with pytest.raises(SimulationError, match="multiple messages"):
        engine.prepare([ok, clash])


def test_run_auto_modes():
    config = _config(16)
    bench = _bench()
    auto = bench.run_auto(config)          # 16 < bulk_min_nodes: generator
    forced = bench.run_auto(config, mode="bulk")
    gen = bench.run_auto(config, mode="generator")
    assert np.array_equal(auto.times_ns, gen.times_ns)
    assert np.array_equal(forced.times_ns, gen.times_ns)
    with pytest.raises(ConfigError):
        bench.run_auto(_config(16, pattern="2.5pct@100HzPoisson"),
                       mode="bulk")
    with pytest.raises(ConfigError):
        bench.run_auto(config, mode="nonsense")


# -- serial vs worker processes ----------------------------------------------
def _worker_det_checksum(P, pattern):
    from repro.core import ExperimentConfig, run_experiment
    obs.disable()
    obs.configure(det_check=True)
    try:
        cfg = ExperimentConfig(app="bsp", nodes=P, noise_pattern=pattern,
                               seed=7,
                               app_params={"work_ns": 200_000,
                                           "iterations": 4})
        result = run_experiment(cfg)
        return result.meta["det_check"]
    finally:
        obs.disable()


def test_timeline_checksums_serial_vs_workers():
    """The generator timelines (and hence the bulk-equivalence
    contract) are identical whether points run in-process or in
    worker processes."""
    names = ["flat-rd-16", "noisy-fine-random", "two-level-16"]
    serial = {}
    for name in names:
        case = dict(CASES[name])
        op = case.pop("op", "allreduce")
        algo = case.pop("algo", None)
        serial[name] = _generator_timeline(_config(**case),
                                           _bench(op, algo)).checksum()
    with ProcessPoolExecutor(2) as pool:
        pooled = dict(pool.map(_pool_entry, names))
    assert serial == pooled


def _pool_entry(name):
    case = dict(CASES[name])
    op = case.pop("op", "allreduce")
    algo = case.pop("algo", None)
    return name, _generator_timeline(_config(**case),
                                     _bench(op, algo)).checksum()


def test_det_check_serial_vs_workers():
    """obs det_check checksums match between an in-process run and a
    worker-process run of the same noisy configuration."""
    args = [(4, "quiet"), (4, "2.5pct@100Hz")]
    serial = [_worker_det_checksum(*a) for a in args]
    with ProcessPoolExecutor(2) as pool:
        pooled = list(pool.map(_det_entry, args))
    assert serial == pooled
    assert all(isinstance(v, int) and v != 0 for v in serial)


def _det_entry(args):
    return _worker_det_checksum(*args)
