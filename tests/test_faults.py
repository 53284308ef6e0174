"""Tests for the fault-injection layer: plans, protocol, integration."""

import pytest

from repro.core import ExperimentConfig, Machine, MachineConfig, run_experiment
from repro.errors import ConfigError, FaultError
from repro.faults import FaultPlan, LinkDegradation, parse_faults
from repro.sim.rng import derive_fraction, node_seed


# -- plan semantics ------------------------------------------------------------

def test_empty_plan_injects_nothing():
    plan = FaultPlan()
    assert not plan.injects_faults
    assert not plan.needs_protocol
    assert plan.slow_nodes_for(64) == {}
    assert not plan.drop_message(0, 1, "data/0/0")


def test_plan_validation():
    with pytest.raises(ConfigError):
        FaultPlan(drop_rate=1.5)
    with pytest.raises(ConfigError):
        FaultPlan(drop_rate=1.0)
    with pytest.raises(ConfigError):
        FaultPlan(slow_factor=0.0)
    with pytest.raises(ConfigError):
        FaultPlan(backoff=0.5)
    with pytest.raises(ConfigError):
        LinkDegradation(10, 10, 2.0)
    with pytest.raises(ConfigError):
        LinkDegradation(0, 10, 0.5)


def test_drop_decisions_are_deterministic_and_monotone():
    lo = FaultPlan(drop_rate=0.02, seed=9)
    hi = FaultPlan(drop_rate=0.10, seed=9)
    labels = [(s, d, f"data/{p}/0") for s in range(4) for d in range(4)
              for p in range(50)]
    lo_drops = {x for x in labels if lo.drop_message(*x)}
    hi_drops = {x for x in labels if hi.drop_message(*x)}
    assert lo_drops == {x for x in labels if lo.drop_message(*x)}  # stable
    assert lo_drops <= hi_drops  # superset property -> monotone sweeps
    assert len(hi_drops) > len(lo_drops)


def test_retransmission_gets_fresh_coin_flip():
    plan = FaultPlan(drop_rate=0.5, seed=0)
    flips = {plan.drop_message(0, 1, f"data/7/{attempt}")
             for attempt in range(32)}
    assert flips == {True, False}


def test_degradation_window_and_channel_filter():
    win = LinkDegradation(100, 200, 4.0, src=1)
    assert win.applies(1, 0, 150)
    assert not win.applies(2, 0, 150)   # wrong src
    assert not win.applies(1, 0, 200)   # half-open end
    plan = FaultPlan(degradations=(win, LinkDegradation(0, 1000, 2.0)))
    assert plan.latency_factor(1, 0, 150) == 8.0  # windows compose
    assert plan.latency_factor(2, 0, 150) == 2.0
    assert plan.injects_faults and not plan.needs_protocol


def test_node_crash_is_permanent():
    plan = FaultPlan(crashes=((3, 1000),))
    assert not plan.node_crashed(3, 999)
    assert plan.node_crashed(3, 1000)
    assert plan.node_crashed(3, 10 ** 9)
    assert not plan.node_crashed(2, 10 ** 9)
    assert plan.needs_protocol


def test_slow_nodes_stable_across_machine_sizes():
    plan = FaultPlan(slow_node_rate=0.3, slow_factor=0.8, seed=5)
    small = plan.slow_nodes_for(16)
    large = plan.slow_nodes_for(64)
    assert small == {i: f for i, f in large.items() if i < 16}
    assert small  # 0.3 over 16 nodes: essentially certain
    # Derivation goes through the shared node-seed helper.
    assert all(derive_fraction(node_seed(5, i), "fault/slow") < 0.3
               for i in small)


def test_retry_timeout_backoff():
    plan = FaultPlan(ack_timeout_ns=1000, backoff=2.0)
    assert [plan.retry_timeout_ns(a) for a in range(4)] == \
        [1000, 2000, 4000, 8000]


# -- spec parsing --------------------------------------------------------------

def test_parse_faults_full_grammar():
    plan = parse_faults(
        "drop=0.01,dup=0.002,timeout=1ms,retries=6,backoff=3,"
        "slow=0.1x0.8,crash=3@50ms,crash=7", seed=11)
    assert plan.drop_rate == 0.01
    assert plan.duplicate_rate == 0.002
    assert plan.ack_timeout_ns == 1_000_000
    assert plan.max_retries == 6
    assert plan.backoff == 3.0
    assert plan.slow_node_rate == 0.1 and plan.slow_factor == 0.8
    assert plan.crashes == ((3, 50_000_000), (7, 0))
    assert plan.seed == 11


def test_parse_faults_disabled_aliases():
    for spec in ("", "none", "off", "  NONE "):
        assert parse_faults(spec) is None


def test_parse_faults_rejects_junk():
    with pytest.raises(ConfigError):
        parse_faults("drop")
    with pytest.raises(ConfigError):
        parse_faults("warp=9")
    with pytest.raises(ConfigError):
        parse_faults("drop=lots")


@pytest.mark.parametrize("spec", [
    "drop=0.1,drop=0.2", "dup=0.1,dup=0.1", "timeout=1ms,timeout=2ms",
    "retries=3,retries=4", "backoff=2,backoff=3", "slow=0.1,slow=0.2x0.5",
    "drop=0.1,slow=0.1, drop=0.1"])
def test_parse_faults_rejects_repeated_key(spec):
    with pytest.raises(ConfigError, match="more than once"):
        parse_faults(spec)


def test_parse_faults_crash_and_one_off_repeat():
    plan = parse_faults("crash=1@1ms,one_off=0:1ms:2us,crash=2,"
                        "one_off=3:5ms:1ms")
    assert plan.crashes == ((1, 1_000_000), (2, 0))
    assert plan.one_off == ((0, 1_000_000, 2_000), (3, 5_000_000, 1_000_000))


# -- zero-fault byte-identity (the load-bearing property) ----------------------

def _strip_wallclock(result):
    return (result.makespan_ns, result.iteration_durations_ns.tolist(),
            result.events_processed, result.meta)


@pytest.mark.parametrize("app", ["bsp", "stencil"])
@pytest.mark.parametrize("seed", [0, 42])
def test_zero_fault_runs_are_byte_identical(app, seed):
    base = ExperimentConfig(app=app, nodes=8, noise_pattern="2.5pct@10Hz",
                            seed=seed,
                            app_params={"work_ns": 200_000, "iterations": 6})
    plain = run_experiment(base)
    for faults in (FaultPlan(), "drop=0", "none"):
        twin = run_experiment(
            ExperimentConfig(app=app, nodes=8, noise_pattern="2.5pct@10Hz",
                             seed=seed, faults=faults,
                             app_params={"work_ns": 200_000, "iterations": 6}))
        assert _strip_wallclock(twin) == _strip_wallclock(plain)
        assert "faults" not in twin.meta


def test_faulty_runs_are_deterministic():
    cfg = ExperimentConfig(app="bsp", nodes=8, seed=7,
                           faults="drop=0.02,dup=0.01,timeout=300us",
                           app_params={"work_ns": 200_000, "iterations": 8})
    a, b = run_experiment(cfg), run_experiment(cfg)
    assert _strip_wallclock(a) == _strip_wallclock(b)
    assert a.meta["faults"]["total_retries"] > 0


# -- integrated fault behavior -------------------------------------------------

def _run(faults, seed=3, nodes=8):
    return run_experiment(ExperimentConfig(
        app="bsp", nodes=nodes, seed=seed, faults=faults,
        app_params={"work_ns": 200_000, "iterations": 10}))


def test_drops_cost_time_and_count_retries():
    clean = _run(None)
    lossy = _run(FaultPlan(drop_rate=0.03, seed=3, ack_timeout_ns=200_000))
    assert lossy.makespan_ns > clean.makespan_ns
    fs = lossy.meta["faults"]
    assert fs["messages_dropped"] > 0
    assert fs["total_retries"] > 0
    assert sum(fs["retries"].values()) == fs["total_retries"]
    assert sum(fs["drops_by_node"].values()) == fs["messages_dropped"]


def test_drop_rate_sweep_is_monotone():
    spans = [_run(FaultPlan(drop_rate=r, seed=3,
                            ack_timeout_ns=200_000)).makespan_ns
             for r in (0.0, 0.02, 0.06)]
    assert spans == sorted(spans)


def test_duplicates_are_suppressed_exactly_once():
    clean = _run(None)
    dupes = _run(FaultPlan(duplicate_rate=0.2, seed=3))
    fs = dupes.meta["faults"]
    assert fs["duplicates_injected"] > 0
    assert fs["total_duplicates_suppressed"] > 0
    # Suppression means the app sees each message exactly once: the
    # iteration structure is intact (timing differs — acks cost CPU).
    assert dupes.iteration_durations_ns.shape == \
        clean.iteration_durations_ns.shape


def test_link_degradation_slows_the_run():
    clean = _run(None)
    degraded = _run(FaultPlan(
        degradations=(LinkDegradation(0, 10 ** 12, 8.0),)))
    assert degraded.makespan_ns > clean.makespan_ns
    # No losses -> the plain connectionless path, no protocol counters.
    assert "total_retries" not in degraded.meta["faults"]


def test_slow_nodes_stretch_the_makespan():
    clean = _run(None)
    sick = _run(FaultPlan(slow_node_rate=0.5, slow_factor=0.5, seed=3))
    assert sick.makespan_ns > clean.makespan_ns


def test_crashed_node_escalates_to_fault_error():
    with pytest.raises(FaultError):
        _run(FaultPlan(crashes=((0, 0),), ack_timeout_ns=50_000,
                       max_retries=2))


def test_machine_fault_stats_none_when_reliable():
    machine = Machine(MachineConfig(n_nodes=2))
    assert machine.fault_stats() is None
    machine = Machine(MachineConfig(n_nodes=2, faults=FaultPlan()))
    assert machine.fault_stats() is None
