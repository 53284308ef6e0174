"""Tests for the experiment harness plumbing (fast experiments only —
the full E1–E10 suite runs under benchmarks/)."""

import pytest

from repro.errors import ConfigError
from repro.harness import (
    EXPERIMENTS,
    ExperimentReport,
    experiment_ids,
    render_markdown,
    render_summary,
    run_experiment,
)


def test_registry_is_complete():
    assert experiment_ids() == [f"E{i}" for i in range(1, 18)] + ["E20"]
    for eid, (title, fn) in EXPERIMENTS.items():
        assert title
        assert callable(fn)


def test_unknown_experiment_rejected():
    with pytest.raises(ConfigError):
        run_experiment("E99")


def test_invalid_scale_rejected():
    with pytest.raises(ConfigError):
        run_experiment("E1", "enormous")


def test_report_rendering_roundtrip():
    rep = ExperimentReport("EX", "demo", ["a", "b"], [[1, 2], [3, 4]],
                           checks={"ok": True, "bad": False},
                           findings={"k": 7}, notes="note")
    assert not rep.passed
    assert rep.failed_checks() == ["bad"]
    text = rep.render()
    assert "EX: demo" in text
    assert "[PASS] ok" in text
    assert "[FAIL] bad" in text
    assert "k: 7" in text
    assert "a,b" in rep.csv()


def test_e6_runs_and_passes_small():
    rep = run_experiment("E6", "small")
    assert rep.passed, rep.failed_checks()
    assert rep.experiment_id == "E6"
    assert rep.rows


def test_e1_runs_and_passes_small():
    rep = run_experiment("E1", "small")
    assert rep.passed, rep.failed_checks()


def test_render_summary_and_markdown():
    reps = {"E1": ExperimentReport("E1", "one", ["h"], [[1]],
                                   checks={"c": True}),
            "E2": ExperimentReport("E2", "two", ["h"], [[2]],
                                   checks={"c": False})}
    summary = render_summary(reps)
    assert "E1" in summary and "PASS" in summary and "FAIL" in summary
    md = render_markdown(reps)
    assert "## E1 — one" in md
    assert "- [x] c" in md
    assert "- [ ] c" in md


def test_set_execution_policy_keeps_empty_result_cache(tmp_path):
    from repro.harness import execution_policy, set_execution_policy
    from repro.parallel import ResultCache

    policy = execution_policy()
    saved = (policy.workers, policy.cache)
    try:
        cache = ResultCache(tmp_path)
        assert len(cache) == 0  # falsy, yet a real cache
        assert set_execution_policy(cache=cache).cache is cache
        assert set_execution_policy(cache="").cache is None
        set_execution_policy(cache=str(tmp_path))
        assert set_execution_policy().cache == str(tmp_path)
    finally:
        policy.workers, policy.cache = saved
