"""The benchmark's four workloads, driven through the public API only.

Each workload builds its inputs from the benchmark seed, runs its ops
inside spans (:class:`tracing.SpanRecorder`), and returns one
:class:`OpRecord` per op with the op's wall time, an output digest and,
where it varies, the engine that ran it.  Why each workload exists is
in ``README.md`` next to this file.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import shutil
import statistics
import tempfile
import time
import typing as _t
from dataclasses import asdict, dataclass, field
from pathlib import Path

#: Seed whose output digests are pinned in ``expected.json``.
DEFAULT_SEED = 1


@dataclass
class OpRecord:
    """One call into the program and what came back."""

    name: str
    wall_s: float
    digest: str | None = None
    engine: str | None = None
    error: str | None = None
    info: dict = field(default_factory=dict)
    #: Digests of parts of the output (``"quiet"`` -> ...), pinned on
    #: their own when they do not depend on the seed.
    parts: dict = field(default_factory=dict)

    def digests(self) -> dict[str, str]:
        """``name`` and ``name/part`` -> digest, as pinned."""
        out = {f"{self.name}/{k}": v for k, v in self.parts.items()}
        if self.digest is not None:
            out[self.name] = self.digest
        return out


def percentile(values: list[float], q: float) -> float:
    """Interpolated percentile ``q`` (0..1); 0 for no values."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[
        round(q * 100) - 1]


def digest(obj: _t.Any) -> str:
    blob = json.dumps(obj, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _timed(rec, name: str, op: str, fn: _t.Callable[[], _t.Any],
           parent: int | None = None) -> tuple[_t.Any, float, str | None]:
    """Run ``fn`` in a span; returns ``(value, wall_s, error)``."""
    t0 = time.perf_counter()
    with rec.span(name, op, parent):
        try:
            value, error = fn(), None
        except Exception as exc:  # an op that raises counts as failed
            value, error = None, f"{type(exc).__name__}: {exc}"
    return value, time.perf_counter() - t0, error


class Workload:
    """Set up once, measure for a time budget, then (traced runs) once
    more under the profiler."""

    name = ""
    #: The profiled pass may turn on the ``repro.obs`` metrics registry
    #: without changing which path the program takes.
    obs_metrics_when_traced = False

    def setup(self, seed: int, scratch: Path) -> None:
        raise NotImplementedError

    def measure(self, rec, budget_s: float) -> tuple[list[OpRecord], float]:
        """Ops until the budget is spent; ``(ops, elapsed_s)``."""
        raise NotImplementedError

    def traced(self, rec) -> tuple[list[OpRecord], float]:
        """The profiled ops; ``(ops, elapsed_s)``."""
        raise NotImplementedError

    def layer_metrics(self, untraced: list[OpRecord],
                      traced: list[OpRecord]) -> dict[str, float]:
        return {}

    def intended_engines(self) -> dict[str, str]:
        """Op name -> the engine its point was built for."""
        return {}

    @staticmethod
    def latencies(ops: list[OpRecord], elapsed_s: float
                  ) -> tuple[list[float], float, int]:
        """``(op latencies, seconds per pass, passes)`` of a measurement,
        for the end-to-end metrics."""
        raise NotImplementedError

    def close(self) -> None:
        pass


class PassWorkload(Workload):
    """A workload whose ops form a fixed pass, repeated to fill the run."""

    #: Fewest passes a measurement makes: every op is seen at least
    #: twice, so run-to-run identity can be checked.
    min_passes = 2

    def run_pass(self, rec, pass_id: str) -> list[OpRecord]:
        """One call of each op; ``pass_id`` labels their spans."""
        raise NotImplementedError

    def measure(self, rec, budget_s: float) -> tuple[list[OpRecord], float]:
        ops: list[OpRecord] = []
        t0 = time.perf_counter()
        passes = 0
        while True:
            ops += self.run_pass(rec, str(passes))
            passes += 1
            elapsed = time.perf_counter() - t0
            if passes >= self.min_passes and elapsed * (passes + 1) / passes \
                    > budget_s:
                return ops, elapsed

    def traced(self, rec) -> tuple[list[OpRecord], float]:
        t0 = time.perf_counter()
        ops = self.run_pass(rec, "traced")
        return ops, time.perf_counter() - t0

    @staticmethod
    def latencies(ops, elapsed_s):
        # A pass calls each op once; an op's latency is its median over
        # the passes.
        by_name = op_medians(ops)
        return list(by_name.values()), sum(by_name.values()), \
            len(ops) // len(by_name)


def op_medians(ops: list[OpRecord]) -> dict[str, float]:
    """Median wall seconds per op name."""
    by: dict[str, list[float]] = {}
    for op in ops:
        by.setdefault(op.name, []).append(op.wall_s)
    return {k: statistics.median(v) for k, v in by.items()}


# -- app-compare -------------------------------------------------------------

class AppCompare(PassWorkload):
    """Four quiet-vs-noisy compares on the generator DES."""

    name = "app-compare"
    obs_metrics_when_traced = True

    def setup(self, seed: int, scratch: Path) -> None:
        from repro.core import ExperimentConfig

        # Iteration counts are cut from the app defaults so one pass
        # takes a few seconds and a run holds several passes.
        self.configs = {
            "bsp": ExperimentConfig(
                app="bsp", nodes=64, noise_pattern="2.5pct@10Hz", seed=seed,
                app_params={"iterations": 16}),
            "stencil": ExperimentConfig(
                app="stencil", nodes=64, noise_pattern="2.5pct@1000Hz",
                seed=seed, app_params={"iterations": 12}),
            "cg": ExperimentConfig(
                app="cg", nodes=64, noise_pattern="2.5pct@100Hzpoisson",
                topology="fat-tree", seed=seed, app_params={"iterations": 8}),
            "pop": ExperimentConfig(
                app="pop", nodes=16, noise_pattern="2.5pct@100Hz",
                kernel="commodity-linux", seed=seed,
                app_params={"iterations": 3}),
        }

    def run_pass(self, rec, pass_id: str) -> list[OpRecord]:
        from repro.core import run_with_baseline

        out = []
        for name, cfg in self.configs.items():
            res, wall, err = _timed(rec, "run_with_baseline",
                                    f"{name}#{pass_id}",
                                    lambda cfg=cfg: run_with_baseline(cfg))
            op = OpRecord(name, wall, error=err)
            if res is not None:
                q, n = res.quiet, res.noisy
                op.digest = digest([
                    q.makespan_ns, n.makespan_ns,
                    q.iteration_durations_ns.tolist(),
                    n.iteration_durations_ns.tolist(),
                    q.events_processed, n.events_processed])
                op.parts["quiet"] = digest([
                    q.makespan_ns, q.iteration_durations_ns.tolist(),
                    q.events_processed])
                op.info["events"] = q.events_processed + n.events_processed
            out.append(op)
        return out

    def layer_metrics(self, untraced, traced):
        med = op_medians(untraced)
        events_per_pass = sum(op.info.get("events", 0) for op in traced)
        out = {f"core.compare_s.{k}": v for k, v in med.items()}
        out["sim.events"] = events_per_pass
        out["sim.events_per_s"] = events_per_pass / sum(med.values())
        return out


# -- collective-scale --------------------------------------------------------

#: Machine seeds for the two noisy points that try the bulk engine.
#: Noise phase decides which engine such a point ends on and how much
#: work the bulk arrival fixpoint does: of seeds 0-59, four send the
#: 4096-rank point to the generator after a divergence (40 s for 8
#: repetitions at seed 4), and bulk cost spans 3x over the rest.  The
#: first pool holds seeds that stay on bulk with every repetition
#: needing the fixpoint, at a cost within about 15% of their median;
#: the second, seeds whose 512-rank point diverges, at a generator cost
#: within about 15% of theirs (one timing per seed on a 2-CPU host).
#: The benchmark seed picks one from each.
_POOL_RD4096_NOISY = (0, 8, 9, 16, 20, 24, 25, 32, 33, 34, 39, 43, 44, 46,
                      47, 49, 51, 54, 58)
_POOL_RD512_DIVERGING = (1, 10, 11, 12, 13, 14, 16, 18, 25, 26, 35, 36, 41,
                         45, 46, 49, 52, 53, 55, 56, 58, 59)


class CollectiveScale(PassWorkload):
    """``CollectiveBenchmark.run_auto`` on five points across both
    engines."""

    name = "collective-scale"

    def setup(self, seed: int, scratch: Path) -> None:
        from repro.core import MachineConfig
        from repro.microbench import CollectiveBenchmark
        from repro.noise import InjectionPlan

        def machine(P, pattern=None, mseed=seed, **kw):
            inj = (InjectionPlan(pattern, seed=mseed) if pattern else None)
            return MachineConfig(n_nodes=P, injection=inj, seed=mseed, **kw)

        def bench(reps, algorithm=None):
            return CollectiveBenchmark("allreduce", repetitions=reps,
                                       algorithm=algorithm, gap_ns=500_000)

        noisy_seed = _POOL_RD4096_NOISY[seed % len(_POOL_RD4096_NOISY)]
        div_seed = _POOL_RD512_DIVERGING[seed % len(_POOL_RD512_DIVERGING)]
        # name -> (machine, benchmark, the engine the point is built for)
        self.points = {
            "rd4096-quiet": (machine(4096), bench(10), "bulk"),
            "rd4096-10Hz": (machine(4096, "2.5pct@10Hz", noisy_seed),
                            bench(3), "bulk"),
            "twolevel16384-fattree": (
                machine(16384, shape="32x32x16@fat-tree",
                        topology="hier:32x32x16@fat-tree"),
                bench(6, "two-level"), "bulk"),
            "rd512-1000Hz": (machine(512, "2.5pct@1000Hz", div_seed),
                             bench(3), "generator-after-divergence"),
            "rd256-poisson": (machine(256, "2.5pct@100Hzpoisson"), bench(3),
                              "generator-gated"),
        }

    def run_pass(self, rec, pass_id: str) -> list[OpRecord]:
        from repro.mpi.collectives.bulk import unsupported_reason

        out = []
        for name, (cfg, bench, _intended) in self.points.items():
            op_id = f"{name}#{pass_id}"
            t0 = time.perf_counter()
            with rec.span("op", op_id) as top:
                reason, _w, err = _timed(
                    rec, "unsupported_reason", op_id,
                    lambda: unsupported_reason(cfg, bench), top["id"])
                stats: dict = {}
                res, _w, err2 = _timed(
                    rec, "run_auto", op_id,
                    lambda: bench.run_auto(cfg, stats_out=stats), top["id"])
            op = OpRecord(name, time.perf_counter() - t0, error=err or err2)
            # run_auto fills stats_out only when the bulk engine finished;
            # below 512 ranks (its default bulk_min_nodes) it never tries.
            if reason is not None or cfg.n_nodes < 512:
                op.engine = "generator-gated"
            elif stats:
                op.engine = "bulk"
            else:
                op.engine = "generator-after-divergence"
            if res is not None:
                op.digest = digest(res.times_ns.tolist())
            op.info = {"ranks": cfg.n_nodes, "reps": bench.repetitions,
                       "fixpoint_reps": stats.get("fixpoint_reps", 0),
                       "tie_breaks": stats.get("tie_breaks", 0)}
            out.append(op)
        return out

    def layer_metrics(self, untraced, traced):
        bulk = [op for op in untraced if op.engine == "bulk"]
        gen = [op for op in untraced if op.engine != "bulk"]
        passes = len(untraced) / len(self.points)
        bulk_wall = sum(op.wall_s for op in bulk)
        ops_per_pass = {e: sum(op.engine == e for op in traced)
                        for e in ("bulk", "generator-gated",
                                  "generator-after-divergence")}
        return {
            "bulk.ops": ops_per_pass["bulk"],
            "bulk.fallbacks": ops_per_pass["generator-after-divergence"],
            "coll.gated_ops": ops_per_pass["generator-gated"],
            "bulk.engine_ratio": ops_per_pass["bulk"] / len(traced),
            "bulk.rank_reps_per_s": (sum(op.info["ranks"] * op.info["reps"]
                                         for op in bulk) / bulk_wall
                                     if bulk_wall else 0.0),
            "bulk.fixpoint_reps": sum(op.info["fixpoint_reps"]
                                      for op in traced),
            "bulk.tie_breaks": sum(op.info["tie_breaks"] for op in traced),
            "coll.generator_s": sum(op.wall_s for op in gen) / passes,
        }

    def intended_engines(self) -> dict[str, str]:
        return {name: p[2] for name, p in self.points.items()}


# -- report-small ------------------------------------------------------------

REPORT_EXPERIMENTS = ("E1", "E2", "E4", "E9", "E15", "E16", "E20")


class ReportSmall(PassWorkload):
    """``run_experiment(E, scale="small")`` for seven experiments with
    two workers and a fresh result cache per pass."""

    name = "report-small"
    #: E4 alone varies by 10% from call to call (two pool workers on a
    #: two-CPU host), so this workload takes a third pass past the
    #: budget rather than rest on two.
    min_passes = 3

    def setup(self, seed: int, scratch: Path) -> None:
        # Importing the registry here puts its cost in set-up, not in
        # the first op.  The experiments fix their own seeds: the
        # benchmark seed does not reach them.
        from repro.harness import set_execution_policy
        from repro.harness.registry import run_experiment  # noqa: F401
        from repro.obs import oplog

        set_execution_policy(workers=2)
        self.scratch = scratch
        self.log = oplog.get()
        self.seen_seq = self.log.total

    def _executor_events(self) -> dict:
        """What the executor logged since the last call: points looked
        up, served from cache, simulated, and each simulated point's
        seconds (the always-on operation log is the only public record
        of it)."""
        events = self.log.events(since_seq=self.seen_seq)
        if events:
            self.seen_seq = events[-1]["seq"]
        fanouts = [e for e in events if e["event"] == "exec.fanout"]
        return {"points": sum(e["points"] for e in fanouts),
                "cached": sum(e["cached"] for e in fanouts),
                "simulated": sum(e["pending"] for e in fanouts),
                "point_s": [e["elapsed_s"] for e in events
                            if e["event"] == "exec.point"]}

    def run_pass(self, rec, pass_id: str) -> list[OpRecord]:
        from repro.harness import set_execution_policy
        from repro.harness.registry import run_experiment

        # A cache directory path, not a ResultCache instance: the policy
        # stores ``cache or None``, and an empty cache is falsy.
        root = tempfile.mkdtemp(prefix="cache-", dir=self.scratch)
        set_execution_policy(workers=2, cache=root)
        out = []
        try:
            for eid in REPORT_EXPERIMENTS:
                self._executor_events()
                report, wall, err = _timed(
                    rec, "run_experiment", f"{eid}#{pass_id}",
                    lambda eid=eid: run_experiment(eid, scale="small"))
                op = OpRecord(eid, wall, error=err,
                              info=self._executor_events())
                if report is not None:
                    op.digest = digest([report.passed, report.render()])
                    if not report.passed and op.error is None:
                        op.error = ("checks failed: "
                                    f"{report.failed_checks()}")
                out.append(op)
        finally:
            set_execution_policy(cache="")
            shutil.rmtree(root, ignore_errors=True)
        return out

    def layer_metrics(self, untraced, traced):
        out = {f"harness.{k}_s": v for k, v in op_medians(untraced).items()}
        passes = len(untraced) / len(REPORT_EXPERIMENTS)
        points = sum(op.info["points"] for op in untraced)
        point_s = [s for op in untraced for s in op.info["point_s"]]
        out["parallel.points_simulated"] = sum(
            op.info["simulated"] for op in untraced) / passes
        out["parallel.hit_ratio"] = (sum(op.info["cached"] for op in untraced)
                                     / points if points else 0.0)
        out["parallel.point_p50_ms"] = 1e3 * percentile(point_s, 0.5)
        out["parallel.worker_utilization"] = sum(point_s) / (
            2 * sum(op.wall_s for op in untraced))
        return out


# -- serve-mixed -------------------------------------------------------------

#: Cheap points (~10 ms of simulation) so a run serves thousands of
#: requests.
_SERVE_PARAMS = {"work_ns": 500_000, "iterations": 10}
CLIENTS = 2
#: One request in ``COLD_EVERY`` carries a never-seen seed.
COLD_EVERY = 10
#: Requests in the profiled closed loop.
TRACED_REQUESTS = 200
#: Cold jobs per run re-computed in-process and compared.
COLD_CHECKS = 3


class ServeMixed(Workload):
    """A closed loop of two clients against ``BackgroundServer``: nine
    requests in ten revisit a hot set of four jobs, one is new."""

    name = "serve-mixed"

    def setup(self, seed: int, scratch: Path) -> None:
        import repro.serve  # noqa: F401  (imported before the pool is timed)

        self.seed = seed
        self.hot = [
            {"kind": "compare", "app": "bsp", "nodes": 4,
             "pattern": "2.5pct@10Hz", "seed": seed,
             "app_params": _SERVE_PARAMS},
            {"kind": "compare", "app": "stencil", "nodes": 8,
             "pattern": "2.5pct@1000Hz", "seed": seed,
             "app_params": _SERVE_PARAMS},
            {"kind": "sweep", "app": "bsp", "nodes": [4, 8],
             "patterns": ["quiet", "2.5pct@10Hz", "2.5pct@100Hz"],
             "seed": seed, "app_params": _SERVE_PARAMS},
            {"kind": "sweep", "app": "cg", "nodes": [8],
             "patterns": ["quiet", "2.5pct@100Hzpoisson"], "seed": seed,
             "app_params": {"spmv_ns": 500_000, "iterations": 10}},
        ]
        self._cold_n = 0
        self.scratch = scratch
        self.servers: list[tuple] = []
        t0 = time.perf_counter()
        self.bg, self.client = self._start_server()
        self.pool_warm_s = time.perf_counter() - t0

    def _start_server(self):
        """A warm server on a fresh cache, ready (``/healthz?ready=1``
        returns 200); stopped by :meth:`close`."""
        from repro.serve import BackgroundServer, ServeClient, ServeError

        cache_dir = tempfile.mkdtemp(prefix="serve-cache-", dir=self.scratch)
        bg = BackgroundServer(workers=2, cache=cache_dir)
        bg.__enter__()
        self.servers.append((bg, cache_dir))
        client = ServeClient(*bg.address)
        deadline = time.monotonic() + 60
        while True:
            try:
                client.health(ready=True)
                return bg, client
            except ServeError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.01)

    def _cold_job(self) -> dict:
        self._cold_n += 1
        return {"kind": "compare", "app": "bsp", "nodes": 8,
                "pattern": "2.5pct@100Hz",
                "seed": self.seed * 1_000_003 + self._cold_n,
                "app_params": _SERVE_PARAMS}

    async def _loop(self, rec, bg, stop: _t.Callable[[int], bool]
                    ) -> list[OpRecord]:
        from repro.serve import job_records, submit_async

        host, port = bg.address
        ops: list[OpRecord] = []

        async def client(c: int) -> None:
            k = 0
            while not stop(len(ops)):
                if k % COLD_EVERY == COLD_EVERY - 1:
                    name, job = "cold", self._cold_job()
                else:
                    i = (k + c) % len(self.hot)
                    name, job = f"hot{i}", self.hot[i]
                t0 = time.perf_counter()
                error = None
                with rec.span("submit_async", f"c{c}-{k}"):
                    try:
                        events = await submit_async(host, port, job)
                    except Exception as exc:
                        events = []
                        error = f"{type(exc).__name__}: {exc}"
                op = OpRecord(name, time.perf_counter() - t0, error=error)
                records, stats = job_records(events)
                if error is None and stats.get("errors", 1) != 0:
                    op.error = f"stream ended with errors: {stats}"
                op.engine = "cold" if name == "cold" else "hot"
                op.info = {"records": records, "job": job,
                           "simulated_s": [e["elapsed_s"] for e in events
                                           if e.get("event") == "point"
                                           and e.get("outcome")
                                           == "simulated"]}
                if name != "cold":
                    op.digest = digest(records)
                ops.append(op)
                k += 1

        await asyncio.gather(*(client(c) for c in range(CLIENTS)))
        return ops

    def _warm_hot_set(self, client) -> None:
        for job in self.hot:
            _records, stats = client.records(job)
            if stats.get("errors", 1) != 0:
                raise RuntimeError(f"hot job failed while warming: {stats}")

    def measure(self, rec, budget_s: float) -> tuple[list[OpRecord], float]:
        self._warm_hot_set(self.client)
        before = self.client.metrics()["serve"]
        t0 = time.perf_counter()
        deadline = t0 + budget_s
        ops = asyncio.run(self._loop(
            rec, self.bg, lambda n: time.perf_counter() >= deadline))
        elapsed = time.perf_counter() - t0
        with rec.span("/metrics", "metrics"):
            doc = self.client.metrics(window=elapsed)
        after, window = doc["serve"], doc.get("window", {})
        self.server_view = {
            "server_p50_ms": 1e3 * window.get("request_p50_s", 0.0),
            "server_p99_ms": 1e3 * window.get("request_p99_s", 0.0),
            "points_deduped": after["points_deduped"]
            - before["points_deduped"],
            "points_simulated": after["points_simulated"]
            - before["points_simulated"],
            "points_total": after["points_total"] - before["points_total"],
            "points_cached": after["points_cached"]
            - before["points_cached"],
            "queue_depth_peak": after["queue_depth_peak"],
            "elapsed_s": elapsed,
            "workers": after["workers"],
        }
        self._check(ops)
        return ops, elapsed

    def traced(self, rec) -> tuple[list[OpRecord], float]:
        """A closed loop of :data:`TRACED_REQUESTS` against a second
        server, started under the profiler so its loop thread and
        cache threads are profiled too."""
        bg, client = self._start_server()
        self._warm_hot_set(client)
        t0 = time.perf_counter()
        ops = asyncio.run(self._loop(rec, bg,
                                     lambda n: n >= TRACED_REQUESTS))
        elapsed = time.perf_counter() - t0
        with rec.span("/metrics", "metrics-traced"):
            client.metrics()
        return ops, elapsed

    def _check(self, ops: list[OpRecord]) -> None:
        """Hot jobs against the in-process result; a few cold ones too."""
        from repro.core import (ExperimentConfig, run_with_baseline,
                                sweep_records)

        def reference(job: dict) -> str:
            base = {k: v for k, v in job.items()
                    if k not in ("kind", "nodes", "pattern", "patterns")}
            if job["kind"] == "compare":
                cfg = ExperimentConfig(nodes=job["nodes"],
                                       noise_pattern=job["pattern"], **base)
                record = run_with_baseline(cfg).as_dict()
                record.setdefault("nodes", job["nodes"])
                record.setdefault("pattern", job["pattern"])
                records = [record]
            else:
                records = sweep_records(ExperimentConfig(**base),
                                        nodes=job["nodes"],
                                        patterns=job["patterns"])
            return json.dumps(records, sort_keys=True)

        want = {f"hot{i}": reference(job) for i, job in enumerate(self.hot)}
        cold_checked = 0
        for op in ops:
            if op.error is not None:
                continue
            got = json.dumps(op.info["records"], sort_keys=True)
            if op.name in want:
                expected = want[op.name]
            elif cold_checked < COLD_CHECKS:
                cold_checked += 1
                expected = reference(op.info["job"])
            else:
                continue
            if got != expected:
                op.error = "served records differ from the in-process run"

    def layer_metrics(self, untraced, traced):
        sv = self.server_view
        warm = [1e3 * op.wall_s for op in untraced if op.engine == "hot"]
        cold = [1e3 * op.wall_s for op in untraced if op.engine == "cold"]
        sim_s = [s for op in untraced for s in op.info["simulated_s"]]
        total = sv["points_total"]
        return {
            "setup.pool_warm_s": self.pool_warm_s,
            "serve.server_p50_ms": sv["server_p50_ms"],
            "serve.server_p99_ms": sv["server_p99_ms"],
            "serve.warm_p50_ms": percentile(warm, 0.5),
            "serve.cold_p50_ms": percentile(cold, 0.5),
            "serve.points_deduped": sv["points_deduped"],
            "serve.queue_depth_peak": sv["queue_depth_peak"],
            "parallel.points_simulated": sv["points_simulated"],
            "parallel.hit_ratio": ((sv["points_cached"] + sv["points_deduped"])
                                   / total if total else 0.0),
            "parallel.point_p50_ms": 1e3 * percentile(sim_s, 0.5),
            "parallel.worker_utilization": (sum(sim_s) / (sv["workers"]
                                                          * sv["elapsed_s"])),
        }

    @staticmethod
    def latencies(ops, elapsed_s):
        # Every request counts; a serve "pass" is 100 requests.
        return [op.wall_s for op in ops], 100 * elapsed_s / len(ops), \
            len(ops) // 100

    def close(self) -> None:
        for bg, cache_dir in getattr(self, "servers", ()):
            bg.__exit__(None, None, None)
            shutil.rmtree(cache_dir, ignore_errors=True)


WORKLOADS: dict[str, type] = {
    w.name: w for w in (AppCompare, CollectiveScale, ServeMixed, ReportSmall)}


def op_dicts(ops: list[OpRecord]) -> list[dict]:
    """Op records for the results file, without bulky payloads."""
    out = []
    for op in ops:
        d = asdict(op)
        d["info"] = {k: v for k, v in op.info.items()
                     if k not in ("records", "job")}
        out.append(d)
    return out
