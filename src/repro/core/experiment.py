"""Single-experiment runner: config in, result out.

:class:`ExperimentConfig` names everything a run needs — workload,
machine size, kernel, network, injected-noise pattern and alignment,
seed, optional observer — and :func:`run_experiment` executes it.
:func:`run_with_baseline` pairs a noisy run with its quiet twin and
returns the slowdown comparison the evaluation tables are built from.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass, field, replace

from ..apps import build_workload
from ..errors import ConfigError
from ..faults import FaultPlan, parse_faults
from ..kernel import KernelConfig
from ..ktau import KtauTracer, OverheadModel
from ..net import LogGPParams
from ..noise import InjectionPlan, parse_pattern
from .machine import Machine, MachineConfig
from .results import ComparisonResult, RunResult

__all__ = ["ExperimentConfig", "run_experiment", "run_with_baseline"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one run.

    Attributes
    ----------
    app:
        Workload name from :mod:`repro.apps.workloads`.
    nodes:
        Machine size.
    noise_pattern:
        Injection spec (``"quiet"``, ``"2.5pct@100Hz"``, ...).
    alignment:
        Cross-node noise alignment (see
        :class:`~repro.noise.InjectionPlan`).
    kernel / network / topology:
        Machine substrate (presets or instances, as in
        :class:`~repro.core.MachineConfig`).
    shape:
        Optional :class:`~repro.net.MachineShape` (or its compact
        ``"CxNxS[@kind]"`` spec) describing the node/switch hierarchy;
        enables topology-aware collective algorithms.
    collectives:
        Machine-wide collective algorithm overrides, mapping operation
        name to algorithm (e.g. ``{"allreduce": "two-level"}``).
    app_params:
        Keyword overrides for the workload factory.
    observer:
        ``None`` (off), ``"profile"``, or ``"trace"``.
    observer_overhead:
        Overhead preset/model (defaults to matching the observer level).
    seed:
        Root seed for every stochastic stream.
    isolate_noise:
        Core specialization (see :class:`~repro.core.MachineConfig`).
    faults:
        Fault-injection policy: a :class:`~repro.faults.FaultPlan`, a
        compact spec string (``"drop=0.01,timeout=1ms"``, see
        :func:`~repro.faults.parse_faults`), or ``None`` for the
        perfectly reliable machine (the default).
    critical_path:
        Record cross-node dependency edges and attach the critical-path
        attribution (:meth:`repro.obs.CriticalPathResult.as_dict`) to
        ``RunResult.meta["critical_path"]``.  Off by default (the
        recorder is never built); recording is passive, so makespans
        and iteration timings are byte-identical either way.
    record_edges:
        Attach the raw dependency-edge log
        (:meth:`repro.obs.DependencyRecorder.edge_log`) to
        ``RunResult.meta["edge_log"]``.  Implies critical-path
        recording; this is the input the idle-wave extractor
        (:mod:`repro.obs.wavefront`) consumes.  Like
        ``critical_path``, recording is passive.
    """

    app: str = "bsp"
    nodes: int = 16
    noise_pattern: str = "quiet"
    alignment: str = "random"
    kernel: KernelConfig | str = "lightweight"
    network: LogGPParams | str = "seastar"
    topology: _t.Any = "switch"
    shape: _t.Any = None
    collectives: _t.Mapping[str, str] | None = None
    app_params: dict[str, _t.Any] = field(default_factory=dict)
    observer: str | None = None
    observer_overhead: OverheadModel | str | None = None
    seed: int = 0
    isolate_noise: bool = False
    faults: FaultPlan | str | None = None
    critical_path: bool = False
    record_edges: bool = False

    def injected_utilization(self) -> float:
        """Nominal utilization of the injected pattern (0 for quiet)."""
        return parse_pattern(self.noise_pattern, seed=self.seed).utilization

    def fault_plan(self) -> FaultPlan | None:
        """The resolved fault plan (spec strings parsed, seed applied)."""
        if self.faults is None or isinstance(self.faults, FaultPlan):
            return self.faults
        return parse_faults(self.faults, seed=self.seed)

    def machine_config(self) -> MachineConfig:
        probe = parse_pattern(self.noise_pattern, seed=self.seed)
        injection = (None if probe.utilization == 0
                     else InjectionPlan(self.noise_pattern,
                                        alignment=self.alignment,
                                        seed=self.seed))
        return MachineConfig(n_nodes=self.nodes, kernel=self.kernel,
                             network=self.network, topology=self.topology,
                             shape=self.shape, collectives=self.collectives,
                             injection=injection, seed=self.seed,
                             isolate_noise=self.isolate_noise,
                             faults=self.fault_plan(),
                             critical_path=(self.critical_path
                                            or self.record_edges))

    def quiet_twin(self) -> "ExperimentConfig":
        """The same experiment with no injected noise."""
        return replace(self, noise_pattern="quiet")


def run_experiment(config: ExperimentConfig,
                   *, return_tracer: bool = False
                   ) -> RunResult | tuple[RunResult, KtauTracer]:
    """Execute one experiment; optionally return the observer too."""
    machine = Machine(config.machine_config())
    tracer: KtauTracer | None = None
    if config.observer is not None:
        overhead = config.observer_overhead
        if overhead is None:
            overhead = config.observer  # matching preset name
        tracer = KtauTracer(machine, level=config.observer,
                            overhead=overhead)
    app = build_workload(config.app, **config.app_params)
    if tracer is not None:
        app.bind_tracer(tracer)
    procs = machine.launch(app)
    machine.run_to_completion(procs)
    machine.finalize_telemetry()
    meta: dict[str, _t.Any] = {"workload": app.describe(),
                               "kernel": machine.config.kernel_config().name}
    fault_stats = machine.fault_stats()
    if fault_stats is not None:
        meta["faults"] = fault_stats
    if machine.critpath is not None:
        if config.critical_path:
            meta["critical_path"] = machine.critical_path().as_dict()
        if config.record_edges:
            meta["edge_log"] = machine.critpath.edge_log()
    if machine.env.det_checksum:
        # obs.configure(det_check=True): order-sensitive checksum of
        # every scheduled (time, priority, seq) tuple — equal across
        # serial/worker runs iff scheduling order was identical.
        meta["det_check"] = machine.env.det_checksum
    result = RunResult(
        app=config.app, n_nodes=config.nodes, pattern=config.noise_pattern,
        seed=config.seed, makespan_ns=app.makespan_ns(),
        iteration_durations_ns=app.all_durations_ns(),
        injected_utilization=config.injected_utilization(),
        events_processed=machine.env.events_processed,
        meta=meta)
    if return_tracer:
        if tracer is None:
            raise ConfigError("return_tracer requires observer to be enabled")
        return result, tracer
    return result


def run_with_baseline(config: ExperimentConfig) -> ComparisonResult:
    """Run ``config`` and its quiet twin; return the comparison."""
    if config.noise_pattern.strip().lower() in ("quiet", "none", "off"):
        raise ConfigError("run_with_baseline needs a noisy configuration")
    quiet = _t.cast(RunResult, run_experiment(config.quiet_twin()))
    noisy = _t.cast(RunResult, run_experiment(config))
    return ComparisonResult(quiet=quiet, noisy=noisy)
