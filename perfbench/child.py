"""One benchmark run of one workload, in a fresh interpreter.

Started by ``run.py``; prints ``READY`` on stdout once the workload is
set up (``run.py`` times set-up from spawn to that line), then, unless
``--mode setup``, measures and writes its results as JSON to ``--out``.

The untraced passes give the end-to-end numbers.  With ``--trace 1`` one
more pass runs under the profiler for the per-layer numbers, and its
engines and output digests must equal the untraced passes'.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402


def pins_for(workload: str, seed: int) -> dict[str, str]:
    """Pinned digests that apply to this seed: ``every_seed`` pins
    (outputs the seed does not reach) and, for the default seed, the
    rest."""
    pins = json.loads((HERE / "expected.json").read_text()).get(workload, {})
    out = dict(pins.get("every_seed", {}))
    if seed == workloads.DEFAULT_SEED:
        out.update(pins.get("default_seed", {}))
    return out


def check_ops(ops, traced_ops, pins: dict[str, str]) -> None:
    """Mark ops whose output is wrong: not identical to the first run of
    the same op, to a pinned digest, or (traced) to the untraced run."""
    first: dict[str, tuple] = {}
    for op in ops:
        if op.error is None and op.digest is not None:
            first.setdefault(op.name, (op.digest, op.engine))
    for op in ops + traced_ops:
        if op.error is not None or op.digest is None:
            continue
        ref = first.get(op.name)
        wrong = [k for k, v in op.digests().items()
                 if k in pins and pins[k] != v]
        if ref is not None and (op.digest, op.engine) != ref:
            op.error = (f"digest/engine {op.digest}/{op.engine} differs "
                        f"from the first run's {ref[0]}/{ref[1]}")
        elif wrong:
            op.error = f"digests of {wrong} differ from the pinned ones"


def profile_metrics(stats) -> dict[str, float]:
    """Self times per layer and call counts at layer boundaries."""
    selfs = tracing.layer_self_times(stats)
    out = {}
    for layer in tracing.REPORTED_LAYERS:
        key = ("mpi.collectives_self_s" if layer == "mpi.collectives"
               else f"{layer}.self_s")
        out[key] = selfs.get(layer, 0.0)
    out["kernel.compute_calls"] = tracing.call_count(
        stats, "repro/kernel/cpu.py", "compute")
    out["net.messages"] = tracing.call_count(
        stats, "repro/net/network.py", "inject")
    out["mpi.p2p_calls"] = (
        tracing.call_count(stats, "repro/mpi/comm.py", "isend")
        + tracing.call_count(stats, "repro/mpi/comm.py", "irecv"))
    out["core.machine_build_s"] = tracing.cumulative_s(
        stats, "repro/core/machine.py", "__init__")
    return out


def registry_metrics(snapshot: dict) -> dict[str, float]:
    """Simulator counters from the ``repro.obs`` registry."""
    return {"net.bytes": snapshot.get("net.bytes_total", 0),
            "sim.heap_peak": snapshot.get("sim.heap_depth_peak", 0)}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "run"), default="run")
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--out", help="results file (run mode)")
    ap.add_argument("--spans", help="spans file (run mode)")
    args = ap.parse_args()

    wl = workloads.WORKLOADS[args.workload]()
    try:
        wl.setup(args.seed, Path(args.scratch))
        print("READY", flush=True)
        if args.mode == "setup":
            return 0
        rec = tracing.SpanRecorder()
        ops, elapsed = wl.measure(rec, args.seconds)
        result = {"elapsed_s": elapsed}
        traced_ops = []
        if args.trace:
            # repro.obs metrics send bulk-eligible collectives to the
            # generator, so only workloads they leave alone turn them on.
            obs = None
            if wl.obs_metrics_when_traced:
                from repro import obs
                obs.configure(metrics=True)
            prof = tracing.Profiler()
            prof.start()
            try:
                traced_ops, traced_elapsed = wl.traced(rec)
            finally:
                stats = prof.stop()
            layer = profile_metrics(stats)
            result["profile_top"] = tracing.top_functions(stats)
            if obs is not None:
                layer.update(registry_metrics(obs.registry().snapshot()))
                obs.disable()
            layer.update(wl.layer_metrics(ops, traced_ops))
            layer["trace.overhead_ratio"] = ((traced_elapsed / len(traced_ops))
                                             / (elapsed / len(ops)))
            result["layer"] = layer
            result["traced_elapsed_s"] = traced_elapsed
        check_ops(ops, traced_ops, pins_for(args.workload, args.seed))
        engines = wl.intended_engines()
        result["engine_mismatches"] = sorted(
            {op.name for op in ops + traced_ops
             if op.name in engines and op.engine != engines[op.name]})
        result["ops"] = workloads.op_dicts(ops)
        result["traced_ops"] = workloads.op_dicts(traced_ops)
        result["digests"] = {k: v for op in ops
                             for k, v in op.digests().items()}
        rec.write(Path(args.spans))
        Path(args.out).write_text(json.dumps(result) + "\n")
        return 0
    finally:
        wl.close()


if __name__ == "__main__":
    sys.exit(main())
