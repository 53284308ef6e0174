"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload app-compare --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  Every run starts the workload in a
fresh interpreter (``child.py``), so set-up time is real and nothing
leaks between runs.  Untraced runs (``--trace 0``) print the end-to-end
metrics; traced runs (``--trace 1``) print the per-layer metrics.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a human-readable table comes
before it, and the full results record (machine fingerprint, sample
counts, every op) is written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Whole-run limit: children still running after it are killed and the
#: run fails.
RUN_LIMIT_S = 170.0
#: One sample scans /proc (about 2 ms of CPU); slower sampling would
#: miss short peaks, faster would take CPU from the pool workers.
RSS_INTERVAL_S = 0.25

END_TO_END = {"setup_s": "s", "wall_s": "s", "req_per_s": "1/s",
              "req_p50_ms": "ms", "req_p99_ms": "ms", "peak_rss_mb": "MB"}

#: Per-layer metric -> unit.  Every traced run prints all of them; a
#: metric whose layer the workload does not reach reads 0.
PER_LAYER = {
    "setup.import_s": "s", "setup.import.repro_s": "s",
    "setup.import.scipy_s": "s", "setup.import.networkx_s": "s",
    "setup.pool_warm_s": "s",
    "sim.events": "count", "sim.events_per_s": "1/s", "sim.self_s": "s",
    "sim.heap_peak": "count",
    "kernel.compute_calls": "count", "kernel.self_s": "s",
    "noise.self_s": "s",
    "net.messages": "count", "net.bytes": "B", "net.self_s": "s",
    "mpi.p2p_calls": "count", "mpi.self_s": "s",
    "mpi.collectives_self_s": "s",
    "core.compare_s.bsp": "s", "core.compare_s.stencil": "s",
    "core.compare_s.cg": "s", "core.compare_s.pop": "s",
    "apps.self_s": "s", "core.machine_build_s": "s",
    "bulk.ops": "count", "bulk.fallbacks": "count",
    "coll.gated_ops": "count", "bulk.engine_ratio": "ratio",
    "bulk.rank_reps_per_s": "1/s", "bulk.fixpoint_reps": "count",
    "bulk.tie_breaks": "count", "bulk.self_s": "s",
    "coll.generator_s": "s",
    "parallel.points_simulated": "count", "parallel.hit_ratio": "ratio",
    "parallel.point_p50_ms": "ms", "parallel.worker_utilization": "ratio",
    "parallel.self_s": "s",
    "serve.server_p50_ms": "ms", "serve.server_p99_ms": "ms",
    "serve.warm_p50_ms": "ms", "serve.cold_p50_ms": "ms",
    "serve.points_deduped": "count", "serve.queue_depth_peak": "count",
    "serve.self_s": "s",
    **{f"harness.{e}_s": "s" for e in workloads.REPORT_EXPERIMENTS},
    "harness.self_s": "s", "analysis.self_s": "s", "ktau.self_s": "s",
    "obs.self_s": "s",
    "trace.overhead_ratio": "ratio", "fail_ratio": "ratio",
}


class TreeRss:
    """Samples the summed RSS of a process and all its descendants."""

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.peak_bytes = 0
        self.samples = 0
        self._stop = threading.Event()
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _tree(self) -> list[int]:
        children: dict[int, list[int]] = {}
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                stat = Path(f"/proc/{entry}/stat").read_text()
            except OSError:
                continue
            ppid = int(stat.rsplit(")", 1)[1].split()[1])
            children.setdefault(ppid, []).append(int(entry))
        tree, todo = [], [self.pid]
        while todo:
            pid = todo.pop()
            tree.append(pid)
            todo += children.get(pid, [])
        return tree

    def sample(self) -> None:
        total = 0
        for pid in self._tree():
            try:
                total += int(Path(f"/proc/{pid}/statm").read_text()
                             .split()[1]) * self._page
            except (OSError, IndexError, ValueError):
                continue
        self.peak_bytes = max(self.peak_bytes, total)
        self.samples += 1

    def _run(self) -> None:
        while not self._stop.wait(RSS_INTERVAL_S):
            self.sample()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()


class Child:
    """One ``child.py`` process, its spawn-to-READY time and its RSS."""

    def __init__(self, args, mode: str, scratch: Path,
                 outputs: tuple[Path, Path] | None = None,
                 python_flags: tuple[str, ...] = ()) -> None:
        cmd = [sys.executable, *python_flags, str(HERE / "child.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--mode", mode, "--scratch", str(scratch)]
        if outputs is not None:
            cmd += ["--out", str(outputs[0]), "--spans", str(outputs[1])]
        env = {**os.environ, "PYTHONPATH": str(SRC), "TMPDIR": str(scratch)}
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True)
        self.rss = TreeRss(self.proc.pid)
        self.setup_s: float | None = None
        self.stderr = ""
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self._err_reader = threading.Thread(target=self._read_err,
                                            daemon=True)
        self._err_reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            if self.setup_s is None and line.strip() == "READY":
                self.setup_s = time.perf_counter() - self.t0

    def _read_err(self) -> None:
        self.stderr = self.proc.stderr.read()

    def wait(self, deadline: float) -> int:
        """Wait for the child until ``deadline``, then kill its whole
        process group (pool workers included) either way."""
        try:
            rc = self.proc.wait(timeout=max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            rc = -signal.SIGKILL
        finally:
            self.kill()
        self.rss.stop()
        self._reader.join()
        self._err_reader.join()
        return rc

    def kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()


def end_to_end(result: dict, setups: list[float], rss: TreeRss,
               workload: str) -> tuple[dict[str, float], dict[str, int]]:
    """End-to-end metrics and the number of samples behind each."""
    ops = [workloads.OpRecord(op["name"], op["wall_s"])
           for op in result["ops"]]
    latencies, wall, passes = workloads.WORKLOADS[workload].latencies(
        ops, result["elapsed_s"])
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "req_per_s": len(ops) / result["elapsed_s"],
        "req_p50_ms": 1e3 * workloads.percentile(latencies, 0.50),
        "req_p99_ms": 1e3 * workloads.percentile(latencies, 0.99),
        "peak_rss_mb": rss.peak_bytes / 2**20,
    }
    samples = {"setup_s": len(setups), "wall_s": passes,
               "req_per_s": len(ops), "req_p50_ms": len(latencies),
               "req_p99_ms": len(latencies), "peak_rss_mb": rss.samples}
    return metrics, samples


def import_probe(args, scratch: Path, deadline: float) -> dict[str, float]:
    """Set up once more under ``-X importtime``; cumulative import times."""
    child = Child(args, "setup", scratch, python_flags=("-X", "importtime"))
    if child.wait(deadline) != 0:
        raise RuntimeError(f"import probe failed:\n{child.stderr[-2000:]}")
    return tracing.import_times(child.stderr)


def fingerprint(args) -> dict:
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass

    def version(dist: str) -> str | None:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {"python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "seed": args.seed, "workload": args.workload,
            "seconds": args.seconds, "trace": args.trace}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    # SIGTERM unwinds through the ``finally`` below like an error would.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    deadline = time.monotonic() + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out = OUT / f"{tag}.result.json"
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUPS - 1):
                probe = Child(args, "setup", scratch)
                if probe.wait(deadline) != 0 or probe.setup_s is None:
                    print(probe.stderr[-4000:], file=sys.stderr)
                    return 1
                setups.append(probe.setup_s)
        child = Child(args, "run", scratch,
                      (out, OUT / f"{tag}.spans.json"))
        rc = child.wait(deadline)
        if rc != 0 or child.setup_s is None:
            print(child.stderr[-4000:], file=sys.stderr)
            print(f"error: workload process exited with {rc}",
                  file=sys.stderr)
            return 1
        setups.append(child.setup_s)
        result = json.loads(out.read_text())
        ops = result["ops"] + result["traced_ops"]
        failed = sum(op["error"] is not None for op in ops)
        for op in ops:
            if op["error"] is not None:
                print(f"FAILED {op['name']}: {op['error']}", file=sys.stderr)
        for name in result["engine_mismatches"]:
            print(f"note: {name} ran on another engine than it was built "
                  "for", file=sys.stderr)
        if args.trace:
            imports = import_probe(args, scratch, deadline)
            metrics = {k: 0.0 for k in PER_LAYER}
            metrics.update(result["layer"])
            metrics["setup.import_s"] = imports["total"]
            for pkg in ("repro", "scipy", "networkx"):
                metrics[f"setup.import.{pkg}_s"] = imports[pkg]
            metrics["fail_ratio"] = failed / len(ops)
            units = PER_LAYER
            samples = {"ops": len(result["ops"]),
                       "traced_ops": len(result["traced_ops"])}
        else:
            metrics, samples = end_to_end(result, setups, child.rss,
                                          args.workload)
            units = END_TO_END
        record = {"fingerprint": fingerprint(args), "samples": samples,
                  "metrics": metrics, "setups_s": setups,
                  "failed": failed, "attempted": len(ops), **result}
        (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
        for name, value in metrics.items():
            print(f"{args.workload:18s} {name:30s} {value:14.6g} "
                  f"{units[name]}")
        print(json.dumps({
            "correct": failed == 0, "attempted": len(ops), "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        out.unlink(missing_ok=True)


if __name__ == "__main__":
    sys.exit(main())
