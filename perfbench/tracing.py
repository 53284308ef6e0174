"""Spans, profiler attribution and import-time parsing for the benchmark.

Spans are recorded by the benchmark's own code around each call into a
public ``repro`` function; they stay in memory and are written out once,
when the run ends.  Self time for the layers below those calls comes
from stdlib :mod:`cProfile`, attributed by source package under
``src/repro/``.
"""

from __future__ import annotations

import cProfile
import itertools
import json
import os
import pstats
import re
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

#: Source file (relative to ``src/repro/``) prefix -> layer, first match
#: wins.  The bulk engine is split out of ``sim`` and ``mpi.collectives``
#: because no other workload touches it.
_LAYER_PREFIXES = (
    ("sim/bulk.py", "bulk"),
    ("mpi/collectives/bulk.py", "bulk"),
    ("mpi/collectives/", "mpi.collectives"),
    ("mpi/", "mpi"),
    ("sim/", "sim"),
    ("kernel/", "kernel"),
    ("noise/", "noise"),
    ("net/", "net"),
    ("apps/", "apps"),
    ("core/", "core"),
    ("microbench/", "microbench"),
    ("parallel/", "parallel"),
    ("serve/", "serve"),
    ("harness/", "harness"),
    ("analysis/", "analysis"),
    ("ktau/", "ktau"),
    ("obs/", "obs"),
    ("faults/", "faults"),
)

#: Layers reported as ``<layer>.self_s`` (``mpi.collectives`` is
#: reported as ``mpi.collectives_self_s``).
REPORTED_LAYERS = ("sim", "kernel", "noise", "net", "mpi",
                   "mpi.collectives", "apps", "bulk", "parallel", "serve",
                   "harness", "analysis", "ktau", "obs")


class SpanRecorder:
    """In-memory spans: name, start, end, parent, and the op they serve."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str, op: str, parent: int | None = None):
        """Time the ``with`` body; yields the span dict."""
        rec = {"id": next(self._ids), "name": name, "op": op,
               "parent": parent}
        start = time.perf_counter()
        try:
            yield rec
        finally:
            rec["start"] = start - self._t0
            rec["end"] = time.perf_counter() - self._t0
            self.spans.append(rec)

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans}) + "\n")


#: Builtins that block the thread (lock waits, selector polls, sleeps):
#: their time is waiting for another thread or process, not work of the
#: layer that called them.
_BLOCKING = re.compile(r"acquire' of '_thread|\bpoll\b|select\.|\bsleep\b"
                       r"|waitpid")


def layer_of(filename: str) -> str | None:
    """The layer a source file belongs to, or ``None`` outside repro."""
    norm = filename.replace(os.sep, "/")
    marker = "/src/repro/"
    idx = norm.rfind(marker)
    if idx < 0:
        return None
    rel = norm[idx + len(marker):]
    for prefix, layer in _LAYER_PREFIXES:
        if rel.startswith(prefix):
            return layer
    return "repro"


class Profiler:
    """cProfile over the calling thread and every thread started while
    it is active (the server's loop and its ``to_thread`` workers).

    Forked children (process-pool workers) turn profiling off, so the
    profiler does not slow them; their time is not in the profile.
    """

    def __init__(self) -> None:
        self._profiles: list[cProfile.Profile] = []
        self._main: cProfile.Profile | None = None
        self._registered_fork_hook = False

    def _install_in_thread(self, frame, event, arg) -> None:
        sys.setprofile(None)
        prof = cProfile.Profile()
        self._profiles.append(prof)
        prof.enable()

    def start(self) -> None:
        if not self._registered_fork_hook:
            os.register_at_fork(after_in_child=_stop_profiling_in_child)
            self._registered_fork_hook = True
        self._main = cProfile.Profile()
        self._profiles.append(self._main)
        threading.setprofile(self._install_in_thread)
        self._main.enable()

    def stop(self) -> pstats.Stats | None:
        threading.setprofile(None)
        if self._main is not None:
            self._main.disable()
        stats = None
        for prof in self._profiles:
            try:
                part = pstats.Stats(prof)
            except TypeError:  # a thread that never made a call
                continue
            if stats is None:
                stats = part
            else:
                stats.add(part)
        return stats


def _stop_profiling_in_child() -> None:
    sys.setprofile(None)


def layer_self_times(stats: pstats.Stats | None) -> dict[str, float]:
    """Self seconds per layer.

    Time spent in code outside ``repro`` (builtins, numpy, heapq,
    asyncio) is charged to the repro layer that called it, following
    callers upward through non-repro frames and splitting by the time
    each caller accounts for.  Blocking waits go to ``wait`` instead.
    """
    if stats is None:
        return {}
    table = stats.stats  # func -> (cc, nc, tt, ct, callers)
    memo: dict[tuple, dict[str, float]] = {}

    def share(func: tuple, depth: int = 0) -> dict[str, float]:
        """Fractions of ``func``'s time to charge to each layer."""
        if func[0] == "~" and _BLOCKING.search(func[2]):
            return {"wait": 1.0}
        layer = layer_of(func[0])
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        memo[func] = {"other": 1.0}  # cycle guard
        callers = table.get(func, (0, 0, 0.0, 0.0, {}))[4]
        weights: dict[str, float] = {}
        total = 0.0
        if depth < 50:
            for caller, cstats in callers.items():
                w = cstats[2] + 1e-12  # caller-attributed self time
                total += w
                for lay, frac in share(caller, depth + 1).items():
                    weights[lay] = weights.get(lay, 0.0) + w * frac
        result = ({k: v / total for k, v in weights.items()} if total
                  else {"other": 1.0})
        memo[func] = result
        return result

    out: dict[str, float] = {}
    for func, (_cc, _nc, tt, _ct, _callers) in table.items():
        for lay, frac in share(func).items():
            out[lay] = out.get(lay, 0.0) + tt * frac
    return out


def top_functions(stats: pstats.Stats | None, n: int = 40) -> list[list]:
    """The ``n`` functions with the most self time: ``[where, self_s,
    calls]``, for the results record."""
    if stats is None:
        return []
    rows = sorted(stats.stats.items(), key=lambda kv: -kv[1][2])[:n]
    return [[f"{fn}:{line}({name})", tt, nc]
            for (fn, line, name), (_cc, nc, tt, _ct, _callers) in rows]


def call_count(stats: pstats.Stats | None, path_suffix: str,
               funcname: str) -> int:
    """Primitive calls of ``funcname`` defined in a file ending in
    ``path_suffix`` (e.g. ``repro/kernel/cpu.py``)."""
    if stats is None:
        return 0
    return sum(nc for (fn, _line, name), (_cc, nc, *_rest)
               in stats.stats.items()
               if name == funcname and fn.replace(os.sep, "/")
               .endswith(path_suffix))


def cumulative_s(stats: pstats.Stats | None, path_suffix: str,
                 funcname: str) -> float:
    """Cumulative seconds in ``funcname`` (see :func:`call_count`)."""
    if stats is None:
        return 0.0
    return sum(ct for (fn, _line, name), (_cc, _nc, _tt, ct, _callers)
               in stats.stats.items()
               if name == funcname and fn.replace(os.sep, "/")
               .endswith(path_suffix))


_IMPORTTIME = re.compile(
    r"^import time:\s+(\d+)\s*\|\s*(\d+)\s*\|(\s*)(\S+)\s*$")


def import_times(stderr_text: str) -> dict[str, float]:
    """Cumulative import seconds from ``python -X importtime`` output.

    Returns the total over top-level imports plus the cumulative time of
    the ``repro``, ``scipy`` and ``networkx`` subtrees: each module
    rooted at the package whose importer is outside it counts once,
    with everything it pulled in.
    """
    rows = []
    for line in stderr_text.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            rows.append((len(m.group(3)), m.group(4), int(m.group(2))))
    # Output is post-order: a module's importer is the next row with a
    # smaller indent.
    parent: list[str | None] = [None] * len(rows)
    stack: list[int] = []
    for i in range(len(rows) - 1, -1, -1):
        while stack and rows[stack[-1]][0] >= rows[i][0]:
            stack.pop()
        parent[i] = rows[stack[-1]][1] if stack else None
        stack.append(i)

    def rooted(name: str | None, pkg: str) -> bool:
        return name is not None and (name == pkg
                                     or name.startswith(pkg + "."))

    out = {"total": sum(cum for (_ind, _n, cum), par in zip(rows, parent)
                        if par is None) / 1e6}
    for pkg in ("repro", "scipy", "networkx"):
        out[pkg] = sum(cum for (_ind, name, cum), par in zip(rows, parent)
                       if rooted(name, pkg) and not rooted(par, pkg)) / 1e6
    return out
