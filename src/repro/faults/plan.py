"""Deterministic fault plans for the simulated cluster.

A :class:`FaultPlan` is to failures what
:class:`~repro.noise.InjectionPlan` is to noise: a frozen, declarative
description of *what goes wrong*, with every individual decision (drop
this message? duplicate that one?) derived from ``(seed, label)`` via
:func:`repro.sim.rng.derive_fraction` — never from draw order.  Two
runs with the same plan make identical decisions; a run fanned over
worker processes makes the same decisions as a serial run.

The fault classes modelled:

* **message drops** — each wire message (data or ack) is lost with
  probability ``drop_rate``.  Because decisions come from a per-message
  label, raising the rate only *adds* drops: the set of dropped
  messages at rate r is a subset of the set at rate r' > r, which is
  what makes drop-rate sweeps monotone.
* **message duplication** — with probability ``duplicate_rate`` a
  message arrives twice (retransmit races in real fabrics); the
  reliable transport suppresses the copy and counts it.
* **transient link degradation** — :class:`LinkDegradation` windows
  multiply wire latency on a channel (or the whole fabric) for a time
  interval, modelling a flapping cable or congested uplink.
* **node slowdown** — each node is degraded to ``slow_factor`` of
  nominal clock with probability ``slow_node_rate`` (thermal
  throttling, a sick DIMM).  Materialized once per machine via
  :meth:`FaultPlan.slow_nodes_for`.
* **one-off delay** — ``one_off`` lists ``(rank, start_ns,
  duration_ns)`` triples, each planting exactly one CPU steal on one
  rank (a cron job firing once, a page-cache writeback burst — the
  idle-wave probe of Afzal/Hager/Wellein, arXiv:1905.10603).
  Materialized per machine via :meth:`FaultPlan.one_off_delays_for`;
  the E20 wavefront study tracks the planted delay through the
  dependency graph.
* **node crash** — ``crashes`` lists ``(node_id, time_ns)`` pairs;
  from that instant the node is unreachable and every message to or
  from it is dropped, which the retry protocol eventually escalates to
  a :class:`~repro.errors.FaultError`.

A plan with every knob at its default injects nothing and requires no
protocol, and the machinery is bypassed entirely — zero-fault runs are
byte-identical to runs with no plan at all (see
``tests/test_faults.py``).
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass

from ..errors import ConfigError
from ..sim.rng import derive_fraction, node_seed
from ..sim.timebase import MICROSECOND, MILLISECOND

__all__ = ["FaultPlan", "LinkDegradation", "parse_faults"]


@dataclass(frozen=True)
class LinkDegradation:
    """One transient degradation window on a link (or the whole fabric).

    Attributes
    ----------
    start_ns, end_ns:
        Half-open window ``[start, end)`` during which the degradation
        is active (judged at injection time).
    factor:
        Wire-latency multiplier (> 1 = slower).
    src, dst:
        The affected channel; ``None`` for either means "any", so
        ``LinkDegradation(a, b, 4.0)`` degrades every link when both
        are ``None``.
    """

    start_ns: int
    end_ns: int
    factor: float
    src: int | None = None
    dst: int | None = None

    def __post_init__(self) -> None:
        if self.start_ns < 0 or self.end_ns <= self.start_ns:
            raise ConfigError(
                f"degradation window [{self.start_ns}, {self.end_ns}) is empty")
        if self.factor < 1.0:
            raise ConfigError(
                f"degradation factor must be >= 1, got {self.factor}")

    def applies(self, src: int, dst: int, time_ns: int) -> bool:
        if not self.start_ns <= time_ns < self.end_ns:
            return False
        if self.src is not None and self.src != src:
            return False
        if self.dst is not None and self.dst != dst:
            return False
        return True


@dataclass(frozen=True)
class FaultPlan:
    """Declarative, seed-deterministic fault-injection policy.

    Rates are per-message probabilities in ``[0, 1]``; the protocol
    knobs (``ack_timeout_ns``, ``max_retries``, ``backoff``) govern the
    reliable transport that recovery rides on (see
    :mod:`repro.faults.protocol` and docs/ROBUSTNESS.md).
    """

    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    degradations: tuple[LinkDegradation, ...] = ()
    slow_node_rate: float = 0.0
    slow_factor: float = 1.0
    #: ``(node_id, crash_time_ns)`` pairs; the node is unreachable from
    #: that instant on.
    crashes: tuple[tuple[int, int], ...] = ()
    #: ``(rank, start_ns, duration_ns)`` one-shot injected delays: each
    #: steals the rank's CPU exactly once, for exactly that window —
    #: the idle-wave probe E20 propagates through the machine.
    one_off: tuple[tuple[int, int, int], ...] = ()
    seed: int = 0
    #: Base ack timeout before the first retransmission.
    ack_timeout_ns: int = 500 * MICROSECOND
    #: Retransmissions before the channel is declared dead.
    max_retries: int = 8
    #: Timeout multiplier per successive retry (exponential backoff).
    backoff: float = 2.0
    #: Wire size of one ack (control messages are small but not free).
    ack_bytes: int = 16

    def __post_init__(self) -> None:
        for name in ("drop_rate", "duplicate_rate", "slow_node_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {rate}")
        if self.drop_rate >= 1.0 and self.drop_rate != 0.0:
            raise ConfigError("drop_rate must be < 1 (nothing would survive)")
        if self.slow_factor <= 0 or self.slow_factor > 1.0:
            raise ConfigError(
                f"slow_factor must be in (0, 1], got {self.slow_factor}")
        if self.ack_timeout_ns <= 0:
            raise ConfigError("ack_timeout_ns must be > 0")
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        if self.backoff < 1.0:
            raise ConfigError(f"backoff must be >= 1, got {self.backoff}")
        if self.ack_bytes < 0:
            raise ConfigError("ack_bytes must be >= 0")
        for entry in self.crashes:
            nid, when = entry
            if nid < 0 or when < 0:
                raise ConfigError(f"invalid crash entry {entry!r}")
        for delay in self.one_off:
            rank, start, duration = delay
            if rank < 0 or start < 0 or duration <= 0:
                raise ConfigError(
                    f"invalid one_off entry {delay!r}: need rank >= 0, "
                    "start >= 0, duration > 0")

    # -- activation --------------------------------------------------------
    @property
    def injects_faults(self) -> bool:
        """True if this plan can perturb the run at all."""
        return bool(self.drop_rate > 0 or self.duplicate_rate > 0
                    or self.degradations or self.crashes or self.one_off
                    or (self.slow_node_rate > 0 and self.slow_factor < 1.0))

    @property
    def needs_protocol(self) -> bool:
        """True if point-to-point traffic needs the ack/retry transport.

        Drops and crashes lose messages (something must retransmit);
        duplication needs receiver-side suppression.  Pure slowdown or
        link degradation never loses a message, so those plans run the
        plain connectionless path and stay cheap.
        """
        return bool(self.drop_rate > 0 or self.duplicate_rate > 0
                    or self.crashes)

    # -- per-message decisions ---------------------------------------------
    def drop_message(self, src: int, dst: int, uid: str) -> bool:
        """Deterministic drop decision for one wire message.

        ``uid`` must be stable per physical transmission (protocol id +
        attempt for data, the acked id for acks) so retransmissions of
        a dropped message get *fresh* coin flips.
        """
        if self.drop_rate <= 0:
            return False
        return derive_fraction(
            self.seed, f"fault/drop/{src}/{dst}/{uid}") < self.drop_rate

    def duplicate_message(self, src: int, dst: int, uid: str) -> bool:
        """Deterministic duplication decision for one wire message."""
        if self.duplicate_rate <= 0:
            return False
        return derive_fraction(
            self.seed, f"fault/dup/{src}/{dst}/{uid}") < self.duplicate_rate

    def latency_factor(self, src: int, dst: int, time_ns: int) -> float:
        """Combined wire-latency multiplier for a message injected now."""
        factor = 1.0
        for window in self.degradations:
            if window.applies(src, dst, time_ns):
                factor *= window.factor
        return factor

    def node_crashed(self, node_id: int, time_ns: int) -> bool:
        """True once ``node_id`` has crashed at or before ``time_ns``."""
        for nid, when in self.crashes:
            if nid == node_id and time_ns >= when:
                return True
        return False

    # -- machine materialization -------------------------------------------
    def slow_nodes_for(self, n_nodes: int) -> dict[int, float]:
        """The degraded-node map for an ``n_nodes`` machine.

        Each node is independently slowed with probability
        ``slow_node_rate`` — decided from the shared per-node seed
        formula, so the same nodes are sick at every machine size that
        contains them.
        """
        if self.slow_node_rate <= 0 or self.slow_factor >= 1.0:
            return {}
        return {i: self.slow_factor for i in range(n_nodes)
                if derive_fraction(node_seed(self.seed, i), "fault/slow")
                < self.slow_node_rate}

    def one_off_delays_for(self, n_nodes: int
                           ) -> dict[int, tuple[tuple[int, int], ...]]:
        """The one-off delay schedule for an ``n_nodes`` machine.

        Returns ``rank -> ((start_ns, duration_ns), ...)`` in spec
        order.  The schedule is explicit (no randomness), so it is
        trivially identical across calls and worker processes — the
        property the wavefront study's serial-vs-workers byte-identity
        rests on.  Ranks outside the machine fail fast.
        """
        out: dict[int, list[tuple[int, int]]] = {}
        for rank, start, duration in self.one_off:
            if rank >= n_nodes:
                raise ConfigError(
                    f"one_off rank {rank} out of range for a "
                    f"{n_nodes}-node machine")
            out.setdefault(rank, []).append((start, duration))
        return {rank: tuple(delays) for rank, delays in out.items()}

    def retry_timeout_ns(self, attempt: int) -> int:
        """Ack timeout before retransmission ``attempt`` (0-based)."""
        return round(self.ack_timeout_ns * self.backoff ** attempt)

    def describe(self) -> dict[str, object]:
        """Reporting summary (mirrors ``InjectionPlan.describe``)."""
        return {"drop_rate": self.drop_rate,
                "duplicate_rate": self.duplicate_rate,
                "degradations": len(self.degradations),
                "slow_node_rate": self.slow_node_rate,
                "slow_factor": self.slow_factor,
                "crashes": list(self.crashes),
                "one_off": list(self.one_off),
                "ack_timeout_ns": self.ack_timeout_ns,
                "max_retries": self.max_retries,
                "backoff": self.backoff,
                "seed": self.seed}


_TIME_SUFFIXES = (("ms", MILLISECOND), ("us", MICROSECOND), ("ns", 1))


def _parse_time_ns(text: str) -> int:
    for suffix, unit in _TIME_SUFFIXES:
        if text.endswith(suffix):
            return round(float(text[:-len(suffix)]) * unit)
    return round(float(text))


def parse_faults(spec: str, *, seed: int = 0) -> FaultPlan | None:
    """Parse a compact CLI fault spec into a :class:`FaultPlan`.

    Grammar: comma-separated ``key=value`` pairs, e.g. ::

        drop=0.01,dup=0.002,timeout=1ms,retries=6,backoff=2
        drop=0.05,slow=0.1x0.8          (10% of nodes at 80% clock)
        crash=3@50ms                     (node 3 dies at t=50ms)
        one_off=3:5ms:1ms                (rank 3 loses 1ms of CPU at t=5ms)

    ``"none"``/``"off"``/``""`` disable fault injection (returns
    ``None``).  Times accept ``ns``/``us``/``ms`` suffixes; repeat
    ``crash=`` or ``one_off=`` to plant several; any other key given
    twice is a :class:`ConfigError`.
    """
    text = spec.strip().lower()
    if text in ("", "none", "off", "quiet"):
        return None
    kwargs: dict[str, _t.Any] = {"seed": seed}
    crashes: list[tuple[int, int]] = []
    one_off: list[tuple[int, int, int]] = []
    seen: set[str] = set()
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(f"fault spec {part!r} is not key=value")
        key, _, value = part.partition("=")
        key = key.strip()
        value = value.strip()
        if key in seen and key not in ("crash", "one_off"):
            raise ConfigError(f"fault spec key {key!r} given more than once")
        seen.add(key)
        try:
            if key == "drop":
                kwargs["drop_rate"] = float(value)
            elif key == "dup":
                kwargs["duplicate_rate"] = float(value)
            elif key == "timeout":
                kwargs["ack_timeout_ns"] = _parse_time_ns(value)
            elif key == "retries":
                kwargs["max_retries"] = int(value)
            elif key == "backoff":
                kwargs["backoff"] = float(value)
            elif key == "slow":
                rate, _, factor = value.partition("x")
                kwargs["slow_node_rate"] = float(rate)
                kwargs["slow_factor"] = float(factor) if factor else 0.8
            elif key == "crash":
                node, _, when = value.partition("@")
                crashes.append((int(node),
                                _parse_time_ns(when) if when else 0))
            elif key == "one_off":
                parts = value.split(":")
                if len(parts) != 3:
                    raise ConfigError(
                        f"one_off spec {value!r} is not rank:start:duration")
                one_off.append((int(parts[0]), _parse_time_ns(parts[1]),
                                _parse_time_ns(parts[2])))
            else:
                raise ConfigError(f"unknown fault spec key {key!r}")
        except ValueError as exc:
            raise ConfigError(f"bad fault spec value {part!r}: {exc}") from None
    if crashes:
        kwargs["crashes"] = tuple(crashes)
    if one_off:
        kwargs["one_off"] = tuple(one_off)
    return FaultPlan(**kwargs)
