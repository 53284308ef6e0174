"""LogGP network cost parameters.

The LogGP model (Alexandrov et al.) describes a message-passing network
with five parameters; we use four (P is the machine size):

* ``L``  — end-to-end wire latency for the first byte, ns.
* ``o``  — per-message CPU overhead at sender and receiver, ns.  This
  is *host CPU work*, so in this simulator it is executed on the node
  CPU and therefore inflated by kernel noise — the coupling between
  messaging and kernel activity the paper's observer exists to expose.
* ``g``  — minimum gap between consecutive message injections at one
  NIC (serialization), ns.
* ``G``  — gap per byte (inverse bandwidth), ns/byte; may be
  fractional.
* ``jitter_ns`` — maximum per-message wire-latency jitter (uniform in
  ``[0, jitter_ns]``, drawn deterministically per message).  Models
  adaptive routing and switch-arbitration variance; zero by default so
  quiet machines stay perfectly deterministic.

Presets approximate the interconnect classes of 2007-era capability
and commodity machines.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError
from ..sim.timebase import MICROSECOND

__all__ = ["LogGPParams"]


@dataclass(frozen=True, slots=True)
class LogGPParams:
    """The four LogGP cost parameters (see module docstring)."""

    L: int = 5 * MICROSECOND
    o: int = 1 * MICROSECOND
    g: int = 300
    G: float = 0.5
    jitter_ns: int = 0

    def __post_init__(self) -> None:
        if (self.L < 0 or self.o < 0 or self.g < 0 or self.G < 0
                or self.jitter_ns < 0):
            raise ConfigError("LogGP parameters must all be >= 0")

    # -- derived costs ------------------------------------------------------
    def wire_time(self, size_bytes: int, extra_latency: int = 0) -> int:
        """Wire ns from injection to arrival: ``L + extra + G*size``."""
        if size_bytes < 0:
            raise ValueError("size must be >= 0")
        if extra_latency < 0:
            raise ValueError("extra_latency must be >= 0")
        return self.L + extra_latency + round(self.G * size_bytes)

    # -- presets ----------------------------------------------------------------
    @classmethod
    def seastar(cls) -> "LogGPParams":
        """Red Storm SeaStar-class mesh NIC: low latency, high bandwidth."""
        return cls(L=2 * MICROSECOND, o=500, g=100, G=0.5)

    @classmethod
    def infiniband(cls) -> "LogGPParams":
        """SDR InfiniBand-class commodity fabric."""
        return cls(L=5 * MICROSECOND, o=1 * MICROSECOND, g=300, G=1.0)

    @classmethod
    def gige(cls) -> "LogGPParams":
        """Gigabit Ethernet cluster: high latency, host-driven."""
        return cls(L=30 * MICROSECOND, o=5 * MICROSECOND, g=1 * MICROSECOND, G=8.0)

    @classmethod
    def preset(cls, name: str) -> "LogGPParams":
        """Look a preset up by name."""
        presets = {"seastar": cls.seastar, "infiniband": cls.infiniband,
                   "gige": cls.gige}
        if name not in presets:
            raise ConfigError(
                f"unknown network preset {name!r}; choose from {sorted(presets)}")
        return presets[name]()
