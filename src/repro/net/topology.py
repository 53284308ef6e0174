"""Interconnect topologies.

A topology maps a node pair to *extra* wire latency beyond the LogGP
``L`` (which covers a single hop / the common switch).  Concrete
shapes:

* :class:`SwitchTopology` — one big crossbar: every pair is one hop.
* :class:`TorusTopology` — k-ary n-dimensional torus (Red Storm was a
  3D mesh/torus); extra latency grows with Manhattan hop distance.
* :class:`GraphTopology` — any node → neighbours mapping, for
  irregular or measured fabrics; shortest-path hop counts are cached.
* :class:`FatTreeTopology` — the two-level folded-Clos approximation
  with closed-form hop counts.
* :class:`HierarchicalTopology` — a :class:`MachineShape`-driven
  hierarchy (cores / nodes / switches / groups) with per-level extra
  latency and optional per-level per-byte cost.  This is the shape
  the extreme-scale experiments use: pair costs are closed-form, so
  it scales to O(100k) ranks with no graph search.

Pair lookups are precomputed: every topology lazily builds a pairwise
extra-latency matrix (up to :data:`EXTRA_MATRIX_MAX_NODES` nodes) so
the network pays a single array index per message instead of a Python
call chain, and ``diameter_hops`` is computed once and cached.
"""

from __future__ import annotations

import typing as _t
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError

__all__ = [
    "Topology", "SwitchTopology", "TorusTopology", "GraphTopology",
    "FatTreeTopology", "MachineShape", "HierarchicalTopology",
    "EXTRA_MATRIX_MAX_NODES",
]

#: Largest machine for which the dense pairwise extra-latency matrix is
#: precomputed (an (n, n) int32 array: 64 MiB at 4096 nodes).  Above
#: this, per-pair lookups fall back to the closed-form/graph path and
#: the bulk engine uses the vectorized ``extra_cost_vec`` instead.
EXTRA_MATRIX_MAX_NODES = 4096

#: Generic (pure-Python / BFS) matrix builders stop earlier: an O(n^2)
#: fallback at 4096 nodes would cost tens of seconds per machine build.
_GENERIC_MATRIX_MAX_NODES = 1024


class Topology(ABC):
    """Maps node pairs to hop counts and extra latency."""

    def __init__(self, n_nodes: int, hop_latency_ns: int = 0) -> None:
        if n_nodes <= 0:
            raise ConfigError(f"n_nodes must be > 0, got {n_nodes}")
        if hop_latency_ns < 0:
            raise ConfigError("hop_latency_ns must be >= 0")
        self.n_nodes = n_nodes
        self.hop_latency_ns = hop_latency_ns
        #: Lazily cached pair matrix / diameter (see accessors below).
        self._extra_matrix: np.ndarray | None = None
        self._extra_matrix_ready = False
        self._diameter: int | None = None

    def _check(self, node: int) -> None:
        if not 0 <= node < self.n_nodes:
            raise ConfigError(f"node {node} out of range [0, {self.n_nodes})")

    @abstractmethod
    def hops(self, a: int, b: int) -> int:
        """Number of network hops between nodes ``a`` and ``b``.

        Zero for ``a == b``; at least 1 otherwise.
        """

    def extra_latency(self, a: int, b: int) -> int:
        """Extra wire ns beyond LogGP ``L``: ``hop_latency * (hops-1)``."""
        h = self.hops(a, b)
        return self.hop_latency_ns * max(0, h - 1)

    def extra_cost(self, a: int, b: int, size_bytes: int = 0) -> int:
        """Total extra wire ns for one message (latency + any per-byte
        term).  The base model has no per-byte term; hierarchical
        shapes may add one per level."""
        del size_bytes
        return self.extra_latency(a, b)

    @property
    def size_independent_extra(self) -> bool:
        """True when ``extra_cost`` ignores message size (lets the
        network use the precomputed latency matrix for every message)."""
        return True

    @property
    def zero_extra(self) -> bool:
        """True when every pair's extra latency is exactly zero."""
        return self.hop_latency_ns == 0

    # -- precomputed pair lookups ------------------------------------------
    def extra_latency_matrix(self) -> np.ndarray | None:
        """The dense ``(n, n)`` extra-latency matrix, built lazily.

        ``None`` when the machine is too large for a dense matrix or
        the extra cost depends on message size; callers must then fall
        back to :meth:`extra_cost`.  Built at most once per instance.
        """
        if not self._extra_matrix_ready:
            self._extra_matrix_ready = True
            if (self.n_nodes <= self._matrix_limit()
                    and self.size_independent_extra and not self.zero_extra):
                self._extra_matrix = self._build_extra_matrix()
        return self._extra_matrix

    def _matrix_limit(self) -> int:
        """Node-count cap for this shape's matrix builder (generic
        builders are O(n^2) Python, so they stop earlier than the
        vectorized closed forms)."""
        return _GENERIC_MATRIX_MAX_NODES

    def _build_extra_matrix(self) -> np.ndarray:
        n = self.n_nodes
        mat = np.zeros((n, n), dtype=np.int32)
        for a in range(n):
            row = mat[a]
            for b in range(n):
                if a != b:
                    row[b] = self.extra_latency(a, b)
        return mat

    def extra_cost_vec(self, src: np.ndarray, dst: np.ndarray,
                       size_bytes: int = 0) -> np.ndarray:
        """Vectorized :meth:`extra_cost` over parallel src/dst arrays.

        The generic implementation is a Python loop (adequate for the
        small machines where it is reached); the shipped shapes
        override it with closed forms so the bulk fast path stays
        vectorized at 100k ranks.
        """
        n = len(src)
        return np.fromiter(
            (self.extra_cost(int(a), int(b), size_bytes)
             for a, b in zip(src, dst)),
            dtype=np.int64, count=n)

    @property
    def diameter_hops(self) -> int:
        """Maximum hop count over all pairs (computed once, cached)."""
        if self._diameter is None:
            self._diameter = self._compute_diameter()
        return self._diameter

    def _compute_diameter(self) -> int:
        # Brute force from node 0 (all shipped shapes are
        # vertex-transitive from node 0's perspective).
        return max(self.hops(0, b) for b in range(self.n_nodes))


class SwitchTopology(Topology):
    """Single crossbar switch: all distinct pairs are one hop apart."""

    def hops(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        return 0 if a == b else 1

    @property
    def zero_extra(self) -> bool:
        return True  # hops <= 1 means extra is 0 at any hop latency

    def extra_cost_vec(self, src: np.ndarray, dst: np.ndarray,
                       size_bytes: int = 0) -> np.ndarray:
        return np.zeros(len(src), dtype=np.int64)

    def _compute_diameter(self) -> int:
        return 0 if self.n_nodes == 1 else 1


class TorusTopology(Topology):
    """k-ary n-dimensional torus with dimension-ordered routing.

    ``dims=(4, 4, 8)`` builds a 128-node 3D torus.  Node ids map to
    coordinates in row-major order.
    """

    def __init__(self, dims: _t.Sequence[int], hop_latency_ns: int = 50) -> None:
        dims = tuple(int(d) for d in dims)
        if not dims or any(d <= 0 for d in dims):
            raise ConfigError(f"torus dims must be positive, got {dims}")
        n = 1
        for d in dims:
            n *= d
        super().__init__(n, hop_latency_ns)
        self.dims = dims

    def coordinates(self, node: int) -> tuple[int, ...]:
        """Row-major coordinates of ``node``."""
        self._check(node)
        coords = []
        for d in reversed(self.dims):
            coords.append(node % d)
            node //= d
        return tuple(reversed(coords))

    def _coords_vec(self, nodes: np.ndarray) -> list[np.ndarray]:
        coords: list[np.ndarray] = []
        rest = nodes.astype(np.int64)
        for d in reversed(self.dims):
            coords.append(rest % d)
            rest = rest // d
        coords.reverse()
        return coords

    def hops(self, a: int, b: int) -> int:
        ca, cb = self.coordinates(a), self.coordinates(b)
        total = 0
        for x, y, d in zip(ca, cb, self.dims):
            delta = abs(x - y)
            total += min(delta, d - delta)  # wraparound links
        return total

    def _hops_vec(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        total = np.zeros(len(src), dtype=np.int64)
        for cs, cd, d in zip(self._coords_vec(src), self._coords_vec(dst),
                             self.dims):
            delta = np.abs(cs - cd)
            total += np.minimum(delta, d - delta)
        return total

    def extra_cost_vec(self, src: np.ndarray, dst: np.ndarray,
                       size_bytes: int = 0) -> np.ndarray:
        h = self._hops_vec(np.asarray(src), np.asarray(dst))
        return self.hop_latency_ns * np.maximum(0, h - 1)

    def _matrix_limit(self) -> int:
        return EXTRA_MATRIX_MAX_NODES

    def _build_extra_matrix(self) -> np.ndarray:
        nodes = np.arange(self.n_nodes)
        hops = np.zeros((self.n_nodes, self.n_nodes), dtype=np.int32)
        for c, d in zip(self._coords_vec(nodes), self.dims):
            delta = np.abs(c[:, None] - c[None, :])
            hops += np.minimum(delta, d - delta).astype(np.int32)
        return (self.hop_latency_ns
                * np.maximum(0, hops - 1)).astype(np.int32)

    def _compute_diameter(self) -> int:
        return sum(d // 2 for d in self.dims)


class GraphTopology(Topology):
    """Arbitrary fabric given as an adjacency mapping.

    ``graph`` maps each node to an iterable of its neighbours: a dict
    of lists, or any graph object that iterates over its nodes and
    indexes to their neighbours.  Links are undirected, so listing an
    edge under either end suffices.  Nodes must be labelled
    ``0 .. n-1``.  Hop counts are unweighted shortest paths
    (breadth-first), cached per source.
    """

    def __init__(self, graph: _t.Mapping[int, _t.Iterable[int]],
                 hop_latency_ns: int = 50) -> None:
        adj: dict[int, set[int]] = {node: set() for node in graph}
        for node in graph:
            for nbr in graph[node]:
                adj[node].add(nbr)
                adj.setdefault(nbr, set()).add(node)
        n = len(adj)
        if set(adj) != set(range(n)):
            raise ConfigError("graph nodes must be labelled 0..n-1")
        super().__init__(n, hop_latency_ns)
        self._adj = [sorted(adj[node]) for node in range(n)]
        self._dist: dict[int, list[int]] = {}
        if -1 in self._distances_from(0):
            raise ConfigError("topology graph must be connected")

    def _distances_from(self, src: int) -> list[int]:
        """Hop count from ``src`` to every node (-1 if unreachable)."""
        dist = self._dist.get(src)
        if dist is None:
            dist = [-1] * self.n_nodes
            dist[src] = 0
            queue = deque((src,))
            while queue:
                node = queue.popleft()
                d = dist[node] + 1
                for nbr in self._adj[node]:
                    if dist[nbr] < 0:
                        dist[nbr] = d
                        queue.append(nbr)
            self._dist[src] = dist
        return dist

    def hops(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        return self._distances_from(a)[b]

    @classmethod
    def fat_tree_like(cls, n_nodes: int, radix: int = 8,
                      hop_latency_ns: int = 50) -> "FatTreeTopology":
        """A two-level switch tree approximating a folded-Clos fabric.

        Leaf switches of ``radix`` nodes each, all leaf switches joined
        through one core: intra-leaf pairs are 2 hops, inter-leaf 4.
        """
        return FatTreeTopology(n_nodes, radix=radix,
                               hop_latency_ns=hop_latency_ns)


class FatTreeTopology(Topology):
    """The two-level folded-Clos fabric with closed-form pair costs.

    Nodes hang off leaf switches of ``radix`` ports each, and every
    leaf switch links to one core switch.  ``hops`` and
    ``extra_cost_vec`` are O(1) closed forms over that wiring (a pair
    on one leaf is 2 hops apart, across the core 4), so large machines
    never run a graph search.
    """

    def __init__(self, n_nodes: int, radix: int = 8,
                 hop_latency_ns: int = 50) -> None:
        if n_nodes <= 0 or radix <= 0:
            raise ConfigError("n_nodes and radix must be > 0")
        super().__init__(n_nodes, hop_latency_ns)
        self.radix = int(radix)
        self.n_leaves = (n_nodes + radix - 1) // radix

    def hops(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        if a == b:
            return 0
        if self.n_leaves == 1 or a // self.radix == b // self.radix:
            return 2
        return 4

    def extra_cost_vec(self, src: np.ndarray, dst: np.ndarray,
                       size_bytes: int = 0) -> np.ndarray:
        src = np.asarray(src)
        dst = np.asarray(dst)
        same_leaf = (src // self.radix) == (dst // self.radix)
        extra = np.where(same_leaf, self.hop_latency_ns,
                         3 * self.hop_latency_ns).astype(np.int64)
        return np.where(src == dst, 0, extra)

    def _matrix_limit(self) -> int:
        return EXTRA_MATRIX_MAX_NODES

    def _build_extra_matrix(self) -> np.ndarray:
        leaf = np.arange(self.n_nodes) // self.radix
        same_leaf = leaf[:, None] == leaf[None, :]
        mat = np.where(same_leaf, self.hop_latency_ns,
                       3 * self.hop_latency_ns).astype(np.int32)
        np.fill_diagonal(mat, 0)
        return mat

    def _compute_diameter(self) -> int:
        if self.n_nodes == 1:
            return 0
        return 2 if self.n_leaves == 1 else 4


# -- machine shapes ----------------------------------------------------------

#: Hop counts reported per hierarchy level (same rank, same node, same
#: switch, same group, cross-group) — diagnostics only; latency comes
#: from the shape's per-level tables.
_LEVEL_HOPS = (0, 1, 2, 4, 6)


@dataclass(frozen=True)
class MachineShape:
    """The physical packaging hierarchy of a large machine.

    One simulated node hosts one rank; ``cores_per_node`` ranks share a
    physical node, ``nodes_per_switch`` nodes share a leaf switch, and
    ``switches_per_group`` switches form a group (a fat-tree pod or a
    dragonfly group).  Pair communication cost is classified by the
    *lowest common level* of the two ranks, with per-level extra
    latency beyond the base LogGP ``L`` and an optional per-level
    per-byte term beyond ``G``:

    ``level_latency_ns[k]`` applies to pairs whose lowest common level
    is ``k+1`` (same node, same switch, same group, cross-group).

    Spec-string form (CLI / config): ``"CxNxS[@kind]"``, e.g.
    ``"1x32x8@fat-tree"`` — cores per node x nodes per switch x
    switches per group.
    """

    cores_per_node: int = 1
    nodes_per_switch: int = 32
    switches_per_group: int = 8
    kind: str = "fat-tree"
    #: Extra ns beyond LogGP L per level: (node, switch, group, global).
    level_latency_ns: tuple[int, int, int, int] = (0, 2_000, 5_000, 10_000)
    #: Extra ns/byte beyond LogGP G per level, same order.
    level_G_ns_per_byte: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)

    _KINDS: _t.ClassVar[tuple[str, ...]] = ("fat-tree", "dragonfly")

    def __post_init__(self) -> None:
        for fname in ("cores_per_node", "nodes_per_switch",
                      "switches_per_group"):
            if getattr(self, fname) <= 0:
                raise ConfigError(f"MachineShape.{fname} must be > 0")
        if self.kind not in self._KINDS:
            raise ConfigError(
                f"shape kind must be one of {self._KINDS}, got {self.kind!r}")
        if len(self.level_latency_ns) != 4 or len(self.level_G_ns_per_byte) != 4:
            raise ConfigError("shape level tables need exactly 4 entries")
        if any(v < 0 for v in self.level_latency_ns):
            raise ConfigError("level_latency_ns entries must be >= 0")
        if any(v < 0 for v in self.level_G_ns_per_byte):
            raise ConfigError("level_G_ns_per_byte entries must be >= 0")

    # -- constructors ------------------------------------------------------
    @classmethod
    def fat_tree(cls, cores_per_node: int = 1, nodes_per_switch: int = 32,
                 switches_per_group: int = 8) -> "MachineShape":
        """A folded-Clos machine: cost climbs steeply with tree level."""
        return cls(cores_per_node, nodes_per_switch, switches_per_group,
                   kind="fat-tree",
                   level_latency_ns=(0, 2_000, 5_000, 10_000))

    @classmethod
    def dragonfly(cls, cores_per_node: int = 1, nodes_per_switch: int = 32,
                  switches_per_group: int = 8) -> "MachineShape":
        """All-to-all group wiring: the global hop is one long link."""
        return cls(cores_per_node, nodes_per_switch, switches_per_group,
                   kind="dragonfly",
                   level_latency_ns=(0, 2_000, 3_000, 8_000))

    @classmethod
    def parse(cls, spec: "str | MachineShape") -> "MachineShape":
        """Parse a ``"CxNxS[@kind]"`` spec string (idempotent)."""
        if isinstance(spec, MachineShape):
            return spec
        text = spec.strip()
        kind = "fat-tree"
        if "@" in text:
            text, kind = text.split("@", 1)
            kind = kind.strip().lower()
        parts = text.split("x")
        if len(parts) != 3:
            raise ConfigError(
                f"shape spec must be 'CxNxS[@kind]', got {spec!r}")
        try:
            c, n, s = (int(p) for p in parts)
        except ValueError:
            raise ConfigError(f"non-integer field in shape spec {spec!r}") from None
        if kind == "fat-tree":
            return cls.fat_tree(c, n, s)
        if kind == "dragonfly":
            return cls.dragonfly(c, n, s)
        raise ConfigError(
            f"shape kind must be one of {cls._KINDS}, got {kind!r}")

    # -- derived sizes ------------------------------------------------------
    @property
    def ranks_per_node(self) -> int:
        return self.cores_per_node

    @property
    def ranks_per_switch(self) -> int:
        return self.cores_per_node * self.nodes_per_switch

    @property
    def ranks_per_group(self) -> int:
        return self.ranks_per_switch * self.switches_per_group

    def collective_group_size(self) -> int:
        """Rank-block size the two-level collective algorithms use.

        Multi-core nodes group by physical node (chainermn's intra-/
        inter-node communicator split); single-core nodes group by
        leaf switch so the hierarchy is still exploitable.
        """
        if self.cores_per_node > 1:
            return self.ranks_per_node
        return self.ranks_per_switch

    def level_of(self, a: int, b: int) -> int:
        """Lowest common packaging level of ranks ``a`` and ``b``:
        0 same rank, 1 same node, 2 same switch, 3 same group,
        4 cross-group."""
        if a == b:
            return 0
        if a // self.ranks_per_node == b // self.ranks_per_node:
            return 1
        if a // self.ranks_per_switch == b // self.ranks_per_switch:
            return 2
        if a // self.ranks_per_group == b // self.ranks_per_group:
            return 3
        return 4

    def level_of_vec(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        level = np.full(len(src), 4, dtype=np.int64)
        level[src // self.ranks_per_group == dst // self.ranks_per_group] = 3
        level[src // self.ranks_per_switch == dst // self.ranks_per_switch] = 2
        level[src // self.ranks_per_node == dst // self.ranks_per_node] = 1
        level[src == dst] = 0
        return level

    def describe(self) -> str:
        return (f"{self.cores_per_node}x{self.nodes_per_switch}"
                f"x{self.switches_per_group}@{self.kind}")


class HierarchicalTopology(Topology):
    """A :class:`MachineShape`-driven fabric with per-level pair costs.

    ``extra_latency`` comes straight from the shape's per-level table
    (not from hop counts), and the optional per-level per-byte term
    rides on :meth:`extra_cost`.  All lookups are closed-form, so this
    is the topology of choice for O(10k-100k)-rank machines.
    """

    def __init__(self, n_nodes: int, shape: MachineShape | str) -> None:
        super().__init__(n_nodes, hop_latency_ns=0)
        self.shape = MachineShape.parse(shape)
        self._lat = tuple(int(v) for v in self.shape.level_latency_ns)
        self._gpb = tuple(float(v) for v in self.shape.level_G_ns_per_byte)

    def hops(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        return _LEVEL_HOPS[self.shape.level_of(a, b)]

    def extra_latency(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        level = self.shape.level_of(a, b)
        return 0 if level == 0 else self._lat[level - 1]

    def extra_cost(self, a: int, b: int, size_bytes: int = 0) -> int:
        level = self.shape.level_of(a, b)
        if level == 0:
            return 0
        extra = self._lat[level - 1]
        gpb = self._gpb[level - 1]
        if gpb and size_bytes:
            extra += round(gpb * size_bytes)
        return extra

    @property
    def size_independent_extra(self) -> bool:
        return not any(self._gpb)

    @property
    def zero_extra(self) -> bool:
        return not any(self._lat) and not any(self._gpb)

    def extra_cost_vec(self, src: np.ndarray, dst: np.ndarray,
                       size_bytes: int = 0) -> np.ndarray:
        level = self.shape.level_of_vec(src, dst)
        lat = np.array((0,) + self._lat, dtype=np.int64)
        extra = lat[level]
        if size_bytes and any(self._gpb):
            per_byte = np.array(
                [0] + [round(g * size_bytes) for g in self._gpb],
                dtype=np.int64)
            extra = extra + per_byte[level]
        return extra

    def _matrix_limit(self) -> int:
        return EXTRA_MATRIX_MAX_NODES

    def _build_extra_matrix(self) -> np.ndarray:
        nodes = np.arange(self.n_nodes, dtype=np.int64)
        src = np.repeat(nodes, self.n_nodes)
        dst = np.tile(nodes, self.n_nodes)
        return self.extra_cost_vec(src, dst).reshape(
            self.n_nodes, self.n_nodes).astype(np.int32)

    def _compute_diameter(self) -> int:
        last = self.n_nodes - 1
        return _LEVEL_HOPS[self.shape.level_of(0, last)] if last else 0
