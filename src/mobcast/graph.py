"""Homophilous social network generation and structural measures.

Agents live in an identity space [0, 1]^d and belong to one of K blocks.
Edges are sampled independently per unordered pair with probability p_in
inside a block and p_out across blocks, so block structure and identity
similarity move together: block centers are spread out in identity space
and members scatter tightly around their center.

The pair coins are drawn in row-major chunks of 2**20 pairs, in the
same order and from the same bits as one draw over the whole upper
triangle, so sampling holds O(chunk + m) memory instead of O(n^2); it
still draws O(n^2) uniforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GraphConfig",
    "SocialGraph",
    "Arcs",
    "GraphError",
    "generate_network",
    "identity_similarity",
    "out_arcs",
    "modularity",
    "homophily_index",
    "structure_summary",
    "save_edge_list",
    "load_edge_list",
]

# unordered pairs per chunk of pair coins: 8 MB of uniforms
_PAIR_CHUNK = 1 << 20

CONTEXT_PRESETS = {
    # organizational context c_i ~ U[lo, hi]
    "community": (0.7, 1.0),
    "fragmented": (0.0, 0.3),
}


class GraphError(ValueError):
    pass


@dataclass(frozen=True)
class GraphConfig:
    """Generator settings for one synthetic network."""

    n: int
    n_blocks: int
    p_in: float
    p_out: float
    identity_dim: int = 2
    identity_spread: float = 0.02
    context: str = "community"
    # used only when context == "custom": c_i ~ U[mean - spread, mean + spread]
    context_mean: float = 0.5
    context_spread: float = 0.0

    def validate(self) -> None:
        from .affect import require_finite  # affect imports this module
        require_finite(self)
        if self.n < 1:
            raise GraphError("n must be >= 1")
        if not 1 <= self.n_blocks <= self.n:
            raise GraphError("n_blocks must be in [1, n]")
        for name in ("p_in", "p_out"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise GraphError(f"{name} must be in [0, 1], got {p}")
        if self.identity_dim < 1:
            raise GraphError("identity_dim must be >= 1")
        if self.identity_spread < 0:
            raise GraphError("identity_spread must be >= 0")
        if self.context not in CONTEXT_PRESETS and self.context != "custom":
            raise GraphError(f"unknown context preset {self.context!r}")


@dataclass(frozen=True)
class Arcs:
    """Both directions of every edge, sorted by (sender, target), with the
    per-arc quantities the cascade's transmission logit reads."""

    src: np.ndarray         # (2m,) int64 sender
    dst: np.ndarray         # (2m,) int64 target
    indptr: np.ndarray      # (n + 1,) arcs of sender i are indptr[i]:indptr[i+1]
    similarity: np.ndarray  # (2m,) identity similarity of sender and target
    same_block: np.ndarray  # (2m,) bool

    def out_arcs(self, senders: np.ndarray) -> np.ndarray:
        """Indices of every arc leaving the (non-empty) `senders`, in
        sender order."""
        return out_arcs(self.indptr, senders)


def out_arcs(indptr: np.ndarray, senders: np.ndarray) -> np.ndarray:
    """Indices of every arc leaving the (non-empty) `senders` of the CSR
    offsets `indptr`, in sender order."""
    starts = indptr[senders]
    counts = indptr[senders + 1] - starts
    ends = counts.cumsum()
    return (np.arange(int(ends[-1]), dtype=np.int64)
            + (starts - (ends - counts)).repeat(counts))


@dataclass
class SocialGraph:
    """A sampled network: edges, block labels, identities, context scalars."""

    n: int
    edges: np.ndarray  # (m, 2) int64, i < j, lexicographically sorted
    block: np.ndarray  # (n,) int64
    identity: np.ndarray  # (n, d) float64 in [0, 1]
    context: np.ndarray  # (n,) float64 in [0, 1]
    # caches; not init fields, so dataclasses.replace never carries them over
    _degree: np.ndarray | None = field(default=None, init=False, repr=False,
                                       compare=False)
    _arcs: Arcs | None = field(default=None, init=False, repr=False,
                               compare=False)

    @property
    def n_edges(self) -> int:
        return int(self.edges.shape[0])

    @property
    def n_blocks(self) -> int:
        return int(self.block.max()) + 1 if self.n else 0

    @property
    def identity_dim(self) -> int:
        return int(self.identity.shape[1])

    def degree(self) -> np.ndarray:
        if self._degree is None:
            deg = np.zeros(self.n, dtype=np.int64)
            if self.n_edges:
                np.add.at(deg, self.edges[:, 0], 1)
                np.add.at(deg, self.edges[:, 1], 1)
            self._degree = deg
        return self._degree

    def arcs(self) -> Arcs:
        """The directed edge arrays, built on first use and then shared by
        every cascade engine over this graph."""
        if self._arcs is None:
            und = self.edges
            if und.shape[0]:
                src = np.concatenate([und[:, 0], und[:, 1]])
                dst = np.concatenate([und[:, 1], und[:, 0]])
                order = np.lexsort((dst, src))
                src, dst = src[order], dst[order]
                sim = identity_similarity(self.identity[src], self.identity[dst])
                same = self.block[src] == self.block[dst]
            else:
                src = dst = np.empty(0, dtype=np.int64)
                sim, same = np.empty(0), np.empty(0, dtype=bool)
            self._arcs = Arcs(src=src, dst=dst,
                              indptr=np.searchsorted(src, np.arange(self.n + 1)),
                              similarity=sim, same_block=same)
        return self._arcs

    def validate(self) -> None:
        if self.edges.ndim != 2 or (self.n_edges and self.edges.shape[1] != 2):
            raise GraphError("edges must be an (m, 2) array")
        if self.n_edges:
            i, j = self.edges[:, 0], self.edges[:, 1]
            if (i >= j).any():
                raise GraphError("edges must satisfy i < j")
            if i.min() < 0 or j.max() >= self.n:
                raise GraphError("edge endpoint out of range")
            key = i * self.n + j
            if (np.diff(key) <= 0).any():
                raise GraphError("edges must be sorted and unique")
        if self.identity.shape[0] != self.n or self.block.shape[0] != self.n:
            raise GraphError("per-agent arrays must have length n")
        if self.identity.min(initial=0.0) < 0 or self.identity.max(initial=0.0) > 1:
            raise GraphError("identities must lie in [0, 1]")


def block_centers(n_blocks: int, dim: int) -> np.ndarray:
    """Deterministic, well separated block centers in [0, 1]^dim.

    dim == 1 spaces blocks evenly on the segment; dim >= 2 spaces them
    evenly on a circle of radius 0.45 in the first two coordinates, the
    remaining ones held at 0.5, which keeps every pair of centers at
    distance >= 2 * 0.45 * sin(pi / K).
    """
    if n_blocks == 1:
        return np.full((1, dim), 0.5)
    centers = np.full((n_blocks, dim), 0.5)
    if dim == 1:
        centers[:, 0] = np.linspace(0.0, 1.0, n_blocks)
    else:
        theta = 2.0 * np.pi * np.arange(n_blocks) / n_blocks
        centers[:, 0] = 0.5 + 0.45 * np.cos(theta)
        centers[:, 1] = 0.5 + 0.45 * np.sin(theta)
    return centers


def _pair_coins(block: np.ndarray, p_in: float, p_out: float,
                rng: np.random.Generator) -> np.ndarray:
    """One uniform per unordered pair i < j in row-major order; the pair is
    an edge when its uniform is below p_in (same block) or p_out.

    The pairs are walked in chunks of _PAIR_CHUNK. Generator.random spends
    one 64-bit word per double and buffers nothing, so the chunks consume
    exactly the bits one call over all pairs would, and the edges and the
    generator state afterwards are the same. Only uniforms below
    max(p_in, p_out) are decoded to (i, j) through the row offsets.
    """
    n = block.shape[0]
    # row i holds pairs (i, i+1) .. (i, n-1); offsets[i] is its first pair
    offsets = np.zeros(n, dtype=np.int64)
    np.cumsum(np.arange(n - 1, 0, -1, dtype=np.int64), out=offsets[1:])
    n_pairs = n * (n - 1) // 2
    p_max = max(p_in, p_out)
    parts = [np.empty((0, 2), dtype=np.int64)]
    for start in range(0, n_pairs, _PAIR_CHUNK):
        u = rng.random(min(_PAIR_CHUNK, n_pairs - start))
        hit = np.flatnonzero(u < p_max)
        k = hit + start
        i = np.searchsorted(offsets, k, side="right") - 1
        j = k - offsets[i] + i + 1
        keep = u[hit] < np.where(block[i] == block[j], p_in, p_out)
        parts.append(np.column_stack([i[keep], j[keep]]))
    return np.concatenate(parts)


def generate_network(config: GraphConfig, rng: np.random.Generator) -> SocialGraph:
    """Sample one network.

    Draw order is fixed for reproducibility: pair coins, identity noise,
    context. Blocks are contiguous, near-equal slices of the id range.
    The pair coins are one uniform per unordered pair in row-major order
    (i, then j > i), drawn in chunks of 2**20 pairs, so memory is
    O(chunk + m) while time stays O(n^2) uniforms.
    """
    config.validate()
    n, k = config.n, config.n_blocks
    block = (np.arange(n, dtype=np.int64) * k) // n

    edges = _pair_coins(block, config.p_in, config.p_out, rng)

    centers = block_centers(k, config.identity_dim)
    noise = rng.uniform(-config.identity_spread, config.identity_spread,
                        size=(n, config.identity_dim))
    identity = np.clip(centers[block] + noise, 0.0, 1.0)

    if config.context == "custom":
        lo = config.context_mean - config.context_spread
        hi = config.context_mean + config.context_spread
    else:
        lo, hi = CONTEXT_PRESETS[config.context]
    context = np.clip(rng.uniform(lo, hi, size=n), 0.0, 1.0)

    graph = SocialGraph(n=n, edges=edges, block=block,
                        identity=identity, context=context)
    graph.validate()
    return graph


def identity_similarity(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """1 - euclidean(a, b) / sqrt(d), clamped to [0, 1].

    Accepts single vectors or stacked (n, d) arrays; similarity of a point
    with itself is exactly 1.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    d = a.shape[-1]
    dist = np.sqrt(np.sum((a - b) ** 2, axis=-1))
    return np.clip(1.0 - dist / math.sqrt(d), 0.0, 1.0)


def modularity(graph: SocialGraph) -> float:
    """Newman modularity of the block partition.

    Q = sum_b (e_b / m - (k_b / 2m)^2) where e_b counts edges inside block b
    and k_b its total degree. Undefined on an edgeless graph.
    """
    m = graph.n_edges
    if m == 0:
        raise GraphError("modularity undefined on an edgeless graph")
    bi = graph.block[graph.edges[:, 0]]
    bj = graph.block[graph.edges[:, 1]]
    nb = graph.n_blocks
    e_in = np.bincount(bi[bi == bj], minlength=nb).astype(np.float64)
    k_tot = (np.bincount(bi, minlength=nb) + np.bincount(bj, minlength=nb)).astype(np.float64)
    return float(np.sum(e_in / m - (k_tot / (2.0 * m)) ** 2))


def homophily_index(graph: SocialGraph) -> float:
    """Fraction of edges joining agents of the same block (0 if edgeless)."""
    if graph.n_edges == 0:
        return 0.0
    same = graph.block[graph.edges[:, 0]] == graph.block[graph.edges[:, 1]]
    return float(np.mean(same))


def structure_summary(graph: SocialGraph) -> dict:
    """Density, mean degree, homophily and modularity in one dict.

    Conventions: density is 0 for n < 2, modularity is reported as 0.0 for
    an edgeless graph so summaries stay finite.
    """
    n, m = graph.n, graph.n_edges
    density = 0.0 if n < 2 else 2.0 * m / (n * (n - 1))
    return {
        "n": n,
        "n_edges": m,
        "n_blocks": graph.n_blocks,
        "density": density,
        "mean_degree": 0.0 if n == 0 else 2.0 * m / n,
        "homophily_index": homophily_index(graph),
        "modularity": modularity(graph) if m else 0.0,
    }


def save_edge_list(graph: SocialGraph, path: str,
                   comment: str | None = None) -> None:
    """Plain-text export: header `n K d`, `i j` per edge, then agent rows
    `id block z_1..z_d c`, everything ordered by id. A comment string is
    written first as a `#` line and ignored by the loader."""
    lines = []
    if comment:
        lines.append("# " + comment.strip())
    lines.append(f"{graph.n} {graph.n_blocks} {graph.identity_dim}")
    for i, j in graph.edges:
        lines.append(f"{i} {j}")
    for a in range(graph.n):
        z = " ".join(format(v, ".17g") for v in graph.identity[a])
        lines.append(f"{a} {graph.block[a]} {z} {format(graph.context[a], '.17g')}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_edge_list(path: str) -> SocialGraph:
    with open(path) as fh:
        tokens = [line.split() for line in fh
                  if line.strip() and not line.lstrip().startswith("#")]
    if not tokens:
        raise GraphError(f"{path}: empty graph file")
    head = tokens[0]
    if len(head) != 3:
        raise GraphError(f"{path}: header must be 'n K d'")
    n, k, d = (int(v) for v in head)
    rows = tokens[1:]
    edge_rows = [r for r in rows if len(r) == 2]
    agent_rows = [r for r in rows if len(r) != 2]
    if len(agent_rows) != n:
        raise GraphError(f"{path}: expected {n} agent rows, found {len(agent_rows)}")
    edges = np.array([[int(r[0]), int(r[1])] for r in edge_rows],
                     dtype=np.int64).reshape(-1, 2)
    block = np.zeros(n, dtype=np.int64)
    identity = np.zeros((n, d))
    context = np.zeros(n)
    for r in agent_rows:
        if len(r) != 2 + d + 1:
            raise GraphError(f"{path}: malformed agent row {' '.join(r)!r}")
        a = int(r[0])
        block[a] = int(r[1])
        identity[a] = [float(v) for v in r[2:2 + d]]
        context[a] = float(r[-1])
    if k != int(block.max(initial=0)) + 1:
        raise GraphError(f"{path}: header block count {k} does not match rows")
    graph = SocialGraph(n=n, edges=edges, block=block,
                        identity=identity, context=context)
    graph.validate()
    return graph
