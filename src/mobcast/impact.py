"""Aggregate impact scoring of a finished cascade.

Components:

* participation - fraction of all agents active at the end;
* cohesion - edge density of the subgraph induced by the active set
  (0 when fewer than two agents are active);
* sway - fraction of undecided agents (|matching - 0.5| <= delta_u)
  that ended active, 0 when nobody is undecided;
* polarization - spread between the most and least activated blocks,
  0 for a single block.

The composite trades these off:

    score = w_participation * participation + w_cohesion * cohesion
          + w_sway * sway - kappa * polarization
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .affect import Design, DesignError, matching_vector, require_finite
from .diffusion import CascadeResult
from .graph import SocialGraph

__all__ = [
    "ImpactWeights",
    "ImpactReport",
    "participation",
    "cohesion",
    "sway",
    "polarization",
    "home_block",
    "within_block_reach",
    "cross_block_sway",
    "score_cascade",
    "score_cascades",
]


@dataclass(frozen=True)
class ImpactWeights:
    w_participation: float = 1.0
    w_cohesion: float = 0.2
    w_sway: float = 0.15
    kappa: float = 0.02
    delta_u: float = 0.2

    def validate(self) -> None:
        require_finite(self)
        if self.delta_u < 0:
            raise DesignError("delta_u must be >= 0")


@dataclass(frozen=True)
class ImpactReport:
    participation: float
    cohesion: float
    sway: float
    polarization: float
    score: float
    home_block: int
    within_block_reach: float
    cross_block_sway: float


def participation(graph: SocialGraph, active: np.ndarray) -> float:
    if graph.n == 0:
        return 0.0
    return float(np.count_nonzero(active)) / graph.n


def cohesion(graph: SocialGraph, active: np.ndarray) -> float:
    """Density among active agents; 0 below two actives."""
    k = int(np.count_nonzero(active))
    if k < 2:
        return 0.0
    if graph.n_edges == 0:
        return 0.0
    inside = active[graph.edges[:, 0]] & active[graph.edges[:, 1]]
    return float(np.count_nonzero(inside)) / (k * (k - 1) / 2.0)


def undecided_mask(match: np.ndarray, delta_u: float) -> np.ndarray:
    return np.abs(match - 0.5) <= delta_u


def sway(match: np.ndarray, active: np.ndarray, delta_u: float) -> float:
    und = undecided_mask(match, delta_u)
    total = int(np.count_nonzero(und))
    if total == 0:
        return 0.0
    return float(np.count_nonzero(und & active)) / total


def polarization(graph: SocialGraph, active: np.ndarray) -> float:
    rates = block_rates(graph, active)
    if rates.size <= 1:
        return 0.0
    return float(rates.max() - rates.min())


def block_rates(graph: SocialGraph, active: np.ndarray) -> np.ndarray:
    """Per-block activation rates, indexed by block id."""
    k = graph.n_blocks
    totals = np.bincount(graph.block, minlength=k).astype(float)
    hits = np.bincount(graph.block, weights=active.astype(float), minlength=k)
    with np.errstate(invalid="ignore", divide="ignore"):
        rates = np.where(totals > 0, hits / np.maximum(totals, 1.0), 0.0)
    return rates


def home_block(graph: SocialGraph, exposure: np.ndarray) -> int:
    """Modal block among exposed agents, smallest block id on ties.

    Falls back to block 0 when nothing was exposed.
    """
    idx = np.flatnonzero(exposure)
    if idx.size == 0:
        return 0
    counts = np.bincount(graph.block[idx], minlength=graph.n_blocks)
    return int(np.argmax(counts))


def within_block_reach(graph: SocialGraph, active: np.ndarray, home: int) -> float:
    members = graph.block == home
    total = int(np.count_nonzero(members))
    if total == 0:
        return 0.0
    return float(np.count_nonzero(members & active)) / total


def cross_block_sway(graph: SocialGraph, match: np.ndarray, active: np.ndarray,
                     home: int, delta_u: float) -> float:
    und = undecided_mask(match, delta_u) & (graph.block != home)
    total = int(np.count_nonzero(und))
    if total == 0:
        return 0.0
    return float(np.count_nonzero(und & active)) / total


def score_cascade(graph: SocialGraph, design: Design, result: CascadeResult,
                  weights: ImpactWeights | None = None,
                  match: np.ndarray | None = None) -> ImpactReport:
    """All impact components plus the composite for one replication."""
    return score_cascades(graph, design, [result], weights, match)[0]


def score_cascades(graph: SocialGraph, design: Design,
                   results: list[CascadeResult],
                   weights: ImpactWeights | None = None,
                   match: np.ndarray | None = None) -> list[ImpactReport]:
    """score_cascade for each of several replications of one design on
    one graph, with the per-(graph, design, weights) constants computed
    once. Every component is a ratio of integer counts, so each report
    equals the one score_cascade gives."""
    if weights is None:
        weights = ImpactWeights()
    weights.validate()
    if match is None:
        match = matching_vector(graph.identity, design)
    n, k, reps = graph.n, graph.n_blocks, len(results)
    blocks = graph.block == np.arange(k)[:, None]
    # block membership, then membership among the undecided, one row each
    member = np.concatenate([blocks, blocks & undecided_mask(
        match, weights.delta_u)]).astype(np.float64)
    # per replication the active and the exposed agents, then everybody;
    # their member counts are exact small-integer float sums
    agents = np.empty((2 * reps + 1, n))
    agents[:reps] = [res.active for res in results]
    agents[reps:-1] = [res.exposure for res in results]
    agents[-1] = 1.0
    counts = agents @ member.T
    totals = counts[-1, :k]
    with np.errstate(invalid="ignore", divide="ignore"):
        rates = np.where(totals > 0, counts[:reps, :k] / np.maximum(totals, 1.0),
                         0.0)
    spreads = (rates.max(axis=1) - rates.min(axis=1)).tolist() if k > 1 \
        else [0.0] * reps
    homes = np.argmax(counts[reps:-1, :k], axis=1).tolist()
    counts = counts.astype(np.int64).tolist()
    totals, und_totals = counts[-1][:k], counts[-1][k:]
    und_total = sum(und_totals)
    e0, e1 = graph.edges[:, 0], graph.edges[:, 1]

    reports = []
    for res, row, home, pol in zip(results, counts, homes, spreads):
        n_active = sum(row[:k])
        und_active = sum(row[k:])
        part = float(n_active) / n if n else 0.0
        coh = 0.0
        if n_active >= 2 and graph.n_edges:
            act = res.active
            inside = int(np.count_nonzero(act[e0] & act[e1]))
            coh = float(inside) / (n_active * (n_active - 1) / 2.0)
        sw = float(und_active) / und_total if und_total else 0.0
        cross_total = und_total - und_totals[home]
        reports.append(ImpactReport(
            participation=part,
            cohesion=coh,
            sway=sw,
            polarization=pol,
            score=(weights.w_participation * part + weights.w_cohesion * coh
                   + weights.w_sway * sw - weights.kappa * pol),
            home_block=home,
            within_block_reach=(float(row[home]) / totals[home]
                                if totals[home] else 0.0),
            cross_block_sway=(float(und_active - row[k + home]) / cross_total
                              if cross_total else 0.0),
        ))
    return reports
