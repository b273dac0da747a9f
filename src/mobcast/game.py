"""Two-side strategic competition over the same network.

Both sides run as one two-design cascade (diffusion.CascadeEngine), with
exclusive adoption and pull ties settled by the replication stream.

Payoffs weight each side's own cohesion, participation and sway, minus
a shared polarization penalty computed on pooled adoption-by-block
rates. Equilibrium search builds the full expected-payoff matrix under
common random numbers and then runs deterministic best-response
iteration, verifying any fixed point by exhaustive deviation scan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .affect import AffectParams, Design, DesignError
from .design import _rep_engines, _replications, _worker_map, scenario_graph
from .diffusion import (CascadeEngine, CascadeResult, DecisionParams,
                        TransmissionParams)
from .graph import SocialGraph, block_centers
from .impact import cohesion, participation, polarization, sway
from .scenario import Scenario

__all__ = [
    "PlayerConfig",
    "JointCascadeResult",
    "EquilibriumReport",
    "JointCascadeEngine",
    "payoff",
    "players_from_scenario",
    "payoff_matrices",
    "best_response_dynamics",
]

SIDES = ("L", "R")


@dataclass(frozen=True)
class PlayerConfig:
    """One competitor: side label, payoff weights (cohesion,
    participation, sway), finite strategy set, home-base blocks."""

    side: str
    weights: tuple[float, float, float]
    strategy_set: tuple[Design, ...]
    anchor_blocks: tuple[int, ...]

    def validate(self) -> None:
        if self.side not in SIDES:
            raise DesignError(f"side must be one of {SIDES}, got {self.side!r}")
        if not self.strategy_set:
            raise DesignError("strategy_set must be non-empty")
        if len(self.weights) != 3 or any(w < 0 for w in self.weights):
            raise DesignError("weights must be three non-negative numbers")


@dataclass
class JointCascadeResult:
    """Joint outcome; adoption is 0 none, 1 left, 2 right."""

    adoption: np.ndarray
    left: CascadeResult
    right: CascadeResult
    match_left: np.ndarray
    match_right: np.ndarray
    polarization: float
    rounds_run: int


@dataclass(frozen=True)
class EquilibriumReport:
    profile: tuple[Design, Design]
    profile_index: tuple[int, int]
    kind: str  # "pure_nash" or "cycle"
    trajectory: tuple[tuple[int, int], ...]
    payoff_left: tuple[tuple[float, ...], ...]
    payoff_right: tuple[tuple[float, ...], ...]
    strategies_left: tuple[Design, ...]
    strategies_right: tuple[Design, ...]
    reps: int
    master_seed: int


class JointCascadeEngine(CascadeEngine):
    """The cascade engine over a left and a right design; see
    CascadeEngine for the adoption rule and the stream contract."""

    # Defined here rather than inherited: it names the two sides, and
    # perfbench/tracing.py times this class's own __init__ and run.
    def __init__(self, graph: SocialGraph, affect: AffectParams,
                 decision: DecisionParams, transmission: TransmissionParams,
                 design_left: Design, design_right: Design):
        super().__init__(graph, affect, decision, transmission,
                         design_left, design_right)

    def run(self, rng: np.random.Generator,
            max_rounds: int | None = None) -> JointCascadeResult:
        return self._outcome(self._run_sides(rng, max_rounds))

    def _outcome(self, sides: list[CascadeResult]) -> JointCascadeResult:
        """The joint result of one replication's left and right results."""
        left, right = sides
        adoption = np.zeros(self.graph.n, dtype=np.int8)
        adoption[left.active] = 1
        adoption[right.active] = 2
        return JointCascadeResult(
            adoption=adoption, left=left, right=right,
            match_left=self.matches[0], match_right=self.matches[1],
            polarization=polarization(self.graph, adoption > 0),
            rounds_run=left.rounds_run)


def payoff(player: PlayerConfig, graph: SocialGraph,
           joint: JointCascadeResult, kappa: float,
           delta_u: float = 0.06) -> float:
    """One side's payoff for one joint outcome."""
    player.validate()
    left = player.side == "L"
    mine = joint.adoption == (1 if left else 2)
    match = joint.match_left if left else joint.match_right
    w1, w2, w3 = player.weights
    return w1 * cohesion(graph, mine) + w2 * participation(graph, mine) \
        + w3 * sway(match, mine, delta_u) - kappa * joint.polarization


def players_from_scenario(scenario: Scenario) -> tuple[PlayerConfig, PlayerConfig]:
    """Both competitors implied by the scenario's game section: same
    format menu and payoff weights, symbols anchored on opposite blocks."""
    game = scenario.game
    game.validate()
    centers = block_centers(scenario.graph.n_blocks, scenario.graph.identity_dim)
    weights = (game.w_cohesion, game.w_participation, game.w_sway)
    players = []
    for side, block in (("L", game.left_block), ("R", game.right_block)):
        if not 0 <= block < scenario.graph.n_blocks:
            raise DesignError(f"game anchor block {block} outside block range")
        symbols = tuple(float(x) for x in centers[block])
        strategies = tuple(Design(
            format=fmt, symbols=symbols, hook=game.hook,
            call_and_response=game.call_and_response, toxicity=game.toxicity,
            seed_fraction=game.seed_fraction, seeding=game.seeding)
            for fmt in game.formats)
        players.append(PlayerConfig(side=side, weights=weights,
                                    strategy_set=strategies,
                                    anchor_blocks=(block,)))
    return players[0], players[1]


def _profile_cell(args) -> tuple[float, float]:
    (scenario, graph, left_player, right_player, design_left, design_right,
     reps, master_seed) = args
    total_l = total_r = 0.0
    for engine, ids in _rep_engines(scenario, graph, master_seed, range(reps),
                                    design_left, design_right,
                                    engine=JointCascadeEngine):
        for _, joint, _ in _replications(engine,
                                         [(master_seed, r) for r in ids],
                                         scenario.max_rounds):
            total_l += payoff(left_player, engine.graph, joint,
                              scenario.game.kappa, scenario.impact.delta_u)
            total_r += payoff(right_player, engine.graph, joint,
                              scenario.game.kappa, scenario.impact.delta_u)
    return total_l / reps, total_r / reps


def payoff_matrices(scenario: Scenario, left_player: PlayerConfig,
                    right_player: PlayerConfig, reps: int, master_seed: int,
                    jobs: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Expected payoffs for every profile; cell (i, j) pairs the left
    player's strategy i against the right player's strategy j. Every cell
    sees the same replication streams (common random numbers)."""
    left_player.validate()
    right_player.validate()
    graph = None if scenario.regenerate_graph_per_rep \
        else scenario_graph(scenario, master_seed)
    tasks = [(scenario, graph, left_player, right_player, dl, dr, reps,
              master_seed)
             for dl in left_player.strategy_set
             for dr in right_player.strategy_set]
    with _worker_map(jobs) as pool_map:
        cells = pool_map(_profile_cell, tasks)
    n_l = len(left_player.strategy_set)
    n_r = len(right_player.strategy_set)
    pay_l = np.array([c[0] for c in cells]).reshape(n_l, n_r)
    pay_r = np.array([c[1] for c in cells]).reshape(n_l, n_r)
    return pay_l, pay_r


def best_response_dynamics(scenario: Scenario,
                           players: tuple[PlayerConfig, PlayerConfig] | None = None,
                           reps: int | None = None,
                           master_seed: int | None = None,
                           max_iters: int | None = None,
                           jobs: int = 1) -> EquilibriumReport:
    """Alternating best responses on the precomputed payoff matrix,
    starting from each side's first strategy; left moves first. A fixed
    point is reported as pure_nash only after an exhaustive deviation
    scan; a revisited non-fixed profile is reported as a cycle."""
    if players is None:
        players = players_from_scenario(scenario)
    left_player, right_player = players
    reps = scenario.reps if reps is None else reps
    master_seed = scenario.master_seed if master_seed is None else master_seed
    max_iters = scenario.game.max_iters if max_iters is None else max_iters
    if max_iters < 1:
        raise DesignError("max_iters must be >= 1")

    pay_l, pay_r = payoff_matrices(scenario, left_player, right_player,
                                   reps, master_seed, jobs=jobs)

    i, j = 0, 0
    trajectory = [(i, j)]
    seen = {(i, j)}
    kind = "cycle"
    for _ in range(max_iters):
        ni = int(np.argmax(pay_l[:, j]))
        nj = int(np.argmax(pay_r[ni, :]))
        if (ni, nj) == (i, j):
            kind = "pure_nash"
            break
        i, j = ni, nj
        trajectory.append((i, j))
        if (i, j) in seen:
            break
        seen.add((i, j))

    if kind == "pure_nash":
        if not (np.all(pay_l[i, j] >= pay_l[:, j])
                and np.all(pay_r[i, j] >= pay_r[i, :])):
            kind = "cycle"

    return EquilibriumReport(
        profile=(left_player.strategy_set[i], right_player.strategy_set[j]),
        profile_index=(i, j),
        kind=kind,
        trajectory=tuple(trajectory),
        payoff_left=tuple(tuple(float(x) for x in row) for row in pay_l),
        payoff_right=tuple(tuple(float(x) for x in row) for row in pay_r),
        strategies_left=left_player.strategy_set,
        strategies_right=right_player.strategy_set,
        reps=reps,
        master_seed=master_seed,
    )
