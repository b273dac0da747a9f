"""Activation cascades: seeding, individual decisions, peer transmission.

The process is synchronous-rounds with monotone activation:

* round 0 - seeds are exposed, every agent's affect, resistance threshold
  tau and decision noise are drawn once for the whole replication, and
  exposed agents with positive decision index activate;
* round r >= 1 - agents that activated in round r-1 attempt transmission
  once over each edge to a neighbor still inactive at the start of the
  round; successful attempts are recorded, and an inactive agent with at
  least one successful incoming transmission activates when its decision
  index (base plus social term) turns positive.

Because thresholds and noise are per-agent constants within a
replication and the social count only grows, activation is monotone and
the cascade reaches a fixpoint in at most n rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .affect import (PARTICIPATORY_FORMATS, AffectParams, Design,
                     DesignError, matching_vector, require_finite)
from .graph import SocialGraph, out_arcs
from .stats import logistic

__all__ = [
    "DecisionParams",
    "TransmissionParams",
    "CascadeResult",
    "CascadeEngine",
    "seed_count",
    "seed_exposure",
    "b2_effective",
]


@dataclass(frozen=True)
class DecisionParams:
    """Activation index: b0 + b1 * affect + b2' * peer_count - tau + noise.

    tau is drawn once per agent from U[tau_lo, tau_hi], the noise from
    N(0, sigma_noise^2). cnr_boost multiplies b2 when the design stages
    call-and-response in a participatory format.
    """

    b0: float = 0.0
    b1: float = 1.0
    b2: float = 0.1
    sigma_noise: float = 0.003
    tau_lo: float = 0.95
    tau_hi: float = 1.25
    cnr_boost: float = 4.6

    def validate(self) -> None:
        require_finite(self)
        if self.tau_lo > self.tau_hi:
            raise DesignError("tau_lo must be <= tau_hi")
        if self.sigma_noise < 0:
            raise DesignError("sigma_noise must be >= 0")
        if self.cnr_boost <= 0:
            raise DesignError("cnr_boost must be > 0")


@dataclass(frozen=True)
class TransmissionParams:
    """Per-edge success logit: l0 + l1 * sender_affect + l2 * similarity
    + l3 * [format == meme] + l4_tox * toxicity * [same block]."""

    l0: float = -6.932305623976115
    l1: float = 2.0
    l2: float = 2.75
    l3: float = 2.0
    l4_tox: float = 0.8

    def validate(self) -> None:
        require_finite(self)


@dataclass
class CascadeResult:
    """Outcome of one replication."""

    exposure: np.ndarray          # (n,) bool
    affect: np.ndarray            # (n,) float
    active: np.ndarray            # (n,) bool
    activation_round: np.ndarray  # (n,) int, -1 when never active
    fired_edges: np.ndarray       # (k, 2) int directed successful attempts
    attempts: np.ndarray          # (a, 3) int rows (sender, target, success)
    rounds_run: int

    def influence_counts(self) -> np.ndarray:
        counts = np.zeros(self.exposure.shape[0], dtype=np.int64)
        if self.fired_edges.shape[0]:
            np.add.at(counts, self.fired_edges[:, 1], 1)
        return counts


def seed_count(n: int, seed_fraction: float) -> int:
    """Number of exposed agents: seed_fraction * n rounded half-up."""
    return int(math.floor(seed_fraction * n + 0.5))


def seed_exposure(graph: SocialGraph, design: Design,
                  rng: np.random.Generator | None = None,
                  match: np.ndarray | None = None) -> np.ndarray:
    """Boolean exposure mask for the design's seeding strategy.

    random needs the stream; top_degree and top_matching are deterministic
    with ties broken by agent id.
    """
    design.validate(graph.identity_dim)
    n = graph.n
    s = seed_count(n, design.seed_fraction)
    exposure = np.zeros(n, dtype=bool)
    if s == 0:
        return exposure
    if design.seeding == "random":
        if rng is None:
            raise DesignError("random seeding requires a generator")
        exposure[rng.choice(n, size=s, replace=False)] = True
    elif design.seeding == "top_degree":
        order = np.lexsort((np.arange(n), -graph.degree()))
        exposure[order[:s]] = True
    else:  # top_matching
        if match is None:
            match = matching_vector(graph.identity, design)
        order = np.lexsort((np.arange(n), -match))
        exposure[order[:s]] = True
    return exposure


def b2_effective(params: DecisionParams, design: Design) -> float:
    if design.call_and_response and design.format in PARTICIPATORY_FORMATS:
        return params.b2 * params.cnr_boost
    return params.b2


class CascadeEngine:
    """Precompiled cascade for one graph and one or two competing designs.

    Reusing an engine across replications avoids recomputing matchings and
    logit constants; the directed edge arrays are cached on the graph and
    shared by every engine over it.

    With two designs both sides seed and diffuse at once and adoption is
    exclusive: an agent joins at most one side, ever. An open agent that
    clears both sides' activation conditions in the same round joins the
    side with the higher affective pull (b1 * affect + b2' * peer count
    for that side); an exact tie is settled by a fair coin. Adopters
    transmit only their own side.

    Stream consumption per run is fixed: each side's random seeding draw
    (when applicable), each side's affect noise, tau, decision noise, then
    per round each side's edge coins (one uniform per attempted edge) and,
    with two designs, one fair coin per exact pull tie in ascending agent
    order. run_batch advances several replications together, each on its
    own generator with exactly this consumption.
    """

    def __init__(self, graph: SocialGraph, affect: AffectParams,
                 decision: DecisionParams, transmission: TransmissionParams,
                 *designs: Design):
        if len(designs) not in (1, 2):
            raise DesignError("a cascade takes one or two designs")
        affect.validate()
        decision.validate()
        transmission.validate()
        for design in designs:
            design.validate(graph.identity_dim)
        self.graph = graph
        self.affect = affect
        self.decision = decision
        self.transmission = transmission
        self.designs = designs
        self.arcs = arcs = graph.arcs()

        # per-side constants, one row per design
        self.matches = np.array([matching_vector(graph.identity, d)
                                 for d in designs])
        self.match = self.matches[0]
        self.b2eff = np.array([[b2_effective(decision, d)] for d in designs])
        self.edge_base = np.array([
            transmission.l0
            + transmission.l2 * arcs.similarity
            + (transmission.l3 if d.format == "meme" else 0.0)
            + transmission.l4_tox * d.toxicity * arcs.same_block
            for d in designs])
        self.affect_base = (affect.a0 + affect.a2 * self.matches
                            + affect.a3 * graph.context)
        self.affect_gain = (np.array([[affect.a1 * (1.0 + d.hook)] for d in designs])
                            + affect.a4 * self.matches + affect.a5 * graph.context)
        # deterministic seedings are drawn here once; random rows stay empty
        self.random_sides = tuple(s for s, d in enumerate(designs)
                                  if d.seeding == "random")
        self.fixed_exposure = np.array([
            np.zeros(graph.n, dtype=bool) if d.seeding == "random"
            else seed_exposure(graph, d, match=m)
            for d, m in zip(designs, self.matches)])
        self.unset_round = np.full((len(designs), graph.n), -1, dtype=np.int64)
        self._unions: dict[int, tuple[np.ndarray, ...]] = {}  # see _union

    def run(self, rng: np.random.Generator, max_rounds: int | None = None) -> CascadeResult:
        """One replication of a one-design engine."""
        if len(self.designs) != 1:
            raise DesignError("run() takes a one-design engine; "
                              "two designs run through JointCascadeEngine")
        return self._run_sides(rng, max_rounds)[0]

    def _outcome(self, sides: list[CascadeResult]) -> CascadeResult:
        """What run() returns, given one replication's per-design results."""
        return sides[0]

    def run_batch(self, rngs: list[np.random.Generator],
                  max_rounds: int | None = None) -> list[list[CascadeResult]]:
        """One replication per generator; one list of results per design,
        each in the order of `rngs`.

        Rep r is bit for bit the replication that rngs[r] alone gives
        (run, or JointCascadeEngine.run with two designs), and it leaves
        rngs[r] in the same state: each generator sees exactly the draws
        of its own replication, in the same order. The reps advance
        in lockstep as one cascade over the disjoint union of len(rngs)
        copies of the graph (agent r * n + i is agent i of rep r), each
        stopping at the round where it would stop alone, so results do
        not depend on how replications are grouped into batches.

        One generator runs run()'s sequential loop instead: lockstep over
        a single rep took 1.6-1.8x the time of run() per replication on
        the four exact-enumeration oracle graphs (2 cores, Python 3.11,
        numpy 2.4), and the oracle check draws its 100,000 runs per graph
        from one shared generator, so they cannot be batched.
        """
        if len(rngs) == 1:
            return [[res] for res in self._run_sides(rngs[0], max_rounds)]
        return self._run_lockstep(rngs, max_rounds)

    def _max_rounds(self, max_rounds: int | None) -> int:
        if max_rounds is None:
            return max(1, self.graph.n)
        if max_rounds < 1:
            raise DesignError("max_rounds must be >= 1")
        return max_rounds

    def _run_sides(self, rng: np.random.Generator,
                   max_rounds: int | None) -> list[CascadeResult]:
        """One replication; one result per design, in design order."""
        graph, dec, arcs = self.graph, self.decision, self.arcs
        n, k = graph.n, len(self.designs)
        max_rounds = self._max_rounds(max_rounds)

        exposure = self.fixed_exposure.copy()
        for s in self.random_sides:
            exposure[s] = seed_exposure(graph, self.designs[s], rng,
                                        match=self.matches[s])
        affect = self.affect_base + exposure * self.affect_gain
        if self.affect.sigma_u > 0:
            affect += rng.normal(0.0, self.affect.sigma_u, size=(k, n))
        # tau and the decision noise are shared by both sides
        base = dec.b0 + dec.b1 * affect - rng.uniform(dec.tau_lo, dec.tau_hi, size=n)
        if dec.sigma_noise > 0:
            base += rng.normal(0.0, dec.sigma_noise, size=n)

        taken = np.zeros(n, dtype=bool)  # agents that joined some side
        activation_round = self.unset_round.copy()
        counts = np.zeros((k, n), dtype=np.int64)
        tried: list[list[tuple]] = [[] for _ in range(k)]  # (arcs, success)

        frontiers = self._adopt(exposure & (base > 0.0), affect, counts,
                                taken, activation_round, 0, [rng])
        dst, l1 = arcs.dst, self.transmission.l1
        rounds_run = 0
        for r in range(1, max_rounds + 1):
            rounds_run = r
            hit = False
            for s, frontier in enumerate(frontiers):
                if not frontier.size:
                    continue
                eidx = out_arcs(arcs.indptr, frontier)
                eidx = eidx[~taken[dst[eidx]]]
                if not eidx.size:
                    continue
                ok = rng.random(eidx.size) < logistic(
                    self.edge_base[s][eidx] + l1 * affect[s][arcs.src[eidx]])
                tried[s].append((eidx, ok))
                reached = dst[eidx[ok]]
                if reached.size:
                    np.add.at(counts[s], reached, 1)
                    hit = True
            # every agent that qualified earlier has joined a side, so with
            # no new successful transmission nobody else can qualify
            if not hit:
                break

            qual = (counts > 0) & (base + self.b2eff * counts > 0.0)
            qual &= ~taken
            frontiers = self._adopt(qual, affect, counts, taken,
                                    activation_round, r, [rng])
            if not any(f.size for f in frontiers):
                break

        results = []
        for s in range(k):
            if tried[s]:
                eidx, ok = map(np.concatenate, zip(*tried[s]))
                attempts = np.empty((eidx.size, 3), dtype=np.int64)
                attempts[:, 0] = arcs.src[eidx]
                attempts[:, 1] = dst[eidx]
                attempts[:, 2] = ok
                fired = attempts[ok, :2]
            else:
                attempts = np.empty((0, 3), dtype=np.int64)
                fired = np.empty((0, 2), dtype=np.int64)
            results.append(CascadeResult(
                exposure=exposure[s], affect=affect[s],
                active=activation_round[s] >= 0,
                activation_round=activation_round[s],
                fired_edges=fired, attempts=attempts, rounds_run=rounds_run))
        return results

    def _union(self, reps: int) -> tuple[np.ndarray, ...]:
        """The arcs of `reps` disjoint copies of the graph (sender, target,
        CSR offsets) and the per-side constants tiled to match; built once
        per rep count and kept on the engine."""
        union = self._unions.get(reps)
        if union is None:
            arcs, n = self.arcs, self.graph.n
            shift = np.arange(reps, dtype=np.int64)[:, None]
            union = self._unions[reps] = (
                (arcs.src + shift * n).ravel(),
                (arcs.dst + shift * n).ravel(),
                np.append((arcs.indptr[:-1] + shift * arcs.src.size).ravel(),
                          reps * arcs.src.size),
                np.tile(self.edge_base, reps),
                np.tile(self.affect_base, reps),
                np.tile(self.affect_gain, reps),
                np.tile(self.fixed_exposure, reps))
        return union

    def _run_lockstep(self, rngs: list[np.random.Generator],
                      max_rounds: int | None) -> list[list[CascadeResult]]:
        """run_batch over two or more generators: _run_sides' loop over the
        union of len(rngs) graph copies, with each rep's draws taken from
        its own generator in _run_sides' order."""
        graph, dec, sigma_u = self.graph, self.decision, self.affect.sigma_u
        n, k, reps = graph.n, len(self.designs), len(rngs)
        max_rounds = self._max_rounds(max_rounds)
        src, dst, indptr, edge_base, affect_base, affect_gain, exposure = \
            self._union(reps)
        exposure = exposure.copy()
        tau = np.empty(reps * n)
        noise_u = np.empty((k, reps * n)) if sigma_u > 0 else None
        noise_d = np.empty(reps * n) if dec.sigma_noise > 0 else None
        for rep, rng in enumerate(rngs):
            agents = slice(rep * n, (rep + 1) * n)
            for s in self.random_sides:
                exposure[s, agents] = seed_exposure(
                    graph, self.designs[s], rng, match=self.matches[s])
            if noise_u is not None:
                noise_u[:, agents] = rng.normal(0.0, sigma_u, size=(k, n))
            tau[agents] = rng.uniform(dec.tau_lo, dec.tau_hi, size=n)
            if noise_d is not None:
                noise_d[agents] = rng.normal(0.0, dec.sigma_noise, size=n)
        affect = affect_base + exposure * affect_gain
        if noise_u is not None:
            affect += noise_u
        base = dec.b0 + dec.b1 * affect - tau
        if noise_d is not None:
            base += noise_d

        taken = np.zeros(reps * n, dtype=bool)
        activation_round = np.full((k, reps * n), -1, dtype=np.int64)
        counts = np.zeros((k, reps * n), dtype=np.int64)
        # per rep and side, the (sender, target, success) rows of each round
        tried = [[[] for _ in range(k)] for _ in range(reps)]
        rounds_run = np.full(reps, max_rounds)
        live = np.ones(reps, dtype=bool)
        rep_arcs = np.arange(reps + 1) * self.arcs.src.size

        frontiers = self._adopt(exposure & (base > 0.0), affect, counts,
                                taken, activation_round, 0, rngs)
        l1 = self.transmission.l1
        for r in range(1, max_rounds + 1):
            hit = np.zeros(reps, dtype=bool)
            for s, frontier in enumerate(frontiers):
                if not frontier.size:
                    continue
                eidx = out_arcs(indptr, frontier)
                eidx = eidx[~taken[dst[eidx]]]
                if not eidx.size:
                    continue
                # arcs come out sorted by rep: each rep draws its own coins
                cuts = np.searchsorted(eidx, rep_arcs).tolist()
                coins = np.empty(eidx.size)
                rows = np.empty((eidx.size, 3), dtype=np.int64)
                spans = [(rep, lo, hi) for rep, (lo, hi)
                         in enumerate(zip(cuts, cuts[1:])) if hi > lo]
                for rep, lo, hi in spans:
                    rngs[rep].random(out=coins[lo:hi])
                ok = coins < logistic(edge_base[s][eidx]
                                      + l1 * affect[s][src[eidx]])
                rows[:, 0] = src[eidx]
                rows[:, 1] = dst[eidx]
                rows[:, 2] = ok
                for rep, lo, hi in spans:
                    tried[rep][s].append(rows[lo:hi])
                reached = dst[eidx[ok]]
                if reached.size:
                    np.add.at(counts[s], reached, 1)
                    hit[reached // n] = True
            # a live rep without a new successful transmission stops here,
            # as in _run_sides; none of its agents can qualify below
            rounds_run[live & ~hit] = r
            live &= hit
            if not live.any():
                break

            qual = (counts > 0) & (base + self.b2eff * counts > 0.0)
            qual &= ~taken
            frontiers = self._adopt(qual, affect, counts, taken,
                                    activation_round, r, rngs)
            adopted = np.zeros(reps, dtype=bool)
            for frontier in frontiers:
                adopted[frontier // n] = True
            rounds_run[live & ~adopted] = r
            live &= adopted
            if not live.any():
                break

        active = activation_round >= 0
        results = [[] for _ in range(k)]
        for rep in range(reps):
            agents = slice(rep * n, (rep + 1) * n)
            for s in range(k):
                if tried[rep][s]:
                    attempts = np.concatenate(tried[rep][s])
                    attempts[:, :2] -= rep * n
                    fired = attempts[attempts[:, 2] == 1, :2]
                else:
                    attempts = np.empty((0, 3), dtype=np.int64)
                    fired = np.empty((0, 2), dtype=np.int64)
                results[s].append(CascadeResult(
                    exposure=exposure[s, agents], affect=affect[s, agents],
                    active=active[s, agents],
                    activation_round=activation_round[s, agents],
                    fired_edges=fired, attempts=attempts,
                    rounds_run=int(rounds_run[rep])))
        return results

    def _adopt(self, qual, affect, counts, taken, activation_round, r, rngs):
        """Let the open agents that qualify (one row per side) join a side
        in round r and return each side's new adopters. With two designs
        an agent qualifying for both joins the side with the higher pull,
        a fair coin from its rep's generator settling exact ties."""
        if qual.shape[0] == 2:
            qual_l, qual_r = qual
            pull_l, pull_r = self.decision.b1 * affect + self.b2eff * counts
            both = qual_l & qual_r
            take_l = (qual_l & ~qual_r) | (both & (pull_l > pull_r))
            take_r = (qual_r & ~qual_l) | (both & (pull_r > pull_l))
            tied = (both & (pull_l == pull_r)).nonzero()[0]
            if tied.size:
                coin = np.empty(tied.size, dtype=bool)
                cuts = np.searchsorted(
                    tied, np.arange(len(rngs) + 1) * self.graph.n).tolist()
                for rng, lo, hi in zip(rngs, cuts, cuts[1:]):
                    if hi > lo:
                        coin[lo:hi] = rng.random(hi - lo) < 0.5
                take_l[tied[coin]] = True
                take_r[tied[~coin]] = True
            qual = (take_l, take_r)
        frontiers = [row.nonzero()[0] for row in qual]
        for frontier, when in zip(frontiers, activation_round):
            taken[frontier] = True
            when[frontier] = r
        return frontiers
