"""Independent oracles used by the test suite.

The cascade enumerator here deliberately shares no code with the engine:
it walks every branch of the process tree (per-edge transmission coins,
per-agent threshold crossings) and integrates the continuous threshold
analytically, so tiny graphs get exact activation distributions to hold
the Monte-Carlo engine against. The dense pair-coin sampler is the
graph generator's original one-call form, kept to hold the chunked
sampler to the same edges and the same generator state. The row panel
writer is the panel CSV writer's original one-row-at-a-time form, kept
to hold the chunked column-wise writer to the same bytes.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from mobcast.affect import AffectParams, Design, affect_vector, matching_vector
from mobcast.diffusion import (DecisionParams, TransmissionParams,
                               b2_effective, seed_exposure)
from mobcast.graph import SocialGraph
from mobcast.stats import logistic


def _phi(z: float) -> float:
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def _Phi(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def smoothed_uniform_cdf(x: float, lo: float, hi: float, sigma: float) -> float:
    """P(tau - eta <= x) for tau ~ U[lo, hi], eta ~ N(0, sigma^2).

    The difference tau - eta is the uniform convolved with the (symmetric)
    normal. With G(z) = z * Phi(z) + phi(z), whose derivative is Phi, the
    CDF is (G((x - lo) / s) - G((x - hi) / s)) * s / (hi - lo).
    """
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    if hi < lo:
        raise ValueError("need lo <= hi")
    if sigma == 0.0:
        if hi == lo:
            return 1.0 if x >= lo else 0.0
        return min(1.0, max(0.0, (x - lo) / (hi - lo)))
    if hi == lo:
        return _Phi((x - lo) / sigma)

    def g(z: float) -> float:
        return z * _Phi(z) + _phi(z)

    val = (g((x - lo) / sigma) - g((x - hi) / sigma)) * sigma / (hi - lo)
    return min(1.0, max(0.0, val))


def tiny_graph(edges, block, identity, context) -> SocialGraph:
    """Explicit graph construction for hand-built fixtures."""
    block = np.asarray(block, dtype=np.int64)
    identity = np.atleast_2d(np.asarray(identity, dtype=np.float64))
    if identity.shape[0] != block.shape[0]:
        identity = identity.T
    n = block.shape[0]
    e = np.array(sorted(tuple(sorted(p)) for p in edges),
                 dtype=np.int64).reshape(-1, 2)
    g = SocialGraph(n=n, edges=e, block=block, identity=identity,
                    context=np.asarray(context, dtype=np.float64))
    g.validate()
    return g


def exact_cascade_distribution(graph: SocialGraph, affect: AffectParams,
                               decision: DecisionParams,
                               transmission: TransmissionParams,
                               design: Design):
    """Exact distribution of the final active set.

    Returns (dist, marginals): dist maps a frozenset of active agents to
    its probability, marginals is the per-agent activation probability.
    Requires sigma_u == 0 and a deterministic seeding strategy, so the
    only randomness is the per-agent threshold draw (integrated through
    smoothed_uniform_cdf) and one coin per attempted edge (enumerated).

    The process mirrored here: exposed agents evaluate once up front with
    no peer term; each newly active agent attempts every incident edge
    exactly once, in the next round, only toward agents inactive at the
    start of that round; an inactive agent re-evaluates whenever its
    cumulative incoming count grows, conditioning on all earlier failed
    evaluations (the threshold is one draw per agent, not per round).
    """
    if affect.sigma_u != 0:
        raise ValueError("enumeration needs sigma_u == 0")
    if design.seeding == "random":
        raise ValueError("enumeration needs deterministic seeding")
    n = graph.n
    if n > 4:
        raise ValueError("enumeration corpus is capped at 4 nodes")

    match = matching_vector(graph.identity, design)
    exposure = seed_exposure(graph, design, match=match)
    v = affect_vector(affect, exposure, match, graph.context, design)
    b2eff = b2_effective(decision, design)

    def cdf(x: float) -> float:
        return smoothed_uniform_cdf(x, decision.tau_lo, decision.tau_hi,
                                    decision.sigma_noise)

    def bound(i: int, k: int) -> float:
        return decision.b0 + decision.b1 * v[i] + b2eff * k

    neighbors: list[list[int]] = [[] for _ in range(n)]
    for i, j in graph.edges:
        neighbors[int(i)].append(int(j))
        neighbors[int(j)].append(int(i))
    for lst in neighbors:
        lst.sort()

    edge_p: dict[tuple[int, int], float] = {}
    for s in range(n):
        for t in neighbors[s]:
            logit = (transmission.l0
                     + transmission.l1 * v[s]
                     + transmission.l2 * (1.0 - abs(
                         float(np.linalg.norm(graph.identity[s]
                                              - graph.identity[t]))
                         / math.sqrt(graph.identity_dim)))
                     + (transmission.l3 if design.format == "meme" else 0.0)
                     + (transmission.l4_tox * design.toxicity
                        if graph.block[s] == graph.block[t] else 0.0))
            edge_p[(s, t)] = float(logistic(logit))

    dist: dict[frozenset, float] = {}

    def record(prob: float, active: tuple[bool, ...]) -> None:
        key = frozenset(i for i in range(n) if active[i])
        dist[key] = dist.get(key, 0.0) + prob

    def rounds(prob, active, influence, h_fail, frontier):
        if prob <= 0.0:
            return
        if not frontier:
            record(prob, active)
            return
        attempts = [(s, t) for s in sorted(frontier) for t in neighbors[s]
                    if not active[t]]
        for outcome in itertools.product((False, True), repeat=len(attempts)):
            p_edges = prob
            infl = list(influence)
            for (s, t), ok in zip(attempts, outcome):
                q = edge_p[(s, t)]
                p_edges *= q if ok else (1.0 - q)
                if ok:
                    infl[t] += 1
            if p_edges <= 0.0:
                continue
            candidates = [i for i in range(n)
                          if not active[i] and infl[i] > 0
                          and cdf(bound(i, infl[i])) > h_fail[i]]
            for acts in itertools.product((False, True),
                                          repeat=len(candidates)):
                p_branch = p_edges
                act2 = list(active)
                h2 = list(h_fail)
                newly = []
                for i, a in zip(candidates, acts):
                    hx = cdf(bound(i, infl[i]))
                    p_cond = (hx - h2[i]) / (1.0 - h2[i])
                    if a:
                        p_branch *= p_cond
                        act2[i] = True
                        newly.append(i)
                    else:
                        p_branch *= 1.0 - p_cond
                        h2[i] = hx
                    if p_branch <= 0.0:
                        break
                if p_branch <= 0.0:
                    continue
                rounds(p_branch, tuple(act2), tuple(infl), tuple(h2), newly)

    exposed = [i for i in range(n) if exposure[i]]
    for acts in itertools.product((False, True), repeat=len(exposed)):
        prob = 1.0
        active = [False] * n
        h_fail = [0.0] * n
        for i, a in zip(exposed, acts):
            p0 = cdf(bound(i, 0))
            if a:
                prob *= p0
                active[i] = True
            else:
                prob *= 1.0 - p0
                h_fail[i] = p0
        if prob <= 0.0:
            continue
        rounds(prob, tuple(active), tuple([0] * n), tuple(h_fail),
               [i for i in exposed if active[i]])

    marginals = np.zeros(n)
    for key, p in dist.items():
        for i in key:
            marginals[i] += p
    total = sum(dist.values())
    if abs(total - 1.0) > 1e-9:
        raise AssertionError(f"enumeration lost mass: total {total!r}")
    return dist, marginals


def engine_mc_distribution(graph, affect, decision, transmission, design,
                           rng, reps: int):
    """Monte-Carlo twin of exact_cascade_distribution using the real engine."""
    from mobcast.diffusion import CascadeEngine

    engine = CascadeEngine(graph, affect, decision, transmission, design)
    n = graph.n
    counts: dict[bytes, int] = {}
    hits = np.zeros(n)
    for _ in range(reps):
        res = engine.run(rng)
        key = res.active.tobytes()
        counts[key] = counts.get(key, 0) + 1
        hits += res.active
    dist = {frozenset(i for i in range(n) if key[i]): c / reps
            for key, c in counts.items()}
    return dist, hits / reps


def _pair() -> tuple:
    graph = tiny_graph([(0, 1)], [0, 0], [[1.0], [0.6]], [0.5, 0.5])
    design = Design(format="theatre", symbols=(1.0,), hook=0.5,
                    call_and_response=True, toxicity=0.0,
                    seed_fraction=0.5, seeding="top_matching")
    affect = AffectParams(a0=0.05, a1=0.2, a2=0.5, a3=0.2, a4=0.1, a5=0.1,
                          sigma_u=0.0)
    decision = DecisionParams(b0=0.0, b1=1.0, b2=0.4, sigma_noise=0.05,
                              tau_lo=0.9, tau_hi=1.3, cnr_boost=2.0)
    transmission = TransmissionParams(l0=-2.0, l1=1.0, l2=1.0, l3=0.8,
                                      l4_tox=1.0)
    return "pair", graph, affect, decision, transmission, design


def _path3() -> tuple:
    graph = tiny_graph([(0, 1), (1, 2)], [0, 0, 1],
                       [[0.9], [0.75], [0.2]], [0.8, 0.6, 0.4])
    design = Design(format="meme", symbols=(0.9,), hook=0.3,
                    call_and_response=False, toxicity=0.4,
                    seed_fraction=0.34, seeding="top_matching")
    affect = AffectParams(a0=0.2, a1=0.3, a2=0.6, a3=0.3, a4=0.2, a5=0.1,
                          sigma_u=0.0)
    decision = DecisionParams(b0=0.0, b1=1.0, b2=0.5, sigma_noise=0.03,
                              tau_lo=0.8, tau_hi=1.3, cnr_boost=3.0)
    transmission = TransmissionParams(l0=-1.5, l1=0.8, l2=1.2, l3=1.0,
                                      l4_tox=1.5)
    return "path3", graph, affect, decision, transmission, design


def _clique4() -> tuple:
    graph = tiny_graph([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
                       [0, 0, 1, 1], [[1.0], [0.8], [0.45], [0.2]],
                       [0.5, 0.5, 0.5, 0.5])
    design = Design(format="theatre", symbols=(1.0,), hook=0.4,
                    call_and_response=True, toxicity=0.3,
                    seed_fraction=0.5, seeding="top_matching")
    affect = AffectParams(a0=0.25, a1=0.25, a2=0.55, a3=0.25, a4=0.1,
                          a5=0.15, sigma_u=0.0)
    decision = DecisionParams(b0=0.0, b1=1.0, b2=0.25, sigma_noise=0.04,
                              tau_lo=0.85, tau_hi=1.35, cnr_boost=2.0)
    transmission = TransmissionParams(l0=-2.2, l1=1.0, l2=1.1, l3=0.9,
                                      l4_tox=1.2)
    return "clique4", graph, affect, decision, transmission, design


def _star4() -> tuple:
    graph = tiny_graph([(0, 1), (0, 2), (0, 3)], [0, 0, 0, 0],
                       [[0.5], [0.9], [0.55], [0.15]], [0.6, 0.5, 0.4, 0.7])
    design = Design(format="song", symbols=(0.5,), hook=0.8,
                    call_and_response=True, toxicity=0.6,
                    seed_fraction=0.25, seeding="top_degree")
    affect = AffectParams(a0=0.2, a1=0.3, a2=0.5, a3=0.3, a4=0.15, a5=0.1,
                          sigma_u=0.0)
    decision = DecisionParams(b0=0.0, b1=1.0, b2=0.3, sigma_noise=0.0,
                              tau_lo=0.7, tau_hi=1.4, cnr_boost=2.5)
    transmission = TransmissionParams(l0=-1.8, l1=1.1, l2=0.9, l3=1.0,
                                      l4_tox=1.0)
    return "star4", graph, affect, decision, transmission, design


def isolate3_fixture() -> tuple:
    graph = tiny_graph([(1, 2)], [0, 1, 1], [[0.95], [0.7], [0.3]],
                       [0.9, 0.5, 0.2])
    design = Design(format="mural", symbols=(0.95,), hook=0.6,
                    call_and_response=False, toxicity=0.0,
                    seed_fraction=0.67, seeding="top_matching")
    affect = AffectParams(a0=0.3, a1=0.2, a2=0.5, a3=0.25, a4=0.1, a5=0.2,
                          sigma_u=0.0)
    decision = DecisionParams(b0=0.0, b1=1.0, b2=0.45, sigma_noise=0.02,
                              tau_lo=0.85, tau_hi=1.25, cnr_boost=2.0)
    transmission = TransmissionParams(l0=-1.2, l1=0.9, l2=1.0, l3=0.7,
                                      l4_tox=0.5)
    return "isolate3", graph, affect, decision, transmission, design


def enumeration_corpus() -> list[tuple]:
    """The tiny-graph corpus: every case has at most 4 nodes and covers a
    distinct mechanism (single edge, cross-block chain with toxicity,
    dense clique with multi-source influence, hub with hard uniform
    thresholds). isolate3 is a fifth fixture used by the unit tests."""
    return [_pair(), _path3(), _clique4(), _star4()]


def dense_pair_coins(block: np.ndarray, p_in: float, p_out: float,
                     rng: np.random.Generator) -> np.ndarray:
    """One rng.random call over the whole upper triangle (O(n^2) memory)."""
    n = block.shape[0]
    if n < 2:
        return np.empty((0, 2), dtype=np.int64)
    iu, ju = np.triu_indices(n, 1)
    same = block[iu] == block[ju]
    probs = np.where(same, p_in, p_out)
    keep = rng.random(iu.shape[0]) < probs
    return np.column_stack([iu[keep], ju[keep]]).astype(np.int64)


def row_panel_csv(panel, agents_path: str, edges_path: str,
                  meta: str | None = None) -> None:
    """write_panel_csv one row at a time, each cell through str(int(v))
    or format(float(v), ".17g")."""
    def fmt(value) -> str:
        return format(float(value), ".17g")

    meta_line = f"# {meta}\n" if meta else ""
    n_items = panel.items.shape[1]
    with open(agents_path, "w", encoding="utf-8") as fh:
        fh.write(meta_line)
        fh.write(",".join(["arm", "rep", "agent"]
                          + [f"y{k + 1}" for k in range(n_items)]
                          + ["exposure", "affect", "matching", "context",
                             "decision", "influence"]) + "\n")
        for i in range(panel.n_agent_rows()):
            row = [str(int(panel.arm[i])), str(int(panel.rep[i])),
                   str(int(panel.agent[i]))]
            row += [fmt(panel.items[i, k]) for k in range(n_items)]
            row += [str(int(panel.exposure[i])), fmt(panel.affect[i]),
                    fmt(panel.matching[i]), fmt(panel.context[i]),
                    str(int(panel.decision[i])), str(int(panel.influence[i]))]
            fh.write(",".join(row) + "\n")
    with open(edges_path, "w", encoding="utf-8") as fh:
        fh.write(meta_line)
        fh.write("arm,rep,sender,target,sender_affect,similarity,meme,"
                 "same_block,success\n")
        for i in range(panel.n_edge_rows()):
            fh.write(",".join([
                str(int(panel.edge_arm[i])), str(int(panel.edge_rep[i])),
                str(int(panel.sender[i])), str(int(panel.target[i])),
                fmt(panel.sender_affect[i]), fmt(panel.similarity[i]),
                str(int(panel.meme[i])), str(int(panel.same_block[i])),
                str(int(panel.success[i]))]) + "\n")
