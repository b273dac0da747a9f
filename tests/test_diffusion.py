"""Cascade mechanics: seeding, thresholds, per-edge transmission, and the
exhaustive enumerator the acceptance gate leans on."""

from dataclasses import replace

import numpy as np
import pytest

from mobcast.affect import AffectParams, Design, DesignError, affect_vector, matching_vector
from mobcast.diffusion import (
    CascadeEngine,
    DecisionParams,
    TransmissionParams,
    b2_effective,
    seed_count,
    seed_exposure,
)
from mobcast.design import scenario_graph
from mobcast.graph import GraphConfig, generate_network
from mobcast.scenario import derive_stream, preset_scenario
from mobcast.stats import logistic

from oracles import (
    enumeration_corpus,
    engine_mc_distribution,
    exact_cascade_distribution,
    isolate3_fixture,
    smoothed_uniform_cdf,
    tiny_graph,
)


def mid_setup():
    graph = generate_network(
        GraphConfig(n=80, n_blocks=4, p_in=0.25, p_out=0.02, identity_dim=1),
        derive_stream(31, "mid"))
    design = Design(format="theatre", symbols=(0.0,), hook=0.6,
                    call_and_response=True, toxicity=0.1,
                    seed_fraction=0.1, seeding="top_matching")
    return graph, AffectParams(), DecisionParams(), TransmissionParams(), design


@pytest.mark.parametrize("n, frac, expected", [
    (10, 0.05, 1),
    (3, 0.5, 2),
    (400, 0.05, 20),
    (3, 0.34, 1),
    (2, 0.0, 0),
    (10, 0.25, 3),
])
def test_seed_count_rounds_half_up(n, frac, expected):
    assert seed_count(n, frac) == expected


def test_seed_exposure_top_degree_breaks_ties_by_id():
    g = tiny_graph([(0, 1), (1, 2), (2, 3)], [0, 0, 0, 0],
                   [[0.5], [0.5], [0.5], [0.5]], [0.5] * 4)
    d = Design(format="meme", symbols=(0.5,), hook=0.0,
               call_and_response=False, toxicity=0.0,
               seed_fraction=0.25, seeding="top_degree")
    exposure = seed_exposure(g, d)
    # degrees [1, 2, 2, 1]; the lower id wins among the degree-2 pair
    assert exposure.tolist() == [False, True, False, False]


def test_seed_exposure_top_matching_breaks_ties_by_id():
    g = tiny_graph([(0, 1)], [0, 0], [[0.4], [0.4]], [0.5, 0.5])
    d = Design(format="meme", symbols=(0.4,), hook=0.0,
               call_and_response=False, toxicity=0.0,
               seed_fraction=0.5, seeding="top_matching")
    assert seed_exposure(g, d).tolist() == [True, False]


def test_seed_exposure_random_needs_stream():
    g = tiny_graph([(0, 1)], [0, 0], [[0.4], [0.6]], [0.5, 0.5])
    d = Design(format="meme", symbols=(0.4,), hook=0.0,
               call_and_response=False, toxicity=0.0,
               seed_fraction=0.5, seeding="random")
    with pytest.raises(DesignError):
        seed_exposure(g, d)
    exposure = seed_exposure(g, d, derive_stream(1))
    assert exposure.sum() == 1


def test_b2_effective_gating():
    dec = DecisionParams(b2=0.1, cnr_boost=4.6)

    def d(fmt, cnr):
        return Design(format=fmt, symbols=(0.5,), hook=0.5,
                      call_and_response=cnr, toxicity=0.0,
                      seed_fraction=0.1, seeding="top_matching")

    assert b2_effective(dec, d("theatre", True)) == pytest.approx(0.46)
    assert b2_effective(dec, d("song", True)) == pytest.approx(0.46)
    assert b2_effective(dec, d("meme", True)) == pytest.approx(0.1)
    assert b2_effective(dec, d("theatre", False)) == pytest.approx(0.1)


def test_transmission_prob_hand_logit():
    # one edge between identities 0.3 and 0.9: similarity 0.4
    params = TransmissionParams(l0=-1.0, l1=2.0, l2=1.0, l3=0.5, l4_tox=2.0)

    def prob(fmt, blocks, sender_affect):
        design = Design(format=fmt, symbols=(0.5,), hook=0.0,
                        call_and_response=False, toxicity=0.5,
                        seed_fraction=0.1, seeding="top_matching")
        graph = tiny_graph([(0, 1)], blocks, [[0.3], [0.9]], [0.5, 0.5])
        engine = CascadeEngine(graph, AffectParams(), DecisionParams(),
                               params, design)
        logit = engine.edge_base[0] + params.l1 * sender_affect
        return logistic(logit)

    # -1 + 0.4 + 0.5 (meme) + 2 * 0.5 (toxicity, same block) + 2 * 0.3
    assert prob("meme", [0, 0], 0.3) == pytest.approx([logistic(1.5)] * 2)
    # the logit collapses to exactly 0 for a mural across blocks
    assert prob("mural", [0, 1], 0.3) == pytest.approx([0.5, 0.5])


def test_run_invariants():
    graph, affect, decision, transmission, design = mid_setup()
    res = CascadeEngine(graph, affect, decision, transmission,
                        design).run(derive_stream(77, "invariants"))
    n = graph.n
    assert res.exposure.sum() == seed_count(n, design.seed_fraction)
    assert np.array_equal(res.active, res.activation_round >= 0)
    round0 = res.activation_round == 0
    assert not np.any(round0 & ~res.exposure)
    late = res.activation_round >= 1
    influence = res.influence_counts()
    assert np.all(influence[late] > 0)

    if res.attempts.shape[0]:
        pairs = res.attempts[:, :2]
        assert len({(int(s), int(t)) for s, t in pairs}) == pairs.shape[0]
        senders = res.attempts[:, 0]
        targets = res.attempts[:, 1]
        assert np.all(res.activation_round[senders] >= 0)
        tr = res.activation_round[targets]
        sr = res.activation_round[senders]
        assert np.all((tr == -1) | (tr > sr))
        fired_expected = res.attempts[res.attempts[:, 2] == 1][:, :2]
        assert np.array_equal(res.fired_edges, fired_expected)
        counts = np.bincount(res.fired_edges[:, 1], minlength=n)
        assert np.array_equal(influence, counts)


def test_run_is_reproducible_per_stream():
    graph, affect, decision, transmission, design = mid_setup()
    engine = CascadeEngine(graph, affect, decision, transmission, design)
    a = engine.run(derive_stream(5, "rep", 0))
    b = engine.run(derive_stream(5, "rep", 0))
    assert np.array_equal(a.active, b.active)
    assert np.array_equal(a.affect, b.affect)
    assert np.array_equal(a.attempts, b.attempts)
    c = engine.run(derive_stream(5, "rep", 1))
    assert not np.array_equal(a.affect, c.affect)


def test_max_rounds_truncation_is_monotone():
    graph, affect, decision, transmission, design = mid_setup()
    engine = CascadeEngine(graph, affect, decision, transmission, design)
    trunc = engine.run(derive_stream(6, "trunc"), max_rounds=1)
    full = engine.run(derive_stream(6, "trunc"))
    assert trunc.rounds_run == 1
    assert full.rounds_run >= trunc.rounds_run
    assert np.all(full.active[trunc.active])
    with pytest.raises(DesignError):
        engine.run(derive_stream(6, "trunc"), max_rounds=0)


def test_smoothed_uniform_cdf_shapes():
    lo, hi, s = 0.9, 1.3, 0.05
    xs = np.linspace(0.4, 1.8, 57)
    vals = [smoothed_uniform_cdf(x, lo, hi, s) for x in xs]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert smoothed_uniform_cdf(0.4, lo, hi, s) < 1e-12
    assert smoothed_uniform_cdf(1.8, lo, hi, s) > 1 - 1e-12
    assert smoothed_uniform_cdf(1.1, lo, hi, s) == pytest.approx(0.5)
    # sigma = 0 reduces to the plain uniform CDF
    assert smoothed_uniform_cdf(1.0, lo, hi, 0.0) == pytest.approx(0.25)
    assert smoothed_uniform_cdf(0.8, lo, hi, 0.0) == 0.0
    # degenerate window: gaussian around the point mass
    assert smoothed_uniform_cdf(1.0, 1.0, 1.0, 0.1) == pytest.approx(0.5)


def test_enumerator_pair_closed_form():
    name, graph, affect, decision, transmission, design = \
        enumeration_corpus()[0]
    assert name == "pair"
    dist, marginals = exact_cascade_distribution(
        graph, affect, decision, transmission, design)

    def H(x):
        return smoothed_uniform_cdf(x, decision.tau_lo, decision.tau_hi,
                                    decision.sigma_noise)

    p0 = H(1.1)           # exposed agent 0, v = 1.1
    q = float(logistic(-2.0 + 1.0 * 1.1 + 1.0 * 0.6))  # edge 0 -> 1
    p1 = H(0.45 + 0.8)    # v = 0.45 plus one boosted peer
    assert p0 == pytest.approx(0.5)
    expected = {
        frozenset(): 1.0 - p0,
        frozenset({0}): p0 * (1.0 - q * p1),
        frozenset({0, 1}): p0 * q * p1,
    }
    assert set(dist) == set(expected)
    for state, prob in expected.items():
        assert dist[state] == pytest.approx(prob, abs=1e-12)
    assert marginals[0] == pytest.approx(p0)
    assert marginals[1] == pytest.approx(p0 * q * p1)


def test_enumerator_mass_and_bounds():
    for name, graph, affect, decision, transmission, design in \
            enumeration_corpus() + [isolate3_fixture()]:
        dist, marginals = exact_cascade_distribution(
            graph, affect, decision, transmission, design)
        total = sum(dist.values())
        assert total == pytest.approx(1.0, abs=1e-9), name
        assert all(0.0 <= p <= 1.0 for p in dist.values()), name
        assert np.all(marginals >= 0) and np.all(marginals <= 1), name


def test_enumerator_isolated_agent_factorizes():
    name, graph, affect, decision, transmission, design = isolate3_fixture()
    dist, marginals = exact_cascade_distribution(
        graph, affect, decision, transmission, design)
    match = matching_vector(graph.identity, design)
    exposure = seed_exposure(graph, design, match=match)
    assert exposure.tolist() == [True, True, False]
    v = affect_vector(affect, exposure, match, graph.context, design)
    bound = decision.b0 + decision.b1 * v[0]
    expected = smoothed_uniform_cdf(bound, decision.tau_lo, decision.tau_hi,
                                    decision.sigma_noise)
    assert marginals[0] == pytest.approx(expected, abs=1e-12)


def test_enumerator_against_engine_on_pair():
    name, graph, affect, decision, transmission, design = \
        enumeration_corpus()[0]
    exact, exact_marg = exact_cascade_distribution(
        graph, affect, decision, transmission, design)
    reps = 20000
    mc, mc_marg = engine_mc_distribution(
        graph, affect, decision, transmission, design,
        derive_stream(4242, "pair-mc"), reps)
    assert set(mc) <= set(exact)
    for state, p in exact.items():
        assert mc.get(state, 0.0) == pytest.approx(p, abs=0.02)
    assert np.max(np.abs(mc_marg - exact_marg)) < 0.02


RESULT_ARRAYS = ("exposure", "affect", "active", "activation_round",
                 "fired_edges", "attempts")


def assert_same_result(a, b):
    for name in RESULT_ARRAYS:
        x, y = getattr(a, name), getattr(b, name)
        assert (x.dtype, x.shape) == (y.dtype, y.shape), name
        assert x.tobytes() == y.tobytes(), name
    assert a.rounds_run == b.rounds_run


def assert_batch_matches_run(engine, reps, max_rounds, tag):
    labels = [(17, tag, r) for r in range(reps)]
    alone = [derive_stream(*label) for label in labels]
    together = [derive_stream(*label) for label in labels]
    expected = [engine._run_sides(rng, max_rounds) for rng in alone]
    batch = engine.run_batch(together, max_rounds)
    assert len(batch) == len(engine.designs)
    for side, results in enumerate(batch):
        assert len(results) == reps
        for rep, result in enumerate(results):
            assert_same_result(result, expected[rep][side])
    # each generator is left where run() leaves it
    for a, b in zip(alone, together):
        assert a.random() == b.random()


def lockstep_engines():
    """(name, engine) over the oracle graphs, an edgeless graph, and
    ama-default and ama-fragmented at n=80 and n=400 with every seeding,
    no noise, and two designs, the same one twice included."""
    out = [(name, CascadeEngine(graph, affect, decision, transmission, design))
           for name, graph, affect, decision, transmission, design
           in enumeration_corpus() + [isolate3_fixture()]]
    edgeless = tiny_graph([], [0, 0, 1], [[0.2], [0.5], [0.9]], [0.5] * 3)
    lone = Design(format="meme", symbols=(0.5,), hook=0.5,
                  call_and_response=False, toxicity=0.0,
                  seed_fraction=0.67, seeding="random")
    out.append(("edgeless", CascadeEngine(edgeless, AffectParams(),
                                          DecisionParams(),
                                          TransmissionParams(), lone)))
    for preset in ("ama-default", "ama-fragmented"):
        scenario = preset_scenario(preset)
        for n in (80, 400):
            s = replace(scenario, graph=replace(scenario.graph, n=n))
            graph = scenario_graph(s, 11)
            params = (s.affect, s.decision, s.transmission)
            for seeding in ("random", "top_degree", "top_matching"):
                d = replace(s.design, seeding=seeding)
                rival = replace(d, format="meme",
                                symbols=tuple(1.0 - x for x in d.symbols))
                tag = f"{preset}-{n}-{seeding}"
                out.append((tag, CascadeEngine(graph, *params, d)))
                out.append((tag + "-rival", CascadeEngine(graph, *params,
                                                          d, rival)))
                out.append((tag + "-twice", CascadeEngine(graph, *params,
                                                          d, d)))
            quiet = (replace(s.affect, sigma_u=0.0),
                     replace(s.decision, sigma_noise=0.0), s.transmission)
            out.append((f"{preset}-{n}-quiet",
                        CascadeEngine(graph, *quiet, s.design)))
            out.append((f"{preset}-{n}-quiet-twice",
                        CascadeEngine(graph, *quiet, s.design, s.design)))
    return out


@pytest.mark.parametrize("max_rounds", [1, 2, None])
def test_run_batch_is_run_bit_for_bit(max_rounds):
    for name, engine in lockstep_engines():
        for reps in (1, 2, 5):
            assert_batch_matches_run(engine, reps, max_rounds, name)


def test_run_batch_reps_stop_at_their_own_round():
    scenario = preset_scenario("ama-default")
    graph = scenario_graph(scenario, 11)
    engine = CascadeEngine(graph, scenario.affect, scenario.decision,
                           scenario.transmission, scenario.design)
    rngs = [derive_stream(3, r) for r in range(12)]
    rounds = [res.rounds_run for res in engine.run_batch(rngs)[0]]
    assert len(set(rounds)) > 1  # the batch mixes cascade lengths
    assert rounds == [engine.run(derive_stream(3, r)).rounds_run
                      for r in range(12)]


def test_run_batch_on_one_generator_is_run():
    graph, affect, decision, transmission, design = mid_setup()
    engine = CascadeEngine(graph, affect, decision, transmission, design)
    (result,), = engine.run_batch([derive_stream(8, "one")])
    assert_same_result(result, engine.run(derive_stream(8, "one")))
