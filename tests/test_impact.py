"""Impact component arithmetic on hand-built cascade outcomes."""

from dataclasses import replace

import numpy as np
import pytest

from mobcast.affect import Design, DesignError, matching_vector
from mobcast.design import scenario_graph
from mobcast.diffusion import CascadeEngine, CascadeResult
from mobcast.impact import (
    ImpactReport,
    ImpactWeights,
    block_rates,
    cohesion,
    cross_block_sway,
    home_block,
    participation,
    polarization,
    score_cascade,
    score_cascades,
    sway,
    within_block_reach,
)
from mobcast.scenario import derive_stream, preset_scenario
from oracles import tiny_graph


def fixture_graph():
    # blocks: [0, 0, 1, 1]; square plus one diagonal
    return tiny_graph([(0, 1), (0, 2), (1, 2), (2, 3)], [0, 0, 1, 1],
                      [[0.2], [0.45], [0.6], [0.95]], [0.5] * 4)


def fixture_design():
    return Design(format="theatre", symbols=(0.4,), hook=0.5,
                  call_and_response=True, toxicity=0.0,
                  seed_fraction=0.25, seeding="top_matching")


def fixture_result(active, exposure):
    n = len(active)
    active = np.array(active, dtype=bool)
    return CascadeResult(
        exposure=np.array(exposure, dtype=bool),
        affect=np.zeros(n),
        active=active,
        activation_round=np.where(active, 0, -1).astype(np.int64),
        fired_edges=np.empty((0, 2), dtype=np.int64),
        attempts=np.empty((0, 3), dtype=np.int64),
        rounds_run=1,
    )


def test_participation():
    g = fixture_graph()
    assert participation(g, np.array([True, True, False, False])) == 0.5
    assert participation(g, np.zeros(4, dtype=bool)) == 0.0


def test_cohesion():
    g = fixture_graph()
    # actives {0, 1, 2} contain 3 of the 3 possible pairs as edges
    assert cohesion(g, np.array([True, True, True, False])) == pytest.approx(1.0)
    # actives {0, 3} share no edge
    assert cohesion(g, np.array([True, False, False, True])) == 0.0
    # below two actives the component is pinned to 0
    assert cohesion(g, np.array([True, False, False, False])) == 0.0


def test_sway_counts_undecided_only():
    # matchings with symbols at 0.4: [0.8, 0.95, 0.8, 0.45]
    match = np.array([0.8, 0.95, 0.8, 0.45])
    active = np.array([True, True, False, True])
    # delta 0.2: nobody within [0.3, 0.7] except 0.45
    assert sway(match, active, 0.2) == 1.0
    assert sway(match, np.zeros(4, bool), 0.2) == 0.0
    # delta 0.35: undecided {0.8, 0.8, 0.45}; two of three active
    assert sway(match, active, 0.35) == pytest.approx(2 / 3)
    # no undecided agents at all
    assert sway(match, active, 0.0) == 0.0


def test_polarization_and_block_rates():
    g = fixture_graph()
    active = np.array([True, True, True, False])
    rates = block_rates(g, active)
    assert rates == pytest.approx([1.0, 0.5])
    assert polarization(g, active) == pytest.approx(0.5)
    single = tiny_graph([(0, 1)], [0, 0], [[0.5], [0.5]], [0.5, 0.5])
    assert polarization(single, np.array([True, False])) == 0.0


def test_home_block():
    g = fixture_graph()
    assert home_block(g, np.array([False, False, True, True])) == 1
    # tie: one exposed agent per block, smallest id wins
    assert home_block(g, np.array([True, False, True, False])) == 0
    assert home_block(g, np.zeros(4, dtype=bool)) == 0


def test_within_block_reach_and_cross_block_sway():
    g = fixture_graph()
    active = np.array([True, False, True, True])
    assert within_block_reach(g, active, home=0) == pytest.approx(0.5)
    assert within_block_reach(g, active, home=1) == pytest.approx(1.0)
    match = np.array([0.45, 0.45, 0.55, 0.9])
    # undecided away from block 0: agents 2 (active) only; 3 is decided
    assert cross_block_sway(g, match, active, home=0, delta_u=0.2) == 1.0
    # away from block 1: agents 0 (active) and 1 (not)
    assert cross_block_sway(g, match, active, home=1, delta_u=0.2) == 0.5
    assert cross_block_sway(g, match, active, home=0, delta_u=0.0) == 0.0


def test_score_cascade_composite():
    g = fixture_graph()
    res = fixture_result(active=[True, True, True, False],
                         exposure=[True, False, False, False])
    w = ImpactWeights(w_participation=1.0, w_cohesion=0.2, w_sway=0.15,
                      kappa=0.02, delta_u=0.2)
    report = score_cascade(g, fixture_design(), res, w)
    # matchings: [0.8, 0.95, 0.8, 0.45]; undecided = {3}, inactive
    assert report.participation == pytest.approx(0.75)
    assert report.cohesion == pytest.approx(1.0)
    assert report.sway == 0.0
    assert report.polarization == pytest.approx(0.5)
    expected = 1.0 * 0.75 + 0.2 * 1.0 + 0.15 * 0.0 - 0.02 * 0.5
    assert report.score == pytest.approx(expected)
    assert report.home_block == 0
    assert report.within_block_reach == pytest.approx(1.0)
    # cross-block undecided = {3}, inactive
    assert report.cross_block_sway == 0.0


def test_score_cascade_default_weights():
    g = fixture_graph()
    res = fixture_result(active=[False] * 4, exposure=[True, False, False, False])
    report = score_cascade(g, fixture_design(), res)
    assert report.score == 0.0
    assert report.participation == 0.0


def test_weights_validation():
    with pytest.raises(DesignError):
        ImpactWeights(delta_u=-0.1).validate()


def component_report(graph, design, res, w=ImpactWeights()):
    """The report built from the component functions, one at a time."""
    match = matching_vector(graph.identity, design)
    part = participation(graph, res.active)
    coh = cohesion(graph, res.active)
    sw = sway(match, res.active, w.delta_u)
    pol = polarization(graph, res.active)
    home = home_block(graph, res.exposure)
    return ImpactReport(
        participation=part, cohesion=coh, sway=sw, polarization=pol,
        score=(w.w_participation * part + w.w_cohesion * coh
               + w.w_sway * sw - w.kappa * pol),
        home_block=home,
        within_block_reach=within_block_reach(graph, res.active, home),
        cross_block_sway=cross_block_sway(graph, match, res.active, home,
                                          w.delta_u))


def test_score_cascades_equals_score_cascade_per_result():
    g = fixture_graph()
    d = fixture_design()
    w = ImpactWeights(delta_u=0.35)
    outcomes = [([True, True, True, False], [True, False, False, False]),
                ([False] * 4, [False] * 4),
                ([True, False, False, True], [False, False, True, True]),
                ([True] * 4, [True, False, True, False])]
    results = [fixture_result(a, e) for a, e in outcomes]
    expected = [component_report(g, d, res, w) for res in results]
    assert score_cascades(g, d, results, w) == expected
    assert [score_cascade(g, d, res, w) for res in results] == expected
    single = tiny_graph([(0, 1)], [0, 0], [[0.5], [0.5]], [0.5, 0.5])
    pair = [fixture_result([True, False], [True, False]),
            fixture_result([True, True], [False, False])]
    assert score_cascades(single, d, pair) == \
        [component_report(single, d, res) for res in pair]


@pytest.mark.parametrize("preset, n", [("ama-default", 80),
                                       ("ama-default", 400),
                                       ("ama-fragmented", 400)])
def test_score_cascades_equals_score_cascade_on_cascades(preset, n):
    scenario = preset_scenario(preset)
    scenario = replace(scenario, graph=replace(scenario.graph, n=n))
    graph = scenario_graph(scenario, 11)
    for seeding in ("random", "top_matching"):
        design = replace(scenario.design, seeding=seeding)
        engine = CascadeEngine(graph, scenario.affect, scenario.decision,
                               scenario.transmission, design)
        results = [engine.run(derive_stream(5, seeding, r)) for r in range(24)]
        reports = score_cascades(graph, design, results, scenario.impact,
                                 match=engine.match)
        assert reports == [score_cascade(graph, design, res, scenario.impact)
                           for res in results]
        assert reports == [component_report(graph, design, res,
                                            scenario.impact)
                           for res in results]
        assert len({r.score for r in reports}) > 1
