"""Two-side contest: joint cascades, payoffs, equilibrium search."""

from dataclasses import replace

import numpy as np
import pytest

from mobcast.affect import AffectParams, Design, DesignError
from mobcast.diffusion import CascadeEngine, CascadeResult, DecisionParams, TransmissionParams
from mobcast.game import (
    JointCascadeEngine,
    JointCascadeResult,
    PlayerConfig,
    best_response_dynamics,
    payoff,
    payoff_matrices,
    players_from_scenario,
)
from mobcast.graph import GraphConfig
from mobcast.scenario import ama_default, derive_stream
from oracles import tiny_graph


def contest_scenario():
    base = ama_default()
    return replace(
        base,
        name="small-game",
        master_seed=2718,
        reps=5,
        graph=GraphConfig(n=60, n_blocks=4, p_in=0.25, p_out=0.02,
                          identity_dim=1),
    )


def make_design(**overrides):
    base = dict(format="theatre", symbols=(0.0,), hook=0.6,
                call_and_response=True, toxicity=0.0,
                seed_fraction=0.1, seeding="top_matching")
    base.update(overrides)
    return Design(**base)


def test_players_from_scenario_anchors():
    left, right = players_from_scenario(ama_default())
    assert left.side == "L" and right.side == "R"
    assert left.anchor_blocks == (0,) and right.anchor_blocks == (3,)
    assert [d.format for d in left.strategy_set] == ["theatre", "meme"]
    assert all(d.symbols == (0.0,) for d in left.strategy_set)
    assert all(d.symbols == (1.0,) for d in right.strategy_set)
    # payoff weights mirror the game section
    g = ama_default().game
    assert left.weights == (g.w_cohesion, g.w_participation, g.w_sway)


def test_player_validation():
    d = make_design()
    with pytest.raises(DesignError):
        PlayerConfig("M", (0.2, 1.0, 0.15), (d,), (0,)).validate()
    with pytest.raises(DesignError):
        PlayerConfig("L", (0.2, 1.0, 0.15), (), (0,)).validate()
    with pytest.raises(DesignError):
        PlayerConfig("L", (0.2, -1.0, 0.15), (d,), (0,)).validate()


def dummy_side(active_mask):
    n = len(active_mask)
    active = np.array(active_mask, dtype=bool)
    return CascadeResult(
        exposure=np.zeros(n, dtype=bool), affect=np.zeros(n), active=active,
        activation_round=np.where(active, 0, -1).astype(np.int64),
        fired_edges=np.empty((0, 2), dtype=np.int64),
        attempts=np.empty((0, 3), dtype=np.int64), rounds_run=1)


def test_payoff_hand_formula():
    g = tiny_graph([(0, 1), (1, 2), (2, 3)], [0, 0, 1, 1],
                   [[0.2], [0.3], [0.7], [0.9]], [0.5] * 4)
    adoption = np.array([1, 1, 2, 0], dtype=np.int8)
    joint = JointCascadeResult(
        adoption=adoption,
        left=dummy_side([True, True, False, False]),
        right=dummy_side([False, False, True, False]),
        match_left=np.array([0.45, 0.9, 0.6, 0.4]),
        match_right=np.array([0.5, 0.5, 0.5, 0.5]),
        polarization=0.25,
        rounds_run=2,
    )
    left = PlayerConfig("L", (0.2, 1.0, 0.15), (make_design(),), (0,))
    # cohesion over {0, 1}: the one possible pair is an edge -> 1.0
    # participation 2/4; undecided under delta 0.2 = {0, 2, 3}, one adopted
    got = payoff(left, g, joint, kappa=0.02, delta_u=0.2)
    assert got == pytest.approx(0.2 * 1.0 + 1.0 * 0.5 + 0.15 / 3 - 0.02 * 0.25)
    right = PlayerConfig("R", (0.2, 1.0, 0.15), (make_design(),), (3,))
    # right adopter set {2}: cohesion floors to 0, all four undecided
    got_r = payoff(right, g, joint, kappa=0.02, delta_u=0.2)
    assert got_r == pytest.approx(0.2 * 0.0 + 1.0 * 0.25 + 0.15 * 0.25
                                  - 0.02 * 0.25)


def test_joint_reduces_to_single_when_right_sits_out():
    scenario = contest_scenario()
    graph = tiny_graph([(0, 1), (1, 2), (2, 3), (0, 2)], [0, 0, 1, 1],
                       [[0.05], [0.1], [0.8], [0.95]], [0.8, 0.7, 0.6, 0.5])
    affect = replace(AffectParams(), sigma_u=0.0)
    decision = DecisionParams()
    transmission = TransmissionParams(l0=-1.0)
    left = make_design(seed_fraction=0.5)
    right = make_design(symbols=(1.0,), seed_fraction=0.0)

    joint_engine = JointCascadeEngine(graph, affect, decision, transmission,
                                      left, right)
    single_engine = CascadeEngine(graph, affect, decision, transmission, left)
    for r in range(40):
        joint = joint_engine.run(derive_stream(1234, r))
        single = single_engine.run(derive_stream(1234, r))
        assert np.array_equal(joint.left.active, single.active)
        assert np.array_equal(joint.left.activation_round,
                              single.activation_round)
        assert np.array_equal(joint.left.attempts, single.attempts)
        assert np.array_equal(joint.left.fired_edges, single.fired_edges)
        assert not joint.right.active.any()
        assert np.array_equal(joint.adoption == 1, single.active)


def test_adoption_is_exclusive_and_consistent():
    scenario = contest_scenario()
    left_p, right_p = players_from_scenario(scenario)
    from mobcast.design import scenario_graph
    graph = scenario_graph(scenario)
    engine = JointCascadeEngine(graph, scenario.affect, scenario.decision,
                                scenario.transmission,
                                left_p.strategy_set[0],
                                right_p.strategy_set[0])
    joint = engine.run(derive_stream(scenario.master_seed, 0))
    assert set(np.unique(joint.adoption)) <= {0, 1, 2}
    assert np.array_equal(joint.left.active, joint.adoption == 1)
    assert np.array_equal(joint.right.active, joint.adoption == 2)
    assert not np.any(joint.left.active & joint.right.active)
    assert 0.0 <= joint.polarization <= 1.0


def test_payoff_matrices_shape_and_determinism():
    scenario = contest_scenario()
    left_p, right_p = players_from_scenario(scenario)
    a_l, a_r = payoff_matrices(scenario, left_p, right_p, reps=4,
                               master_seed=55)
    b_l, b_r = payoff_matrices(scenario, left_p, right_p, reps=4,
                               master_seed=55)
    assert a_l.shape == (2, 2) and a_r.shape == (2, 2)
    assert np.array_equal(a_l, b_l) and np.array_equal(a_r, b_r)


def test_best_response_report_consistency():
    scenario = contest_scenario()
    report = best_response_dynamics(scenario, reps=5)
    assert report.trajectory[0] == (0, 0)
    i, j = report.profile_index
    assert report.profile == (report.strategies_left[i],
                              report.strategies_right[j])
    pay_l = np.array(report.payoff_left)
    pay_r = np.array(report.payoff_right)
    assert pay_l.shape == (len(report.strategies_left),
                           len(report.strategies_right))
    if report.kind == "pure_nash":
        assert np.all(pay_l[i, j] >= pay_l[:, j])
        assert np.all(pay_r[i, j] >= pay_r[i, :])


def test_best_response_rejects_bad_iters():
    with pytest.raises(DesignError):
        best_response_dynamics(contest_scenario(), reps=2, max_iters=0)


def test_payoff_matrices_samples_the_graph_once(graph_samples):
    scenario = contest_scenario()
    left_p, right_p = players_from_scenario(scenario)
    pay_l, _ = payoff_matrices(scenario, left_p, right_p, reps=2,
                               master_seed=55, jobs=1)
    assert pay_l.size > 1
    assert len(graph_samples) == 1


def test_joint_max_rounds_must_be_positive():
    scenario = contest_scenario()
    left_p, right_p = players_from_scenario(scenario)
    from mobcast.design import scenario_graph
    engine = JointCascadeEngine(scenario_graph(scenario), scenario.affect,
                                scenario.decision, scenario.transmission,
                                left_p.strategy_set[0],
                                right_p.strategy_set[0])
    with pytest.raises(DesignError):
        engine.run(derive_stream(scenario.master_seed, 0), max_rounds=0)
