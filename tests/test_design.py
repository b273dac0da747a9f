"""Design grid enumeration, costing, and the constrained optimizer."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest

import mobcast.design
from mobcast.affect import DesignError
from mobcast.design import (
    OptimizeInfeasibleError,
    _mean_se,
    _replications,
    design_cost,
    enumerate_designs,
    evaluate_design,
    optimize,
    replicate_design,
    scenario_graph,
)
from mobcast.diffusion import CascadeEngine
from mobcast.estimate import build_panel
from mobcast.game import payoff_matrices, players_from_scenario
from mobcast.graph import GraphConfig
from mobcast.scenario import CostModel, DesignSpace, ama_default


def small_scenario():
    base = ama_default()
    return replace(
        base,
        name="small-opt",
        master_seed=314,
        reps=6,
        graph=GraphConfig(n=60, n_blocks=4, p_in=0.2, p_out=0.02,
                          identity_dim=1),
        space=DesignSpace(formats=("meme", "theatre"), hooks=(0.6,),
                          call_and_response=(False, True), toxicities=(0.0,),
                          seed_fractions=(0.1,), seedings=("top_matching",),
                          budget=12.0, toxicity_limit=0.5),
    )


def test_design_cost():
    costs = CostModel()
    base = ama_default().design
    meme = replace(base, format="meme")
    # 20 seeds at 0.25 each on n=400
    assert design_cost(costs, meme, 400) == pytest.approx(6.0)
    assert design_cost(costs, base, 400) == pytest.approx(9.0)
    assert design_cost(CostModel(per_seed=0.0), meme, 400) == pytest.approx(1.0)


def test_enumerate_designs_grid():
    scenario = ama_default()
    graph = scenario_graph(scenario)
    designs = enumerate_designs(scenario.space, graph)
    assert len(designs) == 32
    assert len(set(designs)) == 32
    # symbols pinned to the anchor block center of the identity line
    assert all(d.symbols == (0.0,) for d in designs)
    # nested-loop order: format outermost, toxicity inside call_and_response
    assert designs[0].format == "meme"
    assert (designs[0].toxicity, designs[1].toxicity) == (0.0, 0.6)
    assert (designs[0].call_and_response, designs[2].call_and_response) == \
        (False, True)
    assert designs[8].format == "theatre"


def test_enumerate_designs_rejects_bad_anchor():
    scenario = ama_default()
    graph = scenario_graph(scenario)
    with pytest.raises(DesignError):
        enumerate_designs(replace(scenario.space, symbol_block=7), graph)


def test_replicate_design_deterministic():
    scenario = small_scenario()
    d = scenario.design
    a = [r.score for r in replicate_design(scenario, d, 5, 99)]
    b = [r.score for r in replicate_design(scenario, d, 5, 99)]
    assert a == b
    c = [r.score for r in replicate_design(scenario, d, 5, 100)]
    assert a != c
    with pytest.raises(DesignError):
        replicate_design(scenario, d, 0, 99)


def test_evaluate_design_matches_replicates():
    scenario = small_scenario()
    reports = replicate_design(scenario, scenario.design, scenario.reps,
                               scenario.master_seed)
    scores = [r.score for r in reports]
    mean, se = evaluate_design(scenario, scenario.design)
    assert mean == pytest.approx(sum(scores) / len(scores))
    assert se > 0.0


def test_optimize_report_consistency():
    scenario = small_scenario()
    report = optimize(scenario)
    assert len(report.table) == 4
    feasible = [row for row in report.table if row.feasible]
    assert feasible, "grid should contain feasible designs"
    best = min(feasible, key=lambda r: (-r.mean_score, r.cost, r.design))
    assert report.best_design == best.design
    assert report.best_mean == best.mean_score
    assert report.best_cost == best.cost
    assert report.budget_slack == pytest.approx(report.budget - best.cost)
    assert report.toxicity_slack == pytest.approx(
        report.toxicity_limit - best.design.toxicity)
    # grid order is preserved in the table
    designs = enumerate_designs(scenario.space, scenario_graph(scenario))
    assert tuple(row.design for row in report.table) == designs


def test_optimize_infeasible_rows_are_blank():
    scenario = small_scenario()
    # theatre costs 4 + 6 seeds * 0.25 = 5.5; meme 2.5; budget between them
    report = optimize(scenario, budget=3.0)
    by_fmt = {row.design.format: row for row in report.table
              if not row.design.call_and_response}
    assert by_fmt["theatre"].feasible is False
    assert by_fmt["theatre"].mean_score is None
    assert by_fmt["meme"].feasible is True
    assert report.best_design.format == "meme"


def test_optimize_infeasible_errors_name_the_constraint():
    scenario = small_scenario()
    with pytest.raises(OptimizeInfeasibleError, match="budget"):
        optimize(scenario, budget=0.0)
    with pytest.raises(OptimizeInfeasibleError, match="toxicity_limit"):
        optimize(scenario, toxicity_limit=-1.0)


def test_optimize_parallel_matches_serial():
    scenario = small_scenario()
    serial = optimize(scenario, jobs=1)
    parallel = optimize(scenario, jobs=2)
    assert serial.table == parallel.table
    assert serial.best_design == parallel.best_design


def test_optimize_samples_the_graph_once(graph_samples):
    report = optimize(small_scenario(), jobs=1)
    assert sum(row.feasible for row in report.table) > 1
    assert len(graph_samples) == 1


# (budget, toxicity_limit) pairs for ama-default, where the grid's costs
# are meme 6, song 8, theatre 9 and mural 10 and toxicities are 0 or 0.6.
CONSTRAINTS = [(12.0, 1.0), (12.0, 0.2), (9.0, 1.0), (8.0, 0.6),
               (10.0, 0.5), (6.0, 0.0)]
INFEASIBLE = [(5.0, 1.0), (12.0, -0.5), (5.0, -0.5)]


@pytest.fixture(scope="module", params=[11, 101])
def scored_grid(request):
    """ama-default at a seed, with the whole grid scored (cap 1.0)."""
    scenario = replace(ama_default(), master_seed=request.param, reps=12)
    return scenario, optimize(scenario, toxicity_limit=1.0)


@pytest.mark.parametrize("budget, limit", CONSTRAINTS)
def test_best_under_equals_a_fresh_constrained_optimize(scored_grid, budget,
                                                        limit):
    scenario, full = scored_grid
    assert all(row.feasible for row in full.table)
    view = full.best_under(budget, limit)
    fresh = optimize(scenario, budget=budget, toxicity_limit=limit)
    assert view.best_design == fresh.best_design
    assert view.best_mean == fresh.best_mean
    assert view.best_se == fresh.best_se
    assert view.best_cost == fresh.best_cost
    assert view.budget_slack == fresh.budget_slack
    assert view.toxicity_slack == fresh.toxicity_slack
    assert [r for r in view.table if r.feasible] == \
        [r for r in fresh.table if r.feasible]
    assert view == fresh


@pytest.mark.parametrize("budget, limit", INFEASIBLE)
def test_best_under_infeasible_raises_what_optimize_raises(scored_grid,
                                                           budget, limit):
    scenario, full = scored_grid
    with pytest.raises(OptimizeInfeasibleError) as fresh:
        optimize(scenario, budget=budget, toxicity_limit=limit)
    with pytest.raises(OptimizeInfeasibleError) as view:
        full.best_under(budget, limit)
    assert str(view.value) == str(fresh.value)


def test_best_under_refuses_designs_it_never_scored():
    scenario = small_scenario()
    tight = optimize(scenario, budget=3.0)
    assert tight.best_under(3.0, 0.5) == tight
    with pytest.raises(DesignError, match="not scored"):
        tight.best_under(12.0, 0.5)


def test_mean_se():
    mean, se = _mean_se([2.0, 4.0, 6.0])
    assert mean == pytest.approx(4.0)
    assert se == pytest.approx(np.std([2.0, 4.0, 6.0], ddof=1) / math.sqrt(3))
    assert _mean_se([3.5]) == (3.5, 0.0)


def batching_scenario(**overrides):
    base = ama_default()
    return replace(base, name="batching", master_seed=99, reps=7,
                   graph=replace(base.graph, n=80), **overrides)


def under_batch_sizes(monkeypatch, n, reps, run):
    """run() with the replication batch at 1, 2, 3 and all `reps` reps of
    n agents each."""
    out = []
    for size in (1, 2, 3, reps):
        monkeypatch.setattr(mobcast.design, "_BATCH_AGENTS", size * n)
        out.append(run())
    return out


def test_replications_do_not_depend_on_batch_size(monkeypatch):
    scenario = batching_scenario()
    graph = scenario_graph(scenario)
    engine = CascadeEngine(graph, scenario.affect, scenario.decision,
                           scenario.transmission, scenario.design)
    labels = [(4, "batching", r) for r in range(7)]

    def run():
        return [(rng.random(), result, report) for rng, result, report in
                _replications(engine, labels, scenario.max_rounds,
                              scenario.impact)]

    first, *others = under_batch_sizes(monkeypatch, graph.n, 7, run)
    for other in others:
        assert len(other) == len(first) == 7
        for (draw_a, res_a, rep_a), (draw_b, res_b, rep_b) in zip(first, other):
            assert draw_a == draw_b
            assert rep_a == rep_b
            for name in ("exposure", "affect", "active", "activation_round",
                         "fired_edges", "attempts"):
                a, b = getattr(res_a, name), getattr(res_b, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            assert res_a.rounds_run == res_b.rounds_run


@pytest.mark.parametrize("regenerate", [False, True])
def test_callers_do_not_depend_on_batch_size(monkeypatch, regenerate):
    scenario = batching_scenario(regenerate_graph_per_rep=regenerate)
    left, right = players_from_scenario(scenario)
    theatre = replace(scenario.design, seeding="random")
    meme = replace(theatre, format="meme")

    def run():
        panel = build_panel(scenario, designs=(theatre, meme))
        return (replicate_design(scenario, scenario.design, 7, 99),
                payoff_matrices(scenario, left, right, 7, 99),
                [(v.dtype, v.shape, v.tobytes()) if isinstance(v, np.ndarray)
                 else v for v in (getattr(panel, f.name) for f in fields(panel))])

    first, *others = under_batch_sizes(monkeypatch, 80, 7, run)
    for reports, (pay_l, pay_r), panel in others:
        assert reports == first[0]
        assert pay_l.tobytes() == first[1][0].tobytes()
        assert pay_r.tobytes() == first[1][1].tobytes()
        assert panel == first[2]
