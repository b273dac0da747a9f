"""Estimation layer: linear algebra, factor scores, logistic ML, panels.

The heavier recovery and inference checks (coverage, power, size over
meta-replications) live in the acceptance suite; these tests pin the
numerics on small synthetic data.
"""

from dataclasses import fields, replace

import numpy as np
import pytest

import mobcast.artifacts
from mobcast.affect import Design
from mobcast.diffusion import seed_count
from mobcast.estimate import (
    AFFECT_TERMS,
    EstimateError,
    FitResult,
    PanelData,
    activation_matrix,
    affect_design_matrix,
    build_panel,
    factor_scores,
    fit_activation,
    fit_affect_ols,
    fit_edge_transmission,
    fit_logistic,
    implied_affect_coefficients,
    invert_spd,
    read_panel_csv,
    solve_linear,
    wald_p_value,
    write_panel_csv,
)
from mobcast.graph import GraphConfig
from mobcast.scenario import ama_default, derive_stream
from mobcast.stats import logistic
from oracles import row_panel_csv


def panel_scenario(**graph_overrides):
    base = ama_default()
    graph = dict(n=300, n_blocks=4, p_in=0.06, p_out=0.01, identity_dim=1,
                 context="custom", context_mean=0.5, context_spread=0.5)
    graph.update(graph_overrides)
    return replace(
        base,
        name="panel-fixture",
        master_seed=808,
        reps=2,
        graph=GraphConfig(**graph),
        affect=replace(base.affect, sigma_u=0.25),
        design=replace(base.design, seeding="random", seed_fraction=0.5),
    )


def test_solve_linear_hand_system():
    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    b = np.array([5.0, 10.0])
    x = solve_linear(a, b)
    assert x == pytest.approx([1.0, 3.0])
    # multi-column right-hand side
    eye = invert_spd(a)
    assert a @ eye == pytest.approx(np.eye(2), abs=1e-12)


def test_solve_linear_rejects_collinear():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(EstimateError, match="collinear"):
        solve_linear(a, np.array([1.0, 2.0]))
    with pytest.raises(EstimateError):
        solve_linear(np.ones((2, 3)), np.ones(2))


def test_ols_noiseless_recovery():
    rng = derive_stream(17, "ols")
    n = 200
    exposure = (rng.random(n) < 0.5).astype(float)
    matching = rng.random(n)
    context = rng.random(n)
    beta = np.array([0.3, 0.25, 1.1, 0.2, 0.15, 0.35])
    y = affect_design_matrix(exposure, matching, context) @ beta
    fit = fit_affect_ols(y, exposure, matching, context)
    assert fit.names == AFFECT_TERMS
    assert np.asarray(fit.estimates) == pytest.approx(beta, abs=1e-10)
    assert fit.residual_variance == pytest.approx(0.0, abs=1e-18)
    # residuals orthogonal to every regressor
    x = affect_design_matrix(exposure, matching, context)
    resid = y - x @ np.asarray(fit.estimates)
    assert np.max(np.abs(x.T @ resid)) < 1e-8


def test_ols_needs_enough_rows():
    with pytest.raises(EstimateError):
        fit_affect_ols(np.zeros(5), np.zeros(5), np.zeros(5), np.zeros(5))


def test_logistic_recovers_synthetic_coefficients():
    rng = derive_stream(23, "logit")
    n = 6000
    x = np.column_stack([np.ones(n), rng.normal(size=n), rng.normal(size=n)])
    beta = np.array([-0.4, 1.2, -0.7])
    y = (rng.random(n) < logistic(x @ beta)).astype(float)
    fit = fit_logistic(y, x, names=("intercept", "slope_a", "slope_b"))
    assert fit.converged
    assert np.asarray(fit.estimates) == pytest.approx(beta, abs=0.12)
    # score vanishes at the reported optimum
    prob = logistic(x @ np.asarray(fit.estimates))
    assert np.max(np.abs(x.T @ (y - prob))) < 1e-6
    # and the Wald test flags the real slope
    assert wald_p_value(fit, "slope_a") < 1e-6


def test_logistic_input_checks():
    x = np.ones((4, 1))
    with pytest.raises(EstimateError):
        fit_logistic(np.ones(4), x)
    with pytest.raises(EstimateError):
        fit_logistic(np.zeros(4), x)
    with pytest.raises(EstimateError):
        fit_logistic(np.array([0.0, 1.0]), np.ones((3, 1)))


def test_wald_p_value_conventions():
    def fr(est, se):
        return FitResult(estimates=(est,), standard_errors=(se,),
                         names=("b",), converged=True, iterations=1, n_obs=10)

    assert wald_p_value(fr(0.5, 0.0), "b") == 0.0
    assert wald_p_value(fr(0.0, 0.0), "b") == 1.0
    assert wald_p_value(fr(1.0, 1.0), "b") == pytest.approx(0.31731050786291415)


def test_factor_scores_track_latent():
    rng = derive_stream(29, "factor")
    n = 800
    v = rng.normal(size=n)
    loadings = np.array([1.0, 0.8, 0.6, 0.9])
    items = v[:, None] * loadings[None, :] + rng.normal(0.0, 0.3, size=(n, 4))
    scores, est_loadings, converged, iterations = factor_scores(items)
    assert converged and iterations >= 1
    corr = np.corrcoef(scores, v)[0, 1]
    assert corr > 0.95
    assert est_loadings.mean() > 0


def test_factor_scores_degenerate_inputs():
    with pytest.raises(EstimateError):
        factor_scores(np.ones((10, 1)))
    with pytest.raises(EstimateError):
        factor_scores(np.ones((2, 4)))
    dead = derive_stream(1).normal(size=(20, 3))
    dead[:, 1] = 7.0
    with pytest.raises(EstimateError, match="zero variance"):
        factor_scores(dead)


def test_implied_affect_coefficients():
    s = ama_default()
    got = implied_affect_coefficients(s, s.design)
    assert got == pytest.approx((0.0, 0.2 * 1.6, 1.05, 0.15, 0.15, 0.3))


def test_build_panel_shapes_and_consistency():
    scenario = panel_scenario()
    meme = replace(scenario.design, format="meme", call_and_response=False)
    panel = build_panel(scenario, designs=(scenario.design, meme))
    n = scenario.graph.n
    assert panel.n_agent_rows() == 2 * scenario.reps * n
    assert panel.designs == (scenario.design, meme)
    # a positive decision requires exposure or at least one influence hit
    active = panel.decision == 1
    assert np.all((panel.exposure[active] == 1) | (panel.influence[active] > 0))
    # each (arm, rep) slice seeds the configured share of agents
    expected_seeds = seed_count(n, scenario.design.seed_fraction)
    for arm in (0, 1):
        for rep in range(scenario.reps):
            sel = (panel.arm == arm) & (panel.rep == rep)
            assert panel.exposure[sel].sum() == expected_seeds
    # edge rows carry the right format flag per arm
    assert np.all(panel.meme[panel.edge_arm == 0] == 0)
    assert np.all(panel.meme[panel.edge_arm == 1] == 1)
    assert set(np.unique(panel.success)) <= {0, 1}
    assert panel.items.shape == (panel.n_agent_rows(),
                                 len(scenario.measurement.loadings))


def test_build_panel_is_deterministic():
    scenario = panel_scenario(n=120)
    a = build_panel(scenario)
    b = build_panel(scenario)
    assert np.array_equal(a.affect, b.affect)
    assert np.array_equal(a.decision, b.decision)
    assert np.array_equal(a.success, b.success)
    c = build_panel(scenario, master_seed=scenario.master_seed + 1)
    assert not np.array_equal(a.affect, c.affect)


def test_activation_matrix_filters_to_opportunities():
    scenario = panel_scenario(n=120)
    panel = build_panel(scenario)
    y, x = activation_matrix(panel, mode="oracle")
    keep = (panel.exposure == 1) | (panel.influence > 0)
    assert y.shape[0] == int(keep.sum()) == x.shape[0]
    assert np.array_equal(x[:, 0], np.ones(y.shape[0]))
    y0, x0 = activation_matrix(panel, mode="oracle", arm=0)
    assert y0.shape[0] <= y.shape[0]
    with pytest.raises(EstimateError):
        activation_matrix(panel, mode="psychic")


def test_panel_fits_recover_generator_oracle_mode():
    scenario = panel_scenario()
    meme = replace(scenario.design, format="meme", call_and_response=False)
    panel = build_panel(scenario, designs=(scenario.design, meme), reps=3)

    truth = implied_affect_coefficients(scenario, scenario.design)
    fit = fit_affect_ols(panel.affect[panel.arm == 0],
                         panel.exposure[panel.arm == 0],
                         panel.matching[panel.arm == 0],
                         panel.context[panel.arm == 0])
    assert np.asarray(fit.estimates) == pytest.approx(truth, abs=0.1)

    act = fit_activation(panel, mode="oracle")
    assert act.converged
    assert act.coefficient("affect")[0] > 0
    assert wald_p_value(act, "affect") < 0.01

    edge = fit_edge_transmission(panel)
    assert edge.converged
    est, _ = edge.coefficient("meme")
    assert est > 0
    assert wald_p_value(edge, "meme") < 0.01


def test_measurement_mode_runs_on_observed_items():
    scenario = panel_scenario(n=150)
    panel = build_panel(scenario)
    act = fit_activation(panel, mode="measurement")
    # factor scores are centered, so only the sign and inference survive;
    # the affect slope stays positive and clearly nonzero
    assert act.coefficient("affect")[0] > 0


def test_panel_csv_round_trip(tmp_path):
    scenario = panel_scenario(n=80)
    panel = build_panel(scenario)
    ap = str(tmp_path / "agents.csv")
    ep = str(tmp_path / "edges.csv")
    write_panel_csv(panel, ap, ep, meta="scenario=panel-fixture")
    back = read_panel_csv(ap, ep)
    names = [f.name for f in fields(PanelData) if f.name != "designs"]
    assert len(names) == 19
    for name in names:
        want, got = getattr(panel, name), getattr(back, name)
        assert got.dtype == want.dtype, name
        assert got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    with open(ap) as fh:
        first = fh.readline()
    assert first.startswith("# scenario=panel-fixture")


def synthetic_panel(rows=23, edges=31, n_items=3, seed=5):
    rng = np.random.default_rng(seed)

    def ints(k, hi):
        return rng.integers(0, hi, size=k, dtype=np.int64)

    return PanelData(
        arm=ints(rows, 2), rep=ints(rows, 1000), agent=ints(rows, 10**6),
        items=rng.normal(size=(rows, n_items)), exposure=ints(rows, 2),
        affect=rng.normal(size=rows) * 1e3, matching=rng.random(rows),
        context=rng.random(rows), decision=ints(rows, 2),
        influence=ints(rows, 7), edge_arm=ints(edges, 2),
        edge_rep=ints(edges, 1000), sender=ints(edges, 10**6),
        target=ints(edges, 10**6), sender_affect=rng.normal(size=edges),
        similarity=rng.random(edges) * 1e-7, meme=ints(edges, 2),
        same_block=ints(edges, 2), success=ints(edges, 2))


def assert_same_files_as_row_oracle(tmp_path, panel, meta):
    new = (str(tmp_path / "a.csv"), str(tmp_path / "e.csv"))
    old = (str(tmp_path / "a_row.csv"), str(tmp_path / "e_row.csv"))
    write_panel_csv(panel, *new, meta=meta)
    row_panel_csv(panel, *old, meta=meta)
    for got, want in zip(new, old):
        with open(got, "rb") as g, open(want, "rb") as w:
            assert g.read() == w.read(), got


@pytest.mark.parametrize("meta", ["scenario=panel-fixture master_seed=808",
                                  None], ids=["meta0", "None"])
@pytest.mark.parametrize("chunk", [7, None])
def test_panel_writer_matches_row_oracle(tmp_path, monkeypatch, meta, chunk):
    panel = build_panel(panel_scenario(n=80))
    if chunk is not None:
        monkeypatch.setattr(mobcast.artifacts, "CSV_CHUNK", chunk)
        # chunks break mid-panel in both files
        assert panel.n_agent_rows() % chunk and panel.n_edge_rows() % chunk
        assert panel.n_edge_rows() > chunk
    assert_same_files_as_row_oracle(tmp_path, panel, meta)


@pytest.mark.parametrize("case", ["no_edges", "one_item", "special_floats"])
def test_panel_writer_edge_cases_match_row_oracle(tmp_path, monkeypatch,
                                                  case):
    monkeypatch.setattr(mobcast.artifacts, "CSV_CHUNK", 5)
    if case == "no_edges":
        panel = synthetic_panel(edges=0)
    elif case == "one_item":
        panel = synthetic_panel(n_items=1)
    else:
        panel = synthetic_panel()
        special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e300,
                   -1e-300, 1e16, 0.1]
        panel.affect[:len(special)] = special
        panel.items[-len(special):, 1] = special
        panel.sender_affect[3:3 + len(special)] = special
    assert_same_files_as_row_oracle(tmp_path, panel, "scenario=x")
