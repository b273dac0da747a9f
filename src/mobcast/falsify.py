"""Seeded falsification experiments: five null hypotheses, one harness.

Each test runs arms of Monte-Carlo replications with independently
derived streams, computes one or more component statistics, applies a
Holm correction across components, and rejects when the smallest
adjusted p-value is below alpha. A companion calibration mode re-runs a
test under its null generator many times and reports the empirical
rejection rate with a binomial confidence interval.

Null generators are explicit parameter settings (documented per test in
null_settings) chosen so the tested contrasts are exactly inert: arms
become identical generators, or the coefficient under test is truly
zero. Arms never share streams; common random numbers would make the
two-sample tests degenerate instead of calibrated.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .affect import Design, DesignError
from .design import _replications, optimize, scenario_graph
from .diffusion import CascadeEngine
from .estimate import fit_logistic, wald_p_value
from .graph import (CONTEXT_PRESETS, SocialGraph, generate_network,
                    homophily_index, identity_similarity)
from .scenario import DesignSpace, Scenario, derive_stream
from .stats import (holm_adjust, mean_sd, slope_test, welch_t_test,
                    wilson_interval)

__all__ = [
    "HYPOTHESES",
    "MIN_REPS",
    "HypothesisSpec",
    "TestReport",
    "CalibrationReport",
    "null_settings",
    "null_scenario",
    "run_test",
    "test_h0_context",
    "test_h0_affect",
    "test_h0_format",
    "test_h0_network",
    "test_h0_ethics",
    "calibrate",
    "calibration_scenario",
]

HYPOTHESES = ("H0_context", "H0_affect", "H0_format", "H0_network", "H0_ethics")

# fewest replications per arm a test accepts
MIN_REPS = 30


@dataclass(frozen=True)
class HypothesisSpec:
    """One falsification experiment.

    null=True switches the generator to the test's null form (see
    null_settings). reps is the per-arm replication count; the network
    test reads its homophily grid from ratios; the ethics test optimizes
    over `space` (scenario default when None) with the constrained run
    capped at constrained_limit.
    """

    id: str
    scenario: Scenario
    null: bool = False
    reps: int = 120
    alpha: float = 0.05
    master_seed: int | None = None
    ratios: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
    space: DesignSpace | None = None
    constrained_limit: float = 0.2

    def validate(self) -> None:
        if self.id not in HYPOTHESES:
            raise DesignError(f"unknown hypothesis id {self.id!r}")
        if self.reps < MIN_REPS:
            raise DesignError(f"hypothesis reps must be >= {MIN_REPS}")
        if not 0.0 < self.alpha < 1.0:
            raise DesignError("alpha must lie in (0, 1)")

    def seed(self) -> int:
        return self.scenario.master_seed if self.master_seed is None \
            else self.master_seed


@dataclass
class Component:
    name: str
    statistic: float
    p_value: float
    p_adjusted: float


@dataclass
class TestReport:
    id: str
    statistic: float
    p_value: float
    alpha: float
    reject: bool
    components: list[Component]
    arms: dict[str, dict[str, float]]
    seeds: tuple[int, ...]
    details: dict


@dataclass
class CalibrationReport:
    id: str
    meta_reps: int
    rejections: int
    rate: float
    ci_low: float
    ci_high: float
    alpha: float


def null_settings(hypothesis_id: str) -> dict[str, float]:
    """Generator values imposed under each null. The context null needs
    no coefficient change: its arms are simply made identical."""
    return {
        "H0_context": {},
        "H0_affect": {"a1": 0.0, "a4": 0.0, "a5": 0.0,
                      "b1": 0.0, "b2": 0.0, "b0": 1.05},
        "H0_format": {"l3": 0.0, "cnr_boost": 1.0},
        # l2/l4 kill the similarity channel; b2 and l1 remove the social
        # feedbacks; a flat firing rate plus an affect-free, mid-window
        # activation level (b1 = 0, b0 inside the tau window) make reach
        # genuinely homophily-invariant, not just first-order invariant.
        # Without the b1 cut, block-wise activation tiers let chains
        # survive longer inside high-activation blocks, which leaks a
        # second-order slope into the null.
        "H0_network": {"l2": 0.0, "l4_tox": 0.0, "l1": 0.0, "l0": -3.0,
                       "b2": 0.0, "b1": 0.0, "b0": 1.05},
        "H0_ethics": {"l4_tox": 0.0},
    }[hypothesis_id]


def null_scenario(spec: HypothesisSpec) -> Scenario:
    """The spec's scenario with the null generator settings applied."""
    s = spec.scenario
    if not spec.null:
        return s
    values = null_settings(spec.id)
    affect = {k: v for k, v in values.items() if k in ("a1", "a4", "a5")}
    decision = {k: v for k, v in values.items()
                if k in ("b0", "b1", "b2", "cnr_boost")}
    transmission = {k: v for k, v in values.items()
                    if k in ("l0", "l1", "l2", "l3", "l4_tox")}
    if affect:
        s = replace(s, affect=replace(s.affect, **affect))
    if decision:
        s = replace(s, decision=replace(s.decision, **decision))
    if transmission:
        s = replace(s, transmission=replace(s.transmission, **transmission))
    return s


def _context_bounds(config) -> tuple[float, float]:
    if config.context == "custom":
        return (config.context_mean - config.context_spread,
                config.context_mean + config.context_spread)
    return CONTEXT_PRESETS[config.context]


def _arm_runs(scenario: Scenario, graph: SocialGraph, design: Design,
              reps: int, seed: int, *labels):
    """Replications with per-arm streams (seed, "falsify", *labels, r);
    returns cascade results and impact reports."""
    engine = CascadeEngine(graph, scenario.affect, scenario.decision,
                           scenario.transmission, design)
    runs = list(_replications(engine, [(seed, "falsify", *labels, r)
                                       for r in range(reps)],
                              scenario.max_rounds, scenario.impact))
    return [res for _, res, _ in runs], [rep for _, _, rep in runs]


def _summary(reports) -> dict[str, float]:
    fields = ("score", "participation", "cohesion", "sway", "polarization",
              "within_block_reach", "cross_block_sway")
    out = {"reps": float(len(reports))}
    for f in fields:
        out["mean_" + f], out["sd_" + f] = mean_sd(
            [getattr(rep, f) for rep in reports])
    return out


def _assemble(spec: HypothesisSpec, components: list[Component],
              arms: dict[str, dict[str, float]], details: dict) -> TestReport:
    adjusted = holm_adjust([c.p_value for c in components])
    for comp, adj in zip(components, adjusted):
        comp.p_adjusted = adj
    best = min(range(len(components)), key=lambda i: components[i].p_adjusted)
    p_value = components[best].p_adjusted
    return TestReport(
        id=spec.id,
        statistic=components[best].statistic,
        p_value=p_value,
        alpha=spec.alpha,
        reject=p_value < spec.alpha,
        components=components,
        arms=arms,
        seeds=(spec.seed(),),
        details=details,
    )


def test_h0_context(spec: HypothesisSpec) -> TestReport:
    """Same design on community vs fragmented context; Welch on score.

    Both arms share one topology and identity draw, so the contrast is
    carried by the context values alone. Under the null the second arm
    reuses the first arm's context values unchanged.
    """
    spec.validate()
    scenario = null_scenario(spec)
    seed = spec.seed()
    graph = generate_network(scenario.graph,
                             derive_stream(seed, "falsify", spec.id, "graph"))

    if spec.null:
        graph_b = graph
    else:
        frag = replace(scenario.graph, context="fragmented")
        lo, hi = _context_bounds(frag)
        rng = derive_stream(seed, "falsify", spec.id, "context-b")
        context_b = np.clip(rng.uniform(lo, hi, size=graph.n), 0.0, 1.0)
        graph_b = replace(graph, context=context_b)

    _, rep_a = _arm_runs(scenario, graph, scenario.design, spec.reps, seed,
                         spec.id, "community")
    _, rep_b = _arm_runs(scenario, graph_b, scenario.design, spec.reps, seed,
                         spec.id, "fragmented")
    welch = welch_t_test([r.score for r in rep_a], [r.score for r in rep_b])
    components = [Component("welch_score", welch.statistic, welch.p_value, 1.0)]
    arms = {"community": _summary(rep_a), "fragmented": _summary(rep_b)}
    return _assemble(spec, components, arms,
                     {"null": spec.null, "null_settings": null_settings(spec.id)})


def test_h0_affect(spec: HypothesisSpec) -> TestReport:
    """Affect-rich design vs informational arm (exposure channels cut),
    Welch on score plus a Wald test on the activation model's affect
    coefficient fitted to the rich arm."""
    spec.validate()
    scenario = null_scenario(spec)
    seed = spec.seed()
    graph = generate_network(scenario.graph,
                             derive_stream(seed, "falsify", spec.id, "graph"))

    info = replace(scenario, affect=replace(scenario.affect,
                                            a1=0.0, a4=0.0, a5=0.0))
    res_a, rep_a = _arm_runs(scenario, graph, scenario.design, spec.reps,
                             seed, spec.id, "rich")
    _, rep_b = _arm_runs(info, graph, info.design, spec.reps,
                         seed, spec.id, "informational")

    welch = welch_t_test([r.score for r in rep_a], [r.score for r in rep_b])

    rows_y, rows_v, rows_k = [], [], []
    for res in res_a:
        counts = res.influence_counts()
        keep = res.exposure | (counts > 0)
        rows_y.append(res.active[keep].astype(float))
        rows_v.append(res.affect[keep])
        rows_k.append(counts[keep].astype(float))
    y = np.concatenate(rows_y)
    v = np.concatenate(rows_v)
    k = np.concatenate(rows_k)
    x = np.column_stack([np.ones_like(v), v, k])
    fit = fit_logistic(y, x, names=("intercept", "affect", "peer_count"))
    est, se = fit.coefficient("affect")
    wald_stat = est / se if se > 0 else 0.0
    wald_p = wald_p_value(fit, "affect")

    components = [
        Component("welch_score", welch.statistic, welch.p_value, 1.0),
        Component("wald_affect", wald_stat, wald_p, 1.0),
    ]
    arms = {"rich": _summary(rep_a), "informational": _summary(rep_b)}
    details = {"null": spec.null, "null_settings": null_settings(spec.id),
               "affect_coefficient": est, "affect_se": se,
               "fit_converged": fit.converged}
    return _assemble(spec, components, arms, details)


def test_h0_format(spec: HypothesisSpec) -> TestReport:
    """Meme vs theatre arms: Welch tests on participation, cohesion and
    polarization plus a Wald test on the per-edge format coefficient,
    Holm-corrected together."""
    spec.validate()
    scenario = null_scenario(spec)
    seed = spec.seed()
    graph = generate_network(scenario.graph,
                             derive_stream(seed, "falsify", spec.id, "graph"))

    meme = replace(scenario.design, format="meme")
    theatre = replace(scenario.design, format="theatre")
    res_a, rep_a = _arm_runs(scenario, graph, meme, spec.reps, seed,
                             spec.id, "meme")
    res_b, rep_b = _arm_runs(scenario, graph, theatre, spec.reps, seed,
                             spec.id, "theatre")

    components = []
    for name in ("participation", "cohesion", "polarization"):
        w = welch_t_test([getattr(r, name) for r in rep_a],
                         [getattr(r, name) for r in rep_b])
        components.append(Component("welch_" + name, w.statistic, w.p_value, 1.0))

    ys, vs, sims, flags = [], [], [], []
    for res, flag in ((res_a, 1.0), (res_b, 0.0)):
        for r in res:
            att = r.attempts
            if not att.shape[0]:
                continue
            ys.append(att[:, 2].astype(float))
            vs.append(r.affect[att[:, 0]])
            sims.append(identity_similarity(graph.identity[att[:, 0]],
                                            graph.identity[att[:, 1]]))
            flags.append(np.full(att.shape[0], flag))
    y = np.concatenate(ys)
    x = np.column_stack([np.ones_like(y), np.concatenate(vs),
                         np.concatenate(sims), np.concatenate(flags)])
    fit = fit_logistic(y, x, names=("intercept", "sender_affect",
                                    "similarity", "meme"))
    est, se = fit.coefficient("meme")
    components.append(Component("wald_meme", est / se if se > 0 else 0.0,
                                wald_p_value(fit, "meme"), 1.0))

    arms = {"meme": _summary(rep_a), "theatre": _summary(rep_b)}
    details = {"null": spec.null, "null_settings": null_settings(spec.id),
               "meme_coefficient": est, "meme_se": se,
               "fit_converged": fit.converged,
               "edge_rows": int(y.shape[0])}
    return _assemble(spec, components, arms, details)


def _degree_matched_grid(config, ratios) -> list[tuple[float, float]]:
    """(p_in, p_out) pairs holding expected degree fixed while the
    within/between ratio sweeps."""
    n, k = config.n, config.n_blocks
    block_size = n // k
    within = block_size - 1
    between = n - block_size
    base_degree = within * config.p_in + between * config.p_out
    grid = []
    for ratio in ratios:
        p_out = base_degree / (within * ratio + between)
        p_in = ratio * p_out
        if p_in > 1.0:
            raise DesignError(
                f"ratio {ratio:g} pushes p_in above 1; lower the base degree")
        grid.append((p_in, p_out))
    return grid


def test_h0_network(spec: HypothesisSpec) -> TestReport:
    """Sweep homophily at fixed expected degree; regress mean reach
    (participation) and mean sway on the realized homophily index and
    t-test both slopes. Random seeding keeps exposure block-neutral."""
    spec.validate()
    scenario = null_scenario(spec)
    seed = spec.seed()
    design = replace(scenario.design, seeding="random")
    grid = _degree_matched_grid(scenario.graph, spec.ratios)

    homophily, reach, sway_means = [], [], []
    point_summaries = {}
    for g, (p_in, p_out) in enumerate(grid):
        cfg = replace(scenario.graph, p_in=p_in, p_out=p_out)
        graph = generate_network(cfg, derive_stream(seed, "falsify", spec.id,
                                                    g, "graph"))
        _, reports = _arm_runs(scenario, graph, design, spec.reps, seed,
                               spec.id, g)
        homophily.append(homophily_index(graph))
        reach.append(float(np.mean([r.participation for r in reports])))
        sway_means.append(float(np.mean([r.sway for r in reports])))
        point_summaries[f"ratio_{spec.ratios[g]:g}"] = _summary(reports)
        point_summaries[f"ratio_{spec.ratios[g]:g}"]["homophily_index"] = \
            homophily[-1]

    reach_fit = slope_test(homophily, reach)
    sway_fit = slope_test(homophily, sway_means)
    components = [
        Component("slope_reach", reach_fit.statistic, reach_fit.p_value, 1.0),
        Component("slope_sway", sway_fit.statistic, sway_fit.p_value, 1.0),
    ]
    details = {"null": spec.null, "null_settings": null_settings(spec.id),
               "reach_slope": reach_fit.slope, "sway_slope": sway_fit.slope,
               "homophily_grid": tuple(homophily),
               "grid_p_in": tuple(p for p, _ in grid),
               "grid_p_out": tuple(p for _, p in grid)}
    return _assemble(spec, components, point_summaries, details)


def test_h0_ethics(spec: HypothesisSpec, jobs: int = 1) -> TestReport:
    """Optimize unconstrained (toxicity cap 1) vs constrained (cap at
    constrained_limit) under CRN, then compare the two optima's
    polarization on fresh evaluation streams with a Welch test.

    The design grid is scored once, unconstrained, on `jobs` workers; the
    constrained optimum is picked again from that table. The CRN point
    difference is reported in details; the p-value uses the fresh
    streams so that identical optima stay calibrated instead of
    degenerate.
    """
    spec.validate()
    scenario = null_scenario(spec)
    seed = spec.seed()
    space = spec.space if spec.space is not None else scenario.space

    graph = scenario_graph(scenario, seed)
    unconstrained = optimize(scenario, space=space, toxicity_limit=1.0,
                             reps=spec.reps, master_seed=seed, jobs=jobs,
                             graph=graph)
    constrained = unconstrained.best_under(unconstrained.budget,
                                           spec.constrained_limit)

    evals = {}
    for label, report in (("unconstrained", unconstrained),
                          ("constrained", constrained)):
        _, reports = _arm_runs(scenario, graph, report.best_design, spec.reps,
                               seed, spec.id, "eval", label)
        evals[label] = [rep.polarization for rep in reports]

    welch = welch_t_test(evals["unconstrained"], evals["constrained"])
    components = [Component("welch_polarization", welch.statistic,
                            welch.p_value, 1.0)]

    def best_row(report):
        for row in report.table:
            if row.design == report.best_design:
                return row
        raise DesignError("optimizer table is missing its own best design")

    crn_diff = (best_row(unconstrained).mean_polarization
                - best_row(constrained).mean_polarization)
    arms = {}
    for label, values in evals.items():
        mean, sd = mean_sd(values)
        arms[label] = {"reps": float(spec.reps), "mean_polarization": mean,
                       "sd_polarization": sd}
    details = {"null": spec.null, "null_settings": null_settings(spec.id),
               "theta_differs": unconstrained.best_design != constrained.best_design,
               "crn_polarization_difference": float(crn_diff),
               "unconstrained_design": unconstrained.best_design,
               "constrained_design": constrained.best_design,
               "unconstrained_toxicity": unconstrained.best_design.toxicity,
               "constrained_toxicity": constrained.best_design.toxicity}
    return _assemble(spec, components, arms, details)


_TESTS = {
    "H0_context": test_h0_context,
    "H0_affect": test_h0_affect,
    "H0_format": test_h0_format,
    "H0_network": test_h0_network,
}


def run_test(spec: HypothesisSpec, jobs: int = 1) -> TestReport:
    """Run one test. `jobs` workers score the ethics test's design grid;
    the other tests run in this process. The report does not depend on
    `jobs`."""
    spec.validate()
    if spec.id == "H0_ethics":
        return test_h0_ethics(spec, jobs=jobs)
    return _TESTS[spec.id](spec)


def _rejects(spec: HypothesisSpec) -> int:
    return int(run_test(spec).reject)


def calibrate(spec: HypothesisSpec, meta_reps: int = 400,
              map_fn=map) -> CalibrationReport:
    """Empirical type-I error of a test under its null generator.

    Meta-replication m reruns the test with a master seed drawn from the
    (seed, "calibrate", m) stream; the rejection rate comes back with a
    95% score interval. The meta-replications are independent, so
    `map_fn(fn, specs)` may run them anywhere, a worker pool included, as
    long as it returns their results in order; the CLI passes the one
    pool of its invocation.
    """
    if meta_reps < 1:
        raise DesignError("meta_reps must be >= 1")
    base = replace(spec, null=True) if not spec.null else spec
    metas = []
    for m in range(meta_reps):
        rng = derive_stream(spec.seed(), "calibrate", spec.id, m)
        metas.append(replace(base, master_seed=int(rng.integers(0, 2 ** 62))))
    rejections = sum(map_fn(_rejects, metas))
    rate = rejections / meta_reps
    lo, hi = wilson_interval(rejections, meta_reps)
    return CalibrationReport(id=spec.id, meta_reps=meta_reps,
                             rejections=rejections, rate=rate,
                             ci_low=lo, ci_high=hi, alpha=spec.alpha)


def calibration_scenario(base: Scenario) -> Scenario:
    """Small, fast variant of a scenario for calibration sweeps: fewer
    agents, a denser base grid so the homophily sweep has headroom, and
    a compact optimizer space for the ethics test."""
    small_space = DesignSpace(
        formats=("meme", "theatre"),
        hooks=(base.design.hook,),
        call_and_response=(base.design.call_and_response,),
        toxicities=(0.0, 0.6),
        seed_fractions=(base.design.seed_fraction,),
        seedings=(base.design.seeding,),
        symbol_block=base.space.symbol_block,
        budget=base.space.budget,
        toxicity_limit=base.space.toxicity_limit,
    )
    return replace(
        base,
        name=base.name + "-calibration",
        graph=replace(base.graph, n=80, p_in=0.3, p_out=0.05),
        reps=40,
        space=small_space,
    )
