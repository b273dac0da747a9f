"""Campaign design evaluation and constrained optimization.

Designs are scored by Monte-Carlo replication of the full pipeline
(seeding, affect formation, cascade, impact scoring). Replication r of
every candidate design draws from the stream derived from
(master_seed, r), so candidates face common random numbers and their
score differences are low-variance. The optimizer enumerates a finite
grid, drops designs that break the budget or the toxicity ceiling, and
returns the feasible design with the highest mean composite score.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import get_context

from .affect import Design, DesignError
from .diffusion import CascadeEngine, seed_count
from .graph import SocialGraph, block_centers, generate_network
from .impact import ImpactReport, ImpactWeights, score_cascade, score_cascades
from .scenario import CostModel, DesignSpace, Scenario, derive_stream

__all__ = [
    "OptimizeInfeasibleError",
    "EvalRow",
    "OptimizeReport",
    "design_cost",
    "enumerate_designs",
    "scenario_graph",
    "replicate_design",
    "evaluate_design",
    "optimize",
]


# agents per lockstep batch of replications: 102 reps at n=80, 20 at
# n=400, and from n=8192 up one rep, on CascadeEngine.run's own loop
_BATCH_AGENTS = 2 ** 13


class OptimizeInfeasibleError(ValueError):
    """Raised when no candidate satisfies the constraints; the message
    names which constraint(s) excluded every design."""


@dataclass(frozen=True)
class EvalRow:
    design: Design
    cost: float
    feasible: bool
    mean_score: float | None
    se_score: float | None
    mean_participation: float | None
    mean_cohesion: float | None
    mean_sway: float | None
    mean_polarization: float | None


@dataclass(frozen=True)
class OptimizeReport:
    best_design: Design
    best_mean: float
    best_se: float
    best_cost: float
    budget: float
    toxicity_limit: float
    budget_slack: float
    toxicity_slack: float
    reps: int
    master_seed: int
    table: tuple[EvalRow, ...]

    def best_under(self, budget: float,
                   toxicity_limit: float) -> "OptimizeReport":
        """The report `optimize` gives under `budget` and `toxicity_limit`,
        picked again from this table without scoring anything: rows
        outside the new constraints become infeasible, and the best
        remaining row is chosen with the same key as `optimize`.

        Rows are scored per design under common random numbers, so a row
        does not depend on the constraints it was scored under. A design
        that fits the new constraints but was not scored here raises
        DesignError, since only a new `optimize` can score it.
        """
        feasible = _feasible([(r.design, r.cost) for r in self.table],
                             budget, toxicity_limit)
        unscored = [r.design for r, ok in zip(self.table, feasible)
                    if ok and not r.feasible]
        if unscored:
            raise DesignError(
                f"{len(unscored)} design(s) within budget {budget:g} and "
                f"toxicity_limit {toxicity_limit:g} are not scored in this "
                "table; run optimize under these constraints instead")
        rows = tuple(row if ok else _unscored_row(row.design, row.cost)
                     for row, ok in zip(self.table, feasible))
        return _report(rows, budget, toxicity_limit, self.reps,
                       self.master_seed)


def design_cost(costs: CostModel, design: Design, n: int) -> float:
    return costs.format_cost(design.format) + costs.per_seed * seed_count(
        n, design.seed_fraction)


def enumerate_designs(space: DesignSpace, graph: SocialGraph) -> tuple[Design, ...]:
    """Cartesian product of the space axes, symbols pinned to the anchor
    block's identity center. Order is the nested-loop order below and is
    part of the output contract (tables keep it)."""
    space.validate()
    if not 0 <= space.symbol_block < graph.n_blocks:
        raise DesignError("symbol_block outside the graph's block range")
    centers = block_centers(graph.n_blocks, graph.identity_dim)
    symbols = tuple(float(x) for x in centers[space.symbol_block])
    out = []
    for fmt in space.formats:
        for hook in space.hooks:
            for cnr in space.call_and_response:
                for tox in space.toxicities:
                    for frac in space.seed_fractions:
                        for seeding in space.seedings:
                            out.append(Design(
                                format=fmt, symbols=symbols, hook=hook,
                                call_and_response=cnr, toxicity=tox,
                                seed_fraction=frac, seeding=seeding))
    return tuple(out)


def scenario_graph(scenario: Scenario, master_seed: int | None = None) -> SocialGraph:
    """The scenario's fixed graph: one draw from the 'graph' substream."""
    seed = scenario.master_seed if master_seed is None else master_seed
    return generate_network(scenario.graph, derive_stream(seed, "graph"))


def replicate_design(scenario: Scenario, design: Design, reps: int,
                     master_seed: int,
                     graph: SocialGraph | None = None) -> list[ImpactReport]:
    """Impact reports for `reps` replications under the CRN contract."""
    if reps < 1:
        raise DesignError("reps must be >= 1")
    return [report for _, _, report in
            _design_runs(scenario, design, range(reps), master_seed, graph)]


def _design_runs(scenario: Scenario, design: Design, rep_ids, master_seed: int,
                 graph: SocialGraph | None = None):
    """Yield (engine, result, report) for each rep id in order; rep r
    draws from the stream (master_seed, r), so every design sees the same
    replication streams (common random numbers)."""
    for engine, ids in _rep_engines(scenario, graph, master_seed, rep_ids,
                                    design):
        for _, result, report in _replications(
                engine, [(master_seed, r) for r in ids], scenario.max_rounds,
                scenario.impact):
            yield engine, result, report


def _rep_engines(scenario: Scenario, graph: SocialGraph | None,
                 master_seed: int, rep_ids, *designs,
                 engine=CascadeEngine):
    """Yield (engine, rep ids) pairs that cover `rep_ids` in order.

    One engine over `graph` (the scenario graph when None) serves every
    rep; when the scenario regenerates its graph per rep, rep r gets its
    own engine over the graph of the stream (master_seed, r, "graph").
    """
    def build(g):
        return engine(g, scenario.affect, scenario.decision,
                      scenario.transmission, *designs)

    if not scenario.regenerate_graph_per_rep:
        if graph is None:
            graph = scenario_graph(scenario, master_seed)
        yield build(graph), list(rep_ids)
        return
    for r in rep_ids:
        yield build(generate_network(scenario.graph,
                                     derive_stream(master_seed, r, "graph"))), [r]


def _replications(engine: CascadeEngine, labels: list[tuple],
                  max_rounds: int | None, weights: ImpactWeights | None = None):
    """Run one replication of `engine` per tuple of stream labels and
    yield (rng, result, report) for each, in order.

    rng is derive_stream(*labels) after the replication drew from it,
    result what engine.run(rng) returns, and report its score_cascade
    under `weights` (None without weights). Reps advance in lockstep
    batches of max(1, _BATCH_AGENTS // n) through engine.run_batch, which
    keeps every rep's stream consumption, so nothing depends on the batch
    size; a batch of one goes through engine.run and score_cascade.
    """
    size = max(1, _BATCH_AGENTS // engine.graph.n)
    for start in range(0, len(labels), size):
        rngs = [derive_stream(*label) for label in labels[start:start + size]]
        if len(rngs) == 1:
            results = [engine.run(rngs[0], max_rounds)]
        else:
            results = [engine._outcome(sides) for sides
                       in zip(*engine.run_batch(rngs, max_rounds))]
        if weights is None:
            reports = [None] * len(results)
        elif len(results) == 1:
            reports = [score_cascade(engine.graph, engine.designs[0],
                                     results[0], weights, match=engine.match)]
        else:
            reports = score_cascades(engine.graph, engine.designs[0], results,
                                     weights, match=engine.match)
        yield from zip(rngs, results, reports)


def _mean_se(values: list[float]) -> tuple[float, float]:
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, (var / n) ** 0.5


def evaluate_design(scenario: Scenario, design: Design,
                    reps: int | None = None,
                    master_seed: int | None = None,
                    graph: SocialGraph | None = None) -> tuple[float, float]:
    """Mean and standard error of the composite score."""
    reps = scenario.reps if reps is None else reps
    master_seed = scenario.master_seed if master_seed is None else master_seed
    reports = replicate_design(scenario, design, reps, master_seed, graph=graph)
    return _mean_se([rep.score for rep in reports])


@contextmanager
def _worker_map(jobs: int):
    """Yield a map(fn, tasks) -> list for one command.

    A call runs in order in this process when jobs == 1 or it has at most
    one task. Otherwise it runs on a spawn pool of `jobs` workers, opened
    at the first such call and shared by every later call until the block
    exits. pool.map returns results in task order, so they do not depend
    on `jobs`.
    """
    pool = None

    def run(fn, tasks):
        nonlocal pool
        if jobs == 1 or len(tasks) <= 1:
            return [fn(t) for t in tasks]
        if pool is None:
            pool = get_context("spawn").Pool(processes=jobs)
        return pool.map(fn, tasks)

    try:
        yield run
    finally:
        if pool is not None:
            pool.terminate()


def _unscored_row(design: Design, cost: float) -> EvalRow:
    return EvalRow(design, cost, False, None, None, None, None, None, None)


def _feasible(cells: list[tuple[Design, float]], budget: float,
              toxicity_limit: float) -> list[bool]:
    """Per (design, cost) cell, whether it meets both constraints. Raises
    OptimizeInfeasibleError naming the binding constraints, counted over
    every cell, when none does."""
    over_budget = [cost > budget for _, cost in cells]
    over_toxicity = [d.toxicity > toxicity_limit for d, _ in cells]
    feasible = [not (b or t) for b, t in zip(over_budget, over_toxicity)]
    if not any(feasible):
        binding = []
        if any(over_budget):
            binding.append(f"budget {budget:g}")
        if any(over_toxicity):
            binding.append(f"toxicity_limit {toxicity_limit:g}")
        raise OptimizeInfeasibleError(
            "no feasible design in the space; binding constraint(s): "
            + ", ".join(binding))
    return feasible


def _report(rows: tuple[EvalRow, ...], budget: float, toxicity_limit: float,
            reps: int, master_seed: int) -> OptimizeReport:
    best = min((row for row in rows if row.feasible),
               key=lambda row: (-row.mean_score, row.cost, row.design))
    return OptimizeReport(
        best_design=best.design,
        best_mean=best.mean_score,
        best_se=best.se_score,
        best_cost=best.cost,
        budget=budget,
        toxicity_limit=toxicity_limit,
        budget_slack=budget - best.cost,
        toxicity_slack=toxicity_limit - best.design.toxicity,
        reps=reps,
        master_seed=master_seed,
        table=rows,
    )


def _eval_row(args) -> EvalRow:
    scenario, graph, design, cost, feasible, reps, master_seed = args
    if not feasible:
        return _unscored_row(design, cost)
    reports = replicate_design(scenario, design, reps, master_seed, graph=graph)
    mean, se = _mean_se([rep.score for rep in reports])
    k = float(len(reports))
    return EvalRow(
        design, cost, True, mean, se,
        sum(r.participation for r in reports) / k,
        sum(r.cohesion for r in reports) / k,
        sum(r.sway for r in reports) / k,
        sum(r.polarization for r in reports) / k,
    )


def optimize(scenario: Scenario, space: DesignSpace | None = None,
             costs: CostModel | None = None, budget: float | None = None,
             toxicity_limit: float | None = None, reps: int | None = None,
             master_seed: int | None = None, jobs: int = 1,
             graph: SocialGraph | None = None) -> OptimizeReport:
    """Exhaustive search of the design grid under budget and toxicity
    constraints. Ties on mean score break toward lower cost, then toward
    the lexicographically smaller design record. `graph` defaults to the
    scenario graph for `master_seed`.

    With jobs > 1 the grid's cells are scored on one spawn pool of `jobs`
    workers; the report does not depend on `jobs`. To tighten the
    constraints afterwards, use the report's `best_under`, which picks
    again from the scored table instead of scoring the grid again."""
    space = scenario.space if space is None else space
    costs = scenario.costs if costs is None else costs
    budget = space.budget if budget is None else budget
    toxicity_limit = space.toxicity_limit if toxicity_limit is None else toxicity_limit
    reps = scenario.reps if reps is None else reps
    master_seed = scenario.master_seed if master_seed is None else master_seed

    if graph is None:
        graph = scenario_graph(scenario, master_seed)
    cells = [(design, design_cost(costs, design, scenario.graph.n))
             for design in enumerate_designs(space, graph)]
    feasible = _feasible(cells, budget, toxicity_limit)
    tasks = [(scenario, graph, design, cost, ok, reps, master_seed)
             for (design, cost), ok in zip(cells, feasible)]
    with _worker_map(jobs) as pool_map:
        rows = pool_map(_eval_row, tasks)
    return _report(tuple(rows), budget, toxicity_limit, reps, master_seed)
