"""Command-line pipeline: scenario in, CSV/JSON artifacts out.

Subcommands: generate, simulate, optimize, game, falsify, estimate,
calibrate. Every artifact goes through mobcast.artifacts: CSV files
through its one column-wise writer, opening with the scenario's meta
line (name, hash and master seed), JSON files with the same three facts
as top-level fields. Floats are written at 17 significant digits.

simulate, optimize, game, falsify and estimate take --reps; generate
samples no replications and calibrate runs its own calibration
scenario, so neither accepts it. simulate, optimize, game, falsify and
calibrate split their work across --jobs worker processes, one spawn
pool per invocation: simulate its replications, optimize and game their
grid cells, falsify the ethics test's design grid, and calibrate every
meta-replication of every hypothesis. Each unit of work draws from its
own derived stream and the results are reduced in order, so the output
bytes do not depend on the worker count. generate rejects --jobs > 1;
estimate accepts and ignores it. falsify and calibrate report one line
per hypothesis on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace

import numpy as np

from .artifacts import meta_line, write_csv, write_json
from .design import _design_runs, _worker_map, optimize, scenario_graph
# CascadeEngine and generate_network stay bound here: the benchmark's
# tracer test reaches both through this module
from .diffusion import CascadeEngine  # noqa: F401
from .estimate import (build_panel, factor_scores, fit_activation,
                       fit_affect_ols, fit_edge_transmission,
                       implied_affect_coefficients, write_panel_csv)
from .falsify import (HYPOTHESES, MIN_REPS, HypothesisSpec, calibrate,
                      calibration_scenario, run_test)
from .game import best_response_dynamics, players_from_scenario
from .graph import generate_network, save_edge_list, structure_summary  # noqa: F401
from .scenario import (PRESET_NAMES, Scenario, ScenarioError, derive_stream,
                       load_scenario, preset_scenario, save_scenario)
from .stats import mean_sd

__all__ = [
    "main",
    "run_simulate",
    "run_generate",
    "run_optimize",
    "run_game",
    "run_falsify",
    "run_estimate",
    "run_calibrate",
    "load_scenario",
    "save_scenario",
    "derive_stream",
    "Scenario",
]

# impacts.csv column -> ImpactReport field, in column order after "rep"
_IMPACT_FIELDS = (("participation", "participation"),
                  ("cohesion", "cohesion"), ("sway", "sway"),
                  ("polarization", "polarization"), ("i_p", "score"))
IMPACT_COLUMNS = ("rep",) + tuple(name for name, _ in _IMPACT_FIELDS)
TRACE_COLUMNS = ("rep", "agent", "exposed", "affect", "active", "round")
_TRACE_FORMATS = ("%d", "%d", "%d", "%.17g", "%d", "%d")


def _fields(objs, spec) -> list:
    """Columns (name, format, [obj.name for obj in objs]) for `spec`,
    a sequence of (name, format)."""
    return [(name, fmt, [getattr(obj, name) for obj in objs])
            for name, fmt in spec]


def _sim_chunk(args):
    scenario, rep_ids, want_trace = args
    out = []
    runs = _design_runs(scenario, scenario.design, rep_ids, scenario.master_seed)
    for r, (_, result, report) in zip(rep_ids, runs):
        trace = None
        if want_trace:
            trace = (result.exposure.astype(np.int64), result.affect.copy(),
                     result.active.astype(np.int64),
                     result.activation_round.copy())
        out.append((r, report, trace))
    return out


def _split(total: int, parts: int) -> list[list[int]]:
    parts = max(1, min(parts, total))
    base, extra = divmod(total, parts)
    chunks, start = [], 0
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        chunks.append(list(range(start, start + size)))
        start += size
    return [c for c in chunks if c]


def run_simulate(scenario: Scenario, out_dir: str, trace: bool = False,
                 jobs: int = 1) -> dict:
    """Replicate the scenario's own design; write the per-rep impact CSV,
    a JSON aggregate summary, and optionally the per-agent trace CSV."""
    chunks = _split(scenario.reps, jobs)
    tasks = [(scenario, chunk, trace) for chunk in chunks]
    with _worker_map(jobs) as pool_map:
        chunk_results = pool_map(_sim_chunk, tasks)
    rows = [item for chunk in chunk_results for item in chunk]

    meta = meta_line(scenario)
    reports = [report for _, report, _ in rows]
    write_csv(os.path.join(out_dir, "impacts.csv"), meta,
              [("rep", "%d", [r for r, _, _ in rows])]
              + [(name, "%.17g", [getattr(rep, attr) for rep in reports])
                 for name, attr in _IMPACT_FIELDS])

    if trace:
        parts = [(np.full(tr[0].shape[0], r), np.arange(tr[0].shape[0]), *tr)
                 for r, _, tr in rows]
        write_csv(os.path.join(out_dir, "trace.csv"), meta,
                  [(name, fmt, np.concatenate(col)) for name, fmt, col
                   in zip(TRACE_COLUMNS, _TRACE_FORMATS, zip(*parts))])

    def agg(attr):
        mean, sd = mean_sd([getattr(rep, attr) for rep in reports])
        return {"mean": mean, "se": float(sd / np.sqrt(len(reports)))}

    summary = {
        "reps": scenario.reps,
        "design": scenario.design,
        "aggregates": {name: agg(attr) for name, attr in _IMPACT_FIELDS},
    }
    write_json(os.path.join(out_dir, "summary.json"), scenario, summary)
    return summary


def run_generate(scenario: Scenario, out_dir: str) -> str:
    graph = scenario_graph(scenario)
    graph_path = os.path.join(out_dir, "graph.txt")
    save_edge_list(graph, graph_path, comment=meta_line(scenario))
    print(f"wrote {graph_path}")
    write_json(os.path.join(out_dir, "structure.json"), scenario,
               {"structure": structure_summary(graph)})
    return graph_path


def run_optimize(scenario: Scenario, out_dir: str, jobs: int = 1):
    report = optimize(scenario, jobs=jobs)
    designs = [row.design for row in report.table]
    write_csv(os.path.join(out_dir, "evaluations.csv"), meta_line(scenario),
              _fields(designs, (("format", "%s"), ("hook", "%.17g"),
                                ("call_and_response", "%d"),
                                ("toxicity", "%.17g"),
                                ("seed_fraction", "%.17g"),
                                ("seeding", "%s")))
              + [("symbols", "%s", [";".join("%.17g" % v for v in d.symbols)
                                    for d in designs])]
              + _fields(report.table, (("cost", "%.17g"), ("feasible", "%d"),
                                       ("mean_score", "%.17g"),
                                       ("se_score", "%.17g"),
                                       ("mean_participation", "%.17g"),
                                       ("mean_cohesion", "%.17g"),
                                       ("mean_sway", "%.17g"),
                                       ("mean_polarization", "%.17g"))))

    write_json(os.path.join(out_dir, "optimize.json"), scenario, {
        "best_design": report.best_design,
        "best_mean": report.best_mean,
        "best_se": report.best_se,
        "best_cost": report.best_cost,
        "budget": report.budget,
        "budget_slack": report.budget_slack,
        "toxicity_limit": report.toxicity_limit,
        "toxicity_slack": report.toxicity_slack,
        "reps": report.reps,
        "evaluations": len(report.table),
    })
    return report


def run_game(scenario: Scenario, out_dir: str, jobs: int = 1):
    players = players_from_scenario(scenario)
    report = best_response_dynamics(scenario, players, jobs=jobs)
    write_json(os.path.join(out_dir, "game.json"), scenario, {
        "kind": report.kind,
        "profile_index": report.profile_index,
        "profile": report.profile,
        "trajectory": report.trajectory,
        "payoff_left": report.payoff_left,
        "payoff_right": report.payoff_right,
        "strategies_left": report.strategies_left,
        "strategies_right": report.strategies_right,
        "reps": report.reps,
    })
    return report


def _progress(line: str, start: float) -> None:
    print(f"{line} {time.perf_counter() - start:.1f}s", file=sys.stderr)


def run_falsify(scenario: Scenario, out_dir: str, reps: int | None = None,
                alpha: float = 0.05, null: bool = False,
                jobs: int = 1) -> list:
    """Run the five tests; `jobs` workers score the ethics design grid.
    Fewer than MIN_REPS reps per arm, from `reps` or else the scenario,
    is an error."""
    source = "the scenario's reps" if reps is None else "--reps"
    reps = scenario.reps if reps is None else reps
    if reps < MIN_REPS:
        raise ValueError(f"falsify needs at least {MIN_REPS} reps per arm; "
                         f"{source} is {reps}")
    reports = []
    for hid in HYPOTHESES:
        spec = HypothesisSpec(id=hid, scenario=scenario, null=null,
                              reps=reps, alpha=alpha)
        start = time.perf_counter()
        report = run_test(spec, jobs=jobs)
        _progress(f"falsify {hid} reject={int(report.reject)}", start)
        reports.append(report)
        write_json(os.path.join(out_dir, f"falsify_{hid}.json"), scenario, {
            "id": report.id,
            "statistic": report.statistic,
            "p_value": report.p_value,
            "alpha": report.alpha,
            "reject": report.reject,
            "components": report.components,
            "arms": report.arms,
            "details": report.details,
        })

    write_csv(os.path.join(out_dir, "falsify_summary.csv"),
              meta_line(scenario),
              _fields(reports, (("id", "%s"), ("statistic", "%.17g"),
                                ("p_value", "%.17g"), ("alpha", "%.17g"),
                                ("reject", "%d"))))
    return reports


def run_estimate(scenario: Scenario, out_dir: str,
                 reps: int | None = None) -> dict:
    """Simulate a two-format panel, persist it as CSV, and fit every
    estimator on the in-memory panel.

    The CSVs reproduce that panel bit for bit (read_panel_csv gives back
    every array with the same dtype and bytes; the round-trip tests hold
    it to that), so refitting from the files gives the same fits.

    The panel arms override the campaign's seeding with a randomized,
    balanced exposure: deterministic top-matching seeding makes exposure
    a function of matching, which leaves the exposure interactions
    collinear and the affect regression unidentified.
    """
    reps = scenario.reps if reps is None else reps
    probe = replace(scenario.design, seeding="random",
                    seed_fraction=max(0.25, scenario.design.seed_fraction))
    designs = (replace(probe, format="meme"),
               replace(probe, format="theatre"))
    panel = build_panel(scenario, designs=designs, reps=reps)
    write_panel_csv(panel, os.path.join(out_dir, "panel_agents.csv"),
                    os.path.join(out_dir, "panel_edges.csv"),
                    meta_line(scenario))

    fits = {}
    fits["affect_ols_oracle"] = fit_affect_ols(
        panel.affect, panel.exposure, panel.matching, panel.context)
    scores, loadings, converged, iters = factor_scores(panel.items)
    fits["affect_ols_measurement"] = fit_affect_ols(
        scores, panel.exposure, panel.matching, panel.context)
    fits["activation_oracle"] = fit_activation(panel, mode="oracle")
    fits["edge_transmission"] = fit_edge_transmission(panel)

    payload = {
        "reps": reps,
        "fits": fits,
        "factor_loadings": list(loadings),
        "factor_converged": converged,
        "factor_iterations": iters,
        "implied_affect_coefficients":
            implied_affect_coefficients(scenario, designs[0]),
    }
    write_json(os.path.join(out_dir, "estimate.json"), scenario, payload)
    return payload


def run_calibrate(scenario: Scenario, out_dir: str, meta_reps: int = 400,
                  alpha: float = 0.05, jobs: int = 1) -> list:
    """Type-I error rates on calibration_scenario(scenario); the artifacts
    carry that scenario's name and hash, since it is the one that ran.
    Every meta-replication of every hypothesis runs on one pool of `jobs`
    workers."""
    small = calibration_scenario(scenario)
    reports = []
    with _worker_map(jobs) as pool_map:
        for hid in HYPOTHESES:
            spec = HypothesisSpec(id=hid, scenario=small, null=True,
                                  reps=small.reps, alpha=alpha)
            start = time.perf_counter()
            rep = calibrate(spec, meta_reps=meta_reps, map_fn=pool_map)
            _progress(f"calibrate {hid} {meta_reps}/{meta_reps} "
                      f"rejections={rep.rejections}", start)
            reports.append(rep)

    write_csv(os.path.join(out_dir, "calibration.csv"), meta_line(small),
              _fields(reports, (("id", "%s"), ("meta_reps", "%d"),
                                ("rejections", "%d"), ("rate", "%.17g"),
                                ("ci_low", "%.17g"), ("ci_high", "%.17g"),
                                ("alpha", "%.17g"))))
    write_json(os.path.join(out_dir, "calibration.json"), small,
               {"calibration": reports, "meta_reps": meta_reps})
    return reports


def _load(args) -> Scenario:
    ref = args.scenario
    if ref and os.path.exists(ref):
        scenario = load_scenario(ref)
    elif ref is None or ref in PRESET_NAMES:
        scenario = preset_scenario(ref or "ama-default")
    else:
        raise ScenarioError(
            f"{ref!r} is neither a scenario file nor a preset "
            f"(presets: {', '.join(PRESET_NAMES)})")
    if args.seed is not None:
        scenario = replace(scenario, master_seed=args.seed)
    if getattr(args, "reps", None) is not None and args.command != "falsify" \
            and args.command != "estimate":
        scenario = replace(scenario, reps=args.reps)
    scenario.validate()
    return scenario


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mobcast",
        description="Seeded campaign-cascade simulator and optimizer")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
            ("generate", "write the scenario graph and its structure summary"),
            ("simulate", "replicate the scenario design and score impacts"),
            ("optimize", "search the design grid under constraints"),
            ("game", "two-side best-response equilibrium search"),
            ("falsify", "run the five hypothesis tests"),
            ("estimate", "simulate a panel and fit all estimators"),
            ("calibrate", "type-I error rates of the tests under their nulls")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--scenario", help="scenario file path or preset name")
        p.add_argument("--seed", type=int, help="override master_seed")
        # generate samples no replications, and calibrate runs
        # calibration_scenario's fixed count
        if name not in ("generate", "calibrate"):
            p.add_argument("--reps", type=int,
                           help="override replication count")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes (results are identical)")
        if name == "simulate":
            p.add_argument("--trace", action="store_true",
                           help="also write the per-agent trace CSV")
        if name == "falsify":
            p.add_argument("--alpha", type=float, default=0.05)
            p.add_argument("--null", action="store_true",
                           help="run the null generators instead")
        if name == "calibrate":
            p.add_argument("--alpha", type=float, default=0.05)
            p.add_argument("--meta-reps", type=int, default=400,
                           dest="meta_reps")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.jobs < 1:
            raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
        if args.jobs > 1 and args.command == "generate":
            raise ValueError("generate runs in one process; "
                             f"--jobs must be 1, got {args.jobs}")
        scenario = _load(args)
        os.makedirs(args.out, exist_ok=True)
        if args.command == "generate":
            run_generate(scenario, args.out)
        elif args.command == "simulate":
            run_simulate(scenario, args.out, trace=args.trace, jobs=args.jobs)
        elif args.command == "optimize":
            run_optimize(scenario, args.out, jobs=args.jobs)
        elif args.command == "game":
            run_game(scenario, args.out, jobs=args.jobs)
        elif args.command == "falsify":
            run_falsify(scenario, args.out, reps=args.reps, alpha=args.alpha,
                        null=args.null, jobs=args.jobs)
        elif args.command == "estimate":
            run_estimate(scenario, args.out, reps=args.reps)
        elif args.command == "calibrate":
            run_calibrate(scenario, args.out, meta_reps=args.meta_reps,
                          alpha=args.alpha, jobs=args.jobs)
    except (ScenarioError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
