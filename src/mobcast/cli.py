"""Command-line pipeline: scenario in, CSV/JSON artifacts out.

Subcommands: generate, simulate, optimize, game, falsify, estimate,
calibrate. Every output file embeds the scenario hash and the master
seed (CSV files as a leading comment line, JSON files as top-level
fields), and floats are written at 17 significant digits.

simulate, optimize, game, falsify and calibrate split their work across
--jobs worker processes, one spawn pool per invocation: simulate its
replications, optimize and game their grid cells, falsify the ethics
test's design grid, and calibrate every meta-replication of every
hypothesis. Each unit of work draws from its own derived stream and the
results are reduced in order, so the output bytes do not depend on the
worker count. generate rejects --jobs > 1; estimate accepts and ignores
it. falsify and calibrate report one line per hypothesis on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from dataclasses import replace

import numpy as np

from .affect import Design
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
                       load_scenario, preset_scenario, save_scenario,
                       scenario_hash)

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

IMPACT_COLUMNS = ("rep", "participation", "cohesion", "sway",
                  "polarization", "i_p")
TRACE_COLUMNS = ("rep", "agent", "exposed", "affect", "active", "round")


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _meta_line(scenario: Scenario) -> str:
    return (f"# scenario={scenario.name} scenario_hash={scenario_hash(scenario)}"
            f" master_seed={scenario.master_seed}\n")


def _write_json(path: str, scenario: Scenario, payload: dict) -> None:
    body = {"scenario_name": scenario.name,
            "scenario_hash": scenario_hash(scenario),
            "master_seed": scenario.master_seed}
    body.update(payload)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(body), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _announce(path: str) -> None:
    print(f"wrote {path}")


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

    impacts_path = os.path.join(out_dir, "impacts.csv")
    with open(impacts_path, "w", encoding="utf-8") as fh:
        fh.write(_meta_line(scenario))
        fh.write(",".join(IMPACT_COLUMNS) + "\n")
        for r, report, _ in rows:
            fh.write(",".join([
                str(r), _fmt(report.participation), _fmt(report.cohesion),
                _fmt(report.sway), _fmt(report.polarization),
                _fmt(report.score)]) + "\n")
    _announce(impacts_path)

    if trace:
        trace_path = os.path.join(out_dir, "trace.csv")
        with open(trace_path, "w", encoding="utf-8") as fh:
            fh.write(_meta_line(scenario))
            fh.write(",".join(TRACE_COLUMNS) + "\n")
            for r, _, tr in rows:
                exposed, affect, active, rounds = tr
                for agent in range(exposed.shape[0]):
                    fh.write(",".join([
                        str(r), str(agent), str(int(exposed[agent])),
                        _fmt(affect[agent]), str(int(active[agent])),
                        str(int(rounds[agent]))]) + "\n")
        _announce(trace_path)

    def agg(name):
        vals = [getattr(report, name) for _, report, _ in rows]
        mean = float(np.mean(vals))
        se = float(np.std(vals, ddof=1) / np.sqrt(len(vals))) \
            if len(vals) > 1 else 0.0
        return {"mean": mean, "se": se}

    summary = {
        "reps": scenario.reps,
        "design": scenario.design,
        "aggregates": {
            "participation": agg("participation"),
            "cohesion": agg("cohesion"),
            "sway": agg("sway"),
            "polarization": agg("polarization"),
            "i_p": agg("score"),
        },
    }
    summary_path = os.path.join(out_dir, "summary.json")
    _write_json(summary_path, scenario, summary)
    _announce(summary_path)
    return summary


def run_generate(scenario: Scenario, out_dir: str) -> str:
    graph = scenario_graph(scenario)
    graph_path = os.path.join(out_dir, "graph.txt")
    save_edge_list(graph, graph_path, comment=_meta_line(scenario)[2:].strip())
    _announce(graph_path)
    structure_path = os.path.join(out_dir, "structure.json")
    _write_json(structure_path, scenario,
                {"structure": structure_summary(graph)})
    _announce(structure_path)
    return graph_path


_DESIGN_COLUMNS = ("format", "hook", "call_and_response", "toxicity",
                   "seed_fraction", "seeding", "symbols")


def _design_cells(design: Design) -> list[str]:
    return [design.format, _fmt(design.hook),
            "1" if design.call_and_response else "0", _fmt(design.toxicity),
            _fmt(design.seed_fraction), design.seeding,
            ";".join(_fmt(s) for s in design.symbols)]


def run_optimize(scenario: Scenario, out_dir: str, jobs: int = 1):
    report = optimize(scenario, jobs=jobs)
    table_path = os.path.join(out_dir, "evaluations.csv")
    with open(table_path, "w", encoding="utf-8") as fh:
        fh.write(_meta_line(scenario))
        fh.write(",".join(_DESIGN_COLUMNS
                          + ("cost", "feasible", "mean_score", "se_score",
                             "mean_participation", "mean_cohesion",
                             "mean_sway", "mean_polarization")) + "\n")
        for row in report.table:
            cells = _design_cells(row.design)
            cells.append(_fmt(row.cost))
            cells.append("1" if row.feasible else "0")
            for value in (row.mean_score, row.se_score,
                          row.mean_participation, row.mean_cohesion,
                          row.mean_sway, row.mean_polarization):
                cells.append("" if value is None else _fmt(value))
            fh.write(",".join(cells) + "\n")
    _announce(table_path)

    report_path = os.path.join(out_dir, "optimize.json")
    _write_json(report_path, scenario, {
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
    _announce(report_path)
    return report


def run_game(scenario: Scenario, out_dir: str, jobs: int = 1):
    players = players_from_scenario(scenario)
    report = best_response_dynamics(scenario, players, jobs=jobs)
    report_path = os.path.join(out_dir, "game.json")
    _write_json(report_path, scenario, {
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
    _announce(report_path)
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
        path = os.path.join(out_dir, f"falsify_{hid}.json")
        _write_json(path, scenario, {
            "id": report.id,
            "statistic": report.statistic,
            "p_value": report.p_value,
            "alpha": report.alpha,
            "reject": report.reject,
            "components": report.components,
            "arms": report.arms,
            "details": report.details,
        })
        _announce(path)

    summary_path = os.path.join(out_dir, "falsify_summary.csv")
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.write(_meta_line(scenario))
        fh.write("id,statistic,p_value,alpha,reject\n")
        for report in reports:
            fh.write(",".join([report.id, _fmt(report.statistic),
                               _fmt(report.p_value), _fmt(report.alpha),
                               "1" if report.reject else "0"]) + "\n")
    _announce(summary_path)
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
    agents_path = os.path.join(out_dir, "panel_agents.csv")
    edges_path = os.path.join(out_dir, "panel_edges.csv")
    meta = {"scenario": scenario.name,
            "scenario_hash": scenario_hash(scenario),
            "master_seed": str(scenario.master_seed)}
    write_panel_csv(panel, agents_path, edges_path, meta=meta)
    _announce(agents_path)
    _announce(edges_path)

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
    path = os.path.join(out_dir, "estimate.json")
    _write_json(path, scenario, payload)
    _announce(path)
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

    csv_path = os.path.join(out_dir, "calibration.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(_meta_line(small))
        fh.write("id,meta_reps,rejections,rate,ci_low,ci_high,alpha\n")
        for rep in reports:
            fh.write(",".join([rep.id, str(rep.meta_reps),
                               str(rep.rejections), _fmt(rep.rate),
                               _fmt(rep.ci_low), _fmt(rep.ci_high),
                               _fmt(rep.alpha)]) + "\n")
    _announce(csv_path)
    json_path = os.path.join(out_dir, "calibration.json")
    _write_json(json_path, small, {"calibration": reports,
                                   "meta_reps": meta_reps})
    _announce(json_path)
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
        p.add_argument("--reps", type=int, help="override replication count")
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
