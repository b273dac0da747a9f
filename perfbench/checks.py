"""Output checks for one CLI step of a benchmark workload.

`check_step` returns the problems it found (an empty list means the step
passed) and the sha256 of every expected artifact. The digests are not
compared with a golden file: a deliberate stream-contract change alters
the bytes legitimately. The caller compares them between repetitions of
the same code and seed, and between worker counts.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re

HYPOTHESES = ("H0_context", "H0_affect", "H0_format", "H0_network",
              "H0_ethics")
IMPACT_RATES = ("participation", "cohesion", "sway", "polarization")

META_LINE = re.compile(r"# scenario=\S+ scenario_hash=[0-9a-f]{64} "
                       r"master_seed=(\d+)\n?")


def expected_artifacts(command: str, flags: tuple[str, ...]) -> tuple[str, ...]:
    if command == "generate":
        return ("graph.txt", "structure.json")
    if command == "simulate":
        extra = ("trace.csv",) if "--trace" in flags else ()
        return ("impacts.csv", "summary.json") + extra
    if command == "optimize":
        return ("evaluations.csv", "optimize.json")
    if command == "game":
        return ("game.json",)
    if command == "falsify":
        return tuple(f"falsify_{h}.json" for h in HYPOTHESES) \
            + ("falsify_summary.csv",)
    if command == "estimate":
        return ("panel_agents.csv", "panel_edges.csv", "estimate.json")
    if command == "calibrate":
        return ("calibration.csv", "calibration.json")
    raise ValueError(f"unknown subcommand {command!r}")


def sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _rate(value) -> bool:
    return isinstance(value, (int, float)) and 0.0 <= value <= 1.0


def _read_head(path: str, seed: int) -> list[str]:
    """Problems with a CSV or edge-list file's meta line and header."""
    with open(path, "r", encoding="utf-8") as fh:
        meta, header = fh.readline(), fh.readline()
    name = os.path.basename(path)
    match = META_LINE.fullmatch(meta)
    if match is None:
        return [f"{name}: missing '# scenario=... scenario_hash=... "
                f"master_seed=...' line"]
    if int(match.group(1)) != seed:
        return [f"{name}: master_seed {match.group(1)} != seed {seed}"]
    if not header.strip() or header.startswith("#"):
        return [f"{name}: missing header row"]
    return []


def _csv_rows(path: str) -> list[dict[str, str]]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if not line.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _check_generate(out, data, expected_degree):
    s = data["structure.json"]["structure"]
    problems = []
    for key in ("density", "homophily_index"):
        if not _rate(s[key]):
            problems.append(f"structure.json: {key}={s[key]} outside [0, 1]")
    if expected_degree is not None and \
            abs(s["mean_degree"] - expected_degree) > 0.1 * expected_degree:
        problems.append(f"structure.json: mean_degree={s['mean_degree']} "
                        f"more than 10% off {expected_degree}")
    return problems


def _check_simulate(out, data, expected_degree):
    summary = data["summary.json"]
    problems = []
    for key in IMPACT_RATES:
        if not _rate(summary["aggregates"][key]["mean"]):
            problems.append(f"summary.json: mean {key} outside [0, 1]")
    rows = _csv_rows(os.path.join(out, "impacts.csv"))
    if len(rows) != summary["reps"]:
        problems.append(f"impacts.csv: {len(rows)} rows for "
                        f"{summary['reps']} reps")
    for row in rows:
        bad = [k for k in IMPACT_RATES if not _rate(float(row[k]))]
        if bad:
            problems.append(f"impacts.csv: rep {row['rep']} {bad} outside "
                            f"[0, 1]")
            break
    return problems


def _check_optimize(out, data, expected_degree):
    report = data["optimize.json"]
    rows = _csv_rows(os.path.join(out, "evaluations.csv"))
    problems = []
    if len(rows) != report["evaluations"]:
        problems.append("evaluations.csv: row count != evaluations")
    if report["budget_slack"] < 0 or report["toxicity_slack"] < 0:
        problems.append("optimize.json: negative budget or toxicity slack")
    feasible = [r for r in rows if r["feasible"] == "1"]
    best = [r for r in feasible if float(r["mean_score"]) == report["best_mean"]
            and float(r["cost"]) == report["best_cost"]]
    if not best or report["best_cost"] > report["budget"]:
        problems.append("optimize.json: best cell is not a feasible row")
    if any(float(r["mean_score"]) > report["best_mean"] for r in feasible):
        problems.append("optimize.json: a feasible cell beats the best cell")
    for row in feasible:
        if not all(_rate(float(row[f"mean_{k}"])) for k in IMPACT_RATES):
            problems.append("evaluations.csv: a mean rate outside [0, 1]")
            break
    return problems


def _check_game(out, data, expected_degree):
    game = data["game.json"]
    problems = []
    if game["kind"] not in ("pure_nash", "cycle"):
        problems.append(f"game.json: unknown kind {game['kind']!r}")
    i, j = game["profile_index"]
    if not (0 <= i < len(game["strategies_left"])
            and 0 <= j < len(game["strategies_right"])):
        problems.append("game.json: profile_index outside the strategy sets")
    payoffs = [v for side in ("payoff_left", "payoff_right")
               for row in game[side] for v in row]
    if not all(math.isfinite(v) for v in payoffs):
        problems.append("game.json: non-finite payoff")
    return problems


def _check_falsify(out, data, expected_degree):
    problems = []
    for h in HYPOTHESES:
        report = data[f"falsify_{h}.json"]
        if not _rate(report["p_value"]) or not isinstance(report["reject"],
                                                          bool):
            problems.append(f"falsify_{h}.json: p_value or reject invalid")
    rows = _csv_rows(os.path.join(out, "falsify_summary.csv"))
    if sorted(r["id"] for r in rows) != sorted(HYPOTHESES):
        problems.append("falsify_summary.csv: wrong hypothesis rows")
    if not all(_rate(float(r["p_value"])) and r["reject"] in ("0", "1")
               for r in rows):
        problems.append("falsify_summary.csv: p_value or reject invalid")
    return problems


def _check_estimate(out, data, expected_degree):
    report = data["estimate.json"]
    problems = []
    for name, fit in report["fits"].items():
        if not all(math.isfinite(v) for v in fit["estimates"]
                   + fit["standard_errors"]):
            problems.append(f"estimate.json: non-finite {name} fit")
    if not report["factor_converged"]:
        problems.append("estimate.json: factor scores did not converge")
    return problems


def _check_calibrate(out, data, expected_degree):
    meta_reps = data["calibration.json"]["meta_reps"]
    rows = _csv_rows(os.path.join(out, "calibration.csv"))
    problems = []
    if sorted(r["id"] for r in rows) != sorted(HYPOTHESES):
        problems.append("calibration.csv: wrong hypothesis rows")
    for r in rows:
        rate, lo, hi = (float(r[k]) for k in ("rate", "ci_low", "ci_high"))
        if not (int(r["meta_reps"]) == meta_reps
                and 0 <= int(r["rejections"]) <= meta_reps
                and all(_rate(v) for v in (rate, lo, hi))
                and lo <= rate <= hi):
            problems.append(f"calibration.csv: {r['id']} row out of range")
    return problems


_VALUE_CHECKS = {
    "generate": _check_generate,
    "simulate": _check_simulate,
    "optimize": _check_optimize,
    "game": _check_game,
    "falsify": _check_falsify,
    "estimate": _check_estimate,
    "calibrate": _check_calibrate,
}


def check_step(command: str, flags: tuple[str, ...], out: str, seed: int,
               expected_degree: float | None = None
               ) -> tuple[list[str], dict[str, str]]:
    """(problems, {artifact: sha256}) for one finished step."""
    names = expected_artifacts(command, flags)
    missing = [n for n in names if not os.path.isfile(os.path.join(out, n))]
    if missing:
        return [f"missing artifact(s) {missing}"], {}
    problems: list[str] = []
    data = {}
    for name in names:
        path = os.path.join(out, name)
        if name.endswith(".json"):
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    data[name] = json.load(fh)
            except (OSError, ValueError) as exc:
                problems.append(f"{name}: does not parse ({exc})")
                continue
            if data[name].get("master_seed") != seed:
                problems.append(f"{name}: master_seed != seed {seed}")
        else:
            problems += _read_head(path, seed)
    if not problems:
        try:
            problems += _VALUE_CHECKS[command](out, data, expected_degree)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            problems.append(f"{command}: malformed artifact ({exc!r})")
    digests = {name: sha256(os.path.join(out, name)) for name in names}
    return problems, digests
