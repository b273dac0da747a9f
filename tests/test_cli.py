"""End-to-end CLI checks on a small scenario file.

Each subcommand runs in-process through main(); the tests look at exit
codes, artifact structure, and byte-level reproducibility. The heavier
determinism contract (jobs 1 vs 8 on the shipped calibration) is
enforced by the acceptance suite.
"""

import json
import multiprocessing
import re
from dataclasses import replace

import pytest

from mobcast.artifacts import jsonable
from mobcast.cli import IMPACT_COLUMNS, TRACE_COLUMNS, main
from mobcast.estimate import (factor_scores, fit_activation, fit_affect_ols,
                              fit_edge_transmission, read_panel_csv)
from mobcast.falsify import HYPOTHESES, calibration_scenario
from mobcast.graph import GraphConfig, load_edge_list
from mobcast.scenario import (
    DesignSpace,
    ama_default,
    save_scenario,
    scenario_hash,
)


@pytest.fixture(scope="module")
def scenario_file(tmp_path_factory):
    base = ama_default()
    scenario = replace(
        base,
        name="cli-small",
        master_seed=604,
        reps=6,
        graph=GraphConfig(n=120, n_blocks=4, p_in=0.3, p_out=0.05,
                          identity_dim=1),
        design=replace(base.design, seed_fraction=0.1),
        space=DesignSpace(formats=("meme", "theatre"), hooks=(0.6,),
                          call_and_response=(True,), toxicities=(0.0,),
                          seed_fractions=(0.1,), seedings=("top_matching",),
                          budget=12.0, toxicity_limit=0.5),
    )
    path = tmp_path_factory.mktemp("scenario") / "small.cfg"
    save_scenario(scenario, str(path))
    return str(path), scenario


def read_lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read().splitlines()


def test_generate(scenario_file, tmp_path):
    path, scenario = scenario_file
    assert main(["generate", "--scenario", path, "--out", str(tmp_path)]) == 0
    graph = load_edge_list(str(tmp_path / "graph.txt"))
    assert graph.n == 120 and graph.n_blocks == 4
    structure = json.loads((tmp_path / "structure.json").read_text())
    assert structure["scenario_name"] == "cli-small"
    assert structure["scenario_hash"] == scenario_hash(scenario)
    assert structure["structure"]["n"] == 120
    assert 0.0 <= structure["structure"]["homophily_index"] <= 1.0


def test_simulate_outputs_and_reproducibility(scenario_file, tmp_path):
    path, scenario = scenario_file
    out1, out2, out3 = (tmp_path / d for d in ("a", "b", "c"))
    assert main(["simulate", "--scenario", path, "--out", str(out1),
                 "--trace"]) == 0
    lines = read_lines(out1 / "impacts.csv")
    assert lines[0] == (f"# scenario=cli-small "
                        f"scenario_hash={scenario_hash(scenario)} "
                        f"master_seed=604")
    assert lines[1] == ",".join(IMPACT_COLUMNS)
    assert len(lines) == 2 + scenario.reps
    first_row = lines[2].split(",")
    assert first_row[0] == "0"
    assert 0.0 <= float(first_row[1]) <= 1.0

    summary = json.loads((out1 / "summary.json").read_text())
    assert summary["master_seed"] == 604
    assert set(summary["aggregates"]) == {"participation", "cohesion",
                                          "sway", "polarization", "i_p"}
    assert summary["aggregates"]["i_p"]["se"] >= 0.0
    assert summary["design"]["format"] == "theatre"

    trace = read_lines(out1 / "trace.csv")
    assert trace[1] == ",".join(TRACE_COLUMNS)
    assert len(trace) == 2 + scenario.reps * scenario.graph.n

    # identical bytes on rerun and under a different worker count
    assert main(["simulate", "--scenario", path, "--out", str(out2)]) == 0
    assert main(["simulate", "--scenario", path, "--out", str(out3),
                 "--jobs", "2"]) == 0
    base = (out1 / "impacts.csv").read_bytes()
    assert (out2 / "impacts.csv").read_bytes() == base
    assert (out3 / "impacts.csv").read_bytes() == base
    assert (out2 / "summary.json").read_bytes() == \
        (out3 / "summary.json").read_bytes()


def test_simulate_seed_and_reps_overrides(scenario_file, tmp_path):
    path, _ = scenario_file
    out = tmp_path / "o"
    assert main(["simulate", "--scenario", path, "--out", str(out),
                 "--seed", "99", "--reps", "3"]) == 0
    lines = read_lines(out / "impacts.csv")
    assert "master_seed=99" in lines[0]
    assert len(lines) == 2 + 3


def test_optimize_outputs(scenario_file, tmp_path):
    path, scenario = scenario_file
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["optimize", "--scenario", path, "--out", str(out1)]) == 0
    lines = read_lines(out1 / "evaluations.csv")
    header = lines[1].split(",")
    assert header[:7] == ["format", "hook", "call_and_response", "toxicity",
                          "seed_fraction", "seeding", "symbols"]
    assert len(lines) == 2 + 2  # two designs in the small space
    report = json.loads((out1 / "optimize.json").read_text())
    assert report["evaluations"] == 2
    assert report["best_design"]["format"] in ("meme", "theatre")
    assert report["budget_slack"] >= 0.0

    assert main(["optimize", "--scenario", path, "--out", str(out2),
                 "--jobs", "2"]) == 0
    assert (out1 / "evaluations.csv").read_bytes() == \
        (out2 / "evaluations.csv").read_bytes()
    assert (out1 / "optimize.json").read_bytes() == \
        (out2 / "optimize.json").read_bytes()


def test_game_output(scenario_file, tmp_path):
    path, _ = scenario_file
    assert main(["game", "--scenario", path, "--out", str(tmp_path),
                 "--reps", "4"]) == 0
    report = json.loads((tmp_path / "game.json").read_text())
    assert report["kind"] in ("pure_nash", "cycle")
    i, j = report["profile_index"]
    assert report["profile"][0] == report["strategies_left"][i]
    assert report["profile"][1] == report["strategies_right"][j]
    assert len(report["payoff_left"]) == len(report["strategies_left"])
    assert report["trajectory"][0] == [0, 0]


PROGRESS = re.compile(r"(falsify H0_\w+ reject=[01]"
                      r"|calibrate H0_\w+ (\d+)/\2 rejections=\d+)"
                      r" \d+\.\ds")


def assert_progress(err, command):
    """One stderr line per hypothesis, in suite order."""
    lines = err.splitlines()
    assert len(lines) == len(HYPOTHESES)
    for line, hid in zip(lines, HYPOTHESES):
        assert line.startswith(f"{command} {hid} ")
        assert PROGRESS.fullmatch(line), line


def test_falsify_outputs(scenario_file, tmp_path, capsys):
    path, _ = scenario_file
    assert main(["falsify", "--scenario", path, "--out", str(tmp_path),
                 "--reps", "30"]) == 0
    out, err = capsys.readouterr()
    assert all(line.startswith("wrote ") for line in out.splitlines())
    assert_progress(err, "falsify")
    lines = read_lines(tmp_path / "falsify_summary.csv")
    assert lines[1] == "id,statistic,p_value,alpha,reject"
    ids = [row.split(",")[0] for row in lines[2:]]
    assert ids == ["H0_context", "H0_affect", "H0_format", "H0_network",
                   "H0_ethics"]
    for row in lines[2:]:
        cells = row.split(",")
        assert cells[4] in ("0", "1")
        assert 0.0 <= float(cells[2]) <= 1.0
    one = json.loads((tmp_path / "falsify_H0_format.json").read_text())
    assert one["id"] == "H0_format"
    assert isinstance(one["reject"], bool)
    assert one["components"]


def test_estimate_outputs(scenario_file, tmp_path):
    path, _ = scenario_file
    assert main(["estimate", "--scenario", path, "--out", str(tmp_path),
                 "--reps", "2"]) == 0
    agents = read_lines(tmp_path / "panel_agents.csv")
    assert agents[0].startswith("# scenario=cli-small")
    assert agents[1].startswith("arm,rep,agent,y1,")
    # two arms, two reps, 120 agents each
    assert len(agents) == 2 + 2 * 2 * 120
    est = json.loads((tmp_path / "estimate.json").read_text())
    assert set(est["fits"]) == {"affect_ols_oracle",
                                "affect_ols_measurement",
                                "activation_oracle", "edge_transmission"}
    oracle = est["fits"]["affect_ols_oracle"]
    assert oracle["names"] == ["intercept", "exposure", "matching", "context",
                               "exposure_x_matching", "exposure_x_context"]
    assert len(est["implied_affect_coefficients"]) == 6
    assert len(est["factor_loadings"]) == 5


def test_estimate_fits_refit_from_its_csvs(scenario_file, tmp_path):
    """estimate fits the in-memory panel; its two CSVs must be enough to
    refit and get the very same numbers."""
    path, _ = scenario_file
    assert main(["estimate", "--scenario", path, "--out", str(tmp_path),
                 "--reps", "2"]) == 0
    panel = read_panel_csv(str(tmp_path / "panel_agents.csv"),
                           str(tmp_path / "panel_edges.csv"))
    scores, loadings, _, _ = factor_scores(panel.items)
    refit = {
        "affect_ols_oracle": fit_affect_ols(
            panel.affect, panel.exposure, panel.matching, panel.context),
        "affect_ols_measurement": fit_affect_ols(
            scores, panel.exposure, panel.matching, panel.context),
        "activation_oracle": fit_activation(panel, mode="oracle"),
        "edge_transmission": fit_edge_transmission(panel),
    }
    est = json.loads((tmp_path / "estimate.json").read_text())
    assert json.loads(json.dumps(jsonable(refit))) == est["fits"]
    assert list(loadings) == est["factor_loadings"]


def test_calibrate_outputs(scenario_file, tmp_path, capsys):
    path, _ = scenario_file
    assert main(["calibrate", "--scenario", path, "--out", str(tmp_path),
                 "--meta-reps", "2"]) == 0
    out, err = capsys.readouterr()
    assert all(line.startswith("wrote ") for line in out.splitlines())
    assert_progress(err, "calibrate")
    assert " 2/2 " in err
    lines = read_lines(tmp_path / "calibration.csv")
    assert lines[1] == "id,meta_reps,rejections,rate,ci_low,ci_high,alpha"
    assert len(lines) == 2 + 5
    payload = json.loads((tmp_path / "calibration.json").read_text())
    assert payload["meta_reps"] == 2
    assert len(payload["calibration"]) == 5


@pytest.fixture
def spawned_pools(monkeypatch):
    """A list that grows by one per spawn-context Pool created."""
    spawn = type(multiprocessing.get_context("spawn"))
    pools = []
    make_pool = spawn.Pool

    def counting(self, *args, **kwargs):
        pools.append(1)
        return make_pool(self, *args, **kwargs)

    monkeypatch.setattr(spawn, "Pool", counting)
    return pools


def test_falsify_bytes_do_not_depend_on_jobs(scenario_file, tmp_path,
                                             spawned_pools):
    path, _ = scenario_file
    outs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert main(["falsify", "--scenario", path, "--out", str(out),
                     "--reps", "30", "--jobs", jobs]) == 0
        outs.append(out)
    # only the ethics design grid (two cells here) goes to a pool
    assert len(spawned_pools) == 1
    names = [f"falsify_{hid}.json" for hid in HYPOTHESES]
    for name in names + ["falsify_summary.csv"]:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_calibrate_bytes_do_not_depend_on_jobs(scenario_file, tmp_path,
                                               spawned_pools):
    path, _ = scenario_file
    outs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert main(["calibrate", "--scenario", path, "--out", str(out),
                     "--meta-reps", "4", "--jobs", jobs]) == 0
        outs.append(out)
        # jobs 1 runs in process; jobs 2 shares one pool across all five
        # hypotheses
        assert len(spawned_pools) == int(jobs) - 1
    for name in ("calibration.csv", "calibration.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


@pytest.mark.parametrize("command", ["generate", "simulate", "optimize",
                                     "game", "falsify", "estimate",
                                     "calibrate"])
def test_jobs_below_one_is_rejected(scenario_file, tmp_path, capsys, command):
    path, _ = scenario_file
    assert main([command, "--scenario", path, "--out", str(tmp_path),
                 "--jobs", "0"]) == 2
    assert "--jobs" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("flags, source", [([], "scenario"),
                                           (["--reps", "12"], "--reps")])
def test_falsify_refuses_too_few_reps(scenario_file, tmp_path, capsys,
                                      flags, source):
    path, scenario = scenario_file
    assert scenario.reps < 30  # the fixture's own count is too small
    assert main(["falsify", "--scenario", path, "--out", str(tmp_path),
                 *flags]) == 2
    err = capsys.readouterr().err
    assert "at least 30 reps" in err and source in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["generate", "optimize", "game",
                                     "falsify", "estimate", "calibrate"])
def test_trace_is_a_simulate_only_flag(scenario_file, tmp_path, capsys,
                                       command):
    path, _ = scenario_file
    with pytest.raises(SystemExit) as exc:
        main([command, "--scenario", path, "--out", str(tmp_path),
              "--trace"])
    assert exc.value.code == 2
    assert "--trace" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_generate_rejects_parallel_jobs(scenario_file, tmp_path, capsys):
    path, _ = scenario_file
    out = tmp_path / "two"
    assert main(["generate", "--scenario", path, "--out", str(out),
                 "--jobs", "2"]) == 2
    assert "--jobs" in capsys.readouterr().err
    assert not out.exists()
    one = tmp_path / "one"
    assert main(["generate", "--scenario", path, "--out", str(one),
                 "--jobs", "1"]) == 0


@pytest.mark.parametrize("section, line", [
    ("affect", "a1 = nan"),
    ("transmission", "l0 = inf"),
    ("costs", "meme = -5"),
])
def test_simulate_rejects_non_finite_and_negative_input(tmp_path, capsys,
                                                        section, line):
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"[scenario]\nmaster_seed = 1\n\n[{section}]\n{line}\n")
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(bad), "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_calibrate_stamps_the_scenario_it_ran(scenario_file, tmp_path,
                                              capsys):
    path, scenario = scenario_file
    out = tmp_path / "run"
    assert main(["calibrate", "--scenario", path, "--out", str(out),
                 "--meta-reps", "2"]) == 0
    csv = (out / "calibration.csv").read_text()
    ran = calibration_scenario(scenario)
    assert f"scenario_hash={scenario_hash(ran)}" in csv.splitlines()[0]
    # calibration_scenario fixes its own reps, so --reps is refused
    refused = tmp_path / "refused"
    with pytest.raises(SystemExit) as exc:
        main(["calibrate", "--scenario", path, "--out", str(refused),
              "--meta-reps", "2", "--reps", "200"])
    assert exc.value.code == 2
    assert "--reps" in capsys.readouterr().err
    assert not refused.exists()


def test_generate_refuses_reps(scenario_file, tmp_path, capsys):
    path, _ = scenario_file
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--scenario", path, "--out", str(tmp_path),
              "--reps", "7"])
    assert exc.value.code == 2
    assert "--reps" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("name_line", ["name =", "name = my run",
                                       "name = my\n  run"])
def test_scenario_name_must_be_one_meta_line_token(tmp_path, capsys,
                                                   name_line):
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"[scenario]\n{name_line}\nmaster_seed = 3\n")
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(bad), "--out", str(out)]) == 2
    assert "scenario name" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, names", [
    (["generate"], ["graph.txt"]),
    (["simulate", "--trace"], ["impacts.csv", "trace.csv"]),
    (["optimize"], ["evaluations.csv"]),
    (["game"], []),
    (["falsify", "--reps", "30"], ["falsify_summary.csv"]),
    (["estimate", "--reps", "2"], ["panel_agents.csv", "panel_edges.csv"]),
    (["calibrate", "--meta-reps", "2"], ["calibration.csv"]),
], ids=["generate", "simulate", "optimize", "game", "falsify", "estimate",
        "calibrate"])
def test_artifacts_open_with_the_meta_line_of_the_scenario_that_ran(
        scenario_file, tmp_path, argv, names):
    """Every CSV, and graph.txt, starts with the meta line of the scenario
    that produced it: for calibrate, calibration_scenario's."""
    path, scenario = scenario_file
    assert main([*argv, "--scenario", path, "--out", str(tmp_path)]) == 0
    written = sorted(p.name for p in tmp_path.iterdir()
                     if p.suffix == ".csv" or p.name == "graph.txt")
    assert written == sorted(names)
    ran = scenario
    if argv[0] == "calibrate":
        ran = calibration_scenario(scenario)
    meta = (f"# scenario={ran.name} scenario_hash={scenario_hash(ran)} "
            f"master_seed={ran.master_seed}")
    for name in names:
        assert read_lines(tmp_path / name)[0] == meta, name


def test_preset_and_error_paths(tmp_path, capsys):
    assert main(["generate", "--scenario", "ama-fragmented",
                 "--out", str(tmp_path)]) == 0
    assert (tmp_path / "graph.txt").exists()

    assert main(["generate", "--scenario", "no-such-file.cfg",
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "preset" in err

    bad = tmp_path / "bad.cfg"
    bad.write_text("[scenario]\nname = broken\n")
    assert main(["simulate", "--scenario", str(bad),
                 "--out", str(tmp_path)]) == 2
