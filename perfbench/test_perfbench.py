"""Tests of the benchmark itself. Run from the repository root with

    python3 -m pytest -q perfbench
"""

import json
import os
import re
import sys

import pytest

import run
from checks import check_step
from tracing import Tracer, self_times

sys.path.insert(0, run.SRC)

import mobcast.cli  # noqa: E402
import mobcast.design  # noqa: E402
from mobcast.design import design_cost, enumerate_designs  # noqa: E402
from mobcast.graph import GraphConfig  # noqa: E402
from mobcast.scenario import (ama_default, derive_stream,  # noqa: E402
                              load_scenario)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_self_time_subtracts_children_on_a_nested_tree():
    # name, start, end, parent, step
    spans = [
        ["root", 0.0, 10.0, -1, "s"],
        ["a", 1.0, 4.0, 0, "s"],
        ["a.x", 1.5, 2.0, 1, "s"],
        ["a.y", 3.0, 3.5, 1, "s"],
        ["b", 5.0, 9.0, 0, "s"],
        ["b.x", 6.0, 8.0, 4, "s"],
        ["b.x.z", 6.5, 7.0, 5, "s"],
    ]
    assert self_times(spans) == pytest.approx(
        [10 - 3 - 4, 3 - 0.5 - 0.5, 0.5, 0.5, 4 - 2, 2 - 0.5, 0.5])


def test_self_time_counts_overlapping_children_once():
    spans = [["p", 0.0, 10.0, -1, ""], ["c1", 1.0, 5.0, 0, ""],
             ["c2", 3.0, 7.0, 0, ""], ["c3", 9.0, 12.0, 0, ""]]
    assert self_times(spans)[0] == pytest.approx(10 - 6 - 1)


def test_tracer_totals_by_step_and_name():
    tracer = Tracer("w")
    with tracer.span("cli.main", step="generate"):
        with tracer.span("graph.generate_network"):
            pass
    with tracer.span("cli.main", step="simulate"):
        pass
    totals = tracer.totals()
    assert totals["generate", "graph.generate_network"][0] == 1
    assert totals["simulate", "cli.main"][0] == 1
    assert len(totals) == 3


def test_wrappers_reach_every_module_that_bound_the_name():
    original = mobcast.design.generate_network
    config = GraphConfig(n=40, n_blocks=2, p_in=0.3, p_out=0.05)
    tracer = Tracer("w")
    with tracer.installed():  # raises if any target no longer exists
        mobcast.design.generate_network(config, derive_stream(1, "graph"))
        mobcast.cli.generate_network(config, derive_stream(2, "graph"))
        engine = mobcast.cli.CascadeEngine  # patched on the class
        assert engine.__init__.__wrapped__ is not None
    calls = {name: calls for (_, name), (calls, _) in tracer.totals().items()}
    assert calls == {"graph.generate_network": 2}
    assert tracer.counts["graph.generate_network.edges"] > 0
    assert mobcast.design.generate_network is original
    assert mobcast.cli.generate_network is original
    assert not hasattr(mobcast.cli.CascadeEngine.__init__, "__wrapped__")


def test_metric_names_are_valid_and_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for section, names in (("end_to_end", run.END_TO_END),
                           ("per_layer", run.PER_LAYER)):
        listed = [(m["name"], m["unit"]) for m in spec[section]]
        assert listed == list(names)
        for name, _ in names:
            assert NAME.fullmatch(name), name
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert len({n for n, _ in run.END_TO_END + run.PER_LAYER}) == \
        len(run.END_TO_END) + len(run.PER_LAYER)


def test_scale_scenario_loads_and_validates():
    scenario = load_scenario(run.WORKLOADS["scale-n10k"].scenario_ref())
    scenario.validate()
    assert scenario.graph.n == 10_000
    assert scenario.reps == 100
    assert scenario.space.budget == 12 + 0.25 * (500 - 20)
    expected_degree = (scenario.graph.p_in * (2500 - 1)
                       + scenario.graph.p_out * 7500)
    assert expected_degree == pytest.approx(0.15 * 99 + 0.005 * 300)


def test_scale_scenario_keeps_the_feasible_cells_of_ama_default():
    base = ama_default()
    designs = enumerate_designs(base.space, mobcast.design.scenario_graph(base))
    scale = load_scenario(run.WORKLOADS["scale-n10k"].scenario_ref())

    def feasible(scenario):
        return [design_cost(scenario.costs, d, scenario.graph.n)
                <= scenario.space.budget
                and d.toxicity <= scenario.space.toxicity_limit
                for d in designs]

    assert len(designs) == 32
    assert feasible(scale) == feasible(base)
    assert sum(feasible(base)) == 16


def test_check_step_passes_real_output_and_flags_a_broken_file(tmp_path):
    out = str(tmp_path)
    assert mobcast.cli.main(["generate", "--seed", "7", "--out", out]) == 0
    problems, digests = check_step("generate", (), out, seed=7)
    assert problems == []
    assert set(digests) == {"graph.txt", "structure.json"}
    problems, _ = check_step("generate", (), out, seed=8)
    assert problems  # the artifacts carry another seed
    with open(tmp_path / "structure.json", "w") as fh:
        fh.write("{")
    problems, _ = check_step("generate", (), out, seed=7)
    assert any("does not parse" in p for p in problems)
