"""Falsification harness: null switches, report structure, one quick
effect-mode run per hypothesis, and a calibration smoke test.

Proper type-I calibration (400 meta-replications per test) runs in the
acceptance suite.
"""

from dataclasses import replace

import pytest

from mobcast.affect import DesignError
from mobcast.falsify import (
    HYPOTHESES,
    HypothesisSpec,
    calibrate,
    calibration_scenario,
    null_scenario,
    null_settings,
    run_test,
)
from mobcast.scenario import Scenario, ama_default


def make_spec(hid, null=False, reps=40):
    return HypothesisSpec(id=hid, scenario=calibration_scenario(Scenario()),
                          null=null, reps=reps)


def test_hypothesis_ids():
    assert HYPOTHESES == ("H0_context", "H0_affect", "H0_format",
                          "H0_network", "H0_ethics")


def test_spec_validation():
    with pytest.raises(DesignError):
        make_spec("H0_gravity").validate()
    with pytest.raises(DesignError):
        make_spec("H0_context", reps=10).validate()
    with pytest.raises(DesignError):
        replace(make_spec("H0_context"), alpha=1.5).validate()


def test_null_settings_contents():
    assert null_settings("H0_context") == {}
    affect_null = null_settings("H0_affect")
    assert affect_null["a1"] == 0.0 and affect_null["b1"] == 0.0
    assert affect_null["b0"] == pytest.approx(1.05)
    fmt = null_settings("H0_format")
    assert fmt == {"l3": 0.0, "cnr_boost": 1.0}
    net = null_settings("H0_network")
    assert net["l2"] == 0.0 and net["b1"] == 0.0
    assert null_settings("H0_ethics") == {"l4_tox": 0.0}


def test_null_scenario_applies_to_right_sections():
    spec = make_spec("H0_format", null=True)
    s = null_scenario(spec)
    assert s.transmission.l3 == 0.0
    assert s.decision.cnr_boost == 1.0
    # untouched sections keep their calibration
    assert s.affect == spec.scenario.affect
    assert s.transmission.l2 == spec.scenario.transmission.l2
    # null=False passes the scenario through unchanged
    assert null_scenario(make_spec("H0_format")) == make_spec("H0_format").scenario


def test_effect_mode_rejects_each_hypothesis():
    # the default calibration carries all five effects; a single seeded
    # run of each test should find its signal at these replication counts
    for hid in HYPOTHESES:
        report = run_test(make_spec(hid))
        assert report.id == hid
        assert report.reject, f"{hid} failed to detect its effect"
        assert report.p_value < report.alpha
        assert report.components
        for comp in report.components:
            assert comp.p_adjusted >= comp.p_value - 1e-15
        best = min(c.p_adjusted for c in report.components)
        assert report.p_value == best
        assert report.arms, f"{hid} reported no arm summaries"
        for summary in report.arms.values():
            assert summary["reps"] >= 30


def test_reports_are_reproducible():
    a = run_test(make_spec("H0_context"))
    b = run_test(make_spec("H0_context"))
    assert a.p_value == b.p_value
    assert a.statistic == b.statistic
    c = run_test(replace(make_spec("H0_context"), master_seed=12345))
    assert (a.p_value, a.statistic) != (c.p_value, c.statistic)


def test_null_mode_produces_flat_contrast():
    # under the affect null both arms use the same inert generator, so
    # the statistic should be far from the effect-mode one
    effect = run_test(make_spec("H0_affect"))
    null = run_test(make_spec("H0_affect", null=True))
    assert abs(null.statistic) < abs(effect.statistic)


def test_ethics_samples_the_scenario_graph_once(graph_samples):
    run_test(make_spec("H0_ethics", reps=30))
    assert len(graph_samples) == 1
    calibrate(make_spec("H0_ethics", reps=30), meta_reps=2)
    assert len(graph_samples) == 3


def test_ethics_scores_its_design_grid_once(design_replications):
    # ama-default's 32-design space: every design is scored once by the
    # unconstrained optimize; the 16 designs under the 0.2 cap are not
    # scored a second time
    spec = replace(make_spec("H0_ethics", reps=30),
                   space=ama_default().space)
    report = run_test(spec)
    assert len(design_replications) == 32
    assert report.details["constrained_toxicity"] <= spec.constrained_limit


def test_calibrate_smoke():
    report = calibrate(make_spec("H0_context"), meta_reps=3)
    assert report.meta_reps == 3
    assert 0 <= report.rejections <= 3
    assert 0.0 <= report.ci_low <= report.rate <= report.ci_high <= 1.0
    with pytest.raises(DesignError):
        calibrate(make_spec("H0_context"), meta_reps=0)


def test_calibration_scenario_is_small():
    s = calibration_scenario(Scenario())
    assert s.graph.n == 80
    assert s.reps == 40
    assert len(s.space.formats) == 2
    assert s.space.toxicities == (0.0, 0.6)
