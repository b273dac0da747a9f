"""Scenario serialization, hashing, presets, and stream derivation."""

from dataclasses import replace

import numpy as np
import pytest

from mobcast.affect import AffectParams, MeasurementParams
from mobcast.diffusion import DecisionParams, TransmissionParams
from mobcast.impact import ImpactWeights
from mobcast.scenario import (
    PRESET_NAMES,
    CostModel,
    Scenario,
    ScenarioError,
    ama_default,
    derive_stream,
    load_scenario,
    preset_scenario,
    save_scenario,
    scenario_hash,
    scenario_to_text,
)


def test_save_load_round_trip(tmp_path):
    scenario = replace(
        ama_default(),
        name="round-trip",
        master_seed=991,
        reps=17,
        graph=replace(ama_default().graph, n=120, p_in=0.1 + 0.2),
        affect=replace(ama_default().affect, sigma_u=0.1 + 0.2),
    )
    path = tmp_path / "s.cfg"
    save_scenario(scenario, str(path))
    loaded = load_scenario(str(path))
    assert loaded == scenario
    assert scenario_hash(loaded) == scenario_hash(scenario)
    # awkward binary floats survive the text round trip exactly
    assert loaded.graph.p_in == 0.1 + 0.2


def test_hash_is_stable_and_sensitive():
    a = ama_default()
    assert scenario_hash(a) == scenario_hash(ama_default())
    b = replace(a, reps=a.reps + 1)
    assert scenario_hash(b) != scenario_hash(a)
    c = replace(a, transmission=replace(a.transmission, l3=0.0))
    assert scenario_hash(c) != scenario_hash(a)


def test_loader_requires_master_seed(tmp_path):
    p = tmp_path / "no_seed.cfg"
    p.write_text("[scenario]\nname = x\n")
    with pytest.raises(ScenarioError):
        load_scenario(str(p))


def test_loader_rejects_unknown_sections_and_keys(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("[scenario]\nmaster_seed = 1\n\n[weather]\nrain = yes\n")
    with pytest.raises(ScenarioError):
        load_scenario(str(p))
    p.write_text("[scenario]\nmaster_seed = 1\n\n[graph]\nshape = torus\n")
    with pytest.raises(ScenarioError):
        load_scenario(str(p))
    p.write_text("[scenario]\nmaster_seed = 1\nflavor = mild\n")
    with pytest.raises(ScenarioError):
        load_scenario(str(p))


def test_loader_defaults_name_to_custom(tmp_path):
    p = tmp_path / "anon.cfg"
    p.write_text("[scenario]\nmaster_seed = 5\n")
    s = load_scenario(str(p))
    assert s.name == "custom"
    assert s.master_seed == 5
    # everything else inherits the default calibration
    assert s.graph == ama_default().graph


def test_loader_validates_merged_scenario(tmp_path):
    p = tmp_path / "invalid.cfg"
    p.write_text("[scenario]\nmaster_seed = 1\n\n[graph]\np_in = 1.7\n")
    # nested configs raise their own ValueError subclass (here GraphError)
    with pytest.raises(ValueError):
        load_scenario(str(p))


def test_malformed_file_raises_scenario_error(tmp_path):
    p = tmp_path / "mangled.cfg"
    p.write_text("graph]\nn = 4\n")
    with pytest.raises(ScenarioError):
        load_scenario(str(p))


def test_shipped_default_file_matches_code(tmp_path):
    # scenarios/ama-default.cfg must stay in sync with the dataclass defaults
    shipped = load_scenario("scenarios/ama-default.cfg")
    assert shipped == ama_default()


def test_presets():
    assert PRESET_NAMES == ("ama-default", "ama-fragmented")
    assert preset_scenario("ama-default") == ama_default()
    frag = preset_scenario("ama-fragmented")
    assert frag.graph.context == "fragmented"
    assert frag.name == "ama-fragmented"
    for name in PRESET_NAMES:
        preset_scenario(name).validate()
    with pytest.raises(ScenarioError):
        preset_scenario("ama-classic")


def test_default_calibration_headline_values():
    s = ama_default()
    assert s.master_seed == 20240817
    assert s.reps == 300
    assert (s.graph.n, s.graph.n_blocks) == (400, 4)
    assert (s.graph.p_in, s.graph.p_out) == (0.15, 0.005)
    assert s.design.format == "theatre"
    assert s.decision.tau_lo == 0.95 and s.decision.tau_hi == 1.25
    assert s.space.toxicity_limit == 0.5


def test_scenario_validation():
    with pytest.raises(ScenarioError):
        replace(ama_default(), reps=0).validate()
    with pytest.raises(ScenarioError):
        replace(ama_default(), master_seed=-1).validate()
    with pytest.raises(ScenarioError):
        replace(ama_default(), max_rounds=0).validate()
    with pytest.raises(ScenarioError):
        replace(ama_default(), costs=CostModel(per_seed=-0.25)).validate()
    with pytest.raises(ScenarioError):
        replace(ama_default(), costs=CostModel(mural=float("nan"))).validate()


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("section, params", [
    ("transmission", TransmissionParams(l0=NAN)),
    ("transmission", TransmissionParams(l4_tox=-INF)),
    ("affect", AffectParams(a1=NAN)),
    ("affect", AffectParams(sigma_u=NAN)),
    ("decision", DecisionParams(b1=INF)),
    ("decision", DecisionParams(sigma_noise=NAN)),
    ("measurement", MeasurementParams(loadings=(1.0, NAN, 0.7, 0.9, 0.75))),
    ("measurement", MeasurementParams(intercepts=(0.0, 0.0, 0.0, 0.0, INF))),
    ("impact", ImpactWeights(kappa=NAN)),
    ("graph", replace(ama_default().graph, identity_spread=NAN)),
    ("game", replace(ama_default().game, w_sway=NAN)),
    ("space", replace(ama_default().space, budget=NAN)),
])
def test_non_finite_parameters_fail_validation(section, params):
    with pytest.raises(ValueError, match="must be finite"):
        params.validate()
    with pytest.raises(ValueError, match="must be finite"):
        replace(ama_default(), **{section: params}).validate()


def test_scenario_text_is_deterministic():
    assert scenario_to_text(ama_default()) == scenario_to_text(ama_default())


def test_derive_stream_determinism_and_label_separation():
    a = derive_stream(42, "graph", 3).random(8)
    b = derive_stream(42, "graph", 3).random(8)
    assert np.array_equal(a, b)
    c = derive_stream(42, "graph", 4).random(8)
    d = derive_stream(42, "panel", 3).random(8)
    e = derive_stream(43, "graph", 3).random(8)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    assert not np.array_equal(a, e)
    # string labels and their numeric spellings must not collide
    f = derive_stream(42, "3").random(8)
    g = derive_stream(42, 3).random(8)
    assert not np.array_equal(f, g)
