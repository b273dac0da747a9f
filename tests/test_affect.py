"""Design validation and affective response arithmetic."""

import numpy as np
import pytest

from mobcast.affect import (
    FORMATS,
    PARTICIPATORY_FORMATS,
    AffectParams,
    Design,
    DesignError,
    MeasurementParams,
    affect_vector,
    matching_vector,
    measure_items,
)
from mobcast.scenario import derive_stream


def make_design(**overrides):
    base = dict(format="theatre", symbols=(0.5,), hook=0.6,
                call_and_response=True, toxicity=0.0,
                seed_fraction=0.05, seeding="top_matching")
    base.update(overrides)
    return Design(**base)


def test_format_constants():
    assert set(PARTICIPATORY_FORMATS) < set(FORMATS)
    assert "meme" in FORMATS and "meme" not in PARTICIPATORY_FORMATS


@pytest.mark.parametrize("bad", [
    dict(format="opera"),
    dict(seeding="alphabetical"),
    dict(hook=1.2),
    dict(hook=-0.1),
    dict(toxicity=2.0),
    dict(seed_fraction=-0.5),
    dict(symbols=(0.5, 1.4)),
])
def test_design_validation(bad):
    with pytest.raises(DesignError):
        make_design(**bad).validate()


def test_design_dim_check():
    d = make_design(symbols=(0.2, 0.8))
    d.validate(identity_dim=2)
    with pytest.raises(DesignError):
        d.validate(identity_dim=1)


def test_design_is_hashable_and_ordered():
    a = make_design(format="meme")
    b = make_design(format="theatre")
    assert a < b  # "meme" < "theatre" lexicographically
    assert len({a, b, make_design(format="meme")}) == 2


def test_matching_is_symbol_similarity():
    d = make_design(symbols=(0.8,))
    assert matching_vector(np.array([0.3]), d) == pytest.approx(0.5)
    vec = matching_vector(np.array([[0.3], [0.8]]), d)
    assert vec == pytest.approx([0.5, 1.0])


def hand_affect(params, exposed, match, context, design):
    e = 1.0 if exposed else 0.0
    return (params.a0 + params.a1 * (1.0 + design.hook) * e + params.a2 * match
            + params.a3 * context + params.a4 * e * match
            + params.a5 * e * context)


def test_form_affect_hand_arithmetic():
    params = AffectParams(a0=0.1, a1=0.2, a2=0.5, a3=0.3, a4=0.4, a5=0.6,
                          sigma_u=0.0)
    d = make_design(hook=0.5)
    v, v0 = affect_vector(params, np.array([True, False]), np.full(2, 0.7),
                          np.full(2, 0.9), d)
    # exposed: 0.1 + 0.2*1.5 + 0.5*0.7 + 0.3*0.9 + 0.4*0.7 + 0.6*0.9
    assert v == pytest.approx(0.1 + 0.3 + 0.35 + 0.27 + 0.28 + 0.54)
    # unexposed: all exposure terms drop out
    assert v0 == pytest.approx(0.1 + 0.35 + 0.27)


def test_affect_vector_matches_scalar_path():
    params = AffectParams(sigma_u=0.0)
    d = make_design()
    exposure = np.array([True, False, True])
    match = np.array([0.2, 0.9, 0.6])
    context = np.array([0.8, 0.1, 0.5])
    vec = affect_vector(params, exposure, match, context, d)
    for i in range(3):
        expected = hand_affect(params, bool(exposure[i]), float(match[i]),
                               float(context[i]), d)
        assert vec[i] == pytest.approx(expected)


def test_affect_noise_scale():
    params = AffectParams(sigma_u=0.3)
    d = make_design()
    n = 4000
    rng = derive_stream(21, "affect-noise")
    vec = affect_vector(params, np.zeros(n, dtype=bool), np.full(n, 0.5),
                        np.full(n, 0.5), d, rng)
    base = hand_affect(params, False, 0.5, 0.5, d)
    resid = vec - base
    assert abs(resid.mean()) < 0.02
    assert resid.std() == pytest.approx(0.3, rel=0.1)


def test_affect_params_validation():
    with pytest.raises(DesignError):
        AffectParams(sigma_u=-0.1).validate()


def test_measurement_params_validation():
    with pytest.raises(DesignError):
        MeasurementParams(loadings=(1.0, 0.8), intercepts=(0.0,)).validate()
    with pytest.raises(DesignError):
        MeasurementParams(loadings=(), intercepts=()).validate()
    with pytest.raises(DesignError):
        MeasurementParams(sigma_eps=-1.0).validate()


def test_measure_items_noiseless_is_exact():
    params = MeasurementParams(loadings=(1.0, 0.5), intercepts=(0.1, -0.2),
                               sigma_eps=0.0)
    affect = np.array([0.0, 2.0])
    y = measure_items(params, affect, derive_stream(5))
    assert y == pytest.approx(np.array([[0.1, -0.2], [2.1, 0.8]]))


def test_measure_items_noise_scale():
    params = MeasurementParams(loadings=(1.0,), intercepts=(0.0,),
                               sigma_eps=0.25)
    affect = np.zeros(5000)
    y = measure_items(params, affect, derive_stream(6, "items"))
    assert y.std() == pytest.approx(0.25, rel=0.1)
