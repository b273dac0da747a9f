"""Shared fixtures."""

import pytest


@pytest.fixture
def graph_samples(monkeypatch):
    """A list that grows by one per graph sampled through
    mobcast.design.generate_network (the path scenario_graph takes)."""
    import mobcast.design

    calls = []
    sample = mobcast.design.generate_network

    def counting(*args, **kwargs):
        calls.append(1)
        return sample(*args, **kwargs)

    monkeypatch.setattr(mobcast.design, "generate_network", counting)
    return calls


@pytest.fixture
def design_replications(monkeypatch):
    """A list that grows by one per mobcast.design.replicate_design call
    (the path every optimize cell takes)."""
    import mobcast.design

    calls = []
    replicate = mobcast.design.replicate_design

    def counting(*args, **kwargs):
        calls.append(1)
        return replicate(*args, **kwargs)

    monkeypatch.setattr(mobcast.design, "replicate_design", counting)
    return calls
