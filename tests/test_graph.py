"""Network generator tests: block layout, homophily, persistence, and the
chunked pair-coin sampler against its dense reference."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import mobcast.graph
from mobcast.graph import (
    GraphConfig,
    GraphError,
    SocialGraph,
    block_centers,
    generate_network,
    homophily_index,
    identity_similarity,
    load_edge_list,
    modularity,
    save_edge_list,
    structure_summary,
)
from mobcast.scenario import derive_stream
from oracles import dense_pair_coins


def small_config(**overrides):
    base = dict(n=60, n_blocks=3, p_in=0.3, p_out=0.02, identity_dim=2)
    base.update(overrides)
    return GraphConfig(**base)


@pytest.mark.parametrize("bad", [
    dict(n=0),
    dict(n_blocks=0),
    dict(n_blocks=61),
    dict(p_in=-0.1),
    dict(p_out=1.5),
    dict(identity_dim=0),
    dict(identity_spread=-1.0),
    dict(context="urban"),
])
def test_config_validation(bad):
    with pytest.raises(GraphError):
        generate_network(small_config(**bad), derive_stream(1))


def test_generation_is_deterministic_given_stream():
    cfg = small_config()
    g1 = generate_network(cfg, derive_stream(9, "graph"))
    g2 = generate_network(cfg, derive_stream(9, "graph"))
    assert np.array_equal(g1.edges, g2.edges)
    assert np.array_equal(g1.identity, g2.identity)
    assert np.array_equal(g1.context, g2.context)
    g3 = generate_network(cfg, derive_stream(10, "graph"))
    assert not np.array_equal(g1.context, g3.context)


def test_blocks_are_contiguous_near_equal_slices():
    g = generate_network(small_config(n=10, n_blocks=4, p_in=0.0, p_out=0.0),
                         derive_stream(2))
    assert g.block.tolist() == [0, 0, 0, 1, 1, 2, 2, 2, 3, 3]


def test_block_centers_layout():
    c1 = block_centers(4, 1)
    assert np.allclose(c1[:, 0], [0.0, 1 / 3, 2 / 3, 1.0])
    assert np.allclose(block_centers(1, 3), 0.5)
    c2 = block_centers(5, 2)
    radii = np.sqrt(np.sum((c2 - 0.5) ** 2, axis=1))
    assert np.allclose(radii, 0.45)
    # all pairwise distances respect the documented floor
    floor = 2 * 0.45 * np.sin(np.pi / 5)
    for a in range(5):
        for b in range(a + 1, 5):
            assert np.linalg.norm(c2[a] - c2[b]) >= floor - 1e-12
    c3 = block_centers(3, 4)
    assert np.allclose(c3[:, 2:], 0.5)


def test_identities_cluster_around_centers():
    cfg = small_config(identity_spread=0.01)
    g = generate_network(cfg, derive_stream(3))
    centers = block_centers(cfg.n_blocks, cfg.identity_dim)
    err = np.abs(g.identity - centers[g.block])
    assert err.max() <= 0.01 + 1e-12
    assert g.identity.min() >= 0.0 and g.identity.max() <= 1.0


def test_context_presets_bound_draws():
    for name, (lo, hi) in [("community", (0.7, 1.0)), ("fragmented", (0.0, 0.3))]:
        g = generate_network(small_config(context=name), derive_stream(4, name))
        assert g.context.min() >= lo and g.context.max() <= hi
    custom = small_config(context="custom", context_mean=0.5, context_spread=0.1)
    g = generate_network(custom, derive_stream(5))
    assert g.context.min() >= 0.4 and g.context.max() <= 0.6
    point = small_config(context="custom", context_mean=0.25, context_spread=0.0)
    g = generate_network(point, derive_stream(6))
    assert np.allclose(g.context, 0.25)


def test_extreme_mixing_rates():
    g = generate_network(small_config(n=30, p_in=1.0, p_out=0.0),
                         derive_stream(7))
    assert g.n_edges > 0
    assert homophily_index(g) == 1.0
    same = g.block[g.edges[:, 0]] == g.block[g.edges[:, 1]]
    assert same.all()


@pytest.mark.parametrize("n, n_blocks, p_in, p_out, chunk", [
    (1, 1, 0.5, 0.5, None),
    (2, 1, 1.0, 1.0, None),
    (2, 2, 0.0, 0.0, None),
    (3, 3, 0.2, 0.9, None),
    (50, 50, 0.3, 0.3, 97),
    (50, 5, 0.1, 0.6, 97),
    (50, 1, 1.0, 1.0, 97),
    (50, 5, 0.0, 1.0, 97),
    (3000, 4, 0.05, 0.001, None),  # 4,498,500 pairs: five full-size chunks
])
def test_chunked_pair_coins_match_dense_reference(monkeypatch, n, n_blocks,
                                                  p_in, p_out, chunk):
    cfg = GraphConfig(n=n, n_blocks=n_blocks, p_in=p_in, p_out=p_out)
    if chunk is not None:
        monkeypatch.setattr(mobcast.graph, "_PAIR_CHUNK", chunk)
    rng = derive_stream(13, n, "graph")
    g = generate_network(cfg, rng)
    monkeypatch.setattr(mobcast.graph, "_pair_coins", dense_pair_coins)
    ref_rng = derive_stream(13, n, "graph")
    ref = generate_network(cfg, ref_rng)
    assert g.edges.dtype == ref.edges.dtype and g.edges.shape == ref.edges.shape
    assert np.array_equal(g.edges, ref.edges)
    assert np.array_equal(g.identity, ref.identity)
    assert np.array_equal(g.context, ref.context)
    assert rng.random() == ref_rng.random()


def test_pair_coins_memory_stays_far_below_dense_footprint():
    # the scale-n10k benchmark graph: the dense sampler's index, block and
    # probability arrays over 5e7 pairs take about 1.6 GB
    cfg = GraphConfig(n=10_000, n_blocks=4, p_in=14.85 / 2499,
                      p_out=1.5 / 7500, identity_dim=1)
    tracemalloc.start()
    try:
        g = generate_network(cfg, derive_stream(11, "graph"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.n_edges > 0
    assert peak < 100 * 2 ** 20


def test_identity_similarity_values():
    assert identity_similarity(np.array([0.3]), np.array([0.3])) == 1.0
    assert identity_similarity(np.array([0.2]), np.array([0.7])) == pytest.approx(0.5)
    # opposite corners of the unit square are at the distance cap
    assert identity_similarity(np.array([0.0, 0.0]),
                               np.array([1.0, 1.0])) == pytest.approx(0.0)
    stacked = identity_similarity(np.array([[0.2], [0.2]]),
                                  np.array([[0.7], [0.2]]))
    assert stacked == pytest.approx([0.5, 1.0])


def hand_graph():
    # two blocks of two, a path 0-1-2-3; one edge crosses blocks
    return SocialGraph(
        n=4,
        edges=np.array([[0, 1], [1, 2], [2, 3]], dtype=np.int64),
        block=np.array([0, 0, 1, 1], dtype=np.int64),
        identity=np.array([[0.1], [0.1], [0.9], [0.9]]),
        context=np.full(4, 0.8),
    )


def test_modularity_hand_value():
    g = hand_graph()
    # e_in = [1, 1], k_tot = [3, 3], m = 3:
    # Q = 2 * (1/3 - (3/6)^2) = 1/6
    assert modularity(g) == pytest.approx(1 / 6)
    assert homophily_index(g) == pytest.approx(2 / 3)
    assert identity_similarity(g.identity[0], g.identity[1]) == 1.0
    assert identity_similarity(g.identity[0], g.identity[2]) == pytest.approx(0.2)


def test_edgeless_graph_conventions():
    g = SocialGraph(n=3, edges=np.empty((0, 2), dtype=np.int64),
                    block=np.zeros(3, dtype=np.int64),
                    identity=np.full((3, 1), 0.5), context=np.full(3, 0.5))
    with pytest.raises(GraphError):
        modularity(g)
    assert homophily_index(g) == 0.0
    summary = structure_summary(g)
    assert summary["modularity"] == 0.0
    assert summary["density"] == 0.0
    assert summary["mean_degree"] == 0.0


def test_structure_summary_consistency():
    g = generate_network(small_config(), derive_stream(11))
    s = structure_summary(g)
    assert s["n"] == 60 and s["n_blocks"] == 3
    assert s["n_edges"] == g.n_edges
    assert s["density"] == pytest.approx(2 * g.n_edges / (60 * 59))
    assert s["mean_degree"] == pytest.approx(g.degree().mean())
    assert 0.0 <= s["homophily_index"] <= 1.0


def test_degree_counts_and_cache():
    g = hand_graph()
    assert g.degree().tolist() == [1, 2, 2, 1]
    assert g.degree() is g.degree()


def test_arcs_list_both_directions_by_sender():
    g = hand_graph()
    arcs = g.arcs()
    assert arcs is g.arcs()
    assert arcs.src.tolist() == [0, 1, 1, 2, 2, 3]
    assert arcs.dst.tolist() == [1, 0, 2, 1, 3, 2]
    assert arcs.indptr.tolist() == [0, 1, 3, 5, 6]
    assert arcs.same_block.tolist() == [True, True, False, False, True, True]
    assert arcs.similarity.tolist() == pytest.approx([1.0, 1.0, 0.2, 0.2, 1.0, 1.0])
    assert arcs.out_arcs(np.array([1, 3])).tolist() == [1, 2, 5]
    lone = arcs.out_arcs(np.array([1]))
    assert lone.tolist() == [1, 2] and lone.dtype == np.int64


def test_caches_do_not_survive_replace():
    g = hand_graph()
    g.degree()
    g.arcs()
    h = replace(g, edges=np.array([[0, 3]], dtype=np.int64))
    assert h.degree().tolist() == [1, 0, 0, 1]
    assert h.arcs().src.tolist() == [0, 3]
    assert h.arcs().dst.tolist() == [3, 0]


def test_graph_validation_rejects_bad_edges():
    g = hand_graph()
    g.edges = np.array([[1, 0]], dtype=np.int64)
    with pytest.raises(GraphError):
        g.validate()
    g.edges = np.array([[0, 1], [0, 1]], dtype=np.int64)
    with pytest.raises(GraphError):
        g.validate()
    g.edges = np.array([[0, 7]], dtype=np.int64)
    with pytest.raises(GraphError):
        g.validate()


def test_save_load_round_trip(tmp_path):
    g = generate_network(small_config(n=25, identity_dim=3), derive_stream(12))
    path = tmp_path / "net.txt"
    save_edge_list(g, str(path), comment="round trip fixture")
    loaded = load_edge_list(str(path))
    assert loaded.n == g.n
    assert np.array_equal(loaded.edges, g.edges)
    assert np.array_equal(loaded.block, g.block)
    assert np.array_equal(loaded.identity, g.identity)
    assert np.array_equal(loaded.context, g.context)
    assert path.read_text().startswith("# round trip fixture\n")


def test_load_rejects_malformed_files(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("")
    with pytest.raises(GraphError):
        load_edge_list(str(p))
    p.write_text("3 1\n")
    with pytest.raises(GraphError):
        load_edge_list(str(p))
    # header claims 2 agents, file carries 1
    p.write_text("2 1 1\n0 0 0.5 0.5\n")
    with pytest.raises(GraphError):
        load_edge_list(str(p))
