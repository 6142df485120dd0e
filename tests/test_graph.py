import dataclasses
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from _helpers import bfs_mask_oracle
from saea.errors import ParseError, ValidationError
from saea.data import SeriesFrame
from saea.graph import (
    SensorGraph,
    StructuralMask,
    load_adjacency_csv,
    normalized_adjacency,
    save_adjacency_csv,
    structural_mask,
)
from saea.synth import erdos_renyi_graph, path_graph

P3 = [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
K3 = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]


def test_graph_stores_only_its_read_only_adjacency():
    g = SensorGraph(P3)
    assert [f.name for f in dataclasses.fields(g)] == ["adjacency"]
    assert g.n == 3
    assert not g.adjacency.flags.writeable


def test_structural_mask_path3_order1():
    g = SensorGraph(P3)
    expected = np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=float)
    assert_array_equal(structural_mask(g, 1).mask, expected)


def test_structural_mask_k3_is_zero():
    g = SensorGraph(K3)
    assert_array_equal(structural_mask(g, 1).mask, np.zeros((3, 3)))


def test_structural_mask_path3_order2_zero():
    g = SensorGraph(P3)
    assert_array_equal(structural_mask(g, 2).mask, np.zeros((3, 3)))
    assert_array_equal(bfs_mask_oracle(g, 2), np.zeros((3, 3)))


def weighted_random_graphs(rng, trials):
    """Erdos-Renyi graphs whose symmetric positive weights are log-uniform
    over 1e-13..1e3, so some edges weigh far below any float tolerance."""
    for _ in range(trials):
        n = int(rng.integers(2, 31))
        base = erdos_renyi_graph(n, float(rng.choice([0.1, 0.3])), seed=int(rng.integers(1 << 30)))
        weights = np.triu(10.0 ** rng.uniform(-13, 3, size=(n, n)), 1)
        yield SensorGraph(base.adjacency * (weights + weights.T))


def tiny_edge_graphs():
    # a lone 5e-13 edge; a 1e-11 edge between two nodes that each carry 1e3
    lone = np.zeros((3, 3))
    lone[0, 1] = lone[1, 0] = 5e-13
    heavy = np.zeros((4, 4))
    heavy[0, 1] = heavy[1, 0] = 1e-11
    heavy[0, 2] = heavy[2, 0] = heavy[1, 3] = heavy[3, 1] = 1e3
    return [SensorGraph(lone), SensorGraph(heavy)]


def test_mask_matches_bfs_oracle_on_random_graphs():
    rng = np.random.default_rng(1234)
    unit = [
        erdos_renyi_graph(
            int(rng.integers(2, 51)), float(rng.choice([0.05, 0.2])), seed=int(rng.integers(1 << 30))
        )
        for _ in range(30)
    ]
    for g in unit + list(weighted_random_graphs(rng, 30)) + tiny_edge_graphs():
        masks = [structural_mask(g, order).mask for order in (1, 2)]
        for order, mask in zip((1, 2), masks):
            assert_array_equal(mask, bfs_mask_oracle(g, order))
        assert np.all(masks[1] <= masks[0])


def test_mask_zeroes_laplacian_support():
    # the Laplacian's support is the edge set (weight > 0) plus the diagonal
    for g in [erdos_renyi_graph(25, 0.15, seed=9), *tiny_edge_graphs()]:
        mask = structural_mask(g, 1).mask
        assert_array_equal(mask[g.adjacency > 0], 0.0)
        assert_array_equal(np.diag(mask), 0.0)


def test_mask_idempotent_bit_identical():
    g = erdos_renyi_graph(20, 0.2, seed=3)
    a = structural_mask(g, 2).mask
    b = structural_mask(g, 2).mask
    assert a.tobytes() == b.tobytes()


def test_symmetric_adjacency_gives_symmetric_outputs():
    g = erdos_renyi_graph(15, 0.3, seed=5)
    rng = np.random.default_rng(0)
    weights = rng.uniform(0.5, 2.0, size=(15, 15))
    w = g.adjacency * (weights + weights.T)
    g2 = SensorGraph(w)
    assert_allclose(normalized_adjacency(g2), normalized_adjacency(g2).T, atol=1e-15)
    for order in (1, 2):
        m = structural_mask(g2, order).mask
        assert_array_equal(m, m.T)


def test_isolated_node_conventions():
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = 1.0  # node 2, 3 isolated
    g = SensorGraph(w)
    norm_adj = normalized_adjacency(g)
    assert_array_equal(norm_adj[2], np.zeros(4))
    assert_array_equal(norm_adj[:, 2], np.zeros(4))
    mask = structural_mask(g, 1).mask
    assert_array_equal(mask[2], [1, 1, 0, 1])
    assert_array_equal(mask[3], [1, 1, 1, 0])


def test_normalized_adjacency_complement():
    # I minus the normalized Laplacian of P3: D^{-1/2} W D^{-1/2} by hand
    s = 1.0 / np.sqrt(2.0)
    expected = np.array([[0.0, s, 0.0], [s, 0.0, s], [0.0, s, 0.0]])
    assert_allclose(normalized_adjacency(SensorGraph(P3)), expected, atol=1e-15)


CHAIN = [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]]  # 0 receives from 1, ...


def test_directed_chain_keeps_every_edge():
    # node 0 has no in-edges and node 3 no out-edges: a row-sum-only
    # normalization zeroed edge (2, 3), whose column belongs to node 3
    assert_array_equal(normalized_adjacency(SensorGraph(CHAIN)), CHAIN)  # every degree is 0 or 1


@pytest.mark.parametrize("seed", range(5))
def test_mask_and_propagation_see_one_edge_set(seed):
    rng = np.random.default_rng(seed)
    w = (rng.random((12, 12)) < 0.2) * rng.uniform(1e-9, 3.0, size=(12, 12))
    np.fill_diagonal(w, 0.0)
    graphs = [SensorGraph(CHAIN), SensorGraph(w)]
    assert not np.array_equal(w, w.T)
    for g in graphs:
        within_one_hop = structural_mask(g, 1).mask == 0
        np.fill_diagonal(within_one_hop, False)
        assert_array_equal(normalized_adjacency(g) > 0, within_one_hop)
        assert_array_equal(within_one_hop, g.adjacency > 0)


def test_weighted_entries_do_not_change_mask():
    base = erdos_renyi_graph(12, 0.3, seed=11)
    rng = np.random.default_rng(2)
    weights = rng.uniform(0.1, 7.0, size=(12, 12))
    w = base.adjacency * (weights + weights.T)
    g = SensorGraph(w)
    assert_array_equal(structural_mask(g, 1).mask, structural_mask(base, 1).mask)


@pytest.mark.parametrize(
    "bad",
    [
        np.ones((2, 3)),                      # non-square
        np.array([[0.0, -1.0], [1.0, 0.0]]),  # negative weight
        np.eye(3),                            # self-loop
        np.array([[0.0, np.nan], [1.0, 0.0]]),
        np.array([[1.0, -2.0], [np.nan, 0.0]]),
        1e-13 * np.eye(3),                    # self-loop, however small
        np.zeros((0, 0)),                     # no node: (N, N) takes N >= 1
    ],
)
def test_invalid_adjacency_rejected(bad):
    with pytest.raises(ValidationError):
        SensorGraph(bad)


@pytest.mark.parametrize(
    "build, field",
    [
        (SeriesFrame, "values"),
        (lambda a: structural_mask(SensorGraph(a), 1), "mask"),
        (SensorGraph, "adjacency"),
    ],
    ids=["SeriesFrame", "StructuralMask", "SensorGraph"],
)
def test_constructors_store_read_only_arrays_and_leave_the_callers(build, field):
    given = np.zeros((3, 3))
    stored = getattr(build(given), field)
    assert given.flags.writeable and not stored.flags.writeable


def test_structural_mask_keeps_its_graph_and_order():
    g = SensorGraph(P3)
    m = StructuralMask(g, 2)
    assert m.graph is g and m.order == 2
    assert_array_equal(m.mask, structural_mask(g, 2).mask)
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.mask = np.zeros((3, 3))


def test_unsupported_mask_order():
    g = SensorGraph(P3)
    with pytest.raises(ValidationError, match=re.escape("mask order must be in [1, 2], got 3")):
        structural_mask(g, 3)
    with pytest.raises(ValidationError, match=re.escape("mask order must be in [1, 2], got 0")):
        structural_mask(g, 0)
    with pytest.raises(ValidationError, match="mask order must be an integer, got True"):
        structural_mask(g, True)  # once taken as order 1, saved, and refused on load


def test_adjacency_csv_roundtrip(tmp_path):
    g = erdos_renyi_graph(8, 0.4, seed=1)
    rng = np.random.default_rng(4)
    weights = rng.uniform(0.01, 3.0, size=(8, 8))
    src = SensorGraph(g.adjacency * (weights + weights.T))
    path = tmp_path / "adj.csv"
    save_adjacency_csv(src, path)
    loaded = load_adjacency_csv(path)
    assert loaded.adjacency.tobytes() == src.adjacency.tobytes()


def test_adjacency_csv_ragged_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,1,0\n1,0\n0,0,0\n")
    with pytest.raises(ParseError):
        load_adjacency_csv(path)


def test_path_graph_builder():
    g = path_graph(3)
    assert_array_equal(g.adjacency, np.array(P3, dtype=float))
