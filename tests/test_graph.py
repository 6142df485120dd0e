import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from saea.errors import ParseError, UnsupportedOrderError, ValidationError
from saea.graph import (
    SensorGraph,
    load_adjacency_csv,
    normalized_adjacency,
    normalized_laplacian,
    save_adjacency_csv,
    structural_mask,
)
from saea.synth import bfs_mask_oracle, erdos_renyi_graph, path_graph

P3 = [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
K3 = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]


def test_no_edges_laplacian_is_zero():
    g = SensorGraph.from_adjacency(np.zeros((3, 3)))
    assert_array_equal(normalized_laplacian(g), np.zeros((3, 3)))


def test_path3_norm_laplacian_hand_values():
    g = SensorGraph.from_adjacency(P3)
    s = 1.0 / np.sqrt(2.0)
    expected = np.array([[1.0, -s, 0.0], [-s, 1.0, -s], [0.0, -s, 1.0]])
    assert_allclose(normalized_laplacian(g), expected, atol=1e-15)


def test_k3_norm_laplacian_hand_values():
    g = SensorGraph.from_adjacency(K3)
    expected = np.full((3, 3), -0.5)
    np.fill_diagonal(expected, 1.0)
    assert_allclose(normalized_laplacian(g), expected, atol=1e-15)


def test_graph_stores_only_its_read_only_adjacency():
    g = SensorGraph.from_adjacency(P3)
    assert [f.name for f in dataclasses.fields(g)] == ["adjacency"]
    assert g.n == 3
    assert not g.adjacency.flags.writeable


def test_structural_mask_path3_order1():
    g = SensorGraph.from_adjacency(P3)
    expected = np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=float)
    assert_array_equal(structural_mask(g, 1).mask, expected)


def test_structural_mask_k3_is_zero():
    g = SensorGraph.from_adjacency(K3)
    assert_array_equal(structural_mask(g, 1).mask, np.zeros((3, 3)))


def test_structural_mask_path3_order2_zero():
    g = SensorGraph.from_adjacency(P3)
    assert_array_equal(structural_mask(g, 2).mask, np.zeros((3, 3)))
    assert_array_equal(bfs_mask_oracle(g, 2), np.zeros((3, 3)))


def test_mask_matches_bfs_oracle_on_random_graphs():
    rng = np.random.default_rng(1234)
    for trial in range(30):
        n = int(rng.integers(2, 51))
        p_edge = float(rng.choice([0.05, 0.2]))
        g = erdos_renyi_graph(n, p_edge, seed=int(rng.integers(1 << 30)))
        for order in (1, 2):
            assert_array_equal(structural_mask(g, order).mask, bfs_mask_oracle(g, order))


def test_mask_zeroes_laplacian_support():
    g = erdos_renyi_graph(25, 0.15, seed=9)
    mask = structural_mask(g, 1).mask
    assert_array_equal(mask * normalized_laplacian(g), np.zeros((25, 25)))


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
    g2 = SensorGraph.from_adjacency(w)
    assert_allclose(normalized_laplacian(g2), normalized_laplacian(g2).T, atol=1e-15)
    for order in (1, 2):
        m = structural_mask(g2, order).mask
        assert_array_equal(m, m.T)


def test_isolated_node_conventions():
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = 1.0  # node 2, 3 isolated
    g = SensorGraph.from_adjacency(w)
    lap = normalized_laplacian(g)
    assert_array_equal(lap[2], np.zeros(4))
    assert_array_equal(lap[:, 2], np.zeros(4))
    mask = structural_mask(g, 1).mask
    assert_array_equal(mask[2], [1, 1, 0, 1])
    assert_array_equal(mask[3], [1, 1, 1, 0])


def test_normalized_adjacency_complement():
    g = SensorGraph.from_adjacency(P3)
    assert_allclose(
        normalized_adjacency(g) + normalized_laplacian(g), np.eye(3), atol=1e-15
    )


def test_weighted_entries_do_not_change_mask():
    base = erdos_renyi_graph(12, 0.3, seed=11)
    rng = np.random.default_rng(2)
    weights = rng.uniform(0.1, 7.0, size=(12, 12))
    w = base.adjacency * (weights + weights.T)
    g = SensorGraph.from_adjacency(w)
    assert_array_equal(structural_mask(g, 1).mask, structural_mask(base, 1).mask)


@pytest.mark.parametrize(
    "bad",
    [
        np.ones((2, 3)),                      # non-square
        np.array([[0.0, -1.0], [1.0, 0.0]]),  # negative weight
        np.eye(3),                            # self-loop
        np.array([[0.0, np.nan], [1.0, 0.0]]),
    ],
)
def test_invalid_adjacency_rejected(bad):
    with pytest.raises(ValidationError):
        SensorGraph.from_adjacency(bad)


def test_unsupported_mask_order():
    g = SensorGraph.from_adjacency(P3)
    with pytest.raises(UnsupportedOrderError):
        structural_mask(g, 3)
    with pytest.raises(UnsupportedOrderError):
        structural_mask(g, 0)


def test_adjacency_csv_roundtrip(tmp_path):
    g = erdos_renyi_graph(8, 0.4, seed=1)
    rng = np.random.default_rng(4)
    weights = rng.uniform(0.01, 3.0, size=(8, 8))
    src = SensorGraph.from_adjacency(g.adjacency * (weights + weights.T))
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
