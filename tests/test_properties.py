"""Property tests over random shapes and values: window shifting, the taps'
mixing stack, the zero-coefficient reduction identity, the structural mask
against a BFS oracle, the normalized adjacency of symmetric graphs, and the
error-model blob round trip.

Examples are derandomized and few, so the suite stays deterministic and fast.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose, assert_array_equal

from _helpers import bfs_mask_oracle
from saea.adjust import KINDS, ErrorModel, _tap_mix, predict_windows, saea_loss, saea_predict
from saea.data import SeriesFrame, make_windows, shift_with_mean
from saea.forecaster import MLP1, GraphFilterAR, NodeAR
from saea.graph import SensorGraph, normalized_adjacency, structural_mask
from saea.synth import erdos_renyi_graph, ring_graph

PROPERTY = settings(derandomize=True, max_examples=30, deadline=None, database=None)

finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def window_batches(draw):
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 7)), draw(st.integers(1, 4)))
    return draw(arrays(np.float64, shape, elements=finite))


lags = st.integers(1, 8)


@PROPERTY
@given(x=window_batches(), k=lags)
def test_shift_batched_equals_per_window_loop(x, k):
    batched = shift_with_mean(x, k)
    for b in range(x.shape[0]):
        assert_array_equal(batched[b], shift_with_mean(x[b], k))


@PROPERTY
@given(x=window_batches(), k=lags)
def test_shift_moves_rows_k_into_the_past(x, k):
    h = x.shape[1]
    shifted = shift_with_mean(x, k)
    for row in range(h - k):
        assert_array_equal(shifted[:, row], x[:, row + k])


@PROPERTY
@given(x=window_batches(), k=lags)
def test_shift_pads_with_the_window_mean(x, k):
    h = x.shape[1]
    shifted = shift_with_mean(x, k)
    for b in range(x.shape[0]):
        mean = sum(x[b, row] for row in range(h)) / h
        for row in range(max(h - k, 0), h):
            assert_allclose(shifted[b, row], mean, rtol=1e-12, atol=1e-12)


@PROPERTY
@given(x=window_batches(), k=lags, data=st.data())
def test_shift_commutes_with_sensor_mixing(x, k, data):
    n = x.shape[-1]
    mix = data.draw(arrays(np.float64, (n, n), elements=st.floats(-2.0, 2.0)))
    scale = 1.0 + np.abs(x).max() * max(np.abs(mix).sum(axis=1).max(), 1.0)
    assert_allclose(
        shift_with_mean(x, k) @ mix.T, shift_with_mean(x @ mix.T, k), rtol=0, atol=1e-12 * scale
    )


@PROPERTY
@given(x=window_batches(), width=st.integers(1, 3), data=st.data())
def test_tap_mix_row_k_is_the_taps_on_the_window_shifted_k(x, width, data):
    # W_k X = T shift_with_mean(X, k): the tapped forward and the rolled
    # rollout step both move the shift from the window onto the taps
    h = x.shape[1]
    taps = data.draw(arrays(np.float64, (width, h), elements=finite))
    k = data.draw(st.integers(1, h))
    stack = _tap_mix(taps, h)
    assert stack.shape == (h + 1, width, h)
    assert_array_equal(stack[0], taps)
    scale = np.abs(taps).sum() * np.abs(x).max()
    assert np.max(np.abs(stack[k] @ x - taps @ shift_with_mean(x, k))) <= 1e-12 * scale


@PROPERTY
@given(
    n=st.integers(3, 6),
    h=st.integers(2, 5),
    b=st.integers(1, 6),
    var_order=st.sampled_from([1, 2]),
    model_kind=st.sampled_from(["nodear", "graphfilter", "mlp1"]),
    seed=st.integers(0, 2**16),
)
def test_zero_coefficients_reduce_to_the_base_model(n, h, b, var_order, model_kind, seed):
    rng = np.random.default_rng(seed)
    graph = ring_graph(n)
    ws = make_windows(SeriesFrame(rng.normal(size=(b + h, n))), h, 0)
    model = {
        "nodear": lambda: NodeAR(h, n, seed=seed),
        "graphfilter": lambda: GraphFilterAR.from_graph(h, graph, seed=seed),
        "mlp1": lambda: MLP1(h, n, hidden=5, seed=seed),
    }[model_kind]()
    plain = saea_loss(model, None, ws).loss
    base = model.forward_batch(ws.inputs)
    window = ws.inputs[0]
    for kind in KINDS:
        em = ErrorModel(
            kind,
            n,
            var_order=var_order,
            rank=min(2, n) if kind in ("low_rank", "low_rank_sparse") else None,
            mask=structural_mask(graph, 1) if kind == "structural" else None,
            alpha=1.0,
            beta=1.0,
        )
        loss = saea_loss(model, em, ws).loss
        assert abs(loss - plain) <= 1e-12 * abs(plain)
        assert_allclose(predict_windows(model, em, ws), base, rtol=1e-12, atol=1e-15)
        assert_allclose(saea_predict(model, em, window), base[0], rtol=1e-12, atol=1e-15)


@PROPERTY
@given(
    n=st.integers(2, 30),
    p_edge=st.floats(0.0, 0.5),
    graph_seed=st.integers(0, 2**16),
    order=st.sampled_from([1, 2]),
)
def test_laplacian_mask_equals_bfs_oracle(n, p_edge, graph_seed, order):
    graph = erdos_renyi_graph(n, p_edge, seed=graph_seed)
    assert_array_equal(structural_mask(graph, order).mask, bfs_mask_oracle(graph, order))


@PROPERTY
@given(
    n=st.integers(1, 120),
    p_edge=st.floats(0.0, 0.5),
    graph_seed=st.integers(0, 2**16),
    weighted=st.booleans(),
)
def test_symmetric_graphs_normalize_as_before_bit_for_bit(n, p_edge, graph_seed, weighted):
    # the row-sum-only D^{-1/2} W D^{-1/2} that directed normalization replaced
    w = erdos_renyi_graph(n, p_edge, seed=graph_seed).adjacency
    if weighted:
        upper = np.triu(np.random.default_rng(graph_seed).uniform(0.01, 5.0, size=(n, n)))
        w = w * (upper + upper.T)
    deg = w.sum(axis=1)
    inv_sqrt = np.zeros_like(deg)
    inv_sqrt[deg > 0] = 1.0 / np.sqrt(deg[deg > 0])
    before = np.outer(inv_sqrt, inv_sqrt) * w
    assert normalized_adjacency(SensorGraph(w)).tobytes() == before.tobytes()


@PROPERTY
@given(
    kind=st.sampled_from(KINDS),
    n=st.integers(3, 6),
    var_order=st.sampled_from([1, 2, 3]),
    seed=st.integers(0, 2**16),
)
def test_error_model_blob_round_trip(kind, n, var_order, seed):
    rng = np.random.default_rng(seed)
    em = ErrorModel(
        kind,
        n,
        var_order=var_order,
        rank=int(rng.integers(1, n + 1)) if kind in ("low_rank", "low_rank_sparse") else None,
        mask=structural_mask(ring_graph(n), 1) if kind == "structural" else None,
    )
    for name, arr in em.payload.items():
        em.payload[name] = rng.normal(size=arr.shape)
    again = ErrorModel.from_blob(json.loads(json.dumps(em.to_blob())))
    assert (again.kind, again.n, again.var_order, again.rank) == (kind, n, var_order, em.rank)
    assert sorted(again.payload) == sorted(em.payload)
    for name, arr in em.payload.items():
        assert again.payload[name].tobytes() == arr.tobytes()
    if kind == "structural":
        assert_array_equal(again.mask.mask, em.mask.mask)
        assert again.mask.order == em.mask.order
    else:
        assert again.mask is None
