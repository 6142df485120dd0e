import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import saea.adjust
from _helpers import (
    central_diff,
    dense_phi_oracle,
    max_rel_err,
    payload_fd_grads,
    phi_to_payload_grads,
)
from saea.adjust import (
    DEFAULT_REGULARIZATION,
    PAYLOAD,
    ErrorModel,
    _adjusted_forward,
    companion_matrix,
    materialize_phi,
    predict_windows,
    regularize,
    saea_loss,
    saea_predict,
    spectral_radius,
)
from saea.data import SeriesFrame, WindowSet, make_windows, shift_with_mean
from saea.errors import ValidationError
from saea.forecaster import MLP1, GraphFilterAR, NodeAR
from saea.graph import structural_mask
from saea.synth import path_graph, ring_graph
from saea.train import predict_recursive

ALL_KINDS = ("scalar", "diagonal", "sparse_full", "low_rank", "low_rank_sparse", "structural")


def make_em(kind, n, var_order=1, rank=2, graph=None, randomize=None, **weights):
    mask = structural_mask(graph if graph is not None else ring_graph(n), 1)
    em = ErrorModel(
        kind,
        n,
        var_order=var_order,
        rank=rank if kind in ("low_rank", "low_rank_sparse") else None,
        mask=mask if kind == "structural" else None,
        **weights,
    )
    if randomize is not None:
        rng = np.random.default_rng(randomize)
        for name, arr in em.payload.items():
            magnitude = rng.uniform(0.15, 0.6, size=arr.shape)
            em.payload[name] = magnitude * np.where(rng.random(arr.shape) < 0.5, -1.0, 1.0)
    return em


# -- materialize_phi ---------------------------------------------------------


def test_materialize_scalar():
    em = ErrorModel("scalar", 3)
    em.payload["coef"][0] = 0.5
    assert_array_equal(materialize_phi(em)[0], 0.5 * np.eye(3))


def test_materialize_diagonal():
    em = ErrorModel("diagonal", 2)
    em.payload["diag"][0] = [1.0, 2.0]
    assert_array_equal(materialize_phi(em)[0], [[1.0, 0.0], [0.0, 2.0]])


def test_materialize_low_rank_hand_product():
    em = ErrorModel("low_rank", 2, rank=1)
    em.payload["left"][0] = [[1.0], [0.0]]
    em.payload["right"][0] = [[0.0, 1.0]]
    assert_array_equal(materialize_phi(em)[0], [[0.0, 1.0], [0.0, 0.0]])


def test_materialize_low_rank_sparse_sum():
    em = ErrorModel("low_rank_sparse", 2, rank=1)
    em.payload["left"][0] = [[1.0], [1.0]]
    em.payload["right"][0] = [[1.0, 0.0]]
    em.payload["sparse"][0] = [[0.0, 0.5], [0.0, 0.0]]
    assert_array_equal(materialize_phi(em)[0], [[1.0, 0.5], [1.0, 0.0]])


def test_materialize_stacks_every_lag():
    em = make_em("low_rank_sparse", 4, var_order=3, randomize=7)
    phis = materialize_phi(em)
    assert phis.shape == (3, 4, 4)
    for lag in range(3):
        expected = em.payload["left"][lag] @ em.payload["right"][lag] + em.payload["sparse"][lag]
        assert_allclose(phis[lag], expected, rtol=1e-15)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("var_order", [1, 2, 3])
def test_materialize_phi_matches_the_hand_formulas(kind, var_order):
    # Phi_k = apply(k, I)^T: exact where one term holds a single product per
    # entry, last-bit rounding where the factors' rank-k sum is reassociated
    em = make_em(kind, 9, var_order=var_order, rank=3, randomize=var_order + 50)
    got, want = materialize_phi(em), dense_phi_oracle(em)
    assert got.shape == want.shape == (var_order, 9, 9)
    if kind in ("low_rank", "low_rank_sparse"):
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
    else:
        assert_array_equal(got, want)


def test_materialized_low_rank_has_rank_at_most_k():
    rng = np.random.default_rng(0)
    em = ErrorModel("low_rank", 8, rank=3)
    em.payload["left"][0] = rng.normal(size=(8, 3))
    em.payload["right"][0] = rng.normal(size=(3, 8))
    assert np.linalg.matrix_rank(materialize_phi(em)[0]) <= 3


# -- regularize --------------------------------------------------------------


def test_regularize_scalar_hinge():
    em = ErrorModel("scalar", 3, alpha=1.0)
    em.payload["coef"][0] = 0.5
    value, grads = regularize(em)
    assert value == 0.0 and grads["coef"][0] == 0.0
    em.payload["coef"][0] = 1.5
    value, grads = regularize(em)
    assert value == pytest.approx(0.5) and grads["coef"][0] == 1.0


def test_regularize_diagonal_hinge():
    em = ErrorModel("diagonal", 2, alpha=1.0)
    em.payload["diag"][0] = [0.2, -1.3]
    value, grads = regularize(em)
    assert value == pytest.approx(0.3)
    assert_array_equal(grads["diag"][0], [0.0, -1.0])


def test_regularize_sparse_l1():
    em = ErrorModel("sparse_full", 2, alpha=1.0)
    em.payload["matrix"][0] = [[0.5, -1.0], [0.0, 2.0]]
    value, grads = regularize(em)
    assert value == pytest.approx(3.5)
    assert_array_equal(grads["matrix"][0], [[1.0, -1.0], [0.0, 1.0]])


def test_regularize_structural_hand_frobenius():
    g = path_graph(3)
    em = ErrorModel("structural", 3, mask=structural_mask(g, 1), alpha=1.0)
    em.payload["matrix"][0] = [[0.0, 0.0, 3.0], [0.0, 0.0, 0.0], [4.0, 0.0, 0.0]]
    value, grads = regularize(em)
    assert value == pytest.approx(5.0)
    assert_allclose(grads["matrix"][0], np.array(em.payload["matrix"][0]) / 5.0)


def test_regularize_low_rank_frobenius_sum():
    em = ErrorModel("low_rank", 2, rank=1, alpha=1.0)
    em.payload["left"][0] = [[3.0], [4.0]]
    em.payload["right"][0] = [[0.0, 2.0]]
    value, grads = regularize(em)
    assert value == pytest.approx(7.0)
    assert_allclose(grads["left"][0], [[0.6], [0.8]])
    assert_allclose(grads["right"][0], [[0.0, 1.0]])


def test_regularize_low_rank_sparse_beta_weighting():
    em = ErrorModel("low_rank_sparse", 2, rank=1, alpha=10.0, beta=1000.0)
    em.payload["sparse"][0] = [[1.0, 0.0], [0.0, -1.0]]
    value, grads = regularize(em)
    assert value == pytest.approx(2000.0)  # beta * l1 = 1000 * 2
    assert_array_equal(grads["sparse"][0], [[1000.0, 0.0], [0.0, -1000.0]])


def test_regularize_low_rank_sparse_zero_alpha_keeps_beta():
    em = ErrorModel("low_rank_sparse", 2, rank=1, alpha=0.0, beta=1000.0)
    em.payload["left"][0] = [[3.0], [4.0]]
    em.payload["sparse"][0] = np.ones((2, 2))
    value, grads = regularize(em)
    assert value == 4000.0
    assert_array_equal(grads["sparse"][0], np.full((2, 2), 1000.0))
    assert_array_equal(grads["left"], np.zeros_like(grads["left"]))


def test_regularize_sums_over_lags():
    em = ErrorModel("diagonal", 2, var_order=2, alpha=1.0)
    em.payload["diag"][0] = [1.5, 0.0]
    em.payload["diag"][1] = [0.0, -2.0]
    value, _ = regularize(em)
    assert value == pytest.approx(0.5 + 1.0)


def test_regularize_zero_payload_zero_subgradient():
    for kind in ALL_KINDS:
        em = make_em(kind, 4, alpha=1.0, beta=1.0)
        value, grads = regularize(em)
        assert value == 0.0
        for g in grads.values():
            assert_array_equal(g, np.zeros_like(g))


@pytest.mark.parametrize("kind", ["low_rank", "structural"])
def test_regularize_per_lag_frobenius_with_a_zero_lag(kind):
    """p=3 with an all-zero middle lag: the value is alpha times the other
    lags' norms, the zero lag's subgradient is exactly 0 and each other
    lag's is alpha * arr / ||arr||."""
    alpha = 2.0
    if kind == "low_rank":
        em = ErrorModel("low_rank", 2, var_order=3, rank=1, alpha=alpha)
        em.payload["left"][[0, 2]] = [[[3.0], [4.0]], [[0.0], [1.0]]]  # norms 5, 1
        em.payload["right"][[0, 2]] = [[[6.0, 8.0]], [[0.0, 2.0]]]  # norms 10, 2
        normed, expected = em.payload, alpha * (5.0 + 10.0 + 1.0 + 2.0)
    else:
        g = path_graph(3)  # the hop mask keeps only entries (0, 2) and (2, 0)
        em = ErrorModel("structural", 3, var_order=3, mask=structural_mask(g, 1), alpha=alpha)
        em.payload["matrix"][0] = [[9.0, 1.0, 3.0], [1.0, 9.0, 1.0], [4.0, 1.0, 9.0]]  # 5
        em.payload["matrix"][2] = [[9.0, 0.0, 0.0], [0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]  # 2
        normed, expected = {"matrix": em.mask.mask * em.payload["matrix"]}, alpha * (5.0 + 2.0)
    value, grads = regularize(em)
    assert value == pytest.approx(expected, rel=1e-15)
    for name, arr in normed.items():
        assert_array_equal(grads[name][1], np.zeros_like(arr[1]))
        for lag in (0, 2):
            assert_allclose(grads[name][lag], alpha * arr[lag] / np.linalg.norm(arr[lag]), rtol=1e-15)


def test_structural_without_mask_is_configuration_error():
    mask = structural_mask(ring_graph(3), 1)
    with pytest.raises(ValidationError, match="structural error model requires a StructuralMask"):
        ErrorModel("structural", 3)
    with pytest.raises(ValidationError, match="sparse_full error model takes no StructuralMask"):
        ErrorModel("sparse_full", 3, mask=mask)
    blob = ErrorModel("structural", 3, mask=mask).to_blob()
    unmasked = {k: v for k, v in blob.items() if k not in ("adjacency", "mask_order")}
    for bad, named in ((unmasked, "structural error model requires a"),
                       ({**blob, "kind": "sparse_full"}, "sparse_full error model takes no")):
        with pytest.raises(ValidationError, match=f"{named} StructuralMask"):
            ErrorModel.from_blob(bad)


def test_error_model_settles_the_default_table():
    """None takes the kind's default (rank at most n); a setting the kind does
    not use is None, whatever was given; a given weight is kept."""
    ems = {kind: make_em(kind, 12, rank=None) for kind in ALL_KINDS}
    assert {kind: (em.alpha, em.beta, em.rank) for kind, em in ems.items()} == {
        "scalar": (1000.0, None, None),
        "diagonal": (1000.0, None, None),
        "sparse_full": (100.0, None, None),
        "low_rank": (100.0, None, 10),
        "low_rank_sparse": (10.0, 1000.0, 10),
        "structural": (1000.0, None, None),
    }
    assert DEFAULT_REGULARIZATION["low_rank"]["rank"] == 10
    assert ErrorModel("low_rank_sparse", 6).rank == 6  # min(10, n)
    assert ErrorModel("sparse_full", 3, alpha=7.0).alpha == 7.0
    dropped = ErrorModel("diagonal", 3, rank=3, beta=float("nan"))
    assert (dropped.alpha, dropped.beta, dropped.rank) == (1000.0, None, None)
    assert ErrorModel("low_rank", 3, alpha=0.0).clone().alpha == 0.0


def test_error_model_names_an_unknown_kind():
    with pytest.raises(ValidationError, match="'bogus'"):
        ErrorModel("bogus", 3)


@pytest.mark.parametrize("setting", ["alpha", "beta"])
@pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf")])
def test_regularizer_config_rejects_a_negative_or_nonfinite_weight(setting, value):
    """The error model's penalty weights are checked where they are settled."""
    with pytest.raises(ValidationError, match=f"{setting} must be (>= 0|a finite number), got "):
        ErrorModel("low_rank_sparse", 3, **{"alpha": 1.0, setting: value})


def penalty_formula(kind):
    """A kind's penalty as the README writes it, from the PAYLOAD table: its
    arrays grouped by weight and rule, e.g. alpha·frobenius(left, right)."""
    terms = {}
    for name, (_, rule, weight) in PAYLOAD[kind].items():
        terms.setdefault(f"{weight}·{rule}", []).append(name)
    return " + ".join(f"{term}({', '.join(names)})" for term, names in terms.items())


def test_readme_penalty_table_is_the_default_table():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    table, penalties = {}, {}
    for line in readme.read_text(encoding="utf-8").splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if line.startswith("|") and cells[0] in DEFAULT_REGULARIZATION:
            table[cells[0]] = {
                name: float(cell) for name, cell in zip(("alpha", "beta", "rank"), cells[1:]) if cell
            }
            penalties[cells[0]] = cells[4]
    assert table == DEFAULT_REGULARIZATION
    assert penalties == {kind: penalty_formula(kind) for kind in PAYLOAD}


# -- transformed window --------------------------------------------------------


def transformed(em, window):
    """The transformed window, _adjusted_forward(...)[1], on a batch of one."""
    w = np.asarray(window, dtype=np.float64)
    return _adjusted_forward(NodeAR(*w.shape, seed=0), em, w[None])[1][0]


def test_transform_zero_phi_identity():
    w = np.random.default_rng(0).normal(size=(5, 3))
    em = ErrorModel("sparse_full", 3)
    assert_array_equal(transformed(em, w), w)


def test_transform_identity_phi_constant_series():
    w = np.full((4, 2), 3.0)
    em = ErrorModel("diagonal", 2)
    em.payload["diag"][0] = [1.0, 1.0]
    out = transformed(em, w)
    assert_allclose(out, np.zeros((4, 2)), atol=1e-15)


def test_transform_hand_example():
    em = ErrorModel("sparse_full", 1)
    em.payload["matrix"][0] = 0.5
    # the lag-1 shift of [[4], [2]] is [[2], [3]]: row 1 moves up, the window mean pads
    out = transformed(em, [[4.0], [2.0]])
    assert_array_equal(out, [[3.0], [0.5]])


def test_predict_takes_one_shifted_window_per_lag():
    # shifted windows after the window are accepted, at most max(p, 1) of the
    # window's shape, and never used: the prediction is the window's alone
    rng = np.random.default_rng(6)
    w = rng.normal(size=(3, 3))
    model = NodeAR(3, 3, seed=0)
    models = (make_em("sparse_full", 3, var_order=3, randomize=5), make_em("sparse_full", 3, randomize=5), None)
    for em, limit in zip(models, (3, 1, 1)):
        expected = saea_predict(model, em, w)
        for count in range(1, limit + 1):
            junk = rng.normal(size=(count, 3, 3))
            assert_array_equal(saea_predict(model, em, w, *junk), expected)
        refused = re.escape(f"at most {limit} shifted windows of shape (3, 3) are accepted")
        with pytest.raises(ValidationError, match=refused):
            saea_predict(model, em, w, *([w] * (limit + 1)))
        with pytest.raises(ValidationError, match=re.escape("shifted window has shape (2, 3), expected (3, 3)")):
            saea_predict(model, em, w, *([w] * (limit - 1)), np.zeros((2, 3)))


def test_var_order_above_history_is_contract_error():
    batch = random_batch(n=3, h=2, b=5)
    model = NodeAR(2, 3, seed=0)
    em = ErrorModel("sparse_full", 3, var_order=3)
    w = batch.inputs[0]
    for call in (lambda: predict_windows(model, em, batch), lambda: saea_loss(model, em, batch),
                 lambda: saea_predict(model, em, w)):
        with pytest.raises(ValidationError, match="var_order 3 exceeds the window's 2 rows"):
            call()


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_sensor_count_mismatch_is_contract_error_naming_both(kind):
    batch = random_batch(n=6, h=3, b=5)
    model = NodeAR(3, 6, seed=0)
    em = make_em(kind, 3, randomize=0)
    calls = (
        lambda: saea_loss(model, em, batch),
        lambda: saea_predict(model, em, batch.inputs[0]),
        lambda: predict_windows(model, em, batch),
    )
    for call in calls:
        with pytest.raises(ValidationError, match="error model has 3 sensors, the forecaster 6"):
            call()


@pytest.mark.parametrize(
    "model",
    [NodeAR(3, 4, seed=0), GraphFilterAR.from_graph(3, ring_graph(4), seed=0), MLP1(3, 4, hidden=5)],
    ids=["nodear", "graphfilter", "mlp1"],
)
@pytest.mark.parametrize("kind", [None, "sparse_full"])
@pytest.mark.parametrize("h, n", [(1, 4), (3, 1)], ids=["H=1", "N=1"])
def test_misshaped_windows_are_contract_error_naming_both_shapes(model, kind, h, n):
    # a size-1 axis would otherwise broadcast against the (3, 4) model
    em = make_em(kind, 4, randomize=0) if kind else None
    rng = np.random.default_rng(0)
    batch = WindowSet(rng.normal(size=(5, h, n)), rng.normal(size=(5, n)))
    batches = f"windows has shape (5, {h}, {n}), expected (B, 3, 4)"
    single = f"window has shape ({h}, {n}), expected (3, 4)"
    calls = (
        (lambda: saea_loss(model, em, batch), batches),
        (lambda: predict_windows(model, em, batch), batches),
        (lambda: saea_predict(model, em, batch.inputs[0]), single),
        (lambda: predict_recursive(model, em, batch.inputs[0], 2), single),
    )
    for call, refused in calls:
        with pytest.raises(ValidationError, match=re.escape(refused)):
            call()


def test_transform_var2_both_lags():
    rng = np.random.default_rng(1)
    w = rng.normal(size=(4, 2))
    s1, s2 = shift_with_mean(w, 1), shift_with_mean(w, 2)
    em = ErrorModel("sparse_full", 2, var_order=2)
    phi1 = rng.normal(size=(2, 2))
    phi2 = rng.normal(size=(2, 2))
    em.payload["matrix"][0] = phi1
    em.payload["matrix"][1] = phi2
    out = transformed(em, w)
    expected = w - s1 @ phi1.T - s2 @ phi2.T
    assert_allclose(out, expected, atol=1e-14)


def test_transform_var3_every_lag():
    rng = np.random.default_rng(1)
    w = rng.normal(size=(4, 2))
    s1, s2, s3 = (shift_with_mean(w, k) for k in (1, 2, 3))
    em = ErrorModel("sparse_full", 2, var_order=3)
    phis = rng.normal(size=(3, 2, 2))
    em.payload["matrix"][:] = phis
    out = transformed(em, w)
    expected = w - s1 @ phis[0].T - s2 @ phis[1].T - s3 @ phis[2].T
    assert_allclose(out, expected, atol=1e-14)


# -- saea_predict ------------------------------------------------------------


def test_predict_zero_phi_equals_forward():
    rng = np.random.default_rng(2)
    model = NodeAR(3, 2, seed=1)
    w = rng.normal(size=(3, 2))
    em = ErrorModel("sparse_full", 2)
    assert_array_equal(saea_predict(model, em, w), model.forward_batch(w[None])[0])
    assert_array_equal(saea_predict(model, None, w), model.forward_batch(w[None])[0])


def test_predict_zero_model_is_anchor_term():
    model = NodeAR(2, 2, seed=0)
    model.set_params(np.zeros(model.get_params().size))
    em = ErrorModel("sparse_full", 2)
    phi = np.array([[0.3, -0.1], [0.2, 0.5]])
    em.payload["matrix"][0] = phi
    w = np.array([[1.0, 2.0], [0.5, -1.0]])
    assert_allclose(saea_predict(model, em, w), phi @ w[0], atol=1e-14)


def test_predict_hand_chain():
    em = ErrorModel("sparse_full", 1)
    em.payload["matrix"][0] = 0.5
    model = NodeAR(2, 1, seed=0)
    model.set_params(np.array([1.0, 0.0, 0.0]))
    # transformed window [[3], [0.5]] (the hand example above), anchor 0.5 * 4
    out = saea_predict(model, em, [[4.0], [2.0]])
    assert_allclose(out, [5.0], atol=1e-14)


def test_predict_is_anchors_plus_forward_of_derived_transform():
    # saea_predict(w) = sum_k Phi_k w[k-1] + f(w - sum_k shift_with_mean(w, k) Phi_k^T)
    rng = np.random.default_rng(3)
    n = 3
    model = MLP1(4, n, hidden=8, seed=2)
    for var_order in (1, 2, 3):
        phis = 0.3 * np.eye(n) + rng.normal(scale=0.05, size=(var_order, n, n))
        em = ErrorModel("sparse_full", n, var_order=var_order)
        em.payload["matrix"][:] = phis
        w = rng.normal(size=(4, n))
        lags = range(1, var_order + 1)
        anchors = sum(phis[k - 1] @ w[k - 1] for k in lags)
        transform = w - sum(shift_with_mean(w, k) @ phis[k - 1].T for k in lags)
        expected = anchors + model.forward_batch(transform[None])[0]
        assert np.max(np.abs(saea_predict(model, em, w) - expected)) < 1e-10


def test_predict_windows_matches_single_window_loop():
    rng = np.random.default_rng(4)
    frame = SeriesFrame(rng.normal(size=(30, 4)))
    ws = make_windows(frame, 5, 0)
    model = GraphFilterAR.from_graph(5, ring_graph(4), seed=3)
    for kind in ALL_KINDS:
        for var_order in (1, 2, 3):
            em = make_em(kind, 4, var_order=var_order, randomize=11)
            batch = predict_windows(model, em, ws)
            for b in range(ws.batch):
                single = saea_predict(model, em, ws.inputs[b])
                assert_allclose(batch[b], single, atol=1e-12)


@pytest.mark.parametrize("budget", [1, 7, 12, 20, 64])
def test_chunked_predict_windows_matches_one_shot_core(monkeypatch, budget):
    # 37 (or, at horizon step 2, 35) windows of (4, 5); budgets of 1, 7, 12,
    # 20 and 64 windows give chunks of 1, 4, 8, 16 and 32: the first is
    # smaller than H, the middle three leave a remainder that joins the last
    # chunk, the last scores the set in one chunk. The series-backed chunks
    # map their rows once; the one-shot core maps the gathered windows' rows.
    n, h = 5, 4
    rng = np.random.default_rng(8)
    frame = SeriesFrame(rng.normal(size=(41, n)))
    monkeypatch.setattr(saea.adjust, "_SCORE_CHUNK_VALUES", budget * h * n)
    models = (NodeAR(h, n, seed=1), GraphFilterAR.from_graph(h, ring_graph(n), seed=2),
              MLP1(h, n, hidden=6, seed=3))
    for horizon_step in (0, 2):
        ws = make_windows(frame, h, horizon_step)
        for model in models:
            for kind in (None,) + ALL_KINDS:
                for var_order in (1, 2, 3):
                    em = None if kind is None else make_em(kind, n, var_order, randomize=var_order)
                    one_shot = _adjusted_forward(model, em, np.ascontiguousarray(ws.inputs))[0]
                    assert max_rel_err(predict_windows(model, em, ws), one_shot) <= 1e-12


@pytest.fixture
def lag_map_rows(monkeypatch):
    """The row count of every block sent through a lag map's apply."""
    lag_maps, rows = saea.adjust._lag_maps, []

    def counted_lag_maps(em):
        apply, contract = lag_maps(em)

        def counted_apply(k, block):
            rows.append(len(block))
            return apply(k, block)

        return counted_apply, contract

    monkeypatch.setattr(saea.adjust, "_lag_maps", counted_lag_maps)
    return rows


@pytest.mark.parametrize("budget, count", [(1, 37), (7, 9), (12, 4), (20, 2), (64, 1)])
@pytest.mark.parametrize("kind", ["diagonal", "structural", "low_rank_sparse"])
def test_scoring_a_series_backed_set_maps_each_chunks_rows_once(
    monkeypatch, lag_map_rows, budget, count, kind
):
    # B = 37 windows in `count` chunks: each chunk's c windows span c+H-1 rows
    n, h, p = 5, 4, 2
    ws = make_windows(SeriesFrame(np.random.default_rng(9).normal(size=(41, n))), h, 0)
    monkeypatch.setattr(saea.adjust, "_SCORE_CHUNK_VALUES", budget * h * n)
    model = GraphFilterAR.from_graph(h, ring_graph(n), seed=2)
    predict_windows(model, make_em(kind, n, var_order=p, randomize=4), ws)
    assert sum(lag_map_rows) == p * (ws.batch + count * (h - 1))


@pytest.mark.parametrize("kind", ["diagonal", "structural", "low_rank_sparse"])
def test_gathered_and_hand_built_sets_score_each_windows_own_rows(lag_map_rows, kind):
    n, h, p = 5, 4, 2
    ws = make_windows(SeriesFrame(np.random.default_rng(10).normal(size=(41, n))), h, 0)
    model = MLP1(h, n, hidden=6, seed=3)
    em = make_em(kind, n, var_order=p, randomize=5)
    series_backed = predict_windows(model, em, ws)
    order = np.random.default_rng(11).permutation(ws.batch)
    for gathered in (ws.take(order), WindowSet(np.array(ws.inputs[order]), ws.targets[order])):
        lag_map_rows.clear()
        preds = predict_windows(model, em, gathered)
        assert gathered.rows is None and sum(lag_map_rows) == p * ws.batch * h
        assert max_rel_err(preds, series_backed[order]) <= 1e-12


def test_predict_windows_peak_memory_does_not_grow_with_windows(monkeypatch):
    n, h, chunk = 20, 6, 64
    monkeypatch.setattr(saea.adjust, "_SCORE_CHUNK_VALUES", chunk * h * n)
    model = GraphFilterAR.from_graph(h, ring_graph(n), seed=1)
    em = make_em("sparse_full", n, var_order=2, randomize=3)
    rng = np.random.default_rng(2)
    excess = {}
    for b in (256, 2048):
        ws = make_windows(SeriesFrame(rng.normal(size=(b + h, n))), h, 0)
        tracemalloc.start()
        try:
            predict_windows(model, em, ws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        excess[b] = peak - b * n * 8  # beyond the (B, N) predictions themselves
    # one (B, H, N) array at B = 2048 would add 2 MB; a chunk's is 61 kB
    assert excess[2048] <= excess[256] + chunk * h * n * 8 // 4


# -- saea_loss ---------------------------------------------------------------


def random_batch(n=4, h=3, b=8, seed=5):
    rng = np.random.default_rng(seed)
    frame = SeriesFrame(rng.normal(size=(b + h, n)))
    return make_windows(frame, h, 0)


def test_loss_with_frozen_zero_phi_is_plain_mse():
    batch = random_batch()
    model = NodeAR(3, 4, seed=1)
    em = ErrorModel("sparse_full", 4, alpha=100.0)
    adjusted = saea_loss(model, em, batch)
    plain = saea_loss(model, None, batch)
    assert adjusted.loss == pytest.approx(plain.loss, rel=1e-15)
    assert adjusted.penalty == 0.0
    assert_allclose(adjusted.grad_theta, plain.grad_theta, atol=1e-15)


def test_loss_zero_for_perfect_model_on_noiseless_data():
    # target rows equal the newest lag; a persistence model is exact
    values = np.tile(np.array([[1.0, -2.0]]), (10, 1))
    ws = make_windows(SeriesFrame(values), 2, 0)
    model = NodeAR(2, 2, seed=0)
    model.set_params(np.array([1.0, 1.0, 0.0, 0.0, 0.0, 0.0]))
    em = ErrorModel("sparse_full", 2, alpha=0.0)
    res = saea_loss(model, em, ws)
    assert res.loss == pytest.approx(0.0, abs=1e-24)


def test_reduction_identity_all_kinds():
    batch = random_batch(n=5, h=4, b=6, seed=9)
    model = MLP1(4, 5, hidden=7, seed=4)
    plain = saea_loss(model, None, batch)
    base_forward = model.forward_batch(batch.inputs)
    for kind in ALL_KINDS:
        for var_order in (1, 2, 3):
            em = make_em(kind, 5, var_order=var_order)
            res = saea_loss(model, em, batch)
            assert abs(res.loss - plain.loss) <= 1e-12 * abs(plain.loss)
            assert_allclose(predict_windows(model, em, batch), base_forward, atol=1e-15)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("var_order", [1, 2, 3])
def test_loss_gradients_match_finite_differences(kind, var_order):
    batch = random_batch(n=4, h=3, b=8, seed=13)
    graph = ring_graph(4)
    model = GraphFilterAR.from_graph(3, graph, seed=5)
    em = make_em(kind, 4, var_order=var_order, graph=graph, randomize=21, alpha=0.7, beta=0.3)
    res = saea_loss(model, em, batch)

    theta0 = model.get_params()

    def loss_theta(theta):
        model.set_params(theta)
        out = saea_loss(model, em, batch).loss
        model.set_params(theta0)
        return out

    assert max_rel_err(res.grad_theta, central_diff(loss_theta, theta0)) < 1e-4

    fd = payload_fd_grads(lambda: saea_loss(model, em, batch).loss, em)
    for name in em.payload:
        assert max_rel_err(res.payload_grads[name], fd[name]) < 1e-4


def dense_reference(model, em, batch):
    """Adjusted predictions and per-lag dMSE/dPhi through the dense (p, N, N)
    coefficients of the kind's hand formula, by the einsum formulas the loss
    was first written with."""
    lags = range(em.var_order)
    phis = dense_phi_oracle(em)
    shifts = [shift_with_mean(batch.inputs, lag + 1) for lag in lags]
    anchors = [batch.inputs[:, lag] for lag in lags]
    transformed = batch.inputs - sum(s @ phi.T for s, phi in zip(shifts, phis))
    preds = model.forward_batch(transformed) + sum(a @ phi.T for a, phi in zip(anchors, phis))
    resid = preds - batch.targets
    cots = (2.0 / resid.size) * resid
    _, grad_input = model.vjp_batch(transformed, cots)
    return preds, np.stack([
        np.einsum("bi,bj->ij", cots, a) - np.einsum("bhi,bhj->ij", grad_input, s)
        for a, s in zip(anchors, shifts)
    ])


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("var_order", [1, 2, 3])
def test_loss_coefficient_gradient_matches_einsum_reference(kind, var_order):
    n = 50
    batch = random_batch(n=n, h=5, b=7, seed=17)
    graph = ring_graph(n)
    model = GraphFilterAR.from_graph(5, graph, seed=6)
    # zero weights leave only the data term, which is what the reference computes
    em = make_em(kind, n, var_order=var_order, rank=3, graph=graph, randomize=23, alpha=0.0, beta=0.0)
    res = saea_loss(model, em, batch)
    expected = phi_to_payload_grads(em, dense_reference(model, em, batch)[1])
    for name, grad in expected.items():
        assert np.max(np.abs(res.payload_grads[name] - grad)) <= 1e-12 * np.max(np.abs(grad))


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("var_order", [1, 2, 3])
@pytest.mark.parametrize("model_kind", ["nodear", "graphfilter", "mlp1"])
def test_factored_core_matches_dense_reference(kind, var_order, model_kind):
    # each kind applies its coefficients through its own payload; the
    # predictions and payload gradients equal the dense (p, N, N) chain rule's
    n, h = 12, 5
    batch = random_batch(n=n, h=h, b=9, seed=31)
    graph = ring_graph(n)
    model = {
        "nodear": NodeAR(h, n, seed=3),
        "graphfilter": GraphFilterAR.from_graph(h, graph, seed=3),
        "mlp1": MLP1(h, n, hidden=7, seed=3),
    }[model_kind]
    em = make_em(kind, n, var_order=var_order, rank=3, graph=graph, randomize=37, alpha=0.0, beta=0.0)
    preds, grad_phis = dense_reference(model, em, batch)

    def assert_close(got, want):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    assert_close(predict_windows(model, em, batch), preds)
    for b in (0, batch.batch - 1):
        assert_close(saea_predict(model, em, batch.inputs[b]), preds[b])
    res = saea_loss(model, em, batch)
    for name, grad in phi_to_payload_grads(em, grad_phis).items():
        assert_close(res.payload_grads[name], grad)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_factored_kinds_never_materialize_phi(monkeypatch, kind):
    def refuse(em):
        raise AssertionError(f"materialize_phi called for {em.kind}")

    monkeypatch.setattr(saea.adjust, "materialize_phi", refuse)
    n, h = 6, 4
    batch = random_batch(n=n, h=h, b=5, seed=41)
    model = GraphFilterAR.from_graph(h, ring_graph(n), seed=4)
    for var_order in (1, 2, 3):
        em = make_em(kind, n, var_order=var_order, rank=2, randomize=43)
        saea_loss(model, em, batch)
        predict_windows(model, em, batch)
        saea_predict(model, em, batch.inputs[0])
        predict_recursive(model, em, batch.inputs[0], 3)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("var_order", [1, 2, 3])
def test_loss_mse_equals_predict_windows_mse(kind, var_order):
    # training and batched prediction run the same adjusted forward
    batch = random_batch(n=5, h=4, b=9, seed=19)
    graph = ring_graph(5)
    model = GraphFilterAR.from_graph(4, graph, seed=7)
    em = make_em(kind, 5, var_order=var_order, graph=graph, randomize=29, alpha=0.5, beta=0.2)
    mse = saea_loss(model, em, batch).mse
    expected = np.mean((predict_windows(model, em, batch) - batch.targets) ** 2)
    assert abs(mse - expected) <= 1e-12 * expected


def test_loss_empty_batch_rejected():
    # the loss never sees one: the empty batch is refused as it is built
    batch = random_batch()
    with pytest.raises(ValidationError, match=re.escape("inputs has shape (0, 3, 4), expected (B, H, N)")):
        batch.take(np.array([], dtype=int))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_loss_nan_raises_divergence():
    from saea.errors import DivergenceError

    batch = random_batch()
    model = NodeAR(3, 4, seed=0)
    model.set_params(np.full(model.get_params().size, np.inf))
    with pytest.raises(DivergenceError):
        saea_loss(model, None, batch)


# -- recursive rollout -------------------------------------------------------


def stepwise_rollout(model, em, window, steps):
    """The reference rollout: saea_predict on a copy rolled one row per step."""
    buffer, out = np.array(window), []
    for _ in range(steps):
        out.append(saea_predict(model, em, buffer))
        buffer[1:] = buffer[:-1]
        buffer[0] = out[-1]
    return np.array(out)


@pytest.mark.parametrize("kind", (None,) + ALL_KINDS)
@pytest.mark.parametrize("model_kind", ["nodear", "graphfilter", "mlp1"])
def test_rollout_equals_the_stepwise_reference(kind, model_kind):
    # later steps roll the lag products instead of forming them afresh; at
    # p = H every shifted row is the window mean
    n, steps = 6, 24
    graph = ring_graph(n)
    for h in (3, 5):
        model = {
            "nodear": NodeAR(h, n, seed=3),
            "graphfilter": GraphFilterAR.from_graph(h, graph, seed=3),
            "mlp1": MLP1(h, n, hidden=5, seed=3),
        }[model_kind]
        for var_order in (1, 2, h):
            em = make_em(kind, n, var_order=var_order, graph=graph, randomize=var_order) if kind else None
            window = np.random.default_rng(h + var_order).normal(size=(h, n))
            rolled = predict_recursive(model, em, window, steps)
            reference = stepwise_rollout(model, em, window, steps)
            assert_array_equal(rolled[0], saea_predict(model, em, window))
            scale = np.max(np.abs(reference), axis=1)
            assert np.all(np.max(np.abs(rolled - reference), axis=1) <= 1e-12 * scale)


@pytest.mark.parametrize("kind", ["low_rank", "structural"])
def test_a_rolled_step_applies_each_lag_map_to_one_row(lag_map_rows, kind):
    p, h, n, steps = 2, 5, 6, 8
    model = GraphFilterAR.from_graph(h, ring_graph(n), seed=4)
    em = make_em(kind, n, var_order=p, randomize=5)
    predict_recursive(model, em, np.random.default_rng(6).normal(size=(h, n)), steps)
    # step 0 and the rollout's own lag products take H rows per lag each,
    # every later step one: the new row
    assert sum(lag_map_rows) == 2 * p * h + p * (steps - 1)


# -- spectral radius ---------------------------------------------------------


def test_spectral_radius_scaled_identity():
    em = ErrorModel("scalar", 3)
    em.payload["coef"][0] = 0.5
    assert spectral_radius(em) == pytest.approx(0.5, abs=1e-8)


def test_spectral_radius_zero():
    assert spectral_radius(ErrorModel("sparse_full", 4)) == 0.0


def test_spectral_radius_complex_pair_hand_value():
    em = ErrorModel("sparse_full", 2)
    em.payload["matrix"][0] = [[0.0, 1.0], [0.25, 0.0]]
    assert spectral_radius(em) == pytest.approx(0.5, abs=1e-3)  # eigenvalues +/- 0.5


def test_spectral_radius_matches_eig_random():
    rng = np.random.default_rng(8)
    for var_order in (1, 2, 3):
        for _ in range(5):
            em = ErrorModel("sparse_full", 4, var_order=var_order)
            for lag in range(var_order):
                em.payload["matrix"][lag] = rng.normal(scale=0.3, size=(4, 4))
            expected = np.max(np.abs(np.linalg.eigvals(companion_matrix(em))))
            assert spectral_radius(em) == pytest.approx(expected, rel=2e-3, abs=1e-6)


@pytest.mark.parametrize("n", [20, 50])
def test_scalar_radius_equals_the_equal_diagonal_radius_bit_for_bit(n):
    # the kinds' dense forms differ only in the signs of their zeros, which
    # the companion matrix drops
    rng = np.random.default_rng(n)
    for _ in range(10):
        coef = rng.uniform(-0.6, 0.6, size=3)
        scalar = ErrorModel("scalar", n, var_order=3, payload={"coef": coef})
        diag = ErrorModel("diagonal", n, var_order=3, payload={"diag": np.repeat(coef[:, None], n, 1)})
        assert spectral_radius(scalar) == spectral_radius(diag)


def test_companion_matrix_var2_shape():
    em = ErrorModel("sparse_full", 3, var_order=2)
    c = companion_matrix(em)
    assert c.shape == (6, 6)
    assert_array_equal(c[3:, :3], np.eye(3))


def test_companion_matrix_var3_blocks():
    em = make_em("sparse_full", 3, var_order=3, randomize=4)
    c = companion_matrix(em)
    assert c.shape == (9, 9)
    for lag in range(3):
        assert_array_equal(c[:3, 3 * lag : 3 * lag + 3], em.payload["matrix"][lag])
    assert_array_equal(c[3:, :6], np.eye(6))
    assert_array_equal(c[3:, 6:], np.zeros((6, 3)))


def test_spectral_radius_nilpotent():
    em = ErrorModel("sparse_full", 2)
    em.payload["matrix"][0] = [[0.0, 1.0], [0.0, 0.0]]
    assert spectral_radius(em) == 0.0


# -- ErrorModel plumbing ------------------------------------------------------


def test_error_model_validation():
    with pytest.raises(ValidationError):
        ErrorModel("banana", 3)
    with pytest.raises(ValidationError):
        ErrorModel("scalar", 3, var_order=0)
    assert ErrorModel("low_rank", 3).rank == 3  # rank missing: min(10, n)
    with pytest.raises(ValidationError, match=re.escape("rank must be in [1, 3], got 4")):
        ErrorModel("low_rank", 3, rank=4)  # rank > n
    with pytest.raises(ValidationError, match=re.escape("rank must be in [1, 3], got 0")):
        ErrorModel("low_rank", 3, rank=0)
    with pytest.raises(ValidationError, match=re.escape("payload 'coef' has shape (2,), expected (1,)")):
        ErrorModel("scalar", 3, payload={"coef": np.zeros(2)})  # wrong lag count


def test_for_training_low_rank_starts_at_zero_product():
    em = ErrorModel.for_training("low_rank", 6, rank=2, seed=3)
    assert np.any(em.payload["left"] != 0)
    assert_array_equal(materialize_phi(em)[0], np.zeros((6, 6)))


def test_clone_is_independent():
    em = make_em("diagonal", 3, randomize=1)
    other = em.clone()
    other.payload["diag"][0, 0] += 1.0
    assert em.payload["diag"][0, 0] != other.payload["diag"][0, 0]
    em = make_em("structural", 4, var_order=2, randomize=2)
    other = em.clone()
    assert other.mask is em.mask
    assert (other.kind, other.n, other.var_order, other.rank) == ("structural", 4, 2, None)
    assert other.payload["matrix"] is not em.payload["matrix"]
    assert_array_equal(other.payload["matrix"], em.payload["matrix"])


def test_error_model_owns_its_payload():
    given = {"coef": [0.5]}
    em = ErrorModel("scalar", 3, payload=given)
    assert given == {"coef": [0.5]} and isinstance(given["coef"], list)
    assert em.payload is not given
    diag = np.full((1, 3), 0.25)
    em = ErrorModel("diagonal", 3, payload={"diag": diag})
    assert em.payload["diag"] is not diag
    em.payload["diag"][0, 0] = 1.0
    assert diag[0, 0] == 0.25


def test_error_model_blob_roundtrip():
    # every kind keeps its payload shapes (p = 2, n = 5, k = 2) through a blob
    shapes = {
        "scalar": {"coef": (2,)},
        "diagonal": {"diag": (2, 5)},
        "sparse_full": {"matrix": (2, 5, 5)},
        "low_rank": {"left": (2, 5, 2), "right": (2, 2, 5)},
        "low_rank_sparse": {"left": (2, 5, 2), "right": (2, 2, 5), "sparse": (2, 5, 5)},
        "structural": {"matrix": (2, 5, 5)},
    }
    for kind in ALL_KINDS:
        assert {k: v.shape for k, v in make_em(kind, 5, var_order=2).payload.items()} == shapes[kind]
        em = make_em(kind, 5, var_order=2, randomize=4)
        blob = em.to_blob()
        again = ErrorModel.from_blob(blob)
        for name, arr in em.payload.items():
            assert_array_equal(again.payload[name], arr)
        for name in shapes[kind]:
            short = {**blob, "payload": {**blob["payload"], name: blob["payload"][name][:1]}}
            shape = np.shape(short["payload"][name])
            named = f"payload {name!r} has shape {shape}, expected {shapes[kind][name]}"
            with pytest.raises(ValidationError, match=re.escape(named)):
                ErrorModel.from_blob(short)


@pytest.mark.parametrize("order", [1, 2])
def test_error_model_blob_rebuilds_the_mask_from_the_adjacency(order):
    g = path_graph(6)
    payload = {"matrix": np.ones((1, 6, 6))}
    em = ErrorModel("structural", 6, mask=structural_mask(g, order), payload=payload)
    blob = em.to_blob()
    assert "mask" not in blob and blob["mask_order"] == order
    again = ErrorModel.from_blob(blob)
    assert_array_equal(again.mask.graph.adjacency, g.adjacency)
    assert_array_equal(again.mask.mask, structural_mask(g, order).mask)
    assert_array_equal(again.payload["matrix"], em.payload["matrix"])


def test_error_model_blob_without_adjacency_rejected():
    blob = make_em("structural", 5, graph=ring_graph(5), randomize=2).to_blob()
    del blob["adjacency"]
    with pytest.raises(ValidationError, match="'adjacency'"):
        ErrorModel.from_blob(blob)
