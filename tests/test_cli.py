import argparse
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import dataclasses
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from _helpers import assert_runs_agree
import saea.cli
from saea.adjust import ErrorModel
from saea.cli import run
from saea.data import ingest_csv
from saea.forecaster import MLP1, GraphFilterAR, NodeAR
from saea.graph import load_adjacency_csv, structural_mask
from saea.synth import GraphSpec, SynthConfig, generate, oracle_floor, ring_graph
from saea.train import TrainConfig, checkpoint_blob, load_checkpoint, save_checkpoint


def make_bundle_dir(tmp_path, steps=700, n=8, seed=3):
    out = tmp_path / "bundle"
    code = run(
        [
            "synth",
            "--graph", "ring",
            "--n", str(n),
            "--steps", str(steps),
            "--dgp-self", "0.5,0.2",
            "--dgp-hop", "0.0,0.0",
            "--phi-diag", "0.4",
            "--phi-hop", "0.15",
            "--sigma", "1.0",
            "--seed", str(seed),
            "--out", str(out),
        ]
    )
    assert code == 0
    return out


def train_args(bundle, out, extra=()):
    return [
        "train",
        "--series", str(bundle / "series.csv"),
        "--adjacency", str(bundle / "adjacency.csv"),
        "--history", "4",
        "--epochs", "4",
        "--seed", "1",
        "--out", str(out),
        *extra,
    ]


def test_synth_outputs_and_floor(tmp_path):
    out = make_bundle_dir(tmp_path)
    for name in ("series.csv", "adjacency.csv", "phi_star.csv", "manifest.json"):
        assert (out / name).exists()
    manifest = json.loads((out / "manifest.json").read_text())
    frame = ingest_csv(out / "series.csv")
    assert frame.num_steps == 700 and frame.num_sensors == 8
    graph = load_adjacency_csv(out / "adjacency.csv")
    assert graph.n == 8
    phi = np.loadtxt(out / "phi_star.csv", delimiter=",")
    cfg = SynthConfig(
        graph=GraphSpec("ring", 8),
        steps=700,
        dgp_self=(0.5, 0.2),
        dgp_hop=(0.0, 0.0),
        phi_star=phi,
        sigma=1.0,
        seed=3,
    )
    assert manifest["config"]["floor"] == pytest.approx(oracle_floor(cfg))
    # CSV round trip reproduces the synthesized values bit for bit
    bundle = generate(cfg)
    assert frame.values.tobytes() == bundle.frame.values.tobytes()


def test_train_writes_run_dir(tmp_path):
    bundle = make_bundle_dir(tmp_path)
    out = tmp_path / "run"
    assert run(train_args(bundle, out, ("--kind", "diagonal"))) == 0
    names = {p.name for p in out.iterdir()}
    assert {
        "checkpoint_h5min_best.json",
        "checkpoint_h5min_last.json",
        "train_report_h5min.json",
        "metrics.json",
        "manifest.json",
    } <= names
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["horizons"][0]["kind"] == "diagonal"
    assert metrics["horizons"][0]["test_best"]["rmse"] > 0
    # diverged is a JSON boolean in every file that records it
    for name in ("metrics.json", "checkpoint_h5min_last.json", "train_report_h5min.json"):
        text = (out / name).read_text()
        assert '"diverged": false' in text and '"diverged": 0' not in text


def test_train_structural_defaults_record_alpha_1000(tmp_path):
    bundle = make_bundle_dir(tmp_path)
    out = tmp_path / "run_structural"
    assert run(train_args(bundle, out, ("--kind", "structural"))) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["alpha"] == 1000.0
    assert manifest["config"]["kind"] == "structural"
    assert manifest["toolkit_version"]
    assert manifest["inputs"]  # input hashes recorded


@pytest.mark.parametrize(
    "model, hidden, recorded", [("nodear", "-1", None), ("mlp1", "3", 3)], ids=["nodear", "mlp1"]
)
def test_manifest_records_hidden_only_for_mlp1(tmp_path, model, hidden, recorded):
    bundle = make_bundle_dir(tmp_path)
    out = tmp_path / "run"
    assert run(train_args(bundle, out, ("--kind", "none", "--model", model, "--hidden", hidden))) == 0
    assert json.loads((out / "manifest.json").read_text())["config"]["hidden"] == recorded


def test_train_rerun_metrics_bit_identical(tmp_path):
    # every file repeats byte for byte but the manifest and the train
    # reports, which differ only in their wall-clock epoch_seconds
    bundle = make_bundle_dir(tmp_path)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        assert run(train_args(bundle, out, ("--kind", "sparse_full"))) == 0
    names = sorted(path.name for path in out1.iterdir())
    assert names == sorted(path.name for path in out2.iterdir())
    reports = [name for name in names if name.startswith("train_report_")]
    assert reports and "metrics.json" in names
    for name in names:
        if name == "manifest.json":  # its created_utc and the reports' hashes
            continue
        first, second = ((out / name).read_bytes() for out in (out1, out2))
        if name in reports:
            first, second = ({**json.loads(text), "epoch_seconds": None} for text in (first, second))
        assert first == second, name


def test_eval_oracle_predictor_hits_floor(tmp_path):
    bundle_dir = make_bundle_dir(tmp_path, steps=4000)
    manifest = json.loads((bundle_dir / "manifest.json").read_text())
    floor = manifest["config"]["floor"]

    # Assemble the optimal predictor by hand: true dynamics taps in the base
    # model, true error coefficients in the adjustment.
    graph = load_adjacency_csv(bundle_dir / "adjacency.csv")
    phi = np.loadtxt(bundle_dir / "phi_star.csv", delimiter=",")
    h = 5
    model = GraphFilterAR.from_graph(h, graph, seed=0)
    tap_self = np.zeros(h)
    tap_self[:2] = [0.5, 0.2]
    model.set_params(np.concatenate([tap_self, np.zeros(h), np.zeros(graph.n)]))
    em = ErrorModel("sparse_full", graph.n)
    em.payload["matrix"][0] = phi

    ckpt = tmp_path / "oracle.json"
    save_checkpoint(
        ckpt, model, em,
        extra={"horizon_step": 0, "step_minutes": 5.0, "normalizer": {"mode": "none"}},
    )
    out = tmp_path / "eval"
    code = run(
        ["eval", "--checkpoint", str(ckpt), "--series", str(bundle_dir / "series.csv"),
         "--split", "test", "--out", str(out)]
    )
    assert code == 0
    text = (out / "metrics.json").read_text()
    metrics = json.loads(text)
    assert text == json.dumps(metrics, sort_keys=True) + "\n"  # compact, one line
    assert abs(metrics["rmse"] - floor) / floor < 0.02


def test_diagnose_emits_plottable_json(tmp_path):
    bundle = make_bundle_dir(tmp_path)
    out = tmp_path / "run"
    assert run(train_args(bundle, out, ("--kind", "none"))) == 0
    diag_out = tmp_path / "diag"
    code = run(
        [
            "diagnose",
            "--checkpoint", str(out / "checkpoint_h5min_best.json"),
            "--series", str(bundle / "series.csv"),
            "--max-lag", "10",
            "--ts-lags", "1,2",
            "--out", str(diag_out),
        ]
    )
    assert code == 0
    text = (diag_out / "diagnostics.json").read_text()
    payload = json.loads(text)
    assert text == json.dumps(payload, sort_keys=True) + "\n"  # compact, one line
    assert len(payload["ecm_spatial"]) == 8
    assert len(payload["acf"]) == 8
    assert len(payload["acf"][0]) == 11
    assert set(payload["crosslag"]) == {"1", "2"}
    assert 0.0 <= payload["ecm_spatial_offdiag_energy"] <= 1.0


def test_train_nonpositive_grad_clip_exits_1_on_one_json_line(tmp_path, capsys):
    bundle = make_bundle_dir(tmp_path, n=6)
    capsys.readouterr()
    code = run(train_args(bundle, tmp_path / "run", ("--kind", "none", "--grad-clip", "-1")))
    assert code == 1
    (line,) = capsys.readouterr().err.strip().splitlines()
    err = json.loads(line)
    assert err["error"] == "ValidationError" and "grad_clip" in err["message"]


@pytest.mark.parametrize(
    "flags, field",
    [
        (("--lr", "nan"), "lr"),
        (("--lr", "inf"), "lr"),
        (("--alpha", "nan"), "alpha"),
        (("--alpha", "inf"), "alpha"),
        (("--kind", "low_rank_sparse", "--beta", "nan"), "beta"),
        (("--grad-clip", "nan"), "grad_clip"),
    ],
    ids=["lr-nan", "lr-inf", "alpha-nan", "alpha-inf", "beta-nan", "grad-clip-nan"],
)
def test_train_nonfinite_setting_exits_1_naming_it(tmp_path, capsys, flags, field):
    bundle = make_bundle_dir(tmp_path, n=6)
    out = tmp_path / "run"
    capsys.readouterr()
    assert run(train_args(bundle, out, ("--kind", "diagonal", *flags))) == 1
    parsed = one_json_error(capsys)
    assert parsed["error"] == "ValidationError" and field in parsed["message"]
    assert not list(out.glob("checkpoint_*"))


def test_nan_split_fraction_exits_1_on_one_json_line(tmp_path, capsys):
    bundle = make_bundle_dir(tmp_path, n=6)
    out = tmp_path / "run"
    assert run(train_args(bundle, out, ("--kind", "none", "--epochs", "1"))) == 0
    # a checkpoint that records no fractions, as hand-built ones may not
    ckpt = tmp_path / "no_fractions.json"
    blob = json.loads((out / "checkpoint_h5min_best.json").read_text())
    ckpt.write_text(json.dumps({k: v for k, v in blob.items() if not k.endswith("_frac")}))
    series = str(bundle / "series.csv")
    score = ["--checkpoint", str(ckpt), "--series", series, "--train-frac", "nan"]
    argvs = [
        train_args(bundle, tmp_path / "t", ("--kind", "none", "--train-frac", "nan")),
        ["compare", "--series", series, "--kinds", "none", "--val-frac", "nan",
         "--out", str(tmp_path / "c")],
        ["eval", *score, "--out", str(tmp_path / "e")],
        ["diagnose", *score, "--out", str(tmp_path / "d")],
    ]
    capsys.readouterr()
    for argv in argvs:
        assert run(argv) == 1
        parsed = one_json_error(capsys)
        assert parsed["error"] == "ValidationError"
        assert re.fullmatch(r"(train|val)_frac must be a finite number, got nan", parsed["message"])


@pytest.mark.parametrize("command", ["compare", "eval", "diagnose"])
def test_bad_split_fractions_fail_before_the_series_is_read(tmp_path, capsys, command):
    """As for train (test_settings_that_need_no_file_fail_before_one_is_read):
    a checkpoint that records no fractions leaves them to the flags, which
    are checked before the missing series would be opened."""
    ckpt = tmp_path / "ckpt.json"
    save_checkpoint(ckpt, NodeAR(3, 2), None)
    source = ["--checkpoint", str(ckpt)] if command in ("eval", "diagnose") else []
    argv = [command, *source, "--series", str(tmp_path / "missing.csv"),
            "--train-frac", "0.9", "--val-frac", "0.2", "--out", str(tmp_path / "out")]
    assert run(argv) == 1 and not (tmp_path / "out").exists()
    assert one_json_error(capsys) == {"error": "ValidationError", "message": "train_frac + val_frac must be < 1"}


def test_a_run_whose_validation_mse_overflows_writes_strict_json(tmp_path):
    bundle = make_bundle_dir(tmp_path)
    out = tmp_path / "run"
    flags = ("--kind", "none", "--optimizer", "sgd", "--lr", "1e6", "--batch", "1000",
             "--history", "12", "--epochs", "300")
    assert run(train_args(bundle, out, flags)) == 0

    def reject(constant):
        raise ValueError(f"{constant} is not strict JSON")

    metrics = json.loads((out / "metrics.json").read_text(), parse_constant=reject)
    report = json.loads((out / "train_report_h5min.json").read_text(), parse_constant=reject)
    assert metrics["horizons"][0]["diverged"] and report["diverged"]


def test_diagnose_negative_max_lag_exits_1_on_one_json_line(tmp_path, capsys):
    bundle = make_bundle_dir(tmp_path, n=6)
    out = tmp_path / "run"
    assert run(train_args(bundle, out, ("--kind", "none"))) == 0
    capsys.readouterr()
    code = run(
        ["diagnose", "--checkpoint", str(out / "checkpoint_h5min_best.json"),
         "--series", str(bundle / "series.csv"), "--max-lag", "-2", "--out", str(tmp_path / "d")]
    )
    assert code == 1
    (line,) = capsys.readouterr().err.strip().splitlines()
    err = json.loads(line)
    assert err["error"] == "ValidationError" and "max_lag" in err["message"]


@pytest.mark.parametrize(
    "flags, named",
    [(("--max-lag", "-1"), "max_lag must be >= 0, got -1"), (("--ts-lags", "1,-2"), "lag must be >= 0, got -2")],
    ids=["max-lag", "ts-lags"],
)
def test_diagnose_refuses_a_negative_lag_before_reading_a_file(tmp_path, capsys, flags, named):
    code = run(
        ["diagnose", "--checkpoint", str(tmp_path / "missing.json"),
         "--series", str(tmp_path / "missing.csv"), *flags, "--out", str(tmp_path / "d")]
    )
    assert code == 1
    err = one_json_error(capsys)
    assert err["error"] == "ValidationError" and named in err["message"]
    assert not (tmp_path / "d").exists()


def test_compare_all_kinds_row_count(tmp_path):
    bundle = make_bundle_dir(tmp_path, steps=400)
    out = tmp_path / "cmp"
    code = run(
        [
            "compare",
            "--series", str(bundle / "series.csv"),
            "--adjacency", str(bundle / "adjacency.csv"),
            "--history", "3",
            "--epochs", "2",
            "--seed", "0",
            "--rank", "3",
            "--out", str(out),
        ]
    )
    assert code == 0
    table = json.loads((out / "compare.json").read_text())
    assert [row["kind"] for row in table["rows"]] == [
        "none", "scalar", "diagonal", "sparse_full",
        "low_rank", "low_rank_sparse", "structural",
    ]
    csv_lines = (out / "compare.csv").read_text().strip().splitlines()
    assert len(csv_lines) == 8  # header + 7 kinds


def test_compare_none_row_matches_independent_train(tmp_path):
    # every compare row is the selected checkpoint of the matching train run
    bundle = make_bundle_dir(tmp_path)
    horizons = ("--horizon-min", "5,15")
    solo = {}
    for kind in ("none", "diagonal"):
        out = tmp_path / f"solo_{kind}"
        assert run(train_args(bundle, out, ("--kind", kind, *horizons))) == 0
        solo[kind] = json.loads((out / "metrics.json").read_text())["horizons"]
    for select in ("best", "last"):
        cmp_out = tmp_path / f"cmp_{select}"
        code = run(
            [
                "compare",
                "--series", str(bundle / "series.csv"),
                "--adjacency", str(bundle / "adjacency.csv"),
                "--kinds", "none,diagonal",
                "--history", "4",
                "--epochs", "4",
                "--seed", "1",
                "--select", select,
                *horizons,
                "--out", str(cmp_out),
            ]
        )
        assert code == 0
        rows = json.loads((cmp_out / "compare.json").read_text())["rows"]
        assert [(r["kind"], r["horizon_min"]) for r in rows] == [
            ("none", 5.0), ("none", 15.0), ("diagonal", 5.0), ("diagonal", 15.0),
        ]
        for row in rows:
            trained = next(h for h in solo[row["kind"]] if h["horizon_min"] == row["horizon_min"])
            chosen = trained[f"test_{select}"]
            assert row["rmse"] == chosen["rmse"]
            assert row["mape_percent"] == chosen["mape_percent"]
            assert row["val_mse_best"] == trained["val_mse_best"]


def test_compare_rejects_repeated_kind(tmp_path, capsys):
    code = run(
        ["compare", "--series", str(tmp_path / "unread.csv"), "--kinds", "none,none",
         "--out", str(tmp_path / "cmp")]
    )
    assert code == 1
    assert json.loads(capsys.readouterr().err.strip())["error"] == "ValidationError"


def test_compare_rejects_unknown_kind(tmp_path, capsys):
    code = run(
        ["compare", "--series", str(tmp_path / "unread.csv"), "--kinds", "none,bogus",
         "--out", str(tmp_path / "cmp")]
    )
    assert code == 1
    parsed = one_json_error(capsys)
    assert parsed["error"] == "ValidationError" and "'bogus'" in parsed["message"]


def test_multi_horizon_train(tmp_path):
    bundle = make_bundle_dir(tmp_path)
    out = tmp_path / "multi"
    code = run(train_args(bundle, out, ("--kind", "none", "--horizon-min", "5,15")))
    assert code == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert [h["horizon_min"] for h in metrics["horizons"]] == [5.0, 15.0]
    steps = [json.loads((out / f"checkpoint_h{m}min_best.json").read_text())["horizon_step"]
             for m in (5, 15)]
    assert steps == [0, 2]
    short, long = (load_checkpoint(out / f"checkpoint_h{m}min_best.json")[0] for m in (5, 15))
    assert not np.array_equal(short.get_params(), long.get_params())


def test_fractional_horizons_write_separate_files(tmp_path):
    bundle = make_bundle_dir(tmp_path)
    out = tmp_path / "half"
    code = run(train_args(bundle, out, ("--kind", "none", "--step-min", "0.5",
                                        "--horizon-min", "5,5.5")))
    assert code == 0
    steps = [json.loads((out / f"checkpoint_h{m}min_best.json").read_text())["horizon_step"]
             for m in ("5", "5.5")]
    assert steps == [9, 10]
    assert (out / "train_report_h5.5min.json").exists()


def test_train_var_order_3_checkpoint(tmp_path, capsys):
    bundle = make_bundle_dir(tmp_path)
    out = tmp_path / "var3"
    assert run(train_args(bundle, out, ("--kind", "diagonal", "--var-order", "3"))) == 0
    em = load_checkpoint(out / "checkpoint_h5min_best.json")[1]
    assert em.var_order == 3 and em.payload["diag"].shape == (3, 8)
    capsys.readouterr()
    for order in ("0", "5"):  # outside [1, history = 4]
        code = run(train_args(bundle, tmp_path / "bad", ("--kind", "diagonal", "--var-order", order)))
        assert code == 1
        assert json.loads(capsys.readouterr().err.strip())["error"] == "ValidationError"


def test_compare_structural_without_adjacency_fails_before_training(tmp_path, capsys, monkeypatch):
    bundle = make_bundle_dir(tmp_path)
    fits = []
    fit = saea.cli.fit
    monkeypatch.setattr(saea.cli, "fit", lambda *a: fits.append(1) or fit(*a))
    code = run(["compare", "--series", str(bundle / "series.csv"),
                "--kinds", "none,diagonal,structural", "--history", "4", "--epochs", "2",
                "--out", str(tmp_path / "cmp")])
    assert code == 1
    parsed = json.loads(capsys.readouterr().err.strip())
    assert parsed == {"error": "ValidationError", "message": "structural kind requires --adjacency"}
    assert fits == []


@pytest.mark.parametrize(
    "bad, message",
    [
        (("--kinds", "none,low_rank", "--rank", "50"), "rank must be in [1, 6], got 50"),
        (("--kinds", "none,low_rank_sparse", "--rank", "0"), "rank must be in [1, 6], got 0"),
        (("--kinds", "none,diagonal", "--alpha", "-1"), "alpha must be >= 0, got -1.0"),
        (("--kinds", "none,low_rank_sparse", "--beta", "-0.5"), "beta must be >= 0, got -0.5"),
    ],
    ids=["rank-above-n", "rank-zero", "alpha-negative", "beta-negative"],
)
def test_compare_bad_kind_settings_fail_before_training(tmp_path, capsys, monkeypatch, bad, message):
    bundle = make_bundle_dir(tmp_path, n=6)
    fits = []
    fit = saea.cli.fit
    monkeypatch.setattr(saea.cli, "fit", lambda *a: fits.append(1) or fit(*a))
    capsys.readouterr()
    code = run(["compare", "--series", str(bundle / "series.csv"), "--history", "4",
                "--epochs", "2", "--out", str(tmp_path / "cmp"), *bad])
    assert code == 1
    assert json.loads(capsys.readouterr().err.strip()) == {"error": "ValidationError", "message": message}
    assert fits == []


def test_compare_manifest_records_each_kinds_settings(tmp_path):
    bundle = make_bundle_dir(tmp_path, n=6)
    out = tmp_path / "cmp"
    code = run(["compare", "--series", str(bundle / "series.csv"),
                "--kinds", "none,diagonal,low_rank", "--history", "4", "--epochs", "2",
                "--out", str(out)])
    assert code == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert config["kinds"] == [
        {"kind": "none", "alpha": None, "beta": None, "rank": None},
        {"kind": "diagonal", "alpha": 1000.0, "beta": None, "rank": None},
        {"kind": "low_rank", "alpha": 100.0, "beta": None, "rank": 6},  # min(10, N)
    ]
    assert not {"kind", "alpha", "beta", "rank"} & set(config)
    assert config["epochs"] == 2 and config["history"] == 4


def test_horizon_too_long_for_series_fails(tmp_path, capsys):
    bundle = make_bundle_dir(tmp_path)
    out = tmp_path / "too_long"
    # the 10% test split of 700 steps holds 70; history 4 + 100 steps ahead does not fit
    code = run(train_args(bundle, out, ("--kind", "none", "--horizon-min", "500")))
    assert code == 1
    assert one_json_error(capsys) == {
        "error": "ValidationError",
        "message": "series of T=70 too short for history=4, horizon_step=99 (need T >= 104)",
    }


def test_config_file_precedence(tmp_path):
    bundle = make_bundle_dir(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs = 2\nhistory = 3\nkind = diagonal\n# comment\n")
    out = tmp_path / "cfgrun"
    code = run(
        [
            "train",
            "--series", str(bundle / "series.csv"),
            "--config", str(cfg),
            "--epochs", "3",  # flag beats file
            "--seed", "0",
            "--out", str(out),
        ]
    )
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["epochs"] == 3
    assert manifest["config"]["history"] == 3
    assert manifest["config"]["kind"] == "diagonal"


def test_parser_defaults_are_train_config_defaults():
    args = saea.cli.build_parser().parse_args(["train", "--series", "s.csv", "--out", "o"])
    config = vars(args)
    names = [f.name for f in dataclasses.fields(TrainConfig)]
    assert TrainConfig(**{name: config[name] for name in names}) == TrainConfig()
    # the error model settles the penalty weights and the rank for its kind
    assert (config["alpha"], config["beta"], config["rank"]) == (None, None, None)


def test_unknown_config_key_fails(tmp_path):
    bundle = make_bundle_dir(tmp_path)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("epochz = 2\n")
    out = tmp_path / "x"
    code = run(
        ["train", "--series", str(bundle / "series.csv"), "--config", str(cfg),
         "--out", str(out)]
    )
    assert code == 1


def test_unknown_flag_exits_1_naming_it(tmp_path, capsys):
    argv = ["train", "--series", "s.csv", "--out", str(tmp_path / "o"), "--does-not-exist", "1"]
    assert run(argv) == 1
    parsed = one_json_error(capsys)
    assert parsed["error"] == "ValidationError" and "--does-not-exist" in parsed["message"]


def test_compare_rejects_a_kind_config_line(tmp_path, capsys):
    # compare takes --kinds; a flag is never read as the prefix of another
    cfg = tmp_path / "kind.cfg"
    cfg.write_text("kind = diagonal\n")
    argv = ["compare", "--series", "s.csv", "--config", str(cfg), "--out", str(tmp_path / "o")]
    assert run(argv) == 1
    parsed = one_json_error(capsys)
    assert parsed["error"] == "ValidationError" and "--kind=diagonal" in parsed["message"]


def test_validation_failure_exits_1_with_structured_message(tmp_path, capsys):
    bundle = make_bundle_dir(tmp_path)
    out = tmp_path / "bad"
    code = run(train_args(bundle, out, ("--train-frac", "0.99")))
    assert code == 1
    message = capsys.readouterr().err
    parsed = json.loads(message.strip().splitlines()[-1])
    assert parsed["error"] == "ValidationError"


def test_structural_without_adjacency_fails_cleanly(tmp_path):
    bundle = make_bundle_dir(tmp_path)
    out = tmp_path / "no_adj"
    code = run(
        ["train", "--series", str(bundle / "series.csv"), "--kind", "structural",
         "--epochs", "2", "--history", "3", "--out", str(out)]
    )
    assert code == 1


def test_horizon_not_multiple_of_step_fails(tmp_path):
    bundle = make_bundle_dir(tmp_path)
    out = tmp_path / "bad_h"
    code = run(train_args(bundle, out, ("--horizon-min", "7")))
    assert code == 1


@pytest.mark.parametrize("minutes", ["abc", "5,,10", "5,5", "nan", "inf"])
def test_malformed_horizons_fail_validation(tmp_path, capsys, minutes):
    bundle = make_bundle_dir(tmp_path)
    code = run(train_args(bundle, tmp_path / "bad_h", ("--horizon-min", minutes)))
    assert code == 1
    assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"] == "ValidationError"


@pytest.mark.parametrize(
    "flags, message",
    [(("--horizon-min", "7"), "horizon 7.0 min is not a positive multiple of the 5.0 min sampling step"),
     (("--step-min", "0"), "step_min must be > 0, got 0.0"),
     (("--kind", "structural"), "structural kind requires --adjacency"),
     (("--model", "graphfilter"), "graphfilter model requires --adjacency"),
     (("--history", "1"), "history must be >= 2, got 1"),
     (("--history", "0"), "history must be >= 2, got 0"),
     (("--history", "4", "--var-order", "5"), "var_order must be in [1, 4], got 5"),
     (("--model", "mlp1", "--hidden", "0"), "hidden must be >= 1, got 0"),
     (("--train-frac", "0"), "train_frac must be in (0, 1), got 0.0"),
     (("--train-frac", "nan"), "train_frac must be a finite number, got nan"),
     (("--train-frac", "0.8", "--val-frac", "0.3"), "train_frac + val_frac must be < 1"),
     (("--horizon-min", "5,5.0000000001"), "horizon 5.0000000001 min is listed twice")],
    ids=["horizon-off-step", "step-zero", "structural-without-adjacency", "graphfilter-without-adjacency",
         "history-one", "history-zero-before-var-order", "var-order-above-history", "mlp1-hidden-zero",
         "train-frac-zero", "train-frac-nan", "fractions-sum-above-one", "horizons-at-one-step"],
)
def test_settings_that_need_no_file_fail_before_one_is_read(tmp_path, capsys, flags, message):
    code = run(["train", "--series", str(tmp_path / "missing.csv"), *flags,
                "--out", str(tmp_path / "out")])
    assert code == 1 and not (tmp_path / "out").exists()
    assert one_json_error(capsys) == {"error": "ValidationError", "message": message}


@pytest.mark.parametrize(
    "argv, named",
    [(("diagnose", "--checkpoint", "{unread}", "--series", "{unread}", "--ts-lags", "1,1,0"),
      "saea diagnose: argument --ts-lags: '1' is listed twice"),
     (("train", "--series", "{unread}", "--horizon-min", "5,15,5.0"),
      "saea train: argument --horizon-min: '5.0' is listed twice"),
     (("compare", "--series", "{unread}", "--kinds", "all,none"),
      "saea compare: argument --kinds: 'all' is not one of none, scalar,")],
    ids=["ts-lags", "horizon-min", "all-in-a-list"],
)
def test_list_flags_refuse_a_repeat_and_all_in_a_list(tmp_path, capsys, argv, named):
    argv = [arg.format(unread=tmp_path / "unread") for arg in argv]
    assert run([*argv, "--out", str(tmp_path / "out")]) == 1
    parsed = one_json_error(capsys)
    assert parsed["error"] == "ValidationError" and parsed["message"].startswith(named)


def test_manifest_records_horizon_min_as_a_list(tmp_path):
    bundle = make_bundle_dir(tmp_path, n=4, steps=300)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("horizon_min = 5,15\n")
    for extra, recorded in ((("--config", str(cfg)), [5.0, 15.0]), ((), [5.0])):
        out = tmp_path / f"run{len(recorded)}"
        assert run(train_args(bundle, out, ("--kind", "none", "--epochs", "1", *extra))) == 0
        assert json.loads((out / "manifest.json").read_text())["config"]["horizon_min"] == recorded


@pytest.mark.parametrize(
    "line", ["kind = foo", "select = foo", "var_order = 13", "optimizer = adam", "normalize = minmax"]
)
def test_out_of_choice_config_value_fails_validation(tmp_path, capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"kind = none\n{line}\n")
    code = run(
        ["train", "--series", str(tmp_path / "unread.csv"), "--config", str(cfg),
         "--out", str(tmp_path / "x")]
    )
    assert code == 1
    assert json.loads(capsys.readouterr().err.strip())["error"] == "ValidationError"


@pytest.mark.parametrize(
    "line, named",
    [("kind none", "expected 'key = value'"),
     pytest.param("epochs = ten", "bad.cfg:2: saea train: argument --epochs: invalid int value: 'ten'",
                  id="epochs-ten"),
     pytest.param("optimizer = adam", "bad.cfg:2: saea train: argument --optimizer: invalid choice: 'adam'",
                  id="optimizer-adam"),
     pytest.param("horizon_min = 5,abc",
                  "bad.cfg:2: saea train: argument --horizon-min: 'abc' is not a valid float",
                  id="horizon-min-abc")],
)
def test_malformed_config_line_fails_validation_naming_it(tmp_path, capsys, line, named):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"seed = 1\n{line}\n")
    code = run(
        ["train", "--series", str(tmp_path / "unread.csv"), "--config", str(cfg),
         "--out", str(tmp_path / "x")]
    )
    assert code == 1
    parsed = one_json_error(capsys)
    assert parsed["error"] == "ValidationError" and named in parsed["message"]


@pytest.mark.parametrize(
    "argv, error, named",
    [
        (("synth", "--dgp-self", "0.5,x"), "ValidationError", "--dgp-self: 'x'"),
        (("synth", "--dgp-hop", ""), "ValidationError", "--dgp-hop: ''"),
        (("synth", "--phi-star", "{phi}"), "ParseError", "phi.csv: non-numeric cell at row 0, column 1"),
        # the lags are parsed before the (unreadable) checkpoint and series
        (("diagnose", "--checkpoint", "{unread}", "--series", "{unread}", "--ts-lags", "1,x"),
         "ValidationError", "--ts-lags: 'x'"),
    ],
    ids=["dgp-self", "dgp-hop", "phi-star", "ts-lags"],
)
def test_malformed_list_and_matrix_inputs_fail_cleanly(tmp_path, capsys, argv, error, named):
    phi = tmp_path / "phi.csv"
    phi.write_text("0.1,x\n0.2,0.3\n")
    argv = [arg.format(phi=phi, unread=tmp_path / "unread") for arg in argv]
    assert run([*argv, "--out", str(tmp_path / "out")]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == error
    assert named in err["message"]


@pytest.mark.parametrize(
    "argv, error, named",
    [
        (("eval", "--checkpoint", "{missing}", "--series", "{series}"),
         "FileNotFoundError", "{missing}"),
        (("eval", "--checkpoint", "{brace}", "--series", "{series}"), "ParseError", "{brace}"),
        (("eval", "--checkpoint", "{array}", "--series", "{series}"),
         "ValidationError", "JSON object"),
        (("train", "--series", "{missing}"), "FileNotFoundError", "{missing}"),
        (("train", "--series", "{series}", "--adjacency", "{missing}"),
         "FileNotFoundError", "{missing}"),
        (("train", "--series", "{series}", "--config", "{missing}"),
         "FileNotFoundError", "{missing}"),
        (("synth", "--phi-star", "{missing}"), "FileNotFoundError", "{missing}"),
        (("train", "--series", "{latin}"), "ParseError", "{latin}"),
        (("train", "--series", "{series}", "--config", "{latin}"), "ParseError", "{latin}"),
        (("train", "--series", "{series}", "--adjacency", "{latin}"), "ParseError", "{latin}"),
        (("eval", "--checkpoint", "{bare}", "--series", "{series}"), "ValidationError", "'model'"),
        (("eval", "--checkpoint", "{listmodel}", "--series", "{series}"),
         "ValidationError", "'model'"),
    ],
    ids=["checkpoint-missing", "checkpoint-brace", "checkpoint-array", "series-missing",
         "adjacency-missing", "config-missing", "phi-star-missing", "series-not-utf8",
         "config-not-utf8", "adjacency-not-utf8", "checkpoint-no-model", "checkpoint-model-array"],
)
def test_unreadable_input_files_fail_with_one_json_line(tmp_path, capsys, argv, error, named):
    names = ("missing", "series", "brace", "array", "latin", "bare", "listmodel")
    paths = {name: tmp_path / f"{name}.txt" for name in names}
    paths["series"].write_text("a,b\n" + "1.0,2.0\n" * 30)
    paths["brace"].write_text("{")
    paths["array"].write_text("[]")
    paths["bare"].write_text('{"format_version": 2}')
    paths["listmodel"].write_text('{"format_version": 2, "model": []}')
    paths["latin"].write_bytes("caf\u00e9,b\n1.0,2.0\n".encode("latin-1"))
    argv = [arg.format(**paths) for arg in argv]
    assert run([*argv, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    parsed = json.loads(err)
    assert parsed["error"] == error
    assert named.format(**paths) in parsed["message"]


@pytest.mark.parametrize(
    "field, value, named",
    [
        ("normalizer", [], "'normalizer'"),
        ("normalizer", {"mode": "zscore", "mean": "x", "std": [1.0, 1.0]}, "'mean'"),
        ("horizon_step", "x", "'horizon_step'"),
        ("step_minutes", "x", "'step_minutes'"),
        ("train_frac", "x", "'train_frac'"),
        ("normalizer", {"mode": "zscore", "mean": [0.0] * 3, "std": [1.0] * 2},
         "normalizer field 'std' has shape (2,), expected (3,)"),
        ("horizon_step", True, "'horizon_step'"),
        ("step_minutes", True, "'step_minutes'"),
        ("step_minutes", float("nan"), "'step_minutes'"),
        ("train_frac", float("inf"), "'train_frac'"),
        ("normalizer", {"mode": "zscore", "mean": [0.0, float("nan")], "std": [1.0] * 2}, "'mean'"),
        ("model", {**NodeAR(3, 2).to_blob(), "history": True}, "'history'"),
        ("model", {**NodeAR(3, 2).to_blob(), "theta": [float("nan")] * 8}, "'theta'"),
        ("error_model", {**ErrorModel("scalar", 2).to_blob(), "var_order": True}, "'var_order'"),
        ("error_model", {**ErrorModel("scalar", 2).to_blob(), "payload": {"coef": [float("inf")]}},
         "'coef'"),
    ],
    ids=[
        "normalizer-list", "zscore-mean-string", "horizon-step-string", "step-minutes-string",
        "train-frac-string", "zscore-mean-length", "horizon-step-bool", "step-minutes-bool",
        "step-minutes-nan", "train-frac-inf", "zscore-mean-nan", "model-history-bool",
        "model-theta-nan", "error-model-var-order-bool", "error-model-payload-inf",
    ],
)
def test_malformed_checkpoint_run_fields_fail_with_one_json_line(
    tmp_path, capsys, field, value, named
):
    series = tmp_path / "series.csv"
    series.write_text("a,b\n" + "1.0,2.0\n" * 30)
    ckpt = tmp_path / "checkpoint.json"
    # json.dumps stands in for another tool's file: save_checkpoint refuses NaN and Infinity
    ckpt.write_text(json.dumps(checkpoint_blob(NodeAR(3, 2), None, {field: value})))
    argv = ["eval", "--checkpoint", str(ckpt), "--series", str(series)]
    assert run([*argv, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    parsed = json.loads(err)
    assert parsed["error"] == "ValidationError" and named in parsed["message"]
    # an absent field keeps its default, and step_minutes may be a JSON integer
    save_checkpoint(ckpt, NodeAR(3, 2), None, extra={"step_minutes": 5})
    assert run([*argv, "--out", str(tmp_path / "ok")]) == 0


@pytest.mark.parametrize(
    "sensors, fields, named",
    [
        (3, {}, "series has 3 sensors"),
        (3, {"normalizer": {"mode": "zscore", "mean": [0.0] * 2, "std": [1.0] * 2}}, "series has 3"),
        (2, {"error_model": ErrorModel("scalar", 3).to_blob()}, "error model field 'n'"),
        # theta has the 2 * history + n entries of n = 3, so only the propagation disagrees
        (2, {"model": {**GraphFilterAR(3, np.eye(2)).to_blob(), "n": 3, "theta": [0.0] * 9}},
         "model field 'n' is 3, but its propagation has size 2"),
        # a negative std would score in wrong units, a zero one divide by zero
        (2, {"normalizer": {"mode": "zscore", "mean": [0.0] * 2, "std": [-1.0] * 2}}, "'std'"),
        (2, {"normalizer": {"mode": "zscore", "mean": [0.0] * 2, "std": [0.0] * 2}}, "'std'"),
    ],
    ids=["series", "zscore-series", "error-model", "graphfilter-propagation",
         "zscore-std-negative", "zscore-std-zero"],
)
def test_checkpoint_sensor_count_disagreement_fails_before_scoring(
    tmp_path, capsys, sensors, fields, named
):
    series = tmp_path / "series.csv"
    series.write_text(",".join("abc"[:sensors]) + "\n" + (",".join(["1.0"] * sensors) + "\n") * 30)
    ckpt = tmp_path / "checkpoint.json"
    ckpt.write_text(json.dumps({**checkpoint_blob(NodeAR(3, 2), None), **fields}))
    for command in ("eval", "diagnose"):
        argv = [command, "--checkpoint", str(ckpt), "--series", str(series)]
        assert run([*argv, "--out", str(tmp_path / command)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        parsed = json.loads(err)
        assert parsed["error"] == "ValidationError" and named in parsed["message"]


def one_json_error(capsys) -> dict:
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    return json.loads(err)


@pytest.mark.parametrize("text", ["", "# weights\n# of sensors 0-7\n"], ids=["empty", "comments"])
@pytest.mark.parametrize("flag", ["--adjacency", "--phi-star"])
def test_an_empty_or_comment_only_matrix_csv_is_one_json_error(tmp_path, capsys, flag, text):
    matrix = tmp_path / "matrix.csv"
    matrix.write_text(text)
    if flag == "--adjacency":  # read before the series, which is never opened
        argv = ["train", "--series", str(tmp_path / "unread.csv"), flag, str(matrix)]
    else:
        argv = ["synth", "--n", "4", "--steps", "50", flag, str(matrix)]
    assert run([*argv, "--out", str(tmp_path / "out")]) == 1
    parsed = one_json_error(capsys)
    assert parsed["error"] == "ParseError" and str(matrix) in parsed["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "flag, text",
    [("--adjacency", "0,1,0\n1,0,1\n"), ("--adjacency", "1,1\n1,0\n"),
     ("--adjacency", "0,-1\n1,0\n"), ("--phi-star", "0,0.1,0\n0.1,0,0.1\n")],
    ids=["adjacency-wide", "adjacency-self-loop", "adjacency-negative", "phi-star-wide"],
)
def test_a_rejected_matrix_csv_is_named(tmp_path, capsys, flag, text):
    matrix = tmp_path / "matrix.csv"
    matrix.write_text(text)
    if flag == "--adjacency":  # read before the series, which is never opened
        argv = ["train", "--series", str(tmp_path / "unread.csv"), flag, str(matrix)]
    else:  # the shape is checked before the radius is
        argv = ["synth", "--n", "4", "--steps", "50", flag, str(matrix), "--phi-radius", "0.5"]
    assert run([*argv, "--out", str(tmp_path / "out")]) == 1
    parsed = one_json_error(capsys)
    assert parsed["error"] == "ValidationError" and parsed["message"].startswith(f"{matrix}: ")
    assert not (tmp_path / "out").exists()


def test_train_and_eval_on_a_directed_adjacency(tmp_path):
    bundle = make_bundle_dir(tmp_path)
    # sensor i receives from sensor i + 1 only, and sensor 7 from none
    chain = np.eye(8, k=1)
    adjacency = tmp_path / "directed.csv"
    adjacency.write_text("".join(",".join(map(str, row)) + "\n" for row in chain))
    argv = train_args(bundle, tmp_path / "run", ("--model", "graphfilter", "--kind", "structural"))
    argv[argv.index("--adjacency") + 1] = str(adjacency)
    assert run(argv) == 0
    ckpt = tmp_path / "run" / "checkpoint_h5min_best.json"
    model, em = load_checkpoint(ckpt)
    assert np.array_equal(model.propagation, chain)  # every degree is 0 or 1
    assert np.array_equal(em.mask.graph.adjacency, chain)
    assert np.array_equal(em.mask.mask == 0, np.eye(8) + chain > 0)
    argv = ["eval", "--checkpoint", str(ckpt), "--series", str(bundle / "series.csv")]
    assert run([*argv, "--out", str(tmp_path / "eval")]) == 0
    scored = json.loads((tmp_path / "eval" / "metrics.json").read_text())
    trained = json.loads((tmp_path / "run" / "metrics.json").read_text())["horizons"][0]
    assert scored["rmse"] == trained["test_best"]["rmse"]


def test_series_sensor_count_is_checked_from_the_header(tmp_path, capsys):
    # the body's malformed cell is never reached: the header already disagrees
    series = tmp_path / "series.csv"
    series.write_text("a,b,c\n" + "1.0,2.0,3.0\n" * 10 + "1.0,x,3.0\n" + "1.0,2.0,3.0\n" * 20)
    ckpt = tmp_path / "checkpoint.json"
    save_checkpoint(ckpt, NodeAR(3, 2), None)
    for command in ("eval", "diagnose"):
        argv = [command, "--checkpoint", str(ckpt), "--series", str(series)]
        assert run([*argv, "--out", str(tmp_path / command)]) == 1
        parsed = one_json_error(capsys)
        assert parsed["error"] == "ValidationError"
        assert "series has 3 sensors, expected 2" in parsed["message"]
    adjacency = tmp_path / "adjacency.csv"
    adjacency.write_text("0,1\n1,0\n")
    argv = ["train", "--series", str(series), "--adjacency", str(adjacency), "--out", str(tmp_path / "t")]
    assert run(argv) == 1
    assert "series has 3 sensors, expected 2" in one_json_error(capsys)["message"]


@pytest.mark.parametrize(
    "adjacency",
    [
        np.eye(8),                                  # self-loop
        -(np.ones((8, 8)) - np.eye(8)),             # negative weights
        np.ones((9, 9)) - np.eye(9),                # wrong size
        np.zeros((8, 7)),                           # not square
        np.where(np.eye(8) > 0, 0.0, np.nan),       # not finite
        [[True] * 8] * 8,                           # booleans, not weights
    ],
    ids=["self-loop", "negative", "wrong-size", "not-square", "nan", "boolean"],
)
def test_eval_rejects_a_bad_checkpoint_adjacency(tmp_path, capsys, adjacency):
    series = tmp_path / "series.csv"
    series.write_text(",".join("abcdefgh") + "\n" + (",".join(["1.0"] * 8) + "\n") * 30)
    em = ErrorModel("structural", 8, mask=structural_mask(ring_graph(8), 1))
    blob = checkpoint_blob(NodeAR(3, 8), em)
    blob["error_model"]["adjacency"] = np.asarray(adjacency).tolist()
    ckpt = tmp_path / "checkpoint.json"
    ckpt.write_text(json.dumps(blob))
    for command in ("eval", "diagnose"):
        argv = [command, "--checkpoint", str(ckpt), "--series", str(series)]
        assert run([*argv, "--out", str(tmp_path / command)]) == 1
        parsed = one_json_error(capsys)
        assert parsed["error"] == "ValidationError" and "adjacency" in parsed["message"]


@pytest.mark.parametrize("field", ["theta", "matrix"])
def test_nonfinite_predictions_exit_1_naming_the_split(tmp_path, capsys, field):
    # finite but extreme fields overflow in scoring; no metrics file is written
    series = tmp_path / "series.csv"
    rows = np.random.default_rng(0).normal(size=(60, 8))
    np.savetxt(series, rows, fmt="%.17g", delimiter=",", header=",".join("abcdefgh"), comments="")
    em = ErrorModel("structural", 8, mask=structural_mask(ring_graph(8), 1))
    blob = checkpoint_blob(NodeAR(3, 8), em)
    if field == "theta":
        blob["model"]["theta"] = [1e308] * len(blob["model"]["theta"])
    else:
        blob["error_model"]["payload"]["matrix"] = np.full((1, 8, 8), 1e308).tolist()
    ckpt = tmp_path / "checkpoint.json"
    ckpt.write_text(json.dumps(blob))
    for command in ("eval", "diagnose"):
        out = tmp_path / command
        argv = [command, "--checkpoint", str(ckpt), "--series", str(series), "--split", "val"]
        assert run([*argv, "--out", str(out)]) == 1
        parsed = one_json_error(capsys)
        assert parsed["error"] == "DivergenceError" and "val predictions" in parsed["message"]
        assert not out.exists()


def test_nonfinite_scores_exit_1_naming_the_split(tmp_path, capsys):
    # the predictions are finite, near 1e200, but their squares overflow in
    # the scores; neither command writes its scored file or a manifest
    series = tmp_path / "series.csv"
    rows = np.random.default_rng(0).normal(size=(200, 2))
    np.savetxt(series, rows, fmt="%.17g", delimiter=",", header="a,b", comments="")
    blob = checkpoint_blob(NodeAR(3, 2), None)
    blob["model"]["theta"] = [1e200] * len(blob["model"]["theta"])
    ckpt = tmp_path / "checkpoint.json"
    ckpt.write_text(json.dumps(blob))
    for command, flags in (("eval", ()), ("diagnose", ("--max-lag", "5"))):
        out = tmp_path / command
        argv = [command, "--checkpoint", str(ckpt), "--series", str(series), "--split", "val"]
        assert run([*argv, *flags, "--out", str(out)]) == 1
        parsed = one_json_error(capsys)
        assert parsed["error"] == "DivergenceError" and "val scores" in parsed["message"]
        assert not out.exists()


def test_train_and_compare_refuse_nonfinite_test_scores(tmp_path, capsys):
    # the last 60 rows, all in the test split, are near 1e160: the test
    # predictions are finite, but their squares overflow in the test RMSE
    series = tmp_path / "series.csv"
    rows = np.random.default_rng(0).normal(size=(400, 3))
    rows[-60:] *= 1e160
    np.savetxt(series, rows, fmt="%.17g", delimiter=",", header="a,b,c", comments="")
    flags = ("--series", str(series), "--history", "4", "--epochs", "2")
    for argv in (("train", *flags, "--kind", "none"), ("compare", *flags, "--kinds", "none,diagonal")):
        out = tmp_path / argv[0]
        assert run([*argv, "--out", str(out)]) == 1
        assert one_json_error(capsys)["error"] == "DivergenceError"
        assert not out.exists()


def test_train_and_compare_refuse_nonfinite_test_predictions(tmp_path, capsys, monkeypatch):
    # the scoring path alone predicts inf; training is untouched
    bundle = make_bundle_dir(tmp_path, steps=300, n=4)
    monkeypatch.setattr(
        saea.cli, "predict_windows", lambda model, em, ws: np.full(ws.targets.shape, np.inf)
    )
    flags = ("--series", str(bundle / "series.csv"), "--history", "4", "--epochs", "1")
    for argv in (("train", *flags, "--kind", "none"), ("compare", *flags, "--kinds", "none")):
        out = tmp_path / argv[0]
        assert run([*argv, "--out", str(out)]) == 1
        parsed = one_json_error(capsys)
        assert parsed["error"] == "DivergenceError" and "test predictions" in parsed["message"]
        assert not out.exists()


def test_a_refused_eval_prints_one_json_line_and_no_numpy_warning(tmp_path):
    # a fresh process keeps Python's default warning filters, which print
    # numpy's overflow warnings; the scores overflow, as in the test above
    series = tmp_path / "series.csv"
    rows = np.random.default_rng(0).normal(size=(200, 2))
    np.savetxt(series, rows, fmt="%.17g", delimiter=",", header="a,b", comments="")
    blob = checkpoint_blob(NodeAR(3, 2), None)
    blob["model"]["theta"] = [1e200] * len(blob["model"]["theta"])
    ckpt = tmp_path / "checkpoint.json"
    ckpt.write_text(json.dumps(blob))
    argv = ["eval", "--checkpoint", str(ckpt), "--series", str(series), "--out", str(tmp_path / "e")]
    env = {**os.environ, "PYTHONPATH": str(Path(saea.cli.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", "import saea.cli; saea.cli.main()", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 1
    (line,) = proc.stderr.splitlines()
    assert json.loads(line)["error"] == "DivergenceError"


@pytest.mark.parametrize(
    "model, field, value",
    [
        (NodeAR(3, 2), "history", 10**30),
        (GraphFilterAR(3, np.eye(2)), "history", 10**30),
        (MLP1(3, 2, hidden=4), "history", 10**30),
        (NodeAR(3, 2), "n", 10**30),
        (MLP1(3, 2, hidden=4), "hidden", 10**12),
    ],
    ids=["nodear-history", "graphfilter-history", "mlp1-history", "nodear-n", "mlp1-hidden"],
)
def test_checkpoint_sizes_over_theta_exit_1_before_building(tmp_path, capsys, model, field, value):
    # each would fail inside numpy (a TypeError, a ValueError, a MemoryError)
    series = tmp_path / "series.csv"
    series.write_text("a,b\n" + "1.0,2.0\n" * 30)
    blob = checkpoint_blob(model, None)
    blob["model"][field] = value
    ckpt = tmp_path / "checkpoint.json"
    ckpt.write_text(json.dumps(blob))
    argv = ["eval", "--checkpoint", str(ckpt), "--series", str(series), "--out", str(tmp_path / "o")]
    assert run(argv) == 1
    parsed = one_json_error(capsys)
    assert parsed["error"] == "ValidationError" and f"model field {field!r}" in parsed["message"]


def test_synth_too_large_to_allocate_exits_1_on_one_json_line(tmp_path, capsys):
    # the N x N adjacency alone asks for 71 PiB, so numpy refuses at once
    out = tmp_path / "out"
    assert run(["synth", "--n", "100000000", "--steps", "50", "--out", str(out)]) == 1
    parsed = one_json_error(capsys)
    assert parsed["error"] == "MemoryError" and "allocate" in parsed["message"]
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, named",
    [
        (("synth", "--n", "10000000000"), "n=10000000000"),
        (("synth", "--n", str(10**30)), f"n={10**30}"),
        (("synth", "--n", "4", "--steps", str(10**30)), f"steps={10**30}"),
        (("train", "--series", "{series}", "--history", "2", "--model", "mlp1",
          "--hidden", str(10**30)), f"hidden={10**30}"),
    ],
    ids=["synth-n-1e10", "synth-n-1e30", "synth-steps-1e30", "train-mlp1-hidden-1e30"],
)
def test_sizes_numpy_cannot_shape_exit_1_naming_them(tmp_path, capsys, argv, named):
    # each first array would pass numpy's limit; numpy would raise a
    # ValueError ("array is too big", "Maximum allowed dimension exceeded")
    # or, for the hidden width, np.sqrt a TypeError on the Python int
    series = tmp_path / "series.csv"
    series.write_text("a,b\n" + "1.0,2.0\n" * 100)
    out = tmp_path / "out"
    assert run([*(arg.format(series=series) for arg in argv), "--out", str(out)]) == 1
    parsed = one_json_error(capsys)
    assert parsed["error"] == "ValidationError" and named in parsed["message"]
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, named",
    [
        (("synth", "--seed", "-1"), "seed must be >= 0, got -1"),
        (("synth", "--graph", "erdos_renyi", "--p-edge", "0.5", "--graph-seed", "-1"),
         "graph seed must be >= 0, got -1"),
        (("train", "--seed", "-1"), "seed must be >= 0, got -1"),
        (("train", "--kind", "low_rank", "--seed", "-3"), "seed must be >= 0, got -3"),
        (("compare", "--seed", "-1"), "seed must be >= 0, got -1"),
    ],
    ids=["synth", "synth-graph-seed", "train", "train-low-rank", "compare"],
)
def test_negative_seed_exits_1_naming_it(tmp_path, capsys, argv, named):
    # numpy's generators would raise "expected non-negative integer"
    bundle = make_bundle_dir(tmp_path, steps=300, n=4)
    sizes = ("--n", "4", "--steps", "50")
    data = ("--series", str(bundle / "series.csv"), "--history", "4", "--epochs", "1")
    out = tmp_path / "out"
    capsys.readouterr()
    assert run([*argv, *(sizes if argv[0] == "synth" else data), "--out", str(out)]) == 1
    parsed = one_json_error(capsys)
    assert parsed["error"] == "ValidationError" and named in parsed["message"]
    assert not out.exists()


def test_compare_agrees_across_blas_thread_counts(tmp_path):
    # byte identity holds for one BLAS thread count; across counts BLAS may
    # split its sums otherwise, and the numbers agree to about 1e-14 relative
    bundle = tmp_path / "bundle"
    synth = ["synth", "--graph", "erdos_renyi", "--n", "60", "--p-edge", "0.05", "--steps", "800"]
    assert run([*synth, "--out", str(bundle)]) == 0
    compare = [
        "compare", "--series", str(bundle / "series.csv"), "--adjacency", str(bundle / "adjacency.csv"),
        "--model", "graphfilter", "--kinds", "none,structural", "--history", "12", "--epochs", "1",
    ]
    env = {**os.environ, "PYTHONPATH": str(Path(saea.cli.__file__).parents[1])}
    for threads in ("1", "2"):
        counts = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), threads)
        proc = subprocess.run(
            [sys.executable, "-m", "saea.cli", *compare, "--out", str(tmp_path / threads)],
            capture_output=True, text=True, env={**env, **counts}, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
    assert_runs_agree(tmp_path / "1", tmp_path / "2", 1e-12)


def test_python_m_saea_cli_runs_the_command(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(saea.cli.__file__).parents[1])}
    out = tmp_path / "bundle"
    proc = subprocess.run(
        [sys.executable, "-m", "saea.cli", "synth", "--n", "4", "--steps", "50", "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert (out / "series.csv").exists()


@pytest.mark.parametrize("flags", [("--var-order", "13", "--history", "12"), ("--var-order", "0")])
def test_train_var_order_outside_the_window_fails_before_any_fit(tmp_path, capsys, monkeypatch, flags):
    bundle = make_bundle_dir(tmp_path)
    fits = []
    monkeypatch.setattr(saea.cli, "fit", lambda *a: fits.append(1))
    capsys.readouterr()
    assert run(train_args(bundle, tmp_path / "bad", ("--kind", "diagonal", *flags))) == 1
    parsed = one_json_error(capsys)
    assert parsed["error"] == "ValidationError" and "var_order" in parsed["message"]
    assert fits == []


def test_synth_phi_radius_rescales_the_coefficients(tmp_path, capsys):
    base = ["synth", "--n", "8", "--steps", "50", "--phi-radius", "0.5"]
    assert run([*base, "--out", str(tmp_path / "ok")]) == 0
    phi = np.loadtxt(tmp_path / "ok" / "phi_star.csv", delimiter=",")
    assert np.max(np.abs(np.linalg.eigvals(phi))) == pytest.approx(0.5, abs=1e-12)
    # a --phi-star matrix is rescaled too: the ring's own coefficients at 0.8
    star = tmp_path / "star.csv"
    np.savetxt(star, 0.8 / 0.5 * phi, fmt="%.17g", delimiter=",")
    assert run([*base, "--phi-star", str(star), "--out", str(tmp_path / "star")]) == 0
    rescaled = np.loadtxt(tmp_path / "star" / "phi_star.csv", delimiter=",")
    assert_allclose(rescaled, phi, rtol=1e-12, atol=1e-15)
    manifest = json.loads((tmp_path / "star" / "manifest.json").read_text())
    assert "phi_star" not in manifest["config"]  # recorded by its output file's hash
    digest = hashlib.sha256((tmp_path / "star" / "phi_star.csv").read_bytes()).hexdigest()
    assert manifest["outputs"]["phi_star.csv"] == digest
    capsys.readouterr()
    zero = ["--phi-diag", "0", "--phi-hop", "0"]
    assert run([*base, *zero, "--out", str(tmp_path / "zero")]) == 1
    parsed = one_json_error(capsys)
    assert parsed["error"] == "ValidationError" and "zero coefficient matrix" in parsed["message"]


@pytest.mark.parametrize(
    "flags",
    [("--phi-diag", "nan"), ("--phi-radius", "nan"), ("--phi-radius", "inf"),
     ("--phi-radius", "-0.5"), ("--phi-star", "{phi}"),
     ("--phi-star", "{wide}", "--phi-radius", "0.5")],
    ids=["phi-diag-nan", "phi-radius-nan", "phi-radius-inf", "phi-radius-negative", "phi-star-nan",
         "phi-star-wrong-shape-with-radius"],
)
def test_synth_nonfinite_or_negative_coefficients_exit_1(tmp_path, capsys, flags):
    phi, wide = tmp_path / "phi.csv", tmp_path / "wide.csv"
    phi.write_text("0.1,0\n0,nan\n")
    wide.write_text("0.1,0,0\n0,0.2,0\n")
    argv = ["synth", "--graph", "path", "--n", "2", "--steps", "50", *flags]
    argv = [arg.format(phi=phi, wide=wide) for arg in argv]
    assert run(argv + ["--out", str(tmp_path / "out")]) == 1
    assert one_json_error(capsys)["error"] == "ValidationError"
    assert not (tmp_path / "out" / "series.csv").exists()


@pytest.mark.parametrize(
    "flags",
    [("--epochs", "0"), ("--batch", "0"), ("--lr", "nan"), ("--model", "mlp1", "--hidden", "0")],
    ids=["epochs-0", "batch-0", "lr-nan", "mlp1-hidden-0"],
)
@pytest.mark.parametrize("command", ["train", "compare"])
def test_rejected_setting_leaves_no_run_directory(tmp_path, capsys, command, flags):
    bundle = make_bundle_dir(tmp_path, n=6)
    out = tmp_path / "run"
    argv = train_args(bundle, out, flags)
    argv[0] = command
    capsys.readouterr()
    assert run(argv) == 1
    assert one_json_error(capsys)["error"] == "ValidationError"
    assert not out.exists()


@pytest.mark.parametrize(
    "flags",
    [("--phi-radius", "-1"), ("--graph", "path", "--n", "-1"),
     ("--graph", "erdos_renyi", "--n", "-2", "--p-edge", "0.1")],
    ids=["phi-radius-negative", "path-n-negative", "erdos-renyi-n-negative"],
)
def test_rejected_synth_setting_leaves_no_run_directory(tmp_path, capsys, flags):
    out = tmp_path / "out"
    assert run(["synth", "--steps", "50", *flags, "--out", str(out)]) == 1
    assert one_json_error(capsys)["error"] == "ValidationError"
    assert not out.exists()


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"```bash\n(.*?)```", readme, flags=re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True) for line in lines]
    commands = [argv[1:] for argv in commands if argv[:1] == ["saea"]]
    assert [argv[0] for argv in commands] == ["synth", "train", "eval", "diagnose", "compare"]
    parser = saea.cli.build_parser()  # a prefix of a flag is no flag
    for argv in commands:
        parser.parse_args(argv)


def test_readme_names_every_flag():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    (subparsers,) = [
        a for a in saea.cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    flags = {
        flag
        for p in subparsers.choices.values()
        for action in p._actions
        for flag in action.option_strings
        if flag.startswith("--") and flag != "--help"
    }
    # a flag must not pass as the prefix of a longer one (--n of --normalize)
    assert sorted(f for f in flags if not re.search(re.escape(f) + r"(?![\w-])", readme)) == []


def test_readme_library_use_block_runs(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    (block,) = re.findall(r"## Library use\n\n```python\n(.*?)```", readme, flags=re.S)
    assert run(["synth", "--n", "5", "--steps", "300", "--out", str(tmp_path)]) == 0
    monkeypatch.chdir(tmp_path)
    names = {}
    exec(block, names)
    assert names["report"].epochs_run == 300 and not names["report"].diverged
    assert np.isfinite(names["rmse"])


def test_eval_uses_the_split_recorded_at_training(tmp_path, capsys):
    bundle = make_bundle_dir(tmp_path)
    out = tmp_path / "run"
    split = ("--train-frac", "0.6", "--val-frac", "0.2")
    assert run(train_args(bundle, out, ("--kind", "none", *split))) == 0
    checkpoint = json.loads((out / "checkpoint_h5min_best.json").read_text())
    assert (checkpoint["train_frac"], checkpoint["val_frac"]) == (0.6, 0.2)
    eval_args = ["eval", "--checkpoint", str(out / "checkpoint_h5min_best.json"),
                 "--series", str(bundle / "series.csv"), "--split", "val"]
    for flags in ((), split):
        eval_out = tmp_path / f"eval{len(flags)}"
        assert run([*eval_args, *flags, "--out", str(eval_out)]) == 0
        metrics = json.loads((eval_out / "metrics.json").read_text())
        # val is steps [420, 560) of 700; history 4 leaves 136 windows (0.7/0.1 gives 66)
        assert metrics["num_windows"] == 136
        manifest = json.loads((eval_out / "manifest.json").read_text())
        assert (manifest["config"]["train_frac"], manifest["config"]["val_frac"]) == (0.6, 0.2)
        diagnose_out = tmp_path / f"diagnose{len(flags)}"
        assert run(["diagnose", *eval_args[1:], *flags, "--out", str(diagnose_out)]) == 0
        manifest = json.loads((diagnose_out / "manifest.json").read_text())
        assert manifest["config"]["split"] == "val"
        assert (manifest["config"]["train_frac"], manifest["config"]["val_frac"]) == (0.6, 0.2)
    capsys.readouterr()
    for command in ("eval", "diagnose"):
        code = run([command, *eval_args[1:], "--train-frac", "0.7", "--out", str(tmp_path / "bad")])
        assert code == 1
        assert json.loads(capsys.readouterr().err.strip())["error"] == "ValidationError"


def test_normalized_training_metrics_in_original_units(tmp_path):
    bundle = make_bundle_dir(tmp_path)
    raw_out = tmp_path / "raw"
    z_out = tmp_path / "z"
    assert run(train_args(bundle, raw_out, ("--kind", "none"))) == 0
    assert run(train_args(bundle, z_out, ("--kind", "none", "--normalize", "zscore"))) == 0
    raw = json.loads((raw_out / "metrics.json").read_text())["horizons"][0]
    z = json.loads((z_out / "metrics.json").read_text())["horizons"][0]
    # different training trajectories, but both scored in original units
    assert 0.2 < z["test_best"]["rmse"] / raw["test_best"]["rmse"] < 5.0
