"""The benchmark's hooks into the CLI still see what they count.

`benchmarks/workloads.py` observes every fit through the name `saea.cli.fit`
and `benchmarks/tracing.py` wraps layer functions in the namespaces the CLI
calls them through; a rename or a call that bypasses those names leaves the
benchmark counting nothing without failing. The benchmark's online serving
(`saea_predict` and `predict_recursive` with its call signature) runs here
too, on a tiny workload, and so do `eval` and `diagnose` on the oracle
checkpoint the benchmark writes, so a checkpoint format the benchmark cannot
load fails here.
"""

import json
from pathlib import Path

import saea.cli
from saea.cli import run

from test_cli import make_bundle_dir, train_args

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def ring8(workloads):
    """A tiny workload whose oracle checkpoint is graphfilter + structural,
    the checkpoint path of the road200 workloads."""
    return workloads.Workload(
        name="ring8_serve", why="serve-path check", graph="ring", n=8, steps=300, history=4,
        epochs=1, kinds="none,structural", train_frac=0.5, val_frac=0.1,
        score_train_frac=0.5, score_val_frac=0.1, floor_from="oracle", phi_form="diffusion",
    )


def test_fit_observer_and_tracer_see_compare_and_eval(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import tracing
    import workloads

    bundle = make_bundle_dir(tmp_path)
    assert run(train_args(bundle, tmp_path / "run", ("--kind", "none"))) == 0

    monkeypatch.setattr(saea.cli, "fit", saea.cli.fit)  # restored after the test
    ledger = workloads.Ledger()
    workloads.install_fit_observer(ledger)
    tracer = tracing.Tracer(workloads.api)
    tracer.install(0)
    try:
        code = workloads.api.run(
            ["compare", "--series", str(bundle / "series.csv"),
             "--adjacency", str(bundle / "adjacency.csv"), "--kinds", "none,diagonal",
             "--horizon-min", "5,15", "--history", "4", "--epochs", "2", "--seed", "1",
             "--out", str(tmp_path / "cmp")]
        )
        assert code == 0
        code = workloads.api.run(
            ["eval", "--checkpoint", str(tmp_path / "run" / "checkpoint_h5min_best.json"),
             "--series", str(bundle / "series.csv"), "--out", str(tmp_path / "eval")]
        )
        assert code == 0
    finally:
        tracer.uninstall()

    assert json.loads((tmp_path / "eval" / "metrics.json").read_text())["num_windows"] > 0
    assert (ledger.attempted, ledger.failed) == (4, 0)  # one fit per (kind, horizon)
    calls = {}
    for name, *_ in tracer.spans:
        calls[name] = calls.get(name, 0) + 1
    assert calls["train.fit"] == 4
    # compare builds train/val/test windows once per horizon, eval once
    assert calls["data.make_windows"] == 2 * 3 + 1
    assert calls["adjust.predict_windows"] > 0 and calls["adjust.saea_loss"] > 0
    assert "adjust.spectral_radius" not in calls  # compare computes no radius

    # train still logs one radius per finished epoch, through the traced name
    tracer = tracing.Tracer(workloads.api)
    tracer.install(0)
    try:
        argv = train_args(bundle, tmp_path / "run2", ("--kind", "diagonal", "--epochs", "2"))
        assert workloads.api.run(argv) == 0
    finally:
        tracer.uninstall()
    assert [name for name, *_ in tracer.spans].count("adjust.spectral_radius") == 2
    report = json.loads((tmp_path / "run2" / "train_report_h5min.json").read_text())
    assert len(report["radius"]) == 2


def test_serve_path_matches_batched_predictions_under_tracer(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import tracing
    import workloads

    wl = ring8(workloads)
    prep = workloads.prepare(wl, workloads.setup_inputs(wl, 0, tmp_path / "inputs"))
    calls, rollouts = 40, 10
    served = {"predict_s": [None] * calls, "rollout_s": [None] * rollouts,
              "preds": [], "trajectories": []}
    tracer = tracing.Tracer(workloads.api)
    tracer.install(0)
    try:
        workloads._serve(prep, range(calls), range(rollouts), served, workloads.HostGauge())
    finally:
        tracer.uninstall()

    count = len(prep.windows)
    for k, pred in enumerate(served["preds"]):
        assert abs(pred - prep.batched[k % count]).max() <= prep.tol
    for k, trajectory in enumerate(served["trajectories"]):
        assert trajectory.shape == (workloads.ROLLOUT_STEPS, wl.n)
        assert abs(trajectory[0] - prep.batched[(7 * k) % count]).max() <= prep.tol
    spans = [name for name, *_ in tracer.spans]
    assert spans.count("train.predict_recursive") == rollouts
    # each rollout serves its first step through the name the tracer wraps in
    # saea.train, and rolls its lag products for the later steps
    assert spans.count("adjust.saea_predict") == calls + rollouts


def test_eval_and_diagnose_score_the_benchmark_oracle_checkpoint(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import workloads

    wl = ring8(workloads)
    inputs = workloads.setup_inputs(wl, 0, tmp_path / "inputs")
    split = ["--train-frac", str(wl.score_train_frac), "--val-frac", str(wl.score_val_frac)]
    for command, written in (("eval", "metrics.json"), ("diagnose", "diagnostics.json")):
        out = tmp_path / command
        argv = [command, "--checkpoint", str(inputs.paths.oracle),
                "--series", str(inputs.paths.series), *split, "--out", str(out)]
        assert run(argv) == 0
        assert json.loads((out / written).read_text())
