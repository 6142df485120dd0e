"""The benchmark's hooks into the CLI still see what they count.

`benchmarks/workloads.py` observes every fit through the name `saea.cli.fit`
and `benchmarks/tracing.py` wraps layer functions in the namespaces the CLI
calls them through; a rename or a call that bypasses those names leaves the
benchmark counting nothing without failing.
"""

import json
from pathlib import Path

import saea.cli
from saea.cli import run

from test_cli import make_bundle_dir, train_args

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


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
