"""Command-line entry point: seeded, manifest-tracked experiment runs.

Subcommands:

  synth     simulate a series with known dynamics and error structure
  train     fit a base model (optionally with error adjustment) from CSV
  eval      accuracy metrics for a checkpoint on a chronological split
  diagnose  residual-correlation diagnostics (ECM, ACF, cross-lag) as JSON
  compare   train the unadjusted baseline plus each requested
            parameterization under identical seeds and tabulate the results

Every run directory receives a manifest recording the configuration, seed,
input hashes and numeric environment; metric outputs contain no timestamps,
so reruns with identical inputs are byte-identical on one numpy/BLAS build
and one BLAS thread count. Across counts BLAS splits sums otherwise and
RMSProp's eps amplifies rounding in near-zero gradients: road200_kinds'
low_rank MAPE has differed by up to 2.9e-13 at 1 and 2 threads (tested: 1e-12).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import fields
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .adjust import KINDS, ErrorModel, predict_windows
from .data import (
    Normalizer,
    SeriesFrame,
    blob_field,
    check_count,
    check_real,
    check_shape,
    check_split,
    chronological_split,
    ingest_csv,
    load_matrix_csv,
    make_windows,
    open_text,
    read_json,
    save_series_csv,
    write_float_rows,
    write_json,
)
from .errors import DivergenceError, SaeaError, ValidationError
from .forecaster import MLP1, MODEL_KINDS, build_forecaster
from .graph import (
    SensorGraph,
    load_adjacency_csv,
    normalized_adjacency,
    save_adjacency_csv,
    structural_mask,
)
from .metrics import accuracy, residual_report
from .synth import GraphSpec, SynthConfig, generate
from .train import OPTIMIZERS, TrainConfig, fit, load_checkpoint_blob

ALL_KINDS = ("none",) + KINDS


# ---------------------------------------------------------------------------
# config handling


def comma_list(caster, choices=None, distinct=False):
    """An argparse type for a comma list: each item converted by caster and,
    given choices, one of them; distinct refuses an item listed twice."""

    def parse(text: str) -> tuple:
        items = []
        for token in text.split(","):
            try:
                item = caster(token)
            except ValueError:
                raise argparse.ArgumentTypeError(f"{token!r} is not a valid {caster.__name__}") from None
            if choices is not None and item not in choices:
                raise argparse.ArgumentTypeError(f"{token!r} is not one of {', '.join(choices)}")
            if distinct and item in items:
                raise argparse.ArgumentTypeError(f"{token!r} is listed twice")
            items.append(item)
        return tuple(items)

    return parse


TRAIN_FIELDS = {
    # name: (type, default, choices or None); every field is also a flag
    "model": (str, "nodear", MODEL_KINDS),
    "hidden": (int, MLP1.hidden, None),
    "kind": (str, "sparse_full", ALL_KINDS),
    "mask_order": (int, 1, (1, 2)),
    "alpha": (float, None, None),
    "beta": (float, None, None),
    "rank": (int, None, None),
    "var_order": (int, ErrorModel.var_order, None),
    "horizon_min": (comma_list(float, distinct=True), "5", None),
    "step_min": (float, SeriesFrame.step_minutes, None),
    "history": (int, 12, None),
    "epochs": (int, TrainConfig.epochs, None),
    "lr": (float, TrainConfig.lr, None),
    "batch": (int, TrainConfig.batch, None),
    "seed": (int, TrainConfig.seed, None),
    "optimizer": (str, TrainConfig.optimizer, OPTIMIZERS),
    "train_frac": (float, 0.7, None),
    "val_frac": (float, 0.1, None),
    "normalize": (str, "none", ("none", "zscore")),
    "select": (str, "best", ("best", "last")),
    "grad_clip": (float, TrainConfig.grad_clip, None),
}


def config_flags(path) -> dict[int, str]:
    """A config file's `key = value` lines, each key a TRAIN_FIELDS name, as
    {line number: `--key=value` flag} for the command's parser; '#' starts a
    comment."""
    flags = {}
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ValidationError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in text.split("=", 1))
            if key not in TRAIN_FIELDS:
                raise ValidationError(f"{path}:{lineno}: unknown config key {key!r}")
            flags[lineno] = f"--{key.replace('_', '-')}={value}"
    return flags


def parse_horizons(horizon_min, step_min: float) -> list[tuple[float, int]]:
    """Horizon minutes -> [(minutes, zero-based step index)] at step_min."""
    step_min = check_real("step_min", step_min, 0, low_open=True)
    out = []
    for minutes in horizon_min:
        steps = minutes / step_min
        if not math.isfinite(steps) or steps < 1 or abs(steps - round(steps)) > 1e-9:
            raise ValidationError(
                f"horizon {minutes} min is not a positive multiple of the "
                f"{step_min} min sampling step"
            )
        step = int(round(steps)) - 1
        if step in (p for _, p in out):
            raise ValidationError(f"horizon {minutes} min is listed twice")
        out.append((minutes, step))
    return out


# ---------------------------------------------------------------------------
# manifest helpers


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def environment() -> dict:
    """The versions, BLAS build (None below numpy 1.25), BLAS thread variables and CPU count."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    threads = {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"python": "%d.%d.%d" % sys.version_info[:3], "numpy": np.__version__, "saea": __version__,
            "blas": blas and {"name": blas.get("name"), "version": blas.get("version")},
            "threads": threads, "cpu_count": os.cpu_count()}


def write_manifest(out_dir, command, config, seed, inputs, outputs) -> None:
    config_bytes = json.dumps(config, sort_keys=True).encode()
    manifest = {
        "command": command,
        "config": config,
        "config_sha256": hashlib.sha256(config_bytes).hexdigest(),
        "seed": seed,
        "inputs": {str(p): sha256_file(p) for p in inputs},
        "outputs": {
            name: sha256_file(os.path.join(out_dir, name)) for name in sorted(outputs)
        },
        "toolkit_version": __version__,
        "environment": environment(),
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    write_json(os.path.join(out_dir, "manifest.json"), manifest, indent=1)


# ---------------------------------------------------------------------------
# shared training pipeline


def _fit_each(
    frame: SeriesFrame, graph: SensorGraph | None, config: dict, train_cfg: TrainConfig, runs,
    horizons, radius: bool,
):
    """The per-horizon training loop of train and compare.

    The series is split and normalized once per command; each horizon's
    train/val/test windows are built once and replaced by the next
    horizon's, and one model is fitted on them with train_cfg per (kind
    config, error model) of runs, starting from a copy of the error model.
    radius goes to fit: train logs the per-epoch radius, compare skips it.
    Yields (kind config, horizon minutes, horizon step, report, test
    windows, normalizer), horizons outermost.
    """
    parts = chronological_split(frame, config["train_frac"], config["val_frac"])
    normalizer = Normalizer.fit(config["normalize"], parts[0].values)
    parts = [SeriesFrame(normalizer.transform(f.values), f.step_minutes) for f in parts]
    for minutes, horizon_step in horizons:
        train_ws, val_ws, test_ws = (make_windows(f, config["history"], horizon_step) for f in parts)
        for kind_config, untrained in runs:
            model = build_forecaster(
                config["model"],
                config["history"],
                frame.num_sensors,
                seed=config["seed"],
                graph=graph,
                hidden=config["hidden"],
            )
            em = untrained.clone() if untrained is not None else None
            report = fit(model, em, train_cfg, train_ws, val_ws, radius=radius)
            yield kind_config, minutes, horizon_step, report, test_ws, normalizer


def _predict(model, em, ws, normalizer: Normalizer, split: str):
    """(truth, predictions) of a window set in original units; a prediction
    that is not finite is a DivergenceError naming the split."""
    preds = normalizer.inverse(predict_windows(model, em, ws))
    if not np.all(np.isfinite(preds)):
        raise DivergenceError(f"the checkpoint's {split} predictions are not finite")
    return normalizer.inverse(ws.targets), preds


def _checkpoint_split(blob: dict, args) -> tuple[float, float]:
    """(train_frac, val_frac) for scoring a checkpoint: a flag must agree with
    the fraction the checkpoint records; without either, the TRAIN_FIELDS default."""
    fracs = []
    for name in ("train_frac", "val_frac"):
        given = getattr(args, name)
        recorded = blob_field(blob, name, float) if name in blob else None
        if given is None:
            given = TRAIN_FIELDS[name][1] if recorded is None else recorded
        elif recorded is not None and given != recorded:
            raise ValidationError(
                f"--{name.replace('_', '-')} {given} differs from the {recorded} "
                "the checkpoint was trained with"
            )
        fracs.append(given)
    return check_split(*fracs)


def _eval_checkpoint(args):
    """Shared by eval and diagnose: (truth, predictions) in original units,
    the horizon step and the (train_frac, val_frac) split used."""
    blob = read_json(args.checkpoint)
    model, em = load_checkpoint_blob(blob)
    # the run fields a checkpoint omits take these defaults
    blob = {"normalizer": {"mode": "none"}, "horizon_step": 0, "step_minutes": SeriesFrame.step_minutes,
            **blob}
    normalizer = Normalizer.from_blob(blob_field(blob, "normalizer", dict))
    horizon_step = blob_field(blob, "horizon_step", int)
    fracs = _checkpoint_split(blob, args)
    if normalizer.mean is not None:  # the constructor gave std the same shape
        check_shape("normalizer field 'mean'", normalizer.mean, (model.n,))
    frame = ingest_csv(args.series, blob_field(blob, "step_minutes", float), num_sensors=model.n)
    part = dict(zip(("train", "val", "test"), chronological_split(frame, *fracs)))[args.split]
    part_n = SeriesFrame(normalizer.transform(part.values), part.step_minutes)
    ws = make_windows(part_n, model.history, horizon_step)
    return (*_predict(model, em, ws, normalizer, args.split), horizon_step, fracs)


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    spec = GraphSpec(args.graph, args.n, p_edge=args.p_edge, seed=args.graph_seed)
    graph = spec.build()
    if args.phi_star:
        phi = check_shape(f"{args.phi_star}: phi_star", load_matrix_csv(args.phi_star), (graph.n, graph.n))
    else:
        phi = args.phi_diag * np.eye(graph.n) + args.phi_hop * normalized_adjacency(graph)
    if args.phi_radius is not None:
        radius = check_real("phi_radius", args.phi_radius, 0)
        phi = check_shape("phi_star", phi, (graph.n, graph.n), finite=True)
        current = float(np.max(np.abs(np.linalg.eigvals(phi))))
        if current == 0:
            raise ValidationError("cannot rescale a zero coefficient matrix")
        phi *= radius / current
    cfg = SynthConfig(
        graph=spec,
        steps=args.steps,
        dgp_self=args.dgp_self,
        dgp_hop=args.dgp_hop,
        phi_star=phi,
        sigma=args.sigma,
        quad_coeff=args.quad,
        seed=args.seed,
    )
    bundle = generate(cfg)
    save_series_csv(bundle.frame, os.path.join(args.out, "series.csv"))
    save_adjacency_csv(bundle.graph, os.path.join(args.out, "adjacency.csv"))
    write_float_rows(os.path.join(args.out, "phi_star.csv"), bundle.phi_star)
    config = {**cfg.to_dict(), "floor": bundle.floor}
    write_manifest(
        args.out,
        "synth",
        config,
        args.seed,
        inputs=[args.phi_star] if args.phi_star else [],
        outputs=["series.csv", "adjacency.csv", "phi_star.csv"],
    )
    print(f"wrote synthetic bundle to {args.out} (floor RMSE {bundle.floor:.6g})")
    return 0


KIND_SETTINGS = ("kind", "alpha", "beta", "rank")


def _kind_run(
    config: dict, kind: str, n: int, graph: SensorGraph | None
) -> tuple[dict, ErrorModel | None]:
    """(config for one kind, its untrained error model or None). The config
    records the alpha/beta/rank the error model settled on, so the manifest
    holds the settings actually used (None for those the kind does not use)."""
    if kind == "none":
        return {**config, **dict.fromkeys(KIND_SETTINGS), "kind": kind}, None
    mask = structural_mask(graph, config["mask_order"]) if kind == "structural" else None
    em = ErrorModel.for_training(
        kind, n, seed=config["seed"], var_order=config["var_order"], mask=mask,
        **{name: config[name] for name in KIND_SETTINGS[1:]},
    )
    return {**config, **{name: getattr(em, name) for name in KIND_SETTINGS}}, em


def _prepare_run(args, kinds=None):
    """The prologue of train and compare: (resolved config, training
    settings, one (resolved config, untrained error model) pair per kind,
    series, graph, horizons, manifest input files). kinds default to the
    config's kind; all settings but the size limit of mlp1's hidden layer
    are checked here, before any training, and all but alpha, beta and
    rank, which the error model settles with the sensor count, before any
    input file is read. The run directory appears with the first file
    written, so a rejected setting leaves none behind."""
    config = {name: getattr(args, name, None) for name in TRAIN_FIELDS}  # compare has no kind
    if config["model"] == "mlp1":  # the one model with a hidden width
        check_count("hidden", config["hidden"], 1)
    else:
        config["hidden"] = None
    history = check_count("history", config["history"], 2)  # as make_windows needs
    check_count("var_order", config["var_order"], 1, history)
    check_split(config["train_frac"], config["val_frac"])
    train_cfg = TrainConfig(**{f.name: config[f.name] for f in fields(TrainConfig)})
    horizons = parse_horizons(config["horizon_min"], config["step_min"])
    kinds = kinds or (config["kind"],)
    if not args.adjacency and "structural" in kinds:
        raise ValidationError("structural kind requires --adjacency")
    if not args.adjacency and config["model"] == "graphfilter":
        raise ValidationError("graphfilter model requires --adjacency")
    graph = load_adjacency_csv(args.adjacency) if args.adjacency else None
    frame = ingest_csv(args.series, config["step_min"], num_sensors=graph.n if graph else None)
    runs = [_kind_run(config, kind, frame.num_sensors, graph) for kind in kinds]
    inputs = [args.series] + [path for path in (args.adjacency, args.config) if path]
    return config, train_cfg, runs, frame, graph, horizons, inputs


def cmd_train(args) -> int:
    _, train_cfg, runs, frame, graph, horizons, inputs = _prepare_run(args)
    ((config, _),) = runs
    all_metrics, files = [], {}  # files: name -> (payload, indent)
    for _, minutes, horizon_step, report, test_ws, normalizer in _fit_each(
        frame, graph, config, train_cfg, runs, horizons, radius=True
    ):
        extra = {
            "horizon_step": horizon_step,
            "step_minutes": frame.step_minutes,
            "normalizer": normalizer.to_blob(),
            "train_frac": config["train_frac"],
            "val_frac": config["val_frac"],
        }
        tag = f"h{minutes:g}min"
        metrics = {
            "kind": config["kind"],
            "horizon_min": minutes,
            "horizon_step": horizon_step,
            "val_mse_best": report.best_val_mse,
            "best_epoch": report.best_epoch,
            "epochs_run": report.epochs_run,
            "diverged": report.diverged,
        }
        for label, checkpoint in (("best", report.best_checkpoint), ("last", report.final_checkpoint)):
            blob = {**checkpoint, **extra}
            scored = _predict(*load_checkpoint_blob(blob), test_ws, normalizer, "test")
            metrics[f"test_{label}"] = accuracy(*scored)
            files[f"checkpoint_{tag}_{label}.json"] = (blob, None)
        train_report = {
            "train_loss": report.train_loss,
            "val_mse": report.val_mse,
            "radius": report.radius,
            "epoch_seconds": report.epoch_seconds,
            "best_epoch": report.best_epoch,
            "diverged": report.diverged,
        }
        files[f"train_report_{tag}.json"] = (train_report, 1)
        all_metrics.append(metrics)
    # the scores are the one set of numbers not yet checked finite, so a
    # refused run stops at metrics.json and leaves no run directory
    files = {"metrics.json": ({"selection": config["select"], "horizons": all_metrics}, 1), **files}
    for name, (payload, indent) in files.items():
        write_json(os.path.join(args.out, name), payload, indent=indent)
    write_manifest(args.out, "train", config, config["seed"], inputs, files)
    for m in all_metrics:
        chosen = m["test_best" if config["select"] == "best" else "test_last"]
        print(
            f"horizon {m['horizon_min']:g} min: test RMSE {chosen['rmse']:.6g}, "
            f"MAPE {chosen['mape_percent']:.4g}%"
        )
    return 0


def _write_scored(args, name: str, payload: dict, fracs, **config) -> None:
    """The tail of eval and diagnose: the scored JSON, compact (json's C
    encoder), and a manifest that records the split it scored. A score that
    is not finite is a DivergenceError naming the split, and no file."""
    try:
        write_json(os.path.join(args.out, name), payload)
    except DivergenceError:
        raise DivergenceError(f"the checkpoint's {args.split} scores are not finite") from None
    split = {"split": args.split, "train_frac": fracs[0], "val_frac": fracs[1]}
    inputs = [args.checkpoint, args.series]
    write_manifest(args.out, args.command, {**split, **config}, 0, inputs, [name])


def cmd_eval(args) -> int:
    truth, preds, horizon_step, fracs = _eval_checkpoint(args)
    payload = {
        "split": args.split,
        "horizon_step": horizon_step,
        **accuracy(truth, preds),
        "num_windows": int(truth.shape[0]),
    }
    _write_scored(args, "metrics.json", payload, fracs)
    print(f"{args.split} RMSE {payload['rmse']:.6g}, MAPE {payload['mape_percent']:.4g}%")
    return 0


def cmd_diagnose(args) -> int:
    # the signs need no file, so they are checked before one is read
    for name, lag in (("max_lag", args.max_lag), *(("lag", ts) for ts in args.ts_lags)):
        check_count(name, lag, 0)
    truth, preds, _, fracs = _eval_checkpoint(args)
    payload = residual_report(truth, preds, max_lag=args.max_lag, ts_lags=args.ts_lags)
    payload["split"] = args.split
    _write_scored(
        args, "diagnostics.json", payload, fracs, max_lag=args.max_lag, ts_lags=args.ts_lags
    )
    print(
        f"spatial ECM off-diagonal energy {payload['ecm_spatial_offdiag_energy']:.4f}, "
        f"ACF band {payload['acf_band']:.4f}"
    )
    return 0


def cmd_compare(args) -> int:
    config, train_cfg, runs, frame, graph, horizons, inputs = _prepare_run(args, args.kinds)
    rows = {kind: [] for kind in args.kinds}  # filled horizon-major, written kind-major
    for kind_config, minutes, _, report, test_ws, normalizer in _fit_each(
        frame, graph, config, train_cfg, runs, horizons, radius=False
    ):
        selected = report.best_checkpoint if config["select"] == "best" else report.final_checkpoint
        chosen = accuracy(*_predict(*load_checkpoint_blob(selected), test_ws, normalizer, "test"))
        rows[kind_config["kind"]].append(
            {
                "kind": kind_config["kind"],
                "horizon_min": minutes,
                "mape_percent": chosen["mape_percent"],
                "rmse": chosen["rmse"],
                "val_mse_best": report.best_val_mse,
            }
        )
    rows = [row for kind in args.kinds for row in rows[kind]]
    write_json(
        os.path.join(args.out, "compare.json"),
        {"kinds": list(args.kinds), "horizons": [m for m, _ in horizons], "rows": rows},
        indent=1,
    )
    with open(os.path.join(args.out, "compare.csv"), "w", encoding="utf-8") as fh:
        fh.write("kind,horizon_min,mape_percent,rmse\n")
        for row in rows:
            fh.write(
                f"{row['kind']},{row['horizon_min']:g},"
                f"{row['mape_percent']!r},{row['rmse']!r}\n"
            )
    write_manifest(
        args.out,
        "compare",
        {
            **{k: v for k, v in config.items() if k not in KIND_SETTINGS},
            "kinds": [{k: kc[k] for k in KIND_SETTINGS} for kc, _ in runs],
        },
        config["seed"],
        inputs,
        ["compare.json", "compare.csv"],
    )
    for row in rows:
        print(
            f"{row['kind']:>16} h={row['horizon_min']:g}min "
            f"RMSE {row['rmse']:.6g} MAPE {row['mape_percent']:.4g}%"
        )
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_train_flags(parser, include_kind=True):
    parser.add_argument("--series", required=True, help="series CSV (header row)")
    parser.add_argument("--adjacency", help="headerless N x N adjacency CSV")
    parser.add_argument("--config", help="key = value config file")
    for name, (caster, default, choices) in TRAIN_FIELDS.items():
        if name == "kind" and not include_kind:
            continue  # compare takes --kinds
        parser.add_argument(
            "--" + name.replace("_", "-"),
            dest=name,
            type=caster,
            default=default,
            choices=choices,
            help="comma list of minutes" if name == "horizon_min" else None,
        )
    parser.add_argument("--out", required=True, help="run directory")


def _add_score_flags(parser):
    parser.add_argument("--checkpoint", required=True)
    parser.add_argument("--series", required=True)
    parser.add_argument("--split", choices=("train", "val", "test"), default="test")
    parser.add_argument(
        "--train-frac", dest="train_frac", type=float,
        help=f"default: the checkpoint's recorded fraction, else {TRAIN_FIELDS['train_frac'][1]}",
    )
    parser.add_argument(
        "--val-frac", dest="val_frac", type=float,
        help=f"default: the checkpoint's recorded fraction, else {TRAIN_FIELDS['val_frac'][1]}",
    )


class _Parser(argparse.ArgumentParser):
    """Flags spelled in full; a malformed one is a ValidationError (subparsers too)."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="saea",
        description="Forecasting with jointly learned autocorrelated-error adjustment",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="simulate a synthetic bundle")
    p_synth.add_argument("--graph", choices=("path", "ring", "erdos_renyi"), default="ring")
    p_synth.add_argument("--n", type=int, default=20)
    p_synth.add_argument("--p-edge", dest="p_edge", type=float)
    p_synth.add_argument("--graph-seed", dest="graph_seed", type=int, default=GraphSpec.seed)
    p_synth.add_argument("--steps", type=int, default=5000)
    p_synth.add_argument("--sigma", type=float, default=SynthConfig.sigma)
    p_synth.add_argument("--dgp-self", dest="dgp_self", type=comma_list(float), default="0.5,0.2")
    p_synth.add_argument("--dgp-hop", dest="dgp_hop", type=comma_list(float), default="0.3,0.0")
    p_synth.add_argument("--quad", type=float, default=SynthConfig.quad_coeff)
    p_synth.add_argument("--phi-star", dest="phi_star", help="coefficient CSV")
    p_synth.add_argument("--phi-diag", dest="phi_diag", type=float, default=0.3)
    p_synth.add_argument("--phi-hop", dest="phi_hop", type=float, default=0.2)
    p_synth.add_argument("--phi-radius", dest="phi_radius", type=float)
    p_synth.add_argument("--seed", type=int, default=SynthConfig.seed)
    p_synth.add_argument("--out", required=True)
    p_synth.set_defaults(func=cmd_synth)

    p_train = sub.add_parser("train", help="fit a model from CSV inputs")
    _add_train_flags(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="score a checkpoint on a split")
    _add_score_flags(p_eval)
    p_eval.add_argument("--out", required=True)
    p_eval.set_defaults(func=cmd_eval)

    p_diag = sub.add_parser("diagnose", help="residual correlation diagnostics")
    _add_score_flags(p_diag)
    p_diag.add_argument("--max-lag", dest="max_lag", type=int, default=40)
    p_diag.add_argument("--ts-lags", dest="ts_lags", type=comma_list(int, distinct=True), default="1")
    p_diag.add_argument("--out", required=True)
    p_diag.set_defaults(func=cmd_diagnose)

    p_cmp = sub.add_parser("compare", help="baseline vs parameterizations table")
    _add_train_flags(p_cmp, include_kind=False)
    kind_list = comma_list(str, ALL_KINDS, distinct=True)
    p_cmp.add_argument("--kinds", default="all", help="'all' or comma list",
                       type=lambda text: ALL_KINDS if text == "all" else kind_list(text))
    p_cmp.set_defaults(func=cmd_compare)

    return parser


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):  # the file's flags first: the command line's win
            flags = config_flags(args.config)
            for lineno, flag in flags.items():  # each line alone, so a bad value names it
                try:
                    parser.parse_args(argv[:1] + [flag] + argv[1:])
                except ValidationError as exc:
                    raise ValidationError(f"{args.config}:{lineno}: {exc}") from None
            args = parser.parse_args(argv[:1] + list(flags.values()) + argv[1:])
        with np.errstate(all="ignore"):  # each command reports non-finite results itself
            return args.func(args)
    except (SaeaError, OSError, MemoryError) as exc:
        # numpy's allocation failure is a private MemoryError subclass
        error = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        print(json.dumps({"error": error, "message": str(exc)}), file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
