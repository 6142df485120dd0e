"""Workloads, input set-up, timed rounds and correctness checks.

Every workload is one closed-loop session of a saea user, run in a single
process where each command or call starts after the previous one returns:

  1. `saea compare` trains the unadjusted baseline and the listed error-model
     kinds on a generated series;
  2. `saea eval` scores an oracle checkpoint (the true dynamics plus the true
     structural error coefficients) on a chronological split;
  3. `saea diagnose` writes residual-correlation diagnostics for it;
  4. single-window `saea_predict` calls and 12-step `predict_recursive`
     rollouts serve that checkpoint online.

The CLI runs in-process through `saea.cli.run`. The workloads differ in graph
size, series length and training effort, so each one loads a different layer.

Times are host-speed adjusted. On a shared host the CPU runs the same code up
to ~1.6x slower for spans of a fraction of a second to several minutes,
because of load outside this process; that swamps any program change. So a
timer interrupts the run every GAUGE_PERIOD_S to time a fixed reference
kernel that calls no saea code (`HostGauge`), and each operation's time, less
the kernel time inside it, is scaled by REF_NOMINAL_S / (trimmed mean of the
kernel samples taken while the operation ran): the time it would take on a
host where the kernel takes REF_NOMINAL_S. A change to saea leaves the
kernel's time alone and so shows in full. The unadjusted times and every
kernel sample are kept in the run's result.json. Times are averaged (means,
or a 5%-trimmed mean over single calls) rather than taken as medians: under
fast/slow host phases the distribution is bimodal, and its median jumps
between the modes while its mean moves only with the share of slow time.

BENCHMARK.json lists the two road200 workloads. ring20_recovery runs the same
way but is left out of it: its cost depends on the seed by up to 2x, because
the per-epoch power-iteration radius hits its iteration cap for some learned
coefficient matrices and not for others, so no bound holds across seeds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import resource
import signal
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

import saea.adjust
import saea.cli
import saea.synth
import saea.train
from saea.adjust import ErrorModel
from saea.data import SeriesFrame, chronological_split, make_windows, save_series_csv, shift_with_mean
from saea.forecaster import GraphFilterAR
from saea.graph import normalized_adjacency, save_adjacency_csv, structural_mask
from saea.synth import GraphSpec, SynthConfig, structured_var_coefficients

# The entry points the benchmark calls directly; the traced run wraps these.
api = SimpleNamespace(
    run=saea.cli.run,
    generate=saea.synth.generate,
    saea_predict=saea.adjust.saea_predict,
    predict_recursive=saea.train.predict_recursive,
)

DGP_SELF = (0.5, 0.2)  # identity taps of the true dynamics per lag
DGP_HOP = (0.0, 0.0)   # no one-hop taps: the oracle checkpoint is then exact
SETUP_REPEATS = 3
REF_NOMINAL_S = 1.5e-3  # reference-kernel time the reported times are scaled to
GAUGE_PERIOD_S = 0.1    # interval between two reference-kernel samples
GAUGE_MIN = 3           # fewest samples an adjustment uses; a shorter operation
                        # borrows the samples taken just before and after it
TRIM = 0.05             # share cut from each end before averaging
BATCH = 50
PREDICT_CALLS = 4000   # single-window predictions per round
PREDICT_WINDOWS = 512  # distinct test windows they cycle through
PREDICT_REL_TOL = 1e-9
ROLLOUTS = 300         # recursive rollouts per round
ROLLOUT_STEPS = 12


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    graph: str
    n: int
    steps: int
    history: int
    epochs: int
    kinds: str               # --kinds of compare: "all" or a comma list
    train_frac: float       # split used by compare
    val_frac: float
    score_train_frac: float  # split used by eval, diagnose and online predict
    score_val_frac: float
    floor_from: str          # rmse_over_floor of "structural" (compare) or "oracle" (eval)
    phi_form: str            # true error coefficients: "criterion4" or "diffusion"
    recovery_check: bool = False
    p_edge: float | None = None
    lr: float = 5e-4
    score_repeats: int = 1  # eval and diagnose runs per round


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="ring20_recovery",
            why="criterion-4 fit at N=20 (ring, T=5000, 150 epochs): thousands of cheap steps, so per-call overhead and the per-epoch spectral radius dominate",
            graph="ring", n=20, steps=5000, history=6, epochs=150,
            kinds="none,structural", train_frac=0.5, val_frac=0.1,
            score_train_frac=0.5, score_val_frac=0.1,
            floor_from="structural", phi_form="criterion4", recovery_check=True,
        ),
        Workload(
            name="road200_kinds",
            why="road-scale graph (N=200, ~400 edges) training the baseline and all six kinds: dense N x N gradient and propagation work dominates",
            graph="erdos_renyi", n=200, p_edge=0.02, steps=2000, history=12, epochs=2,
            kinds="all", train_frac=0.5, val_frac=0.1, lr=0.02,
            score_train_frac=0.5, score_val_frac=0.1, score_repeats=3,
            floor_from="structural", phi_form="diffusion",
        ),
        Workload(
            name="road200_score",
            why="road-scale graph with a long series (T=10000): CSV ingest, batched scoring, diagnostics and single-window serving of an oracle checkpoint",
            graph="erdos_renyi", n=200, p_edge=0.02, steps=10000, history=12, epochs=1,
            kinds="none,structural", train_frac=0.1, val_frac=0.1, lr=0.02,
            score_train_frac=0.1, score_val_frac=0.1,
            floor_from="oracle", phi_form="diffusion",
        ),
    )
}


def expanded_kinds(wl: Workload) -> tuple:
    return saea.cli.ALL_KINDS if wl.kinds == "all" else tuple(wl.kinds.split(","))


class HostGauge:
    """Times a fixed reference kernel every GAUGE_PERIOD_S to follow the
    host's current speed, and adjusts the operations' times by it.

    The kernel mixes what the workloads spend their time on: a dense N x N
    product through BLAS, small-array numpy calls and parsing text floats
    in the interpreter. Its inputs are fixed, so only the host moves it. It
    runs from a SIGALRM handler, so Python runs it between two bytecodes of
    whatever operation is under way; in a traced round its ~1% share of the
    time counts into the self time of the span it interrupts.
    """

    def __init__(self):
        rng = np.random.default_rng(20240601)
        self._dense = rng.standard_normal((200, 200))
        self._block = rng.standard_normal((200, 24))
        self._small = rng.standard_normal((12, 200))
        self._text = ",".join(f"{v:.6f}" for v in rng.standard_normal(400))
        self.samples = []
        self.spent_s = 0.0

    def sample(self) -> None:
        started = perf_counter()
        for _ in range(8):
            self._dense @ self._block
            np.tanh(self._small) * 0.5 + self._small.mean(axis=0)
            [float(v) for v in self._text.split(",")]
        elapsed = perf_counter() - started
        self.samples.append(elapsed)
        self.spent_s += elapsed

    def start(self) -> None:
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, GAUGE_PERIOD_S, GAUGE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def stamp(self) -> tuple:
        return perf_counter(), len(self.samples), self.spent_s

    def since(self, stamp: tuple) -> tuple:
        """(seconds since stamp less the kernel's own time, first and end
        index of the samples taken meanwhile)."""
        started, first, spent = stamp
        return perf_counter() - started - (self.spent_s - spent), first, len(self.samples)

    def adjust(self, timing) -> float:
        """A `since` timing in seconds at nominal host speed."""
        seconds, first, end = timing
        pad = (GAUGE_MIN - (end - first) + 1) // 2
        if pad > 0:
            first, end = max(0, first - pad), min(len(self.samples), end + pad)
        return seconds * REF_NOMINAL_S / _trimmed_mean(np.array(self.samples[first:end]))


class Ledger:
    """Attempted and failed operations: CLI commands, online calls, checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok


# ---------------------------------------------------------------------------
# set-up


def synth_config(wl: Workload, seed: int) -> SynthConfig:
    spec = GraphSpec(wl.graph, wl.n, p_edge=wl.p_edge, seed=seed)
    graph = spec.build()
    if wl.phi_form == "criterion4":
        # heterogeneous, strongly coupled, lower-triangular (acceptance criterion 4)
        phi = structured_var_coefficients(graph, seed=seed + 100, radius=0.6)
    else:
        # symmetric diffusion over one hop: radius <= 0.55
        phi = 0.4 * np.eye(wl.n) + 0.15 * normalized_adjacency(graph)
    return SynthConfig(
        graph=spec, steps=wl.steps, dgp_self=DGP_SELF, dgp_hop=DGP_HOP,
        phi_star=phi, sigma=1.0, seed=seed,
    )


def setup_inputs(wl: Workload, seed: int, out: Path) -> SimpleNamespace:
    """Generate the series and write the CLI inputs: series and adjacency
    CSVs plus the oracle checkpoint built from the known dynamics."""
    out.mkdir(parents=True, exist_ok=True)
    bundle = api.generate(synth_config(wl, seed))
    paths = SimpleNamespace(
        series=out / "series.csv", adjacency=out / "adjacency.csv", oracle=out / "oracle.json"
    )
    save_series_csv(bundle.frame, paths.series)
    save_adjacency_csv(bundle.graph, paths.adjacency)
    model = GraphFilterAR(wl.history, normalized_adjacency(bundle.graph))
    taps = np.zeros(wl.history)
    taps[: len(DGP_SELF)] = DGP_SELF
    hops = np.zeros(wl.history)
    hops[: len(DGP_HOP)] = DGP_HOP
    model.set_params(np.concatenate([taps, hops, np.zeros(wl.n)]))
    em = ErrorModel(
        "structural", wl.n, mask=structural_mask(bundle.graph, 1),
        payload={"matrix": bundle.phi_star[None].copy()},
    )
    saea.train.save_checkpoint(
        paths.oracle, model, em,
        extra={"horizon_step": 0, "step_minutes": bundle.frame.step_minutes, "normalizer": {"mode": "none"}},
    )
    return SimpleNamespace(frame=bundle.frame, floor=bundle.floor, paths=paths)


def prepare(wl: Workload, inputs) -> SimpleNamespace:
    """Untimed reference data: input sizes, the online test windows and
    their batched predictions."""
    frame = inputs.frame
    train = chronological_split(frame, wl.train_frac, wl.val_frac)[0]
    test = chronological_split(frame, wl.score_train_frac, wl.score_val_frac)[2]
    train_windows = train.num_steps - wl.history
    score_windows = test.num_steps - wl.history
    head = SeriesFrame(test.values[: PREDICT_WINDOWS + wl.history], frame.step_minutes)
    ws = make_windows(head, wl.history, 0)
    model, em = saea.train.load_checkpoint(inputs.paths.oracle)
    batched = saea.adjust.predict_windows(model, em, ws)
    kinds = expanded_kinds(wl)
    return SimpleNamespace(
        model=model,
        em=em,
        windows=np.array(ws.inputs),
        batched=batched,
        tol=PREDICT_REL_TOL * float(np.max(np.abs(batched))),
        train_windows=train_windows,
        score_windows=score_windows,
        steps_per_compare=math.ceil(train_windows / BATCH) * wl.epochs * len(kinds),
    )


# ---------------------------------------------------------------------------
# one timed round

def install_fit_observer(ledger: Ledger) -> None:
    """Count a diverged fit run by the CLI as a failed operation; compare's
    outputs do not say whether a fit diverged."""
    fit = saea.cli.fit

    def observed_fit(*args, **kwargs):
        report = fit(*args, **kwargs)
        em = args[1]
        ledger.record(not report.diverged, f"{em.kind if em is not None else 'none'} fit diverged")
        return report

    saea.cli.fit = observed_fit


def _cli(argv, ledger: Ledger, gauge: HostGauge) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    started = gauge.stamp()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = api.run([str(a) for a in argv])
    except Exception as exc:  # a crash is a failed operation, not a benchmark crash
        code = f"{type(exc).__name__}: {exc}"
    elapsed = gauge.since(started)
    ledger.record(code == 0, f"saea {argv[0]} returned {code} {err.getvalue().strip()}")
    return elapsed


def _serve(prep, calls: range, rollouts: range, out: dict, gauge: HostGauge) -> None:
    """Single-window predictions (shift included) and recursive rollouts."""
    model, em, windows = prep.model, prep.em, prep.windows
    for k in calls:
        window = windows[k % len(windows)]
        t0 = gauge.stamp()
        pred = api.saea_predict(model, em, window, shift_with_mean(window, 1))
        out["predict_s"][k] = gauge.since(t0)
        out["preds"].append(pred)
    for k in rollouts:
        window = windows[(7 * k) % len(windows)]
        t0 = gauge.stamp()
        out["trajectories"].append(api.predict_recursive(model, em, window, ROLLOUT_STEPS))
        out["rollout_s"][k] = gauge.since(t0)


def run_round(wl: Workload, seed: int, inputs, prep, work: Path, ledger: Ledger, gauge: HostGauge) -> dict:
    """compare, then score_repeats x (eval, diagnose); the online calls are
    split into chunks served after each CLI command, so their samples spread
    over the round instead of one burst."""
    paths = inputs.paths
    score_split = ["--train-frac", wl.score_train_frac, "--val-frac", wl.score_val_frac]
    commands = [
        ["compare", "--series", paths.series, "--adjacency", paths.adjacency,
         "--model", "graphfilter", "--kinds", wl.kinds, "--history", wl.history,
         "--epochs", wl.epochs, "--lr", wl.lr, "--batch", BATCH, "--seed", seed,
         "--train-frac", wl.train_frac, "--val-frac", wl.val_frac, "--out", work / "compare"],
    ]
    for _ in range(wl.score_repeats):
        commands.append(["eval", "--checkpoint", paths.oracle, "--series", paths.series,
                         *score_split, "--out", work / "eval"])
        commands.append(["diagnose", "--checkpoint", paths.oracle, "--series", paths.series,
                         *score_split, "--ts-lags", "1,2", "--out", work / "diagnose"])
    chunks = len(commands)
    served = {
        "predict_s": [None] * PREDICT_CALLS,
        "rollout_s": [None] * ROLLOUTS,
        "preds": [],
        "trajectories": [],
    }
    times = {"compare": [], "eval": [], "diagnose": []}
    started = gauge.stamp()
    for j, argv in enumerate(commands):
        times[argv[0]].append(_cli(argv, ledger, gauge))
        _serve(
            prep,
            range(j * PREDICT_CALLS // chunks, (j + 1) * PREDICT_CALLS // chunks),
            range(j * ROLLOUTS // chunks, (j + 1) * ROLLOUTS // chunks),
            served,
            gauge,
        )
    wall_s = gauge.since(started)

    for k, pred in enumerate(served["preds"]):
        i = k % len(prep.windows)
        ledger.record(
            bool(np.max(np.abs(pred - prep.batched[i])) <= prep.tol),
            f"saea_predict on window {i} differs from predict_windows",
        )
    for k, traj in enumerate(served["trajectories"]):
        i = (7 * k) % len(prep.windows)
        ledger.record(
            bool(np.all(np.isfinite(traj)) and np.max(np.abs(traj[0] - prep.batched[i])) <= prep.tol),
            f"rollout from window {i} is non-finite or its first step differs from predict_windows",
        )
    return {
        "wall_s": wall_s,
        "compare_s": times["compare"][0],
        "eval_s": times["eval"],
        "diagnose_s": times["diagnose"],
        "predict_s": served["predict_s"],
        "rollout_s": served["rollout_s"],
        "outputs": check_outputs(wl, inputs, prep, work, ledger),
    }


# ---------------------------------------------------------------------------
# correctness checks on the CLI outputs


def _load(path: Path):
    try:
        raw = path.read_bytes()
        return raw, json.loads(raw)
    except (OSError, ValueError):
        return None, None


def check_outputs(wl: Workload, inputs, prep, work: Path, ledger: Ledger) -> dict:
    """Check one round's CLI outputs; returns the quality figures."""
    out = {}
    kinds = expanded_kinds(wl)
    raw, table = _load(work / "compare" / "compare.json")
    rmse = {}
    if table is not None:
        rmse = {row["kind"]: row["rmse"] for row in table["rows"]}
    ok = set(rmse) == set(kinds) and all(math.isfinite(v) for v in rmse.values())
    if ledger.record(ok, f"compare.json lacks a finite RMSE for some of {kinds}: {rmse}"):
        worst = max(v for k, v in rmse.items() if k != "none")
        out["adjusted_over_baseline"] = worst / rmse["none"]
        if "structural" in rmse:
            out["structural_over_floor"] = rmse["structural"] / inputs.floor
            out["structural_gain"] = 1.0 - rmse["structural"] / rmse["none"]
    out["compare_sha256"] = hashlib.sha256(raw or b"").hexdigest()
    if wl.recovery_check and "structural_gain" in out:
        ledger.record(
            out["structural_gain"] >= 0.10 and out["structural_over_floor"] <= 1.08,
            f"criterion 4 missed: structural RMSE gain {out['structural_gain']:.4f} (>= 0.10), "
            f"floor ratio {out['structural_over_floor']:.4f} (<= 1.08)",
        )

    _, metrics = _load(work / "eval" / "metrics.json")
    ok = metrics is not None and metrics["num_windows"] == prep.score_windows
    if ledger.record(ok, f"eval scored {metrics and metrics['num_windows']} windows, expected {prep.score_windows}"):
        out["oracle_over_floor"] = metrics["rmse"] / inputs.floor
        ledger.record(
            0.95 <= out["oracle_over_floor"] <= 1.05,
            f"oracle RMSE / floor {out['oracle_over_floor']:.4f} outside [0.95, 1.05]",
        )

    _, diag = _load(work / "diagnose" / "diagnostics.json")
    ecm = np.asarray(diag["ecm_spatial"], dtype=np.float64) if diag is not None else np.empty(0)
    ledger.record(
        ecm.shape == (wl.n, wl.n) and bool(np.all(np.isfinite(ecm))) and set(diag["crosslag"]) == {"1", "2"},
        f"diagnostics.json spatial ECM has shape {ecm.shape}, expected ({wl.n}, {wl.n}) with lags 1,2",
    )
    return out


# ---------------------------------------------------------------------------
# metrics


def _trimmed_mean(values: np.ndarray) -> float:
    values = np.sort(values)
    cut = int(len(values) * TRIM)
    return float(values[cut: len(values) - cut].mean())


def end_to_end(wl: Workload, prep, rounds: list, setup_s: float, gauge: HostGauge) -> dict:
    """Host-speed-adjusted means over the rounds."""
    def adjusted(key):
        timings = [t for r in rounds for t in (r[key] if isinstance(r[key], list) else [r[key]])]
        return np.array([gauge.adjust(t) for t in timings])

    quality = rounds[0]["outputs"]
    floor_key = "structural_over_floor" if wl.floor_from == "structural" else "oracle_over_floor"
    values = {
        "setup_s": (setup_s, "s"),
        "wall_s": (adjusted("wall_s").mean(), "s"),
        "train_steps_per_s": (prep.steps_per_compare / adjusted("compare_s").mean(), "1/s"),
        "score_windows_per_s": (prep.score_windows / adjusted("eval_s").mean(), "1/s"),
        "diagnose_s": (adjusted("diagnose_s").mean(), "s"),
        "predict_us_mean": (_trimmed_mean(adjusted("predict_s")) * 1e6, "us"),
        "rollout_ms_mean": (_trimmed_mean(adjusted("rollout_s")) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "rmse_over_floor": (quality.get(floor_key), "ratio"),
        "adjusted_over_baseline": (quality.get("adjusted_over_baseline"), "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def input_sizes(wl: Workload, prep) -> dict:
    return {
        "N": wl.n,
        "T": wl.steps,
        "H": wl.history,
        "epochs": wl.epochs,
        "kinds": list(expanded_kinds(wl)),
        "batch": BATCH,
        "train_windows": prep.train_windows,
        "score_windows": prep.score_windows,
        "steps_per_compare": prep.steps_per_compare,
        "score_repeats_per_round": wl.score_repeats,
        "predict_windows": len(prep.windows),
        "predict_calls_per_round": PREDICT_CALLS,
        "rollouts_per_round": ROLLOUTS,
        "rollout_steps": ROLLOUT_STEPS,
    }
