"""Joint minibatch optimization of the base model and the error coefficients.

A single optimizer and learning rate update one vector, the flat model
parameters followed by every error-model payload array in its stored order,
driven by the adjusted loss. Shuffling is seeded, gradient reduction order
is fixed, and the best-validation state is retained alongside the final
one, so a (seed, config) pair pins the run bit-for-bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .adjust import (
    ErrorModel,
    _combine,
    _lag_maps,
    predict_windows,
    saea_loss,
    saea_predict,
    spectral_radius,
)
from .data import (
    WindowSet, blob_field, check_count, check_real, check_shape, read_json, seeded_rng, write_json,
)
from .errors import DivergenceError, ValidationError
from .forecaster import Forecaster, forecaster_from_blob

CHECKPOINT_FORMAT_VERSION = 2

RMSPROP_RHO = 0.9
RMSPROP_EPS = 1e-8
OPTIMIZERS = ("rmsprop", "sgd")


@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings for one training run, checked at construction
    (frozen, so they stay checked). The penalty weights belong to the error
    model; grad_clip of None leaves gradients unclipped.
    """

    epochs: int = 300
    lr: float = 5e-4
    batch: int = 50
    optimizer: str = "rmsprop"  # one of OPTIMIZERS
    seed: int = 0
    grad_clip: float | None = None

    def __post_init__(self):
        for name, low in (("epochs", 1), ("batch", 1), ("seed", 0)):
            object.__setattr__(self, name, check_count(name, getattr(self, name), low))
        object.__setattr__(self, "lr", check_real("lr", self.lr, 0, low_open=True))
        if self.grad_clip is not None:
            clip = check_real("grad_clip", self.grad_clip, 0, low_open=True)
            object.__setattr__(self, "grad_clip", clip)
        if self.optimizer not in OPTIMIZERS:
            raise ValidationError(f"unknown optimizer {self.optimizer!r}")


@dataclass
class TrainReport:
    """Per-epoch training curves plus the retained checkpoints; radius holds
    one value per finished epoch, or none when fit ran with radius=False."""

    train_loss: list = field(default_factory=list)
    val_mse: list = field(default_factory=list)
    radius: list = field(default_factory=list)
    epoch_seconds: list = field(default_factory=list)
    best_epoch: int = -1
    best_val_mse: float | None = None  # None until an epoch finishes
    best_checkpoint: dict | None = None
    final_checkpoint: dict | None = None
    diverged: bool = False
    epochs_run: int = 0


def rmsprop_step(params, grads, state, lr):
    """One RMSProp update; returns (new_params, new_state). With
    rho = RMSPROP_RHO and eps = RMSPROP_EPS:

    state <- rho*state + (1-rho)*grads^2
    params <- params - lr * grads / sqrt(state + eps)
    """
    params = np.asarray(params, dtype=np.float64)
    grads = check_shape("grads", grads, params.shape)
    state = check_shape("state", state, params.shape)
    new_state = RMSPROP_RHO * state + (1.0 - RMSPROP_RHO) * grads * grads
    new_params = params - lr * grads / np.sqrt(new_state + RMSPROP_EPS)
    return new_params, new_state


def sgd_step(params, grads, lr):
    params = np.asarray(params, dtype=np.float64)
    return params - lr * check_shape("grads", grads, params.shape)


def checkpoint_blob(model: Forecaster, em: ErrorModel | None, extra: dict | None = None) -> dict:
    blob = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "model": model.to_blob(),
        "error_model": em.to_blob() if em is not None else None,
    }
    if extra:
        blob.update(extra)
    return blob


def load_checkpoint_blob(blob: dict) -> tuple[Forecaster, ErrorModel | None]:
    if not isinstance(blob, dict):
        raise ValidationError(f"checkpoint must be a JSON object, got {type(blob).__name__}")
    version = blob.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise ValidationError(
            f"checkpoint format_version {version!r} is not the supported "
            f"{CHECKPOINT_FORMAT_VERSION}"
        )
    model = forecaster_from_blob(blob_field(blob, "model", dict))
    if blob.get("error_model") is None:
        return model, None
    em = ErrorModel.from_blob(blob_field(blob, "error_model", dict))
    if em.n != model.n:
        raise ValidationError(f"error model field 'n' is {em.n}, but its model's n is {model.n}")
    return model, em


def save_checkpoint(path, model: Forecaster, em: ErrorModel | None, extra: dict | None = None):
    """Write the blob of a model and error model; returns the blob."""
    blob = checkpoint_blob(model, em, extra)
    write_json(path, blob)
    return blob


def load_checkpoint(path) -> tuple[Forecaster, ErrorModel | None]:
    return load_checkpoint_blob(read_json(path))


def fit(
    model: Forecaster,
    em: ErrorModel | None,
    cfg: TrainConfig,
    train_windows: WindowSet,
    val_windows: WindowSet,
    radius: bool = True,
) -> TrainReport:
    """Run the full training loop; mutates model and em in place.

    Every epoch records the mean batch loss, validation MSE of the adjusted
    predictions, and, unless radius is False, the spectral radius of the
    error coefficients, a pure read that changes no other result. The best
    validation state and the final state are both kept as checkpoint blobs,
    built once at the end. A non-finite loss or validation MSE aborts with
    the last finished epoch's state retained.
    """
    names = list(em.payload) if em is not None else []
    arrays = [model.get_params()] + [em.payload[name] for name in names]
    vector = np.concatenate(arrays, axis=None)
    splits = np.cumsum([arr.size for arr in arrays[:-1]])

    def load(vector):
        """Hand the vector's slices to the model and the error model."""
        theta, *payload = np.split(vector, splits)
        model.set_params(theta)
        for name, arr in zip(names, payload):
            em.payload[name] = arr.reshape(em.payload[name].shape)

    rng = seeded_rng(cfg.seed)
    state = np.zeros_like(vector)
    report = TrainReport()
    # (vector, blob fields) pairs, kept by reference: rmsprop_step and
    # sgd_step return new arrays and never write their inputs in place
    last_good = (vector, {"epoch": -1})
    best = None
    num_batches = (train_windows.batch + cfg.batch - 1) // cfg.batch
    for epoch in range(cfg.epochs):
        started = time.perf_counter()
        order = rng.permutation(train_windows.batch)
        epoch_losses = np.empty(num_batches)
        try:
            for i in range(num_batches):
                idx = order[i * cfg.batch : (i + 1) * cfg.batch]
                result = saea_loss(model, em, train_windows.take(idx))
                grads = [result.grad_theta] + [result.payload_grads[name] for name in names]
                grad = np.concatenate(grads, axis=None)
                if cfg.grad_clip is not None:
                    # summed array by array, theta first: this order fixes the norm's rounding
                    norm = np.sqrt(sum(float(np.sum(g * g)) for g in grads))
                    if norm > cfg.grad_clip:
                        grad = grad * (cfg.grad_clip / norm)
                if cfg.optimizer == "sgd":
                    vector = sgd_step(vector, grad, cfg.lr)
                else:
                    vector, state = rmsprop_step(vector, grad, state, cfg.lr)
                load(vector)
                epoch_losses[i] = result.loss
            preds = predict_windows(model, em, val_windows)
            val_mse = float(np.mean((preds - val_windows.targets) ** 2))
            if not np.isfinite(val_mse):
                raise DivergenceError("non-finite validation MSE")
        except DivergenceError:
            # roll back to the end of the last finished epoch
            report.diverged = True
            load(last_good[0])
            break
        report.train_loss.append(float(epoch_losses.mean()))
        report.val_mse.append(val_mse)
        if radius:
            report.radius.append(spectral_radius(em) if em is not None else 0.0)
        report.epoch_seconds.append(time.perf_counter() - started)
        report.epochs_run = epoch + 1
        last_good = (vector, {"epoch": epoch, "val_mse": val_mse})
        if best is None or val_mse < report.best_val_mse:
            report.best_val_mse = val_mse
            report.best_epoch = epoch
            best = last_good
    report.final_checkpoint = checkpoint_blob(
        model, em, {"epoch": report.epochs_run - 1, "diverged": report.diverged}
    )
    report.best_checkpoint = report.final_checkpoint
    if best is not None:
        load(best[0])
        report.best_checkpoint = checkpoint_blob(model, em, best[1])
        load(last_good[0])
    return report


def predict_recursive(
    model: Forecaster, em: ErrorModel | None, window, steps: int
) -> np.ndarray:
    """Roll a one-step model forward, feeding each adjusted prediction back in.

    Step 0 is saea_predict on the window; later steps roll each lag's
    product window @ Phi_k^T (see adjust._combine) with the window, so Phi_k
    sees one row per lag and step, the new one, and equal saea_predict on
    the rolled window to rounding. The rolling works on a copy, so the
    caller's window is left as it was. Requires a model trained at horizon
    step 0.
    """
    steps = check_count("steps", steps, 1)
    buffer = np.array(window, dtype=np.float64)
    out = np.empty((steps, model.n))
    out[0] = saea_predict(model, em, buffer)  # refuses a window that is not (H, N)
    apply = _lag_maps(em)[0] if em is not None else None
    products = [apply(lag, buffer)[None] for lag in range(em.var_order if em is not None else 0)]
    for s in range(1, steps):
        buffer[1:] = buffer[:-1]
        buffer[0] = out[s - 1]
        for lag, product in enumerate(products):
            products[lag] = np.concatenate([apply(lag, buffer[:1]), product[0, :-1]])[None]
        out[s] = _combine(model, buffer[None], products)[0][0]
    return out
