"""Forecasting toolkit with jointly learned autocorrelated-error adjustment.

Wraps any differentiable one-step forecaster: residuals are modeled as a
vector-autoregressive process whose coefficient matrices are learned jointly
with the forecaster under selectable regularizers, then applied at inference
to correct the predictions.
"""

__version__ = "0.1.0"

from .adjust import ErrorModel, predict_windows
from .data import chronological_split, ingest_csv, make_windows
from .forecaster import GraphFilterAR
from .graph import load_adjacency_csv, structural_mask
from .train import TrainConfig, fit
