"""Forecasting toolkit with jointly learned autocorrelated-error adjustment.

Wraps any differentiable one-step forecaster: residuals are modeled as a
vector-autoregressive process whose coefficient matrices are learned jointly
with the forecaster under selectable regularizers, then applied at inference
to correct the predictions.
"""

__version__ = "0.1.0"

from .adjust import (
    DEFAULT_REGULARIZATION,
    ErrorModel,
    LossResult,
    materialize_phi,
    predict_windows,
    regularize,
    saea_loss,
    saea_predict,
    spectral_radius,
)
from .data import (
    Normalizer,
    SeriesFrame,
    WindowSet,
    chronological_split,
    ingest_csv,
    make_windows,
    save_series_csv,
    shift_with_mean,
)
from .errors import SaeaError
from .forecaster import (
    MLP1,
    Forecaster,
    GraphFilterAR,
    NodeAR,
    build_forecaster,
)
from .graph import (
    SensorGraph,
    StructuralMask,
    load_adjacency_csv,
    normalized_adjacency,
    structural_mask,
)
from .metrics import acf, crosslag_cov, ecm, mape, offdiag_energy, rmse
from .synth import (
    GraphSpec,
    SynthBundle,
    SynthConfig,
    erdos_renyi_graph,
    generate,
    oracle_floor,
    path_graph,
    ring_graph,
)
from .train import (
    TrainConfig,
    TrainReport,
    fit,
    load_checkpoint,
    predict_recursive,
    rmsprop_step,
    save_checkpoint,
)
