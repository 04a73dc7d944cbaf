"""Linear speaker-distance estimation from RIR descriptors.

A five-descriptor feature vector (plus bias) feeds a standardized linear
model trained by full-batch gradient descent on the summed squared error,
from zero weights for a fixed epoch count, so every run is reproducible.
The grid search sets steps in units of 1/L, L the Lipschitz constant of
that gradient, so they converge at any dataset size (Boyd & Vandenberghe,
*Convex Optimization*, section 9.3); a fit that ends above the loss it
started from is refused as diverged. Losses are per-sample (mean squared
error).
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .acoustics import AcousticMetrics

FEATURE_NAMES = (
    "drr_db",
    "log_t60",
    "direct_delay_ms",
    "early_late_ratio_db",
    "total_energy_db",
    "bias",
)
FEATURE_SCHEMA_VERSION = 1

DEFAULT_STEP_GRID = (0.25, 0.5, 1.0)     # fractions of 1/L
DEFAULT_EPOCH_GRID = (10, 50, 200)

DISTANCE_BUCKETS = ((0.0, 1.0), (1.0, 3.0), (3.0, 5.0), (5.0, math.inf))
HIST_BIN_WIDTH_M = 0.5
_MAX_HIST_BINS = 10000


@dataclass(frozen=True)
class FeatureVector:
    drr_db: float
    log_t60: float                # natural log of T60 in seconds
    direct_delay_ms: float
    early_late_ratio_db: float
    total_energy_db: float        # physical energy, folds norm_gain back in
    bias: float = 1.0

    def as_array(self) -> np.ndarray:
        return np.array([self.drr_db, self.log_t60, self.direct_delay_ms,
                         self.early_late_ratio_db, self.total_energy_db, self.bias])


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    epochs: int


@dataclass(frozen=True)
class EstimatorModel:
    weights: np.ndarray
    feature_means: np.ndarray
    feature_stds: np.ndarray
    train_config: TrainConfig
    final_loss: float | None = None    # mean squared error after the last epoch

    def to_json_dict(self) -> dict:
        return {
            "feature_schema_version": FEATURE_SCHEMA_VERSION,
            "feature_names": list(FEATURE_NAMES),
            "weights": [float(w) for w in self.weights],
            "feature_means": [float(m) for m in self.feature_means],
            "feature_stds": [float(s) for s in self.feature_stds],
            "train_config": {
                "learning_rate": float(self.train_config.learning_rate),
                "epochs": int(self.train_config.epochs),
            },
            "final_loss": None if self.final_loss is None else float(self.final_loss),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "EstimatorModel":
        if data.get("feature_schema_version") != FEATURE_SCHEMA_VERSION:
            raise ValueError(
                f"feature schema {data.get('feature_schema_version')!r} does not match "
                f"version {FEATURE_SCHEMA_VERSION}"
            )
        if tuple(data.get("feature_names", ())) != FEATURE_NAMES:
            raise ValueError("feature name list does not match this model family")
        cfg = data["train_config"]
        return cls(
            weights=np.asarray(data["weights"], dtype=np.float64),
            feature_means=np.asarray(data["feature_means"], dtype=np.float64),
            feature_stds=np.asarray(data["feature_stds"], dtype=np.float64),
            train_config=TrainConfig(cfg["learning_rate"], cfg["epochs"]),
            final_loss=data.get("final_loss"),
        )


@dataclass(frozen=True)
class RangeMae:
    lo_m: float
    hi_m: float           # math.inf for the open top bucket
    mae_m: float | None   # None when the bucket is empty
    n: int


@dataclass(frozen=True)
class EvalReport:
    mae_m: float
    pearson_r: float | None          # None when either side has zero variance
    per_range: tuple[RangeMae, ...]
    n_samples: int
    hist_bin_width_m: float
    truth_histogram: tuple[int, ...]
    predicted_histogram: tuple[int, ...]
    true_m: np.ndarray               # per-sample truths, for the CSV artifact
    predicted_m: np.ndarray

    def to_json_dict(self) -> dict:
        return {
            "n_samples": int(self.n_samples),
            "mae_m": float(self.mae_m),
            "pearson_r": None if self.pearson_r is None else float(self.pearson_r),
            "per_range": [
                {
                    "lo_m": bucket.lo_m,
                    "hi_m": None if math.isinf(bucket.hi_m) else bucket.hi_m,
                    "mae_m": bucket.mae_m,
                    "n": bucket.n,
                }
                for bucket in self.per_range
            ],
            "histogram": {
                "bin_width_m": self.hist_bin_width_m,
                "truth_counts": list(self.truth_histogram),
                "predicted_counts": list(self.predicted_histogram),
            },
        }


def extract_features(metrics: AcousticMetrics) -> FeatureVector:
    """Descriptor vector of one RIR's metrics; no standardization happens here."""
    return FeatureVector(
        drr_db=metrics.drr_db,
        log_t60=math.log(metrics.t60_s),
        direct_delay_ms=metrics.direct_delay_ms,
        early_late_ratio_db=metrics.early_late_ratio_db,
        total_energy_db=metrics.total_energy_db,
        bias=1.0,
    )


def sse_loss_and_gradient(features: np.ndarray, targets: np.ndarray,
                          weights: np.ndarray) -> tuple[float, np.ndarray]:
    """Summed squared error and its analytic gradient 2 X^T (Xw - y)."""
    residual = features @ weights - targets
    return float(residual @ residual), 2.0 * (features.T @ residual)


def standardize_stats(features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column means/stds for standardization.

    Degenerate (zero-variance) columns get their std clamped to 1 with a
    warning; the trailing bias column passes through untouched (mean 0,
    std 1) so the model keeps its intercept.
    """
    means = features.mean(axis=0)
    stds = features.std(axis=0)
    degenerate = np.nonzero(stds <= 0.0)[0]
    informative = [i for i in degenerate if i != features.shape[1] - 1]
    if informative:
        names = [FEATURE_NAMES[i] if i < len(FEATURE_NAMES) else str(i) for i in informative]
        warnings.warn(f"zero-variance feature column(s) {names}; std clamped to 1",
                      stacklevel=3)
    stds[degenerate] = 1.0
    means[-1] = 0.0
    stds[-1] = 1.0
    return means, stds


def _stacked(dataset: Sequence[tuple[FeatureVector, float]]) -> tuple[np.ndarray, np.ndarray]:
    """Feature matrix and targets of ``dataset``, one row per pair."""
    features = np.stack([pair[0].as_array() for pair in dataset])
    return features, np.asarray([float(pair[1]) for pair in dataset])


def _standardized(dataset: Sequence[tuple[FeatureVector, float]]):
    """Standardized design matrix, targets and the column stats behind them."""
    if len(dataset) == 0:
        raise ValueError("training dataset is empty")
    features, targets = _stacked(dataset)
    means, stds = standardize_stats(features)
    return (features - means) / stds, targets, means, stds


def _lipschitz(design: np.ndarray) -> float:
    return 2.0 * float(np.linalg.eigvalsh(design.T @ design)[-1])


def lipschitz_constant(dataset: Sequence[tuple[FeatureVector, float]]) -> float:
    """L = 2 lambda_max(Z^T Z) of the standardized design Z that :func:`train`
    fits: a ``learning_rate`` of f / L converges for every 0 < f < 2, at any
    dataset size. The bias column keeps L at 2n or above."""
    return _lipschitz(_standardized(dataset)[0])


def train(dataset: Sequence[tuple[FeatureVector, float]], config: TrainConfig) -> EstimatorModel:
    """Fit the linear model by full-batch gradient descent.

    Runs exactly ``config.epochs`` update steps from zero weights on the
    standardized design matrix; each step is ``config.learning_rate`` times
    the gradient of the summed squared error, so the same rate takes larger
    steps on larger datasets (:func:`lipschitz_constant` gives the scale).
    Raises ``ValueError`` when the fit diverged: its final loss is not finite
    or lies above the loss of the zero weights it starts from.
    """
    return _descend(_standardized(dataset), config)


def _descend(standardized: tuple, config: TrainConfig) -> EstimatorModel:
    """:func:`train` on the output of :func:`_standardized`, which it does not modify."""
    if config.epochs < 0:
        raise ValueError("epochs must be non-negative")
    design, targets, means, stds = standardized
    # the gradient 2 Z^T (Zw - y) as 2 (Z^T Z w - Z^T y): each step costs 6 x 6, not n x 6
    gram, moment = design.T @ design, design.T @ targets
    weights = np.zeros(design.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(config.epochs):
            weights = weights - config.learning_rate * (2.0 * (gram @ weights - moment))
        final_sse, _ = sse_loss_and_gradient(design, targets, weights)
    final_loss = final_sse / len(targets)
    zero_weights_loss = float(targets @ targets) / len(targets)
    if not final_loss <= zero_weights_loss:   # NaN fails this too
        raise ValueError(
            f"fit diverged (lr {config.learning_rate:.4g}, {config.epochs} epochs): per-sample "
            f"loss {final_loss:.4g} is above {zero_weights_loss:.4g}, the loss of the zero "
            f"weights it starts from")
    return EstimatorModel(
        weights=weights,
        feature_means=means,
        feature_stds=stds,
        train_config=config,
        final_loss=final_loss,
    )


def predict(model: EstimatorModel, features: FeatureVector) -> float:
    """Distance prediction in meters, clamped below at zero.

    Non-finite raw predictions pass through unclamped (``max(0.0, nan)``
    would otherwise hide a diverged model behind an innocent 0.0), so
    downstream finiteness guards can see them.
    """
    return float(_predicted(model, features.as_array()[np.newaxis])[0])


def _predicted(model: EstimatorModel, features: np.ndarray) -> np.ndarray:
    """:func:`predict` for each row of ``features``: one dot product per row, so
    every prediction has the same bits as :func:`predict` gives it alone."""
    if features.shape[1] != model.weights.shape[0]:
        raise ValueError(
            f"feature dimension {features.shape[1]} does not match model "
            f"dimension {model.weights.shape[0]}"
        )
    z = (features - model.feature_means) / model.feature_stds
    raw = [float(row @ model.weights) for row in z]
    return np.asarray([value if not math.isfinite(value) else max(0.0, value) for value in raw])


def histogram_edges(top_m: float) -> np.ndarray:
    """Edges of the 0.5 m distance bins, from 0 up to the first edge >= ``top_m``."""
    n_bins = max(1, math.ceil(top_m / HIST_BIN_WIDTH_M))
    if n_bins > _MAX_HIST_BINS:
        raise ValueError(f"distances up to {top_m:.3g} m are too wide to histogram")
    return np.arange(n_bins + 1) * HIST_BIN_WIDTH_M


def evaluate(model: EstimatorModel,
             testset: Sequence[tuple[FeatureVector, float]]) -> EvalReport:
    """MAE, Pearson correlation, per-range MAE, and 0.5 m histograms."""
    if len(testset) == 0:
        raise ValueError("evaluation set is empty")
    features, truths = _stacked(testset)
    preds = _predicted(model, features)
    if not np.all(np.isfinite(preds)):
        raise ValueError("model produced non-finite predictions")
    residuals = preds - truths
    mae = float(np.mean(np.abs(residuals)))

    pearson = None
    if np.std(truths) > 0.0 and np.std(preds) > 0.0:
        pearson = float(np.corrcoef(truths, preds)[0, 1])

    per_range = []
    for lo, hi in DISTANCE_BUCKETS:
        mask = (truths >= lo) & (truths < hi)
        count = int(np.count_nonzero(mask))
        bucket_mae = float(np.mean(np.abs(residuals[mask]))) if count else None
        per_range.append(RangeMae(lo_m=lo, hi_m=hi, mae_m=bucket_mae, n=count))

    edges = histogram_edges(float(max(truths.max(), preds.max())))
    truth_hist, _ = np.histogram(truths, bins=edges)
    pred_hist, _ = np.histogram(preds, bins=edges)

    return EvalReport(
        mae_m=mae,
        pearson_r=pearson,
        per_range=tuple(per_range),
        n_samples=len(testset),
        hist_bin_width_m=HIST_BIN_WIDTH_M,
        truth_histogram=tuple(int(c) for c in truth_hist),
        predicted_histogram=tuple(int(c) for c in pred_hist),
        true_m=truths,
        predicted_m=preds,
    )


@dataclass(frozen=True)
class GridCell:
    step_fraction: float        # the step in units of 1/L of the training split
    learning_rate: float        # the absolute step that fraction came to
    epochs: int
    val_mae_m: float | None
    final_loss: float | None
    error: str | None = None


def grid_search(train_set: Sequence[tuple[FeatureVector, float]],
                val_set: Sequence[tuple[FeatureVector, float]],
                step_grid: Sequence[float] = DEFAULT_STEP_GRID,
                epoch_grid: Sequence[int] = DEFAULT_EPOCH_GRID) -> tuple[GridCell, list[GridCell]]:
    """Exhaustive sweep over the (step fraction, epochs) grid.

    Each step fraction f trains at ``learning_rate`` f / L, with L the
    :func:`lipschitz_constant` of ``train_set``. Returns the winning cell
    plus the full audit table. A cell that blows up (divergence,
    non-finite validation error) is recorded with its error and skipped
    during selection; ties break toward fewer epochs, then the smaller step.
    """
    if len(step_grid) == 0 or len(epoch_grid) == 0:
        raise ValueError("both grids must be non-empty")
    split = _standardized(train_set)   # shared by every cell
    lipschitz = _lipschitz(split[0])
    val_features, val_truths = _stacked(val_set)
    cells: list[GridCell] = []
    best: tuple | None = None
    for fraction in step_grid:
        for epochs in epoch_grid:
            lr = float(fraction) / lipschitz
            try:
                model = _descend(split, TrainConfig(learning_rate=lr, epochs=int(epochs)))
                val_mae = float(np.mean(np.abs(_predicted(model, val_features) - val_truths)))
                if not math.isfinite(val_mae):
                    raise ArithmeticError(f"non-finite validation MAE {val_mae}")
            except Exception as exc:   # a broken cell must not sink the sweep
                cells.append(GridCell(float(fraction), lr, int(epochs), None, None, str(exc)))
                continue
            cells.append(GridCell(float(fraction), lr, int(epochs), val_mae, model.final_loss))
            key = (val_mae, int(epochs), lr)
            if best is None or key < best[0]:
                best = (key, cells[-1])
    if best is None:
        raise RuntimeError(f"every grid cell failed (first error: {cells[0].error})")
    return best[1], cells


def split_dataset(dataset: Sequence, train_fraction: float = 0.8,
                  seed: int = 0) -> tuple[list, list]:
    """Deterministic shuffled split; sizes land within one of the exact fractions."""
    n = len(dataset)
    if n < 5:
        raise ValueError(f"need at least 5 samples to split, got {n}")
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie strictly between 0 and 1")
    order = np.random.default_rng(seed).permutation(n)
    n_train = min(n - 1, max(1, round(n * train_fraction)))
    train_part = [dataset[i] for i in order[:n_train]]
    held_part = [dataset[i] for i in order[n_train:]]
    return train_part, held_part
