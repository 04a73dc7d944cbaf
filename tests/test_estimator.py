import dataclasses
import math
import warnings

import numpy as np
import pytest

from rirdist import estimator
from rirdist.acoustics import InsufficientDecayError, RIRecording, analyze_rir
from rirdist.estimator import (
    DEFAULT_EPOCH_GRID,
    DEFAULT_STEP_GRID,
    FEATURE_NAMES,
    FEATURE_SCHEMA_VERSION,
    EstimatorModel,
    FeatureVector,
    TrainConfig,
    evaluate,
    extract_features,
    grid_search,
    lipschitz_constant,
    predict,
    split_dataset,
    sse_loss_and_gradient,
    standardize_stats,
    train,
)

from helpers import linear_edc_db


def fv(drr, log_t60, delay, ratio, energy):
    return FeatureVector(drr_db=float(drr), log_t60=float(log_t60),
                         direct_delay_ms=float(delay),
                         early_late_ratio_db=float(ratio),
                         total_energy_db=float(energy))


def random_dataset(n, seed, noise=0.0):
    """Synthetic feature/target pairs with a known linear ground truth."""
    rng = np.random.default_rng(seed)
    scale = np.array([3.0, 0.4, 2.0, 2.5, 4.0])
    offset = np.array([8.0, -0.7, 12.0, 6.0, -40.0])
    descriptors = rng.normal(size=(n, 5)) * scale + offset
    w_true = np.array([-0.3, -1.1, 0.25, -0.15, 0.05])
    targets = descriptors @ w_true + 5.0 + noise * rng.normal(size=n)
    return [(fv(*row), float(t)) for row, t in zip(descriptors, targets)]


def _design(dataset, model):
    features = np.stack([pair[0].as_array() for pair in dataset])
    return (features - model.feature_means) / model.feature_stds


def _identity_model(weights, **kwargs):
    """A model whose standardization is a no-op, for hand-built predictions."""
    w = np.asarray(weights, dtype=np.float64)
    return EstimatorModel(weights=w, feature_means=np.zeros(w.size),
                          feature_stds=np.ones(w.size),
                          train_config=TrainConfig(1e-4, 5), **kwargs)


def _near_field_rir():
    """Impulse at 10 ms plus a 60-sample decay, all inside the direct window."""
    samples = np.zeros(32000)
    samples[320] = 1.0
    remaining = np.power(10.0, linear_edc_db(0.0025, duration_s=60 / 32000) / 10.0)
    powers = -np.diff(np.append(remaining, 0.0))
    samples[321:321 + powers.size] = 0.5 * np.sqrt(powers)
    return RIRecording(samples=samples, source_pos=(1.0, 1.0, 1.0),
                       receiver_pos=(4.43, 1.0, 1.0), room_id="nf")


# ------------------------------------------------------------------ features

def test_feature_vector_array_order():
    vec = fv(1.0, 2.0, 3.0, 4.0, 5.0)
    np.testing.assert_array_equal(vec.as_array(), [1.0, 2.0, 3.0, 4.0, 5.0, 1.0])
    assert FEATURE_NAMES[-1] == "bias"
    assert len(FEATURE_NAMES) == vec.as_array().size


def test_extract_features_near_field_fixture():
    features = extract_features(analyze_rir(_near_field_rir()))
    assert features.direct_delay_ms == 10.0
    assert features.drr_db == 100.0                      # no energy outside the window
    assert features.log_t60 == pytest.approx(math.log(0.0025), abs=0.05)
    assert features.early_late_ratio_db == pytest.approx(120.0, abs=1.0)
    assert np.all(np.isfinite(features.as_array()))
    assert features.bias == 1.0


def test_extract_features_propagates_degenerate_signal():
    impulse = np.zeros(32000)
    impulse[0] = 1.0
    with pytest.raises(InsufficientDecayError):
        extract_features(analyze_rir(RIRecording(samples=impulse)))


def test_extract_features_scaling_contract():
    rir = _near_field_rir()
    scaled = dataclasses.replace(rir, samples=rir.samples * 4.0)
    base, loud = extract_features(analyze_rir(rir)), extract_features(analyze_rir(scaled))
    assert loud.drr_db == base.drr_db
    assert loud.direct_delay_ms == base.direct_delay_ms
    assert loud.log_t60 == pytest.approx(base.log_t60, rel=1e-9)
    assert loud.early_late_ratio_db == pytest.approx(base.early_late_ratio_db, abs=1e-9)
    assert loud.total_energy_db == pytest.approx(
        base.total_energy_db + 20.0 * math.log10(4.0), abs=1e-9)


# ------------------------------------------------------------ loss machinery

def test_loss_and_gradient_hand_case():
    features = np.array([[1.0, 0.0], [0.0, 1.0]])
    targets = np.array([1.0, 2.0])
    loss, gradient = sse_loss_and_gradient(features, targets, np.zeros(2))
    assert loss == 5.0
    np.testing.assert_array_equal(gradient, [-2.0, -4.0])


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(12)
    features = rng.normal(size=(50, 6))
    targets = rng.normal(size=50) * 3.0
    weights = rng.normal(size=6)
    _, analytic = sse_loss_and_gradient(features, targets, weights)
    eps = 1e-6
    numeric = np.empty(6)
    for i in range(6):
        up, down = weights.copy(), weights.copy()
        up[i] += eps
        down[i] -= eps
        numeric[i] = (sse_loss_and_gradient(features, targets, up)[0]
                      - sse_loss_and_gradient(features, targets, down)[0]) / (2.0 * eps)
    np.testing.assert_allclose(analytic, numeric, rtol=1e-4)


def test_standardize_keeps_bias_column_raw():
    features = np.stack([pair[0].as_array() for pair in random_dataset(30, seed=5)])
    means, stds = standardize_stats(features)
    assert means[-1] == 0.0 and stds[-1] == 1.0
    np.testing.assert_allclose(means[:-1], features[:, :-1].mean(axis=0))
    np.testing.assert_allclose(stds[:-1], features[:, :-1].std(axis=0))


def test_standardize_warns_on_degenerate_column():
    features = np.stack([pair[0].as_array() for pair in random_dataset(30, seed=5)])
    features[:, 2] = 7.5
    with pytest.warns(UserWarning, match="direct_delay_ms"):
        means, stds = standardize_stats(features)
    assert stds[2] == 1.0
    assert means[2] == 7.5


# ------------------------------------------------------------------ training

def test_train_rejects_bad_input():
    data = random_dataset(10, seed=0)
    with pytest.raises(ValueError):
        train([], TrainConfig(1e-4, 10))
    with pytest.raises(ValueError, match="epochs"):
        train(data, TrainConfig(1e-4, -1))
    with pytest.raises(ValueError, match="diverged"):
        train(data, TrainConfig(0.5, 10))


@pytest.mark.parametrize("fraction, diverges", [(1.9, False), (2.1, True)])
def test_train_converges_below_two_over_lipschitz_and_diverges_above(fraction, diverges):
    """The summed-squared-error gradient is L-Lipschitz: a step below 2/L
    converges at any dataset size, and a step above it diverges."""
    for n in (10, 100, 1000):
        data = random_dataset(n, seed=n, noise=0.3)
        config = TrainConfig(fraction / lipschitz_constant(data), 500)
        if diverges:
            with pytest.raises(ValueError, match="diverged"):
                train(data, config)
            continue
        model = train(data, config)
        reference, *_ = np.linalg.lstsq(_design(data, model),
                                        np.asarray([t for _, t in data]), rcond=None)
        assert np.linalg.norm(model.weights - reference) <= 1e-2 * np.linalg.norm(reference)


def test_train_zero_epochs_keeps_zero_weights():
    data = random_dataset(10, seed=0)
    model = train(data, TrainConfig(1e-4, 0))
    np.testing.assert_array_equal(model.weights, np.zeros(6))
    targets = np.asarray([t for _, t in data])
    assert model.final_loss == pytest.approx(float(np.mean(targets ** 2)))


def test_train_reduces_loss_from_zero_start():
    data = random_dataset(40, seed=1, noise=0.2)
    targets = np.asarray([t for _, t in data])
    model = train(data, TrainConfig(1e-5, 5))
    assert model.final_loss < float(np.mean(targets ** 2))


def test_final_loss_is_mean_squared_error():
    data = random_dataset(25, seed=2, noise=0.1)
    model = train(data, TrainConfig(1e-4, 20))
    sse, _ = sse_loss_and_gradient(_design(data, model),
                                   np.asarray([t for _, t in data]), model.weights)
    assert model.final_loss == pytest.approx(sse / len(data), rel=1e-12)


def test_loss_monotone_in_epochs():
    data = random_dataset(40, seed=3, noise=0.2)
    losses = [train(data, TrainConfig(1e-4, e)).final_loss for e in (5, 10, 20, 50)]
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_training_converges_to_least_squares():
    data = random_dataset(100, seed=3, noise=0.3)
    model = train(data, TrainConfig(1e-3, 50))
    targets = np.asarray([t for _, t in data])
    reference, *_ = np.linalg.lstsq(_design(data, model), targets, rcond=None)
    gap = np.linalg.norm(model.weights - reference) / np.linalg.norm(reference)
    assert gap <= 1e-2


def test_training_recovers_planted_slope():
    rng = np.random.default_rng(7)
    drr = rng.uniform(0.5, 10.0, size=200)
    slope, intercept = -0.35, 4.0
    data = [(fv(d, 0.0, 0.0, 0.0, 0.0), slope * d + intercept) for d in drr]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # four descriptor columns are constant here
        model = train(data, TrainConfig(1e-3, 50))
    recovered = model.weights[0] / model.feature_stds[0]
    assert recovered == pytest.approx(slope, rel=1e-3)
    for sample_drr in (1.0, 4.2, 9.0):
        assert predict(model, fv(sample_drr, 0.0, 0.0, 0.0, 0.0)) \
            == pytest.approx(slope * sample_drr + intercept, rel=1e-3)


def test_single_sample_is_interpolated_exactly():
    pair = (fv(5.0, -0.5, 8.0, 12.0, -30.0), 2.75)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # every column is degenerate with n=1
        model = train([pair], TrainConfig(0.4, 60))
    assert predict(model, pair[0]) == pytest.approx(2.75, abs=1e-12)


# ---------------------------------------------------------------- prediction

def test_predict_zero_weights_and_clamp():
    assert predict(_identity_model(np.zeros(6)), fv(1, 2, 3, 4, 5)) == 0.0
    negative = _identity_model([0.0, 0.0, 0.0, 0.0, 0.0, -5.0])
    assert predict(negative, fv(1, 2, 3, 4, 5)) == 0.0


def test_predict_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        predict(_identity_model(np.zeros(3)), fv(1, 2, 3, 4, 5))


# -------------------------------------------------------------- serialization

def test_model_json_round_trip():
    model = train(random_dataset(20, seed=4, noise=0.1), TrainConfig(1e-4, 10))
    data = model.to_json_dict()
    assert data["feature_schema_version"] == FEATURE_SCHEMA_VERSION
    assert data["feature_names"] == list(FEATURE_NAMES)
    restored = EstimatorModel.from_json_dict(data)
    np.testing.assert_array_equal(restored.weights, model.weights)
    np.testing.assert_array_equal(restored.feature_means, model.feature_means)
    np.testing.assert_array_equal(restored.feature_stds, model.feature_stds)
    assert restored.train_config == model.train_config
    assert restored.final_loss == pytest.approx(model.final_loss)


def test_model_json_without_and_with_legacy_seed():
    model = train(random_dataset(20, seed=4, noise=0.1), TrainConfig(1e-4, 10))
    data = model.to_json_dict()
    assert data["train_config"] == {"learning_rate": 1e-4, "epochs": 10}
    legacy = dict(data, train_config=dict(data["train_config"], seed=9))
    restored = EstimatorModel.from_json_dict(legacy)
    assert restored.train_config == TrainConfig(1e-4, 10)
    np.testing.assert_array_equal(restored.weights, model.weights)


def test_model_json_rejects_foreign_schema():
    data = _identity_model(np.zeros(6)).to_json_dict()
    wrong_version = dict(data, feature_schema_version=99)
    with pytest.raises(ValueError, match="schema"):
        EstimatorModel.from_json_dict(wrong_version)
    wrong_names = dict(data, feature_names=["a", "b"])
    with pytest.raises(ValueError, match="feature name"):
        EstimatorModel.from_json_dict(wrong_names)


# ---------------------------------------------------------------- evaluation

def _drr_equals_distance(truths):
    return [(fv(t, 0.0, 0.0, 0.0, 0.0), float(t)) for t in truths]


def test_evaluate_perfect_predictor():
    model = _identity_model([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    report = evaluate(model, _drr_equals_distance([0.5, 1.5, 2.0, 3.5, 4.5, 6.0]))
    assert report.mae_m == 0.0
    assert report.pearson_r == pytest.approx(1.0)
    assert report.n_samples == 6
    assert [bucket.n for bucket in report.per_range] == [1, 2, 2, 1]
    assert all(bucket.mae_m == 0.0 for bucket in report.per_range if bucket.n)
    assert report.truth_histogram == report.predicted_histogram
    assert sum(report.truth_histogram) == 6


def test_evaluate_constant_predictor():
    model = _identity_model(np.zeros(6))
    truths = [1.0, 2.0, 3.0, 5.0]
    report = evaluate(model, _drr_equals_distance(truths))
    assert report.pearson_r is None                      # zero variance on one side
    assert report.mae_m == pytest.approx(np.mean(truths))
    np.testing.assert_array_equal(report.predicted_m, np.zeros(4))


def test_evaluate_bucket_edges():
    model = _identity_model(np.zeros(6))
    report = evaluate(model, _drr_equals_distance([0.0, 0.999, 1.0, 2.999, 3.0, 4.999, 5.0, 80.0]))
    assert [(bucket.lo_m, bucket.hi_m) for bucket in report.per_range] \
        == [(0.0, 1.0), (1.0, 3.0), (3.0, 5.0), (5.0, math.inf)]
    assert [bucket.n for bucket in report.per_range] == [2, 2, 2, 2]
    assert sum(bucket.n for bucket in report.per_range) == report.n_samples


def test_evaluate_report_is_self_consistent():
    model = train(random_dataset(60, seed=8, noise=0.4), TrainConfig(1e-4, 50))
    testset = random_dataset(30, seed=9, noise=0.4)
    report = evaluate(model, testset)
    recomputed = float(np.mean(np.abs(report.predicted_m - report.true_m)))
    assert report.mae_m == pytest.approx(recomputed, rel=1e-12)
    assert sum(report.truth_histogram) == report.n_samples
    data = report.to_json_dict()
    assert data["per_range"][-1]["hi_m"] is None
    assert data["histogram"]["bin_width_m"] == 0.5


def test_evaluate_rejects_bad_input():
    with pytest.raises(ValueError):
        evaluate(_identity_model(np.zeros(6)), [])
    broken = _identity_model([math.inf, 0.0, 0.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="non-finite"):
        evaluate(broken, _drr_equals_distance([1.0, 2.0]))


# --------------------------------------------------------------- grid search

def test_grid_search_singleton():
    data = random_dataset(30, seed=10, noise=0.2)
    best, cells = grid_search(data[:24], data[24:], step_grid=(0.5,), epoch_grid=(10,))
    assert (best.step_fraction, best.epochs) == (0.5, 10)
    assert best.learning_rate == 0.5 / lipschitz_constant(data[:24])
    assert cells == [best] and best.error is None


def test_grid_search_selects_minimum_cell():
    data = random_dataset(50, seed=11, noise=0.3)
    train_set, val_set = data[:40], data[40:]
    best, cells = grid_search(train_set, val_set,
                              step_grid=DEFAULT_STEP_GRID, epoch_grid=DEFAULT_EPOCH_GRID)
    assert len(cells) == len(DEFAULT_STEP_GRID) * len(DEFAULT_EPOCH_GRID)
    ok = [c for c in cells if c.error is None]
    winner = min(ok, key=lambda c: (c.val_mae_m, c.epochs, c.learning_rate))
    assert (best.learning_rate, best.epochs) == (winner.learning_rate, winner.epochs)


def test_grid_search_tie_breaks_toward_cheaper_configs():
    data = [(vec, 0.0) for vec, _ in random_dataset(20, seed=12)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        best, cells = grid_search(data[:15], data[15:])
    assert all(cell.val_mae_m == 0.0 for cell in cells)   # zero targets: every cell ties
    assert best.epochs == min(DEFAULT_EPOCH_GRID)
    assert best.step_fraction == min(DEFAULT_STEP_GRID)


# At a step of 1e6 / L these 15 rows end 50 epochs with an infinite loss, but
# with weights that still give a finite validation MAE (about 1.1e299), so only
# the loss shows the divergence.
def test_grid_search_records_failed_cells():
    data = random_dataset(20, seed=14)
    best, cells = grid_search(data[:15], data[15:], step_grid=(1e6, 0.5), epoch_grid=(50,))
    by_step = {cell.step_fraction: cell for cell in cells}
    assert "diverged" in by_step[1e6].error
    assert by_step[1e6].val_mae_m is None and by_step[1e6].final_loss is None
    assert by_step[0.5].error is None
    assert best.step_fraction == 0.5


def test_grid_search_standardizes_its_training_split_once(monkeypatch):
    """Every cell descends on the one standardized design of the training split,
    and scores the validation rows as predict scores each of them alone."""
    data = random_dataset(40, seed=3)
    stacked = []

    def counting(features):
        stacked.append(len(features))
        return standardize_stats(features)

    monkeypatch.setattr(estimator, "standardize_stats", counting)
    best, cells = grid_search(data[:30], data[30:])
    assert stacked == [30] and len(cells) == len(DEFAULT_STEP_GRID) * len(DEFAULT_EPOCH_GRID)
    model = train(data[:30], TrainConfig(best.learning_rate, best.epochs))
    per_row = [max(0.0, float(((vec.as_array() - model.feature_means) / model.feature_stds)
                              @ model.weights)) for vec, _ in data[30:]]
    assert best.val_mae_m == float(np.mean(np.abs(np.asarray(per_row)
                                                  - [dist for _, dist in data[30:]])))


def test_grid_search_all_cells_failing_raises():
    data = random_dataset(20, seed=14)
    with pytest.raises(RuntimeError, match="diverged"):
        grid_search(data[:15], data[15:], step_grid=(1e6,), epoch_grid=(50,))
    with pytest.raises(ValueError):
        grid_search(data[:15], data[15:], step_grid=(), epoch_grid=(10,))


# ------------------------------------------------------------------ splitting

def test_split_sizes_and_partition():
    data = list(range(10))
    train_part, held_part = split_dataset(data, 0.8, seed=0)
    assert len(train_part) == 8 and len(held_part) == 2
    assert sorted(train_part + held_part) == data


def test_split_validation():
    with pytest.raises(ValueError):
        split_dataset(list(range(4)), 0.8, seed=0)
    with pytest.raises(ValueError):
        split_dataset(list(range(10)), 1.0, seed=0)
    with pytest.raises(ValueError):
        split_dataset(list(range(10)), 0.0, seed=0)


def test_split_determinism():
    data = list(range(20))
    assert split_dataset(data, 0.8, seed=3) == split_dataset(data, 0.8, seed=3)
    assert split_dataset(data, 0.8, seed=3) != split_dataset(data, 0.8, seed=4)
    always_some_train, always_some_held = split_dataset(data, 0.99, seed=0)
    assert len(always_some_held) >= 1
