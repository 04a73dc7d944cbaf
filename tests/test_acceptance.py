"""Acceptance suite: seven release criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v`` to get a pass/fail line
per criterion. Tolerances are pinned here and must not be loosened to
make a build pass.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from rirdist import dataio
from rirdist.acoustics import detect_direct_path, estimate_t60, schroeder_edc
from rirdist.cli import main
from rirdist.estimator import (
    FeatureVector,
    TrainConfig,
    grid_search,
    sse_loss_and_gradient,
    train,
)
from rirdist.filtering import FilterCriteria, FilterReason, build_reference_profile, filter_batch
from rirdist.synth import (
    SceneQuery,
    ShoeboxRoom,
    SynthesisConfig,
    builtin_room,
    builtin_room_ids,
    image_source_rir,
    sample_scenes,
    synthesize_rir,
)

from helpers import (
    descriptor_row,
    exp_envelope_rir,
    golden_corpus,
    golden_enrollment,
    theoretical_t60,
)

SPEED = 343.0
RATE = 32000


# --------------------------------------------------------------- criterion 1

def test_criterion_1_t60_oracle():
    """Reverberation-time fits land within 5% of the analytic envelope value."""
    start = time.perf_counter()
    worst = 0.0
    for tau in (0.05, 0.1, 0.2, 0.3):
        truth = theoretical_t60(tau)
        rir = exp_envelope_rir(tau, duration_s=max(1.0, 8.0 * tau), seed=1)
        estimate = estimate_t60(schroeder_edc(rir), RATE).t60_s
        worst = max(worst, abs(estimate - truth) / truth)
        assert estimate == pytest.approx(truth, rel=0.05), f"tau={tau}"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 1 PASS: worst T60 error {worst:.3%}, {elapsed:.3f} s")


# --------------------------------------------------------------- criterion 2

def test_criterion_2_image_source_geometry():
    """Free-field delays/amplitudes and the order-1 seven-image layout."""
    big = ShoeboxRoom(dims=(30.0, 29.0, 28.0), absorption=0.5, room_id="ff")
    direct_only = SynthesisConfig(max_image_order=0)
    for distance in (1.0, 2.0, 3.43, 5.0):
        rir = image_source_rir(
            big, SceneQuery((10.0, 10.0, 10.0), (10.0 + distance, 10.0, 10.0)),
            direct_only)
        peak = int(np.argmax(np.abs(rir.samples)))
        assert abs(peak - distance / SPEED * RATE) <= 1.0
        amplitude = float(rir.samples[max(0, peak - 1):peak + 2].sum())
        assert amplitude == pytest.approx(1.0 / distance, rel=0.01)

    room = ShoeboxRoom(dims=(5.0, 4.0, 3.0), absorption=0.3, room_id="o1")
    source, receiver = (1.1, 0.9, 1.2), (3.6, 2.7, 1.7)
    rir = image_source_rir(room, SceneQuery(source, receiver),
                           SynthesisConfig(max_image_order=1))

    expected = [(np.asarray(source), 0)]
    for axis, length in enumerate(room.dims):
        for mirrored in (-source[axis], 2.0 * length - source[axis]):
            pos = np.asarray(source, dtype=float)
            pos[axis] = mirrored
            expected.append((pos, 1))
    arrivals = sorted(
        (float(np.linalg.norm(pos - np.asarray(receiver))), bounces)
        for pos, bounces in expected)

    nonzero = np.nonzero(rir.samples)[0]
    clusters = np.split(nonzero, np.where(np.diff(nonzero) > 1)[0] + 1)
    assert len(clusters) == 7
    for cluster, (distance, bounces) in zip(clusters, arrivals):
        taps = rir.samples[cluster]
        amplitude = float(taps.sum())
        centroid = float((taps @ cluster) / amplitude)
        assert amplitude == pytest.approx((1.0 - room.absorption) ** bounces / distance,
                                          rel=1e-12)
        assert centroid == pytest.approx(distance / SPEED * RATE, abs=1e-6)
    print("criterion 2 PASS: free-field law and 7 order-1 arrivals verified")


# --------------------------------------------------------------- criterion 3

def test_criterion_3_direct_path_distance_recovery():
    """Across 200 scenes the implied distance stays within +/-0.011 m (>=99%)."""
    hits = total = 0
    worst = 0.0
    for room_id in builtin_room_ids():
        room = builtin_room(room_id)
        for query in sample_scenes(room, 10, seed=123 + room_id):
            rir = synthesize_rir(room, query)
            implied = detect_direct_path(rir) / RATE * SPEED
            error = abs(implied - query.distance_m)
            worst = max(worst, error)
            hits += error <= 0.011
            total += 1
    assert total == 200
    assert hits / total >= 0.99
    print(f"criterion 3 PASS: {hits}/{total} within 11 mm (worst {worst * 1000:.2f} mm)")


# --------------------------------------------------------------- criterion 4

def test_criterion_4_filter_fixture_yield():
    """The 8-RIR screening fixture yields exactly 0.25 under default criteria."""
    defaults = FilterCriteria()
    assert (defaults.t60_rel_tolerance, defaults.t60_hard_cutoff_s,
            defaults.min_distance_m, defaults.max_distance_m) == (0.20, 1.8695, 0.8, 7.1)

    profile = build_reference_profile(golden_enrollment())
    rows = [("golden", descriptor_row(rir)) for rir in golden_corpus().values()]
    decisions = list(filter_batch(rows, {"golden": profile}, defaults))
    yield_fraction = sum(decision.accepted for decision in decisions) / len(decisions)
    assert yield_fraction == 0.25
    histogram = {reason.name: sum(reason in decision.reasons for decision in decisions)
                 for reason in FilterReason}
    assert histogram == {reason.name: 1 for reason in FilterReason}
    print(f"criterion 4 PASS: yield {yield_fraction}, reasons {histogram}")


# --------------------------------------------------------------- criterion 5

def _synthetic_features(n, seed, noise):
    rng = np.random.default_rng(seed)
    scale = np.array([3.0, 0.4, 2.0, 2.5, 4.0])
    offset = np.array([8.0, -0.7, 12.0, 6.0, -40.0])
    descriptors = rng.normal(size=(n, 5)) * scale + offset
    w_true = np.array([-0.3, -1.1, 0.25, -0.15, 0.05])
    targets = descriptors @ w_true + 5.0 + noise * rng.normal(size=n)
    pairs = [(FeatureVector(*row), float(t)) for row, t in zip(descriptors, targets)]
    return pairs


def test_criterion_5_estimator_training_math():
    """Gradient, least-squares convergence, and exact grid-minimum selection."""
    rng = np.random.default_rng(17)
    features = rng.normal(size=(50, 6))
    targets = rng.normal(size=50) * 3.0
    weights = rng.normal(size=6)
    _, analytic = sse_loss_and_gradient(features, targets, weights)
    eps = 1e-6
    for i in range(6):
        up, down = weights.copy(), weights.copy()
        up[i] += eps
        down[i] -= eps
        numeric = (sse_loss_and_gradient(features, targets, up)[0]
                   - sse_loss_and_gradient(features, targets, down)[0]) / (2 * eps)
        assert analytic[i] == pytest.approx(numeric, rel=1e-4)

    data = _synthetic_features(100, seed=3, noise=0.3)
    model = train(data, TrainConfig(1e-3, 50))
    design = (np.stack([fv.as_array() for fv, _ in data])
              - model.feature_means) / model.feature_stds
    reference, *_ = np.linalg.lstsq(design, np.asarray([t for _, t in data]), rcond=None)
    gap = float(np.linalg.norm(model.weights - reference) / np.linalg.norm(reference))
    assert gap <= 1e-2

    val = _synthetic_features(20, seed=4, noise=0.3)
    best, cells = grid_search(data, val)
    ok = [c for c in cells if c.error is None]
    winner = min(ok, key=lambda c: (c.val_mae_m, c.epochs, c.learning_rate))
    assert (best.learning_rate, best.epochs) == (winner.learning_rate, winner.epochs)
    print(f"criterion 5 PASS: gradient matches, LS gap {gap:.2e}, "
          f"grid min ({winner.learning_rate}, {winner.epochs})")


# --------------------------------------------------------- criteria 6 and 7

def _run_pipeline(base: Path) -> dict:
    corpus, enroll, model_dir, eval_dir = (base / "corpus", base / "enroll",
                                           base / "model", base / "eval")
    assert main(["generate", "--out", str(corpus), "--rooms", "1-20",
                 "--n", "200", "--seed", "7"]) == 0
    assert main(["generate", "--out", str(enroll), "--rooms", "1-20",
                 "--n", "20", "--seed", "1007"]) == 0
    assert main(["analyze", "--in", str(corpus)]) == 0
    assert main(["filter", "--in", str(corpus), "--enrollment", str(enroll)]) == 0
    assert main(["train", "--in", str(corpus), "--out", str(model_dir),
                 "--seed", "7", "--holdout", "0.2"]) == 0
    assert main(["eval", "--model", str(model_dir / dataio.MODEL_NAME),
                 "--dataset", str(model_dir / dataio.HOLDOUT_NAME),
                 "--out", str(eval_dir)]) == 0
    return {"corpus": corpus, "enroll": enroll, "model": model_dir, "eval": eval_dir}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    base = tmp_path_factory.mktemp("acceptance")
    start = time.perf_counter()
    paths = _run_pipeline(base)
    paths["elapsed_s"] = time.perf_counter() - start
    return paths


def test_criterion_6_holdout_accuracy(pipeline):
    """Held-out MAE on 1-7 m beats 0.5 m and half the constant-mean baseline."""
    assert pipeline["elapsed_s"] < 300.0

    rows = (pipeline["eval"] / dataio.PER_SAMPLE_NAME).read_text().splitlines()[1:]
    parsed = []
    for line in rows:
        rir_id, truth, pred, _ = line.split(",")
        parsed.append((rir_id, float(truth), float(pred)))

    holdout_ids = {row[0] for row in parsed}
    decisions = dataio.read_jsonl(pipeline["corpus"] / dataio.DECISIONS_NAME)
    metadata = {row["rir_id"]: row
                for row in dataio.read_jsonl(pipeline["corpus"] / dataio.METADATA_NAME)}

    def scene_distance(rir_id):
        row = metadata[rir_id]
        delta = np.asarray(row["source_pos"]) - np.asarray(row["receiver_pos"])
        return float(np.linalg.norm(delta))

    train_ids = [row["rir_id"] for row in decisions
                 if row["accepted"] and row["rir_id"] not in holdout_ids]
    train_mean = float(np.mean([scene_distance(rid) for rid in train_ids]))

    in_range = [(t, p) for _, t, p in parsed if 1.0 <= t <= 7.0]
    assert in_range, "no held-out samples in the 1-7 m range"
    mae = float(np.mean([abs(p - t) for t, p in in_range]))
    baseline = float(np.mean([abs(train_mean - t) for t, _ in in_range]))
    assert mae <= 0.5
    assert mae <= 0.5 * baseline

    payload = dataio.read_json(pipeline["eval"] / dataio.EVAL_NAME)
    first = payload["per_range"][0]
    assert (first["lo_m"], first["hi_m"]) == (0.0, 1.0)   # reported, no bound applies
    print(f"criterion 6 PASS: MAE[1,7] {mae:.4f} m vs bound 0.5 "
          f"and baseline {baseline:.4f} m ({len(in_range)} samples, "
          f"pipeline {pipeline['elapsed_s']:.1f} s)")


def test_criterion_7_determinism(pipeline, tmp_path_factory):
    """A full rerun reproduces metadata, decisions, and eval byte-for-byte."""
    rerun = _run_pipeline(tmp_path_factory.mktemp("acceptance_rerun"))
    for key, name in (("corpus", dataio.METADATA_NAME),
                      ("corpus", dataio.DECISIONS_NAME),
                      ("eval", dataio.EVAL_NAME)):
        first = (pipeline[key] / name).read_bytes()
        second = (rerun[key] / name).read_bytes()
        assert first == second, f"{name} differs between identical runs"
    print("criterion 7 PASS: metadata.jsonl, decisions.jsonl, eval.json byte-identical")
