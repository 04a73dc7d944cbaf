import dataclasses
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rirdist import corpus, dataio
from rirdist.acoustics import _GRID_T, EDC_GRID_POINTS, RIRecording, analyze_rir
from rirdist.filtering import (
    FilterCriteria,
    FilterReason,
    MissingProfileError,
    ReferenceProfile,
    apply_quality_filter,
    build_reference_profile,
    filter_batch,
)

from helpers import (
    GOLDEN_EXPECTED,
    GOLDEN_ROOM_ID,
    descriptor_row,
    exp_envelope_rir,
    golden_corpus,
    golden_enrollment,
    linear_edc_db,
    prescribed_edc_rir,
    scene_positions,
)


def _linear_rir(t60_s, distance_m=None, room_id="r", **kwargs):
    if distance_m is not None:
        source, receiver = scene_positions(distance_m)
        kwargs.setdefault("source_pos", source)
        kwargs.setdefault("receiver_pos", receiver)
    return prescribed_edc_rir(linear_edc_db(t60_s), room_id=room_id, **kwargs)


@pytest.fixture(scope="module")
def golden_profile():
    return build_reference_profile(golden_enrollment())


# ------------------------------------------------------------------ criteria

def test_criteria_defaults():
    criteria = FilterCriteria()
    assert criteria.t60_rel_tolerance == 0.20
    assert criteria.t60_hard_cutoff_s == 1.8695
    assert criteria.min_distance_m == 0.8
    assert criteria.max_distance_m == 7.1
    assert criteria.edc_max_rms_dev_db == 6.0
    assert criteria.echo_max_rel_dev == 0.5


@pytest.mark.parametrize("overrides", [
    {"t60_rel_tolerance": 0.0},
    {"t60_hard_cutoff_s": -1.0},
    {"min_distance_m": -0.1},
    {"min_distance_m": 7.1, "max_distance_m": 7.1},
    {"edc_max_rms_dev_db": 0.0},
    {"echo_max_rel_dev": -0.5},
    {"echo_max_rel_dev": float("nan")},
    {"t60_rel_tolerance": float("nan"), "edc_max_rms_dev_db": float("nan")},
    {"t60_hard_cutoff_s": float("inf")},
    {"max_distance_m": float("inf")},
    {"edc_max_rms_dev_db": float("inf")},
    {"min_distance_m": float("nan")},
])
def test_criteria_validation(overrides):
    with pytest.raises(ValueError):
        FilterCriteria(**overrides)


# ------------------------------------------------------------------ profiles

def test_profile_requires_two_rirs():
    with pytest.raises(ValueError):
        build_reference_profile([_linear_rir(0.5)])


def test_profile_rejects_mixed_rooms():
    with pytest.raises(ValueError):
        build_reference_profile([_linear_rir(0.5, room_id="a"),
                                 _linear_rir(0.5, room_id="b")])


def test_profile_median_t60():
    enrollment = [_linear_rir(0.4), _linear_rir(0.5), _linear_rir(0.9)]
    profile = build_reference_profile(enrollment)
    assert profile.median_t60_s == pytest.approx(0.5, rel=1e-5)
    assert profile.n_enrollment == 3
    assert profile.room_id == "r"


def test_profile_takes_a_one_shot_generator():
    enrollment = [_linear_rir(0.4), _linear_rir(0.5), _linear_rir(0.9)]
    streamed = build_reference_profile(rir for rir in enrollment)
    listed = build_reference_profile(enrollment)
    assert (streamed.room_id, streamed.median_t60_s, streamed.n_enrollment) \
        == (listed.room_id, listed.median_t60_s, listed.n_enrollment)
    np.testing.assert_array_equal(streamed.median_edc_db, listed.median_edc_db)
    np.testing.assert_array_equal(streamed.echo_density_ref, listed.echo_density_ref)


def test_profile_shapes_and_duplicate_stability():
    rir = _linear_rir(0.7)
    single = analyze_rir(rir)
    profile = build_reference_profile([rir, rir, rir])
    assert profile.median_t60_s == pytest.approx(single.t60_s, rel=1e-12)
    assert profile.median_edc_db.shape == (EDC_GRID_POINTS,)
    assert profile.echo_density_ref.shape == (10,)
    assert float(profile.median_edc_db[0]) == 0.0
    np.testing.assert_array_equal(profile.echo_density_ref, np.asarray(single.echo_density, float))


# ------------------------------------------------------- screening decisions

def _screen(rir, profile, criteria=FilterCriteria()):
    return apply_quality_filter(descriptor_row(rir), profile, criteria)


@pytest.mark.parametrize("name", sorted(GOLDEN_EXPECTED))
def test_golden_corpus_single_reason_decisions(name, golden_profile):
    decision = _screen(golden_corpus()[name], golden_profile)
    assert decision.reason_names() == GOLDEN_EXPECTED[name]
    assert decision.accepted == (not GOLDEN_EXPECTED[name])
    assert decision.error is None


def test_enrollment_passes_its_own_profile(golden_profile):
    for rir in golden_enrollment():
        assert _screen(rir, golden_profile).accepted


def test_long_t60_trips_band_and_cutoff_together():
    profile = build_reference_profile([_linear_rir(1.0), _linear_rir(1.0)])
    decision = _screen(_linear_rir(2.0, distance_m=2.0), profile)
    assert not decision.accepted
    assert {FilterReason.T60_OUT_OF_BAND, FilterReason.T60_ABOVE_CUTOFF} <= decision.reasons


def test_degenerate_signal_yields_error_decision(golden_profile):
    impulse = np.zeros(32000)
    impulse[0] = 1.0
    free_field = RIRecording(samples=impulse, room_id=GOLDEN_ROOM_ID,
                             source_pos=(1.0, 1.0, 1.0), receiver_pos=(3.0, 1.0, 1.0))
    decision = _screen(free_field, golden_profile)
    assert not decision.accepted
    assert decision.reasons == frozenset()
    assert "InsufficientDecayError" in decision.error


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e200])
def test_non_finite_signal_yields_error_decision(golden_profile, value):
    rir = golden_corpus()["good_a"]
    samples = rir.samples.copy()
    samples[100] = value
    decision = _screen(dataclasses.replace(rir, samples=samples), golden_profile)
    assert not decision.accepted
    assert decision.reasons == frozenset()
    assert decision.error.startswith("NonFiniteSignalError: ")


def test_missing_positions_yield_error_decision(golden_profile):
    rir = prescribed_edc_rir(linear_edc_db(1.6), room_id=GOLDEN_ROOM_ID)
    decision = _screen(rir, golden_profile)
    assert not decision.accepted
    assert decision.reasons == frozenset()
    assert "distance" in decision.error


def test_decisions_are_scale_invariant(golden_profile):
    for name, rir in golden_corpus().items():
        scaled = dataclasses.replace(rir, samples=rir.samples * 8.0)
        assert _screen(scaled, golden_profile).reason_names() == GOLDEN_EXPECTED[name]


def test_widened_criteria_accept_a_superset(golden_profile):
    defaults, wide = FilterCriteria(), FilterCriteria(
        t60_rel_tolerance=0.40, t60_hard_cutoff_s=5.0,
        min_distance_m=0.1, max_distance_m=10.0,
        edc_max_rms_dev_db=12.0, echo_max_rel_dev=2.0,
    )
    corpus = golden_corpus()
    accepted_default = {name for name, rir in corpus.items()
                        if _screen(rir, golden_profile, defaults).accepted}
    accepted_wide = {name for name, rir in corpus.items()
                     if _screen(rir, golden_profile, wide).accepted}
    assert accepted_default <= accepted_wide
    # the dense-echo fixture is two orders of magnitude off, so it alone survives widening
    assert accepted_wide == set(corpus) - {"bad_echo"}


def _golden_rows():
    return [(GOLDEN_ROOM_ID, descriptor_row(rir)) for rir in golden_corpus().values()]


def test_vacuous_criteria_accept_everything(golden_profile):
    vacuous = FilterCriteria(
        t60_rel_tolerance=1e9, t60_hard_cutoff_s=1e9,
        min_distance_m=0.0, max_distance_m=100.0,
        edc_max_rms_dev_db=1e9, echo_max_rel_dev=1e9,
    )
    decisions = list(filter_batch(_golden_rows(), {GOLDEN_ROOM_ID: golden_profile}, vacuous))
    assert len(decisions) == len(golden_corpus())
    assert all(decision.accepted for decision in decisions)


@settings(max_examples=40, deadline=None)
@given(tau_s=st.floats(0.05, 0.3), seed=st.integers(0, 2 ** 32 - 1),
       distance_m=st.floats(0.2, 9.0), on_the_edge=st.booleans())
def test_a_written_and_read_back_row_screens_like_the_in_memory_result(
        golden_profile, tau_s, seed, distance_m, on_the_edge):
    """What analyze writes and filter reads back decides exactly as the
    analyze_rir result it came from: every float survives the JSON line, and
    the decay grid its base64 text, decoded as filter decodes it."""
    source, receiver = scene_positions(distance_m)
    rir = exp_envelope_rir(tau_s, seed=seed, source_pos=source, receiver_pos=receiver,
                           room_id=GOLDEN_ROOM_ID)
    metrics = analyze_rir(rir)
    criteria = FilterCriteria()
    if on_the_edge:   # every threshold at the in-memory value, where one ulp flips a reason
        median = golden_profile.median_t60_s
        n = max(1, int(np.count_nonzero(_GRID_T <= median)))
        deviation = metrics.edc_grid_db[:n] - golden_profile.median_edc_db[:n]
        criteria = FilterCriteria(
            t60_rel_tolerance=abs(metrics.t60_s - median) / median,
            t60_hard_cutoff_s=metrics.t60_s,
            edc_max_rms_dev_db=float(np.sqrt(np.mean(deviation ** 2))))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "metrics.jsonl"
        dataio.write_jsonl(path, [corpus.metrics_row("r", metrics, rir.metadata_distance(), None)])
        (row,) = dataio.read_jsonl(path)
    row["edc_grid_db"] = corpus.decode_grid(row["edc_grid_db"])
    assert row["edc_grid_db"].tobytes() == metrics.edc_grid_db.tobytes()
    assert row["t60_s"] == metrics.t60_s
    assert apply_quality_filter(row, golden_profile, criteria) \
        == apply_quality_filter(descriptor_row(rir), golden_profile, criteria)


def test_a_row_whose_grid_is_still_text_is_refused_naming_the_decoder(golden_profile):
    source, receiver = scene_positions(2.0)
    rir = exp_envelope_rir(0.1, seed=3, source_pos=source, receiver_pos=receiver,
                           room_id=GOLDEN_ROOM_ID)
    row = corpus.metrics_row("r", analyze_rir(rir), rir.metadata_distance(), None)
    with pytest.raises(TypeError, match="decode_grid"):
        apply_quality_filter(row, golden_profile)


# ---------------------------------------------------------------- batch runs

def test_golden_batch_yield_and_histogram(golden_profile):
    decisions = list(filter_batch(_golden_rows(), {GOLDEN_ROOM_ID: golden_profile}))
    assert len(decisions) == len(golden_corpus())
    assert sum(decision.accepted for decision in decisions) == 2
    for reason in FilterReason:
        assert sum(reason in decision.reasons for decision in decisions) == 1


def test_batch_empty_input():
    assert list(filter_batch([], {})) == []


def test_batch_missing_profile_names_room():
    row = descriptor_row(_linear_rir(1.6, distance_m=2.0, room_id=GOLDEN_ROOM_ID))
    with pytest.raises(MissingProfileError, match="golden"):
        list(filter_batch([(GOLDEN_ROOM_ID, row)], {}))


def test_batch_is_deterministic(golden_profile):
    rows = _golden_rows()
    profiles = {GOLDEN_ROOM_ID: golden_profile}
    first = [(d.accepted, d.reason_names()) for d in filter_batch(rows, profiles)]
    second = [(d.accepted, d.reason_names()) for d in filter_batch(rows, profiles)]
    assert first == second


def test_batch_partition_is_exhaustive(golden_profile):
    rows = _golden_rows()
    # a one-shot generator is enough: the batch is iterated once
    decisions = list(filter_batch((pair for pair in rows), {GOLDEN_ROOM_ID: golden_profile}))
    assert len(decisions) == len(rows)
    for (_, row), decision in zip(rows, decisions):   # decisions in input order
        assert decision == apply_quality_filter(row, golden_profile)
        assert decision.accepted == (not decision.reasons and decision.error is None)


def test_batch_yields_each_decision_before_reading_the_next_row(golden_profile):
    def rows():
        yield _golden_rows()[0]
        raise RuntimeError("read past the first row")

    decisions = filter_batch(rows(), {GOLDEN_ROOM_ID: golden_profile})
    assert next(decisions).accepted
    with pytest.raises(RuntimeError, match="past the first row"):
        next(decisions)
