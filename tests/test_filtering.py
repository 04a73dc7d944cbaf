import dataclasses

import numpy as np
import pytest

from rirdist.acoustics import EDC_GRID_POINTS, RIRecording, analyze_rir
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

@pytest.mark.parametrize("name", sorted(GOLDEN_EXPECTED))
def test_golden_corpus_single_reason_decisions(name, golden_profile):
    decision = apply_quality_filter(golden_corpus()[name], golden_profile)
    assert decision.reason_names() == GOLDEN_EXPECTED[name]
    assert decision.accepted == (not GOLDEN_EXPECTED[name])
    assert decision.error is None
    assert decision.metrics is not None


def test_enrollment_passes_its_own_profile(golden_profile):
    for rir in golden_enrollment():
        assert apply_quality_filter(rir, golden_profile).accepted


def test_long_t60_trips_band_and_cutoff_together():
    profile = build_reference_profile([_linear_rir(1.0), _linear_rir(1.0)])
    decision = apply_quality_filter(_linear_rir(2.0, distance_m=2.0), profile)
    assert not decision.accepted
    assert {FilterReason.T60_OUT_OF_BAND, FilterReason.T60_ABOVE_CUTOFF} <= decision.reasons


def test_degenerate_signal_yields_error_decision(golden_profile):
    impulse = np.zeros(32000)
    impulse[0] = 1.0
    free_field = RIRecording(samples=impulse, room_id=GOLDEN_ROOM_ID,
                             source_pos=(1.0, 1.0, 1.0), receiver_pos=(3.0, 1.0, 1.0))
    decision = apply_quality_filter(free_field, golden_profile)
    assert not decision.accepted
    assert decision.reasons == frozenset()
    assert "InsufficientDecayError" in decision.error


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e200])
def test_non_finite_signal_yields_error_decision(golden_profile, value):
    rir = golden_corpus()["good_a"]
    samples = rir.samples.copy()
    samples[100] = value
    decision = apply_quality_filter(dataclasses.replace(rir, samples=samples), golden_profile)
    assert not decision.accepted
    assert decision.reasons == frozenset()
    assert decision.metrics is None
    assert decision.error.startswith("NonFiniteSignalError: ")


def test_missing_positions_yield_error_decision(golden_profile):
    rir = prescribed_edc_rir(linear_edc_db(1.6), room_id=GOLDEN_ROOM_ID)
    decision = apply_quality_filter(rir, golden_profile)
    assert not decision.accepted
    assert decision.distance_m is None
    assert "distance" in decision.error


def test_decisions_are_scale_invariant(golden_profile):
    for name, rir in golden_corpus().items():
        scaled = dataclasses.replace(rir, samples=rir.samples * 8.0)
        assert apply_quality_filter(scaled, golden_profile).reason_names() \
            == GOLDEN_EXPECTED[name]


def test_widened_criteria_accept_a_superset(golden_profile):
    defaults, wide = FilterCriteria(), FilterCriteria(
        t60_rel_tolerance=0.40, t60_hard_cutoff_s=5.0,
        min_distance_m=0.1, max_distance_m=10.0,
        edc_max_rms_dev_db=12.0, echo_max_rel_dev=2.0,
    )
    corpus = golden_corpus()
    accepted_default = {name for name, rir in corpus.items()
                        if apply_quality_filter(rir, golden_profile, defaults).accepted}
    accepted_wide = {name for name, rir in corpus.items()
                     if apply_quality_filter(rir, golden_profile, wide).accepted}
    assert accepted_default <= accepted_wide
    # the dense-echo fixture is two orders of magnitude off, so it alone survives widening
    assert accepted_wide == set(corpus) - {"bad_echo"}


def test_vacuous_criteria_accept_everything(golden_profile):
    vacuous = FilterCriteria(
        t60_rel_tolerance=1e9, t60_hard_cutoff_s=1e9,
        min_distance_m=0.0, max_distance_m=100.0,
        edc_max_rms_dev_db=1e9, echo_max_rel_dev=1e9,
    )
    result = filter_batch(golden_corpus().values(),
                          {GOLDEN_ROOM_ID: build_reference_profile(golden_enrollment())},
                          vacuous)
    assert result.yield_fraction == 1.0
    assert all(decision.accepted for decision in result.decisions)


# ---------------------------------------------------------------- batch runs

def test_golden_batch_yield_and_histogram(golden_profile):
    corpus = golden_corpus()
    result = filter_batch(corpus.values(), {GOLDEN_ROOM_ID: golden_profile})
    assert result.yield_fraction == 0.25
    assert len(result.decisions) == len(corpus)
    assert sum(decision.accepted for decision in result.decisions) == 2
    assert set(result.reason_counts) == set(FilterReason)
    assert all(count == 1 for count in result.reason_counts.values())


def test_batch_empty_input():
    result = filter_batch([], {})
    assert result.yield_fraction is None
    assert result.decisions == []


def test_batch_missing_profile_names_room():
    with pytest.raises(MissingProfileError, match="golden"):
        filter_batch([_linear_rir(1.6, distance_m=2.0, room_id=GOLDEN_ROOM_ID)], {})


def test_batch_is_deterministic(golden_profile):
    corpus = list(golden_corpus().values())
    profiles = {GOLDEN_ROOM_ID: golden_profile}
    first = [(d.accepted, d.reason_names()) for d in filter_batch(corpus, profiles).decisions]
    second = [(d.accepted, d.reason_names()) for d in filter_batch(corpus, profiles).decisions]
    assert first == second


def test_batch_partition_is_exhaustive(golden_profile):
    corpus = list(golden_corpus().values())
    # a one-shot generator is enough: the batch is iterated once
    result = filter_batch((rir for rir in corpus), {GOLDEN_ROOM_ID: golden_profile})
    assert len(result.decisions) == len(corpus)
    for rir, decision in zip(corpus, result.decisions):   # decisions in input order
        assert decision.distance_m == rir.metadata_distance()
        assert decision.accepted == (not decision.reasons and decision.error is None)
