import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import rirdist
from rirdist import acoustics
from rirdist.acoustics import (
    DB_FLOOR,
    DIRECT_PEAK_FRACTION,
    DRR_CEILING_DB,
    DRR_CEILING_FLAG,
    DRR_WINDOW_POST_S,
    DRR_WINDOW_PRE_S,
    EARLY_LATE_SPLIT_S,
    ECHO_N_WINDOWS,
    ECHO_PEAK_FRACTION,
    ECHO_TRUNCATED_FLAG,
    ECHO_WINDOW_S,
    EDC_GRID_POINTS,
    EDC_GRID_STEP_S,
    T60_FALLBACK_FLAG,
    EchoDensityProfile,
    EnergyDecayCurve,
    InsufficientDecayError,
    NonFiniteSignalError,
    RIRecording,
    T60Estimate,
    ZeroEnergyError,
    analyze_rir,
    compute_drr,
    detect_direct_path,
    early_reflection_profile,
    estimate_t60,
    geometric_distance,
    schroeder_edc,
)
from rirdist.acoustics import _MIN_FIT_POINTS, _T10_SPAN_DB, _T20_SPAN_DB
from rirdist.synth import normalize_rir

from helpers import (
    SAMPLE_RATE,
    exp_envelope_rir,
    linear_edc_db,
    prescribed_edc_rir,
    theoretical_t60,
)


def _impulse(index, n=SAMPLE_RATE, amplitude=1.0):
    samples = np.zeros(n)
    samples[index] = amplitude
    return RIRecording(samples=samples)


# ---------------------------------------------------------------- RIRecording

def test_recording_rejects_empty_and_multidim():
    with pytest.raises(ValueError):
        RIRecording(samples=np.zeros((2, 3)))
    with pytest.raises(ValueError):
        RIRecording(samples=np.array([]))


def test_recording_validates_gain_rate_and_positions():
    with pytest.raises(ValueError):
        RIRecording(samples=np.ones(4), norm_gain=0.0)
    with pytest.raises(ValueError):
        RIRecording(samples=np.ones(4), sample_rate=0)
    with pytest.raises(ValueError):
        RIRecording(samples=np.ones(4), source_pos=(1.0, 2.0))


def test_recording_metadata_distance():
    rir = RIRecording(samples=np.ones(4), source_pos=(1, 2, 3), receiver_pos=(4, 2, 3))
    assert rir.metadata_distance() == pytest.approx(3.0)
    assert RIRecording(samples=np.ones(4)).metadata_distance() is None


# ------------------------------------------------------------- schroeder_edc

def test_edc_unit_impulse_at_zero():
    edc = schroeder_edc(_impulse(0, n=16))
    assert edc.total_energy == pytest.approx(1.0)
    assert edc.values_db[0] == 0.0
    assert np.all(edc.values_db[1:] == DB_FLOOR)


def test_edc_starts_at_exactly_zero_db():
    rir = exp_envelope_rir(0.1, seed=4)
    assert schroeder_edc(rir).values_db[0] == 0.0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_edc_monotone_nonincreasing(seed):
    rir = exp_envelope_rir(0.08, seed=seed)
    values = schroeder_edc(rir).values_db
    assert np.all(np.diff(values) <= 1e-12)
    assert np.all(values >= DB_FLOOR)


def test_edc_scale_invariant_values_scaled_energy():
    rir = exp_envelope_rir(0.1, seed=9)
    scaled = RIRecording(samples=3.0 * rir.samples)
    a, b = schroeder_edc(rir), schroeder_edc(scaled)
    np.testing.assert_allclose(b.values_db, a.values_db, atol=1e-9)
    assert b.total_energy == pytest.approx(9.0 * a.total_energy)


def test_edc_zero_energy_raises():
    with pytest.raises(ZeroEnergyError):
        schroeder_edc(RIRecording(samples=np.zeros(64)))


_NON_FINITE_CASES = {
    "nan": (100, np.nan),
    "+inf": (100, np.inf),
    "-inf": (100, -np.inf),
    "square overflows": (100, 1e200),
    "sum overflows": (slice(0, 64), 1e154),    # each square is finite, their sum is not
}


@pytest.mark.parametrize("case", sorted(_NON_FINITE_CASES))
def test_non_finite_signal_raises_typed_error(case):
    samples = exp_envelope_rir(0.1, seed=6).samples.copy()
    index, value = _NON_FINITE_CASES[case]
    samples[index] = value
    rir = RIRecording(samples=samples)
    with pytest.raises(NonFiniteSignalError, match="not a finite number"):
        schroeder_edc(rir)
    with pytest.raises(NonFiniteSignalError):
        analyze_rir(rir)


def test_edc_matches_prescribed_curve_exactly():
    target = linear_edc_db(0.5, duration_s=0.25)
    rir = prescribed_edc_rir(target)
    np.testing.assert_allclose(schroeder_edc(rir).values_db, target, atol=1e-8)


def test_edc_slope_of_exponential_envelope():
    """Envelope exp(-t/tau) decays the curve at -20*log10(e)/tau dB/s."""
    tau = 0.1
    rir = exp_envelope_rir(tau, seed=3)
    values = schroeder_edc(rir).values_db
    half = SAMPLE_RATE // 2
    t = np.arange(half) / SAMPLE_RATE
    slope, _ = np.polyfit(t, values[:half], 1)
    expected = -20.0 * np.log10(np.e) / tau
    assert slope == pytest.approx(expected, rel=0.02)


# -------------------------------------------------------------- estimate_t60

@pytest.mark.parametrize("t60", [0.3, 0.5, 1.0])
def test_t60_exact_on_linear_decay(t60):
    rir = prescribed_edc_rir(linear_edc_db(t60))
    est = estimate_t60(schroeder_edc(rir), SAMPLE_RATE)
    assert est.t60_s == pytest.approx(t60, rel=1e-6)
    assert not est.fallback


def test_t60_fallback_on_short_dynamic_range():
    # -60/2.6 dB/s over 1 s leaves only ~23 dB of range: the fallback
    # segment still fits the exact slope but must be flagged.
    rir = prescribed_edc_rir(linear_edc_db(2.6))
    est = estimate_t60(schroeder_edc(rir), SAMPLE_RATE)
    assert est.fallback
    assert est.t60_s == pytest.approx(2.6, rel=1e-6)


def test_t60_insufficient_decay_raises():
    rir = prescribed_edc_rir(linear_edc_db(5.0))   # only 12 dB over 1 s
    with pytest.raises(InsufficientDecayError):
        estimate_t60(schroeder_edc(rir), SAMPLE_RATE)


def test_t60_too_few_fit_points_raises():
    # 30 dB of range in 6 dB stair steps: only 4 samples land in the fit
    # segment, under the 8-point floor.
    steps = np.repeat([0.0, -6.0, -12.0, -18.0, -24.0], 1)
    curve = np.concatenate([steps, np.full(100, -30.0)])
    rir = prescribed_edc_rir(curve)
    with pytest.raises(InsufficientDecayError):
        estimate_t60(schroeder_edc(rir), SAMPLE_RATE)


def test_t60_scale_invariant():
    rir = exp_envelope_rir(0.1, seed=12)
    a = estimate_t60(schroeder_edc(rir), SAMPLE_RATE).t60_s
    b = estimate_t60(schroeder_edc(RIRecording(samples=7.5 * rir.samples)), SAMPLE_RATE).t60_s
    assert b == pytest.approx(a, rel=1e-12)


def test_t60_rejects_bad_sample_rate():
    rir = prescribed_edc_rir(linear_edc_db(0.5))
    with pytest.raises(ValueError):
        estimate_t60(schroeder_edc(rir), 0)


@pytest.mark.parametrize("tau", [0.05, 0.1, 0.2, 0.3])
@pytest.mark.parametrize("seed", [0, 1])
def test_t60_noise_oracle(tau, seed):
    """Estimates on enveloped noise track the closed-form 60*tau/(20*log10 e).

    Durations stretch with tau so the backward integral is not biased by
    truncating the tail before it falls 40+ dB.
    """
    rir = exp_envelope_rir(tau, duration_s=max(1.0, 8.0 * tau), seed=seed)
    est = estimate_t60(schroeder_edc(rir), SAMPLE_RATE)
    assert est.t60_s == pytest.approx(theoretical_t60(tau), rel=0.05)


def test_t60_above_cutoff_scale_exists():
    """A tau = 0.3 s envelope lands beyond the 1.8695 s screening cutoff."""
    assert theoretical_t60(0.3) == pytest.approx(2.0724, abs=2e-4)
    assert theoretical_t60(0.3) > 1.8695


# -------------------------------------------------------- detect_direct_path

def test_direct_path_half_peak_rule():
    rir = RIRecording(samples=np.array([0.1, 0.2, 1.0, 0.3]))
    assert detect_direct_path(rir) == 2


def test_direct_path_first_reaching_half():
    rir = RIRecording(samples=np.array([0.0, 0.6, 1.0, 0.2]))
    assert detect_direct_path(rir) == 1


def test_direct_path_impulse_positions():
    assert detect_direct_path(_impulse(0)) == 0
    assert detect_direct_path(_impulse(1000)) == 1000


def test_direct_path_zero_energy_raises():
    with pytest.raises(ZeroEnergyError):
        detect_direct_path(RIRecording(samples=np.zeros(8)))


def test_geometric_distance_values():
    assert geometric_distance(0, SAMPLE_RATE) == 0.0
    d = geometric_distance(1000, SAMPLE_RATE)
    assert d == pytest.approx(10.71875)
    assert d == pytest.approx(10.72, abs=5e-3)


def test_shift_equivariance():
    """Prepending silence moves the direct index without disturbing T60."""
    base = exp_envelope_rir(0.05, seed=5).samples.copy()
    base[0] = 8.0
    reference = analyze_rir(RIRecording(samples=base))
    for shift in (7, 250):
        shifted = np.concatenate([np.zeros(shift), base[:-shift]])
        metrics = analyze_rir(RIRecording(samples=shifted))
        assert metrics.direct_index == reference.direct_index + shift
        assert metrics.t60_s == pytest.approx(reference.t60_s, rel=0.05)


# ---------------------------------------------------------------- compute_drr

def _drr(rir, direct_index):
    return compute_drr(schroeder_edc(rir), direct_index, rir.sample_rate)


def test_drr_four_to_one_ratio():
    samples = np.zeros(SAMPLE_RATE)
    samples[100] = 1.0
    samples[300] = 0.5          # energy 0.25, outside the direct window
    est = _drr(RIRecording(samples=samples), 100)
    assert est.drr_db == pytest.approx(10.0 * np.log10(4.0), abs=1e-9)
    assert not est.at_ceiling


def test_drr_equal_energies_zero_db():
    samples = np.zeros(SAMPLE_RATE)
    samples[50] = 1.0
    samples[200] = 1.0
    est = _drr(RIRecording(samples=samples), 50)
    assert est.drr_db == pytest.approx(0.0, abs=1e-9)


def test_drr_ceiling_when_no_reverberant_energy():
    est = _drr(_impulse(100), 100)
    assert est.drr_db == DRR_CEILING_DB
    assert est.at_ceiling


def test_drr_window_is_closed_interval():
    # 2.5 ms after index 100 is sample 180 inclusive; 0.5 ms before is 84.
    for inside in (180, 84):
        samples = np.zeros(SAMPLE_RATE)
        samples[100] = 1.0
        samples[inside] = 0.5
        assert _drr(RIRecording(samples=samples), 100).at_ceiling
    for outside in (181, 83):
        samples = np.zeros(SAMPLE_RATE)
        samples[100] = 1.0
        samples[outside] = 0.5
        est = _drr(RIRecording(samples=samples), 100)
        assert est.drr_db == pytest.approx(10.0 * np.log10(4.0), abs=1e-9)


def test_drr_scale_invariant():
    rir = exp_envelope_rir(0.05, seed=8)
    idx = detect_direct_path(rir)
    a = _drr(rir, idx).drr_db
    b = _drr(RIRecording(samples=0.2 * rir.samples), idx).drr_db
    assert b == pytest.approx(a, rel=1e-12)


def test_drr_invalid_index_raises():
    with pytest.raises(ValueError):
        _drr(_impulse(0, n=64), 64)


# --------------------------------------------------- early_reflection_profile

def test_echo_profile_free_field():
    profile = early_reflection_profile(_impulse(100), 100)
    assert profile.counts == (1, 0, 0, 0, 0, 0, 0, 0, 0, 0)
    assert not profile.truncated


def test_echo_profile_reflection_at_12ms():
    samples = np.zeros(SAMPLE_RATE)
    samples[100] = 1.0
    samples[100 + round(0.012 * SAMPLE_RATE)] = 0.4
    profile = early_reflection_profile(RIRecording(samples=samples), 100)
    assert profile.counts[0] == 1
    assert profile.counts[2] == 1
    assert sum(profile.counts) == 2


def test_echo_profile_threshold_excludes_small_peaks():
    samples = np.zeros(SAMPLE_RATE)
    samples[100] = 1.0
    samples[400] = 0.1          # not strictly above 10% of the direct peak
    samples[800] = 0.101
    profile = early_reflection_profile(RIRecording(samples=samples), 100)
    assert sum(profile.counts) == 2        # direct + the 0.101 peak only


def test_echo_profile_plateau_counted_once():
    samples = np.zeros(SAMPLE_RATE)
    samples[100] = 1.0
    samples[300] = 0.3
    samples[301] = 0.3          # tie: only the left edge of the plateau counts
    profile = early_reflection_profile(RIRecording(samples=samples), 100)
    assert sum(profile.counts) == 2


def test_echo_profile_dense_tail_all_windows_positive():
    rir = exp_envelope_rir(0.2, seed=2)
    samples = rir.samples.copy()
    samples[0] = 6.0
    profile = early_reflection_profile(RIRecording(samples=samples), 0)
    assert all(count > 0 for count in profile.counts)


def test_echo_profile_truncated_flag():
    n = SAMPLE_RATE
    direct = n - 800            # only 25 ms of signal left after the direct
    profile = early_reflection_profile(_impulse(direct), direct)
    assert profile.truncated
    assert len(profile.counts) == 10


def test_echo_profile_invalid_index_raises():
    with pytest.raises(ValueError):
        early_reflection_profile(_impulse(0, n=32), -1)


# ---------------------------------------------------------------- analyze_rir

def test_analyze_consistent_fields():
    rir = exp_envelope_rir(0.1, seed=21)
    samples = rir.samples.copy()
    samples[0] = 9.0
    metrics = analyze_rir(RIRecording(samples=samples))
    assert metrics.direct_index == 0
    assert metrics.geometric_distance_m == geometric_distance(0, SAMPLE_RATE)
    assert metrics.t60_s > 0
    assert len(metrics.echo_density) == 10
    assert metrics.flags == frozenset()


def test_analyze_sets_fallback_flag():
    metrics = analyze_rir(prescribed_edc_rir(linear_edc_db(2.6)))
    assert T60_FALLBACK_FLAG in metrics.flags


def test_analyze_truncated_and_ceiling_flags():
    samples = np.zeros(SAMPLE_RATE)
    direct = SAMPLE_RATE - 900
    samples[direct] = 1.0
    samples[direct + 1:direct + 60] = np.sqrt(
        np.diff(np.power(10.0, linear_edc_db(0.0025, duration_s=60 / SAMPLE_RATE) / 10.0)) * -1.0)
    metrics = analyze_rir(RIRecording(samples=samples))
    assert DRR_CEILING_FLAG in metrics.flags
    assert ECHO_TRUNCATED_FLAG in metrics.flags


def test_analyze_total_energy_tracks_norm_gain():
    """Physical energy is invariant under normalization with honest gain."""
    rir = exp_envelope_rir(0.1, seed=30)
    raw = analyze_rir(rir)
    scaled = RIRecording(samples=rir.samples / 4.0, norm_gain=4.0)
    assert analyze_rir(scaled).total_energy_db == pytest.approx(raw.total_energy_db, abs=1e-9)
    louder = RIRecording(samples=rir.samples * 2.0)
    assert analyze_rir(louder).total_energy_db == pytest.approx(
        raw.total_energy_db + 20.0 * np.log10(2.0), abs=1e-9)


# ------------------------------------------------------- property invariants

_PROPERTY = settings(max_examples=50, deadline=None)
_TAUS = st.floats(0.03, 0.2)                 # T60 of about 0.2 to 1.4 s
_SEEDS = st.integers(0, 2**32 - 1)
_GAINS = st.floats(1e-3, 1e3)


@_PROPERTY
@given(samples=hnp.arrays(np.float64, st.integers(1, 256),
                          elements=st.floats(-1e3, 1e3, allow_subnormal=False)))
def test_edc_invariants_on_arbitrary_signals(samples):
    assume(float(samples @ samples) > 0.0)
    values = schroeder_edc(RIRecording(samples=samples)).values_db
    assert values[0] == 0.0
    assert np.all(np.diff(values) <= 0.0)
    assert np.all(values >= DB_FLOOR)


@_PROPERTY
@given(tau=_TAUS, seed=_SEEDS, gain=_GAINS)
def test_descriptors_invariant_under_positive_scaling(tau, seed, gain):
    rir = exp_envelope_rir(tau, seed=seed)
    a = analyze_rir(rir)
    b = analyze_rir(RIRecording(samples=gain * rir.samples))
    assert b.t60_s == pytest.approx(a.t60_s, rel=1e-9)
    assert b.drr_db == pytest.approx(a.drr_db, abs=1e-9)
    assert b.direct_index == a.direct_index
    assert b.direct_delay_ms == a.direct_delay_ms
    assert b.early_late_ratio_db == pytest.approx(a.early_late_ratio_db, abs=1e-9)
    assert b.echo_density == a.echo_density


@_PROPERTY
@given(tau=_TAUS, seed=_SEEDS, gain=_GAINS)
def test_total_energy_invariant_under_normalization(tau, seed, gain):
    rir = RIRecording(samples=gain * exp_envelope_rir(tau, seed=seed).samples)
    normed = normalize_rir(RIRecording(samples=rir.samples.copy()))
    assert analyze_rir(normed).total_energy_db == pytest.approx(
        analyze_rir(rir).total_energy_db, abs=1e-9)


def _reference_energy_ratios(samples, direct_index, sample_rate):
    """(DRR, early/late ratio) in dB from plain sums of squares over each window."""
    power = samples ** 2
    total = float(np.sum(power))
    lo = max(0, direct_index - round(DRR_WINDOW_PRE_S * sample_rate))
    direct = float(np.sum(power[lo:direct_index + round(DRR_WINDOW_POST_S * sample_rate) + 1]))
    floor = total * 10.0 ** (DB_FLOOR / 10.0)
    drr = 10.0 * np.log10(max(direct, floor) / (total - direct))
    split = direct_index + round(EARLY_LATE_SPLIT_S * sample_rate)
    early, late = float(np.sum(power[direct_index:split])), float(np.sum(power[split:]))
    floor = total * 1e-12
    return drr, 10.0 * np.log10(max(early, floor) / max(late, floor))


@_PROPERTY
@given(tau=_TAUS, seed=_SEEDS, gain=_GAINS, data=st.data())
def test_energy_ratios_match_window_sums_of_squares(tau, seed, gain, data):
    """The DRR and the early/late ratio, read off the decay curve, match the
    ratios of the windows' sums of squares; the DRR also at indices whose
    window is clamped at either end of the signal."""
    rir = RIRecording(samples=gain * exp_envelope_rir(tau, seed=seed).samples)
    metrics = analyze_rir(rir)
    drr, early_late = _reference_energy_ratios(rir.samples, metrics.direct_index, SAMPLE_RATE)
    assert metrics.drr_db == pytest.approx(drr, rel=1e-12)
    assert metrics.early_late_ratio_db == pytest.approx(early_late, rel=1e-12)
    edc, n = schroeder_edc(rir), rir.samples.size
    for index in (0, 3, n - 1, data.draw(st.integers(0, n - 1))):
        drr, _ = _reference_energy_ratios(rir.samples, index, SAMPLE_RATE)
        assert compute_drr(edc, index, SAMPLE_RATE).drr_db == pytest.approx(drr, rel=1e-12)


def _polyfit_t60(values, sample_rate, span):
    """Reference T60: np.polyfit over the same segment estimate_t60 selects."""
    segment = np.nonzero((values <= span[0]) & (values >= span[1]))[0]
    slope, _ = np.polyfit(segment / float(sample_rate), values[segment], 1)
    return -60.0 / slope, segment.size


@pytest.mark.parametrize("range_lo_db, range_hi_db, span, fallback", [
    (31.0, 110.0, (-5.0, -25.0), False),   # T20 path
    (16.0, 29.0, (-5.0, -15.0), True),     # T10 fallback path
])
@_PROPERTY
@given(steps=hnp.arrays(np.float64, st.integers(512, 4000), elements=st.floats(0.1, 1.0)),
       depth=st.floats(0.0, 1.0), sample_rate=st.sampled_from([8000, 16000, 32000, 48000]))
def test_t60_closed_form_matches_polyfit(range_lo_db, range_hi_db, span, fallback,
                                         steps, depth, sample_rate):
    # An irregular, strictly decaying curve from 0 dB down to -range_db.
    range_db = range_lo_db + depth * (range_hi_db - range_lo_db)
    target_db = -range_db * np.concatenate([[0.0], np.cumsum(steps)]) / steps.sum()
    edc = EnergyDecayCurve(energy=10.0 ** (target_db / 10.0), total_energy=1.0)
    reference, n_points = _polyfit_t60(edc.values_db, sample_rate, span)
    assume(n_points >= 8)
    est = estimate_t60(edc, sample_rate)
    assert est.fallback == fallback
    assert est.t60_s == pytest.approx(reference, rel=1e-12)


# ------------------------------------------ in-place kernels vs the plain forms
#
# Test-only copies of the plain-expression bodies of the descriptor kernels.
# The library evaluates the same expressions on fewer, reused arrays, so
# every result must match these byte for byte, or fail with the same error.

def _reference_edc(rir):
    """(whole curve in dB, total energy), as an EnergyDecayCurve's values_db and total_energy."""
    power = rir.samples.astype(np.float64) ** 2
    tail_energy = np.cumsum(power[::-1])[::-1]
    total = float(tail_energy[0])
    if total <= 0.0:
        raise ZeroEnergyError("cannot integrate an all-zero impulse response")
    ratio = np.maximum(tail_energy / total, 10.0 ** (DB_FLOOR / 10.0))
    return 10.0 * np.log10(ratio), total


def _reference_t60(edc, sample_rate):
    if sample_rate <= 0:
        raise ValueError(f"sample_rate must be positive, got {sample_rate}")
    values = edc.values_db
    usable = np.nonzero(values > DB_FLOOR + 1e-9)[0]
    dynamic_range_db = -float(values[usable[-1]]) if usable.size else 0.0
    if dynamic_range_db < 15.0:
        raise InsufficientDecayError(
            f"only {dynamic_range_db:.1f} dB of usable decay, need at least 15 dB"
        )
    fallback = dynamic_range_db < 30.0
    span = _T10_SPAN_DB if fallback else _T20_SPAN_DB
    segment = np.nonzero((values <= span[0]) & (values >= span[1]))[0]
    if segment.size < _MIN_FIT_POINTS:
        raise InsufficientDecayError(
            f"decay segment {span} dB holds {segment.size} samples, "
            f"need {_MIN_FIT_POINTS} for a fit"
        )
    times = segment / float(sample_rate)
    centered = times - times.mean()
    levels = values[segment]
    slope = (float(np.einsum("i,i", centered, levels - levels.mean()))
             / float(np.einsum("i,i", centered, centered)))
    if slope >= 0.0:
        raise InsufficientDecayError("decay segment is not decaying")
    return T60Estimate(t60_s=float(-60.0 / slope), fallback=fallback)


def _reference_direct_path(rir):
    magnitudes = np.abs(rir.samples)
    peak = float(magnitudes.max())
    if peak <= 0.0:
        raise ZeroEnergyError("all-zero impulse response has no direct path")
    return int(np.argmax(magnitudes >= DIRECT_PEAK_FRACTION * peak))


def _reference_echo_profile(rir, direct_index):
    magnitudes = np.abs(rir.samples)
    n = magnitudes.size
    if not 0 <= direct_index < n:
        raise ValueError(f"direct_index {direct_index} outside [0, {n})")
    threshold = ECHO_PEAK_FRACTION * float(magnitudes[direct_index])
    window_len = round(ECHO_WINDOW_S * rir.sample_rate)
    span = ECHO_N_WINDOWS * window_len
    end = direct_index + span
    truncated = end > n
    end = min(end, n)

    segment = magnitudes[direct_index:end]
    left = np.empty_like(segment)
    left[0] = magnitudes[direct_index - 1] if direct_index > 0 else 0.0
    left[1:] = segment[:-1]
    right = np.empty_like(segment)
    right[-1] = magnitudes[end] if end < n else 0.0
    right[:-1] = segment[1:]
    is_echo = (segment > left) & (segment >= right) & (segment > threshold)

    counts = []
    for w in range(ECHO_N_WINDOWS):
        counts.append(int(np.count_nonzero(is_echo[w * window_len:(w + 1) * window_len])))
    return EchoDensityProfile(counts=tuple(counts), truncated=truncated)


def _reference_edc_on_grid(values_db, sample_rate):
    grid_t = np.arange(EDC_GRID_POINTS) * EDC_GRID_STEP_S
    t = np.arange(values_db.size) / float(sample_rate)
    return np.interp(grid_t, t, values_db)


def _outcome(fn, *args):
    """Comparable result of a call: exact bytes of every value, or the error."""
    try:
        result = fn(*args)
    except (ValueError, IndexError) as exc:
        return type(exc), str(exc)
    if isinstance(result, EnergyDecayCurve):
        result = result.values_db, result.total_energy
    if isinstance(result, tuple):   # a decay curve: its levels in dB and its total energy
        values_db, total_energy = result
        return values_db.tobytes(), total_energy.hex()
    if isinstance(result, np.ndarray):
        return result.tobytes()
    if isinstance(result, T60Estimate):
        return result.t60_s.hex(), result.fallback
    return result


def _assert_kernels_match_reference(rir, direct_indices=()):
    """Every kernel on ``rir``, chained as analyze and filter chain them."""
    edc = _outcome(schroeder_edc, rir)
    assert edc == _outcome(_reference_edc, rir)
    if isinstance(edc[0], bytes):
        curve = schroeder_edc(rir)
        reference_db, _ = _reference_edc(rir)
        n = reference_db.size
        # levels in dB computed for part of the curve are those of the whole curve
        for index in (slice(n // 3, n // 2), slice(n - 1, n), slice(0, 0),
                      np.unique(np.array([0, n // 5, n - 1]))):
            assert curve.db(index).tobytes() == reference_db[index].tobytes()
        assert _outcome(estimate_t60, curve, rir.sample_rate) \
            == _outcome(_reference_t60, curve, rir.sample_rate)
        assert _outcome(acoustics._edc_on_grid, curve, rir.sample_rate) \
            == _outcome(_reference_edc_on_grid, reference_db, rir.sample_rate)
    direct = _outcome(detect_direct_path, rir)
    assert direct == _outcome(_reference_direct_path, rir)
    indices = set(direct_indices) | {0, rir.samples.size - 1}
    if isinstance(direct, int):
        indices.add(direct)
    for index in sorted(indices):
        assert _outcome(early_reflection_profile, rir, index) \
            == _outcome(_reference_echo_profile, rir, index)


_RATES = st.sampled_from([8000, 16000, 32000, 48000])
_REFERENCE = settings(max_examples=150, deadline=None)


@_REFERENCE
@given(samples=hnp.arrays(np.float64, st.integers(1, 3000),
                          elements=st.floats(-1e150, 1e150)),
       sample_rate=_RATES, data=st.data())
def test_kernels_match_reference_on_arbitrary_signals(samples, sample_rate, data):
    index = data.draw(st.integers(0, samples.size - 1))
    _assert_kernels_match_reference(
        RIRecording(samples=samples, sample_rate=sample_rate), [index])


@_REFERENCE
@given(tau=st.floats(0.005, 0.3), seed=_SEEDS, gain=_GAINS,
       n=st.integers(64, 40000), sample_rate=_RATES)
def test_kernels_match_reference_on_decaying_signals(tau, seed, gain, n, sample_rate):
    samples = exp_envelope_rir(tau, duration_s=1.25, seed=seed).samples[:n] * gain
    _assert_kernels_match_reference(RIRecording(samples=samples, sample_rate=sample_rate))


@_REFERENCE
@given(samples=hnp.arrays(np.float64, st.integers(2, 2000), elements=st.floats(-1.0, 1.0)),
       peak=st.floats(1.0, 1e3), data=st.data(), sample_rate=_RATES,
       polarity=st.sampled_from(["negative", "tie", "tie, negative first"]))
def test_kernels_match_reference_on_negative_and_tied_peaks(samples, peak, data,
                                                            sample_rate, polarity):
    first = data.draw(st.integers(0, samples.size - 1))
    second = data.draw(st.integers(0, samples.size - 1).filter(lambda i: i != first))
    samples = samples.copy()
    if polarity == "negative":
        samples[first] = -peak
    else:
        samples[first], samples[second] = peak, -peak
        if polarity == "tie, negative first":
            samples[[first, second]] = samples[[second, first]]
    assert max(samples.max(), -samples.min()) == peak
    _assert_kernels_match_reference(
        RIRecording(samples=samples, sample_rate=sample_rate), [first, second])


def test_time_axis_cache_follows_length_and_rate():
    """Interleaved lengths and rates never reuse another curve's grid support."""
    for n, rate in [(32000, 32000), (500, 32000), (32000, 16000), (32000, 32000)]:
        rir = RIRecording(samples=exp_envelope_rir(0.05, seed=n).samples[:n], sample_rate=rate)
        edc = schroeder_edc(rir)
        assert acoustics._edc_on_grid(edc, rate).tobytes() \
            == _reference_edc_on_grid(edc.values_db, rate).tobytes()


def test_edc_grid_copies_no_full_length_array():
    edc = schroeder_edc(exp_envelope_rir(0.1, seed=3))
    acoustics._edc_on_grid(edc, SAMPLE_RATE)          # builds the cached grid support
    tracemalloc.start()
    try:
        acoustics._edc_on_grid(edc, SAMPLE_RATE)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < edc.energy.nbytes / 4


def test_t60_reads_no_whole_curve_in_db():
    """estimate_t60 takes to dB the fit segment and the samples near its bounds only.

    A T60 of about 0.14 s puts 1,500 of the 32,000 samples in the segment."""
    edc = schroeder_edc(exp_envelope_rir(0.02, seed=5))
    estimate_t60(edc, SAMPLE_RATE)
    tracemalloc.start()
    try:
        estimate_t60(edc, SAMPLE_RATE)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < edc.energy.nbytes / 4


# Signals whose energy stays within a hair of a level estimate_t60 searches
# for, over a long run of samples: the energy bracket around that level then
# spans the run, and every level in it must still be decided as in dB.
_SEARCHED_DB = [DB_FLOOR + 1e-9, DB_FLOOR, _T20_SPAN_DB[0], _T10_SPAN_DB[1], _T20_SPAN_DB[1],
                -30.0, -15.0 + 1e-9]


@_REFERENCE
@given(n=st.integers(64, 20000), sample_rate=_RATES, data=st.data(),
       level_db=st.sampled_from(_SEARCHED_DB),
       offset=st.sampled_from([0.0, 1e-15, -1e-15, 1e-9, -1e-9, 9e-7, -9e-7, 3e-6]),
       noise=st.sampled_from([0.0, 1e-12, 1e-7]), scale=st.sampled_from([1.0, 1e-152, 1e-158]))
def test_kernels_match_reference_on_a_spike_then_a_level(n, sample_rate, data, level_db,
                                                         offset, noise, scale):
    """A spike, zeros, and a second spike that leaves the energy between them at
    ``level_db`` relative to the total, give or take ``offset`` (relative).
    The smaller scales put the energies, and so the level thresholds, among
    the subnormal numbers."""
    first = data.draw(st.integers(0, n // 4))
    second = data.draw(st.integers(first + 1, n - 1))
    ratio = 10.0 ** (level_db / 10.0) * (1.0 + offset)
    samples = np.zeros(n)
    samples[first] = 1.0
    samples[second] = np.sqrt(ratio / (1.0 - ratio))
    samples[second + 1:] = noise * np.random.default_rng(n).standard_normal(n - second - 1)
    samples *= scale
    assume(float(samples @ samples) > 0.0)
    _assert_kernels_match_reference(RIRecording(samples=samples, sample_rate=sample_rate))


@_REFERENCE
@given(tau=st.floats(0.002, 0.06), seed=_SEEDS, n=st.integers(2000, 40000),
       sample_rate=_RATES, gain=st.floats(1e-30, 1e30))
def test_kernels_match_reference_on_float32_tails_at_the_floor(tau, seed, n, sample_rate,
                                                               gain):
    """float32 storage quantizes the tail, which decays through -120 dB: the
    floor bracket holds runs of equal energies and exact zeros."""
    samples = (exp_envelope_rir(tau, duration_s=1.25, seed=seed).samples[:n] * gain)
    samples = samples.astype(np.float32).astype(np.float64)
    assume(float(samples @ samples) > 0.0)
    reference_db, _ = _reference_edc(RIRecording(samples=samples))
    assume(reference_db[-1] == DB_FLOOR)
    _assert_kernels_match_reference(RIRecording(samples=samples, sample_rate=sample_rate))


def test_edc_leaves_its_input_untouched():
    rir = exp_envelope_rir(0.1, seed=13)
    before = rir.samples.copy()
    analyze_rir(rir)
    assert rir.samples.tobytes() == before.tobytes()


# ------------------------------------------------------------- page faults

_FAULT_PROBE = """
import resource, sys
import numpy as np
from rirdist import synth
from rirdist.acoustics import RIRecording, analyze_rir
t = np.arange(32000) / 32000
rirs = [RIRecording(samples=np.random.default_rng(seed).standard_normal(t.size) * np.exp(-t / 0.1))
        for seed in range(4)]
room = synth.builtin_room(1)
scenes = synth.sample_scenes(room, 4, seed=0)
if sys.argv[1] == "generate":
    def kernel(i):
        return synth.normalize_rir(synth.synthesize_rir(room, scenes[i % 4]))
else:
    def kernel(i):
        return analyze_rir(rirs[i % 4])
kernel(0)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for i in range(200):
    kernel(i)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 200)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="minor-fault counts are only meaningful on Linux")
@pytest.mark.parametrize("kernel", ["analyze_rir", "generate"])
def test_descriptor_pass_does_not_fault_per_rir(kernel):
    """Per-RIR temporaries are reused, not mapped afresh for every RIR.

    Each full-length float64 temporary is 256 KB. With one array per step
    of the decay curve, the allocator hands them back to the kernel on
    free and faults them in again for the next RIR: about 155 minor faults
    per RIR with one array per step (x86-64 Linux, glibc's default malloc
    thresholds), against none once the curve is built in place. The
    synthesis kernel, with its tail built from two full-length products,
    made about 80 per RIR before the tail was written in place, and about
    100 while it drew a fresh noise array per RIR after these descriptor
    test signals had been allocated. Normalizing into a second array, as
    ``normalize_rir`` did before it divided in place, made about 93 per
    RIR in some heap layouts (about 1 in 12 of 300 environments tried): the
    raw and the normalized array, freed together at the top of the heap,
    outgrow glibc's trim threshold of twice the largest freed mapping
    (2 x 252 KB here). The probe runs in a fresh
    interpreter, as a CLI stage does, because the test process's
    allocator state (its thresholds rise with the large blocks earlier
    tests freed) hides the faults. The size of the environment moves the
    heap layout too, so the probe runs with 0 to 3 padding variables:
    layout luck shows as a failure, not as a pass.
    """
    src = str(Path(rirdist.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for pad in range(4):
        padding = {f"RIRDIST_FAULT_PROBE_PAD_{i}": "x" for i in range(pad)}
        probe = subprocess.run([sys.executable, "-c", _FAULT_PROBE, kernel],
                               env={**env, **padding}, capture_output=True, text=True,
                               timeout=120, check=True)
        assert float(probe.stdout) < 40, f"{pad} padding variables"
