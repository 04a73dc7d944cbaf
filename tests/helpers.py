"""Deterministic signal builders shared across the test suite."""

import subprocess
import sys

import numpy as np

from rirdist.acoustics import DESCRIPTOR_ERRORS, RIRecording, analyze_rir

SAMPLE_RATE = 32000


def theoretical_t60(tau_s: float) -> float:
    """T60 of a signal whose amplitude envelope is exp(-t/tau)."""
    return 60.0 * tau_s / (20.0 * np.log10(np.e))


def exp_envelope_rir(tau_s, duration_s=1.0, sample_rate=SAMPLE_RATE, seed=0, **kwargs):
    """White noise under an exponential amplitude envelope."""
    n = round(duration_s * sample_rate)
    t = np.arange(n) / sample_rate
    samples = np.random.default_rng(seed).standard_normal(n) * np.exp(-t / tau_s)
    return RIRecording(samples=samples, sample_rate=sample_rate, **kwargs)


def rir_from_powers(powers, sample_rate=SAMPLE_RATE, **kwargs):
    """Signal with the given per-sample energies and alternating signs."""
    powers = np.asarray(powers, dtype=np.float64)
    signs = np.where(np.arange(powers.size) % 2 == 0, 1.0, -1.0)
    return RIRecording(samples=np.sqrt(powers) * signs,
                       sample_rate=sample_rate, **kwargs)


def edc_to_powers(edc_db):
    """Per-sample energies whose Schroeder curve is exactly ``edc_db``.

    Works because the remaining-energy fractions R_k = 10^(E_k/10) of a
    non-increasing curve are non-increasing, so the differences
    R_k - R_{k+1} are valid per-sample powers (with R_n = 0 past the end).
    """
    edc_db = np.asarray(edc_db, dtype=np.float64)
    remaining = np.power(10.0, edc_db / 10.0)
    powers = np.diff(np.append(remaining, 0.0)) * -1.0
    assert np.all(powers >= -1e-15), "EDC must be non-increasing"
    return np.maximum(powers, 0.0)


def prescribed_edc_rir(edc_db, sample_rate=SAMPLE_RATE, **kwargs):
    """Signal whose Schroeder decay curve equals ``edc_db`` exactly.

    The magnitudes are strictly decreasing for strictly decaying curves,
    so the only echo-profile peak is the first sample.
    """
    return rir_from_powers(edc_to_powers(edc_db), sample_rate=sample_rate, **kwargs)


def linear_edc_db(t60_s, duration_s=1.0, sample_rate=SAMPLE_RATE, initial_drop_db=0.0):
    """Linear decay curve hitting -60 dB at ``t60_s``.

    ``initial_drop_db`` inserts a step right after sample 0, which
    offsets the whole curve without touching the fitted slope.
    """
    n = round(duration_s * sample_rate)
    t = np.arange(n) / sample_rate
    values = -60.0 * t / t60_s - initial_drop_db
    values[0] = 0.0
    return values


def scene_positions(distance_m, origin=(1.0, 1.0, 1.0)):
    """A source/receiver pair at an exact distance along the x axis."""
    source = tuple(origin)
    receiver = (origin[0] + distance_m, origin[1], origin[2])
    return source, receiver


GOLDEN_ROOM_ID = "golden"

# Name -> reason names expected from the default criteria. The fixture is
# built so every rejected entry trips exactly one criterion: T60 values sit
# around an enrollment median of 1.6 s, whose +/-20% band [1.28, 1.92]
# brackets the 1.8695 s hard cutoff, letting each threshold fire alone.
GOLDEN_EXPECTED = {
    "good_a": [],
    "good_b": [],
    "bad_band": ["T60_OUT_OF_BAND"],
    "bad_cutoff": ["T60_ABOVE_CUTOFF"],
    "bad_close": ["DISTANCE_TOO_CLOSE"],
    "bad_far": ["DISTANCE_TOO_FAR"],
    "bad_edc": ["EDC_SHAPE_MISMATCH"],
    "bad_echo": ["EARLY_REFLECTION_MISMATCH"],
}


def _golden_linear(t60_s, distance_m, initial_drop_db=0.0):
    source, receiver = scene_positions(distance_m)
    return prescribed_edc_rir(
        linear_edc_db(t60_s, initial_drop_db=initial_drop_db),
        source_pos=source, receiver_pos=receiver, room_id=GOLDEN_ROOM_ID,
    )


def _golden_dense_echoes(t60_s, distance_m):
    """Same decay curve as the linear signal, but with zigzag magnitudes.

    Shifting 90% of every odd sample's energy onto its left neighbour
    leaves the decay curve essentially untouched while turning every
    even sample into a counted echo peak.
    """
    powers = edc_to_powers(linear_edc_db(t60_s))
    zig = powers.copy()
    zig[0::2] = powers[0::2] + 0.9 * powers[1::2]
    zig[1::2] = 0.1 * powers[1::2]
    source, receiver = scene_positions(distance_m)
    return rir_from_powers(zig, source_pos=source, receiver_pos=receiver,
                           room_id=GOLDEN_ROOM_ID)


def golden_enrollment():
    """Two trusted RIRs defining the golden room's reference profile."""
    return [_golden_linear(1.6, 2.0), _golden_linear(1.6, 2.4)]


def golden_corpus():
    """The crafted 8-RIR screening fixture: 2 clean, 6 single-reason rejects."""
    return {
        "good_a": _golden_linear(1.60, 2.0),
        "good_b": _golden_linear(1.55, 3.0),
        "bad_band": _golden_linear(1.27, 2.5),
        "bad_cutoff": _golden_linear(1.88, 2.2),
        "bad_close": _golden_linear(1.60, 0.5),
        "bad_far": _golden_linear(1.60, 7.5),
        "bad_edc": _golden_linear(1.60, 2.8, initial_drop_db=8.0),
        "bad_echo": _golden_dense_echoes(1.60, 3.2),
    }


def descriptor_row(rir):
    """The mapping ``apply_quality_filter`` screens, straight from ``analyze_rir(rir)``.

    A failed descriptor pass gives a row with its error, as ``analyze`` writes one.
    """
    try:
        metrics = analyze_rir(rir)
    except DESCRIPTOR_ERRORS as exc:
        return {"distance_m": rir.metadata_distance(), "error": f"{type(exc).__name__}: {exc}"}
    return {"t60_s": metrics.t60_s, "edc_grid_db": metrics.edc_grid_db,
            "echo_density": metrics.echo_density, "distance_m": rir.metadata_distance()}


def dead_pid() -> int:
    """The pid of a process that has exited and been reaped: it names no process now."""
    child = subprocess.Popen([sys.executable, "-c", ""])
    child.wait()
    return child.pid
