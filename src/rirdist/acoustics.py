"""Acoustic descriptors for room impulse responses.

Energy decay curves (Schroeder backward integration), reverberation time
fits, direct-path detection, direct-to-reverberant ratio, and early
reflection profiles. Everything operates on :class:`RIRecording` values,
is pure (inputs are never mutated), and works in float64 regardless of
the storage dtype of the samples. The per-RIR functions allocate as few
full-length arrays as they can and reuse their own temporaries in place,
never their inputs: a second of float64 audio is large enough that each
fresh array costs page faults. The in-place forms evaluate the same
expressions in the same order, so results are bit-equal.

The decay curve is kept in linear units, and its levels in dB are
computed only where they are read: the T60 fit reads its segment and
the few samples around each level it searches for, and the 10 ms grid
reads the pair of samples around each grid time. Each level comes from
the same chain of ufuncs, on a contiguous array, as the full curve in
dB would give it, so every descriptor is bit-equal to one computed from
the whole curve.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

SPEED_OF_SOUND_M_S = 343.0   # propagation speed used for all distance math
DB_FLOOR = -120.0            # clamp for every log-domain quantity
DRR_CEILING_DB = 100.0       # reported when the reverberant energy vanishes

DIRECT_PEAK_FRACTION = 0.5   # direct path: first sample >= this fraction of the global peak
DRR_WINDOW_PRE_S = 0.0005    # direct window opens 0.5 ms before the direct sample
DRR_WINDOW_POST_S = 0.0025   # ... and closes 2.5 ms after it (closed interval)
ECHO_WINDOW_S = 0.005        # early reflection profile: ten 5 ms windows
ECHO_N_WINDOWS = 10
ECHO_PEAK_FRACTION = 0.1     # peaks must exceed this fraction of the direct sample
EARLY_LATE_SPLIT_S = 0.050   # energy before/after 50 ms past the direct path
EDC_GRID_STEP_S = 0.01       # decay curves are compared on a 10 ms grid ...
EDC_GRID_POINTS = 100        # ... covering the first second
_GRID_T = np.arange(EDC_GRID_POINTS) * EDC_GRID_STEP_S

T60_FALLBACK_FLAG = "t60_fallback"
DRR_CEILING_FLAG = "drr_ceiling"
ECHO_TRUNCATED_FLAG = "echo_truncated"

_T20_SPAN_DB = (-5.0, -25.0)   # primary fit segment (T20, extrapolated x3)
_T10_SPAN_DB = (-5.0, -15.0)   # fallback segment (T10, extrapolated x6)
_USABLE_DB = DB_FLOOR + 1e-9   # levels above this count as usable decay
_MIN_FIT_POINTS = 8
_FLOOR_RATIO = 10.0 ** (DB_FLOOR / 10.0)
# A level's energy threshold is widened into a bracket this wide (relative),
# plus an absolute margin for thresholds so small they are subnormal. Its
# rounding errors are some 1e-16 relative, so outside the bracket an energy
# decides a level test alone, and inside it the level is computed in dB.
_BRACKET_REL = 1e-6
_BRACKET_ABS = 1e-320


class ZeroEnergyError(ValueError):
    """Raised when an operation needs a signal with nonzero energy."""


class InsufficientDecayError(ValueError):
    """Raised when a decay curve lacks the range needed for a reliable fit."""


class NonFiniteSignalError(ValueError):
    """Raised when a signal's energy is not finite (NaN, inf, or overflowing samples)."""


# what a degenerate RIR raises from the descriptor pass: it fails that RIR, not the run
DESCRIPTOR_ERRORS = (ZeroEnergyError, InsufficientDecayError, NonFiniteSignalError)


@dataclass(frozen=True)
class RIRecording:
    """A sampled room impulse response plus its scene metadata.

    ``samples`` holds linear amplitudes as stored; multiplying them by
    ``norm_gain`` restores the physical (pre-normalization) amplitudes,
    so peak-normalized recordings lose no level information. Positions
    are cartesian coordinates in meters, or ``None`` when the recording
    has no scene attached (synthetic test signals).
    """

    samples: np.ndarray
    sample_rate: int = 32000
    source_pos: tuple[float, float, float] | None = None
    receiver_pos: tuple[float, float, float] | None = None
    room_id: int | str | None = None
    norm_gain: float = 1.0

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("samples must be a non-empty 1-D array")
        object.__setattr__(self, "samples", samples)
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        if not self.norm_gain > 0.0:
            raise ValueError(f"norm_gain must be positive, got {self.norm_gain}")
        for name in ("source_pos", "receiver_pos"):
            pos = getattr(self, name)
            if pos is not None:
                pos = tuple(float(v) for v in pos)
                if len(pos) != 3:
                    raise ValueError(f"{name} must have three coordinates")
                object.__setattr__(self, name, pos)

    @property
    def duration_samples(self) -> int:
        return int(self.samples.size)

    def metadata_distance(self) -> float | None:
        """Source-receiver distance implied by the stored positions."""
        if self.source_pos is None or self.receiver_pos is None:
            return None
        return source_receiver_distance(self.source_pos, self.receiver_pos)


def source_receiver_distance(source_pos, receiver_pos) -> float:
    """Euclidean distance between two cartesian positions, in meters."""
    return float(np.linalg.norm(np.asarray(source_pos) - np.asarray(receiver_pos)))


@dataclass(frozen=True)
class EnergyDecayCurve:
    """Schroeder decay curve in linear units, one value per input sample.

    ``energy[n]`` is the energy from sample n on, the sum of ``x[k]^2``
    over k >= n, so ``energy[0] == total_energy`` and the curve is
    non-increasing. :meth:`db` gives levels in dB, clamped at the
    -120 dB floor, for just the samples it is asked for; ``values_db``
    is the whole curve in dB, where ``values_db[0]`` is exactly 0.
    """

    energy: np.ndarray
    total_energy: float

    def db(self, index=slice(None)) -> np.ndarray:
        """Levels in dB of the samples ``index`` (a slice or an index array) picks.

        ``10 log10(energy / total_energy)``, clamped at the floor, computed
        into a new contiguous array: ``np.log10`` gives the same bits for a
        sample whichever contiguous array holds it, but not on strided ones.
        """
        levels = self.energy[index] / self.total_energy
        np.maximum(levels, _FLOOR_RATIO, out=levels)
        np.log10(levels, out=levels)
        np.multiply(10.0, levels, out=levels)
        return levels

    @property
    def values_db(self) -> np.ndarray:
        """The whole curve in dB (a new array each time)."""
        return self.db()


@dataclass(frozen=True)
class T60Estimate:
    t60_s: float
    fallback: bool = False   # True when the -5..-15 dB segment was used


@dataclass(frozen=True)
class DrrEstimate:
    drr_db: float
    at_ceiling: bool = False


@dataclass(frozen=True)
class EchoDensityProfile:
    counts: tuple[int, ...]      # peaks per 5 ms window, ECHO_N_WINDOWS entries
    truncated: bool = False      # True when the profile ran past the signal end


@dataclass(frozen=True)
class AcousticMetrics:
    """Summary descriptors extracted from a single RIR."""

    t60_s: float
    drr_db: float
    direct_index: int
    direct_delay_ms: float
    geometric_distance_m: float
    echo_density: tuple[int, ...]
    total_energy_db: float
    early_late_ratio_db: float      # first 50 ms from the direct path vs the rest, in dB
    edc_grid_db: np.ndarray = field(compare=False, repr=False)   # decay curve on the 10 ms grid
    flags: frozenset[str] = frozenset()


def schroeder_edc(rir: RIRecording) -> EnergyDecayCurve:
    """Backward-integrated energy decay curve of an impulse response.

    ``energy[n] = sum_{k>=n} x[k]^2``; its levels in dB are
    ``10 log10(energy[n] / total)``, clamped at the -120 dB floor. Raises
    :class:`ZeroEnergyError` for all-zero input and
    :class:`NonFiniteSignalError` when the total energy is NaN or
    infinite, including squares or sums that overflow.
    """
    # One full-length array: the squares of the samples from last to first,
    # summed in place, so it ascends; the curve is a reversed view of it.
    with np.errstate(over="ignore"):     # overflow is reported below, as inf
        rising = rir.samples[::-1] ** 2
        np.cumsum(rising, out=rising)
    total = float(rising[-1])
    if not math.isfinite(total):
        raise NonFiniteSignalError(f"signal energy is {total}, not a finite number")
    if total <= 0.0:
        raise ZeroEnergyError("cannot integrate an all-zero impulse response")
    return EnergyDecayCurve(energy=rising[::-1], total_energy=total)


def _count_above(edc: EnergyDecayCurve, levels_db: tuple, inclusive: tuple) -> list[int]:
    """How many leading samples of the curve lie above each level (at or above
    it where ``inclusive``), in dB as :meth:`EnergyDecayCurve.db` gives them.

    Relies on the curve being non-increasing, so that the samples above a
    level come first. One binary search over the energies brackets each
    level: samples with more energy than the bracket are above it, those
    with less are below, and only the bracket's samples are taken to dB.
    """
    bounds = [edc.total_energy * 10.0 ** (level / 10.0) * (1.0 + side * _BRACKET_REL)
              + side * _BRACKET_ABS for side in (1.0, -1.0) for level in levels_db]
    rising = edc.energy[::-1]
    # samples at or above each bound, counted from the start of the curve
    counts = (rising.size - np.searchsorted(rising, bounds)).tolist()
    above = []
    for level, closed, lo, hi in zip(levels_db, inclusive, counts, counts[len(levels_db):]):
        if hi > lo:
            bracket = edc.db(slice(lo, hi))
            lo += int(np.count_nonzero(bracket >= level if closed else bracket > level))
        above.append(lo)
    return above


def estimate_t60(edc: EnergyDecayCurve, sample_rate: int) -> T60Estimate:
    """Reverberation time from a least-squares line through the EDC.

    The line is fitted to the -5..-25 dB segment and extrapolated to 60 dB
    of decay (T20 x 3). Curves with 15-30 dB of usable range fall back to
    the -5..-15 dB segment (T10 x 6) and are flagged. Under 15 dB of
    usable decay raises :class:`InsufficientDecayError`. The slope is
    the closed-form least-squares one, sum((t - t_mean)(L - L_mean)) /
    sum((t - t_mean)^2), over the segment's times t and levels L.
    Relies on the curve being non-increasing, as every
    :class:`EnergyDecayCurve` is: the samples above the floor come first,
    and the segment is one run ``[first, stop)`` of indices. Only the
    segment and the samples near its bounds are taken to dB.
    """
    if sample_rate <= 0:
        raise ValueError(f"sample_rate must be positive, got {sample_rate}")
    n_usable, first, stop_t10, stop_t20 = _count_above(
        edc, (_USABLE_DB, _T20_SPAN_DB[0], _T10_SPAN_DB[1], _T20_SPAN_DB[1]),
        (False, False, True, True))
    dynamic_range_db = -float(edc.db(slice(n_usable - 1, n_usable))[0]) if n_usable else 0.0
    if dynamic_range_db < 15.0:
        raise InsufficientDecayError(
            f"only {dynamic_range_db:.1f} dB of usable decay, need at least 15 dB"
        )
    fallback = dynamic_range_db < 30.0
    span = _T10_SPAN_DB if fallback else _T20_SPAN_DB
    stop = stop_t10 if fallback else stop_t20   # levels >= span[1] before stop
    if stop - first < _MIN_FIT_POINTS:
        raise InsufficientDecayError(
            f"decay segment {span} dB holds {stop - first} samples, "
            f"need {_MIN_FIT_POINTS} for a fit"
        )
    times = np.arange(first, stop) / float(sample_rate)
    centered = times - times.mean()
    levels = edc.db(slice(first, stop))
    slope = float(centered @ (levels - levels.mean())) / float(centered @ centered)
    if slope >= 0.0:
        raise InsufficientDecayError("decay segment is not decaying")
    return T60Estimate(t60_s=float(-60.0 / slope), fallback=fallback)


def detect_direct_path(rir: RIRecording) -> int:
    """Index of the direct arrival.

    First sample whose magnitude reaches half the global peak; robust to
    the direct path not being the tallest sample when a later reflection
    pair happens to add up.
    """
    samples = rir.samples
    peak = max(float(samples.max()), -float(samples.min()))   # max |x|, exactly
    if peak <= 0.0:
        raise ZeroEnergyError("all-zero impulse response has no direct path")
    level = DIRECT_PEAK_FRACTION * peak
    return int(np.argmax((samples >= level) | (samples <= -level)))


def geometric_distance(direct_index: int, sample_rate: int) -> float:
    """Source-receiver distance implied by the direct-path delay."""
    return direct_index / float(sample_rate) * SPEED_OF_SOUND_M_S


def compute_drr(rir: RIRecording, direct_index: int) -> DrrEstimate:
    """Direct-to-reverberant energy ratio in dB.

    The direct window is the closed interval from 0.5 ms before to
    2.5 ms after ``direct_index``, clamped to the signal bounds; all
    remaining energy counts as reverberant. A vanishing reverberant
    part yields the +100 dB ceiling with ``at_ceiling`` set instead of
    an error.
    """
    samples = rir.samples
    n = samples.size
    if not 0 <= direct_index < n:
        raise ValueError(f"direct_index {direct_index} outside [0, {n})")
    pre = round(DRR_WINDOW_PRE_S * rir.sample_rate)
    post = round(DRR_WINDOW_POST_S * rir.sample_rate)
    lo = max(0, direct_index - pre)
    hi = min(n, direct_index + post + 1)
    window = samples[lo:hi]
    direct_energy = float(window @ window)
    total_energy = float(samples @ samples)
    if total_energy <= 0.0:
        raise ZeroEnergyError("all-zero impulse response has no energy ratio")
    reverberant_energy = total_energy - direct_energy
    if reverberant_energy <= 0.0:
        return DrrEstimate(DRR_CEILING_DB, at_ceiling=True)
    floor = total_energy * 10.0 ** (DB_FLOOR / 10.0)
    drr = 10.0 * (np.log10(max(direct_energy, floor)) - np.log10(reverberant_energy))
    if drr >= DRR_CEILING_DB:
        return DrrEstimate(DRR_CEILING_DB, at_ceiling=True)
    return DrrEstimate(float(drr), at_ceiling=False)


def early_reflection_profile(rir: RIRecording, direct_index: int) -> EchoDensityProfile:
    """Per-window echo counts over the 50 ms following the direct path.

    The span is split into ten 5 ms windows (window 0 starts at the
    direct sample). A sample counts as an echo when it is a local
    magnitude maximum (strictly above its left neighbour, at least its
    right one, out-of-range neighbours read as zero) and exceeds 10% of
    the direct sample's magnitude. Profiles that run past the end of the
    signal keep their ten windows but are flagged truncated.
    """
    n = rir.samples.size
    if not 0 <= direct_index < n:
        raise ValueError(f"direct_index {direct_index} outside [0, {n})")
    window_len = round(ECHO_WINDOW_S * rir.sample_rate)
    span = ECHO_N_WINDOWS * window_len
    end = direct_index + span
    truncated = end > n
    end = min(end, n)

    # magnitudes of the profile span plus one neighbour on each side
    lo = max(direct_index - 1, 0)
    magnitudes = np.abs(rir.samples[lo:end + 1])
    first, stop = direct_index - lo, end - lo
    threshold = ECHO_PEAK_FRACTION * float(magnitudes[first])
    segment = magnitudes[first:stop]
    left = np.empty_like(segment)
    left[0] = magnitudes[first - 1] if direct_index > 0 else 0.0
    left[1:] = segment[:-1]
    right = np.empty_like(segment)
    right[-1] = magnitudes[stop] if end < n else 0.0
    right[:-1] = segment[1:]
    is_echo = (segment > left) & (segment >= right) & (segment > threshold)

    counts = []
    for w in range(ECHO_N_WINDOWS):
        counts.append(int(np.count_nonzero(is_echo[w * window_len:(w + 1) * window_len])))
    return EchoDensityProfile(counts=tuple(counts), truncated=truncated)


@functools.lru_cache(maxsize=1)
def _grid_support(n: int, sample_rate: int) -> tuple[np.ndarray, np.ndarray]:
    """The samples of an n-sample curve that ``np.interp`` reads for the 10 ms grid.

    Sample 0, sample n - 1, and for each grid time the samples just before
    (or at) and just after it, with their times: on them ``np.interp``
    finds the same neighbours, so the same slopes and bytes, as on every
    sample. Shared by every call for one length and rate: never write to it.
    """
    times = np.arange(n) / float(sample_rate)
    after = np.searchsorted(times, _GRID_T, side="right")
    indices = np.unique(np.concatenate([[0, n - 1], after - 1, np.minimum(after, n - 1)]))
    return indices, times[indices]


def _edc_on_grid(edc: EnergyDecayCurve, sample_rate: int) -> np.ndarray:
    """The decay curve in dB on the 10 ms grid of the first second, linearly interpolated."""
    indices, times = _grid_support(edc.energy.size, sample_rate)
    return np.interp(_GRID_T, times, edc.db(indices))


def analyze_rir(rir: RIRecording) -> AcousticMetrics:
    """All acoustic descriptors of one RIR, from a single Schroeder decay curve.

    ``total_energy_db`` is the physical (pre-normalization) energy,
    i.e. it folds ``norm_gain`` back in, so it is invariant under
    amplitude normalization with honest gain bookkeeping.
    """
    edc = schroeder_edc(rir)
    t60 = estimate_t60(edc, rir.sample_rate)
    direct_index = detect_direct_path(rir)
    drr = compute_drr(rir, direct_index)
    echo = early_reflection_profile(rir, direct_index)

    physical_energy = rir.norm_gain ** 2 * edc.total_energy
    total_energy_db = max(10.0 * np.log10(physical_energy), DB_FLOOR)

    samples = rir.samples
    split = direct_index + round(EARLY_LATE_SPLIT_S * rir.sample_rate)
    early, late = samples[direct_index:split], samples[split:]
    floor = float(samples @ samples) * 1e-12
    early_late_ratio_db = 10.0 * (math.log10(max(float(early @ early), floor)) -
                                  math.log10(max(float(late @ late), floor)))

    flags = set()
    if t60.fallback:
        flags.add(T60_FALLBACK_FLAG)
    if drr.at_ceiling:
        flags.add(DRR_CEILING_FLAG)
    if echo.truncated:
        flags.add(ECHO_TRUNCATED_FLAG)

    return AcousticMetrics(
        t60_s=t60.t60_s,
        drr_db=drr.drr_db,
        direct_index=direct_index,
        direct_delay_ms=direct_index / rir.sample_rate * 1000.0,
        geometric_distance_m=geometric_distance(direct_index, rir.sample_rate),
        echo_density=echo.counts,
        total_energy_db=float(total_energy_db),
        early_late_ratio_db=early_late_ratio_db,
        edc_grid_db=_edc_on_grid(edc, rir.sample_rate),
        flags=frozenset(flags),
    )
