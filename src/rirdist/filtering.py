"""Quality filtering of synthesized RIRs against per-room references.

A reference profile summarizes a small enrollment set of trusted RIRs
for one room (median T60, median decay curve on a coarse grid, median
echo-density profile). Candidate RIRs are screened against the profile
of their claimed room; every criterion is always evaluated so a
rejection lists all applicable reasons, never just the first.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .acoustics import (
    _GRID_T,
    AcousticMetrics,
    InsufficientDecayError,
    NonFiniteSignalError,
    RIRecording,
    ZeroEnergyError,
    analyze_rir,
)

# what a degenerate RIR raises from the descriptor pass: it fails that RIR, not the run
DESCRIPTOR_ERRORS = (ZeroEnergyError, InsufficientDecayError, NonFiniteSignalError)


class FilterReason(enum.Enum):
    T60_OUT_OF_BAND = "t60_out_of_band"
    T60_ABOVE_CUTOFF = "t60_above_cutoff"
    DISTANCE_TOO_CLOSE = "distance_too_close"
    DISTANCE_TOO_FAR = "distance_too_far"
    EDC_SHAPE_MISMATCH = "edc_shape_mismatch"
    EARLY_REFLECTION_MISMATCH = "early_reflection_mismatch"


class MissingProfileError(KeyError):
    """Raised when a batch contains a room with no reference profile."""


@dataclass(frozen=True)
class FilterCriteria:
    """Thresholds for the quality screen (defaults follow the shipped pipeline)."""

    t60_rel_tolerance: float = 0.20       # band half-width around the reference median
    t60_hard_cutoff_s: float = 1.8695     # absolute ceiling regardless of the band
    min_distance_m: float = 0.8
    max_distance_m: float = 7.1
    edc_max_rms_dev_db: float = 6.0       # RMS curve deviation over [0, median T60]
    echo_max_rel_dev: float = 0.5         # relative deviation of the total echo count

    def __post_init__(self):
        if self.t60_rel_tolerance <= 0 or self.t60_hard_cutoff_s <= 0:
            raise ValueError("T60 tolerances must be positive")
        if not 0 <= self.min_distance_m < self.max_distance_m:
            raise ValueError("need 0 <= min_distance_m < max_distance_m")
        if self.edc_max_rms_dev_db <= 0 or self.echo_max_rel_dev <= 0:
            raise ValueError("deviation tolerances must be positive")


@dataclass(frozen=True)
class ReferenceProfile:
    """Median acoustic signature of one room's enrollment RIRs."""

    room_id: int | str
    median_t60_s: float
    median_edc_db: np.ndarray          # EDC_GRID_POINTS values on the 10 ms grid
    echo_density_ref: np.ndarray       # per-window median echo counts
    n_enrollment: int


@dataclass(frozen=True)
class FilterDecision:
    """Outcome of screening one RIR. Accepted iff no reasons and no error."""

    accepted: bool
    reasons: frozenset[FilterReason]
    metrics: AcousticMetrics | None
    distance_m: float | None           # metadata distance the screen used
    error: str | None = None

    def reason_names(self) -> list[str]:
        return sorted(reason.name for reason in self.reasons)


@dataclass
class FilterBatchResult:
    decisions: list[FilterDecision] = field(default_factory=list)   # in input order
    reason_counts: dict[FilterReason, int] = field(default_factory=dict)
    yield_fraction: float | None = None      # None for an empty batch


def build_reference_profile(enrollment: Sequence[RIRecording]) -> ReferenceProfile:
    """Median T60 / decay curve / echo profile over an enrollment set.

    Requires at least two RIRs, all tagged with the same room id.
    """
    if len(enrollment) < 2:
        raise ValueError(f"enrollment needs at least 2 RIRs, got {len(enrollment)}")
    room_ids = {rir.room_id for rir in enrollment}
    if len(room_ids) != 1:
        raise ValueError(f"enrollment mixes room ids {sorted(map(str, room_ids))}")

    metrics = [analyze_rir(rir) for rir in enrollment]
    return ReferenceProfile(
        room_id=enrollment[0].room_id,
        median_t60_s=float(np.median([m.t60_s for m in metrics])),
        median_edc_db=np.median(np.stack([m.edc_grid_db for m in metrics]), axis=0),
        echo_density_ref=np.median(np.asarray([m.echo_density for m in metrics],
                                              dtype=np.float64), axis=0),
        n_enrollment=len(enrollment),
    )


def apply_quality_filter(rir: RIRecording, profile: ReferenceProfile,
                         criteria: FilterCriteria = FilterCriteria()) -> FilterDecision:
    """Screen one RIR against its room's reference profile.

    All criteria are evaluated unconditionally. Distance is judged from
    the recording's metadata positions, not from the detected direct
    path. Metric extraction failures reject the RIR with the error
    message wrapped into the decision instead of raising.
    """
    distance = rir.metadata_distance()
    try:
        metrics = analyze_rir(rir)
    except DESCRIPTOR_ERRORS as exc:
        return FilterDecision(
            accepted=False, reasons=frozenset(), metrics=None,
            distance_m=distance, error=f"{type(exc).__name__}: {exc}",
        )

    reasons = set()
    median = profile.median_t60_s
    if abs(metrics.t60_s - median) > criteria.t60_rel_tolerance * median:
        reasons.add(FilterReason.T60_OUT_OF_BAND)
    if metrics.t60_s > criteria.t60_hard_cutoff_s:
        reasons.add(FilterReason.T60_ABOVE_CUTOFF)

    if distance is None:
        return FilterDecision(
            accepted=False, reasons=frozenset(), metrics=metrics,
            distance_m=None, error="metadata positions missing, distance unknown",
        )
    if distance < criteria.min_distance_m:
        reasons.add(FilterReason.DISTANCE_TOO_CLOSE)
    if distance > criteria.max_distance_m:
        reasons.add(FilterReason.DISTANCE_TOO_FAR)

    n_compare = max(1, int(np.count_nonzero(_GRID_T <= median)))
    deviation = metrics.edc_grid_db[:n_compare] - profile.median_edc_db[:n_compare]
    if float(np.sqrt(np.mean(deviation ** 2))) > criteria.edc_max_rms_dev_db:
        reasons.add(FilterReason.EDC_SHAPE_MISMATCH)

    total = float(sum(metrics.echo_density))
    ref_total = float(np.sum(profile.echo_density_ref))
    if ref_total > 0.0:
        echo_mismatch = abs(total - ref_total) / ref_total > criteria.echo_max_rel_dev
    else:
        echo_mismatch = total > 0.0
    if echo_mismatch:
        reasons.add(FilterReason.EARLY_REFLECTION_MISMATCH)

    return FilterDecision(
        accepted=not reasons, reasons=frozenset(reasons),
        metrics=metrics, distance_m=distance, error=None,
    )


def filter_batch(rirs: Iterable[RIRecording],
                 profiles: dict,
                 criteria: FilterCriteria = FilterCriteria()) -> FilterBatchResult:
    """Screen RIRs one at a time, each against the profile of its room id.

    ``rirs`` is iterated once, lazily, and only the decisions are kept,
    in input order. Raises :class:`MissingProfileError` naming the first
    room id without a profile. An empty batch reports
    ``yield_fraction = None``.
    """
    result = FilterBatchResult(reason_counts={reason: 0 for reason in FilterReason})
    for rir in rirs:
        if rir.room_id not in profiles:
            raise MissingProfileError(f"no reference profile for room {rir.room_id!r}")
        decision = apply_quality_filter(rir, profiles[rir.room_id], criteria)
        result.decisions.append(decision)
        for reason in decision.reasons:
            result.reason_counts[reason] += 1
    if result.decisions:
        n_accepted = sum(decision.accepted for decision in result.decisions)
        result.yield_fraction = n_accepted / len(result.decisions)
    return result
