"""Quality filtering of synthesized RIRs against per-room references.

A reference profile summarizes a small enrollment set of trusted RIRs
for one room (median T60, median decay curve on a coarse grid, median
echo-density profile). Candidate RIRs are screened by their descriptor
rows, with no signal processed, against the profile of their claimed
room; every criterion is always evaluated so a rejection lists all
applicable reasons, never just the first.
"""

from __future__ import annotations

import enum
from collections.abc import Hashable, Iterable, Iterator, Mapping
from dataclasses import dataclass, field

import numpy as np

from .acoustics import _GRID_T, RIRecording, analyze_rir


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
        if not np.isfinite(list(vars(self).values())).all():
            raise ValueError(f"every threshold must be a finite number, got {self}")
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
    # derived once here rather than per screened row
    n_compare: int = field(init=False, repr=False)      # grid points over [0, median T60]
    echo_total_ref: float = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "n_compare",
                           max(1, int(np.count_nonzero(_GRID_T <= self.median_t60_s))))
        object.__setattr__(self, "echo_total_ref", float(np.sum(self.echo_density_ref)))


@dataclass(frozen=True)
class FilterDecision:
    """Outcome of screening one RIR. Accepted iff no reasons and no error."""

    accepted: bool
    reasons: frozenset[FilterReason]
    error: str | None = None

    def reason_names(self) -> list[str]:
        return sorted(reason.name for reason in self.reasons)


def build_reference_profile(enrollment: Iterable[RIRecording]) -> ReferenceProfile:
    """Median T60 / decay curve / echo profile over an enrollment set.

    ``enrollment`` is iterated once, and each recording is analyzed
    before the next is read, so a generator that decodes one WAV at a
    time holds one signal at a time. Requires at least two RIRs, all
    tagged with the same room id.
    """
    room_ids, metrics = set(), []
    for rir in enrollment:
        room_ids.add(rir.room_id)
        metrics.append(analyze_rir(rir))
    if len(metrics) < 2:
        raise ValueError(f"enrollment needs at least 2 RIRs, got {len(metrics)}")
    if len(room_ids) != 1:
        raise ValueError(f"enrollment mixes room ids {sorted(map(str, room_ids))}")

    return ReferenceProfile(
        room_id=room_ids.pop(),
        median_t60_s=float(np.median([m.t60_s for m in metrics])),
        median_edc_db=np.median(np.stack([m.edc_grid_db for m in metrics]), axis=0),
        echo_density_ref=np.median(np.asarray([m.echo_density for m in metrics],
                                              dtype=np.float64), axis=0),
        n_enrollment=len(metrics),
    )


def apply_quality_filter(row: Mapping, profile: ReferenceProfile,
                         criteria: FilterCriteria = FilterCriteria()) -> FilterDecision:
    """Screen one RIR's descriptors against its room's reference profile.

    ``row`` maps ``t60_s``, ``edc_grid_db``, ``echo_density`` and
    ``distance_m`` to the RIR's values: a ``metrics.jsonl`` row is one once
    its ``edc_grid_db`` text is decoded (``Corpus.paired_rows(grids=True)``
    decodes it; the text itself raises ``TypeError``), and so is a mapping
    of the fields of an :func:`analyze_rir` result.
    No signal is processed. All criteria are evaluated unconditionally.
    Distance is judged from the metadata distance ``distance_m``, not
    from the detected direct path. A row with an ``error`` (its
    descriptor pass failed), or with no distance, is rejected with an
    error and no reasons.
    """
    if row.get("error") is not None:
        return FilterDecision(accepted=False, reasons=frozenset(), error=row["error"])
    distance = row["distance_m"]
    if distance is None:
        return FilterDecision(accepted=False, reasons=frozenset(),
                              error="metadata positions missing, distance unknown")

    reasons = set()
    t60_s = row["t60_s"]
    median = profile.median_t60_s
    if abs(t60_s - median) > criteria.t60_rel_tolerance * median:
        reasons.add(FilterReason.T60_OUT_OF_BAND)
    if t60_s > criteria.t60_hard_cutoff_s:
        reasons.add(FilterReason.T60_ABOVE_CUTOFF)
    if distance < criteria.min_distance_m:
        reasons.add(FilterReason.DISTANCE_TOO_CLOSE)
    if distance > criteria.max_distance_m:
        reasons.add(FilterReason.DISTANCE_TOO_FAR)

    grid = row["edc_grid_db"]
    if isinstance(grid, str):
        raise TypeError("edc_grid_db is still the base64 text of metrics.jsonl; decode it with "
                        "rirdist.corpus.decode_grid, or read rows with "
                        "Corpus.paired_rows(grids=True)")
    n_compare = profile.n_compare
    deviation = (np.asarray(grid[:n_compare], dtype=np.float64)
                 - profile.median_edc_db[:n_compare])
    if float(np.sqrt(np.mean(deviation ** 2))) > criteria.edc_max_rms_dev_db:
        reasons.add(FilterReason.EDC_SHAPE_MISMATCH)

    total = float(sum(row["echo_density"]))
    ref_total = profile.echo_total_ref
    if ref_total > 0.0:
        echo_mismatch = abs(total - ref_total) / ref_total > criteria.echo_max_rel_dev
    else:
        echo_mismatch = total > 0.0
    if echo_mismatch:
        reasons.add(FilterReason.EARLY_REFLECTION_MISMATCH)

    return FilterDecision(accepted=not reasons, reasons=frozenset(reasons))


def filter_batch(rows: Iterable[tuple[Hashable, Mapping]], profiles: dict,
                 criteria: FilterCriteria = FilterCriteria()) -> Iterator[FilterDecision]:
    """Screen descriptor rows one at a time, each against the profile of its room.

    ``rows`` yields ``(room_id, row)`` pairs, ``row`` as
    :func:`apply_quality_filter` takes it. It is iterated once, lazily,
    and one decision is yielded per pair, in input order; nothing is
    kept. Raises :class:`MissingProfileError` naming the first room id
    without a profile.
    """
    for room_id, row in rows:
        if room_id not in profiles:
            raise MissingProfileError(f"no reference profile for room {room_id!r}")
        yield apply_quality_filter(row, profiles[room_id], criteria)
