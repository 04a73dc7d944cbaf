"""Shoebox room impulse response synthesis.

Early reflections come from the image-source method on a rectangular
room; the late field is seeded Gaussian noise under an exponential
envelope whose time constant follows the room's Sabine reverberation
time, spliced in at a fixed crossover so the energy envelope stays
continuous. Synthesis is conditioned on positions only: each room is a
fixed profile (dimensions, uniform absorption, seed) and every RIR is a
deterministic function of (room, query).
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass

import numpy as np

from .acoustics import (
    SPEED_OF_SOUND_M_S,
    RIRecording,
    ZeroEnergyError,
    source_receiver_distance,
)

MIN_ROOM_DIM_M = 1.0
MAX_ROOM_DIM_M = 30.0
MIN_WALL_CLEARANCE_M = 0.1   # queries must keep this far from every wall
SCENE_WALL_MARGIN_M = 0.5    # sampled scenes keep a wider margin
MIN_PAIR_DISTANCE_M = 0.2    # sampled source/receiver separation floor

# envelope e^{-t/tau} loses 60 dB after t = T60, so tau = T60 / (60 / (20 log10 e))
_DECAY_RATE_DB_PER_TAU = 20.0 * np.log10(np.e)


class GeometryError(ValueError):
    """Raised for rooms or queries that are geometrically invalid."""


@dataclass(frozen=True)
class ShoeboxRoom:
    """A rectangular room profile with uniform wall absorption."""

    dims: tuple[float, float, float]     # interior size in meters
    absorption: float                    # energy absorption coefficient, shared by all walls
    room_id: int | str
    seed: int = 0

    def __post_init__(self):
        dims = tuple(float(d) for d in self.dims)
        if len(dims) != 3:
            raise GeometryError("dims must have three entries")
        for d in dims:
            if not MIN_ROOM_DIM_M <= d <= MAX_ROOM_DIM_M:
                raise GeometryError(
                    f"room dimension {d} m outside [{MIN_ROOM_DIM_M}, {MAX_ROOM_DIM_M}] m"
                )
        object.__setattr__(self, "dims", dims)
        if not 0.0 < self.absorption < 1.0:
            raise GeometryError(f"absorption must lie in (0, 1), got {self.absorption}")

    @property
    def volume_m3(self) -> float:
        lx, ly, lz = self.dims
        return lx * ly * lz

    @property
    def surface_m2(self) -> float:
        lx, ly, lz = self.dims
        return 2.0 * (lx * ly + lx * lz + ly * lz)

    def sabine_t60_s(self) -> float:
        """Sabine estimate 0.161 V / (alpha S) of the reverberation time."""
        return 0.161 * self.volume_m3 / (self.absorption * self.surface_m2)

    def decay_tau_s(self) -> float:
        """Time constant of the amplitude envelope matching the Sabine T60."""
        return self.sabine_t60_s() * _DECAY_RATE_DB_PER_TAU / 60.0


@dataclass(frozen=True)
class SceneQuery:
    """A source/receiver placement inside a room."""

    source_pos: tuple[float, float, float]
    receiver_pos: tuple[float, float, float]

    def __post_init__(self):
        for name in ("source_pos", "receiver_pos"):
            pos = tuple(float(v) for v in getattr(self, name))
            if len(pos) != 3:
                raise GeometryError(f"{name} must have three coordinates")
            object.__setattr__(self, name, pos)

    @property
    def distance_m(self) -> float:
        return source_receiver_distance(self.source_pos, self.receiver_pos)


@dataclass(frozen=True)
class SynthesisConfig:
    # Reflection-count cap. 12 keeps every image that can arrive before the
    # 80 ms crossover even in the smallest permitted rooms; lower caps starve
    # the 40-80 ms span of arrivals and drag the measured T60 well below the
    # room's Sabine value.
    max_image_order: int = 12
    tail_crossover_ms: float = 80.0  # image part before, stochastic tail after
    sample_rate: int = 32000
    duration_s: float = 1.0
    speed_of_sound: float = SPEED_OF_SOUND_M_S

    def __post_init__(self):
        if self.max_image_order < 0:
            raise ValueError("max_image_order must be >= 0")
        if self.sample_rate <= 0 or self.duration_s <= 0 or self.speed_of_sound <= 0:
            raise ValueError("sample_rate, duration_s and speed_of_sound must be positive")
        if not 0.0 < self.tail_crossover_ms < self.duration_s * 1000.0:
            raise ValueError("tail_crossover_ms must fall inside the signal duration")

    @property
    def n_samples(self) -> int:
        return round(self.duration_s * self.sample_rate)

    @property
    def crossover_sample(self) -> int:
        return round(self.tail_crossover_ms / 1000.0 * self.sample_rate)


DEFAULT_CONFIG = SynthesisConfig()


def validate_scene(room: ShoeboxRoom, query: SceneQuery) -> None:
    """Check wall clearance and source/receiver separation."""
    for name, pos in (("source", query.source_pos), ("receiver", query.receiver_pos)):
        for axis, (coord, dim) in enumerate(zip(pos, room.dims)):
            if not MIN_WALL_CLEARANCE_M <= coord <= dim - MIN_WALL_CLEARANCE_M:
                raise GeometryError(
                    f"{name} coordinate {coord} m on axis {axis} violates the "
                    f"{MIN_WALL_CLEARANCE_M} m wall clearance of a {dim} m room"
                )
    if query.distance_m <= 0.0:
        raise GeometryError("source and receiver must not coincide")


def _axis_images(length: float, coord: float, order: int):
    """Mirror coordinates along one axis with their reflection counts.

    Images are coord' = +/-coord + 2 m L; the +coord branch costs 2|m|
    reflections, the -coord branch |2m - 1|.
    """
    coords, counts = [], []
    for m in range(-(order // 2 + 1), order // 2 + 2):
        c = 2 * abs(m)
        if c <= order:
            coords.append(coord + 2.0 * m * length)
            counts.append(c)
        c = abs(2 * m - 1)
        if c <= order:
            coords.append(-coord + 2.0 * m * length)
            counts.append(c)
    return np.asarray(coords), np.asarray(counts)


@functools.lru_cache(maxsize=1)
def _room_plan(room: ShoeboxRoom, config: SynthesisConfig):
    """What every RIR of a room shares: the (x, y, z) image indices with at
    most ``max_image_order`` reflections, their wall gains and the tail
    envelope. One entry, because ``generate`` walks one room at a time."""
    order = config.max_image_order
    nx, ny, nz = (_axis_images(length, 0.0, order)[1] for length in room.dims)
    counts = nx[:, None, None] + ny[None, :, None] + nz[None, None, :]
    keep = np.nonzero(counts <= order)
    t_rel = np.arange(config.n_samples - config.crossover_sample) / config.sample_rate
    return keep, (1.0 - room.absorption) ** counts[keep], np.exp(-t_rel / room.decay_tau_s())


def image_source_rir(room: ShoeboxRoom, query: SceneQuery,
                     config: SynthesisConfig = DEFAULT_CONFIG) -> RIRecording:
    """Early part of the impulse response from the image-source sum.

    Every image with at most ``max_image_order`` reflections and an
    arrival before the tail crossover contributes an impulse of
    amplitude (1 - absorption)^reflections / distance, placed by 2-tap
    linear interpolation at its fractional delay.
    """
    validate_scene(room, query)
    (ix, iy, iz), gains, _ = _room_plan(room, config)
    cx, cy, cz = (_axis_images(room.dims[a], query.source_pos[a], config.max_image_order)[0]
                  for a in range(3))
    rx, ry, rz = query.receiver_pos
    distances = np.sqrt((cx[ix] - rx) ** 2 + (cy[iy] - ry) ** 2 + (cz[iz] - rz) ** 2)

    delays_s = distances / config.speed_of_sound
    in_window = delays_s < config.tail_crossover_ms / 1000.0
    amplitudes = gains[in_window] / distances[in_window]
    positions = delays_s[in_window] * config.sample_rate
    base = np.floor(positions).astype(np.int64)
    frac = positions - base
    # one bincount over both taps accumulates in np.add.at's order; a second
    # tap past the last sample (crossover within a sample of the end) is dropped
    out = np.bincount(np.concatenate((base, base + 1)),
                      weights=np.concatenate((amplitudes * (1.0 - frac), amplitudes * frac)),
                      minlength=config.n_samples)[:config.n_samples]

    return RIRecording(
        samples=out,
        sample_rate=config.sample_rate,
        source_pos=query.source_pos,
        receiver_pos=query.receiver_pos,
        room_id=room.room_id,
        norm_gain=1.0,
    )


def _tail_rng(room: ShoeboxRoom, query: SceneQuery) -> np.random.Generator:
    """PCG64 stream keyed on the room seed and the exact query coordinates."""
    coords = np.asarray(query.source_pos + query.receiver_pos, dtype=np.float64)
    entropy = [int(room.seed)] + [int(b) for b in coords.view(np.uint64)]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


_tail_noise = threading.local()   # one reused noise buffer per synthesizing thread


def synthesize_rir(room: ShoeboxRoom, query: SceneQuery,
                   config: SynthesisConfig = DEFAULT_CONFIG) -> RIRecording:
    """Full hybrid impulse response: image-source early part plus diffuse tail.

    The tail is Gaussian noise under exp(-t/tau) with tau from the
    room's Sabine T60, scaled so its mean-square level continues the
    early part at the crossover. Deterministic given (room, query):
    the noise stream is keyed on the room seed and the query positions.
    """
    early = image_source_rir(room, query, config)
    n = config.n_samples
    n_cross = config.crossover_sample

    # RMS of the last 20 ms of the early part anchors the tail level.
    match_len = min(n_cross, round(0.020 * config.sample_rate))
    reference = early.samples[n_cross - match_len:n_cross]
    mean_square = float(reference @ reference) / match_len
    if mean_square <= 0.0:
        # sparse early field (tiny image order): extrapolate its overall level instead
        nonzero = np.nonzero(early.samples[:n_cross])[0]
        if nonzero.size == 0:
            raise ZeroEnergyError("image-source part is empty, cannot anchor the tail")
        body = early.samples[nonzero[0]:nonzero[-1] + 1]
        midpoint = 0.5 * (nonzero[0] + nonzero[-1])
        decay = np.exp(-((n_cross - midpoint) / config.sample_rate) / room.decay_tau_s())
        mean_square = float(body @ body) / body.size * decay ** 2

    _, _, envelope = _room_plan(room, config)
    # noise and tail reuse memory: a full-length temporary per RIR would be
    # handed back to the kernel on free and faulted in again for the next RIR
    noise = getattr(_tail_noise, "buffer", None)
    if noise is None or noise.size != n - n_cross:
        noise = _tail_noise.buffer = np.empty(n - n_cross)
    _tail_rng(room, query).standard_normal(out=noise)
    tail = early.samples[n_cross:]
    np.multiply(envelope, np.sqrt(mean_square), out=tail)
    tail *= noise
    return RIRecording(
        samples=early.samples,
        sample_rate=config.sample_rate,
        source_pos=query.source_pos,
        receiver_pos=query.receiver_pos,
        room_id=room.room_id,
        norm_gain=1.0,
    )


def normalize_rir(rir: RIRecording) -> RIRecording:
    """Scale to unit peak magnitude, folding the old peak into norm_gain.

    ``normalized.samples * normalized.norm_gain`` reproduces the input's
    physical signal, and normalizing twice is a no-op. The samples are
    divided in place, so the result shares ``rir.samples`` and ``rir``
    must not be read afterwards (pass a copy to keep it); a refused gain
    leaves them untouched. ``generate`` normalizes each fresh synthesis:
    a second full-length array per RIR can lift the allocator's free top
    of heap past its trim threshold, so every RIR's pages are handed back
    to the kernel and faulted in again.
    """
    peak = max(float(rir.samples.max()), -float(rir.samples.min()))
    if peak <= 0.0:
        raise ZeroEnergyError("cannot normalize an all-zero impulse response")
    normalized = RIRecording(
        samples=rir.samples,
        sample_rate=rir.sample_rate,
        source_pos=rir.source_pos,
        receiver_pos=rir.receiver_pos,
        room_id=rir.room_id,
        norm_gain=rir.norm_gain * peak,
    )
    # after the gain is checked, so a refused gain leaves the samples as they were
    np.divide(normalized.samples, peak, out=normalized.samples)
    return normalized


def sample_scenes(room: ShoeboxRoom, n: int, seed: int) -> list[SceneQuery]:
    """Draw n uniform scenes with a 0.5 m wall margin.

    Receivers are redrawn until they sit at least 0.2 m from the source,
    so the scene list is a deterministic function of (room, n, seed).
    """
    if n < 1:
        raise ValueError(f"need at least one scene, got n={n}")
    lo = np.full(3, SCENE_WALL_MARGIN_M)
    hi = np.asarray(room.dims) - SCENE_WALL_MARGIN_M
    if np.any(hi <= lo):
        raise GeometryError(
            f"room {room.room_id} ({room.dims} m) leaves no interior after the "
            f"{SCENE_WALL_MARGIN_M} m scene margin"
        )
    rng = np.random.default_rng(seed)
    scenes = []
    for _ in range(n):
        source = rng.uniform(lo, hi)
        for _attempt in range(1000):
            receiver = rng.uniform(lo, hi)
            if np.linalg.norm(receiver - source) >= MIN_PAIR_DISTANCE_M:
                break
        else:
            raise GeometryError(
                f"could not place a receiver {MIN_PAIR_DISTANCE_M} m from the source "
                f"in room {room.room_id}"
            )
        scenes.append(SceneQuery(tuple(source), tuple(receiver)))
    return scenes


# Built-in room profiles. Ids 1-10 are small-to-mid rooms whose Sabine T60
# spans roughly 0.3-0.8 s; ids 11-20 are larger rooms spanning 0.5-1.2 s,
# so the two halves form distinguishable reverberation distributions.
_BUILTIN_ROOM_TABLE = (
    (1, (4.2, 3.4, 2.7), 0.30),
    (2, (4.8, 3.9, 2.8), 0.26),
    (3, (5.5, 4.2, 3.0), 0.24),
    (4, (6.0, 4.6, 3.1), 0.22),
    (5, (6.4, 5.0, 3.2), 0.20),
    (6, (7.0, 5.4, 3.3), 0.19),
    (7, (7.5, 5.8, 3.4), 0.18),
    (8, (8.0, 6.0, 3.5), 0.18),
    (9, (6.8, 5.2, 3.2), 0.21),
    (10, (5.2, 4.0, 2.9), 0.27),
    (11, (8.5, 6.5, 3.6), 0.20),
    (12, (9.0, 7.0, 3.8), 0.18),
    (13, (10.0, 7.5, 4.0), 0.17),
    (14, (11.0, 8.0, 4.0), 0.16),
    (15, (12.0, 8.5, 4.2), 0.155),
    (16, (9.5, 7.2, 3.7), 0.19),
    (17, (10.5, 7.8, 3.9), 0.175),
    (18, (11.5, 8.2, 4.1), 0.16),
    (19, (8.8, 6.8, 3.6), 0.22),
    (20, (9.8, 7.4, 3.8), 0.21),
)


def builtin_room_ids() -> list[int]:
    return [entry[0] for entry in _BUILTIN_ROOM_TABLE]


def builtin_room(room_id: int) -> ShoeboxRoom:
    """Look up one of the twenty built-in room profiles."""
    for rid, dims, absorption in _BUILTIN_ROOM_TABLE:
        if rid == room_id:
            return ShoeboxRoom(dims=dims, absorption=absorption, room_id=rid, seed=rid)
    raise KeyError(f"no built-in room with id {room_id!r}")
