import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rirdist.acoustics import (
    RIRecording,
    ZeroEnergyError,
    analyze_rir,
    detect_direct_path,
    estimate_t60,
    schroeder_edc,
)
from rirdist.synth import (
    DEFAULT_CONFIG,
    GeometryError,
    SceneQuery,
    ShoeboxRoom,
    SynthesisConfig,
    builtin_room,
    builtin_room_ids,
    image_source_rir,
    normalize_rir,
    sample_scenes,
    synthesize_rir,
    validate_scene,
)
from rirdist.synth import _axis_images, _tail_rng

FREE_FIELD_ROOM = ShoeboxRoom(dims=(30.0, 29.0, 28.0), absorption=0.5, room_id="ff")
DIRECT_ONLY = SynthesisConfig(max_image_order=0)


def _free_field(distance_m):
    query = SceneQuery((10.0, 10.0, 10.0), (10.0 + distance_m, 10.0, 10.0))
    return image_source_rir(FREE_FIELD_ROOM, query, DIRECT_ONLY)


# -------------------------------------------------------------------- rooms

def test_room_validation():
    with pytest.raises(GeometryError):
        ShoeboxRoom(dims=(0.5, 4.0, 3.0), absorption=0.3, room_id="x")
    with pytest.raises(GeometryError):
        ShoeboxRoom(dims=(31.0, 4.0, 3.0), absorption=0.3, room_id="x")
    with pytest.raises(GeometryError):
        ShoeboxRoom(dims=(5.0, 4.0, 3.0), absorption=1.0, room_id="x")
    with pytest.raises(GeometryError):
        ShoeboxRoom(dims=(5.0, 4.0), absorption=0.3, room_id="x")


def test_room_sabine_reference_values():
    room = ShoeboxRoom(dims=(5.0, 4.0, 3.0), absorption=0.3, room_id="s")
    assert room.volume_m3 == pytest.approx(60.0)
    assert room.surface_m2 == pytest.approx(94.0)
    assert room.sabine_t60_s() == pytest.approx(0.161 * 60.0 / (0.3 * 94.0))
    assert room.sabine_t60_s() == pytest.approx(0.343, abs=1e-3)
    assert room.decay_tau_s() == pytest.approx(room.sabine_t60_s() * 20.0 * np.log10(np.e) / 60.0)


def test_scene_query_distance_and_validation():
    q = SceneQuery((1.0, 1.0, 1.0), (4.0, 5.0, 1.0))
    assert q.distance_m == pytest.approx(5.0)
    with pytest.raises(GeometryError):
        SceneQuery((1.0, 1.0), (2.0, 2.0, 2.0))


def test_config_validation_and_derived_sizes():
    assert DEFAULT_CONFIG.n_samples == 32000
    assert DEFAULT_CONFIG.crossover_sample == 2560
    with pytest.raises(ValueError):
        SynthesisConfig(max_image_order=-1)
    with pytest.raises(ValueError):
        SynthesisConfig(tail_crossover_ms=0.0)
    with pytest.raises(ValueError):
        SynthesisConfig(tail_crossover_ms=1500.0)


def test_validate_scene_rejects_bad_geometry():
    room = ShoeboxRoom(dims=(5.0, 4.0, 3.0), absorption=0.3, room_id="v")
    with pytest.raises(GeometryError):
        validate_scene(room, SceneQuery((0.05, 1.0, 1.0), (3.0, 2.0, 1.5)))
    with pytest.raises(GeometryError):
        validate_scene(room, SceneQuery((4.95, 1.0, 1.0), (3.0, 2.0, 1.5)))
    with pytest.raises(GeometryError):
        validate_scene(room, SceneQuery((2.0, 2.0, 1.5), (2.0, 2.0, 1.5)))


# ----------------------------------------------------------- image sources

@pytest.mark.parametrize("distance", [1.0, 2.0, 3.43, 5.0])
def test_free_field_delay_and_amplitude(distance):
    rir = _free_field(distance)
    truth_delay = distance / 343.0 * 32000
    peak = int(np.argmax(np.abs(rir.samples)))
    assert abs(peak - truth_delay) <= 1.0
    # linear interpolation splits the tap but conserves its amplitude
    amplitude = float(rir.samples[peak - 1:peak + 2].sum())
    assert amplitude == pytest.approx(1.0 / distance, rel=0.01)


def test_free_field_reference_sample_at_10ms():
    rir = _free_field(3.43)
    assert int(np.argmax(np.abs(rir.samples))) == 320
    assert rir.samples[320] == pytest.approx(1.0 / 3.43, rel=1e-12)
    assert float(np.abs(rir.samples).sum()) == pytest.approx(1.0 / 3.43, rel=1e-12)


def test_free_field_inverse_distance_law():
    near, far = _free_field(1.0), _free_field(2.0)
    assert float(far.samples.sum()) == pytest.approx(0.5 * float(near.samples.sum()), rel=1e-9)
    assert int(np.argmax(np.abs(far.samples))) == pytest.approx(
        2 * int(np.argmax(np.abs(near.samples))), abs=1)


def test_order_one_room_has_seven_closed_form_arrivals():
    """Direct + 6 single-wall mirrors, each with its analytic delay/gain."""
    room = ShoeboxRoom(dims=(5.0, 4.0, 3.0), absorption=0.3, room_id="o1")
    source, receiver = (1.5, 1.2, 1.0), (3.5, 2.8, 2.0)
    rir = image_source_rir(room, SceneQuery(source, receiver),
                           SynthesisConfig(max_image_order=1))

    images = [(source, 0)]
    for axis, length in enumerate(room.dims):
        for mirrored in (-source[axis], 2.0 * length - source[axis]):
            pos = list(source)
            pos[axis] = mirrored
            images.append((tuple(pos), 1))
    assert len(images) == 7

    expected = np.zeros(32000)
    for pos, bounces in images:
        d = float(np.linalg.norm(np.asarray(pos) - np.asarray(receiver)))
        amp = (1.0 - room.absorption) ** bounces / d
        position = d / 343.0 * 32000
        base = int(np.floor(position))
        frac = position - base
        expected[base] += amp * (1.0 - frac)
        expected[base + 1] += amp * frac
    np.testing.assert_allclose(rir.samples, expected, atol=1e-12)


def test_image_part_reciprocity():
    room = ShoeboxRoom(dims=(5.5, 4.2, 3.0), absorption=0.24, room_id="r")
    fwd = image_source_rir(room, SceneQuery((1.1, 1.4, 1.0), (4.0, 3.0, 2.2)))
    rev = image_source_rir(room, SceneQuery((4.0, 3.0, 2.2), (1.1, 1.4, 1.0)))
    np.testing.assert_allclose(fwd.samples, rev.samples, atol=1e-12)


def test_image_source_respects_crossover_window():
    rir = image_source_rir(ShoeboxRoom(dims=(5.0, 4.0, 3.0), absorption=0.2, room_id="w"),
                           SceneQuery((1.0, 1.0, 1.0), (3.0, 2.0, 1.5)))
    crossover = DEFAULT_CONFIG.crossover_sample
    assert np.any(rir.samples[:crossover] != 0.0)
    assert np.all(rir.samples[crossover + 1:] == 0.0)


def test_tap_past_the_last_sample_is_dropped():
    # an image arrives at sample 31999.x, just before a 999.99 ms crossover,
    # so its second interpolation tap would land on sample 32000
    room = ShoeboxRoom(dims=(30.0, 30.0, 30.0), absorption=0.05, room_id="end")
    query = SceneQuery((14.6, 25.91, 27.15), (11.02, 17.0, 10.01))
    config = SynthesisConfig(tail_crossover_ms=999.99)
    assert image_source_rir(room, query, config).samples.size == config.n_samples
    assert synthesize_rir(room, query, config).samples.size == config.n_samples


# ------------------------------------------------------------ full synthesis

def test_synthesize_is_deterministic():
    room = builtin_room(3)
    query = SceneQuery((1.2, 1.1, 1.0), (3.6, 2.9, 2.1))
    a = synthesize_rir(room, query)
    b = synthesize_rir(room, query)
    assert np.array_equal(a.samples, b.samples)
    assert a.duration_samples == 32000
    assert a.sample_rate == 32000


def test_synthesize_tail_depends_on_seed_not_early_part():
    query = SceneQuery((1.2, 1.1, 1.0), (3.6, 2.9, 2.1))
    room_a = ShoeboxRoom(dims=(5.5, 4.2, 3.0), absorption=0.24, room_id="s", seed=1)
    room_b = ShoeboxRoom(dims=(5.5, 4.2, 3.0), absorption=0.24, room_id="s", seed=2)
    a, b = synthesize_rir(room_a, query), synthesize_rir(room_b, query)
    crossover = DEFAULT_CONFIG.crossover_sample
    np.testing.assert_array_equal(a.samples[:crossover], b.samples[:crossover])
    assert not np.array_equal(a.samples[crossover:], b.samples[crossover:])


def test_synthesized_t60_tracks_sabine():
    room = ShoeboxRoom(dims=(5.0, 4.0, 3.0), absorption=0.30, room_id="sab", seed=3)
    rir = synthesize_rir(room, SceneQuery((1.2, 1.0, 1.2), (3.2, 2.6, 1.6)))
    t60 = analyze_rir(rir).t60_s
    assert t60 == pytest.approx(room.sabine_t60_s(), rel=0.20)


@pytest.mark.parametrize("absorptions", [(0.2, 0.3, 0.4, 0.6)])
def test_t60_monotone_in_absorption(absorptions):
    query = SceneQuery((1.5, 1.3, 1.1), (4.2, 3.6, 2.1))
    t60s = []
    for absorption in absorptions:
        room = ShoeboxRoom(dims=(6.0, 5.0, 3.2), absorption=absorption, room_id="m", seed=11)
        t60s.append(analyze_rir(synthesize_rir(room, query)).t60_s)
    assert all(later < earlier for earlier, later in zip(t60s, t60s[1:]))


def test_drr_nonincreasing_with_distance():
    """Mid-height axial scenes keep wall bounces out of the direct window,
    so the direct-to-reverberant ratio must follow the 1/d^2 trend."""
    violations = comparisons = 0
    for seed in range(24):
        room = ShoeboxRoom(dims=(10.0, 7.0, 3.6), absorption=0.25, room_id="drr", seed=seed)
        drrs = []
        for distance in (1.0, 2.0, 4.0, 6.0):
            query = SceneQuery((2.0, 3.5, 1.8), (2.0 + distance, 3.5, 1.8))
            drrs.append(analyze_rir(synthesize_rir(room, query)).drr_db)
        for earlier, later in zip(drrs, drrs[1:]):
            comparisons += 1
            if later > earlier:
                violations += 1
    assert violations / comparisons <= 0.05


def test_distance_recovery_small_batch():
    recovered = 0
    for room_id in (1, 7, 13, 19):
        room = builtin_room(room_id)
        for query in sample_scenes(room, 10, seed=42 + room_id):
            rir = synthesize_rir(room, query)
            implied = detect_direct_path(rir) / 32000.0 * 343.0
            if abs(implied - query.distance_m) <= 0.011:
                recovered += 1
    assert recovered >= 39          # at most one coincident-reflection miss


def test_sparse_early_part_extrapolates_the_tail_level():
    """Direct path only, 5 m away: the last 20 ms before the crossover are
    silent, so the tail level comes from the early part's overall level."""
    query = SceneQuery((10.0, 10.0, 10.0), (15.0, 10.0, 10.0))
    rir = synthesize_rir(FREE_FIELD_ROOM, query, DIRECT_ONLY)
    early = rir.samples[:DIRECT_ONLY.crossover_sample]
    assert not np.any(early[-round(0.020 * 32000):])
    tail = rir.samples[DIRECT_ONLY.crossover_sample:]
    assert np.all(np.isfinite(tail)) and np.any(tail != 0.0)
    _assert_matches_reference(FREE_FIELD_ROOM, query, DIRECT_ONLY)


def test_direct_path_after_the_crossover_raises_zero_energy():
    # 38.2 m apart: the direct path arrives at 111 ms, after the 80 ms crossover
    query = SceneQuery((1.0, 1.0, 1.0), (29.0, 27.0, 1.0))
    assert query.distance_m > 0.080 * 343.0
    with pytest.raises(ZeroEnergyError):
        synthesize_rir(FREE_FIELD_ROOM, query, DIRECT_ONLY)


# ---------------------------------------------- reference implementation
#
# The image-source sum and the tail as written before the room-invariant
# work (image mask, wall gains, tail envelope) was cached per room: every
# image distance computed on the full grid, both taps scattered with
# np.add.at, the envelope recomputed per query. The cached path must
# reproduce these bytes exactly.

def _reference_image_part(room, query, config):
    validate_scene(room, query)
    order = config.max_image_order

    per_axis = [_axis_images(room.dims[a], query.source_pos[a], order) for a in range(3)]
    cx, nx = per_axis[0]
    cy, ny = per_axis[1]
    cz, nz = per_axis[2]

    counts = (nx[:, None, None] + ny[None, :, None] + nz[None, None, :]).ravel()
    keep = counts <= order
    dx = (cx[:, None, None] - query.receiver_pos[0]) + np.zeros((1, cy.size, cz.size))
    dy = (cy[None, :, None] - query.receiver_pos[1]) + np.zeros((cx.size, 1, cz.size))
    dz = (cz[None, None, :] - query.receiver_pos[2]) + np.zeros((cx.size, cy.size, 1))
    distances = np.sqrt(dx.ravel() ** 2 + dy.ravel() ** 2 + dz.ravel() ** 2)[keep]
    counts = counts[keep]

    delays_s = distances / config.speed_of_sound
    in_window = delays_s < config.tail_crossover_ms / 1000.0
    distances, counts, delays_s = distances[in_window], counts[in_window], delays_s[in_window]

    out = np.zeros(config.n_samples)
    amplitudes = (1.0 - room.absorption) ** counts / distances
    positions = delays_s * config.sample_rate
    base = np.floor(positions).astype(np.int64)
    frac = positions - base
    np.add.at(out, base, amplitudes * (1.0 - frac))
    np.add.at(out, base + 1, amplitudes * frac)
    return out


def _reference_synthesize(room, query, config):
    early = _reference_image_part(room, query, config)
    n = config.n_samples
    n_cross = config.crossover_sample
    tau = room.decay_tau_s()

    match_len = min(n_cross, round(0.020 * config.sample_rate))
    reference = early[n_cross - match_len:n_cross]
    mean_square = float(reference @ reference) / match_len
    if mean_square <= 0.0:
        nonzero = np.nonzero(early[:n_cross])[0]
        if nonzero.size == 0:
            raise ZeroEnergyError("image-source part is empty, cannot anchor the tail")
        body = early[nonzero[0]:nonzero[-1] + 1]
        midpoint = 0.5 * (nonzero[0] + nonzero[-1])
        decay = np.exp(-((n_cross - midpoint) / config.sample_rate) / tau)
        mean_square = float(body @ body) / body.size * decay ** 2

    t_rel = np.arange(n - n_cross) / config.sample_rate
    envelope = np.exp(-t_rel / tau)
    noise = _tail_rng(room, query).standard_normal(n - n_cross)

    samples = early.copy()
    samples[n_cross:] = np.sqrt(mean_square) * envelope * noise
    return samples


def _outcome(fn, *args):
    """Sample bytes, or the type and message of the error raised."""
    try:
        result = fn(*args)
    except (GeometryError, ZeroEnergyError) as exc:
        return type(exc).__name__, str(exc)
    return (result.samples if isinstance(result, RIRecording) else result).tobytes()


def _assert_matches_reference(room, query, config):
    assert _outcome(image_source_rir, room, query, config) \
        == _outcome(_reference_image_part, room, query, config)
    assert _outcome(synthesize_rir, room, query, config) \
        == _outcome(_reference_synthesize, room, query, config)


_UNIT = st.floats(0.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(dims=st.tuples(*[st.floats(1.0, 30.0)] * 3),
       absorption=st.floats(0.01, 0.99),
       order=st.integers(0, 12),
       crossover_ms=st.floats(5.0, 200.0),
       seed=st.integers(0, 2**31 - 1),
       source=st.tuples(_UNIT, _UNIT, _UNIT),
       receiver=st.tuples(_UNIT, _UNIT, _UNIT))
def test_synthesis_matches_reference_bytes(dims, absorption, order, crossover_ms, seed,
                                           source, receiver):
    room = ShoeboxRoom(dims=dims, absorption=absorption, room_id="h", seed=seed)
    config = SynthesisConfig(max_image_order=order, tail_crossover_ms=crossover_ms)

    def inside(fractions):
        return tuple(0.1 + u * (d - 0.2) for u, d in zip(fractions, room.dims))

    _assert_matches_reference(room, SceneQuery(inside(source), inside(receiver)), config)


def test_interleaved_rooms_never_reuse_a_stale_plan():
    room_a, room_b = builtin_room(2), builtin_room(17)
    coarse = SynthesisConfig(max_image_order=3, tail_crossover_ms=60.0)
    query_a = SceneQuery((1.2, 1.1, 1.0), (3.6, 2.9, 2.1))
    query_b = SceneQuery((2.0, 1.5, 1.2), (7.5, 5.1, 2.8))
    for room, query, config in ((room_a, query_a, DEFAULT_CONFIG),
                                (room_b, query_b, DEFAULT_CONFIG),
                                (room_a, query_a, DEFAULT_CONFIG),
                                (room_a, query_a, coarse)):
        _assert_matches_reference(room, query, config)


# ---------------------------------------------------------------- normalize

def test_normalize_bookkeeping_and_idempotence():
    samples = np.zeros(256)
    samples[10] = 0.25
    samples[80] = -0.1
    normed = normalize_rir(RIRecording(samples=samples.copy()))
    assert float(np.max(np.abs(normed.samples))) == pytest.approx(1.0)
    assert normed.norm_gain == pytest.approx(0.25)
    np.testing.assert_allclose(normed.samples * normed.norm_gain, samples, atol=1e-15)
    again = normalize_rir(RIRecording(samples=normed.samples.copy(), norm_gain=normed.norm_gain))
    np.testing.assert_array_equal(again.samples, normed.samples)
    assert again.norm_gain == pytest.approx(normed.norm_gain)


def test_normalize_zero_energy_raises():
    from rirdist.acoustics import ZeroEnergyError
    with pytest.raises(ZeroEnergyError):
        normalize_rir(RIRecording(samples=np.zeros(16)))


def test_normalize_preserves_analysis_metrics():
    room = builtin_room(5)
    rir = synthesize_rir(room, SceneQuery((1.1, 1.2, 1.3), (3.8, 3.1, 2.0)))
    raw = analyze_rir(rir)
    normed = analyze_rir(normalize_rir(RIRecording(samples=rir.samples.copy())))
    assert normed.direct_index == raw.direct_index
    assert normed.t60_s == pytest.approx(raw.t60_s, rel=1e-9)
    assert normed.drr_db == pytest.approx(raw.drr_db, rel=1e-9)
    assert normed.total_energy_db == pytest.approx(raw.total_energy_db, abs=1e-9)


def _reference_normalize(rir):
    """The parent body, with the peak as ``np.max(np.abs(x))``."""
    peak = float(np.max(np.abs(rir.samples)))
    if peak <= 0.0:
        raise ZeroEnergyError("cannot normalize an all-zero impulse response")
    return RIRecording(samples=rir.samples / peak, sample_rate=rir.sample_rate,
                       source_pos=rir.source_pos, receiver_pos=rir.receiver_pos,
                       room_id=rir.room_id, norm_gain=rir.norm_gain * peak)


def _normalize_outcome(fn, rir):
    """Sample bytes and gain, or the type and message of the error raised."""
    try:
        result = fn(rir)
    except ValueError as exc:   # ZeroEnergyError, or a gain that underflows to 0
        return type(exc).__name__, str(exc)
    return result.samples.tobytes(), result.norm_gain


def _assert_normalize_matches_reference(rir):
    reference = _normalize_outcome(_reference_normalize, rir)
    # in place: the same bytes, written over a copy of the input, which a refusal leaves as it was
    own = RIRecording(samples=rir.samples.copy(), norm_gain=rir.norm_gain)
    outcome = _normalize_outcome(normalize_rir, own)
    assert outcome == reference
    if isinstance(outcome[0], bytes):
        assert own.samples.tobytes() == outcome[0]
    else:
        assert own.samples.tobytes() == rir.samples.tobytes()


@settings(max_examples=150, deadline=None)
@given(samples=hnp.arrays(np.float64, st.integers(1, 3000), elements=st.floats(-1e300, 1e300)),
       gain=st.floats(1e-3, 1e3))
def test_normalize_matches_reference_on_arbitrary_signals(samples, gain):
    _assert_normalize_matches_reference(RIRecording(samples=samples, norm_gain=gain))


@settings(max_examples=150, deadline=None)
@given(samples=hnp.arrays(np.float64, st.integers(2, 2000), elements=st.floats(-1.0, 1.0)),
       peak=st.floats(1.0, 1e3), gain=st.floats(1e-3, 1e3), data=st.data(),
       polarity=st.sampled_from(["negative", "tie", "tie, negative first"]))
def test_normalize_matches_reference_on_negative_and_tied_peaks(samples, peak, gain, data,
                                                                polarity):
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
    _assert_normalize_matches_reference(RIRecording(samples=samples, norm_gain=gain))


# -------------------------------------------------------------- scene sampling

def test_sample_scenes_contract():
    room = builtin_room(1)
    scenes = sample_scenes(room, 50, seed=9)
    assert len(scenes) == 50
    for query in scenes:
        for pos in (query.source_pos, query.receiver_pos):
            for coord, dim in zip(pos, room.dims):
                assert 0.5 <= coord <= dim - 0.5
        assert query.distance_m >= 0.2
    assert sample_scenes(room, 50, seed=9) == scenes
    assert sample_scenes(room, 1, seed=0)[0].distance_m >= 0.2


def test_sample_scenes_rejects_bad_input():
    with pytest.raises(ValueError):
        sample_scenes(builtin_room(1), 0, seed=0)
    tiny = ShoeboxRoom(dims=(1.0, 1.0, 1.0), absorption=0.3, room_id="tiny")
    with pytest.raises(GeometryError):
        sample_scenes(tiny, 1, seed=0)


# ------------------------------------------------------------- builtin rooms

def test_builtin_rooms_inventory():
    ids = builtin_room_ids()
    assert ids == list(range(1, 21))
    for room_id in ids:
        room = builtin_room(room_id)
        assert room.room_id == room_id
        assert 0.0 < room.absorption < 1.0
    with pytest.raises(KeyError):
        builtin_room(99)


def test_builtin_room_groups_have_distinct_reverberation():
    small = [builtin_room(i).sabine_t60_s() for i in range(1, 11)]
    large = [builtin_room(i).sabine_t60_s() for i in range(11, 21)]
    assert 0.25 <= min(small) and max(small) <= 0.85
    assert 0.45 <= min(large) and max(large) <= 1.25
    assert np.median(large) > np.median(small)


@pytest.mark.parametrize("room_id", [1, 5, 15])
def test_enrollment_median_t60_tracks_sabine(room_id):
    from rirdist.filtering import build_reference_profile
    room = builtin_room(room_id)
    rirs = [synthesize_rir(room, q) for q in sample_scenes(room, 20, seed=500 + room_id)]
    profile = build_reference_profile(rirs)
    assert profile.median_t60_s == pytest.approx(room.sabine_t60_s(), rel=0.20)
