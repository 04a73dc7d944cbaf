import dataclasses
import hashlib
import json
import os
import shutil
import socket
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rirdist import acoustics, cli, dataio, filtering
from rirdist import corpus as corpus_module
from rirdist.acoustics import EDC_GRID_POINTS, analyze_rir
from rirdist.cli import main
from rirdist.estimator import FEATURE_NAMES, FEATURE_SCHEMA_VERSION, extract_features
from rirdist.filtering import FilterCriteria
from rirdist.synth import GeometryError, SynthesisConfig, builtin_room

from helpers import (
    GOLDEN_EXPECTED,
    GOLDEN_ROOM_ID,
    dead_pid,
    golden_corpus,
    golden_enrollment,
)


def _write_corpus(directory: Path, entries, seed=0):
    """Lay out WAVs + metadata + manifest the way `generate` would."""
    directory.mkdir(parents=True, exist_ok=True)
    rows = []
    for rir_id, rir in entries:
        dataio.write_wav(directory / f"{rir_id}.wav", rir.samples, rir.sample_rate)
        rows.append({
            "rir_id": rir_id,
            "room_id": rir.room_id,
            "source_pos": list(rir.source_pos),
            "receiver_pos": list(rir.receiver_pos),
            "norm_gain": float(rir.norm_gain),
            "seed": 0,
        })
    dataio.write_jsonl(directory / dataio.METADATA_NAME, rows)
    dataio.write_json(directory / dataio.MANIFEST_NAME, {
        "schema_version": dataio.SCHEMA_VERSION,
        "seed": seed,
        "rooms": [{"room_id": rid} for rid in dict.fromkeys(rir.room_id for _, rir in entries)],
        "n_per_room": len(rows),
        "count": len(rows),
        "sample_rate": 32000,
        "duration_samples": 32000,
    })


@pytest.fixture()
def golden_dirs(tmp_path):
    corpus_dir, enroll_dir = tmp_path / "corpus", tmp_path / "enroll"
    _write_corpus(corpus_dir, sorted(golden_corpus().items()))
    _write_corpus(enroll_dir, [(f"enroll_{i}", rir)
                               for i, rir in enumerate(golden_enrollment())])
    assert main(["analyze", "--in", str(corpus_dir)]) == 0
    return corpus_dir, enroll_dir


@pytest.fixture(scope="module")
def pipeline_dirs(tmp_path_factory):
    """A small end-to-end run shared by the train/eval/report tests."""
    base = tmp_path_factory.mktemp("pipeline")
    corpus, enroll, model_dir = base / "corpus", base / "enroll", base / "model"
    assert main(["generate", "--out", str(corpus), "--rooms", "1-3",
                 "--n", "16", "--seed", "3"]) == 0
    assert main(["generate", "--out", str(enroll), "--rooms", "1-3",
                 "--n", "4", "--seed", "103"]) == 0
    assert main(["analyze", "--in", str(corpus)]) == 0
    assert main(["filter", "--in", str(corpus), "--enrollment", str(enroll)]) == 0
    assert main(["train", "--in", str(corpus), "--out", str(model_dir),
                 "--seed", "3", "--step-grid", "1", "--epoch-grid", "5,10"]) == 0
    return corpus, enroll, model_dir


# -------------------------------------------------------------------- basics

def test_no_subcommand_is_a_usage_error(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().out


def test_filter_help_documents_defaults(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["filter", "--help"])
    assert excinfo.value.code == 0
    text = capsys.readouterr().out
    for token in ("0.8", "7.1", "1.8695", "20%"):
        assert token in text


def test_parser_defaults_are_the_library_defaults():
    parser = cli.build_parser()
    args = parser.parse_args(["filter", "--in", "c", "--enrollment", "e"])
    assert {field: getattr(args, field) for field in dataclasses.asdict(FilterCriteria())} \
        == dataclasses.asdict(FilterCriteria())
    args = parser.parse_args(["generate", "--out", "o", "--n", "1"])
    assert (args.order, args.crossover_ms) \
        == (SynthesisConfig().max_image_order, SynthesisConfig().tail_crossover_ms)


def test_generate_rejects_bad_arguments(tmp_path):
    assert main(["generate", "--out", str(tmp_path / "x"), "--rooms", "1", "--n", "0"]) == 2
    assert main(["generate", "--out", str(tmp_path / "x"), "--rooms", "1,99", "--n", "1"]) == 2


def test_output_lock_blocks_and_cleans_up(tmp_path):
    out = tmp_path / "locked"
    out.mkdir()
    (out / dataio.LOCK_FILENAME).touch()
    assert main(["generate", "--out", str(out), "--rooms", "1", "--n", "1"]) == 2
    assert (out / dataio.LOCK_FILENAME).exists()   # a foreign lock is left alone

    (out / dataio.LOCK_FILENAME).unlink()
    assert main(["generate", "--out", str(out), "--rooms", "1", "--n", "1"]) == 0
    assert not (out / dataio.LOCK_FILENAME).exists()


def test_output_lock_records_its_owner(tmp_path):
    with dataio.output_lock(tmp_path):
        owner = (tmp_path / dataio.LOCK_FILENAME).read_text()
    assert owner == f"{os.getpid()} {socket.gethostname()}\n"
    assert not (tmp_path / dataio.LOCK_FILENAME).exists()


def test_a_lock_left_by_a_dead_run_no_longer_blocks(golden_dirs, tmp_path):
    corpus_dir, enroll_dir = golden_dirs
    out = tmp_path / "generated"
    screened = tmp_path / "screened"
    screened.mkdir()
    assert main(["generate", "--out", str(out), "--rooms", "1", "--n", "1"]) == 0
    for directory in (out, screened):
        (directory / dataio.LOCK_FILENAME).write_text(f"{dead_pid()} {socket.gethostname()}\n")
    assert main(["generate", "--out", str(out), "--rooms", "1", "--n", "1"]) == 0
    assert main(["filter", "--in", str(corpus_dir), "--enrollment", str(enroll_dir),
                 "--out", str(screened)]) == 0
    for directory in (out, screened):
        assert sorted(p.name for p in directory.iterdir() if p.name.startswith(".")) == []

    live = f"{os.getppid()} {socket.gethostname()}\n"   # a live run of this host still blocks
    (out / dataio.LOCK_FILENAME).write_text(live)
    assert main(["generate", "--out", str(out), "--rooms", "1", "--n", "1"]) == 2
    assert (out / dataio.LOCK_FILENAME).read_text() == live


def test_locked_output_names_the_lock_owner(tmp_path, capsys):
    out = tmp_path / "locked"
    out.mkdir()
    (out / dataio.LOCK_FILENAME).write_text("4242 otherhost\n")
    assert main(["generate", "--out", str(out), "--rooms", "1", "--n", "1"]) == 2
    assert "'4242 otherhost'" in capsys.readouterr().err
    assert (out / dataio.LOCK_FILENAME).read_text() == "4242 otherhost\n"


# ------------------------------------------------------------------ generate

def test_generate_writes_complete_corpus(tmp_path):
    out = tmp_path / "corpus"
    assert main(["generate", "--out", str(out), "--rooms", "1,2",
                 "--n", "3", "--seed", "11"]) == 0
    manifest = dataio.read_json(out / dataio.MANIFEST_NAME)
    assert manifest["count"] == 6
    assert manifest["rooms"] == [
        {"room_id": rid, "dims": list(builtin_room(rid).dims),
         "absorption": builtin_room(rid).absorption, "seed": rid} for rid in (1, 2)]
    rows = dataio.read_jsonl(out / dataio.METADATA_NAME)
    assert [row["rir_id"] for row in rows[:3]] \
        == ["room1_0000", "room1_0001", "room1_0002"]
    for row in rows:
        samples, rate = dataio.read_wav(out / f"{row['rir_id']}.wav")
        assert rate == 32000 and samples.size == 32000
        assert np.max(np.abs(samples)) == pytest.approx(1.0, abs=1e-6)
        assert row["norm_gain"] > 0.0
    assert manifest["synthesis_config"] == dataclasses.asdict(SynthesisConfig())

    custom = tmp_path / "custom"
    assert main(["generate", "--out", str(custom), "--rooms", "1", "--n", "1",
                 "--order", "3", "--crossover-ms", "60"]) == 0
    recorded = dataio.read_json(custom / dataio.MANIFEST_NAME)["synthesis_config"]
    assert recorded == dataclasses.asdict(
        SynthesisConfig(max_image_order=3, tail_crossover_ms=60.0))


def _fail_write_wav_after(monkeypatch, n_written):
    """Make generate's WAV writer raise once ``n_written`` WAVs are written."""
    written = []

    def failing_write_wav(path, samples, sample_rate):
        if len(written) == n_written:
            raise OSError("disk full")
        written.append(path)
        dataio.write_wav(path, samples, sample_rate)

    monkeypatch.setattr(cli, "write_wav", failing_write_wav)
    return written


def _snapshot(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_interrupted_regenerate_leaves_old_corpus_whole(tmp_path, monkeypatch):
    out = tmp_path / "corpus"
    assert main(["generate", "--out", str(out), "--rooms", "1", "--n", "3", "--seed", "1"]) == 0
    before = _snapshot(out)
    written = _fail_write_wav_after(monkeypatch, 2)
    assert main(["generate", "--out", str(out), "--rooms", "1", "--n", "3", "--seed", "2"]) == 2
    assert len(written) == 2
    assert _snapshot(out) == before
    assert [p.name for p in tmp_path.iterdir()] == ["corpus"]   # no staging sibling left


def test_regenerate_after_an_interrupted_larger_run_leaves_no_extra_wavs(tmp_path, monkeypatch):
    out = tmp_path / "corpus"
    argv = ["generate", "--out", str(out), "--rooms", "1", "--seed", "1", "--n"]
    assert main(argv + ["3"]) == 0
    with monkeypatch.context() as patch:
        _fail_write_wav_after(patch, 4)
        assert main(argv + ["5"]) == 2
    assert main(argv + ["2"]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [dataio.MANIFEST_NAME, dataio.METADATA_NAME, "room1_0000.wav", "room1_0001.wav"])
    assert [p.name for p in tmp_path.iterdir()] == ["corpus"]


def test_generate_writes_no_wav_after_a_failed_one(tmp_path, monkeypatch):
    out = tmp_path / "corpus"
    assert main(["generate", "--out", str(out), "--rooms", "1", "--n", "3", "--seed", "1"]) == 0
    before = _snapshot(out)
    calls = []

    def failing_write_wav(path, samples, sample_rate):
        calls.append(path)
        if len(calls) == 3:
            time.sleep(0.2)   # the RIRs after it are synthesized and waiting meanwhile
            raise OSError("disk full")
        dataio.write_wav(path, samples, sample_rate)

    monkeypatch.setattr(cli, "write_wav", failing_write_wav)
    assert main(["generate", "--out", str(out), "--rooms", "1", "--n", "8", "--seed", "2"]) == 2
    assert [path.name for path in calls] == [f"room1_000{i}.wav" for i in range(3)]
    assert _snapshot(out) == before
    assert [p.name for p in tmp_path.iterdir()] == ["corpus"]


def test_background_writer_keeps_order_and_stops_at_a_failure():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)   # the threads trade the interpreter lock far more often
    try:
        done = []
        with cli._BackgroundWriter() as writer:
            for i in range(2000):
                writer.submit(done.append, i)
        assert done == list(range(2000))

        def append_below_700(i):
            if i == 700:
                raise OSError("disk full")
            done.append(i)

        done.clear()
        with pytest.raises(OSError, match="disk full"):
            with cli._BackgroundWriter() as writer:
                for i in range(2000):
                    writer.submit(append_below_700, i)
        assert done == list(range(700))
    finally:
        sys.setswitchinterval(interval)


def _slow_write_wav(path, samples, sample_rate):
    time.sleep(0.05)
    dataio.write_wav(path, samples, sample_rate)


def _fail_synthesis_on_call(monkeypatch, n_call):
    """Make generate's ``synthesize_rir`` raise on its ``n_call``-th call."""
    synthesize, calls = cli.synthesize_rir, []

    def failing_synthesize_rir(*args, **kwargs):
        calls.append(args)
        if len(calls) == n_call:
            raise GeometryError("source outside the room")
        return synthesize(*args, **kwargs)

    monkeypatch.setattr(cli, "synthesize_rir", failing_synthesize_rir)


@pytest.mark.parametrize("failure", [None, "write", "synthesis"])
def test_generate_leaves_no_thread_behind(tmp_path, monkeypatch, failure):
    argv = ["generate", "--out", str(tmp_path / "corpus"), "--rooms", "1", "--n", "8"]
    if failure == "write":
        _fail_write_wav_after(monkeypatch, 3)
    elif failure == "synthesis":
        monkeypatch.setattr(cli, "write_wav", _slow_write_wav)
        _fail_synthesis_on_call(monkeypatch, 5)
    before = threading.enumerate()
    assert main(argv) == (0 if failure is None else 2)
    assert threading.enumerate() == before
    assert not list(tmp_path.glob(".corpus.rirdist-new-*"))


def test_regenerate_keeps_out_locked_through_the_swap(tmp_path, monkeypatch):
    out = tmp_path / "corpus"
    argv = ["generate", "--out", str(out), "--rooms", "1", "--n", "1"]
    assert main(argv) == 0
    removals = []
    rmtree = shutil.rmtree

    def watching_rmtree(path, *args, **kwargs):
        lock = out / dataio.LOCK_FILENAME
        removals.append((Path(path).name, lock.read_text() if lock.exists() else None))
        rmtree(path, *args, **kwargs)

    monkeypatch.setattr(shutil, "rmtree", watching_rmtree)
    assert main(argv) == 0
    owner = f"{os.getpid()} {socket.gethostname()}\n"
    assert removals[0] == (f".corpus.rirdist-old-{os.getpid()}", owner)
    assert not (out / dataio.LOCK_FILENAME).exists()


def test_generate_removes_staging_dirs_of_killed_runs(tmp_path):
    out = tmp_path / "corpus"
    argv = ["generate", "--out", str(out), "--rooms", "1", "--n", "1"]
    assert main(argv) == 0
    dead, live = dead_pid(), os.getppid()
    kept = [f".corpus.rirdist-new-{live}", f".corpus.rirdist-old-{dead}",
            f".other.rirdist-new-{dead}", ".corpus.rirdist-new-notapid"]
    for name in kept + [f".corpus.rirdist-new-{dead}"]:
        (tmp_path / name).mkdir()
        (tmp_path / name / "room1_0000.wav").write_bytes(b"partial")
    assert main(argv) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(kept + ["corpus"])


def test_generate_refuses_a_directory_that_is_not_a_corpus(tmp_path, capsys):
    out = tmp_path / "mine"
    out.mkdir()
    (out / "notes.txt").write_text("keep me\n")
    assert main(["generate", "--out", str(out), "--rooms", "1", "--n", "1"]) == 2
    assert "not a rirdist corpus" in capsys.readouterr().err
    assert _snapshot(out) == {"notes.txt": b"keep me\n"}
    assert [p.name for p in tmp_path.iterdir()] == ["mine"]


def test_smaller_regenerate_leaves_no_stale_wavs(tmp_path):
    out = tmp_path / "corpus"
    assert main(["generate", "--out", str(out), "--rooms", "1", "--n", "3", "--seed", "1"]) == 0
    assert main(["generate", "--out", str(out), "--rooms", "1", "--n", "2", "--seed", "1"]) == 0
    rows = dataio.read_jsonl(out / dataio.METADATA_NAME)
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [dataio.MANIFEST_NAME, dataio.METADATA_NAME] + [f"{row['rir_id']}.wav" for row in rows])
    assert len(rows) == 2


def test_regenerate_removes_stale_filter_outputs(pipeline_dirs, tmp_path):
    """A rerun's WAVs must not sit beside the descriptors and decisions of the
    corpus it replaced: same scenes, other WAVs, so the distances still match."""
    corpus = tmp_path / "corpus"
    shutil.copytree(pipeline_dirs[0], corpus)
    assert main(["analyze", "--in", str(corpus)]) == 0
    assert main(["generate", "--out", str(corpus), "--rooms", "1-3", "--n", "16",
                 "--seed", "3", "--order", "2", "--crossover-ms", "20"]) == 0
    for name in (dataio.METRICS_NAME, dataio.DECISIONS_NAME, dataio.SUMMARY_NAME):
        assert not (corpus / name).exists(), name
    assert main(_train_argv(corpus, tmp_path / "model",
                            "--step-grid", "1", "--epoch-grid", "5")) == 3


@pytest.mark.parametrize("rooms", ["1,1", "profile"])
def test_generate_refuses_repeated_room_ids(tmp_path, capsys, rooms):
    if rooms == "profile":
        rooms = tmp_path / "rooms.json"
        rooms.write_text(json.dumps({"rooms": [
            {"room_id": "lab", "dims": [5.0, 4.0, 3.0], "absorption": 0.3, "seed": 4},
            {"room_id": "lab", "dims": [6.0, 4.5, 3.0], "absorption": 0.2, "seed": 5},
        ]}))
    out = tmp_path / "corpus"
    assert main(["generate", "--out", str(out), "--rooms", str(rooms), "--n", "2"]) == 2
    assert "more than once" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("profile, key", [
    ({"room": []}, "rooms"),
    ({"rooms": [{"room_id": "lab", "absorption": 0.3}]}, "dims"),
    ({"rooms": [{"room_id": "lab,2", "dims": [5.0, 4.0, 3.0], "absorption": 0.3}]}, "lab,2"),
    ({"rooms": [{"room_id": "a/b", "dims": [5.0, 4.0, 3.0], "absorption": 0.3}]}, "a/b"),
    ({"rooms": [{"room_id": "lab", "dims": [5.0, 4.0, 3.0], "absorption": 0.3,
                 "seed": "x"}]}, "lab"),
    ({"rooms": [{"room_id": "lab", "dims": [5.0, 4.0, 3.0], "absorption": 0.3,
                 "seed": 2.5}]}, "lab"),
    ({"rooms": [{"room_id": "lab", "dims": [5.0, 4.0, 3.0], "absorption": 0.3,
                 "seed": True}]}, "lab"),
    ({"rooms": [{"room_id": "lab", "dims": [5.0, 4.0], "absorption": 0.3}]}, "lab"),
    ({"rooms": [{"room_id": "lab", "dims": [5.0, "4", 3.0], "absorption": 0.3}]}, "lab"),
    ({"rooms": [{"room_id": "lab", "dims": [5.0, 4.0, 3.0], "absorption": "0.3"}]}, "lab"),
    ({"rooms": [{"room_id": "lab", "dims": [5.0, 4.0, 300.0], "absorption": 0.3}]}, "lab"),
])
def test_generate_refuses_a_malformed_room_profile(tmp_path, capsys, profile, key):
    rooms = tmp_path / "rooms.json"
    rooms.write_text(json.dumps(profile))
    assert main(["generate", "--out", str(tmp_path / "corpus"), "--rooms", str(rooms),
                 "--n", "1"]) == 2
    err = capsys.readouterr().err
    assert str(rooms) in err and repr(key) in err


def test_generate_is_byte_deterministic(tmp_path):
    args = ["--rooms", "1,2", "--n", "2", "--seed", "5"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["generate", "--out", str(a)] + args) == 0
    assert main(["generate", "--out", str(b)] + args) == 0
    for name in sorted(p.name for p in a.iterdir()):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_generate_accepts_room_profile_file(tmp_path):
    profile = tmp_path / "rooms.json"
    profile.write_text(json.dumps({"rooms": [
        {"room_id": "lab", "dims": [5.0, 4.0, 3.0], "absorption": 0.3, "seed": 4},
    ]}))
    out = tmp_path / "corpus"
    assert main(["generate", "--out", str(out), "--rooms", str(profile), "--n", "2"]) == 0
    rows = dataio.read_jsonl(out / dataio.METADATA_NAME)
    assert {row["room_id"] for row in rows} == {"lab"}
    assert (out / "roomlab_0000.wav").exists()


def test_manifest_fingerprints_the_room_parameters(tmp_path):
    """Two rooms that share an id and a seed but differ in size and absorption
    make different WAVs, so their manifests must differ too."""
    manifests = []
    for name, dims, absorption in [("small", [5.0, 4.0, 3.0], 0.3),
                                   ("large", [7.0, 5.0, 3.5], 0.5)]:
        profile = tmp_path / f"{name}.json"
        profile.write_text(json.dumps({"rooms": [
            {"room_id": "lab", "dims": dims, "absorption": absorption, "seed": 4}]}))
        out = tmp_path / name
        assert main(["generate", "--out", str(out), "--rooms", str(profile), "--n", "2"]) == 0
        manifests.append(hashlib.sha256((out / dataio.MANIFEST_NAME).read_bytes()).hexdigest())
    assert manifests[0] != manifests[1]


def test_a_manifest_is_a_room_profile_file(tmp_path):
    """``--rooms <corpus>/manifest.json`` regenerates the corpus byte for byte."""
    profile = tmp_path / "rooms.json"
    profile.write_text(json.dumps({"rooms": [
        {"room_id": "lab", "dims": [5.0, 4.0, 3.0], "absorption": 0.3, "seed": 4}]}))
    for rooms in ("2,5", str(profile)):
        first, again = tmp_path / "first", tmp_path / "again"
        assert main(["generate", "--out", str(first), "--rooms", rooms,
                     "--n", "2", "--seed", "9"]) == 0
        assert main(["generate", "--out", str(again), "--rooms",
                     str(first / dataio.MANIFEST_NAME), "--n", "2", "--seed", "9"]) == 0
        assert _snapshot(again) == _snapshot(first)
        shutil.rmtree(first)
        shutil.rmtree(again)


# ------------------------------------------------------------------- analyze

def test_analyze_emits_one_row_per_rir(tmp_path):
    corpus = tmp_path / "corpus"
    assert main(["generate", "--out", str(corpus), "--rooms", "1",
                 "--n", "3", "--seed", "2"]) == 0
    assert main(["analyze", "--in", str(corpus)]) == 0
    rows = dataio.read_jsonl(corpus / dataio.METRICS_NAME)
    assert len(rows) == dataio.read_json(corpus / dataio.MANIFEST_NAME)["count"]
    for row in rows:
        assert row["t60_s"] > 0.0
        assert row["direct_index"] >= 0
        assert row["distance_m"] > 0.0
        assert len(row["echo_density"]) == 10
        assert row["flags"] == sorted(row["flags"])
        assert abs(row["measured_distance_m"] - row["distance_m"]) < 0.05
        assert list(row)[-1] == "edc_grid_db"
        assert len(row["edc_grid_db"]) == 1068   # base64 of 800 bytes
        grid = corpus_module.decode_grid(row["edc_grid_db"])
        assert grid.size == EDC_GRID_POINTS and grid[0] == 0.0


@settings(max_examples=100, deadline=None)
@given(grid=hnp.arrays(np.float64, EDC_GRID_POINTS, elements=st.floats(width=64)))
def test_the_decay_grid_round_trips_bit_for_bit(grid):
    """Every float64, NaN payloads, -0.0 and subnormals included, through the JSON line."""
    line = json.dumps({"edc_grid_db": corpus_module.encode_grid(grid)})
    decoded = corpus_module.decode_grid(json.loads(line)["edc_grid_db"])
    assert decoded.dtype == np.float64 and decoded.tobytes() == grid.tobytes()


@pytest.mark.parametrize("splice", [lambda t: t[:500] + " " + t[500:], lambda t: t + "\n"],
                         ids=["space", "newline"])
def test_decode_grid_takes_only_the_text_encode_grid_writes(splice):
    """a2b_base64 alone skips whitespace too; filter's stray_character case covers the rest."""
    text = corpus_module.encode_grid(np.linspace(0.0, -60.0, EDC_GRID_POINTS))
    with pytest.raises(ValueError, match="is not base64"):
        corpus_module.decode_grid(splice(text))


def test_analyze_writes_the_grid_analyze_rir_computes(pipeline_dirs):
    corpus, _, _ = pipeline_dirs
    opened = corpus_module.Corpus(corpus)
    rows = dataio.read_jsonl(corpus / dataio.METRICS_NAME)
    for meta, row in zip(opened.rows(), rows[:5]):
        expected = analyze_rir(opened.recording(meta)).edc_grid_db
        assert corpus_module.decode_grid(row["edc_grid_db"]).tobytes() == expected.tobytes()


def test_analyze_records_bad_rows_without_failing_the_run(tmp_path):
    corpus = tmp_path / "corpus"
    assert main(["generate", "--out", str(corpus), "--rooms", "1",
                 "--n", "2", "--seed", "4"]) == 0
    dataio.write_wav(corpus / "room1_0001.wav", np.zeros(32000), 32000)
    assert main(["analyze", "--in", str(corpus)]) == 0
    by_id = {row["rir_id"]: row for row in dataio.read_jsonl(corpus / dataio.METRICS_NAME)}
    assert "error" in by_id["room1_0001"]
    assert "ZeroEnergyError" in by_id["room1_0001"]["error"]
    assert "t60_s" in by_id["room1_0000"]

    dataio.write_wav(corpus / "room1_0000.wav", np.zeros(32000), 32000)
    assert main(["analyze", "--in", str(corpus)]) == 1   # every row failed


def test_analyze_missing_wav_is_missing_data(tmp_path):
    corpus = tmp_path / "corpus"
    assert main(["generate", "--out", str(corpus), "--rooms", "1",
                 "--n", "2", "--seed", "4"]) == 0
    (corpus / "room1_0001.wav").unlink()
    assert main(["analyze", "--in", str(corpus)]) == 3
    assert not (corpus / dataio.METRICS_NAME).exists()


def test_analyze_missing_manifest_is_missing_data(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["analyze", "--in", str(empty)]) == 3


def test_analyze_respects_output_lock(tmp_path):
    corpus = tmp_path / "corpus"
    assert main(["generate", "--out", str(corpus), "--rooms", "1",
                 "--n", "1", "--seed", "2"]) == 0
    (corpus / dataio.LOCK_FILENAME).touch()
    assert main(["analyze", "--in", str(corpus)]) == 2
    assert not (corpus / dataio.METRICS_NAME).exists()
    assert (corpus / dataio.LOCK_FILENAME).exists()


@pytest.mark.parametrize("command, key, value", [
    ("analyze", "source_pos", None),
    ("analyze", "receiver_pos", [1.0, 2.0]),
    ("analyze", "source_pos", [1.0, "2", 3.0]),
    ("filter", "source_pos", None),
    ("train", "receiver_pos", None),
])
def test_a_metadata_row_without_positions_is_a_schema_mismatch(pipeline_dirs, tmp_path, capsys,
                                                                command, key, value):
    corpus, enroll, _ = pipeline_dirs
    copy = tmp_path / "corpus"
    shutil.copytree(corpus, copy)
    rows = dataio.read_jsonl(copy / dataio.METADATA_NAME)
    rows[5][key] = value
    dataio.write_jsonl(copy / dataio.METADATA_NAME, rows)
    argv = {
        "analyze": ["analyze", "--in", str(copy), "--out", str(tmp_path / "metrics.jsonl")],
        "filter": ["filter", "--in", str(copy), "--enrollment", str(enroll),
                   "--out", str(tmp_path / "filtered")],
        "train": ["train", "--in", str(copy), "--out", str(tmp_path / "model")],
    }[command]
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert str(copy / dataio.METADATA_NAME) in err and repr(rows[5]["rir_id"]) in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus"]


# -------------------------------------------------------------------- filter

def test_filter_golden_corpus_end_to_end(golden_dirs):
    corpus_dir, enroll_dir = golden_dirs
    assert main(["filter", "--in", str(corpus_dir),
                 "--enrollment", str(enroll_dir)]) == 0

    decisions = {row["rir_id"]: row
                 for row in dataio.read_jsonl(corpus_dir / dataio.DECISIONS_NAME)}
    assert set(decisions) == set(GOLDEN_EXPECTED)
    for name, expected_reasons in GOLDEN_EXPECTED.items():
        assert decisions[name]["reasons"] == expected_reasons, name
        assert decisions[name]["accepted"] == (not expected_reasons)

    summary = dataio.read_json(corpus_dir / dataio.SUMMARY_NAME)
    assert summary["yield"] == 0.25
    assert summary["n_input"] == 8
    assert summary["n_accepted"] == 2
    assert summary["reason_histogram"] == {
        "T60_OUT_OF_BAND": 1, "T60_ABOVE_CUTOFF": 1,
        "DISTANCE_TOO_CLOSE": 1, "DISTANCE_TOO_FAR": 1,
        "EDC_SHAPE_MISMATCH": 1, "EARLY_REFLECTION_MISMATCH": 1,
    }
    assert summary["criteria"]["t60_rel_tolerance"] == 0.20
    assert summary["criteria"]["t60_hard_cutoff_s"] == 1.8695
    assert summary["criteria"]["min_distance_m"] == 0.8
    assert summary["criteria"]["max_distance_m"] == 7.1
    assert summary["accepted_distance_histogram"]["counts"] == [0, 0, 0, 0, 1, 1]
    assert summary["distance_discrepancy_m"]["max"] == pytest.approx(7.5)


def test_filter_vacuous_criteria_accept_everything(golden_dirs):
    corpus_dir, enroll_dir = golden_dirs
    out = corpus_dir.parent / "vacuous"
    assert main(["filter", "--in", str(corpus_dir), "--enrollment", str(enroll_dir),
                 "--out", str(out),
                 "--dist-min", "0", "--dist-max", "100", "--t60-cutoff", "1e9",
                 "--edc-dev", "1e9", "--echo-dev", "1e9", "--t60-tol", "1e9"]) == 0
    summary = dataio.read_json(out / dataio.SUMMARY_NAME)
    assert summary["yield"] == 1.0
    assert summary["n_rejected"] == 0


def test_filter_thin_enrollment_is_missing_data(golden_dirs, tmp_path):
    corpus_dir, _ = golden_dirs
    thin = tmp_path / "thin"
    _write_corpus(thin, [("only", golden_enrollment()[0])])
    assert main(["filter", "--in", str(corpus_dir), "--enrollment", str(thin)]) == 3


def test_filter_missing_enrollment_room_is_missing_data(golden_dirs, tmp_path):
    corpus_dir, _ = golden_dirs
    other = tmp_path / "other_room"
    rirs = [dataclasses.replace(rir, room_id="elsewhere") for rir in golden_enrollment()]
    _write_corpus(other, [(f"e{i}", rir) for i, rir in enumerate(rirs)])
    assert main(["filter", "--in", str(corpus_dir), "--enrollment", str(other)]) == 3


def test_filter_decodes_only_enrollment_rooms_the_corpus_uses(golden_dirs, tmp_path):
    corpus_dir, _ = golden_dirs
    enroll = tmp_path / "enroll_extra"
    golden = golden_enrollment()
    unused = [dataclasses.replace(rir, room_id="unused") for rir in golden]
    _write_corpus(enroll, [(f"g{i}", rir) for i, rir in enumerate(golden)]
                  + [(f"u{i}", rir) for i, rir in enumerate(unused)])
    for i in range(len(unused)):
        (enroll / f"u{i}.wav").unlink()
    assert main(["filter", "--in", str(corpus_dir), "--enrollment", str(enroll)]) == 0
    decisions = dataio.read_jsonl(corpus_dir / dataio.DECISIONS_NAME)
    assert {row["rir_id"]: row["reasons"] for row in decisions} == GOLDEN_EXPECTED


def _traced_peak(argv) -> int:
    """tracemalloc peak of one CLI run; a ``filter`` run resets it when screening starts."""
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_filter_streams_the_corpus(pipeline_dirs, tmp_path, monkeypatch):
    corpus, enroll, _ = pipeline_dirs
    manifest = dataio.read_json(corpus / dataio.MANIFEST_NAME)
    decoded_corpus_bytes = manifest["count"] * manifest["duration_samples"] * 8
    peak = _traced_peak(["filter", "--in", str(corpus), "--enrollment", str(enroll),
                         "--out", str(tmp_path / "screened")])
    assert peak < decoded_corpus_bytes / 2

    def screen_from_here(*args, **kwargs):   # leaves out building the enrollment profiles
        tracemalloc.reset_peak()
        return filtering.filter_batch(*args, **kwargs)

    monkeypatch.setattr(cli, "filter_batch", screen_from_here)
    # analyze and the screening loop keep a few numbers per RIR, not its row or metadata
    peaks = {"analyze": [], "filter": []}
    for n in (32, 64):
        doubled = tmp_path / f"corpus{n}"
        assert main(["generate", "--out", str(doubled), "--rooms", "1-3",
                     "--n", str(n), "--seed", "3"]) == 0
        peaks["analyze"].append(_traced_peak(["analyze", "--in", str(doubled)]))
        peaks["filter"].append(_traced_peak(["filter", "--in", str(doubled), "--enrollment",
                                             str(enroll), "--out", str(tmp_path / f"out{n}")]))
    for stage, (single, double) in peaks.items():
        assert double - single < 3 * 32 * 256, (stage, single, double)


def test_decisions_carry_each_rirs_features(pipeline_dirs):
    corpus_dir, _, _ = pipeline_dirs
    opened = corpus_module.Corpus(corpus_dir)
    metadata = {row["rir_id"]: row for row in opened.rows()}
    rows = dataio.read_jsonl(corpus_dir / dataio.DECISIONS_NAME)
    assert any(row["accepted"] for row in rows)
    for row in rows:
        if row["t60_s"] is None:                 # no metrics, so no features
            assert "features" not in row
            continue
        assert list(row)[-2:] == ["feature_schema_version", "features"]
        assert row["feature_schema_version"] == FEATURE_SCHEMA_VERSION
        rir = opened.recording(metadata[row["rir_id"]])
        recomputed = extract_features(analyze_rir(rir)).as_array()
        assert [row["features"][name].hex() for name in FEATURE_NAMES] \
            == [float(value).hex() for value in recomputed]


def test_metrics_rows_are_decision_rows_without_the_verdict(golden_dirs):
    """filter builds its rows from analyze's: a decisions row is the metrics row
    with ``accepted`` and ``reasons`` after ``rir_id`` and without ``edc_grid_db``."""
    corpus, enroll = golden_dirs
    first = dataio.read_jsonl(corpus / dataio.METADATA_NAME)[0]["rir_id"]
    dataio.write_wav(corpus / f"{first}.wav", np.zeros(32000), 32000)   # an error row
    assert main(["analyze", "--in", str(corpus)]) == 0
    assert main(["filter", "--in", str(corpus), "--enrollment", str(enroll)]) == 0
    metrics = dataio.read_jsonl(corpus / dataio.METRICS_NAME)
    decisions = dataio.read_jsonl(corpus / dataio.DECISIONS_NAME)
    assert len(metrics) == len(decisions)
    assert "error" in metrics[0] and metrics[0]["t60_s"] is None
    assert metrics[0]["edc_grid_db"] is None
    assert decisions[0]["error"] == metrics[0]["error"] and not decisions[0]["accepted"]
    for described, decided in zip(metrics, decisions):
        assert described.pop("edc_grid_db", "absent") != "absent"
        assert list(decided)[:3] == ["rir_id", "accepted", "reasons"]
        assert list(decided)[3:] == list(described)[1:]
        assert {key: decided[key] for key in described} == described


def test_filter_without_metrics_names_the_analyze_to_run(golden_dirs, capsys):
    corpus, enroll = golden_dirs
    (corpus / dataio.METRICS_NAME).unlink()
    assert main(["filter", "--in", str(corpus), "--enrollment", str(enroll)]) == 3
    assert f"rirdist analyze --in {corpus}" in capsys.readouterr().err
    assert not (corpus / dataio.DECISIONS_NAME).exists()


def _reordered(rows):
    return rows[1:] + rows[:1]


def _without_grids(rows):
    return [{key: value for key, value in row.items() if key != "edc_grid_db"} for row in rows]


def _truncated_grid(rows):
    grid = corpus_module.decode_grid(rows[2]["edc_grid_db"])
    rows[2]["edc_grid_db"] = corpus_module.encode_grid(grid[:10])
    return rows


def _list_grid(rows):
    """The grid as an older analyze wrote it: a list of floats."""
    rows[2]["edc_grid_db"] = corpus_module.decode_grid(rows[2]["edc_grid_db"]).tolist()
    return rows


def _not_base64_grid(rows):
    """binascii.Error is a ValueError, which would exit 2 if it were not caught."""
    rows[2]["edc_grid_db"] = "not base64!"
    return rows


def _stray_character_grid(rows):
    """a2b_base64 alone skips the stray character and decodes 800 bytes all the same."""
    text = rows[2]["edc_grid_db"]
    rows[2]["edc_grid_db"] = text[:500] + "!" + text[500:]
    return rows


def _moved(rows):
    rows[1]["distance_m"] += 1e-9
    return rows


@pytest.mark.parametrize("edit", [_reordered, _without_grids, _truncated_grid, _moved,
                                  lambda rows: rows[:-1], lambda rows: rows + rows[:1],
                                  _list_grid, _not_base64_grid, _stray_character_grid],
                         ids=["reordered", "no_grid", "short_grid", "moved", "short", "long",
                              "list_grid", "not_base64_grid", "stray_character_grid"])
def test_filter_refuses_metrics_of_another_corpus(golden_dirs, capsys, edit):
    corpus, enroll = golden_dirs
    rows = dataio.read_jsonl(corpus / dataio.METRICS_NAME)
    dataio.write_jsonl(corpus / dataio.METRICS_NAME, edit(rows))
    assert main(["filter", "--in", str(corpus), "--enrollment", str(enroll)]) == 4
    assert f"rirdist analyze --in {corpus}" in capsys.readouterr().err
    assert not (corpus / dataio.DECISIONS_NAME).exists()
    assert not (corpus / dataio.LOCK_FILENAME).exists()


def test_filter_reads_each_manifest_and_metadata_file_once(golden_dirs, monkeypatch):
    corpus, enroll = golden_dirs
    manifests = _count_calls(monkeypatch, "read_json", corpus_module)
    walked = []

    def counting_iter_jsonl(path):
        walked.append(Path(path).relative_to(corpus.parent))
        return dataio.iter_jsonl(path)

    monkeypatch.setattr(corpus_module, "iter_jsonl", counting_iter_jsonl)
    assert main(["filter", "--in", str(corpus), "--enrollment", str(enroll)]) == 0
    assert len(manifests) == 2   # the corpus's and the enrollment's
    assert sorted(map(str, walked)) == sorted(
        ["corpus/metadata.jsonl", "corpus/metrics.jsonl", "enroll/metadata.jsonl"])


def test_a_truncated_metrics_line_is_named_by_file_and_line(golden_dirs, capsys):
    corpus, enroll = golden_dirs
    path = corpus / dataio.METRICS_NAME
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:2]) + lines[2][:len(lines[2]) // 2] + "\n")
    assert main(["filter", "--in", str(corpus), "--enrollment", str(enroll)]) == 2
    assert f"{path}:3: " in capsys.readouterr().err
    assert not (corpus / dataio.DECISIONS_NAME).exists()


def test_filter_refuses_a_manifest_without_room_profiles(golden_dirs, capsys):
    corpus, enroll = golden_dirs
    manifest = dataio.read_json(corpus / dataio.MANIFEST_NAME)
    manifest["rooms"] = [GOLDEN_ROOM_ID]   # bare ids, not the profiles generate writes
    dataio.write_json(corpus / dataio.MANIFEST_NAME, manifest)
    assert main(["filter", "--in", str(corpus), "--enrollment", str(enroll)]) == 4
    assert "lists no room profiles" in capsys.readouterr().err
    assert not (corpus / dataio.DECISIONS_NAME).exists()


def test_filter_refuses_the_metrics_of_a_foreign_corpus(golden_dirs, tmp_path):
    corpus, enroll = golden_dirs
    foreign = tmp_path / "foreign"       # other rir_ids, other scenes
    assert main(["generate", "--out", str(foreign), "--rooms", "1", "--n", "8"]) == 0
    assert main(["analyze", "--in", str(foreign)]) == 0
    shutil.copy(foreign / dataio.METRICS_NAME, corpus / dataio.METRICS_NAME)
    assert main(["filter", "--in", str(corpus), "--enrollment", str(enroll)]) == 4


# ------------------------------------------------------------ train and eval

def test_pipeline_train_outputs(pipeline_dirs):
    _, _, model_dir = pipeline_dirs
    grid = dataio.read_json(model_dir / dataio.GRID_NAME)
    assert grid["best"]["step_fraction"] == 1.0
    assert grid["best"]["epochs"] in (5, 10)
    assert len(grid["cells"]) == 2
    assert all(cell["error"] is None for cell in grid["cells"])

    model = dataio.read_json(model_dir / dataio.MODEL_NAME)
    assert model["schema_version"] == dataio.SCHEMA_VERSION
    assert model["feature_schema_version"] == 1
    assert len(model["weights"]) == 6
    assert model["final_loss"] is not None

    holdout = dataio.read_jsonl(model_dir / dataio.HOLDOUT_NAME)
    assert holdout, "holdout fraction 0.2 must leave rows behind"
    for row in holdout:
        assert row["feature_schema_version"] == 1
        assert set(row["features"]) == {"drr_db", "log_t60", "direct_delay_ms",
                                        "early_late_ratio_db", "total_energy_db", "bias"}
        assert row["distance_m"] > 0.0


def test_pipeline_eval_and_report(pipeline_dirs, tmp_path):
    _, _, model_dir = pipeline_dirs
    eval_dir, report_dir = tmp_path / "eval", tmp_path / "report"
    assert main(["eval", "--model", str(model_dir / dataio.MODEL_NAME),
                 "--dataset", str(model_dir / dataio.HOLDOUT_NAME),
                 "--out", str(eval_dir)]) == 0

    payload = dataio.read_json(eval_dir / dataio.EVAL_NAME)
    n_holdout = len(dataio.read_jsonl(model_dir / dataio.HOLDOUT_NAME))
    assert payload["n_samples"] == n_holdout
    assert payload["mae_m"] >= 0.0
    assert len(payload["per_range"]) == 4

    csv_lines = (eval_dir / dataio.PER_SAMPLE_NAME).read_text().splitlines()
    assert csv_lines[0] == "rir_id,true_m,predicted_m,residual_m"
    assert len(csv_lines) == n_holdout + 1

    assert main(["report", "--eval", str(eval_dir / dataio.EVAL_NAME),
                 "--out", str(report_dir), "--svg"]) == 0
    text = (report_dir / "report.txt").read_text()
    assert "MAE" in text and "per-range" in text
    per_range = (report_dir / "per_range.csv").read_text().splitlines()
    assert per_range[0] == "lo_m,hi_m,n,mae_m"
    assert len(per_range) == 5
    hist_lines = (report_dir / "histogram.csv").read_text().splitlines()
    assert len(hist_lines) == len(payload["histogram"]["truth_counts"]) + 1
    assert (report_dir / "scatter.svg").read_text().startswith("<svg")


def test_failed_report_leaves_its_output_directory_as_it_was(pipeline_dirs, tmp_path, capsys):
    _, _, model_dir = pipeline_dirs
    eval_dir, report_dir = tmp_path / "eval", tmp_path / "report"
    assert main(["eval", "--model", str(model_dir / dataio.MODEL_NAME),
                 "--dataset", str(model_dir / dataio.HOLDOUT_NAME),
                 "--out", str(eval_dir)]) == 0
    report_dir.mkdir()
    for name in ("report.txt", "per_range.csv", "histogram.csv", "scatter.svg"):
        (report_dir / name).write_text(f"an earlier {name}\n")
    before = _snapshot(report_dir)
    report_argv = ["report", "--eval", str(eval_dir / dataio.EVAL_NAME), "--svg", "--out"]
    per_sample = eval_dir / dataio.PER_SAMPLE_NAME
    with open(per_sample, "a") as handle:
        handle.write("roomlab,2_0000,1.0,2.0,1.0\n")   # an id with a comma in it
    capsys.readouterr()
    assert main(report_argv + [str(report_dir)]) == 2
    assert str(per_sample) in capsys.readouterr().err
    assert _snapshot(report_dir) == before
    assert main(report_argv + [str(tmp_path / "fresh")]) == 2
    assert not (tmp_path / "fresh").exists()


def test_report_text_names_the_payload_bin_width():
    payload = {"n_samples": 1, "mae_m": 0.0, "pearson_r": None, "per_range": [],
               "histogram": {"bin_width_m": 0.25, "truth_counts": [1],
                             "predicted_counts": [0]}}
    text = cli._render_tables(payload)["report.txt"]
    assert "distance histogram (0.25 m bins)" in text
    assert "[0, 0.25)" in text


def _count_calls(monkeypatch, name, *modules):
    """Record every call of ``name`` made through its binding in ``modules``."""
    original = getattr(modules[0], name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counting)
    return calls


def test_filter_and_train_do_one_descriptor_pass_per_rir(pipeline_dirs, tmp_path,
                                                          monkeypatch):
    """analyze decodes and integrates each corpus RIR once, filter only each
    enrollment RIR, and train neither."""
    source, enroll, _ = pipeline_dirs
    corpus = tmp_path / "corpus"
    shutil.copytree(source, corpus)
    n_corpus = len(dataio.read_jsonl(corpus / dataio.METADATA_NAME))
    n_enroll = len(dataio.read_jsonl(enroll / dataio.METADATA_NAME))
    edc_calls = _count_calls(monkeypatch, "schroeder_edc", acoustics)
    wav_reads = _count_calls(monkeypatch, "read_wav", dataio, corpus_module)
    assert main(["analyze", "--in", str(corpus)]) == 0
    assert (len(wav_reads), len(edc_calls)) == (n_corpus, n_corpus)
    screened = tmp_path / "screened"
    assert main(["filter", "--in", str(corpus), "--enrollment", str(enroll),
                 "--out", str(screened)]) == 0
    assert (len(wav_reads), len(edc_calls)) == (n_corpus + n_enroll, n_corpus + n_enroll)

    decisions = screened / dataio.DECISIONS_NAME
    accepted = sum(row["accepted"] for row in dataio.read_jsonl(decisions))
    assert 0 < accepted < n_corpus
    assert main(["train", "--in", str(corpus), "--decisions", str(decisions),
                 "--out", str(tmp_path / "model"), "--seed", "3",
                 "--step-grid", "1", "--epoch-grid", "5"]) == 0
    assert (len(wav_reads), len(edc_calls)) == (n_corpus + n_enroll, n_corpus + n_enroll)


def _train_argv(corpus, out, *extra):
    return ["train", "--in", str(corpus), "--out", str(out), "--seed", "3", *extra]


def test_train_refuses_decisions_without_features(pipeline_dirs, tmp_path):
    corpus, _, _ = pipeline_dirs
    rows = dataio.read_jsonl(corpus / dataio.DECISIONS_NAME)
    for row in rows:
        row.pop("feature_schema_version", None)
        row.pop("features", None)
    old_format = tmp_path / "decisions.jsonl"
    dataio.write_jsonl(old_format, rows)
    out = tmp_path / "model"
    assert main(_train_argv(corpus, out, "--decisions", str(old_format))) == 4
    assert not out.exists()


@pytest.mark.parametrize("accepted", ["absent", None, 1, "true"])
def test_train_refuses_a_decision_without_a_bool_verdict(pipeline_dirs, tmp_path, capsys,
                                                         accepted):
    corpus, _, _ = pipeline_dirs
    rows = dataio.read_jsonl(corpus / dataio.DECISIONS_NAME)
    if accepted == "absent":
        del rows[3]["accepted"]
    else:
        rows[3]["accepted"] = accepted
    decisions = tmp_path / "decisions.jsonl"
    dataio.write_jsonl(decisions, rows)
    out = tmp_path / "model"
    assert main(_train_argv(corpus, out, "--decisions", str(decisions),
                            "--step-grid", "1", "--epoch-grid", "5")) == 4
    err = capsys.readouterr().err
    assert str(decisions) in err and repr(rows[3]["rir_id"]) in err
    assert not out.exists()


def test_train_refuses_decisions_of_another_corpus(pipeline_dirs, tmp_path):
    corpus, _, _ = pipeline_dirs
    other = tmp_path / "other"       # same rooms and rir_ids, other scenes
    assert main(["generate", "--out", str(other), "--rooms", "1-3",
                 "--n", "16", "--seed", "4"]) == 0
    out = tmp_path / "model"
    assert main(_train_argv(other, out, "--decisions", str(corpus / dataio.DECISIONS_NAME),
                            "--step-grid", "1", "--epoch-grid", "5")) == 4
    assert not out.exists()


def test_train_refuses_decisions_that_do_not_cover_the_corpus(pipeline_dirs, tmp_path):
    corpus, _, _ = pipeline_dirs
    rows = dataio.read_jsonl(corpus / dataio.DECISIONS_NAME)
    out = tmp_path / "model"
    for cut in (rows[:len(rows) // 2], rows + rows[:1]):   # truncated; one id repeated
        decisions = tmp_path / "decisions.jsonl"
        dataio.write_jsonl(decisions, cut)
        assert main(_train_argv(corpus, out, "--decisions", str(decisions),
                                "--step-grid", "1", "--epoch-grid", "5")) == 4
        assert not out.exists()


def test_train_refuses_decisions_out_of_corpus_order(pipeline_dirs, tmp_path, capsys):
    """filter writes rows in corpus order; train reads them in step with the metadata."""
    corpus, _, _ = pipeline_dirs
    rows = dataio.read_jsonl(corpus / dataio.DECISIONS_NAME)
    decisions = tmp_path / "decisions.jsonl"
    dataio.write_jsonl(decisions, rows[1:2] + rows[:1] + rows[2:])
    out = tmp_path / "model"
    assert main(_train_argv(corpus, out, "--decisions", str(decisions),
                            "--step-grid", "1", "--epoch-grid", "5")) == 4
    assert f"rirdist filter --in {corpus}" in capsys.readouterr().err
    assert not out.exists()


def test_train_with_every_grid_cell_failing_exits_2(pipeline_dirs, tmp_path, capsys):
    """Steps of 5/L diverge, and of 1e300/L overflow: each cell is refused as diverged."""
    corpus, _, _ = pipeline_dirs
    out = tmp_path / "model"
    assert main(_train_argv(corpus, out, "--step-grid", "5,1e300", "--epoch-grid", "50")) == 2
    err = capsys.readouterr().err
    assert "every grid cell failed" in err and "diverged" in err
    assert not out.exists()


def test_an_absolute_learning_rate_grid_is_a_usage_error(tmp_path):
    """Steps are fractions of 1/L now; an old ``--lr-grid 1e-4`` is refused,
    not read as a step of 1e-4 / L."""
    with pytest.raises(SystemExit) as excinfo:
        main(_train_argv(tmp_path, tmp_path / "model", "--lr-grid", "1e-4"))
    assert excinfo.value.code == 2


def test_train_converges_where_a_fixed_rate_diverged(tmp_path):
    """Rooms 1-20 x 30 scenes at seed 7: a fixed learning rate of 1e-3 won the
    grid on the 80 % split and then diverged on the whole fit pool, whose
    larger row count made its summed-squared-error step larger. Steps in
    units of each dataset's own 1/L converge on both."""
    corpus, enroll, out = tmp_path / "corpus", tmp_path / "enroll", tmp_path / "model"
    assert main(["generate", "--out", str(corpus), "--rooms", "1-20", "--n", "30",
                 "--seed", "7"]) == 0
    assert main(["generate", "--out", str(enroll), "--rooms", "1-20", "--n", "20",
                 "--seed", "1007"]) == 0
    assert main(["analyze", "--in", str(corpus)]) == 0
    assert main(["filter", "--in", str(corpus), "--enrollment", str(enroll)]) == 0
    assert main(["train", "--in", str(corpus), "--out", str(out), "--seed", "7",
                 "--holdout", "0.2"]) == 0

    grid = dataio.read_json(out / dataio.GRID_NAME)
    assert all(cell["error"] is None for cell in grid["cells"])   # none diverged
    held = {row["rir_id"] for row in dataio.read_jsonl(out / dataio.HOLDOUT_NAME)}
    pool = [row["distance_m"] for row in dataio.read_jsonl(corpus / dataio.DECISIONS_NAME)
            if row["accepted"] and row["rir_id"] not in held]
    zero_weights_loss = float(np.mean(np.square(pool)))
    assert dataio.read_json(out / dataio.MODEL_NAME)["final_loss"] <= zero_weights_loss


def test_train_without_decisions_is_missing_data(tmp_path):
    corpus = tmp_path / "corpus"
    assert main(["generate", "--out", str(corpus), "--rooms", "1",
                 "--n", "2", "--seed", "8"]) == 0
    assert main(["train", "--in", str(corpus), "--out", str(tmp_path / "m")]) == 3


def test_eval_missing_model_is_missing_data(tmp_path):
    assert main(["eval", "--model", str(tmp_path / "nope.json"),
                 "--dataset", str(tmp_path / "nope.jsonl"),
                 "--out", str(tmp_path / "out")]) == 3


def test_eval_foreign_model_schema_is_rejected(pipeline_dirs, tmp_path):
    _, _, model_dir = pipeline_dirs
    payload = dataio.read_json(model_dir / dataio.MODEL_NAME)
    payload["feature_schema_version"] = 99
    broken = tmp_path / "broken_model.json"
    dataio.write_json(broken, payload)
    assert main(["eval", "--model", str(broken),
                 "--dataset", str(model_dir / dataio.HOLDOUT_NAME),
                 "--out", str(tmp_path / "out")]) == 4


@pytest.mark.parametrize("key", ["train_config", "weights", "feature_means"])
def test_eval_on_a_model_missing_a_key_is_a_schema_mismatch(pipeline_dirs, tmp_path, capsys,
                                                             key):
    _, _, model_dir = pipeline_dirs
    payload = dataio.read_json(model_dir / dataio.MODEL_NAME)
    del payload[key]
    broken = tmp_path / "model.json"
    dataio.write_json(broken, payload)
    assert main(["eval", "--model", str(broken),
                 "--dataset", str(model_dir / dataio.HOLDOUT_NAME),
                 "--out", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err
    assert str(broken) in err and key in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("edit", [lambda p: p.pop("per_range"), lambda p: p.pop("histogram"),
                                  lambda p: p.update(per_range=[None])],
                         ids=["no_per_range", "no_histogram", "null_bucket"])
def test_report_on_a_malformed_eval_is_a_schema_mismatch(pipeline_dirs, tmp_path, capsys, edit):
    _, _, model_dir = pipeline_dirs
    eval_dir = tmp_path / "eval"
    assert main(["eval", "--model", str(model_dir / dataio.MODEL_NAME),
                 "--dataset", str(model_dir / dataio.HOLDOUT_NAME),
                 "--out", str(eval_dir)]) == 0
    payload = dataio.read_json(eval_dir / dataio.EVAL_NAME)
    edit(payload)
    dataio.write_json(eval_dir / dataio.EVAL_NAME, payload)
    assert main(["report", "--eval", str(eval_dir / dataio.EVAL_NAME),
                 "--out", str(tmp_path / "report")]) == 4
    assert str(eval_dir / dataio.EVAL_NAME) in capsys.readouterr().err
    assert not (tmp_path / "report").exists()


def test_analyze_rows_evaluate_and_their_decay_grid_is_ignored(pipeline_dirs, tmp_path):
    """``analyze --in enroll`` then ``eval --dataset enroll/metrics.jsonl`` scores the
    trusted set; eval reads the feature keys and nothing else of a row."""
    _, enroll, model_dir = pipeline_dirs
    analyzed = tmp_path / "enroll"
    shutil.copytree(enroll, analyzed)
    assert main(["analyze", "--in", str(analyzed)]) == 0
    rows = dataio.read_jsonl(analyzed / dataio.METRICS_NAME)
    assert all(corpus_module.decode_grid(row["edc_grid_db"]).size == EDC_GRID_POINTS
               for row in rows)
    stripped = tmp_path / "stripped.jsonl"
    dataio.write_jsonl(stripped, [{key: row[key] for key in
                                   ("rir_id", "distance_m", "feature_schema_version", "features")}
                                  for row in rows])
    outputs = []
    for dataset in (analyzed / dataio.METRICS_NAME, stripped):
        out = tmp_path / f"eval_{dataset.stem}"
        assert main(["eval", "--model", str(model_dir / dataio.MODEL_NAME),
                     "--dataset", str(dataset), "--out", str(out)]) == 0
        outputs.append(_snapshot(out))
    assert dataio.read_json(tmp_path / "eval_metrics" / dataio.EVAL_NAME)["n_samples"] \
        == len(rows)
    assert outputs[0] == outputs[1]


def test_eval_foreign_feature_rows_are_rejected(pipeline_dirs, tmp_path):
    _, _, model_dir = pipeline_dirs
    rows = dataio.read_jsonl(model_dir / dataio.HOLDOUT_NAME)
    rows[0]["feature_schema_version"] = 0
    broken = tmp_path / "broken_holdout.jsonl"
    dataio.write_jsonl(broken, rows)
    assert main(["eval", "--model", str(model_dir / dataio.MODEL_NAME),
                 "--dataset", str(broken),
                 "--out", str(tmp_path / "out")]) == 4


def test_eval_refuses_an_analyze_error_row_naming_it(pipeline_dirs, tmp_path, capsys):
    """A row analyze could not describe has no features: eval refuses the dataset
    and says which row and why, rather than blaming the row's schema."""
    _, enroll, model_dir = pipeline_dirs
    analyzed = tmp_path / "enroll"
    shutil.copytree(enroll, analyzed)
    failed = dataio.read_jsonl(analyzed / dataio.METADATA_NAME)[1]["rir_id"]
    dataio.write_wav(analyzed / f"{failed}.wav", np.zeros(32000), 32000)
    assert main(["analyze", "--in", str(analyzed)]) == 0
    out = tmp_path / "eval"
    assert main(["eval", "--model", str(model_dir / dataio.MODEL_NAME),
                 "--dataset", str(analyzed / dataio.METRICS_NAME), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert repr(failed) in err and "ZeroEnergyError: " in err and "schema" not in err
    assert not out.exists()


def test_train_room_subset(pipeline_dirs, tmp_path):
    corpus, _, _ = pipeline_dirs
    out = tmp_path / "subset_model"
    assert main(["train", "--in", str(corpus), "--out", str(out), "--seed", "3",
                 "--rooms", "1-2", "--step-grid", "1", "--epoch-grid", "5"]) == 0
    assert (out / dataio.MODEL_NAME).exists()
