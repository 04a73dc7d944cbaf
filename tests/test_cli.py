import dataclasses
import json
import os
import socket
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from rirdist import acoustics, cli, dataio, filtering
from rirdist.acoustics import analyze_rir
from rirdist.cli import main
from rirdist.estimator import FEATURE_NAMES, FEATURE_SCHEMA_VERSION, extract_features
from rirdist.synth import SynthesisConfig

from helpers import GOLDEN_EXPECTED, GOLDEN_ROOM_ID, golden_corpus, golden_enrollment


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
        "rooms": sorted({str(rir.room_id) for _, rir in entries}),
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
    assert main(["filter", "--in", str(corpus), "--enrollment", str(enroll)]) == 0
    assert main(["train", "--in", str(corpus), "--out", str(model_dir),
                 "--seed", "3", "--lr-grid", "1e-4", "--epoch-grid", "5,10"]) == 0
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
    assert manifest["rooms"] == [1, 2]
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


def test_interrupted_regenerate_leaves_no_completion_marker(tmp_path, monkeypatch):
    out = tmp_path / "corpus"
    assert main(["generate", "--out", str(out), "--rooms", "1", "--n", "3", "--seed", "1"]) == 0
    written = []

    def failing_write_wav(path, samples, sample_rate):
        if len(written) == 2:
            raise OSError("disk full")
        written.append(path)
        dataio.write_wav(path, samples, sample_rate)

    monkeypatch.setattr(cli, "write_wav", failing_write_wav)
    assert main(["generate", "--out", str(out), "--rooms", "1", "--n", "3", "--seed", "2"]) == 2
    assert len(written) == 2
    assert not (out / dataio.MANIFEST_NAME).exists()
    assert main(["analyze", "--in", str(out)]) == 3


def test_smaller_regenerate_leaves_no_stale_wavs(tmp_path):
    out = tmp_path / "corpus"
    assert main(["generate", "--out", str(out), "--rooms", "1", "--n", "3", "--seed", "1"]) == 0
    assert main(["generate", "--out", str(out), "--rooms", "1", "--n", "2", "--seed", "1"]) == 0
    rows = dataio.read_jsonl(out / dataio.METADATA_NAME)
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [dataio.MANIFEST_NAME, dataio.METADATA_NAME] + [f"{row['rir_id']}.wav" for row in rows])
    assert len(rows) == 2


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
        assert row["metadata_distance_m"] > 0.0
        assert len(row["echo_density"]) == 10
        assert row["flags"] == sorted(row["flags"])
        assert abs(row["measured_distance_m"] - row["metadata_distance_m"]) < 0.05


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


def test_filter_streams_the_corpus(pipeline_dirs, tmp_path):
    corpus, enroll, _ = pipeline_dirs
    manifest = dataio.read_json(corpus / dataio.MANIFEST_NAME)
    decoded_corpus_bytes = manifest["count"] * manifest["duration_samples"] * 8
    tracemalloc.start()
    try:
        assert main(["filter", "--in", str(corpus), "--enrollment", str(enroll),
                     "--out", str(tmp_path / "screened")]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < decoded_corpus_bytes / 2


def test_decisions_carry_each_rirs_features(pipeline_dirs):
    corpus, _, _ = pipeline_dirs
    metadata = {row["rir_id"]: row for row in dataio.read_jsonl(corpus / dataio.METADATA_NAME)}
    rows = dataio.read_jsonl(corpus / dataio.DECISIONS_NAME)
    assert any(row["accepted"] for row in rows)
    for row in rows:
        if row["t60_s"] is None:                 # no metrics, so no features
            assert "features" not in row
            continue
        assert list(row)[-2:] == ["feature_schema_version", "features"]
        assert row["feature_schema_version"] == FEATURE_SCHEMA_VERSION
        rir = cli._read_recording(corpus, metadata[row["rir_id"]])
        recomputed = extract_features(analyze_rir(rir)).as_array()
        assert [row["features"][name].hex() for name in FEATURE_NAMES] \
            == [float(value).hex() for value in recomputed]


# ------------------------------------------------------------ train and eval

def test_pipeline_train_outputs(pipeline_dirs):
    _, _, model_dir = pipeline_dirs
    grid = dataio.read_json(model_dir / dataio.GRID_NAME)
    assert grid["best"]["learning_rate"] == 1e-4
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


def test_report_text_names_the_payload_bin_width():
    payload = {"n_samples": 1, "mae_m": 0.0, "pearson_r": None, "per_range": [],
               "histogram": {"bin_width_m": 0.25, "truth_counts": [1],
                             "predicted_counts": [0]}}
    text = cli._render_report_text(payload)
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
    corpus, enroll, _ = pipeline_dirs
    n_corpus = len(dataio.read_jsonl(corpus / dataio.METADATA_NAME))
    n_enroll = len(dataio.read_jsonl(enroll / dataio.METADATA_NAME))
    edc_calls = _count_calls(monkeypatch, "schroeder_edc", acoustics, filtering)
    screened = tmp_path / "screened"
    assert main(["filter", "--in", str(corpus), "--enrollment", str(enroll),
                 "--out", str(screened)]) == 0
    assert len(edc_calls) == n_corpus + n_enroll

    decisions = screened / dataio.DECISIONS_NAME
    accepted = sum(row["accepted"] for row in dataio.read_jsonl(decisions))
    assert 0 < accepted < n_corpus
    wav_reads = _count_calls(monkeypatch, "read_wav", dataio, cli)
    assert main(["train", "--in", str(corpus), "--decisions", str(decisions),
                 "--out", str(tmp_path / "model"), "--seed", "3",
                 "--lr-grid", "1e-4", "--epoch-grid", "5"]) == 0
    assert wav_reads == []                          # train reads filter's features
    assert len(edc_calls) == n_corpus + n_enroll


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


def test_train_refuses_decisions_of_another_corpus(pipeline_dirs, tmp_path):
    corpus, _, _ = pipeline_dirs
    other = tmp_path / "other"       # same rooms and rir_ids, other scenes
    assert main(["generate", "--out", str(other), "--rooms", "1-3",
                 "--n", "16", "--seed", "4"]) == 0
    out = tmp_path / "model"
    assert main(_train_argv(other, out, "--decisions", str(corpus / dataio.DECISIONS_NAME),
                            "--lr-grid", "1e-4", "--epoch-grid", "5")) == 4
    assert not out.exists()


def test_train_with_every_grid_cell_failing_exits_2(pipeline_dirs, tmp_path, capsys):
    corpus, _, _ = pipeline_dirs
    out = tmp_path / "model"
    assert main(_train_argv(corpus, out, "--allow-out-of-range",
                            "--lr-grid", "1e300", "--epoch-grid", "50")) == 2
    assert "every grid cell failed" in capsys.readouterr().err
    assert not out.exists()


def test_train_refuses_a_diverged_final_fit(pipeline_dirs, tmp_path, capsys):
    corpus, _, _ = pipeline_dirs
    out = tmp_path / "model"
    assert main(_train_argv(corpus, out, "--allow-out-of-range",
                            "--lr-grid", "0.1", "--epoch-grid", "5")) == 2
    assert "final fit diverged" in capsys.readouterr().err
    assert not out.exists()


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


def test_eval_foreign_feature_rows_are_rejected(pipeline_dirs, tmp_path):
    _, _, model_dir = pipeline_dirs
    rows = dataio.read_jsonl(model_dir / dataio.HOLDOUT_NAME)
    rows[0]["feature_schema_version"] = 0
    broken = tmp_path / "broken_holdout.jsonl"
    dataio.write_jsonl(broken, rows)
    assert main(["eval", "--model", str(model_dir / dataio.MODEL_NAME),
                 "--dataset", str(broken),
                 "--out", str(tmp_path / "out")]) == 4


def test_train_room_subset(pipeline_dirs, tmp_path):
    corpus, _, _ = pipeline_dirs
    out = tmp_path / "subset_model"
    assert main(["train", "--in", str(corpus), "--out", str(out), "--seed", "3",
                 "--rooms", "1-2", "--lr-grid", "1e-4", "--epoch-grid", "5"]) == 0
    assert (out / dataio.MODEL_NAME).exists()
