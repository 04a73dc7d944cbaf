"""Command-line pipeline: generate -> analyze -> filter -> train -> eval -> report.

Stages hand off through files in plain formats (float32 WAV, JSONL,
JSON); each stage writes its completion marker last so interrupted runs
are detectable. Exit codes: 0 success, 2 usage or validation problems,
3 missing upstream data, 4 schema mismatches.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import os
import queue
import re
import shutil
import sys
import threading
from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np

from . import dataio
from .acoustics import (
    DESCRIPTOR_ERRORS,
    EDC_GRID_POINTS,
    AcousticMetrics,
    RIRecording,
    analyze_rir,
    source_receiver_distance,
)
from .dataio import (
    MissingDataError,
    OutputLockedError,
    SchemaMismatchError,
    check_schema,
    iter_jsonl,
    output_lock,
    read_json,
    read_jsonl,
    read_wav,
    write_json,
    write_jsonl,
    write_text,
    write_wav,
)
from .estimator import (
    DEFAULT_EPOCH_GRID,
    DEFAULT_STEP_GRID,
    FEATURE_NAMES,
    FEATURE_SCHEMA_VERSION,
    HIST_BIN_WIDTH_M,
    EstimatorModel,
    FeatureVector,
    TrainConfig,
    evaluate,
    extract_features,
    grid_search,
    histogram_edges,
    lipschitz_constant,
    split_dataset,
    train,
)
from .filtering import (
    FilterCriteria,
    FilterReason,
    MissingProfileError,
    build_reference_profile,
    filter_batch,
)
from .synth import (
    GeometryError,
    ShoeboxRoom,
    SynthesisConfig,
    builtin_room,
    builtin_room_ids,
    normalize_rir,
    sample_scenes,
    synthesize_rir,
)


_ROOM_ID = re.compile(r"[A-Za-z0-9_.-]+")


def _derived_seed(*parts) -> int:
    entropy = [int.from_bytes(str(p).encode(), "little") for p in parts]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def _parse_rooms(selector: str) -> list[ShoeboxRoom]:
    """Room selection: 'A-B' range, comma list of ids, or a JSON profile file.

    A profile file (a corpus's ``manifest.json`` is one) lists rooms in
    the shape :func:`_room_profiles` writes. A room's id names its WAVs
    and fills a CSV field, so a profile id must be an int or a non-empty
    string of letters, digits, ``_``, ``.`` and ``-``. Ids must be
    distinct: a repeated id would overwrite the first room's WAVs under
    rows that still list its positions.
    """
    path = Path(selector)
    if path.is_file():
        try:
            entries = read_json(path)["rooms"]
            rooms = [_profile_room(entry, selector) for entry in entries]
        except KeyError as exc:
            raise ValueError(f"room-profile file {selector} lacks the key {exc}") from None
        if not rooms:
            raise ValueError(f"profile file {selector} lists no rooms")
    else:
        if "-" in selector and "," not in selector:
            lo, hi = selector.split("-", 1)
            ids = list(range(int(lo), int(hi) + 1))
        else:
            ids = [int(tok) for tok in selector.split(",") if tok.strip()]
        if not ids:
            raise ValueError(f"could not parse room selector {selector!r}")
        known = set(builtin_room_ids())
        for rid in ids:
            if rid not in known:
                raise ValueError(f"unknown built-in room id {rid}; built-ins are 1-20")
        rooms = [builtin_room(rid) for rid in ids]
    names = [str(room.room_id) for room in rooms]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ValueError(f"room ids must be distinct, got {', '.join(repeated)} more than once")
    return rooms


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _profile_room(entry: dict, selector: str) -> ShoeboxRoom:
    """One room of a profile file, its values checked before they are used."""
    rid, dims, absorption = entry["room_id"], entry["dims"], entry["absorption"]
    seed = entry.get("seed", 0)
    if not (type(rid) is int or isinstance(rid, str) and _ROOM_ID.fullmatch(rid)):
        raise ValueError(f"room-profile file {selector} has room id {rid!r}; an id "
                         f"is an int or a non-empty string of [A-Za-z0-9_.-]")
    where = f"room-profile file {selector}, room {rid!r}"
    if not (isinstance(dims, list) and len(dims) == 3 and all(map(_is_real, dims))):
        raise ValueError(f"{where}: dims must be three numbers, got {dims!r}")
    if not _is_real(absorption):
        raise ValueError(f"{where}: absorption must be a number, got {absorption!r}")
    if type(seed) is not int or seed < 0:   # a bool is not an int here
        raise ValueError(f"{where}: seed must be a non-negative integer, got {seed!r}")
    try:
        return ShoeboxRoom(dims=tuple(dims), absorption=absorption, room_id=rid, seed=seed)
    except GeometryError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _room_profiles(rooms: list[ShoeboxRoom]) -> list[dict]:
    """``rooms`` in the profile-file shape :func:`_parse_rooms` reads back."""
    return [{"room_id": room.room_id, "dims": list(room.dims),
             "absorption": float(room.absorption), "seed": int(room.seed)} for room in rooms]


def _remove_dead_stages(out: Path) -> None:
    """Delete the staging directories of ``generate`` runs into ``out`` that were killed.

    A ``.<name>.rirdist-new-<pid>`` sibling whose pid is no live process
    is what a run killed before its cleanup left. Siblings of a live pid,
    and every ``-old-`` sibling (a corpus being retired), are left alone.
    """
    prefix = f".{out.name}.rirdist-new-"
    for entry in out.parent.iterdir():
        pid = entry.name[len(prefix):]
        if not (entry.name.startswith(prefix) and pid.isdecimal()):
            continue
        if dataio.pid_is_dead(int(pid)):
            shutil.rmtree(entry, ignore_errors=True)


class _BackgroundWriter:
    """Runs ``write(*args)`` calls on one thread, in the order they were submitted.

    ``generate`` hands each WAV here and synthesizes the next RIR while
    the kernel creates the file. At most :attr:`DEPTH` calls wait. The first
    call that raises ends the writing: no later call runs, and the next
    :meth:`submit` or the clean exit re-raises that error on the calling
    thread. Leaving the ``with`` block joins the thread; leaving it by an
    exception drops the calls still waiting.
    """

    DEPTH = 4   # four waiting RIRs of 1 s at 32 kHz are 1 MB of float64

    def __init__(self):
        self._pending = queue.Queue(maxsize=self.DEPTH)
        self._error: BaseException | None = None
        self._dropping = False
        self._thread = threading.Thread(target=self._run, name="rirdist-wav-writer",
                                        daemon=True)

    def _run(self) -> None:
        # keeps taking calls after a failure, so a blocked submit or close never waits forever
        while (call := self._pending.get()) is not None:
            if self._error is None and not self._dropping:
                write, args = call
                try:
                    write(*args)
                except BaseException as exc:   # re-raised on the submitting thread
                    self._error = exc

    def submit(self, write, *args) -> None:
        if self._error is not None:
            raise self._error
        self._pending.put((write, args))

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, exc_type, exc, tb):
        self._dropping = exc_type is not None
        self._pending.put(None)
        self._thread.join()
        if exc_type is None and self._error is not None:
            raise self._error
        return False


def cmd_generate(args) -> int:
    if args.n < 1:
        raise ValueError(f"--n must be at least 1, got {args.n}")
    rooms = _parse_rooms(args.rooms)
    config = SynthesisConfig(max_image_order=args.order,
                             tail_crossover_ms=args.crossover_ms)
    out = Path(args.out).resolve()
    out.mkdir(parents=True, exist_ok=True)
    with output_lock(out):
        if os.listdir(out) != [dataio.LOCK_FILENAME] and not (out / dataio.MANIFEST_NAME).exists():
            raise ValueError(f"{out} holds files but is not a rirdist corpus; not replacing it")
        _remove_dead_stages(out)
        # built beside out and swapped in whole, so a failed run leaves the old corpus
        stage, retired = (out.parent / f".{out.name}.rirdist-{kind}-{os.getpid()}"
                          for kind in ("new", "old"))
        stage.mkdir()
        try:
            metadata = []
            # joined before the metadata is written and before stage is removed
            with _BackgroundWriter() as writer:
                for room in rooms:
                    scenes = sample_scenes(room, args.n,
                                           seed=_derived_seed(args.seed, room.room_id))
                    for idx, scene in enumerate(scenes):
                        rir = normalize_rir(synthesize_rir(room, scene, config))
                        rir_id = f"room{room.room_id}_{idx:04d}"
                        writer.submit(write_wav, stage / f"{rir_id}.wav",
                                      rir.samples, rir.sample_rate)
                        metadata.append({
                            "rir_id": rir_id,
                            "room_id": room.room_id,
                            "source_pos": list(scene.source_pos),
                            "receiver_pos": list(scene.receiver_pos),
                            "norm_gain": float(rir.norm_gain),
                            "seed": int(room.seed),
                        })
            write_jsonl(stage / dataio.METADATA_NAME, metadata)
            # manifest last: its presence marks a complete corpus
            write_json(stage / dataio.MANIFEST_NAME, {
                "schema_version": dataio.SCHEMA_VERSION,
                "seed": int(args.seed),
                "rooms": _room_profiles(rooms),
                "n_per_room": int(args.n),
                "count": len(metadata),
                "sample_rate": config.sample_rate,
                "duration_samples": config.n_samples,
                "synthesis_config": dataclasses.asdict(config),
            })
            with output_lock(stage):   # its lock file moves in with it: out stays locked
                out.rename(retired)
                stage.rename(out)
            shutil.rmtree(retired)
        finally:
            shutil.rmtree(stage, ignore_errors=True)
    print(f"generated {len(metadata)} RIRs in {out}")
    return 0


def _corpus_rows(directory: Path) -> Iterator[dict]:
    """Metadata rows of a complete corpus, read one at a time; the manifest
    must be present and current, and each row's positions three numbers."""
    manifest = read_json(directory / dataio.MANIFEST_NAME)
    check_schema(manifest, f"manifest in {directory}")
    path = directory / dataio.METADATA_NAME
    return (_checked_positions(row, path) for row in iter_jsonl(path))


def _checked_positions(row: dict, path: Path) -> dict:
    for key in ("source_pos", "receiver_pos"):
        pos = row.get(key)
        if not (isinstance(pos, list) and len(pos) == 3 and all(map(_is_real, pos))):
            raise SchemaMismatchError(f"{path}: row {row.get('rir_id')!r} has {key} "
                                      f"{pos!r}, not three numbers")
    return row


def _read_recording(directory: Path, row: dict) -> RIRecording:
    samples, rate = read_wav(directory / f"{row['rir_id']}.wav")
    return RIRecording(samples=samples, sample_rate=rate,
                       source_pos=tuple(row["source_pos"]),
                       receiver_pos=tuple(row["receiver_pos"]),
                       room_id=row["room_id"], norm_gain=row["norm_gain"])


def _metrics_row(rir_id: str, metrics: AcousticMetrics | None, distance: float | None,
                 error: str | None) -> dict:
    """One RIR's ``metrics.jsonl`` row. Descriptors are None without ``metrics``;
    ``error`` and the feature keys appear only when there are some. The decay
    grid ``edc_grid_db`` comes last, so ``filter`` drops it from its rows."""
    def value(convert, name):
        return None if metrics is None else convert(getattr(metrics, name))

    row = {
        "rir_id": rir_id,
        "t60_s": value(float, "t60_s"),
        "drr_db": value(float, "drr_db"),
        "distance_m": distance,
        "direct_index": value(int, "direct_index"),
        "measured_distance_m": value(float, "geometric_distance_m"),
        "echo_density": value(list, "echo_density"),
        "total_energy_db": value(float, "total_energy_db"),
        "flags": value(sorted, "flags"),
    }
    if error is not None:
        row["error"] = error
    if metrics is not None:
        _with_features(row, extract_features(metrics))
    row["edc_grid_db"] = None if metrics is None else metrics.edc_grid_db.tolist()
    return row


def cmd_analyze(args) -> int:
    directory = Path(args.in_dir)
    corpus = _corpus_rows(directory)
    out_path = Path(args.out) if args.out else directory / dataio.METRICS_NAME
    out_path.parent.mkdir(parents=True, exist_ok=True)
    n_rows = n_failed = 0

    def rows():
        nonlocal n_rows, n_failed
        for meta in corpus:
            n_rows += 1
            rir = _read_recording(directory, meta)
            metrics, error = None, None
            try:
                metrics = analyze_rir(rir)
            except DESCRIPTOR_ERRORS as exc:
                error = f"{type(exc).__name__}: {exc}"
                n_failed += 1
            yield _metrics_row(meta["rir_id"], metrics, rir.metadata_distance(), error)

    with output_lock(out_path.parent):
        write_jsonl(out_path, rows())
    print(f"analyzed {n_rows} RIRs ({n_failed} failed) -> {out_path}")
    return 1 if n_rows and n_failed == n_rows else 0


def _checked_metrics_rows(path: Path, corpus: Iterable[dict]) -> Iterator[tuple]:
    """(room_id, row) of each ``metrics.jsonl`` row, read one at a time.

    The rows must be the corpus's RIRs in corpus order, at the metadata
    distances, each with its decay grid; anything else is a metrics file
    of another corpus or of an older ``analyze``.
    """
    def mismatch(why: str) -> SchemaMismatchError:
        return SchemaMismatchError(f"{path} does not describe the corpus beside it: {why}; "
                                   f"re-run rirdist analyze --in {path.parent}")

    rows = iter_jsonl(path)
    n_corpus = 0
    for meta in corpus:
        n_corpus += 1
        row = next(rows, None)
        if row is None:
            raise mismatch(f"it ends before {meta['rir_id']}")
        if row.get("rir_id") != meta["rir_id"]:
            raise mismatch(f"row {row.get('rir_id')!r} where the corpus has {meta['rir_id']}")
        expected = source_receiver_distance(meta["source_pos"], meta["receiver_pos"])
        if row.get("distance_m") != expected:   # same floats on both sides when it matches
            raise mismatch(f"{meta['rir_id']} is at {row.get('distance_m')!r} m there "
                           f"and at {expected!r} m in the metadata")
        grid = row.get("edc_grid_db", ())   # null only on an error row
        if not (isinstance(grid, list) and len(grid) == EDC_GRID_POINTS
                or grid is None and "error" in row):
            raise mismatch(f"{meta['rir_id']} has no {EDC_GRID_POINTS}-point edc_grid_db")
        yield meta["room_id"], row
    if next(rows, None) is not None:
        raise mismatch(f"it has rows past the corpus's {n_corpus} RIRs")


def cmd_filter(args) -> int:
    criteria = FilterCriteria(
        t60_rel_tolerance=args.t60_tol,
        t60_hard_cutoff_s=args.t60_cutoff,
        min_distance_m=args.dist_min,
        max_distance_m=args.dist_max,
        edc_max_rms_dev_db=args.edc_dev,
        echo_max_rel_dev=args.echo_dev,
    )
    corpus_dir, enroll_dir = Path(args.in_dir), Path(args.enrollment)
    room_ids = dict.fromkeys(row["room_id"] for row in _corpus_rows(corpus_dir))
    metrics_path = corpus_dir / dataio.METRICS_NAME
    if not metrics_path.is_file():
        raise MissingDataError(f"{metrics_path} not found: filter screens the rows analyze "
                               f"writes; run rirdist analyze --in {corpus_dir} first")
    enrollment: dict = {}
    for row in _corpus_rows(enroll_dir):
        enrollment.setdefault(row["room_id"], []).append(row)
    profiles = {}
    for room_id in room_ids:
        group = enrollment.get(room_id, [])
        if len(group) < 2:
            raise MissingDataError(
                f"enrollment provides {len(group)} RIR(s) for room {room_id!r}, need >= 2"
            )
        profiles[room_id] = build_reference_profile(
            _read_recording(enroll_dir, row) for row in group)

    out = Path(args.out) if args.out else corpus_dir
    out.mkdir(parents=True, exist_ok=True)
    n_input = 0
    reason_counts = dict.fromkeys(FilterReason, 0)
    accepted_distances = []
    discrepancies = []

    def decision_rows():
        """Each decisions row as the screen decides it: only the counts above are kept."""
        nonlocal n_input
        # filter_batch yields decisions only; tee hands this loop each row beside its decision
        checked, screened = itertools.tee(
            _checked_metrics_rows(metrics_path, _corpus_rows(corpus_dir)))
        for (_, row), decision in zip(checked, filter_batch(screened, profiles, criteria)):
            n_input += 1
            for reason in decision.reasons:
                reason_counts[reason] += 1
            if decision.accepted:
                accepted_distances.append(row["distance_m"])
            if row["measured_distance_m"] is not None:
                discrepancies.append(abs(row["measured_distance_m"] - row["distance_m"]))
            del row["edc_grid_db"]
            yield {"rir_id": row.pop("rir_id"), "accepted": decision.accepted,
                   "reasons": decision.reason_names(), **row}

    with output_lock(out):
        write_jsonl(out / dataio.DECISIONS_NAME, decision_rows())
        yield_fraction = len(accepted_distances) / n_input if n_input else None
        hist_counts = []
        if accepted_distances:
            hist, _ = np.histogram(accepted_distances,
                                   bins=histogram_edges(max(accepted_distances)))
            hist_counts = [int(c) for c in hist]
        write_json(out / dataio.SUMMARY_NAME, {
            "schema_version": dataio.SCHEMA_VERSION,
            "criteria": dataclasses.asdict(criteria),
            "n_input": n_input,
            "n_accepted": len(accepted_distances),
            "n_rejected": n_input - len(accepted_distances),
            "yield": yield_fraction,
            "reason_histogram": {reason.name: count for reason, count in reason_counts.items()},
            "accepted_distance_histogram": {
                "bin_width_m": HIST_BIN_WIDTH_M,
                "counts": hist_counts,
            },
            "distance_discrepancy_m": {
                "mean": float(np.mean(discrepancies)) if discrepancies else None,
                "max": float(np.max(discrepancies)) if discrepancies else None,
            },
        })
    print(f"filter kept {len(accepted_distances)}/{n_input} "
          f"(yield {yield_fraction}) -> {out}")
    return 0


def _with_features(row: dict, fv: FeatureVector) -> dict:
    """``row`` followed by the feature keys :func:`_parse_feature_row` reads back."""
    row["feature_schema_version"] = FEATURE_SCHEMA_VERSION
    row["features"] = {name: float(value) for name, value in zip(FEATURE_NAMES, fv.as_array())}
    return row


def _parse_feature_row(row: dict) -> tuple[str, FeatureVector, float]:
    """(rir_id, features, distance) of a decisions or holdout row."""
    if row.get("feature_schema_version") != FEATURE_SCHEMA_VERSION:
        raise SchemaMismatchError(
            f"feature row {row.get('rir_id')!r} carries schema "
            f"{row.get('feature_schema_version')!r}, expected {FEATURE_SCHEMA_VERSION}; "
            f"re-run the stage that wrote it"
        )
    try:
        values = row["features"]
        fv = FeatureVector(**{name: values[name] for name in FEATURE_NAMES})
        return row["rir_id"], fv, float(row["distance_m"])
    except (KeyError, TypeError) as exc:
        raise SchemaMismatchError(
            f"feature row {row.get('rir_id')!r} is malformed: {exc}") from exc


def cmd_train(args) -> int:
    directory = Path(args.in_dir)
    decisions_path = Path(args.decisions) if args.decisions else directory / dataio.DECISIONS_NAME
    decisions = read_jsonl(decisions_path)
    metadata = {row["rir_id"]: row for row in _corpus_rows(directory)}
    decided = [decision.get("rir_id") for decision in decisions]
    if len(decided) != len(metadata) or set(decided) != metadata.keys():
        raise SchemaMismatchError(
            f"{decisions_path} does not decide exactly the RIRs of {directory}: "
            f"{len(decided)} rows for {len(metadata)} RIRs")

    room_filter = None
    if args.rooms:
        room_filter = {room.room_id for room in _parse_rooms(args.rooms)}

    samples = []
    for decision in decisions:
        if not decision["accepted"]:
            continue
        row = metadata[decision["rir_id"]]
        rir_id, fv, distance = _parse_feature_row(decision)   # from filter; no WAV decoded
        expected = source_receiver_distance(row["source_pos"], row["receiver_pos"])
        if distance != expected:   # same floats on both sides when the corpus matches
            raise SchemaMismatchError(
                f"{decisions_path} does not belong to {directory}: {rir_id} is at "
                f"{distance!r} m there and at {expected!r} m in the metadata")
        if room_filter is None or row["room_id"] in room_filter:
            samples.append((rir_id, fv, distance))
    if not samples:
        raise ValueError("no accepted RIRs to train on")

    if args.holdout > 0.0:
        fit_pool, holdout = split_dataset(samples, train_fraction=1.0 - args.holdout,
                                          seed=args.seed)
    else:
        fit_pool, holdout = list(samples), []

    pairs = [(fv, dist) for _, fv, dist in fit_pool]
    gs_train, gs_val = split_dataset(pairs, train_fraction=0.8,
                                     seed=_derived_seed(args.seed, "gridsplit"))
    step_grid = [float(tok) for tok in args.step_grid.split(",")]
    epoch_grid = [int(tok) for tok in args.epoch_grid.split(",")]
    try:
        best, table = grid_search(gs_train, gs_val, step_grid, epoch_grid)
    except RuntimeError as exc:
        raise ValueError(str(exc)) from exc
    # the winner's fraction of 1/L, at the fit pool's own L
    model = train(pairs, TrainConfig(best.step_fraction / lipschitz_constant(pairs), best.epochs))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with output_lock(out):
        write_json(out / dataio.GRID_NAME, {
            "schema_version": dataio.SCHEMA_VERSION,
            "best": {"step_fraction": best.step_fraction, "epochs": best.epochs},
            "cells": [dataclasses.asdict(cell) for cell in table],
        })
        write_jsonl(out / dataio.HOLDOUT_NAME,
                    [_with_features({"rir_id": rid, "distance_m": dist}, fv)
                     for rid, fv, dist in holdout])
        payload = {"schema_version": dataio.SCHEMA_VERSION}
        payload.update(model.to_json_dict())
        write_json(out / dataio.MODEL_NAME, payload)
    print(f"trained on {len(fit_pool)} samples "
          f"(step {best.step_fraction:g}/L, {best.epochs} epochs), "
          f"{len(holdout)} held out -> {out}")
    return 0


def cmd_eval(args) -> int:
    payload = read_json(args.model)
    check_schema(payload, f"model {args.model}")
    try:
        model = EstimatorModel.from_json_dict(payload)
    except ValueError as exc:
        raise SchemaMismatchError(str(exc)) from exc
    rows = [_parse_feature_row(row) for row in read_jsonl(args.dataset)]
    if not rows:
        raise ValueError(f"dataset {args.dataset} is empty")

    report = evaluate(model, [(fv, dist) for _, fv, dist in rows])
    per_sample = ["rir_id,true_m,predicted_m,residual_m\n"]
    for (rir_id, _, _), truth, pred in zip(rows, report.true_m, report.predicted_m):
        t, p = float(truth), float(pred)
        per_sample.append(f"{rir_id},{t!r},{p!r},{p - t!r}\n")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with output_lock(out):
        write_text(out / dataio.PER_SAMPLE_NAME, "".join(per_sample))
        eval_payload = {"schema_version": dataio.SCHEMA_VERSION}
        eval_payload.update(report.to_json_dict())
        write_json(out / dataio.EVAL_NAME, eval_payload)   # last: marks a complete eval
    print(f"evaluated {report.n_samples} samples, MAE {report.mae_m:.4f} m -> {out}")
    return 0


def _render_report_text(payload: dict) -> str:
    lines = ["distance estimation report", "=" * 26, ""]
    lines.append(f"samples:   {payload['n_samples']}")
    lines.append(f"MAE:       {payload['mae_m']:.4f} m")
    pearson = payload["pearson_r"]
    lines.append(f"pearson r: {'undefined' if pearson is None else f'{pearson:.4f}'}")
    lines.append("")
    lines.append("per-range MAE")
    lines.append(f"{'range':>14}  {'n':>6}  {'mae_m':>10}")
    for bucket in payload["per_range"]:
        hi = "inf" if bucket["hi_m"] is None else f"{bucket['hi_m']:g}"
        label = f"[{bucket['lo_m']:g}, {hi})"
        mae = "-" if bucket["mae_m"] is None else f"{bucket['mae_m']:.4f}"
        lines.append(f"{label:>14}  {bucket['n']:>6}  {mae:>10}")
    lines.append("")
    hist = payload["histogram"]
    width = hist["bin_width_m"]
    lines.append(f"distance histogram ({width:g} m bins)")
    lines.append(f"{'bin':>14}  {'truth':>6}  {'predicted':>10}")
    for i, (t, p) in enumerate(zip(hist["truth_counts"], hist["predicted_counts"])):
        label = f"[{i * width:g}, {(i + 1) * width:g})"
        lines.append(f"{label:>14}  {t:>6}  {p:>10}")
    lines.append("")
    return "\n".join(lines)


def _render_scatter_svg(points: list[tuple[float, float]]) -> str:
    size, margin = 480.0, 40.0
    top = max([max(t, p) for t, p in points], default=1.0)
    top = max(top, 1.0)
    scale = (size - 2 * margin) / top

    def sx(v):
        return margin + v * scale

    def sy(v):
        return size - margin - v * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:g}" height="{size:g}" '
        f'viewBox="0 0 {size:g} {size:g}">',
        f'<rect width="{size:g}" height="{size:g}" fill="white"/>',
        f'<line x1="{margin}" y1="{size - margin}" x2="{size - margin}" '
        f'y2="{size - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{size - margin}" '
        f'stroke="black"/>',
        f'<line x1="{sx(0):.2f}" y1="{sy(0):.2f}" x2="{sx(top):.2f}" y2="{sy(top):.2f}" '
        f'stroke="#999" stroke-dasharray="4 4"/>',
        f'<text x="{size / 2:.0f}" y="{size - 8:.0f}" text-anchor="middle" '
        f'font-size="12">true distance (m)</text>',
        f'<text x="12" y="{size / 2:.0f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 12 {size / 2:.0f})">predicted distance (m)</text>',
    ]
    for truth, pred in points:
        parts.append(f'<circle cx="{sx(truth):.2f}" cy="{sy(pred):.2f}" r="2.5" '
                     f'fill="steelblue" fill-opacity="0.5"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _read_scatter_points(source: Path) -> list[tuple[float, float]]:
    """(true, predicted) pairs of a ``per_sample.csv``."""
    if not source.exists():
        raise MissingDataError(f"per-sample CSV not found for scatter: {source}")
    points = []
    with open(source) as handle:
        next(handle)
        for line in handle:
            try:
                _, truth, pred, _ = line.rstrip("\n").split(",")
                points.append((float(truth), float(pred)))
            except ValueError:
                raise ValueError(f"{source}: malformed per-sample row {line!r}") from None
    return points


def cmd_report(args) -> int:
    payload = read_json(args.eval)
    check_schema(payload, f"eval report {args.eval}")
    # every file is rendered before any is written, so a failure leaves --out as it was
    files = {"report.txt": _render_report_text(payload)}
    lines = ["lo_m,hi_m,n,mae_m\n"]
    for bucket in payload["per_range"]:
        hi = "" if bucket["hi_m"] is None else f"{bucket['hi_m']!r}"
        mae = "" if bucket["mae_m"] is None else f"{bucket['mae_m']!r}"
        lines.append(f"{bucket['lo_m']!r},{hi},{bucket['n']},{mae}\n")
    files["per_range.csv"] = "".join(lines)
    hist = payload["histogram"]
    width = hist["bin_width_m"]
    lines = ["bin_lo_m,bin_hi_m,truth_count,predicted_count\n"]
    for i, (t, p) in enumerate(zip(hist["truth_counts"], hist["predicted_counts"])):
        lines.append(f"{i * width!r},{(i + 1) * width!r},{t},{p}\n")
    files["histogram.csv"] = "".join(lines)
    if args.svg:
        source = Path(args.per_sample) if args.per_sample else (
            Path(args.eval).parent / dataio.PER_SAMPLE_NAME)
        files["scatter.svg"] = _render_scatter_svg(_read_scatter_points(source))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with output_lock(out):
        for name, text in files.items():
            write_text(out / name, text)
    print(f"report rendered -> {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rirdist",
        description="Synthesize room impulse responses, screen their quality, "
                    "and train a speaker distance estimator.",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("generate", help="synthesize a corpus of RIR WAVs")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--rooms", default="1-20",
                   help="room ids ('1-20', '1,3,7') or a JSON room-profile file")
    p.add_argument("--n", type=int, required=True, help="scenes per room")
    p.add_argument("--seed", type=int, default=0, help="master scene-sampling seed")
    p.add_argument("--order", type=int, default=12, help="image-source reflection cap")
    p.add_argument("--crossover-ms", type=float, default=80.0,
                   help="early/tail crossover in milliseconds")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("analyze", help="acoustic metrics for every RIR in a corpus")
    p.add_argument("--in", dest="in_dir", required=True, help="generated corpus directory")
    p.add_argument("--out", default=None, help="metrics JSONL path (default: <in>/metrics.jsonl)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("filter", help="screen a corpus against per-room enrollment profiles")
    p.add_argument("--in", dest="in_dir", required=True, help="generated corpus directory")
    p.add_argument("--enrollment", required=True,
                   help="directory of trusted enrollment RIRs (>= 2 per room)")
    p.add_argument("--out", default=None,
                   help="output directory for decisions/summary (default: the input dir)")
    p.add_argument("--t60-tol", type=float, default=0.20,
                   help="relative T60 band around the enrollment median "
                        "(default 0.20, i.e. 20%%)")
    p.add_argument("--t60-cutoff", type=float, default=1.8695,
                   help="absolute T60 ceiling in seconds (default 1.8695)")
    p.add_argument("--dist-min", type=float, default=0.8,
                   help="minimum source-receiver distance in meters (default 0.8)")
    p.add_argument("--dist-max", type=float, default=7.1,
                   help="maximum source-receiver distance in meters (default 7.1)")
    p.add_argument("--edc-dev", type=float, default=6.0,
                   help="max RMS decay-curve deviation in dB (default 6.0)")
    p.add_argument("--echo-dev", type=float, default=0.5,
                   help="max relative echo-count deviation (default 0.5)")
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("train", help="grid-search and fit the distance estimator")
    p.add_argument("--in", dest="in_dir", required=True, help="generated corpus directory")
    p.add_argument("--decisions", default=None,
                   help="filter decisions JSONL (default: <in>/decisions.jsonl)")
    p.add_argument("--out", required=True, help="output directory for the model")
    p.add_argument("--seed", type=int, default=0, help="split/shuffle seed")
    p.add_argument("--holdout", type=float, default=0.2,
                   help="fraction held out for evaluation (written to holdout.jsonl)")
    p.add_argument("--step-grid", default=",".join(f"{v:g}" for v in DEFAULT_STEP_GRID),
                   help="comma-separated steps in units of 1/L, which converge below 2 "
                        "(default %(default)s)")
    p.add_argument("--epoch-grid", default=",".join(str(v) for v in DEFAULT_EPOCH_GRID),
                   help="comma-separated epoch counts (default %(default)s)")
    p.add_argument("--rooms", default=None,
                   help="optional room subset to train on (same syntax as generate)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a model on a feature dataset")
    p.add_argument("--model", required=True, help="model.json path")
    p.add_argument("--dataset", required=True, help="feature JSONL (e.g. holdout.jsonl)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="render tables (and optional SVG) from an eval report")
    p.add_argument("--eval", required=True, help="eval.json path")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--per-sample", default=None,
                   help="per-sample CSV for the scatter (default: next to eval.json)")
    p.add_argument("--svg", action="store_true", help="also render a predicted-vs-true scatter")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except SchemaMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (MissingDataError, MissingProfileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OutputLockedError, GeometryError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
