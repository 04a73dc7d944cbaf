"""Command-line pipeline: generate -> analyze -> filter -> train -> eval -> report.

Stages hand off through files in plain formats (float32 WAV, JSONL,
JSON); each stage writes its completion marker last so interrupted runs
are detectable. Exit codes: 0 success, 2 usage or validation problems,
3 missing upstream data, 4 schema mismatches.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import dataio
from .acoustics import RIRecording, analyze_rir, source_receiver_distance
from .dataio import (
    MissingDataError,
    OutputLockedError,
    SchemaMismatchError,
    check_schema,
    output_lock,
    read_json,
    read_jsonl,
    read_wav,
    write_json,
    write_jsonl,
    write_wav,
)
from .estimator import (
    DEFAULT_EPOCH_GRID,
    DEFAULT_LR_GRID,
    FEATURE_NAMES,
    FEATURE_SCHEMA_VERSION,
    HIST_BIN_WIDTH_M,
    EstimatorModel,
    FeatureVector,
    evaluate,
    extract_features,
    grid_search,
    histogram_edges,
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
    SceneQuery,
    ShoeboxRoom,
    SynthesisConfig,
    builtin_room,
    builtin_room_ids,
    normalize_rir,
    sample_scenes,
    synthesize_rir,
)


def _derived_seed(*parts) -> int:
    entropy = [int.from_bytes(str(p).encode(), "little") for p in parts]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def _parse_rooms(selector: str) -> list[ShoeboxRoom]:
    """Room selection: 'A-B' range, comma list of ids, or a JSON profile file."""
    path = Path(selector)
    if path.is_file():
        payload = read_json(path)
        rooms = []
        for entry in payload["rooms"]:
            rooms.append(ShoeboxRoom(
                dims=tuple(entry["dims"]),
                absorption=entry["absorption"],
                room_id=entry["room_id"],
                seed=entry.get("seed", 0),
            ))
        if not rooms:
            raise ValueError(f"profile file {selector} lists no rooms")
        return rooms
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
    return [builtin_room(rid) for rid in ids]


def cmd_generate(args) -> int:
    if args.n < 1:
        raise ValueError(f"--n must be at least 1, got {args.n}")
    rooms = _parse_rooms(args.rooms)
    config = SynthesisConfig(max_image_order=args.order,
                             tail_crossover_ms=args.crossover_ms)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with output_lock(out):
        # an interrupted rerun must not leave the old marker beside new WAVs
        (out / dataio.MANIFEST_NAME).unlink(missing_ok=True)
        previous_path = out / dataio.METADATA_NAME
        previous = read_jsonl(previous_path) if previous_path.exists() else []
        metadata = []
        for room in rooms:
            scenes = sample_scenes(room, args.n, seed=_derived_seed(args.seed, room.room_id))
            for idx, scene in enumerate(scenes):
                rir = normalize_rir(synthesize_rir(room, scene, config))
                rir_id = f"room{room.room_id}_{idx:04d}"
                write_wav(out / f"{rir_id}.wav", rir.samples, rir.sample_rate)
                metadata.append({
                    "rir_id": rir_id,
                    "room_id": room.room_id,
                    "source_pos": list(scene.source_pos),
                    "receiver_pos": list(scene.receiver_pos),
                    "norm_gain": float(rir.norm_gain),
                    "seed": int(room.seed),
                })
        write_jsonl(out / dataio.METADATA_NAME, metadata)
        # WAVs of the previous corpus that this one did not overwrite
        written = {row["rir_id"] for row in metadata}
        for row in previous:
            if row["rir_id"] not in written:
                (out / f"{row['rir_id']}.wav").unlink(missing_ok=True)
        # manifest last: its presence marks a complete corpus
        write_json(out / dataio.MANIFEST_NAME, {
            "schema_version": dataio.SCHEMA_VERSION,
            "seed": int(args.seed),
            "rooms": [room.room_id for room in rooms],
            "n_per_room": int(args.n),
            "count": len(metadata),
            "sample_rate": config.sample_rate,
            "duration_samples": config.n_samples,
            "synthesis_config": dataclasses.asdict(config),
        })
    print(f"generated {len(metadata)} RIRs in {out}")
    return 0


def _corpus_rows(directory: Path) -> list[dict]:
    """Metadata rows of a complete corpus; the manifest must be present and current."""
    manifest = read_json(directory / dataio.MANIFEST_NAME)
    check_schema(manifest, f"manifest in {directory}")
    return read_jsonl(directory / dataio.METADATA_NAME)


def _read_recording(directory: Path, row: dict) -> RIRecording:
    samples, rate = read_wav(directory / f"{row['rir_id']}.wav")
    return RIRecording(samples=samples, sample_rate=rate,
                       source_pos=tuple(row["source_pos"]),
                       receiver_pos=tuple(row["receiver_pos"]),
                       room_id=row["room_id"], norm_gain=row["norm_gain"])


def cmd_analyze(args) -> int:
    directory = Path(args.in_dir)
    rows = []
    n_failed = 0
    for meta in _corpus_rows(directory):
        rir_id = meta["rir_id"]
        try:
            rir = _read_recording(directory, meta)
            metrics = analyze_rir(rir)
        except Exception as exc:
            rows.append({"rir_id": rir_id, "error": f"{type(exc).__name__}: {exc}"})
            n_failed += 1
            continue
        meta_dist = rir.metadata_distance()
        rows.append({
            "rir_id": rir_id,
            "t60_s": float(metrics.t60_s),
            "drr_db": float(metrics.drr_db),
            "direct_index": int(metrics.direct_index),
            "measured_distance_m": float(metrics.geometric_distance_m),
            "metadata_distance_m": None if meta_dist is None else float(meta_dist),
            "echo_density": list(metrics.echo_density),
            "total_energy_db": float(metrics.total_energy_db),
            "flags": sorted(metrics.flags),
        })
    out_path = Path(args.out) if args.out else directory / dataio.METRICS_NAME
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with output_lock(out_path.parent):
        write_jsonl(out_path, rows)
    print(f"analyzed {len(rows)} RIRs ({n_failed} failed) -> {out_path}")
    return 1 if rows and n_failed == len(rows) else 0


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
    corpus = _corpus_rows(corpus_dir)
    enrollment: dict = {}
    for row in _corpus_rows(enroll_dir):
        enrollment.setdefault(row["room_id"], []).append(row)
    profiles = {}
    for room_id in dict.fromkeys(row["room_id"] for row in corpus):
        group = enrollment.get(room_id, [])
        if len(group) < 2:
            raise MissingDataError(
                f"enrollment provides {len(group)} RIR(s) for room {room_id!r}, need >= 2"
            )
        profiles[room_id] = build_reference_profile(
            [_read_recording(enroll_dir, row) for row in group])

    # one RIR decoded at a time; only its decision is kept
    result = filter_batch((_read_recording(corpus_dir, row) for row in corpus),
                          profiles, criteria)

    out = Path(args.out) if args.out else corpus_dir
    out.mkdir(parents=True, exist_ok=True)
    with output_lock(out):
        rows = []
        accepted_distances = []
        discrepancies = []
        for meta, decision in zip(corpus, result.decisions):
            row = {
                "rir_id": meta["rir_id"],
                "accepted": decision.accepted,
                "reasons": decision.reason_names(),
                "t60_s": None if decision.metrics is None else float(decision.metrics.t60_s),
                "drr_db": None if decision.metrics is None else float(decision.metrics.drr_db),
                "distance_m": None if decision.distance_m is None else float(decision.distance_m),
            }
            if decision.error is not None:
                row["error"] = decision.error
            if decision.metrics is not None:
                _with_features(row, extract_features(decision.metrics))
            rows.append(row)
            if decision.accepted:
                accepted_distances.append(decision.distance_m)
            if decision.metrics is not None and decision.distance_m is not None:
                discrepancies.append(abs(decision.metrics.geometric_distance_m
                                         - decision.distance_m))
        write_jsonl(out / dataio.DECISIONS_NAME, rows)

        hist_counts = []
        if accepted_distances:
            hist, _ = np.histogram(accepted_distances,
                                   bins=histogram_edges(max(accepted_distances)))
            hist_counts = [int(c) for c in hist]
        write_json(out / dataio.SUMMARY_NAME, {
            "schema_version": dataio.SCHEMA_VERSION,
            "criteria": dataclasses.asdict(criteria),
            "n_input": len(corpus),
            "n_accepted": len(accepted_distances),
            "n_rejected": len(corpus) - len(accepted_distances),
            "yield": result.yield_fraction,
            "reason_histogram": {reason.name: result.reason_counts[reason]
                                 for reason in FilterReason},
            "accepted_distance_histogram": {
                "bin_width_m": HIST_BIN_WIDTH_M,
                "counts": hist_counts,
            },
            "distance_discrepancy_m": {
                "mean": float(np.mean(discrepancies)) if discrepancies else None,
                "max": float(np.max(discrepancies)) if discrepancies else None,
            },
        })
    print(f"filter kept {len(accepted_distances)}/{len(corpus)} "
          f"(yield {result.yield_fraction}) -> {out}")
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

    room_filter = None
    if args.rooms:
        room_filter = {room.room_id for room in _parse_rooms(args.rooms)}

    samples = []
    for decision in decisions:
        if not decision["accepted"]:
            continue
        row = metadata.get(decision["rir_id"])
        if row is None:
            raise MissingDataError(f"accepted RIR {decision['rir_id']} is not in {directory}")
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
    lr_grid = [float(tok) for tok in args.lr_grid.split(",")]
    epoch_grid = [int(tok) for tok in args.epoch_grid.split(",")]
    enforce = not args.allow_out_of_range
    try:
        best, table = grid_search(gs_train, gs_val, lr_grid, epoch_grid, enforce_ranges=enforce)
    except RuntimeError as exc:
        raise ValueError(str(exc)) from exc
    model = train(pairs, best, enforce_ranges=enforce)
    zero_weights_loss = float(np.mean(np.square([dist for _, dist in pairs])))
    if not model.final_loss <= zero_weights_loss:   # NaN fails this too
        raise ValueError(
            f"final fit diverged (lr {best.learning_rate}, {best.epochs} epochs): per-sample "
            f"loss {model.final_loss:.4g} is above {zero_weights_loss:.4g}, the loss of the "
            f"zero weights it starts from")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with output_lock(out):
        write_json(out / dataio.GRID_NAME, {
            "schema_version": dataio.SCHEMA_VERSION,
            "best": {"learning_rate": best.learning_rate, "epochs": best.epochs},
            "cells": [
                {"learning_rate": cell.learning_rate, "epochs": cell.epochs,
                 "val_mae_m": cell.val_mae_m, "final_loss": cell.final_loss,
                 "error": cell.error}
                for cell in table
            ],
        })
        write_jsonl(out / dataio.HOLDOUT_NAME,
                    [_with_features({"rir_id": rid, "distance_m": dist}, fv)
                     for rid, fv, dist in holdout])
        payload = {"schema_version": dataio.SCHEMA_VERSION}
        payload.update(model.to_json_dict())
        write_json(out / dataio.MODEL_NAME, payload)
    print(f"trained on {len(fit_pool)} samples "
          f"(lr {best.learning_rate}, {best.epochs} epochs), "
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
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with output_lock(out):
        eval_payload = {"schema_version": dataio.SCHEMA_VERSION}
        eval_payload.update(report.to_json_dict())
        write_json(out / dataio.EVAL_NAME, eval_payload)
        with open(out / dataio.PER_SAMPLE_NAME, "w") as handle:
            handle.write("rir_id,true_m,predicted_m,residual_m\n")
            for (rir_id, _, _), truth, pred in zip(rows, report.true_m, report.predicted_m):
                t, p = float(truth), float(pred)
                handle.write(f"{rir_id},{t!r},{p!r},{p - t!r}\n")
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


def cmd_report(args) -> int:
    payload = read_json(args.eval)
    check_schema(payload, f"eval report {args.eval}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with output_lock(out):
        (out / "report.txt").write_text(_render_report_text(payload))
        with open(out / "per_range.csv", "w") as handle:
            handle.write("lo_m,hi_m,n,mae_m\n")
            for bucket in payload["per_range"]:
                hi = "" if bucket["hi_m"] is None else f"{bucket['hi_m']!r}"
                mae = "" if bucket["mae_m"] is None else f"{bucket['mae_m']!r}"
                handle.write(f"{bucket['lo_m']!r},{hi},{bucket['n']},{mae}\n")
        hist = payload["histogram"]
        with open(out / "histogram.csv", "w") as handle:
            handle.write("bin_lo_m,bin_hi_m,truth_count,predicted_count\n")
            width = hist["bin_width_m"]
            for i, (t, p) in enumerate(zip(hist["truth_counts"], hist["predicted_counts"])):
                handle.write(f"{i * width!r},{(i + 1) * width!r},{t},{p}\n")
        if args.svg:
            source = Path(args.per_sample) if args.per_sample else (
                Path(args.eval).parent / dataio.PER_SAMPLE_NAME)
            if not source.exists():
                raise MissingDataError(f"per-sample CSV not found for scatter: {source}")
            points = []
            with open(source) as handle:
                next(handle)
                for line in handle:
                    _, truth, pred, _ = line.rstrip("\n").split(",")
                    points.append((float(truth), float(pred)))
            (out / "scatter.svg").write_text(_render_scatter_svg(points))
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
    p.add_argument("--lr-grid", default=",".join(str(v) for v in DEFAULT_LR_GRID),
                   help="comma-separated learning rates")
    p.add_argument("--epoch-grid", default=",".join(str(v) for v in DEFAULT_EPOCH_GRID),
                   help="comma-separated epoch counts")
    p.add_argument("--rooms", default=None,
                   help="optional room subset to train on (same syntax as generate)")
    p.add_argument("--allow-out-of-range", action="store_true",
                   help="permit hyperparameters outside the supported ranges")
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
