"""Command-line pipeline: generate -> analyze -> filter -> train -> eval -> report.

Stages hand off through files in plain formats (float32 WAV, JSONL,
JSON), whose contract :mod:`rirdist.corpus` holds; each stage writes its
completion marker last so interrupted runs are detectable. Exit codes:
0 success, 1 when ``analyze`` finds every RIR failing its descriptors,
2 usage or validation problems, 3 missing upstream data, 4 schema
mismatches.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import os
import pickle
import shutil
import sys
from pathlib import Path

import numpy as np

from . import dataio
from .acoustics import DESCRIPTOR_ERRORS, analyze_rir
from .corpus import (
    Corpus,
    metrics_row,
    parse_feature_row,
    parse_rooms,
    remove_dead_stages,
    room_profiles,
    with_features,
)
from .dataio import (
    MissingDataError,
    OutputLockedError,
    SchemaMismatchError,
    check_schema,
    output_lock,
    read_json,
    read_jsonl,
    write_json,
    write_jsonl,
    write_text,
    write_wav,
)
from .estimator import (
    DEFAULT_EPOCH_GRID,
    DEFAULT_STEP_GRID,
    HIST_BIN_WIDTH_M,
    EstimatorModel,
    TrainConfig,
    evaluate,
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
    DEFAULT_CONFIG,
    GeometryError,
    SynthesisConfig,
    normalize_rir,
    sample_scenes,
    synthesize_rir,
)


def _derived_seed(*parts) -> int:
    entropy = [int.from_bytes(str(p).encode(), "little") for p in parts]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def _usable_cpus() -> int:
    """How many processes :func:`_in_processes` runs: one per CPU this process
    may use, or 1 where it cannot fork, or runs a second thread of any kind.
    A forked child would inherit that thread's locks held; and the threads a
    multithreaded BLAS starts at load (OpenBLAS's, unless OPENBLAS_NUM_THREADS
    is 1) spin between calls, so beside one worker per CPU they starve all of
    them: ``analyze`` ran 4-9x slower split over two processes than in one."""
    try:
        alone = len(os.listdir("/proc/self/task")) == 1   # native threads counted too
        return len(os.sched_getaffinity(0)) if alone and hasattr(os, "fork") else 1
    except (OSError, AttributeError):   # no /proc or no sched_getaffinity: not Linux
        return 1


def _in_processes(work, jobs, n_jobs: int):
    """Yield ``work(job)`` for each of the ``n_jobs`` jobs of ``jobs()``, in job order.

    Job *i* runs in process *i* mod *n*, with *n* = :func:`_usable_cpus`
    capped at ``n_jobs``: this process keeps share 0 and a forked child
    takes each other share, sending its results back over its own pipe.
    Every process calls ``jobs()`` itself, after the fork, so a file it
    reads has its own offset in each. An exception a share raises is
    re-raised here at the position of the job it raised at. Children end
    only through ``os._exit``, so they never unwind into the caller's
    ``finally`` blocks or flush its file buffers, and closing the
    generator (or leaving it by an exception) kills and reaps every one:
    callers close it before their own clean-up.
    """
    n = min(_usable_cpus(), n_jobs)
    if n < 2:
        yield from map(work, jobs())
        return
    import signal   # 0.7 ms to import, so not on every stage's import path
    pids, readers = [], []
    try:
        for k in range(1, n):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                _serve_share(work, jobs, k, n, write_fd)
            pids.append(pid)
            os.close(write_fd)
            readers.append(open(read_fd, "rb"))
        shares = [map(work, itertools.islice(jobs(), 0, None, n))]
        shares += map(_received, readers)
        done = object()
        # shares are strided over one job list, so the first to run out ends them all
        for share in itertools.cycle(shares):
            result = next(share, done)
            if result is done:
                return
            yield result
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        for pid in pids:
            os.waitpid(pid, 0)
        for reader in readers:
            reader.close()


def _serve_share(work, jobs, k: int, n: int, write_fd: int):
    """In a forked child: send ``work`` of every *n*-th job from job *k*, then exit."""
    try:
        with open(write_fd, "wb") as pipe:
            def send(kind, value):
                pipe.write(pickle.dumps((kind, value)))   # whole, or not at all
                pipe.flush()

            try:
                for job in itertools.islice(jobs(), k, None, n):
                    send("result", work(job))
                send("end", None)
            except BaseException as exc:   # re-raised in the parent at this job's position
                send("raise", exc)
    finally:
        os._exit(0)


def _received(reader):
    """The results a child's :func:`_serve_share` sends, in order."""
    while True:
        try:
            kind, value = pickle.load(reader)
        except EOFError:
            raise ChildProcessError("a rirdist worker process ended before "
                                    "its share of the jobs was done") from None
        if kind == "end":
            return
        if kind == "raise":
            raise value
        yield value


def cmd_generate(args) -> int:
    if args.n < 1:
        raise ValueError(f"--n must be at least 1, got {args.n}")
    rooms = parse_rooms(args.rooms)
    config = SynthesisConfig(max_image_order=args.order,
                             tail_crossover_ms=args.crossover_ms)
    out = Path(args.out).resolve()
    with output_lock(out):
        if os.listdir(out) != [dataio.LOCK_FILENAME] and not (out / dataio.MANIFEST_NAME).exists():
            raise ValueError(f"{out} holds files but is not a rirdist corpus; not replacing it")
        remove_dead_stages(out)
        # built beside out and swapped in whole, so a failed run leaves the old corpus
        stage, retired = (out.parent / f".{out.name}.rirdist-{kind}-{os.getpid()}"
                          for kind in ("new", "old"))
        stage.mkdir()
        try:
            jobs = [(room, f"room{room.room_id}_{idx:04d}", scene) for room in rooms
                    for idx, scene in enumerate(sample_scenes(
                        room, args.n, seed=_derived_seed(args.seed, room.room_id)))]

            def synthesize(job) -> float:
                room, rir_id, scene = job
                rir = normalize_rir(synthesize_rir(room, scene, config))
                write_wav(stage / f"{rir_id}.wav", rir.samples, rir.sample_rate)
                return float(rir.norm_gain)

            # closed, so every worker is gone, before the metadata is written or stage removed
            with contextlib.closing(_in_processes(synthesize, lambda: jobs, len(jobs))) as gains:
                metadata = [{
                    "rir_id": rir_id,
                    "room_id": room.room_id,
                    "source_pos": list(scene.source_pos),
                    "receiver_pos": list(scene.receiver_pos),
                    "norm_gain": gain,
                    "seed": int(room.seed),
                } for (room, rir_id, scene), gain in zip(jobs, gains)]
            write_jsonl(stage / dataio.METADATA_NAME, metadata)
            # manifest last: its presence marks a complete corpus
            write_json(stage / dataio.MANIFEST_NAME, {
                "schema_version": dataio.SCHEMA_VERSION,
                "seed": int(args.seed),
                "rooms": room_profiles(rooms),
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


def cmd_analyze(args) -> int:
    corpus = Corpus(args.in_dir)
    out_path = Path(args.out) if args.out else corpus.directory / dataio.METRICS_NAME
    n_rows = n_failed = 0

    def describe(meta: dict) -> dict:
        rir = corpus.recording(meta)
        metrics, error = None, None
        try:
            metrics = analyze_rir(rir)
        except DESCRIPTOR_ERRORS as exc:
            error = f"{type(exc).__name__}: {exc}"
        return metrics_row(meta["rir_id"], metrics, rir.metadata_distance(), error)

    def counted(rows):
        nonlocal n_rows, n_failed
        for row in rows:
            n_rows += 1
            n_failed += "error" in row
            yield row

    with output_lock(out_path.parent), contextlib.closing(
            _in_processes(describe, corpus.rows, corpus.count())) as rows:
        write_jsonl(out_path, counted(rows))
    print(f"analyzed {n_rows} RIRs ({n_failed} failed) -> {out_path}")
    return 1 if n_rows and n_failed == n_rows else 0


def cmd_filter(args) -> int:
    criteria = FilterCriteria(**{field.name: getattr(args, field.name)
                                 for field in dataclasses.fields(FilterCriteria)})
    corpus = Corpus(args.in_dir)
    described = corpus.paired_rows((corpus.directory / dataio.METRICS_NAME, "analyze"), grids=True)
    enrollment = Corpus(args.enrollment)
    groups: dict = {}
    for row in enrollment.rows():
        groups.setdefault(row["room_id"], []).append(row)

    def profile(room_id):
        group = groups.get(room_id, [])
        if len(group) < 2:
            raise MissingDataError(f"enrollment provides {len(group)} RIR(s) for room "
                                   f"{room_id!r}, need >= 2")
        return build_reference_profile(map(enrollment.recording, group))

    room_ids = corpus.room_ids()
    with contextlib.closing(_in_processes(profile, lambda: room_ids, len(room_ids))) as built:
        profiles = dict(zip(room_ids, built))

    out = Path(args.out) if args.out else corpus.directory
    n_input = 0
    reason_counts = dict.fromkeys(FilterReason, 0)
    accepted_distances = []
    discrepancies = []

    def decision_rows():
        """Each RIR's verdict as the screen reaches it: only the counts above are kept."""
        nonlocal n_input
        # filter_batch yields decisions only; tee hands this loop each row beside its decision
        checked, screened = itertools.tee((meta["room_id"], row) for meta, row in described)
        for (_, row), decision in zip(checked, filter_batch(screened, profiles, criteria)):
            n_input += 1
            for reason in decision.reasons:
                reason_counts[reason] += 1
            if decision.accepted:
                accepted_distances.append(row["distance_m"])
            if row["measured_distance_m"] is not None:
                discrepancies.append(abs(row["measured_distance_m"] - row["distance_m"]))
            yield {"rir_id": row["rir_id"], "distance_m": row["distance_m"],
                   "accepted": decision.accepted, "reasons": decision.reason_names(),
                   **({} if decision.error is None else {"error": decision.error})}

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


def cmd_train(args) -> int:
    if not 0.0 <= args.holdout < 1.0:   # nan too
        raise ValueError(f"--holdout must be in [0, 1), got {args.holdout}")
    corpus = Corpus(args.in_dir)
    decisions = Path(args.decisions) if args.decisions else corpus.directory / dataio.DECISIONS_NAME
    room_filter = {room.room_id for room in parse_rooms(args.rooms)} if args.rooms else None

    samples = []
    for meta, decision, row in corpus.paired_rows(
            (decisions, "filter"), (corpus.directory / dataio.METRICS_NAME, "analyze")):
        accepted = decision.get("accepted")
        if type(accepted) is not bool:
            raise SchemaMismatchError(f"{decisions}: row {decision['rir_id']!r} has accepted "
                                      f"{accepted!r}, not true or false; re-run rirdist "
                                      f"filter --in {corpus.directory}")
        if accepted and (room_filter is None or meta["room_id"] in room_filter):
            samples.append(parse_feature_row(row))   # analyze's features; no WAV decoded
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
    with output_lock(out):
        write_json(out / dataio.GRID_NAME, {
            "schema_version": dataio.SCHEMA_VERSION,
            "best": {"step_fraction": best.step_fraction, "epochs": best.epochs},
            "cells": [dataclasses.asdict(cell) for cell in table],
        })
        write_jsonl(out / dataio.HOLDOUT_NAME,
                    [with_features({"rir_id": rid, "distance_m": dist}, fv)
                     for rid, fv, dist in holdout])
        write_json(out / dataio.MODEL_NAME,
                   {"schema_version": dataio.SCHEMA_VERSION, **model.to_json_dict()})
    print(f"trained on {len(fit_pool)} samples "
          f"(step {best.step_fraction:g}/L, {best.epochs} epochs), "
          f"{len(holdout)} held out -> {out}")
    return 0


def cmd_eval(args) -> int:
    payload = read_json(args.model)
    check_schema(payload, f"model {args.model}")
    try:
        model = EstimatorModel.from_json_dict(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaMismatchError(f"model {args.model} does not load: {exc!r}") from exc
    rows = [parse_feature_row(row) for row in read_jsonl(args.dataset)]
    if not rows:
        raise ValueError(f"dataset {args.dataset} is empty")

    report = evaluate(model, [(fv, dist) for _, fv, dist in rows])
    per_sample = ["rir_id,true_m,predicted_m,residual_m\n"]
    for (rir_id, _, _), truth, pred in zip(rows, report.true_m, report.predicted_m):
        t, p = float(truth), float(pred)
        per_sample.append(f"{rir_id},{t!r},{p!r},{p - t!r}\n")
    out = Path(args.out)
    with output_lock(out):
        write_text(out / dataio.PER_SAMPLE_NAME, "".join(per_sample))
        write_json(out / dataio.EVAL_NAME,   # last: marks a complete eval
                   {"schema_version": dataio.SCHEMA_VERSION, **report.to_json_dict()})
    print(f"evaluated {report.n_samples} samples, MAE {report.mae_m:.4f} m -> {out}")
    return 0


def _render_scatter_svg(points: list[tuple[float, float]]) -> str:
    size, margin = 480.0, 40.0
    top = max([1.0] + [max(t, p) for t, p in points])
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
        if not handle.readline():
            raise ValueError(f"{source}: empty, without even its header row")
        for line in handle:
            try:
                _, truth, pred, _ = line.rstrip("\n").split(",")
                points.append((float(truth), float(pred)))
            except ValueError:
                raise ValueError(f"{source}: malformed per-sample row {line!r}") from None
    return points


def _render_tables(payload: dict) -> dict[str, str]:
    """``report.txt``, ``per_range.csv`` and ``histogram.csv`` of an eval payload."""
    pearson = payload["pearson_r"]
    text = ["distance estimation report", "=" * 26, "",
            f"samples:   {payload['n_samples']}",
            f"MAE:       {payload['mae_m']:.4f} m",
            f"pearson r: {'undefined' if pearson is None else f'{pearson:.4f}'}",
            "", "per-range MAE", f"{'range':>14}  {'n':>6}  {'mae_m':>10}"]
    per_range = ["lo_m,hi_m,n,mae_m\n"]
    for bucket in payload["per_range"]:
        lo, hi, n, mae = bucket["lo_m"], bucket["hi_m"], bucket["n"], bucket["mae_m"]
        label = f"[{lo:g}, {'inf' if hi is None else f'{hi:g}'})"
        text.append(f"{label:>14}  {n:>6}  {'-' if mae is None else f'{mae:.4f}':>10}")
        per_range.append(f"{lo!r},{'' if hi is None else repr(hi)},{n},"
                         f"{'' if mae is None else repr(mae)}\n")
    hist = payload["histogram"]
    width = hist["bin_width_m"]
    text += ["", f"distance histogram ({width:g} m bins)",
             f"{'bin':>14}  {'truth':>6}  {'predicted':>10}"]
    histogram = ["bin_lo_m,bin_hi_m,truth_count,predicted_count\n"]
    for i, (t, p) in enumerate(zip(hist["truth_counts"], hist["predicted_counts"])):
        label = f"[{i * width:g}, {(i + 1) * width:g})"
        text.append(f"{label:>14}  {t:>6}  {p:>10}")
        histogram.append(f"{i * width!r},{(i + 1) * width!r},{t},{p}\n")
    return {"report.txt": "\n".join(text + [""]), "per_range.csv": "".join(per_range),
            "histogram.csv": "".join(histogram)}


def cmd_report(args) -> int:
    payload = read_json(args.eval)
    check_schema(payload, f"eval report {args.eval}")
    # every file is rendered before any is written, so a failure leaves --out as it was
    try:
        files = _render_tables(payload)
    except (KeyError, TypeError) as exc:
        raise SchemaMismatchError(f"eval report {args.eval} is malformed: {exc!r}") from exc
    if args.svg:
        source = Path(args.per_sample) if args.per_sample else (
            Path(args.eval).parent / dataio.PER_SAMPLE_NAME)
        files["scatter.svg"] = _render_scatter_svg(_read_scatter_points(source))

    out = Path(args.out)
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
    p.add_argument("--order", type=int, default=DEFAULT_CONFIG.max_image_order,
                   help="image-source reflection cap (default %(default)s)")
    p.add_argument("--crossover-ms", type=float, default=DEFAULT_CONFIG.tail_crossover_ms,
                   help="early/tail crossover in milliseconds (default %(default)s)")
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
    criteria = FilterCriteria()   # each flag sets the field it is stored under
    for flag, field, text in (
        ("--t60-tol", "t60_rel_tolerance", "relative T60 band around the enrollment median "
         f"(default %(default)s, i.e. {100 * criteria.t60_rel_tolerance:g}%%)"),
        ("--t60-cutoff", "t60_hard_cutoff_s", "absolute T60 ceiling in seconds"),
        ("--dist-min", "min_distance_m", "minimum source-receiver distance in meters"),
        ("--dist-max", "max_distance_m", "maximum source-receiver distance in meters"),
        ("--edc-dev", "edc_max_rms_dev_db", "max RMS decay-curve deviation in dB"),
        ("--echo-dev", "echo_max_rel_dev", "max relative echo-count deviation"),
    ):
        p.add_argument(flag, dest=field, type=float, default=getattr(criteria, field),
                       help=text if "%(default)s" in text else f"{text} (default %(default)s)")
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
