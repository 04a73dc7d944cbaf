#!/usr/bin/env python3
"""Benchmark of the rirdist pipeline, driven through its public CLI entry point.

Run from the repository root:

    python3 perfbench/run.py --workload pipeline --seed 7 --seconds 30 --trace 0

Every workload uses built-in rooms 1-20 with ``--scenes`` scenes per room
(default 50; 200 is the acceptance shape) and, where enrollment is
needed, 20 enrollment scenes per room drawn with seed + 1000:

  pipeline   generate, generate-enrollment, analyze, filter, train, eval and
             report --svg, all timed. The golden run: every module does its
             real share of the work.
  synthesis  generate only. synth and WAV writes do the work; acoustics,
             filtering and estimator do none, so descriptor work must not move it.
  screening  corpus and enrollment are generated during set-up; analyze,
             filter, train, eval and report are timed. acoustics and WAV reads
             do the work; synth does none in the timed part.

One process and one client in a closed loop: each stage starts when the
previous one has returned. A run repeats the workload until ``--seconds``
have passed (at least MIN_REPS times) and reports medians.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced repetitions; the traced ones wrap the public
functions of six rirdist modules (see tracing.py) and give the
per-layer metrics, and the difference between the two is the tracing
overhead. The last stdout line is the result object; the line before it
is a JSON record holding the environment, all end-to-end figures with
their sample counts, the output checks, and the sha256 of every
artifact and of each output directory.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread, set before numpy loads OpenBLAS. The pipeline is measured
# as single-threaded work. OpenBLAS's default of one thread per core made it
# slower on two cores while using about 1.5x the CPU time. It also changed
# the last digits of the least-squares fits, so the artifact digests would
# depend on the core count.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.io import wavfile  # noqa: E402

from tracing import SAMPLED, TraceError, Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

ROOMS = "1-20"
N_ROOMS = 20
DEFAULT_SCENES = 50
ENROLL_PER_ROOM = 20
ENROLL_SEED_OFFSET = 1000
HOLDOUT = 0.2
SAMPLES_PER_RIR = 32000
MIN_REPS = 3
IMPORT_SAMPLES = 5
MAE_BOUND_M = 0.5

# (set-up stages, timed stages) per workload, run in this order.
WORKLOADS = {
    "pipeline": ((), ("generate", "enroll", "analyze", "filter", "train", "eval", "report")),
    "synthesis": ((), ("generate",)),
    "screening": (("generate", "enroll"), ("analyze", "filter", "train", "eval", "report")),
}

# Traced names (prefixes) each timed stage must call at least once.
STAGE_EXERCISES = {
    "generate": ("synth.", "dataio.write_", "cli.cmd_generate"),
    "enroll": ("synth.", "dataio.write_", "cli.cmd_generate"),
    "analyze": ("acoustics.", "dataio.read_", "dataio.write_jsonl", "cli.cmd_analyze"),
    "filter": ("filtering.", "cli.cmd_filter"),
    "train": ("estimator.extract_features", "estimator.grid_search", "estimator.train",
              "cli.cmd_train"),
    "eval": ("estimator.evaluate", "dataio.write_json", "cli.cmd_eval"),
    "report": ("cli.cmd_report",),
}

# Artifacts written by each stage, as (directory, file name or None for any).
ARTIFACT_OWNERS = (
    ("corpus", "metrics.jsonl", "analyze"),
    ("corpus", "decisions.jsonl", "filter"),
    ("corpus", "summary.json", "filter"),
    ("corpus", None, "generate"),
    ("enroll", None, "enroll"),
    ("model", None, "train"),
    ("eval", None, "eval"),
    ("report", None, "report"),
)

# End-to-end metrics in the result line (BENCHMARK.json "end_to_end"): the ones
# every workload has. Stage times, holdout MAE and failed_fraction go to the
# record line, because each exists on some workloads only or is 0 today.
GATED = ("setup_s", "rirs_per_s", "peak_rss_mb")

REPORT_FILES = ("report.txt", "per_range.csv", "histogram.csv", "scatter.svg")

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import rirdist.cli; "
                "print(time.perf_counter() - t)")


def stage_argv(stage: str, work: Path, seed: int, scenes: int) -> list[str]:
    corpus, enroll = work / "corpus", work / "enroll"
    model, evaldir = work / "model", work / "eval"
    return {
        "generate": ["generate", "--out", corpus, "--rooms", ROOMS,
                     "--n", scenes, "--seed", seed],
        "enroll": ["generate", "--out", enroll, "--rooms", ROOMS,
                   "--n", ENROLL_PER_ROOM, "--seed", seed + ENROLL_SEED_OFFSET],
        "analyze": ["analyze", "--in", corpus],
        "filter": ["filter", "--in", corpus, "--enrollment", enroll],
        "train": ["train", "--in", corpus, "--out", model, "--seed", seed,
                  "--holdout", HOLDOUT],
        "eval": ["eval", "--model", model / "model.json",
                 "--dataset", model / "holdout.jsonl", "--out", evaldir],
        "report": ["report", "--eval", evaldir / "eval.json",
                   "--out", work / "report", "--svg"],
    }[stage]


def run_stage(cli_main, argv) -> tuple[int | None, float]:
    """Run one CLI stage in-process; returns (exit code or None, wall seconds)."""
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            code = cli_main([str(a) for a in argv])
    except Exception:   # a crashing stage is a failed stage, not a crashed benchmark
        traceback.print_exc()
        code = None
    return code, time.perf_counter() - start


def run_rep(cli_main, workload, work, seed, scenes, tracer=None) -> dict:
    """One repetition: fresh work directory, set-up stages, then timed stages."""
    shutil.rmtree(work, ignore_errors=True)
    setup_stages, timed_stages = WORKLOADS[workload]
    codes, times = {}, {}
    start = time.perf_counter()
    work.mkdir(parents=True)
    for stage in setup_stages:
        codes[stage], times[stage] = run_stage(cli_main, stage_argv(stage, work, seed, scenes))
    build_s = time.perf_counter() - start

    with tracer or contextlib.nullcontext():
        start = time.perf_counter()
        for stage in timed_stages:
            codes[stage], times[stage] = run_stage(cli_main,
                                                   stage_argv(stage, work, seed, scenes))
        timed_s = time.perf_counter() - start
    return {"codes": codes, "times": times, "build_s": build_s, "timed_s": timed_s,
            "digests": digest_tree(work)}


# ---------------------------------------------------------------- output checks

def read_jsonl(path: Path) -> list[dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def check_corpus(directory: Path, expected: int) -> list[str]:
    """Row counts plus: every WAV is 32,000 finite float samples with peak 1.0."""
    manifest = json.loads((directory / "manifest.json").read_text())
    rows = read_jsonl(directory / "metadata.jsonl")
    problems = []
    if manifest.get("count") != expected or len(rows) != expected:
        problems.append(f"manifest count {manifest.get('count')} and {len(rows)} metadata "
                        f"rows, expected {expected}")
    n_wavs = len(list(directory.glob("*.wav")))
    if n_wavs != expected:
        problems.append(f"{n_wavs} WAV files, expected {expected}")
    for row in rows:
        _, data = wavfile.read(directory / f"{row['rir_id']}.wav")
        if data.shape != (SAMPLES_PER_RIR,) or data.dtype != np.float32:
            problems.append(f"{row['rir_id']}.wav has shape {data.shape} {data.dtype}")
        elif not np.all(np.isfinite(data)) or float(np.max(np.abs(data))) != 1.0:
            problems.append(f"{row['rir_id']}.wav is non-finite or its peak is not 1.0")
    return problems


def expected_holdout(accepted: int) -> int:
    """Holdout size rirdist's split gives for ``accepted`` rows (split_dataset)."""
    return accepted - min(accepted - 1, max(1, round(accepted * (1.0 - HOLDOUT))))


def holdout_accuracy(work: Path) -> tuple[float, list[str]]:
    """eval.json MAE, and the criterion-6 bounds on per_sample.csv over 1-7 m."""
    mae_m = json.loads((work / "eval" / "eval.json").read_text())["mae_m"]
    lines = (work / "eval" / "per_sample.csv").read_text().splitlines()[1:]
    parsed = [(rid, float(t), float(p)) for rid, t, p, _ in (ln.split(",") for ln in lines)]
    held = {rid for rid, _, _ in parsed}
    meta = {row["rir_id"]: row for row in read_jsonl(work / "corpus" / "metadata.jsonl")}

    def distance(rid):
        row = meta[rid]
        return float(np.linalg.norm(np.subtract(row["source_pos"], row["receiver_pos"])))

    fit_ids = [row["rir_id"] for row in read_jsonl(work / "corpus" / "decisions.jsonl")
               if row["accepted"] and row["rir_id"] not in held]
    mean_m = float(np.mean([distance(rid) for rid in fit_ids]))
    in_range = [(t, p) for _, t, p in parsed if 1.0 <= t <= 7.0]
    if not in_range:
        return mae_m, ["no held-out sample in 1-7 m"]
    mae = float(np.mean([abs(p - t) for t, p in in_range]))
    baseline = float(np.mean([abs(mean_m - t) for t, _ in in_range]))
    if mae < MAE_BOUND_M and mae < 0.5 * baseline:
        return mae_m, []
    return mae_m, [f"MAE over 1-7 m {mae:.4f} m fails < {MAE_BOUND_M} m and "
                   f"< half the constant-mean baseline {baseline:.4f} m"]


def check_outputs(stages, work: Path, n_corpus: int, n_enroll: int) -> dict:
    """Seed-independent checks of one repetition's artifacts.

    Returns per-stage operation counts (one RIR through one stage), failed
    operations, the problems found, and the facts later reports need.
    """
    ops, failed, problems = {}, {}, []
    facts = {"accepted": 0, "holdout": 0, "holdout_mae_m": None}

    def fail(stage, why):
        problems.append(f"{stage}: {why}")
        failed[stage] = ops[stage]

    for stage in stages:
        failed[stage] = 0
        try:
            if stage in ("generate", "enroll"):
                ops[stage] = n_corpus if stage == "generate" else n_enroll
                for why in check_corpus(work / ("corpus" if stage == "generate" else "enroll"),
                                        ops[stage]):
                    fail(stage, why)
            elif stage in ("analyze", "filter"):
                ops[stage] = n_corpus
                name = "metrics.jsonl" if stage == "analyze" else "decisions.jsonl"
                rows = read_jsonl(work / "corpus" / name)
                if len(rows) != n_corpus:
                    fail(stage, f"{len(rows)} rows in {name}, expected {n_corpus}")
                failed[stage] = max(failed[stage], sum("error" in row for row in rows))
                if stage == "filter":
                    facts["accepted"] = sum(bool(row["accepted"]) for row in rows)
                    facts["holdout"] = expected_holdout(facts["accepted"])
            elif stage == "train":
                ops[stage] = facts["accepted"]
                rows = read_jsonl(work / "model" / "holdout.jsonl")
                if len(rows) != facts["holdout"] or not (work / "model" / "model.json").is_file():
                    fail(stage, f"{len(rows)} holdout rows or no model.json, "
                                f"expected {facts['holdout']} rows")
            elif stage == "eval":
                ops[stage] = facts["holdout"]
                n_rows = len((work / "eval" / "per_sample.csv").read_text().splitlines()) - 1
                n_eval = json.loads((work / "eval" / "eval.json").read_text())["n_samples"]
                if n_rows != facts["holdout"] or n_eval != facts["holdout"]:
                    fail(stage, f"{n_rows} per_sample rows and n_samples {n_eval}, "
                                f"expected {facts['holdout']}")
                facts["holdout_mae_m"], why = holdout_accuracy(work)
                for reason in why:
                    fail(stage, reason)
            elif stage == "report":
                ops[stage] = facts["holdout"]
                missing = [n for n in REPORT_FILES if not (work / "report" / n).is_file()]
                points = (0 if missing else
                          (work / "report" / "scatter.svg").read_text().count("<circle"))
                if missing or points != facts["holdout"]:
                    fail(stage, f"missing {missing} or {points} scatter points, "
                                f"expected {facts['holdout']}")
        except (OSError, ValueError, KeyError) as exc:
            ops.setdefault(stage, n_corpus)
            fail(stage, f"unreadable output: {type(exc).__name__}: {exc}")
    return {"ops": ops, "failed": failed, "problems": problems, "facts": facts}


def digest_tree(root: Path) -> dict[str, str]:
    digests = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digests[path.relative_to(root).as_posix()] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return digests


def digest_dirs(digests: dict[str, str]) -> dict[str, str]:
    """One sha256 per top-level directory, over its sorted "path digest" lines."""
    trees = {}
    for path, digest in sorted(digests.items()):
        trees.setdefault(path.split("/")[0], hashlib.sha256()).update(
            f"{path} {digest}\n".encode())
    return {directory: tree.hexdigest() for directory, tree in trees.items()}


def artifact_stage(relpath: str) -> str:
    directory, _, name = relpath.partition("/")
    for owner_dir, owner_name, stage in ARTIFACT_OWNERS:
        if directory == owner_dir and owner_name in (None, name):
            return stage
    return "generate"


def account(rep: dict, first: dict | None, checked: dict) -> dict:
    """Failed operations of one repetition.

    The first repetition is checked in full; later ones must reproduce its
    artifacts byte for byte (criterion 7), which makes their checks equal.
    """
    failed = dict(checked["failed"])
    problems = list(checked["problems"]) if first is None else []
    stages = list(checked["ops"])

    def fail(stage, why):
        problems.append(f"{stage}: {why}")
        failed[stage] = checked["ops"].get(stage, 0)

    for stage in stages:
        if rep["codes"].get(stage) != 0:
            fail(stage, f"exit code {rep['codes'].get(stage)}")
    if first is not None:
        paths = set(rep["digests"]) | set(first["digests"])
        for path in sorted(p for p in paths
                           if rep["digests"].get(p) != first["digests"].get(p)):
            fail(artifact_stage(path), f"{path} differs from repetition 1")
    return {"failed": sum(failed.values()), "problems": problems}


# ---------------------------------------------------------------- environment

def openblas_threads() -> int | None:
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment(seed: int, scenes: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():   # absent in an exported checkout; source_sha256 remains
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            commit = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted((SRC / "rirdist").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "openblas_threads": openblas_threads(),
        "seed": seed,
        "enroll_seed": seed + ENROLL_SEED_OFFSET,
        "rooms": ROOMS,
        "scenes_per_room": scenes,
        "enroll_per_room": ENROLL_PER_ROOM,
    }


def import_seconds(count: int) -> list[float]:
    """Wall time of ``import rirdist.cli`` in ``count`` fresh interpreters."""
    samples = []
    for _ in range(count):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


# ---------------------------------------------------------------- summaries

def summary(values: list[float]) -> dict:
    return {"median": statistics.median(values), "min": min(values), "max": max(values),
            "n": len(values)}


def end_to_end(workload, reps, imports, n_corpus, attempted, failed, facts) -> dict:
    """All nine end-to-end figures as {name: (value, unit)}; stage times only if timed."""
    setup, timed = WORKLOADS[workload]
    med = statistics.median
    figures = {
        "setup_s": (med(imports) + med(r["build_s"] for r in reps), "s"),
        "rirs_per_s": (n_corpus / med(r["timed_s"] for r in reps), "RIR/s"),
    }
    # On screening the corpus generate runs in set-up: it is still timed, as set-up.
    for stage in ("generate", "analyze", "filter", "train"):
        if stage in setup or stage in timed:
            figures[f"{stage}_s"] = (med(r["times"][stage] for r in reps), "s")
    figures["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    if "eval" in timed:
        figures["holdout_mae_m"] = (facts["holdout_mae_m"], "m")
    figures["failed_fraction"] = (failed / attempted, "ratio")
    return figures


def per_layer(tracers, n_corpus, overhead_s) -> dict:
    """Per-layer figures as {name: (value, unit)} from the traced repetitions."""
    med = statistics.median
    first = tracers[0].stats
    figures = {}
    for key, stats in first.items():
        if not key.startswith("cli."):
            figures[f"{key}.calls"] = (stats.calls, "count")
        figures[f"{key}.self_s"] = (med(t.stats[key].self_s for t in tracers), "s")
        if key in SAMPLED:
            pooled = sorted(d for t in tracers for d in t.stats[key].durations_s)
            p50 = statistics.median(pooled) if pooled else 0.0
            p99 = (statistics.quantiles(pooled, n=100, method="inclusive")[98]
                   if len(pooled) > 1 else p50)
            figures[f"{key}.p50_ms"] = (1000.0 * p50, "ms")
            figures[f"{key}.p99_ms"] = (1000.0 * p99, "ms")
    for key in ("acoustics.schroeder_edc", "acoustics.analyze_rir", "dataio.read_wav"):
        figures[f"{key}.calls_per_rir"] = (first[key].calls / n_corpus, "calls/RIR")
    for key in ("dataio.read_wav", "dataio.write_wav"):
        figures[f"{key}.bytes"] = (first[key].counters.get("bytes", 0), "B")
    screened = first["filtering.apply_quality_filter"]
    figures["filtering.accept_ratio"] = (
        screened.counters.get("accepted", 0) / screened.calls if screened.calls else 0.0,
        "ratio")
    figures["estimator.grid_search.cells_failed"] = (
        first["estimator.grid_search"].counters.get("cells_failed", 0), "count")
    figures["trace.overhead_s"] = (overhead_s, "s")
    return figures


def self_check(workload, tracers, n_corpus, n_enroll, accepted) -> dict:
    """Validate the tracer: required names were called and counts repeat exactly.

    Raises TraceError when a name a timed stage must exercise saw no call,
    or when repetitions of one input disagree on a count. Returns today's
    call-count identities for the screening stages, with whether they hold.
    """
    stats = tracers[0].stats
    prefixes = [p for stage in WORKLOADS[workload][1] for p in STAGE_EXERCISES[stage]]
    idle = [key for key in stats
            if any(key.startswith(p) for p in prefixes) and stats[key].calls == 0]
    if idle:
        raise TraceError(f"traced names saw no call on {workload}: {', '.join(idle)}")
    for tracer in tracers[1:]:
        for key, other in tracer.stats.items():
            if (other.calls, other.counters) != (stats[key].calls, stats[key].counters):
                raise TraceError(f"{key} counts differ between traced repetitions")
    identities = {}
    if "filter" in WORKLOADS[workload][1]:
        expected = {"dataio.read_wav": 3 * n_corpus + n_enroll,
                    "acoustics.schroeder_edc": 3 * n_corpus + n_enroll + accepted}
        for key, want in expected.items():
            identities[key] = {"expected": want, "calls": stats[key].calls,
                               "holds": stats[key].calls == want}
            if stats[key].calls != want:
                print(f"WARNING: {key}.calls is {stats[key].calls}, today's identity "
                      f"gives {want}; the work per RIR has changed", file=sys.stderr)
    return identities


# ---------------------------------------------------------------- main

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=36.0,
                        help="measurement length; at least MIN_REPS repetitions run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scenes", type=int, default=DEFAULT_SCENES,
                        help="scenes per room (200 is the acceptance shape)")
    return parser.parse_args(argv)


def measure(args, cli_main, work) -> tuple[dict, dict, dict]:
    """Repeat the workload for --seconds; returns (record, result, end-to-end figures)."""
    n_corpus, n_enroll = N_ROOMS * args.scenes, N_ROOMS * ENROLL_PER_ROOM
    setup, timed = WORKLOADS[args.workload]
    # The last MIN_REPS import probes go before the first repetitions, so
    # that they sample more of the run than one burst would.
    imports = import_seconds(IMPORT_SAMPLES - MIN_REPS)

    plain, traced, tracers = [], [], []
    first, checked = None, None
    attempted = failed = 0
    problems = []
    started = time.perf_counter()
    while True:
        if len(imports) < IMPORT_SAMPLES:
            imports += import_seconds(1)
        tracer = Tracer() if args.trace and len(plain) > len(traced) else None
        rep = run_rep(cli_main, args.workload, work, args.seed, args.scenes, tracer)
        if checked is None:
            checked = check_outputs(setup + timed, work, n_corpus, n_enroll)
        verdict = account(rep, first, checked)
        first = first or rep
        attempted += sum(checked["ops"].values())
        failed += verdict["failed"]
        problems += verdict["problems"]
        (plain if tracer is None else traced).append(rep)
        if tracer is not None:
            tracers.append(tracer)
        reps = plain + traced
        elapsed = time.perf_counter() - started
        # stop before a repetition of average length would overrun the budget
        if len(reps) >= MIN_REPS and elapsed * (len(reps) + 1) / len(reps) > args.seconds:
            break

    facts = checked["facts"]
    figures = end_to_end(args.workload, plain, imports, n_corpus, max(attempted, 1),
                         failed, facts)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed, args.scenes),
        "shape": {"corpus_rirs": n_corpus,
                  "enroll_rirs": n_enroll if "enroll" in setup + timed else 0,
                  "accepted": facts["accepted"], "holdout": facts["holdout"]},
        "loop": "closed, one client, one process; stages run back to back",
        "wait_s": "not applicable: single-threaded, no stage or layer waits on another",
        "repetitions": {"untraced": len(plain), "traced": len(traced)},
        "import_s": summary(imports),
        "build_s": summary([r["build_s"] for r in plain]),
        "timed_s": summary([r["timed_s"] for r in plain]),
        "stage_s": {stage: summary([r["times"][stage] for r in plain])
                    for stage in setup + timed},
        "end_to_end": {name: {"value": v, "unit": u} for name, (v, u) in figures.items()},
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "artifacts": first["digests"],
        "artifact_dirs": digest_dirs(first["digests"]),
    }
    if args.trace:
        overhead = (statistics.median(r["timed_s"] for r in traced)
                    - statistics.median(r["timed_s"] for r in plain))
        record["identities"] = self_check(args.workload, tracers, n_corpus, n_enroll,
                                          facts["accepted"])
        record["traced_timed_s"] = summary([r["timed_s"] for r in traced])
        record["percentile_samples"] = {key: len(tracers[0].stats[key].durations_s)
                                        * len(tracers) for key in ("synth.synthesize_rir",
                                                                    "acoustics.analyze_rir")}
        layer = per_layer(tracers, n_corpus, overhead)
        record["per_layer"] = {name: {"value": v, "unit": u} for name, (v, u) in layer.items()}
        shown = layer
    else:
        shown = {name: figures[name] for name in GATED}
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in shown.items()},
    }
    return record, result, figures


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.scenes < 1 or args.seconds <= 0:
        print("error: --scenes and --seconds must be positive", file=sys.stderr)
        return 2
    if not (SRC / "rirdist" / "cli.py").is_file():
        print(f"error: rirdist sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from rirdist.cli import main as cli_main

    work = BENCH_DIR / ".work" / f"{args.workload}-{os.getpid()}"
    try:
        record, result, figures = measure(args, cli_main, work)
    except TraceError as exc:
        print(f"error: tracing failed: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()   # only if no other run is using it
    for name, (value, unit) in figures.items():
        print(f"{name:16s} {value!r} {unit}")
    for problem in record["problems"]:
        print(f"check failed: {problem}")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
