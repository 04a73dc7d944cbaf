"""File formats shared by the pipeline stages.

RIRs travel as mono 32-bit float WAV at 32 kHz; everything else is JSON
or JSON-lines. Writers are deterministic byte-for-byte for identical
inputs: fixed key order, repr-roundtrip floats, no timestamps.
"""

from __future__ import annotations

import json
import os
import socket
from pathlib import Path

import numpy as np
from scipy.io import wavfile

SCHEMA_VERSION = 1
LOCK_FILENAME = ".rirdist.lock"

MANIFEST_NAME = "manifest.json"
METADATA_NAME = "metadata.jsonl"
METRICS_NAME = "metrics.jsonl"
DECISIONS_NAME = "decisions.jsonl"
SUMMARY_NAME = "summary.json"
MODEL_NAME = "model.json"
HOLDOUT_NAME = "holdout.jsonl"
GRID_NAME = "grid_search.json"
EVAL_NAME = "eval.json"
PER_SAMPLE_NAME = "per_sample.csv"


class MissingDataError(FileNotFoundError):
    """An expected upstream artifact (manifest, WAV, profile) is absent."""


class SchemaMismatchError(ValueError):
    """Artifacts disagree on a schema version."""


class OutputLockedError(RuntimeError):
    """Another invocation appears to be writing the same output directory."""


def write_wav(path: Path | str, samples: np.ndarray, sample_rate: int) -> None:
    wavfile.write(str(path), sample_rate, np.asarray(samples, dtype=np.float32))


def read_wav(path: Path | str) -> tuple[np.ndarray, int]:
    """Read a mono float WAV, returning float64 samples and the rate."""
    path = Path(path)
    if not path.exists():
        raise MissingDataError(f"WAV file not found: {path}")
    rate, data = wavfile.read(str(path))
    if data.ndim != 1:
        raise ValueError(f"{path} is not mono (shape {data.shape})")
    return np.asarray(data, dtype=np.float64), int(rate)


def write_jsonl(path: Path | str, rows: list[dict]) -> None:
    with open(path, "w") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")


def read_jsonl(path: Path | str) -> list[dict]:
    path = Path(path)
    if not path.exists():
        raise MissingDataError(f"expected file not found: {path}")
    rows = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows


def write_json(path: Path | str, payload: dict) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def read_json(path: Path | str) -> dict:
    path = Path(path)
    if not path.exists():
        raise MissingDataError(f"expected file not found: {path}")
    with open(path) as handle:
        return json.load(handle)


def check_schema(payload: dict, what: str) -> None:
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaMismatchError(
            f"{what} carries schema version {version!r}, this build expects {SCHEMA_VERSION}"
        )


class output_lock:
    """Exclusive advisory lock on an output directory (context manager).

    The lock file holds ``<pid> <hostname>`` of its owner, so a stale lock
    names the run that left it.
    """

    def __init__(self, directory: Path | str):
        self.path = Path(directory) / LOCK_FILENAME
        self._fd = None

    def __enter__(self):
        try:
            self._fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            try:
                owner = self.path.read_text().strip()
            except OSError:
                owner = ""
            raise OutputLockedError(
                f"lock file {self.path} exists, holding {owner!r}; another run may be "
                f"writing here (delete it if that run is dead)"
            ) from None
        try:
            os.write(self._fd, f"{os.getpid()} {socket.gethostname()}\n".encode())
        except OSError:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc_info):
        if self._fd is not None:
            os.close(self._fd)
            self.path.unlink(missing_ok=True)
        return False
