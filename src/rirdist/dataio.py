"""File formats shared by the pipeline stages.

RIRs travel as mono 32-bit float WAV at 32 kHz; everything else is JSON
or JSON-lines. Writers are deterministic byte-for-byte for identical
inputs: fixed key order, repr-roundtrip floats, no timestamps. Every
file but a WAV is written to a sibling temp file and renamed into
place, so a reader sees the old file or the new one, never a part.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np

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


class WavFormatError(ValueError):
    """A WAV file is not the mono IEEE float32 RIFF that :func:`read_wav` accepts."""


# The one WAV layout rirdist writes, byte for byte what scipy.io.wavfile
# writes for a mono float32 array: RIFF/WAVE, an 18-byte "fmt " chunk
# (IEEE float, 1 channel, 32 bits, cbSize 0), a "fact" chunk holding the
# frame count, then "data".
_WAVE_FORMAT_IEEE_FLOAT = 3
_WAV_HEADER = struct.Struct("<4sI4s4sIHHIIHHH4sII4sI")
_FMT_FIELDS = struct.Struct("<HHIIHH")


def write_wav(path: Path | str, samples: np.ndarray, sample_rate: int) -> None:
    """Write mono samples as a 32-bit IEEE float WAV."""
    data = np.ascontiguousarray(samples, dtype="<f4")
    if data.ndim != 1:
        raise ValueError(f"write_wav takes mono samples, got shape {data.shape}")
    if not 0 < sample_rate < 2 ** 30:
        raise ValueError(f"sample rate {sample_rate} outside (0, 2**30)")
    header = _WAV_HEADER.pack(
        b"RIFF", _WAV_HEADER.size - 8 + data.nbytes, b"WAVE",
        b"fmt ", 18, _WAVE_FORMAT_IEEE_FLOAT, 1, sample_rate, 4 * sample_rate, 4, 32, 0,
        b"fact", 4, data.size,
        b"data", data.nbytes)
    with open(path, "wb") as handle:
        handle.write(header)
        handle.write(memoryview(data))


def read_wav(path: Path | str) -> tuple[np.ndarray, int]:
    """Read a mono IEEE float32 WAV, returning float64 samples and the rate.

    Accepts RIFF/WAVE with a "fmt " chunk of format tag 3, one channel
    and 32 bits per sample, followed somewhere by a "data" chunk of
    whole samples. Other chunks (``fact``, ``LIST``, ...) are skipped,
    honouring the pad byte after odd-sized ones. Anything else raises
    :class:`WavFormatError`; a missing file raises
    :class:`MissingDataError`.
    """
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            buf = handle.read()
    except FileNotFoundError:
        raise MissingDataError(f"WAV file not found: {path}") from None

    def bad(why: str) -> WavFormatError:
        return WavFormatError(f"{path} is not a mono float32 WAV: {why}")

    if len(buf) < 12 or buf[:4] != b"RIFF" or buf[8:12] != b"WAVE":
        raise bad("no RIFF/WAVE header")
    rate = None
    offset = 12
    while offset + 8 <= len(buf):
        chunk_id, size = struct.unpack_from("<4sI", buf, offset)
        offset += 8
        if chunk_id == b"fmt ":
            if size < _FMT_FIELDS.size or offset + size > len(buf):
                raise bad(f"fmt chunk of {size} bytes")
            tag, channels, rate, _, _, bits = _FMT_FIELDS.unpack_from(buf, offset)
            if tag != _WAVE_FORMAT_IEEE_FLOAT:
                raise bad(f"format tag {tag}, expected {_WAVE_FORMAT_IEEE_FLOAT} (IEEE float)")
            if channels != 1:
                raise bad(f"{channels} channels")
            if bits != 32:
                raise bad(f"{bits} bits per sample")
        elif chunk_id == b"data":
            if rate is None:
                raise bad("data chunk before any fmt chunk")
            if offset + size > len(buf):
                raise bad(f"data chunk claims {size} bytes, file holds {len(buf) - offset}")
            if size % 4:
                raise bad(f"data chunk of {size} bytes is not whole 4-byte samples")
            samples = np.frombuffer(buf, dtype="<f4", count=size // 4, offset=offset)
            return samples.astype(np.float64), int(rate)
        offset += size + (size & 1)
    raise bad("no data chunk")


@contextlib.contextmanager
def _replacing(path: Path | str):
    """A text handle on a sibling temp file that replaces ``path`` on success.

    On any exception the temp file is removed and ``path`` is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.rirdist-tmp-{os.getpid()}")
    try:
        with open(tmp, "w") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text(path: Path | str, text: str) -> None:
    with _replacing(path) as handle:
        handle.write(text)


def write_jsonl(path: Path | str, rows: Iterable[dict]) -> None:
    """Write ``rows`` one line each as they arrive; ``rows`` may be a generator."""
    with _replacing(path) as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")


def iter_jsonl(path: Path | str) -> Iterator[dict]:
    """The rows of a JSON-lines file, parsed one line at a time; a line that is
    not JSON raises ``ValueError`` naming ``<path>:<line number>``."""
    path = Path(path)
    try:
        handle = open(path)
    except FileNotFoundError:
        raise MissingDataError(f"expected file not found: {path}") from None
    with handle:
        for number, line in enumerate(handle, 1):
            if line.strip():
                try:
                    yield json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{path}:{number}: {exc}") from None


def read_jsonl(path: Path | str) -> list[dict]:
    return list(iter_jsonl(path))


def write_json(path: Path | str, payload: dict) -> None:
    with _replacing(path) as handle:
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


def pid_is_dead(pid: int) -> bool:
    """True when ``pid`` names no live process on this host."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except (OSError, OverflowError):   # alive under another user, or no pid at all
        pass
    return False


class output_lock:
    """Exclusive advisory lock on an output directory (context manager).

    The lock file holds ``<pid> <hostname>`` of its owner, so a stale lock
    names the run that left it. A lock whose owner is a dead process of
    this host, a run that was killed, is removed and taken over; any other
    existing lock, one of another host or one that names no owner, blocks.
    A missing directory is made, and removed again if the block raises
    and leaves it empty.
    """

    def __init__(self, directory: Path | str):
        self.directory = Path(directory)
        self.path = self.directory / LOCK_FILENAME
        self._fd = None

    @staticmethod
    def _owner(path: Path) -> str:
        try:
            return path.read_text()
        except OSError:
            return ""

    def _remove_if_stale(self, owner: str) -> bool:
        """Remove the lock file if ``owner`` is a dead process of this host."""
        fields = owner.split()
        if not (len(fields) == 2 and fields[0].isdecimal()
                and fields[1] == os.uname().nodename and pid_is_dead(int(fields[0]))):
            return False
        # of two runs reclaiming one stale lock, only one can move it aside
        grabbed = self.path.with_name(f"{self.path.name}.stale-{os.getpid()}")
        try:
            os.rename(self.path, grabbed)
        except FileNotFoundError:
            return True
        if self._owner(grabbed) != owner:   # a live run's fresh lock: put it back
            os.rename(grabbed, self.path)
            return False
        grabbed.unlink()
        return True

    def __enter__(self):
        self._made = not self.directory.is_dir()
        self.directory.mkdir(parents=True, exist_ok=True)
        while True:
            try:
                self._fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                break
            except FileExistsError:
                owner = self._owner(self.path)
                if not self._remove_if_stale(owner):
                    raise OutputLockedError(
                        f"lock file {self.path} exists, holding {owner.strip()!r}; another "
                        f"run may be writing here (delete it if that run is dead)"
                    ) from None
        try:
            os.write(self._fd, f"{os.getpid()} {os.uname().nodename}\n".encode())
        except OSError:
            self.__exit__()
            raise
        return self

    def __exit__(self, exc_type=None, *exc_info):
        if self._fd is not None:
            os.close(self._fd)
            self.path.unlink(missing_ok=True)
        if exc_type is not None and self._made:
            with contextlib.suppress(OSError):   # not empty: leave it
                self.directory.rmdir()
        return False
