"""The artifact contract between pipeline stages.

A corpus directory holds one WAV per RIR, ``metadata.jsonl`` (a row per
RIR, in corpus order) and, written last, ``manifest.json``. Here live the
:class:`Corpus` that opens one, the room profiles a manifest lists, and
the rows that ``analyze``, ``filter``, ``train`` and ``eval`` exchange.
"""

from __future__ import annotations

import binascii
import re
import shutil
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from . import dataio
from .acoustics import EDC_GRID_POINTS, AcousticMetrics, RIRecording, source_receiver_distance
from .dataio import SchemaMismatchError, check_schema, iter_jsonl, read_json, read_wav
from .estimator import FEATURE_NAMES, FEATURE_SCHEMA_VERSION, FeatureVector, extract_features
from .synth import GeometryError, ShoeboxRoom, builtin_room, builtin_room_ids

_ROOM_ID = re.compile(r"[A-Za-z0-9_.-]+")


def parse_rooms(selector: str) -> list[ShoeboxRoom]:
    """Room selection: 'A-B' range, comma list of ids, or a JSON profile file.

    A profile file (a corpus's ``manifest.json`` is one) lists rooms in
    the shape :func:`room_profiles` writes. A room's id names its WAVs
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
        unknown = [rid for rid in ids if rid not in builtin_room_ids()]
        if unknown:
            raise ValueError(f"unknown built-in room id {unknown[0]}; built-ins are 1-20")
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


def room_profiles(rooms: list[ShoeboxRoom]) -> list[dict]:
    """``rooms`` in the profile-file shape :func:`parse_rooms` reads back."""
    return [{"room_id": room.room_id, "dims": list(room.dims),
             "absorption": float(room.absorption), "seed": int(room.seed)} for room in rooms]


def remove_dead_stages(out: Path) -> None:
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


class Corpus:
    """A complete corpus directory. Its manifest is read and checked once, on
    opening; metadata rows, recordings and paired artifact rows are handed
    out one at a time."""

    def __init__(self, directory: Path | str):
        self.directory = Path(directory)
        self.manifest = read_json(self.directory / dataio.MANIFEST_NAME)
        check_schema(self.manifest, f"manifest in {self.directory}")

    def rows(self) -> Iterator[dict]:
        """Metadata rows, read one at a time; each row's positions must be three numbers."""
        path = self.directory / dataio.METADATA_NAME
        for row in iter_jsonl(path):
            for key in ("source_pos", "receiver_pos"):
                pos = row.get(key)
                if not (isinstance(pos, list) and len(pos) == 3 and all(map(_is_real, pos))):
                    raise SchemaMismatchError(f"{path}: row {row.get('rir_id')!r} has {key} "
                                              f"{pos!r}, not three numbers")
            yield row

    def room_ids(self) -> list:
        """Ids of the rooms whose profiles the manifest lists, in its order."""
        try:
            return [entry["room_id"] for entry in self.manifest["rooms"]]
        except (KeyError, TypeError):
            raise SchemaMismatchError(f"manifest in {self.directory} lists no room profiles; "
                                      f"re-run rirdist generate") from None

    def count(self) -> int:
        """How many RIRs the manifest says the corpus holds."""
        count = self.manifest.get("count")
        if type(count) is not int or count < 0:
            raise SchemaMismatchError(f"manifest in {self.directory} has count {count!r}, "
                                      f"not a number of RIRs; re-run rirdist generate")
        return count

    def recording(self, row: dict) -> RIRecording:
        """The decoded WAV of a metadata row, with the row's scene."""
        samples, rate = read_wav(self.directory / f"{row['rir_id']}.wav")
        return RIRecording(samples=samples, sample_rate=rate,
                           source_pos=tuple(row["source_pos"]),
                           receiver_pos=tuple(row["receiver_pos"]),
                           room_id=row["room_id"], norm_gain=row["norm_gain"])

    def paired_rows(self, *artifacts: tuple[Path, str],
                    grids: bool = False) -> Iterator[tuple[dict, ...]]:
        """(metadata row, row, ...) of each RIR, with its row of each ``(path, stage)``
        artifact; one walk of the corpus reads every file one row at a time.

        ``path`` is an artifact ``stage`` wrote for this corpus: its rows must
        be the corpus's RIRs in corpus order at the metadata distances, and
        with ``grids`` each must carry its decay grid, which comes back decoded
        (see :func:`decode_grid`). Anything else is a file of another corpus
        or of an older ``stage``.
        """
        readers = []
        for path, stage in artifacts:
            def mismatch(why: str, path=path, stage=stage) -> SchemaMismatchError:
                return SchemaMismatchError(f"{path} does not describe the corpus in "
                                           f"{self.directory}: {why}; re-run rirdist {stage} "
                                           f"--in {self.directory}")

            readers.append((self._artifact_rows(path, stage), mismatch))
        for meta in self.rows():
            expected = source_receiver_distance(meta["source_pos"], meta["receiver_pos"])
            paired = [meta]
            for rows, mismatch in readers:
                row = next(rows, None)
                if row is None:
                    raise mismatch(f"it ends before {meta['rir_id']}")
                if row.get("rir_id") != meta["rir_id"]:
                    raise mismatch(f"row {row.get('rir_id')!r} where the corpus has "
                                   f"{meta['rir_id']}")
                if row.get("distance_m") != expected:   # same floats on both sides when it matches
                    raise mismatch(f"{meta['rir_id']} is at {row.get('distance_m')!r} m there "
                                   f"and at {expected!r} m in the metadata")
                if grids:
                    grid = row.get("edc_grid_db", ())   # null only on an error row
                    if isinstance(grid, list):
                        raise mismatch(f"{meta['rir_id']} has its edc_grid_db as a list of "
                                       f"floats, which an older analyze wrote")
                    if isinstance(grid, str):
                        try:
                            row["edc_grid_db"] = decode_grid(grid)
                        except ValueError as exc:
                            raise mismatch(f"{meta['rir_id']} has an edc_grid_db "
                                           f"that {exc}") from None
                    elif not (grid is None and "error" in row):
                        raise mismatch(f"{meta['rir_id']} has no edc_grid_db")
                paired.append(row)
            yield tuple(paired)
        for rows, mismatch in readers:
            if next(rows, None) is not None:
                raise mismatch("it has rows past the corpus's last RIR")

    def _artifact_rows(self, path: Path, stage: str) -> Iterator[dict]:
        """The rows of ``path``; if it is missing, the error names the ``stage`` to run."""
        if not Path(path).is_file():
            raise dataio.MissingDataError(f"{path} not found; run rirdist {stage} "
                                          f"--in {self.directory} first")
        yield from iter_jsonl(path)


def encode_grid(grid: np.ndarray) -> str:
    """A decay grid as the text ``metrics.jsonl`` holds: base64 of its
    little-endian float64 bytes, which :func:`decode_grid` reads back bit for bit."""
    return binascii.b2a_base64(grid.astype("<f8").tobytes(), newline=False).decode("ascii")


def decode_grid(text: str) -> np.ndarray:
    """The float64 decay grid :func:`encode_grid` wrote (read-only). Raises
    ``ValueError`` for text that is not base64 of ``EDC_GRID_POINTS`` doubles
    exactly as :func:`encode_grid` writes it. The bytes carry no dtype, so
    800 bytes of another type would be read as float64 all the same."""
    try:
        raw = binascii.a2b_base64(text)
    except ValueError:   # binascii.Error, or a non-ASCII str
        raise ValueError("is not base64") from None
    if len(raw) != 8 * EDC_GRID_POINTS:
        raise ValueError(f"decodes to {len(raw)} bytes, not {EDC_GRID_POINTS} float64 values")
    # a2b_base64 skips characters outside the alphabet; only the canonical text is taken
    if binascii.b2a_base64(raw, newline=False) != text.encode("ascii"):
        raise ValueError("is not base64")
    return np.frombuffer(raw, "<f8")


def metrics_row(rir_id: str, metrics: AcousticMetrics | None, distance: float | None,
                error: str | None) -> dict:
    """One RIR's ``metrics.jsonl`` row, each value in it once: the DRR, energy
    and direct delay are kept only as features. Descriptors are None without
    ``metrics``; ``error`` and the feature keys appear only when there are
    some. The decay grid ``edc_grid_db`` comes last, as :func:`encode_grid` text."""
    def value(convert, name):
        return None if metrics is None else convert(getattr(metrics, name))

    row = {
        "rir_id": rir_id,
        "t60_s": value(float, "t60_s"),
        "distance_m": distance,
        "measured_distance_m": value(float, "geometric_distance_m"),
        "echo_density": value(list, "echo_density"),
        "flags": value(sorted, "flags"),
    }
    if error is not None:
        row["error"] = error
    if metrics is not None:
        with_features(row, extract_features(metrics))
    row["edc_grid_db"] = None if metrics is None else encode_grid(metrics.edc_grid_db)
    return row


def with_features(row: dict, fv: FeatureVector) -> dict:
    """``row`` followed by the feature keys :func:`parse_feature_row` reads back."""
    row["feature_schema_version"] = FEATURE_SCHEMA_VERSION
    row["features"] = {name: float(value) for name, value in zip(FEATURE_NAMES, fv.as_array())}
    return row


def parse_feature_row(row: dict) -> tuple[str, FeatureVector, float]:
    """(rir_id, features, distance) of a metrics or holdout row, each value a number."""
    if "error" in row:   # analyze could not describe this RIR, so it has no features
        raise SchemaMismatchError(f"feature row {row.get('rir_id')!r} has no features, because "
                                  f"its descriptors failed ({row['error']})")
    if row.get("feature_schema_version") != FEATURE_SCHEMA_VERSION:
        raise SchemaMismatchError(
            f"feature row {row.get('rir_id')!r} carries schema "
            f"{row.get('feature_schema_version')!r}, expected {FEATURE_SCHEMA_VERSION}; "
            f"re-run the stage that wrote it"
        )
    try:
        values = {name: row["features"][name] for name in FEATURE_NAMES}
        rir_id, distance = row["rir_id"], row["distance_m"]
    except (KeyError, TypeError) as exc:
        raise SchemaMismatchError(
            f"feature row {row.get('rir_id')!r} is malformed: {exc}") from exc
    for name, value in [*values.items(), ("distance_m", distance)]:
        if not _is_real(value):
            raise SchemaMismatchError(f"feature row {rir_id!r} has {name} {value!r}, not a number")
    return rir_id, FeatureVector(**values), float(distance)
