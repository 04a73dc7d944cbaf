import os
import socket
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.io import wavfile   # test-only oracle for the package's own codec

import rirdist
from rirdist import dataio
from rirdist.cli import main

from helpers import dead_pid

_CODEC = settings(max_examples=80, deadline=None)


def _chunk(chunk_id: bytes, payload: bytes) -> bytes:
    return chunk_id + struct.pack("<I", len(payload)) + payload + b"\0" * (len(payload) & 1)


def _riff(*chunks: bytes, magic: bytes = b"RIFF") -> bytes:
    body = b"WAVE" + b"".join(chunks)
    return magic + struct.pack("<I", len(body)) + body


def _fmt(tag=3, channels=1, rate=32000, bits=32) -> bytes:
    block = channels * bits // 8
    return _chunk(b"fmt ", struct.pack("<HHIIHHH", tag, channels, rate, rate * block,
                                       block, bits, 0))


def _samples(n=8) -> bytes:
    return np.linspace(-1.0, 1.0, n, dtype="<f4").tobytes()


def _read_both(path: Path):
    ours, rate = dataio.read_wav(path)
    their_rate, theirs = wavfile.read(str(path))
    return (ours.dtype, ours.tobytes(), rate), \
        (np.float64, theirs.astype(np.float64).tobytes(), their_rate)


# ------------------------------------------------------------ the codec vs scipy

@_CODEC
@given(samples=hnp.arrays(st.sampled_from([np.float32, np.float64]), st.integers(0, 3000),
                          elements=st.floats(width=32)),
       rate=st.integers(1, 2 ** 30 - 1))
def test_write_wav_bytes_equal_scipys(tmp_path_factory, samples, rate):
    directory = tmp_path_factory.mktemp("wav")
    ours, theirs = directory / "ours.wav", directory / "theirs.wav"
    dataio.write_wav(ours, samples, rate)
    wavfile.write(str(theirs), rate, samples.astype(np.float32))
    assert ours.read_bytes() == theirs.read_bytes()
    assert len(ours.read_bytes()) == 58 + 4 * samples.size
    mine, oracle = _read_both(ours)
    assert mine == oracle


def test_read_wav_skips_a_list_chunk(tmp_path):
    path = tmp_path / "list.wav"
    info = b"INFO" + _chunk(b"ISFT", b"rirdist test\0\0")
    path.write_bytes(_riff(_fmt(rate=16000), _chunk(b"LIST", info),
                           _chunk(b"data", _samples(10))))
    mine, oracle = _read_both(path)
    assert mine == oracle
    assert mine[2] == 16000 and len(mine[1]) == 8 * 10


def test_read_wav_skips_the_pad_byte_of_an_odd_sized_chunk(tmp_path):
    path = tmp_path / "odd.wav"
    path.write_bytes(_riff(_fmt(), _chunk(b"JUNK", b"abc"), _chunk(b"data", _samples(5))))
    assert path.read_bytes().count(b"abc\0data") == 1   # the pad byte is really there
    mine, oracle = _read_both(path)
    assert mine == oracle
    assert np.frombuffer(mine[1]).tolist() == [-1.0, -0.5, 0.0, 0.5, 1.0]


def test_read_wav_of_a_missing_file_is_missing_data(tmp_path):
    with pytest.raises(dataio.MissingDataError, match="absent.wav"):
        dataio.read_wav(tmp_path / "absent.wav")


# ------------------------------------------------------------ malformed WAVs

def _not_riff(path):
    path.write_bytes(_riff(_fmt(), _chunk(b"data", _samples()), magic=b"RIFX"))


def _pcm16(path):
    wavfile.write(str(path), 32000, np.arange(8, dtype=np.int16))


def _stereo(path):
    wavfile.write(str(path), 32000, np.zeros((8, 2), dtype=np.float32))


def _float64(path):
    wavfile.write(str(path), 32000, np.zeros(8, dtype=np.float64))


def _no_data(path):
    path.write_bytes(_riff(_fmt(), _chunk(b"fact", struct.pack("<I", 8))))


def _truncated_data(path):
    dataio.write_wav(path, np.zeros(8), 32000)
    path.write_bytes(path.read_bytes()[:-6])


MALFORMED = {
    "not RIFF": (_not_riff, "no RIFF/WAVE header"),
    "PCM16": (_pcm16, "format tag 1"),
    "stereo": (_stereo, "2 channels"),
    "float64": (_float64, "64 bits per sample"),
    "no data chunk": (_no_data, "no data chunk"),
    "truncated data": (_truncated_data, "claims 32 bytes, file holds 26"),
}


@pytest.mark.parametrize("write, why", MALFORMED.values(), ids=MALFORMED.keys())
def test_read_wav_refuses_a_malformed_file_naming_it(tmp_path, write, why):
    path = tmp_path / "bad.wav"
    write(path)
    with pytest.raises(dataio.WavFormatError) as excinfo:
        dataio.read_wav(path)
    assert isinstance(excinfo.value, ValueError)
    assert str(path) in str(excinfo.value)
    assert why in str(excinfo.value)


@pytest.mark.parametrize("write", [write for write, _ in MALFORMED.values()],
                         ids=MALFORMED.keys())
def test_analyze_exits_2_on_a_malformed_wav(tmp_path, capsys, write):
    corpus = tmp_path / "corpus"
    assert main(["generate", "--out", str(corpus), "--rooms", "1", "--n", "2"]) == 0
    write(corpus / "room1_0001.wav")
    capsys.readouterr()
    assert main(["analyze", "--in", str(corpus)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "room1_0001.wav" in err
    assert "Traceback" not in err
    assert not (corpus / dataio.METRICS_NAME).exists()


def test_importing_the_cli_loads_no_scipy():
    src = Path(rirdist.__file__).resolve().parents[1]
    probe = ("import sys, rirdist.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'socket')))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, check=True, timeout=120)
    assert done.stdout.strip() == "[]"


# ------------------------------------------------------------ atomic JSON writes

@pytest.mark.parametrize("write, bad", [
    (dataio.write_jsonl, [{"rir_id": "a"}, {"rir_id": "b"}, {"rir_id": object()}]),
    (dataio.write_json, {"rir_id": "a", "payload": [1, 2, {3}]}),
], ids=["jsonl", "json"])
def test_failed_json_write_leaves_the_old_file(tmp_path, write, bad):
    path = tmp_path / "out.json"
    write(path, [{"kept": 1.5}] if write is dataio.write_jsonl else {"kept": 1.5})
    before = path.read_bytes()
    with pytest.raises(TypeError):
        write(path, bad)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]



def test_a_dead_runs_lock_is_taken_over(tmp_path):
    lock = tmp_path / dataio.LOCK_FILENAME
    lock.write_text(f"{dead_pid()} {socket.gethostname()}\n")
    with dataio.output_lock(tmp_path):
        assert lock.read_text() == f"{os.getpid()} {socket.gethostname()}\n"
    assert list(tmp_path.iterdir()) == []


def test_a_stale_lock_another_run_took_over_first_is_put_back(tmp_path, monkeypatch):
    """Two runs reclaim one stale lock: the slower one finds the faster one's
    fresh lock where the stale one was, leaves it in place and is refused."""
    lock = tmp_path / dataio.LOCK_FILENAME
    stale = f"{dead_pid()} {socket.gethostname()}\n"
    fresh = f"{os.getppid()} {socket.gethostname()}\n"   # a live process of this host
    lock.write_text(fresh)
    read_owner = dataio.output_lock._owner

    def owner_as_first_read(path):   # the slower run read the lock before it was replaced
        return stale if path == lock else read_owner(path)

    monkeypatch.setattr(dataio.output_lock, "_owner", staticmethod(owner_as_first_read))
    with pytest.raises(dataio.OutputLockedError):
        with dataio.output_lock(tmp_path):
            pass
    assert lock.read_text() == fresh
    assert list(tmp_path.iterdir()) == [lock]


# ------------------------------------------------------------- JSON-lines reads

def test_a_malformed_jsonl_line_names_its_file_and_line(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"a": 1}\n\n{"b": 2, "c"\n{"d": 4}\n')
    rows = dataio.iter_jsonl(path)
    assert next(rows) == {"a": 1}
    with pytest.raises(ValueError, match=f"^{path}:3: "):
        next(rows)


def test_a_failed_block_removes_the_output_directory_its_lock_made(tmp_path):
    made, kept = tmp_path / "made" / "deeper", tmp_path / "kept"
    kept.mkdir()
    for directory in (made, kept):
        with pytest.raises(RuntimeError), dataio.output_lock(directory):
            raise RuntimeError("the stage failed")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept", "made"]
    assert list(kept.iterdir()) == [] and list((tmp_path / "made").iterdir()) == []
    with dataio.output_lock(made):
        pass
    assert made.is_dir() and list(made.iterdir()) == []
