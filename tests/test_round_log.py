"""The per-round CSV log: the chunked byte-column writer against a
per-row reference formatter, and the CLI streaming it chunk by chunk."""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from mubsig import cli, protocol, report
from mubsig.bases import basis_alphabet, pair_outcome_labels
from mubsig.harness import EveMode, HarnessConfig, Protocol, run_trials
from mubsig.protocol import _FAMILIES, BLOCK_ROUNDS
from mubsig.report import _CHUNK_ROWS, _CSV_COLUMNS, _csv_chunks, round_log_csv
from dense import decode_oracle, decode_text
from test_golden import _PAIRS, GOLDEN, _config

SRC = Path(__file__).resolve().parents[1] / "src"
_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))


def reference_csv(log):
    """The log formatted one row at a time with ``str.format``."""
    d, labels = log.d, pair_outcome_labels(log.d)
    decodes = [decode_text(decode_oracle(d, 0, 0, 0, c, r)) for c, r in labels]
    pairs = [f"{c},{r}" for c, r in labels]
    bob = [f"{b.text()},{m}" for b in basis_alphabet(d) for m in range(d)]
    alice = [f"{a.text()},,,,{m}" for a in basis_alphabet(d) for m in range(d)]
    heads = [f"{b.text()},,,{f.value}," for f in _FAMILIES for b in log.alphabet]
    outcomes = [f"{p},,{t}" for p, t in zip(pairs, decodes)]
    eve = [f",{p},{t},{'' if t == 'inconclusive' else t}" for p, t in zip(pairs, decodes)]
    rows = [",".join(_CSV_COLUMNS) + "\n"]
    for i, cell in enumerate(log.pretest.tolist()):
        rows.append(f"{i},pretest,{bob[cell // len(bob)]},{alice[cell % len(bob)]},,,,,\n")
    n_pre = log.pretest.size
    for i in range(log.basis.size):
        head = heads[log.family[i] * len(log.alphabet) + log.basis[i]]
        tail = ",,,," if log.eve_outcome is None else eve[log.eve_outcome[i]]
        rows.append(f"{n_pre + i},signal,{head}{outcomes[log.outcome[i]]}{tail}\n")
    return "".join(rows)


def first_difference(got, want):
    """None when the texts are equal, else the first row where they differ,
    as (row, got, want); pytest's own diff of two multi-megabyte strings
    would take minutes."""
    if got == want:
        return None
    got_rows, want_rows = got.splitlines(keepends=True), want.splitlines(keepends=True)
    for i, (g, w) in enumerate(zip(got_rows, want_rows)):
        if g != w:
            return i, g, w
    i = min(len(got_rows), len(want_rows))
    return i, got_rows[i:i + 1], want_rows[i:i + 1]


def _log(config, workers=1):
    return run_trials(config, workers=workers, return_rounds=True)[1]


@pytest.mark.parametrize("d", (2, 3, 5, 13, 31))
def test_writer_matches_the_reference_for_every_protocol(d):
    # d = 13 and 31 give two-digit c,r cells and hat-q10.. labels.
    for protocol, eve in _PAIRS:
        config = _config(d, protocol, eve, BLOCK_ROUNDS + 100, d)
        log = _log(config)
        text = round_log_csv(log)
        assert first_difference(text, reference_csv(log)) is None, (protocol, eve)
        assert first_difference(round_log_csv(_log(config, 2)), text) is None, (protocol, eve)
    if d >= 13:
        assert f"hat-q{d - 1}" in text and f",{d - 1},{d - 1}," in text


@pytest.mark.parametrize("rounds", (_CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 10_001))
def test_writer_matches_the_reference_across_chunks_and_digit_widths(rounds):
    # 10_001 rows number 0..10000: every width step 9->10 up to 9999->10000.
    log = _log(_config(3, Protocol.ORIGINAL, EveMode.INTERCEPT, rounds, 3))
    chunks = list(_csv_chunks((log,)))
    assert len(chunks) == 1 + -(-rounds // _CHUNK_ROWS)
    assert first_difference("".join(chunks), reference_csv(log)) is None


@pytest.mark.parametrize("start,stop", [(0, 1), (0, 10_001), (9_990, 10_010),
                                        (99_999_990, 100_000_010), (10 ** 12 - 5, 10 ** 12 + 5)])
def test_round_digits_are_the_decimal_round_numbers(start, stop):
    # Rows past 10^8 span three four-digit groups; no session here is that long.
    digits = report._round_digits(start, stop)
    assert digits.shape == (stop - start, len(str(stop - 1)))
    assert ([bytes(row).lstrip(b"\0").decode("ascii") for row in digits]
            == [str(r) for r in range(start, stop)])


def test_writer_matches_the_reference_when_the_pretest_ends_mid_chunk(monkeypatch):
    log = _log(HarnessConfig(d=5, protocol=Protocol.TOMOGRAPHIC, rounds=20_001,
                             eve=EveMode.INTERCEPT, seed=3, pretest_fraction=0.45,
                             posttest_fraction=0.5))
    assert _CHUNK_ROWS < log.pretest.size < 2 * _CHUNK_ROWS
    assert first_difference(round_log_csv(log), reference_csv(log)) is None
    for chunk_rows in (1, 7, 1000):   # boundaries in both phases, one row at a time
        monkeypatch.setattr(report, "_CHUNK_ROWS", chunk_rows)
        chunks = list(_csv_chunks((log,)))
        assert max(chunk.count("\n") for chunk in chunks) == chunk_rows
        assert first_difference("".join(chunks), reference_csv(log)) is None


def test_writer_matches_the_reference_for_a_single_round():
    log = _log(_config(2, Protocol.ORIGINAL, EveMode.OFF, 1, 3))
    assert round_log_csv(log) == reference_csv(log)
    assert round_log_csv(log).count("\n") == 2


def test_decode_names_the_label_within_alices_family():
    """On a hat pair ``decode`` prints the label without its ``hat-``
    prefix: a conclusive sifted row decodes to Bob's label, stripped."""
    log = _log(_config(5, Protocol.DUAL_FAMILY, EveMode.OFF, 2000, 1))
    rows = [dict(zip(_CSV_COLUMNS, line.split(",")))
            for line in round_log_csv(log).splitlines()[1:]]
    sifted = [row for row in rows if row["decode"] != "inconclusive"
              and row["alice_family"] == ("hat" if row["bob_basis"].startswith("hat-")
                                          else "plain")]
    assert {row["alice_family"] for row in sifted} == {"plain", "hat"}
    for row in sifted:
        assert row["decode"] == row["bob_basis"].removeprefix("hat-"), row


# The 70 000-round golden log (more than two session blocks), from the CLI.
_GOLDEN_CASE = "long-tomographic-intercept-d5-w1"
_GOLDEN_ARGS = ["run", "--dim", "5", "--protocol", "tomographic", "--eve", "intercept",
                "--rounds", "70000", "--seed", "11", "--pretest-fraction", "0.2",
                "--posttest-fraction", "0.5", "--format", "csv"]


def test_cli_streams_the_golden_csv_to_stdout_and_to_a_file(tmp_path):
    config = _config(5, Protocol.TOMOGRAPHIC, EveMode.INTERCEPT, 70_000, 11)
    sha256 = json.loads((GOLDEN / "round_logs.json").read_text())[_GOLDEN_CASE]["sha256"]
    assert hashlib.sha256(round_log_csv(_log(config)).encode()).hexdigest() == sha256
    proc = subprocess.run([sys.executable, "-m", "mubsig.cli", *_GOLDEN_ARGS],
                          env=_ENV, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == sha256
    out = tmp_path / "log.csv"
    assert cli.main(_GOLDEN_ARGS + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


def test_cli_writes_the_csv_chunk_by_chunk(monkeypatch):
    writes = []

    class Recorder:
        def write(self, text):
            writes.append(len(text))

        def writelines(self, lines):
            for line in lines:
                self.write(line)

        def flush(self):
            pass

    monkeypatch.setattr(sys, "stdout", Recorder())
    assert cli.main(["run", "--dim", "3", "--protocol", "original", "--rounds", "20000",
                     "--format", "csv"]) == 0
    assert len(writes) == 1 + -(-20_000 // _CHUNK_ROWS)
    assert max(writes) < sum(writes) / 2


def test_cli_stops_quietly_when_the_reader_closes_the_pipe():
    # About 10 MB of CSV: far more than a pipe buffers.  With two workers,
    # blocks sampled ahead of the writer must not keep the process alive.
    for workers in ("1", "2"):
        proc = subprocess.Popen([sys.executable, "-m", "mubsig.cli", "run", "--dim", "3",
                                 "--protocol", "original", "--rounds", "200000",
                                 "--workers", workers, "--format", "csv"],
                                env=_ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline().startswith(b"round,phase,")
        proc.stdout.close()
        try:
            assert proc.wait(timeout=120) == 0, workers
        finally:
            proc.kill()
        assert proc.stderr.read() == b"", workers
        proc.stderr.close()


_PEAK_RSS = """
import resource, sys
from mubsig import cli
assert cli.main(sys.argv[1:]) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads ru_maxrss in KiB, as Linux reports it")
@pytest.mark.parametrize("workers", ("1", "2"))
def test_cli_csv_memory_does_not_grow_with_rounds(workers):
    """The CLI writes each block's rounds as they come and never holds the
    session's log: ten times the rounds leave the peak RSS of a fresh
    process where it was (a collected int64 log added 36 MB here)."""
    def peak_mb(rounds):
        proc = subprocess.run(
            [sys.executable, "-c", _PEAK_RSS, "run", "--dim", "3", "--protocol", "original",
             "--eve", "intercept", "--rounds", str(rounds), "--workers", workers,
             "--format", "csv", "--out", os.devnull],
            env=_ENV, capture_output=True, text=True, timeout=120, check=True)
        return int(proc.stdout) / 1024

    small, large = peak_mb(200_000), peak_mb(2_000_000)
    assert large - small < 10, (small, large)


def test_session_pieces_are_its_blocks_in_round_order():
    """The session streams one narrow RoundLog piece per block, pre-test
    blocks first; concatenated they are the collected log, and written
    one by one they are its CSV, at any worker count."""
    config = HarnessConfig(d=5, protocol=Protocol.TOMOGRAPHIC, rounds=3 * BLOCK_ROUNDS + 10,
                           eve=EveMode.INTERCEPT, seed=3, pretest_fraction=0.45,
                           posttest_fraction=0.5)
    expected, log = run_trials(config, return_rounds=True)
    n_pre = config.pretest_rounds()
    for workers in (1, 2):
        session = protocol._run_session(config, workers, collect=True)
        pieces = []
        with pytest.raises(StopIteration) as done:
            while True:
                pieces.append(next(session))
        assert done.value.value == expected
        sizes = [(piece.pretest.size, piece.basis.size) for piece in pieces]
        assert sizes == ([(BLOCK_ROUNDS, 0)] + [(n_pre - BLOCK_ROUNDS, 0)]
                         + [(0, BLOCK_ROUNDS)] + [(0, config.rounds - n_pre - BLOCK_ROUNDS)])
        for piece in pieces:
            for name, dtype in protocol._COLUMN_DTYPES.items():
                assert getattr(piece, name).dtype == dtype, name
        for name, dtype in protocol._COLUMN_DTYPES.items():
            column = getattr(log, name)
            assert column.dtype == dtype, name
            assert_array_equal(np.concatenate([getattr(piece, name) for piece in pieces]),
                               column, err_msg=name)
        assert "".join(_csv_chunks(pieces)) == round_log_csv(log)


@pytest.mark.parametrize("workers", (1, 2))
def test_a_collected_log_is_the_only_copy_of_its_rounds(workers):
    """``run_trials(..., return_rounds=True)`` copies each piece into the log
    as it arrives: the traced peak of a 4 * 10^6-round session stays near
    the log's own bytes (joining the pieces at the end held two copies, a
    peak of 2.00 times the log)."""
    config = _config(3, Protocol.ORIGINAL, EveMode.INTERCEPT, 4_000_000, 5)
    run_trials(_config(3, Protocol.ORIGINAL, EveMode.INTERCEPT, 10, 5))   # build the tables
    tracemalloc.start()
    try:
        log = _log(config, workers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    log_bytes = sum(getattr(log, name).nbytes for name in protocol._COLUMN_DTYPES)
    assert log_bytes == 7 * 4_000_000
    assert peak < 1.3 * log_bytes, peak / log_bytes
