import argparse
import csv
import dataclasses
import errno
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from mubsig.cli import _build_parser, main
from mubsig.harness import _CONFIG_KEYS, EveMode, HarnessConfig, Protocol, run_trials
from mubsig.report import (
    SCHEMA,
    build_document,
    canonical_json,
    config_from_document,
    render_text,
    round_log_csv,
)
from mubsig.verify import CheckResult


def run_session(config):
    return build_document(config, run_trials(config))


# ---------------------------------------------------------------------------
# Report documents
# ---------------------------------------------------------------------------

def test_document_layout():
    cfg = HarnessConfig(d=2, protocol=Protocol.ORIGINAL, rounds=100, seed=5)
    doc = run_session(cfg)
    assert doc["schema"] == SCHEMA
    assert doc["artifact"]["name"] == "mubsig"
    assert doc["config"]["dim"] == 2
    assert doc["config"]["protocol"] == "original"
    assert doc["config"]["eve"] == "off"
    assert doc["results"]["rounds"] == 100
    assert doc["results"]["seed"] == 5
    assert "tables" not in doc


def test_document_tables_section():
    cfg = HarnessConfig(d=2, protocol=Protocol.ORIGINAL, rounds=10)
    doc = build_document(cfg, run_trials(cfg), include_tables=True)
    assert set(doc["tables"]) == {"comp", "q0", "q1"}
    assert abs(doc["tables"]["comp"]["0,0"] - 0.5) < 1e-12


def test_canonical_json_is_deterministic_and_sorted():
    cfg = HarnessConfig(d=2, protocol=Protocol.ORIGINAL, rounds=50, seed=1)
    text = canonical_json(run_session(cfg))
    assert text == canonical_json(run_session(cfg))
    assert text.endswith("\n")
    keys = list(json.loads(text))
    assert keys == sorted(keys)


def test_canonical_json_rejects_nan():
    with pytest.raises(ValueError):
        canonical_json({"x": float("nan")})


def test_config_round_trip_through_document():
    for cfg in (
        HarnessConfig(d=3, protocol=Protocol.ORIGINAL, rounds=200, seed=9,
                      eve=EveMode.INTERCEPT),
        HarnessConfig(d=2, protocol=Protocol.TOMOGRAPHIC, rounds=400,
                      pretest_fraction=0.25, posttest_fraction=0.5, seed=3),
        HarnessConfig(d=2, protocol=Protocol.DUAL_FAMILY, rounds=300,
                      posttest_fraction=0.4, eve=EveMode.DUAL_FAMILY,
                      message_distribution={"q0": 2.0, "hat-q0": 1.0}),
    ):
        doc = run_session(cfg)
        rebuilt = config_from_document(doc)
        assert rebuilt == cfg
        # and the rebuilt config reproduces the identical document
        assert canonical_json(run_session(rebuilt)) == canonical_json(doc)


def test_config_from_document_accepts_bare_config_and_dashes():
    cfg = config_from_document({"dim": 2, "protocol": "dualfamily",
                                "rounds": 100, "posttest-fraction": 0.5})
    assert cfg.protocol is Protocol.DUAL_FAMILY
    assert cfg.posttest_fraction == 0.5
    assert cfg.seed == 0
    assert cfg.eve is EveMode.OFF


@pytest.mark.parametrize("key", ["eve", "message_distribution", "seed"])
def test_config_from_document_reads_null_as_the_default(key, tmp_path, capsys):
    """A null optional key means the key is absent, in a document and in
    a ``--config`` file alike."""
    doc = {"dim": 3, "protocol": "original", "rounds": 100}
    assert config_from_document({**doc, key: None}) == config_from_document(doc)
    outputs = []
    for config in (doc, {**doc, key: None}):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["run", "--config", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_config_from_document_errors():
    good = {"dim": 2, "protocol": "original", "rounds": 10}
    with pytest.raises(ValueError):
        config_from_document("not a mapping")
    with pytest.raises(ValueError):
        config_from_document({**good, "stray": 1})
    with pytest.raises(ValueError):
        config_from_document({"protocol": "original", "rounds": 10})
    with pytest.raises(ValueError):
        config_from_document({**good, "protocol": "sideways"})
    with pytest.raises(ValueError):
        config_from_document({**good, "eve": "loud"})
    with pytest.raises(ValueError):
        config_from_document({**good, "rounds": True})
    with pytest.raises(ValueError):
        config_from_document({**good, "rounds": "ten"})


# Each malformed override, with the error it must raise.
_MALFORMED = {
    "fractional-dim": ({"dim": 3.5}, "config key 'dim' must be int-valued, got 3.5"),
    "fractional-rounds": ({"rounds": 100.9},
                          "config key 'rounds' must be int-valued, got 100.9"),
    "fractional-seed": ({"seed": 7.8}, "config key 'seed' must be int-valued, got 7.8"),
    "overflowing-rounds": ({"rounds": 1e400}, "config key 'rounds' must be int-valued, got inf"),
    # an int past the float range passes the type check and overflows float()
    "overflowing-fraction": ({"pretest_fraction": 10 ** 400},
                             "config key 'pretest_fraction' is out of range"),
    "list-distribution": ({"message_distribution": [1, 2]},
                          "message distribution must be 'uniform' or a mapping"),
    "boolean-weight": ({"message_distribution": {"comp": True}},
                       "message weight for 'comp' must be a finite number >= 0"),
    "null-dim": ({"dim": None}, "config is missing required key 'dim'"),
    "null-rounds": ({"rounds": None}, "config is missing required key 'rounds'"),
    "overflowing-weight-sum": ({"message_distribution": {"comp": 1e308, "q0": 1e308}},
                               "message weights must have a finite sum"),
}


@pytest.mark.parametrize("override, message", _MALFORMED.values(), ids=_MALFORMED.keys())
def test_malformed_config_values_fail_cleanly(override, message, tmp_path, capsys):
    """Values that cannot be taken as given raise ValueError; the CLI exits 2."""
    doc = {"dim": 3, "protocol": "original", "rounds": 100, "seed": 7, **override}
    with pytest.raises(ValueError, match=re.escape(message)):
        config_from_document(doc)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"mubsig: error: {message}")


def test_rounds_above_the_cap_are_refused_before_any_session(monkeypatch, capsys):
    def no_session(*args, **kwargs):
        raise AssertionError("a session ran")

    monkeypatch.setattr("mubsig.cli.run_trials", no_session)
    doc = {"dim": 3, "protocol": "original", "rounds": 2 ** 32}
    assert config_from_document(doc).rounds == 2 ** 32
    with pytest.raises(ValueError):
        config_from_document({**doc, "rounds": 2 ** 32 + 1})
    assert main(["run", "--dim", "3", "--protocol", "original",
                 "--rounds", "1000000000000"]) == 2
    assert "rounds" in capsys.readouterr().err


def test_cli_refuses_dimensions_above_max_dim_at_once(capsys):
    for args in (["table", "--dim", "1000000000000000003"], ["verify", "--dim", "257"]):
        start = time.monotonic()
        assert main(args) == 2
        assert time.monotonic() - start < 1.0, args
        assert "largest supported" in capsys.readouterr().err


def _run_capped(*args: str, cap_mb: int = 1536) -> subprocess.CompletedProcess:
    """``python -m mubsig.cli *args`` in a child process under an
    address-space cap of ``cap_mb`` MB, 1.5 GB unless given."""
    resource = pytest.importorskip("resource")
    cap = cap_mb * 2 ** 20

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    return subprocess.run(
        [sys.executable, "-m", "mubsig.cli", *args],
        env=env, capture_output=True, text=True, timeout=120, preexec_fn=limit_memory)


def test_cli_out_of_memory_is_a_usage_error():
    """A session that cannot be allocated ends in one error line and exit 2,
    not a traceback.  At d=251 the outcome table's compilation asks for
    more than a 512 MB cap (a d=251 session peaked at 1.26 GB uncapped)."""
    proc = _run_capped("run", "--dim", "251", "--protocol", "original", "--rounds", "100",
                       cap_mb=512)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.splitlines() == ["mubsig: error: dimension 251 with 100 rounds "
                                        "needs more memory than this process may use"]
    assert proc.stdout == ""


def test_cli_tomographic_run_at_d101_fits_the_cap():
    """The pre-test decides from two counts per block and never builds the
    ((d + 1) d)^2 = 1.06e8 cells, whose distribution and lookup once took
    the d=101 session past the cap."""
    proc = _run_capped("run", "--dim", "101", "--protocol", "tomographic",
                       "--pretest-fraction", "0.2", "--posttest-fraction", "0.5",
                       "--rounds", "100")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["results"]["pretest_abort"] is False


def test_cli_run_at_d101_fits_the_cap():
    """The sessions read the pair basis off its structure and never build
    its d^4 matrix, which at d=101 alone would ask for 1.55 GiB."""
    proc = _run_capped("run", "--dim", "101", "--protocol", "original", "--rounds", "100")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "" and proc.stdout


def test_cli_verify_out_of_memory_is_a_usage_error():
    """Running out of memory in ``verify`` is the same usage error, not a
    failed check: the suite lets the MemoryError through.  At d=101 the
    d^2 x d^2 pair kets that verify builds from their definition ask for
    1.55 GiB."""
    proc = _run_capped("verify", "--dim", "101")
    assert proc.returncode == 2, proc.stdout
    assert proc.stderr.splitlines() == [
        "mubsig: error: dimension 101 needs more memory than this process may use"]
    assert proc.stdout == ""


def test_each_config_key_is_defined_once():
    """Every HarnessConfig field has one row in the key table; the fields
    without defaults are the required keys; every key but the message
    distribution is a ``run`` flag of that name."""
    fields = dataclasses.fields(HarnessConfig)
    rows = [field for field, _, _ in _CONFIG_KEYS.values()]
    assert sorted(rows) == sorted(f.name for f in fields)
    key_of = {field: key for key, (field, _, _) in _CONFIG_KEYS.items()}
    full = {"dim": 3, "protocol": "original", "rounds": 10}
    required = set()
    for key in _CONFIG_KEYS:
        try:
            config_from_document({k: v for k, v in full.items() if k != key})
        except ValueError as exc:
            assert str(exc) == f"config is missing required key {key!r}"
            required.add(key)
    assert required == {key_of[f.name] for f in fields if f.default is dataclasses.MISSING}
    commands = next(a for a in _build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    dests = {a.dest for a in commands.choices["run"]._actions}
    assert [k for k in _CONFIG_KEYS if k in dests] == [
        k for k in _CONFIG_KEYS if k != "message_distribution"]


# A mubsig.report/1 document, whose pre-test reported a total-variation
# divergence; the signal phase it reports has not changed since.
_REPORT_1 = {
    "artifact": {"name": "mubsig", "version": "0.1.0"},
    "config": {"dim": 2, "eve": "intercept", "message_distribution": "uniform",
               "posttest_fraction": 0.5, "pretest_fraction": 0.2, "protocol": "tomographic",
               "rounds": 300, "seed": 7},
    "results": {"decode_accuracy": 1.0, "detection_rate": 0.0,
                "eve_information_rate": 0.5166666666666667, "inconclusive_rate": 0.75,
                "pretest_divergence": 0.4388888888888889, "rounds": 300, "seed": 7,
                "sifted": 60},
    "schema": "mubsig.report/1",
}


def test_a_report_1_document_reruns_its_config():
    """A /1 report still loads as a config, and its rerun echoes that config
    and reproduces every signal-phase result; only the pre-test keys differ."""
    config = config_from_document(_REPORT_1)
    doc = run_session(config)
    assert doc["schema"] == SCHEMA == "mubsig.report/2"
    assert doc["config"] == _REPORT_1["config"]
    old = dict(_REPORT_1["results"])
    del old["pretest_divergence"]
    new = dict(doc["results"])
    assert new.pop("pretest_abort") is True
    assert new.pop("pretest_hits") < new.pop("pretest_correlated")
    assert new == old


def test_a_report_of_an_unknown_schema_is_refused(tmp_path, capsys):
    """A report's config keys mean what its schema says, so a report of a
    schema this version cannot read is refused by name, through the API
    and through ``run --config``, before ``--out`` is opened.  /1 and /2
    reports still load."""
    golden = json.loads((Path(__file__).parent / "golden" / "original-intercept-d3-s7.json")
                        .read_text())
    assert golden["schema"] == SCHEMA
    for report in (_REPORT_1, golden):
        assert config_from_document(report) == config_from_document(report["config"])
    future = {**golden, "schema": "mubsig.report/99"}
    message = ("unknown report schema 'mubsig.report/99', "
               "expected one of ['mubsig.report/1', 'mubsig.report/2']")
    with pytest.raises(ValueError, match=re.escape(message)):
        config_from_document(future)
    path, out = tmp_path / "report.json", tmp_path / "out.json"
    path.write_text(json.dumps(future))
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"mubsig: error: {message}\n"
    assert not out.exists()
    path.write_text(json.dumps(golden))
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == golden


def test_config_from_document_accepts_integral_floats():
    cfg = config_from_document({"dim": 3.0, "protocol": "original",
                                "rounds": 100.0, "seed": 7.0})
    assert (cfg.d, cfg.rounds, cfg.seed) == (3, 100, 7)


def test_render_text_summary():
    cfg = HarnessConfig(d=2, protocol=Protocol.TOMOGRAPHIC, rounds=500,
                        pretest_fraction=0.2, posttest_fraction=0.5, seed=2)
    text = render_text(run_session(cfg))
    assert "d=2 protocol=tomographic" in text
    assert "decode_accuracy=1.000000" in text
    results = run_trials(cfg)
    assert (f"pretest  correlated={results.pretest_correlated} "
            f"hits={results.pretest_correlated} decision=accept\n") in text
    attacked = dataclasses.replace(cfg, eve=EveMode.INTERCEPT)
    assert "decision=abort\n" in render_text(run_session(attacked))
    plain = HarnessConfig(d=2, protocol=Protocol.ORIGINAL, rounds=100)
    assert "pretest" not in render_text(run_session(plain))


def test_round_log_csv_signal_rows():
    cfg = HarnessConfig(d=2, protocol=Protocol.ORIGINAL, rounds=40, seed=11,
                        eve=EveMode.INTERCEPT)
    _, records = run_trials(cfg, return_rounds=True)
    rows = list(csv.DictReader(io.StringIO(round_log_csv(records))))
    assert len(rows) == 40
    assert [int(r["round"]) for r in rows] == list(range(40))
    for row in rows:
        assert row["phase"] == "signal"
        assert row["bob_basis"] in {"comp", "q0", "q1"}
        assert row["alice_family"] == "plain"
        assert row["decode"] in {"inconclusive", "comp", "q0", "q1"}
        assert row["eve_decode"] != ""
        assert row["bob_outcome"] == ""   # no tomography in this protocol


def test_round_log_csv_mixed_phases():
    cfg = HarnessConfig(d=2, protocol=Protocol.TOMOGRAPHIC, rounds=50,
                        pretest_fraction=0.2, posttest_fraction=0.5, seed=7)
    _, records = run_trials(cfg, return_rounds=True)
    rows = list(csv.DictReader(io.StringIO(round_log_csv(records))))
    pre = [r for r in rows if r["phase"] == "pretest"]
    sig = [r for r in rows if r["phase"] == "signal"]
    assert len(pre) == 10 and len(sig) == 40
    for row in pre:
        assert row["alice_basis"] != "" and row["alice_outcome_m"] != ""
        assert row["decode"] == ""
    for row in sig:
        assert row["eve_decode"] == ""   # no eavesdropper configured


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_run_json_reproducible_across_workers(tmp_path, capsys):
    args = ["run", "--dim", "2", "--protocol", "original",
            "--rounds", "500", "--seed", "42"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--workers", "4", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert doc["results"]["decode_accuracy"] == 1.0


def test_cli_run_stdout_and_text(capsys):
    assert main(["run", "--dim", "2", "--protocol", "original",
                 "--rounds", "50", "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "protocol=original" in out


def test_cli_run_csv(capsys):
    assert main(["run", "--dim", "2", "--protocol", "original",
                 "--rounds", "30", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 30


def test_cli_run_config_file_with_flag_override(tmp_path, capsys):
    cfg_path = tmp_path / "session.json"
    cfg_path.write_text(json.dumps({"dim": 2, "protocol": "original",
                                    "rounds": 100, "seed": 1}))
    assert main(["run", "--config", str(cfg_path), "--seed", "2",
                 "--out", str(tmp_path / "r.json")]) == 0
    doc = json.loads((tmp_path / "r.json").read_text())
    assert doc["config"]["seed"] == 2
    assert doc["config"]["rounds"] == 100


def test_cli_run_accepts_full_report_as_config(tmp_path):
    first = tmp_path / "first.json"
    assert main(["run", "--dim", "3", "--protocol", "dualfamily",
                 "--rounds", "200", "--posttest-fraction", "0.5",
                 "--eve", "dualfamily", "--seed", "8",
                 "--out", str(first)]) == 0
    second = tmp_path / "second.json"
    assert main(["run", "--config", str(first), "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_cli_usage_errors(tmp_path, capsys):
    assert main(["run", "--dim", "4", "--protocol", "original",
                 "--rounds", "10"]) == 2
    assert main(["run", "--protocol", "original", "--rounds", "10"]) == 2
    assert main(["run", "--dim", "2", "--protocol", "tomographic",
                 "--rounds", "10"]) == 2
    assert main(["run", "--dim", "2", "--protocol", "original",
                 "--rounds", "10", "--workers", "0"]) == 2
    missing = tmp_path / "nope.json"
    assert main(["run", "--config", str(missing)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["run", "--config", str(bad)]) == 2
    capsys.readouterr()
    deep = tmp_path / "deep.json"   # nested past the parser's recursion limit
    deep.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["run", "--config", str(deep)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"mubsig: error: malformed config file {deep}: ")
    assert err.count("\n") == 1
    array = tmp_path / "array.json"   # valid JSON, but not a config
    array.write_text("[3, 100]")
    assert main(["run", "--config", str(array)]) == 2
    err = capsys.readouterr().err
    assert err == f"mubsig: error: config file {array} must hold a JSON object\n"


_TOMOGRAPHIC = '{"dim": 3, "protocol": "tomographic", "rounds": 1000, "posttest_fraction": 0.5, '
_ORIGINAL = '{"dim": 3, "protocol": "original", "rounds": 1000, '
# Each config file that names one setting twice, with the error it must raise.
_REPEATED = {
    "dash-first": (_TOMOGRAPHIC + '"pretest-fraction": 0.2, "pretest_fraction": 0.3}',
                   "config keys 'pretest-fraction' and 'pretest_fraction' name one setting"),
    "underscore-first": (_TOMOGRAPHIC + '"pretest_fraction": 0.3, "pretest-fraction": 0.2}',
                         "config keys 'pretest_fraction' and 'pretest-fraction' name one "
                         "setting"),
    "top-level-key": (_ORIGINAL + '"seed": 1, "seed": 2}',
                      "malformed config file {path}: key 'seed' is repeated"),
    "distribution-label": (_ORIGINAL + '"message_distribution": {"q0": 1, "q0": 2}}',
                           "malformed config file {path}: key 'q0' is repeated"),
}


@pytest.mark.parametrize("text, message", _REPEATED.values(), ids=_REPEATED.keys())
def test_a_config_file_names_each_setting_once(text, message, tmp_path, capsys):
    """A config file that names a setting twice, by one key or by its dashed
    and underscored spellings, is refused before ``--out`` is opened; no
    spelling silently wins."""
    path, out = tmp_path / "config.json", tmp_path / "out.json"
    path.write_text(text)
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"mubsig: error: {message.format(path=path)}\n"
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_cli_run_refuses_an_unwritable_out_before_the_session(fmt, tmp_path, monkeypatch,
                                                              capsys):
    monkeypatch.setattr("mubsig.cli.run_trials", lambda *a, **k: pytest.fail("session ran"))
    for out in (tmp_path / "missing" / "x.json", tmp_path):
        assert main(["run", "--dim", "3", "--protocol", "original", "--rounds", "10",
                     "--format", fmt, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"mubsig: error: cannot write {out}: ") and err.count("\n") == 1


def test_cli_run_refuses_a_config_that_cannot_run_before_opening_out(tmp_path, capsys):
    """Valid fractions that leave a phase empty are refused by the config,
    so the ``--out`` file is never opened and keeps its contents."""
    out = tmp_path / "f"
    out.write_text("precious\n")
    assert main(["run", "--dim", "2", "--protocol", "tomographic", "--rounds", "2",
                 "--pretest-fraction", "0.1", "--posttest-fraction", "0.5",
                 "--out", str(out)]) == 2
    assert "empty pre-test or signal phase" in capsys.readouterr().err
    assert out.read_text() == "precious\n"


@pytest.mark.parametrize("fmt", ("csv", "text"))
def test_cli_run_refuses_include_tables_outside_json_before_opening_out(tmp_path, capsys,
                                                                         fmt):
    """Only the JSON report embeds the tables; any other format refuses the
    flag with one line rather than dropping it, and leaves ``--out`` alone."""
    out = tmp_path / "f"
    out.write_text("precious\n")
    assert main(["run", "--dim", "3", "--protocol", "original", "--rounds", "20",
                 "--format", fmt, "--include-tables", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "mubsig: error: --include-tables applies to --format json only\n"
    assert out.read_text() == "precious\n"


def test_cli_table_refuses_an_unwritable_out(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("mubsig.cli._outcome_tables",
                        lambda *a, **k: pytest.fail("table computed"))
    out = tmp_path / "missing" / "t.txt"
    assert main(["table", "--dim", "3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"mubsig: error: cannot write {out}: No such file or directory\n"


class _FailingStream(io.StringIO):
    """A text stream whose every write raises ``error``; its file descriptor is ``fd``."""

    def __init__(self, error: OSError, fd: int = -1) -> None:
        super().__init__()
        self.error, self.fd = error, fd

    def write(self, text: str) -> int:
        raise self.error

    def fileno(self) -> int:
        return self.fd


@pytest.fixture
def failing_stdout(tmp_path, monkeypatch):
    """Make stdout a stream whose writes raise the given error; its file
    descriptor is a scratch file, which the CLI may point at devnull."""
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    yield lambda error: monkeypatch.setattr(sys, "stdout", _FailingStream(error, fd))
    os.close(fd)


_DISK_FULL = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
_CLOSED_PIPE = BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))
_WRITING_COMMANDS = {
    "verify": ["verify", "--dim", "2"],
    "verify-json": ["verify", "--dim", "2", "--format", "json"],
    "table": ["table", "--dim", "2"],
    "table-csv": ["table", "--dim", "2", "--format", "csv"],
    "run": ["run", "--dim", "2", "--protocol", "original", "--rounds", "10"],
    "run-text": ["run", "--dim", "2", "--protocol", "original", "--rounds", "10",
                 "--format", "text"],
    "run-csv": ["run", "--dim", "2", "--protocol", "original", "--rounds", "10",
                "--format", "csv"],
}


@pytest.mark.parametrize("args", _WRITING_COMMANDS.values(), ids=_WRITING_COMMANDS.keys())
def test_cli_write_errors_are_usage_errors(args, failing_stdout, tmp_path, monkeypatch,
                                           capsys):
    """A write that fails (here ENOSPC, a full disk) ends in one error line
    and exit 2, the code of an ``--out`` that cannot be opened, not in a
    traceback and exit 1, the code of a failed check."""
    failing_stdout(_DISK_FULL)
    assert main(args) == 2
    assert capsys.readouterr().err == ("mubsig: error: cannot write stdout: "
                                       "No space left on device\n")
    if args[0] == "verify":   # verify has no --out
        return
    out = tmp_path / "out"
    monkeypatch.setattr(Path, "open", lambda *a, **k: _FailingStream(_DISK_FULL))
    assert main(args + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"mubsig: error: cannot write {out}: "
                                       "No space left on device\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("args,to_out", [
    (_WRITING_COMMANDS["verify"], False), (_WRITING_COMMANDS["table"], True),
    (_WRITING_COMMANDS["run"], True), (_WRITING_COMMANDS["run-csv"], False)],
    ids=("verify", "table-out", "run-out", "run-csv"))
def test_cli_write_errors_to_a_full_device(args, to_out):
    """The same against /dev/full in a child process, where the flush at
    exit, after the error, must neither fail nor change the exit code."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "mubsig.cli", *args]
                              + (["--out", "/dev/full"] if to_out else []),
                              env=env, stdout=subprocess.DEVNULL if to_out else full,
                              stderr=subprocess.PIPE, text=True, timeout=120)
    where = "/dev/full" if to_out else "stdout"
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == f"mubsig: error: cannot write {where}: No space left on device\n"


@pytest.mark.parametrize("fmt", ("text", "json"))
@pytest.mark.parametrize("closed", (False, True), ids=("open", "closed"))
def test_cli_verify_keeps_its_verdict_when_the_reader_closes_the_pipe(
        fmt, closed, failing_stdout, monkeypatch, capsys):
    """A failed check exits 1 also when the reader closed stdout early
    (``mubsig verify | head -1`` under ``set -o pipefail``); a passing
    suite still exits 0, quietly."""
    passing = (CheckResult("field-arithmetic", True, 3),)
    failing = passing + (CheckResult("decode-soundness", False, 1, "forced"),)
    if closed:
        failing_stdout(_CLOSED_PIPE)
    for results, code in ((failing, 1), (passing, 0)):
        monkeypatch.setattr("mubsig.verify.run_invariant_suite", lambda d: results)
        assert main(["verify", "--dim", "5", "--format", fmt]) == code
        assert capsys.readouterr().err == ""


def test_cli_table_text(capsys):
    assert main(["table", "--dim", "2"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0].startswith("basis")
    assert len(lines) == 4   # header + comp + q0 + q1
    assert "0.5000" in out


def test_cli_table_single_basis_json(capsys):
    assert main(["table", "--dim", "3", "--basis", "q1",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc["rows"]) == {"q1"}
    row = doc["rows"]["q1"]
    assert abs(sum(row.values()) - 1.0) < 1e-12
    assert abs(row["0,0"] - 1 / 3) < 1e-12


def test_cli_table_csv_and_errors(capsys):
    assert main(["table", "--dim", "2", "--basis", "hat-comp",
                 "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "basis,c,r,probability"
    assert main(["table", "--dim", "2", "--basis", "q5"]) == 2
    assert main(["table", "--dim", "2", "--basis", "zonk"]) == 2
    capsys.readouterr()
    # a label is a basis's exact text at --dim: an Arabic-Indic three printed
    # the q3 row, a superscript two failed inside int(), and " q1" and q01
    # printed the q1 row
    for label in ("", "comp2", "qx", "hat", "hat-", "q-1", "q\u0663", "q\u00b2",
                  "hat-q\u0663", "q01", " q1", "q7"):
        assert main(["table", "--dim", "5", "--basis", label]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"mubsig: error: unrecognized basis label {label!r}\n"


def test_cli_verify_text(capsys):
    assert main(["verify", "--dim", "2"]) == 0
    out = capsys.readouterr().out
    assert "[ok  ]" in out
    assert "checks passed" in out
    assert "FAIL" not in out


def test_cli_verify_json(capsys):
    assert main(["verify", "--dim", "3", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    assert doc["dim"] == 3
    assert len(doc["checks"]) >= 15
    assert all(c["passed"] for c in doc["checks"])


def test_cli_rejects_unknown_arguments(capsys):
    assert main(["run", "--dim", "2", "--protocol", "original",
                 "--rounds", "10", "--frobnicate"]) == 2
    assert main(["conjure"]) == 2
    capsys.readouterr()
