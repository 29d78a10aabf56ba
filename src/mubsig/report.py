"""Report documents: canonical serialization of a session and its config.

A report document carries the artifact version, a config echo, and the
session results.  The config echo alone reproduces the run exactly, and
serialization is canonical (sorted keys, fixed layout, no volatile
fields), so re-running any report's config yields a byte-identical
document.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import json
from typing import Iterable, Iterator, Mapping

import numpy as np

from .bases import BasisId, basis_alphabet, pair_outcome_labels
from .harness import _CONFIG_KEYS, HarnessConfig, analytic_outcome_distribution
from .protocol import _FAMILIES, RoundLog, SessionReport, _decode_codes

SCHEMA = "mubsig.report/2"
_READABLE_SCHEMAS = ("mubsig.report/1", SCHEMA)   # whose config keys mean what they say

__all__ = [
    "SCHEMA",
    "build_document",
    "canonical_json",
    "config_from_document",
    "render_text",
    "round_log_csv",
]


def _config_echo(config: HarnessConfig) -> dict:
    echo = {}
    for key, (field, _, _) in _CONFIG_KEYS.items():
        value = getattr(config, field)
        if isinstance(value, enum.Enum):
            value = value.value
        elif isinstance(value, Mapping):
            value = {str(k): float(v) for k, v in value.items()}
        echo[key] = value
    return echo


def build_document(config: HarnessConfig, report: SessionReport, *,
                   include_tables: bool = False) -> dict:
    """Assemble the full report document for one finished session."""
    from . import __version__

    doc = {
        "schema": SCHEMA,
        "artifact": {"name": "mubsig", "version": __version__},
        "config": _config_echo(config),
        "results": dataclasses.asdict(report),
    }
    if include_tables:
        doc["tables"] = _outcome_tables(config.d, config.alphabet())
    return doc


def _outcome_tables(d: int, bases: Iterable[BasisId]) -> dict:
    """The exact outcome distribution of each basis, as {basis: {"c,r": p}}."""
    return {b.text(): {f"{c},{r}": float(p) for (c, r), p in
                       analytic_outcome_distribution(d, b).as_mapping().items()}
            for b in bases}


def canonical_json(document: Mapping) -> str:
    """Serialize a document deterministically (sorted keys, 2-space indent)."""
    return json.dumps(document, sort_keys=True, indent=2,
                      ensure_ascii=True, allow_nan=False) + "\n"


def _config_fields(document: Mapping) -> dict:
    """The config section of a report, or a bare config mapping, with
    dashes in its keys turned into underscores.  A report of a schema this
    version cannot read is refused: its keys may mean something else."""
    if not isinstance(document, Mapping):
        raise ValueError("config document must be a mapping")
    if "config" in document and isinstance(document["config"], Mapping):
        if document.get("schema") not in (None, *_READABLE_SCHEMAS):
            raise ValueError(f"unknown report schema {document['schema']!r}, "
                             f"expected one of {list(_READABLE_SCHEMAS)}")
        document = document["config"]
    return {str(k).replace("-", "_"): v for k, v in document.items()}


def config_from_document(document: Mapping) -> HarnessConfig:
    """Rebuild a HarnessConfig from a config mapping or a full report.

    Accepts either the bare config echo (keys mirroring the CLI flags)
    or an entire report document, whose ``config`` section is used.
    A null value means the key is absent, so an optional key takes its
    default.  Raises ValueError on unknown keys or malformed values.
    """
    data = _config_fields(document)
    unknown = set(data) - set(_CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    required = {f.name for f in dataclasses.fields(HarnessConfig)
                if f.default is dataclasses.MISSING}
    fields = {}
    for key, (field, kind, _) in _CONFIG_KEYS.items():
        if data.get(key) is not None:
            fields[field] = _config_value(key, kind, data[key])
        elif field in required:
            raise ValueError(f"config is missing required key {key!r}")
    return HarnessConfig(**fields)


def _config_value(key: str, kind: type | None, value: object) -> object:
    """One config value read as ``kind``: an integral float is an int."""
    if kind is None:
        return value
    if issubclass(kind, enum.Enum):
        try:
            return kind(value)
        except ValueError:
            raise ValueError(f"config key {key!r} must be one of "
                             f"{[m.value for m in kind]}, got {value!r}") from None
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (
            kind is int and isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"config key {key!r} must be {kind.__name__}-valued, "
                         f"got {value!r}")
    try:
        return kind(value)
    except OverflowError:
        raise ValueError(f"config key {key!r} is out of range") from None


def render_text(document: Mapping) -> str:
    """Human-readable summary of a report document."""
    config = document["config"]
    results = document["results"]
    lines = [
        f"session  d={config['dim']} protocol={config['protocol']} "
        f"eve={config['eve']} seed={config['seed']}",
        f"rounds   total={results['rounds']} sifted={results['sifted']}",
        f"rates    decode_accuracy={results['decode_accuracy']:.6f} "
        f"inconclusive={results['inconclusive_rate']:.6f}",
        f"         detection={results['detection_rate']:.6f} "
        f"eve_information={results['eve_information_rate']:.6f}",
    ]
    if results.get("pretest_abort") is not None:
        lines.append(f"pretest  correlated={results['pretest_correlated']} "
                     f"hits={results['pretest_hits']} "
                     f"decision={'abort' if results['pretest_abort'] else 'accept'}")
    return "\n".join(lines) + "\n"


_CSV_COLUMNS = ("round", "phase", "bob_basis", "bob_outcome", "alice_basis",
                "alice_family", "alice_outcome_c", "alice_outcome_r",
                "alice_outcome_m", "decode", "eve_outcome_c", "eve_outcome_r",
                "eve_decode", "eve_forward_basis")


# Rows per CSV chunk: enough to spread numpy's per-call cost thin, few
# enough that a chunk's padded byte block stays near half a megabyte.
_CHUNK_ROWS = 8192


def _byte_table(cells: list[str]) -> np.ndarray:
    """One row of ASCII bytes per cell, right-padded with NUL."""
    raw = np.array([cell.encode("ascii") for cell in cells])
    return raw.view(np.uint8).reshape(len(cells), -1)


@functools.cache
def _four_digits() -> np.ndarray:
    """The four zero-padded decimal digits of 0..9999, one uint32 of ASCII bytes each."""
    n = np.arange(10_000)
    digits = np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=1) + ord("0")
    return digits.astype(np.uint8).view(np.uint32).ravel()


def _round_digits(start: int, stop: int) -> np.ndarray:
    """Decimal digits of the rounds ``start..stop-1``, one row each, with
    NUL in place of leading zeros."""
    rounds = np.arange(start, stop)
    width = len(str(stop - 1))
    groups = -(-width // 4)
    padded = np.empty((rounds.size, groups), np.uint32)
    for col in range(groups - 1, -1, -1):   # four digits at a time, lowest first
        rounds, low = np.divmod(rounds, 10_000)
        padded[:, col] = _four_digits()[low]
    digits = padded.view(np.uint8)[:, 4 * groups - width:]
    for col in range(width - 1):   # the rounds are consecutive: short ones come first
        digits[:max(0, 10 ** (width - 1 - col) - start), col] = 0
    return digits


def _rows(*columns: np.ndarray) -> str:
    """Concatenate byte columns row by row and drop their NUL padding."""
    block = np.concatenate(columns, axis=1)
    return block[block != 0].tobytes().decode("ascii")


def _csv_tables(d: int, alphabet: tuple[BasisId, ...], eve: bool) -> tuple[np.ndarray, ...]:
    """The byte tables of the CSV cells: pre-test Bob and Alice cells by
    basis and outcome, signal heads by family and basis, Alice's outcome
    and decode by pair outcome, and the eavesdropper's cells."""
    plain = basis_alphabet(d)
    decodes = ["inconclusive" if code < 0 else plain[code].text()
               for code in _decode_codes(d).tolist()]
    pairs = [f"{c},{r}" for c, r in pair_outcome_labels(d)]
    bob = _byte_table([f",pretest,{b.text()},{m}," for b in plain for m in range(d)])
    alice = _byte_table([f"{a.text()},,,,{m},,,,,\n" for a in plain for m in range(d)])
    heads = _byte_table([f",signal,{b.text()},,,{f.value}," for f in _FAMILIES for b in alphabet])
    outcomes = _byte_table([f"{p},,{t}" for p, t in zip(pairs, decodes)])
    if not eve:
        return bob, alice, heads, outcomes, _byte_table([",,,,\n"])
    return bob, alice, heads, outcomes, _byte_table(
        [f",{p},{t},{'' if t == 'inconclusive' else t}\n" for p, t in zip(pairs, decodes)])


def _csv_chunks(pieces: Iterable[RoundLog]) -> Iterator[str]:
    """The text of :func:`round_log_csv` for a session's rounds given as
    consecutive pieces in round order: the header with the first piece,
    then 8192 rows at most per chunk, each phase of each piece on its own.
    Only the piece being written is held, and each chunk's indices are
    widened to intp before any index arithmetic."""
    first = 0   # the round of the piece's first row
    tables = None
    for piece in pieces:
        if tables is None:
            yield ",".join(_CSV_COLUMNS) + "\n"
            tables = _csv_tables(piece.d, piece.alphabet, piece.eve_outcome is not None)
        bob, alice, heads, outcomes, eve = tables
        for start in range(0, piece.pretest.size, _CHUNK_ROWS):
            cells = piece.pretest[start:start + _CHUNK_ROWS].astype(np.intp)
            yield _rows(_round_digits(first + start, first + start + cells.size),
                        bob.take(cells // len(bob), axis=0), alice.take(cells % len(bob), axis=0))
        first += piece.pretest.size
        for start in range(0, piece.basis.size, _CHUNK_ROWS):
            rows = slice(start, start + _CHUNK_ROWS)
            head = piece.family[rows].astype(np.intp)
            head *= len(piece.alphabet)
            head += piece.basis[rows]
            eve_rows = (np.broadcast_to(eve, (head.size, eve.shape[1]))
                        if piece.eve_outcome is None
                        else eve.take(piece.eve_outcome[rows].astype(np.intp), axis=0))
            yield _rows(_round_digits(first + start, first + start + head.size),
                        heads.take(head, axis=0),
                        outcomes.take(piece.outcome[rows].astype(np.intp), axis=0), eve_rows)
        first += piece.basis.size


def round_log_csv(log: RoundLog) -> str:
    """Flat per-round CSV log, one row per round in session order.

    Columns, with cells that do not apply to a row left empty:

    * ``round``: 0-based, pre-test rounds first; ``phase``: ``pretest``
      or ``signal``; ``bob_basis``: Bob's basis (``comp``, ``q<b>``,
      ``hat-comp``, ``hat-q<b>``);
    * pre-test rows: ``bob_outcome`` (Bob's announced m),
      ``alice_basis`` and ``alice_outcome_m`` (Alice's basis and m');
    * signal rows: ``alice_family`` (``plain`` or ``hat``),
      ``alice_outcome_c`` and ``alice_outcome_r`` (her pair outcome), and
      ``decode`` (``inconclusive``, or the basis label within Alice's
      family, so a hat pair that reads ``hat-q1`` prints ``q1``);
    * intercepted signal rows: ``eve_outcome_c``, ``eve_outcome_r`` and
      ``eve_decode`` (the eavesdropper's outcome and reading, a plain
      label, since her decoy pair is plain), and
      ``eve_forward_basis`` (the basis she measured the stolen qudit in,
      empty when she forwarded it unmeasured).
    """
    return "".join(_csv_chunks((log,)))
