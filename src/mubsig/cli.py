"""Command-line interface.

Subcommands:

* ``run``    execute one session and emit a report (json, text, or a
             per-round csv log),
* ``table``  print the exact outcome distribution for a basis choice,
             rows are the sender's choice and columns the receiver's
             pair outcome,
* ``verify`` run the built-in invariant suite for one dimension.

Exit codes: 0 success, 1 invariant failure, 2 usage or config error, or
a dimension too large for the memory at hand.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import gc
import json
import os
import sys
from collections.abc import Iterator
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import TextIO

from .bases import BasisId, Family, basis_alphabet
from .finite_field import PrimeDim
from .harness import _CONFIG_KEYS, HarnessConfig, run_trials
from .protocol import _run_session
from .report import (
    _config_fields,
    _csv_chunks,
    _outcome_tables,
    build_document,
    canonical_json,
    config_from_document,
    render_text,
)

__all__ = ["main", "entry"]

_USAGE_ERROR = 2
_CHECK_FAILURE = 1


class _CliError(Exception):
    """Usage or configuration problem; maps to exit code 2."""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mubsig",
        description="Entangled-pair signaling with mutually unbiased bases: "
                    "sessions, reference tables, and invariant checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one session and write a report")
    for key, (_, kind, help_text) in _CONFIG_KEYS.items():   # every key but the weights
        if help_text is not None:
            choices = [m.value for m in kind] if issubclass(kind, enum.Enum) else None
            run.add_argument("--" + key.replace("_", "-"), type=None if choices else kind,
                             choices=choices, help=help_text)
    run.add_argument("--workers", type=int, default=1,
                     help="worker threads (never changes results)")
    run.add_argument("--format", choices=["json", "csv", "text"], default="json",
                     help="report format; csv is the flat per-round log")
    run.add_argument("--out", type=Path, help="write to this path instead of stdout")
    run.add_argument("--config", type=Path,
                     help="JSON config file (a report document also works); "
                          "explicit flags override its entries")
    run.add_argument("--include-tables", action="store_true",
                     help="embed the exact outcome tables in the report")

    table = sub.add_parser("table", help="print an exact outcome distribution")
    table.add_argument("--dim", type=int, required=True,
                       help="prime Hilbert-space dimension")
    table.add_argument("--basis",
                       help="basis label (comp, q<b>, hat-comp, hat-q<b>); "
                            "default: every plain basis")
    table.add_argument("--format", choices=["json", "csv", "text"], default="text")
    table.add_argument("--out", type=Path, help="write to this path instead of stdout")

    verify = sub.add_parser("verify", help="run the invariant suite")
    verify.add_argument("--dim", type=int, default=2,
                        help="prime Hilbert-space dimension (default 2)")
    verify.add_argument("--format", choices=["json", "text"], default="text")
    return parser


def _load_config_file(path: Path) -> dict:
    try:
        raw = path.read_text()
    except OSError as exc:
        raise _CliError(f"cannot read config file: {exc}") from exc
    try:
        data = json.loads(raw)
    except (json.JSONDecodeError, RecursionError) as exc:   # RecursionError: nested too deep
        raise _CliError(f"malformed config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise _CliError(f"config file {path} must hold a JSON object")
    return data


def _merge_run_config(args: argparse.Namespace) -> HarnessConfig:
    base = {} if args.config is None else _config_fields(_load_config_file(args.config))
    base.update({key: value for key in _CONFIG_KEYS
                 if (value := getattr(args, key, None)) is not None})
    return config_from_document(base)


@contextmanager
def _output(out: Path | None) -> Iterator[TextIO]:
    """Where a command writes: stdout, or the ``--out`` file, opened
    (and so checked) before the command does any work.

    A failed write ends the output.  When the reader closed the pipe
    (``mubsig run ... | head``) it has all it wanted, and the command
    still returns its own exit code; any other failure, a full disk say,
    is an error like an ``--out`` that cannot be opened."""
    try:
        handle = sys.stdout if out is None else out.open("w")
    except OSError as exc:
        raise _CliError(f"cannot write {out}: {exc.strerror or exc}") from exc
    try:
        with nullcontext() if out is None else handle:
            yield handle
            handle.flush()
    except OSError as exc:
        if out is None:   # so that the flush at exit does not fail a second time
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):
            raise _CliError(f"cannot write {out or 'stdout'}: {exc.strerror or exc}") from exc


def _cmd_run(args: argparse.Namespace) -> int:
    config = _merge_run_config(args)
    args.dim, args.rounds = config.d, config.rounds   # named by an out-of-memory error
    if args.workers < 1:
        raise _CliError("--workers must be >= 1")
    if args.include_tables and args.format != "json":
        raise _CliError("--include-tables applies to --format json only")
    with _output(args.out) as out:
        if args.format == "csv":   # each block's rounds are written as they come
            out.writelines(_csv_chunks(_run_session(config, args.workers, collect=True)))
            return 0
        report = run_trials(config, workers=args.workers)
        document = build_document(config, report, include_tables=args.include_tables)
        out.write(canonical_json(document) if args.format == "json"
                  else render_text(document))
    return 0


def _table_rows(d: int, basis_arg: str | None) -> list[BasisId]:
    if basis_arg is None:
        return list(basis_alphabet(d, (Family.PLAIN,)))
    labels = {b.text(): b for b in basis_alphabet(d, (Family.PLAIN, Family.HAT))}
    if basis_arg not in labels:
        raise _CliError(f"unrecognized basis label {basis_arg!r}")
    return [labels[basis_arg]]


def _cmd_table(args: argparse.Namespace) -> int:
    d = PrimeDim(args.dim).d
    rows = _table_rows(d, args.basis)
    with _output(args.out) as out:
        out.write(_table_text(d, rows, args.format))
    return 0


def _table_text(d: int, rows: list[BasisId], fmt: str) -> str:
    tables = _outcome_tables(d, rows)
    if fmt == "json":
        return canonical_json({"dim": d, "rows": tables})
    if fmt == "csv":
        lines = ["basis,c,r,probability"]
        lines += [f"{basis},{cell},{p!r}" for basis, table in tables.items()
                  for cell, p in table.items()]
        return "\n".join(lines) + "\n"
    width = max(8, max(map(len, tables)) + 2)
    header = "".join(f"{f'({cell})':>9}" for cell in tables[rows[0].text()])
    lines = [f"{'basis':<{width}}{header}"]
    lines += [f"{basis:<{width}}" + "".join(f"{p:>9.4f}" for p in table.values())
              for basis, table in tables.items()]
    return "\n".join(lines) + "\n"


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_invariant_suite   # only verify loads the suite and the oracle

    results = run_invariant_suite(args.dim)   # checks the dimension first
    failed = [r for r in results if not r.passed]
    with _output(None) as out:
        if args.format == "json":
            doc = {"dim": args.dim, "passed": not failed,
                   "checks": [dataclasses.asdict(r) for r in results]}
            out.write(canonical_json(doc))
        else:
            for r in results:
                mark = "ok  " if r.passed else "FAIL"
                line = f"[{mark}] {r.name} ({r.assertions} assertions)"
                if not r.passed and r.detail:
                    line += f": {r.detail}"
                print(line, file=out)
            total = sum(r.assertions for r in results)
            print(f"{len(results) - len(failed)}/{len(results)} checks passed, "
                  f"{total} assertions, d={args.dim}", file=out)
    return _CHECK_FAILURE if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "table":
            return _cmd_table(args)
        return _cmd_verify(args)
    except (_CliError, ValueError, TypeError) as exc:
        print(f"mubsig: error: {exc}", file=sys.stderr)
        return _USAGE_ERROR
    except MemoryError:
        rounds = f" with {args.rounds} rounds" if args.command == "run" else ""
        print(f"mubsig: error: dimension {args.dim}{rounds} needs more memory than "
              "this process may use", file=sys.stderr)
        return _USAGE_ERROR


def entry() -> None:
    """The ``mubsig`` program: ``main()`` on ``sys.argv``, then exit with its code.

    Every object alive before ``main`` runs, nearly all of them made by
    imports, is frozen first, so no collection walks them again: neither
    a full one during the command nor the interpreter's last one at exit.
    ``main`` itself leaves the collector as it found it.
    """
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    entry()
