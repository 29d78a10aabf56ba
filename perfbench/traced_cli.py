"""Run one mubsig CLI call with every public mubsig function traced.

    python3 perfbench/traced_cli.py <trace prefix> <mubsig arguments...>

Imports the CLI, installs the tracer, calls ``mubsig.cli.main(argv)``,
writes the spans to ``<prefix>.spans``/``<prefix>.json`` and exits with
the CLI's exit code.  Import itself is measured apart, with
``python -X importtime``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import mubsig.cli

from tracer import Tracer


def main(argv: list[str]) -> int:
    prefix, cli_args = Path(argv[1]), argv[2:]
    tracer = Tracer()
    tracer.install()
    code = mubsig.cli.main(cli_args)
    tracer.uninstall()
    sys.stdout.flush()
    tracer.dump(prefix)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
