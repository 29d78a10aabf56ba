import gc
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mubsig
from mubsig import cli

ROOT = Path(__file__).resolve().parent.parent


def test_cli_import_loads_no_scipy():
    """numpy is the only numerical dependency; scipy must not creep back in."""
    code = ("import json, sys, mubsig.cli; print(json.dumps(sorted("
            "m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert json.loads(proc.stdout) == []


def test_run_and_table_load_neither_the_suite_nor_the_thread_pool():
    """A fresh ``run`` or ``table`` process imports only what it runs:
    the invariant suite and its oracle load with ``verify``, and the
    thread pool with a session of more than one worker."""
    code = """if True:
        import json, os, sys
        from mubsig.cli import main
        assert main(["run", "--dim", "3", "--protocol", "original", "--eve", "intercept",
                     "--rounds", "70000", "--seed", "3", "--workers", "1",
                     "--out", os.devnull]) == 0
        assert main(["table", "--dim", "3", "--out", os.devnull]) == 0
        loaded = sorted(m for m in ("mubsig.verify", "mubsig.oracle", "concurrent.futures")
                        if m in sys.modules)
        verdict = main(["verify", "--dim", "2"])
        print(json.dumps([loaded, verdict, "mubsig.verify" in sys.modules]))
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert json.loads(proc.stdout.splitlines()[-1]) == [[], 0, True]


@pytest.fixture
def unfreeze():
    yield
    gc.unfreeze()


def test_the_entry_freezes_the_start_up_objects_before_main_runs(monkeypatch, unfreeze):
    """The console script and ``python -m mubsig.cli`` freeze what the
    imports made, so neither a collection during the command nor the
    interpreter's last one at exit walks it; ``main`` exits with its code."""
    seen = []
    before = gc.get_freeze_count()
    monkeypatch.setattr(cli, "main", lambda: seen.append(gc.get_freeze_count()) or 3)
    with pytest.raises(SystemExit) as exit_:
        cli.entry()
    assert exit_.value.code == 3
    assert len(seen) == 1 and seen[0] > before
    assert 'mubsig = "mubsig.cli:entry"' in (ROOT / "pyproject.toml").read_text()


def test_main_leaves_the_collector_as_it_found_it(capsys):
    before = gc.get_freeze_count()
    assert cli.main(["table", "--dim", "2"]) == 0
    assert gc.get_freeze_count() == before


def test_top_level_exports_are_the_readme_api():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"from mubsig import \((.*?)\)", readme, re.DOTALL).group(1)
    documented = {name for name in re.split(r"[\s,]+", block) if name}
    assert sorted(mubsig.__all__) == sorted(documented | {"__version__"})
    for name in mubsig.__all__:
        assert hasattr(mubsig, name), name


def test_the_config_enums_are_one_object_under_every_name():
    """The session engine defines Protocol and EveMode; the harness and the
    top level re-export the same classes."""
    from mubsig import harness, protocol

    for name in ("Protocol", "EveMode"):
        assert getattr(mubsig, name) is getattr(harness, name) is getattr(protocol, name)


def test_readme_layout_table_lists_every_module():
    """The modules in README's layout table are exactly src/mubsig/*.py."""
    readme = (ROOT / "README.md").read_text()
    table = readme[readme.index("## Layout"):]
    listed = re.findall(r"^\| `mubsig\.(\w+)`", table, re.MULTILINE)
    modules = {p.stem for p in (ROOT / "src" / "mubsig").glob("*.py")} - {"__init__"}
    assert len(listed) == len(set(listed))
    assert set(listed) == modules


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(demo):
    """Each demo exits 0 and prints exactly its pinned stdout."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    pinned = ROOT / "tests" / "golden" / "demos" / f"{demo.stem}.txt"
    assert proc.stdout == pinned.read_bytes()


def test_the_benchmark_tracer_reads_the_counters_of_every_cache_it_names():
    """perfbench's tracer reports the hits and misses of the caches it
    names in ``CACHED`` off each function's ``cache_info()``.  It skips a
    name the package no longer has: the dense pair basis
    ``bases.entangled_basis`` is retired, and is the only such name."""
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    traced = tracer.Tracer()
    traced.install()
    traced.uninstall()
    counters = traced.cache_info()
    retired = {"bases.entangled_basis"}
    assert retired <= set(tracer.CACHED)
    assert sorted(counters) == sorted(set(tracer.CACHED) - retired)
    for name in tracer.CACHED:
        module, attr = name.split(".")
        assert hasattr(importlib.import_module(f"mubsig.{module}"), attr) == (name not in retired)
    for name in counters:
        module, attr = name.split(".")
        info = getattr(importlib.import_module(f"mubsig.{module}"), attr).cache_info()
        assert counters[name] == {"hits": info.hits, "misses": info.misses}
