"""Smoke test for the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at a tiny size (``run.py --smoke``), untraced and
traced, and checks that the last stdout line is the result object, that
it carries every metric BENCHMARK.json names for that mode with its
unit, that the end-to-end lines name every metric of each workload, and
that nothing failed.  It also checks the exact detection probabilities
the correctness gate uses against the program, and that the benchmark
refuses to run without the program's sources.  Exits 0 when all hold.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# End-to-end lines each workload prints, beyond BENCHMARK.json's metrics.
WORKLOAD_METRICS = {
    "cli-sweep": ("sweep_run_s", "sweep_verify_s"),
    "warm-sessions": ("rounds_per_s_w2",),
    "round-log": ("logged_rounds_per_s",),
}


def _run(workload: str, trace: int, spec: dict) -> list[str]:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
                          capture_output=True, text=True, cwd=ROOT, timeout=300)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    fails = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fails.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        failures = [line for line in lines if line.startswith("failed ")]
        fails.append(f"{where}: failed {result['failed']} of {result['attempted']}: {failures}")
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in expected}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != units:
        fails.append(f"{where}: metrics or units differ from BENCHMARK.json: "
                     f"{sorted(set(got.items()) ^ set(units.items()))[:6]}")
    for name, metric in result["metrics"].items():
        if not isinstance(metric["value"], (int, float)):
            fails.append(f"{where}: {name} is not a number")
    printed = {line.split()[1]: line.split()[3] for line in lines if line.startswith("e2e ")}
    wanted = [m["name"] for m in spec["end_to_end"]] + ["failed_frac"]
    for name in wanted + list(WORKLOAD_METRICS[workload]):
        if not printed.get(name):
            fails.append(f"{where}: no e2e line with a unit for {name}")
    if not trace and any(result["metrics"][m["name"]]["value"] <= 0 for m in spec["end_to_end"]):
        fails.append(f"{where}: an end-to-end metric is not positive")
    return fails


def _detection_table() -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = ("import json; from checks import DETECTION_PROBABILITY as t; "
            "from mubsig.harness import dual_family_detection_probability as f; "
            "print(json.dumps([d for d in t if f(d) != t[d]]))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=BENCH, env=env, timeout=300)
    if proc.returncode != 0:
        return [f"detection table: {proc.stderr.strip()[-300:]}"]
    wrong = json.loads(proc.stdout)
    return [f"detection probability differs from the program at d={d}" for d in wrong]


def _refuses_without_sources() -> list[str]:
    bare = BENCH / "out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli-sweep",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              capture_output=True, text=True, cwd=bare, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["run.py measured something without the program's sources"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    fails = _detection_table() + _refuses_without_sources()
    for workload in WORKLOAD_METRICS:
        for trace in (0, 1):
            fails += _run(workload, trace, spec)
    for fail in fails:
        print(f"FAIL {fail}")
    print("smoke: ok" if not fails else f"smoke: {len(fails)} failure(s)")
    return 1 if fails else 0


if __name__ == "__main__":
    sys.exit(main())
