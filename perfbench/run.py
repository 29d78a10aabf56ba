"""The mubsig benchmark: one command for every workload.

    python3 perfbench/run.py --workload cli-sweep --seed 1 --seconds 25 --trace 0

Run it from anywhere inside a source checkout: it measures the mubsig
package under ``src/`` of the checkout that holds this file, in fresh
processes, with at most two threads.  ``--trace 0`` prints the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` prints the
per-layer metrics, from a run with every public mubsig function traced.
Every output is checked; a failed check counts the operation as failed
and the run goes on.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
give the environment and each metric by name and unit.  Results, traces
and round logs go to ``perfbench/out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import Tally, session_failures, verify_failures
from tracer import aggregate
from worker import WARM_ROUNDS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# A second seed, never used while the benchmark was tuned: a claim made
# with one seed must also hold with this one.
HELD_OUT_SEED = 7919

RUN_LIMIT_S = 170   # a run must end within 180 s
CALL_LIMIT_S = 120  # one CLI call, probe or worker process

SIZES = {
    "full": {"sweep_rounds": 20_000, "sweep_dims": (3, 7, 11, 13), "verify_dims": (7, 11),
             "session_rounds": 1_000_000, "log_rounds": 100_000},
    "smoke": {"sweep_rounds": 2_000, "sweep_dims": (3,), "verify_dims": (7,),
              "session_rounds": 20_000, "log_rounds": 2_000},
}

# Fresh-process set-up samples per run; setup_s is their median.
SETUP_SAMPLES = {"cli-sweep": 5, "warm-sessions": 3, "round-log": 5}
IMPORT_SAMPLES = 3


def _spec(rng: random.Random, protocol: str, eve: str, d: int, rounds: int,
          pre: float | None = None, post: float | None = None) -> dict:
    return {"name": f"{protocol}-{eve}-d{d}", "dim": d, "protocol": protocol, "eve": eve,
            "rounds": rounds, "seed": rng.randrange(2 ** 32),
            "pretest_fraction": pre, "posttest_fraction": post}


def workload_configs(workload: str, seed: int, size: dict) -> list[dict]:
    """The session configs of one workload; only their seeds depend on ``seed``."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "cli-sweep":
        n = size["sweep_rounds"]
        return [spec for d in size["sweep_dims"]
                for spec in (_spec(rng, "original", "intercept", d, n),
                             _spec(rng, "dualfamily", "dualfamily", d, n, post=0.5))]
    if workload == "warm-sessions":
        n = size["session_rounds"]
        return [_spec(rng, "original", "off", 3, n),
                _spec(rng, "original", "intercept", 5, n),
                _spec(rng, "original", "intercept", 13, n),
                _spec(rng, "tomographic", "intercept", 5, n, pre=0.2, post=0.5),
                _spec(rng, "dualfamily", "off", 13, n, post=0.5),
                _spec(rng, "dualfamily", "dualfamily", 7, n, post=0.5)]
    n = size["log_rounds"]
    return [_spec(rng, "original", "intercept", 3, n),
            _spec(rng, "tomographic", "intercept", 5, n, pre=0.2, post=0.5),
            _spec(rng, "dualfamily", "dualfamily", 5, n, post=0.5)]


def _run_args(spec: dict, workers: int = 1) -> list[str]:
    args = ["run", "--dim", str(spec["dim"]), "--protocol", spec["protocol"],
            "--eve", spec["eve"], "--rounds", str(spec["rounds"]),
            "--seed", str(spec["seed"]), "--format", "json"]
    for key in ("pretest_fraction", "posttest_fraction"):
        if spec[key] is not None:
            args += [f"--{key.replace('_', '-')}", str(spec[key])]
    if workers != 1:
        args += ["--workers", str(workers)]
    return args


class Run:
    """One benchmark run: child processes, the clock, and the failure tally."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.size = SIZES["smoke" if args.smoke else "full"]
        self.deadline = time.monotonic() + RUN_LIMIT_S
        # Children write no bytecode: environment() compiles src/mubsig
        # itself, and nothing outside the checkout may change.
        self.env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.tally = Tally()
        self.trace_dir = OUT / "trace" / args.workload
        self.trace_count = 0
        self.detail: dict = {}  # per-sample timings, saved with the result

    def setup_samples(self, configs: list[dict], count: int) -> list[float]:
        """Set-up times of ``count`` fresh processes; none in a traced run."""
        samples = []
        for _ in range(0 if self.args.trace else count):
            result, err = self.worker({"mode": "setup", "configs": configs})
            self.tally.record("setup", [err] if result is None else [])
            if result is not None:
                samples.append(result["setup_s"])
        return samples

    def call(self, argv: list[str]) -> tuple[int | None, str, str, float]:
        """Run one child to completion; exit code None means it timed out."""
        timeout = max(1.0, min(CALL_LIMIT_S, self.deadline - time.monotonic()))
        t0 = time.monotonic()
        try:
            proc = subprocess.run(argv, capture_output=True, text=True, env=self.env,
                                  cwd=ROOT, timeout=timeout)
        except subprocess.TimeoutExpired:
            return None, "", f"timed out after {timeout:.0f} s", time.monotonic() - t0
        return proc.returncode, proc.stdout, proc.stderr, time.monotonic() - t0

    def worker(self, job: dict) -> tuple[dict | None, str]:
        """Run worker.py on ``job``; returns its result or None and the error."""
        job = dict(job, src=str(SRC), out=str(OUT), hard_deadline=self.deadline - 5)
        job["spawn_ts"] = time.monotonic()
        code, out, err, _ = self.call([sys.executable, str(BENCH / "worker.py"), json.dumps(job)])
        if code != 0 or not out.strip():
            return None, f"exit {code}: {err.strip()[-400:]}"
        return json.loads(out.strip().splitlines()[-1]), ""

    def trace_prefix(self) -> Path:
        self.trace_count += 1
        return self.trace_dir / f"{self.trace_count:03d}"

    def cli(self, args: list[str], prefix: Path | None = None) -> list[str]:
        if prefix is None:
            return [sys.executable, "-m", "mubsig.cli", *args]
        return [sys.executable, str(BENCH / "traced_cli.py"), str(prefix), *args]


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


# --------------------------------------------------------------------------
# Environment header
# --------------------------------------------------------------------------

def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def environment(run: Run) -> dict:
    """Record the machine and versions; leave the bytecode cache warm.

    The package is byte-compiled and imported once, untimed, so every
    timed import reads ``.pyc`` files.  ``bytecode_cache_warm`` says
    whether they existed before this run.
    """
    sources = sorted((SRC / "mubsig").glob("*.py"))
    warm = all(Path(importlib.util.cache_from_source(str(p))).exists() for p in sources)
    code, _, err, _ = run.call([sys.executable, "-m", "compileall", "-q", str(SRC / "mubsig")])
    if code != 0:
        raise SystemExit(f"byte-compiling {SRC / 'mubsig'} failed: {err.strip()[-400:]}")
    probe = ("import json, mubsig, numpy, scipy; print(json.dumps({'mubsig': mubsig.__file__, "
             "'numpy': numpy.__version__, 'scipy': scipy.__version__}))")
    code, out, err, _ = run.call([sys.executable, "-c", probe])
    if code != 0:
        raise SystemExit(f"cannot import mubsig from {SRC}: {err.strip()[-400:]}")
    versions = json.loads(out)
    if SRC.resolve() not in Path(versions["mubsig"]).resolve().parents:
        raise SystemExit(f"mubsig imports from {versions['mubsig']}, not from {SRC}")
    return {
        "workload": run.args.workload, "seed": run.args.seed, "held_out_seed": HELD_OUT_SEED,
        "seconds": run.args.seconds, "trace": run.args.trace, "smoke": run.args.smoke,
        "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": versions["numpy"],
        "scipy": versions["scipy"], "git_commit": _git_commit(),
        "bytecode_cache_warm": warm, "loadavg_start": list(os.getloadavg()),
    }


# --------------------------------------------------------------------------
# Layer probes shared by every traced run
# --------------------------------------------------------------------------

def _importtime(stderr: str) -> dict[str, float]:
    """Split ``python -X importtime -c 'import mubsig'`` into the import.* metrics.

    Lines come children first; read in reverse, each line's ancestors are
    the open entries of smaller depth.  A package's time is the cumulative
    time of its entries that no numpy or scipy entry encloses, so numpy
    modules that scipy pulls in (numpy.f2py, numpy.testing) count as scipy.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cumulative_us, field = line[len("import time:"):].split("|", 2)
        name = field[1:]
        depth = len(name) - len(name.lstrip())
        entries.append((depth, name.strip(), int(self_us), int(cumulative_us)))
    totals = {"numpy": 0, "scipy": 0, "mubsig_self": 0, "mubsig": 0}
    stack: list[tuple[int, str]] = []
    for depth, name, self_us, cumulative_us in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top = name.split(".")[0]
        enclosing = {a.split(".")[0] for _, a in stack}
        if top in ("numpy", "scipy") and not enclosing & {"numpy", "scipy"}:
            totals[top] += cumulative_us
        if name == "mubsig":
            totals["mubsig"] += cumulative_us
        if top == "mubsig":
            totals["mubsig_self"] += self_us
        stack.append((depth, name))
    return {"import.total_s": totals["mubsig"] / 1e6, "import.numpy_s": totals["numpy"] / 1e6,
            "import.scipy_s": totals["scipy"] / 1e6,
            "import.mubsig_self_s": totals["mubsig_self"] / 1e6}


def layer_probes(run: Run) -> dict[str, float]:
    """Import cost (``-X importtime``) and cold table compilation, per config."""
    samples: dict[str, list[float]] = {}
    for _ in range(IMPORT_SAMPLES):
        code, _, err, _ = run.call([sys.executable, "-X", "importtime", "-c", "import mubsig"])
        run.tally.record("importtime", [] if code == 0 else [f"exit {code}"])
        if code == 0:
            for key, value in _importtime(err).items():
                samples.setdefault(key, []).append(value)
    out = {key: _median(values) for key, values in samples.items()}
    for spec in workload_configs("cli-sweep", run.args.seed, run.size):
        result, err = run.worker({"mode": "compile", "config": spec})
        run.tally.record(f"compile {spec['name']}", [err] if result is None else [])
        if result is not None:
            out[f"protocol.compile_s.{spec['protocol']}.d{spec['dim']}"] = result["compile_s"]
    return out


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------

def _check_run_output(run: Run, spec: dict, code: int | None, out: str, err: str,
                      reference: dict[str, str]) -> None:
    fails = []
    if code != 0:
        fails.append(f"exit {code}: {err.strip()[-300:]}")
    else:
        try:
            fails += session_failures(spec, json.loads(out)["results"])
        except (ValueError, KeyError) as exc:
            fails.append(f"unreadable report: {exc}")
        if reference.setdefault(spec["name"], out) != out:
            fails.append("canonical JSON differs from an earlier run of the same seed")
    run.tally.record(f"run {spec['name']}", fails)


def _run_calls(run: Run, configs: list[dict], reference: dict[str, str], traced: bool) -> dict:
    """One ``mubsig run`` call per config; wall time per call."""
    result: dict = {"wall": {}, "traces": []}
    for spec in configs:
        prefix = run.trace_prefix() if traced else None
        code, out, err, wall = run.call(run.cli(_run_args(spec), prefix))
        result["wall"][spec["name"]] = wall
        _check_run_output(run, spec, code, out, err, reference)
        if prefix and code == 0:
            result["traces"].append(prefix)
    return result


def _verify_calls(run: Run, traced: bool) -> dict:
    """One ``mubsig verify`` call per dimension; wall time per call."""
    result: dict = {"wall": {}, "traces": [], "assertions": {}, "trace_of": {}}
    for d in run.size["verify_dims"]:
        prefix = run.trace_prefix() if traced else None
        code, out, err, wall = run.call(run.cli(["verify", "--dim", str(d), "--format", "json"],
                                                prefix))
        result["wall"][d] = wall
        fails = [] if code == 0 else [f"exit {code}: {err.strip()[-300:]}"]
        try:
            document = json.loads(out)
            fails += verify_failures(document)
            result["assertions"][d] = sum(c["assertions"] for c in document["checks"])
        except (ValueError, KeyError) as exc:
            fails.append(f"unreadable verify output: {exc}")
        run.tally.record(f"verify d={d}", fails)
        if prefix and code in (0, 1):  # 1: a check failed, the trace is complete
            result["traces"].append(prefix)
            result["trace_of"][d] = prefix
    return result


def _call_s(groups: list[dict]) -> float:
    """Sum over calls of each call's median wall time across ``groups``."""
    names = {name for g in groups for name in g["wall"]}
    return sum(_median([g["wall"][n] for g in groups if n in g["wall"]]) for n in names)


def cli_sweep(run: Run, configs: list[dict]) -> tuple[dict, dict]:
    """Fresh-process CLI calls, one after another, as a parameter sweep runs them.

    A sweep is every ``run`` call, then every ``verify`` call.  Sweeps
    repeat while another fits in ``--seconds`` (at least one is made); a
    traced run makes one untraced and one traced sweep instead.
    """
    setups = run.setup_samples([], SETUP_SAMPLES["cli-sweep"])
    reference: dict[str, str] = {}
    trace = bool(run.args.trace)
    start = time.monotonic()
    runs, verifies = [], []
    while True:
        t0 = time.monotonic()
        runs.append(_run_calls(run, configs, reference, False))
        verifies.append(_verify_calls(run, False))
        now, last = time.monotonic(), time.monotonic() - t0
        if trace or now - start + last > run.args.seconds or now + last > run.deadline - 10:
            break
    if trace:
        traced_runs = _run_calls(run, configs, reference, True)
        traced_verify = _verify_calls(run, True)
    # Same seeds at workers=2, untimed: reports must not depend on worker count.
    for spec in configs[:2]:
        code, out, err, _ = run.call(run.cli(_run_args(spec, workers=2)))
        _check_run_output(run, spec, code, out, err, reference)
    run.detail.update(setups=setups, run_calls=[g["wall"] for g in runs],
                      verify_calls=[g["wall"] for g in verifies])
    rounds = sum(spec["rounds"] for spec in configs)
    e2e = {
        "setup_s": _median(setups),
        "rounds_per_s": rounds / _call_s(runs),
        "secondary_s": _call_s(verifies),
        "sweep_run_s": _call_s(runs),
        "sweep_verify_s": _call_s(verifies),
    }
    if not trace:
        return e2e, {}
    aggregates = {p: aggregate(p) for g in (traced_runs, traced_verify) for p in g["traces"]}
    layers = {"aggregates": list(aggregates.values())}
    extras = {}
    for d, prefix in traced_verify["trace_of"].items():
        agg, _ = aggregates[prefix]
        extras[f"verify.run_invariant_suite.s.d{d}"] = (
            agg.get("verify.run_invariant_suite", {}).get("total_ns", 0) / 1e9)
        extras[f"verify.assertions.d{d}"] = traced_verify["assertions"].get(d, 0)
    extras["trace.overhead_frac"] = ((_call_s([traced_runs]) + _call_s([traced_verify]))
                                     / (_call_s(runs) + _call_s(verifies)) - 1)
    layers["extras"] = extras
    return e2e, layers


def _worker_run(run: Run, configs: list[dict]) -> dict:
    workload = run.args.workload
    job = {"mode": workload, "configs": configs, "seconds": run.args.seconds,
           "trace": run.args.trace}
    setups = run.setup_samples(configs, SETUP_SAMPLES[workload] - 1)
    prefix = run.trace_prefix()
    result, err = run.worker(dict(job, trace_prefix=str(prefix)))
    if result is None:
        raise SystemExit(f"{workload} worker failed: {err}")
    run.tally.merge(result["tally"])
    run.detail.update(setups=setups + [result["setup_s"]], passes=result["passes"])
    result["setup_s"] = _median(setups + [result["setup_s"]])
    result["trace_prefix"] = prefix
    return result


def _session_s(passes: list[dict], key: str) -> float:
    """Sum over sessions of each session's median time across ``passes``.

    A median per session discards a pass that a burst of load on the
    shared machine slowed, even when it hit only one session.
    """
    names = {name for p in passes for name in p[key]}
    return sum(_median([p[key][name] for p in passes if name in p[key]]) for name in names)


def warm_sessions(run: Run, configs: list[dict]) -> tuple[dict, dict]:
    """Long warm sessions in one process, at workers=1 and workers=2."""
    result = _worker_run(run, configs)
    plain = [p for p in result["passes"] if not p["traced"]]
    rounds = sum(spec["rounds"] for spec in configs)
    e2e = {
        "setup_s": result["setup_s"],
        "rounds_per_s": rounds / _session_s(plain, "w1"),
        "secondary_s": _session_s(plain, "w2"),
        "rounds_per_s_w2": rounds / _session_s(plain, "w2"),
    }
    if not run.args.trace:
        return e2e, {}
    agg, meta = aggregate(result["trace_prefix"])
    extras = {}
    for spec in configs:
        for workers, suffix in ((1, ""), (2, ".w2")):
            span = agg.get(f"bench.session.{spec['name']}.w{workers}")
            if span:
                extras[f"protocol.ns_per_round.{spec['name']}{suffix}"] = (
                    span["total_ns"] / span["calls"] / spec["rounds"])
    traced = [p for p in result["passes"] if p["traced"]]
    both = lambda group: _session_s(group, "w1") + _session_s(group, "w2")  # noqa: E731
    extras["trace.overhead_frac"] = both(traced) / both(plain) - 1
    return e2e, {"aggregates": [(agg, meta)], "extras": extras}


def round_log(run: Run, configs: list[dict]) -> tuple[dict, dict]:
    """Collected sessions turned into per-round CSV logs on disk."""
    result = _worker_run(run, configs)
    plain = [p for p in result["passes"] if not p["traced"]]
    rounds = sum(spec["rounds"] for spec in configs)
    logged = rounds / (_session_s(plain, "collect") + _session_s(plain, "csv"))
    e2e = {
        "setup_s": result["setup_s"],
        "rounds_per_s": logged,
        "secondary_s": _session_s(plain, "csv"),
        "logged_rounds_per_s": logged,
    }
    if not run.args.trace:
        return e2e, {}
    agg, meta = aggregate(result["trace_prefix"])
    traced = [p for p in result["passes"] if p["traced"]]
    extras = {}
    for spec in configs:
        span = agg.get(f"bench.collect.{spec['name']}")
        if span:
            extras[f"protocol.collect_ns_per_round.{spec['name']}"] = (
                span["total_ns"] / span["calls"] / spec["rounds"])
    rows = sum(len(p["csv"]) for p in traced) * configs[0]["rounds"] + WARM_ROUNDS * len(configs)
    csv_ns = agg.get("report.round_log_csv", {}).get("total_ns", 0)
    extras["report.csv_ns_per_row"] = csv_ns / rows
    extras["report.csv_bytes_per_row"] = sum(traced[0]["bytes"].values()) / rounds
    both = lambda group: _session_s(group, "collect") + _session_s(group, "csv")  # noqa: E731
    extras["trace.overhead_frac"] = both(traced) / both(plain) - 1
    return e2e, {"aggregates": [(agg, meta)], "extras": extras}


WORKLOADS = {"cli-sweep": cli_sweep, "warm-sessions": warm_sessions, "round-log": round_log}


# --------------------------------------------------------------------------
# Per-layer metrics from traces
# --------------------------------------------------------------------------

def layer_metrics(names: list[str], layers: dict, probes: dict) -> dict[str, float]:
    """Every per-layer metric; one the workload never reaches reads 0.

    ``<layer>.<function>.calls``/``.self_s``/``.hit_ratio`` come from the
    merged span aggregates and lru_cache counters; the rest are named
    results the workload or the shared probes computed.
    """
    merged: dict[str, dict] = {}
    caches: dict[str, list[int]] = {}
    spans = 0
    for agg, meta in layers["aggregates"]:
        for name, entry in agg.items():
            total = merged.setdefault(name, {"calls": 0, "self_ns": 0})
            total["calls"] += entry["calls"]
            total["self_ns"] += entry["self_ns"]
            spans += entry["calls"]
        for name, info in meta["cache"].items():
            counts = caches.setdefault(name, [0, 0])
            counts[0] += info["hits"]
            counts[1] += info["misses"]
    named = dict(probes, **layers["extras"], **{"trace.spans": spans})
    unknown = set(named) - set(names)
    if unknown:
        raise SystemExit(f"layer results missing from BENCHMARK.json: {sorted(unknown)}")
    values: dict[str, float] = {}
    for metric in names:
        base, _, kind = metric.rpartition(".")
        if metric in named:
            values[metric] = named[metric]
        elif kind == "calls":
            values[metric] = merged.get(base, {}).get("calls", 0)
        elif kind == "self_s":
            values[metric] = merged.get(base, {}).get("self_ns", 0) / 1e9
        elif kind == "hit_ratio":
            hits, misses = caches.get(base, (0, 0))
            values[metric] = hits / (hits + misses) if hits + misses else 0.0
        else:
            values[metric] = 0.0
    return values


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="The mubsig benchmark.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long each workload repeats its measured work")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for checking the benchmark itself")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "mubsig" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"mubsig benchmark: no mubsig sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    run = Run(args)
    header = environment(run)
    configs = workload_configs(args.workload, args.seed, run.size)
    e2e, layers = WORKLOADS[args.workload](run, configs)
    probes = layer_probes(run) if args.trace else {}
    header["loadavg_end"] = list(os.getloadavg())
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    tally = run.tally
    e2e["failed_frac"] = tally.failed / max(tally.attempted, 1)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(sweep_run_s="s", sweep_verify_s="s", rounds_per_s_w2="1/s",
                 logged_rounds_per_s="1/s", failed_frac="ratio")
    if args.trace:
        reported = layer_metrics([m["name"] for m in spec["per_layer"]], layers, probes)
    else:
        reported = {m["name"]: e2e[m["name"]] for m in spec["end_to_end"]}
    print("env " + json.dumps(header, sort_keys=True))
    for name, value in e2e.items():
        print(f"e2e {name} {value!r} {units[name]}")
    if args.trace:
        for name, value in reported.items():
            print(f"layer {name} {value!r} {units[name]}")
    for message in tally.messages:
        print(f"failed {message}")
    result = {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in reported.items()}}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(
        {"env": header, "end_to_end": e2e, "result": result, "failures": tally.messages,
         "detail": run.detail},
        indent=1, sort_keys=True, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
