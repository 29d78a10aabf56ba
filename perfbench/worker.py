"""In-process half of the benchmark: one fresh process per call.

    python3 perfbench/worker.py '<job json>'

run.py builds the job: a mode, the generated session
configs, the time budget and the trace flag.  The process imports
mubsig, warms every config it will use (that is its set-up), then runs
the mode and prints one JSON object on its last stdout line.

Modes:
  setup          import and warm-up only (a set-up time sample)
  compile        time the first 1-round ``run_trials`` of one config
  warm-sessions  long sessions at workers=1 and workers=2, repeated
  round-log      collected sessions written as per-round CSV logs, repeated
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

from checks import ZERO_PROBABILITY, Tally, round_log_failures, session_failures

# Warm-up session length: the tomographic protocol needs at least one
# pre-test and one signal round, which a 1-round session cannot give.
WARM_ROUNDS = 10


def _harness_config(spec: dict, rounds: int | None = None):
    from mubsig.report import config_from_document

    keys = ("dim", "protocol", "eve", "rounds", "seed",
            "pretest_fraction", "posttest_fraction")
    doc = {k: spec[k] for k in keys if spec.get(k) is not None}
    if rounds is not None:
        doc["rounds"] = rounds
    return config_from_document(doc)


def _import_mubsig(job: dict) -> None:
    """Import mubsig, and refuse to measure a copy from anywhere but ``src``."""
    import mubsig

    expected = Path(job["src"]).resolve()
    if expected not in Path(mubsig.__file__).resolve().parents:
        raise SystemExit(f"mubsig imported from {mubsig.__file__}, not from {expected}")


def _set_up(job: dict, tracer) -> float:
    """Import mubsig and warm every config; returns seconds since spawn.

    A traced run traces the warm-up too, since set-up is where the exact
    tables are compiled.
    """
    _import_mubsig(job)
    from mubsig import harness, report

    if tracer is not None:
        tracer.install()
    for spec in job["configs"]:
        config = _harness_config(spec, WARM_ROUNDS)
        if job["mode"] == "round-log":
            report.round_log_csv(harness.run_trials(config, return_rounds=True)[1])
        else:
            harness.run_trials(config)
    ready = time.monotonic() - job["spawn_ts"]
    if tracer is not None:
        tracer.uninstall()
    return ready


@contextmanager
def _untraced(tracer, traced: bool):
    """Keep the benchmark's own checks out of a traced pass."""
    if traced:
        tracer.uninstall()
    try:
        yield
    finally:
        if traced:
            tracer.install()


def _session_check(spec: dict, report, config, reference: dict) -> list[str]:
    """Exact-rate gate on first sight of a config; byte equality after."""
    from mubsig.report import build_document, canonical_json

    text = canonical_json(build_document(config, report))
    if spec["name"] not in reference:
        reference[spec["name"]] = text
        return session_failures(spec, json.loads(text)["results"])
    if text != reference[spec["name"]]:
        return ["canonical JSON differs from the first run of the same seed"]
    return []


def _passes(job: dict, tracer, run_pass) -> list[dict]:
    """Repeat ``run_pass`` while another pass fits in the time budget.

    Untraced runs measure every pass.  Traced runs alternate untraced and
    traced passes (at least one of each), so the trace overhead is the
    ratio of the two in one process.
    """
    start = time.monotonic()
    passes: list[dict] = []
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if tracer is not None:
            tracer.install() if traced else tracer.uninstall()
        t0 = time.monotonic()
        result = run_pass(traced)
        result["traced"] = traced
        passes.append(result)
        now = time.monotonic()
        if len(passes) >= (2 if tracer else 1) and now - start + (now - t0) > job["seconds"]:
            break
        if now + (now - t0) > job["hard_deadline"]:
            break
    if tracer is not None:
        tracer.uninstall()
    return passes


def _warm_sessions(job: dict, tracer) -> dict:
    from mubsig import harness  # looked up per call, so tracing sees it

    specs = job["configs"]
    configs = [_harness_config(s) for s in specs]
    reference: dict[str, str] = {}
    tally = Tally()

    def run_pass(traced: bool) -> dict:
        result: dict = {"w1": {}, "w2": {}}
        for workers in (1, 2):
            for spec, config in zip(specs, configs):
                label = f"bench.session.{spec['name']}.w{workers}"
                try:
                    with tracer.span(label) if traced else nullcontext():
                        t0 = time.perf_counter()
                        report = harness.run_trials(config, workers=workers)
                        result[f"w{workers}"][spec["name"]] = time.perf_counter() - t0
                    with _untraced(tracer, traced):
                        fails = _session_check(spec, report, config, reference)
                except Exception as exc:  # a failed operation; the run goes on
                    fails = [f"{type(exc).__name__}: {exc}"]
                tally.record(f"{spec['name']} workers={workers}", fails)
        return result

    passes = _passes(job, tracer, run_pass)
    return {"passes": passes, "tally": vars(tally)}


def _support(dims: set[int]) -> dict[int, dict[str, set[tuple[int, int]]]]:
    from mubsig.bases import Family, basis_alphabet
    from mubsig.harness import analytic_outcome_distribution

    out: dict[int, dict[str, set[tuple[int, int]]]] = {}
    for d in dims:
        out[d] = {}
        for basis in basis_alphabet(d, (Family.PLAIN, Family.HAT)):
            dist = analytic_outcome_distribution(d, basis)
            out[d][basis.text()] = {label for label, p in dist.as_mapping().items()
                                    if p > ZERO_PROBABILITY}
    return out


def _round_log(job: dict, tracer) -> dict:
    from mubsig import harness, report as report_module  # looked up per call

    specs = job["configs"]
    configs = [_harness_config(s) for s in specs]
    support = _support({s["dim"] for s in specs})
    log_dir = Path(job["out"]) / "round-log"
    log_dir.mkdir(parents=True, exist_ok=True)
    reference: dict[str, str] = {}
    digests: dict[str, str] = {}
    tally = Tally()

    def run_pass(traced: bool) -> dict:
        result: dict = {"collect": {}, "csv": {}, "bytes": {}}
        for spec, config in zip(specs, configs):
            path = log_dir / f"{spec['name']}.csv"
            try:
                with tracer.span(f"bench.collect.{spec['name']}") if traced else nullcontext():
                    t0 = time.perf_counter()
                    report, records = harness.run_trials(config, return_rounds=True)
                    t1 = time.perf_counter()
                text = report_module.round_log_csv(records)
                path.write_text(text)
                t2 = time.perf_counter()
                del records
                result["collect"][spec["name"]] = t1 - t0
                result["csv"][spec["name"]] = t2 - t1
                result["bytes"][spec["name"]] = len(text)
                with _untraced(tracer, traced):
                    fails = _session_check(spec, report, config, reference)
                digest = hashlib.sha256(text.encode()).hexdigest()
                if spec["name"] not in digests:
                    digests[spec["name"]] = digest
                    fails += round_log_failures(text, spec["rounds"], support[spec["dim"]])
                elif digest != digests[spec["name"]]:
                    fails.append("CSV log differs from the first run of the same seed")
            except Exception as exc:  # a failed operation; the run goes on
                fails = [f"{type(exc).__name__}: {exc}"]
            tally.record(spec["name"], fails)
        return result

    passes = _passes(job, tracer, run_pass)
    return {"passes": passes, "tally": vars(tally)}


def _compile(job: dict) -> dict:
    _import_mubsig(job)
    from mubsig.harness import run_trials

    config = _harness_config(job["config"], 1)
    t0 = time.perf_counter()
    run_trials(config)
    return {"compile_s": time.perf_counter() - t0}


def main(argv: list[str]) -> int:
    job = json.loads(argv[1])
    mode = job["mode"]
    if mode == "compile":
        result = _compile(job)
    else:
        tracer = None
        if job.get("trace"):
            from tracer import Tracer  # kept out of untraced set-up times

            tracer = Tracer()
        result = {"setup_s": _set_up(job, tracer)}
        if mode == "warm-sessions":
            result.update(_warm_sessions(job, tracer))
        elif mode == "round-log":
            result.update(_round_log(job, tracer))
        if tracer is not None:
            tracer.dump(Path(job["trace_prefix"]))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
