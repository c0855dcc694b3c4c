"""End-to-end benchmark of the EVE system.

Usage (from the repository root)::

    python3 perfbench/run.py --workload evolve --seed 1 --seconds 10 --trace 0

Workloads (see BENCHMARK.json for why each exists):

* ``evolve`` — a capability-change storm over 5,500 shared views;
* ``maintain`` — a data-update stream against overlapping join views;
* ``serve_mixed`` — paced reads beside paced writes on the serving plane.

Inputs come from ``--seed`` alone (``inputs.py``).  The system runs
under ``SystemConfig.fast()`` with the scheduler's ``max_workers``
capped at the CPU count.  ``--seconds`` is the open-loop duration of
one ``serve_mixed`` round; every workload replays its input on a fresh
system, at least twice and then until the rounds' measured time
reaches ``--seconds``, and pools the rounds' samples.  Every run
checks its outputs against ``SystemConfig.reference()`` on the same
input.

``--trace 0`` reports the end-to-end metrics (``setup_s`` is the median
of at least three set-ups).  Their times are scaled to a reference host
speed by a calibration kernel sampled throughout the run
(``calibrate.py``); the unscaled figures are in the detail record.  ``--trace 1`` runs the timed phase untraced, then
again with the span recorder wrapped around the program's entry points
(``layers.py``), and reports the per-layer metrics.  The last line of
standard output is the result object; the line before it is a detail
record with run metadata, sample counts, and the workload's own
metrics.  Both, and the traced run's spans, are also written under
``perfbench/.out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from datetime import UTC, datetime
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / ".out"
CACHE = HERE / ".cache"
#: ``setup_s`` is the median of at least SETUPS set-ups, and of more
#: (up to MAX_SETUPS) until they add up to MIN_SETUP_S.
SETUPS = 3
MAX_SETUPS = 200
MIN_SETUP_S = 3.0
#: Every workload runs at least this many timed rounds, so its tail
#: percentiles rest on at least twice the operation count.
MIN_ROUNDS = 2
WORKLOADS = ("evolve", "maintain", "serve_mixed")


def _import_program() -> None:
    """Import the program from this checkout's ``src`` (never from an
    installed copy); raises ImportError when it is not there."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import repro

    if (ROOT / "src") not in Path(repro.__file__).resolve().parents:
        raise ImportError(f"repro was imported from {repro.__file__}")


def _config():
    from repro import SystemConfig

    return SystemConfig.fast().with_schedule(max_workers=os.cpu_count() or 1)


def _spec(workload: str, seed: int, seconds: float):
    import inputs

    if workload == "evolve":
        return inputs.evolve_spec(seed)
    if workload == "maintain":
        return inputs.maintain_spec(seed)
    return inputs.serve_spec(seed, seconds)


def _tree_hash(*roots: Path) -> str:
    digest = hashlib.sha256()
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _reference_state(spec) -> dict:
    """The reference final state, cached per input and source tree."""
    import check
    import inputs

    key = hashlib.sha256(
        (inputs.digest(spec) + _tree_hash(ROOT / "src" / "repro", HERE)).encode()
    ).hexdigest()[:32]
    path = CACHE / f"{spec.workload}-{spec.seed}-{key}.json"
    if path.exists():
        cached = json.loads(path.read_text())
        cached["views"] = {
            name: (v[0], v[1], v[2], tuple(v[3]), v[4])
            for name, v in cached["views"].items()
        }
        cached["counters"] = tuple(cached["counters"])
        return cached
    state, _ = check.reference_replay(spec)
    CACHE.mkdir(exist_ok=True)
    path.write_text(json.dumps(state))
    return state


class _LazyReference:
    """The reference final state, replayed (or loaded) on first use, so
    the replay's memory never counts toward the timed run's peak RSS."""

    def __init__(self, spec) -> None:
        self._spec = spec
        self._state: dict | None = None

    def get(self) -> dict:
        if self._state is None:
            self._state = _reference_state(self._spec)
        return self._state


def _git_commit() -> str | None:
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return completed.stdout.strip() or None if completed.returncode == 0 else None


def _setup(spec, config, calibrator=None):
    """A fresh system, its set-up time, and that time at the reference
    speed (calibration samples are taken between views, outside it)."""
    import inputs
    from calibrate import Calibrator

    calibrator = calibrator or Calibrator(enabled=False)
    gc.collect()
    calibrator.tick(force=True)
    sampling = calibrator.spent_s
    began = perf_counter()
    eve = inputs.build_system(spec, config, calibrator.tick)
    ended = perf_counter()
    seconds = ended - began - (calibrator.spent_s - sampling)
    calibrator.tick(force=True)
    return eve, seconds, seconds * calibrator.scale(began, ended)


def _timed(eve, spec, recorder=None, calibrator=None) -> dict:
    import workloads

    if spec.workload == "serve_mixed":
        return workloads.run_serving(eve, spec, recorder, calibrator)
    return workloads.run_closed(eve, spec, calibrator)


def _check(eve, spec, run: dict, reference: _LazyReference) -> tuple[int, list[str]]:
    """Failed-operation count and mismatch descriptions for one run."""
    import check
    import workloads

    names = check.view_names(spec)
    state = check.final_state(eve, names, run["log"])
    if spec.workload == "serve_mixed":
        # Which (version, view) pairs need a digest depends on the run.
        expected, digests = check.reference_replay(
            spec, workloads.reads_by_version(run), workloads.write_versions(run)
        )
    else:
        expected, digests = reference.get(), {}
    problems = check.compare(state, expected)
    failed = run["failed"] + len(problems)
    if spec.workload == "serve_mixed":
        torn = workloads.check_reads(run, digests)
        failed += torn
        if torn:
            problems.append(f"{torn} reads differ from the per-version replay")
    return failed, problems


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _workload_metrics(workload: str, run: dict) -> dict:
    """The workload's own metrics, under their workload-specific names,
    each with its sample count (None where the sample is too small)."""
    from stats import percentile_or_none

    def pct(values, q, scale=1.0):
        value = percentile_or_none(values, q)
        return {
            "value": None if value is None else value * scale,
            "unit": "ms", "samples": len(values),
        }

    changes, updates = run["change_s"], run["update_s"]
    out = {}
    if workload == "evolve":
        out["sync_views_per_s"] = {
            "value": run["committed"] / sum(changes), "unit": "views/s",
            "samples": len(changes),
        }
        out["change_batch_ms.p50"] = pct(changes, 50, 1e3)
        out["change_batch_ms.p90"] = pct(changes, 90, 1e3)
    elif workload == "maintain":
        out["updates_per_s"] = {
            "value": run["updates"] / sum(updates), "unit": "updates/s",
            "samples": len(updates),
        }
        out["update_batch_ms.p50"] = pct(updates, 50, 1e3)
        out["update_batch_ms.p99"] = pct(updates, 99, 1e3)
    else:
        latencies = [r["latency_ms"] for r in run["reads"] if "latency_ms" in r]
        out["change_batch_ms.p50"] = pct(run["change_ms_from_due"], 50)
        out["update_batch_ms.p50"] = pct(run["update_ms_from_due"], 50)
        out["update_batch_ms.p99"] = pct(run["update_ms_from_due"], 99)
        out["read_ms.p50"] = pct(latencies, 50)
        out["read_ms.p99"] = pct(latencies, 99)
    return out


def _primary_ms(workload: str, run: dict, scaled: bool = True) -> list[float]:
    """Latencies of the workload's primary operation (change batch,
    update batch, read), at the reference speed unless ``scaled`` is
    false."""
    if workload == "serve_mixed":
        key = "latency_ref_ms" if scaled else "latency_ms"
        return [r[key] for r in run["reads"] if key in r]
    key = "change" if workload == "evolve" else "update"
    key += "_ref_s" if scaled else "_s"
    return [s * 1e3 for s in run[key]]


def _end_to_end(workload: str, run: dict, setups: list[float], rss_mb: float):
    """The gated metrics, defined for every workload.

    Every time is at the reference speed (``calibrate.py``): the host's
    speed can change by up to about 2x for seconds at a time, which
    no run length averages away.
    ``op_ms.p50`` is the median latency of the workload's primary
    operation (change batch, update batch, read).
    ``work_per_s`` is the write throughput: committed view
    synchronizations plus applied updates, over the summed time of the
    write operations (on ``evolve`` it is ``sync_views_per_s``, on
    ``maintain`` ``updates_per_s``).
    """
    from stats import percentile

    ops = _primary_ms(workload, run)
    return {
        "setup_s": _metric(statistics.median(setups), "s"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
        "op_ms.p50": _metric(percentile(ops, 50), "ms"),
        "work_per_s": _metric(_work(run) / _write_s(run, True), "1/s"),
    }, len(ops)


def _work(run: dict) -> int:
    """Committed view synchronizations plus applied updates."""
    return run["updates"] + run["committed"]


def _write_s(run: dict, scaled: bool = False) -> float:
    """Summed elapsed time of the successful write operations (at the
    reference speed if ``scaled``)."""
    if scaled:
        return sum(run["change_ref_s"]) + sum(run["update_ref_s"])
    return sum(run["change_s"]) + sum(run["update_s"])


def _metadata(args, spec, config) -> dict:
    import inputs

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "platform": platform.platform(),
        "generated_at": datetime.now(UTC).isoformat(),
        "git_commit": _git_commit(),
        "input_digest": inputs.digest(spec),
        "input_params": {
            k: v for k, v in spec.params.items()
            if k not in ("reads", "read_due", "write_due")
        },
        "config": config.to_dict(),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        _import_program()
    except ImportError as error:
        print(f"cannot import the program from {ROOT / 'src'}: {error}",
              file=sys.stderr)
        return 2

    spec = _spec(args.workload, args.seed, args.seconds)
    config = _config()
    reference = _LazyReference(spec)
    detail = _metadata(args, spec, config)
    if args.trace:
        result = _traced(args, spec, config, reference, detail)
    else:
        result = _untraced(args, spec, config, reference, detail)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(
        json.dumps({"detail": detail, "result": result}, indent=1)
    )
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


def _merge(runs: list[dict]) -> dict:
    """Pool the rounds of a workload into one record."""
    if len(runs) == 1:
        return runs[0]
    merged = dict(runs[0])
    for key in ("change_s", "update_s", "change_ref_s", "update_ref_s",
                "reads", "writes", "change_ms_from_due", "update_ms_from_due"):
        merged[key] = [item for run in runs for item in run.get(key, ())]
    for key in ("wall_s", "cpu_s", "work_s", "synchronized", "committed",
                "updates", "attempted", "failed", "published", "copies"):
        merged[key] = sum(run[key] for run in runs)
    return merged


def _untraced(args, spec, config, reference, detail) -> dict:
    """At least ``MIN_ROUNDS`` timed rounds on fresh systems, more until
    their measured time reaches ``--seconds``.
    Extra set-ups, until ``setup_s`` rests on enough samples, run half
    before the first round and the rest after each round in proportion
    to the time measured so far, so their median samples the host
    across the whole run, not one moment.  One calibrator samples the
    host's speed throughout, and every gated time is scaled by it."""
    from calibrate import REFERENCE_S, Calibrator

    calibrator = Calibrator()
    setups: list[float] = []
    setups_ref: list[float] = []
    runs: list[dict] = []
    failed = 0
    problems: list[str] = []
    rss = 0.0

    def set_up_until(share: float, at_least: int = 0) -> None:
        while len(setups) < at_least or (
            sum(setups) < MIN_SETUP_S * share
            and len(setups) < MAX_SETUPS * share
        ):
            eve, seconds, scaled = _setup(spec, config, calibrator)
            setups.append(seconds)
            setups_ref.append(scaled)
            eve.close()
            del eve

    set_up_until(0.5)
    while True:
        eve, seconds, scaled = _setup(spec, config, calibrator)
        setups.append(seconds)
        setups_ref.append(scaled)
        run = _timed(eve, spec, calibrator=calibrator)
        if not runs:  # before any reference replay can raise the peak
            rss = _peak_rss_mb()
        round_failed, round_problems = _check(eve, spec, run, reference)
        eve.close()
        del eve
        failed += round_failed
        problems += round_problems
        runs.append(run)
        timed = sum(r["wall_s"] for r in runs)
        if len(runs) >= MIN_ROUNDS and timed >= args.seconds:
            set_up_until(1.0, SETUPS)
            break
        set_up_until(0.5 + 0.5 * min(timed / args.seconds, 1.0))
    run = _merge(runs)
    metrics, samples = _end_to_end(args.workload, run, setups_ref, rss)
    detail["rounds"] = len(runs)
    detail["samples"] = {
        "setup_s": len(setups), "peak_rss_mb": 1, "op_ms.p50": samples,
        "work_per_s": len(run["change_s"]) + len(run["update_s"]),
    }
    detail["setup_s_all"] = setups_ref
    # The gated figures before scaling to the reference speed, and the
    # calibration behind the scaling.
    detail["unscaled"] = {
        "setup_s": statistics.median(setups),
        "op_ms.p50": statistics.median(_primary_ms(args.workload, run, False)),
        "work_per_s": _work(run) / _write_s(run),
    }
    detail["calibration"] = {
        "reference_s": REFERENCE_S,
        "samples": len(calibrator.costs),
        "quartiles_s": statistics.quantiles(calibrator.costs, n=4),
    }
    detail["workload_metrics"] = _workload_metrics(args.workload, run)
    # Diagnostics, not gated: the same work per CPU second (all
    # threads), and the share of the run the write operations took.
    detail["work_per_cpu_s"] = _work(run) / run["cpu_s"]
    detail["write_busy_share"] = _write_s(run) / run["wall_s"]
    detail["mismatches"] = problems[:20]
    return _result(run, failed, metrics)


def _traced(args, spec, config, reference, detail) -> dict:
    import layers
    from spans import Recorder

    eve, _, _ = _setup(spec, config)
    plain = _timed(eve, spec)
    failed, problems = _check(eve, spec, plain, reference)
    eve.close()
    del eve

    recorder = Recorder()
    layers.install(recorder)
    try:
        with recorder.span("bench.setup"):
            eve, _, _ = _setup(spec, config)
        hits, misses = eve.assessment_cache.hits, eve.assessment_cache.misses
        with recorder.span("bench.timed") as root:
            traced = _timed(eve, spec, recorder)
    finally:
        recorder.restore()
    hits = eve.assessment_cache.hits - hits
    misses = eve.assessment_cache.misses - misses
    traced_failed, traced_problems = _check(eve, spec, traced, reference)
    eve.close()
    metrics = layers.per_layer(
        recorder, root, traced, plain["work_s"], traced["work_s"],
        hits, misses,
    )
    recorder.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    detail["spans"] = len(recorder.spans)
    detail["workload_metrics"] = _workload_metrics(args.workload, plain)
    detail["mismatches"] = (problems + traced_problems)[:20]
    run = dict(plain)
    run["attempted"] = plain["attempted"] + traced["attempted"]
    return _result(
        run, failed + traced_failed,
        {name: _metric(value, layers.unit_of(name))
         for name, value in metrics.items()},
    )


def _result(run: dict, failed: int, metrics: dict) -> dict:
    return {
        "correct": failed == 0,
        "attempted": run["attempted"],
        "failed": failed,
        "metrics": metrics,
    }


if __name__ == "__main__":
    sys.exit(main())
