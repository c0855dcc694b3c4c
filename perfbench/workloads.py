"""The three workload loops and the measurement records they return.

Every loop receives a system already set up from the workload's
spec, runs the timed phase, and returns a plain record: per-operation
latencies, work counts, the final state for the reference check, and
(serving) every read with its version and rows.  A write operation is
the ``apply_*`` call plus ``last_report.to_dict()`` — what an operator
who logs every call's report pays.
"""

from __future__ import annotations

import asyncio
from time import perf_counter, process_time

from repro import EVESystem
from repro.serving.frontend import ServingFrontend

import check
import inputs
from calibrate import Calibrator
from spans import Recorder

#: Delay between the end of set-up and the first due operation of the
#: open loop, so the first reads are not already late.
OPEN_LOOP_LEAD_S = 0.05


def _serving_totals(report: dict) -> tuple[int, int]:
    serving = report.get("serving") or {}
    return serving.get("published", 0), serving.get("copied", 0)


def run_closed(
    eve: EVESystem, spec: inputs.Spec, calibrator: Calibrator | None = None
) -> dict:
    """``evolve`` and ``maintain``: the batches back to back, one caller.

    Calibration samples are taken between batches, outside their timing;
    each batch's time is also kept scaled to the reference speed.
    """
    calibrator = calibrator or Calibrator(enabled=False)
    log = check.QCLog()
    changes: list[float] = []
    updates: list[float] = []
    intervals: list[tuple[str, float, float]] = []
    synchronized = committed = update_count = failed = 0
    published = copies = 0
    cpu = 0.0
    started = perf_counter()
    sampling = calibrator.spent_s
    for kind, batch in spec.ops:
        calibrator.tick()
        began = perf_counter()
        cpu_began = process_time()
        try:
            if kind == "changes":
                results = eve.apply_changes(batch)
            else:
                eve.apply_updates(batch)
            report = eve.last_report.to_dict()
        except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
            failed += 1
            continue
        ended = perf_counter()
        elapsed = ended - began
        cpu += process_time() - cpu_began
        intervals.append((kind, began, ended))
        if kind == "changes":
            changes.append(elapsed)
            synchronized += len(results)
            committed += log.record(results)
        else:
            updates.append(elapsed)
            update_count += len(batch)
        p, c = _serving_totals(report)
        published += p
        copies += c
    calibrator.tick(force=True)
    wall = perf_counter() - started - (calibrator.spent_s - sampling)
    counters = eve.maintainer.counters
    scaled = [(kind, (end - start) * calibrator.scale(start, end))
              for kind, start, end in intervals]
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "work_s": wall,
        "change_s": changes,
        "update_s": updates,
        "change_ref_s": [t for kind, t in scaled if kind == "changes"],
        "update_ref_s": [t for kind, t in scaled if kind == "updates"],
        "synchronized": synchronized,
        "committed": committed,
        "updates": update_count,
        "attempted": len(spec.ops),
        "failed": failed,
        "published": published,
        "copies": copies,
        "cf": (counters.messages, counters.bytes_transferred,
               counters.io_operations),
        "log": log,
        "reads": [],
        "writes": [],
    }


def run_serving(
    eve: EVESystem,
    spec: inputs.Spec,
    recorder: Recorder | None = None,
    calibrator: Calibrator | None = None,
) -> dict:
    """``serve_mixed``: an open loop of paced reads and paced writes.

    One asyncio loop on the caller's thread issues reads inline through
    :class:`ServingFrontend` and hands writes, in due order, to the
    frontend's writer thread; each read and write is timed from the
    moment it was due.  Calibration samples are taken on the caller's
    thread after a read is timed; each read and write time is also kept
    scaled to the reference speed.
    """
    calibrator = calibrator or Calibrator(enabled=False)
    frontend = ServingFrontend(eve)
    params = spec.params
    due_offsets = params["write_due"]
    log = check.QCLog()
    reads: list[dict] = []
    writes: list[dict] = []
    initial_version = frontend.version

    async def reader(origin: float) -> None:
        for view, offset in zip(params["reads"], params["read_due"]):
            due = origin + offset
            delay = due - perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            began = perf_counter()
            try:
                served = await frontend.read(view)
            except Exception as error:  # noqa: BLE001 - counted as a failed read
                reads.append({"view": view, "error": repr(error),
                              "lag_ms": (began - due) * 1e3})
                continue
            done = perf_counter()
            reads.append({
                "view": view, "version": served.version, "rows": served.rows,
                "latency_ms": (done - due) * 1e3,
                "busy_ms": (done - began) * 1e3,
                "lag_ms": (began - due) * 1e3,
                "due": due, "done": done,
            })
            calibrator.tick()

    async def writer(origin: float) -> None:
        for (kind, batch), offset in zip(spec.ops, due_offsets):
            due = origin + offset
            delay = due - perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            submitted = perf_counter()
            record = {"kind": kind, "size": len(batch), "submitted": submitted}
            try:
                if kind == "changes":
                    results = await frontend.apply_changes(batch)
                    record["synchronized"] = len(results)
                    record["committed"] = log.record(results)
                else:
                    await frontend.apply_updates(batch)
                report = eve.last_report.to_dict()
            except Exception as error:  # noqa: BLE001 - counted as a failed write
                record["error"] = repr(error)
                writes.append(record)
                continue
            done = perf_counter()
            record.update(
                done=done,
                latency_ms=(done - due) * 1e3,
                busy_s=done - submitted,
                version=report["serving"]["version"],
            )
            record["published"], record["copies"] = _serving_totals(report)
            writes.append(record)

    async def main() -> None:
        origin = perf_counter() + OPEN_LOOP_LEAD_S
        await asyncio.gather(reader(origin), writer(origin))

    started = perf_counter()
    cpu_started = process_time()
    try:
        asyncio.run(main())
    finally:
        frontend.close()
    wall = perf_counter() - started
    cpu = process_time() - cpu_started
    calibrator.tick(force=True)
    for read in reads:
        if "latency_ms" in read:
            read["latency_ref_ms"] = read["latency_ms"] * calibrator.scale(
                read["due"], read["done"]
            )
    for write in writes:
        if "done" in write:
            write["busy_ref_s"] = write["busy_s"] * calibrator.scale(
                write["submitted"], write["done"]
            )
    if recorder is not None:
        applies = [
            span for span in recorder.spans
            if span.name in ("core.apply_changes", "core.apply_updates")
            and span.start >= started
        ]
        for record, span in zip(writes, applies):
            record["queue_ms"] = (span.start - record["submitted"]) * 1e3
    ok_writes = [w for w in writes if "error" not in w]
    counters = eve.maintainer.counters
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        # The open loop's duration is fixed by its schedule; the work
        # it caused is what tracing can inflate.
        "work_s": sum(w["busy_s"] for w in ok_writes)
        + sum(r.get("busy_ms", 0.0) for r in reads) / 1e3,
        "change_s": [w["busy_s"] for w in ok_writes if w["kind"] == "changes"],
        "update_s": [w["busy_s"] for w in ok_writes if w["kind"] == "updates"],
        "change_ref_s": [
            w["busy_ref_s"] for w in ok_writes if w["kind"] == "changes"
        ],
        "update_ref_s": [
            w["busy_ref_s"] for w in ok_writes if w["kind"] == "updates"
        ],
        "change_ms_from_due": [
            w["latency_ms"] for w in ok_writes if w["kind"] == "changes"
        ],
        "update_ms_from_due": [
            w["latency_ms"] for w in ok_writes if w["kind"] == "updates"
        ],
        "synchronized": sum(w.get("synchronized", 0) for w in ok_writes),
        "committed": sum(w.get("committed", 0) for w in ok_writes),
        "updates": sum(w["size"] for w in ok_writes if w["kind"] == "updates"),
        "attempted": len(spec.ops) + len(params["reads"]),
        "failed": (len(writes) - len(ok_writes))
        + sum(1 for r in reads if "error" in r),
        "published": sum(w["published"] for w in ok_writes),
        "copies": sum(w["copies"] for w in ok_writes),
        "cf": (counters.messages, counters.bytes_transferred,
               counters.io_operations),
        "log": log,
        "reads": reads,
        "writes": writes,
        "initial_version": initial_version,
    }


def check_reads(run: dict, expected: dict[tuple[int, str], str]) -> int:
    """Count reads that are torn (digest differs from the serial replay
    at their version) or that saw a version older than a previous read."""
    bad = 0
    newest = -1
    for read in run["reads"]:
        if "error" in read:
            continue
        version = read["version"]
        if version < newest:
            bad += 1
            continue
        newest = version
        want = expected.get((version, read["view"]))
        if want is None or check.rows_digest(read["rows"]) != want:
            bad += 1
    return bad


def write_versions(run: dict) -> list[int]:
    """Version published by each write, then the initial version."""
    return [w.get("version", -1) for w in run["writes"]] + [
        run["initial_version"]
    ]


def reads_by_version(run: dict) -> dict[int, set[str]]:
    table: dict[int, set[str]] = {}
    for read in run["reads"]:
        if "version" in read:
            table.setdefault(read["version"], set()).add(read["view"])
    return table
