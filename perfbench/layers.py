"""Which program entry points the traced run wraps, and the per-layer
metrics derived from their spans.

Span names are ``<layer>.<operation>``, the layer being the program
module the entry point lives in.  Functions imported by name are
patched where the program calls them (``repro.core.eve.parse_view``,
not ``repro.esql.parser.parse_view``).
"""

from __future__ import annotations

import repro.core.eve as core_eve
import repro.qc.quality as qc_quality
from repro.core.eve import EVESystem
from repro.esql.validate import ViewValidator
from repro.maintenance.simulator import ViewMaintainer
from repro.qc.model import QCModel
from repro.relational.versioning import ExtentSnapshot
from repro.report import SystemReport
from repro.serving.frontend import ServingFrontend
from repro.space.space import InformationSpace
from repro.sync.pipeline import RewritingSearchPipeline
from repro.sync.scheduler import SynchronizationScheduler

from spans import Recorder
from stats import percentile_or_none


def install(recorder: Recorder) -> None:
    """Wrap every traced entry point (undo with ``recorder.restore()``)."""
    patch = recorder.patch

    def rows_out(args, kwargs, result) -> None:
        recorder.count("esql.evaluate.rows_out", len(result.rows))

    def search_counts(args, kwargs, outcome) -> None:
        counters = outcome.counters
        if counters is not None:
            for stage in ("generated", "legal", "assessed", "pruned"):
                recorder.count(f"sync.search.{stage}", getattr(counters, stage))

    def batch_updates(args, kwargs, result) -> None:
        recorder.count("maintenance.updates", len(args[3]))

    def single_update(args, kwargs, result) -> None:
        recorder.count("maintenance.updates", 1)

    patch(core_eve, "parse_view", "esql.parse")
    patch(ViewValidator, "resolve_view", "esql.validate")
    patch(core_eve, "evaluate_view", "esql.evaluate", rows_out)
    patch(qc_quality, "evaluate_view", "esql.evaluate", rows_out)
    patch(InformationSpace, "apply_change", "space.apply_change")
    patch(InformationSpace, "insert", "space.update")
    patch(InformationSpace, "delete", "space.update")
    patch(core_eve, "coalesce_fingerprint", "sync.fingerprint")
    patch(RewritingSearchPipeline, "search", "sync.search", search_counts)
    patch(SynchronizationScheduler, "execute", "sync.execute")
    patch(QCModel, "salvage_lower_bound", "qc.salvage_bound")
    # The pruned search assesses candidates one by one (cost_of, then
    # quality_of for survivors of the QC bound); the exhaustive search
    # goes through evaluate.  All of them are QC assessments.
    for method in ("evaluate", "evaluate_exact", "cost_of", "quality_of"):
        patch(QCModel, method, "qc.evaluate")
    patch(EVESystem, "define_view", "core.define_view")
    patch(EVESystem, "apply_changes", "core.apply_changes")
    patch(EVESystem, "apply_updates", "core.apply_updates")
    patch(EVESystem, "adopt_results", "core.adopt")
    patch(EVESystem, "snapshot", "relational.snapshot")
    patch(ExtentSnapshot, "release", "relational.snapshot")
    patch(ViewMaintainer, "maintain", "maintenance.maintain", single_update)
    patch(
        ViewMaintainer, "maintain_batch", "maintenance.maintain_batch",
        batch_updates,
    )
    patch(ServingFrontend, "read_sync", "serving.read")
    patch(SystemReport, "for_changes", "report.build")
    patch(SystemReport, "for_updates", "report.build")
    patch(SystemReport, "to_dict", "report.serialize")


def unit_of(name: str) -> str:
    """The unit of a per-layer metric, from its name's suffix."""
    if name.endswith("_s"):
        return "s"
    if "_ms" in name:
        return "ms"
    if name.endswith(("ratio", "share", "overhead", "coverage")):
        return "ratio"
    return "count"


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(
    recorder: Recorder, root: int, run: dict, untraced_s: float,
    traced_s: float, cache_hits: int, cache_misses: int,
) -> dict[str, float]:
    """Every per-layer metric from one traced run.

    ``root`` is the span around the traced timed phase and ``run`` that
    phase's measurement record (the output of ``workloads.py``);
    ``untraced_s`` / ``traced_s`` are the work times of the untraced
    and traced timed phases.
    """
    table = recorder.by_name()
    counts = recorder.counts

    def busy(name: str) -> float:
        return table.get(name, {}).get("busy_s", 0.0)

    def calls(name: str) -> int:
        return int(table.get(name, {}).get("calls", 0))

    searches = calls("sync.search")
    synchronized = run.get("synchronized", 0)
    maintain_calls = calls("maintenance.maintain_batch") + calls(
        "maintenance.maintain"
    )
    updates = run.get("updates", 0)
    cf = run.get("cf", (0, 0, 0))
    reads = run.get("reads", [])
    read_busy = [r["busy_ms"] for r in reads if "busy_ms" in r]
    read_wait = [
        r["latency_ms"] - r["busy_ms"] for r in reads if "busy_ms" in r
    ]
    queue = [w["queue_ms"] for w in run.get("writes", []) if "queue_ms" in w]
    lag = [r["lag_ms"] for r in reads]

    def pct(values, q) -> float:
        value = percentile_or_none(values, q)
        return 0.0 if value is None else value

    return {
        "esql.parse.busy_s": busy("esql.parse"),
        "esql.validate.busy_s": busy("esql.validate"),
        "esql.evaluate.calls": calls("esql.evaluate"),
        "esql.evaluate.busy_s": busy("esql.evaluate"),
        "esql.evaluate.rows_out": counts.get("esql.evaluate.rows_out", 0),
        "space.apply_change.busy_s": busy("space.apply_change"),
        "space.update.busy_s": busy("space.update"),
        "sync.fingerprint.busy_s": busy("sync.fingerprint"),
        "sync.execute.self_s": busy("sync.execute"),
        "sync.search.calls": searches,
        "sync.search.busy_s": busy("sync.search"),
        "sync.search.legal_ratio": _ratio(
            counts.get("sync.search.legal", 0),
            counts.get("sync.search.generated", 0),
        ),
        "sync.search.assessed_ratio": _ratio(
            counts.get("sync.search.assessed", 0),
            counts.get("sync.search.assessed", 0)
            + counts.get("sync.search.pruned", 0),
        ),
        "sync.coalesce.follower_share": (
            1.0 - searches / synchronized if synchronized else 0.0
        ),
        "qc.salvage_bound.busy_s": busy("qc.salvage_bound"),
        "qc.evaluate.calls": calls("qc.evaluate"),
        "qc.evaluate.busy_s": busy("qc.evaluate"),
        "qc.cache.hit_ratio": _ratio(cache_hits, cache_hits + cache_misses),
        "core.apply_changes.self_s": busy("core.apply_changes"),
        "core.adopt.busy_s": busy("core.adopt"),
        "core.apply_updates.self_s": busy("core.apply_updates"),
        "maintenance.maintain_batch.calls": maintain_calls,
        "maintenance.maintain_batch.busy_s": busy("maintenance.maintain_batch")
        + busy("maintenance.maintain"),
        "maintenance.updates_per_call": _ratio(
            counts.get("maintenance.updates", 0), maintain_calls
        ),
        "maintenance.cf.messages_per_update": _ratio(cf[0], updates),
        "maintenance.cf.bytes_per_update": _ratio(cf[1], updates),
        "maintenance.cf.io_per_update": _ratio(cf[2], updates),
        "relational.snapshot.busy_s": busy("relational.snapshot"),
        "relational.versions_published": run.get("published", 0),
        "relational.copies": run.get("copies", 0),
        "serving.read.busy_ms.p50": pct(read_busy, 50),
        "serving.read.wait_ms.p99": pct(read_wait, 99),
        "serving.write.queue_ms.p50": pct(queue, 50),
        "report.build.busy_s": busy("report.build"),
        "report.serialize.busy_s": busy("report.serialize"),
        "bench.reader_lag_ms.p99": pct(lag, 99),
        "bench.trace_overhead": _ratio(traced_s, untraced_s),
        "bench.caller_coverage": recorder.coverage(root),
    }
