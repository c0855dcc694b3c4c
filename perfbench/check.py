"""Output checks against the reference plane.

The reference run replays the same seeded input on
``SystemConfig.reference()`` (naive engine, dict delta plane, serial
exhaustive search), outside the timed phase.  Per view it compares the
alive flag, generation count, committed definition, the chosen
QC-Value of every synchronization, and an extent digest; it also
compares the modeled CF_M/CF_T/CF_IO maintenance counters.  For the
serving workload every read's (version, view) digest is compared with
a serial per-version replay.
"""

from __future__ import annotations

import hashlib
import re
from collections import defaultdict

from repro import EVESystem, SystemConfig
from repro.esql.printer import format_view_compact

import inputs

_VIEW_NAME = re.compile(r"CREATE VIEW (\w+)")


def view_names(spec: inputs.Spec) -> list[str]:
    return [_VIEW_NAME.match(text).group(1) for text in spec.views]


def rows_digest(rows) -> str:
    """Bag digest of a row collection (order-insensitive)."""
    return hashlib.sha256(repr(sorted(rows)).encode()).hexdigest()[:16]


class QCLog:
    """Chosen QC-Value of every synchronization, per view, in order."""

    def __init__(self) -> None:
        self.by_view: dict[str, list[str | None]] = defaultdict(list)

    def record(self, results) -> int:
        """Log one ``apply_changes`` result list; returns how many
        synchronizations committed a rewriting."""
        committed = 0
        for result in results:
            chosen = result.chosen
            self.by_view[result.view_name].append(
                None if chosen is None else repr(chosen.qc)
            )
            committed += chosen is not None
        return committed


def final_state(eve: EVESystem, names: list[str], log: QCLog) -> dict:
    """Everything the reference comparison looks at, as plain data."""
    views = {}
    for name in names:
        alive = eve.is_alive(name)
        views[name] = (
            alive,
            eve.generations(name),
            format_view_compact(eve.vkb.current(name)) if alive else None,
            tuple(log.by_view.get(name, ())),
            rows_digest(eve.extent(name).rows) if alive else None,
        )
    counters = eve.maintainer.counters
    return {
        "views": views,
        "counters": (
            counters.messages, counters.bytes_transferred,
            counters.io_operations,
        ),
    }


def compare(state: dict, reference: dict) -> list[str]:
    """Human-readable mismatches between a run and the reference."""
    problems = [
        f"view {name}: {state['views'].get(name)} != {expected}"
        for name, expected in reference["views"].items()
        if state["views"].get(name) != expected
    ]
    if state["counters"] != reference["counters"]:
        problems.append(
            f"CF counters {state['counters']} != {reference['counters']}"
        )
    return problems


def reference_replay(
    spec: inputs.Spec, reads_at: dict[int, set[str]] | None = None,
    versions: list[int] | None = None,
) -> tuple[dict, dict[tuple[int, str], str]]:
    """Replay ``spec`` serially on the reference plane.

    Returns the final state and, when ``reads_at`` maps versions to the
    views read at them (``versions[i]`` being the version published by
    write ``i``, ``versions[-1]`` the initial one), the digest of each
    read (version, view) pair at that version.
    """
    eve = inputs.build_system(spec, SystemConfig.reference())
    log = QCLog()
    digests: dict[tuple[int, str], str] = {}
    reads_at = reads_at or {}
    versions = versions or []
    # A version read is served by the state after the last write that
    # published it (a write that publishes nothing keeps the version).
    last_write = {}
    for index, version in enumerate(versions[:-1]):
        last_write[version] = index
    initial = versions[-1] if versions else None

    def capture(version: int) -> None:
        for view in reads_at.get(version, ()):
            digests[(version, view)] = rows_digest(eve.extent(view).rows)

    try:
        if initial is not None and initial not in last_write:
            capture(initial)
        for index, (kind, batch) in enumerate(spec.ops):
            if kind == "changes":
                log.record(eve.apply_changes(batch))
            else:
                eve.apply_updates(batch)
            if index < len(versions) - 1 and last_write.get(versions[index]) == index:
                capture(versions[index])
        return final_state(eve, view_names(spec), log), digests
    finally:
        eve.close()
