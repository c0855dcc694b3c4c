"""Per-view maintenance contexts: reuse while current, rebuild on change.

``EVESystem`` compiles one
:class:`~repro.maintenance.context.MaintenanceContext` per materialized
view and reuses it across update flushes for as long as the view's
definition object, and every referenced relation's owning source and
schema object, are unchanged.  These tests pin both halves: contexts
are reused (one resolution per view across many batches, untouched by
changes elsewhere in the space) and never outlive a change that could
alter the maintenance plan (a stale schema fails exactly as a fresh
resolution does).
"""

import pytest

from repro.core.eve import EVESystem
from repro.errors import UnknownAttributeError
from repro.esql.validate import ViewValidator
from repro.misd.statistics import RelationStatistics
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema
from repro.space.changes import (
    AddAttribute,
    DeleteAttribute,
    RenameRelation,
)
from repro.space.space import InformationSpace


def build_eve(auto_synchronize=True):
    space = InformationSpace()
    for source in ("IS1", "IS2", "IS3"):
        space.add_source(source)
    for source, name, attributes, rows in (
        ("IS1", "R", ["A", "B"], [(1, 10), (2, 20)]),
        ("IS2", "S", ["A", "B"], [(1, 5), (2, 6)]),
        ("IS3", "U", ["A", "E"], [(1, 7)]),
    ):
        space.register_relation(
            source,
            Relation(Schema(name, attributes), rows),
            RelationStatistics(cardinality=len(rows)),
        )
    eve = EVESystem(space=space, auto_synchronize=auto_synchronize)
    eve.define_view(
        "CREATE VIEW V AS SELECT R.A, S.B FROM R, S WHERE R.A = S.A"
    )
    return eve


@pytest.fixture
def resolutions(monkeypatch):
    """Count every view resolution from here on."""
    calls = []
    original = ViewValidator.resolve_view

    def counting(self, view):
        calls.append(view.name)
        return original(self, view)

    monkeypatch.setattr(ViewValidator, "resolve_view", counting)
    return calls


def batches(count):
    for step in range(count):
        yield [
            ("R", "insert", (step % 3, 100 + step)),
            ("S", "insert", (step % 3, 200 + step)),
        ]


class TestContextReuse:
    def test_update_batches_resolve_each_view_once(self, resolutions):
        eve = build_eve()
        del resolutions[:]  # definition and materialization
        for batch in batches(12):
            eve.apply_updates(batch)
            assert eve.last_report.plans  # EXPLAIN capture reads it too
        assert eve.explain_maintenance("V", "S").updated_relation == "S"
        assert resolutions == ["V"]

    def test_unrelated_schema_change_keeps_the_context(self, resolutions):
        eve = build_eve()
        eve.apply_updates(next(batches(1)))
        eve.apply_changes([AddAttribute("IS3", "U", Attribute("F"), 0)])
        eve.apply_changes([RenameRelation("IS3", "U", "U2")])
        del resolutions[:]
        for batch in batches(4):
            eve.apply_updates(batch)
        assert resolutions == []

    def test_referenced_schema_change_rebuilds_the_context(
        self, resolutions
    ):
        eve = build_eve()
        eve.apply_updates(next(batches(1)))
        eve.apply_changes([AddAttribute("IS2", "S", Attribute("F"), 0)])
        assert eve.vkb.record("V").generations == 0  # definition unchanged
        del resolutions[:]
        for step in range(4):
            eve.apply_updates(
                [("R", "insert", (1, step)), ("S", "insert", (1, step, 0))]
            )
        assert resolutions == ["V"]
        assert sorted(eve.extent("V").rows) == sorted(
            eve.refresh("V").rows
        )

    def test_stale_schema_raises_like_a_fresh_resolution(self):
        eve = build_eve(auto_synchronize=False)
        eve.apply_updates(next(batches(1)))  # the context exists now
        eve.space.apply_change(DeleteAttribute("IS2", "S", "B"))
        with pytest.raises(UnknownAttributeError):
            eve.apply_updates([("R", "insert", (1, 11))])

    def test_explain_reports_the_plan_the_flush_ran(self):
        eve = build_eve()
        eve.apply_updates([("S", "insert", (2, 9))])
        (captured,) = eve.last_report.plans
        explained = eve.explain_maintenance("V", "S").to_dict()
        assert captured["actual"]["updates"] == 1
        assert {**captured, "actual": None} == explained
        # Callers get their own copy: mutating it leaves the next
        # capture untouched.
        eve.explain_maintenance("V", "S").estimated["messages"] = -1
        assert eve.explain_maintenance("V", "S").to_dict() == explained
