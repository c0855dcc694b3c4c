"""Extent materialization of coalesced view classes.

A coalesced follower rematerializes as a renamed copy of its class
leader's extent instead of re-evaluating it, and every materialization
resolves only the relations its FROM clause names.  These tests pin
that the copies are exact, independent of the leader, and that no
materialization path snapshots the whole information space.
"""

import dataclasses
import json

import pytest

import repro.core.eve as eve_module
import repro.report as report_module
from repro.config import SystemConfig
from repro.core.eve import EVESystem
from repro.errors import EvaluationError
from repro.esql.evaluator import evaluate_view
from repro.misd.statistics import RelationStatistics
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.space.changes import DeleteRelation, RenameAttribute
from repro.space.space import InformationSpace
from repro.sync.pipeline import StageCounters

FOLLOWERS = 5


def build_storm(config=None):
    """Six identical views over R, plus one over S; RM mirrors R."""
    eve = EVESystem(config=config or SystemConfig.fast())
    eve.add_source("IS0")
    eve.add_source("IS1")
    rows = [(key, key * 10) for key in range(1, 9)]
    for name, source in (("R", "IS0"), ("RM", "IS1"), ("S", "IS0")):
        eve.register_relation(
            source,
            Relation(Schema(name, ["A", "B"]), rows),
            RelationStatistics(cardinality=len(rows), tuple_size=100),
        )
    eve.mkb.add_equivalence("R", "RM", ["A", "B"])
    for index in range(FOLLOWERS + 1):
        eve.define_view(
            f"CREATE VIEW V{index} (VE = '~') AS "
            "SELECT R.A (AR = true), R.B (AD = true, AR = true) "
            "FROM R (RR = true) WHERE (R.A > 2) (CR = true)"
        )
    eve.define_view("CREATE VIEW W AS SELECT S.A, S.B FROM S")
    return eve


def recompute(eve, name):
    return evaluate_view(
        eve.vkb.current(name),
        eve.space.relations(),
        eve.space.mkb.statistics,
        config=eve.config.engine,
    )


def storm_views():
    return [f"V{index}" for index in range(FOLLOWERS + 1)]


class TestFollowerExtents:
    def test_followers_copy_the_leader_extent_exactly(self):
        eve = build_storm()
        eve.apply_changes([DeleteRelation("IS0", "R")])
        (schedule,) = eve.last_schedule
        assert schedule.coalesced == FOLLOWERS
        leader = eve.extent("V0")
        for name in storm_views():
            assert eve.is_alive(name)
            extent = eve.extent(name)
            fresh = recompute(eve, name)
            assert extent.schema == fresh.schema
            assert extent.schema.name == name
            assert extent.rows == fresh.rows
            if name != "V0":
                assert extent is not leader
                assert extent.rows is not leader.rows

    def test_followers_skip_evaluation(self, monkeypatch):
        eve = build_storm()
        calls = []
        original = EVESystem.finalize_view

        def spy(self, view_name, like=None):
            calls.append((view_name, like))
            return original(self, view_name, like=like)

        monkeypatch.setattr(EVESystem, "finalize_view", spy)
        evaluated = []
        real_evaluate = eve_module.evaluate_view

        def counting(view, *args, **kwargs):
            evaluated.append(view.name)
            return real_evaluate(view, *args, **kwargs)

        monkeypatch.setattr(eve_module, "evaluate_view", counting)
        eve.apply_changes([DeleteRelation("IS0", "R")])
        assert calls == [("V0", None)] + [
            (name, "V0") for name in storm_views()[1:]
        ]
        assert evaluated == ["V0"]

    def test_mismatched_definition_falls_back_to_evaluation(self):
        eve = build_storm()
        eve.apply_changes([DeleteRelation("IS0", "R")])
        # W shares no definition with V0: the guard must refuse the copy.
        eve.finalize_view("W", like="V0")
        assert eve.extent("W") == recompute(eve, "W")
        assert eve.extent("W").schema.name == "W"

    def test_leader_without_extent_falls_back_to_evaluation(self):
        eve = build_storm()
        eve.apply_changes([DeleteRelation("IS0", "R")])
        eve._extents.pop("V0")
        eve.finalize_view("V1", like="V0")
        assert eve.extent("V1").rows == recompute(eve, "V1").rows

    def test_updates_after_a_storm_keep_every_extent_exact(self):
        # Direct (non-serving) mode maintains extents in place: an alias
        # between a leader and a follower would apply each update twice.
        eve = build_storm()
        eve.apply_changes([DeleteRelation("IS0", "R")])
        eve.apply_updates(
            [
                ("RM", "insert", (20, 200)),
                ("RM", "delete", (3, 30)),
                ("RM", "insert", (21, 210)),
                ("RM", "insert", (1, 10)),
            ]
        )
        for name in storm_views():
            assert eve.extent(name) == recompute(eve, name)
        assert eve.extent("V3").cardinality == 7

    def test_serving_mode_followers_are_copies(self):
        eve = build_storm()
        eve.snapshot().release()
        eve.apply_changes([RenameAttribute("IS0", "R", "B", "C")])
        eve.apply_updates([("R", "insert", (30, 300))])
        extents = [eve.extent(name) for name in storm_views()]
        assert len({id(extent) for extent in extents}) == len(extents)
        for name in storm_views():
            assert eve.extent(name) == recompute(eve, name)


class TestDirectRelationLookup:
    def forbid_snapshots(self, monkeypatch):
        def refuse(self):
            raise AssertionError("materialization snapshotted the space")

        monkeypatch.setattr(InformationSpace, "relations", refuse)

    def test_define_and_apply_changes_never_snapshot(self, monkeypatch):
        eve = build_storm()
        self.forbid_snapshots(monkeypatch)
        eve.define_view("CREATE VIEW X AS SELECT S.A FROM S WHERE S.B > 20")
        eve.refresh("X")
        eve.apply_changes([DeleteRelation("IS0", "R")])
        assert eve.is_alive("V0")
        eve.explain("V0", analyze=True)
        assert eve.last_report.plans

    def test_unknown_relation_in_define_view(self):
        eve = build_storm()
        with pytest.raises(EvaluationError, match="'T' not available"):
            eve.define_view("CREATE VIEW X AS SELECT T.A FROM T")
        assert "X" not in eve.vkb

    def test_unknown_relation_in_refresh(self):
        eve = build_storm()
        eve.auto_synchronize = False
        eve.space.delete_relation("S")
        with pytest.raises(EvaluationError, match="'S' not available"):
            eve.refresh("W")


def legacy_counters_dict(counters):
    payload = dataclasses.asdict(counters)
    payload["seconds"] = round(payload["seconds"], 6)
    return payload


class TestReportSerialization:
    def test_report_bytes_match_the_asdict_form(self, monkeypatch):
        eve = build_storm()
        eve.apply_changes([DeleteRelation("IS0", "R")])
        report = eve.last_report
        assert any(
            record.counters is not None for record in report.synchronizations
        )
        fast = report.to_json()
        monkeypatch.setattr(
            report_module, "_counters_dict", legacy_counters_dict
        )
        assert report.to_json() == fast
        assert json.loads(fast) == report.to_dict()

    def test_schedule_counters_equal_a_fieldwise_fold(self):
        eve = build_storm()
        eve.apply_changes([DeleteRelation("IS0", "R")])
        (schedule,) = eve.last_schedule
        names = [field.name for field in dataclasses.fields(StageCounters)]
        expected = StageCounters()
        for result in schedule.results:
            if result.counters is not None:
                expected = StageCounters(
                    *(
                        getattr(expected, name) + getattr(result.counters, name)
                        for name in names
                    )
                )
        expected.deferred += len(schedule.deferred)
        assert schedule.counters == expected
        assert eve.last_report.counters == expected
