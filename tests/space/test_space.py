"""Unit tests for the information space (registration, fan-out, changes)."""

import pytest

from repro.errors import ConstraintError, UnknownRelationError, WorkspaceError
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema
from repro.space.changes import AddAttribute, AddRelation, DeleteRelation
from repro.space.space import InformationSpace


@pytest.fixture
def space():
    sp = InformationSpace()
    sp.add_source("IS1")
    sp.add_source("IS2")
    sp.register_relation("IS1", Relation(Schema("R", ["A", "B"]), [(1, 2)]))
    sp.register_relation("IS2", Relation(Schema("S", ["A", "C"]), [(1, 3)]))
    return sp


class TestRegistration:
    def test_duplicate_source_rejected(self, space):
        with pytest.raises(WorkspaceError):
            space.add_source("IS1")

    def test_registration_fills_mkb(self, space):
        assert "R" in space.mkb
        assert space.mkb.owner("R") == "IS1"

    def test_owner_of(self, space):
        assert space.owner_of("S").name == "IS2"
        with pytest.raises(UnknownRelationError):
            space.owner_of("Z")

    def test_rejected_duplicate_is_not_offered(self, space):
        with pytest.raises(ConstraintError):
            space.register_relation(
                "IS2", Relation(Schema("R", ["A", "B"]), [(9, 9)])
            )
        assert not space.source("IS2").offers("R")
        assert space.relation("R") is space.relations()["R"]
        assert space.relation("R").rows == [(1, 2)]
        assert space.owner_of("R").name == "IS1"
        assert space.mkb.owner("R") == "IS1"

    def test_relations_snapshot(self, space):
        assert set(space.relations()) == {"R", "S"}

    def test_has_relation(self, space):
        assert space.has_relation("R")
        assert not space.has_relation("Z")


class TestDataUpdates:
    def test_insert_routes_and_notifies(self, space):
        received = []
        space.on_data_update(received.append)
        update = space.insert("R", (5, 6))
        assert space.relation("R").cardinality == 2
        assert received == [update]

    def test_delete_routes_and_notifies(self, space):
        received = []
        space.on_data_update(received.append)
        space.delete("R", (1, 2))
        assert space.relation("R").cardinality == 0
        assert len(received) == 1


class TestCapabilityChanges:
    def test_delete_relation_updates_source_and_mkb(self, space):
        received = []
        space.on_capability_change(received.append)
        change = space.delete_relation("R")
        assert not space.has_relation("R")
        assert "R" not in space.mkb
        assert received == [change]

    def test_delete_unknown_relation(self, space):
        with pytest.raises(UnknownRelationError):
            space.apply_change(DeleteRelation("IS1", "Zzz"))

    def test_delete_attribute(self, space):
        space.delete_attribute("R", "A")
        assert space.relation("R").schema.attribute_names == ("B",)
        assert space.mkb.schema("R").attribute_names == ("B",)

    def test_rename_relation(self, space):
        space.rename_relation("R", "R2")
        assert space.has_relation("R2")
        assert not space.has_relation("R")
        assert space.owner_of("R2").name == "IS1"
        assert "R2" in space.mkb and "R" not in space.mkb

    def test_rename_attribute(self, space):
        space.rename_attribute("R", "A", "A2")
        assert space.relation("R").schema.attribute_names == ("A2", "B")
        assert space.mkb.schema("R").attribute_names == ("A2", "B")

    def test_add_relation(self, space):
        new = Relation(Schema("T", ["X"]), [(1,)])
        space.apply_change(AddRelation("IS1", "T", new))
        assert space.has_relation("T")
        assert space.relation("T") is new
        assert space.mkb.owner("T") == "IS1"

    def test_rejected_add_relation_is_not_offered(self, space):
        duplicate = Relation(Schema("R", ["A", "B"]), [(9, 9)])
        with pytest.raises(ConstraintError):
            space.apply_change(AddRelation("IS2", "R", duplicate))
        assert not space.source("IS2").offers("R")
        assert space.relations()["R"] is space.relation("R")
        assert space.relation("R").rows == [(1, 2)]

    def test_add_attribute(self, space):
        space.apply_change(
            AddAttribute("IS1", "R", new_attribute=Attribute("D"), default=0)
        )
        assert space.relation("R").rows == [(1, 2, 0)]
        assert "D" in space.mkb.schema("R")

    def test_listener_sees_post_change_state(self, space):
        observed = {}

        def listener(change):
            observed["has_r"] = space.has_relation("R")

        space.on_capability_change(listener)
        space.delete_relation("R")
        assert observed["has_r"] is False

    def test_mkb_consistency_preserved_across_changes(self, space):
        space.mkb.add_containment("R", "S", ["A"])
        space.delete_attribute("R", "A")
        space.rename_relation("S", "S2")
        assert space.mkb.check_consistency() == []
