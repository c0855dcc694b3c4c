"""Unit tests for the Meta Knowledge Base."""

import pytest

from repro.errors import ConstraintError, UnknownRelationError
from repro.esql.parser import parse_condition_clause
from repro.misd.constraints import JoinConstraint, PCRelationship
from repro.misd.mkb import MetaKnowledgeBase
from repro.misd.statistics import RelationStatistics
from repro.relational.expressions import Condition
from repro.relational.schema import Schema


def cond(*texts):
    return Condition(parse_condition_clause(t) for t in texts)


@pytest.fixture
def mkb():
    base = MetaKnowledgeBase()
    base.register_relation(Schema("R", ["A", "B"]), "IS1")
    base.register_relation(Schema("S", ["A", "C"]), "IS2")
    base.register_relation(Schema("T", ["A", "D"]), "IS3")
    return base


class TestRegistration:
    def test_register_and_lookup(self, mkb):
        assert "R" in mkb
        assert mkb.owner("R") == "IS1"
        assert mkb.schema("R").attribute_names == ("A", "B")

    def test_duplicate_registration_rejected(self, mkb):
        with pytest.raises(ConstraintError):
            mkb.register_relation(Schema("R", ["X"]), "IS9")

    def test_register_with_statistics(self):
        base = MetaKnowledgeBase()
        base.register_relation(
            Schema("R", ["A"]), "IS1", RelationStatistics(cardinality=99)
        )
        assert base.statistics.cardinality("R") == 99

    def test_relations_of_source(self, mkb):
        assert mkb.relations_of_source("IS1") == ("R",)

    def test_unknown_relation(self, mkb):
        with pytest.raises(UnknownRelationError):
            mkb.schema("Z")

    def test_type_constraints_derived_from_schema(self, mkb):
        tcs = mkb.type_constraints("R")
        assert [tc.attribute for tc in tcs] == ["A", "B"]


class TestJoinConstraints:
    def test_add_and_query(self, mkb):
        mkb.add_join_constraint(JoinConstraint("R", "S", cond("R.A = S.A")))
        assert len(mkb.join_constraints()) == 1
        assert len(mkb.join_constraints("R")) == 1
        assert mkb.join_constraints("T") == ()
        assert mkb.join_partners("R") == ("S",)

    def test_between(self, mkb):
        mkb.add_join_constraint(JoinConstraint("R", "S", cond("R.A = S.A")))
        assert mkb.join_constraint_between("S", "R") is not None
        assert mkb.join_constraint_between("R", "T") is None

    def test_unknown_attribute_rejected(self, mkb):
        with pytest.raises(Exception):
            mkb.add_join_constraint(
                JoinConstraint("R", "S", cond("R.Z = S.A"))
            )

    def test_unknown_relation_rejected(self, mkb):
        with pytest.raises(UnknownRelationError):
            mkb.add_join_constraint(JoinConstraint("R", "Z", cond("R.A = Z.A")))


class TestPCConstraints:
    def test_add_equivalence_helper(self, mkb):
        pc = mkb.add_equivalence("R", "S", ["A"])
        assert pc.relationship is PCRelationship.EQUIVALENT
        assert len(mkb.pc_constraints("R")) == 1

    def test_add_containment_defaults_to_common_attributes(self, mkb):
        pc = mkb.add_containment("R", "S")
        assert pc.left.attributes == ("A",)

    def test_no_common_attributes_rejected(self):
        base = MetaKnowledgeBase()
        base.register_relation(Schema("R", ["A"]), "IS1")
        base.register_relation(Schema("S", ["B"]), "IS2")
        with pytest.raises(ConstraintError):
            base.add_containment("R", "S")

    def test_pc_constraints_from_orients(self, mkb):
        mkb.add_containment("R", "S", ["A"])
        oriented = mkb.pc_constraints_from("S")
        assert oriented[0].left.relation == "S"
        assert oriented[0].relationship is PCRelationship.SUPERSET

    def test_substitute_candidates_filters_coverage(self, mkb):
        mkb.add_containment("R", "S", ["A"])
        assert len(mkb.substitute_candidates("R", ["A"])) == 1
        assert mkb.substitute_candidates("R", ["A", "B"]) == ()

    def test_pc_constraint_between(self, mkb):
        mkb.add_containment("R", "S", ["A"])
        oriented = mkb.pc_constraint_between("S", "R")
        assert oriented is not None
        assert oriented.left.relation == "S"
        assert mkb.pc_constraint_between("R", "T") is None


class TestConsistency:
    def test_clean_mkb_is_consistent(self, mkb):
        mkb.add_join_constraint(JoinConstraint("R", "S", cond("R.A = S.A")))
        mkb.add_containment("R", "S", ["A"])
        assert mkb.check_consistency() == []

    def test_dangling_constraints_reported(self, mkb):
        # Bypass the evolution hooks to forge an inconsistent state.
        mkb.add_join_constraint(JoinConstraint("R", "S", cond("R.A = S.A")))
        mkb.add_containment("R", "S", ["A"])
        del mkb._schemas["S"]
        problems = mkb.check_consistency()
        assert len(problems) == 2


class TestEvolution:
    def test_relation_delete_retires_constraints(self, mkb):
        mkb.add_join_constraint(JoinConstraint("R", "S", cond("R.A = S.A")))
        mkb.add_containment("R", "S", ["A"])
        mkb.on_relation_deleted("R")
        assert "R" not in mkb
        assert mkb.join_constraints() == ()
        assert mkb.pc_constraints() == ()
        # ... but the knowledge is retained for synchronization:
        assert len(mkb.sync_pc_constraints("R")) == 1
        assert len(mkb.sync_join_constraints("R")) == 1
        assert mkb.historical_schema("R").attribute_names == ("A", "B")

    def test_statistics_survive_deletion(self, mkb):
        mkb.statistics.register_simple("R", 1234)
        mkb.on_relation_deleted("R")
        assert mkb.statistics.cardinality("R") == 1234

    def test_replacement_candidates_require_live_donor(self, mkb):
        mkb.add_containment("R", "S", ["A"])
        mkb.add_containment("R", "T", ["A"])
        mkb.on_relation_deleted("R")
        mkb.on_relation_deleted("T")
        candidates = mkb.replacement_candidates("R", ["A"])
        assert [pc.right.relation for pc in candidates] == ["S"]

    def test_relation_rename_rewrites_constraints(self, mkb):
        mkb.add_join_constraint(JoinConstraint("R", "S", cond("R.A = S.A")))
        mkb.add_containment("R", "S", ["A"])
        mkb.statistics.register_simple("R", 55)
        mkb.on_relation_renamed("R", "R2")
        assert "R2" in mkb and "R" not in mkb
        jc = mkb.join_constraints("R2")[0]
        assert "R2.A" in str(jc.condition)
        pc = mkb.pc_constraints("R2")[0]
        assert pc.left.relation == "R2"
        assert mkb.statistics.cardinality("R2") == 55
        assert mkb.check_consistency() == []

    def test_rename_collision_rejected(self, mkb):
        with pytest.raises(ConstraintError):
            mkb.on_relation_renamed("R", "S")

    def test_attribute_delete_shrinks_schema_and_retires(self, mkb):
        mkb.add_join_constraint(JoinConstraint("R", "S", cond("R.A = S.A")))
        mkb.add_containment("R", "S", ["A"])
        mkb.on_attribute_deleted("R", "A")
        assert mkb.schema("R").attribute_names == ("B",)
        assert mkb.join_constraints() == ()
        assert mkb.pc_constraints() == ()
        assert len(mkb.sync_pc_constraints("R")) == 1
        # Historical schema still knows A.
        assert "A" in mkb.historical_schema("R")

    def test_attribute_delete_keeps_unrelated_constraints(self, mkb):
        mkb.add_containment("R", "S", ["A"])
        mkb.on_attribute_deleted("R", "B")
        assert len(mkb.pc_constraints()) == 1

    def test_attribute_rename_rewrites_constraints(self, mkb):
        mkb.add_join_constraint(JoinConstraint("R", "S", cond("R.A = S.A")))
        mkb.add_containment("R", "S", ["A"])
        mkb.on_attribute_renamed("R", "A", "A2")
        assert mkb.schema("R").attribute_names == ("A2", "B")
        assert "R.A2" in str(mkb.join_constraints("R")[0].condition)
        assert mkb.pc_constraints("R")[0].left.attributes == ("A2",)
        assert mkb.check_consistency() == []

    def test_attribute_rename_of_unconstrained_relation(self, mkb):
        mkb.add_containment("R", "S", ["A"])
        constraints = mkb.pc_constraints()
        version = mkb.version
        mkb.on_attribute_renamed("T", "D", "D2")
        assert mkb.version == version + 1
        assert mkb.schema("T").attribute_names == ("A", "D2")
        assert mkb.historical_schema("T").attribute_names == ("A", "D2", "D")
        assert mkb.pc_constraints() == constraints

    def test_attribute_rename_after_relation_rename(self, mkb):
        mkb.add_containment("R", "S", ["A"])
        mkb.on_relation_deleted("S")  # retires the constraint
        mkb.on_relation_renamed("R", "R2")
        mkb.on_attribute_renamed("R2", "A", "A2")
        (pc,) = mkb.sync_pc_constraints("R2")
        assert pc.left.relation == "R2"
        assert pc.left.attributes == ("A2",)

    def test_snapshots_merge_in_first_seen_order(self, mkb):
        mkb.on_attribute_renamed("R", "A", "A2")
        mkb.on_attribute_deleted("R", "B")
        mkb.on_attribute_renamed("R", "A2", "A3")
        assert mkb.schema("R").attribute_names == ("A3",)
        assert mkb.historical_schema("R").attribute_names == (
            "A3", "A2", "B", "A",
        )

    def test_historical_schema_unknown(self, mkb):
        with pytest.raises(UnknownRelationError):
            mkb.historical_schema("Zzz")
