"""Maintenance-context parity under interleaved updates and changes.

``EVESystem`` reuses one compiled maintenance context per view across
update flushes and recompiles it only when the view's definition, or a
referenced relation's schema or owner, changes.  This suite interleaves
``apply_updates`` with ``apply_changes`` (attribute renames and
additions, relation renames, deletions of relations that have a donor)
over overlapping join views and checks, after every call, that the
fast profile and a ``SystemConfig.reference()`` replay agree on view
definitions, extents, the modeled CF_M/CF_T/CF_IO counters, and the
maintenance itineraries captured in ``last_report`` — and that every
captured itinerary equals one derived from scratch for the live space.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.core.eve import EVESystem
from repro.esql import explain as explain_plans
from repro.misd.statistics import RelationStatistics
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema
from repro.space.changes import (
    AddAttribute,
    DeleteRelation,
    RenameAttribute,
    RenameRelation,
)
from repro.space.space import InformationSpace

#: Base relations (source, name, attributes); each has an equivalent
#: donor ``Z<name>`` at IS4, so deleting it leaves a replacement.
BASES = (
    ("IS1", "R", ("A", "B")),
    ("IS2", "S", ("A", "C")),
    ("IS3", "T", ("A", "D")),
)
VIEWS = (
    "CREATE VIEW V1 AS SELECT R.A, R.B, S.C FROM R, S WHERE R.A = S.A",
    "CREATE VIEW V2 AS SELECT S.A, T.D FROM S, T "
    "WHERE S.A = T.A AND T.D > 1",
    "CREATE VIEW V3 AS SELECT R.B, T.D FROM R, T "
    "WHERE R.A = T.A AND R.B < 4",
)

ROWS = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 5)), min_size=1, max_size=4
)
UPDATE = st.tuples(
    st.integers(0, 5),  # relation pick among live relations
    st.sampled_from(["insert", "delete"]),
    st.integers(0, 7),  # row seed
)
CHANGE = st.tuples(
    st.sampled_from(["rename_attr", "add_attr", "rename_rel", "delete_rel"]),
    st.integers(0, 5),
)
STEP = st.one_of(
    st.tuples(st.just("updates"), st.lists(UPDATE, min_size=1, max_size=6)),
    st.tuples(st.just("change"), CHANGE),
)


def build_eve(tables, config):
    space = InformationSpace()
    for source in ("IS1", "IS2", "IS3", "IS4"):
        space.add_source(source)
    for (source, name, attributes), rows in zip(BASES, tables):
        for host, relation in ((source, name), ("IS4", f"Z{name}")):
            space.register_relation(
                host,
                Relation(Schema(relation, attributes), rows),
                RelationStatistics(cardinality=len(rows)),
            )
        space.mkb.add_equivalence(name, f"Z{name}", attributes)
    eve = EVESystem(space=space, config=config)
    for text in VIEWS:
        eve.define_view(text)
    return eve


def concrete_updates(eve, picks):
    """Map abstract picks onto the live relations and rows of ``eve``."""
    relations = eve.space.relations()
    names = sorted(relations)
    live = {name: sorted(relations[name].rows) for name in names}
    stream = []
    for pick, kind, seed in picks:
        name = names[pick % len(names)]
        rows = live[name]
        if kind == "delete" and rows:
            stream.append((name, kind, rows.pop(seed % len(rows))))
        else:
            arity = relations[name].schema.arity
            row = tuple((seed + position) % 4 for position in range(arity))
            rows.append(row)
            stream.append((name, "insert", row))
    return stream


def concrete_change(eve, kind, pick, step):
    names = sorted(eve.space.relations())
    if kind == "delete_rel":
        names = [name for name in names if not name.startswith("Z")]
        if not names:
            return None
    name = names[pick % len(names)]
    source = eve.space.owner_of(name).name
    schema = eve.space.relation(name).schema
    if kind == "rename_attr":
        attribute = schema.attribute_names[pick % schema.arity]
        return RenameAttribute(source, name, attribute, f"{attribute}x{step}")
    if kind == "add_attr":
        return AddAttribute(source, name, Attribute(f"N{step}"), 0)
    if kind == "rename_rel":
        return RenameRelation(source, name, f"{name}x{step}")
    return DeleteRelation(source, name)


def itinerary(plan):
    """A captured maintenance plan without its configuration fields
    (the reference plane runs the dict representation, without index
    probes)."""
    return {
        "view": plan["view"],
        "relation": plan["relation"],
        "sources": plan["sources"],
        "steps": [
            (step["position"], step["source"], step["relation"])
            for step in plan["steps"]
        ],
        "estimated": plan["estimated"],
        "actual": plan["actual"],
    }


def state(eve):
    return (
        [(r.name, r.alive, r.current) for r in eve.vkb],
        {
            record.name: sorted(eve.extent(record.name).rows)
            for record in eve.vkb
            if record.alive
        },
        eve.maintainer.counters.snapshot(),
    )


def assert_plans_derived_afresh(eve):
    for plan in eve.last_report.plans:
        view = eve.vkb.current(plan["view"])
        names = view.relation_names
        fresh = explain_plans.explain_maintenance(
            view,
            {name: eve.space.owner_of(name).name for name in names},
            {name: eve.space.relation(name).schema for name in names},
            plan["relation"],
            config=eve.config.maintenance,
            actual=plan["actual"],
        )
        assert plan == fresh.to_dict()


@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    tables=st.tuples(ROWS, ROWS, ROWS),
    steps=st.lists(STEP, min_size=1, max_size=8),
)
def test_contexts_match_reference_replay(tables, steps):
    fast = build_eve(tables, SystemConfig.fast())
    reference = build_eve(tables, SystemConfig.reference())
    for number, (kind, payload) in enumerate(steps):
        if kind == "updates":
            stream = concrete_updates(reference, payload)
            charged = fast.apply_updates(stream)
            expected = reference.apply_updates(stream)
            assert charged == expected
            assert [itinerary(p) for p in fast.last_report.plans] == [
                itinerary(p) for p in reference.last_report.plans
            ]
            assert_plans_derived_afresh(fast)
        else:
            change = concrete_change(reference, *payload, number)
            if change is None:
                continue
            fast.apply_changes([change])
            reference.apply_changes([change])
        assert state(fast) == state(reference)
