"""Seeded input generation for the end-to-end benchmark.

Everything the benchmark feeds the system is built here from ``--seed``
alone: relation rows, E-SQL view text, capability-change batches and
data-update streams.  The generator deliberately does not use
``repro.workloadgen``, so editing the library's scenario builders can
never change what the benchmark measures.  Inputs are plain data (rows
as tuples, views as text, changes as frozen ``SchemaChange`` records);
:func:`build_system` turns them into a fresh ``EVESystem`` through the
public constructors, so every set-up and the reference replay start
from identical, unshared objects.  :func:`digest` fingerprints a spec
byte for byte, which is how determinism per seed is checked.
"""

from __future__ import annotations

import hashlib
import random
from collections.abc import Callable
from dataclasses import dataclass, field

from repro import EVESystem, SystemConfig
from repro.misd.statistics import RelationStatistics
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.space.changes import DeleteRelation, RenameAttribute, SchemaChange

TUPLE_SIZE = 100
#: :func:`build_system` calls its ``between`` hook every this many views.
VIEWS_BETWEEN = 50

# evolve: containment donors per base relation, changes of each kind
# per batch, rows per base relation, and sources.
EVOLVE_DONORS = 3
EVOLVE_DELETES_PER_BATCH = 1
EVOLVE_RENAMES_PER_BATCH = 1
EVOLVE_ROWS = 24
EVOLVE_SOURCES = 8
# maintain: updates per batch, the share of them on R, and the share
# of inserts.
MAINTAIN_BATCH_SIZE = 10
MAINTAIN_HOT_SHARE = 0.85
MAINTAIN_INSERT_SHARE = 0.55
# serve_mixed: rows per base relation, open-loop rates (per second),
# updates per update batch, and sources.
SERVE_ROWS = 100
SERVE_READ_RATE = 400.0
SERVE_UPDATE_RATE = 10.0
SERVE_UPDATE_SIZE = 4
SERVE_CHANGE_RATE = 2.0
SERVE_SOURCES = 6


@dataclass(frozen=True)
class RelationSpec:
    source: str
    name: str
    attributes: tuple[str, ...]
    rows: tuple[tuple[int, ...], ...]


@dataclass
class Spec:
    """One workload's complete, seeded input."""

    workload: str
    seed: int
    sources: tuple[str, ...]
    relations: tuple[RelationSpec, ...]
    #: (inner, outer, attributes) containment constraints.
    containments: tuple[tuple[str, str, tuple[str, ...]], ...]
    views: tuple[str, ...]
    #: Timed-phase operations in order: ("changes", [SchemaChange, ...])
    #: or ("updates", [(relation, kind, row), ...]).
    ops: tuple[tuple[str, tuple], ...]
    #: Workload-specific scalars (rates, sizes) recorded with the run.
    params: dict = field(default_factory=dict)


def digest(spec: Spec) -> str:
    """SHA-256 over the spec's canonical text: equal iff byte-identical."""
    text = repr(
        (
            spec.workload, spec.seed, spec.sources, spec.relations,
            spec.containments, spec.views, spec.ops,
            sorted(spec.params.items()),
        )
    )
    return hashlib.sha256(text.encode()).hexdigest()


def build_system(
    spec: Spec, config: SystemConfig, between: Callable[[], None] | None = None
) -> EVESystem:
    """A fresh system holding the spec's relations, constraints and views.

    This is the set-up that ``setup_s`` times: construction,
    registration, and parsing, validating and materializing every view.
    ``between``, if given, is called before every ``VIEWS_BETWEEN``-th
    view (the benchmark takes calibration samples there).
    """
    eve = EVESystem(config=config)
    for source in spec.sources:
        eve.add_source(source)
    for relation in spec.relations:
        eve.register_relation(
            relation.source,
            Relation(Schema(relation.name, relation.attributes), relation.rows),
            RelationStatistics(
                cardinality=max(len(relation.rows), 1), tuple_size=TUPLE_SIZE
            ),
        )
    for inner, outer, attributes in spec.containments:
        eve.mkb.add_containment(inner, outer, attributes)
    for index, text in enumerate(spec.views):
        if between is not None and index % VIEWS_BETWEEN == 0:
            between()
        eve.define_view(text)
    return eve


# ----------------------------------------------------------------------
# evolve: a capability-change storm over a highly shared view population
# ----------------------------------------------------------------------
def evolve_spec(
    seed: int,
    relations: int = 110,
    views_per_relation: int = 50,
    spare: int = 20,
    batches: int = 100,
    churn_per_batch: int = 6,
) -> Spec:
    """Single-relation views, ``views_per_relation`` identical ones per
    base relation, each base relation backed by ``EVOLVE_DONORS``
    containment donors; every batch mixes replacement deletes, renames
    of viewed attributes, and attribute churn on relations no view
    uses."""
    rng = random.Random(seed)
    rows = EVOLVE_ROWS
    source_names = tuple(f"IS{i}" for i in range(EVOLVE_SOURCES))
    attributes = ("A0", "A1", "A2")
    specs: list[RelationSpec] = []
    containments = []
    views: list[str] = []
    owner: dict[str, str] = {}

    def add(name: str, slot: int, body: list[tuple[int, ...]]) -> None:
        owner[name] = source_names[slot % len(source_names)]
        specs.append(RelationSpec(owner[name], name, attributes, tuple(body)))

    base_names = [f"Rel{i}" for i in range(relations)]
    for index, name in enumerate(base_names):
        body = [
            tuple(rng.randrange(100) for _ in attributes) for _ in range(rows)
        ]
        add(name, index, body)
        for d in range(EVOLVE_DONORS):
            extra = [
                tuple(rng.randrange(100) for _ in attributes)
                for _ in range(rng.randrange(1, rows // 2) + d * 4)
            ]
            donor = f"Don{index}_{d}"
            add(donor, index + d + 1, body + extra)
            containments.append((name, donor, attributes))
        # Views over one relation are structurally identical (the
        # coalescing case).  Every relation's views share one shape and
        # differ only in the selection constant, so every batch does the
        # same kind of work and batch latency has a single mode.
        where = f"({name}.A2 > {rng.randrange(40)}) (CR = true)"
        for k in range(views_per_relation):
            views.append(
                f"CREATE VIEW E{index}_{k} (VE = '~') AS SELECT "
                f"{name}.A0 (AD = true, AR = true), "
                f"{name}.A1 (AD = true, AR = true) "
                f"FROM {name} (RR = true) WHERE {where}"
            )
    spare_names = [f"Spare{i}" for i in range(spare)]
    for index, name in enumerate(spare_names):
        add(name, index + relations, [])

    deletable = list(base_names)
    rng.shuffle(deletable)
    deleted: set[str] = set()
    current: dict[str, list[str]] = {}

    def rename(relation: str, position: int, step: str) -> SchemaChange:
        names = current.setdefault(relation, list(attributes))
        old = names[position]
        names[position] = f"{old[0]}{step}"
        return RenameAttribute(owner[relation], relation, old, names[position])

    ops = []
    for b in range(batches):
        batch: list[SchemaChange] = []
        doomed = [deletable.pop() for _ in range(EVOLVE_DELETES_PER_BATCH)]
        live = [name for name in base_names if name not in deleted]
        live = [name for name in live if name not in doomed]
        # Distinct relations per batch, so the shuffle below can never
        # reorder two renames of one attribute chain.
        for r, relation in enumerate(rng.sample(live, EVOLVE_RENAMES_PER_BATCH)):
            batch.append(rename(relation, rng.randrange(2), f"{b}x{r}"))
        for c, relation in enumerate(rng.sample(spare_names, churn_per_batch)):
            batch.append(rename(relation, rng.randrange(3), f"{b}z{c}"))
        for relation in doomed:
            batch.append(DeleteRelation(owner[relation], relation))
            deleted.add(relation)
        rng.shuffle(batch)
        ops.append(("changes", tuple(batch)))
    return Spec(
        "evolve", seed, source_names, tuple(specs), tuple(containments),
        tuple(views), tuple(ops),
        {"relations": relations, "views": len(views),
         "donors": EVOLVE_DONORS, "batches": batches},
    )


# ----------------------------------------------------------------------
# maintain: a data-update stream against overlapping multi-site joins
# ----------------------------------------------------------------------
def maintain_spec(
    seed: int,
    batches: int = 1000,
    keys: int = 100,
) -> Spec:
    """Five overlapping two-way join views over four sources;
    ``MAINTAIN_HOT_SHARE`` of the updates land on ``R``, the rest on the other
    joined relations (forcing join-graph boundary flushes), as mixed
    inserts and deletes of live rows."""
    rng = random.Random(seed)
    layout = (("IS1", "R", ("A", "B")), ("IS2", "S", ("A", "C")),
              ("IS3", "T", ("A", "D")), ("IS4", "U", ("A", "E")))
    live: dict[str, list[tuple[int, int]]] = {}
    relations = []
    for source, name, attributes in layout:
        if name == "R":
            rows = [(rng.randrange(keys), rng.randrange(-50, 1000))
                    for _ in range(keys)]
        else:
            rows = [(a, rng.randrange(2 * keys)) for a in range(keys)]
        live[name] = list(rows)
        relations.append(RelationSpec(source, name, attributes, tuple(rows)))
    # Two-way joins keep the reference plane's nested-loop replay
    # affordable; R is joined by three views, every other relation by two.
    views = (
        "CREATE VIEW M0 AS SELECT R.B, S.C FROM R, S "
        "WHERE R.A = S.A AND R.B >= 0",
        f"CREATE VIEW M1 AS SELECT R.A, R.B, T.D FROM R, T "
        f"WHERE R.A = T.A AND T.D < {keys}",
        "CREATE VIEW M2 AS SELECT R.A, U.E FROM R, U "
        "WHERE R.A = U.A AND R.B < 500",
        f"CREATE VIEW M3 AS SELECT S.C, T.D FROM S, T "
        f"WHERE S.A = T.A AND S.C > {keys // 2}",
        "CREATE VIEW M4 AS SELECT T.A, U.E FROM T, U WHERE T.A = U.A",
    )
    cold = ("S", "T", "U")
    ops = []
    for _ in range(batches):
        batch = []
        for _ in range(MAINTAIN_BATCH_SIZE):
            name = "R" if rng.random() < MAINTAIN_HOT_SHARE else rng.choice(cold)
            rows = live[name]
            if rows and rng.random() >= MAINTAIN_INSERT_SHARE:
                index = rng.randrange(len(rows))
                rows[index], rows[-1] = rows[-1], rows[index]
                batch.append((name, "delete", rows.pop()))
                continue
            if name == "R":
                row = (rng.randrange(keys), rng.randrange(-50, 1000))
            else:
                row = (rng.randrange(keys), rng.randrange(2 * keys))
            rows.append(row)
            batch.append((name, "insert", row))
        ops.append(("updates", tuple(batch)))
    return Spec(
        "maintain", seed, tuple(s for s, _, _ in layout), tuple(relations),
        (), views, tuple(ops),
        {"batches": batches, "batch_size": MAINTAIN_BATCH_SIZE, "keys": keys},
    )


# ----------------------------------------------------------------------
# serve_mixed: paced reads beside paced writes on the serving plane
# ----------------------------------------------------------------------
def serve_spec(
    seed: int,
    seconds: float,
    views: int = 200,
) -> Spec:
    """Structurally distinct two-way join views over base relations of
    ``SERVE_ROWS`` rows, each base relation backed by one containment
    donor.

    The timed phase is an open loop: reads arrive at random at
    ``SERVE_READ_RATE`` per second (``params["reads"]`` lists their
    targets, ``params["read_due"]`` their due offsets), update batches
    every ``1/SERVE_UPDATE_RATE`` s and change batches every
    ``1/SERVE_CHANGE_RATE`` s;
    ``ops`` holds the writes in due order with ``params["write_due"]``
    their due offsets.  Change batches alternate between renaming a
    viewed attribute and deleting a base relation (each view over it is
    searched separately and rematerialized as a join); updates after a
    delete go to the donor that replaced it.
    """
    rng = random.Random(seed)
    rows = SERVE_ROWS
    read_rate, update_rate = SERVE_READ_RATE, SERVE_UPDATE_RATE
    change_rate = SERVE_CHANGE_RATE
    n_changes = int(seconds * change_rate)
    relation_count = max(40, n_changes + 20)
    source_names = tuple(f"IS{i}" for i in range(SERVE_SOURCES))
    attributes = ("K", "A", "B", "C")
    relations = []
    containments = []
    live: dict[str, list[tuple[int, ...]]] = {}
    owner: dict[str, str] = {}
    base = [f"T{i}" for i in range(relation_count)]
    for index, name in enumerate(base):
        body = [(rng.randrange(rows), rng.randrange(1000), rng.randrange(1000),
                 rng.randrange(1000)) for _ in range(rows)]
        donor = f"D{index}"
        extra = [(rng.randrange(rows), rng.randrange(1000), rng.randrange(1000),
                  rng.randrange(1000)) for _ in range(rows // 10)]
        for slot, (rel, data) in enumerate(((name, body), (donor, body + extra))):
            owner[rel] = source_names[(index + slot) % len(source_names)]
            live[rel] = list(data)
            relations.append(RelationSpec(owner[rel], rel, attributes, tuple(data)))
        containments.append((name, donor, attributes))
    # Every base relation is the left side of the same number of views
    # and the right side of the same number, so the cost of an update
    # does not hinge on which relation the seed happens to favour.
    view_texts = []
    for v in range(views):
        left = base[v % relation_count]
        right = base[(v + 1 + v // relation_count) % relation_count]
        view_texts.append(
            f"CREATE VIEW J{v} (VE = '~') AS SELECT {left}.A (AD = true, AR = true), "
            f"{right}.B (AD = true, AR = true), {left}.K (AR = true) "
            f"FROM {left} (RR = true), {right} (RR = true) "
            f"WHERE ({left}.K = {right}.K) (CR = true) "
            f"AND ({left}.A > {v}) (CR = true)"
        )

    # Writes arrive on a fixed period, so every seed loads the writer
    # the same way; reads arrive at random (uniform order statistics
    # over the run, a Poisson process conditioned on its count), so they
    # sample the writer's busy periods evenly instead of locking in
    # phase with them or with the interpreter's switch interval.
    due: list[tuple[float, int, str]] = []
    due += [(k / update_rate, 1, "updates") for k in range(int(seconds * update_rate))]
    due += [((m + 0.5) / change_rate, 0, "changes") for m in range(n_changes)]
    due.sort()
    doomed = list(base)
    rng.shuffle(doomed)
    target = {name: name for name in base}  # base relation -> live stand-in
    current = {name: list(attributes) for name in base}
    ops = []
    changes = 0
    for step, (_, _, kind) in enumerate(due):
        if kind == "changes":
            changes += 1
            if changes % 2 == 0:
                victim = doomed.pop()
                target[victim] = f"D{victim[1:]}"
                ops.append(("changes", (DeleteRelation(owner[victim], victim),)))
            else:
                relation = rng.choice([n for n in base if target[n] == n])
                old = current[relation][1]
                current[relation][1] = f"A{step}"
                ops.append(("changes", (RenameAttribute(
                    owner[relation], relation, old, f"A{step}"),)))
            continue
        batch = []
        for _ in range(SERVE_UPDATE_SIZE):
            relation = target[rng.choice(base)]
            rows_of = live[relation]
            if rows_of and rng.random() < 0.5:
                index = rng.randrange(len(rows_of))
                rows_of[index], rows_of[-1] = rows_of[-1], rows_of[index]
                batch.append((relation, "delete", rows_of.pop()))
            else:
                row = (rng.randrange(rows), rng.randrange(1000),
                       rng.randrange(1000), rng.randrange(1000))
                rows_of.append(row)
                batch.append((relation, "insert", row))
        ops.append(("updates", tuple(batch)))
    reads = tuple(f"J{rng.randrange(views)}" for _ in range(int(seconds * read_rate)))
    read_due = tuple(sorted(rng.uniform(0.0, seconds) for _ in reads))
    return Spec(
        "serve_mixed", seed, source_names, tuple(relations), tuple(containments),
        tuple(view_texts), tuple(ops),
        {"read_rate": read_rate, "update_rate": update_rate,
         "change_rate": change_rate, "seconds": seconds, "views": views,
         "reads": reads, "read_due": read_due,
         "write_due": tuple(d for d, _, _ in due)},
    )
