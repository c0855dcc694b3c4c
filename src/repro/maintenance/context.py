"""One view's compiled maintenance state, derived once and reused.

Algorithm 1 (Sec. 6.1) and the Appendix A cost model fix one itinerary
per (view, updated relation).  It changes only when the view's
definition, or the schema or owner of a relation the view joins,
changes — never with the data.  A :class:`MaintenanceContext` holds
what follows from those inputs alone:

* the resolved (fully qualified, type-checked) definition,
* the :class:`~repro.qc.cost.MaintenancePlan` per updated relation,
* the static EXPLAIN itinerary per updated relation,
* the compiled seed filter per updated relation,
* the WHERE clauses grouped by the relations they touch (the join-graph
  edges of :meth:`~repro.core.eve.EVESystem.apply_updates`' boundary
  test).

Everything is built lazily on first use.  :meth:`MaintenanceContext.is_current`
decides reuse by object identity alone: the stored definition must *be*
the view's current definition, and every referenced relation must still
be offered by the same source object under the same (immutable)
:class:`~repro.relational.schema.Schema` object.  Capability changes
replace schemas and relations rather than mutating them, so identity
catches every change that could alter the derived state, and a change
to an unrelated relation leaves the context alone.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

from repro.errors import UnknownRelationError
from repro.esql.ast import ViewDefinition
from repro.esql.explain import MaintenanceExplain, maintenance_itinerary
from repro.esql.validate import ViewValidator
from repro.qc.cost import MaintenancePlan, plan_for_view
from repro.relational.expressions import Condition, PrimitiveClause
from repro.relational.schema import Schema
from repro.maintenance.delta import SeedPlan, seed_plan

if TYPE_CHECKING:
    from repro.config import MaintenanceConfig
    from repro.space.source import InformationSource
    from repro.space.space import InformationSpace


class MaintenanceContext:
    """Resolved definition, plans, itineraries and clause groups of one
    view, valid while :meth:`is_current` holds.

    Build one with :meth:`~repro.maintenance.simulator.ViewMaintainer.compile`.
    A relation the space no longer offers is recorded as missing; the
    members that need it raise the same ``UnknownRelationError`` a fresh
    resolution would, so a stale view fails exactly as it did uncompiled.
    """

    __slots__ = (
        "definition",
        "relations",
        "_space",
        "_config",
        "_hosts",
        "_schemas",
        "_resolved",
        "_condition",
        "_plans",
        "_explains",
        "_seeds",
        "_columns",
        "_local_clauses",
        "_edge_clauses",
    )

    def __init__(
        self,
        definition: ViewDefinition,
        space: "InformationSpace",
        config: "MaintenanceConfig",
    ) -> None:
        self.definition = definition
        self.relations: tuple[str, ...] = definition.relation_names
        self._space = space
        self._config = config
        #: Per referenced relation: the owning source and its schema as
        #: of compilation (None: not offered).
        self._hosts: dict[str, InformationSource | None] = {}
        self._schemas: dict[str, Schema | None] = {}
        for name in self.relations:
            host = self._hosts[name] = space.host_of(name)
            self._schemas[name] = (
                host.relation(name).schema if host is not None else None
            )
        self._resolved: ViewDefinition | None = None
        self._condition: Condition | None = None
        self._plans: dict[str, MaintenancePlan] = {}
        self._explains: dict[str, MaintenanceExplain] = {}
        self._seeds: dict[str, SeedPlan] = {}
        self._columns: dict[str, tuple[str, ...]] = {}
        self._local_clauses: dict[str, tuple[PrimitiveClause, ...]] = {}
        self._edge_clauses: dict[
            tuple[str, str], tuple[PrimitiveClause, ...]
        ] = {}

    def is_current(self, definition: ViewDefinition) -> bool:
        """Whether this context still describes ``definition`` over the
        live space: same definition object, and per referenced relation
        the same owning source object and the same schema object."""
        if definition is not self.definition:
            return False
        host_of = self._space.host_of
        schemas = self._schemas
        for name, host in self._hosts.items():
            if host_of(name) is not host:
                return False
            if (
                host is not None
                and host.relation(name).schema is not schemas[name]
            ):
                return False
        return True

    # ------------------------------------------------------------------
    # Derived state (each built on first use)
    # ------------------------------------------------------------------
    def schema(self, relation: str) -> Schema:
        """The referenced relation's schema as of compilation."""
        schema = self._schemas[relation]
        if schema is None:
            raise UnknownRelationError(relation, "information space")
        return schema

    @property
    def resolved(self) -> ViewDefinition:
        """The fully qualified, type-checked definition."""
        if self._resolved is None:
            schemas = {name: self.schema(name) for name in self.relations}
            self._resolved = ViewValidator(schemas).resolve_view(
                self.definition
            )
        return self._resolved

    @property
    def condition(self) -> Condition:
        """The resolved WHERE conjunction."""
        if self._condition is None:
            self._condition = self.resolved.condition()
        return self._condition

    def plan(self, relation: str | None = None) -> MaintenancePlan:
        """Algorithm 1's itinerary after an update to ``relation``
        (default: the first FROM relation)."""
        if relation is None:
            relation = self.relations[0]
        plan = self._plans.get(relation)
        if plan is None:
            resolved = self.resolved
            owners = {
                name: host.name
                for name, host in self._hosts.items()
                if host is not None
            }
            plan = self._plans[relation] = plan_for_view(
                resolved, owners, relation
            )
        return plan

    def seed(self, relation: str) -> SeedPlan:
        """The compiled seed layout and local-selection filter for
        updates at ``relation``."""
        seed = self._seeds.get(relation)
        if seed is None:
            seed = self._seeds[relation] = seed_plan(
                self.condition, relation, self.schema(relation)
            )
        return seed

    def explain(
        self,
        relation: str | None = None,
        actual: dict[str, int] | None = None,
    ) -> MaintenanceExplain:
        """The EXPLAIN itinerary of :meth:`plan` — the plan a flush runs —
        optionally reconciled with the counters one flush charged."""
        plan = self.plan(relation)
        explained = self._explains.get(plan.updated_relation)
        if explained is None:
            schemas = {name: self.schema(name) for name in self.relations}
            explained = self._explains[plan.updated_relation] = (
                maintenance_itinerary(
                    self.resolved, plan, schemas, config=self._config
                )
            )
        return replace(
            explained,
            estimated=dict(explained.estimated),
            actual=dict(actual) if actual is not None else None,
        )

    # ------------------------------------------------------------------
    # Join-graph clause groups (the apply_updates boundary test)
    # ------------------------------------------------------------------
    def columns(self, relation: str) -> tuple[str, ...]:
        """Qualified column names (``R.A``) of ``relation``'s schema."""
        columns = self._columns.get(relation)
        if columns is None:
            columns = self._columns[relation] = tuple(
                f"{relation}.{attr}"
                for attr in self.schema(relation).attribute_names
            )
        return columns

    def local_clauses(self, relation: str) -> tuple[PrimitiveClause, ...]:
        """The definition's WHERE clauses over ``relation`` alone."""
        clauses = self._local_clauses.get(relation)
        if clauses is None:
            only = frozenset((relation,))
            clauses = self._local_clauses[relation] = tuple(
                clause
                for clause in self.definition.condition().clauses
                if clause.relations() == only
            )
        return clauses

    def edge_clauses(
        self, relation: str, other: str
    ) -> tuple[PrimitiveClause, ...]:
        """The definition's WHERE clauses decidable over a row of each of
        ``relation`` and ``other``: the edge between them and both
        relations' local selections, in WHERE order."""
        key = (relation, other)
        clauses = self._edge_clauses.get(key)
        if clauses is None:
            pair = frozenset(key)
            selected: list[PrimitiveClause] = []
            for clause in self.definition.condition().clauses:
                relations = clause.relations()
                if relations and relations <= pair:
                    selected.append(clause)
            clauses = self._edge_clauses[key] = tuple(selected)
        return clauses
