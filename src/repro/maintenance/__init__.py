"""Incremental view maintenance: Algorithm 1 executed with cost counters.

Public surface:

* :class:`ViewMaintainer` — propagates single-tuple updates (and, via
  :meth:`~repro.maintenance.simulator.ViewMaintainer.maintain_batch`,
  whole update streams) into a materialized extent, measuring
  messages / bytes / I/Os for comparison against the analytic cost
  model of Sec. 6
* :class:`MaintenanceContext` — one view's compiled maintenance state
  (resolution, plans, EXPLAIN itineraries), reused while current
* :class:`MaintenanceCounters` — the measured factors
* :class:`DeltaBatch` — the compiled positional-tuple delta plane
"""

from repro.maintenance.context import MaintenanceContext
from repro.maintenance.counters import MaintenanceCounters
from repro.maintenance.delta import DeltaBatch
from repro.maintenance.simulator import ViewMaintainer

__all__ = [
    "DeltaBatch",
    "MaintenanceContext",
    "MaintenanceCounters",
    "ViewMaintainer",
]
