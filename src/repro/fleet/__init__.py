"""Multi-host federation: replicated shards, hedged reads, placement.

The fleet layer federates several deterministic
:class:`~repro.edge.server.EdgeServer` hosts behind one client surface:

* :class:`FleetDirectory` / :class:`HostSpec` — generation-stamped
  placement: shard → replica set, per-tier replication factors,
  failure-domain-aware host selection.
* :class:`FleetRouter`, :class:`FleetClient` — hedged reads with
  failover over either edge wire, with exact ``hedged``/``attempts``
  accounting.
* :class:`FleetSupervisor` — ``admin.status`` health probes, host
  degradation/death, failover and rebalancing.
* :class:`FleetFaultPlan` / :class:`HostFault` — declarative host-level
  chaos (stalls, kills) for benchmarks and tests.
* :func:`run_fleet_bench` — the distributed wall-clock benchmark over
  real localhost processes.

See ``docs/fleet.md`` for placement rules and hedging policy knobs.
"""

from repro.fleet.bench import (
    FleetArmResult,
    FleetBenchConfig,
    FleetBenchReport,
    build_fleet,
    run_fleet_bench,
)
from repro.fleet.client import (
    HOST_DEAD,
    HOST_DEGRADED,
    HOST_HEALTHY,
    FleetClient,
    FleetRouter,
)
from repro.fleet.directory import (
    DEFAULT_TIER,
    FleetDirectory,
    HostSpec,
)
from repro.fleet.faults import FleetFaultPlan, HostFault
from repro.fleet.hedge import HedgePolicy, LatencyTracker
from repro.fleet.supervisor import FleetSupervisor, SupervisorPolicy

__all__ = sorted(
    [
        "DEFAULT_TIER",
        "FleetArmResult",
        "FleetBenchConfig",
        "FleetBenchReport",
        "FleetClient",
        "FleetDirectory",
        "FleetFaultPlan",
        "FleetRouter",
        "FleetSupervisor",
        "HOST_DEAD",
        "HOST_DEGRADED",
        "HOST_HEALTHY",
        "HedgePolicy",
        "HostFault",
        "HostSpec",
        "LatencyTracker",
        "SupervisorPolicy",
        "build_fleet",
        "run_fleet_bench",
    ]
)
