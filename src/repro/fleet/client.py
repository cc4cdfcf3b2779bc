"""The fleet's client surface: routed, hedged, replica-aware reads.

:class:`FleetRouter` turns a :class:`~repro.fleet.directory.FleetDirectory`
plus a live host-health view into per-read target lists (primary first,
degraded hosts demoted, dead hosts skipped).  :class:`FleetClient`, the
one hedged, failover-aware read, rides on it over either edge wire
(``ndjson`` or ``binary``):

* each read goes to the shard's **primary** replica;
* if the primary has not answered within the hedge budget — the
  *secondary's* tracked latency quantile, i.e. the point at which the
  secondary would probably already have answered (see
  :class:`~repro.fleet.hedge.HedgePolicy`) — an identical request races
  that secondary replica;
* the first answer wins.  Deterministic replicas make either answer
  authoritative, so there is no reconciliation — the loser is abandoned
  to complete in the background (a blocking socket cannot be cancelled
  mid-flight) and counted.

Winners are stamped with :attr:`EdgeResult.hedged`, the winning
:attr:`EdgeResult.host` and the fleet-wide :attr:`EdgeResult.attempts`
(network attempts issued for the logical read, across hosts).  Counts —
reads, hedges, hedge wins, abandoned losers, failovers — are
exact, exposed via :meth:`FleetClient.stats` and the ``fleet.*``
telemetry instruments.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import replace
from typing import Any, Dict, List, Optional

from repro import telemetry
from repro.edge import protocol
from repro.edge.client import EdgeClient, RetryPolicy
from repro.edge.protocol import EdgeError, EdgeResult
from repro.fleet.directory import FleetDirectory, HostSpec
from repro.fleet.hedge import HedgePolicy, LatencyTracker
from repro.serve.requests import ReadRequest

_READS = telemetry.counter(
    "fleet.reads", unit="reads", help="Logical reads issued through fleet clients"
)
_HEDGES = telemetry.counter(
    "fleet.hedges", unit="requests",
    help="Hedge requests launched (primary outlived its latency budget)",
)
_HEDGE_WINS = telemetry.counter(
    "fleet.hedge_wins", unit="requests",
    help="Hedged reads won by the secondary replica",
)
_FAILOVERS = telemetry.counter(
    "fleet.failovers", unit="reads",
    help="Reads answered by a non-primary replica after the primary failed",
)
_READ_MS = telemetry.histogram(
    "fleet.read_ms", unit="ms",
    help="Client-observed end-to-end fleet read latency (winner's answer)",
)
_BUDGET_MS = telemetry.histogram(
    "fleet.hedge_budget_ms", unit="ms",
    help="Hedge budgets applied to reads (the secondary's tracked quantile)",
)

#: Host health vocabulary shared by router and supervisor.
HOST_HEALTHY = "healthy"
HOST_DEGRADED = "degraded"
HOST_DEAD = "dead"
HOST_STATES = (HOST_HEALTHY, HOST_DEGRADED, HOST_DEAD)


class FleetRouter:
    """Placement + health → the ordered target list of one read.

    Thread-safe; the supervisor swaps in successor directories
    (generation-checked) and flips host health from its probe thread
    while clients route.
    """

    def __init__(self, directory: FleetDirectory) -> None:
        self._lock = threading.Lock()
        self._directory = directory
        self._health: Dict[str, str] = {
            spec.name: HOST_HEALTHY for spec in directory.hosts
        }

    @property
    def directory(self) -> FleetDirectory:
        with self._lock:
            return self._directory

    def update_directory(self, directory: FleetDirectory) -> bool:
        """Adopt a successor placement; stale generations are refused."""
        with self._lock:
            if directory.generation <= self._directory.generation:
                return False
            self._directory = directory
            for spec in directory.hosts:
                self._health.setdefault(spec.name, HOST_HEALTHY)
            return True

    def mark(self, name: str, state: str) -> None:
        """Set one host's health (``healthy`` / ``degraded`` / ``dead``)."""
        if state not in HOST_STATES:
            raise ValueError(f"state must be one of {HOST_STATES}, not {state!r}")
        with self._lock:
            self._health[name] = state

    def health(self) -> Dict[str, str]:
        with self._lock:
            return dict(self._health)

    def targets(self, stack_id: int) -> List[HostSpec]:
        """Replicas to try for ``stack_id``: primary first, dead skipped.

        Degraded hosts are demoted behind healthy ones (stable order
        otherwise), so a wobbling host stops being primary before the
        supervisor declares it dead.
        """
        with self._lock:
            replicas = self._directory.replicas_for_stack(stack_id)
            health = self._health
            healthy = [r for r in replicas if health.get(r.name) == HOST_HEALTHY]
            degraded = [
                r for r in replicas if health.get(r.name) == HOST_DEGRADED
            ]
        return healthy + degraded


class _HostPool:
    """A small checkout pool of blocking :class:`EdgeClient` connections.

    The sync client is one-outstanding-operation-per-socket, so a hedged
    read needs two sockets; abandoned losers keep theirs until they
    finish and check it back in.
    """

    def __init__(self, spec: HostSpec, wire: str, timeout_s: float,
                 retry: RetryPolicy) -> None:
        self.spec = spec
        self._wire = wire
        self._timeout_s = timeout_s
        self._retry = retry
        self._lock = threading.Lock()
        self._idle: List[EdgeClient] = []

    def checkout(self) -> EdgeClient:
        with self._lock:
            if self._idle:
                return self._idle.pop()
        return EdgeClient(
            self.spec.host,
            self.spec.port,
            timeout_s=self._timeout_s,
            retry=self._retry,
            wire=self._wire,
        )

    def checkin(self, client: EdgeClient) -> None:
        with self._lock:
            self._idle.append(client)

    def discard(self, client: EdgeClient) -> None:
        client.close()

    def close(self) -> None:
        with self._lock:
            idle, self._idle = self._idle, []
        for client in idle:
            client.close()


class FleetClient:
    """Blocking hedged client over a fleet of edge hosts.

    ``hedge.enabled=False`` degenerates to primary-only reads with
    failover — the unhedged comparison arm of the fleet benchmark.
    """

    def __init__(
        self,
        router: "FleetRouter | FleetDirectory",
        wire: str = "ndjson",
        hedge: HedgePolicy = HedgePolicy(),
        retry: RetryPolicy = RetryPolicy(),
        timeout_s: float = 30.0,
        max_workers: int = 32,
    ) -> None:
        self.router = (
            router if isinstance(router, FleetRouter) else FleetRouter(router)
        )
        self.wire = wire
        self.hedge = hedge
        self.retry = retry
        self.timeout_s = timeout_s
        self.tracker = LatencyTracker(window=hedge.window)
        self._pools: Dict[str, _HostPool] = {}
        self._pools_lock = threading.Lock()
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="fleet-read"
        )
        self._stats_lock = threading.Lock()
        self._stats = {
            "reads": 0,
            "hedges": 0,
            "hedge_wins": 0,
            "losers_abandoned": 0,
            "failovers": 0,
            "errors": 0,
        }

    # ------------------------------------------------------------- plumbing

    def _pool(self, spec: HostSpec) -> _HostPool:
        with self._pools_lock:
            pool = self._pools.get(spec.name)
            if pool is None or pool.spec.address != spec.address:
                pool = _HostPool(spec, self.wire, self.timeout_s, self.retry)
                self._pools[spec.name] = pool
            return pool

    def _count(self, key: str, by: int = 1) -> None:
        with self._stats_lock:
            self._stats[key] += by

    def _read_one(
        self,
        spec: HostSpec,
        stack_id: int,
        request: ReadRequest,
        deadline_ms: Optional[float],
        observe: bool = True,
    ) -> EdgeResult:
        pool = self._pool(spec)
        client = pool.checkout()
        started = time.perf_counter()
        try:
            result = client.read(stack_id, request, deadline_ms=deadline_ms)
        except BaseException:
            # The socket may hold a half-read answer; never reuse it.
            pool.discard(client)
            raise
        pool.checkin(client)
        # Track the *client-observed* latency: it includes the wire, the
        # edge's queueing and any injected stall — the tail a hedge
        # budget must anticipate (the server-side ``latency_ms`` sees
        # none of those).
        if observe:
            self.tracker.observe(
                spec.name, (time.perf_counter() - started) * 1e3
            )
        return replace(result, host=spec.name)

    # ----------------------------------------------------------------- reads

    def read(
        self,
        stack_id: int,
        request: ReadRequest,
        deadline_ms: Optional[float] = None,
    ) -> EdgeResult:
        """One logical fleet read: primary, hedged to a secondary on a
        slow tail, failed over on a dead primary.

        Raises:
            EdgeError: ``shard_down`` when no live replica answered; any
                non-retryable error from the winning attempt.
        """
        _READS.inc()
        self._count("reads")
        targets = self.router.targets(stack_id)
        if not targets:
            self._count("errors")
            raise EdgeError(
                protocol.SHARD_DOWN,
                f"no live replica for stack {stack_id} "
                f"(generation {self.router.directory.generation})",
            )
        primary, secondaries = targets[0], targets[1:]
        started = time.perf_counter() * 1e3
        futures: Dict[Future, HostSpec] = {
            self._executor.submit(
                self._read_one, primary, stack_id, request, deadline_ms
            ): primary
        }
        attempts_launched = 1
        hedged = False
        if self.hedge.enabled and secondaries:
            budget_ms = self.tracker.budget_ms(secondaries[0].name, self.hedge)
            _BUDGET_MS.observe(budget_ms)
            done, _pending = wait(futures, timeout=budget_ms / 1e3)
            if not done:
                hedged = True
                _HEDGES.inc()
                self._count("hedges")
                # observe=False: hedge attempts run only when the fleet is
                # already slow, so their latencies are biased samples —
                # feeding them back into the hedge target's window
                # inflates its quantile, which raises the budget, which
                # delays every later hedge (a positive feedback loop).
                # Budgets derive from primary-attempt latencies only.
                futures[
                    self._executor.submit(
                        self._read_one,
                        secondaries[0],
                        stack_id,
                        request,
                        deadline_ms,
                        False,
                    )
                ] = secondaries[0]
                fallbacks = secondaries[1:]
                attempts_launched += 1
            else:
                fallbacks = secondaries
        else:
            fallbacks = secondaries
        result = self._collect(
            futures,
            primary,
            stack_id,
            request,
            deadline_ms,
            hedged,
            attempts_launched,
            list(fallbacks),
        )
        _READ_MS.observe(time.perf_counter() * 1e3 - started)
        return result

    def _collect(
        self,
        futures: Dict[Future, HostSpec],
        primary: HostSpec,
        stack_id: int,
        request: ReadRequest,
        deadline_ms: Optional[float],
        hedged: bool,
        attempts_launched: int,
        fallbacks: List[HostSpec],
    ) -> EdgeResult:
        """First successful answer wins; losers are abandoned, counted.

        When every launched attempt has failed retryably and untried
        replicas remain, the next one is launched (a *failover*) — so a
        dead primary degrades a read to a slower success, not an error.
        """
        pending = dict(futures)
        last_error: Optional[EdgeError] = None
        while pending:
            done, _ = wait(list(pending), return_when=FIRST_COMPLETED)
            for future in done:
                spec = pending.pop(future)
                try:
                    result = future.result()
                except EdgeError as error:
                    last_error = error
                    if not error.retryable and not pending:
                        self._count("errors")
                        raise
                    continue
                except OSError as error:
                    # A dead host refuses the pool's fresh connection
                    # before any protocol exchange — retryable.
                    last_error = EdgeError(
                        protocol.SHARD_DOWN,
                        f"{spec.name} unreachable: {error}",
                    )
                    continue
                # Winner. Abandoned losers run to completion in their
                # worker thread (observed for latency, then dropped).
                if pending:
                    self._count("losers_abandoned", len(pending))
                if hedged and spec.name != primary.name:
                    _HEDGE_WINS.inc()
                    self._count("hedge_wins")
                extra = result.attempts - 1
                return replace(
                    result,
                    hedged=hedged,
                    attempts=attempts_launched + extra,
                )
            if not pending and fallbacks:
                spec = fallbacks.pop(0)
                _FAILOVERS.inc()
                self._count("failovers")
                attempts_launched += 1
                pending[
                    self._executor.submit(
                        self._read_one, spec, stack_id, request, deadline_ms
                    )
                ] = spec
        self._count("errors")
        if last_error is not None:
            raise last_error
        raise EdgeError(
            protocol.SHARD_DOWN, f"every replica of stack {stack_id} failed"
        )

    def warm(self, stack_id: int, request: ReadRequest) -> int:
        """Prime every live replica of ``stack_id`` with ``request``.

        Sequential reads against the primary *and* each secondary: a
        stack's first read on a host pays its conversion, and a hedge is
        only useful if it lands on an already-warm secondary.  The cold
        latencies are deliberately kept out of the latency tracker so
        they cannot inflate hedge budgets.  Returns how many replicas
        answered; replica errors are swallowed.
        """
        served = 0
        for spec in self.router.targets(stack_id):
            try:
                self._read_one(spec, stack_id, request, None, observe=False)
            except (EdgeError, OSError):
                continue
            served += 1
        return served

    # ----------------------------------------------------------------- admin

    def stats(self) -> Dict[str, Any]:
        """Exact hedge/failover accounting plus per-host latency."""
        with self._stats_lock:
            counts = dict(self._stats)
        counts["hosts"] = dict(self.tracker.snapshot())
        counts["generation"] = self.router.directory.generation
        return counts

    def close(self) -> None:
        self._executor.shutdown(wait=True)
        with self._pools_lock:
            pools, self._pools = dict(self._pools), {}
        for pool in pools.values():
            pool.close()

    def __enter__(self) -> "FleetClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

