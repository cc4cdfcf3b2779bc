"""One deployment, one config: the :class:`EdgeDeployment` builder.

Before this module, the three config layers each re-declared the same
knobs — :class:`~repro.edge.server.EdgeConfig` (deployment),
:class:`~repro.edge.worker.WorkerConfig` (one shard process) and
:class:`~repro.serve.service.ServeConfig` (the embedded service) all
carried batch policies, admission bounds and cache knobs, and the
derivation logic lived as methods *on the derived types*.  Drift was a
constructor away.

:class:`EdgeDeployment` is now the single source of truth: declare the
deployment once, derive every layer from it::

    deployment = EdgeDeployment(shards=4, tiers=8, root_seed=2012)
    edge_config = deployment.edge_config()       # the server front
    workers = deployment.worker_configs()        # one per shard
    service = deployment.serve_config(0)         # shard 0's embedded service

The old derivation constructors on ``EdgeConfig`` and ``WorkerConfig``
served one release as ``DeprecationWarning`` shims delegating here, and
are gone.

The elastic :class:`~repro.edge.supervisor.ShardPool` uses
:meth:`EdgeDeployment.worker_config` as its shard factory: a shard
joining at scale-up time (index the deployment has never seen) gets its
config minted from the same root seed as the boot-time shards, which is
what makes warm spares and respawns bit-identical.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Mapping, Optional, Tuple

from repro.edge import protocol
from repro.edge.sharding import ShardSpec
from repro.edge.stream import StreamPolicy
from repro.edge.worker import WorkerConfig
from repro.network.dtm import DtmPolicy
from repro.serve.admission import AdmissionPolicy
from repro.serve.scheduler import BatchPolicy
from repro.serve.service import ServeConfig


def serve_config_for(worker: WorkerConfig) -> ServeConfig:
    """The embedded-service config of one shard worker (canonical)."""
    return ServeConfig(
        tiers=worker.tiers,
        seed=worker.seed,
        batch=worker.batch,
        admission=worker.admission,
        cache_capacity=worker.cache_capacity,
        cache_ttl_s=worker.cache_ttl_s,
        deterministic=worker.deterministic,
        workers=1,
    )


@dataclass(frozen=True)
class EdgeDeployment:
    """Everything one elastic edge deployment needs, declared once.

    Field names (and defaults) deliberately match
    :class:`~repro.edge.server.EdgeConfig` — the server config is one of
    this builder's *products* (:meth:`edge_config`), and
    :meth:`from_edge_config` round-trips the other way for callers that
    still hold an ``EdgeConfig``.
    """

    host: str = "127.0.0.1"
    port: int = 0
    shards: int = 4
    tiers: int = 8
    root_seed: int = 2012
    deterministic: bool = True
    batch: BatchPolicy = field(default_factory=BatchPolicy)
    admission: AdmissionPolicy = field(default_factory=AdmissionPolicy)
    cache_capacity: int = 2048
    cache_ttl_s: float = 5.0
    window: int = 64
    ipc_batch: int = 16
    ipc_linger_s: float = 0.0005
    max_line_bytes: int = protocol.MAX_LINE_BYTES
    idle_timeout_s: float = 300.0
    status_cache_s: float = 0.0
    stall_ms: float = 0.0
    start_method: str = "spawn"
    health_interval_s: float = 1.0
    health_timeout_s: float = 5.0
    respawn_backoff_s: float = 0.05
    ring_replicas: int = 64
    shard_fault_plans: Optional[Mapping[int, object]] = None
    access_log: Optional[str] = None
    enable_chaos: bool = False
    admin_token: Optional[str] = None
    warm_spares: int = 0
    autoscale: Optional[object] = None  # AutoscalePolicy; object keeps import lazy
    stream: StreamPolicy = field(default_factory=StreamPolicy)
    dtm: DtmPolicy = field(default_factory=DtmPolicy)
    dtm_deadline_ms: float = 50.0

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.warm_spares < 0:
            raise ValueError("warm_spares must be >= 0")

    # ------------------------------------------------------------- derivations

    def edge_config(self):
        """The server-front config of this deployment."""
        from repro.edge.server import EdgeConfig

        values = {
            f.name: getattr(self, f.name) for f in dataclasses.fields(EdgeConfig)
        }
        return EdgeConfig(**values)

    @classmethod
    def from_edge_config(cls, config) -> "EdgeDeployment":
        """The deployment a given :class:`EdgeConfig` describes."""
        values = {f.name: getattr(config, f.name) for f in dataclasses.fields(config)}
        return cls(**values)

    def worker_config(self, index: int) -> WorkerConfig:
        """The config of shard ``index`` — any index, not just boot-time ones.

        Seeds derive from ``root_seed`` through
        :func:`~repro.edge.sharding.shard_seed`, so a shard joining at
        scale-up (or a warm spare pre-spawned for a future index) is
        bit-identical to the same index booted on day one.
        """
        spec = ShardSpec.of(index, self.root_seed, self.tiers)
        plans = dict(self.shard_fault_plans or {})
        return WorkerConfig(
            shard_index=spec.index,
            seed=spec.seed,
            tiers=spec.tiers,
            deterministic=self.deterministic,
            batch=self.batch,
            admission=self.admission,
            cache_capacity=self.cache_capacity,
            cache_ttl_s=self.cache_ttl_s,
            fault_plan=plans.get(spec.index),
            access_log=self.access_log,
            enable_chaos=self.enable_chaos,
        )

    def worker_configs(self) -> Tuple[WorkerConfig, ...]:
        """One :class:`WorkerConfig` per boot-time shard."""
        return tuple(self.worker_config(i) for i in range(self.shards))

    def serve_config(self, index: int = 0) -> ServeConfig:
        """The embedded-service config shard ``index`` runs."""
        return serve_config_for(self.worker_config(index))
