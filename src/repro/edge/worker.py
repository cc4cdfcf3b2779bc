"""The shard backend: one process, one die stack, one readout service.

:func:`worker_main` is the entry point of every backend worker process
the supervisor spawns.  Each worker

* builds its **own** die stack from its :func:`~repro.edge.sharding`
  seed (derived from the deployment root seed, so a respawned worker is
  bit-identical to the one it replaces),
* optionally activates a per-shard :class:`~repro.faults.FaultPlan`
  (fault-injection campaigns can target one shard of a pool),
* embeds a full :class:`~repro.serve.service.SensorReadService` —
  micro-batching, result cache, admission control, access log — and
* answers its parent over a :mod:`multiprocessing` pipe: every inbound
  message carries a ``seq``; every reply echoes it.

The pipe protocol is *internal* (parent ↔ child, pickled dicts); the
public NDJSON protocol lives in :mod:`repro.edge.protocol` and only its
``request`` payloads pass through here untouched, so deadlines are
anchored against the worker's own clock at decode time.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.edge.protocol import (
    BACKPRESSURE,
    CLOSED,
    EdgeError,
    INTERNAL,
    result_to_wire,
    wire_to_request,
)
from repro.serve.admission import (
    AdmissionPolicy,
    QueueFullError,
    ServiceClosedError,
)
from repro.serve.scheduler import BatchPolicy
from repro.serve.service import SensorReadService


@dataclass(frozen=True)
class WorkerConfig:
    """Everything one shard worker needs, picklable for any start method.

    Attributes:
        shard_index: Position of this shard in the pool.
        seed: Die-population seed (already shard-derived).
        tiers: Stack height served by this shard.
        deterministic: Serve deterministic conversions (required for the
            cross-process determinism guarantee and for caching).
        batch: Micro-batching policy of the embedded service.
        admission: Admission policy of the embedded service.
        cache_capacity / cache_ttl_s: Result-cache knobs.
        fault_plan: Optional fault plan activated in this worker only —
            per-shard fault targeting for resilience drills.
        access_log: Optional access-log path (supports the ``{pid}`` /
            ``{instance}`` placeholders of
            :func:`repro.serve.service.resolve_access_log_path`).
        enable_chaos: Accept the ``exit`` / ``hang`` chaos ops used by
            resilience tests.  Off in production configurations.
    """

    shard_index: int
    seed: int
    tiers: int = 8
    deterministic: bool = True
    batch: BatchPolicy = field(default_factory=BatchPolicy)
    admission: AdmissionPolicy = field(default_factory=AdmissionPolicy)
    cache_capacity: int = 2048
    cache_ttl_s: float = 5.0
    fault_plan: Optional[object] = None  # FaultPlan; object keeps pickling lazy
    access_log: Optional[str] = None
    enable_chaos: bool = False


def _stats_payload(service: SensorReadService, config: WorkerConfig) -> Dict[str, Any]:
    stats = service.stats()
    return {
        "shard": config.shard_index,
        "pid": os.getpid(),
        "seed": config.seed,
        "tiers": config.tiers,
        "served": stats.served,
        "errors": stats.errors,
        "degraded": stats.degraded,
        "batches": stats.batches,
        "batch_size_histogram": {
            str(k): v for k, v in sorted(stats.batch_size_histogram.items())
        },
        "queue_length": stats.queue_length,
        "backpressure": stats.backpressure,
        "admission": {
            "admitted": stats.admission.admitted,
            "rejected": stats.admission.rejected,
            "shed": stats.admission.shed,
        },
        "cache": None
        if stats.cache is None
        else {
            "hits": stats.cache.hits,
            "misses": stats.cache.misses,
            "evictions": stats.cache.evictions,
            "expirations": stats.cache.expirations,
            "entries": stats.cache.entries,
            "hit_rate": stats.cache.hit_rate,
        },
    }


def _serve_read_batch(service: SensorReadService, items, send) -> None:
    """Serve one coalesced pipe message of routed reads.

    The whole batch is handed to the service in one
    :meth:`~repro.serve.service.SensorReadService.submit_many` call so
    the micro-batcher sees a real batch, not a trickle of singletons.
    A bad item fails alone: decode errors and per-item admission
    rejections are answered for that ``seq`` only, and the rest of the
    batch is still served.
    """
    now = service.clock()
    decoded = []  # (seq, request) pairs that survived decoding
    for item in items:
        seq = item.get("seq")
        try:
            decoded.append((seq, wire_to_request(item.get("request"), now=now)))
        except EdgeError as error:
            send({"seq": seq, "ok": False, "error": error.to_wire()})
    outcomes = service.submit_many(
        [(request, seq) for seq, request in decoded]
    )
    for (seq, _), outcome in zip(decoded, outcomes):
        if isinstance(outcome, QueueFullError):
            send(
                {
                    "seq": seq,
                    "ok": False,
                    "error": EdgeError(BACKPRESSURE, str(outcome)).to_wire(),
                }
            )
        elif isinstance(outcome, ServiceClosedError):
            send(
                {
                    "seq": seq,
                    "ok": False,
                    "error": EdgeError(CLOSED, str(outcome)).to_wire(),
                }
            )
        # PendingResult outcomes are answered through on_result/on_fail.


def worker_main(config: WorkerConfig, conn) -> None:
    """Run one shard worker until shutdown or parent death.

    ``conn`` is the child end of a :func:`multiprocessing.Pipe`.  Replies
    are sent from two threads (the service's worker thread answers
    ``read`` ops through the ``on_result`` hook; the main thread answers
    control ops), serialised by one send lock.
    """
    send_lock = threading.Lock()

    def send(payload: Dict[str, Any]) -> None:
        with send_lock:
            try:
                conn.send(payload)
            except (BrokenPipeError, OSError):  # parent died; nothing to tell
                pass

    def on_result(pending, result) -> None:
        send({"seq": pending.context, "ok": True, "result": result_to_wire(result)})

    def on_fail(pending, error) -> None:
        if isinstance(error, ServiceClosedError):
            edge_error = EdgeError(CLOSED, "shard closed before serving")
        else:
            edge_error = EdgeError(INTERNAL, f"{type(error).__name__}: {error}")
        send({"seq": pending.context, "ok": False, "error": edge_error.to_wire()})

    if config.fault_plan is not None and not config.fault_plan.empty:
        from repro.faults.injector import FaultInjector
        from repro.faults.runtime import set_active

        set_active(FaultInjector(config.fault_plan))

    from repro.edge.deploy import serve_config_for

    service = SensorReadService(
        config=serve_config_for(config),
        access_log=config.access_log,
        on_result=on_result,
        on_fail=on_fail,
    )

    drain = True
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                drain = False  # parent is gone; answers have no reader
                return
            seq = message.get("seq")
            op = message.get("op")
            try:
                if op == "read_batch":
                    _serve_read_batch(service, message.get("items", ()), send)
                elif op == "read":
                    try:
                        request = wire_to_request(
                            message.get("request"), now=service.clock()
                        )
                        service.submit(request, context=seq)
                    except EdgeError as error:
                        send({"seq": seq, "ok": False, "error": error.to_wire()})
                    except QueueFullError as error:
                        send(
                            {
                                "seq": seq,
                                "ok": False,
                                "error": EdgeError(BACKPRESSURE, str(error)).to_wire(),
                            }
                        )
                    except ServiceClosedError as error:
                        send(
                            {
                                "seq": seq,
                                "ok": False,
                                "error": EdgeError(CLOSED, str(error)).to_wire(),
                            }
                        )
                elif op == "ping":
                    send(
                        {
                            "seq": seq,
                            "ok": True,
                            "pong": config.shard_index,
                            "pid": os.getpid(),
                            "served": service.stats().served,
                        }
                    )
                elif op == "stats":
                    send({"seq": seq, "ok": True, "stats": _stats_payload(service, config)})
                elif op == "shutdown":
                    drain = bool(message.get("drain", True))
                    service.close(drain=drain)
                    send({"seq": seq, "ok": True, "bye": True})
                    return
                elif op == "exit" and config.enable_chaos:
                    os._exit(17)
                elif op == "hang" and config.enable_chaos:
                    send({"seq": seq, "ok": True, "hanging": True})
                    time.sleep(3600.0)
                else:
                    send(
                        {
                            "seq": seq,
                            "ok": False,
                            "error": EdgeError(
                                INTERNAL, f"unknown worker op {op!r}"
                            ).to_wire(),
                        }
                    )
            except Exception as error:  # noqa: BLE001 - worker must not die
                send(
                    {
                        "seq": seq,
                        "ok": False,
                        "error": EdgeError(
                            INTERNAL, f"{type(error).__name__}: {error}"
                        ).to_wire(),
                    }
                )
    finally:
        try:
            service.close(drain=drain)
        except Exception:  # noqa: BLE001 - best-effort teardown
            pass
        try:
            conn.close()
        except OSError:
            pass
