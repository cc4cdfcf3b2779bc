"""The stable public API facade of the reproduction.

``repro.api`` is the one import surface downstream code should build
against: everything re-exported here follows the deprecation policy in
docs/architecture.md (nothing disappears without a DeprecationWarning
shim for at least one release; the ``SensorFrame.vtn_shift``/``vtp_shift``
names and the config derivations on ``EdgeConfig``/``WorkerConfig`` had
theirs and are gone), and the snapshot test in
``tests/test_api_surfaces.py`` fails the suite on any accidental change
to this surface.

Quickstart::

    from repro.api import PTSensor, nominal_65nm, telemetry

    sensor = PTSensor(nominal_65nm())
    with telemetry.capture() as sink:
        reading = sensor.read(65.0)
    print(reading.temperature_c, sink.spans_named("core.conversion"))

Internals (``repro.core.calibration``, ``repro.thermal.solver`` etc.)
remain importable but carry no stability promise.

Every entry in the ``__test__`` mapping below is an executable example
for one slice of this surface; CI runs them with
``pytest --doctest-modules src/repro/api.py``.  They double as the
smallest-possible usage recipes:

=====================  ==============================================
surface                exports
=====================  ==============================================
single sensor          ``PTSensor``, ``SensorReading``, ``SensorConfig``,
                       ``Technology``, ``nominal_65nm``, ``Environment``
die populations        ``DieSample``, ``sample_dies``,
                       ``read_population``, ``PopulationReadings``,
                       ``EnvironmentGrid``
tracking mode          ``TrackingSensor``, ``TrackingPolicy``,
                       ``TrackingReading``
stack monitoring       ``StackMonitor``, ``MonitorSnapshot``,
                       ``TierState``, ``ResiliencePolicy``,
                       ``TsvSensorBus``, ``BusReport``, ``SensorFrame``
fault injection        ``faults`` (module), ``FaultKind``, ``FaultPlan``,
                       ``FaultSpec``
experiments            ``run_experiment``, ``run_all``,
                       ``ExperimentOutcome``, ``SuiteResult``
observability          ``telemetry`` (module)
serving                ``serve`` (module), ``ReadRequest``, ``ReadResult``,
                       ``SensorReadService``, ``ServeConfig``,
                       ``LoadgenConfig``, ``LoadgenReport``,
                       ``run_loadgen``, ``PairedReadings``, ``read_paired``
network edge           ``edge`` (module), ``EdgeClient``, ``EdgeConfig``,
                       ``EdgeError``, ``EdgeResult``, ``EdgeServer``,
                       ``EdgeServerThread``, ``EdgeLoadgenConfig``,
                       ``run_loadgen_edge``, ``HashRing``, ``shard_seed``
elastic control plane  ``AdminClient``, ``AutoscalePolicy``,
                       ``EdgeDeployment``
streaming              ``StreamPolicy``, ``RunawayPolicy``,
                       ``StreamLoadgenConfig``, ``run_loadgen_stream``
fleet federation       ``fleet`` (module), ``FleetClient``,
                       ``FleetDirectory``, ``FleetSupervisor``,
                       ``HedgePolicy``, ``HostSpec``, ``FleetFaultPlan``,
                       ``run_fleet_bench``
thermal management     ``dtm`` (module), ``DtmPolicy``, ``DtmTable``,
                       ``DtmClient``, ``DtmService``, ``DtmServiceConfig``,
                       ``PlacementEngine``, ``FloorplanSpec``
=====================  ==============================================
"""

from __future__ import annotations

from repro import dtm, edge, faults, fleet, serve, telemetry
from repro.batch.grid import EnvironmentGrid
from repro.batch.paired import PairedReadings, read_paired
from repro.batch.population import PopulationReadings, read_population
from repro.circuits.ring_oscillator import Environment
from repro.config import SensorConfig
from repro.core.sensor import PTSensor, SensorReading
from repro.core.tracking import TrackingPolicy, TrackingReading, TrackingSensor
from repro.device.technology import Technology, nominal_65nm
from repro.dtm import (
    DtmClient,
    DtmPolicy,
    DtmService,
    DtmServiceConfig,
    DtmTable,
    FloorplanSpec,
    PlacementEngine,
)
from repro.edge import (
    AdminClient,
    AutoscalePolicy,
    EdgeClient,
    EdgeConfig,
    EdgeDeployment,
    EdgeError,
    EdgeLoadgenConfig,
    EdgeResult,
    EdgeServer,
    EdgeServerThread,
    HashRing,
    StreamLoadgenConfig,
    StreamPolicy,
    run_loadgen_edge,
    run_loadgen_stream,
    shard_seed,
)
from repro.experiments.runner import (
    ExperimentOutcome,
    SuiteResult,
    run_all,
    run_experiment,
)
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.fleet import (
    FleetClient,
    FleetDirectory,
    FleetFaultPlan,
    FleetSupervisor,
    HedgePolicy,
    HostSpec,
    run_fleet_bench,
)
from repro.network.aggregator import (
    MonitorSnapshot,
    ResiliencePolicy,
    StackMonitor,
    TierState,
)
from repro.readout.interface import SensorFrame
from repro.telemetry.runaway import RunawayPolicy
from repro.serve import (
    LoadgenConfig,
    LoadgenReport,
    ReadRequest,
    ReadResult,
    SensorReadService,
    ServeConfig,
    run_loadgen,
)
from repro.tsv.bus import BusReport, TsvSensorBus
from repro.variation.montecarlo import DieSample, sample_dies

__all__ = [
    "AdminClient",
    "AutoscalePolicy",
    "BusReport",
    "DieSample",
    "DtmClient",
    "DtmPolicy",
    "DtmService",
    "DtmServiceConfig",
    "DtmTable",
    "EdgeClient",
    "EdgeConfig",
    "EdgeDeployment",
    "EdgeError",
    "EdgeLoadgenConfig",
    "EdgeResult",
    "EdgeServer",
    "EdgeServerThread",
    "Environment",
    "EnvironmentGrid",
    "ExperimentOutcome",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "FleetClient",
    "FleetDirectory",
    "FleetFaultPlan",
    "FleetSupervisor",
    "FloorplanSpec",
    "HashRing",
    "HedgePolicy",
    "HostSpec",
    "LoadgenConfig",
    "LoadgenReport",
    "MonitorSnapshot",
    "PTSensor",
    "PairedReadings",
    "PlacementEngine",
    "PopulationReadings",
    "ReadRequest",
    "ReadResult",
    "ResiliencePolicy",
    "RunawayPolicy",
    "SensorConfig",
    "SensorFrame",
    "SensorReadService",
    "SensorReading",
    "ServeConfig",
    "StackMonitor",
    "StreamLoadgenConfig",
    "StreamPolicy",
    "SuiteResult",
    "Technology",
    "TierState",
    "TrackingPolicy",
    "TrackingReading",
    "TrackingSensor",
    "TsvSensorBus",
    "dtm",
    "edge",
    "faults",
    "fleet",
    "nominal_65nm",
    "read_paired",
    "read_population",
    "run_all",
    "run_experiment",
    "run_fleet_bench",
    "run_loadgen",
    "run_loadgen_edge",
    "run_loadgen_stream",
    "sample_dies",
    "serve",
    "shard_seed",
    "telemetry",
]


# Executable examples, one per surface.  Doctest picks these up via the
# __test__ protocol; each runs in its own namespace, is deterministic
# (seeded or `deterministic=True`), and completes in well under a second.
__test__ = {
    "single_sensor": """
    A sensor on the typical die self-calibrates with no external
    reference: one `read` yields the junction temperature plus the die's
    extracted process point (near zero on the typical die).

    >>> from repro.api import PTSensor, nominal_65nm
    >>> sensor = PTSensor(nominal_65nm())
    >>> reading = sensor.read(65.0, deterministic=True)
    >>> abs(reading.temperature_c - 65.0) < 1.5   # the paper's class
    True
    >>> abs(reading.dvtn) < 2e-3 and abs(reading.dvtp) < 2e-3
    True
    >>> reading.converged and reading.energy.total < 1e-9
    True
    """,
    "environment_and_config": """
    `Environment` is the physical truth a sensor site sees; `SensorConfig`
    holds the design parameters (validated at construction).

    >>> from repro.api import Environment, SensorConfig
    >>> env = Environment(temp_k=300.0, vdd=1.2)
    >>> (env.temp_k, env.vdd)
    (300.0, 1.2)
    >>> SensorConfig().psro_stages
    13
    >>> SensorConfig(psro_stages=4)
    Traceback (most recent call last):
        ...
    ValueError: psro_stages must be an odd number >= 3
    """,
    "die_population": """
    Monte-Carlo die populations are seeded and reproducible; the batch
    engine converts a whole population in one vectorised call.

    >>> from repro.api import PTSensor, nominal_65nm, read_population, sample_dies
    >>> technology = nominal_65nm()
    >>> dies = sample_dies(technology, 3, seed=2012)
    >>> [die.index for die in dies]
    [0, 1, 2]
    >>> again = sample_dies(technology, 3, seed=2012)
    >>> again[1].corner.dvtn == dies[1].corner.dvtn
    True
    >>> sensor = PTSensor(technology, die=dies[0], die_id=0)
    >>> readings = read_population([sensor], [30.0, 60.0], deterministic=True)
    >>> readings.temperature_c.shape   # (sensors, temperatures, repeats)
    (1, 2, 1)
    """,
    "tracking_mode": """
    Tracking mode serves most samples from the cheap TSRO-only fast path
    and refreshes the stored process point on schedule.

    >>> from repro.api import PTSensor, TrackingPolicy, TrackingSensor, nominal_65nm
    >>> tracker = TrackingSensor(
    ...     PTSensor(nominal_65nm()),
    ...     TrackingPolicy(recalibration_interval=3),
    ... )
    >>> [tracker.read(40.0).mode for _ in range(4)]
    ['full', 'fast', 'fast', 'full']
    >>> tracker.read(40.0).energy_j < tracker.sensor.read(40.0).energy.total
    True
    """,
    "stack_monitoring": """
    A `StackMonitor` polls one sensor per tier over the TSV chain and
    reports per-round snapshots with explicit quality flags.

    >>> from repro.api import PTSensor, StackMonitor, TsvSensorBus, nominal_65nm
    >>> technology = nominal_65nm()
    >>> sensors = {tier: PTSensor(technology, die_id=tier) for tier in range(2)}
    >>> monitor = StackMonitor(sensors, TsvSensorBus(tiers=2))
    >>> snapshot = monitor.poll({0: 55.0, 1: 48.0})
    >>> snapshot.quality, snapshot.hottest_tier
    ('fused', 0)
    >>> abs(snapshot.fused_temperature_c - 51.5) < 2.0
    True
    """,
    "resilience_policy": """
    `ResiliencePolicy` tunes how the monitor rides through faults; the
    defaults reproduce the historical behaviour exactly.

    >>> from repro.api import ResiliencePolicy
    >>> policy = ResiliencePolicy()
    >>> (policy.retry_limit, policy.dead_after, policy.revive_after)
    (2, 3, 1)
    >>> ResiliencePolicy(backoff_base_s=1e-6).backoff_s(attempt=2)
    4e-06
    """,
    "fault_injection": """
    A `FaultPlan` declares what breaks, where and when; `faults.inject`
    activates it process-wide, and the empty plan is a golden no-op.

    >>> from repro.api import FaultKind, FaultPlan, FaultSpec, faults
    >>> plan = FaultPlan(name="demo", specs=(
    ...     FaultSpec(FaultKind.TSV_OPEN, tier=1, onset_round=0),
    ... ))
    >>> plan.tiers_faulted()
    {1}
    >>> from repro.api import TsvSensorBus
    >>> bus = TsvSensorBus(tiers=2)
    >>> from repro.readout.interface import SensorFrame, encode_frame
    >>> word = encode_frame(SensorFrame(die_id=0, dvtn=0.0, dvtp=0.0,
    ...                                 temperature_c=50.0))
    >>> with faults.inject(plan):
    ...     report = bus.collect({0: word, 1: word})
    >>> report.missing       # tier 1's frame never arrived
    [1]
    >>> clean = bus.collect({0: word, 1: word})
    >>> clean.healthy        # outside the block the bus is untouched
    True
    """,
    "telemetry_capture": """
    The telemetry layer counts what happened without perturbing any
    seeded number; `capture()` resets metrics and collects spans.

    >>> from repro.api import PTSensor, nominal_65nm, telemetry
    >>> sensor = PTSensor(nominal_65nm())
    >>> with telemetry.capture() as sink:
    ...     _ = sensor.read(65.0, deterministic=True)
    >>> telemetry.counter("core.conversions").value
    1
    >>> len(sink.spans_named("core.conversion"))
    1
    """,
    "serving": """
    The serving engine answers a coalesced batch of typed requests with
    one vectorised conversion; in deterministic mode the answers match a
    sequential scalar loop within the batch engine's tolerances.

    >>> from repro.api import ReadRequest, serve
    >>> engine = serve.ReadEngine(serve.build_stack_sensors(tiers=2, seed=2012))
    >>> results = engine.execute(
    ...     [ReadRequest.point(0, 55.0), ReadRequest.scan(40.0)], now=0.0)
    >>> [(r.status.value, len(r.readings), r.batch_size) for r in results]
    [('ok', 1, 2), ('ok', 2, 2)]
    >>> abs(results[0].readings[0].temperature_c - 55.0) < 1.5
    True
    """,
    "network_edge": """
    The network edge routes stack ids onto shard workers through a
    consistent hash ring, and every shard derives its die-population
    seed from the deployment root seed — stable across processes, hosts
    and respawns (the basis of the cross-process determinism guarantee).

    >>> from repro.api import HashRing, shard_seed
    >>> shard_seed(2012, 0) == shard_seed(2012, 0)
    True
    >>> len({shard_seed(2012, i) for i in range(4)})
    4
    >>> ring = HashRing(range(4))
    >>> owners = [ring.route(stack) for stack in range(8)]
    >>> owners == [HashRing(range(4)).route(stack) for stack in range(8)]
    True
    >>> from repro.api import EdgeError
    >>> EdgeError("backpressure", "window full").retryable
    True
    >>> EdgeError("invalid", "bad kind").retryable
    False
    """,
    "elastic_control_plane": """
    One `EdgeDeployment` declaration derives every config layer, for any
    shard index — the basis of warm spares and elastic scale-up (a shard
    joining later is bit-identical to the same index booted on day one).

    >>> from repro.api import AutoscalePolicy, EdgeDeployment
    >>> deployment = EdgeDeployment(shards=2, tiers=4, root_seed=2012)
    >>> [w.shard_index for w in deployment.worker_configs()]
    [0, 1]
    >>> deployment.worker_config(7).seed == deployment.worker_config(7).seed
    True
    >>> deployment.serve_config(0).tiers
    4
    >>> edge_config = deployment.edge_config()
    >>> EdgeDeployment.from_edge_config(edge_config) == deployment
    True
    >>> AutoscalePolicy().hysteresis >= 1
    True
    """,
    "streaming": """
    The stream plane pushes instead of answering: subscriptions over
    SSE/NDJSON/binary share one bounded-queue hub, and the online
    EWMA-slope detector turns live reads into early-warning alerts
    (docs/streaming.md).  Policies validate at construction and the
    detection comparison is seeded end to end.

    >>> from repro.api import RunawayPolicy, StreamLoadgenConfig, StreamPolicy
    >>> StreamPolicy().heartbeat_s
    5.0
    >>> RunawayPolicy().clear_slope_c < RunawayPolicy().warn_slope_c
    True
    >>> StreamPolicy(queue=0)   # doctest: +ELLIPSIS
    Traceback (most recent call last):
        ...
    ValueError: ...
    >>> from repro.api import run_loadgen_stream
    >>> report = run_loadgen_stream(StreamLoadgenConfig(
    ...     subscribers=50, duration_s=0.2))
    >>> report.detector_no_worse
    True
    >>> report.peak_queue_depth <= report.queue
    True
    """,
    "fleet_federation": """
    The fleet layer places replicated shards across failure domains
    (never two replicas in one domain while domains allow) and hedges
    slow reads against a secondary replica.  Placement is pure data —
    rendezvous-hashed from host names, generation-stamped — so a whole
    fleet's replica map is known before any socket opens, and the hedge
    budget adapts per host from tracked latency windows.

    >>> from repro.api import FleetDirectory, HedgePolicy, HostSpec
    >>> hosts = tuple(
    ...     HostSpec(name=f"host{i}", host="127.0.0.1", port=7000 + i,
    ...              domain=f"rack{i % 2}")
    ...     for i in range(3))
    >>> directory = FleetDirectory(hosts=hosts, shards=4, replication=2)
    >>> sorted(directory.placement()) == [0, 1, 2, 3]
    True
    >>> all(
    ...     len({directory.host(n).domain for n in names}) == 2
    ...     for names in directory.placement().values())
    True
    >>> directory.with_hosts(hosts[:2]).generation
    1
    >>> HostSpec.parse("edge9=10.0.0.9:7009@rack3").domain
    'rack3'
    >>> from repro.api import fleet
    >>> tracker = fleet.LatencyTracker(window=64)
    >>> for ms in range(1, 33):
    ...     tracker.observe("host0", float(ms))
    >>> tracker.budget_ms("host0", HedgePolicy(quantile=0.5, min_samples=8))
    17.0
    """,
    "thermal_management": """
    The DTM control plane shares one verb arithmetic between the offline
    loop and the live wire: `dtm.decide` turns a reading into a typed
    action, and a `DtmTable` applies actions idempotently by round (a
    replayed decision answers the standing scale without moving it).
    `FloorplanSpec` prunes candidate sensor sites around TSV keep-outs
    for the batch placement engine (docs/dtm.md).

    >>> from repro.api import DtmPolicy, DtmTable, dtm
    >>> policy = DtmPolicy()
    >>> dtm.decide(policy, 1.0, 92.0)       # hot reading -> throttle
    ('throttle', 0.7)
    >>> dtm.decide(policy, 1.0, 80.0)       # hysteresis band -> no verb
    (None, 1.0)
    >>> table = DtmTable(policy)
    >>> table.apply(0, 1, 0, "throttle").scale
    0.7
    >>> table.apply(0, 1, 0, "throttle").applied   # same round: idempotent
    False
    >>> table.scale(0, 1)
    0.7
    >>> from repro.api import FloorplanSpec
    >>> spec = FloorplanSpec(width=5e-3, height=5e-3, layer="tier0.si",
    ...                      per_axis=4)
    >>> len(spec.candidate_sites())
    16
    """,
    "experiments": """
    Every reconstructed table/figure is an experiment module;
    `run_experiment` runs one by id and returns its result object, whose
    `render()` prints the same rows the CLI does.

    >>> from repro.api import run_experiment
    >>> result = run_experiment("R-F1", fast=True)
    >>> "TSRO" in result.render()
    True
    >>> run_experiment("R-F99", fast=True)   # doctest: +ELLIPSIS
    Traceback (most recent call last):
        ...
    KeyError: "unknown experiment 'R-F99'; known: ..."
    """,
}
