"""The on-chip workload: the R-E4 control loop, in-process.

Each request is one control round through public functions: one
``thermal.solver.transient`` step at the current power scales, one
``StackMonitor.poll`` of every tier over the TSV bus (each tier runs the
paper's scalar self-calibrated conversion), and one ``network.dtm.decide``
per tier.  None of ``edge``, ``serve`` or ``batch`` runs while it is timed.
"""

from __future__ import annotations

import math
import os
import time
from typing import Dict, List, Tuple

import numpy as np

import measure
import output_checks
from repro.batch import read_paired
from repro.core.sensor import PTSensor
from repro.experiments.common import die_population, reference_setup
from repro.network import dtm
from repro.network.aggregator import StackMonitor
from repro.thermal import solver
from repro.thermal.grid import build_stack_grid
from repro.thermal.power import hotspot_power_map
from repro.tsv.bus import TsvSensorBus
from repro.tsv.geometry import StackDescriptor, TierSpec, regular_tsv_array
from repro.units import kelvin_to_celsius

TIERS = 2
GRID_CELLS = 10  # lateral cells per axis of the thermal mesh
DT_S = 0.02
SENSOR_SITE = (2.0e-3, 2.0e-3)
WARMUP_ROUNDS = 60  # five thermal time constants: the stack has heated and DTM has settled
POLICY = dtm.DtmPolicy(throttle_c=85.0, release_c=78.0)
# The logs have room for this many rounds per measured second; a run that
# reaches it stops early.  They are filled when allocated, so the process's
# peak memory does not grow with the number of rounds a run makes.
ROUND_CAP_PER_S = 1000


class ConversionLog:
    """What the replay needs of each conversion, in order, in arrays allocated once."""

    FIELDS = ("tier", "temp_k", "vdd", "counts_n", "counts_p", "counts_ref",
              "temperature_c", "frame_c", "conversion_time", "energy_j")

    def __init__(self, capacity: int) -> None:
        self.columns = {name: np.full(capacity, np.nan) for name in self.FIELDS}
        self.size = 0

    def add(self, tier: int, env, reading) -> None:
        row = {
            "tier": tier, "temp_k": env.temp_k, "vdd": env.vdd,
            "counts_n": reading.counts_n, "counts_p": reading.counts_p,
            "counts_ref": reading.counts_ref, "temperature_c": reading.temperature_c,
            "conversion_time": reading.conversion_time, "energy_j": reading.energy.total,
        }
        for name, value in row.items():
            self.columns[name][self.size] = value
        self.size += 1

    def column(self, name: str) -> np.ndarray:
        return self.columns[name][: self.size]


class RecordingSensor(PTSensor):
    """A :class:`PTSensor` that logs each conversion it makes."""

    def __init__(self, *args, log: ConversionLog, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.log = log

    def read_environment(self, env, deterministic=False, assume_vdd=None):
        reading = super().read_environment(
            env, deterministic=deterministic, assume_vdd=assume_vdd
        )
        self.log.add(self.die_id, env, reading)
        return reading


def _sensors(sensor_class=PTSensor, **extra) -> Dict[int, PTSensor]:
    """The stack's sensors: dies of the default population, like the edge's.

    The dies stay fixed, so a seed varies the thermal load and not the
    die: how many calibration rounds a conversion takes depends on the die
    and its temperature, and a seed that changed the die would change the
    work per round.
    """
    setup = reference_setup()
    return {
        tier: sensor_class(
            setup.technology,
            config=setup.config,
            die=die,
            location=SENSOR_SITE,
            die_id=tier,
            sensing_model=setup.model,
            lut=setup.lut,
            **extra,
        )
        for tier, die in enumerate(die_population(TIERS))
    }


class ControlLoop:
    """A seeded stack under sensor-driven thermal management."""

    def __init__(self, seed: int, max_rounds: int) -> None:
        rng = np.random.default_rng([seed, 4])
        self.stack = StackDescriptor(
            tiers=[TierSpec(f"tier{i}") for i in range(TIERS)],
            tsv_sites=regular_tsv_array(8, 8, pitch=100e-6, origin=(2.1e-3, 2.1e-3)),
        )
        self.layers = [self.stack.transistor_layer_name(t) for t in self.stack.tiers]
        self.grid = build_stack_grid(
            self.stack.thermal_layers(GRID_CELLS, GRID_CELLS),
            self.stack.die_width,
            self.stack.die_height,
            nx=GRID_CELLS,
            ny=GRID_CELLS,
        )
        # A hotspot on the bottom tier that overheats the stack without DTM;
        # its place and power come from the seed.  Under DTM the stack then
        # settles inside the hysteresis band (tier 0 near 80 degC, tier 1
        # near 60 degC), where these dies take four and three calibration
        # rounds per conversion whatever the seed.
        corner = tuple(float(c) for c in 1.5e-3 + rng.uniform(-3e-4, 3e-4, size=2))
        watts = float(rng.uniform(5.5, 6.5))
        self.power = {
            layer: hotspot_power_map(
                GRID_CELLS,
                GRID_CELLS,
                self.stack.die_width,
                self.stack.die_height,
                [(corner[0], corner[1], 1.2e-3, 1.2e-3, watts)] if i == 0 else [],
                background_watts=0.8,
            )
            for i, layer in enumerate(self.layers)
        }
        self.conversions = ConversionLog(max_rounds * TIERS)
        self.readings_c = np.full((max_rounds, TIERS), np.nan)
        self.truth_c = np.full((max_rounds, TIERS), np.nan)
        self.rounds = 0
        self.sensors = _sensors(RecordingSensor, log=self.conversions)
        self.monitor = StackMonitor(
            self.sensors,
            TsvSensorBus(tiers=TIERS),
            warning_c=POLICY.release_c,
            emergency_c=POLICY.throttle_c + 15.0,
        )
        self.scales = {tier: 1.0 for tier in range(TIERS)}
        self.field = None

    def round(self) -> int:
        """One control round, logged; returns the number of readings it delivered."""
        scaled = {layer: self.power[layer] * self.scales[i] for i, layer in enumerate(self.layers)}
        self.field = solver.transient(
            self.grid, lambda t: scaled, dt=DT_S, steps=1, initial=self.field
        )[0]
        x, y = SENSOR_SITE
        truth = {
            tier: kelvin_to_celsius(self.field.at(layer, x, y))
            for tier, layer in enumerate(self.layers)
        }
        first = self.conversions.size
        readings = self.monitor.poll(truth).temperatures_c
        for tier, reading_c in readings.items():
            _action, self.scales[tier] = dtm.decide(POLICY, self.scales[tier], reading_c)
        log = self.conversions
        for index in range(first, log.size):
            log.columns["frame_c"][index] = readings.get(int(log.columns["tier"][index]), np.nan)
        for tier in range(TIERS):
            self.truth_c[self.rounds, tier] = truth[tier]
            self.readings_c[self.rounds, tier] = readings.get(tier, np.nan)
        self.rounds += 1
        return len(readings)

    def logged_rounds(self) -> List[Tuple[Dict[int, float], Dict[int, float]]]:
        """``(readings_c, truth_c)`` by tier for every round so far."""
        return [
            (
                {t: float(c) for t, c in enumerate(self.readings_c[r]) if not np.isnan(c)},
                {t: float(c) for t, c in enumerate(self.truth_c[r])},
            )
            for r in range(self.rounds)
        ]


def _replay_checks(loop: ControlLoop) -> List[str]:
    failures = output_checks.check_onchip_truth(loop.logged_rounds())
    fresh = _sensors()
    log = loop.conversions
    replay = read_paired(
        [fresh[int(tier)] for tier in log.column("tier")],
        log.column("temp_k"),
        log.column("vdd"),
    )
    run = [
        {name: float(log.columns[name][i])
         for name in ("counts_n", "counts_p", "counts_ref", "temperature_c", "frame_c")}
        for i in range(log.size)
    ]
    failures += output_checks.check_replay(
        run,
        {
            "counts_n": replay.counts_n,
            "counts_p": replay.counts_p,
            "counts_ref": replay.counts_ref,
            "temperature_c": replay.temperature_c,
        },
    )
    return failures


def run_pass(seed: int, seconds: float, cold: bool = True) -> measure.PassResult:
    """Build the stack, run rounds for ``seconds``, then replay and check.

    A cold pass times its set-up from the start of the process; a later
    pass in the same process can only time its own build and first round.
    """
    began = time.monotonic()
    loop = ControlLoop(seed, 1 + WARMUP_ROUNDS + math.ceil(ROUND_CAP_PER_S * seconds))
    loop.round()
    setup_s = measure.process_age_s() if cold else time.monotonic() - began
    for _ in range(WARMUP_ROUNDS):
        loop.round()
    starts = []
    latencies_ms = []
    readings = 0
    short_rounds = 0
    cpu_before = measure.cpu_seconds([os.getpid()])
    start = finished = time.monotonic()
    until = start + seconds
    late_s = 0.0  # the loop's own gap between one round's end and the next's start
    while loop.rounds < len(loop.truth_c):
        began = time.monotonic()
        if began >= until:
            break
        late_s = max(late_s, began - finished)
        delivered = loop.round()
        finished = time.monotonic()
        starts.append(began)
        latencies_ms.append((finished - began) * 1e3)
        readings += delivered
        short_rounds += delivered < TIERS
    end = time.monotonic()
    cpu_after = measure.cpu_seconds([os.getpid()])
    end_to_end = {
        "setup_s": setup_s,
        "request_p50_ms": measure.median_per_second(starts, latencies_ms),
        "request_p99_ms": measure.percentile(latencies_ms, 99),
        "readings_per_s": readings / (end - start),
        "cpu_us_per_reading": (cpu_after - cpu_before) / readings * 1e6,
        "peak_rss_mb": measure.peak_rss_mb([os.getpid()]),
    }
    failures = _replay_checks(loop)
    if len(latencies_ms) < 1000:
        print(f"warning: only {len(latencies_ms)} rounds after warm-up; p99 rests "
              "on fewer than ten samples beyond it")
    return measure.PassResult(
        end_to_end=end_to_end,
        failures=failures,
        attempted=len(latencies_ms),
        failed=short_rounds,
        window=(start, end),
        silicon={
            "conversion_us": float(np.mean(loop.conversions.column("conversion_time"))) * 1e6,
            "energy_pj": float(np.mean(loop.conversions.column("energy_j"))) * 1e12,
        },
        layers={"loadgen.late_ms": late_s * 1e3},
    )
