"""Golden conversions: the answers themselves, pinned across commits.

The exactness tests elsewhere compare two paths of one commit (a scalar
read against a one-lane and a many-lane ``read_paired``, say), so a change
that moved every path by the same ulp would pass them all.  This test
compares against answers recorded once and checked in as
``tests/golden/conversions.json`` (floats as ``float.hex``), and demands
exact equality.

It covers the default edge's dies (root seed 2012, two shards of eight
tiers):

* deterministic one-lane ``PTSensor.read`` across the range, including the
  four keys whose round loop ends a hair from the 0.05 K convergence step;
* deterministic many-lane ``read_paired``, at the nominal supply and at
  a scaled supply the calibration logic is told (``assume_vdd``);
* one read whose calibration logic is told the supply (``assume_vdd``);
* one read through a :class:`~repro.core.drift.DriftAnchoredModel` on an
  aged die;
* one read of R-A1's non-ZTC design.

Regenerate the golden file (only for a deliberate change of the physics
or of the algorithm) with::

    PYTHONPATH=src python tests/test_golden_conversions.py
"""

import json
import sys
from pathlib import Path

import numpy as np

from repro.batch import read_paired
from repro.circuits.oscillator_bank import build_oscillator_bank
from repro.core.decoupler import ProcessLut
from repro.core.drift import DriftAnchoredModel
from repro.core.sensor import PTSensor
from repro.edge.sharding import shard_seed
from repro.experiments.common import build_sensor, die_population, reference_setup
from repro.experiments.exp_a1_ablation import (
    NONZTC_STAGE_N,
    NONZTC_STAGE_P,
    _NonZtcSensingModel,
)
from repro.serve.service import build_stack_sensors
from repro.units import celsius_to_kelvin
from repro.variation.aging import BtiAgingModel

GOLDEN = Path(__file__).resolve().parent / "golden" / "conversions.json"

ROOT_SEED = 2012
SHARDS, TIERS = 2, 8
# (shard, tier, degC) keys whose round loop ends a hair from the 0.05 K step.
DIVERGENT_EDGE_KEYS = [(0, 0, 74.25), (0, 3, 93.0), (1, 0, -8.25), (1, 6, 89.75)]
# Each (shard, tier) reads three of these, rotated by its position.
TEMPS_C = (-40.0, -21.5, 3.25, 27.0, 48.75, 66.0, 101.5, 125.0)
SHIFTED_VDD = 1.17  # volts; the nominal supply is 1.2 V


def _record(
    temperature_c, dvtn, dvtp, rounds_used, counts_n, counts_p, counts_ref, energy_j
):
    return {
        "temperature_c": float(temperature_c).hex(),
        "dvtn": float(dvtn).hex(),
        "dvtp": float(dvtp).hex(),
        "rounds_used": int(rounds_used),
        "counts": [int(counts_n), int(counts_p), int(counts_ref)],
        "energy_j": float(energy_j).hex(),
    }


def _scalar(reading):
    return _record(
        reading.temperature_c, reading.dvtn, reading.dvtp, reading.rounds_used,
        reading.counts_n, reading.counts_p, reading.counts_ref, reading.energy.total,
    )


def _lanes(readings):
    total = readings.energy.total
    return [
        _record(
            readings.temperature_c[i], readings.dvtn[i], readings.dvtp[i],
            readings.rounds_used[i], readings.counts_n[i], readings.counts_p[i],
            readings.counts_ref[i], total[i],
        )
        for i in range(len(readings))
    ]


def _edge_keys():
    keys = []
    for shard in range(SHARDS):
        for tier in range(TIERS):
            first = shard * TIERS + tier
            for k in range(3):
                keys.append((shard, tier, TEMPS_C[(first + 3 * k) % len(TEMPS_C)]))
    return keys


def _drift_anchored_read():
    """R-E2's recovery: a die anchored at time zero, read after 5 years."""
    setup = reference_setup()
    die = die_population(4)[0]
    time_zero = build_sensor(die).read(55.0, deterministic=True)
    anchored = DriftAnchoredModel.from_time_zero(
        setup.model, time_zero.dvtn, time_zero.dvtp
    )
    aged = BtiAgingModel().age_die(die, 5.0)
    sensor = PTSensor(
        setup.technology, setup.config, die=aged, sensing_model=anchored, lut=setup.lut
    )
    return sensor.read(55.0, deterministic=True)


def _non_ztc_read():
    """R-A1's non-ZTC design: its hardware and its own sensing model."""
    setup = reference_setup()
    model = _NonZtcSensingModel(setup.technology, setup.config)
    die = die_population(4)[1]
    sensor = PTSensor(
        setup.technology,
        setup.config,
        die=die,
        sensing_model=model,
        lut=ProcessLut.build(model),
    )
    sensor.bank = build_oscillator_bank(
        setup.technology,
        die=die,
        psro_stages=setup.config.psro_stages,
        tsro_stages=setup.config.tsro_stages,
        psro_n_stage=NONZTC_STAGE_N,
        psro_p_stage=NONZTC_STAGE_P,
    )
    return sensor.read(27.0, deterministic=True)


def conversions() -> dict:
    """Every pinned answer, keyed by what produced it."""
    stacks = {
        shard: build_stack_sensors(TIERS, shard_seed(ROOT_SEED, shard))
        for shard in range(SHARDS)
    }
    scalar = {}
    for shard, tier, temp_c in DIVERGENT_EDGE_KEYS + _edge_keys():
        reading = stacks[shard][tier].read(temp_c, deterministic=True)
        scalar[f"{shard}/{tier}@{temp_c}"] = _scalar(reading)

    sensor = stacks[0][2]
    scalar["assume_vdd 0/2@60.0"] = _scalar(
        sensor.read(60.0, vdd=SHIFTED_VDD, deterministic=True, assume_vdd=SHIFTED_VDD)
    )
    scalar["drift-anchored@55.0"] = _scalar(_drift_anchored_read())
    scalar["non-ZTC@27.0"] = _scalar(_non_ztc_read())

    keys = DIVERGENT_EDGE_KEYS + [
        (shard, tier, TEMPS_C[(shard * TIERS + tier) % len(TEMPS_C)])
        for shard in range(SHARDS)
        for tier in range(TIERS)
    ]
    sensors = [stacks[shard][tier] for shard, tier, _ in keys]
    temps_k = np.array([celsius_to_kelvin(t) for _, _, t in keys])
    paired = {
        "keys": [f"{shard}/{tier}@{temp_c}" for shard, tier, temp_c in keys],
        "nominal": _lanes(read_paired(sensors, temps_k, deterministic=True)),
        "assume_vdd": _lanes(
            read_paired(
                sensors, temps_k, vdd=SHIFTED_VDD, deterministic=True,
                assume_vdd=SHIFTED_VDD,
            )
        ),
    }
    return {"scalar": scalar, "read_paired": paired}


def test_conversions_match_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = conversions()
    assert got.keys() == golden.keys()
    assert got["scalar"].keys() == golden["scalar"].keys()
    for key, record in golden["scalar"].items():
        assert got["scalar"][key] == record, key
    assert got["read_paired"] == golden["read_paired"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(conversions(), indent=1) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {GOLDEN}\n")
