"""Guard tests: each output check fails on a corrupted output.

    python3 -m pytest perfbench/test_output_checks.py -q
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import output_checks  # noqa: E402
from edge_load import Answer  # noqa: E402
from repro.edge.protocol import EdgeResult  # noqa: E402
from repro.serve.requests import ReadRequest, ResultStatus, TierReading  # noqa: E402
from repro.serve.service import build_stack_sensors  # noqa: E402

TIERS = 3
SEED = 7


@pytest.fixture(scope="module")
def sensors():
    return build_stack_sensors(TIERS, SEED)


def _answer(sensors, request, wire="ndjson", shard=0):
    readings = []
    for tier in output_checks.expected_tiers(request, TIERS):
        temp_c = output_checks.requested_temp_c(request, tier)
        scalar = sensors[tier].read(temp_c, deterministic=True)
        readings.append(TierReading(
            tier=tier, temperature_c=scalar.temperature_c, dvtn=scalar.dvtn,
            dvtp=scalar.dvtp, converged=scalar.converged,
            conversion_time=scalar.conversion_time, energy_j=scalar.energy.total,
        ))
    result = EdgeResult(
        id="x", shard=shard, status=ResultStatus.OK, readings=tuple(readings),
        batch_size=1, cache_hits=0, error=None, latency_ms=1.0,
    )
    return Answer(wire, 5, request, 0.0, 0.0, 0.0, result)


def _with_reading(answer, index, **changes):
    readings = list(answer.result.readings)
    readings[index] = dataclasses.replace(readings[index], **changes)
    return dataclasses.replace(
        answer, result=dataclasses.replace(answer.result, readings=tuple(readings))
    )


@pytest.fixture(scope="module")
def answers(sensors):
    return [
        _answer(sensors, ReadRequest.point(1, 47.5)),
        _answer(sensors, ReadRequest.vt(2, -12.25), wire="binary"),
        _answer(sensors, ReadRequest.scan(80.0, tiers=(2, 0)), wire="http"),
        _answer(sensors, ReadRequest.poll({0: 30.0, 1: 55.0, 2: 105.0})),
        _answer(sensors, ReadRequest.point(1, 47.5), wire="http"),
    ]


@pytest.fixture(scope="module")
def shifts(sensors):
    return {(0, tier): sensor.true_process_shifts() for tier, sensor in sensors.items()}


def test_good_outputs_pass(sensors, answers, shifts):
    assert output_checks.check_tiers(answers, TIERS) == []
    assert output_checks.check_accuracy(answers, shifts) == []
    assert output_checks.check_bit_identity(answers) == []
    assert output_checks.check_served(len(answers), len(answers)) == []
    pairs = [
        (r, sensors[r.tier].read(output_checks.requested_temp_c(a.request, r.tier), deterministic=True))
        for a in answers
        for r in a.result.readings
    ]
    assert output_checks.check_scalar_match(pairs) == []


def test_reading_moved_beyond_accuracy_fails(answers, shifts):
    moved = _with_reading(answers[3], 1, temperature_c=55.0 + 2.6)  # tier 1 was polled at 55 degC
    assert output_checks.check_accuracy([moved], shifts)
    shifted = _with_reading(answers[0], 0, dvtp=shifts[(0, 1)][1] - 4.5e-3)
    assert output_checks.check_accuracy([shifted], shifts)


def test_reading_moved_beyond_scalar_tolerance_fails(sensors, answers):
    reading = answers[0].result.readings[0]
    scalar = sensors[1].read(47.5, deterministic=True)
    nudged = dataclasses.replace(reading, temperature_c=reading.temperature_c + 2e-3)
    assert output_checks.check_scalar_match([(nudged, scalar)])
    nudged = dataclasses.replace(reading, dvtn=reading.dvtn + 2e-7)
    assert output_checks.check_scalar_match([(nudged, scalar)])


def test_dropped_or_reordered_tier_fails(answers):
    scan = answers[2]
    dropped = dataclasses.replace(
        scan, result=dataclasses.replace(scan.result, readings=scan.result.readings[:1])
    )
    assert output_checks.check_tiers([dropped], TIERS)
    swapped = dataclasses.replace(
        scan, result=dataclasses.replace(scan.result, readings=scan.result.readings[::-1])
    )
    assert output_checks.check_tiers([swapped], TIERS)
    poll = answers[3]
    short = dataclasses.replace(
        poll, result=dataclasses.replace(poll.result, readings=poll.result.readings[:-1])
    )
    assert output_checks.check_tiers([short], TIERS)


def test_count_off_by_one_fails():
    assert output_checks.check_served(100, 101)
    assert output_checks.check_served(101, 100)


def test_one_bit_across_wires_fails(answers):
    reading = answers[4].result.readings[0]
    flipped = _with_reading(answers[4], 0, temperature_c=float(np.nextafter(reading.temperature_c, 1e9)))
    assert output_checks.check_bit_identity(answers[:4] + [flipped])


def test_onchip_reading_off_truth_or_missing_fails():
    good = [({0: 50.0, 1: 61.0}, {0: 49.2, 1: 60.1})]
    assert output_checks.check_onchip_truth(good) == []
    assert output_checks.check_onchip_truth([({0: 52.0, 1: 61.0}, {0: 49.2, 1: 60.1})])
    assert output_checks.check_onchip_truth([({1: 61.0}, {0: 49.2, 1: 60.1})])


def test_onchip_replay_passes_and_fails_on_corruption():
    import onchip_loop

    loop = onchip_loop.ControlLoop(seed=3, max_rounds=3)
    for _ in range(3):
        loop.round()
    assert onchip_loop._replay_checks(loop) == []

    columns = loop.conversions.columns
    for name, change, message in (
        ("counts_ref", 1.0, "counts_ref"),
        ("temperature_c", 2e-3, "estimate"),
        ("frame_c", 1.0, "frame"),
    ):
        columns[name][1] += change
        assert any(message in m for m in onchip_loop._replay_checks(loop))
        columns[name][1] -= change
    assert onchip_loop._replay_checks(loop) == []
