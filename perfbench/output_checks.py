"""Checks on the program's outputs, run after the timed phase.

Each check compares an output with a computation made apart from the code
under test (the scalar ``core`` conversion, a replay through
``batch.read_paired``, the thermal truth, the client's own count) or with
a property the method must have.  Every check returns a list of failure
messages; an empty list means the outputs passed.  The functions take
plain data so ``test_output_checks.py`` can feed them corrupted outputs.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.serve.requests import ReadRequest, RequestKind

# The batch engine's documented agreement with the scalar path.
TEMP_TOL_K = 1e-3
VOLT_TOL_V = 1e-7
# The test suite's accuracy class of an estimate against its truth.
ACCURACY_C = 2.5
VT_ACCURACY_V = 4e-3
# A TSV frame carries the temperature rounded to whole degrees.
FRAME_STEP_C = 1.0

_NUMERIC_FIELDS = ("temperature_c", "dvtn", "dvtp", "conversion_time", "energy_j")


def _report(name: str, failures: List[str], limit: int = 5) -> List[str]:
    if len(failures) <= limit:
        return [f"{name}: {message}" for message in failures]
    return [f"{name}: {message}" for message in failures[:limit]] + [
        f"{name}: ... and {len(failures) - limit} more"
    ]


def expected_tiers(request: ReadRequest, stack_tiers: int) -> Tuple[int, ...]:
    """The tiers an answer to ``request`` must carry, in order."""
    if request.kind in (RequestKind.POINT_READ, RequestKind.VT_EXTRACT):
        return (request.tier,)
    if request.kind is RequestKind.TIER_SCAN:
        return tuple(range(stack_tiers)) if request.tiers is None else tuple(request.tiers)
    return tuple(range(stack_tiers))


def requested_temp_c(request: ReadRequest, tier: int) -> float:
    """The true temperature ``request`` asked ``tier`` to be read at."""
    if request.kind is RequestKind.STACK_POLL:
        return (request.temps_c or {}).get(tier, request.temp_c)
    return request.temp_c


def check_tiers(answers: Iterable, stack_tiers: int) -> List[str]:
    """Every answer carries exactly the requested tiers, in order."""
    failures = []
    for answer in answers:
        got = tuple(r.tier for r in answer.result.readings)
        want = expected_tiers(answer.request, stack_tiers)
        if got != want:
            failures.append(
                f"{answer.request.kind.value} on stack {answer.stack} answered "
                f"tiers {got}, asked for {want}"
            )
    return _report("tiers", failures)


def check_accuracy(
    answers: Iterable, true_shifts: Mapping[Tuple[int, int], Tuple[float, float]]
) -> List[str]:
    """Every estimate lies within the accuracy class of its truth.

    ``true_shifts`` maps ``(shard, tier)`` to the die's true
    ``(dV_tn, dV_tp)`` at the sensor site.
    """
    failures = []
    for answer in answers:
        for reading in answer.result.readings:
            truth_c = requested_temp_c(answer.request, reading.tier)
            error_c = reading.temperature_c - truth_c
            if not abs(error_c) <= ACCURACY_C:
                failures.append(
                    f"shard {answer.result.shard} tier {reading.tier} read "
                    f"{reading.temperature_c:.3f} degC at {truth_c:.3f} degC"
                )
            dvtn, dvtp = true_shifts[(answer.result.shard, reading.tier)]
            for label, got, want in (("dVtn", reading.dvtn, dvtn), ("dVtp", reading.dvtp, dvtp)):
                if not abs(got - want) <= VT_ACCURACY_V:
                    failures.append(
                        f"shard {answer.result.shard} tier {reading.tier} {label} "
                        f"{got * 1e3:.3f} mV, die has {want * 1e3:.3f} mV"
                    )
    return _report("accuracy", failures)


def check_scalar_match(pairs: Iterable[Tuple[object, object]]) -> List[str]:
    """Served readings equal the scalar conversion within the engine tolerances.

    ``pairs`` holds ``(served TierReading, scalar SensorReading)`` of the
    same die at the same requested temperature.
    """
    failures = []
    for served, scalar in pairs:
        gaps = (
            ("temperature", served.temperature_c - scalar.temperature_c, TEMP_TOL_K),
            ("dVtn", served.dvtn - scalar.dvtn, VOLT_TOL_V),
            ("dVtp", served.dvtp - scalar.dvtp, VOLT_TOL_V),
        )
        for label, gap, tolerance in gaps:
            if not abs(gap) <= tolerance:
                failures.append(
                    f"tier {served.tier} {label} differs from the scalar "
                    f"conversion by {gap:.3e} (tolerance {tolerance:.0e})"
                )
    return _report("scalar", failures)


def check_served(ok_answers: int, served_delta: int) -> List[str]:
    """The client's count of answered requests equals the shards' ``served``."""
    if ok_answers == served_delta:
        return []
    return [
        f"served: the client counted {ok_answers} answered requests, "
        f"the shards served {served_delta}"
    ]


def check_bit_identity(answers: Iterable) -> List[str]:
    """All readings of one (shard, tier, temperature) are bit-identical.

    Holds across wires and whether or not a reading came from the cache.
    """
    values: Dict[Tuple, set] = defaultdict(set)
    wires: Dict[Tuple, set] = defaultdict(set)
    for answer in answers:
        for reading in answer.result.readings:
            key = (
                answer.result.shard,
                reading.tier,
                requested_temp_c(answer.request, reading.tier),
            )
            values[key].add(tuple(float(getattr(reading, f)).hex() for f in _NUMERIC_FIELDS))
            wires[key].add(answer.wire)
    failures = [
        f"shard {key[0]} tier {key[1]} at {key[2]} degC has {len(seen)} distinct "
        f"readings over {sorted(wires[key])}"
        for key, seen in sorted(values.items())
        if len(seen) != 1
    ]
    return _report("bit-identity", failures)


def check_onchip_truth(rounds: Iterable[Tuple[Mapping[int, float], Mapping[int, float]]]) -> List[str]:
    """Every reading lies within the accuracy class of the thermal truth.

    ``rounds`` holds ``(readings_c, truth_c)`` per control round, both keyed
    by tier; a tier missing from the readings is a failure too.
    """
    failures = []
    for index, (readings, truth) in enumerate(rounds):
        for tier, truth_c in truth.items():
            if tier not in readings:
                failures.append(f"round {index}: tier {tier} delivered no reading")
                continue
            if not abs(readings[tier] - truth_c) <= ACCURACY_C:
                failures.append(
                    f"round {index}: tier {tier} read {readings[tier]:.2f} degC, "
                    f"truth {truth_c:.2f} degC"
                )
    return _report("truth", failures)


def check_replay(
    run: Sequence[Mapping[str, float]],
    replay: Mapping[str, Sequence[float]],
) -> List[str]:
    """The run's conversions replay through ``batch.read_paired``.

    ``run`` holds one record per conversion, in order: its counter values,
    its temperature estimate and the temperature its TSV frame carried.
    ``replay`` holds the replayed arrays under the same names.  Counter
    values must be bit-identical; the estimates must agree within the
    engine tolerance, and the frames within half a frame step of it.
    """
    failures = []
    if len(run) != len(replay["temperature_c"]):
        return [f"replay: {len(run)} conversions ran, {len(replay['temperature_c'])} replayed"]
    for i, conversion in enumerate(run):
        for counter in ("counts_n", "counts_p", "counts_ref"):
            if int(conversion[counter]) != int(replay[counter][i]):
                failures.append(
                    f"conversion {i}: {counter} {int(conversion[counter])} ran, "
                    f"{int(replay[counter][i])} replayed"
                )
        replayed_c = float(replay["temperature_c"][i])
        if not abs(conversion["temperature_c"] - replayed_c) <= TEMP_TOL_K:
            failures.append(
                f"conversion {i}: estimate {conversion['temperature_c']:.6f} degC ran, "
                f"{replayed_c:.6f} degC replayed"
            )
        if not abs(conversion["frame_c"] - replayed_c) <= FRAME_STEP_C / 2 + TEMP_TOL_K:
            failures.append(
                f"conversion {i}: frame {conversion['frame_c']:.1f} degC, "
                f"replayed estimate {replayed_c:.6f} degC"
            )
    return _report("replay", failures)
