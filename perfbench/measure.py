"""Small measurement helpers: the pass result, percentiles and ``/proc`` readers."""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


@dataclass
class PassResult:
    """What one pass over a workload measured and checked."""

    end_to_end: Dict[str, float]
    layers: Dict[str, float]  # per-layer figures from the program's public outputs
    failures: List[str]
    attempted: int
    failed: int
    window: Tuple[float, float]  # the measured phase, CLOCK_MONOTONIC
    silicon: Dict[str, float]  # modelled conversion cost per reading, from the answers
    span_files: List[str] = field(default_factory=list)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median_per_second(starts: Sequence[float], values: Sequence[float]) -> float:
    """The median of each whole second's values, averaged over the seconds.

    ``starts`` place each value in time (seconds); a second runs from the
    first start.  The host these figures come from alternates between two
    speeds in spells of 5 to 35 s, so a run's latencies have two modes,
    and the median of the whole run jumps from one to the other with the
    share of slow time.  Averaged over seconds, each spell counts by its
    length and the figure moves in proportion to that share.
    """
    if not starts:
        raise ValueError("median of an empty sample")
    origin = min(starts)
    seconds: Dict[int, List[float]] = {}
    for start, value in zip(starts, values):
        seconds.setdefault(int(start - origin), []).append(value)
    return mean([percentile(v, 50) for v in seconds.values()])


def _stat_fields(pid: int) -> list:
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        text = handle.read()
    # The command name may hold spaces; the fields after it are fixed.
    return text[text.rindex(")") + 2 :].split()


def cpu_seconds(pids: Iterable[int]) -> float:
    """User + system CPU time of ``pids`` (all their threads), seconds."""
    total = 0
    for pid in pids:
        fields = _stat_fields(pid)
        total += int(fields[11]) + int(fields[12])  # utime, stime
    return total / CLOCK_TICKS


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Summed ``VmHWM`` (peak resident set) of ``pids``, megabytes."""
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
                    break
    return total_kb / 1024.0


def process_age_s(pid: int = 0) -> float:
    """Seconds since process ``pid`` (default: this one) started.

    ``/proc/<pid>/stat`` gives the start in clock ticks since boot, so
    the age is good to one tick (10 ms at the usual 100 Hz).
    """
    start_ticks = int(_stat_fields(pid or os.getpid())[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / CLOCK_TICKS


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def delta(after: Dict[str, float], before: Dict[str, float], key: str) -> float:
    return after.get(key, 0.0) - before.get(key, 0.0)
