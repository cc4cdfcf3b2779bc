"""Tests of the measurement helpers.

    python3 -m pytest perfbench/test_measure.py -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import measure  # noqa: E402


def test_median_per_second_weighs_each_second_once():
    # Three fast seconds of 100 rounds at 10 ms, then one slow second of
    # 50 rounds at 20 ms: the whole-run median sits in the fast mode,
    # the per-second figure moves by the slow second's share of the time.
    starts = [s + i / 100 for s in range(3) for i in range(100)] + [3 + i / 50 for i in range(50)]
    values = [10.0] * 300 + [20.0] * 50
    assert measure.percentile(values, 50) == 10.0
    assert measure.median_per_second(starts, values) == pytest.approx(12.5)


def test_median_per_second_is_the_median_within_one_second():
    assert measure.median_per_second([5.0, 5.2, 5.9], [3.0, 1.0, 2.0]) == 2.0
    with pytest.raises(ValueError):
        measure.median_per_second([], [])
