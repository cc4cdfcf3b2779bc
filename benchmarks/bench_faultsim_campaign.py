"""Faultsim overhead benchmark: the faults layer must be free when idle.

Two contracts, from the fault subsystem's acceptance bar:

* **no active plan** (the default) costs one module-global read per
  injection seam — sensor reads and bus collections check
  ``active_injector()`` and move on, so an uninstrumented polling loop
  must not regress;
* **zero-fault plan active** consumes no randomness and perturbs
  nothing, so a campaign's control plan must track the bare loop — the
  golden bit-identity test (tests/test_faults.py) proves the values
  match; this file pins the time.

Wall-clock ratios on shared CI boxes are noisy, so the timing assertion
uses a generous bound (25 %) while the printed number documents the real
overhead (measured in the noise — often negative — on a quiet machine);
the bare and campaign runs alternate, so a slow spell of the host slows
both arms rather than one.  The structural assertions are exact.
"""

import time

from repro import faults
from repro.faults import FaultInjector, FaultPlan
from repro.faults.campaign import CampaignConfig, _build_stack, run_plan

TIERS = 8
ROUNDS = 6
REPEATS = 3
MAX_OVERHEAD_RATIO = 1.25


def _config():
    return CampaignConfig(tiers=TIERS, rounds=ROUNDS)


def _alternating_best_of(arms, repeats=REPEATS):
    """Each arm's best time, running the arms in turn ``repeats`` times."""
    best = [float("inf")] * len(arms)
    for _ in range(repeats):
        for index, fn in enumerate(arms):
            started = time.perf_counter()
            fn()
            best[index] = min(best[index], time.perf_counter() - started)
    return best


def _bare_loop(config):
    monitor = _build_stack(config)
    for r in range(config.rounds):
        monitor.poll({t: config.truth_c(t, r) for t in range(config.tiers)})


def test_idle_seams_are_structurally_free():
    """With no plan active the seams see None and touch nothing else."""
    assert faults.active_injector() is None
    with faults.inject(FaultPlan()) as injector:
        assert faults.active_injector() is injector
    assert faults.active_injector() is None


def test_empty_plan_consumes_no_randomness():
    injector = FaultInjector(FaultPlan())
    before = injector._rng.bit_generator.state
    for tier in range(TIERS):
        injector.filter_frame(tier, 0x5A5A5A5A5A, hops=tier)
        injector.advance()
    assert injector._rng.bit_generator.state == before


def test_zero_fault_campaign_tracks_uninstrumented_loop():
    config = _config()
    plan = FaultPlan(name="zero-fault")

    _bare_loop(config)  # warm the shared design cache for both sides
    bare, smoke = _alternating_best_of(
        (lambda: _bare_loop(config), lambda: run_plan(plan, config))
    )

    ratio = smoke / bare
    print(
        f"\nzero-fault faultsim overhead: bare {bare*1e3:.1f} ms, "
        f"campaign {smoke*1e3:.1f} ms, ratio {ratio:.3f}"
    )
    assert ratio < MAX_OVERHEAD_RATIO, (
        f"zero-fault campaign is {ratio:.2f}x the uninstrumented loop "
        f"(limit {MAX_OVERHEAD_RATIO}x)"
    )
