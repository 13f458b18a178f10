"""The tiered timestep cache at fleet scale (docs/caching.md).

Table 2 prices one session against one disk; this lane prices N
co-located sessions against one *shared* tier-2 segment and checks the
bandwidth wall collapses: aggregate modeled disk time stays within
``RATIO_GATE`` of a single uncached session, the tier-2 hit rate clears
its floor, and frames produced through the cache are bit-identical to
the uncached path.  The measurement itself lives in
:mod:`benchmarks.cache_scenario`.
"""

import pytest

from cache_scenario import (
    L2_HIT_GATE,
    N_SESSIONS,
    RATIO_GATE,
    run_cache_scenario,
)


@pytest.fixture(scope="module")
def scenario_result():
    return run_cache_scenario()


def test_colocated_sessions_collapse_disk_reads(scenario_result, record):
    base = scenario_result["baseline"]
    fleet = scenario_result["fleet"]
    lines = [
        f"baseline: {base['source_reads']} reads, "
        f"{base['disk_seconds'] * 1e3:.2f} ms modeled (1 session)",
        f"fleet:    {fleet['source_reads']} reads, "
        f"{fleet['disk_seconds'] * 1e3:.2f} ms modeled "
        f"({N_SESSIONS} sessions)",
        f"ratio:    {scenario_result['aggregate_disk_ratio']:.2f}x "
        f"(gate {RATIO_GATE}x)",
        f"l2 hits:  {fleet['l2_hit_rate']:.1%} (gate {L2_HIT_GATE:.0%})",
    ]
    record("BENCH_9_cache_tiers", lines)
    assert scenario_result["aggregate_disk_ratio"] <= RATIO_GATE
    assert fleet["l2_hit_rate"] >= L2_HIT_GATE


def test_cache_is_transparent(scenario_result):
    assert scenario_result["frames_identical"]


def test_counters_reconcile_with_injected_load(scenario_result):
    fleet = scenario_result["fleet"]
    # Every access is served by exactly one tier.
    assert (
        fleet["l1_hits"] + fleet["l2_hits"] + fleet["source_reads"]
        == fleet["accesses"]
    )

