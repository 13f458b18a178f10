"""The live windtunnel under steering (docs/steering.md).

Sim + vis + pushed clients in one process: the solver free-runs while
``N_CLIENTS`` subscribers hold their frame budget, the pilot steers once
per interval, and every client must observe new-epoch frames within the
latency gate — with the ``insitu.*`` counters reconciling exactly.  The
measurement itself lives in :mod:`benchmarks.insitu_scenario`.
"""

import pytest

from insitu_scenario import (
    MIN_CLIENT_FPS,
    N_CLIENTS,
    STEER_LATENCY_GATE,
    run_insitu_scenario,
)


@pytest.fixture(scope="module")
def scenario_result():
    return run_insitu_scenario()


def test_every_steer_reaches_every_client(scenario_result):
    for steer in scenario_result["steering"]:
        assert steer["observed_by_all"], steer
        assert steer["latency_seconds"] < STEER_LATENCY_GATE, steer


def test_insitu_counters_reconcile_exactly(scenario_result):
    sim = scenario_result["sim"]
    assert sim["counters_reconciled"], sim
    assert sim["steer_applied"] >= len(scenario_result["steering"])


def test_clients_hold_frame_budget(scenario_result, record):
    rows = scenario_result["clients"]
    assert len(rows) == N_CLIENTS
    for row in rows:
        assert row["fps"] >= MIN_CLIENT_FPS, row

    sim = scenario_result["sim"]
    latencies = [s["latency_seconds"] for s in scenario_result["steering"]]
    lines = [
        f"sim: {sim['timesteps_published']} timesteps "
        f"({sim['sim_steps_total']} steps, reconciled="
        f"{sim['counters_reconciled']})",
        f"clients: {len(rows)} pushed, fps "
        + ", ".join(f"{r['fps']:.1f}" for r in rows)
        + f" (gate {MIN_CLIENT_FPS})",
        f"steering latency: max {max(latencies) * 1e3:.1f} ms over "
        f"{len(latencies)} steers (gate {STEER_LATENCY_GATE}s)",
    ]
    record("BENCH_10_insitu", lines)
