"""Gateway capacity and recovery time (issue 6).

Runs the live scenario from :mod:`benchmarks.gateway_scenario` and gates
on what must always hold, fast machine or slow: throughput grows (or at
least does not collapse) with session count, and a SIGKILLed worker's
sessions are all serving again inside the recovery deadline with the
gateway's counters reconciled.
"""

from gateway_scenario import FAST, RECOVERY_DEADLINE, run_capacity_scenario


def test_gateway_capacity_and_recovery(record):
    result = run_capacity_scenario()

    sweep = result["throughput"]
    assert all(row["frames"] > 0 for row in sweep), "a cohort starved"
    solo_fps = sweep[0]["aggregate_fps"]
    peak = sweep[-1]
    # More sessions must not collapse the pool below a lone client's
    # throughput — admission and placement are doing their job.
    assert peak["aggregate_fps"] >= 0.5 * solo_fps

    rec = result["recovery"]
    assert rec["rto_seconds"] < RECOVERY_DEADLINE
    assert rec["workers_respawned"] == 1
    assert rec["sessions_recovered"] == rec["sessions_on_victim"]

    record(
        "gateway_capacity",
        [
            f"workers: {result['n_workers']}  (fast={FAST})",
            f"frame_seconds: {result['frame_seconds'] * 1e3:.2f} ms, "
            f"route_overhead: {result['route_overhead_seconds'] * 1e3:.2f} ms",
            *(
                f"{row['sessions']} sessions: "
                f"{row['aggregate_fps']:.1f} fps aggregate, "
                f"p99 {row['p99_frame_seconds'] * 1e3:.1f} ms"
                for row in sweep
            ),
            f"SIGKILL recovery: {rec['sessions_on_victim']} sessions back "
            f"in {rec['rto_seconds']:.2f}s",
            "the supervised pool keeps every seat warm through a worker",
            "crash — sessions resume by token, rakes and clock intact.",
        ],
    )
