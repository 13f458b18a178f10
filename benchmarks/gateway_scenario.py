"""Gateway capacity and recovery, measured live.

The scenario behind ``benchmarks/test_gateway_capacity.py``: bring up a
:class:`repro.gateway.SessionGateway` pool, measure per-frame worker
service time and per-call gateway routing overhead, sweep aggregate
frame throughput and p99 latency against session count, then SIGKILL a
loaded worker and time the recovery — the measured RTO.

``WT_BENCH_FAST=1`` shrinks the sweep for CI smoke runs.
"""

from __future__ import annotations

import os
import threading
import time

FAST = bool(os.environ.get("WT_BENCH_FAST"))

N_WORKERS = 2 if FAST else 4
SESSION_COUNTS = (1, 2, 4) if FAST else (1, 2, 4, 8)
WINDOW_SECONDS = 0.8 if FAST else 3.0
ROUTE_PROBES = 20 if FAST else 100
RECOVERY_DEADLINE = 30.0


def _quantile(sorted_xs: list[float], q: float) -> float:
    if not sorted_xs:
        return 0.0
    idx = min(len(sorted_xs) - 1, int(q * (len(sorted_xs) - 1) + 0.5))
    return sorted_xs[idx]


def _median(xs: list[float]) -> float:
    xs = sorted(xs)
    return _quantile(xs, 0.5)


def _pump(client, stop: threading.Event, latencies: list[float]) -> None:
    while not stop.is_set():
        t0 = time.perf_counter()
        try:
            client.fetch_frame()
        except Exception:  # noqa: BLE001 - a refusal still spends the slot
            time.sleep(0.01)
            continue
        latencies.append(time.perf_counter() - t0)


def _throughput_sweep(clients, session_counts, window: float) -> list[dict]:
    """Aggregate fps and p99 frame latency at each concurrency level."""
    rows = []
    for n in session_counts:
        cohort = clients[:n]
        stop = threading.Event()
        buckets: list[list[float]] = [[] for _ in cohort]
        threads = [
            threading.Thread(target=_pump, args=(c, stop, b), daemon=True)
            for c, b in zip(cohort, buckets)
        ]
        for t in threads:
            t.start()
        time.sleep(window)
        stop.set()
        for t in threads:
            t.join(timeout=10)
        latencies = sorted(x for b in buckets for x in b)
        rows.append(
            {
                "sessions": n,
                "frames": len(latencies),
                "aggregate_fps": len(latencies) / window,
                "p50_frame_seconds": _quantile(latencies, 0.5),
                "p99_frame_seconds": _quantile(latencies, 0.99),
            }
        )
    return rows


def run_capacity_scenario() -> dict:
    """The full measurement; returns the result the gate asserts on."""
    from repro.core import WindtunnelClient
    from repro.gateway import SessionGateway, default_worker_spec
    from repro.netsim import ProcessFaults

    spec = default_worker_spec(frame_wait=2.0)
    max_sessions = max(SESSION_COUNTS)
    gateway = SessionGateway(
        spec,
        n_workers=N_WORKERS,
        max_sessions_per_worker=max(2, max_sessions // N_WORKERS + 1),
        heartbeat_interval=0.2,
        liveness_deadline=1.0,
        recovery_wait=20.0,
        route_timeout=5.0,
    )
    clients: list = []
    with gateway:
        host, port = gateway.address
        try:
            clients = [
                WindtunnelClient(host, port, name=f"bench{i}")
                for i in range(max_sessions)
            ]
            for i, c in enumerate(clients):
                c.add_rake(
                    (0.4 * i - 1.5, -1.0, 0.5), (0.4 * i - 1.5, 1.0, 0.5),
                    n_seeds=4,
                )
                c.fetch_frame()  # warm every seat

            # The gateway hop alone.  wt.stats answers from the gateway's
            # own serial loop without touching a worker, so its round
            # trip is decode + route bookkeeping + re-encode.
            route_samples = []
            for _ in range(ROUTE_PROBES):
                t0 = time.perf_counter()
                clients[0].server_stats()
                route_samples.append(time.perf_counter() - t0)
            route_overhead = _median(route_samples)

            # Worker frame service time, measured with one tenant and
            # the gateway hop subtracted back out.
            solo = []
            for _ in range(ROUTE_PROBES // 2):
                t0 = time.perf_counter()
                clients[0].fetch_frame()
                solo.append(time.perf_counter() - t0)
            frame_seconds = max(1e-6, _median(solo) - route_overhead)

            sweep = _throughput_sweep(clients, SESSION_COUNTS, WINDOW_SECONDS)

            # Recovery: SIGKILL the worker under clients[0] and time the
            # gap until every one of its sessions serves frames again.
            faults = ProcessFaults(seed=6, registry=gateway.registry)
            victim = gateway.journal.worker_of(clients[0].client_id)
            victims = [
                c for c in clients
                if gateway.journal.worker_of(c.client_id) == victim
            ]
            t_kill = time.perf_counter()
            faults.kill(gateway.supervisor.handle_of(victim))
            pending = list(victims)
            while pending:
                if time.perf_counter() - t_kill > RECOVERY_DEADLINE:
                    raise TimeoutError(
                        f"{len(pending)} sessions still dark "
                        f"{RECOVERY_DEADLINE}s after the kill"
                    )
                still = []
                for c in pending:
                    try:
                        c.fetch_frame()
                    except Exception:  # noqa: BLE001 - retried to deadline
                        still.append(c)
                pending = still
                if pending:
                    time.sleep(0.05)
            rto_measured = time.perf_counter() - t_kill

            return {
                "n_workers": N_WORKERS,
                "frame_seconds": frame_seconds,
                "route_overhead_seconds": route_overhead,
                "throughput": sweep,
                "recovery": {
                    "sessions_on_victim": len(victims),
                    "rto_seconds": rto_measured,
                    "sessions_recovered": gateway.registry.counter(
                        "gateway.sessions_recovered"
                    ).value,
                    "workers_respawned": gateway.registry.counter(
                        "gateway.workers_respawned"
                    ).value,
                },
            }
        finally:
            for c in clients:
                try:
                    c.close()
                except Exception:  # noqa: BLE001 - teardown best effort
                    pass
