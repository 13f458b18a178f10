"""The live-windtunnel soak: sim + vis + steered push clients.

One :class:`~repro.insitu.InsituWindtunnelServer` free-runs its solver
while ``N_CLIENTS`` pushed subscribers watch.  A pilot client steers the
tunnel once per ``STEER_INTERVAL`` (inflow, taper, tilt — cycling), and
the scenario measures the three things docs/steering.md promises:

* **decoupled rates** — the solver keeps publishing timesteps while
  every client holds its frame budget (pushed frames per second against
  the paper's 1/8 s interaction bound);
* **bounded steering latency** — wall seconds from an accepted
  ``wt.steer`` to *every* client holding a frame stamped with the new
  steering epoch;
* **exact accounting** — after freezing the frontier,
  ``insitu.sim_steps_total`` must equal
  ``(insitu.timesteps_published - 1) * steps_per_timestep``.

The scenario behind ``benchmarks/test_insitu_soak.py``.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import WindtunnelClient  # noqa: E402
from repro.flow.solver import SolverConfig  # noqa: E402
from repro.insitu import InsituWindtunnelServer  # noqa: E402

FAST = bool(os.environ.get("WT_BENCH_FAST"))

#: Solver grid (kept small: the lane measures coupling, not the solver).
NX, NY = (32, 16) if FAST else (64, 32)
#: Solver steps folded into each published timestep.
STEPS_PER_TIMESTEP = 2
#: Producer throttle — paces the soak without starving the pipeline.
SIM_PERIOD = 0.01
#: Pushed subscribers watching the live tunnel.
N_CLIENTS = 4
#: Steering changes issued by the pilot, one per interval.
N_STEERS = 3 if FAST else 6
STEER_INTERVAL = 0.25 if FAST else 1.0
#: The cycling change sets the pilot applies.
STEER_CYCLE = (
    {"u_inf": 2.0},
    {"taper": 0.4},
    {"angle": 20.0},
    {"u_inf": 1.0},
    {"taper": 0.0, "angle": 0.0},
)

#: Gates (generous: they bound a broken build, not a slow machine).
STEER_LATENCY_GATE = 5.0       # s from wt.steer to every client caught up
MIN_CLIENT_FPS = 4.0 if FAST else 8.0
FRAME_BUDGET_SECONDS = 0.125   # the paper's 1/8 s interaction bound


def run_insitu_scenario() -> dict:
    server = InsituWindtunnelServer(
        solver_config=SolverConfig(nx=NX, ny=NY),
        steps_per_timestep=STEPS_PER_TIMESTEP,
        ring_capacity=32,
        sim_period_seconds=SIM_PERIOD,
    )
    server.start()
    clients: list[WindtunnelClient] = []
    try:
        for i in range(N_CLIENTS):
            c = WindtunnelClient(*server.address, name=f"push-{i}")
            assert c.subscribe(push=True)["push"] is True
            clients.append(c)
        pilot = clients[0]

        start_wall = time.perf_counter()
        steers = []
        for i in range(N_STEERS):
            changes = STEER_CYCLE[i % len(STEER_CYCLE)]
            issued = time.perf_counter()
            epoch = pilot.steer(**changes)["epoch"]
            deadline = issued + STEER_LATENCY_GATE
            caught_up = False
            while time.perf_counter() < deadline:
                for c in clients:
                    c.drain_pushes(timeout=0.02)
                if all(
                    (c.latest_state or {}).get("steer_epoch", 0) >= epoch
                    for c in clients
                ):
                    caught_up = True
                    break
            latency = time.perf_counter() - issued
            steers.append(
                {
                    "epoch": epoch,
                    "changes": dict(changes),
                    "observed_by_all": caught_up,
                    "latency_seconds": latency,
                }
            )
            remaining = STEER_INTERVAL - (time.perf_counter() - issued)
            if remaining > 0:
                stop_at = time.perf_counter() + remaining
                while time.perf_counter() < stop_at:
                    for c in clients:
                        c.drain_pushes(timeout=0.02)
        elapsed = time.perf_counter() - start_wall

        # Freeze the frontier so the counters are stable, then account.
        pilot.steer(paused=True)
        deadline = time.perf_counter() + STEER_LATENCY_GATE
        while not server.producer.paused and time.perf_counter() < deadline:
            time.sleep(0.005)
        registry = pilot.metrics()["registry"]
        counters = registry["counters"]
        sim_steps = counters["insitu.sim_steps_total"]
        published = counters["insitu.timesteps_published"]
        reconciled = sim_steps == (published - 1) * STEPS_PER_TIMESTEP

        client_rows = []
        for c in clients:
            c.drain_pushes(timeout=0.05)
            fps = c.pushed_frames / elapsed if elapsed > 0 else 0.0
            client_rows.append(
                {
                    "pushed_frames": c.pushed_frames,
                    "fps": fps,
                    "frame_budget_met": fps >= 1.0 / FRAME_BUDGET_SECONDS,
                }
            )

        return {
            "elapsed_seconds": elapsed,
            "sim": {
                "timesteps_published": published,
                "sim_steps_total": sim_steps,
                "sim_rate_hz": registry["gauges"].get("insitu.sim_rate_hz", 0.0),
                "frames_behind_sim": registry["gauges"].get(
                    "insitu.frames_behind_sim", 0.0
                ),
                "steer_applied": counters.get("insitu.steer_applied", 0),
                "counters_reconciled": reconciled,
            },
            "steering": steers,
            "clients": client_rows,
            "frame_budget_seconds": FRAME_BUDGET_SECONDS,
        }
    finally:
        for c in clients:
            c.close()
        server.stop()
