"""The four scripted sessions of the end-to-end benchmark.

Every workload is a closed loop in lock-step: cycle *k* issues one
scripted command that forces a fresh frame (rake drag, clock ``step``,
steer), waits for that frame's photon, and only then issues cycle *k+1*.
Nothing is paced by the wall clock, so frame, byte and point counts are
functions of the script alone.  A script is a pure function of the seed;
the program under test sees only the generated inputs.

Shared shape (driven by :mod:`harness`): ``open`` builds the session up
to its first rendered frame (that is ``setup_s``), ``cycle`` is the timed
command-to-photon step, ``verify`` the untimed output check after it,
``finish`` the end-of-run checks, ``stats``/``trace_points``/``probes``
feed the traced run's per-layer table.
"""

from __future__ import annotations

import math
import time

import numpy as np

from harness import CheckFailed, Window, median, merge_pipeline_stats, \
    merge_registries, run_window

_NO_NETSIM = {"delay": 0.0, "bytes": 0}

#: ``host_share`` of the two workloads whose cycle is mostly NumPy in an
#: in-process server (``drag``, ``live_steer``).  The best fit moves with the
#: kind of slow spell the host is in — 0.4 across one pair of A/A sets, 0.9
#: across the next — and 0.65 is the least bad over all 80 runs of each.
NUMPY_SHARE = 0.65


def _rake_script(rng, n: int, x0: float, dx: float, half: float, z0: float, dz: float,
                 jitter: float, axis_half: float = 0.0) -> list:
    """``n`` spanwise rakes marching downstream, each jittered by the seed."""
    rakes = []
    for i in range(n):
        x = x0 + dx * i + rng.uniform(-jitter, jitter)
        z = z0 + dz * i + rng.uniform(-jitter, jitter) * 0.5
        h = half + rng.uniform(-jitter, jitter)
        rakes.append([[x, axis_half - h, z], [x, axis_half + h, z]])
    return rakes


def _head_pose(eye) -> np.ndarray:
    pose = np.eye(4)  # the camera looks down its -Z axis
    pose[:3, 3] = eye
    return pose


def _check_paths(state: dict, n_rakes: int, n_seeds: int) -> None:
    paths = state["paths"]
    if len(paths) != n_rakes:
        raise CheckFailed(f"{len(paths)} rakes in the frame, expected {n_rakes}")
    for rid, entry in paths.items():
        vertices, lengths = entry["vertices"], np.asarray(entry["lengths"])
        if vertices.shape[0] != n_seeds or lengths.shape != (n_seeds,):
            raise CheckFailed(f"rake {rid} has {vertices.shape[0]} polylines")
        if lengths.min() < 1 or not np.isfinite(vertices).all():
            raise CheckFailed(f"rake {rid} has an empty or non-finite polyline")


def _points(state: dict) -> int:
    return int(sum(np.asarray(e["lengths"]).sum() for e in state["paths"].values()))


def _reference_frame(dataset, rakes: dict, timestep: int) -> dict:
    """Server-free compute of one frame: rake id -> float32 wire vertices."""
    from repro import ComputeEngine, Rake

    engine = ComputeEngine(dataset)
    built = {
        rid: Rake(r["end_a"], r["end_b"], n_seeds=r["n_seeds"], kind=r["kind"],
                  rake_id=rid)
        for rid, r in rakes.items()
    }
    results = engine.compute_rakes(built, timestep)
    return {rid: res.wire_arrays()[0] for rid, res in results.items()}


def _ping_ms(address, n: int = 50) -> float:
    """Median empty round trip on a fresh, unthrottled connection."""
    from repro.dlib.client import DlibClient

    samples = []
    with DlibClient(*address) as probe:
        for _ in range(n):
            t0 = time.perf_counter()
            probe.ping()
            samples.append(time.perf_counter() - t0)
    return median(samples) * 1e3


def _dlib_trace_points() -> list:
    """Both sides of the wire codec, as imported by the modules using it."""
    import repro.dlib.client
    import repro.dlib.server

    return [
        (module, attr, name)
        for module in (repro.dlib.client, repro.dlib.server)
        for attr, name in (("encode_message", "dlib.encode"),
                           ("decode_message_ex", "dlib.decode"))
    ]


class Workload:
    """Defaults shared by the single-server, single-driver workloads."""

    name = ""
    why = ""
    sessions = 1       # driver threads (closed loops run side by side)
    clients = 1        # client connections generating load
    rate = 1.0         # nominal cycles/s/session on the reference host
    warmup = 0         # cycles after first photon, discarded
    smoke_cycles = 12  # --smoke window
    # Fresh set-ups timed per run beside the measuring process's own (three
    # to six seconds' worth); ``setup_s`` is the median of all of them.
    setup_repeats = 2
    # Lock-step all the way down: byte and frame counts are functions of the
    # script alone, so ``wire_kb_per_frame`` must repeat exactly (bound 0).
    lock_step = True
    # How much of the reference kernels' slowdown this workload's unslept
    # time follows (README, noise rule 7).  Empirical: 1 where the
    # interpreter does the work (the relay, the client side of a replay),
    # NUMPY_SHARE where streaming NumPy in the server does.
    host_share = 1.0

    def __init__(self) -> None:
        self.frames = 0
        self.streams: list = []
        self.server = None
        self.client = None
        self.viewer = None           # live_steer's second client
        self.gateway = None          # gateway_mix's front door ...
        self.session_clients: list = []  # ... and its one client per session
        self.host = None  # the run's HostSpeed reference, for probe windows

    # -- accounting -----------------------------------------------------------

    def delivered(self) -> tuple[int, int]:
        """(frames delivered to clients, client wire bytes) so far."""
        wire = sum(s.bytes_sent + s.bytes_received for s in self.streams)
        return self.frames, wire

    def worker_pids(self) -> list[int]:
        return []

    def modeled_sleep(self) -> float:
        """Seconds the driver has slept so far for a modeled link: wall time
        of the program's own making, which no host speed shortens."""
        return 0.0

    def rendered_points(self) -> int:
        return _points(self.client.latest_state)

    # -- the traced run ---------------------------------------------------------

    def stats(self) -> dict:
        """Public stats surfaces of the (single, in-process) server."""
        return {
            "pipeline": merge_pipeline_stats([self.client.pipeline_stats()]),
            "registry": merge_registries([self.client.metrics(0)["registry"]]),
            "points_computed": self.client.server_stats()["points_computed"],
            "netsim": self._netsim(),
        }

    def _netsim(self) -> dict:
        return _NO_NETSIM

    def trace_points(self) -> list:
        points = _dlib_trace_points() + [
            (self.client, "fetch_frame", "client.fetch"),
            (self.client, "render", "client.render"),
            (self.server.engine, "compute_rakes", "engine.compute_rakes"),
        ]
        loader = self.server.engine.loader
        if loader is not None:
            points += [(loader, "load", "diskio.load"),
                       (loader.cache, "get", "diskio.get"),
                       (loader.cache, "append", "diskio.append")]
        return points

    def probes(self, plain: Window, ks, next_k: int) -> dict:
        return {"ping_ms": _ping_ms(self.server.address)}

    def layer_checks(self, layers: dict, traced_ks) -> dict:
        """Output checks that need the traced window's layer table."""
        return {}

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
        if self.server is not None:
            self.server.stop()


# -- drag ------------------------------------------------------------------------------


class Drag(Workload):
    name = "drag"
    why = ("glove-to-photon rake drag on an in-memory 64x64x32 grid over loopback: "
           "tracers, engine, pipeline and render do the work; diskio, netsim, "
           "gateway and insitu do none")
    rate = 15.0
    warmup = 20
    host_share = NUMPY_SHARE
    sample_every = 50
    SHAPE, TIMESTEPS, RAKES, SEEDS = (64, 64, 32), 4, 8, 16

    @staticmethod
    def script(seed: int) -> dict:
        rng = np.random.default_rng([seed, 1])
        return {
            "rakes": _rake_script(rng, Drag.RAKES, -9.0, 0.7, 2.5, 0.5, 0.4, 0.2),
            "hand": {"radius": rng.uniform(0.2, 0.4),
                     "period": int(rng.integers(32, 49)),
                     "phase": rng.uniform(0.0, 2 * math.pi)},
            "eye": [rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5), 10.0],
        }

    def hand_at(self, k: int) -> np.ndarray:
        """Hand position of cycle ``k``: a circle through rake 1's centre,
        one step along per cycle, so the dragged rake moves every frame."""
        h = self._script["hand"]
        a0, a = h["phase"], h["phase"] + 2 * math.pi * (k + 1) / h["period"]
        offset = h["radius"] * np.array(
            [math.cos(a) - math.cos(a0), math.sin(a) - math.sin(a0), 0.0])
        return self._grab + offset

    def open(self, script: dict, tmp: str) -> None:
        from repro import WindtunnelClient, WindtunnelServer, tapered_cylinder_dataset
        from repro.dlib.transport import connect_tcp

        self._script = script
        self.dataset = tapered_cylinder_dataset(shape=self.SHAPE,
                                                n_timesteps=self.TIMESTEPS)
        self.server = WindtunnelServer(self.dataset).start()
        self.streams = [connect_tcp(*self.server.address)]
        self.client = WindtunnelClient(stream=self.streams[0], name="pilot")
        self.client.time_control("pause")
        self.client.time_control("scrub", 0)
        for end_a, end_b in script["rakes"]:
            self.client.add_rake(end_a, end_b, n_seeds=self.SEEDS)
        self._head = _head_pose(script["eye"])
        first = script["rakes"][0]
        self._grab = 0.5 * (np.array(first[0]) + np.array(first[1]))
        self._samples: list = []
        # First photon: the fist closes on rake 1's centre and holds it.
        self.client.frame(self._head, self._grab, "fist")
        self._prev = self.client.latest_state["paths"]

    def cycle(self, session: int, k: int) -> dict:
        self.client.frame(self._head, self.hand_at(k), "fist")
        self.frames += 1
        return self.client.latest_state

    def verify(self, session: int, k: int, state: dict) -> None:
        _check_paths(state, self.RAKES, self.SEEDS)
        prev, paths, self._prev = self._prev, state["paths"], state["paths"]
        for rid, entry in paths.items():
            same = np.array_equal(entry["vertices"], prev[rid]["vertices"])
            if same == (rid == "1"):
                raise CheckFailed(
                    f"rake {rid} {'did not move' if same else 'changed'} at cycle {k}")
        held = state["env"]["rakes"]["1"]
        centre = 0.5 * (np.array(held["end_a"]) + np.array(held["end_b"]))
        if not np.allclose(centre, self.hand_at(k).astype(np.float32), atol=1e-5):
            raise CheckFailed(f"frame of cycle {k} is not at the scripted hand")
        if k % self.sample_every == 0:
            self._samples.append((k, state["env"]["rakes"], paths))

    def finish(self) -> dict:
        ok = bool(self._samples)
        for _k, rakes, paths in self._samples:
            reference = _reference_frame(
                self.dataset, {int(rid): r for rid, r in rakes.items()}, 0)
            ok &= all(
                np.allclose(paths[str(rid)]["vertices"], ref, rtol=0, atol=1e-4)
                for rid, ref in reference.items())
        return {"sampled_frames_match_reference": ok}

    def trace_points(self) -> list:
        return super().trace_points() + [
            (self.client, "send_input", "client.send_input")]


# -- replay_paper ----------------------------------------------------------------------


class ReplayPaper(Workload):
    name = "replay_paper"
    why = ("the paper's constrained session: 16 timesteps behind a 30 MB/s disk model "
           "and a 1 MB/s wire, q16 deltas, clock stepped each cycle: netsim, diskio "
           "and the v2 encoder decide; compute hides")
    rate = 5.0
    warmup = 10
    sample_every = 25
    SHAPE, TIMESTEPS, RAKES, SEEDS = (64, 64, 32), 16, 8, 16

    @staticmethod
    def script(seed: int) -> dict:
        rng = np.random.default_rng([seed, 2])
        return {
            "rakes": _rake_script(rng, ReplayPaper.RAKES, -9.0, 0.7, 2.5, 0.5, 0.4, 0.2),
            "eye": [rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5), 10.0],
        }

    def open(self, script: dict, tmp: str) -> None:
        from repro import DiskDataset, WindtunnelClient, WindtunnelServer, \
            tapered_cylinder_dataset
        from repro.diskio import CONVEX_DISK, TimestepLoader
        from repro.dlib.transport import connect_tcp
        from repro.netsim import ULTRANET_ACTUAL, ThrottledChannel

        path = tapered_cylinder_dataset(
            shape=self.SHAPE, n_timesteps=self.TIMESTEPS).save(f"{tmp}/replay")
        self.dataset = DiskDataset(path)
        loader = TimestepLoader(self.dataset, CONVEX_DISK, prefetch=True, capacity=2)
        self.server = WindtunnelServer(self.dataset, loader=loader).start()
        self.streams = [ThrottledChannel(connect_tcp(*self.server.address),
                                         ULTRANET_ACTUAL)]
        self.client = WindtunnelClient(stream=self.streams[0], name="pilot")
        self.client.time_control("pause")
        self.client.time_control("scrub", 0)
        for end_a, end_b in script["rakes"]:
            self.client.add_rake(end_a, end_b, n_seeds=self.SEEDS)
        self.client.subscribe(encoding="q16", deltas=True)
        self._head = _head_pose(script["eye"])
        self._steps = 0
        self._samples: list = []
        self.client.fetch_frame()
        self.client.render(self._head)

    def cycle(self, session: int, k: int) -> dict:
        self.client.time_control("step", 1)
        self._steps += 1
        state = self.client.fetch_frame()
        self.client.render(self._head)
        self.frames += 1
        return state

    def verify(self, session: int, k: int, state: dict) -> None:
        expected = self._steps % self.TIMESTEPS
        if state["timestep"] != expected:
            raise CheckFailed(
                f"cycle {k} showed timestep {state['timestep']}, expected {expected}")
        _check_paths(state, self.RAKES, self.SEEDS)
        if k % self.sample_every == 0:
            self._samples.append((expected, state["env"]["rakes"], state["paths"]))

    def finish(self) -> dict:
        from repro.dlib.protocol import quantization_error_bound, quantize_points

        ok = bool(self._samples)
        for timestep, rakes, paths in self._samples:
            reference = _reference_frame(
                self.dataset, {int(rid): r for rid, r in rakes.items()}, timestep)
            for rid, ref in reference.items():
                bound = quantization_error_bound(quantize_points(ref))
                error = np.abs(paths[str(rid)]["vertices"] - ref).max()
                ok &= bool(error <= bound)
        return {"sampled_q16_within_quantization_bound": ok}

    def modeled_sleep(self) -> float:
        return self.streams[0].modeled_delay_total

    def _netsim(self) -> dict:
        chan = self.streams[0]
        return {"delay": chan.modeled_delay_total,
                "bytes": chan.bytes_sent + chan.bytes_received}

    def trace_points(self) -> list:
        return super().trace_points() + [
            (self.client, "time_control", "client.send_input")]


# -- gateway_mix -----------------------------------------------------------------------


class GatewayMix(Workload):
    name = "gateway_mix"
    why = ("the fleet front door: two sessions on two workers behind one gateway, seven "
           "cached reads per journaled write: the relay (decode, route, blocking "
           "forward, re-encode) is most of a read")
    sessions = 2
    clients = 2
    rate = 140.0
    warmup = 32
    setup_repeats = 5
    smoke_cycles = 160
    write_every = 8
    SHAPE, TIMESTEPS, RAKES, SEEDS = (16, 16, 8), 8, 2, 4

    @staticmethod
    def script(seed: int) -> dict:
        rng = np.random.default_rng([seed, 3])
        return {"rakes": [
            _rake_script(rng, GatewayMix.RAKES, -6.0 + s, 1.5, 1.5, 1.0, 1.0, 0.2)
            for s in range(GatewayMix.sessions)]}

    def open(self, script: dict, tmp: str) -> None:
        from repro import SessionGateway, WindtunnelClient
        from repro.dlib.transport import connect_tcp
        from repro.gateway import default_worker_spec

        self._script = script
        self.gateway = SessionGateway(
            default_worker_spec(shape=self.SHAPE, n_timesteps=self.TIMESTEPS,
                                frame_wait=2.0),
            n_workers=2, min_frame_interval=0.0,
            # The supervisor's 2 Hz wt.health probes are paced by the wall
            # clock; parked, so message and syscall counts repeat exactly.
            heartbeat_interval=3600.0).start()
        self.streams = [connect_tcp(*self.gateway.address)
                        for _ in range(self.sessions)]
        self.session_clients = [
            WindtunnelClient(stream=stream, name=f"session-{s}")
            for s, stream in enumerate(self.streams)]
        self.client = self.session_clients[0]
        self._writes = [0] * self.sessions
        self._journaled = [0] * self.sessions  # writes found in the journal
        self._prev = [None] * self.sessions
        self._session_frames = [0] * self.sessions
        for client, rakes in zip(self.session_clients, script["rakes"]):
            client.time_control("pause")
            client.time_control("scrub", 0)
            for end_a, end_b in rakes:
                client.add_rake(end_a, end_b, n_seeds=self.SEEDS)
        for s, client in enumerate(self.session_clients):
            self._prev[s] = client.fetch_frame()  # first photon of each seat

    def worker_of(self, session: int) -> str:
        return self.session_clients[session].dataset_info["worker"]

    def worker_pids(self) -> list[int]:
        supervisor = self.gateway.supervisor
        return [supervisor.handle_of(w).pid for w in supervisor.worker_names]

    def delivered(self) -> tuple[int, int]:
        self.frames = sum(self._session_frames)
        return super().delivered()

    def rendered_points(self) -> int:
        return 0  # no render: the front door is measured to the decoded frame

    def is_write(self, k: int) -> bool:
        return k % self.write_every == 0

    def cycle(self, session: int, k: int) -> dict:
        client = self.session_clients[session]
        if self.is_write(k):
            # The journaled write: the gateway records the clock, forwards,
            # and the worker must produce a fresh frame for the next read.
            client.time_control("step", 1)
            self._writes[session] += 1
        state = client.fetch_frame()
        self._session_frames[session] += 1
        return state

    def verify(self, session: int, k: int, state: dict) -> None:
        expected = self._writes[session] % self.TIMESTEPS
        if state["timestep"] != expected:
            raise CheckFailed(
                f"session {session} cycle {k}: timestep {state['timestep']}, "
                f"expected {expected}")
        _check_paths(state, self.RAKES, self.SEEDS)
        prev, self._prev[session] = self._prev[session], state
        if self.is_write(k):
            # The journal keeps the latest clock per worker, not a log, so
            # each write is looked up right after it lands.
            clock = self.gateway.journal.recovery_state(self.worker_of(session))["clock"]
            if clock is None or clock["timestep"] != expected:
                raise CheckFailed(
                    f"session {session}: write {self._writes[session]} of cycle {k} "
                    f"is not in the journal (holds {clock})")
            self._journaled[session] += 1
        else:
            for rid, entry in state["paths"].items():
                if not np.array_equal(entry["vertices"], prev["paths"][rid]["vertices"]):
                    raise CheckFailed(f"session {session}: read {k} changed rake {rid}")
        mine = self._script["rakes"][session]
        seen = [[r["end_a"], r["end_b"]] for r in state["env"]["rakes"].values()]
        if not np.allclose(seen, mine):
            raise CheckFailed(f"session {session} sees rakes that are not its own")

    def finish(self) -> dict:
        return {
            "one_session_per_worker":
                len({self.worker_of(s) for s in range(self.sessions)}) == self.sessions,
            "journal_holds_every_write":
                sum(self._writes) > 0 and self._journaled == self._writes,
        }

    def layer_checks(self, layers: dict, traced_ks) -> dict:
        scripted = self.sessions * sum(1 for k in traced_ks if self.is_write(k))
        return {"journal_entries_equal_scripted_writes":
                layers["gateway.journal_entries"]["value"] == scripted}

    def _worker_probe(self, worker: str):
        from repro.dlib.client import DlibClient

        return DlibClient(*self.gateway.supervisor.address_of(worker))

    def stats(self) -> dict:
        registries = [self.client.metrics(0)["registry"]]
        points = 0
        for worker in self.gateway.supervisor.worker_names:
            with self._worker_probe(worker) as probe:
                registries.append(probe.call("wt.metrics", 0, 0)["registry"])
                points += probe.call("wt.stats")["points_computed"]
        return {
            "pipeline": merge_pipeline_stats(
                [c.pipeline_stats() for c in self.session_clients]),
            "registry": merge_registries(registries),
            "points_computed": points,
            "netsim": _NO_NETSIM,
        }

    def trace_points(self) -> list:
        points = _dlib_trace_points() + [
            (self.gateway.journal, "record_clock", "gateway.journal")]
        for client in self.session_clients:
            points += [(client, "time_control", "client.send_input"),
                       (client, "fetch_frame", "client.fetch")]
        return points

    def probes(self, plain: Window, ks, next_k: int) -> dict:
        reads = [x for lat in plain.latencies
                 for k, x in zip(ks, lat) if not self.is_write(k)]
        writes = [x for lat in plain.latencies
                  for k, x in zip(ks, lat) if self.is_write(k)]
        # One session alone: the same script through the same front door.
        solo_ks = range(next_k, next_k + len(ks))
        solo = run_window(self, solo_ks, sessions=[0], host=self.host)
        solo_reads = [x for k, x in zip(solo_ks, solo.latencies[0])
                      if not self.is_write(k)]
        # The same read straight at the worker, skipping the relay.
        cid = self.client.client_id
        direct = []
        with self._worker_probe(self.worker_of(0)) as probe:
            for _ in range(200):
                t0 = time.perf_counter()
                probe.call("wt.frame", cid)
                direct.append(time.perf_counter() - t0)
        return {
            "ping_ms": _ping_ms(self.gateway.address),
            "gateway_reads": reads,
            "gateway_writes": writes,
            "scaling_ratio": plain.fps / solo.fps,
            "route_ms": (median(solo_reads) - median(direct)) * 1e3,
        }

    def close(self) -> None:
        for client in self.session_clients:
            client.close()
        if self.gateway is not None:
            self.gateway.stop()


# -- live_steer ------------------------------------------------------------------------


class LiveSteer(Workload):
    name = "live_steer"
    why = ("the live tunnel: a free-running 2-D solver, a pilot steering the inflow and "
           "a viewer, both on push delivery: the only workload with the solver thread, "
           "cache appends and PUSH fan-out")
    clients = 2
    rate = 5.0
    warmup = 5
    setup_repeats = 4
    lock_step = False  # the solver free-runs: counts repeat within 1 %
    host_share = NUMPY_SHARE
    epoch_wait = 5.0
    NX, NY, STEPS_PER_TIMESTEP, RAKES, SEEDS = 64, 32, 2, 4, 8

    @staticmethod
    def script(seed: int) -> dict:
        rng = np.random.default_rng([seed, 4])
        # Six inflow speeds cycled by the steers; shuffled so neighbours differ.
        inflow = [0.8, 0.9, 1.0, 1.1, 1.2, 1.3]
        rng.shuffle(inflow)
        return {
            "rakes": _rake_script(rng, LiveSteer.RAKES, 0.6, 0.25, 1.2, 0.2, 0.2, 0.05,
                                  axis_half=2.0),
            "u_inf": inflow,
            "eye": [4.0 + rng.uniform(-0.2, 0.2), 2.0 + rng.uniform(-0.2, 0.2), 6.0],
        }

    def open(self, script: dict, tmp: str) -> None:
        from repro import SolverConfig, WindtunnelClient
        from repro.dlib.transport import connect_tcp
        from repro.insitu import InsituWindtunnelServer

        self._script = script
        self.config = SolverConfig(nx=self.NX, ny=self.NY)
        self.server = InsituWindtunnelServer(
            solver_config=self.config, steps_per_timestep=self.STEPS_PER_TIMESTEP,
            ring_capacity=32, sim_period_seconds=0.0, steering_hold_seconds=5.0,
        ).start()
        pilot_stream = connect_tcp(*self.server.address)
        self.streams = [pilot_stream]  # frames and bytes are the pilot's
        self.client = WindtunnelClient(stream=pilot_stream, name="pilot")
        self.viewer = WindtunnelClient(
            stream=connect_tcp(*self.server.address), name="viewer")
        for end_a, end_b in script["rakes"]:
            self.client.add_rake(end_a, end_b, n_seeds=self.SEEDS)
        for client in (self.client, self.viewer):
            if not client.subscribe(push=True)["push"]:
                raise RuntimeError("server did not arm push delivery")
        self._head = _head_pose(script["eye"])
        self._epoch = 0
        self._await(lambda: self.client.latest_state is not None
                    and len(self.client.latest_state["paths"]) == self.RAKES)
        self.client.render(self._head)

    def _await(self, ready) -> None:
        deadline = time.monotonic() + self.epoch_wait
        while not ready():
            if time.monotonic() > deadline:
                raise CheckFailed("timed out waiting for a pushed frame")
            self.client.drain_pushes(timeout=0.05)

    def delivered(self) -> tuple[int, int]:
        self.frames = self.client.pushed_frames
        return super().delivered()

    def cycle(self, session: int, k: int) -> dict:
        inflow = self._script["u_inf"]
        epoch = self.client.steer(u_inf=inflow[k % len(inflow)])["epoch"]
        self._await(lambda: self.client.latest_state["steer_epoch"] >= epoch)
        self.client.render(self._head)
        return {"epoch": epoch, "state": self.client.latest_state}

    def verify(self, session: int, k: int, out: dict) -> None:
        # Untimed housekeeping first: the viewer empties its socket once a cycle.
        self.viewer.drain_pushes(0.0)
        expected, self._epoch = self._epoch + 1, out["epoch"]
        if out["epoch"] != expected or out["state"]["steer_epoch"] != expected:
            raise CheckFailed(
                f"cycle {k}: steered epoch {out['epoch']}, frame shows "
                f"{out['state']['steer_epoch']}, expected {expected}")
        _check_paths(out["state"], self.RAKES, self.SEEDS)

    def finish(self) -> dict:
        """Freeze the solver, then reconcile its counters exactly."""
        self.client.steer(paused=True)
        deadline = time.monotonic() + self.epoch_wait
        while not self.server.producer.paused:
            if time.monotonic() > deadline:
                return {"solver_counters_reconcile": False}
            time.sleep(0.005)
        counters = self.client.metrics(0)["registry"]["counters"]
        return {"solver_counters_reconcile": counters["insitu.sim_steps_total"] == (
            counters["insitu.timesteps_published"] - 1) * self.STEPS_PER_TIMESTEP}

    def trace_points(self) -> list:
        producer = self.server.producer
        return _dlib_trace_points() + [
            (self.client, "steer", "client.send_input"),
            (self.client, "drain_pushes", "client.fetch"),
            (self.client, "render", "client.render"),
            (self.server.engine, "compute_rakes", "engine.compute_rakes"),
            (self.server.engine.loader, "load", "diskio.load"),
            (self.server.engine.loader.cache, "get", "diskio.get"),
            (self.server.engine.loader.cache, "append", "diskio.append"),
            (producer, "produce_timestep", "insitu.produce_timestep"),
            (producer.solver, "run", "solver.run"),
        ]

    def probes(self, plain: Window, ks, next_k: int) -> dict:
        """Runs after :meth:`finish`, so the live solver is paused and the
        standalone one is timed uncontended."""
        from repro import NavierStokes2D

        solver = NavierStokes2D(self.config)
        solver.run(2)  # warm the operator caches
        samples = []
        for _ in range(400):  # outlasts the pipeline's last production
            t0 = time.perf_counter()
            solver.run(1)
            samples.append(time.perf_counter() - t0)
        return {"ping_ms": _ping_ms(self.server.address), "live": True,
                "solver_step_ms": median(samples) * 1e3}

    def close(self) -> None:
        if self.viewer is not None:
            self.viewer.close()
        super().close()


WORKLOADS = {cls.name: cls for cls in (Drag, ReplayPaper, GatewayMix, LiveSteer)}
