"""Shared machinery of the end-to-end benchmark (see README.md).

Statistics, the in-memory span recorder that times each layer *from
outside* (by wrapping bound public methods of objects the benchmark
constructs — nothing under ``src/`` knows it is being measured), process
accounting from ``/proc``, the closed-loop window runner, and the metric
catalogue ``BENCHMARK.json`` mirrors.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
import os
import platform
import resource
import threading
import time
import traceback

#: The paper's 1/8 s interaction budget (section 1.2).
BUDGET_SECONDS = 0.125

#: Thread-pool / hashing knobs pinned for every run and its children
#: (noise rule 5); recorded in the result's ``host`` block.
QUIET_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

#: End-to-end metrics: name -> (unit, better).  ``failed_ratio`` is the
#: seventh; it is reported beside them but kept out of ``BENCHMARK.json``
#: because it is 0 on a healthy run (the contract's ``failed`` /
#: ``attempted`` keys carry it instead).
END_TO_END = {
    "latency_p50_ms": ("ms", "lower"),
    "fps": ("1/s", "higher"),
    "wire_kb_per_frame": ("kB", "lower"),
    "cpu_ms_per_frame": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}

#: Per-layer metrics (traced run): name -> (unit, better).  A layer a
#: workload bypasses reports 0 — that *is* the measurement.
PER_LAYER = {
    "client.send_input_ms": ("ms", "lower"),
    "client.fetch_ms": ("ms", "lower"),
    "client.render_ms": ("ms", "lower"),
    "client.latency_p95_ms": ("ms", "lower"),
    "client.latency_max_ms": ("ms", "lower"),
    "client.budget_miss_ratio": ("ratio", "lower"),
    "render.points_per_frame": ("count", "lower"),
    "render.ns_per_point": ("ns", "lower"),
    "engine.compute_rakes_ms": ("ms", "lower"),
    "engine.points_per_frame": ("count", "lower"),
    "tracers.ns_per_point": ("ns", "lower"),
    "pipeline.load_ms": ("ms", "lower"),
    "pipeline.locate_ms": ("ms", "lower"),
    "pipeline.integrate_ms": ("ms", "lower"),
    "pipeline.encode_ms": ("ms", "lower"),
    "pipeline.frames_produced": ("count", "lower"),
    "pipeline.frames_anticipated": ("count", "lower"),
    "pipeline.useful_ratio": ("ratio", "higher"),
    "pipeline.wait_ms": ("ms", "lower"),
    "server.frames_served": ("count", "higher"),
    "server.frame_cache_hit_ratio": ("ratio", "higher"),
    "server.keyframes": ("count", "lower"),
    "server.delta_frames": ("count", "higher"),
    "server.encode_cache_hit_ratio": ("ratio", "higher"),
    "server.push_frames": ("count", "higher"),
    "server.push_latency_ms": ("ms", "lower"),
    "server.frames_shed": ("count", "lower"),
    "dlib.ping_ms": ("ms", "lower"),
    "dlib.encode_ms_per_frame": ("ms", "lower"),
    "dlib.decode_ms_per_frame": ("ms", "lower"),
    "dlib.messages_per_frame": ("count", "lower"),
    "dlib.sendmsg_batches": ("count", "lower"),
    "netsim.modeled_delay_ms_per_frame": ("ms", "lower"),
    "netsim.throttled_bytes_per_frame": ("B", "lower"),
    "diskio.load_ms": ("ms", "lower"),
    "diskio.l1_hit_ratio": ("ratio", "higher"),
    "diskio.source_reads": ("count", "lower"),
    "diskio.source_bytes_per_frame": ("B", "lower"),
    "diskio.modeled_read_ms_per_frame": ("ms", "lower"),
    "diskio.stall_ms_per_frame": ("ms", "lower"),
    "diskio.prefetch_useful_ratio": ("ratio", "higher"),
    "diskio.appends": ("count", "lower"),
    "diskio.append_ms": ("ms", "lower"),
    "gateway.read_p50_ms": ("ms", "lower"),
    "gateway.read_p95_ms": ("ms", "lower"),
    "gateway.write_p50_ms": ("ms", "lower"),
    "gateway.route_ms": ("ms", "lower"),
    "gateway.scaling_ratio": ("ratio", "higher"),
    "gateway.journal_entries": ("count", "lower"),
    "gateway.forward_failures": ("count", "lower"),
    "insitu.steer_rpc_ms": ("ms", "lower"),
    "insitu.steer_to_push_ms": ("ms", "lower"),
    "insitu.timesteps_published": ("count", "higher"),
    "insitu.sim_rate_hz": ("1/s", "higher"),
    "insitu.frames_behind_sim": ("count", "lower"),
    "insitu.steer_applied": ("count", "higher"),
    "solver.step_ms": ("ms", "lower"),
    "obs.trace_overhead_ratio": ("ratio", "lower"),
}


# -- statistics ---------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-quantile (0..1) of ``values``."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 0.5)


def ratio(num: float, den: float) -> float:
    """``num / den`` with an idle layer (``den == 0``) reading 0."""
    return num / den if den else 0.0


# -- spans ----------------------------------------------------------------------


class Tracer:
    """In-memory span recorder, installed only for the traced window.

    A span is ``(id, name, start, end, parent, cycle)``: ``parent`` is the
    enclosing span on the same thread (``-1`` for a root), ``cycle`` the
    scripted cycle in flight when it began — lock-step means one
    production per cycle, so spans on server threads are attributed to
    the cycle whose window they fall in.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._cycle = -1
        self._undo: list[tuple] = []

    def set_cycle(self, k: int) -> None:
        self._local.cycle = k
        self._cycle = k  # what server threads (no local value) attribute to

    def begin(self, name: str) -> tuple:
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        sid = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(sid)
        return (sid, name, time.perf_counter(), parent,
                getattr(local, "cycle", self._cycle))

    def end(self, token: tuple) -> None:
        end = time.perf_counter()
        self._local.stack.pop()
        sid, name, start, parent, cycle = token
        self.spans.append((sid, name, start, end, parent, cycle))

    def wrap(self, owner, attr: str, name: str) -> None:
        """Route ``owner.attr(...)`` through a span named ``name``."""
        inner = getattr(owner, attr)
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            token = begin(name)
            try:
                return inner(*args, **kwargs)
            finally:
                end(token)

        own = vars(owner).get(attr, _MISSING)
        setattr(owner, attr, traced)
        self._undo.append((owner, attr, own))

    def uninstall(self) -> None:
        for owner, attr, own in reversed(self._undo):
            if own is _MISSING:
                delattr(owner, attr)  # un-shadow the class attribute
            else:
                setattr(owner, attr, own)
        self._undo.clear()

    @staticmethod
    def span_cost(n: int = 5000) -> float:
        """Seconds one recorded span adds to its caller, timed here and now
        on a no-op routed through the same wrapper."""
        class Probe:
            def noop(self) -> None:
                pass

        probe, tracer = Probe(), Tracer()
        timings = []
        for traced in (False, True):
            if traced:
                tracer.wrap(probe, "noop", "probe")
            start = time.perf_counter()
            for _ in range(n):
                probe.noop()
            timings.append(time.perf_counter() - start)
        return max(0.0, timings[1] - timings[0]) / n

    def write_jsonl(self, path: str) -> None:
        keys = ("id", "name", "start", "end", "parent", "cycle")
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


_MISSING = object()


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part its child spans cover."""
    own = {s[0]: s[3] - s[2] for s in spans}
    for sid, _name, start, end, parent, _cycle in spans:
        if parent in own:
            own[parent] -= end - start
    return own


# -- process accounting ------------------------------------------------------------

_TICK = os.sysconf("SC_CLK_TCK")


def cpu_seconds(worker_pids=()) -> float:
    """User+system CPU of this process plus ``worker_pids`` so far."""
    total = time.process_time()
    for pid in worker_pids:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        total += (int(fields[11]) + int(fields[12])) / _TICK
    return total


def peak_rss_mb(worker_pids=()) -> float:
    """Driver ``ru_maxrss`` plus each worker's ``VmHWM`` (MB = 1e6 B)."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in worker_pids:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    kib += int(line.split()[1])
                    break
    return kib * 1024 / 1e6


def host_block(seed: int, load_start: tuple) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "env": {key: os.environ.get(key) for key in QUIET_ENV},
        "seed": seed,
    }


# -- host speed ------------------------------------------------------------------------


class HostSpeed:
    """How fast this host is *right now*, relative to the reference host.

    The sandbox's speed moves by half for minutes at a time (README,
    "Noise rules"): the same code reads 55 ms, then 82 ms, with process CPU
    time moving in step.  A fixed piece of reference work — a cache-missing
    NumPy gather/blend and an interpreter loop, the two things the
    windtunnel spends its cycles on — is timed in *thread CPU* seconds
    between cycles, two hundred times a window (under 1 % of it, and
    inside its wall and CPU time); the factor is the geometric mean of the
    two kernels' mean times over their reference values.  Means, not
    medians: one reading is bimodal (the vCPU runs at full or at contended
    speed) and the window's slowdown is the time-weighted mix of the two,
    which a median flips between.
    """

    #: Mean kernel times (ms) on the reference host in its usual state.  They
    #: only fix the unit: parent and change are divided by the same numbers.
    REFERENCE_MS = (0.382, 0.1205)
    SAMPLES_PER_WINDOW = 200

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._field = rng.random((64 * 64 * 32, 3))  # one paper timestep
        self._idx = rng.integers(0, self._field.shape[0], 3000)
        self._next = (self._idx + 1) % self._field.shape[0]
        self._w = rng.random((3000, 1))
        self.samples: tuple[list, list] = ([], [])

    def _gather(self) -> float:
        w = self._w
        return float(((1 - w) * self._field[self._idx]
                      + w * self._field[self._next]).sum())

    @staticmethod
    def _interpret() -> int:
        acc, table = 0, {}
        for i in range(1500):
            acc += i * i % 7
            table[i & 255] = acc
        return acc

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            for kernel, out in zip((self._gather, self._interpret), self.samples):
                start = time.thread_time()
                kernel()
                out.append(time.thread_time() - start)

    def readings_ms(self, first: int = 0) -> list[float]:
        """Mean time of each kernel over samples ``first:``."""
        return [sum(out[first:]) / len(out[first:]) * 1e3 for out in self.samples]

    def factor(self, first: int = 0) -> float:
        """What CPU-bound time over samples ``first:`` is to be divided by
        (1 = the reference host, > 1 = this host ran slower)."""
        product = 1.0
        for reading, reference in zip(self.readings_ms(first), self.REFERENCE_MS):
            product *= reading / reference
        return math.sqrt(product)


def at_reference(seconds: float, factor: float, slept: float = 0.0,
                 share: float = 1.0) -> float:
    """``seconds`` of wall time as the reference host would have spent them.

    ``slept`` of them were the program's own modeled sleeps (the wire
    model's ``time.sleep``), which no host shortens.  The rest follows
    ``share`` of the reference kernels' slowdown (``Workload.host_share``).
    """
    return slept + (seconds - slept) / (1.0 + share * (factor - 1.0))


# -- the closed-loop window ----------------------------------------------------------


class CheckFailed(Exception):
    """A cycle's output failed its correctness check."""


class Window:
    """What one timed block of scripted cycles measured."""

    def __init__(self) -> None:
        self.latencies: list[list[float]] = []  # seconds, per session
        self.failures: list[str] = []
        self.attempted = 0
        self.wall = 0.0
        self.cpu = 0.0
        self.frames = 0
        self.wire_bytes = 0
        self.slept = 0.0        # seconds of modeled sleep inside ``wall``
        self.host_factor = 1.0  # > 1: the host ran slower than the reference
        self.host_share = 1.0   # part of the unslept time that follows it
        self.host_readings_ms: list[float] = []  # the reference kernels' means
        self.rendered_points: list[int] = []

    @property
    def all_latencies(self) -> list[float]:
        return [x for per_session in self.latencies for x in per_session]

    @property
    def failed(self) -> int:
        return self.attempted - len(self.all_latencies)

    def at_reference(self, seconds: float, slept: float = 0.0) -> float:
        return at_reference(seconds, self.host_factor, slept, self.host_share)

    @property
    def fps(self) -> float:
        return ratio(self.frames, self.at_reference(self.wall, self.slept))

    def p50_ms(self) -> float:
        return self.at_reference(median(self.all_latencies),
                                 ratio(self.slept, self.attempted)) * 1e3


def _drive(workload, session: int, ks, window: Window, lat: list, tracer,
           host: HostSpeed | None) -> None:
    """One session's closed loop: next command only after the last photon."""
    every = max(1, len(ks) // HostSpeed.SAMPLES_PER_WINDOW)
    per_gap = min(4, math.ceil(HostSpeed.SAMPLES_PER_WINDOW * every / len(ks)))
    for i, k in enumerate(ks):
        if host is not None and i % every == 0:
            host.sample(per_gap)  # between cycles, never inside a timed one
        token = None
        if tracer is not None:
            tracer.set_cycle(k)
            token = tracer.begin("cycle")
        start = time.perf_counter()
        try:
            try:
                out = workload.cycle(session, k)
            finally:
                end = time.perf_counter()
                if token is not None:
                    tracer.end(token)
            workload.verify(session, k, out)
        except Exception:  # noqa: BLE001 - a failed cycle is a counted result
            window.failures.append(traceback.format_exc(limit=4))
            continue
        lat.append(end - start)
        if tracer is not None:
            window.rendered_points.append(workload.rendered_points())


def run_window(workload, ks, tracer=None, sessions=None,
               host: HostSpeed | None = None) -> Window:
    """Run cycles ``ks`` on every session, lock-step, and measure the block.

    Fixed work, not fixed time: the cycle list is the workload's, so byte
    and frame counts repeat exactly; only the clock readings vary.  With a
    ``host`` reference the first session samples it between cycles and the
    window's timings are reported at reference host speed
    (:func:`at_reference`).
    """
    sessions = range(workload.sessions) if sessions is None else sessions
    ks = list(ks)
    window = Window()
    window.latencies = [[] for _ in sessions]
    window.attempted = len(ks) * len(window.latencies)
    pids = workload.worker_pids()
    gc.collect()
    frames0, bytes0 = workload.delivered()
    slept0 = workload.modeled_sleep()
    first_sample = len(host.samples[0]) if host is not None else 0
    cpu0 = cpu_seconds(pids)
    wall0 = time.perf_counter()
    if len(window.latencies) == 1:
        _drive(workload, sessions[0], ks, window, window.latencies[0], tracer, host)
    else:
        threads = [
            threading.Thread(
                target=_drive,
                args=(workload, s, ks, window, lat, tracer, host if i == 0 else None),
                name=f"e2e-session-{s}",
            )
            for i, (s, lat) in enumerate(zip(sessions, window.latencies))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    window.wall = time.perf_counter() - wall0
    window.cpu = cpu_seconds(pids) - cpu0
    frames1, bytes1 = workload.delivered()
    window.frames = frames1 - frames0
    window.wire_bytes = bytes1 - bytes0
    window.slept = workload.modeled_sleep() - slept0
    if host is not None:
        window.host_factor = host.factor(first_sample)
        window.host_share = workload.host_share
        window.host_readings_ms = host.readings_ms(first_sample)
    return window


def end_to_end(window: Window, setup_s: float, rss_mb: float) -> dict:
    """The end-to-end metric block (plus ``failed_ratio``) of one window."""
    n = len(window.all_latencies)
    values = {
        "latency_p50_ms": (window.p50_ms() if n else 0.0, n),
        "fps": (window.fps, window.frames),
        "wire_kb_per_frame": (ratio(window.wire_bytes / 1e3, window.frames), window.frames),
        "cpu_ms_per_frame": (
            ratio(window.at_reference(window.cpu) * 1e3, window.frames), window.frames),
        "peak_rss_mb": (rss_mb, 1),
        "setup_s": (setup_s, 1),
    }
    metrics = {
        name: {"value": value, "unit": END_TO_END[name][0], "n": count}
        for name, (value, count) in values.items()
    }
    metrics["failed_ratio"] = {
        "value": ratio(window.failed, window.attempted),
        "unit": "ratio",
        "n": window.attempted,
    }
    return metrics


def as_measured(window: Window) -> dict:
    """The window's timings before host-speed scaling, and the factor."""
    lat = window.all_latencies
    return {
        "host_factor": window.host_factor,
        "host_share": window.host_share,
        "host_readings_ms": window.host_readings_ms,
        "modeled_sleep_seconds": window.slept,
        "latency_p50_ms": median(lat) * 1e3 if lat else 0.0,
        "fps": ratio(window.frames, window.wall),
        "cpu_ms_per_frame": ratio(window.cpu * 1e3, window.frames),
        "window_seconds": window.wall,
    }


# -- public stats surfaces ----------------------------------------------------------


def merge_registries(snapshots) -> dict:
    """Sum counters and histogram count/total across registry snapshots."""
    out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
    for snap in snapshots:
        for name, value in snap.get("counters", {}).items():
            out["counters"][name] = out["counters"].get(name, 0) + value
        out["gauges"].update(snap.get("gauges", {}))
        for name, hist in snap.get("histograms", {}).items():
            acc = out["histograms"].setdefault(name, {"count": 0, "total": 0.0})
            acc["count"] += hist["count"]
            acc["total"] += hist["total"]
    return out


def merge_pipeline_stats(stats_list) -> dict:
    """Sum the countable parts of several ``wt.pipeline_stats`` replies."""
    out = {"frames_produced": 0, "frames_anticipated": 0, "stages": {}, "loader": {}}
    for stats in stats_list:
        out["frames_produced"] += stats["frames_produced"]
        out["frames_anticipated"] += stats["frames_anticipated"]
        for name, stage in stats["stages"].items():
            acc = out["stages"].setdefault(name, {"count": 0, "total": 0.0})
            acc["count"] += stage["count"]
            acc["total"] += stage["total"]
        for key, value in ((stats.get("cache") or {}).get("loader") or {}).items():
            out["loader"][key] = out["loader"].get(key, 0) + value
    return out


def layer_metrics(spans, before: dict, after: dict, traced: Window,
                  plain: Window, probes: dict) -> dict:
    """The per-layer table of one traced window.

    ``before``/``after`` are the workload's ``stats()`` at the window's
    edges (public surfaces only: ``wt.pipeline_stats``, ``wt.metrics``,
    ``wt.stats``, the throttled channel's totals); ``spans`` what the
    :class:`Tracer` recorded in between.  Timings are per-cycle medians
    of *self* time, counts are window deltas.
    """
    frames = traced.frames
    own = self_times(spans)

    def span_ms(name: str) -> float:
        """Median self time of one call."""
        xs = [own[s[0]] for s in spans if s[1] == name]
        return median(xs) * 1e3 if xs else 0.0

    def cycle_ms(name: str) -> float:
        """Median over cycles of the self time of the ``name`` calls made
        directly under one cycle span (a drain loop makes several)."""
        per_cycle: dict[int, float] = {}
        for sid, span_name, _start, _end, parent, _cycle in spans:
            if span_name == name:
                per_cycle[parent] = per_cycle.get(parent, 0.0) + own[sid]
        return median(per_cycle.values()) * 1e3 if per_cycle else 0.0

    def span_total_ms(name: str) -> float:
        return sum(own[s[0]] for s in spans if s[1] == name) * 1e3

    def counter(name: str) -> float:
        return (after["registry"]["counters"].get(name, 0)
                - before["registry"]["counters"].get(name, 0))

    def hist_mean_ms(name: str) -> float:
        a = after["registry"]["histograms"].get(name, {"count": 0, "total": 0.0})
        b = before["registry"]["histograms"].get(name, {"count": 0, "total": 0.0})
        return ratio(a["total"] - b["total"], a["count"] - b["count"]) * 1e3

    def stage(name: str) -> tuple[float, int]:
        a = after["pipeline"]["stages"].get(name, {"count": 0, "total": 0.0})
        b = before["pipeline"]["stages"].get(name, {"count": 0, "total": 0.0})
        return a["total"] - b["total"], a["count"] - b["count"]

    def loader(name: str) -> float:
        return (after["pipeline"]["loader"].get(name, 0)
                - before["pipeline"]["loader"].get(name, 0))

    lat = traced.all_latencies
    misses = sum(1 for x in lat if x > BUDGET_SECONDS) + traced.failed
    fetch_ms = cycle_ms("client.fetch")
    render_ms = cycle_ms("client.render")
    points_drawn = ratio(sum(traced.rendered_points), len(traced.rendered_points))
    produced = (after["pipeline"]["frames_produced"]
                - before["pipeline"]["frames_produced"])
    stage_ms = {name: ratio(*stage(name)) * 1e3
                for name in ("load", "locate", "integrate", "encode")}
    points = after["points_computed"] - before["points_computed"]
    served = counter("wt.frames_served")
    enc_hits, enc_misses = counter("net.encode_cache_hits"), counter("net.encode_cache_misses")
    l1_hits, l1_misses = counter("cache.l1.hits"), counter("cache.l1.misses")
    fresh = served - counter("wt.frame_cache_hits") + counter("net.publications_fanned_out")
    messages = sum(1 for s in spans if s[1] in ("dlib.encode", "dlib.decode"))
    reads, writes = probes.get("gateway_reads", []), probes.get("gateway_writes", [])
    values = {
        "client.send_input_ms": cycle_ms("client.send_input"),
        "client.fetch_ms": fetch_ms,
        "client.render_ms": render_ms,
        "client.latency_p95_ms": percentile(lat, 0.95) * 1e3 if lat else 0.0,
        "client.latency_max_ms": max(lat) * 1e3 if lat else 0.0,
        "client.budget_miss_ratio": ratio(misses, traced.attempted),
        "render.points_per_frame": points_drawn,
        "render.ns_per_point": ratio(render_ms * 1e6, points_drawn),
        "engine.compute_rakes_ms": span_ms("engine.compute_rakes"),
        "engine.points_per_frame": ratio(points, produced),
        "tracers.ns_per_point": ratio(stage("integrate")[0] * 1e9, points),
        "pipeline.load_ms": stage_ms["load"],
        "pipeline.locate_ms": stage_ms["locate"],
        "pipeline.integrate_ms": stage_ms["integrate"],
        "pipeline.encode_ms": stage_ms["encode"],
        "pipeline.frames_produced": produced,
        "pipeline.frames_anticipated": (after["pipeline"]["frames_anticipated"]
                                        - before["pipeline"]["frames_anticipated"]),
        "pipeline.useful_ratio": min(1.0, ratio(fresh, produced)),
        "pipeline.wait_ms": max(0.0, fetch_ms - sum(stage_ms.values())),
        "server.frames_served": served,
        "server.frame_cache_hit_ratio": ratio(counter("wt.frame_cache_hits"), served),
        "server.keyframes": counter("net.keyframes"),
        "server.delta_frames": counter("net.delta_frames"),
        "server.encode_cache_hit_ratio": ratio(enc_hits, enc_hits + enc_misses),
        "server.push_frames": counter("net.push_frames"),
        "server.push_latency_ms": hist_mean_ms("net.push_latency_seconds"),
        "server.frames_shed": counter("net.frames_shed"),
        "dlib.ping_ms": probes.get("ping_ms", 0.0),
        "dlib.encode_ms_per_frame": ratio(span_total_ms("dlib.encode"), frames),
        "dlib.decode_ms_per_frame": ratio(span_total_ms("dlib.decode"), frames),
        "dlib.messages_per_frame": ratio(messages, frames),
        "dlib.sendmsg_batches": counter("net.sendmsg_batches"),
        "netsim.modeled_delay_ms_per_frame": ratio(
            (after["netsim"]["delay"] - before["netsim"]["delay"]) * 1e3, frames),
        "netsim.throttled_bytes_per_frame": ratio(
            after["netsim"]["bytes"] - before["netsim"]["bytes"], frames),
        "diskio.load_ms": span_ms("diskio.load"),
        "diskio.l1_hit_ratio": ratio(l1_hits, l1_hits + l1_misses),
        "diskio.source_reads": counter("cache.source.hits"),
        "diskio.source_bytes_per_frame": ratio(counter("cache.source.bytes"), frames),
        "diskio.modeled_read_ms_per_frame": ratio(
            loader("modeled_read_seconds") * 1e3, frames),
        "diskio.stall_ms_per_frame": ratio(loader("stall_seconds") * 1e3, frames),
        "diskio.prefetch_useful_ratio": max(0.0, min(1.0, ratio(
            produced - loader("misses"), loader("prefetch_issued")))),
        "diskio.appends": counter("cache.l1.appends"),
        "diskio.append_ms": span_ms("diskio.append"),
        "gateway.read_p50_ms": median(reads) * 1e3 if reads else 0.0,
        "gateway.read_p95_ms": percentile(reads, 0.95) * 1e3 if reads else 0.0,
        "gateway.write_p50_ms": median(writes) * 1e3 if writes else 0.0,
        "gateway.route_ms": probes.get("route_ms", 0.0),
        "gateway.scaling_ratio": probes.get("scaling_ratio", 0.0),
        "gateway.journal_entries": sum(1 for s in spans if s[1] == "gateway.journal"),
        "gateway.forward_failures": counter("gateway.forward_failures"),
        "insitu.steer_rpc_ms": span_ms("client.send_input") if probes.get("live") else 0.0,
        "insitu.steer_to_push_ms": fetch_ms if probes.get("live") else 0.0,
        "insitu.timesteps_published": counter("insitu.timesteps_published"),
        "insitu.sim_rate_hz": ratio(counter("insitu.sim_steps_total"), traced.wall),
        "insitu.frames_behind_sim": after["registry"]["gauges"].get(
            "insitu.frames_behind_sim", 0.0),
        "insitu.steer_applied": counter("insitu.steer_applied"),
        "solver.step_ms": probes.get("solver_step_ms", 0.0),
        "obs.trace_overhead_ratio": ratio(traced.p50_ms(), plain.p50_ms()),
    }
    if values.keys() != PER_LAYER.keys():
        raise RuntimeError(f"layer table drifted: {values.keys() ^ PER_LAYER.keys()}")
    return {
        name: {"value": float(value), "unit": PER_LAYER[name][0], "n": frames}
        for name, value in values.items()
    }
