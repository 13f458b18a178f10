"""The workstation: input devices in, stereo frames out.

Figure 9: the workstation runs two cooperating halves — one handling
network traffic with the remote system, one rendering the latest received
environment state head-tracked "at very high rates", decoupled so
"graphics performance is not tied to the network and remote computation
performance".  :class:`WindtunnelClient` implements both halves: the
synchronous command/frame RPC cycle, and a render path that draws
whatever state arrived last from whatever head pose the BOOM reports
*now*.

That decoupling is also the degradation story.  When the network fails,
the renderer keeps drawing the last good frame (flagged
:attr:`state_stale`) while the network half retries: idempotent calls
back off, reconnect through the stream factory, and resume the session
with ``wt.rejoin`` — so a transient stall costs staleness, not a crash.
A resume re-sends the delivery terms last negotiated: a reaped seat lost
them, and a new connection holds none of the calls armed on the old one.
Every frame reply is enveloped, negotiated or not; merging it into the
held scene is :class:`~repro.core.delivery.HeldScene`'s.  Under push
terms the client keeps :data:`~repro.core.delivery.FRAME_CREDIT`
``wt.frame`` calls outstanding and re-arms one as each reply is merged.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.core.delivery import FRAME_CREDIT, HeldScene, Subscription
from repro.dlib.client import DlibClient, DlibRemoteError, RetryPolicy
from repro.dlib.protocol import DlibError, DlibTimeoutError
from repro.dlib.transport import Stream
from repro.render.camera import Camera
from repro.render.framebuffer import Framebuffer
from repro.render.keyframe import frame_scene
from repro.render.scene import HandGlyph, HeadGlyph, RakeGlyph, Scene
from repro.render.stereo import render_anaglyph
from repro.util.timers import FrameTimer

__all__ = ["WindtunnelClient"]

#: Windtunnel procedures safe to re-issue after a transport failure.
#: ``wt.update`` is last-write-wins, the reads are pure, ``wt.rejoin``
#: resumes the same lease however often it lands.  ``wt.add_rake`` /
#: ``wt.remove_rake`` / ``wt.time`` are *not* here: re-running them
#: duplicates (or double-steps) a mutation.
_IDEMPOTENT_PROCEDURES = frozenset(
    {
        "wt.update",
        "wt.frame",
        "wt.subscribe",
        "wt.snapshot",
        "wt.stats",
        "wt.pipeline_stats",
        "wt.heartbeat",
        "wt.rejoin",
        "wt.metrics",
        "dlib.ping",
        "dlib.metrics",
    }
)

_NETWORK_ERRORS = (DlibTimeoutError, ConnectionError, OSError)

#: How long :meth:`WindtunnelClient.fetch_frame` waits for a push
#: subscription's first frame when the client has no call timeout.
FIRST_FRAME_WAIT = 10.0


class WindtunnelClient:
    """A workstation client of the distributed windtunnel.

    Parameters
    ----------
    host, port / stream
        How to reach the server: an address, or a preconnected stream
        (e.g. a :class:`~repro.netsim.channel.ThrottledChannel`).
    stream_factory
        Zero-argument callable minting a fresh connected stream; enables
        automatic reconnect + session resume.  Defaults to re-dialing
        ``host:port`` when an address was given.
    retry
        :class:`~repro.dlib.client.RetryPolicy` for idempotent calls
        (``None`` disables retries: first failure propagates).
    call_timeout
        Per-call deadline in seconds; ``None`` waits forever.
    width, height
        Framebuffer size.  The paper's VGX ran 1280x1024; tests use less.
    stereo
        Render writemask anaglyph stereo (section 3) vs mono.
    trace
        ``True`` traces every RPC: the server's span tree for the last
        call lands on :attr:`last_trace` / :meth:`trace_report`.
    registry
        Optional client-side :class:`~repro.obs.registry.MetricsRegistry`
        recording per-procedure RPC latency histograms.
    """

    def __init__(
        self,
        host: str | None = None,
        port: int | None = None,
        *,
        stream: Stream | None = None,
        stream_factory=None,
        retry: RetryPolicy | None = None,
        call_timeout: float | None = None,
        name: str = "",
        width: int = 320,
        height: int = 240,
        stereo: bool = True,
        ipd: float = 0.064,
        fov_y: float = np.pi / 2,
        trace: bool = False,
        registry=None,
    ) -> None:
        self._session_token: str | None = None
        self.last_network_error: BaseException | None = None
        self.state_stale = False
        self.network_failures = 0
        self.rejoins = 0
        self._rpc = DlibClient(
            host,
            port,
            stream=stream,
            stream_factory=stream_factory,
            call_timeout=call_timeout,
            retry=retry,
            idempotent=_IDEMPOTENT_PROCEDURES,
            on_reconnect=self._on_reconnect,
            trace=trace,
            registry=registry,
        )
        info = self._rpc.call("wt.join", name)
        self.client_id: int = info["client_id"]
        self._session_token = info.get("token")
        self.lease_seconds: float | None = info.get("lease_seconds")
        self.dataset_info = info
        self.fb = Framebuffer(width, height)
        self.stereo = stereo
        self.ipd = ipd
        self.fov_y = fov_y
        self.head_pose = np.eye(4)
        self.latest_state: dict | None = None
        #: The scene :meth:`render` last built, and the state it came from.
        self._scene, self._scene_state = Scene(), None
        self.timer = FrameTimer()
        self._net_thread: threading.Thread | None = None
        self._net_stop = threading.Event()
        self._state_lock = threading.Lock()
        self._closed = False
        # Delivery (docs/network.md): the terms last sent (None = never
        # subscribed, the seat's defaults) and the scene deltas merge into.
        self._terms: dict | None = None
        self._held = HeldScene()
        # Paced delivery: whether the terms armed it, the paced calls
        # outstanding and the terms they were armed under (a count of
        # negotiations), the frames they brought, and whether one came
        # back telling the seat had expired.
        self._pacing = False
        self._armed = self._generation = self._paced_frames = 0
        self._expired = False

    # -- resilience ----------------------------------------------------------

    @property
    def reconnects(self) -> int:
        """How many times the transport was re-dialed."""
        return self._rpc.reconnects

    def _on_reconnect(self, rpc: DlibClient) -> None:
        """After every reconnect, resume the session before anything else."""
        if self._session_token is None:
            return  # initial connect: wt.join has not happened yet
        self._resume(rpc.call_once)

    def _resume(self, call) -> dict:
        """``wt.rejoin``, then re-send the terms last negotiated."""
        info = call("wt.rejoin", self.client_id, self._session_token)
        self.rejoins += 1
        if self._terms is not None:
            self._negotiate(call, self._terms)
        return info

    def _call(self, procedure: str, *args):
        """RPC with failure bookkeeping and transparent session resume.

        Transport failures are recorded on :attr:`last_network_error`
        (observable even when a retry or reconnect later succeeds — see
        :attr:`network_failures`).  A server-side
        ``SessionExpiredError`` — our lease lapsed and the reaper took
        the seat — triggers one ``wt.rejoin`` and a single re-issue.
        """
        try:
            try:
                return self._rpc.call(procedure, *args)
            except _NETWORK_ERRORS as exc:
                self.last_network_error = exc
                self.network_failures += 1
                raise
        except DlibRemoteError as exc:
            if exc.remote_type != "SessionExpiredError" or self._session_token is None:
                raise
            self._resume(self._rpc.call_once)
            return self._rpc.call(procedure, *args)

    def rejoin(self) -> dict:
        """Explicitly resume this session (normally automatic)."""
        if self._session_token is None:
            raise RuntimeError("no session token; cannot rejoin")
        return self._resume(self._rpc.call_once)

    def heartbeat(self) -> dict:
        """Tell the server this client is alive (piggybacked on every
        call anyway; useful when idle)."""
        return self._call("wt.heartbeat", self.client_id)

    # -- commands ------------------------------------------------------------

    def send_input(self, head_position, hand_position, gesture: str) -> dict:
        """Ship this frame's user commands (section 5.1's 'hand position,
        hand gestures ... and any other control data')."""
        return self._call(
            "wt.update",
            self.client_id,
            np.asarray(head_position, dtype=np.float32),
            np.asarray(hand_position, dtype=np.float32),
            gesture,
        )

    def add_rake(self, end_a, end_b, n_seeds: int = 10, kind: str = "streamline") -> int:
        from repro.tracers.rake import Rake

        rake = Rake(end_a, end_b, n_seeds=n_seeds, kind=kind)
        return self._call("wt.add_rake", self.client_id, rake.to_dict())

    def remove_rake(self, rake_id: int) -> None:
        self._call("wt.remove_rake", self.client_id, rake_id)

    def time_control(self, op: str, value: float = 0.0) -> dict:
        """pause / resume / speed / scrub / step / reverse."""
        return self._call("wt.time", self.client_id, op, value)

    def server_stats(self) -> dict:
        return self._call("wt.stats")

    def pipeline_stats(self) -> dict:
        """Stage-resolved frame-pipeline statistics (``wt.pipeline_stats``)."""
        return self._call("wt.pipeline_stats", self.client_id)

    def metrics(self, trace_limit: int = 8) -> dict:
        """The server's observability snapshot (``wt.metrics``): the full
        metrics registry plus its most recent span trees."""
        return self._call("wt.metrics", self.client_id, trace_limit)

    @property
    def last_trace(self) -> dict | None:
        """Span tree of the last traced RPC (``None`` until one runs)."""
        return self._rpc.last_trace

    def trace_report(self) -> str:
        """Pretty-print the last traced RPC next to its observed latency."""
        return self._rpc.trace_report()

    def set_tool_settings(self, **settings) -> dict:
        """Adjust shared tracer parameters (steps, dt, streak length)."""
        return self._call("wt.set_tool_settings", self.client_id, settings)

    def steer(self, **changes) -> dict:
        """Steer a live (in situ) windtunnel (``wt.steer``).

        Accepted keys: ``u_inf``, ``dt``, ``taper``, ``angle``,
        ``paused``, ``reset`` (docs/steering.md).  Returns the assigned
        steering epoch — watch :attr:`latest_state` (or frame replies)
        for ``steer_epoch >= epoch`` to know when visible frames include
        the change.  Deliberately not idempotent: re-issuing after a
        transport failure would double-apply the change under a fresh
        epoch.  Raises the server's error on conflicts (another user
        holds the steering lease) or out-of-range parameters.
        """
        return self._call("wt.steer", self.client_id, changes)

    def release_steering(self) -> dict:
        """Release the steering lease early (``wt.steer_release``)."""
        return self._call("wt.steer_release", self.client_id)

    # -- frame delivery (docs/network.md) ----------------------------------------

    def _negotiate(self, call, terms: dict) -> dict:
        # The subscribe fails the calls armed under earlier terms inside
        # its round trip: disown them first, and any a resume armed.
        self._disarm()
        info = call("wt.subscribe", self.client_id, terms)
        self._disarm()
        with self._state_lock:
            # Start over under the new terms: nothing held, nothing
            # acked, so the next frame is a keyframe.
            self._terms, self._held = terms, HeldScene()
        self._pacing = bool(info.get("push"))
        self._arm()
        return info

    def subscribe(
        self,
        *,
        encoding: str = "v1",
        deltas: bool = True,
        rakes=None,
        kinds=None,
        push: bool = False,
    ) -> dict:
        """Negotiate bandwidth-adaptive frame delivery.

        Returns the server's echo of the effective settings.  A client
        that never calls this is served the defaults: ``v1`` deltas of
        every rake, pulled.

        With ``push=True`` the client keeps
        :data:`~repro.core.delivery.FRAME_CREDIT` ``wt.frame`` calls
        parked at the server, which answers each with the next
        publication, and re-arms one as each reply is merged.  The
        replies integrate into :attr:`latest_state` exactly like pulled
        ones; they surface whenever the stream is read — during any RPC,
        or via :meth:`drain_pushes` while idle.  The reply's ``"push"``
        key says whether the calls were armed.  The terms are validated
        by the server's own ``Subscription.from_wire`` before they are
        sent, and re-sent after every resume.
        """
        terms = Subscription.from_wire({
            "encoding": encoding,
            "deltas": deltas,
            "push": push,
            "rakes": rakes,
            "kinds": kinds,
        }).to_wire()
        return self._negotiate(self._call, terms)

    def _integrate(self, state: dict) -> dict:
        """Merge a frame reply into the held scene and show it; return the
        state now shown — the previous one when the reply is a delta
        against a base we do not hold (the next pull resyncs).
        """
        merged = self._held.integrate(state)
        with self._state_lock:
            if merged is not None:
                self.latest_state = merged
            self.state_stale = False
            return self.latest_state

    # -- paced delivery ---------------------------------------------------------

    def _disarm(self) -> None:
        """Disown every paced call outstanding: their replies are ignored."""
        self._generation += 1
        self._armed, self._pacing = 0, False

    def _arm(self) -> None:
        """Top the paced ``wt.frame`` calls outstanding up to the credit."""
        generation = self._generation
        while self._pacing and self._armed < FRAME_CREDIT:
            self._rpc.submit(
                "wt.frame", self.client_id, self._held.seq,
                on_reply=lambda value, exc: self._on_paced(generation, value, exc),
            )
            self._armed += 1

    def _on_paced(self, generation: int, state, exc) -> None:
        """One paced call answered, on whichever thread reads the stream:
        merge the frame and re-arm.  A failed call's credit waits for
        the next :meth:`drain_pushes`, which resumes an expired seat."""
        if generation != self._generation:
            return  # armed under terms since replaced
        self._armed -= 1
        if exc is not None:
            self._expired = self._expired or exc.remote_type == "SessionExpiredError"
            return
        self._paced_frames += 1
        self._integrate(state)
        self._arm()

    @property
    def pushed_frames(self) -> int:
        """How many paced frames this client has received."""
        return self._paced_frames

    def drain_pushes(self, timeout: float = 0.0) -> int:
        """Merge the paced replies that have arrived while idle, waiting up
        to ``timeout`` seconds for the first; returns how many frames
        arrived.

        Re-arms the credit first, resuming the session when a paced call
        reported it expired.  Call this from the same thread that issues
        RPCs (or with external serialization) — the stream carries one
        conversation.
        """
        if self._expired:
            self._resume(self._rpc.call)
            self._expired = False
        self._arm()
        frames = self._paced_frames
        self._rpc.poll(timeout)
        return self._paced_frames - frames

    # -- the network half (figure 9, left process) ------------------------------

    def fetch_frame(self) -> dict | None:
        """Pull the current shared visualization from the server.

        Under push terms, merge the paced replies that have arrived and
        return the state shown at once (a paused clock brings no new
        frame); only a client holding none waits for its first, up to
        the call timeout or :data:`FIRST_FRAME_WAIT`, and ``None``
        returns when the client closes, or its network loop stops.
        """
        if not self._pacing:
            return self._integrate(self._call("wt.frame", self.client_id, self._held.seq))
        self.drain_pushes(0.0)
        deadline = time.monotonic() + (self._rpc.call_timeout or FIRST_FRAME_WAIT)
        on_loop = threading.current_thread() is self._net_thread
        while self.latest_state is None:
            if self._closed or (on_loop and self._net_stop.is_set()):
                return None
            if time.monotonic() > deadline:
                raise DlibTimeoutError("no paced frame arrived in time")
            self.drain_pushes(0.05)
        return self.latest_state

    def start_network_loop(self, interval: float = 0.05, *, max_backoff: float = 2.0) -> None:
        """Run fetch_frame continuously in a background thread.

        The loop never dies on a network failure: it records the error on
        :attr:`last_network_error`, marks :attr:`state_stale` (the render
        half keeps drawing the last good frame — figure 9's decoupling),
        and keeps retrying with exponential backoff up to ``max_backoff``
        seconds until :meth:`stop_network_loop`.
        """
        if self._net_thread is not None:
            raise RuntimeError("network loop already running")
        self._net_stop.clear()
        floor = max(interval, 0.01)

        def loop() -> None:
            backoff = floor
            while not self._net_stop.is_set():
                try:
                    self.fetch_frame()
                except _NETWORK_ERRORS + (DlibRemoteError,) as exc:
                    self.last_network_error = exc
                    with self._state_lock:
                        self.state_stale = True
                    self._net_stop.wait(backoff)
                    backoff = min(max_backoff, backoff * 2.0)
                    continue
                backoff = floor
                self._net_stop.wait(interval)

        self._net_thread = threading.Thread(target=loop, daemon=True)
        self._net_thread.start()

    def stop_network_loop(self) -> None:
        if self._net_thread is not None:
            self._net_stop.set()
            self._net_thread.join(timeout=5.0)
            self._net_thread = None

    # -- the render half (figure 9, right process) --------------------------------

    def build_scene(self, state: dict | None = None) -> Scene:
        """Turn a frame payload into a drawable scene."""
        if state is None:
            with self._state_lock:
                state = self.latest_state
        if state is None:
            return Scene()
        scene = frame_scene(state.get("paths", {}))
        env = state.get("env", {})
        for rid, rake in env.get("rakes", {}).items():
            scene.add(
                RakeGlyph(
                    np.asarray(rake["end_a"]),
                    np.asarray(rake["end_b"]),
                    held=rake.get("owner") is not None,
                )
            )
        for uid, user in env.get("users", {}).items():
            if int(uid) == self.client_id:
                scene.add(HandGlyph(np.asarray(user["hand_position"], dtype=np.float64)))
            else:
                # Shared sessions show where everyone is (section 5.1).
                scene.add(HeadGlyph(np.asarray(user["head_position"], dtype=np.float64)))
        return scene

    def render(self, head_pose: np.ndarray | None = None) -> Framebuffer:
        """Draw the latest state from the (current!) head pose.

        This can run far faster than the network cycle — the decoupling
        that keeps head tracking responsive (figure 9) — though the full
        interaction cycle must still meet the 1/8 s budget.
        """
        if head_pose is not None:
            self.head_pose = np.asarray(head_pose, dtype=np.float64)
        camera = Camera(self.head_pose, fov_y=self.fov_y)
        with self._state_lock:
            state = self.latest_state
        # States are replaced, never mutated: while the same one is the
        # latest, a new head pose redraws the scene (and its display
        # list) already built from it.
        if state is not self._scene_state:
            self._scene, self._scene_state = self.build_scene(state), state
        if self.stereo:
            render_anaglyph(self._scene, camera, self.fb, self.ipd)
        else:
            self.fb.clear()
            self._scene.draw(self.fb, camera)
        return self.fb

    # -- the full cycle -------------------------------------------------------------

    def frame(
        self,
        head_pose: np.ndarray,
        hand_position,
        gesture: str = "open",
    ) -> Framebuffer:
        """One complete interaction cycle: input -> compute -> render.

        This whole method is what must finish "in less than 1/8th of a
        second" (section 1.2); stage timings land in :attr:`timer`.
        """
        start = time.perf_counter()
        head_position = np.asarray(head_pose, dtype=np.float64)[:3, 3]
        with self.timer.stage("send_input"):
            self.send_input(head_position, hand_position, gesture)
        with self.timer.stage("fetch"):
            self.fetch_frame()
        with self.timer.stage("render"):
            fb = self.render(head_pose)
        self.timer.frame(time.perf_counter() - start)
        return fb

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.stop_network_loop()
        self._disarm()
        try:
            self._rpc.call_once("wt.leave", self.client_id)
        except (DlibError, ConnectionError, OSError):
            pass  # best-effort: the reaper handles whatever we couldn't say
        self._rpc.close()

    def __enter__(self) -> "WindtunnelClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
