"""Frame delivery: both halves of the v2 contract (docs/network.md).

The ``"v2"`` envelope (``seq``, ``mode``, ``base``, ``encoding``,
``removed``) is written and read here and nowhere else.
:class:`Delivery`, on the dlib event loop, holds every seat's
:class:`Subscription`, parks ``wt.frame`` calls and builds every reply,
enveloped, with one composer: a delta against the frame last composed
for the subscription when the reader holds it, a keyframe otherwise; a
delta carries only the sections of the ``env`` block (``version``,
``clock``, ``rakes``, ``users``, each state provider's key) that differ
from the ones the reader holds.  :class:`HeldScene` is the client's
half: the scene and ``env`` it holds, its ack.

There is one transport, the ``wt.frame`` call.  A push subscriber keeps
:data:`FRAME_CREDIT` of them parked — its credit — and re-arms one as
each reply arrives.  A push seat's call is *paced*: the first
publication newer than the frame last composed for the seat answers it,
oldest call first, one call per seat per publication, with a delta
against that frame — replies are queued in order on the seat's one
connection, so the reader holds it — and no deadline ends its wait
while the connection and the seat live.  A seat parks at most its credit.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.core.framestore import ENCODINGS, PublishedFrame
from repro.core.pipeline import STAGES
from repro.core.session import SessionExpiredError
from repro.dlib.protocol import DlibProtocolError, PreEncoded, decode_path_entry
from repro.dlib.server import Deferred
from repro.obs import Trace, current_trace

__all__ = ["FRAME_CREDIT", "Delivery", "HeldScene", "Subscription"]

#: How many ``wt.frame`` calls a push subscriber keeps parked.  A reader
#: that stops reading has at most this many frames queued for it; the
#: publications it has no call for are never composed for it.
FRAME_CREDIT = 4


@dataclass
class Subscription:
    """One seat's delivery terms, plus the live state that serves them.

    Every seat holds one from the moment it is seated — the defaults,
    ``from_wire({})``, until ``wt.subscribe`` replaces them.  The five
    option fields are what ``wt.subscribe`` negotiates
    (docs/network.md), what the gateway journals (:meth:`to_wire`) and
    what ``wt.restore`` feeds back (:meth:`from_wire`).  They are never
    assigned after construction — re-negotiating replaces the record —
    and they alone decide equality.  ``push`` makes the seat's
    ``wt.frame`` calls paced (module docstring).  The live part:
    ``calls`` (its paced calls parked, oldest first), ``seq`` (the
    last frame composed under these terms, the one delta base; 0 until
    then), ``entries`` (that frame's ``{rake_id: RakeEntry}``, what
    a delta against it is the difference from) and ``env`` (``{section:
    encoded bytes}``, the ``env`` block a reader holding that frame
    holds; a section's bytes are ``None`` when they are not known, and
    the whole is ``None`` when not even its sections are).
    """

    encoding: str
    deltas: bool
    push: bool
    rakes: frozenset | None
    kinds: frozenset | None
    calls: deque = field(default_factory=deque, compare=False, repr=False)
    seq: int = field(default=0, compare=False)
    entries: dict = field(default_factory=dict, compare=False, repr=False)
    env: dict | None = field(default=None, compare=False, repr=False)

    @classmethod
    def from_wire(cls, options: dict) -> "Subscription":
        """Validate a ``wt.subscribe`` option dict (other keys ignored)."""
        encoding = str(options.get("encoding", "v1"))
        if encoding not in ENCODINGS:
            raise ValueError(
                f"unknown encoding {encoding!r}; expected one of {ENCODINGS}"
            )
        deltas, push = options.get("deltas", True), options.get("push", False)
        for key, value in (("deltas", deltas), ("push", push)):
            # ``bool("false")`` is True.
            if not isinstance(value, bool):
                raise ValueError(f"{key} must be a bool (or absent)")
        rakes, kinds = options.get("rakes"), options.get("kinds")
        for key, value in (("rakes", rakes), ("kinds", kinds)):
            # A bare string would iterate into its characters.
            if value is not None and not isinstance(value, (list, tuple)):
                raise ValueError(f"{key} must be a list (or absent)")
        return cls(
            encoding=encoding,
            deltas=deltas,
            push=push,
            rakes=None if rakes is None else frozenset(str(r) for r in rakes),
            kinds=None if kinds is None else frozenset(str(k) for k in kinds),
        )

    def to_wire(self) -> dict:
        """The options as plain JSON-safe data; ``from_wire`` inverts it."""
        return {
            "encoding": self.encoding,
            "deltas": self.deltas,
            "push": self.push,
            "rakes": None if self.rakes is None else sorted(self.rakes),
            "kinds": None if self.kinds is None else sorted(self.kinds),
        }

    def wants(self, rid: str, kind: str) -> bool:
        """Whether the interest filters admit rake ``rid`` of ``kind``."""
        return (self.rakes is None or rid in self.rakes) and (
            self.kinds is None or kind in self.kinds
        )


@dataclass
class _FrameCall:
    """One ``wt.frame`` call (dlib-loop owned); the last four fields
    are set when it parks on the producer."""

    client_id: int
    ack: int
    paced: Subscription | None  # its seat's record, when that has ``push``
    trace: Trace | None
    deferred: Deferred | None = None
    seq0: int = 0  # newest publication when the call arrived
    deadline: float = math.inf  # ``time.monotonic()`` past which the wait fails
    wait_start: float = 0.0  # trace-relative moment the wait began


class Delivery:
    """The server half: subscriptions, parked calls and the one composer,
    all owned by the dlib event loop.

    The server reaches it through :meth:`frame`, :meth:`subscribe`,
    :meth:`restore`, :meth:`drop` and :meth:`stats`; publications arrive
    from the store's listener, marshalled onto the loop.
    """

    def __init__(self, dlib, pipeline, *, time_fn, frame_wait: float, registry) -> None:
        self.dlib, self.pipeline = dlib, pipeline
        self.store, self.env = pipeline.store, pipeline.env
        self._time_fn = time_fn
        self._frame_wait = float(frame_wait)
        self._subs: dict[int, Subscription] = {}
        # Parked pulled ``wt.frame`` calls, oldest first: a publication
        # resolves them, the sweep tick expires them.
        self._waiters: list[_FrameCall] = []
        # The ``env`` snapshot paced replies carry with a publication:
        # ``(seq, sections)``, taken once for all of them.
        self._paced_env: tuple[int, dict] = (0, {})
        # ``(users, PreEncoded)``: the environment hands back the same
        # ``users`` object until a user changes; it is encoded once.
        self._users_wire: tuple = (None, None)
        self._frames_served = registry.counter("wt.frames_served")
        self._frame_cache_hits = registry.counter("wt.frame_cache_hits")
        self._bytes_hist = registry.histogram("net.bytes_per_frame")
        self._keyframes = registry.counter("net.keyframes")
        self._delta_frames = registry.counter("net.delta_frames")
        self._push_frames = registry.counter("net.push_frames")
        self._push_latency = registry.histogram("net.push_latency_seconds")
        self._publications = registry.counter("net.publications_fanned_out")
        dlib.add_tick(lambda ctx: self._tick(), interval=0.05)
        # Listeners run on the encoder thread; all delivery state is
        # loop-owned, so the publication crosses over first.
        self.store.subscribe(
            lambda frame: dlib.call_soon(lambda: self._on_publish(frame))
        )

    def stats(self) -> dict:
        """Delivery's rows of ``wt.stats``."""
        subs = self._subs.values()
        return {
            "push_subscriptions": sum(1 for sub in subs if sub.push),
            "push_frames": self._push_frames.value,
            "frame_waiters": len(self._waiters) + sum(len(sub.calls) for sub in subs),
        }

    # -- terms ---------------------------------------------------------------

    def subscribe(self, cid: int, options: dict) -> dict:
        """``wt.subscribe``: negotiate terms; ``"push"`` in the reply tells
        the client to arm its paced calls."""
        sub = self.restore(cid, options)
        return {"seq": self.store.seq, **sub.to_wire()}

    def restore(self, cid: int, options: dict) -> Subscription:
        """Install ``options`` as ``cid``'s subscription: seating a client
        (``{}``, the defaults), ``wt.subscribe`` and ``wt.restore``'s
        journal replay all come through here.  Last-write-wins: the prior
        record goes once the new options have validated, and its paced
        calls fail — with a ``RuntimeError``: the seat lives on."""
        sub = Subscription.from_wire(options)
        prior = self._subs.get(cid)
        if prior is not None:
            self._fail_paced(
                prior, lambda: RuntimeError("the seat's delivery terms were replaced")
            )
        self._subs[cid] = sub
        return sub

    def drop(self, cid: int) -> None:
        """Drop ``cid``'s subscription with its seat (leave, reap).

        The seat's parked calls fail with ``SessionExpiredError``, and
        give back their demand, at once, so a dropped seat holds none; a
        churn of short-lived clients costs nothing once they are gone.
        """
        sub = self._subs.pop(cid, None)
        if sub is None:
            return
        expired = lambda: SessionExpiredError(f"the seat of client {cid} was dropped")  # noqa: E731
        self._fail_paced(sub, expired)
        for call in self._waiters:
            if call.client_id == cid:
                call.deferred.fail(expired())
        self._sweep()

    def _fail_paced(self, sub: Subscription, error) -> None:
        """Fail every paced call parked on ``sub`` with ``error()``."""
        if sub.calls:
            for call in sub.calls:
                call.deferred.fail(error())
            sub.calls.clear()
            self.pipeline.remove_demand()

    # -- calls ---------------------------------------------------------------

    def frame(self, cid: int, ack: int):
        """``wt.frame``: answer from the latest publication, or park.

        A pulled call is answered at once when the latest publication is
        the clock's current key; a paced one (module docstring) when a
        publication newer than its seat's ``seq`` exists and none of the
        seat's calls is parked, and one more than :data:`FRAME_CREDIT`
        is refused.  Every reply is queued when it is composed —
        continuations resolved on the loop are queued at once — so each
        frame queued on a connection is a delta against the one queued
        before it.  Otherwise the call parks as a dlib continuation
        holding pipeline demand (a paced one, its seat's): a publication
        at least as new as everything published at arrival resolves a
        pulled one (a mid-wait environment change extends the wait), and
        the sweep tick expires it after ``frame_wait``.
        """
        sub = self._subs.get(cid)
        paced = sub if sub is not None and sub.push else None
        if paced and len(sub.calls) >= FRAME_CREDIT:
            self._prune(sub)
            if len(sub.calls) >= FRAME_CREDIT:
                raise RuntimeError(f"client {cid} has {FRAME_CREDIT} paced calls parked")
        call = _FrameCall(cid, ack, paced, current_trace())
        latest = self.store.latest()
        if paced:
            if latest is not None and latest.seq > sub.seq and not sub.calls:
                self._push_frames.inc()
                return self._reply(call, latest, True, self._env_of(latest))
        elif latest is not None and latest.key == self.pipeline.current_key():
            self.pipeline.note_cache_hit()
            return self._reply(call, latest, True)
        call.deferred = self.dlib.defer()
        if call.trace is not None:
            call.wait_start = call.trace.now()
        if paced:
            # A seat holds one unit of demand while any of its calls is
            # parked, so re-arming a credit does not wake the producer.
            if not sub.calls:
                self.pipeline.add_demand()
            sub.calls.append(call)
        else:
            call.seq0 = latest.seq if latest is not None else 0
            call.deadline = time.monotonic() + self._frame_wait
            self.pipeline.add_demand()
            self._waiters.append(call)
        return call.deferred

    def _prune(self, sub: Subscription) -> None:
        """Forget ``sub``'s calls whose connection died while parked."""
        live = deque(call for call in sub.calls if not call.deferred.done)
        if sub.calls and not live:
            self.pipeline.remove_demand()
        sub.calls = live

    def _reply(
        self, call: _FrameCall, frame: PublishedFrame, cached: bool,
        env: dict | None = None,
    ) -> dict:
        """Answer one ``wt.frame`` call with ``frame``; ``env`` is an
        ``env`` snapshot already taken for this publication.

        A traced call that waited gets the production stages grafted
        under ``frame_wait``: they ran on the pipeline threads, so their
        measured durations are re-plotted back-to-back inside the wait.
        """
        trace = call.trace
        if trace is not None and not cached:
            wait_span = trace.mark(
                "frame_wait", trace.now() - call.wait_start, start=call.wait_start
            )
            offset = call.wait_start
            for stage in STAGES:
                seconds = float(frame.stage_seconds.get(stage, 0.0))
                wait_span.add_child(stage, offset, seconds)
                offset += seconds
        if env is None:
            with trace.span("snapshot") if trace else nullcontext():
                env = self._env_sections()
        if not call.paced:
            self._frames_served.inc()
            if cached:
                self._frame_cache_hits.inc()
        # A caller with no seat gets a keyframe from a throwaway record.
        sub = call.paced or self._subs.get(call.client_id) or Subscription.from_wire({})
        return self._compose(frame, cached, env, sub, bool(call.paced) or call.ack == sub.seq)

    def _resolve(self, call: _FrameCall, frame: PublishedFrame, env=None) -> None:
        try:
            reply = self._reply(call, frame, False, env)
        except Exception as exc:  # noqa: BLE001 - cross the wire
            call.deferred.fail(exc)
        else:
            call.deferred.resolve(reply)

    def _sweep(self, frame: PublishedFrame | None = None) -> None:
        """Settle parked pulled calls: resolve those ``frame`` answers, or
        (no frame, the tick) fail the expired ones.  A call leaves the
        list, and gives back its pipeline demand, in exactly one place.

        ``frame`` answers a call when production moved past the request:
        newer than anything published when it arrived, at most one
        production period behind the clock.
        """
        if not self._waiters:
            return
        key = self.pipeline.current_key()
        now = time.monotonic()
        alive = self.pipeline.alive
        keep = []
        for call in self._waiters:
            deferred = call.deferred
            if deferred.done:
                pass  # connection died while parked, or the seat went
            elif frame is not None and (
                frame.key == key or (frame.seq > call.seq0 and frame.version >= key[0])
            ):
                self._resolve(call, frame)
            elif not alive:
                deferred.fail(RuntimeError("windtunnel server is shutting down"))
            elif now > call.deadline:
                deferred.fail(RuntimeError("timed out waiting for a frame"))
            else:
                keep.append(call)
                continue
            self.pipeline.remove_demand()
        self._waiters = keep

    def _tick(self) -> None:
        """The sweep tick: expire pulled calls; forget paced calls whose
        connection died, and fail them all once the server stops."""
        self._sweep()
        alive = self.pipeline.alive
        for sub in self._subs.values():
            if sub.calls and not alive:
                self._fail_paced(sub, lambda: RuntimeError("windtunnel server is shutting down"))
            elif sub.calls and sub.calls[0].deferred.done:
                self._prune(sub)

    def _on_publish(self, frame: PublishedFrame) -> None:
        """Settle the calls ``frame`` answers: the oldest paced call of
        each seat lacking it, then the pulled ones."""
        t0 = time.perf_counter()
        paced, env = 0, None
        for sub in self._subs.values():
            calls = sub.calls
            if not calls or frame.seq <= sub.seq:
                continue
            while calls and calls[0].deferred.done:
                calls.popleft()  # connection died while parked
            if calls:
                if env is None:
                    env = self._env_of(frame)
                self._resolve(calls.popleft(), frame, env)
                paced += 1
            if not calls:
                self.pipeline.remove_demand()
        self._sweep(frame)
        if paced:
            self._publications.inc()
            self._push_frames.inc(paced)
            self._push_latency.observe(time.perf_counter() - t0)

    # -- the composer ----------------------------------------------------------

    def _env_of(self, frame: PublishedFrame) -> dict:
        """The ``env`` snapshot a paced reply with ``frame`` carries: one
        is taken for the newest publication a paced reply was composed
        with, and serves every paced reply until a newer one — so
        snapshots only move forward, and a reader never gets an ``env``
        older than one it was sent before."""
        seq, env = self._paced_env
        if frame.seq > seq:
            env = self._env_sections()
            self._paced_env = (frame.seq, env)
        return env

    def _env_sections(self) -> dict:
        """The ``env`` snapshot now, each section encoded on its own."""
        snapshot = self.env.snapshot(self._time_fn())
        users, wire = self._users_wire
        sections = {
            key: wire if key == "users" and value is users else PreEncoded.wrap(value)
            for key, value in snapshot.items()
        }
        self._users_wire = (snapshot.get("users"), sections.get("users"))
        return sections

    def _compose(
        self, frame: PublishedFrame, cached: bool, env: dict, sub: Subscription,
        holds: bool,
    ) -> dict:
        """Build the reply ``sub`` is owed for ``frame`` — the one composer
        behind cache hits and resolved continuations, pulled or paced.

        ``env`` is the ``env`` snapshot, ``{section: PreEncoded}``.
        ``holds`` says the reader holds the frame last composed for
        ``sub`` (it acked ``sub.seq``, or the reply is paced, queued on
        the connection that frame was queued on).  Then, with deltas on and
        the same ``env`` sections as ``sub.env``, the reply ships only the
        interesting rakes whose digests changed since that frame, a
        changed ``q16`` rake predicted from the copy the reader holds, and
        only the ``env`` sections whose bytes differ from ``sub.env``'s
        (no ``env`` when none do).  Anything else gets a keyframe, which
        is the resync: a lost reply costs one keyframe, the whole ``env``
        included.  A section that leaves the snapshot (a state provider
        removed) thus goes with a keyframe, never lingering in a merge.

        The ack names a frame, not a reply, so a section of ``sub.env``
        is known only while every reply composed for ``sub.seq`` left it
        the same: one that re-sends that frame with another section makes
        the section unknown (a lost re-send is not seen), and until the
        next frame every reply carries it; another set of sections makes
        the whole unknown, and until the next frame every reply is a
        keyframe.
        """
        rids = [
            rid for rid, entry in frame.entries.items() if sub.wants(rid, entry.kind)
        ]
        known = sub.env
        if (
            holds and sub.deltas and sub.seq
            and known is not None and known.keys() == env.keys()
        ):
            mode, base, held = "delta", sub.seq, sub.entries
            send = [
                rid for rid in rids
                if rid not in held or held[rid].digest != frame.entries[rid].digest
            ]
            removed = [rid for rid in held if rid not in frame.entries]
            carried = {
                key: value for key, value in env.items() if value.data != known[key]
            }
        else:
            mode, base, held, send, removed = "keyframe", 0, None, rids, []
            carried = env
        fragment = frame.compose(send, encoding=sub.encoding, held=held)
        (self._delta_frames if mode == "delta" else self._keyframes).inc()
        self._bytes_hist.observe(float(fragment.nbytes))
        reply = {
            "timestep": frame.timestep,
            "steer_epoch": frame.steer_epoch,
            "paths": fragment,
            "compute_seconds": frame.compute_seconds,
            "cached": cached,
            "v2": {
                "seq": frame.seq,
                "mode": mode,
                "base": base,
                "encoding": sub.encoding,
                "removed": removed,
            },
        }
        if mode == "keyframe" or carried:
            reply["env"] = carried
        sections = {key: value.data for key, value in env.items()}
        if frame.seq == sub.seq:  # re-sent: the reader holds either env
            if known is None or known.keys() != sections.keys():
                sections = None
            else:
                sections = {
                    key: data if data == known[key] else None
                    for key, data in sections.items()
                }
        sub.seq, sub.entries, sub.env = frame.seq, frame.entries, sections
        return reply


class HeldScene:
    """The client half: the per-rake scene and the ``env`` block a
    reader holds, and the publication ``seq`` they describe — the ack its
    next pull sends.

    Start a fresh one whenever the terms change (a subscribe, or the
    terms a resume re-sends): it holds nothing and acks 0, so the next
    frame is a keyframe.
    """

    def __init__(self) -> None:
        self.paths: dict = {}
        self.env: dict = {}
        self.seq = 0
        self._lock = threading.Lock()  # replies merge on the reading thread

    def integrate(self, state: dict) -> dict | None:
        """Merge one enveloped reply; return the state to show.

        A keyframe replaces the scene and ``env``; a delta overlays its
        rakes and drops ``removed``, a predicted ``q16`` rake decoded
        against the copy held, and merges the ``env`` sections it carries
        over the ones held, so every state returned has the full ``env``.
        A delta against a base this scene does not hold, or predicting a
        rake from a copy it does not hold (none, or one of another shape),
        returns ``None`` — the caller keeps showing what it showed — and
        resets the ack to 0 so the next pull resyncs with a keyframe.
        """
        v2 = state["v2"]
        with self._lock:
            delta = v2["mode"] == "delta"
            if delta and int(v2["base"]) != self.seq:
                self.seq = 0
                return None
            base = self.paths if delta else {}
            decoded = {}
            for rid, entry in state.get("paths", {}).items():
                prior = base.get(rid)
                try:
                    decoded[rid] = decode_path_entry(entry, prior)
                except DlibProtocolError:
                    if not (isinstance(entry, dict) and entry.get("qpred")):
                        raise
                    # Predicted from a copy this scene does not hold (none,
                    # or one of another shape): resync.
                    self.seq = 0
                    return None
            if delta:
                held = dict(base)
                for rid in v2.get("removed", []):
                    held.pop(rid, None)
                held.update(decoded)
                env = {**self.env, **state.get("env", {})}
            else:
                held, env = decoded, state.get("env", self.env)
            self.paths, self.seq, self.env = held, int(v2["seq"]), env
        return dict(state, paths=held, env=env)
