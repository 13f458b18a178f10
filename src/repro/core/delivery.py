"""Frame delivery: both halves of the v2 contract (docs/network.md).

The ``"v2"`` envelope (``seq``, ``mode``, ``base``, ``encoding``,
``removed``) is written and read here and nowhere else.
:class:`Delivery`, on the dlib event loop, holds every seat's
:class:`Subscription`, parks ``wt.frame`` calls, binds push connections
and builds every reply, enveloped, with one composer: a delta against
the frame last composed for the subscription when the reader holds it,
a keyframe otherwise; a delta carries only the sections of the ``env``
block (``version``, ``clock``, ``rakes``, ``users``, each state
provider's key) that differ from the ones the reader holds.
:class:`HeldScene` is the client's half: the scene and ``env`` it holds,
its ack.

One delta base per connection: every frame message queued on a
push-bound connection, pulled or pushed, is a delta against the one
queued just before it, and no publication is pushed to it twice.
"""

from __future__ import annotations

import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.core.framestore import ENCODINGS, PublishedFrame
from repro.core.pipeline import STAGES
from repro.dlib.protocol import DlibProtocolError, PreEncoded, decode_path_entry
from repro.dlib.server import Deferred
from repro.obs import Trace, current_trace

__all__ = ["Delivery", "HeldScene", "Subscription"]


@dataclass
class Subscription:
    """One seat's delivery terms, plus the live state that serves them.

    Every seat holds one from the moment it is seated — the defaults,
    ``from_wire({})``, until ``wt.subscribe`` replaces them.  The five
    option fields are what ``wt.subscribe`` negotiates
    (docs/network.md), what the gateway journals (:meth:`to_wire`) and
    what ``wt.restore`` feeds back (:meth:`from_wire`).  They are never
    assigned after construction — re-negotiating replaces the record —
    and they alone decide equality.  The live part: ``conn`` (the
    connection push delivery is bound to — by ``wt.subscribe`` only, a
    restored record has no socket to its client yet), ``seq`` (the
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
    conn: object = field(default=None, compare=False)
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
    conn: object  # the connection it arrived on
    trace: Trace | None
    deferred: Deferred | None = None
    seq0: int = 0  # newest publication when the call arrived
    deadline: float = 0.0  # ``time.monotonic()`` past which the wait fails
    wait_start: float = 0.0  # trace-relative moment the wait began


class Delivery:
    """The server half: subscriptions, parked pulls, push bindings and
    the one composer, all owned by the dlib event loop.

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
        # Parked ``wt.frame`` calls: a publication resolves them, the
        # sweep tick expires them.
        self._waiters: list[_FrameCall] = []
        self._frames_served = registry.counter("wt.frames_served")
        self._frame_cache_hits = registry.counter("wt.frame_cache_hits")
        self._bytes_hist = registry.histogram("net.bytes_per_frame")
        self._keyframes = registry.counter("net.keyframes")
        self._delta_frames = registry.counter("net.delta_frames")
        self._push_frames = registry.counter("net.push_frames")
        self._push_latency = registry.histogram("net.push_latency_seconds")
        self._publications = registry.counter("net.publications_fanned_out")
        dlib.add_tick(lambda ctx: self._sweep(), interval=0.05)
        # Listeners run on the encoder thread; all delivery state is
        # loop-owned, so the publication crosses over first.
        self.store.subscribe(
            lambda frame: dlib.call_soon(lambda: self._on_publish(frame))
        )

    def stats(self) -> dict:
        """Delivery's rows of ``wt.stats``."""
        return {
            "push_subscriptions": sum(
                1 for sub in self._subs.values() if sub.conn is not None
            ),
            "push_frames": self._push_frames.value,
            "frame_waiters": len(self._waiters),
        }

    # -- terms ---------------------------------------------------------------

    def subscribe(self, cid: int, options: dict) -> dict:
        """``wt.subscribe``: negotiate terms and bind push delivery to the
        calling connection."""
        sub = self.restore(cid, options)
        conn = self.dlib.current_connection() if sub.push else None
        if conn is not None:
            # Push subscribers never poll, so the binding itself holds
            # the demand that keeps the producer following the clock
            # (given back in ``_unbind``).
            sub.conn = conn
            self.pipeline.add_demand()
        return {
            "seq": self.store.seq,
            **sub.to_wire(),
            "push": sub.conn is not None,  # armed, not merely asked for
        }

    def restore(self, cid: int, options: dict) -> Subscription:
        """Install ``options`` as ``cid``'s subscription: seating a client
        (``{}``, the defaults), ``wt.subscribe`` and ``wt.restore``'s
        journal replay all come through here.  Last-write-wins: the prior
        record and its binding go — once the new options have validated."""
        sub = Subscription.from_wire(options)
        self.drop(cid)
        self._subs[cid] = sub
        return sub

    def drop(self, cid: int) -> None:
        """Drop ``cid``'s subscription with its seat (leave, reap).

        The record and its push binding die with the client, so a churn
        of short-lived clients costs nothing once they are gone.
        """
        sub = self._subs.pop(cid, None)
        if sub is not None:
            self._unbind(sub)

    def _unbind(self, sub: Subscription) -> None:
        """Stop pushing to ``sub``; gives back the demand its binding held."""
        if sub.conn is not None:
            sub.conn = None
            self.pipeline.remove_demand()

    # -- pull ----------------------------------------------------------------

    def frame(self, cid: int, ack: int):
        """``wt.frame``: answer from the latest publication, or park.

        A request the store cannot satisfy yet parks as a dlib
        continuation holding pipeline demand; the publication that is at
        least as new as everything published at arrival resolves it (a
        mid-wait environment change extends the wait), and the sweep
        tick expires it after ``frame_wait``.
        """
        call = _FrameCall(cid, ack, self.dlib.current_connection(), current_trace())
        latest = self.store.latest()
        if latest is not None and latest.key == self.pipeline.current_key():
            self.pipeline.note_cache_hit()
            return self._pull_reply(call, latest, True)
        call.deferred = self.dlib.defer()
        call.seq0 = latest.seq if latest is not None else 0
        call.deadline = time.monotonic() + self._frame_wait
        if call.trace is not None:
            call.wait_start = call.trace.now()
        self.pipeline.add_demand()
        self._waiters.append(call)
        return call.deferred

    def _pull_reply(
        self, call: _FrameCall, frame: PublishedFrame, cached: bool
    ) -> dict:
        """Answer one ``wt.frame`` call with ``frame``.

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
        with trace.span("snapshot") if trace else nullcontext():
            env = self._env_sections()
        self._frames_served.inc()
        if cached:
            self._frame_cache_hits.inc()
        # A caller with no seat gets a keyframe from a throwaway record.
        sub = self._subs.get(call.client_id) or Subscription.from_wire({})
        bound = sub.conn is not None and sub.conn is call.conn
        return self._compose(frame, cached, env, sub, bound or call.ack == sub.seq)

    def _sweep(self, frame: PublishedFrame | None = None) -> None:
        """Settle parked calls: resolve those ``frame`` satisfies, or (no
        frame, the tick) fail the expired ones.  A call leaves the list,
        and gives back its pipeline demand, in exactly one place."""
        if not self._waiters:
            return
        key = self.pipeline.current_key()
        now = time.monotonic()
        alive = self.pipeline.alive
        keep = []
        for call in self._waiters:
            deferred = call.deferred
            if deferred.done:
                pass  # connection died while parked
            elif frame is not None and (
                frame.key == key
                # Or production moved past the request: newer than
                # anything published when it arrived, at most one
                # production period behind the clock.
                or (frame.seq > call.seq0 and frame.version >= key[0])
            ):
                try:
                    reply = self._pull_reply(call, frame, False)
                except Exception as exc:  # noqa: BLE001 - cross the wire
                    deferred.fail(exc)
                else:
                    deferred.resolve(reply)
            elif not alive:
                deferred.fail(RuntimeError("windtunnel server is shutting down"))
            elif now > call.deadline:
                deferred.fail(RuntimeError("timed out waiting for a frame"))
            else:
                keep.append(call)
                continue
            self.pipeline.remove_demand()
        self._waiters = keep

    # -- push ----------------------------------------------------------------

    def _on_publish(self, frame: PublishedFrame) -> None:
        """Wake parked calls, then fan out: a ``Deferred`` queues its reply
        by loop callback, so the fan-out is one too, scheduled after it —
        no push of this publication or a later one overtakes that reply."""
        self._sweep(frame)
        if any(sub.conn is not None for sub in self._subs.values()):
            self.dlib.call_soon(lambda: self._fan_out(frame))

    def _fan_out(self, frame: PublishedFrame) -> None:
        """Push ``frame`` to every bound connection that lacks it: one env
        snapshot encoded for all, path fragments shared through the frame's
        entries, a backlogged subscriber shed before its payload is built."""
        pushers = [sub for sub in self._subs.values() if sub.conn is not None]
        if not pushers:
            return
        self._publications.inc()
        t0 = time.perf_counter()
        env_wire = None
        for sub in pushers:
            if not self.dlib.is_connected(sub.conn):
                self._unbind(sub)
                continue
            if sub.seq >= frame.seq:
                continue  # a pull already queued it (or a newer frame) here
            if self.dlib.push_backlogged(sub.conn):
                continue  # shed: the delta base must not advance either
            if env_wire is None:
                env_wire = self._env_sections()
            # TCP ordering: a queued frame either arrives or the
            # connection dies, so the base advances without an ack.
            reply = self._compose(frame, False, env_wire, sub, True)
            if self.dlib.push(sub.conn, reply, shed=False):
                self._push_frames.inc()
        self._push_latency.observe(time.perf_counter() - t0)

    # -- the composer ----------------------------------------------------------

    def _env_sections(self) -> dict:
        """The ``env`` snapshot now, each section encoded on its own."""
        snapshot = self.env.snapshot(self._time_fn())
        return {key: PreEncoded.wrap(value) for key, value in snapshot.items()}

    def _compose(
        self, frame: PublishedFrame, cached: bool, env: dict, sub: Subscription,
        holds: bool,
    ) -> dict:
        """Build the reply ``sub`` is owed for ``frame`` — the one composer
        behind cache hits, resolved continuations and PUSH.

        ``env`` is the ``env`` snapshot, ``{section: PreEncoded}``.
        ``holds`` says the reader holds the frame last composed for
        ``sub`` (it acked ``sub.seq``, or the reply goes to the bound
        connection that frame was queued on).  Then, with deltas on and
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
        self._lock = threading.Lock()  # pushes merge on the reading thread

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
