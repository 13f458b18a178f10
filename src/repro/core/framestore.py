"""The published-frame store: figure 8's hand-off buffer, made explicit.

The producer pipeline computes and encodes frames; the dlib service
thread serves them.  The seam between the two is this store: a slot
holding the latest :class:`PublishedFrame` behind a lock.  Publishing is
the only write; reads are lock-brief snapshots of an immutable frame
(the reader's own reference keeps it alive past the next publish); a
reader that needs a *fresher* frame subscribes a listener.

Invariants (docs/architecture.md, docs/network.md):

* **Immutability.**  Published frames never change after publication:
  the path arrays are read-only NumPy views and every wire encoding is a
  frozen byte fragment (:class:`~repro.dlib.protocol.PreEncoded`), so N
  clients share one frame with zero copies and zero risk of cross-client
  corruption — the shared-visualization guarantee of section 5.1,
  enforced by the buffer flags instead of by convention.
* **Encode-once, per encoding.**  A frame is a dict of
  :class:`RakeEntry` objects, and an entry outlives the frame: every
  frame whose rake has the same content holds the same entry.  Each of
  its wire forms — full precision (``v1``), and the two fixed-point
  (``q16``) ones: the keyframe, and the residual predicted from one base
  entry a reader holds — is produced at most once per entry, on first
  request, and shared by all readers of all those frames;
  ``net.encode_cache_hits`` counts the reuse of the ``q16`` forms.  An
  entry no reader asked for in ``v1`` never holds a float32 copy of its
  vertices as wire bytes.
  :meth:`PublishedFrame.compose` is the only place reply bytes are
  assembled (the value encoding is compositional: a dict's bytes are its
  entries' bytes behind a count).
* **Delta identity.**  Each rake entry carries a content digest of its
  vertex/length bytes.  Two frames whose digests match for a rake hold
  bit-identical geometry for it, which is what licenses a delta to
  omit the rake entirely (docs/network.md, "Delta frames");
  which frames a reader holds is delivery's business
  (:mod:`repro.core.delivery`), not the store's.
"""

from __future__ import annotations

import hashlib
import struct
import threading
import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.dlib.protocol import (
    PreEncoded,
    dequantize_points,
    encode_value,
    pack_q16,
    quantize_points,
    requantize_points,
)
from repro.grid.interpolation import TrilinearScratch
from repro.obs import MetricsRegistry
from repro.tracers.result import wire_arrays_batch

__all__ = [
    "ENCODINGS",
    "FrameStore",
    "PublishedFrame",
    "RakeEntry",
    "VariantCounters",
    "encode_entries",
]

#: Wire encodings a client can negotiate (docs/network.md).
#: ``v1`` = float32 (12 bytes/point), ``q16`` = per-axis fixed-point
#: int16, packed losslessly along each polyline (at most 6 bytes/point,
#: typically ~2).
ENCODINGS = ("v1", "q16")

_U32 = struct.Struct("<I")


def _digest(kind: str, vertices: np.ndarray, lengths: np.ndarray) -> bytes:
    """Content digest of one rake's geometry (bit-exact identity)."""
    h = hashlib.blake2b(digest_size=12)
    h.update(kind.encode())
    h.update(str(vertices.shape).encode())
    h.update(vertices.tobytes())
    h.update(lengths.tobytes())
    return h.digest()


def _compose(entries: dict[str, bytes]) -> PreEncoded:
    """Compose a dict-of-rakes wire value from per-rake entry fragments."""
    parts = [b"M", _U32.pack(len(entries))]
    for rid, fragment in entries.items():
        parts.append(encode_value(rid))
        parts.append(fragment)
    return PreEncoded(b"".join(parts))


class VariantCounters:
    """The ``net.*`` counters the entries of one registry record into.

    ``hits`` / ``misses`` count lookups of the lazily built ``q16``
    fragments, either form (building or reading an entry's ``v1``
    fragment is neither); ``q16_raw_bytes`` / ``q16_packed_bytes`` total
    the int16 grid sizes and the packed sizes of the q16 fragments built;
    ``predicted`` counts the lookups answered in the predicted form.
    ``registry`` defaults to a private one.
    """

    __slots__ = ("hits", "misses", "q16_raw_bytes", "q16_packed_bytes", "predicted")

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        registry = registry if registry is not None else MetricsRegistry()
        self.hits = registry.counter("net.encode_cache_hits")
        self.misses = registry.counter("net.encode_cache_misses")
        self.q16_raw_bytes = registry.counter("net.q16_raw_bytes")
        self.q16_packed_bytes = registry.counter("net.q16_packed_bytes")
        self.predicted = registry.counter("net.q16_predicted_lookups")


class RakeEntry:
    """One rake's published geometry and its wire fragments.

    ``path`` is the ``{kind, vertices, lengths}`` dict a reply carries,
    its arrays read-only; ``digest`` its content digest.  Every wire
    fragment is built on first request by :meth:`fragment` and then
    shared by every frame holding this entry and every reader of those
    frames — the encode-once guarantee, across encodings and frames.
    q16 comes in two forms: the keyframe, and at most one *predicted*
    fragment, a residual against the rake a reader already holds, keyed
    by that base entry's digest and carrying ``kind`` / ``lengths`` only
    where they differ from that base's (docs/network.md, "Encodings").
    """

    def __init__(
        self, kind: str, vertices: np.ndarray, lengths: np.ndarray,
        counters: VariantCounters,
    ) -> None:
        self.kind = kind
        self.path = {"kind": kind, "vertices": vertices, "lengths": lengths}
        self.digest = _digest(kind, vertices, lengths)
        self.n_points = int(lengths.sum())
        self._counters = counters
        self._lock = threading.Lock()
        self._fragments: dict[str, bytes] = {}
        self._quantized: dict | None = None
        self._predicted: tuple[bytes, bytes] | None = None  # (base digest, fragment)

    @property
    def variants(self) -> list[str]:
        """The encodings built so far, in either form."""
        with self._lock:
            built = list(self._fragments)
            if self._predicted is not None and "q16" not in built:
                built.append("q16")
            return built

    def fragment(self, encoding: str = "v1", base: "RakeEntry | None" = None) -> bytes:
        """The wire fragment of this entry in one encoding.

        ``base`` is the entry the reader holds for this rake.  A ``q16``
        reader gets the predicted form when ``base`` has this entry's
        ``(n, L)`` and either no predicted fragment is built yet or the
        one built is against ``base``'s content; otherwise the keyframe
        form.  So each form is built at most once per entry, however many
        readers, at whatever bases, ask.
        """
        if encoding not in ENCODINGS:
            raise ValueError(f"unknown wire encoding {encoding!r}")
        if encoding == "q16" and base is not None and (
            base.path["vertices"].shape == self.path["vertices"].shape
        ):
            predicted = self._predicted_fragment(base)
            if predicted is not None:
                return predicted
        with self._lock:
            cached = self._fragments.get(encoding)
        if cached is not None:
            if encoding != "v1":
                self._counters.hits.inc()
            return cached
        fragment = encode_value(self.path if encoding == "v1" else self._build_q16())
        with self._lock:
            fragment = self._fragments.setdefault(encoding, fragment)
        if encoding != "v1":
            self._counters.misses.inc()
        return fragment

    def _predicted_fragment(self, base: "RakeEntry") -> bytes | None:
        """The q16 fragment predicted from ``base``; ``None`` when the one
        predicted fragment this entry keeps is against another base."""
        with self._lock:
            predicted = self._predicted
        if predicted is not None and predicted[0] != base.digest:
            return None
        self._counters.predicted.inc()
        if predicted is not None:
            self._counters.hits.inc()
            return predicted[1]
        fragment = encode_value(self._build_q16(base))
        with self._lock:
            if self._predicted is None:
                self._predicted = (base.digest, fragment)
        self._counters.misses.inc()
        return fragment

    def quantized(self) -> dict:
        """:func:`~repro.dlib.protocol.quantize_points` of the vertices,
        computed once: both q16 forms of this entry are built on it, and
        the predicted form of a later entry decodes it as its base."""
        with self._lock:
            cached = self._quantized
        if cached is None:
            cached = quantize_points(self.path["vertices"])
            with self._lock:
                if self._quantized is None:
                    self._quantized = cached
        return cached

    def _build_q16(self, base: "RakeEntry | None" = None) -> dict:
        q = self.quantized()
        prediction = None
        if base is not None:
            # The vertices a q16 reader holds for ``base`` (lossless
            # packing: whichever form it arrived in), on this entry's grid.
            held = dequantize_points(base.quantized())
            prediction = requantize_points(held, q)
        packed = pack_q16(q["q"], prediction)
        self._counters.q16_raw_bytes.inc(q["q"].nbytes)
        self._counters.q16_packed_bytes.inc(len(packed["qpack"]))
        entry = {
            "kind": self.kind,
            **packed,
            "scale": q["scale"],
            "offset": q["offset"],
            "lengths": self.path["lengths"],
        }
        if base is not None:
            # The reader holds ``base``'s kind and lengths: send only
            # what differs (decode_path_entry fills in the rest).
            entry["qpred"] = True
            if base.kind == self.kind:
                del entry["kind"]
            held = base.path["lengths"]
            if held.dtype == entry["lengths"].dtype and np.array_equal(
                held, entry["lengths"]
            ):
                del entry["lengths"]
        return entry


def encode_entries(
    kinds: dict,
    results: dict,
    scratch: TrilinearScratch | None = None,
    counters: VariantCounters | None = None,
) -> dict:
    """One-shot wire conversion of tracer results: ``{key: RakeEntry}``.

    This is the *only* place path arrays become float32 wire arrays;
    each entry serializes them on first request
    (:meth:`RakeEntry.fragment`).  ``kinds`` and ``results`` share their
    keys (rake ids, or the frame pipeline's memo keys).  The results are
    converted grid -> physical in one batch
    (:func:`~repro.tracers.result.wire_arrays_batch`) on ``scratch`` —
    the calling thread's sampler storage; a one-off caller omits it, and
    ``counters`` too.
    """
    counters = counters if counters is not None else VariantCounters()
    wire = wire_arrays_batch(results, scratch or TrilinearScratch())
    return {
        key: RakeEntry(kinds[key], vertices, lengths, counters)
        for key, (vertices, lengths) in wire.items()
    }


@dataclass(frozen=True)
class PublishedFrame:
    """One immutable, wire-ready frame of the shared visualization.

    Attributes
    ----------
    version, timestep
        The environment epoch this frame was computed for — the old
        cache key, now explicit provenance.
    seq
        Monotonic publication number (assigned by the store).  Also the
        delivery ack token: a client acknowledges the last seq it
        integrated, and deltas are expressed against it.
    entries
        ``{rake_id: RakeEntry}`` — each rake's geometry and fragments,
        shared with every other frame in which the rake has that content.
    compute_seconds
        Production cost (load + locate + integrate).
    stage_seconds
        Per-stage wall times: ``load``, ``locate``, ``integrate``,
        ``encode`` (encode is stamped by the encode stage just before
        publication).
    steer_epoch
        Steering provenance: the last applied steering epoch the solver
        state reflected when this frame's timestep was produced (0 for
        replay datasets and for live frames before any steering).  A
        client that issued ``wt.steer`` watches this field to know when
        the flow it sees includes its change (docs/steering.md).
    """

    version: int
    timestep: int
    seq: int
    entries: dict
    compute_seconds: float
    stage_seconds: dict = field(default_factory=dict)
    steer_epoch: int = 0

    @property
    def key(self) -> tuple[int, int]:
        return (self.version, self.timestep)

    @property
    def paths(self) -> dict:
        """``{rake_id: {kind, vertices, lengths}}`` with read-only arrays."""
        return {rid: entry.path for rid, entry in self.entries.items()}

    @property
    def n_points(self) -> int:
        """Total valid path points (the paper's particle count)."""
        return sum(entry.n_points for entry in self.entries.values())

    def compose(
        self, rids: list[str], encoding: str = "v1", held: dict | None = None
    ) -> PreEncoded:
        """Wire fragment of the paths dict restricted to ``rids``.

        For ``encoding="v1"`` and the full rake set this is byte-identical
        to ``encode_value(self.paths)`` — a ``v1`` keyframe.  ``held`` is
        ``{rake_id: RakeEntry}`` of the frame the reader holds: a ``q16``
        rake it holds may then ship predicted from its held copy
        (:meth:`RakeEntry.fragment`).
        Each entry builds each form at most once, however many readers
        and frames ask for it.
        """
        held = held or {}
        return _compose({
            rid: self.entries[rid].fragment(encoding, held.get(rid)) for rid in rids
        })


class FrameStore:
    """Publication point between producer and servers.

    One writer (the pipeline's encode stage), any number of readers (the
    dlib service thread today; sharded servers tomorrow).  ``publish``
    swaps the new frame in and calls every subscribed listener;
    ``latest`` is a snapshot read.  Publish cadence is recorded as
    ``framestore.*`` in ``registry`` (a private one when omitted).
    """

    def __init__(self, *, registry=None) -> None:
        self._lock = threading.Lock()
        self._listeners: list = []
        self._front: PublishedFrame | None = None
        self._seq = 0
        self._last_publish_mono: float | None = None
        registry = registry if registry is not None else MetricsRegistry()
        self._published = registry.counter("framestore.frames_published")
        self._gap_hist = registry.histogram("framestore.publish_gap_seconds")

    @property
    def seq(self) -> int:
        """Sequence number of the latest published frame (0 = none yet)."""
        with self._lock:
            return self._seq

    def latest(self) -> PublishedFrame | None:
        with self._lock:
            return self._front

    def subscribe(self, listener) -> None:
        """Call ``listener(frame)`` after every publication.

        Listeners run on the *publishing* thread (the pipeline's encode
        stage), outside the store's lock — a listener that needs another
        thread (the dlib event loop) must marshal itself across, e.g.
        via ``DlibServer.call_soon``.  A listener that raises is the
        publisher's bug; exceptions propagate.
        """
        with self._lock:
            self._listeners.append(listener)

    @property
    def published_total(self) -> int:
        return self._published.value

    @property
    def publish_period_mean(self) -> float:
        """Mean seconds between consecutive publishes (0 if < 2 frames)."""
        return self._gap_hist.stats.mean

    def publish(self, frame: PublishedFrame) -> PublishedFrame:
        """Swap ``frame`` in as the current frame; call the listeners.

        The store assigns the sequence number — callers build frames with
        ``seq=0`` and receive the stamped copy back.
        """
        with self._lock:
            self._seq += 1
            stamped = replace(frame, seq=self._seq)
            self._front = stamped
            now = time.monotonic()
            if self._last_publish_mono is not None:
                self._gap_hist.observe(now - self._last_publish_mono)
            self._last_publish_mono = now
            self._published.inc()
            listeners = list(self._listeners)
        for listener in listeners:
            listener(stamped)
        return stamped
