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
* **Encode-once, per variant.**  The full-precision (``v1``) per-rake
  fragments are produced exactly once, at publish time, and seed the
  frame's :class:`EncodingCache`.  Every other wire variant a client can
  negotiate — float16 or fixed-point quantization, decimation — is
  produced at most once per ``(rake, encoding, decimate)`` by that cache
  and shared by all readers; ``net.encode_cache_hits`` counts the reuse.
  :meth:`PublishedFrame.compose` is the only place reply bytes are
  assembled (the value encoding is compositional: a dict's bytes are its
  entries' bytes behind a count).
* **Delta identity.**  Each rake entry carries a content digest of its
  vertex/length bytes.  Two frames whose digests match for a rake hold
  bit-identical geometry for it, which is what licenses the v2 delta
  path to omit the rake entirely (docs/network.md, "Delta frames").
  The store keeps a bounded history of per-frame digest maps so the
  server can delta against any frame a client recently acknowledged.
"""

from __future__ import annotations

import hashlib
import struct
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace

import numpy as np

from repro.dlib.protocol import PreEncoded, encode_value, pack_q16, quantize_points
from repro.grid.interpolation import TrilinearScratch
from repro.obs import MetricsRegistry
from repro.tracers.result import wire_arrays_batch

__all__ = [
    "ENCODINGS",
    "EncodingCache",
    "FrameStore",
    "PublishedFrame",
    "encode_published",
]

#: Wire encodings a client can negotiate (docs/network.md).
#: ``v1`` = float32 (12 bytes/point), ``f16`` = IEEE half precision
#: (6 bytes/point), ``q16`` = per-axis fixed-point int16, packed
#: losslessly along each polyline (at most 6 bytes/point, typically ~2).
ENCODINGS = ("v1", "f16", "q16")

#: How many published frames' digest maps the store remembers — the
#: window inside which a client's acked frame can still anchor a delta.
DIGEST_HISTORY = 64

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


def encode_published(
    kinds: dict[int, str],
    results: dict,
    scratch: TrilinearScratch | None = None,
    **provenance,
) -> "PublishedFrame":
    """One-shot wire encoding of a frame's tracer results.

    This is the *only* place path arrays are serialized at full
    precision: the per-rake ``v1`` fragments seed the returned frame's
    :class:`EncodingCache`, and every ``wt.frame`` response afterwards
    splices them verbatim through :meth:`PublishedFrame.compose`.
    The frame's rakes are converted grid -> physical in one batch
    (:func:`~repro.tracers.result.wire_arrays_batch`) on ``scratch`` —
    the calling thread's sampler storage; a one-off caller omits it.
    ``provenance`` is the rest of the :class:`PublishedFrame` (version,
    timestep, seq, costs); the frame is built here, unpublished.
    """
    paths: dict[str, dict] = {}
    fragments: dict[str, bytes] = {}
    digests: dict[str, bytes] = {}
    n_points = 0
    wire = wire_arrays_batch(results, scratch or TrilinearScratch())
    for rid, (vertices, lengths) in wire.items():
        key = str(rid)
        entry = {
            "kind": kinds[rid],
            "vertices": vertices,  # float32: 12 bytes/point
            "lengths": lengths,
        }
        paths[key] = entry
        fragments[key] = encode_value(entry)
        digests[key] = _digest(kinds[rid], vertices, lengths)
        n_points += int(lengths.sum())
    return PublishedFrame(
        paths=paths,
        n_points=n_points,
        digests=digests,
        enc_cache=EncodingCache(fragments),
        **provenance,
    )


def _decimate_entry(entry: dict, decimate: int) -> dict:
    """Keep every ``decimate``-th path point."""
    vertices = np.ascontiguousarray(entry["vertices"][:, ::decimate, :])
    lengths = (np.asarray(entry["lengths"]) + decimate - 1) // decimate
    return {
        "kind": entry["kind"],
        "vertices": vertices,
        "lengths": np.ascontiguousarray(lengths.astype(np.int64)),
    }


class EncodingCache:
    """Per-frame cache of wire-variant fragments, built at most once each.

    Keyed by ``(rid, encoding, decimate)``.  ``seed`` is the
    ``{rid: fragment}`` of v1/undecimated entries :func:`encode_published`
    built at publish time; everything else is encoded lazily on first
    request and then shared by every reader — the encode-once guarantee,
    extended to the whole variant space.  ``hits`` / ``misses`` count the
    lazy variants only: reading a seeded entry is neither.

    ``q16_raw_bytes`` / ``q16_packed_bytes`` total the int16 grid sizes
    and the packed sizes of the q16 variants built here (the server
    surfaces them as ``net.q16_raw_bytes`` / ``net.q16_packed_bytes``).
    """

    def __init__(self, seed: dict[str, bytes] | None = None) -> None:
        self._lock = threading.Lock()
        self._fragments: dict[tuple, bytes] = {
            (rid, "v1", 1): fragment for rid, fragment in (seed or {}).items()
        }
        self._seeded = frozenset(self._fragments)
        self.hits = 0
        self.misses = 0
        self.q16_raw_bytes = 0
        self.q16_packed_bytes = 0

    def entry(self, frame: "PublishedFrame", rid: str, encoding: str, decimate: int) -> bytes:
        key = (rid, encoding, decimate)
        with self._lock:
            cached = self._fragments.get(key)
            if cached is not None:
                if key not in self._seeded:
                    self.hits += 1
                return cached
        fragment = encode_value(self._build(frame.paths[rid], encoding, decimate))
        with self._lock:
            self._fragments.setdefault(key, fragment)
            self.misses += 1
        return fragment

    def _build(self, entry: dict, encoding: str, decimate: int) -> dict:
        if encoding not in ENCODINGS:
            raise ValueError(f"unknown wire encoding {encoding!r}")
        if decimate < 1:
            raise ValueError("decimate must be >= 1")
        if decimate > 1:
            entry = _decimate_entry(entry, decimate)
        if encoding == "f16":
            return {
                "kind": entry["kind"],
                "vertices": np.ascontiguousarray(
                    entry["vertices"], dtype=np.float16
                ),
                "lengths": entry["lengths"],
            }
        if encoding == "q16":
            q = quantize_points(entry["vertices"])
            packed = pack_q16(q["q"])
            with self._lock:
                self.q16_raw_bytes += q["q"].nbytes
                self.q16_packed_bytes += len(packed["qpack"])
            return {
                "kind": entry["kind"],
                **packed,
                "scale": q["scale"],
                "offset": q["offset"],
                "lengths": entry["lengths"],
            }
        return entry  # "v1", decimated


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
        v2 delivery ack token: a subscribed client acknowledges the last
        seq it integrated, and deltas are expressed against it.
    paths
        ``{rake_id: {kind, vertices, lengths}}`` with read-only arrays.
    compute_seconds
        Production cost (load + locate + integrate).
    stage_seconds
        Per-stage wall times: ``load``, ``locate``, ``integrate``,
        ``encode`` (encode is stamped by the encode stage just before
        publication).
    n_points
        Total valid path points (the paper's particle count).
    digests
        ``{rake_id: content digest}`` — bit-exact geometry identity per
        rake, the basis of delta frames (docs/network.md).
    steer_epoch
        Steering provenance: the last applied steering epoch the solver
        state reflected when this frame's timestep was produced (0 for
        replay datasets and for live frames before any steering).  A
        client that issued ``wt.steer`` watches this field to know when
        the flow it sees includes its change (docs/steering.md).
    enc_cache
        The frame's wire fragments by ``(rake, encoding, decimate)``,
        seeded with the v1 ones; :meth:`compose` reads through it.
    """

    version: int
    timestep: int
    seq: int
    paths: dict
    compute_seconds: float
    stage_seconds: dict = field(default_factory=dict)
    n_points: int = 0
    digests: dict = field(default_factory=dict)
    steer_epoch: int = 0
    enc_cache: EncodingCache = field(
        default_factory=EncodingCache, compare=False, repr=False
    )

    @property
    def key(self) -> tuple[int, int]:
        return (self.version, self.timestep)

    def compose(
        self, rids: list[str], encoding: str = "v1", decimate: int = 1
    ) -> PreEncoded:
        """Wire fragment of the paths dict restricted to ``rids``.

        For ``encoding="v1", decimate=1`` and the full rake set this is
        byte-identical to ``encode_value(self.paths)`` — the reply an
        un-negotiated client has always received.  Entries come from the
        frame's :class:`EncodingCache`, so each is encoded at most once
        regardless of how many readers ask for it.
        """
        return _compose(
            {rid: self.enc_cache.entry(self, rid, encoding, decimate) for rid in rids}
        )


class FrameStore:
    """Publication point between producer and servers.

    One writer (the pipeline's encode stage), any number of readers (the
    dlib service thread today; sharded servers tomorrow).  ``publish``
    swaps the new frame in and calls every subscribed listener;
    ``latest`` is a snapshot read.  Publish cadence is recorded as
    ``framestore.*`` in ``registry`` (a private one when omitted).
    """

    def __init__(self, *, registry=None, digest_history: int = DIGEST_HISTORY) -> None:
        self._lock = threading.Lock()
        self._listeners: list = []
        self._front: PublishedFrame | None = None
        self._seq = 0
        self._last_publish_mono: float | None = None
        self._digest_history_cap = int(digest_history)
        self._digest_history: OrderedDict[int, dict] = OrderedDict()
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

    def digests_at(self, seq: int) -> dict | None:
        """Per-rake digest map of publication ``seq``, if still remembered.

        ``None`` means the seq left the bounded history (or never existed)
        — the caller must fall back to a keyframe (delta resync).
        """
        with self._lock:
            return self._digest_history.get(int(seq))

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

    def unsubscribe(self, listener) -> None:
        with self._lock:
            try:
                self._listeners.remove(listener)
            except ValueError:
                pass

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
            self._digest_history[self._seq] = stamped.digests
            while len(self._digest_history) > self._digest_history_cap:
                self._digest_history.popitem(last=False)
            now = time.monotonic()
            if self._last_publish_mono is not None:
                self._gap_hist.observe(now - self._last_publish_mono)
            self._last_publish_mono = now
            self._published.inc()
            listeners = list(self._listeners)
        for listener in listeners:
            listener(stamped)
        return stamped
