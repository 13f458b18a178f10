"""Tier 2: a shared-memory timestep cache for co-located sessions.

The one shared-memory field store: a named, crash-safe cache segment
that any process on the machine can attach, so gateway workers serving
the same dataset hold no private copies of each decoded timestep and N
co-located sessions perform ≈1× aggregate disk reads
(``benchmarks/test_cache_tiers.py``), and a live tunnel's solver child
hands the server its window of timesteps (docs/steering.md).

Layout of the single ``multiprocessing.shared_memory`` segment (all
metadata is aligned int64, so loads/stores are single machine words)::

    header      [magic, version, n_slots, slot_nbytes, tick,
                 creator_pid, key_hash]
    slot meta   n_slots x [seq, timestep, written]
    payload     n_slots x slot_nbytes of float64

**Consistency protocol** (one seqlock ring, lock-free readers):

* A slot's ``seq`` is even when its payload is stable and odd while a
  write is in progress.  A writer bumps ``seq`` to odd, copies the
  payload, sets ``timestep``, then bumps ``seq`` back to even.
* A reader finds a slot whose ``timestep`` matches and ``seq`` is even,
  copies the payload out, then re-reads ``seq``.  If it changed, the
  copy is torn and is discarded — the reader never uses invalid data,
  with no reader-side lock at all.  Readers write nothing to the
  segment.
* Every write takes one victim: a torn slot, else an empty one, else
  the least recently *written*.  A producer that appends in timestep
  order therefore keeps its newest ``n_slots`` timesteps, whatever its
  readers do: the window is strictly FIFO.
* Writers serialize on an ``fcntl.flock`` of a sidecar file, not a
  ``multiprocessing.Lock``: the kernel drops a flock when its holder
  dies, so a SIGKILLed worker cannot wedge the cache.  (A thread lock
  around it keeps this process's threads apart: a flock is per open
  file.)  A writer that died mid-copy leaves ``seq`` odd; the slot is
  unreadable and is the *preferred* victim for the next writer.
* A reader's write, :meth:`SharedTimestepCache.fill`, reads a missing
  timestep from the source inside that lock, so processes that miss it
  together read it once; a producer's is ``append``.

Reads are copy-out: :meth:`SharedTimestepCache.get` returns a read-only
private copy, so no caller ever holds a view into a slot a writer may
reuse.  The copy is a memory-bandwidth cost (microseconds) against a
modeled disk read (milliseconds–seconds) — see docs/caching.md.
"""

from __future__ import annotations

import contextlib
import fcntl
import os
import tempfile
import threading
import time
from multiprocessing import shared_memory

import numpy as np

from repro.diskio.cache import TIER_L2, TIER_SOURCE, TierCounters, dataset_key
from repro.obs import MetricsRegistry

__all__ = ["SharedTimestepCache", "attach_segment"]

MAGIC = 0x5754_5343  # "WTSC"
VERSION = 2

_H_MAGIC, _H_VERSION, _H_SLOTS, _H_SLOT_NBYTES = 0, 1, 2, 3
_H_TICK, _H_CREATOR, _H_KEY = 4, 5, 6
_HEADER_WORDS = 7
_META_WORDS = 3  # per slot: seq, timestep, written (the tick of its write)
_M_SEQ, _M_TIMESTEP, _M_WRITTEN = 0, 1, 2
_EMPTY = -1


#: Held around every segment create, attach and unlink in this process:
#: an untracked one swaps ``resource_tracker``'s module functions, and no
#: other such call, on any thread, may run while they are swapped.
_TRACKER_LOCK = threading.Lock()


@contextlib.contextmanager
def _registrations(track: bool):
    """Around a segment call: keep this process's ``resource_tracker``
    out of the segment's lifetime unless ``track``.

    Python 3.13 has ``SharedMemory(track=False)``; until then, suppress
    the shared-memory registrations (and unregistrations) of the call.
    """
    from multiprocessing import resource_tracker

    with _TRACKER_LOCK:
        if track:
            yield
            return
        register, unregister = resource_tracker.register, resource_tracker.unregister

        def skip_shm(call):
            return lambda n, rtype: None if rtype == "shared_memory" else call(n, rtype)

        resource_tracker.register = skip_shm(register)
        resource_tracker.unregister = skip_shm(unregister)
        try:
            yield
        finally:
            resource_tracker.register = register
            resource_tracker.unregister = unregister


def _shared_memory(track: bool, **kwargs) -> shared_memory.SharedMemory:
    if not track:
        try:
            return shared_memory.SharedMemory(**kwargs, track=False)
        except TypeError:  # before Python 3.13: the swap below
            pass
    with _registrations(track):
        return shared_memory.SharedMemory(**kwargs)


def attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach an existing segment without enrolling the resource tracker.

    The creator owns the segment's lifetime; a plain attach would
    register it with *this* process's ``resource_tracker``, which unlinks
    it at process exit.
    """
    return _shared_memory(False, name=name)


def _key_hash(dataset_id: str) -> int:
    return int(dataset_id[:15], 16) if dataset_id else 0


class SharedTimestepCache:
    """A fixed-slot shared-memory ring of decoded float64 timesteps.

    One instance per process per segment; the first creator becomes the
    *owner* (and unlinks the segment on :meth:`close` / :meth:`unlink`),
    later processes attach.  Use :meth:`for_dataset` to derive the slot
    geometry, segment name, and dataset identity from a dataset.
    ``track=False`` keeps a created segment out of this process's
    ``resource_tracker`` (no tracker process is started for it): the
    owner alone unlinks it.  Counters go to ``registry`` (a private one
    when omitted) as ``cache.l2.*``.
    """

    def __init__(
        self,
        name: str,
        slot_shape: tuple[int, ...],
        *,
        slots: int = 8,
        dataset_id: str = "",
        create: str = "auto",
        registry: MetricsRegistry | None = None,
        track: bool = True,
    ) -> None:
        if slots < 1:
            raise ValueError("need at least one slot")
        self.name = name
        self.slot_shape = tuple(int(s) for s in slot_shape)
        self.dataset_id = dataset_id
        registry = registry if registry is not None else MetricsRegistry()
        self.stats = TierCounters(TIER_L2, registry)
        # Protocol-level events beyond the standard tier stats.
        self.torn_reads = registry.counter("cache.l2.torn_reads")
        self.reclaimed = registry.counter("cache.l2.reclaimed")
        self._closed = False
        self._track = bool(track)

        slot_nbytes = int(np.prod(self.slot_shape)) * 8
        created = False
        if create not in ("auto", "always", "never"):
            raise ValueError("create must be 'auto', 'always', or 'never'")
        if create == "never":
            self._shm = attach_segment(name)
        else:
            size = self._segment_size(slots, slot_nbytes)
            try:
                self._shm = _shared_memory(
                    self._track, name=name, create=True, size=size
                )
                created = True
            except FileExistsError:
                if create == "always":
                    raise
                self._shm = attach_segment(name)
        self.owner = created

        if created:
            buf = np.frombuffer(self._shm.buf, dtype=np.int64)
            buf[: self._meta_words(slots)] = 0
            header = buf[:_HEADER_WORDS]
            header[_H_SLOTS] = slots
            header[_H_SLOT_NBYTES] = slot_nbytes
            header[_H_CREATOR] = os.getpid()
            header[_H_KEY] = _key_hash(dataset_id)
            self._slot_meta_view(slots)[:, _M_TIMESTEP] = _EMPTY
            header[_H_VERSION] = VERSION
            header[_H_MAGIC] = MAGIC  # written last: publishes the segment
        header = None
        if self._shm.size < _HEADER_WORDS * 8:
            err = f"segment {name!r} is too small for a cache header"
        else:
            header = np.frombuffer(
                self._shm.buf, dtype=np.int64, count=_HEADER_WORDS
            )
            err = self._header_error(header, slot_nbytes, dataset_id)
        if err is not None:
            # The header view must go before close(), or mmap raises
            # BufferError for the exported buffer and masks the error.
            del header
            self._shm.close()
            raise ValueError(f"segment {name!r} {err}")
        self.n_slots = int(header[_H_SLOTS])
        self.slot_nbytes = slot_nbytes
        self._header = header
        self._meta = self._slot_meta_view(self.n_slots)
        self._payload_offset = self._meta_words(self.n_slots) * 8
        self._lock_path = os.path.join(
            tempfile.gettempdir(), f"{name.lstrip('/')}.lock"
        )
        self._lock_file = open(self._lock_path, "a+b")
        self._thread_lock = threading.Lock()

    def _header_error(
        self, header: np.ndarray, slot_nbytes: int, dataset_id: str
    ) -> str | None:
        """Why the segment's header cannot be used, or ``None``.

        The header is untrusted (any process can write the segment): its
        geometry must fit the mapping before any view past it is made.
        """
        if header[_H_MAGIC] != MAGIC or header[_H_VERSION] != VERSION:
            return "is not a timestep cache"
        if header[_H_SLOT_NBYTES] != slot_nbytes:
            return (
                f"has {int(header[_H_SLOT_NBYTES])}-byte slots; "
                f"this dataset needs {slot_nbytes}"
            )
        if dataset_id and header[_H_KEY] != _key_hash(dataset_id):
            return "holds a different dataset"
        slots = int(header[_H_SLOTS])
        if slots < 1:
            return f"declares {slots} slots"
        if self._segment_size(slots, slot_nbytes) > self._shm.size:
            return (
                f"declares {slots} slots, more than its "
                f"{self._shm.size} bytes hold"
            )
        return None

    # -- geometry --------------------------------------------------------------

    @staticmethod
    def _meta_words(slots: int) -> int:
        return _HEADER_WORDS + slots * _META_WORDS

    @classmethod
    def _segment_size(cls, slots: int, slot_nbytes: int) -> int:
        return cls._meta_words(slots) * 8 + slots * slot_nbytes

    def _slot_meta_view(self, slots: int) -> np.ndarray:
        return np.ndarray(
            (slots, _META_WORDS),
            dtype=np.int64,
            buffer=self._shm.buf,
            offset=_HEADER_WORDS * 8,
        )

    def _slot_array(self, slot: int) -> np.ndarray:
        return np.ndarray(
            self.slot_shape,
            dtype=np.float64,
            buffer=self._shm.buf,
            offset=self._payload_offset + slot * self.slot_nbytes,
        )

    @classmethod
    def for_dataset(
        cls,
        dataset,
        *,
        name: str | None = None,
        dataset_id: str | None = None,
        slots: int = 8,
        create: str = "auto",
        registry: MetricsRegistry | None = None,
    ) -> "SharedTimestepCache":
        """Build/attach the segment for ``dataset``'s decoded timesteps."""
        dataset_id = dataset_id or dataset_key(dataset)
        if name is None:
            name = f"wt-tsc-{dataset_id}"
        return cls(
            name,
            tuple(dataset.grid.shape) + (3,),
            slots=slots,
            dataset_id=dataset_id,
            create=create,
            registry=registry,
        )

    # -- writer lock (crash-safe) ----------------------------------------------

    @contextlib.contextmanager
    def _writer(self):
        """Hold the writer lock; the wait is ``cache.l2.stall_seconds``."""
        start = time.perf_counter()
        with self._thread_lock:
            fcntl.flock(self._lock_file.fileno(), fcntl.LOCK_EX)
            try:
                self.stats.stall(time.perf_counter() - start)
                yield
            finally:
                fcntl.flock(self._lock_file.fileno(), fcntl.LOCK_UN)

    # -- the cache API ---------------------------------------------------------

    def get(self, t: int) -> np.ndarray | None:
        """A read-only private copy of timestep ``t``, or ``None``.

        Lock-free: copy → re-validate the seqlock; a torn copy is
        discarded and retried once before reporting a miss.
        """
        out = self._read(int(t))
        if out is None:
            self.stats.misses.inc()
        else:
            self.stats.hit(out.nbytes)
        return out

    def fill(self, t: int, read) -> tuple[np.ndarray, str]:
        """``(array, tier)``: a copy of ``t`` from the segment, else
        ``read(t)``, written to it.  A miss takes the writer lock and
        probes again, so a sibling's fill of ``t`` is waited for, not
        repeated.  Counts one hit or one miss."""
        t = int(t)
        out = self._read(t)
        if out is None:
            with self._writer():
                out = self._read(t)
                if out is None:
                    self.stats.misses.inc()
                    out = read(t)
                    self._write(t, out)
                    return out, TIER_SOURCE
        self.stats.hit(out.nbytes)
        return out, TIER_L2

    def append(self, t: int, arr: np.ndarray) -> bool:
        """Publish timestep ``t``; ``False`` when it is already resident.

        A producer's write: a live tunnel's solver child, and the
        server's prime of timestep 0.  It replaces the least recently
        written slot (after torn and empty ones), so a producer appending
        in timestep order keeps its newest ``n_slots`` timesteps — the
        window a live tunnel's readers rely on (docs/steering.md).
        """
        t = int(t)
        with self._writer():
            if self._find_slot(t) >= 0:
                return False  # already published by a sibling
            self._write(t, arr)
        return True

    def _read(self, t: int) -> np.ndarray | None:
        for _ in range(2):
            slot = self._find_slot(t)
            if slot < 0:
                return None
            seq = int(self._meta[slot, _M_SEQ])
            if seq % 2 or int(self._meta[slot, _M_TIMESTEP]) != t:
                continue  # a writer got there after the find
            out = np.array(self._slot_array(slot))  # the copy-out
            if (
                int(self._meta[slot, _M_SEQ]) != seq
                or int(self._meta[slot, _M_TIMESTEP]) != t
            ):
                self.torn_reads.inc()
                continue
            out.flags.writeable = False
            return out
        return None

    def _find_slot(self, t: int) -> int:
        meta = self._meta
        for slot in range(self.n_slots):
            if int(meta[slot, _M_TIMESTEP]) == t and int(meta[slot, _M_SEQ]) % 2 == 0:
                return slot
        return -1

    def _write(self, t: int, arr: np.ndarray) -> None:
        """Write ``t`` into the victim slot; the caller holds the lock."""
        arr = np.asarray(arr, dtype=np.float64)
        if arr.shape != self.slot_shape:
            raise ValueError(
                f"timestep shape {arr.shape} != slot shape {self.slot_shape}"
            )
        slot = self._choose_victim()
        meta = self._meta
        evicting = int(meta[slot, _M_TIMESTEP]) != _EMPTY
        seq = int(meta[slot, _M_SEQ])
        if seq % 2:  # torn leftover from a crashed writer
            self.reclaimed.inc()
            seq += 1  # realign to even before starting our write
        meta[slot, _M_SEQ] = seq + 1  # odd: write in progress
        meta[slot, _M_TIMESTEP] = _EMPTY
        self._slot_array(slot)[...] = arr
        tick = int(self._header[_H_TICK]) + 1
        self._header[_H_TICK] = tick
        meta[slot, _M_WRITTEN] = tick
        meta[slot, _M_TIMESTEP] = t
        meta[slot, _M_SEQ] = seq + 2  # even: published
        if evicting:
            self.stats.evictions.inc()

    def _choose_victim(self) -> int:
        """The slot to write, under the writer lock: a torn slot (a
        crashed writer's leftover), else an empty one, else the least
        recently written."""
        meta = self._meta
        for slot in range(self.n_slots):
            if int(meta[slot, _M_SEQ]) % 2:
                return slot
            if int(meta[slot, _M_TIMESTEP]) == _EMPTY:
                return slot
        return int(np.argmin(meta[:, _M_WRITTEN]))

    # -- introspection / lifecycle ---------------------------------------------

    @property
    def resident_timesteps(self) -> list[int]:
        meta = self._meta
        out = []
        for slot in range(self.n_slots):
            if int(meta[slot, _M_SEQ]) % 2 == 0:
                t = int(meta[slot, _M_TIMESTEP])
                if t != _EMPTY:
                    out.append(t)
        return sorted(out)

    def snapshot(self) -> dict:
        out = self.stats.snapshot()
        out.update(
            {
                "name": self.name,
                "owner": self.owner,
                "n_slots": self.n_slots,
                "resident": self.resident_timesteps,
                "torn_reads": self.torn_reads.value,
                "reclaimed": self.reclaimed.value,
            }
        )
        return out

    def close(self) -> None:
        """Detach; the owner also unlinks the segment."""
        if self._closed:
            return
        self._closed = True
        # Drop every numpy view before closing, or mmap.close() raises
        # BufferError for the exported buffers.
        self._header = self._meta = None
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover
            pass
        if self.owner:
            self.unlink()
        try:
            self._lock_file.close()
        except OSError:  # pragma: no cover
            pass

    def unlink(self) -> None:
        """Remove the segment's name and its writer-lock file.

        Processes already attached keep their mapping and their lock
        file; nobody can attach any more.  ``close`` does this for the
        owner, and an owner whose readers have all attached can do it
        early, so that no crash can leave the segment behind.
        """
        try:
            with _registrations(self._track):
                self._shm.unlink()
        except FileNotFoundError:
            pass
        try:
            os.unlink(self._lock_path)
        except OSError:
            pass
        self.owner = False  # already unlinked; close() must not re-unlink

    def __enter__(self) -> "SharedTimestepCache":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
