"""Tier 2: a shared-memory timestep cache for co-located sessions.

The one shared-memory field store: a named, crash-safe cache segment
that any process on the machine can attach, so gateway workers serving
the same dataset hold no private copies of each decoded timestep and N
co-located sessions perform ≈1× aggregate disk reads
(``benchmarks/test_cache_tiers.py``).

Layout of the single ``multiprocessing.shared_memory`` segment (all
metadata is aligned int64, so loads/stores are single machine words)::

    header      [magic, version, n_slots, slot_nbytes, n_reader_rows,
                 tick, creator_pid, key_hash]
    slot meta   n_slots x [seq, timestep, last_tick]
    reader tbl  n_reader_rows x [pid, (slot, seq) * PINS_PER_READER]
    payload     n_slots x slot_nbytes

**Consistency protocol** (seqlock + advisory pins, lock-free readers):

* A slot's ``seq`` is even when its payload is stable and odd while a
  write is in progress.  A writer bumps ``seq`` to odd, copies the
  payload, sets ``timestep``, then bumps ``seq`` back to even.
* A reader finds a slot whose ``timestep`` matches and ``seq`` is even,
  *pins* ``(slot, seq)`` in its own reader-table row, copies the payload
  out, then re-reads ``seq``.  If it changed, the copy is torn and is
  discarded — the reader never uses invalid data, with no reader-side
  lock at all.
* Pins are advisory: the writer skips pinned slots when choosing an
  eviction victim (so in-progress reads aren't wasted), but correctness
  never depends on a pin being observed — the seqlock re-validation
  catches the race.  A slot is therefore never *replaced* under a
  reader that will go on to use the data.
* Writers serialize on an ``fcntl.flock`` of a sidecar file, not a
  ``multiprocessing.Lock``: the kernel drops a flock when its holder
  dies, so a SIGKILLed worker cannot wedge the cache.  A writer that
  died mid-copy leaves ``seq`` odd; the slot is unreadable and is the
  *preferred* eviction victim for the next writer.  Reader rows owned
  by dead pids (``os.kill(pid, 0)`` fails) are reclaimed the same way.

Reads are copy-out: :meth:`SharedTimestepCache.get` returns a read-only
private copy, so no caller ever holds a view into a slot after its pin
is dropped.  The copy is a memory-bandwidth cost (microseconds) against
a modeled disk read (milliseconds–seconds) — see docs/caching.md.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
import threading
import time
from multiprocessing import shared_memory

import numpy as np

from repro.diskio.cache import TIER_L2, TierCounters, dataset_key

try:  # POSIX only; on other platforms writers fall back to an in-process lock
    import fcntl
except ImportError:  # pragma: no cover - exercised only on non-POSIX
    fcntl = None

__all__ = ["SharedTimestepCache", "attach_segment"]

MAGIC = 0x5754_5343  # "WTSC"
VERSION = 1
PINS_PER_READER = 8

_H_MAGIC, _H_VERSION, _H_SLOTS, _H_SLOT_NBYTES = 0, 1, 2, 3
_H_READER_ROWS, _H_TICK, _H_CREATOR, _H_KEY = 4, 5, 6, 7
_HEADER_WORDS = 8
_META_WORDS = 3  # per slot: seq, timestep, last_tick
_M_SEQ, _M_TIMESTEP, _M_TICK = 0, 1, 2
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


def _pid_alive(pid: int) -> bool:
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - other-user pid: alive
        return True
    except OSError:  # pragma: no cover
        return False
    return True


class SharedTimestepCache:
    """A fixed-slot shared-memory cache of decoded timesteps.

    One instance per process per segment; the first creator becomes the
    *owner* (and unlinks the segment on :meth:`close` / :meth:`unlink`),
    later processes attach.  Use :meth:`for_dataset` to derive the slot
    geometry, segment name, and dataset identity from a dataset.
    ``track=False`` keeps a created segment out of this process's
    ``resource_tracker`` (no tracker process is started for it): the
    owner alone unlinks it.
    """

    def __init__(
        self,
        name: str,
        slot_shape: tuple[int, ...],
        *,
        dtype=np.float64,
        slots: int = 8,
        reader_rows: int = 16,
        dataset_id: str = "",
        create: str = "auto",
        registry=None,
        track: bool = True,
    ) -> None:
        if slots < 1:
            raise ValueError("need at least one slot")
        if reader_rows < 1:
            raise ValueError("need at least one reader row")
        self.name = name
        self.slot_shape = tuple(int(s) for s in slot_shape)
        self.dtype = np.dtype(dtype)
        self.dataset_id = dataset_id
        self.stats = TierCounters(TIER_L2, registry)
        # Protocol-level event counts beyond the standard tier stats.
        self.bypasses = 0  # puts skipped because every victim was pinned
        self.torn_reads = 0  # copies discarded by seqlock re-validation
        self.reclaimed = 0  # dead-reader rows + torn slots reclaimed
        self._local = threading.Lock()  # guards this process's pin row
        self._closed = False
        self._track = bool(track)

        slot_nbytes = int(np.prod(self.slot_shape)) * self.dtype.itemsize
        created = False
        if create not in ("auto", "always", "never"):
            raise ValueError("create must be 'auto', 'always', or 'never'")
        if create == "never":
            self._shm = attach_segment(name)
        else:
            size = self._segment_size(slots, reader_rows, slot_nbytes)
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
            buf[: self._meta_words(slots, reader_rows)] = 0
            header = buf[:_HEADER_WORDS]
            header[_H_SLOTS] = slots
            header[_H_SLOT_NBYTES] = slot_nbytes
            header[_H_READER_ROWS] = reader_rows
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
        self.n_reader_rows = int(header[_H_READER_ROWS])
        self._header = header
        self._meta = self._slot_meta_view(self.n_slots)
        self._readers = self._reader_table_view()
        self._payload_offset = (
            self._meta_words(self.n_slots, self.n_reader_rows) * 8
        )
        self._lock_path = os.path.join(
            tempfile.gettempdir(), f"{name.lstrip('/')}.lock"
        )
        self._lock_file = open(self._lock_path, "a+b")
        self._fallback_lock = threading.Lock() if fcntl is None else None
        self._row = self._claim_reader_row()

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
        slots, rows = int(header[_H_SLOTS]), int(header[_H_READER_ROWS])
        if slots < 1 or rows < 1:
            return f"declares {slots} slots and {rows} reader rows"
        if self._segment_size(slots, rows, slot_nbytes) > self._shm.size:
            return (
                f"declares {slots} slots and {rows} reader rows, more than "
                f"its {self._shm.size} bytes hold"
            )
        return None

    # -- geometry --------------------------------------------------------------

    @staticmethod
    def _reader_row_words() -> int:
        return 1 + 2 * PINS_PER_READER

    @classmethod
    def _meta_words(cls, slots: int, reader_rows: int) -> int:
        return (
            _HEADER_WORDS
            + slots * _META_WORDS
            + reader_rows * cls._reader_row_words()
        )

    @classmethod
    def _segment_size(cls, slots: int, reader_rows: int, slot_nbytes: int) -> int:
        return cls._meta_words(slots, reader_rows) * 8 + slots * slot_nbytes

    def _slot_meta_view(self, slots: int) -> np.ndarray:
        return np.ndarray(
            (slots, _META_WORDS),
            dtype=np.int64,
            buffer=self._shm.buf,
            offset=_HEADER_WORDS * 8,
        )

    def _reader_table_view(self) -> np.ndarray:
        return np.ndarray(
            (self.n_reader_rows, self._reader_row_words()),
            dtype=np.int64,
            buffer=self._shm.buf,
            offset=(_HEADER_WORDS + self.n_slots * _META_WORDS) * 8,
        )

    def _slot_array(self, slot: int) -> np.ndarray:
        return np.ndarray(
            self.slot_shape,
            dtype=self.dtype,
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
        registry=None,
        reader_rows: int = 16,
    ) -> "SharedTimestepCache":
        """Build/attach the segment for ``dataset``'s decoded timesteps."""
        dataset_id = dataset_id or dataset_key(dataset)
        if name is None:
            name = f"wt-tsc-{dataset_id}"
        return cls(
            name,
            tuple(dataset.grid.shape) + (3,),
            dtype=np.float64,
            slots=slots,
            reader_rows=reader_rows,
            dataset_id=dataset_id,
            create=create,
            registry=registry,
        )

    # -- writer lock (crash-safe) ----------------------------------------------

    def _acquire_writer(self) -> float:
        start = time.perf_counter()
        if fcntl is not None:
            fcntl.flock(self._lock_file.fileno(), fcntl.LOCK_EX)
        else:  # pragma: no cover - non-POSIX
            self._fallback_lock.acquire()
        return time.perf_counter() - start

    def _release_writer(self) -> None:
        if fcntl is not None:
            fcntl.flock(self._lock_file.fileno(), fcntl.LOCK_UN)
        else:  # pragma: no cover - non-POSIX
            self._fallback_lock.release()

    # -- reader rows / pins ----------------------------------------------------

    def _claim_reader_row(self) -> int:
        """Claim a reader-table row for this process (reclaiming dead ones)."""
        pid = os.getpid()
        wait = self._acquire_writer()
        try:
            rows = self._readers
            for i in range(self.n_reader_rows):
                if rows[i, 0] == pid:
                    return i
            for i in range(self.n_reader_rows):
                owner = int(rows[i, 0])
                if owner != 0 and not _pid_alive(owner):
                    rows[i] = 0
                    self.reclaimed += 1
                    owner = 0
                if owner == 0:
                    rows[i, 1::2] = _EMPTY  # pin slots: -1 = free
                    rows[i, 0] = pid
                    return i
            # Table full of live readers: run unpinned.  Seqlock
            # re-validation alone still guarantees correctness.
            return -1
        finally:
            self._release_writer()
            self.stats.stall(wait)

    def _pin(self, slot: int, seq: int) -> int:
        if self._row < 0:
            return -1
        row = self._readers[self._row]
        with self._local:
            for i in range(PINS_PER_READER):
                if row[1 + 2 * i] == _EMPTY:
                    row[2 + 2 * i] = seq
                    row[1 + 2 * i] = slot  # written last: publishes the pin
                    return i
        return -1

    def _unpin(self, pin: int) -> None:
        if pin >= 0:
            self._readers[self._row, 1 + 2 * pin] = _EMPTY

    def _pinned_slots(self) -> set[int]:
        """Writer-side scan (under the writer lock): slots live readers pin."""
        rows = self._readers
        pinned = set()
        for i in range(self.n_reader_rows):
            owner = int(rows[i, 0])
            if owner == 0:
                continue
            if not _pid_alive(owner):
                rows[i] = 0
                self.reclaimed += 1
                continue
            pinned.update(int(slot) for slot in rows[i, 1::2])
        pinned.discard(_EMPTY)
        return pinned

    # -- the cache API ---------------------------------------------------------

    def get(self, t: int) -> np.ndarray | None:
        """A read-only private copy of timestep ``t``, or ``None``.

        Lock-free: pin → copy → re-validate the seqlock; a torn copy is
        discarded and retried once before reporting a miss.
        """
        t = int(t)
        for _ in range(2):
            slot = self._find_slot(t)
            if slot < 0:
                self.stats.misses.inc()
                return None
            seq = int(self._meta[slot, _M_SEQ])
            if seq % 2 or int(self._meta[slot, _M_TIMESTEP]) != t:
                continue  # writer got there between find and pin
            pin = self._pin(slot, seq)
            try:
                out = np.array(self._slot_array(slot))  # the copy-out
                if (
                    int(self._meta[slot, _M_SEQ]) != seq
                    or int(self._meta[slot, _M_TIMESTEP]) != t
                ):
                    self.torn_reads += 1
                    continue
            finally:
                self._unpin(pin)
            self._meta[slot, _M_TICK] = int(self._header[_H_TICK])  # LRU hint
            out.flags.writeable = False
            self.stats.hit(out.nbytes)
            return out
        self.stats.misses.inc()
        return None

    def _find_slot(self, t: int) -> int:
        meta = self._meta
        for slot in range(self.n_slots):
            if int(meta[slot, _M_TIMESTEP]) == t and int(meta[slot, _M_SEQ]) % 2 == 0:
                return slot
        return -1

    def put(self, t: int, arr: np.ndarray) -> bool:
        """Publish timestep ``t``; returns ``False`` when skipped.

        Skips are benign: another writer already published ``t``, or
        every eviction candidate is pinned by a live reader (the caller
        simply keeps its private copy — write-around).
        """
        return self._write(t, arr, _M_TICK)

    def append(self, t: int, arr: np.ndarray) -> bool:
        """Publish a freshly *produced* timestep ``t``, as :meth:`put` does.

        The victim is the unpinned slot holding the oldest timestep, not
        the least recently read one: a producer appends in timestep order,
        so the segment then holds its newest ``n_slots`` timesteps however
        readers touch them — the window a live tunnel's readers rely on
        (docs/steering.md).
        """
        return self._write(t, arr, _M_TIMESTEP)

    def _write(self, t: int, arr: np.ndarray, victim_key: int) -> bool:
        t = int(t)
        arr = np.asarray(arr, dtype=self.dtype)
        if arr.shape != self.slot_shape:
            raise ValueError(
                f"timestep shape {arr.shape} != slot shape {self.slot_shape}"
            )
        wait = self._acquire_writer()
        self.stats.stall(wait)
        try:
            if self._find_slot(t) >= 0:
                return False  # already published by a sibling
            slot = self._choose_victim(victim_key)
            if slot < 0:
                self.bypasses += 1
                return False
            meta = self._meta
            evicting = int(meta[slot, _M_TIMESTEP]) != _EMPTY
            seq = int(meta[slot, _M_SEQ])
            if seq % 2:  # torn leftover from a crashed writer
                self.reclaimed += 1
                seq += 1  # realign to even before starting our write
            meta[slot, _M_SEQ] = seq + 1  # odd: write in progress
            meta[slot, _M_TIMESTEP] = _EMPTY
            self._slot_array(slot)[...] = arr
            tick = int(self._header[_H_TICK]) + 1
            self._header[_H_TICK] = tick
            meta[slot, _M_TICK] = tick
            meta[slot, _M_TIMESTEP] = t
            meta[slot, _M_SEQ] = seq + 2  # even: published
            if evicting:
                self.stats.evictions.inc()
            return True
        finally:
            self._release_writer()

    def _choose_victim(self, key: int) -> int:
        """Pick a slot to write, under the writer lock.

        Preference: torn slots (a crashed writer's leftovers), then
        empty slots, then the unpinned slot with the smallest ``key``
        meta word: the last tick (least recently used) or the timestep
        (oldest).  ``-1`` when everything is pinned.
        """
        meta = self._meta
        best, best_value = -1, None
        for slot in range(self.n_slots):
            if int(meta[slot, _M_SEQ]) % 2:
                return slot
            if int(meta[slot, _M_TIMESTEP]) == _EMPTY:
                return slot
        pinned = self._pinned_slots()
        for slot in range(self.n_slots):
            if slot in pinned:
                continue
            value = int(meta[slot, key])
            if best_value is None or value < best_value:
                best, best_value = slot, value
        return best

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
                "bypasses": self.bypasses,
                "torn_reads": self.torn_reads,
                "reclaimed": self.reclaimed,
            }
        )
        return out

    def close(self) -> None:
        """Detach; the owner also unlinks the segment."""
        if self._closed:
            return
        self._closed = True
        try:
            if self._row >= 0 and _pid_alive(int(self._readers[self._row, 0])):
                if int(self._readers[self._row, 0]) == os.getpid():
                    self._readers[self._row] = 0
        except (ValueError, TypeError):  # pragma: no cover - buf already gone
            pass
        # Drop every numpy view before closing, or mmap.close() raises
        # BufferError for the exported buffers.
        self._header = self._meta = self._readers = None
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
