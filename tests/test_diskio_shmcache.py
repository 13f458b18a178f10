"""Tier 2 of the cache ladder: the shared-memory timestep segment.

Covers the seqlock ring single-process (header validation, the one
victim rule — torn, else empty, else least recently written — torn
reads, and a read that loses its slot to a write), then hammers one
segment from several *processes* under both ``spawn`` and ``fork``
start methods, checks that a fill is single-flight — two processes, or
two threads of one, that miss one timestep together read the source
once — and finally SIGKILLs a writer mid-operation and a filler
mid-read to prove the crash-safety story: the kernel drops the flock,
the torn slot is reclaimed by the next writer, a killed fill touches no
slot, and the segment unlinks cleanly (docs/caching.md).
"""

import fcntl
import multiprocessing
import os
import random
import threading
import time
from itertools import count

import numpy as np
import pytest

from repro.diskio import shmcache
from repro.diskio.cache import (
    TIER_L2,
    TIER_SOURCE,
    DatasetSource,
    TieredTimestepCache,
    decoded_timestep_nbytes,
)
from repro.diskio.shmcache import SharedTimestepCache, attach_segment
from repro.flow import tapered_cylinder_dataset
from repro.netsim import ProcessFaults
from repro.obs import MetricsRegistry

SHAPE = (4, 3, 2)
_seq = count(1)


def _name() -> str:
    return f"wt-shmtest-{os.getpid()}-{next(_seq)}"


def _fill(shape, t: int) -> np.ndarray:
    """A timestep-specific pattern where any partial write is detectable."""
    n = int(np.prod(shape))
    return (((np.arange(n, dtype=np.float64) % 97.0) + 1.0) * (t + 1)).reshape(
        shape
    )


@pytest.fixture
def seg():
    cache = SharedTimestepCache(_name(), SHAPE, slots=3, create="always")
    yield cache
    cache.close()


class TestSegmentValidation:
    def test_attach_missing_segment_raises(self):
        with pytest.raises(FileNotFoundError):
            SharedTimestepCache(_name(), SHAPE, create="never")

    def test_create_always_collides(self, seg):
        with pytest.raises(FileExistsError):
            SharedTimestepCache(seg.name, SHAPE, slots=3, create="always")

    def test_bad_create_mode(self):
        with pytest.raises(ValueError, match="create"):
            SharedTimestepCache(_name(), SHAPE, create="maybe")

    def test_geometry_validation(self):
        with pytest.raises(ValueError, match="slot"):
            SharedTimestepCache(_name(), SHAPE, slots=0)

    def test_rejects_foreign_segment(self):
        from multiprocessing import shared_memory

        name = _name()
        raw = shared_memory.SharedMemory(name=name, create=True, size=4096)
        try:
            with pytest.raises(ValueError, match="not a timestep cache"):
                SharedTimestepCache(name, SHAPE, create="never")
        finally:
            raw.close()
            raw.unlink()

    @pytest.mark.parametrize(
        "slots",
        [0, -5, 2**40, 4],
        ids=["no-slots", "negative-slots", "slots-past-the-mapping",
             "one-slot-too-many"],
    )
    def test_rejects_a_corrupt_header_geometry(self, seg, slots):
        """A header naming a geometry the mapping cannot hold is refused
        with a typed error before any view past the header is made."""
        header = seg._header
        saved = header.copy()
        header[shmcache._H_SLOTS] = slots
        try:
            with pytest.raises(ValueError, match="declares"):
                SharedTimestepCache(seg.name, SHAPE, create="never")
        finally:
            header[:] = saved
        again = SharedTimestepCache(seg.name, SHAPE, create="never")
        assert again.n_slots == 3
        again.close()

    def test_rejects_a_segment_smaller_than_a_header(self):
        from multiprocessing import shared_memory

        name = _name()
        raw = shared_memory.SharedMemory(name=name, create=True, size=16)
        try:
            with pytest.raises(ValueError, match="too small"):
                SharedTimestepCache(name, SHAPE, create="never")
        finally:
            raw.close()
            raw.unlink()

    def test_rejects_slot_size_mismatch(self, seg):
        with pytest.raises(ValueError, match="byte slots"):
            SharedTimestepCache(seg.name, (8, 8, 8), create="never")

    def test_rejects_different_dataset(self):
        name = _name()
        owner = SharedTimestepCache(
            name, SHAPE, dataset_id="aabbccdd00112233", create="always"
        )
        try:
            with pytest.raises(ValueError, match="different dataset"):
                SharedTimestepCache(
                    name, SHAPE, dataset_id="ffeeddcc00112233", create="never"
                )
        finally:
            owner.close()

    def test_for_dataset_geometry(self):
        dataset = tapered_cylinder_dataset(
            shape=(6, 6, 4), n_timesteps=3, dt=0.25
        )
        cache = SharedTimestepCache.for_dataset(
            dataset, name=_name(), slots=2, create="always"
        )
        try:
            assert cache.slot_shape == tuple(dataset.grid.shape) + (3,)
            # Slots hold the *decoded* float64 field, not the packed disk
            # representation.
            assert cache.slot_nbytes == decoded_timestep_nbytes(dataset)
        finally:
            cache.close()


class TestProtocol:
    def test_get_miss_then_put_then_hit(self, seg):
        assert seg.get(0) is None
        assert seg.stats.misses.value == 1
        assert seg.append(0, _fill(SHAPE, 0))
        out = seg.get(0)
        np.testing.assert_array_equal(out, _fill(SHAPE, 0))
        assert seg.stats.hits.value == 1

    def test_reads_are_readonly_private_copies(self, seg):
        seg.append(0, _fill(SHAPE, 0))
        a, b = seg.get(0), seg.get(0)
        assert not a.flags.writeable
        assert a is not b
        with pytest.raises(ValueError):
            a[0, 0, 0] = 99.0

    def test_duplicate_put_is_skipped(self, seg):
        assert seg.append(0, _fill(SHAPE, 0))
        assert not seg.append(0, _fill(SHAPE, 0))
        assert seg.resident_timesteps == [0]

    def test_put_rejects_wrong_shape(self, seg):
        with pytest.raises(ValueError, match="slot shape"):
            seg.append(0, np.zeros((2, 2)))

    def test_victim_is_the_least_recently_written(self, seg):
        for t in (5, 1, 2):  # a fill-on-read writes in read order
            seg.append(t, _fill(SHAPE, t))
        seg.append(3, _fill(SHAPE, 3))
        assert seg.resident_timesteps == [1, 2, 3]

    def test_append_victim_is_the_oldest_timestep(self, seg):
        for t in range(3):
            seg.append(t, _fill(SHAPE, t))
        seg.get(0)  # a read does not save t=0 from a producer's append
        seg.append(3, _fill(SHAPE, 3))
        assert seg.resident_timesteps == [1, 2, 3]
        assert seg.stats.evictions.value == 1

    def test_a_read_in_progress_cannot_keep_its_timestep(self, seg):
        """An append that lands mid-copy still evicts the oldest
        timestep: the window stays FIFO, and the reader's torn copy is
        discarded."""
        for t in range(3):
            seg.append(t, _fill(SHAPE, t))
        real = seg._slot_array

        def copy_racing_an_append(slot):
            out = np.array(real(slot))
            seg._slot_array = real
            seg.append(3, _fill(SHAPE, 3))
            return out

        seg._slot_array = copy_racing_an_append
        assert seg.get(0) is None
        assert seg.resident_timesteps == [1, 2, 3]
        assert seg.torn_reads.value == 1

    def test_early_unlink_keeps_attached_readers_serving(self):
        owner = SharedTimestepCache(
            _name(), SHAPE, slots=2, create="always", track=False
        )
        reader = SharedTimestepCache(owner.name, SHAPE, create="never")
        try:
            owner.append(0, _fill(SHAPE, 0))
            owner.unlink()
            assert not owner.owner
            with pytest.raises(FileNotFoundError):
                attach_segment(owner.name)
            assert not os.path.exists(owner._lock_path)
            # Both mappings and the shared writer lock outlive the name.
            owner.append(1, _fill(SHAPE, 1))
            np.testing.assert_array_equal(reader.get(1), _fill(SHAPE, 1))
        finally:
            reader.close()
            owner.close()

    def test_segments_from_many_threads_leave_the_tracker_intact(self):
        # Before Python 3.13 an untracked segment call swaps the
        # resource_tracker's functions; calls on other threads must
        # neither save the swapped ones nor run while they are in place.
        from multiprocessing import resource_tracker

        originals = resource_tracker.register, resource_tracker.unregister
        failures = []

        def churn(track: bool) -> None:
            try:
                for _ in range(20):
                    with SharedTimestepCache(
                        _name(), SHAPE, slots=1, create="always", track=track
                    ) as owner:
                        SharedTimestepCache(owner.name, SHAPE, create="never").close()
            except Exception as exc:  # pragma: no cover - reported below
                failures.append(exc)

        threads = [
            threading.Thread(target=churn, args=(i % 2 == 1,)) for i in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert failures == []
        assert (resource_tracker.register, resource_tracker.unregister) == originals

    def test_torn_slot_is_preferred_victim(self, seg):
        for t in range(3):
            seg.append(t, _fill(SHAPE, t))
        # A crashed writer leaves seq odd; the slot is unreadable and
        # must be recycled first, not the least recently written one.
        seg._meta[1, shmcache._M_SEQ] += 1
        assert seg.append(7, _fill(SHAPE, 7))
        assert seg.reclaimed.value == 1
        assert seg.resident_timesteps == [0, 2, 7]
        np.testing.assert_array_equal(seg.get(7), _fill(SHAPE, 7))

    def test_torn_read_is_discarded(self, seg):
        seg.append(0, _fill(SHAPE, 0))
        real = seg._slot_array

        def racing_slot_array(slot):
            # A writer replaces the slot between copy and re-validation.
            out = np.array(real(slot))
            seg._meta[slot, shmcache._M_SEQ] += 2
            seg._meta[slot, shmcache._M_TIMESTEP] = 5
            return out

        seg._slot_array = racing_slot_array
        assert seg.get(0) is None  # torn copy never reaches the caller
        assert seg.torn_reads.value == 1
        assert seg.stats.misses.value == 1

    def test_snapshot_and_close_unlink(self):
        registry = MetricsRegistry()
        seg = SharedTimestepCache(
            _name(), SHAPE, slots=2, create="always", registry=registry
        )
        seg.append(0, _fill(SHAPE, 0))
        snap = seg.snapshot()
        assert snap["owner"] and snap["resident"] == [0]
        for key in ("torn_reads", "reclaimed", "hits", "misses"):
            assert key in snap
        # The protocol counters live in the registry the segment was
        # built with, beside the tier's own.
        assert registry.counter("cache.l2.torn_reads") is seg.torn_reads
        assert registry.counter("cache.l2.reclaimed") is seg.reclaimed
        seg.close()
        with pytest.raises(FileNotFoundError):
            attach_segment(seg.name)
        assert not os.path.exists(seg._lock_path)


# -- multi-process property test ----------------------------------------------

N_WORKERS = 3
TIMESTEPS = 6
ROUNDS = 150
HAMMER_SLOTS = 4  # < TIMESTEPS: constant eviction pressure


def _hammer_worker(name, seed, q):
    """Random get/append storm; reports counters and any corruption seen."""
    seg = SharedTimestepCache(name, SHAPE, slots=HAMMER_SLOTS, create="never")
    rng = random.Random(seed)
    hits = misses = appends = corrupt = 0
    try:
        for _ in range(ROUNDS):
            t = rng.randrange(TIMESTEPS)
            out = seg.get(t)
            if out is None:
                misses += 1
                if seg.append(t, _fill(SHAPE, t)):
                    appends += 1
            else:
                hits += 1
                if not np.array_equal(out, _fill(SHAPE, t)):
                    corrupt += 1
        q.put(
            {
                "pid": os.getpid(),
                "hits": hits,
                "misses": misses,
                "appends": appends,
                "corrupt": corrupt,
                "stat_hits": seg.stats.hits.value,
                "stat_misses": seg.stats.misses.value,
                "torn_reads": seg.torn_reads.value,
            }
        )
    finally:
        seg.close()


@pytest.mark.parametrize(
    "method",
    [
        m
        for m in ("fork", "spawn")
        if m in multiprocessing.get_all_start_methods()
    ],
)
def test_concurrent_hit_miss_eviction_property(method):
    """N processes hammer one segment: counters reconcile, data never tears."""
    ctx = multiprocessing.get_context(method)
    owner = SharedTimestepCache(
        _name(), SHAPE, slots=HAMMER_SLOTS, create="always"
    )
    try:
        q = ctx.Queue()
        procs = [
            ctx.Process(
                target=_hammer_worker, args=(owner.name, 100 + i, q), daemon=True
            )
            for i in range(N_WORKERS)
        ]
        for p in procs:
            p.start()
        results = [q.get(timeout=60) for _ in range(N_WORKERS)]
        for p in procs:
            p.join(timeout=30)
            assert p.exitcode == 0

        for r in results:
            # Every access resolved to exactly one outcome, and no read
            # ever surfaced a torn or foreign payload.
            assert r["hits"] + r["misses"] == ROUNDS
            assert r["corrupt"] == 0
            assert r["stat_hits"] == r["hits"]
            # Tier stats count the seqlock-level misses too (a torn
            # retry that ends in a miss is still one API-level miss).
            assert r["stat_misses"] == r["misses"]
        assert sum(r["hits"] for r in results) > 0
        assert sum(r["appends"] for r in results) >= TIMESTEPS - HAMMER_SLOTS + 1

        # The segment survives the storm in a coherent state: every
        # resident slot is stable (even seq) and reads back exactly.
        resident = owner.resident_timesteps
        assert resident == sorted(set(resident))
        assert all(0 <= t < TIMESTEPS for t in resident)
        for t in resident:
            np.testing.assert_array_equal(owner.get(t), _fill(SHAPE, t))
        assert len(resident) <= HAMMER_SLOTS
    finally:
        owner.close()


# -- SIGKILL crash safety ------------------------------------------------------


def _crash_victim(name, ready):
    """Start a write, then wedge while holding the flock."""
    seg = SharedTimestepCache(name, SHAPE, slots=2, create="never")
    with seg._writer():
        seg._meta[1, shmcache._M_SEQ] += 1  # odd: write in progress
        ready.set()
        time.sleep(60)  # SIGKILLed long before this returns


def test_sigkilled_writer_cannot_wedge_the_segment():
    """Kill a writer mid-append: flock drops, torn slot recycles, no leak."""
    ctx = multiprocessing.get_context()
    owner = SharedTimestepCache(_name(), SHAPE, slots=2, create="always")
    try:
        owner.append(0, _fill(SHAPE, 0))
        owner.append(1, _fill(SHAPE, 1))
        ready = ctx.Event()
        proc = ctx.Process(
            target=_crash_victim, args=(owner.name, ready), daemon=True
        )
        proc.start()
        assert ready.wait(timeout=30)

        faults = ProcessFaults(seed=0)
        faults.kill(proc)
        proc.join(timeout=30)
        assert faults.kills.value == 1

        # The kernel released the dead writer's flock: the sidecar lock
        # is immediately acquirable, non-blocking.
        with open(owner._lock_path, "a+b") as fh:
            fcntl.flock(fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            fcntl.flock(fh.fileno(), fcntl.LOCK_UN)

        # Slot 1 was left torn (odd seq): it is the preferred victim and
        # is realigned, not served.
        assert owner.get(1) is None
        assert owner.append(2, _fill(SHAPE, 2))
        assert owner.reclaimed.value == 1
        assert owner.resident_timesteps == [0, 2]
        for t in owner.resident_timesteps:
            np.testing.assert_array_equal(owner.get(t), _fill(SHAPE, t))
    finally:
        owner.close()
    # No leak: the segment and its lock sidecar are gone.
    with pytest.raises(FileNotFoundError):
        attach_segment(owner.name)
    assert not os.path.exists(owner._lock_path)


def _killed_filler(name, ready):
    """Fill timestep 2, and wedge inside its read while holding the lock."""
    seg = SharedTimestepCache(name, SHAPE, slots=2, create="never")

    def read(t):
        ready.set()
        threading.Event().wait(60)  # SIGKILLed long before this returns

    seg.fill(2, read)


def test_sigkilled_filler_leaves_no_torn_slot():
    """Kill a filler inside its read: no slot was touched, the flock
    drops, and a sibling's fill of the same timestep reads it itself."""
    ctx = multiprocessing.get_context()
    owner = SharedTimestepCache(_name(), SHAPE, slots=2, create="always")
    try:
        owner.append(0, _fill(SHAPE, 0))
        owner.append(1, _fill(SHAPE, 1))
        meta = owner._meta.copy()
        ready = ctx.Event()
        proc = ctx.Process(
            target=_killed_filler, args=(owner.name, ready), daemon=True
        )
        proc.start()
        assert ready.wait(timeout=30)
        # The filler reads under the writer lock.
        with open(owner._lock_path, "a+b") as fh:
            with pytest.raises(BlockingIOError):
                fcntl.flock(fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)

        faults = ProcessFaults(seed=0)
        faults.kill(proc)
        proc.join(timeout=30)
        assert faults.kills.value == 1

        np.testing.assert_array_equal(owner._meta, meta)
        assert owner.resident_timesteps == [0, 1]
        reads = []

        def read(t):
            reads.append(t)
            return _fill(SHAPE, t)

        arr, tier = owner.fill(2, read)
        assert reads == [2] and tier == TIER_SOURCE
        np.testing.assert_array_equal(arr, _fill(SHAPE, 2))
        np.testing.assert_array_equal(owner.get(2), _fill(SHAPE, 2))
        assert owner.reclaimed.value == 0
    finally:
        owner.close()


# -- single-flight fills -------------------------------------------------------

FILL_TIMESTEPS = (0, 1, 2)
#: How long a source read waits for a second read of its timestep.  A
#: single-flight fill never has one, so there each wait runs out.
OVERLAP_WAIT = 0.5


def _overlapping(read, barriers):
    """``read``, after waiting (bounded) on ``barriers[t]`` for a second
    read of the same timestep: two reads of one timestep overlap
    whenever the cache lets them both start."""

    def overlapping_read(t):
        try:
            barriers[t].wait(OVERLAP_WAIT)
        except threading.BrokenBarrierError:
            pass
        return read(t)

    return overlapping_read


def _tiered_reader(name, dataset, barriers, start, q):
    """Attach the segment, then read every timestep through the tiers."""
    source = DatasetSource(dataset)
    source.read = _overlapping(source.read, barriers)
    cache = TieredTimestepCache(
        dataset,
        l2=SharedTimestepCache.for_dataset(dataset, name=name, create="never"),
        source=source,
    )
    try:
        start.wait(30)
        tiers = [cache.get(t)[1] for t in FILL_TIMESTEPS]
        q.put(
            {
                "tiers": tiers,
                "source_hits": source.stats.hits.value,
                "l2_hits": cache.l2.stats.hits.value,
                "l2_misses": cache.l2.stats.misses.value,
            }
        )
    finally:
        cache.close()


def test_two_processes_read_each_timestep_from_the_source_once():
    """Two processes that miss the same timesteps together: one reads
    each from the source, the other waits on the writer lock and hits."""
    ctx = multiprocessing.get_context()
    dataset = tapered_cylinder_dataset(
        shape=(6, 6, 4), n_timesteps=len(FILL_TIMESTEPS)
    )
    owner = SharedTimestepCache.for_dataset(
        dataset, name=_name(), slots=len(FILL_TIMESTEPS), create="always"
    )
    try:
        barriers = {t: ctx.Barrier(2) for t in FILL_TIMESTEPS}
        start, q = ctx.Barrier(2), ctx.Queue()
        procs = [
            ctx.Process(
                target=_tiered_reader,
                args=(owner.name, dataset, barriers, start, q),
                daemon=True,
            )
            for _ in range(2)
        ]
        for p in procs:
            p.start()
        results = [q.get(timeout=60) for _ in procs]
        for p in procs:
            p.join(timeout=30)
            assert p.exitcode == 0
        assert owner.resident_timesteps == list(FILL_TIMESTEPS)
    finally:
        owner.close()
    assert sum(r["source_hits"] for r in results) == len(FILL_TIMESTEPS)
    for r in results:
        # Each tier-2 access counted once: a hit, or the miss that read.
        assert r["l2_hits"] + r["l2_misses"] == len(FILL_TIMESTEPS)
        assert r["l2_misses"] == r["source_hits"]
        assert r["tiers"].count(TIER_SOURCE) == r["source_hits"]
        assert r["tiers"].count(TIER_L2) == r["l2_hits"]


def test_two_threads_of_one_instance_fill_once(seg):
    """The flock is per open file: a thread lock keeps this process's
    own threads to one fill as well."""
    barriers = {0: threading.Barrier(2)}
    reads = []

    def read(t):
        reads.append(t)
        return _fill(SHAPE, t)

    results = []
    fill = _overlapping(read, barriers)
    threads = [
        threading.Thread(target=lambda: results.append(seg.fill(0, fill)))
        for _ in range(2)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert reads == [0]
    assert sorted(tier for _, tier in results) == [TIER_L2, TIER_SOURCE]
    for arr, _ in results:
        np.testing.assert_array_equal(arr, _fill(SHAPE, 0))
    assert seg.stats.hits.value == 1 and seg.stats.misses.value == 1
