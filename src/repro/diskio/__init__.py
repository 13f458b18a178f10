"""Disk-resident dataset machinery: bandwidth models, caching, residency.

Section 5.1-5.2: when a dataset exceeds physical memory "the data must
reside on a mass storage device, usually disk".  The Convex's measured
30-50 MB/s sustained disk bandwidth lets ~3.25 MB timesteps load inside
the 1/8 s budget; anything bigger (the 36 MB/timestep Harrier) is out of
reach — Table 2.  The server hides what latency it can by loading the
*next* timestep into a buffer while the current one is being computed on
(figure 8, rightmost process); that prefetch is
:class:`~repro.diskio.loader.TimestepLoader`, and the buffer behind it
has grown into a two-tier cache over the dataset (docs/caching.md): a
per-process LRU (:class:`~repro.diskio.cache.TimestepCache`) and a
shared-memory segment co-located sessions attach
(:class:`~repro.diskio.shmcache.SharedTimestepCache`).
"""

from repro.diskio.model import (
    CONVEX_DISK,
    DiskModel,
    required_disk_bandwidth_mbps,
    table2_rows,
    timesteps_per_gigabyte,
)
from repro.diskio.cache import (
    DatasetSource,
    TieredTimestepCache,
    TimestepCache,
    dataset_key,
    decoded_timestep_nbytes,
)
from repro.diskio.loader import TimestepLoader
from repro.diskio.residency import ResidencyPlan, plan_residency
from repro.diskio.shmcache import SharedTimestepCache

__all__ = [
    "DiskModel",
    "CONVEX_DISK",
    "table2_rows",
    "timesteps_per_gigabyte",
    "required_disk_bandwidth_mbps",
    "TimestepLoader",
    "ResidencyPlan",
    "plan_residency",
    "TimestepCache",
    "TieredTimestepCache",
    "DatasetSource",
    "SharedTimestepCache",
    "dataset_key",
    "decoded_timestep_nbytes",
]
