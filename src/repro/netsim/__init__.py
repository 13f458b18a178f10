"""Network performance models and throttled channels.

The paper's UltraNet was "rated at 100 megabytes/second, but the UltraNet
VME interface to the SGI workstation limits the bandwidth to 13
megabytes/second...  the actual network performance is only 1
megabyte/second due to software bugs and the lack of a HIPPI interface"
(section 5.1).  We obviously cannot ship an UltraNet; instead
:class:`~repro.netsim.channel.ThrottledChannel` imposes a chosen
bandwidth/latency model on a real byte stream, making frame timings over
loopback reproduce the paper's network-constrained regimes, and
:mod:`~repro.netsim.model` holds the analytic accounting behind Table 1.
"""

from repro.netsim.model import (
    BYTES_PER_POINT,
    BYTES_PER_POINT_QUANTIZED,
    ETHERNET_10,
    HIPPI,
    ULTRANET_ACTUAL,
    ULTRANET_RATED,
    ULTRANET_VME,
    NetworkModel,
    bytes_per_frame,
    max_particles_for_bandwidth,
    required_bandwidth_mbps,
    table1_rows,
)
from repro.netsim.channel import BandwidthSchedule, ThrottledChannel, VirtualClock
from repro.netsim.faults import FaultPlan, FaultStats, FaultyChannel
from repro.netsim.process import ProcessFaults

__all__ = [
    "BYTES_PER_POINT",
    "BYTES_PER_POINT_QUANTIZED",
    "BandwidthSchedule",
    "FaultPlan",
    "FaultStats",
    "FaultyChannel",
    "NetworkModel",
    "ProcessFaults",
    "ULTRANET_RATED",
    "ULTRANET_VME",
    "ULTRANET_ACTUAL",
    "HIPPI",
    "ETHERNET_10",
    "bytes_per_frame",
    "required_bandwidth_mbps",
    "max_particles_for_bandwidth",
    "table1_rows",
    "ThrottledChannel",
    "VirtualClock",
]
