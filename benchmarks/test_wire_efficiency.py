"""Wire efficiency of v2 frame delivery under the paper's 1 MB/s regime.

The acceptance scenario of docs/network.md: a typical interactive
unsteady session — eight rakes, the user studying one timestep while
dragging a single rake — served once as v1 full frames (a
``deltas=False`` subscription: Table 1's 12 bytes/point, every frame)
and once as per-rake deltas + fixed-point quantization.  Measures:

* bytes/frame, v1 vs v2, from the server's ``net.bytes_per_frame``
  histogram (the gate: >= 3x reduction);
* decode fidelity: bit-exact for unchanged rakes, <= 1e-3 grid units for
  quantized ones;
* the network-sustainable frame rate of both encodings over a shaped
  1 MB/s UltraNet channel (modeled via :class:`VirtualClock`, so the
  benchmark is deterministic and does not sleep);
* measured q16 bytes against the analytic model: ``repro.perf.wire``
  prices q16 at the unpacked 6 bytes/point, which the packed wire form
  may only ever undercut (the gate: measured <= model, keyframe and
  session).

Results land in ``benchmarks/output/wire_efficiency.txt``.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import ToolSettings, WindtunnelClient, WindtunnelServer
from repro.dlib.transport import connect_tcp
from repro.netsim import (
    ULTRANET_ACTUAL,
    BandwidthSchedule,
    ThrottledChannel,
    VirtualClock,
)
from repro.perf import SessionWireModel, frame_payload_bytes

FAST = bool(os.environ.get("WT_BENCH_FAST"))

N_RAKES = 8
SEEDS_PER_RAKE = 16
#: Interactions (rake drags) per phase, and display-loop fetches per
#: interaction — the client polls faster than the user drags.
N_DRAGS = 3 if FAST else 8
FETCHES_PER_DRAG = 4

#: The acceptance gate (ISSUE 5): v2 must cut bytes/frame at least 3x.
MIN_REDUCTION = 3.0
#: Quantized decode error ceiling, grid units.
MAX_QUANT_ERR = 1e-3


@pytest.fixture(scope="module")
def wt_server(small_dataset):
    clock = {"now": 0.0}  # frozen dataset clock: the user studies one timestep
    srv = WindtunnelServer(
        small_dataset,
        settings=ToolSettings(streamline_steps=40, streakline_length=8),
        time_speed=1.0,
        time_fn=lambda: clock["now"],
    )
    srv.start()
    yield srv
    srv.stop()


def _add_rakes(client, dataset) -> list[int]:
    lo, hi = dataset.grid.bounding_box()
    span = hi - lo
    rids = []
    for i in range(N_RAKES):
        f = (i + 1) / (N_RAKES + 1)
        a = lo + span * [f, 0.15, 0.3]
        b = lo + span * [f, 0.85, 0.7]
        rids.append(client.add_rake(a, b, n_seeds=SEEDS_PER_RAKE))
    return rids


def _drag_session(server, client, rake_end) -> dict:
    """Drag one rake N_DRAGS times, fetching like a display loop.

    Returns per-phase wire accounting from the server's net histogram.
    """
    before = server.registry.snapshot()["histograms"]["net.bytes_per_frame"]
    hand = np.asarray(rake_end, dtype=np.float64)
    client.send_input(hand + [0, 0, 1], hand, "fist")  # grab
    for i in range(N_DRAGS):
        hand = hand + [0.0, 0.05, 0.0]
        client.send_input(hand + [0, 0, 1], hand, "fist")  # drag = env bump
        for _ in range(FETCHES_PER_DRAG):
            client.fetch_frame()
    client.send_input(hand + [0, 0, 1], hand, "open")  # release
    after = server.registry.snapshot()["histograms"]["net.bytes_per_frame"]
    frames = after["count"] - before["count"]
    total = after["total"] - before["total"]
    return {"frames": frames, "bytes": total, "bytes_per_frame": total / frames}


def test_v2_cuts_bytes_per_frame(wt_server, small_dataset, record):
    host, port = wt_server.address
    vc1 = VirtualClock()
    shaped = BandwidthSchedule([(0.0, ULTRANET_ACTUAL.bandwidth)])

    # -- phase 1: v1 full frames (Table 1's baseline: deltas off) -----------
    c1 = WindtunnelClient(
        stream=ThrottledChannel(
            connect_tcp(host, port), ULTRANET_ACTUAL, clock=vc1, schedule=shaped
        ),
        name="v1",
    )
    c1.subscribe(deltas=False)
    rids = _add_rakes(c1, small_dataset)
    rake_end = wt_server.env.rakes[rids[0]].end_a.copy()
    reference = c1.fetch_frame()["paths"]  # exact float32 scene
    net0 = vc1.now
    v1 = _drag_session(wt_server, c1, rake_end)
    v1_net_seconds = (vc1.now - net0) / v1["frames"]
    c1.close()

    # -- phase 2: v2 client (deltas + q16) over the same shaped link -------
    vc2 = VirtualClock()
    c2 = WindtunnelClient(
        stream=ThrottledChannel(
            connect_tcp(host, port), ULTRANET_ACTUAL, clock=vc2, schedule=shaped
        ),
        name="v2",
    )
    c2.subscribe(encoding="q16", deltas=True)
    hist0 = wt_server.registry.snapshot()["histograms"]["net.bytes_per_frame"]
    keyframe = c2.fetch_frame()
    hist1 = wt_server.registry.snapshot()["histograms"]["net.bytes_per_frame"]
    keyframe_bytes = hist1["total"] - hist0["total"]
    rake_end = wt_server.env.rakes[rids[0]].end_a.copy()
    net0 = vc2.now
    v2 = _drag_session(wt_server, c2, rake_end)
    v2_net_seconds = (vc2.now - net0) / v2["frames"]
    final = c2.fetch_frame()

    # Fidelity: the dragged rake moved, the other seven rakes must decode
    # bit-exactly from the held keyframe bytes; quantized coordinates stay
    # inside the advertised bound against the live float32 scene.
    live = wt_server.store.latest().paths
    max_err = 0.0
    for rid in map(str, rids[1:]):
        np.testing.assert_array_equal(
            final["paths"][rid]["vertices"], keyframe["paths"][rid]["vertices"]
        )
    for rid, entry in final["paths"].items():
        ref = live[rid]["vertices"].astype(np.float64)
        err = float(np.abs(entry["vertices"].astype(np.float64) - ref).max())
        max_err = max(max_err, err)
    c2.close()

    reduction = v1["bytes_per_frame"] / v2["bytes_per_frame"]
    n_points = int(sum(e["lengths"].sum() for e in reference.values()))
    model = SessionWireModel(
        n_frames=N_DRAGS * FETCHES_PER_DRAG,
        n_points=n_points,
        n_rakes=N_RAKES,
        changed_fraction=1.0 / N_RAKES,
    )
    model_keyframe_bytes = frame_payload_bytes(
        n_points, encoding="q16", n_rakes=N_RAKES
    )
    q16 = wt_server.registry.snapshot()["counters"]
    result = {
        "scenario": (
            f"{N_RAKES} rakes x {SEEDS_PER_RAKE} seeds, drag 1 rake, "
            f"{N_DRAGS} drags x {FETCHES_PER_DRAG} fetches, shaped 1 MB/s"
        ),
        "n_points": n_points,
        "v1_bytes_per_frame": v1["bytes_per_frame"],
        "v2_bytes_per_frame": v2["bytes_per_frame"],
        "reduction": reduction,
        "model_reduction": model.reduction(encoding="q16"),
        "q16_keyframe_bytes": keyframe_bytes,
        "model_q16_keyframe_bytes": model_keyframe_bytes,
        "q16_packed_ratio": q16["net.q16_packed_bytes"] / q16["net.q16_raw_bytes"],
        "v1_network_fps": 1.0 / v1_net_seconds,
        "v2_network_fps": 1.0 / v2_net_seconds,
        "max_quantization_error": max_err,
    }
    record(
        "wire_efficiency",
        [
            f"scenario: {result['scenario']}",
            f"points/frame: {n_points}",
            f"v1 bytes/frame: {v1['bytes_per_frame']:.0f}",
            f"v2 bytes/frame: {v2['bytes_per_frame']:.0f}",
            f"reduction: {reduction:.1f}x (analytic model: "
            f"{result['model_reduction']:.1f}x)",
            f"q16 keyframe bytes: {keyframe_bytes:.0f} (model upper bound: "
            f"{model_keyframe_bytes}; packed/raw {result['q16_packed_ratio']:.2f})",
            f"network-sustainable fps @ 1 MB/s: v1 {result['v1_network_fps']:.1f}"
            f" -> v2 {result['v2_network_fps']:.1f}",
            f"max quantized decode error: {max_err:.2e} grid units",
        ],
    )
    assert reduction >= MIN_REDUCTION
    # The model prices q16 unpacked: an upper bound, never a fit.
    assert keyframe_bytes <= model_keyframe_bytes
    assert v2["bytes"] <= model.v2_bytes(encoding="q16")
    assert max_err <= MAX_QUANT_ERR
    assert result["v2_network_fps"] > result["v1_network_fps"]
