"""Self-tests of the end-to-end benchmark harness.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q`` (not part of
tier-1: the smoke runs start real servers, gateways and worker processes).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import run
from workloads import WORKLOADS

RUN = Path(__file__).with_name("run.py")
LOCK_STEP = ("drag", "replay_paper", "gateway_mix")
#: Layer metrics that are pure functions of the script on a lock-step
#: workload.  ``dlib.sendmsg_batches`` counts syscalls, which depend on how
#: the kernel drains the socket, and is deliberately not here.
EXACT_LAYERS = (
    "render.points_per_frame", "engine.points_per_frame",
    "pipeline.frames_produced", "pipeline.frames_anticipated",
    "pipeline.useful_ratio", "server.frames_served",
    "server.frame_cache_hit_ratio", "server.keyframes", "server.delta_frames",
    "dlib.messages_per_frame", "netsim.throttled_bytes_per_frame",
    "diskio.source_reads", "diskio.source_bytes_per_frame",
    "diskio.modeled_read_ms_per_frame", "gateway.journal_entries",
    "gateway.forward_failures",
)


# -- arithmetic -----------------------------------------------------------------


def test_percentile_interpolates_between_order_statistics():
    assert harness.percentile([4, 1, 3, 2], 0.5) == 2.5
    assert harness.percentile([1, 2, 3, 4, 5], 0.5) == 3
    assert harness.percentile([10, 20], 0.25) == 12.5
    assert harness.percentile([7], 0.95) == 7
    assert harness.percentile(range(101), 0.95) == 95
    assert harness.percentile([3, 1, 2], 0.0) == 1
    assert harness.percentile([3, 1, 2], 1.0) == 3
    with pytest.raises(ValueError):
        harness.percentile([], 0.5)


def test_self_time_is_duration_minus_children():
    spans = [
        (0, "cycle", 0.0, 10.0, -1, 0),
        (1, "client.fetch", 1.0, 6.0, 0, 0),
        (2, "dlib.decode", 2.0, 3.5, 1, 0),
        (3, "client.render", 6.0, 9.0, 0, 0),
        (4, "engine.compute_rakes", 1.5, 4.0, -1, 0),  # another thread: a root
    ]
    own = harness.self_times(spans)
    assert own == {0: 2.0, 1: 3.5, 2: 1.5, 3: 3.0, 4: 2.5}
    assert run._coverage(spans) == pytest.approx(0.8)


def test_tracer_nests_spans_and_uninstalls_cleanly():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 41

    layer, tracer = Layer(), harness.Tracer()
    tracer.wrap(layer, "outer", "layer.outer")
    tracer.wrap(layer, "inner", "layer.inner")
    tracer.set_cycle(7)
    assert layer.outer() == 42
    by_name = {s[1]: s for s in tracer.spans}
    assert by_name["layer.inner"][4] == by_name["layer.outer"][0]  # parent id
    assert by_name["layer.outer"][4] == -1
    assert {s[5] for s in tracer.spans} == {7}
    own = harness.self_times(tracer.spans)
    outer, inner = by_name["layer.outer"], by_name["layer.inner"]
    assert own[outer[0]] == pytest.approx(
        (outer[3] - outer[2]) - (inner[3] - inner[2]))
    tracer.uninstall()
    assert "outer" not in vars(layer) and layer.outer() == 42
    assert len(tracer.spans) == 2


def test_host_factor_scales_cpu_time_but_not_modeled_sleep():
    host = harness.HostSpeed()
    np_ref, py_ref = (ms / 1e3 for ms in harness.HostSpeed.REFERENCE_MS)
    host.samples = ([np_ref] * 3, [py_ref] * 3)
    assert host.factor() == pytest.approx(1.0)
    host.samples[0].extend([np_ref, 7 * np_ref])  # the mean (4x), not the median
    host.samples[1].extend([py_ref] * 2)
    assert host.factor(first=3) == pytest.approx(2.0)  # geometric mean of 4 and 1
    assert harness.at_reference(3.0, 2.0) == pytest.approx(1.5)
    assert harness.at_reference(3.0, 2.0, slept=1.0) == pytest.approx(2.0)
    assert harness.at_reference(3.0, 2.0, share=0.5) == pytest.approx(2.0)
    window = harness.Window()
    window.latencies, window.attempted = [[0.1, 0.2, 0.3]], 3
    window.frames, window.wall, window.cpu = 30, 6.0, 3.0
    window.host_factor = 2.0
    assert window.p50_ms() == pytest.approx(100.0)
    assert window.fps == pytest.approx(10.0)
    metrics = harness.end_to_end(window, setup_s=1.5, rss_mb=99.0)
    assert metrics["cpu_ms_per_frame"]["value"] == pytest.approx(50.0)
    assert harness.as_measured(window)["latency_p50_ms"] == pytest.approx(200.0)
    window.slept = 0.3  # 0.1 s of every cycle was the wire model's sleep
    assert window.p50_ms() == pytest.approx(150.0)
    assert window.fps == pytest.approx(30 / 3.15)
    host.sample(4)
    assert len(host.samples[0]) == len(host.samples[1]) == 9


# -- scripts and the catalogue ------------------------------------------------------


@pytest.mark.parametrize("name", WORKLOADS)
def test_script_is_a_pure_function_of_the_seed(name):
    script = WORKLOADS[name].script
    encode = lambda seed: json.dumps(script(seed), sort_keys=True).encode()  # noqa: E731
    assert encode(1992) == encode(1992)
    assert encode(1992) != encode(1993)


def test_benchmark_json_mirrors_the_catalogue():
    spec = json.loads((run.REPO / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["benchmarks/e2e"]
    assert spec["command"][-1] == "benchmarks/e2e/run.py"
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (name, cls.why) for name, cls in WORKLOADS.items()]
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} \
        == harness.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == harness.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    # One bound per metric there; --aa holds lock-step wire bytes to exactly 0.
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name, workload in WORKLOADS.items():
        assert run.bound_of(bounds, workload, "fps") == bounds["fps"]
        assert run.bound_of(bounds, workload, "wire_kb_per_frame") == (
            0.0 if name in LOCK_STEP else bounds["wire_kb_per_frame"])


# -- smoke: every workload, twice ---------------------------------------------------


@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_runs_repeat_their_counts(name):
    first, second = (run.run_one(name, 1992, 0, 0, smoke=True) for _ in range(2))
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == set(harness.END_TO_END) | {"failed_ratio"}
        assert all(m["value"] > 0 for n, m in result["metrics"].items()
                   if n != "failed_ratio")
    assert first["workload"]["script"] == second["workload"]["script"]
    assert first["attempted"] == second["attempted"]
    wire = [r["metrics"]["wire_kb_per_frame"]["value"] for r in (first, second)]
    if name in LOCK_STEP:
        assert wire[0] == wire[1]
    else:
        assert wire[0] == pytest.approx(wire[1], rel=0.01)


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_smoke_fills_the_layer_table(name):
    first, second = (run.run_one(name, 1992, 0, 1, smoke=True) for _ in range(2))
    for result in (first, second):
        assert result["correct"], result["checks"]
        assert set(result["layers"]) == set(harness.PER_LAYER)
    if name in LOCK_STEP:
        for metric in EXACT_LAYERS:
            assert first["layers"][metric]["value"] == \
                second["layers"][metric]["value"], metric


def test_a_broken_output_check_fails_the_run():
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", "drag", "--smoke", "--trace", "0",
         "--sabotage", "4"],
        capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert line["correct"] is False
    assert line["failed"] == 3 and line["attempted"] == 12
    assert "failed_ratio" in done.stdout and "0.2500" in done.stdout


def test_a_run_past_its_deadline_is_killed_and_reported(monkeypatch):
    monkeypatch.setattr(run, "RUN_DEADLINE", 0.0)  # the child still gets 1 s
    with pytest.raises(run.RunFailed, match="deadline"):
        run.run_one("drag", 1992, 0, 0, smoke=True)
    assert not list(run.REPO.glob(".e2e_tmp-*"))
