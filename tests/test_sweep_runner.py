"""Tests for the headless sweep runner (repro.sweep.runner)."""

import pytest

from repro.sweep import ResultsStore, SweepManifest, SweepRunner, run_scenario
from repro.sweep.manifest import ScenarioError
from repro.sweep.runner import RUN_METRICS


def tiny_manifest(**over):
    raw = {
        "name": "tiny",
        "base": {
            "shape": [8, 8, 5],
            "timesteps": 2,
            "frames": 2,
            "seeds_per_rake": 2,
            "streamline_steps": 6,
            "streakline_length": 4,
        },
    }
    raw.update(over)
    return SweepManifest.from_dict(raw)


class TestRunScenario:
    def test_record_shape_and_metrics(self):
        (scenario,) = tiny_manifest().expand()
        record = run_scenario(scenario)
        assert record["status"] == "ok"
        assert record["scenario_id"] == scenario.scenario_id
        for name in RUN_METRICS:
            assert name in record["metrics"], name
        m = record["metrics"]
        assert m["points_total"] > 0
        assert m["bytes_per_frame"] > 0
        assert m["frames"] == 2
        assert m["faults_injected"] == 0

    def test_run_is_deterministic_in_wire_metrics(self):
        (scenario,) = tiny_manifest().expand()
        a = run_scenario(scenario)["metrics"]
        b = run_scenario(scenario)["metrics"]
        for name in ("bytes_per_frame", "points_total",
                     "encodes_per_publication", "faults_injected"):
            assert a[name] == b[name], name

    def test_fault_profile_counters_land_in_record(self):
        manifest = tiny_manifest(
            base={
                "shape": [8, 8, 5], "timesteps": 2, "frames": 6,
                "seeds_per_rake": 2, "streamline_steps": 6,
                "streakline_length": 4, "fault_profile": "lossy",
            },
            faults={"lossy": {"seed": 3, "drop_rate": 0.5,
                              "corrupt_rate": 0.3}},
        )
        (scenario,) = manifest.expand()
        record = run_scenario(scenario)
        m = record["metrics"]
        assert m["faults_injected"] > 0
        injected = ("drops", "duplicates", "corruptions", "stalls",
                    "disconnects")
        assert m["faults_injected"] == sum(
            m["faults"].get(k, 0) for k in injected
        )
        # Dropped frames never reach the loopback, so delivered < sent.
        assert m["delivered_bytes"] < m["wire_bytes_total"]
        assert any(k.startswith("faults.") for k in record["obs"]["counters"])

    def test_decimation_shrinks_the_wire(self):
        base = {
            "shape": [8, 8, 5], "timesteps": 2, "frames": 2,
            "seeds_per_rake": 4, "streamline_steps": 12,
            "streakline_length": 4,
        }
        (full,) = tiny_manifest(base=dict(base, decimate=1)).expand()
        (dec,) = tiny_manifest(base=dict(base, decimate=4)).expand()
        full_m = run_scenario(full)["metrics"]
        dec_m = run_scenario(dec)["metrics"]
        assert dec_m["bytes_per_frame"] < full_m["bytes_per_frame"]

    def test_keyframe_written(self, tmp_path):
        (scenario,) = tiny_manifest().expand()
        path = tmp_path / "kf.ppm"
        run_scenario(scenario, keyframe_path=path)
        data = path.read_bytes()
        assert data.startswith(b"P6")


class TestSweepRunner:
    def test_parallel_sweep_populates_store(self, tmp_path):
        manifest = tiny_manifest(axes={"encoding": ["v1", "f16", "q16"]})
        runner = SweepRunner(manifest, tmp_path / "store", workers=3)
        outcome = runner.run()
        assert outcome.succeeded
        assert outcome.ok == 3
        store = ResultsStore(tmp_path / "store")
        runs = store.runs()
        assert len(runs) == 3
        header = store.header()
        assert header["summary"]["ok"] == 3
        assert header["manifest_digest"] == manifest.digest

    def test_parallel_runs_have_isolated_metrics(self, tmp_path):
        # Three concurrent scenarios; each record's frame counter must be
        # exactly its own frames, not a sum across threads.
        manifest = tiny_manifest(axes={"encoding": ["v1", "f16", "q16"]})
        outcome = SweepRunner(manifest, tmp_path / "s", workers=3).run()
        for record in outcome.records:
            assert record["obs"]["counters"]["sweep.frames"] == 2

    def test_progress_callback_sees_every_record(self, tmp_path):
        manifest = tiny_manifest(axes={"decimate": [1, 2]})
        seen = []
        SweepRunner(manifest, tmp_path / "s", workers=2).run(
            progress=seen.append
        )
        assert sorted(r["scenario_id"] for r in seen) == sorted(
            s.scenario_id for s in manifest.expand()
        )

    def test_engine_crash_is_recorded_not_raised(self, tmp_path, monkeypatch):
        import repro.sweep.runner as runner_mod

        def boom(*args, **kwargs):
            raise RuntimeError("engine exploded")

        monkeypatch.setattr(runner_mod, "tapered_cylinder_dataset", boom)
        manifest = tiny_manifest()
        outcome = SweepRunner(manifest, tmp_path / "s", workers=1).run()
        assert not outcome.succeeded
        (record,) = outcome.records
        assert record["status"] == "error"
        assert record["error"]["type"] == "RuntimeError"
        # The store still holds the record and the summary counts it.
        store = ResultsStore(tmp_path / "s")
        assert store.header()["summary"]["errors"] == 1

    def test_zero_workers_rejected(self, tmp_path):
        with pytest.raises(ScenarioError) as exc_info:
            SweepRunner(tiny_manifest(), tmp_path / "s", workers=0)
        assert exc_info.value.key == "workers"

    def test_store_reader_errors_are_typed(self, tmp_path):
        store = ResultsStore(tmp_path / "nothing")
        with pytest.raises(ScenarioError):
            store.header()
        with pytest.raises(ScenarioError):
            store.runs()


class TestSweepRunCli:
    def _manifest(self, tmp_path):
        import json

        path = tmp_path / "m.json"
        path.write_text(
            json.dumps(
                {
                    "name": "cli",
                    "base": {
                        "shape": [8, 8, 5], "timesteps": 2, "frames": 2,
                        "seeds_per_rake": 2, "streamline_steps": 6,
                        "streakline_length": 4,
                    },
                    "axes": {"encoding": ["v1", "q16"]},
                }
            ),
            encoding="utf-8",
        )
        return path

    def test_run_writes_store_and_exits_zero(self, tmp_path):
        import io

        from repro.cli import main as cli_main

        out = io.StringIO()
        code = cli_main(
            ["sweep", "run", str(self._manifest(tmp_path)),
             "--store", str(tmp_path / "s"), "--workers", "2"],
            out=out,
        )
        assert code == 0
        assert "2 scenario(s)" in out.getvalue()
        assert ResultsStore(tmp_path / "s").header()["summary"]["ok"] == 2

    def test_run_bad_manifest_exits_two_with_named_key(self, tmp_path):
        import io
        import json

        from repro.cli import main as cli_main

        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"name": "x", "base": {"encoding": "v9"}}),
            encoding="utf-8",
        )
        out = io.StringIO()
        code = cli_main(
            ["sweep", "run", str(path), "--store", str(tmp_path / "s")],
            out=out,
        )
        assert code == 2
        assert "base.encoding" in out.getvalue()


class TestDatasetSharing:
    def test_pool_reuses_by_geometry(self):
        from repro.sweep.runner import DatasetPool

        manifest = tiny_manifest(axes={"encoding": ["v1", "f16"]})
        a, b = manifest.expand()
        pool = DatasetPool()
        ds_a, cache_a = pool.acquire(a)
        ds_b, cache_b = pool.acquire(b)
        # Same (shape, timesteps): one dataset, one shared tier-1 cache.
        assert ds_a is ds_b and cache_a is cache_b
        assert pool.datasets_built == 1 and pool.reuses == 1
        big = tiny_manifest(
            base={
                "shape": [10, 8, 5], "timesteps": 2, "frames": 2,
                "seeds_per_rake": 2, "streamline_steps": 6,
                "streakline_length": 4,
            }
        ).expand()[0]
        ds_c, _ = pool.acquire(big)
        assert ds_c is not ds_a
        assert pool.datasets_built == 2

    def test_summary_reports_shared_cache_totals(self, tmp_path):
        manifest = tiny_manifest(axes={"encoding": ["v1", "f16", "q16"]})
        runner = SweepRunner(manifest, tmp_path / "s", workers=1)
        assert runner.run().succeeded
        summary = ResultsStore(tmp_path / "s").header()["summary"]
        cache = summary["dataset_cache"]
        # Three scenarios, one geometry: the dataset is built once and
        # its two timesteps are decoded once for the whole sweep.
        assert cache["datasets"] == 1
        assert cache["datasets_built"] == 1
        assert cache["dataset_reuses"] == 2
        assert cache["l1_misses"] == 2
        assert cache["l1_hits"] > 0
        assert cache["l1_resident_bytes"] > 0

    def test_records_are_identical_with_and_without_sharing(self, tmp_path):
        # Sharing is a pure perf change: per-run records must stay
        # byte-deterministic, with the shared cache's counters kept out.
        manifest = tiny_manifest(axes={"encoding": ["v1", "f16"]})
        shared = SweepRunner(
            manifest, tmp_path / "a", workers=2, share_datasets=True
        ).run()
        private = SweepRunner(
            manifest, tmp_path / "b", workers=2, share_datasets=False
        ).run()
        by_id = lambda o: {r["scenario_id"]: r for r in o.records}  # noqa: E731
        a, b = by_id(shared), by_id(private)
        assert a.keys() == b.keys()
        for sid in a:
            assert a[sid]["obs"]["counters"] == b[sid]["obs"]["counters"]
            for name in ("bytes_per_frame", "points_total",
                         "encodes_per_publication", "faults_injected"):
                assert a[sid]["metrics"][name] == b[sid]["metrics"][name]
            assert not any(
                k.startswith("cache.") for k in a[sid]["obs"]["counters"]
            )

    def test_share_datasets_false_restores_isolation(self, tmp_path):
        manifest = tiny_manifest(axes={"encoding": ["v1", "f16"]})
        runner = SweepRunner(
            manifest, tmp_path / "s", workers=2, share_datasets=False
        )
        assert runner.dataset_pool is None
        assert runner.run().succeeded
        assert "dataset_cache" not in (
            ResultsStore(tmp_path / "s").header()["summary"]
        )
