"""The documentation is part of tier 1: links resolve, examples run.

Thin wrapper over ``tools/check_docs.py`` (which the ``docs`` CI job
also runs directly) so a dead relative link or a stale runnable example
fails the ordinary test suite, not just a separate lint step.
"""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

sys.path.insert(0, str(REPO / "tools"))
import check_docs  # noqa: E402


class TestCheckDocs:
    def test_repo_docs_pass(self, capsys):
        assert check_docs.main([]) == 0, capsys.readouterr().err

    def test_dead_link_detected(self, tmp_path):
        bad = tmp_path / "bad.md"
        bad.write_text("see [missing](no/such/file.md)\n")
        assert check_docs.main([str(bad)]) == 1

    def test_deleted_name_and_path_detected(self, tmp_path, capsys):
        ok = tmp_path / "ok.md"
        ok.write_text(
            "`repro.perf.SessionWireModel`, `repro.perf.wire` and "
            "`python tools/check_docs.py docs/x.md` all exist; "
            "`perf/wire.py` is rooted at the package\n"
        )
        assert check_docs.main([str(ok)]) == 0, capsys.readouterr().err
        bad = tmp_path / "bad.md"
        for gone in ("repro.perf.SimVisModel", "benchmarks/record.py --soak"):
            bad.write_text(f"see `{gone}`\n")
            assert check_docs.main([str(bad)]) == 1, gone

    def test_metric_names_must_exist_in_a_live_session(self, tmp_path, capsys):
        ok = tmp_path / "ok.md"
        ok.write_text(
            "`cache.l1.hits`, `loader.misses`, `engine.points_computed`, "
            "`loader.*`, `pipeline.stage.*_seconds`, "
            "`gateway.worker.<name>.saturation` are recorded; `wt.frame` is a "
            "procedure; `pipeline.integrate_ms` is a benchmark row; "
            "`repro.obs.MetricsRegistry.adopt` and `server.engine` are not "
            "metric names at all\n"
        )
        assert check_docs.main([str(ok)]) == 0, capsys.readouterr().err
        bad = tmp_path / "bad.md"
        for gone in (
            "cache.l1.hitz", "loader.bytes*", "wt.no_such_call",
            # Deleted with the budget controllers: stale, not misspelt.
            "governor.quality", "pipeline.quality", "net.send_throughput",
            "net.degradation.<cid>.level",
        ):
            bad.write_text(f"watch `{gone}`\n")
            assert check_docs.main([str(bad)]) == 1, gone
            assert f"no such metric -> {gone}" in capsys.readouterr().err

    def test_anchor_and_url_links_skipped(self, tmp_path):
        ok = tmp_path / "ok.md"
        ok.write_text(
            "[a](#section) [b](https://example.com/x) [c](mailto:x@y.z)\n"
        )
        assert check_docs.main([str(ok)]) == 0

    def test_failing_doctest_detected(self, tmp_path):
        bad = tmp_path / "bad.md"
        bad.write_text("```python doctest\n>>> 1 + 1\n3\n```\n")
        assert check_docs.main([str(bad)]) == 1

    def test_plain_python_blocks_not_executed(self, tmp_path):
        ok = tmp_path / "ok.md"
        ok.write_text("```python\nraise RuntimeError('prose only')\n```\n")
        assert check_docs.main([str(ok)]) == 0

    def test_links_inside_code_blocks_ignored(self, tmp_path):
        ok = tmp_path / "ok.md"
        ok.write_text("```\n[fake](not/a/real/path.md)\n```\n")
        assert check_docs.main([str(ok)]) == 0

    def test_cli_entrypoint(self):
        proc = subprocess.run(
            [sys.executable, str(REPO / "tools" / "check_docs.py")],
            capture_output=True,
            text=True,
            cwd=REPO,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        assert "failures" in proc.stdout
