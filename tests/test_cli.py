"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import build_parser, main


def run_cli(*argv) -> tuple[int, str]:
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        for command in ("frobnicate", "sweep"):  # sweep: benchmarks/e2e gates
            with pytest.raises(SystemExit):
                build_parser().parse_args([command])

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.shape == (24, 24, 12)
        assert args.frames == 8


class TestInfoAndTables:
    def test_info(self):
        code, out = run_cli("info")
        assert code == 0
        assert "Distributed Virtual Windtunnel" in out
        assert "131,072" in out

    def test_tables(self):
        code, out = run_cli("tables")
        assert code == 0
        assert "Table 1" in out and "Table 2" in out and "Table 3" in out
        assert "1.144" in out  # Table 1 row 1
        assert "682" in out  # Table 2 row 1
        assert "10,526" in out or "10526" in out  # Table 3 row 2


class TestDemo:
    def test_demo_writes_frame(self, tmp_path):
        frame = tmp_path / "frame.ppm"
        code, out = run_cli(
            "demo",
            "--shape", "12", "12", "6",
            "--timesteps", "4",
            "--frames", "3",
            "--output", str(frame),
        )
        assert code == 0
        assert frame.exists()
        assert "wrote" in out

        from repro.render import Framebuffer

        fb = Framebuffer.load_ppm(frame)
        assert fb.nonblack_pixels() > 0

    def test_mono_demo(self, tmp_path):
        frame = tmp_path / "mono.ppm"
        code, _ = run_cli(
            "demo", "--shape", "12", "12", "6", "--timesteps", "4",
            "--frames", "2", "--output", str(frame), "--mono",
        )
        assert code == 0
        from repro.render import Framebuffer

        fb = Framebuffer.load_ppm(frame)
        # Mono rendering uses all channels (not writemask-separated).
        assert fb.color[..., 1].max() > 0

