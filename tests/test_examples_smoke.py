"""Smoke tests: the shipped examples must actually run.

Only the two fastest examples run here (the others take minutes by
design); they cover both the stereo VR path and the desktop/mono path
end to end, which protects the examples from API drift.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"


def run_example(name: str, out_dir: Path, timeout: float = 240.0) -> str:
    """Run an example writing into ``out_dir``, not the tracked renders."""
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), str(out_dir)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, (
        f"{name} failed:\n{proc.stdout}\n{proc.stderr}"
    )
    return proc.stdout


@pytest.mark.slow
def test_quickstart_runs(tmp_path):
    out = run_example("quickstart.py", tmp_path)
    assert "wrote" in out
    assert (tmp_path / "quickstart.ppm").exists()


@pytest.mark.slow
def test_desktop_example_runs(tmp_path):
    out = run_example("desktop_windtunnel.py", tmp_path)
    assert "rake dragged by mouse" in out
    assert (tmp_path / "desktop_windtunnel.ppm").exists()
