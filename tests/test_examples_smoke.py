"""Smoke tests: the shipped examples must actually run.

The examples that finish in a few seconds run here; they cover the
stereo VR path, the desktop/mono path, the shared session, the scripted
BOOM + glove session, the three-tool tour and speed coloring end to end,
which protects the examples from API drift.  Each writes its images into
the directory it is given, never into ``examples/output/``.
``large_dataset_streaming.py`` and ``solver_to_windtunnel.py`` take
longer and are left to be run by hand.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"


def _example_output() -> dict:
    out = EXAMPLES / "output"
    if not out.is_dir():
        return {}
    return {p.name: p.stat().st_mtime_ns for p in out.iterdir()}


def run_example(name: str, out_dir: Path, timeout: float = 240.0) -> str:
    """Run an example writing into ``out_dir``."""
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


@pytest.mark.slow
@pytest.mark.parametrize(
    "name, image",
    [
        ("advanced_tools.py", "advanced_speed_colored.ppm"),
        ("shared_session.py", "shared_alice_view.ppm"),
        ("vr_session.py", "vr_00.ppm"),
        ("tapered_cylinder_tour.py", "tour_smoke_00.ppm"),
    ],
)
def test_example_writes_into_the_given_directory(name, image, tmp_path):
    before = _example_output()
    run_example(name, tmp_path)
    assert (tmp_path / image).exists()
    assert _example_output() == before
