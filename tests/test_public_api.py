"""The public API surface: everything advertised must exist and import."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.util",
    "repro.grid",
    "repro.flow",
    "repro.tracers",
    "repro.dlib",
    "repro.netsim",
    "repro.diskio",
    "repro.vr",
    "repro.render",
    "repro.core",
    "repro.gateway",
    "repro.perf",
    "repro.cli",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_package_imports(name):
    importlib.import_module(name)


@pytest.mark.parametrize("name", PACKAGES)
def test_all_entries_resolve(name):
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", [])
    for entry in exported:
        assert hasattr(mod, entry), f"{name}.__all__ lists missing {entry!r}"


def test_perf_exports_only_the_models_that_predict():
    """Table 3, the Fig 8 stage model, the wire bound, sweep tolerances."""
    import repro.perf

    assert sorted(repro.perf.__all__) == [
        "BENCHMARK_POINTS",
        "BenchmarkResult",
        "DEFAULT_SWEEP_TOLERANCES",
        "MetricTolerance",
        "PAPER_TIMINGS",
        "PipelineResult",
        "SessionWireModel",
        "SweepTolerances",
        "benchmark_seeds",
        "compare_to_model",
        "frame_payload_bytes",
        "max_particles_at_fps",
        "run_benchmark",
        "simulate_pipeline",
        "table3_rows",
    ]


def test_version():
    import repro

    assert repro.__version__


def test_no_accidental_heavy_imports():
    """Importing repro must not pull in matplotlib/pandas/etc."""
    import subprocess
    import sys

    code = (
        "import sys, repro; "
        "bad = [m for m in ('matplotlib', 'pandas', 'vtk') if m in sys.modules]; "
        "print(','.join(bad))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == ""


def test_docstrings_on_public_classes():
    """Every public class and function in __all__ carries a docstring."""
    import inspect

    missing = []
    for name in PACKAGES:
        mod = importlib.import_module(name)
        for entry in getattr(mod, "__all__", []):
            obj = getattr(mod, entry)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not (obj.__doc__ or "").strip():
                    missing.append(f"{name}.{entry}")
    assert not missing, f"missing docstrings: {missing}"
