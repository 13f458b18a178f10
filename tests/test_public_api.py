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
    """Table 3, the Fig 8 stage model, the wire bound; no second
    regression gate beside ``benchmarks/e2e``."""
    import repro.perf

    assert sorted(repro.perf.__all__) == [
        "BENCHMARK_POINTS",
        "PAPER_TIMINGS",
        "PipelineResult",
        "SessionWireModel",
        "benchmark_seeds",
        "compare_to_model",
        "frame_payload_bytes",
        "max_particles_at_fps",
        "simulate_pipeline",
        "table3_rows",
    ]


def test_stat_mirrors_and_dead_selectors_stay_unexported():
    """One store per number: no stats class or accessor beside the
    registry comes back through a package ``__all__``."""
    import repro
    import repro.diskio
    import repro.netsim
    import repro.obs
    import repro.tracers

    assert sorted(repro.obs.__all__) == [
        "Counter", "Gauge", "Histogram", "MetricsRegistry", "Span", "Trace",
        "TraceCollector", "current_trace", "format_trace", "use_trace",
    ]
    assert sorted(repro.diskio.__all__) == [
        "CONVEX_DISK", "DatasetSource", "DiskModel", "ResidencyPlan",
        "SharedTimestepCache", "TieredTimestepCache", "TimestepCache",
        "TimestepLoader", "dataset_key", "decoded_timestep_nbytes",
        "plan_residency", "required_disk_bandwidth_mbps", "table2_rows",
        "timesteps_per_gigabyte",
    ]
    assert sorted(repro.tracers.__all__) == [
        "GrabPoint", "IntegratorWorkspace", "IsosurfaceResult", "Rake",
        "TracerResult", "advance_rk2", "compute_streaklines",
        "extract_isosurface", "integrate_paths", "integrate_steady",
        "velocity_magnitude",
    ]
    # A tool is computed one way: through ``ComputeEngine``, on the two
    # kernels.  No engine-free wrapper reads the dataset past the tiers.
    assert not {"compute_streamlines", "compute_particle_paths"} & {
        *repro.__all__, *repro.tracers.__all__
    }
    assert "compute_streaklines" in repro.__all__ and len(repro.__all__) == 23
    assert sorted(repro.netsim.__all__) == [
        "BYTES_PER_POINT", "BYTES_PER_POINT_QUANTIZED", "BandwidthSchedule",
        "ETHERNET_10", "FaultPlan", "FaultStats", "FaultyChannel", "HIPPI",
        "NetworkModel", "ProcessFaults", "ThrottledChannel", "ULTRANET_ACTUAL",
        "ULTRANET_RATED", "ULTRANET_VME", "VirtualClock", "bytes_per_frame",
        "max_particles_for_bandwidth", "required_bandwidth_mbps", "table1_rows",
    ]


def test_helpers_nothing_calls_stay_unexported():
    """No matrix stack, ring buffer, axis rotation, vector transform or
    grid-sampled field beside the helpers the system uses."""
    import repro.flow
    import repro.util

    assert sorted(repro.util.__all__) == [
        "FrameTimer", "IDENTITY", "Stopwatch", "TimingStats", "compose",
        "invert_rigid", "is_rigid", "look_at", "rotation_x", "rotation_y",
        "rotation_z", "transform_points", "translation",
    ]
    assert sorted(repro.flow.__all__) == [
        "DiskDataset", "LambOseenVortex", "MemoryDataset",
        "NavierStokes2D", "OscillatingShearLayer", "RigidRotation",
        "SolverConfig", "Superposition", "TaperedCylinderFlow", "UniformFlow",
        "UnsteadyDataset", "VectorField", "cylinder_mask", "sample_on_grid",
        "solver_dataset", "tapered_cylinder_dataset", "tapered_cylinder_mask",
    ]


def test_the_live_window_is_stored_once():
    """The cache tiers hold the live window: no ring beside them."""
    import repro.insitu

    assert sorted(repro.insitu.__all__) == [
        "InsituWindtunnelServer", "LiveFlowSource", "STEERING_RANGES",
        "SolverExitedError", "SolverProcess", "SolverProducer",
        "SteeringConflictError", "SteeringController", "extrude_slice",
    ]


def test_option_counts_are_pinned():
    """One frame path: the selector chain (``backend=``/``workers=``, the
    demand-window knobs, the second copy of the reply bytes) stays gone.
    Raising a count here means a new option — justify it in the PR."""
    import dataclasses
    import inspect
    from pathlib import Path

    import repro
    from repro.core import ComputeEngine, FramePipeline, PublishedFrame
    from repro.core import WindtunnelClient, WindtunnelServer
    from repro.core.delivery import Subscription
    from repro.core.framestore import ENCODINGS
    from repro.core.session import SessionTable
    from repro.diskio import (
        SharedTimestepCache,
        TieredTimestepCache,
        TimestepCache,
        TimestepLoader,
    )
    from repro.dlib import DlibClient, DlibServer, RetryPolicy
    from repro.gateway import SessionGateway
    from repro.gateway.admission import AdmissionController
    from repro.gateway.supervisor import WorkerSupervisor
    from repro.gateway.worker import DEFAULT_SPEC
    from repro.grid.search import GridLocator
    from repro.insitu import LiveFlowSource, SolverProducer
    from repro.tracers import (
        IntegratorWorkspace,
        advance_rk2,
        integrate_paths,
        integrate_steady,
    )

    def options(cls):
        return len(inspect.signature(cls.__init__).parameters) - 1  # self

    def parameters(method):
        return list(inspect.signature(method).parameters)[1:]  # self

    assert options(WindtunnelServer) == 14
    assert options(ComputeEngine) == 4
    assert options(FramePipeline) == 6
    # Tier 1 is budgeted in timesteps, and tier 2 copies out: no byte
    # budget, no ownership flag, no pins to release.
    assert options(TieredTimestepCache) == 7
    assert options(TimestepLoader) == 7
    assert options(TimestepCache) == 2
    # Tier 2 is one seqlock ring of float64 timesteps: no reader table
    # to size, no dtype to pick.
    assert options(SharedTimestepCache) == 7
    assert list(inspect.signature(SharedTimestepCache.for_dataset).parameters) == [
        "dataset", "name", "dataset_id", "slots", "create", "registry",
    ]
    # One lossy encoding beside the paper's float32, and no decimation.
    assert ENCODINGS == ("v1", "q16")
    # The options are the fields that decide equality (not seq).
    assert sum(f.compare for f in dataclasses.fields(Subscription)) == 5
    assert len(parameters(WindtunnelClient.subscribe)) == 5
    assert options(IntegratorWorkspace) == 0
    assert len(inspect.signature(advance_rk2).parameters) == 3
    # One integration kernel: Table 3's other four are benchmark code.
    assert list(inspect.signature(integrate_steady).parameters) == [
        "gv", "seeds", "n_steps", "dt", "workspace",
    ]
    assert not {"backend", "workers"} & set(
        inspect.signature(integrate_paths).parameters
    )
    # Per-call backoff and reconnect, no lifetime budget, circuit breaker
    # or failover chain; and no knob that only a constant ever set.
    assert len(dataclasses.fields(RetryPolicy)) == 6
    assert options(DlibClient) == 11
    assert options(DlibServer) == 5
    assert options(SessionTable) == 3
    assert options(AdmissionController) == 8
    # Workers start the one way the platform offers best: no start method.
    assert options(SessionGateway) == 18
    assert options(WorkerSupervisor) == 9
    assert options(GridLocator) == 1
    # The live source holds timestep 0 and the frontier; the producer
    # writes every later timestep to the one cache it must be given.
    assert options(LiveFlowSource) == 4
    assert options(SolverProducer) == 8
    assert inspect.signature(SolverProducer).parameters["cache"].default is (
        inspect.Parameter.empty
    )
    # One way to a velocity field: a load loads (whoever drives a loader
    # calls ``prefetch``), and the engine has no prefetch policy to flip.
    assert parameters(TimestepLoader.load) == ["t"]
    assert parameters(TieredTimestepCache.get) == ["t"]
    assert parameters(ComputeEngine.compute_rakes) == ["rakes", "timestep", "settings"]
    tiny = repro.tapered_cylinder_dataset(shape=(4, 4, 4), n_timesteps=1)
    assert not hasattr(ComputeEngine(tiny), "auto_prefetch")
    # The grid owns its metric terms: nobody is handed a Jacobian.
    for package in (repro.grid, repro.flow):
        for name in package.__all__:
            entry = getattr(package, name)
            if callable(entry):
                assert "jac" not in inspect.signature(entry).parameters, name
    # An environment variable is an option too: the package reads none.
    sources = Path(repro.__file__).parent.rglob("*.py")
    assert not [str(p) for p in sources if "os.environ" in p.read_text()]
    # Nor does the integrator keep a process pool alive between calls.
    tracers = (Path(repro.__file__).parent / "tracers").rglob("*.py")
    assert not [
        str(p) for p in tracers
        if "multiprocessing" in p.read_text() or "atexit" in p.read_text()
    ]
    assert len(DEFAULT_SPEC) == 9
    # Paths, digests and the point count are read off the per-rake entries.
    assert len(dataclasses.fields(PublishedFrame)) == 7
    # A frame is a function of its key: no budget controller to export.
    assert not {"FrameBudgetGovernor", "DegradationPolicy"} & {
        *repro.__all__, *repro.core.__all__
    }


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
