"""Fused megabatch compute: equivalence and zero-allocation.

The golden-trajectory contract of the fused frame path: gathering every
rake's seeds into one integration call and slicing the result back by
offset must be *bit-identical* to per-rake ``compute_rake`` calls — across
mixed rake kinds and mid-frame particle death — on the one kernel the
engine runs (``vector``; the others are compared at kernel level in
``tests/test_tracers_integrate.py``).  Alongside it, the optimization
underneath: the :class:`IntegratorWorkspace` zero-allocation kernels.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core import ComputeEngine, ToolSettings
from repro.flow import MemoryDataset, RigidRotation, UniformFlow, sample_on_grid
from repro.grid import cartesian_grid
from repro.tracers import Rake
from repro.tracers.integrate import (
    PATHS_POOL,
    IntegratorWorkspace,
    integrate_paths,
    integrate_steady,
)
from repro.tracers.particlepath import compute_particle_paths
from tests.launches import calls_per_step

# A deprecated NumPy call in the stepping loop warns on every step and
# costs without a trace: make it fail here instead.
pytestmark = pytest.mark.filterwarnings("error::DeprecationWarning")


@pytest.fixture(scope="module")
def dataset():
    grid = cartesian_grid((12, 12, 6), lo=(0, 0, 0), hi=(11, 11, 5))
    field = RigidRotation(omega=[0, 0, 1.0], center=[5.5, 5.5, 0]) + UniformFlow(
        [0.05, 0.02, 0.0]
    )
    vel = sample_on_grid(field, grid, np.arange(6) * 0.2, dtype=np.float64)
    return MemoryDataset(grid, vel, dt=0.2)


def _mixed_rakes():
    """Streamline + particle-path + streakline rakes, some near the wall.

    Rake 4 hugs the domain edge so a swirl of its particles exits the
    domain mid-frame — the rake-death case the slicing must survive.
    """
    return {
        1: Rake([2, 5, 2], [9, 5, 2], n_seeds=5, kind="streamline", rake_id=1),
        2: Rake([5, 2, 3], [5, 9, 3], n_seeds=4, kind="streamline", rake_id=2),
        3: Rake([3, 3, 1], [8, 8, 4], n_seeds=6, kind="particle_path", rake_id=3),
        4: Rake(
            [0.3, 0.3, 2], [10.7, 0.3, 2], n_seeds=5, kind="streamline", rake_id=4
        ),
        5: Rake([4, 7, 2], [7, 4, 2], n_seeds=3, kind="particle_path", rake_id=5),
        6: Rake([5, 5, 1], [6, 6, 4], n_seeds=3, kind="streakline", rake_id=6),
    }


def _engines(dataset):
    settings = ToolSettings(
        streamline_steps=40, streamline_dt=0.08, particle_path_steps=4,
        streakline_length=8,
    )
    return ComputeEngine(dataset, settings), ComputeEngine(dataset, settings)


def _per_rake(engine, rakes, timestep=0):
    """The reference: one ``compute_rake`` call per rake, no batching."""
    return {rid: engine.compute_rake(rake, timestep) for rid, rake in rakes.items()}


class TestFusedEquivalence:
    def test_vector_bit_identical_mixed_kinds(self, dataset):
        fused, per_rake = _engines(dataset)
        a = fused.compute_rakes(_mixed_rakes(), 0)
        b = _per_rake(per_rake, _mixed_rakes())
        assert set(a) == set(b)
        for rid in a:
            assert np.array_equal(a[rid].grid_paths, b[rid].grid_paths), rid
            assert np.array_equal(a[rid].lengths, b[rid].lengths), rid

    def test_vector_mid_frame_rake_death(self, dataset):
        # The wall-hugging rake: some of its particles must actually die
        # mid-integration for this test to mean anything.
        fused, per_rake = _engines(dataset)
        rakes = _mixed_rakes()
        a = fused.compute_rakes(rakes, 0)
        b = _per_rake(per_rake, rakes)
        steps = fused.settings.streamline_steps
        died = a[4].lengths < steps + 1
        assert died.any(), "edge rake should lose particles mid-frame"
        assert not died.all(), "edge rake should also keep particles"
        for rid in a:
            assert np.array_equal(a[rid].lengths, b[rid].lengths), rid
            assert np.array_equal(a[rid].grid_paths, b[rid].grid_paths), rid

    def test_fused_metrics_recorded(self, dataset):
        fused, _ = _engines(dataset)
        rakes = _mixed_rakes()
        out = fused.compute_rakes(rakes, 0)
        snap = fused.registry.snapshot()
        # Streaklines stay per-rake; the batch is the 23 stream/path seeds.
        assert snap["gauges"]["engine.fused_batch_size"] == 23
        assert snap["gauges"]["engine.points_per_second"] > 0
        assert snap["counters"]["engine.fused_frames"] == 1
        # ...but every point the engine produced is counted, theirs too.
        assert snap["counters"]["engine.points_computed"] == sum(
            r.n_points for r in out.values()
        )

    def test_empty_rake_set(self, dataset):
        fused, _ = _engines(dataset)
        assert fused.compute_rakes({}, 0) == {}

    def test_single_rake_all_seeds_out_of_domain(self, dataset):
        fused, per_rake = _engines(dataset)
        rakes = {
            9: Rake([-9, -9, -9], [-5, -5, -5], n_seeds=3, rake_id=9),
            1: Rake([2, 5, 2], [9, 5, 2], n_seeds=5, rake_id=1),
        }
        a = fused.compute_rakes(rakes, 0)
        b = _per_rake(per_rake, rakes)
        assert a[9].n_paths == 0 == b[9].n_paths
        assert np.array_equal(a[1].grid_paths, b[1].grid_paths)


class TestWorkspaceKernels:
    @pytest.fixture(scope="class")
    def field(self):
        rng = np.random.default_rng(42)
        return np.ascontiguousarray(rng.normal(0, 0.8, size=(24, 20, 16, 3)))

    def test_steady_bit_identical(self, field):
        rng = np.random.default_rng(1)
        seeds = rng.uniform(0, 15, size=(200, 3))
        p0, l0 = integrate_steady(field, seeds, 120, 0.05)
        ws = IntegratorWorkspace()
        p1, l1 = integrate_steady(field, seeds, 120, 0.05, workspace=ws)
        assert np.array_equal(p0, p1)
        assert np.array_equal(l0, l1)

    def test_paths_bit_identical(self, field):
        rng = np.random.default_rng(2)
        fields = [
            np.ascontiguousarray(rng.normal(0, 0.5, size=(16, 16, 12, 3)))
            for _ in range(8)
        ]
        seeds = rng.uniform(0, 11, size=(64, 3))
        ws = IntegratorWorkspace()
        p0, l0 = integrate_paths(lambda t: fields[t], seeds, 0, 6, 8, 0.1)
        p1, l1 = integrate_paths(
            lambda t: fields[t], seeds, 0, 6, 8, 0.1, workspace=ws
        )
        assert np.array_equal(p0, p1)
        assert np.array_equal(l0, l1)

    def test_ineligible_field_falls_back(self):
        # float32 fields bypass the fast path but must stay correct.
        rng = np.random.default_rng(4)
        field32 = rng.normal(0, 0.5, size=(10, 10, 8, 3)).astype(np.float32)
        seeds = rng.uniform(0, 7, size=(20, 3))
        p0, l0 = integrate_steady(field32, seeds, 15, 0.05)
        p1, l1 = integrate_steady(
            field32, seeds, 15, 0.05, workspace=IntegratorWorkspace()
        )
        assert np.array_equal(p0, p1)
        assert np.array_equal(l0, l1)

    def test_zero_steps(self, field):
        seeds = np.array([[1.0, 1.0, 1.0], [50.0, 1.0, 1.0]])
        p, l = integrate_steady(field, seeds, 0, 0.05, workspace=IntegratorWorkspace())
        assert p.shape == (2, 1, 3)
        assert l.tolist() == [1, 1]

    def test_paths_buffer_pool_rotates(self):
        ws = IntegratorWorkspace()
        a = ws.paths_buffer(8, 5)
        b = ws.paths_buffer(8, 5)
        assert a is not b
        for _ in range(PATHS_POOL - 2):
            ws.paths_buffer(8, 5)
        assert ws.paths_buffer(8, 5) is a  # the pool wraps around
        assert ws.paths_buffer(8, 6) is not a  # different shape, new pool

    def test_zero_allocation_steady_state(self, field):
        """The acceptance criterion: no per-step allocations in the loop.

        A warmed workspace run must allocate orders of magnitude less than
        the naive kernel — only per-call setup (lengths, the seed-domain
        mask), nothing proportional to the step count.
        """
        rng = np.random.default_rng(5)
        # Interior seeds, small dt: nobody dies, the loop stays on the
        # steady-state (allocation-free) path.
        seeds = rng.uniform(4, 12, size=(512, 3))
        n_steps = 200
        ws = IntegratorWorkspace()
        for _ in range(PATHS_POOL + 1):  # warm every pooled buffer
            integrate_steady(field, seeds, n_steps, 0.01, workspace=ws)
        tracemalloc.start()
        base, _ = tracemalloc.get_traced_memory()
        integrate_steady(field, seeds, n_steps, 0.01, workspace=ws)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        workspace_overhead = peak - base
        tracemalloc.start()
        base, _ = tracemalloc.get_traced_memory()
        integrate_steady(field, seeds, n_steps, 0.01)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        naive_overhead = peak - base
        # Per-call setup is ~tens of KB; per-step churn would be MBs
        # (512 seeds x 200 steps x several temporaries).
        assert workspace_overhead < 128 * 1024, workspace_overhead
        assert naive_overhead > 10 * workspace_overhead, (
            workspace_overhead,
            naive_overhead,
        )

    def test_zero_allocation_unsteady(self):
        """The same bound on the particle-path kernel: a new field bound
        every step, and still nothing proportional to the step count."""
        rng = np.random.default_rng(6)
        fields = [
            np.ascontiguousarray(rng.normal(0, 0.8, size=(24, 20, 16, 3)))
            for _ in range(201)
        ]
        seeds = rng.uniform(4, 12, size=(512, 3))
        ws = IntegratorWorkspace()

        def run(workspace):
            return integrate_paths(
                fields.__getitem__, seeds, 0, 200, 201, 0.01, workspace=workspace
            )

        for _ in range(PATHS_POOL + 1):
            _, lengths = run(ws)
        assert lengths.min() == 201  # nobody died: the in-place path
        tracemalloc.start()
        base, _ = tracemalloc.get_traced_memory()
        run(ws)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak - base < 128 * 1024, peak - base

    def test_zero_allocation_encode(self, field):
        """Encoding a warmed second frame allocates its float32 wire
        arrays and nothing else of size: the grid -> physical conversion
        runs on the encode scratch."""
        from repro.grid import CurvilinearGrid
        from repro.grid.interpolation import TrilinearScratch
        from repro.tracers.result import TracerResult, wire_arrays_batch

        rng = np.random.default_rng(7)
        grid = CurvilinearGrid(field)
        ws = IntegratorWorkspace()
        scratch = TrilinearScratch()

        def frame():
            out = {}
            for rid, n_seeds in enumerate((256, 128, 128)):
                seeds = rng.uniform(4, 12, size=(n_seeds, 3))
                paths, lengths = integrate_steady(field, seeds, 200, 0.01, workspace=ws)
                out[rid] = TracerResult(paths, lengths, grid)
            return out

        wire_arrays_batch(frame(), scratch)
        second = frame()
        tracemalloc.start()
        base, _ = tracemalloc.get_traced_memory()
        wire = wire_arrays_batch(second, scratch)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        wire_bytes = sum(v.nbytes + l.nbytes for v, l in wire.values())
        assert peak - base - wire_bytes < 128 * 1024, (peak - base, wire_bytes)
        for rid, res in second.items():
            assert np.array_equal(wire[rid][0], res.wire_arrays()[0])

    def test_results_outlive_the_two_frames_that_follow(self, field):
        """A frame that runs the streamline *and* the particle-path kernel
        at one (S, L) shape takes two buffers; frame k must still be
        intact after frames k+1 and k+2 (queue depth 1 plus the frame in
        the encoder), which one shared rotation of four did not give."""
        rng = np.random.default_rng(8)
        fields = [
            np.ascontiguousarray(rng.normal(0, 0.5, size=field.shape))
            for _ in range(8)
        ]
        ws = IntegratorWorkspace()

        def frame(k):
            seeds = rng.uniform(4, 12, size=(16, 3))
            stream = integrate_steady(field, seeds, 6, 0.05, workspace=ws)
            ppath = integrate_paths(
                fields.__getitem__, seeds, 0, 6, 8, 0.05, workspace=ws
            )
            assert stream[0].shape == ppath[0].shape
            return stream[0], ppath[0]

        frames, copies = [], []
        for k in range(7):
            frames.append(frame(k))
            copies.append([paths.copy() for paths in frames[k]])
            if k >= 2:
                for live, kept in zip(frames[k - 2], copies[k - 2]):
                    assert np.array_equal(live, kept), k - 2


class TestLaunchBudget:
    """Calls per RK2 step: the regression guard no wall clock can be.

    The workspace kernel is launch-bound at interactive seed counts, so
    the per-step call count (``tests/launches.py``) is its cost; it was
    104 (streamlines) and 114 (particle paths) before the component-major
    sampler, 44 and 48 before stage 1 dropped its clamp and a steady
    field stopped being re-read, and must not depend on the seed count at
    all.  Particle paths pay for reading and binding the next field.
    """

    BUDGET = {"steady": 40, "paths": 45}

    @pytest.fixture(scope="class")
    def fields(self):
        rng = np.random.default_rng(9)
        return [
            np.ascontiguousarray(rng.normal(0, 0.8, size=(12, 10, 8, 3)))
            for _ in range(152)
        ]

    @pytest.mark.parametrize("kernel", ["steady", "paths"])
    def test_calls_per_step(self, fields, kernel):
        slopes = []
        for n_seeds in (8, 512):
            seeds = np.random.default_rng(n_seeds).uniform(4, 6, size=(n_seeds, 3))
            ws = IntegratorWorkspace()
            if kernel == "steady":
                def run(n_steps):
                    integrate_steady(fields[0], seeds, n_steps, 1e-4, workspace=ws)
            else:
                def run(n_steps):
                    integrate_paths(
                        fields.__getitem__, seeds, 0, n_steps, len(fields), 1e-4,
                        workspace=ws,
                    )
            slopes.append(calls_per_step(run))
        assert slopes[0] == slopes[1], slopes
        assert slopes[0] <= self.BUDGET[kernel], slopes


class TestFullSizeOperands:
    """At interactive ``n`` a ufunc with a broadcast or strided operand
    costs about twice one whose operands all share its contiguous
    ``(…, n)`` shape, so the sampler and the stepping loop carve every
    constant at full size.  This keeps a broadcast from coming back."""

    #: The sampler's constants, each beside a view it meets in one call.
    PAIRS = {
        "zero": "clamped", "hi": "clamped", "maxcell": "cell",
        "offsets": "idx", "fz": "bz", "fy": "by", "fx": "bx",
    }

    @pytest.mark.parametrize("n", [1, 16, 4096])
    @pytest.mark.parametrize("nc", [1, 3])
    def test_sampler_constants_match_their_views(self, n, nc):
        from repro.grid.interpolation import TrilinearScratch

        sample, hi, zero = TrilinearScratch().bind(n, (6, 5, 4, nc))
        cells = dict(
            zip(sample.__code__.co_freevars,
                (cell.cell_contents for cell in sample.__closure__))
        )
        assert cells["hi"] is hi and cells["zero"] is zero
        for const, view in self.PAIRS.items():
            assert cells[const].shape == cells[view].shape, const
        for name, value in cells.items():
            if not isinstance(value, np.ndarray) or name == "strides":
                continue  # ``strides`` is the base-index dot's (3,) vector
            assert value.shape[-1] == n, name
            assert value.flags.c_contiguous and 0 not in value.strides, name

    def test_step_blocks_are_full_size_and_contiguous(self):
        ws = IntegratorWorkspace()
        ws.bind_seeds(64)
        views = ws.bind_active(16, 0.05)
        for view in views:
            assert view.shape[-1] == 16
            assert view.flags.c_contiguous and 0 not in view.strides
        k1, dts, halves = views[0], views[5], views[6]
        assert dts.shape == halves.shape == k1.shape
        assert (dts == 0.05).all() and (halves == 0.025).all()


class TestParticlePathWorkspace:
    def test_workspace_matches_plain(self, dataset):
        seeds = np.array([[3.0, 3.0, 2.0], [7.0, 6.0, 3.0], [5.0, 5.0, 1.0]])
        plain = compute_particle_paths(dataset, 0, seeds, n_steps=4)
        ws = compute_particle_paths(
            dataset, 0, seeds, n_steps=4, workspace=IntegratorWorkspace()
        )
        assert np.array_equal(plain.grid_paths, ws.grid_paths)
        assert np.array_equal(plain.lengths, ws.lengths)


class TestPipelineIntegration:
    def test_pipeline_reports_the_engines_instruments(self, dataset):
        from repro.core import Environment
        from repro.core.framestore import FrameStore
        from repro.core.pipeline import FramePipeline

        engine = ComputeEngine(dataset, ToolSettings(streamline_steps=10))
        env = Environment(dataset.n_timesteps)
        env.add_rake(Rake([2, 5, 2], [9, 5, 2], n_seeds=4))
        env.add_rake(Rake([5, 2, 2], [5, 9, 2], n_seeds=3))
        store = FrameStore()
        pipe = FramePipeline(engine, env, store)
        frame = pipe.produce_inline()
        # The pipeline adopted the engine's registry: one store, read by
        # the reply and by the snapshot alike.
        snap = pipe.registry.snapshot()
        assert snap["gauges"]["engine.fused_batch_size"] == 7.0
        assert snap["counters"]["engine.points_computed"] == frame.n_points
        assert engine.registry.snapshot() == pipe.registry.snapshot()
        compute = pipe.stats()["compute"]
        assert compute == {
            "fused_batch_size": 7,
            "points_per_second": snap["gauges"]["engine.points_per_second"],
        }
        assert compute["points_per_second"] > 0
