"""Tests for the RK2 integration core."""

import numpy as np
import pytest

from repro.flow import (
    LambOseenVortex,
    MemoryDataset,
    RigidRotation,
    UniformFlow,
    sample_on_grid,
)
from repro.grid import cartesian_grid, cylindrical_grid
from repro.grid.interpolation import trilinear_interpolate
from repro.tracers import (
    IntegratorWorkspace,
    advance_rk2,
    integrate_paths,
    integrate_steady,
)

# A deprecated NumPy call in the stepping loop warns on every step and
# costs without a trace: make it fail here instead.
pytestmark = pytest.mark.filterwarnings("error::DeprecationWarning")


def make_dataset(field, shape=(9, 9, 5), lo=(-2, -2, 0), hi=(2, 2, 1), times=(0.0,)):
    grid = cartesian_grid(shape, lo=lo, hi=hi)
    vel = sample_on_grid(field, grid, np.asarray(times), dtype=np.float64)
    return MemoryDataset(grid, vel, dt=times[1] - times[0] if len(times) > 1 else 1.0)


@pytest.fixture(scope="module")
def rotation_gv():
    """Grid-coordinate velocity of a rigid rotation on a symmetric grid."""
    ds = make_dataset(RigidRotation(omega=[0, 0, 1.0]), shape=(17, 17, 3))
    return ds, ds.grid_velocity(0)


class TestAdvanceRK2:
    def test_uniform_flow_is_exact(self):
        ds = make_dataset(UniformFlow([1.0, 0.0, 0.0]), hi=(2, 2, 1))
        gv = ds.grid_velocity(0)
        # Physical v=(1,0,0); grid spacing 0.5 in x (9 nodes over 4) -> grid
        # velocity 2 in i.
        start = np.array([[1.0, 4.0, 2.0]])
        out = advance_rk2(gv, start, 0.1)
        np.testing.assert_allclose(out, [[1.2, 4.0, 2.0]], atol=1e-12)

    def test_rk2_is_second_order(self, rotation_gv):
        """Halving dt reduces the fixed-horizon error ~4x.

        The rotation field is affine, so trilinear interpolation is exact
        and the only error is the time integrator's.
        """
        _, gv = rotation_gv
        start = np.array([[11.0, 8.0, 1.0]])  # radius 3 grid units
        horizon = 4.0
        angle = horizon  # omega = 1 in grid units on this symmetric grid
        exact = np.array(
            [8.0 + 3.0 * np.cos(angle), 8.0 + 3.0 * np.sin(angle), 1.0]
        )

        def error(n):
            dt = horizon / n
            coords = start.copy()
            for _ in range(n):
                coords = advance_rk2(gv, coords, dt)
            return np.linalg.norm(coords[0] - exact)

        e1, e2 = error(128), error(256)
        ratio = e1 / e2
        assert 3.5 < ratio < 4.5, f"convergence ratio {ratio}"

    def test_circular_orbit_stays_near_circle(self, rotation_gv):
        _, gv = rotation_gv
        coords = np.array([[10.0, 8.0, 1.0]])
        r0 = 2.0
        for _ in range(100):
            coords = advance_rk2(gv, coords, 0.02)
        r = np.linalg.norm(coords[0, :2] - [8.0, 8.0])
        np.testing.assert_allclose(r, r0, rtol=1e-3)


class TestIntegrateSteady:
    def test_shapes_and_lengths(self, rotation_gv):
        _, gv = rotation_gv
        seeds = np.array([[10.0, 8.0, 1.0], [12.0, 8.0, 1.0]])
        paths, lengths = integrate_steady(gv, seeds, 50, 0.02)
        assert paths.shape == (2, 51, 3)
        assert lengths.tolist() == [51, 51]
        np.testing.assert_allclose(paths[:, 0], seeds)

    def test_particle_dies_at_boundary(self):
        ds = make_dataset(
            UniformFlow([1.0, 0.0, 0.0]), shape=(5, 5, 3), lo=(0, 0, 0), hi=(4, 4, 1)
        )
        gv = ds.grid_velocity(0)
        seeds = np.array([[3.0, 2.0, 1.0]])
        paths, lengths = integrate_steady(gv, seeds, 10, 0.5)
        # Grid velocity 1/grid-unit; from i=3, steps of 0.5: dies past i=4.
        assert lengths[0] == 3  # seed + 2 recorded steps (3.5, 4.0)
        # Frozen at last valid vertex thereafter.
        np.testing.assert_allclose(paths[0, lengths[0] - 1 :, 0], 4.0)

    def test_seed_outside_domain_never_moves(self, rotation_gv):
        _, gv = rotation_gv
        seeds = np.array([[-5.0, 0.0, 1.0]])
        paths, lengths = integrate_steady(gv, seeds, 5, 0.1)
        assert lengths[0] == 1
        np.testing.assert_allclose(paths[0], np.tile(seeds[0], (6, 1)))

    def test_zero_steps(self, rotation_gv):
        _, gv = rotation_gv
        seeds = np.array([[8.0, 8.0, 1.0]])
        paths, lengths = integrate_steady(gv, seeds, 0, 0.1)
        assert paths.shape == (1, 1, 3)
        assert lengths[0] == 1

    def test_input_validation(self, rotation_gv):
        _, gv = rotation_gv
        with pytest.raises(ValueError):
            integrate_steady(gv, np.zeros((2, 2)), 5, 0.1)
        with pytest.raises(ValueError):
            integrate_steady(gv, np.zeros((2, 3)), -1, 0.1)

    def test_seeds_not_mutated(self, rotation_gv):
        _, gv = rotation_gv
        seeds = np.array([[10.0, 8.0, 1.0]])
        original = seeds.copy()
        integrate_steady(gv, seeds, 10, 0.1)
        np.testing.assert_array_equal(seeds, original)


class TestIntegratePaths:
    def test_unsteady_uses_successive_timesteps(self):
        # Field switches from +x to +y between timesteps: the particle path
        # must bend, which a frozen-field streamline cannot.
        grid = cartesian_grid((9, 9, 3), lo=(0, 0, 0), hi=(8, 8, 2))
        vel = np.zeros((3, 9, 9, 3, 3))
        vel[0, ..., 0] = 1.0  # t0: +x
        vel[1, ..., 1] = 1.0  # t1: +y
        vel[2, ..., 1] = 1.0
        ds = MemoryDataset(grid, vel, dt=1.0)
        seeds = np.array([[2.0, 2.0, 1.0]])
        paths, lengths = integrate_paths(
            ds.grid_velocity, seeds, 0, 2, ds.n_timesteps, ds.dt
        )
        assert lengths[0] == 3
        # Step 1: Heun average of +x (t0) and +y (t1) fields.
        np.testing.assert_allclose(paths[0, 1], [2.5, 2.5, 1.0], atol=1e-12)
        # Step 2: both stages +y.
        np.testing.assert_allclose(paths[0, 2], [2.5, 3.5, 1.0], atol=1e-12)

    def test_length_clamped_by_available_timesteps(self):
        ds = make_dataset(
            UniformFlow([0.1, 0, 0]), shape=(9, 9, 3), hi=(8, 8, 2),
            times=np.arange(4) * 1.0,
        )
        seeds = np.array([[1.0, 1.0, 1.0]])
        paths, lengths = integrate_paths(
            ds.grid_velocity, seeds, 2, 100, ds.n_timesteps, ds.dt
        )
        assert paths.shape[1] == 2  # t0=2 leaves one step (to t=3)
        assert lengths[0] == 2

    def test_t0_out_of_range(self):
        ds = make_dataset(UniformFlow(), times=np.arange(3) * 1.0)
        with pytest.raises(IndexError):
            integrate_paths(ds.grid_velocity, np.zeros((1, 3)), 3, 1, 3, 1.0)

    def test_bad_seed_shape(self):
        ds = make_dataset(UniformFlow(), times=np.arange(3) * 1.0)
        with pytest.raises(ValueError):
            integrate_paths(ds.grid_velocity, np.zeros((1, 2)), 0, 1, 3, 1.0)

    @pytest.mark.parametrize("workspace", [False, True], ids=["plain", "workspace"])
    @pytest.mark.parametrize("n_steps", [-1, -3])
    def test_negative_steps_rejected(self, n_steps, workspace):
        """The same typed error as :func:`integrate_steady`, not an
        IndexError or a NumPy shape error from inside the loop."""
        ds = make_dataset(UniformFlow(), times=np.arange(3) * 1.0)
        ws = IntegratorWorkspace() if workspace else None
        with pytest.raises(ValueError, match="n_steps must be non-negative"):
            integrate_paths(
                ds.grid_velocity, np.ones((1, 3)), 0, n_steps, 3, 1.0, workspace=ws
            )

    def test_steady_field_path_matches_streamline(self):
        """In a steady dataset, particle paths equal streamlines."""
        ds = make_dataset(
            RigidRotation(omega=[0, 0, 1.0]),
            shape=(17, 17, 3),
            times=np.arange(11) * 0.05,
        )
        seeds = np.array([[10.0, 8.0, 1.0]])
        p_paths, _ = integrate_paths(
            ds.grid_velocity, seeds, 0, 10, ds.n_timesteps, ds.dt
        )
        s_paths, _ = integrate_steady(ds.grid_velocity(0), seeds, 10, ds.dt)
        np.testing.assert_allclose(p_paths, s_paths, atol=1e-12)


def _kernel_workspace(kernel):
    return IntegratorWorkspace() if kernel == "workspace" else None


class TestConvergenceOracle:
    """Streamlines against closed-form circles on the body-fitted O-grid.

    A rigid rotation (every circle at one angular speed) and a Lamb-Oseen
    vortex (each radius at its own), both centred off the cylinder axis
    so a circle crosses the grid's radial lines and is curved in grid
    space, are sampled on :func:`cylindrical_grid`, converted to grid
    velocity, and integrated for a fixed time.  The endpoints, mapped
    back to physical space, are compared with the closed-form rotation
    of the seeds.  At this grid the spatial error floor is ≈ 5e-4; the
    step counts keep ``dt`` well above it, so the error is RK2's own and
    must fall ≈ 4x each time ``dt`` halves.  Both kernels run it: a later
    kernel change that is not bit-identical is judged here.
    """

    SHAPE = (97, 385, 3)
    STEPS = (6, 12, 24)
    CENTER = (-3.0, 0.0, 0.0)  # circles stay on the far side: j never wraps

    @staticmethod
    def _lamb_oseen_omega(r, gamma, core):
        return gamma / (2.0 * np.pi * r * r) * -np.expm1(-r * r / core**2)

    def _errors(self, field, omega_of, horizon, workspace):
        grid = cylindrical_grid(
            self.SHAPE, r_inner=0.5, r_outer=8.0, height=1.0, radial_stretch=0.0
        )
        velocity = sample_on_grid(field, grid, np.array([0.0]), dtype=np.float64)
        gv = MemoryDataset(grid, velocity).grid_velocity(0)
        ni, nj, nk = self.SHAPE
        seeds = np.column_stack(
            [
                np.linspace(0.3, 0.45, 6) * (ni - 1),
                np.full(6, 0.5 * (nj - 1)),
                np.full(6, 0.5 * (nk - 1)),
            ]
        )
        start = trilinear_interpolate(grid.xyz, seeds)
        offset = start - np.asarray(self.CENTER)
        angle = omega_of(np.hypot(offset[:, 0], offset[:, 1])) * horizon
        cos, sin = np.cos(angle), np.sin(angle)
        exact = np.column_stack(
            [
                self.CENTER[0] + offset[:, 0] * cos - offset[:, 1] * sin,
                self.CENTER[1] + offset[:, 0] * sin + offset[:, 1] * cos,
                start[:, 2],
            ]
        )
        errors = []
        for n_steps in self.STEPS:
            paths, lengths = integrate_steady(
                gv, seeds, n_steps, horizon / n_steps, workspace=workspace
            )
            assert (lengths == n_steps + 1).all(), lengths
            end = trilinear_interpolate(grid.xyz, paths[:, -1])
            errors.append(np.sqrt(((end - exact) ** 2).sum(axis=1).mean()))
        return np.array(errors)

    def _assert_second_order(self, errors):
        ratios = errors[:-1] / errors[1:]
        assert ((ratios > 3.5) & (ratios < 4.5)).all(), (errors, ratios)

    @pytest.mark.parametrize("kernel", ["plain", "workspace"])
    def test_rigid_rotation(self, kernel):
        field = RigidRotation(omega=(0.0, 0.0, 1.0), center=self.CENTER)
        errors = self._errors(
            field, np.ones_like, 3.0, _kernel_workspace(kernel)
        )
        self._assert_second_order(errors)

    @pytest.mark.parametrize("kernel", ["plain", "workspace"])
    def test_lamb_oseen_vortex(self, kernel):
        field = LambOseenVortex(20.0, center=self.CENTER, core_radius=2.0)
        errors = self._errors(
            field,
            lambda r: self._lamb_oseen_omega(r, 20.0, 2.0),
            6.0,
            _kernel_workspace(kernel),
        )
        self._assert_second_order(errors)


class TestWorkspaceByteIdentity:
    """The workspace kernel against the plain loop, byte for byte.

    ``np.array_equal`` calls ``-0.0`` and ``0.0`` equal; ``tobytes`` does
    not.  Stage 1 of the workspace kernel skips the clamp on live
    particles, which is exact only because ``maximum(-0.0, 0.0)`` is
    ``-0.0`` and every live particle is already inside — so the cases are
    the ones that would expose a clamp that mattered: seeds at ``-0.0``,
    seeds exactly on each upper face, a NaN in the field, and particles
    that die mid-run.
    """

    SHAPE = (10, 9, 8, 3)
    N_TIMESTEPS = 12

    def _fields(self, case):
        rng = np.random.default_rng(21)
        fields = []
        for _ in range(self.N_TIMESTEPS):
            field = rng.normal(0.0, 0.6, size=self.SHAPE)
            if case == "negative_zero":
                # On the i = 0 face a seed at (-0.0, j, k), j + k even,
                # blends to k1 = ±0.0 by the sign of its i fraction and
                # moves neither j nor k, so k2 is a signed zero too and
                # the sign reaches the path: a clamp that changed the
                # fraction's sign in one kernel only shows in the bytes.
                j, k = np.indices(self.SHAPE[1:3])
                field[0, ..., 0] = np.where((j + k) % 2 == 0, -0.0, -1.0)
                field[0, ..., 1:] = -0.0
                field[1, ..., 0] = -np.abs(field[1, ..., 0]) - 0.1
            elif case == "upper_face":
                field -= 1.0  # inward from the upper faces: stage 1 samples there
            elif case == "nan_field":
                field[4:6, :, 3:5] = np.nan
            elif case == "deaths":
                field[..., 0] += 2.5  # a drift that carries everyone out
            fields.append(np.ascontiguousarray(field))
        return fields

    def _seeds(self, case, n_seeds):
        rng = np.random.default_rng(n_seeds)
        hi = np.array(self.SHAPE[:3]) - 1.0
        seeds = rng.uniform(0.5, 1.0, size=(n_seeds, 3)) * (hi - 1.0)
        if case == "negative_zero":
            j = rng.integers(0, self.SHAPE[1] - 1, size=n_seeds)
            k = rng.integers(0, self.SHAPE[2] - 2, size=n_seeds)
            seeds[:] = np.column_stack([np.full(n_seeds, -0.0), j, k + (j + k) % 2])
        elif case == "upper_face":
            for axis in range(3):
                seeds[axis::3, axis] = hi[axis]
        elif case == "deaths":
            seeds = rng.uniform(0.3, 0.7, size=(n_seeds, 3)) * hi
        return seeds

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("n_seeds", [1, 16, 512])
    @pytest.mark.parametrize(
        "case", ["negative_zero", "upper_face", "nan_field", "deaths"]
    )
    @pytest.mark.parametrize("kernel", ["steady", "paths"])
    def test_bytes_match_plain_loop(self, kernel, case, n_seeds):
        fields = self._fields(case)
        seeds = self._seeds(case, n_seeds)

        def run(workspace):
            if kernel == "steady":
                return integrate_steady(
                    fields[0], seeds, 40, 0.3, workspace=workspace
                )
            return integrate_paths(
                fields.__getitem__, seeds, 0, 40, self.N_TIMESTEPS, 0.3,
                workspace=workspace,
            )

        plain = run(None)
        ws = IntegratorWorkspace()
        for _ in range(2):  # cold, then on warmed buffers and bindings
            paths, lengths = run(ws)
            assert paths.tobytes() == plain[0].tobytes()
            assert lengths.tobytes() == plain[1].tobytes()
        if case == "deaths":
            steps = paths.shape[1]
            assert ((lengths > 1) & (lengths < steps)).any(), "nobody died mid-run"


class TestFieldReads:
    @pytest.mark.parametrize("t0", [0, 3])
    @pytest.mark.parametrize("drift", [0.0, 50.0], ids=["live", "all_die"])
    def test_kernels_read_the_same_fields(self, t0, drift):
        """Each kernel reads every timestep of its window once, in order:
        the field at ``t0`` is read once, not once to pick a kernel and
        again to start it."""
        rng = np.random.default_rng(12)
        fields = [
            np.ascontiguousarray(rng.normal(0.0, 0.5, size=(8, 8, 6, 3)) + drift)
            for _ in range(10)
        ]
        seeds = rng.uniform(2.0, 5.0, size=(16, 3))
        reads = {}
        for kernel in ("plain", "workspace"):
            log = reads[kernel] = []

            def field_at(t, log=log):
                log.append(t)
                return fields[t]

            integrate_paths(
                field_at, seeds, t0, 5, len(fields), 0.2,
                workspace=_kernel_workspace(kernel),
            )
        assert reads["workspace"] == reads["plain"]
        window = reads["plain"]
        assert window == list(range(t0, t0 + len(window)))
        # Once everyone is dead the loop stops reading.
        assert len(window) == (6 if drift == 0.0 else 3)
