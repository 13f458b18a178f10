"""The scenario-fuzz harness: hostile manifests against the sweep lane.

Two layers, mirroring the lane's own split:

* **Validation fuzz** (the bulk, 200+ generated manifests): arbitrary
  mixtures of legal and degenerate manifest content — 1-point and
  zero-length rakes, odd/prime grid shapes, out-of-range rates, empty
  axes, unknown keys, wrong types.  The contract under test is total:
  ``SweepManifest.from_dict`` either returns a manifest whose expansion
  is self-consistent, or raises a typed :class:`ScenarioError` whose
  ``.key`` names the offending entry.  A bare ``TypeError`` /
  ``IndexError`` / hang from inside the validator is a bug.

* **Execution fuzz** (smaller, real runs): *valid* scenarios at hostile
  corners — minimum 2x2x2 grids, prime dimensions, coincident seeds,
  extreme-decimation q16 encoding — must run headlessly to an
  invariant-consistent metrics snapshot.

Runs derandomized (fixed seed) so CI failures reproduce locally; CI
executes this file with the rest of tier-1.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sweep import ScenarioError, SweepManifest, run_scenario
from repro.sweep.runner import RUN_METRICS

FUZZ = settings(
    max_examples=220,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

# -- strategies ---------------------------------------------------------------

#: Scalars a confused manifest author might put anywhere.
junk = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-5, max_value=70),
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    st.text(max_size=6),
    st.lists(st.integers(min_value=-2, max_value=9), max_size=4),
)

#: Grid dims biased toward odd/prime/minimal shapes.
dim = st.sampled_from([1, 2, 3, 5, 7, 11, 13, 17, 8, 10])
shape3 = st.tuples(dim, dim, dim).map(list)

frac = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    st.floats(min_value=-1.0, max_value=2.0, allow_nan=False),
)
point3 = st.tuples(frac, frac, frac).map(list)

rake_entry = st.fixed_dictionaries(
    {},
    optional={
        "a": st.one_of(point3, junk),
        "b": st.one_of(point3, junk),
        "seeds": st.one_of(st.integers(min_value=-1, max_value=12), junk),
        "kind": st.one_of(
            st.sampled_from(["streamline", "streakline", "particle_path",
                             "vortex", ""]),
            junk,
        ),
    },
)

fault_entry = st.fixed_dictionaries(
    {},
    optional={
        "seed": st.one_of(st.integers(min_value=-3, max_value=99), junk),
        "drop_rate": st.one_of(
            st.floats(min_value=-0.5, max_value=1.5, allow_nan=False), junk
        ),
        "corrupt_rate": st.floats(min_value=0.0, max_value=1.0,
                                  allow_nan=False),
        "stall_seconds": st.floats(min_value=-0.1, max_value=2.0,
                                   allow_nan=False),
    },
)

axis_value = st.one_of(
    shape3,
    st.sampled_from(["v1", "f16", "q16", "gpu", "default", "diag", "none"]),
    st.integers(min_value=-2, max_value=600),
    st.booleans(),
    st.floats(min_value=-0.5, max_value=1.5, allow_nan=False),
    junk,
)

axes_dict = st.dictionaries(
    st.sampled_from(
        ["shape", "timesteps", "encoding", "backend", "workers", "quality",
         "decimate", "seeds_per_rake", "streamline_steps", "fault_profile",
         "rakes", "bogus_axis"]
    ),
    st.one_of(st.lists(axis_value, max_size=3), axis_value),
    max_size=3,
)

manifest_dict = st.fixed_dictionaries(
    {},
    optional={
        "name": st.one_of(st.text(max_size=8), junk),
        "base": st.one_of(
            st.dictionaries(
                st.sampled_from(
                    ["shape", "timesteps", "frames", "encoding", "quality",
                     "rakes", "fault_profile", "time_speed", "ghost"]
                ),
                st.one_of(axis_value, junk),
                max_size=4,
            ),
            junk,
        ),
        "axes": st.one_of(axes_dict, junk),
        "layouts": st.one_of(
            st.dictionaries(
                st.sampled_from(["diag", "pt", ""]),
                st.one_of(st.lists(rake_entry, max_size=2), junk),
                max_size=2,
            ),
            junk,
        ),
        "faults": st.one_of(
            st.dictionaries(
                st.sampled_from(["lossy", "none", "x"]),
                st.one_of(fault_entry, junk),
                max_size=2,
            ),
            junk,
        ),
        "extra_top_level": junk,
    },
)


# -- validation fuzz ----------------------------------------------------------


@FUZZ
@given(raw=st.one_of(manifest_dict, junk))
def test_from_dict_is_total(raw):
    """Any input: a consistent manifest or a ScenarioError naming a key."""
    try:
        manifest = SweepManifest.from_dict(raw)
    except ScenarioError as exc:
        assert isinstance(exc.key, str) and exc.key, "error must name a key"
        assert exc.key in str(exc)
        return
    scenarios = manifest.expand()
    ids = [s.scenario_id for s in scenarios]
    assert len(ids) == len(set(ids)), "expansion must dedup by identity"
    for s in scenarios:
        assert all(d >= 2 for d in s.shape)
        assert s.frames >= 1 and s.timesteps >= 1
        assert 0.0 < s.quality <= 1.0
        assert s.encoding in ("v1", "f16", "q16")
        assert len(s.rakes) >= 1
        # Expansion is pure: the same manifest expands identically twice.
    assert [s.scenario_id for s in manifest.expand()] == ids


@FUZZ
@given(
    a=point3,
    b=point3,
    seeds=st.integers(min_value=-2, max_value=8),
    kind=st.sampled_from(["streamline", "streakline", "particle_path",
                          "vortex"]),
)
def test_rake_validation_is_total(a, b, seeds, kind):
    """Degenerate rakes: in-range ones pass, others are named rejections."""
    raw = {
        "name": "r",
        "base": {"rakes": "l"},
        "layouts": {"l": [{"a": a, "b": b, "seeds": seeds, "kind": kind}]},
    }
    in_range = all(0.0 <= v <= 1.0 for v in a + b)
    valid = in_range and seeds >= 1 and kind != "vortex"
    try:
        manifest = SweepManifest.from_dict(raw)
    except ScenarioError as exc:
        assert not valid
        assert exc.key.startswith("layouts.l[0]")
        return
    assert valid
    (scenario,) = manifest.expand()
    assert scenario.rakes[0].seeds == seeds


def test_empty_axis_is_a_named_rejection():
    with pytest.raises(ScenarioError) as exc_info:
        SweepManifest.from_dict({"name": "t", "axes": {"encoding": []}})
    assert exc_info.value.key == "axes.encoding"


# -- execution fuzz -----------------------------------------------------------

#: Valid-by-construction scenarios at hostile corners, kept tiny so the
#: whole execution fuzz runs in seconds.
exec_manifest = st.fixed_dictionaries(
    {
        "shape": st.sampled_from([[2, 2, 2], [3, 5, 7], [7, 3, 2],
                                  [6, 6, 4]]),
        "timesteps": st.integers(min_value=1, max_value=3),
        "frames": st.integers(min_value=1, max_value=2),
        "encoding": st.sampled_from(["v1", "f16", "q16"]),
        "decimate": st.sampled_from([1, 2, 64]),
        "quality": st.sampled_from([1.0, 0.5, 0.05]),
        "seeds": st.sampled_from([1, 2]),
        "zero_length": st.booleans(),
        "kind": st.sampled_from(["streamline", "streakline",
                                 "particle_path"]),
        "faulty": st.booleans(),
    }
)


@settings(
    max_examples=30,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(params=exec_manifest)
def test_degenerate_scenarios_run_to_consistent_metrics(params):
    a = [0.5, 0.5, 0.5]
    b = a if params["zero_length"] else [0.9, 0.1, 0.8]
    raw = {
        "name": "exec-fuzz",
        "base": {
            "shape": params["shape"],
            "timesteps": params["timesteps"],
            "frames": params["frames"],
            "encoding": params["encoding"],
            "decimate": params["decimate"],
            "quality": params["quality"],
            "streamline_steps": 4,
            "streakline_length": 3,
            "rakes": "fz",
            "fault_profile": "f" if params["faulty"] else "none",
        },
        "layouts": {
            "fz": [{"a": a, "b": b, "seeds": params["seeds"],
                    "kind": params["kind"]}]
        },
        "faults": {"f": {"seed": 1, "drop_rate": 0.3, "corrupt_rate": 0.2,
                         "stall_rate": 0.2}},
    }
    (scenario,) = SweepManifest.from_dict(raw).expand()
    record = run_scenario(scenario)
    assert record["status"] == "ok"
    m = record["metrics"]
    for name in RUN_METRICS:
        assert name in m, name
    assert m["points_total"] >= 0
    assert m["bytes_per_frame"] > 0  # even an empty frame has wire framing
    assert m["frame_seconds_p50"] <= m["frame_seconds_p95"]
    assert m["wire_bytes_total"] >= m["delivered_bytes"]
    if not params["faulty"]:
        assert m["faults_injected"] == 0
