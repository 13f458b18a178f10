"""Unit tests for the sweep manifest layer (repro.sweep.manifest)."""

import json

import pytest

from repro.sweep import ScenarioError, SweepManifest, load_manifest
from repro.sweep.manifest import AXIS_KEYS, RakeSpec


def minimal(**over):
    raw = {"name": "t", "axes": {"encoding": ["v1", "q16"]}}
    raw.update(over)
    return raw


class TestExpansion:
    def test_cartesian_product(self):
        m = SweepManifest.from_dict(
            minimal(axes={"encoding": ["v1", "q16"], "decimate": [1, 2],
                          "timesteps": [2, 3]})
        )
        assert len(m.expand()) == 8

    def test_empty_axes_is_one_scenario(self):
        m = SweepManifest.from_dict({"name": "t"})
        scenarios = m.expand()
        assert len(scenarios) == 1
        assert scenarios[0].encoding == "v1"

    def test_base_overrides_defaults(self):
        m = SweepManifest.from_dict(minimal(base={"frames": 7, "decimate": 2}))
        for s in m.expand():
            assert s.frames == 7
            assert s.decimate == 2

    def test_duplicate_axis_values_collapse(self):
        m = SweepManifest.from_dict(minimal(axes={"encoding": ["v1", "v1"]}))
        assert len(m.expand()) == 1

    def test_axis_order_does_not_change_ids(self):
        a = SweepManifest.from_dict(
            minimal(axes={"encoding": ["v1", "q16"], "decimate": [2]})
        )
        b = SweepManifest.from_dict(
            minimal(axes={"decimate": [2], "encoding": ["q16", "v1"]})
        )
        assert {s.scenario_id for s in a.expand()} == {
            s.scenario_id for s in b.expand()
        }


class TestScenarioIdentity:
    def test_id_is_content_addressed(self):
        m = SweepManifest.from_dict(minimal())
        s1, s2 = m.expand()
        assert s1.scenario_id != s2.scenario_id
        again = SweepManifest.from_dict(minimal()).expand()
        assert [s.scenario_id for s in again] == [
            s.scenario_id for s in (s1, s2)
        ]

    def test_params_json_round_trip(self):
        (s,) = SweepManifest.from_dict({"name": "t"}).expand()
        blob = json.dumps(s.params(), sort_keys=True)
        assert json.loads(blob) == s.params()

    def test_label_mentions_faults_only_when_active(self):
        m = SweepManifest.from_dict(
            minimal(
                axes={"fault_profile": ["none", "bad"]},
                faults={"bad": {"drop_rate": 0.5}},
            )
        )
        labels = [s.label() for s in m.expand()]
        assert sum("faults:bad" in label for label in labels) == 1


class TestValidationErrors:
    """Every rejection is a ScenarioError naming the offending key."""

    @pytest.mark.parametrize(
        "raw, key",
        [
            ({"name": "", "axes": {}}, "name"),
            ({"bogus": 1}, "bogus"),
            ({"axes": {"nope": [1]}}, "axes.nope"),
            ({"axes": {"encoding": []}}, "axes.encoding"),
            ({"axes": {"encoding": "v1"}}, "axes.encoding"),
            ({"base": {"nope": 1}}, "base.nope"),
            ({"base": {"frames": 0}}, "base.frames"),
            ({"base": {"shape": [4, 4]}}, "base.shape"),
            ({"base": {"shape": [4, 4, 1]}}, "base.shape"),
            ({"base": {"shape": [4000, 4000, 4000]}}, "base.shape"),
            ({"base": {"backend": "gpu"}}, "base.backend"),
            ({"base": {"encoding": "v9"}}, "base.encoding"),
            ({"base": {"quality": 0.0}}, "base.quality"),
            ({"base": {"quality": 1.5}}, "base.quality"),
            ({"base": {"fused": 1}}, "base.fused"),
            ({"base": {"time_speed": 0}}, "base.time_speed"),
            ({"base": {"rakes": "ghost"}}, "base.rakes"),
            ({"base": {"fault_profile": "ghost"}}, "base.fault_profile"),
            ({"axes": {"timesteps": [2, -1]}}, "axes.timesteps[1]"),
            ({"layouts": {"l": []}}, "layouts.l"),
            ({"layouts": {"l": [{"a": [0, 0, 0]}]}}, "layouts.l[0].b"),
            (
                {"layouts": {"l": [{"a": [0, 0, 0], "b": [2, 0, 0]}]}},
                "layouts.l[0].b",
            ),
            (
                {"layouts": {"l": [{"a": [0, 0, 0], "b": [1, 1, 1],
                                    "seeds": 0}]}},
                "layouts.l[0].seeds",
            ),
            (
                {"layouts": {"l": [{"a": [0, 0, 0], "b": [1, 1, 1],
                                    "kind": "vortex"}]}},
                "layouts.l[0].kind",
            ),
            ({"faults": {"none": {}}}, "faults.none"),
            ({"faults": {"f": {"drop_rate": 2.0}}}, "faults.f.drop_rate"),
            ({"faults": {"f": {"bogus": 1}}}, "faults.f.bogus"),
            ({"faults": {"f": {"seed": "x"}}}, "faults.f.seed"),
            # A *valid* kernel name is just as unknown: the engine runs one.
            ({"axes": {"backend": ["vector"]}}, "axes.backend"),
            ({"base": {"workers": 2}}, "base.workers"),
        ],
    )
    def test_rejection_names_the_key(self, raw, key):
        raw.setdefault("name", "t")
        with pytest.raises(ScenarioError) as exc_info:
            SweepManifest.from_dict(raw)
        assert exc_info.value.key == key

    def test_grid_too_large_rejected(self):
        with pytest.raises(ScenarioError) as exc_info:
            SweepManifest.from_dict(
                {"name": "t", "axes": {"timesteps": list(range(1, 100)),
                                       "frames": None}}
            )
        # frames is not an axis key -> named rejection, not a blowup
        assert exc_info.value.key == "axes.frames"

    def test_scenario_cap_enforced(self):
        axes = {
            "timesteps": list(range(1, 17)),
            "seeds_per_rake": list(range(1, 17)),
            "streamline_steps": list(range(2, 19)),
        }
        with pytest.raises(ScenarioError) as exc_info:
            SweepManifest.from_dict({"name": "t", "axes": axes})
        assert exc_info.value.key == "axes"

    def test_bool_is_not_an_int(self):
        with pytest.raises(ScenarioError) as exc_info:
            SweepManifest.from_dict(minimal(base={"timesteps": True}))
        assert exc_info.value.key == "base.timesteps"


class TestDegenerateButLegal:
    def test_zero_length_rake_accepted(self):
        m = SweepManifest.from_dict(
            minimal(
                base={"rakes": "pt"},
                layouts={"pt": [{"a": [0.5, 0.5, 0.5], "b": [0.5, 0.5, 0.5],
                                 "seeds": 1}]},
            )
        )
        (spec,) = m.expand()[0].rakes
        assert spec.a == spec.b
        assert spec.seeds == 1

    def test_minimum_shape_accepted(self):
        m = SweepManifest.from_dict(minimal(base={"shape": [2, 2, 2]}))
        assert m.expand()[0].shape == (2, 2, 2)


class TestLoadManifest:
    def test_yaml_round_trip(self, tmp_path):
        pytest.importorskip("yaml")
        path = tmp_path / "m.yaml"
        path.write_text(
            "name: y\naxes:\n  encoding: [v1, f16]\n", encoding="utf-8"
        )
        m = load_manifest(path)
        assert len(m.expand()) == 2

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(
            json.dumps({"name": "j", "axes": {"decimate": [1, 2]}}),
            encoding="utf-8",
        )
        assert len(load_manifest(path).expand()) == 2

    def test_missing_file_is_scenario_error(self, tmp_path):
        with pytest.raises(ScenarioError) as exc_info:
            load_manifest(tmp_path / "ghost.yaml")
        assert exc_info.value.key == "manifest"

    def test_bad_json_is_scenario_error(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{nope", encoding="utf-8")
        with pytest.raises(ScenarioError, match="invalid JSON"):
            load_manifest(path)

    def test_bad_yaml_is_scenario_error(self, tmp_path):
        pytest.importorskip("yaml")
        path = tmp_path / "m.yaml"
        path.write_text("a: [unclosed", encoding="utf-8")
        with pytest.raises(ScenarioError, match="invalid YAML"):
            load_manifest(path)

    def test_example_smoke_manifest_expands_to_grid(self):
        pytest.importorskip("yaml")
        from pathlib import Path

        smoke = (Path(__file__).parent.parent / "examples" / "sweeps"
                 / "smoke.yaml")
        m = load_manifest(smoke)
        assert len(m.expand()) >= 8


class TestProvenance:
    def test_digest_tracks_content(self):
        a = SweepManifest.from_dict(minimal())
        b = SweepManifest.from_dict(minimal())
        c = SweepManifest.from_dict(minimal(base={"frames": 9}))
        assert a.digest == b.digest
        assert a.digest != c.digest

    def test_to_dict_omits_implicit_entries(self):
        m = SweepManifest.from_dict(minimal())
        d = m.to_dict()
        assert "none" not in d["faults"]
        assert d["axes"] == {"encoding": ["v1", "q16"]}

    def test_every_axis_key_has_a_default(self):
        from repro.sweep.manifest import _DEFAULTS

        for key in AXIS_KEYS:
            assert key in _DEFAULTS


def test_rakespec_to_dict_is_plain_data():
    spec = RakeSpec(a=(0.1, 0.2, 0.3), b=(0.9, 0.8, 0.7), seeds=5,
                    kind="streakline")
    assert spec.to_dict() == {
        "a": [0.1, 0.2, 0.3],
        "b": [0.9, 0.8, 0.7],
        "seeds": 5,
        "kind": "streakline",
    }
