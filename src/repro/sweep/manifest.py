"""Scenario manifests: the batch windtunnel's input language.

A manifest names a family of headless windtunnel runs: scalar ``base``
parameters, named rake ``layouts`` and fault ``faults`` profiles, and a
set of ``axes`` whose values expand into the cartesian grid of
:class:`Scenario` objects the sweep runner executes (docs/sweeps.md).
The idiom follows the FPGA windtunnel sketchpad's variant manifests
(SNIPPETS.md §1): knobs with legal ranges up front, expansion and
validation mechanical, so the scenario space is data, not code.

Every validation failure raises a typed :class:`ScenarioError` carrying
the dotted ``key`` of the offending entry (``axes.shape[1]``,
``layouts.diag[0].seeds``) — the contract the scenario-fuzz suite
enforces: degenerate manifests must be *named* rejections, never bare
tracebacks from deep inside the engine.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "AXIS_KEYS",
    "FaultProfile",
    "RakeSpec",
    "Scenario",
    "ScenarioError",
    "SweepManifest",
    "load_manifest",
]

#: Tool kinds a manifest rake may request (mirrors repro.tracers.rake).
_RAKE_KINDS = ("streamline", "streakline", "particle_path")

#: Wire encodings a scenario may measure (repro.core.framestore.ENCODINGS).
_ENCODINGS = ("v1", "f16", "q16")

#: Axis keys a manifest may sweep over, with (type, validator) semantics
#: implemented in :meth:`SweepManifest._coerce`.  Any other key under
#: ``axes`` is a ScenarioError — silent typos must not silently shrink
#: the grid.
AXIS_KEYS = (
    "shape",
    "timesteps",
    "rakes",
    "seeds_per_rake",
    "encoding",
    "decimate",
    "quality",
    "streamline_steps",
    "streakline_length",
    "fault_profile",
)

#: Scalar keys allowed under ``base`` (defaults for un-swept axes).
BASE_KEYS = AXIS_KEYS + ("frames", "time_speed")

_DEFAULTS = {
    "shape": (12, 12, 6),
    "timesteps": 4,
    "rakes": "default",
    "seeds_per_rake": 4,
    "encoding": "v1",
    "decimate": 1,
    "quality": 1.0,
    "streamline_steps": 16,
    "streakline_length": 8,
    "fault_profile": "none",
    "frames": 3,
    "time_speed": 4.0,
}

#: Grid-point ceiling per scenario: a manifest is a test-lane input, and
#: one fat axis value must not quietly ask for a gigabyte dataset.
MAX_GRID_POINTS = 2_000_000
#: Expansion ceiling: the cartesian product of the axes.
MAX_SCENARIOS = 4096


class ScenarioError(ValueError):
    """A manifest entry is invalid; ``key`` names the offending entry."""

    def __init__(self, key: str, message: str) -> None:
        super().__init__(f"{key}: {message}")
        self.key = key


def _require(cond: bool, key: str, message: str) -> None:
    if not cond:
        raise ScenarioError(key, message)


@dataclass(frozen=True)
class RakeSpec:
    """One rake of a layout, endpoints in *fractional* grid-bbox coords.

    Fractions keep a layout meaningful across every swept ``shape``: the
    runner maps ``a``/``b`` through the dataset's physical bounding box,
    so the same manifest line seeds every dataset in the grid.  A
    zero-length rake (``a == b``) is legal — all seeds coincide — as is
    ``seeds=1`` (the rake degenerates to its midpoint).
    """

    a: tuple[float, float, float]
    b: tuple[float, float, float]
    seeds: int
    kind: str

    def to_dict(self) -> dict:
        return {
            "a": list(self.a),
            "b": list(self.b),
            "seeds": self.seeds,
            "kind": self.kind,
        }


@dataclass(frozen=True)
class FaultProfile:
    """A named, seeded transport-fault schedule (repro.netsim.faults)."""

    name: str
    seed: int = 0
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    corrupt_rate: float = 0.0
    stall_rate: float = 0.0
    stall_seconds: float = 0.001

    @property
    def active(self) -> bool:
        return bool(
            self.drop_rate
            or self.duplicate_rate
            or self.corrupt_rate
            or self.stall_rate
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "drop_rate": self.drop_rate,
            "duplicate_rate": self.duplicate_rate,
            "corrupt_rate": self.corrupt_rate,
            "stall_rate": self.stall_rate,
            "stall_seconds": self.stall_seconds,
        }


#: The implicit no-fault profile every manifest gets for free.
NO_FAULTS = FaultProfile(name="none")

#: The implicit rake layout used when a manifest defines none.
_DEFAULT_LAYOUT = (
    RakeSpec(a=(0.2, 0.25, 0.3), b=(0.8, 0.25, 0.7), seeds=4, kind="streamline"),
    RakeSpec(a=(0.2, 0.75, 0.3), b=(0.8, 0.75, 0.7), seeds=4, kind="streamline"),
)


@dataclass(frozen=True)
class Scenario:
    """One fully-resolved headless run: every knob a concrete value.

    ``scenario_id`` (a content hash of :meth:`params`) is the scenario's
    identity in the results store — two sweeps of the same manifest
    produce runs under the same ids, which is what lets the comparison
    reporter join them without positional guessing.
    """

    name: str
    shape: tuple[int, int, int]
    timesteps: int
    rake_layout: str
    rakes: tuple[RakeSpec, ...]
    seeds_per_rake: int
    encoding: str
    decimate: int
    quality: float
    streamline_steps: int
    streakline_length: int
    fault_profile: FaultProfile = NO_FAULTS
    frames: int = 3
    time_speed: float = 4.0

    def params(self) -> dict:
        """Canonical plain-data form (the content-address input)."""
        return {
            "name": self.name,
            "shape": list(self.shape),
            "timesteps": self.timesteps,
            "rake_layout": self.rake_layout,
            "rakes": [r.to_dict() for r in self.rakes],
            "seeds_per_rake": self.seeds_per_rake,
            "encoding": self.encoding,
            "decimate": self.decimate,
            "quality": self.quality,
            "streamline_steps": self.streamline_steps,
            "streakline_length": self.streakline_length,
            "fault_profile": self.fault_profile.to_dict(),
            "frames": self.frames,
            "time_speed": self.time_speed,
        }

    @property
    def scenario_id(self) -> str:
        blob = json.dumps(self.params(), sort_keys=True).encode()
        return hashlib.blake2b(blob, digest_size=10).hexdigest()

    def label(self) -> str:
        """Human-readable one-liner for logs and reports."""
        ni, nj, nk = self.shape
        bits = [
            f"{ni}x{nj}x{nk}",
            self.rake_layout,
            self.encoding + (f"/d{self.decimate}" if self.decimate > 1 else ""),
        ]
        if self.quality < 1.0:
            bits.append(f"q{self.quality:g}")
        if self.fault_profile.active:
            bits.append(f"faults:{self.fault_profile.name}")
        return " ".join(bits)


@dataclass
class SweepManifest:
    """A validated manifest, ready to expand into scenarios."""

    name: str
    base: dict = field(default_factory=dict)
    axes: dict = field(default_factory=dict)
    layouts: dict = field(default_factory=dict)
    faults: dict = field(default_factory=dict)

    # -- construction --------------------------------------------------------

    @classmethod
    def from_dict(cls, raw) -> "SweepManifest":
        _require(isinstance(raw, dict), "manifest", "must be a mapping")
        unknown = set(raw) - {"name", "base", "axes", "layouts", "faults"}
        if unknown:
            raise ScenarioError(sorted(unknown)[0], "unknown top-level key")
        name = raw.get("name", "sweep")
        _require(
            isinstance(name, str) and name != "", "name", "must be a non-empty string"
        )

        layouts = cls._parse_layouts(raw.get("layouts", {}))
        faults = cls._parse_faults(raw.get("faults", {}))

        base = raw.get("base", {})
        _require(isinstance(base, dict), "base", "must be a mapping")
        for key in base:
            _require(key in BASE_KEYS, f"base.{key}", "unknown base key")
        axes = raw.get("axes", {})
        _require(isinstance(axes, dict), "axes", "must be a mapping")
        for key, values in axes.items():
            _require(key in AXIS_KEYS, f"axes.{key}", "unknown axis key")
            _require(
                isinstance(values, (list, tuple)), f"axes.{key}", "must be a list"
            )
            _require(len(values) > 0, f"axes.{key}", "axis has no values")

        manifest = cls(
            name=name, base=dict(base), axes=dict(axes),
            layouts=layouts, faults=faults,
        )
        manifest.expand()  # validate every grid point eagerly
        return manifest

    @staticmethod
    def _parse_layouts(raw) -> dict:
        _require(isinstance(raw, dict), "layouts", "must be a mapping")
        layouts: dict[str, tuple[RakeSpec, ...]] = {"default": _DEFAULT_LAYOUT}
        for lname, entries in raw.items():
            key = f"layouts.{lname}"
            _require(isinstance(lname, str), "layouts", "layout names must be strings")
            _require(isinstance(entries, (list, tuple)), key, "must be a list of rakes")
            _require(len(entries) > 0, key, "layout has no rakes")
            specs = []
            for i, entry in enumerate(entries):
                ekey = f"{key}[{i}]"
                _require(isinstance(entry, dict), ekey, "must be a mapping")
                unknown = set(entry) - {"a", "b", "seeds", "kind"}
                if unknown:
                    raise ScenarioError(
                        f"{ekey}.{sorted(unknown)[0]}", "unknown rake key"
                    )
                a = _fraction3(entry.get("a"), f"{ekey}.a")
                b = _fraction3(entry.get("b"), f"{ekey}.b")
                seeds = entry.get("seeds", 4)
                _require(
                    isinstance(seeds, int) and not isinstance(seeds, bool)
                    and seeds >= 1,
                    f"{ekey}.seeds",
                    "must be an integer >= 1",
                )
                _require(seeds <= 4096, f"{ekey}.seeds", "must be <= 4096")
                kind = entry.get("kind", "streamline")
                _require(
                    kind in _RAKE_KINDS,
                    f"{ekey}.kind",
                    f"must be one of {_RAKE_KINDS}",
                )
                specs.append(RakeSpec(a=a, b=b, seeds=seeds, kind=kind))
            layouts[lname] = tuple(specs)
        return layouts

    @staticmethod
    def _parse_faults(raw) -> dict:
        _require(isinstance(raw, dict), "faults", "must be a mapping")
        profiles: dict[str, FaultProfile] = {"none": NO_FAULTS}
        rate_keys = ("drop_rate", "duplicate_rate", "corrupt_rate", "stall_rate")
        for fname, entry in raw.items():
            key = f"faults.{fname}"
            _require(isinstance(fname, str), "faults", "profile names must be strings")
            _require(fname != "none", key, "'none' is reserved")
            _require(isinstance(entry, dict), key, "must be a mapping")
            unknown = set(entry) - {"seed", "stall_seconds", *rate_keys}
            if unknown:
                raise ScenarioError(
                    f"{key}.{sorted(unknown)[0]}", "unknown fault key"
                )
            seed = entry.get("seed", 0)
            _require(
                isinstance(seed, int) and not isinstance(seed, bool),
                f"{key}.seed", "must be an integer",
            )
            kwargs = {"name": fname, "seed": seed}
            for rk in rate_keys:
                rate = entry.get(rk, 0.0)
                _require(
                    isinstance(rate, (int, float)) and not isinstance(rate, bool)
                    and 0.0 <= float(rate) <= 1.0,
                    f"{key}.{rk}",
                    "must be a probability in [0, 1]",
                )
                kwargs[rk] = float(rate)
            stall = entry.get("stall_seconds", 0.001)
            _require(
                isinstance(stall, (int, float)) and not isinstance(stall, bool)
                and 0.0 <= float(stall) <= 1.0,
                f"{key}.stall_seconds",
                "must be in [0, 1] seconds",
            )
            kwargs["stall_seconds"] = float(stall)
            profiles[fname] = FaultProfile(**kwargs)
        return profiles

    # -- expansion -----------------------------------------------------------

    def _value(self, key: str):
        if key in self.axes:
            return None  # swept; resolved per grid point
        if key in self.base:
            return self.base[key]
        return _DEFAULTS[key]

    def expand(self) -> list[Scenario]:
        """The manifest's cartesian grid, validated scenario by scenario."""
        axis_names = [k for k in AXIS_KEYS if k in self.axes]
        axis_values = [list(self.axes[k]) for k in axis_names]
        n = 1
        for values in axis_values:
            n *= len(values)
        _require(
            n <= MAX_SCENARIOS, "axes", f"grid has {n} scenarios (max {MAX_SCENARIOS})"
        )
        scenarios = []
        seen: set[str] = set()
        for combo in itertools.product(*axis_values) if axis_names else [()]:
            point = {k: self._value(k) for k in BASE_KEYS}
            for key, value in zip(axis_names, combo):
                point[key] = value
            scenario = self._coerce(point, axis_names, combo)
            sid = scenario.scenario_id
            if sid in seen:
                continue  # duplicate axis values collapse to one run
            seen.add(sid)
            scenarios.append(scenario)
        return scenarios

    def _coerce(self, point: dict, axis_names: list, combo: tuple) -> Scenario:
        def keyof(k: str) -> str:
            if k in axis_names:
                return f"axes.{k}[{list(self.axes[k]).index(point[k])}]"
            if k in self.base:
                return f"base.{k}"
            return f"base.{k}"  # defaulted values validate under base.*

        shape = point["shape"]
        _require(
            isinstance(shape, (list, tuple)) and len(shape) == 3,
            keyof("shape"), "must be a [ni, nj, nk] triple",
        )
        dims = []
        for d in shape:
            _require(
                isinstance(d, int) and not isinstance(d, bool) and d >= 2,
                keyof("shape"), "grid dims must be integers >= 2",
            )
            dims.append(int(d))
        shape = tuple(dims)
        _require(
            shape[0] * shape[1] * shape[2] <= MAX_GRID_POINTS,
            keyof("shape"), f"grid exceeds {MAX_GRID_POINTS} points",
        )

        def pos_int(k: str, lo: int, hi: int) -> int:
            v = point[k]
            _require(
                isinstance(v, int) and not isinstance(v, bool) and lo <= v <= hi,
                keyof(k), f"must be an integer in [{lo}, {hi}]",
            )
            return int(v)

        timesteps = pos_int("timesteps", 1, 512)
        seeds_per_rake = pos_int("seeds_per_rake", 1, 4096)
        decimate = pos_int("decimate", 1, 64)
        streamline_steps = pos_int("streamline_steps", 2, 5000)
        streakline_length = pos_int("streakline_length", 2, 5000)
        frames = pos_int("frames", 1, 1000)

        layout = point["rakes"]
        if isinstance(layout, str):
            _require(
                layout in self.layouts,
                keyof("rakes"), f"unknown layout {layout!r}",
            )
            rakes = self.layouts[layout]
            layout_name = layout
        else:
            raise ScenarioError(
                keyof("rakes"), "must name a layout under `layouts`"
            )

        encoding = point["encoding"]
        _require(
            encoding in _ENCODINGS, keyof("encoding"), f"must be one of {_ENCODINGS}"
        )
        quality = point["quality"]
        _require(
            isinstance(quality, (int, float)) and not isinstance(quality, bool)
            and 0.0 < float(quality) <= 1.0,
            keyof("quality"), "must be in (0, 1]",
        )
        fault_name = point["fault_profile"]
        _require(
            isinstance(fault_name, str) and fault_name in self.faults,
            keyof("fault_profile"), f"unknown fault profile {fault_name!r}",
        )
        speed = point["time_speed"]
        _require(
            isinstance(speed, (int, float)) and not isinstance(speed, bool)
            and float(speed) > 0,
            keyof("time_speed"), "must be a positive number",
        )

        return Scenario(
            name=self.name,
            shape=shape,
            timesteps=timesteps,
            rake_layout=layout_name,
            rakes=rakes,
            seeds_per_rake=seeds_per_rake,
            encoding=encoding,
            decimate=decimate,
            quality=float(quality),
            streamline_steps=streamline_steps,
            streakline_length=streakline_length,
            fault_profile=self.faults[fault_name],
            frames=frames,
            time_speed=float(speed),
        )

    # -- provenance ----------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "base": dict(self.base),
            "axes": {k: list(v) for k, v in self.axes.items()},
            "layouts": {
                k: [r.to_dict() for r in v]
                for k, v in self.layouts.items()
                if k != "default" or v is not _DEFAULT_LAYOUT
            },
            "faults": {
                k: v.to_dict()
                for k, v in self.faults.items()
                if k != "none"
            },
        }

    @property
    def digest(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.blake2b(blob, digest_size=10).hexdigest()


def _fraction3(value, key: str) -> tuple[float, float, float]:
    _require(
        isinstance(value, (list, tuple)) and len(value) == 3,
        key, "must be an [x, y, z] triple of fractions",
    )
    out = []
    for v in value:
        _require(
            isinstance(v, (int, float)) and not isinstance(v, bool),
            key, "coordinates must be numbers",
        )
        v = float(v)
        _require(0.0 <= v <= 1.0, key, "fractional coordinates must be in [0, 1]")
        out.append(v)
    return tuple(out)


def load_manifest(path: str | Path) -> SweepManifest:
    """Parse a YAML or JSON manifest file into a validated manifest.

    YAML needs PyYAML; when it is absent a ``.yaml`` manifest raises a
    ScenarioError pointing at the file (JSON manifests always work).
    """
    path = Path(path)
    if not path.exists():
        raise ScenarioError("manifest", f"no such file: {path}")
    text = path.read_text(encoding="utf-8")
    if path.suffix.lower() == ".json":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError("manifest", f"invalid JSON: {exc}") from exc
    else:
        try:
            import yaml
        except ImportError as exc:  # pragma: no cover - image bundles pyyaml
            raise ScenarioError(
                "manifest", "PyYAML unavailable; use a .json manifest"
            ) from exc
        try:
            raw = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ScenarioError("manifest", f"invalid YAML: {exc}") from exc
    return SweepManifest.from_dict(raw)
