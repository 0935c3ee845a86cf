"""Scenario configs: JSON files with unit-suffixed keys.

A config names one experiment, its parameters, up to three sweep axes,
and the output location.  Dimensionful keys carry explicit unit suffixes
("gamma_2pi_MHz", "sigma_t_ns") that ingestion strips while rescaling to
base units (rad/s, s, m); see units.py for the suffix table.
"""

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError
from .experiments import EXPERIMENTS, check_value
from .units import normalize, strip_suffix

MAX_AXES = 3


@dataclass(frozen=True)
class SweepAxis:
    name: str
    start: float
    stop: float
    points: int
    scale: str = "lin"

    @cached_property
    def values(self):
        """The axis grid, built once per axis and read-only."""
        space = np.geomspace if self.scale == "log" else np.linspace
        grid = space(self.start, self.stop, self.points)
        grid.setflags(write=False)
        return grid


@dataclass(frozen=True)
class ScenarioConfig:
    experiment: str
    parameters: dict
    sweep: tuple
    output_path: str
    seed: int
    raw: dict = field(repr=False, default=None)

    def grid_shape(self):
        return tuple(axis.points for axis in self.sweep) if self.sweep else ()

    def grid_size(self):
        n = 1
        for axis in self.sweep:
            n *= axis.points
        return n

    def point_parameters(self, flat_index):
        """Parameter map for one sweep-grid point (row-major order)."""
        p = dict(self.parameters)
        remaining = flat_index
        shape = self.grid_shape()
        for axis_i in range(len(shape) - 1, -1, -1):
            axis = self.sweep[axis_i]
            idx = remaining % shape[axis_i]
            remaining //= shape[axis_i]
            p[axis.name] = float(axis.values[idx])
        return p

    def axis_names(self):
        return tuple(axis.name for axis in self.sweep)

    def config_hash(self):
        canon = json.dumps(self.raw, sort_keys=True).encode()
        return hashlib.sha256(canon).hexdigest()[:16]


def load_config(path):
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(raw)


def _reserved_names(exp_name):
    exp = EXPERIMENTS[exp_name]
    return frozenset(exp.required) | frozenset(exp.optional)


def parse_config(raw):
    errors = validate_raw(raw)
    if errors:
        raise ConfigError("; ".join(errors))
    reserved = _reserved_names(raw["experiment"])
    params = normalize(raw.get("parameters", {}), reserved)
    axes = []
    for ax in raw.get("sweep", []):
        name, factor = strip_suffix(ax["name"], reserved)
        axes.append(SweepAxis(name=name, start=ax["start"] * factor,
                              stop=ax["stop"] * factor, points=int(ax["points"]),
                              scale=ax.get("scale", "lin")))
    output = raw.get("output", {})
    return ScenarioConfig(experiment=raw["experiment"], parameters=params,
                          sweep=tuple(axes),
                          output_path=output.get("path", f"{raw['experiment']}.csv"),
                          seed=int(raw.get("seed", 0)), raw=raw)


def validate_raw(raw):
    """Schema errors for a raw config dict (empty list when valid)."""
    errors = []
    if not isinstance(raw, dict):
        return ["config must be a JSON object"]
    exp_name = raw.get("experiment")
    if exp_name not in EXPERIMENTS:
        errors.append(f"experiment: unknown value {exp_name!r}; choose one of "
                      + ", ".join(sorted(EXPERIMENTS)))
        return errors
    exp = EXPERIMENTS[exp_name]
    reserved = _reserved_names(exp_name)
    try:
        params = normalize(raw.get("parameters", {}), reserved)
    except ValueError as exc:
        return [f"parameters: {exc}"]
    axes = raw.get("sweep", [])
    if len(axes) > MAX_AXES:
        errors.append(f"sweep: at most {MAX_AXES} axes supported, got {len(axes)}")
    axis_names = []
    for i, ax in enumerate(axes):
        for key in ("name", "start", "stop", "points"):
            if key not in ax:
                errors.append(f"sweep[{i}].{key}: missing")
        if "name" in ax:
            axis_names.append(strip_suffix(ax["name"], reserved)[0])
        if ax.get("scale", "lin") not in ("lin", "log"):
            errors.append(f"sweep[{i}].scale: must be 'lin' or 'log'")
        if "points" in ax and (not float(ax["points"]).is_integer() or ax["points"] < 1):
            errors.append(f"sweep[{i}].points: must be a positive integer")
        if ax.get("scale") == "log" and ax.get("start", 1) * ax.get("stop", 1) <= 0:
            errors.append(f"sweep[{i}]: log scale needs nonzero same-sign bounds")
    output = raw.get("output", {})
    if output.get("format", "csv") != "csv":
        errors.append("output.format: only 'csv' tables are produced")
    known = set(exp.required) | set(exp.optional) | {"seed"}
    for name in exp.required:
        if name not in params and name not in axis_names:
            errors.append(f"parameters.{name}: required by {exp_name}")
    for name, value in params.items():
        if name not in known:
            errors.append(f"parameters.{name}: not recognized by {exp_name}")
            continue
        kind = exp.required.get(name, exp.optional.get(name, "any"))
        if not isinstance(value, str) or isinstance(kind, tuple):
            check_value(name, kind, value, errors)
    for name in axis_names:
        if name not in known:
            errors.append(f"sweep axis {name!r}: not recognized by {exp_name}")
    return errors


def sanity_warnings(config):
    """Physical sanity report for a parsed config (no execution)."""
    exp = EXPERIMENTS[config.experiment]
    if exp.sanity is None:
        return []
    p = dict(config.parameters)
    # evaluate at the first grid point so axis-supplied values participate
    if config.sweep:
        p = config.point_parameters(0)
    p.setdefault("seed", config.seed)
    try:
        return list(exp.sanity(p))
    except Exception as exc:  # a failed check is reported, never fatal
        return [f"sanity check {exp.sanity.__name__} failed: "
                f"{type(exc).__name__}: {exc}"]
