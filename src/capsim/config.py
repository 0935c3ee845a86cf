"""Scenario configs: JSON files with unit-suffixed keys.

A config names one experiment, its parameters, up to three sweep axes,
and the output location.  Dimensionful keys carry explicit unit suffixes
("gamma_2pi_MHz", "sigma_t_ns") that ingestion strips while rescaling to
base units (rad/s, s); see units.py for the suffix table.
"""

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

try:  # the interpreter's own SHA-256: hashlib would map OpenSSL's libcrypto (3.6 MB)
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:  # a CPython built without builtin hashes
        from hashlib import sha256

from .errors import ConfigError
from .experiments import EXPERIMENTS
from .units import DIMENSIONS, is_number, normalize, strip_suffix

MAX_AXES = 3


# What each kind accepts; a tuple kind, exactly its strings.  Ranges are intervals, so
# an axis's endpoints bound its grid; integer kinds also need lin, integral steps.
KINDS = {
    "real": ("a number", is_number),
    "positive": ("a number > 0", lambda v: is_number(v) and v > 0),
    "nonneg": ("a number >= 0", lambda v: is_number(v) and v >= 0),
    "prob": ("a number in [0, 1]", lambda v: is_number(v) and 0 <= v <= 1),
    "posint": ("an integer >= 1", lambda v: is_number(v) and v >= 1 and v % 1 == 0),
    "count": ("an integer >= 0", lambda v: is_number(v) and v >= 0 and v % 1 == 0),
    "bit": ("0 or 1", lambda v: is_number(v) and v in (0, 1)),
    "mirror": ("'matched', 'unity' or a number in (0, 1]",
               lambda v: v in ("matched", "unity") or is_number(v) and 0 < v <= 1),
    "coupling": ("'matched' or a number >= 0",
                 lambda v: v == "matched" or is_number(v) and v >= 0),
    "str": ("a string", lambda v: type(v) is str),
    "outfile": ("a file name, relative to the CSV's directory", lambda v: type(v) is str),
}
INTEGER_KINDS = ("posint", "count", "bit")
# the dimension of each parameter that takes a unit suffix (units.DIMENSIONS names a suffix's)
_DIMENSIONS = {**dict.fromkeys(("gamma", "g", "kappa_in", "kappa_ex", "delta", "delta_a",
                                "omega_fsr", "omega_a", "r_dark"), "a rate"),
               **dict.fromkeys(("sigma_t", "tau_shuttle"), "a time")}
_AXIS_KINDS = {"name": "str", "start": "real", "stop": "real", "points": "posint",
               "scale": ("lin", "log")}


def kind_errors(where, kind, value):
    """[] if value is of this kind, else its one schema error; an unknown kind raises KeyError."""
    if isinstance(kind, tuple):
        expected, ok = "one of " + ", ".join(kind), type(value) is str and value in kind
    else:
        expected, ok = f"{kind} ({KINDS[kind][0]})", KINDS[kind][1](value)
    return [] if ok else [f"{where}: expected {expected}, got {value!r}"]


@dataclass(frozen=True)
class SweepAxis:
    name: str
    start: float
    stop: float
    points: int
    scale: str = "lin"

    @cached_property
    def values(self):
        """The axis grid, built once per axis and read-only, within its endpoints."""
        import numpy as np  # only a run builds a grid; validation stays numpy-free

        if self.scale == "log":  # geomspace's 10**log10(x) can round past the float maximum
            with np.errstate(over="ignore"):
                grid = np.clip(np.geomspace(self.start, self.stop, self.points),
                               *sorted((self.start, self.stop)))
        else:
            grid = np.linspace(self.start, self.stop, self.points)
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
        return math.prod(self.grid_shape())

    def point_parameters(self, flat_index):
        """Parameter map for one sweep-grid point (row-major order)."""
        p = dict(self.parameters)
        for axis in reversed(self.sweep):  # the last axis varies fastest
            flat_index, idx = divmod(flat_index, axis.points)
            p[axis.name] = float(axis.values[idx])
        return p

    def axis_names(self):
        return tuple(axis.name for axis in self.sweep)

    def config_hash(self):
        """SHA-256 of the canonical config JSON, first 16 hex digits."""
        canon = json.dumps(self.raw, sort_keys=True).encode()
        return sha256(canon).hexdigest()[:16]


def _kinds(exp_name):
    """Each parameter's kind; every experiment takes a seed."""
    exp = EXPERIMENTS[exp_name]
    return {"seed": "count", **exp.required, **exp.optional}


def parse_config(raw):
    errors = validate_raw(raw)
    if errors:
        raise ConfigError("; ".join(errors))
    params = normalize(raw.get("parameters", {}))
    axes = []
    for ax in raw.get("sweep", []):
        name, factor = strip_suffix(ax["name"])
        axes.append(SweepAxis(name=name, start=ax["start"] * factor,
                              stop=ax["stop"] * factor, points=int(ax["points"]),
                              scale=ax.get("scale", "lin")))
    output = raw.get("output", {})
    return ScenarioConfig(experiment=raw["experiment"], parameters=params,
                          sweep=tuple(axes),
                          output_path=output.get("path", f"{raw['experiment']}.csv"),
                          seed=int(raw.get("seed", 0)), raw=raw)


def _suffix_errors(where, key, kinds):
    """The schema error of a unit suffix on key whose dimension is not its parameter's."""
    name = strip_suffix(key)[0]
    unit, dimension = key[len(name):], _DIMENSIONS.get(name, "dimensionless")
    if name != key and name in kinds and DIMENSIONS[unit] != dimension:
        return [f"{where}: {unit} is {DIMENSIONS[unit]} suffix, but {name} is {dimension}"]
    return []


def _swept_errors(where, name, kind, ax, factor):
    """Schema errors of a well-formed axis over a parameter of this kind."""
    start, stop, log = ax["start"] * factor, ax["stop"] * factor, ax["scale"] == "log"
    errors = kind_errors(f"{where}.start", kind, start) + kind_errors(f"{where}.stop", kind, stop)
    if log and not (min(start, stop) > 0 or max(start, stop) < 0):
        errors.append(f"{where}: log scale needs nonzero same-sign bounds")
    if not errors and not is_number(stop - start):  # linspace's step would overflow
        errors.append(f"{where}: stop - start lies beyond the float range")
    integral = not log and (ax["points"] == 1 or (stop - start) % (ax["points"] - 1) == 0)
    if not errors and kind in INTEGER_KINDS and not integral:
        errors.append(f"{where}: {name} takes integers, so needs a lin axis with an integral step")
    return errors


def validate_raw(raw):
    """Schema errors for a raw config dict (empty list when valid): each value
    against its kind, a swept parameter's on the axis's unit-scaled endpoints."""
    if not isinstance(raw, dict):
        return ["config must be a JSON object"]
    exp_name = raw.get("experiment")
    if not isinstance(exp_name, str) or exp_name not in EXPERIMENTS:
        return [f"experiment: unknown value {exp_name!r}; choose one of "
                + ", ".join(sorted(EXPERIMENTS))]
    exp, kinds = EXPERIMENTS[exp_name], _kinds(exp_name)
    errors = kind_errors("seed", "count", raw.get("seed", 0))
    output, axes = raw.get("output", {}), raw.get("sweep", [])
    if not isinstance(output, dict):
        errors.append("output: must be a JSON object")
    else:
        errors += (kind_errors("output.path", "str", output.get("path", ""))
                   + kind_errors("output.format", ("csv",), output.get("format", "csv")))
    if not isinstance(axes, list):
        errors.append("sweep: must be a JSON array")
        axes = []
    elif len(axes) > MAX_AXES:
        errors.append(f"sweep: at most {MAX_AXES} axes supported, got {len(axes)}")
    parameters = raw.get("parameters", {})
    if not isinstance(parameters, dict):
        return errors + ["parameters: must be a JSON object"]
    try:
        params = normalize(parameters)
    except ValueError as exc:
        return errors + [f"parameters: {exc}"]
    for i, ax in enumerate(axes):
        where = f"sweep[{i}]"
        if not isinstance(ax, dict):
            errors.append(f"{where}: must be a JSON object")
            continue
        ax = {"scale": "lin", **ax}
        bad = [e for key, kind in _AXIS_KINDS.items()
               for e in (kind_errors(f"{where}.{key}", kind, ax[key]) if key in ax
                         else [f"{where}.{key}: missing"])]
        errors += bad
        if not bad:
            name, factor = strip_suffix(ax["name"])
            errors += (_swept_errors(where, name, kinds[name], ax, factor) if name in kinds
                       else [f"sweep axis {name!r}: not recognized by {exp_name}"])
            errors += _suffix_errors(f"{where}.name", ax["name"], kinds)
    given = set(params) | {strip_suffix(ax["name"])[0] for ax in axes
                           if isinstance(ax, dict) and type(ax.get("name")) is str}
    alts = exp.alternatives
    chosen = next((alt for alt in alts if alt[0] in given), alts[-1] if alts else ())
    errors += [f"parameters.{name}: required by {exp_name}"
               for name in (*exp.required, *chosen) if name not in given]
    for key in parameters:
        errors += _suffix_errors(f"parameters.{key}", key, kinds)
    for name, value in params.items():
        errors += (kind_errors(f"parameters.{name}", kinds[name], value) if name in kinds
                   else [f"parameters.{name}: not recognized by {exp_name}"])
    return errors


def sanity_warnings(config):
    """Physical sanity report for a parsed config (no execution)."""
    exp = EXPERIMENTS[config.experiment]
    if exp.sanity is None:
        return []
    # the first grid point, where every axis is at its start: the grid is
    # not built, so a sweep of any size is checked in constant memory
    p = dict(config.parameters, **{axis.name: float(axis.start) for axis in config.sweep})
    p.setdefault("seed", config.seed)
    try:
        return list(exp.sanity(p))
    except Exception as exc:  # a failed check is reported, never fatal
        return [f"sanity check {exp.sanity.__name__} failed: "
                f"{type(exc).__name__}: {exc}"]
