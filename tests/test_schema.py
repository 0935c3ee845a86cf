"""The parameter schema: every value, sweep axis and seed against one declared kind."""

import csv
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from capsim.cli import main
from capsim.config import (_DIMENSIONS, KINDS, _kinds, kind_errors, parse_config,
                           sanity_warnings, validate_raw)
from capsim.experiments import EXPERIMENTS
from capsim.runner import run_sweep
from capsim.units import strip_suffix
from helpers import table_bytes

GAMMA = {"gamma_2pi_MHz": 0.24}
_WVM = dict(GAMMA, omega_fsr_2pi_GHz=2.7, omega_a_2pi_THz=220, sigma0_over_aeff=0.1,
            c_over_vg=1.4, f_int=2000)
_BASE = {
    "longpulse_metrics": dict(GAMMA, c_in=10),
    "robustness": dict(GAMMA, c_in=100, sigma_t_ns=217.6, target="coupling_g", samples=8),
    "rate_tables": {"n_atoms": 200, "tau_shuttle_us": 100, "sigma_t_ns": 210, "p_success": 0.65},
    "crosstalk_scan": dict(GAMMA, c_in=10, delta_ratio=100),
    "source_characterize": dict(GAMMA, c_in=10, sigma_t_ns=663.15, kernel_points=41),
    "tm_spectrum": dict(_WVM, n_channels=2, delta=0.0),
    "protocol_eval": dict(GAMMA, c_in=100, sigma_t_ns=232, source="gaussian", protocol="type2"),
}


def _config(experiment, sweep=(), **parameters):
    return {"experiment": experiment, "seed": 1, "sweep": list(sweep),
            "parameters": dict(_BASE[experiment], **parameters), "output": {"path": "x.csv"}}


def _axis(name, start, stop, points, scale="lin"):
    return {"name": name, "start": start, "stop": stop, "points": points, "scale": scale}


def _suffixed(experiment, key, value):
    """experiment's base config with the unit-suffixed key in place of its parameter."""
    name = strip_suffix(key)[0]
    params = {k: v for k, v in _BASE[experiment].items() if strip_suffix(k)[0] != name}
    return dict(_config(experiment), parameters=dict(params, **{key: value}))


def test_every_kind_in_the_registry_is_known():
    for experiment, exp in EXPERIMENTS.items():
        for name, kind in {**exp.required, **exp.optional}.items():
            if isinstance(kind, tuple):  # an enum of strings
                assert kind and all(type(word) is str for word in kind), (experiment, name)
            else:
                assert kind in KINDS, (experiment, name, kind)


def test_every_dimensionful_parameter_is_a_number_of_the_registry():
    for name in _DIMENSIONS:
        kinds = [exp_kinds[name] for exp_kinds in map(_kinds, EXPERIMENTS) if name in exp_kinds]
        assert kinds and set(kinds) <= {"real", "positive", "nonneg", "coupling"}, name


def test_unknown_kind_fails_loudly():
    with pytest.raises(KeyError):
        kind_errors("parameters.x", "any", 1.0)


# Each config passed validation before every parameter and axis had a declared
# kind, and then ran wrong: rows computed at another value (n_atoms = 5.5 ran at
# 5), an error row, or a sweep lost to a TypeError.  Each is now a schema error.
_PINNED = {
    "c_in-true": (_config("longpulse_metrics", c_in=True), "parameters.c_in"),
    "r_m-string": (_config("longpulse_metrics", r_m="x"), "parameters.r_m"),
    "r_m-above-one": (_config("longpulse_metrics", r_m=2.0), "parameters.r_m"),
    "kappa_ex-string": (_config("longpulse_metrics", g=1e6, kappa_in=1e6, kappa_ex="abc"),
                        "parameters.kappa_ex"),
    "parameter-seed-string": (_config("robustness", seed="abc"), "parameters.seed"),
    "seed-negative": (dict(_config("robustness"), seed=-1), "seed"),
    "c_in-infinite": (_config("longpulse_metrics", c_in=float("inf")), "parameters.c_in"),
    "stop-1e309": (_config("longpulse_metrics", [_axis("c_in", 1, float("inf"), 2)]),
                   "sweep[0].stop"),
    "atom_state-7": (_config("tm_spectrum", atom_state=7), "parameters.atom_state"),
    "p_br-axis-to-2": (_config("source_characterize", [_axis("p_br", 0, 2, 2)]),
                       "sweep[0].stop"),
    "n_atoms-3-points-1-to-10": (_config("rate_tables", [_axis("n_atoms", 1, 10, 3)]),
                                 "sweep[0]"),
    "n_atoms-log-axis": (_config("rate_tables", [_axis("n_atoms", 1, 1000, 40, "log")]),
                         "sweep[0]"),
    "crosstalk-n_atoms-5.5": (_config("crosstalk_scan", [_axis("n_atoms", 1, 10, 3)]),
                              "sweep[0]"),
    "protocol-axis": (_config("protocol_eval", [_axis("protocol", 0, 1, 2)]), "sweep[0].start"),
    "samples_out-axis": (_config("robustness", [_axis("samples_out", 0, 1, 2)]),
                         "sweep[0].start"),
    # a unit suffix on a dimensionless name rescaled it: p_br_ms = 500 ran as p_br = 0.5
    "p_br_ms": (_config("source_characterize", p_br_ms=500), "parameters.p_br_ms"),
    "p_br_ms-axis": (_config("source_characterize", [_axis("p_br_ms", 0, 500, 2)]),
                     "sweep[0].name"),
    "atom_state_ms": (_config("tm_spectrum", atom_state_ms=1000), "parameters.atom_state_ms"),
    # a unit suffix of another dimension rescaled the value: c_in_2pi_MHz = 1.6e-5 ran as
    # c_in = 100.53, gamma_ns = 1.5e15 as gamma = 1.5e6 rad/s
    "c_in_2pi_MHz": (_suffixed("longpulse_metrics", "c_in_2pi_MHz", 1.6e-5),
                     "parameters.c_in_2pi_MHz"),
    "sigma_t_2pi_MHz": (_suffixed("robustness", "sigma_t_2pi_MHz", 3.5e-14),
                        "parameters.sigma_t_2pi_MHz"),
    "gamma_ns": (_suffixed("longpulse_metrics", "gamma_ns", 1.5e15), "parameters.gamma_ns"),
    "fwhm_ms": (_suffixed("robustness", "fwhm_ms", 100), "parameters.fwhm_ms"),
    "length_dev_us": (_suffixed("robustness", "length_dev_us", 1e5), "parameters.length_dev_us"),
    "tau_shuttle_2pi_kHz": (_suffixed("rate_tables", "tau_shuttle_2pi_kHz", 1),
                            "parameters.tau_shuttle_2pi_kHz"),
    "pulse_spacing_factor_ms": (_suffixed("rate_tables", "pulse_spacing_factor_ms", 5000),
                                "parameters.pulse_spacing_factor_ms"),
    "c_in_2pi_MHz-axis": (dict(_config("longpulse_metrics", [_axis("c_in_2pi_MHz", 1e-5, 2e-5, 2)]),
                               parameters=GAMMA), "sweep[0].name"),
    # parameter groups an experiment reads in place of each other (KeyError rows)
    "g-without-kappa_in": (_config("longpulse_metrics", g=1e6), "parameters.kappa_in"),
    "crosstalk-without-detuning": (dict(_config("crosstalk_scan"),
                                        parameters=dict(GAMMA, c_in=10, n_atoms=5)),
                                   "parameters.delta_a"),
}


@pytest.mark.parametrize("raw, where", list(_PINNED.values()), ids=list(_PINNED))
def test_configs_that_used_to_run_wrong_are_schema_errors(raw, where, tmp_path):
    errors = validate_raw(raw)
    assert errors and errors[0].split(":")[0] == where, errors
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert main(["run", str(path), "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "x.csv").exists()


def test_seed_override_is_checked_like_the_config_seed(tmp_path, capsys):
    path = tmp_path / "rob.json"
    path.write_text(json.dumps(_config("robustness", [_axis("fwhm", 0.0, 0.2, 3)])))
    assert main(["run", str(path), "--seed", "-1", "--out", str(tmp_path)]) == 2
    assert "schema error: seed: expected count" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()
    assert main(["run", str(path), "--seed", "3", "--out", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / "x.csv.meta.json").read_text())
    assert meta["seed"] == 3 and meta["failures"] == 0


# --------------------------------------------------------------------------
# property: validate_raw is total, and what it accepts runs
# --------------------------------------------------------------------------

# Counts are drawn only up to 1,000: the cost of a run grows with the counts
# it requests (atoms, channels, samples), which is requested work, not a
# hole in the schema.  Floats keep their full range.
_VALID = {
    "real": st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                      st.integers(-10**6, 10**6)),
    "positive": st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    "nonneg": st.floats(min_value=0.0, allow_infinity=False),
    "prob": st.one_of(st.floats(0.0, 1.0), st.sampled_from([0, 1])),
    "posint": st.integers(1, 1000),
    "count": st.one_of(st.integers(0, 1000), st.just(2**64)),
    "bit": st.sampled_from([0, 1, 0.0, 1.0]),
    "mirror": st.one_of(st.sampled_from(["matched", "unity"]),
                        st.floats(0.0, 1.0, exclude_min=True)),
    "coupling": st.one_of(st.just("matched"), st.floats(min_value=0.0, allow_infinity=False)),
    "str": st.text(max_size=6),
    "outfile": st.text(max_size=6),
}
_INVALID = st.one_of(
    st.booleans(), st.none(), st.text(max_size=6),
    st.sampled_from([float("inf"), -float("inf"), float("nan"), 2**1100, -2**1100, -1, 0.5,
                     1.5, -1e-300, 1e309, "matched", "unity", "lin", "log", "csv"]),
    st.floats(), st.integers(), st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))
_RUNNABLE = ("reflection_scan", "longpulse_metrics", "crosstalk_scan", "rate_tables",
             "tm_spectrum")
# Full-range floats reach range failures: a typed DomainError or ConvergenceError,
# or an overflow (OverflowError, or numpy's RuntimeWarning, an error in this suite)
# or division by zero in an intermediate, such as a mode number that rounds to 0.
_ALLOWED_ERRORS = ("DomainError", "ConvergenceError", "OverflowError", "ZeroDivisionError",
                   "RuntimeWarning")


@st.composite
def _configs(draw):
    experiment = draw(st.sampled_from(sorted(EXPERIMENTS)))
    exp = EXPERIMENTS[experiment]
    kinds = _kinds(experiment)
    bad = st.integers(0, 39).map(lambda k: k == 0)  # one draw in forty is invalid

    def value(kind):
        if draw(bad):
            return draw(_INVALID)
        return draw(st.sampled_from(kind) if isinstance(kind, tuple) else _VALID[kind])

    names = sorted(kinds)
    suffix = st.sampled_from([""] * 8 + ["_ns", "_2pi_MHz"])  # a unit, or an error
    params = {name + draw(suffix): value(kinds[name]) for name in names
              if draw(st.integers(0, 5)) or name in exp.required}
    axes = []
    for _ in range(draw(st.integers(0, 2))):
        name = draw(st.sampled_from(names + ["bogus"]))
        kind = kinds.get(name, "real")
        axis = {"name": name, "start": value(kind), "stop": value(kind),
                "points": draw(st.sampled_from([1, 1, 1, 2, 3, 10**9]) if not draw(bad)
                               else _INVALID),
                "scale": draw(st.sampled_from(["lin", "log"]) if not draw(bad) else _INVALID)}
        axes.append({k: v for k, v in axis.items() if not draw(bad)})  # a missing field
        params.pop(name, None)
    raw = {"experiment": experiment, "parameters": params, "sweep": axes,
           "seed": value("count"), "output": {"path": "x.csv"}}
    for key in ("experiment", "parameters", "sweep", "output"):  # bad container shapes
        if draw(bad):
            raw[key] = draw(st.one_of(_INVALID, st.lists(_INVALID, max_size=2)))
    if draw(bad):
        raw["output"] = {"path": value("str"), "format": draw(_INVALID)}
    return raw if not draw(bad) else draw(_INVALID)


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(raw=_configs())
def test_accepted_configs_run_without_type_errors(raw):
    errors = validate_raw(raw)  # never raises, whatever it is given
    assert isinstance(errors, list) and all(isinstance(e, str) for e in errors)
    if errors:
        with pytest.raises(ValueError):
            parse_config(raw)
        return
    config = parse_config(raw)
    kinds = _kinds(config.experiment)
    assert all(isinstance(w, str) for w in sanity_warnings(config))
    if config.experiment not in _RUNNABLE or config.grid_size() != 1:
        return
    point = config.point_parameters(0)
    if any(kinds[name] == "posint" and value > 1000 for name, value in point.items()):
        return  # an invalid draw can be a valid, huge count: requested work
    lines, columns, n_failures = run_sweep(config)
    table = csv.DictReader(io.StringIO(table_bytes(lines, columns).decode()))
    errors = [row["error"] for row in table]
    assert sum(map(bool, errors)) == n_failures
    for error in filter(None, errors):
        assert error.split(":")[0] in _ALLOWED_ERRORS, (raw, error)


# Log axes near the float maximum: geomspace's 10**log10(x) round trip
# overflows there.  The first is a falsifying example of the property test
# above (numpy's overflow warning); the second put inf inside its grid.
_NEAR_MAX = 1.7976931348622103e308
_LOG_AXES = {
    "longpulse-c_in-1-point": _config("longpulse_metrics",
                                      [_axis("c_in", _NEAR_MAX, 1.0, 1, "log")]),
    "rates-sigma_t-3-points": dict(
        _config("rate_tables", [_axis("sigma_t", _NEAR_MAX, _NEAR_MAX, 3, "log")]),
        parameters={"n_atoms": 200, "tau_shuttle_us": 100, "p_success": 0.65}),
}


@pytest.mark.parametrize("raw", list(_LOG_AXES.values()), ids=list(_LOG_AXES))
def test_log_axis_stays_within_its_endpoints(raw):
    config = parse_config(raw)
    (axis,) = config.sweep
    lo, hi = sorted((axis.start, axis.stop))
    assert all(lo <= v <= hi for v in axis.values)
    lines, columns, _ = run_sweep(config)
    table = csv.DictReader(io.StringIO(table_bytes(lines, columns).decode()))
    assert [float(row[axis.name]) for row in table] == axis.values.tolist()
