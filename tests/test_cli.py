import csv
import dataclasses
import hashlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import capsim
from capsim import gate, runner
from capsim.cli import _recipe_names, _resolve_config, main
from capsim.config import parse_config, sanity_warnings, validate_raw
from capsim.errors import ConvergenceError
from capsim.experiments import EXPERIMENTS
from capsim.runner import _peak_rss_mb, run_sweep, write_outputs
from capsim.units import _SUFFIXES, normalize, strip_suffix
from helpers import table_bytes

GAMMA_KEY = {"gamma_2pi_MHz": 0.24}


def _write(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


def _robustness_config(samples=40):
    return {
        "experiment": "robustness",
        "seed": 5,
        "parameters": dict(GAMMA_KEY, c_in=100, sigma_t_ns=217.6,
                           target="coupling_g", samples=samples),
        "sweep": [{"name": "fwhm", "start": 0.0, "stop": 0.2, "points": 3,
                   "scale": "lin"}],
        "output": {"path": "rob.csv"},
    }


# --------------------------------------------------------------------------
# units and schema
# --------------------------------------------------------------------------

def test_unit_suffix_conversion():
    out = normalize({"gamma_2pi_MHz": 0.24, "sigma_t_ns": 210, "plain": 3})
    assert out["gamma"] == pytest.approx(2 * math.pi * 0.24e6)
    assert out["sigma_t"] == pytest.approx(210e-9)
    assert out["plain"] == 3


def test_no_parameter_name_ends_in_a_unit_suffix():
    # so every parameter passes through strip_suffix unscaled ("r_m" among them)
    for exp in EXPERIMENTS.values():
        for name in ("seed", *exp.required, *exp.optional):
            assert strip_suffix(name) == (name, 1.0), name
    assert strip_suffix("tau_shuttle_us")[0] == "tau_shuttle"


def test_reserved_names_not_stripped():
    # "r_m" is a mirror reflectivity, not r in metres
    assert strip_suffix("r_m") == ("r_m", 1.0)
    assert strip_suffix("tau_shuttle_us")[0] == "tau_shuttle"


# bases without "_" cannot end in part of a suffix such as "_rad_s"
_BASE = st.from_regex(r"[a-z][a-z0-9]{0,11}", fullmatch=True)
_SUFFIX = st.sampled_from(sorted(_SUFFIXES))
_NUMBER = st.one_of(st.integers(-10**15, 10**15),
                    st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=200, deadline=None)
@given(base=_BASE, suf=_SUFFIX, value=_NUMBER)
def test_every_suffix_round_trips(base, suf, value):
    assert normalize({base + suf: value}) == {base: value * _SUFFIXES[suf]}


_NESTED = [(short, long) for short in _SUFFIXES for long in _SUFFIXES
           if long != short and long.endswith(short)]


@settings(max_examples=100, deadline=None)
@given(base=_BASE, pair=st.sampled_from(_NESTED), value=_NUMBER)
def test_longest_suffix_wins(base, pair, value):
    # "x_rad_s" strips "_rad_s", never "_s" leaving base "x_rad"
    _, long = pair
    assert normalize({base + long: value}) == {base: value * _SUFFIXES[long]}
    assert normalize({base + "_ms": value}) == {base: value * 1e-3}


@settings(max_examples=100, deadline=None)
@given(value=_NUMBER)
def test_reserved_keys_pass_through_unscaled(value):
    names = {name for exp in EXPERIMENTS.values()
             for name in (*exp.required, *exp.optional)}
    assert "r_m" in names
    assert normalize(dict.fromkeys(names, value)) == dict.fromkeys(names, value)
    assert normalize({"r_m": value, "tau_shuttle_us": value}) == {
        "r_m": value, "tau_shuttle": value * 1e-6}


@settings(max_examples=100, deadline=None)
@given(base=_BASE, sufs=st.lists(_SUFFIX, min_size=2, max_size=2, unique=True),
       bare=st.booleans())
def test_keys_collapsing_onto_one_base_rejected(base, sufs, bare):
    keys = [base, base + sufs[0]] if bare else [base + s for s in sufs]
    with pytest.raises(ValueError, match="duplicate parameter"):
        normalize(dict.fromkeys(keys, 1.0))


@settings(max_examples=100, deadline=None)
@given(base=_BASE, suf=_SUFFIX, value=st.one_of(st.booleans(), st.text(max_size=8)))
def test_bools_and_strings_untouched(base, suf, value):
    assert normalize({base + suf: value}) == {base: value}
    assert normalize({base + suf: value})[base] is value


_PROTOCOL_PARAMS = dict(GAMMA_KEY, c_in=100, sigma_t_ns=217.6, protocol="type2")
# (config, offending key, values its error must list)
_BAD_ENUMS = [
    ({"experiment": "not_a_thing"}, "experiment", ("bandwidth_scan", "protocol_eval")),
    ({"experiment": "protocol_eval", "parameters": dict(_PROTOCOL_PARAMS, protocol="typ2")},
     "parameters.protocol", ("memory_load", "type2", "type2_pair", "type3", "type1")),
    ({"experiment": "protocol_eval", "parameters": dict(_PROTOCOL_PARAMS, source="gausian")},
     "parameters.source", ("cavity", "gaussian")),
    ({"experiment": "source_characterize",
      "parameters": dict(GAMMA_KEY, c_in=10, sigma_t_ns=217.6, level_scheme="lambda")},
     "parameters.level_scheme", ("lambda_3lvl", "entangler_4lvl")),
    ({"experiment": "robustness",
      "parameters": dict(GAMMA_KEY, c_in=100, sigma_t_ns=217.6, target="couplng_g")},
     "parameters.target", ("coupling_g", "cavity_freq", "length")),
    # a string is checked against its kind like any other value
    ({"experiment": "bandwidth_scan", "parameters": dict(GAMMA_KEY, c_in=10, sigma_t_ns="abc")},
     "parameters.sigma_t", ("positive", "'abc'")),
]


def test_invalid_enum_named_in_error(tmp_path):
    for raw, key, allowed in _BAD_ENUMS:
        cfg = _write(tmp_path, "bad.json", raw)
        code = main(["run", cfg])
        assert code == 2
        errors = validate_raw(raw)
        assert len(errors) == 1 and errors[0].startswith(key + ":")
        assert all(value in errors[0] for value in allowed)


def test_unknown_parameter_named_in_error():
    raw = {"experiment": "rate_tables",
           "parameters": {"n_atoms": 10, "tau_shuttle_us": 1, "sigma_t_ns": 10,
                          "p_success": 0.5, "bogus_knob": 1}}
    errors = validate_raw(raw)
    assert any("parameters.bogus_knob" in e for e in errors)


def test_grid_knobs_accepted_only_by_protocol_eval():
    # no experiment takes a mode-grid knob: the gate and the Gaussian
    # protocols are exact, and a kernel's spectral grid follows its time grid
    for name in EXPERIMENTS:
        for knob, value in (("n_points", 4097), ("grid_span", 10.0)):
            errors = validate_raw({"experiment": name, "parameters": {knob: value}})
            assert f"parameters.{knob}: not recognized by {name}" in errors
    params = dict(GAMMA_KEY, c_in=100, sigma_t_ns=217.6, protocol="type2")
    assert validate_raw({"experiment": "protocol_eval", "seed": 1,
                         "parameters": params}) == []
    # the source model lives on its single-excitation basis: no Fock cutoff
    errors = validate_raw({"experiment": "source_characterize",
                           "parameters": dict(GAMMA_KEY, c_in=10, sigma_t_ns=217.6,
                                              fock_cutoff=2)})
    assert errors == ["parameters.fock_cutoff: not recognized by source_characterize"]


def test_negative_rate_field_error():
    raw = {"experiment": "rate_tables",
           "parameters": {"n_atoms": 10, "tau_shuttle_us": 1, "sigma_t_ns": 10,
                          "p_success": 0.5, "r_dark_per_s": -2}}
    errors = validate_raw(raw)
    assert any("parameters.r_dark" in e for e in errors)


def test_missing_required_parameter():
    errors = validate_raw({"experiment": "crosstalk_scan",
                           "parameters": dict(GAMMA_KEY, c_in=10)})
    assert any("parameters.n_atoms" in e for e in errors)


def test_too_many_axes_rejected():
    axes = [{"name": f"a{i}", "start": 0, "stop": 1, "points": 2} for i in range(4)]
    errors = validate_raw({"experiment": "rate_tables", "sweep": axes,
                           "parameters": {}})
    assert any("sweep" in e for e in errors)


@pytest.mark.parametrize("key, value", [("points", "3"), ("points", None), ("points", True),
                                        ("start", "a"), ("stop", None), ("stop", False)])
def test_malformed_sweep_axis_is_a_schema_error(key, value, tmp_path, capsys):
    # a bool is not a number here, although JSON true parses to a subclass of int
    axis = {"name": "delta_2pi_GHz", "start": -4.0, "stop": 4.0, "points": 3, key: value}
    raw = {"experiment": "tm_spectrum", "parameters": dict(_WVM_PARAMETERS, n_channels=3),
           "sweep": [axis], "output": {"path": "bad.csv"}}
    cfg = _write(tmp_path, "bad.json", raw)
    assert main(["validate", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "invalid"
    assert [e.split(":")[0] for e in report["errors"]] == [f"sweep[0].{key}"]
    assert main(["run", cfg, "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "bad.csv").exists()


_RATES_CONFIG = {"experiment": "rate_tables", "seed": 1,
                 "parameters": {"n_atoms": 200, "tau_shuttle_us": 100,
                                "sigma_t_ns": 210, "p_success": 0.65},
                 "output": {"path": "bad.csv"}}


@pytest.mark.parametrize("change, where", [
    ({"sweep": 5}, "sweep"),
    ({"sweep": [5]}, "sweep[0]"),
    ({"sweep": "ab"}, "sweep"),
    ({"parameters": []}, "parameters"),
    ({"output": "x.csv"}, "output"),
    ({"sweep": [{"name": 3, "start": 1, "stop": 2, "points": 2}]}, "sweep[0].name"),
    ({"seed": "a"}, "seed"),
    ({"experiment": ["rate_tables"]}, "experiment"),
    ({"output": {"path": 3}}, "output.path"),
], ids=["sweep-int", "axis-int", "sweep-str", "parameters-list", "output-str",
        "axis-name-int", "seed-str", "experiment-list", "output-path-int"])
def test_malformed_container_is_a_schema_error(change, where, tmp_path, capsys):
    cfg = _write(tmp_path, "bad.json", dict(_RATES_CONFIG, **change))
    assert main(["validate", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "invalid"
    assert [e.split(":")[0] for e in report["errors"]] == [where]
    assert main(["run", cfg, "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "bad.csv").exists()


def test_well_formed_config_validates_clean(tmp_path):
    cfg = {"experiment": "rate_tables", "seed": 1,
           "parameters": {"n_atoms": 200, "tau_shuttle_us": 100,
                          "sigma_t_ns": 210, "p_success": 0.65}}
    assert validate_raw(cfg) == []
    assert sanity_warnings(parse_config(cfg)) == []


def test_short_pulse_triggers_bandwidth_warning():
    cfg = {"experiment": "bandwidth_scan", "seed": 1,
           "parameters": dict(GAMMA_KEY, c_in=100, sigma_t_ns=50.0)}
    warnings = sanity_warnings(parse_config(cfg))
    assert any("minimum-pulse-width" in w for w in warnings)


@pytest.mark.parametrize("scale", ["lin", "log"])
def test_sanity_check_builds_no_sweep_grid(scale):
    def config(points):
        return parse_config({"experiment": "bandwidth_scan", "seed": 1,
                             "parameters": dict(GAMMA_KEY, c_in=100),
                             "sweep": [{"name": "sigma_t_ns", "start": 50.0, "stop": 500.0,
                                        "points": points, "scale": scale}]})

    huge = config(10**6)
    found = sanity_warnings(huge)
    assert "values" not in vars(huge.sweep[0])  # the grid was never built
    assert any("minimum-pulse-width" in w for w in found)
    # the check reads the axis start, which is the grid's first point
    assert config(3).point_parameters(0)["sigma_t"] == huge.sweep[0].start


def test_failing_sanity_check_becomes_warning(monkeypatch):
    exp = EXPERIMENTS["bandwidth_scan"]

    def broken(p):
        raise ValueError("boom")

    monkeypatch.setitem(EXPERIMENTS, "bandwidth_scan", dataclasses.replace(exp, sanity=broken))
    cfg = {"experiment": "bandwidth_scan", "seed": 1,
           "parameters": dict(GAMMA_KEY, c_in=100, sigma_t_ns=500.0)}
    assert sanity_warnings(parse_config(cfg)) == ["sanity check broken failed: ValueError: boom"]


def test_failing_pulse_width_check_becomes_warning(monkeypatch):
    def no_floor(*args, **kwargs):
        raise ConvergenceError("no pulse width")

    monkeypatch.setattr(gate, "min_sigma_t", no_floor)  # the sanity check reads it at call time
    cfg = {"experiment": "bandwidth_scan", "seed": 1,
           "parameters": dict(GAMMA_KEY, c_in=100, sigma_t_ns=500.0)}
    warnings = sanity_warnings(parse_config(cfg))
    assert warnings == ["parameters.sigma_t: minimum-pulse-width check failed: "
                        "ConvergenceError: no pulse width"]


# --------------------------------------------------------------------------
# execution
# --------------------------------------------------------------------------

def test_every_experiment_has_one_entry_point_and_schema():
    assert len(EXPERIMENTS) == 10
    for name, exp in EXPERIMENTS.items():
        assert callable(exp.fn)
        assert exp.columns
        assert set(exp.required).isdisjoint(set(exp.optional))
        if exp.array_param is not None:
            assert exp.array_param in set(exp.required) | set(exp.optional), name
    assert EXPERIMENTS["tm_spectrum"].array_param == "delta"


def test_run_produces_expected_table(tmp_path):
    cfg = {"experiment": "longpulse_metrics", "seed": 1,
           "parameters": dict(GAMMA_KEY, r_m="matched"),
           "sweep": [{"name": "c_in", "start": 1, "stop": 100, "points": 3,
                      "scale": "log"}],
           "output": {"path": str(tmp_path / "lp.csv")}}
    path = _write(tmp_path, "lp.json", cfg)
    assert main(["run", path]) == 0
    lines = (tmp_path / "lp.csv").read_text().splitlines()
    assert lines[0].startswith("c_in,f_c,infidelity")
    assert len(lines) == 4
    meta = json.loads((tmp_path / "lp.csv.meta.json").read_text())
    assert meta["rows"] == 3 and meta["failures"] == 0
    assert meta["sweep_s"] > 0.0 and meta["write_s"] > 0.0
    # read in this process after the run, so the run's peak cannot exceed it
    assert 0.0 < meta["peak_rss_mb"] <= _peak_rss_mb()
    from capsim.cavity import r_opt

    last = lines[3].split(",")
    assert float(last[0]) == pytest.approx(100.0)
    assert float(last[6]) == pytest.approx(r_opt(100) ** 2, abs=1e-12)


def test_numeric_failures_recorded_as_rows(tmp_path):
    # kappa_ex == kappa_in poles the delay calculation inside matched optics
    cfg = {"experiment": "bandwidth_scan", "seed": 1,
           "parameters": dict(GAMMA_KEY, g=1.0e6, kappa_in=1.0e6,
                              kappa_ex=1.0e6, sigma_t_ns=500.0),
           "output": {"path": str(tmp_path / "fail.csv")}}
    path = _write(tmp_path, "fail.json", cfg)
    assert main(["run", path]) == 3
    lines = (tmp_path / "fail.csv").read_text().splitlines()
    assert len(lines) == 2
    assert "DomainError" in lines[1]


def test_group_delay_overflow_becomes_domain_error_row(tmp_path):
    # g**4 of the delay-matched rates at C_in = 1e160 overflows a Python float
    cfg = {"experiment": "bandwidth_scan",
           "parameters": dict(GAMMA_KEY, c_in=1e160, sigma_t_ns=500.0),
           "output": {"path": str(tmp_path / "delays.csv")}}
    assert main(["run", _write(tmp_path, "delays.json", cfg)]) == 3
    row = next(csv.DictReader(open(tmp_path / "delays.csv")))
    assert row["error"].startswith("DomainError: group delay overflows for cavity rates g = ")


@pytest.mark.parametrize("delta_a", [1e-300, -1e-300, 5e-324])
def test_crosstalk_approximation_overflow_becomes_domain_error_row(delta_a, tmp_path):
    # (n_atoms gamma / delta_a)**2 raises OverflowError at 1e-300; at 5e-324
    # the ratio itself is already infinite
    cfg = {"experiment": "crosstalk_scan",
           "parameters": dict(GAMMA_KEY, c_in=10.0, n_atoms=2, delta_a=delta_a),
           "output": {"path": str(tmp_path / "approx.csv")}}
    assert main(["run", _write(tmp_path, "approx.json", cfg)]) == 3
    row = next(csv.DictReader(open(tmp_path / "approx.csv")))
    assert row["error"] == (f"DomainError: delta_a = {delta_a!r} is too small: "
                            "the large-detuning infidelity overflows")


def test_longpulse_metrics_needs_no_group_delay(tmp_path):
    # at kappa_ex == kappa_in the uncoupled group delay has a pole; the long-pulse
    # metrics read only the mirror reflectivity, so the point is no error row
    cfg = {"experiment": "longpulse_metrics",
           "parameters": dict(GAMMA_KEY, g_2pi_MHz=10.0, kappa_in_2pi_MHz=5.0,
                              kappa_ex_2pi_MHz=5.0, r_m="unity"),
           "output": {"path": str(tmp_path / "lp.csv")}}
    assert main(["run", _write(tmp_path, "lp.json", cfg)]) == 0
    row = next(csv.DictReader(open(tmp_path / "lp.csv")))
    assert row["error"] == ""
    assert float(row["f_c"]) == pytest.approx(0.7999256090756928, rel=1e-12)
    assert float(row["p_success"]) == pytest.approx(0.7384185791015625, rel=1e-12)
    assert float(row["p_conventional"]) == float(row["p_success"])


def test_non_finite_output_becomes_error_row(tmp_path):
    # numpy overflows inside reflection_r1; outside the suite's warning filter
    # the point used to write nan into every r1 cell with an empty error cell
    cfg = {"experiment": "reflection_scan",
           "parameters": {"gamma": 1.6e308, "g": 1.0, "kappa_in": 1.6e299,
                          "kappa_ex": 1.0, "delta": 0.0},
           "output": {"path": str(tmp_path / "overflow.csv")}}
    path = _write(tmp_path, "overflow.json", cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main(["run", path]) == 3
    row = next(csv.DictReader(open(tmp_path / "overflow.csv")))
    assert row["error"] == "DomainError: non-finite output re_r1 = nan"
    assert all(row[c] == "" for c in EXPERIMENTS["reflection_scan"].columns)


def test_unexpected_exception_becomes_error_row(tmp_path, monkeypatch):
    exp = EXPERIMENTS["longpulse_metrics"]

    def flaky(p):
        if math.isclose(p["c_in"], 10.0):
            raise ValueError("boom")
        return exp.fn(p)

    monkeypatch.setitem(EXPERIMENTS, "longpulse_metrics", dataclasses.replace(exp, fn=flaky))
    cfg = {"experiment": "longpulse_metrics", "seed": 1,
           "parameters": dict(GAMMA_KEY, r_m="matched"),
           "sweep": [{"name": "c_in", "start": 1, "stop": 100, "points": 3,
                      "scale": "log"}],
           "output": {"path": str(tmp_path / "flaky.csv")}}
    path = _write(tmp_path, "flaky.json", cfg)
    assert main(["run", path, "--workers", "1"]) == 3
    lines = (tmp_path / "flaky.csv").read_text().splitlines()
    assert len(lines) == 4
    assert lines[2].endswith(",ValueError: boom")
    assert lines[1].endswith(",") and lines[3].endswith(",")


def _table_rows(lines, columns):
    """The table's rows read back as dicts of cell text."""
    return list(csv.DictReader(io.StringIO(table_bytes(lines, columns).decode())))


def test_wvm_rounding_below_zero_snapped():
    # at this seed trial 7 on channel -1 enumerates to -2e-16 before snapping
    cfg = parse_config({
        "experiment": "wvm_crosstalk", "seed": 5,
        "parameters": dict(GAMMA_KEY, omega_fsr_2pi_GHz=2.7, omega_a_2pi_THz=220,
                           sigma0_over_aeff=0.1, c_over_vg=1.4, f_int=2000,
                           trials=12, n_channels=2),
        "output": {"path": "wvm.csv"}})
    lines, cols, failures = run_sweep(cfg)
    assert failures == 0
    rows = _table_rows(lines, cols)
    assert min(float(row["infidelity"]) for row in rows) >= 0.0
    point = [row for row in rows if row["trial"] == "7" and row["channel"] == "-1"]
    assert [float(row["infidelity"]) for row in point] == [0.0]


def test_missing_config_is_io_error(tmp_path):
    assert main(["run", str(tmp_path / "nope.json")]) == 4


def test_validate_is_report_only(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.json", {"experiment": "nope"})
    assert main(["validate", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "invalid"


def test_list_experiments_covers_registry(capsys):
    assert main(["list-experiments"]) == 0
    printed = capsys.readouterr().out.split()
    assert sorted(printed) == sorted(EXPERIMENTS)


# a bundled recipe per experiment; reflection_scan, which has none, probes
# fig2e's cavity on resonance
_CONTRACT_RECIPES = {"longpulse_metrics": "fig2e", "bandwidth_scan": "fig3b",
                     "robustness": "fig3d", "crosstalk_scan": "fig4b",
                     "rate_tables": "fig4c", "source_characterize": "fig5c",
                     "protocol_eval": "fig6a", "tm_spectrum": "fig7b",
                     "wvm_crosstalk": "fig7c"}


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_every_experiment_returns_float_or_int_columns(experiment):
    if experiment == "reflection_scan":
        raw = dict(_resolve_config("fig2e"), experiment=experiment,
                   parameters=dict(GAMMA_KEY, delta=0.0))
    else:
        raw = _resolve_config(_CONTRACT_RECIPES[experiment])
    config = parse_config(raw)
    p = config.point_parameters(0)
    p.setdefault("seed", config.seed)
    exp = EXPERIMENTS[experiment]
    out = exp.fn(p)
    assert tuple(out) == exp.columns
    assert {np.asarray(col).dtype.kind for col in out.values()} <= set("fiu")


def test_bundled_recipes_resolve_and_validate(capsys):
    assert main(["list-recipes"]) == 0
    names = capsys.readouterr().out.split()
    expected = {"fig2e", "fig3b", "fig3c", "fig3d", "fig4b", "fig4c", "fig5b",
                "fig5c", "fig5d", "fig6a", "fig6b", "fig7b", "fig7c", "fig7d",
                "rates"}
    assert expected <= set(names)
    for name in sorted(expected):
        assert main(["validate", name]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "valid", (name, report)


def test_seed_override_changes_hash_and_rows(tmp_path):
    cfg = parse_config(_robustness_config(samples=16))
    rows_a, cols, _ = run_sweep(cfg, workers=1)
    raw_b = dict(_robustness_config(samples=16), seed=99)
    rows_b, _, _ = run_sweep(parse_config(raw_b), workers=1)
    assert table_bytes(rows_a, cols) != table_bytes(rows_b, cols)


def _sha256_16(raw):  # the digest as hashlib gives it, over the canonical JSON
    return hashlib.sha256(json.dumps(raw, sort_keys=True).encode()).hexdigest()[:16]


def test_config_hash_is_sha256_of_the_canonical_config(tmp_path):
    names = _recipe_names()
    assert len(names) >= 15
    for name in names:
        raw = _resolve_config(name)
        assert parse_config(raw).config_hash() == _sha256_16(raw), name
    raw = dict(_spectrum_config(_DELTA_INNER[2:]), parameters=dict(_WVM_PARAMETERS, n_channels=3))
    cfg = _write(tmp_path, "spectrum.json", raw)
    assert main(["run", cfg, "--seed", "9", "--out", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / "spectrum.csv.meta.json").read_text())
    assert meta["config_hash"] == _sha256_16(dict(raw, seed=9)) != _sha256_16(raw)


# config.py's SHA-256 source in a fresh interpreter, the sources before it blocked;
# a builtin module this interpreter lacks is stood in for by a wrapper of its own
_SHA256_SOURCE = """
import importlib, importlib.util, json, sys, types
source, order = sys.argv[1], ["_sha2", "_sha256", "hashlib"]
builtin = next(importlib.import_module(n).sha256 for n in order[:2] if importlib.util.find_spec(n))
for name in order[:order.index(source)]:
    sys.modules[name] = None
if source != "hashlib" and importlib.util.find_spec(source) is None:
    sys.modules[source] = types.ModuleType(source)
    sys.modules[source].sha256 = lambda data=b"": builtin(data)
from capsim import config
from capsim.cli import _recipe_names, _resolve_config
hashes = {n: config.parse_config(_resolve_config(n)).config_hash() for n in _recipe_names()}
loaded = "_hashlib" in sys.modules
print(json.dumps([config.sha256 is importlib.import_module(source).sha256, loaded, hashes]))
"""


@pytest.mark.parametrize("source", ["_sha2", "_sha256", "hashlib"])
def test_config_hash_is_the_same_from_every_sha256_source(source):
    out = subprocess.run([sys.executable, "-c", _SHA256_SOURCE, source],
                         capture_output=True, text=True, env=_child_env())
    assert out.returncode == 0, out.stderr
    used, loaded_hashlib, hashes = json.loads(out.stdout)
    assert used
    assert source == "hashlib" or not loaded_hashlib
    assert hashes == {n: _sha256_16(_resolve_config(n)) for n in _recipe_names()}


def test_per_sample_records_export(tmp_path):
    samples_path = tmp_path / "samples.csv"
    raw = {"experiment": "robustness", "seed": 3,
           "parameters": dict(GAMMA_KEY, c_in=100, sigma_t_ns=217.6,
                              target="coupling_g", fwhm=0.2, samples=8,
                              samples_out=str(samples_path))}
    rows, _, n_failures = run_sweep(parse_config(raw), workers=1)
    assert n_failures == 0
    lines = samples_path.read_text().splitlines()
    assert lines[0] == "sample_id,drawn_value,f_c,p"
    assert len(lines) == 9
    first = lines[1].split(",")
    assert first[0] == "0" and 0.0 < float(first[3]) <= 1.0


def test_side_files_follow_the_output_directory(tmp_path, monkeypatch):
    cwd, out = tmp_path / "cwd", tmp_path / "out"
    cwd.mkdir()
    cfg = _write(tmp_path, "kernel.json", {
        "experiment": "source_characterize", "seed": 1,
        "parameters": dict(GAMMA_KEY, c_in=10, p_br=0.5, sigma_t_ns=663.15,
                           kernel_points=41, kernel_out="kernel.txt"),
        "output": {"path": "kernel.csv"}})
    monkeypatch.chdir(cwd)
    assert main(["run", cfg, "--out", str(out)]) == 0
    assert (out / "kernel.txt").is_file() and (out / "kernel.csv").is_file()
    assert list(cwd.iterdir()) == []


def test_protocol_on_an_exported_kernel_matches_the_source_built_in_place(tmp_path):
    # fig5b exports the Lambda source that type2 builds itself at these parameters,
    # and the kernel file round-trips bitwise; a missing file shows the file is read
    assert main(["run", "fig5b", "--out", str(tmp_path)]) == 0
    params = dict(GAMMA_KEY, c_in=10, p_br=0.5, sigma_t_ns=663.15, protocol="type2")
    runs = {}
    for name, kernel in (("loaded", {"kernel_in": str(tmp_path / "fig5b_kernel.txt")}),
                         ("built", {}), ("missing", {"kernel_in": str(tmp_path / "none.txt")})):
        cfg = _write(tmp_path, f"{name}.json", {
            "experiment": "protocol_eval", "seed": 1, "parameters": dict(params, **kernel),
            "output": {"path": f"{name}.csv"}})
        code = main(["run", cfg, "--out", str(tmp_path)])
        with open(tmp_path / f"{name}.csv", newline="") as fh:
            (row,) = csv.DictReader(fh)
        runs[name] = code, row.pop("error"), row
    code, error, row = runs["loaded"]
    assert (code, error) == (0, "") and tuple(row) == EXPERIMENTS["protocol_eval"].columns
    assert runs["built"] == runs["loaded"]  # all five cells equal as strings
    code, error, _ = runs["missing"]
    assert code == 3 and error.startswith("FileNotFoundError")


@pytest.mark.parametrize("target", ["coupling_g", "cavity_freq", "length"])
def test_static_length_deviation_applies_to_every_target(target):
    p = normalize(dict(GAMMA_KEY, c_in=100, sigma_t_ns=217.58, length_dev=0.2))
    static = EXPERIMENTS["bandwidth_scan"].fn(dict(p))
    robust = EXPERIMENTS["robustness"].fn(dict(p, target=target, fwhm=0.0,
                                               samples=3, seed=1))
    assert robust["mean_infidelity"] == pytest.approx(static["infidelity"], abs=1e-15)
    assert robust["mean_success"] == pytest.approx(static["p_success"], abs=1e-15)
    assert robust["n_resampled"] == 0


@pytest.mark.parametrize("target", ["coupling_g", "cavity_freq", "length"])
def test_static_atom_detuning_kept_by_every_target(target):
    # with no spread each target evaluates the nominal system, whose atom
    # sits delta_a away from the cavity
    p = normalize(dict(GAMMA_KEY, c_in=100, sigma_t_ns=217.58, delta_a_2pi_MHz=0.05))
    static = EXPERIMENTS["bandwidth_scan"].fn(dict(p))
    robust = EXPERIMENTS["robustness"].fn(dict(p, target=target, fwhm=0.0,
                                               samples=3, seed=1))
    assert robust["mean_infidelity"] == pytest.approx(static["infidelity"], abs=1e-15)


_WVM_PARAMETERS = {"gamma_2pi_MHz": 0.24, "omega_fsr_2pi_GHz": 2.7, "omega_a_2pi_THz": 220,
                   "sigma0_over_aeff": 0.1, "c_over_vg": 1.4, "f_int": 2000}


def _spectrum_config(sweep):
    return {"experiment": "tm_spectrum", "seed": 1, "parameters": dict(_WVM_PARAMETERS),
            "sweep": sweep, "output": {"path": "spectrum.csv"}}


_DELTA_INNER = [{"name": "n_channels", "start": 2, "stop": 4, "points": 2},
                {"name": "atom_state", "start": 0, "stop": 1, "points": 2},
                {"name": "delta_2pi_GHz", "start": -4.0, "stop": 4.0, "points": 41}]
# fig7b's order: delta outer, so each line task takes every fourth point
_DELTA_OUTER = _DELTA_INNER[2:] + _DELTA_INNER[:2]


def _csv(raw, workers=1):
    rows, cols, _ = run_sweep(parse_config(raw), workers=workers)
    return table_bytes(rows, cols)


def test_columns_of_unequal_length_are_an_error_row():
    tails, failed = runner._call(lambda p: {"a": [1.0, 2.0], "b": [3.0]}, {}, ("a", "b"))
    assert failed == 1 and tails == [',,"ValueError: output columns of lengths [1, 2]"\n']


def test_reproducible_across_worker_counts():
    cfg = parse_config(_robustness_config(samples=24))
    rows_1, cols, _ = run_sweep(cfg, workers=1)
    rows_4, _, _ = run_sweep(cfg, workers=4)
    assert table_bytes(rows_1, cols) == table_bytes(rows_4, cols)


def test_parallel_sweep_makes_a_bounded_window_of_tasks_ahead(monkeypatch):
    # 20,000 per-point tasks: handing them all to the pool before the first
    # result makes every one of them ahead of the consumer.  A small chunk
    # cap shows that the window is set by the cap, not by the grid.
    monkeypatch.setattr(runner, "_CHUNK_TASKS", 16)
    raw = {"experiment": "rate_tables", "seed": 1,
           "parameters": {"n_atoms": 200, "n_channels": 6, "r_dark_per_s": 10,
                          "p_success": 0.65},
           "sweep": [{"name": "tau_shuttle_us", "start": 10, "stop": 1000, "points": 100},
                     {"name": "sigma_t_ns", "start": 100, "stop": 300, "points": 200}],
           "output": {"path": "rates.csv"}}
    config = parse_config(raw)
    n_tasks, tasks = runner._tasks(config, EXPERIMENTS[config.experiment])
    made = 0

    def counted():
        nonlocal made
        for task in tasks:
            made += 1
            yield task

    workers = 2
    bound = (runner._CHUNKS_PER_WORKER * workers + 1) * runner._CHUNK_TASKS
    consumed = ahead = 0
    for _ in runner._results(n_tasks, counted(), workers):
        consumed += 1
        ahead = max(ahead, made - consumed)
    assert consumed == made == n_tasks == 20000
    assert ahead <= bound < n_tasks // 50


def test_detuning_lines_reproducible_across_worker_counts():
    for sweep in (_DELTA_INNER, _DELTA_OUTER):
        raw = _spectrum_config(sweep)
        assert _csv(raw, workers=1) == _csv(raw, workers=4)


@pytest.mark.parametrize("recipe", [None, "fig7b"], ids=["delta_inner", "fig7b_delta_outer"])
def test_detuning_lines_match_the_per_point_path(recipe, monkeypatch):
    raw = _resolve_config(recipe) if recipe else _spectrum_config(_DELTA_INNER)
    batched = _csv(raw)
    exp = EXPERIMENTS["tm_spectrum"]
    monkeypatch.setitem(EXPERIMENTS, "tm_spectrum", dataclasses.replace(exp, array_param=None))
    assert batched == _csv(raw)


def test_failing_detuning_becomes_its_own_error_row(monkeypatch):
    exp = EXPERIMENTS["tm_spectrum"]
    calls = []

    def flaky(p):
        calls.append(np.ndim(p["delta"]))
        if np.any(np.asarray(p["delta"]) == 0.0):
            raise ValueError("boom")
        return exp.fn(p)

    raw = _spectrum_config([{"name": "delta_2pi_GHz", "start": -4.0, "stop": 4.0,
                             "points": 5}])
    raw["parameters"]["n_channels"] = 3
    good = _table_rows(*run_sweep(parse_config(raw))[:2])
    monkeypatch.setitem(EXPERIMENTS, "tm_spectrum", dataclasses.replace(exp, fn=flaky))
    lines, cols, n_failures = run_sweep(parse_config(raw))
    rows = _table_rows(lines, cols)
    # one call for the line, then one per point once the line raised
    assert calls == [1, 0, 0, 0, 0, 0]
    assert n_failures == 1
    assert rows[2]["error"] == "ValueError: boom" and rows[2]["re_r"] == ""
    assert float(rows[2]["delta"]) == 0.0
    assert rows[:2] + rows[3:] == good[:2] + good[3:]


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, np.float64(math.nan)],
                         ids=["inf", "-inf", "nan", "numpy-nan"])
def test_non_finite_detuning_becomes_its_own_error_row(bad, monkeypatch):
    exp = EXPERIMENTS["tm_spectrum"]

    def overflowing(p):
        cols = exp.fn(p)
        cols["abs2_r"] = np.where(cols["delta_rad_s"] == 0.0, bad, cols["abs2_r"])
        return cols

    raw = _spectrum_config([{"name": "delta_2pi_GHz", "start": -4.0, "stop": 4.0,
                             "points": 5}])
    good = _table_rows(*run_sweep(parse_config(raw))[:2])
    monkeypatch.setitem(EXPERIMENTS, "tm_spectrum", dataclasses.replace(exp, fn=overflowing))
    lines, cols, n_failures = run_sweep(parse_config(raw))
    rows = _table_rows(lines, cols)
    assert n_failures == 1
    assert rows[2]["error"] == f"DomainError: non-finite output abs2_r = {float(bad)!r}"
    assert rows[2]["re_r"] == "" and float(rows[2]["delta"]) == 0.0
    assert rows[:2] + rows[3:] == good[:2] + good[3:]


def test_short_line_is_rerun_point_by_point(monkeypatch):
    exp = EXPERIMENTS["tm_spectrum"]
    raw = _spectrum_config(_DELTA_INNER)
    good = _csv(raw)

    def short(p):  # a line that loses a row must not shift the rows after it
        cols = exp.fn(p)
        return {c: col[1:] for c, col in cols.items()} if np.ndim(p["delta"]) else cols

    monkeypatch.setitem(EXPERIMENTS, "tm_spectrum", dataclasses.replace(exp, fn=short))
    assert _csv(raw) == good



def _reference_cell(value):
    """The cell text the row-dict table used: shortest-roundtrip floats, plain ints."""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _reference_body(config):
    """The CSV body built from row dicts, one per row, through csv.writer.

    Every point is evaluated on its own, so line tasks, their order and
    the worker count play no part.  A point's mapping of scalars is one
    row; a point that returns sequences has row k made of each column's
    k-th entry.  A point that raises, or returns a NaN or infinite float,
    is one row of empty outputs and the error.
    """
    exp = EXPERIMENTS[config.experiment]
    names = config.axis_names()
    columns = list(names) + list(exp.columns) + ["error"]
    rows = []
    for i in range(config.grid_size()):
        p = config.point_parameters(i)
        p.setdefault("seed", config.seed)
        axis_values = {name: p[name] for name in names}
        try:
            out = exp.fn(dict(p))
            cols = [list(out[c]) if np.ndim(out[c]) else [out[c]] for c in exp.columns]
            outs = [dict(zip(exp.columns, row)) for row in zip(*cols, strict=True)]
            error = next((f"DomainError: non-finite output {c} = {float(v)!r}"
                          for out in outs for c, v in out.items()
                          if isinstance(v, float) and not math.isfinite(v)), None)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            rows.append(dict(axis_values, **dict.fromkeys(exp.columns, ""), error=error))
            continue
        rows += [dict(axis_values, **out, error="") for out in outs]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_reference_cell(row[c]) for c in columns])
    return buf.getvalue().encode()


_ODD_FLOATS = [-0.0, 5e-324, 1 / 3, 1e308]


def _odd_columns(p):
    """tm_spectrum stand-in returning columns, which n_channels picks for its line.

    1: float64, int64 and uint64 columns, and a scalar float at a point;
    2: the same with one column an entry short on a line, and detuning 5
    raising an error whose text csv.writer must quote; 3: NaN delta_rad_s
    at detunings 3 and 9 and an infinite abs2_r at 7 and 9, so that 9
    holds two.
    """
    d, case = np.atleast_1d(p["delta"]).astype(np.int64), int(p["n_channels"])
    floats, ratios = np.array(_ODD_FLOATS)[d % 4], d / 3
    if case == 3:
        floats[(d == 3) | (d == 9)] = np.nan
        ratios[(d == 7) | (d == 9)] = math.inf
    cols = {"delta_rad_s": floats, "re_r": d * 10**15 - 7,
            "im_r": (d % 3).astype(np.uint64), "abs2_r": ratios}
    if d.size == 1:  # a point: a Python or numpy scalar is its one row
        if case == 2 and d[0] == 5:
            raise ValueError('all, "of\r\nthem"')
        cols["abs2_r"] = float(ratios[0]) if d[0] % 2 else ratios[0]
    elif case == 2:
        cols["re_r"] = cols["re_r"][:-1]
    return cols


_ODD_COLUMNS_TABLE = {"experiment": "tm_spectrum", "seed": 1,
                      "parameters": dict(_WVM_PARAMETERS),
                      "sweep": [{"name": "delta", "start": 0.0, "stop": 11.0, "points": 12},
                                {"name": "n_channels", "start": 1, "stop": 3, "points": 3}],
                      "output": {"path": "odd.csv"}}


@pytest.mark.parametrize("table, workers", [
    ("odd_columns", 1), ("wvm_rows", 1), ("wvm_rows", 4), ("delta_outer", 1),
    ("delta_outer", 4)])
def test_streamed_body_is_bitwise_the_row_dict_table(table, workers, monkeypatch):
    if table == "odd_columns":
        # delta outer, so each line task is strided; one worker, since a
        # spawned worker would not see the patched registry
        exp = EXPERIMENTS["tm_spectrum"]
        monkeypatch.setitem(EXPERIMENTS, "tm_spectrum",
                            dataclasses.replace(exp, fn=_odd_columns))
        raw = _ODD_COLUMNS_TABLE
    elif table == "wvm_rows":  # several rows per point
        raw = {"experiment": "wvm_crosstalk", "seed": 3,
               "parameters": dict(_WVM_PARAMETERS, trials=3),
               "sweep": [{"name": "n_channels", "start": 2, "stop": 4, "points": 3}],
               "output": {"path": "wvm.csv"}}
    else:  # the real spectrum over strided line tasks
        raw = _spectrum_config([dict(_DELTA_OUTER[0], points=9)] + _DELTA_OUTER[1:])
    config = parse_config(raw)
    lines, cols, n_failures = run_sweep(config, workers=workers)
    expected = _reference_body(config)
    assert table_bytes(lines, cols) == expected
    rows = list(csv.DictReader(io.StringIO(expected.decode())))
    assert len(lines) == len(rows)
    assert n_failures == sum(1 for row in rows if row["error"])


@pytest.mark.parametrize("bad, dtype", [
    ("x", "<U1"), (None, "object"), (True, "bool"), (np.True_, "bool"), (2**70, "object")],
    ids=["str", "none", "true", "numpy-true", "2**70"])
def test_output_of_another_dtype_becomes_its_own_error_row(bad, dtype, monkeypatch):
    exp = EXPERIMENTS["tm_spectrum"]

    def typed(p):  # the line holding detuning 0 gets a list, its point a scalar
        cols = exp.fn(p)
        if np.any(np.asarray(p["delta"]) == 0.0):
            cols["abs2_r"] = [bad] * cols["abs2_r"].size if np.ndim(p["delta"]) else bad
        return cols

    raw = _spectrum_config([{"name": "delta_2pi_GHz", "start": -4.0, "stop": 4.0,
                             "points": 5}])
    good = _table_rows(*run_sweep(parse_config(raw))[:2])
    monkeypatch.setitem(EXPERIMENTS, "tm_spectrum", dataclasses.replace(exp, fn=typed))
    lines, cols, n_failures = run_sweep(parse_config(raw))
    rows = _table_rows(lines, cols)
    assert n_failures == 1 and len(rows) == 5
    assert rows[2]["error"] == f"TypeError: output abs2_r of dtype {dtype}"
    assert all(rows[2][c] == "" for c in exp.columns) and float(rows[2]["delta"]) == 0.0
    assert rows[:2] + rows[3:] == good[:2] + good[3:]


def test_sweep_memory_is_bounded_by_its_text(tmp_path):
    # a dense_scan-shaped sweep writes 0.73 MB of CSV; holding every row as
    # a dict and the body as one str plus its bytes peaked at 4.9-5.2 MB,
    # the streamed lines at about 2.1 MB
    raw = _spectrum_config([{"name": "n_channels", "start": 2, "stop": 10, "points": 3},
                            {"name": "atom_state", "start": 0, "stop": 1, "points": 2},
                            {"name": "delta_2pi_GHz", "start": -8.0, "stop": 8.0,
                             "points": 1201}])
    raw["output"]["path"] = str(tmp_path / "dense.csv")
    config = parse_config(raw)
    # a first sweep fills the calibration cache and numpy's lazy state
    run_sweep(parse_config(dict(raw, sweep=raw["sweep"][2:])))
    tracemalloc.start()
    try:
        lines, cols, n_failures = run_sweep(config)
        write_outputs(config, lines, cols, n_failures, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n_failures == 0 and len(lines) == 7206
    assert peak < 3.0e6, peak


def test_per_point_sweep_memory_is_bounded_by_its_text():
    # a 30 x 30 x 30 per-point sweep writes 3.4 MB of CSV; building every
    # task's parameter dict before the first evaluation peaked at 20.5 MB,
    # making each task as it is evaluated at 6.6 MB: the lines held as str
    # objects, one tuple per point and the point list
    axes = [("tau_shuttle_us", 10, 1000), ("sigma_t_ns", 100, 300), ("p_success", 0.1, 0.9)]
    raw = {"experiment": "rate_tables", "seed": 1,
           "parameters": {"n_atoms": 200, "n_channels": 6, "r_dark_per_s": 10},
           "sweep": [{"name": name, "start": start, "stop": stop, "points": 30}
                     for name, start, stop in axes],
           "output": {"path": "rates.csv"}}
    config = parse_config(raw)
    tracemalloc.start()
    try:
        lines, _, n_failures = run_sweep(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text = sum(map(len, lines))
    assert n_failures == 0 and len(lines) == 27000
    assert peak < 2.5 * text, (peak, text)


# run in a fresh interpreter: main() on each argv, then the modules loaded
_COLD_START = """
import json, sys
from capsim.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
"""


def _child_env():
    # the child imports the capsim under test, also when only pytest's
    # pythonpath setting (not the environment) puts it on the path
    src = str(Path(capsim.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def _child_modules(code, packages, *args):
    """The modules of `packages`, or within them, that a fresh interpreter running code loads."""
    code += "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    out = subprocess.run([sys.executable, "-c", code, *args],
                         capture_output=True, text=True, env=_child_env())
    assert out.returncode == 0, out.stderr
    return [m for m in json.loads(out.stdout.splitlines()[-1])
            if any(m == p or m.startswith(p + ".") for p in packages)]


def _cold_start_modules(argvs, packages=("scipy",)):
    """The modules of `packages`, or within them, that main() on each argv loads."""
    return _child_modules(_COLD_START, packages, json.dumps(argvs))


# the numerical layers; the command layer (cli, config, experiments, cavity, ...) loads none
_LAYERS = tuple(f"capsim.{m}" for m in ("crosstalk", "gate", "protocols", "rates", "runner",
                                        "source", "transfer_matrix"))


@pytest.mark.parametrize("statement", ["import capsim", "import capsim.cli"])
def test_import_loads_no_numpy_and_no_numerical_layer(statement):
    assert _child_modules(statement, ("numpy", *_LAYERS)) == []


def test_validate_of_a_transfer_matrix_config_and_the_lists_load_no_numpy():
    # fig7b is a tm_spectrum recipe, fig7c a wvm_crosstalk one
    argvs = [["validate", "fig7b"], ["validate", "fig7c"], ["list-experiments"],
             ["list-recipes"]]
    assert _cold_start_modules(argvs, ("numpy", *_LAYERS)) == []


def test_validate_loads_only_the_layer_its_sanity_check_runs():
    # fig3b is a bandwidth_scan recipe: its pulse-width check runs gate.min_sigma_t
    assert _cold_start_modules([["validate", "fig3b"]], _LAYERS) == ["capsim.gate"]


_RUN_LAYERS = {  # a one-point config of each experiment, and the layers besides runner it runs
    "reflection_scan": (dict(GAMMA_KEY, c_in=100, delta=0.0), ()),
    "longpulse_metrics": (dict(GAMMA_KEY, c_in=100), ("gate",)),
    "bandwidth_scan": (dict(GAMMA_KEY, c_in=100, sigma_t_ns=217.6), ("gate",)),
    "robustness": (dict(GAMMA_KEY, c_in=100, sigma_t_ns=217.6, target="coupling_g",
                        fwhm=0.1, samples=4), ("gate",)),
    "crosstalk_scan": (dict(GAMMA_KEY, c_in=100, n_atoms=3, delta_ratio=10),
                       ("crosstalk", "gate")),
    "source_characterize": (dict(GAMMA_KEY, c_in=10, sigma_t_ns=663.15, kernel_points=41),
                            ("source",)),
    "protocol_eval": (dict(_PROTOCOL_PARAMS, source="gaussian"), ("gate", "protocols")),
    "tm_spectrum": (dict(_WVM_PARAMETERS, n_channels=2, delta=0.0), ("transfer_matrix",)),
    "wvm_crosstalk": (dict(_WVM_PARAMETERS, n_channels=2, trials=1),
                      ("gate", "transfer_matrix")),
    "rate_tables": (_RATES_CONFIG["parameters"], ("rates",)),
}


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_run_loads_only_its_own_layers(experiment, tmp_path):
    parameters, layers = _RUN_LAYERS[experiment]
    cfg = _write(tmp_path, "config.json", {"experiment": experiment, "seed": 1,
                                           "parameters": parameters,
                                           "output": {"path": "out.csv"}})
    loaded = _cold_start_modules([["run", cfg, "--out", str(tmp_path)]], _LAYERS)
    assert loaded == sorted(f"capsim.{m}" for m in (*layers, "runner"))


def test_a_kernel_photon_run_loads_the_source_layer(tmp_path):
    cfg = _write(tmp_path, "config.json", {"experiment": "protocol_eval", "seed": 1,
                                           "parameters": dict(_PROTOCOL_PARAMS, source="cavity"),
                                           "output": {"path": "out.csv"}})
    loaded = _cold_start_modules([["run", cfg, "--out", str(tmp_path)]], _LAYERS)
    assert loaded == sorted(f"capsim.{m}" for m in ("gate", "protocols", "runner", "source"))


def test_every_lazy_export_resolves_to_its_module_attribute():
    for module, names in capsim._EXPORTS.items():
        home = importlib.import_module(f"capsim.{module}")
        for name in names:
            assert getattr(capsim, name) is getattr(home, name), name
    assert capsim.runner is importlib.import_module("capsim.runner")
    assert not hasattr(capsim, "no_such_module") and not hasattr(capsim, "__main__")


def test_transfer_matrix_runs_import_no_scipy(tmp_path):
    spectrum = _write(tmp_path, "spectrum.json", {
        "experiment": "tm_spectrum",
        "parameters": dict(_WVM_PARAMETERS, n_channels=3),
        "sweep": [{"name": "delta_2pi_GHz", "start": -4.0, "stop": 4.0, "points": 5}],
        "output": {"path": "spectrum.csv"}})
    crosstalk = _write(tmp_path, "crosstalk.json", {
        "experiment": "wvm_crosstalk", "seed": 2,
        "parameters": dict(_WVM_PARAMETERS, n_channels=3, trials=2),
        "output": {"path": "crosstalk.csv"}})
    argvs = [[cmd, cfg] + (["--out", str(tmp_path)] if cmd == "run" else [])
             for cfg in (spectrum, crosstalk) for cmd in ("validate", "run")]
    assert _cold_start_modules(argvs) == []
    assert (tmp_path / "spectrum.csv").is_file() and (tmp_path / "crosstalk.csv").is_file()


def test_gate_runs_import_no_scipy_and_match_in_process(tmp_path):
    # the Faddeeva function of the exact Gaussian averages is numpy's own
    raws = {"rob": _robustness_config(samples=8),
            "scan": {"experiment": "bandwidth_scan",
                     "parameters": dict(GAMMA_KEY, c_in=100, sigma_t_ns=217.6),
                     "output": {"path": "scan.csv"}},
            "protocol": {"experiment": "protocol_eval",
                         "parameters": dict(_PROTOCOL_PARAMS, source="gaussian"),
                         "output": {"path": "protocol.csv"}}}
    argvs = []
    for name, raw in raws.items():
        cfg = _write(tmp_path, f"{name}.json", raw)
        argvs += [["validate", cfg], ["run", cfg, "--out", str(tmp_path)]]
    assert _cold_start_modules(argvs) == []
    for name, raw in raws.items():
        rows, cols, _ = run_sweep(parse_config(raw))
        assert (tmp_path / f"{name}.csv").read_bytes() == table_bytes(rows, cols)


@pytest.mark.parametrize("command, raw", [
    ("run", _spectrum_config(_DELTA_INNER)),
    ("validate", {"experiment": "protocol_eval", "parameters": dict(_PROTOCOL_PARAMS),
                  "output": {"path": "protocol.csv"}}),
    ("run", {"experiment": "wvm_crosstalk", "seed": 2,
             "parameters": dict(_WVM_PARAMETERS, n_channels=3, trials=2),
             "output": {"path": "crosstalk.csv"}}),
    ("run", dict(_robustness_config(samples=50),
                 sweep=[{"name": "fwhm", "start": 0.0, "stop": 0.0, "points": 2}])),
    ("run", dict(_robustness_config(samples=50),
                 sweep=[{"name": "fwhm", "start": 0.1, "stop": 0.3, "points": 3}])),
], ids=["tm_spectrum_run", "protocol_eval_validate", "wvm_crosstalk_run",
        "robustness_zero_fwhm_run", "robustness_run"])
def test_commands_without_random_draws_load_no_unneeded_module(command, raw, tmp_path):
    """A one-worker run or a validate of any experiment, including those
    that draw random numbers, loads none of these (peak RSS each adds,
    measured after numpy):

    - _hashlib maps OpenSSL's libcrypto, 3.4-3.6 MB; hashlib imports it, so
      the config hash uses the interpreter's builtin SHA-256;
    - ssl maps libssl and libcrypto, about 4.1 MB;
    - scipy, 0.7 MB for the package and 23 MB with scipy.special; it is a
      test-only oracle;
    - concurrent.futures and multiprocessing, 0.2 and 0.4 MB; only a run
      with more than one worker needs a pool;
    - numpy.random, 5.2 MB with the libcrypto its import of secrets -> hmac
      maps; robustness (at fwhm > 0) and wvm_crosstalk draw default_rng's
      normals and integers from gate._Pcg64 instead.
    """
    cfg = _write(tmp_path, "config.json", raw)
    extra = ["--workers", "1", "--out", str(tmp_path)] if command == "run" else []
    unneeded = ("_hashlib", "ssl", "scipy", "concurrent.futures", "multiprocessing",
                "numpy.random", "secrets")
    assert _cold_start_modules([[command, cfg, *extra]], unneeded) == []


def test_cli_entry_point_runs_in_subprocess(tmp_path):
    out = subprocess.run([sys.executable, "-m", "capsim", "list-experiments"],
                         capture_output=True, text=True, env=_child_env())
    assert out.returncode == 0
    assert "rate_tables" in out.stdout
