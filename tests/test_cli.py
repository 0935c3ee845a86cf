import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import capsim
from capsim import experiments
from capsim.cli import _resolve_config, main
from capsim.config import parse_config, sanity_warnings, validate_raw
from capsim.errors import ConvergenceError
from capsim.experiments import EXPERIMENTS
from capsim.runner import run_sweep, table_bytes
from capsim.units import _SUFFIXES, normalize, strip_suffix

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
    out = normalize({"gamma_2pi_MHz": 0.24, "sigma_t_ns": 210, "l_cav_cm": 9.8,
                     "plain": 3})
    assert out["gamma"] == pytest.approx(2 * math.pi * 0.24e6)
    assert out["sigma_t"] == pytest.approx(210e-9)
    assert out["l_cav"] == pytest.approx(0.098)
    assert out["plain"] == 3


def test_reserved_names_not_stripped():
    assert strip_suffix("r_m", reserved=("r_m",)) == ("r_m", 1.0)
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
@given(base=_BASE, suf=_SUFFIX, value=_NUMBER)
def test_reserved_keys_pass_through_unscaled(base, suf, value):
    key = base + suf
    assert normalize({key: value}, reserved=(key,)) == {key: value}
    assert normalize({"r_m": value}, reserved=("r_m",)) == {"r_m": value}


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
      "parameters": dict(GAMMA_KEY, sigma_t_ns=217.6, level_scheme="lambda")},
     "parameters.level_scheme", ("lambda_3lvl", "entangler_4lvl")),
    ({"experiment": "robustness",
      "parameters": dict(GAMMA_KEY, c_in=100, sigma_t_ns=217.6, target="couplng_g")},
     "parameters.target", ("coupling_g", "cavity_freq", "length")),
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
                           "parameters": dict(GAMMA_KEY, sigma_t_ns=217.6, fock_cutoff=2)})
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

    monkeypatch.setattr(experiments, "min_sigma_t", no_floor)
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


def test_wvm_rounding_below_zero_snapped():
    # at this seed trial 7 on channel -1 enumerates to -2e-16 before snapping
    cfg = parse_config({
        "experiment": "wvm_crosstalk", "seed": 5,
        "parameters": dict(GAMMA_KEY, omega_fsr_2pi_GHz=2.7, omega_a_2pi_THz=220,
                           sigma0_over_aeff=0.1, c_over_vg=1.4, f_int=2000,
                           trials=12, n_channels=2),
        "output": {"path": "wvm.csv"}})
    rows, _, failures = run_sweep(cfg)
    assert failures == 0
    assert min(row["infidelity"] for row in rows) >= 0.0
    point = [row for row in rows if row["trial"] == 7 and row["channel"] == -1]
    assert [row["infidelity"] for row in point] == [0.0]


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


@pytest.mark.parametrize("target", ["coupling_g", "cavity_freq", "length"])
def test_static_length_deviation_applies_to_every_target(target):
    p = normalize(dict(GAMMA_KEY, c_in=100, sigma_t_ns=217.58, length_dev=0.2))
    [static] = EXPERIMENTS["bandwidth_scan"].fn(dict(p))
    [robust] = EXPERIMENTS["robustness"].fn(dict(p, target=target, fwhm=0.0,
                                                 samples=3, seed=1))
    assert robust["mean_infidelity"] == pytest.approx(static["infidelity"], abs=1e-15)
    assert robust["mean_success"] == pytest.approx(static["p_success"], abs=1e-15)
    assert robust["n_resampled"] == 0


@pytest.mark.parametrize("target", ["coupling_g", "cavity_freq", "length"])
def test_static_atom_detuning_kept_by_every_target(target):
    # with no spread each target evaluates the nominal system, whose atom
    # sits delta_a away from the cavity
    p = normalize(dict(GAMMA_KEY, c_in=100, sigma_t_ns=217.58, delta_a_2pi_MHz=0.05))
    [static] = EXPERIMENTS["bandwidth_scan"].fn(dict(p))
    [robust] = EXPERIMENTS["robustness"].fn(dict(p, target=target, fwhm=0.0,
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


def _csv(raw, workers=1):
    rows, cols, _ = run_sweep(parse_config(raw), workers=workers)
    return table_bytes(rows, cols)


def test_reproducible_across_worker_counts():
    cfg = parse_config(_robustness_config(samples=24))
    rows_1, cols, _ = run_sweep(cfg, workers=1)
    rows_4, _, _ = run_sweep(cfg, workers=4)
    assert table_bytes(rows_1, cols) == table_bytes(rows_4, cols)


def test_detuning_lines_reproducible_across_worker_counts():
    raw = _spectrum_config(_DELTA_INNER)
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
    good = run_sweep(parse_config(raw))[0]
    monkeypatch.setitem(EXPERIMENTS, "tm_spectrum", dataclasses.replace(exp, fn=flaky))
    rows, _, n_failures = run_sweep(parse_config(raw))
    # one call for the line, then one per point once the line raised
    assert calls == [1, 0, 0, 0, 0, 0]
    assert n_failures == 1
    assert rows[2]["error"] == "ValueError: boom" and rows[2]["re_r"] == ""
    assert rows[2]["delta"] == 0.0
    assert rows[:2] + rows[3:] == good[:2] + good[3:]


def test_short_line_is_rerun_point_by_point(monkeypatch):
    exp = EXPERIMENTS["tm_spectrum"]
    raw = _spectrum_config(_DELTA_INNER)
    good = _csv(raw)

    def short(p):  # a line that loses a row must not shift the rows after it
        rows = exp.fn(p)
        return rows[1:] if np.ndim(p["delta"]) else rows

    monkeypatch.setitem(EXPERIMENTS, "tm_spectrum", dataclasses.replace(exp, fn=short))
    assert _csv(raw) == good


# run in a fresh interpreter: main() on each argv, then the scipy modules loaded
_COLD_START = """
import json, sys
from capsim.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def _child_env():
    # the child imports the capsim under test, also when only pytest's
    # pythonpath setting (not the environment) puts it on the path
    src = str(Path(capsim.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def _cold_start_modules(argvs):
    out = subprocess.run([sys.executable, "-c", _COLD_START, json.dumps(argvs)],
                         capture_output=True, text=True, env=_child_env())
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


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


def test_gate_run_loads_scipy_special_and_matches_in_process(tmp_path):
    raw = _robustness_config(samples=8)
    cfg = _write(tmp_path, "rob.json", raw)
    loaded = _cold_start_modules([["validate", cfg], ["run", cfg, "--out", str(tmp_path)]])
    assert "scipy.special" in loaded
    rows, cols, _ = run_sweep(parse_config(raw))
    assert (tmp_path / "rob.csv").read_bytes() == table_bytes(rows, cols)


def test_cli_entry_point_runs_in_subprocess(tmp_path):
    out = subprocess.run([sys.executable, "-m", "capsim", "list-experiments"],
                         capture_output=True, text=True, env=_child_env())
    assert out.returncode == 0
    assert "rate_tables" in out.stdout
