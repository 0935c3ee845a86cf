"""Experiment registry: one entry point per scenario type.

Each experiment is a pure function of its (unit-normalized) parameter map;
it returns a list of output rows.  The Monte-Carlo experiments draw from
the config seed.  Schemas drive config validation and the CLI's
physical-sanity report.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import cavity as cav
from . import crosstalk as ct
from . import protocols as proto
from . import rates as rt
from . import source as src
from . import transfer_matrix as tm
from .errors import ConfigError
from .gate import (FluctuationSpec, GateScenario, GaussianPhoton, caps_finite_bandwidth,
                   caps_longpulse, min_sigma_t, robustness_mc)


@dataclass(frozen=True)
class ExperimentDef:
    name: str
    fn: callable
    required: dict
    optional: dict
    columns: tuple
    sanity: callable = None
    # parameter that fn also accepts as a 1-D array, returning one row per
    # element in order; the runner then hands it a whole sweep line at once
    array_param: str = None


_CHECKS = {
    "positive": lambda v: isinstance(v, (int, float)) and v > 0,
    "nonneg": lambda v: isinstance(v, (int, float)) and v >= 0,
    "real": lambda v: isinstance(v, (int, float)),
    "prob": lambda v: isinstance(v, (int, float)) and 0 <= v <= 1,
    "posint": lambda v: (isinstance(v, (int, float)) and v > 0
                         and float(v).is_integer()),
    "str": lambda v: isinstance(v, str),
    "outfile": lambda v: isinstance(v, str),   # relative to the CSV's directory
}


def _cavity_from(p):
    """Build CavityParams from either explicit rates or (c_in, gamma)."""
    gamma = p["gamma"]
    delta_a = p.get("delta_a", 0.0)
    if "g" in p:
        kappa_ex = p.get("kappa_ex", "matched")
        params = cav.CavityParams(g=p["g"], kappa_in=p["kappa_in"], gamma=gamma,
                                  delta_a=delta_a,
                                  kappa_ex=p["kappa_in"] if kappa_ex == "matched"
                                  else kappa_ex)
        if kappa_ex == "matched":
            params = params.with_(kappa_ex=cav.kappa_ex_opt(p["kappa_in"], params.c_in))
        return params
    c_in = p["c_in"]
    if "kappa_in" in p:
        kappa_in = p["kappa_in"]
        g = math.sqrt(2.0 * c_in * kappa_in * gamma)
        return cav.CavityParams(g=g, kappa_in=kappa_in,
                                kappa_ex=cav.kappa_ex_opt(kappa_in, c_in),
                                gamma=gamma, delta_a=delta_a)
    return cav.delay_matched_params(c_in, gamma, delta_a=delta_a)


def _optics_from(p, params):
    r_m = p.get("r_m", "matched")
    if r_m == "matched":
        return cav.matched_optics(params)
    if r_m == "unity":
        return cav.matched_optics(params, r_m=1.0)
    return cav.matched_optics(params, r_m=float(r_m))


# --------------------------------------------------------------------------

def _reflection_scan(p):
    params = _cavity_from(p)
    delta = p["delta"]
    r0 = cav.reflection_r0(params, delta)
    r1 = cav.reflection_r1(params, delta)
    return [{
        "re_r0": r0.real, "im_r0": r0.imag, "abs2_r0": abs(r0) ** 2,
        "arg_r0": math.atan2(r0.imag, r0.real),
        "re_r1": r1.real, "im_r1": r1.imag, "abs2_r1": abs(r1) ** 2,
        "arg_r1": math.atan2(r1.imag, r1.real),
    }]


def _longpulse_metrics(p):
    params = _cavity_from(p)
    conventional = caps_longpulse(params, cav.matched_optics(params, r_m=1.0))
    matched = caps_longpulse(params, cav.matched_optics(params))
    chosen = caps_longpulse(params, _optics_from(p, params))
    return [{
        "f_c": chosen.f_c, "infidelity": chosen.infidelity,
        "p_success": chosen.p_success, "leakage": chosen.leakage,
        "p_conventional": conventional.p_success, "p_opt": matched.p_success,
    }]


def _installed(p):
    """(params, optics) of the installed system.

    Optics stay calibrated at the nominal point; a static length_dev only
    rescales the installed cavity rates.
    """
    nominal = _cavity_from(p)
    optics = _optics_from(p, nominal)
    params = nominal
    if p.get("length_dev", 0.0):
        params = cav.scaled_by_length_deviation(nominal, p["length_dev"])
    return params, optics


def _bandwidth_scan(p):
    params, optics = _installed(p)
    out = caps_finite_bandwidth(params, optics, p["sigma_t"])
    return [{"f_c": out.f_c, "infidelity": out.infidelity,
             "p_success": out.p_success}]


def _robustness(p):
    params, optics = _installed(p)
    spec = FluctuationSpec(target=p.get("target", "coupling_g"),
                           fwhm=p.get("fwhm", 0.0),
                           samples=int(p.get("samples", 10_000)),
                           seed=int(p["seed"]))
    summary = robustness_mc(GateScenario(params=params, optics=optics, sigma_t=p["sigma_t"]), spec)
    if p.get("samples_out"):
        _write_samples(p["samples_out"], summary.samples)
    return [{"mean_infidelity": summary.mean_infidelity,
             "mean_success": summary.mean_success,
             "n_resampled": summary.n_resampled}]


def _write_samples(path, samples):
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["sample_id", "drawn_value", "f_c", "p"])
        for row in samples:
            writer.writerow([int(row[0])] + [repr(float(v)) for v in row[1:]])


def _crosstalk_scan(p):
    gamma = p["gamma"]
    n_atoms = int(p["n_atoms"])
    delta_a = p["delta_ratio"] * n_atoms * gamma if "delta_ratio" in p else p["delta_a"]
    scenario = ct.matched_scenario(p["c_in"], gamma, n_atoms, delta_a)
    exact = ct.crosstalk_fidelity_exact(scenario)
    approx = ct.crosstalk_fidelity_approx(p["c_in"], n_atoms, delta_a, gamma)
    return [{"delta_a": delta_a, "exact_infidelity": exact.infidelity,
             "approx_infidelity": approx, "p_success": exact.p_success,
             "per_atom_infidelity": ct.per_atom_infidelity(exact.infidelity, n_atoms)}]


def _source_characterize(p):
    params = _cavity_from(p)
    spec = src.SourceSpec(params=params, p_br=p.get("p_br", 0.0),
                          target_sigma_t=p["sigma_t"],
                          level_scheme=p.get("level_scheme", src.LAMBDA_3LVL),
                          kernel_points=int(p.get("kernel_points", 201)))
    kernel = src.source_kernel(spec)
    decomp = src.decompose(kernel)
    overlap = src.mode_overlap(decomp, src.gaussian_target(p["sigma_t"]))
    if p.get("kernel_out"):
        kernel.save(p["kernel_out"])
    lams = decomp.eigenvalues
    return [{"p_gen": decomp.p_gen, "purity": decomp.purity,
             "lambda_1": float(lams[0]),
             "lambda_2": float(lams[1]) if lams.size > 1 else 0.0,
             "overlap_target": overlap}]


_PROTOCOLS = ("memory_load", "type2", "type2_pair", "type3", "type1")
_SOURCES = ("cavity", "gaussian")


def _protocol_eval(p):
    gamma = p["gamma"]
    protocol = p["protocol"]
    sigma_t = p["sigma_t"]
    c_in = p["c_in"]
    if protocol not in _PROTOCOLS:
        raise ConfigError(f"unknown protocol {protocol!r}")
    node_a = proto.matched_node(c_in, gamma, label="A")
    node_b = proto.matched_node(c_in, gamma, label="B")
    p_opt = cav.r_opt(c_in) ** 2

    # type1 interferes two emitted photons; type2_pair loads a Gaussian pair
    if protocol == "type1" or (protocol != "type2_pair"
                               and p.get("source", "cavity") == "cavity"):
        if p.get("kernel_in"):  # a kernel exported by the source model
            photon = src.TemporalKernel.load(p["kernel_in"])
        else:
            params = cav.delay_matched_params(p.get("source_c_in", c_in), gamma)
            scheme = (src.ENTANGLER_4LVL if protocol in ("type3", "type1")
                      else src.LAMBDA_3LVL)
            photon = src.source_kernel(src.SourceSpec(
                params=params, p_br=p.get("p_br", 0.5), target_sigma_t=sigma_t,
                level_scheme=scheme))
        p_gen = photon.p_gen
    else:
        photon, p_gen = GaussianPhoton(sigma_t), 1.0

    if protocol == "memory_load":
        result = proto.memory_load(node_b, photon)
    elif protocol == "type2":
        na = proto.matched_node(c_in, gamma, r_m=1.0, label="A")
        nb = proto.matched_node(c_in, gamma, r_m=1.0, label="B")
        result = proto.type2(na, nb, photon)
    elif protocol == "type2_pair":
        result = proto.type2_pair(node_a, node_b, (photon, photon))
    elif protocol == "type3":
        result = proto.type3(photon, node_b)
    else:
        result = proto.type1(photon, photon)
    return [{"fidelity": result.fidelity, "infidelity": 1.0 - result.fidelity,
             "p_success": result.p_success, "p_gen": p_gen,
             "p_gen_times_p_opt": p_gen * p_opt}]


def _wvm_system(p):
    return tm.WvmSystem(gamma=p["gamma"], omega_fsr=p["omega_fsr"],
                        omega_a=p["omega_a"],
                        sigma0_over_aeff=p["sigma0_over_aeff"],
                        c_over_vg=p["c_over_vg"], f_int=p["f_int"])


@lru_cache(maxsize=64)
def _spectrum_cavity(system, n_ch):
    """Calibrated chain with one atom per channel at its mode's central antinode."""
    t_ex, _ = tm.calibrated_coupler(system) if n_ch else (system.t_ex, None)
    offsets = tm.channel_offsets(n_ch)
    positions = []
    for off in offsets:
        n_mode = system.n0 + off
        k = int(round(0.5 * n_mode - 0.5))
        positions.append((k + 0.5) / n_mode)
    order = np.argsort(positions)
    return tm.TmCavity(
        omega_fsr=system.omega_fsr, n0=system.n0, t_ex=t_ex, t_in=system.t_in,
        atom_positions=np.array(positions)[order],
        atom_gamma_1d=np.full(n_ch, system.gamma_1d),
        atom_gamma_total=np.full(n_ch, 2.0 * system.gamma),
        atom_delta_a=np.array(offsets, dtype=float)[order] * system.omega_fsr)


def _tm_spectrum(p):
    n_ch = int(p.get("n_channels", 0))
    state = int(p.get("atom_state", 1))
    cavity = _spectrum_cavity(_wvm_system(p), n_ch)
    deltas = np.atleast_1d(np.asarray(p["delta"], dtype=float))
    r = tm.tm_reflectance(cavity, deltas, atom_states=[state] * n_ch)
    return [{"delta_rad_s": d, "re_r": x.real, "im_r": x.imag, "abs2_r": abs(x) ** 2}
            for d, x in zip(deltas.tolist(), r.tolist())]


def _wvm_crosstalk(p):
    system = _wvm_system(p)
    res = tm.wvm_crosstalk(system, n_channels=int(p["n_channels"]),
                           trials=int(p.get("trials", 50)),
                           seed=int(p["seed"]),
                           n_atoms=int(p["n_atoms"]) if "n_atoms" in p else None)
    rows = [{"trial": t, "channel": off, "infidelity": infid}
            for t, off, infid in res.rows]
    for row in rows:
        row["mean_infidelity"] = res.mean_infidelity
    return rows


def _rate_tables(p):
    s = rt.MuxScenario(n_atoms=int(p["n_atoms"]), tau_s=p["tau_shuttle"],
                       sigma_t=p["sigma_t"], p_success=p["p_success"],
                       pulse_spacing_factor=p.get("pulse_spacing_factor", 5.0),
                       n_channels=int(p.get("n_channels", 1)),
                       r_dark=p.get("r_dark", 0.0))
    return [{"rate_time_mux": rt.rate_time_mux(s),
             "rate_wavelength_mux": rt.rate_wavelength_mux(s),
             "remainder_atoms": rt.remainder_atoms(s),
             "dark_count_error": rt.dark_count_error(s.sigma_t, s.r_dark)}]


# --------------------------------------------------------------------------
# sanity checks (validation-time, no heavy execution)
# --------------------------------------------------------------------------

def _sanity_bandwidth(p):
    warnings = []
    if "sigma_t" in p and "c_in" in p and isinstance(p["sigma_t"], (int, float)):
        try:
            floor = min_sigma_t(p["c_in"], p["gamma"], target_infidelity=1e-4)
        except Exception as exc:  # a failed check is reported, never fatal
            return [f"parameters.sigma_t: minimum-pulse-width check failed: "
                    f"{type(exc).__name__}: {exc}"]
        if p["sigma_t"] < floor:
            warnings.append(
                "parameters.sigma_t: below the minimum-pulse-width criterion "
                f"for gate infidelity 1e-4 ({floor:.3e} s at c_in={p['c_in']})")
    return warnings


def _sanity_tm(p):
    warnings = []
    try:
        system = _wvm_system(p)
    except Exception as exc:  # a failed check is reported, never fatal
        return [f"parameters: coupler-transmittance check failed: "
                f"{type(exc).__name__}: {exc}"]
    if system.t_ex >= 1.0:
        warnings.append("parameters.f_int: balanced coupler transmittance "
                        "reaches 1; external rate must stay below omega_fsr/(4 pi)")
    return warnings


_CAVITY_OPT = {
    "c_in": "positive", "g": "positive", "kappa_in": "positive",
    "kappa_ex": "any", "delta_a": "real", "r_m": "any",
}

EXPERIMENTS = {
    "reflection_scan": ExperimentDef(
        "reflection_scan", _reflection_scan,
        required={"gamma": "positive", "delta": "real"},
        optional=_CAVITY_OPT,
        columns=("re_r0", "im_r0", "abs2_r0", "arg_r0",
                 "re_r1", "im_r1", "abs2_r1", "arg_r1")),
    "longpulse_metrics": ExperimentDef(
        "longpulse_metrics", _longpulse_metrics,
        required={"gamma": "positive"},
        optional=_CAVITY_OPT,
        columns=("f_c", "infidelity", "p_success", "leakage",
                 "p_conventional", "p_opt")),
    "bandwidth_scan": ExperimentDef(
        "bandwidth_scan", _bandwidth_scan,
        required={"gamma": "positive", "sigma_t": "positive"},
        optional=dict(_CAVITY_OPT, length_dev="real"),
        columns=("f_c", "infidelity", "p_success"),
        sanity=_sanity_bandwidth),
    "robustness": ExperimentDef(
        "robustness", _robustness,
        required={"gamma": "positive", "sigma_t": "positive",
                  "target": FluctuationSpec._TARGETS},
        optional=dict(_CAVITY_OPT, fwhm="nonneg", samples="posint",
                      length_dev="real", seed="any", samples_out="outfile"),
        columns=("mean_infidelity", "mean_success", "n_resampled"),
        sanity=_sanity_bandwidth),
    "crosstalk_scan": ExperimentDef(
        "crosstalk_scan", _crosstalk_scan,
        required={"gamma": "positive", "c_in": "positive", "n_atoms": "posint"},
        optional={"delta_a": "real", "delta_ratio": "positive"},
        columns=("delta_a", "exact_infidelity", "approx_infidelity",
                 "p_success", "per_atom_infidelity")),
    "source_characterize": ExperimentDef(
        "source_characterize", _source_characterize,
        required={"gamma": "positive", "sigma_t": "positive"},
        optional=dict(_CAVITY_OPT, p_br="prob",
                      level_scheme=(src.LAMBDA_3LVL, src.ENTANGLER_4LVL),
                      kernel_points="posint", kernel_out="outfile"),
        columns=("p_gen", "purity", "lambda_1", "lambda_2", "overlap_target")),
    "protocol_eval": ExperimentDef(
        "protocol_eval", _protocol_eval,
        required={"gamma": "positive", "sigma_t": "positive",
                  "c_in": "positive", "protocol": _PROTOCOLS},
        optional=dict({k: v for k, v in _CAVITY_OPT.items() if k != "c_in"},
                      p_br="prob", source=_SOURCES, source_c_in="positive",
                      kernel_in="str"),
        columns=("fidelity", "infidelity", "p_success", "p_gen",
                 "p_gen_times_p_opt"),
        sanity=_sanity_bandwidth),
    "tm_spectrum": ExperimentDef(
        "tm_spectrum", _tm_spectrum,
        required={"gamma": "positive", "omega_fsr": "positive",
                  "omega_a": "positive", "sigma0_over_aeff": "positive",
                  "c_over_vg": "positive", "f_int": "positive", "delta": "real"},
        optional={"n_channels": "posint", "atom_state": "any"},
        columns=("delta_rad_s", "re_r", "im_r", "abs2_r"),
        sanity=_sanity_tm, array_param="delta"),
    "wvm_crosstalk": ExperimentDef(
        "wvm_crosstalk", _wvm_crosstalk,
        required={"gamma": "positive", "omega_fsr": "positive",
                  "omega_a": "positive", "sigma0_over_aeff": "positive",
                  "c_over_vg": "positive", "f_int": "positive",
                  "n_channels": "posint"},
        optional={"trials": "posint", "n_atoms": "posint", "seed": "any"},
        columns=("trial", "channel", "infidelity", "mean_infidelity"),
        sanity=_sanity_tm),
    "rate_tables": ExperimentDef(
        "rate_tables", _rate_tables,
        required={"n_atoms": "posint", "tau_shuttle": "positive",
                  "sigma_t": "positive", "p_success": "prob"},
        optional={"n_channels": "posint", "pulse_spacing_factor": "positive",
                  "r_dark": "nonneg"},
        columns=("rate_time_mux", "rate_wavelength_mux", "remainder_atoms",
                 "dark_count_error")),
}


def check_value(name, kind, value, errors):
    if isinstance(kind, tuple):
        if value not in kind:
            errors.append(f"parameters.{name}: expected one of {', '.join(kind)}, "
                          f"got {value!r}")
        return
    if kind == "any":
        return
    check = _CHECKS.get(kind)
    if check is None:
        return
    if not check(value):
        errors.append(f"parameters.{name}: expected {kind}, got {value!r}")
