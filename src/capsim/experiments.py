"""Experiment registry: one entry point per scenario type.

Each experiment is a pure function of its (unit-normalized) parameter map;
it returns one mapping {column: value} over its columns, each value a
float or int scalar (one row) or a sequence of them (one row per entry,
every column as long).  A column of any other dtype (bool, str,
object) is not an output: the runner writes an error row in its place.
The Monte-Carlo experiments draw from the config seed.  Each schema maps
a parameter name to its kind (see config.KINDS; a tuple is an enum of
its strings); the schemas drive config validation and the CLI's
physical-sanity report.  The registry itself reads only the numpy-free
cavity module: each experiment and sanity check imports the layer it
calls, so validating a config loads only what its check runs.
"""

import math
from dataclasses import dataclass

from . import cavity as cav


@dataclass(frozen=True)
class ExperimentDef:
    fn: callable
    required: dict
    optional: dict
    columns: tuple
    sanity: callable = None
    # parameter that fn also accepts as a 1-D array; fn then returns each
    # column as one float or int sequence, entry k for element k (length 1
    # for a scalar), and the runner hands it a whole sweep line at once
    array_param: str = None
    # groups of parameters fn reads in place of one another: the first group
    # whose first name is given, else the last group, must be given in full
    alternatives: tuple = ()


def _given(p, **casts):
    """The optional parameters p sets, each cast; the callee's defaults fill the rest."""
    return {name: cast(p[name]) for name, cast in casts.items() if name in p}


def _cavity_from(p):
    """Build CavityParams from either explicit rates or (c_in, gamma)."""
    gamma, detuning = p["gamma"], _given(p, delta_a=float)
    if "g" in p:
        g, kappa_in, kappa_ex = p["g"], p["kappa_in"], p.get("kappa_ex", "matched")
        if kappa_ex == "matched":  # kappa_ex_opt at c_in = CavityParams.c_in
            kappa_ex = cav.kappa_ex_opt(kappa_in, g**2 / (2.0 * kappa_in * gamma))
    elif "kappa_in" in p:
        c_in, kappa_in = p["c_in"], p["kappa_in"]
        g, kappa_ex = math.sqrt(2.0 * c_in * kappa_in * gamma), cav.kappa_ex_opt(kappa_in, c_in)
    else:
        return cav.delay_matched_params(p["c_in"], gamma, **detuning)
    return cav.CavityParams(g=g, kappa_in=kappa_in, kappa_ex=kappa_ex, gamma=gamma, **detuning)


def _mirror(p, params):
    """Mirror reflectivity r_m: 'matched' (the default) is r_opt, 'unity' is 1."""
    r_m, named = p.get("r_m", "matched"), {"matched": cav.r_opt(params.c_in), "unity": 1.0}
    return named[r_m] if r_m in named else float(r_m)


# --------------------------------------------------------------------------

def _reflection_scan(p):
    params = _cavity_from(p)
    delta = p["delta"]
    r0 = cav.reflection_r0(params, delta)
    r1 = cav.reflection_r1(params, delta)
    return {
        "re_r0": r0.real, "im_r0": r0.imag, "abs2_r0": abs(r0) ** 2,
        "arg_r0": math.atan2(r0.imag, r0.real),
        "re_r1": r1.real, "im_r1": r1.imag, "abs2_r1": abs(r1) ** 2,
        "arg_r1": math.atan2(r1.imag, r1.real),
    }


def _longpulse_metrics(p):
    from .gate import caps_longpulse

    # caps_longpulse reads only r_m: no mirror delay, so no pulse_delays (and its pole)
    params = _cavity_from(p)
    conventional = caps_longpulse(params, cav.InterfaceOptics(r_m=1.0))
    matched = caps_longpulse(params, cav.InterfaceOptics(r_m=cav.r_opt(params.c_in)))
    chosen = caps_longpulse(params, cav.InterfaceOptics(r_m=_mirror(p, params)))
    return {
        "f_c": chosen.f_c, "infidelity": chosen.infidelity,
        "p_success": chosen.p_success, "leakage": chosen.leakage,
        "p_conventional": conventional.p_success, "p_opt": matched.p_success,
    }


def _installed(p):
    """(params, optics) of the installed system.

    Optics stay calibrated at the nominal point; a static length_dev only
    rescales the installed cavity rates.
    """
    params = _cavity_from(p)
    optics = cav.matched_optics(params, r_m=_mirror(p, params))
    if p.get("length_dev", 0.0):
        params = cav.scaled_by_length_deviation(params, p["length_dev"])
    return params, optics


def _bandwidth_scan(p):
    from .gate import caps_finite_bandwidth

    params, optics = _installed(p)
    out = caps_finite_bandwidth(params, optics, p["sigma_t"])
    return {"f_c": out.f_c, "infidelity": out.infidelity, "p_success": out.p_success}


def _robustness(p):
    from .gate import robustness_mc

    params, optics = _installed(p)
    summary = robustness_mc(params, optics, p["sigma_t"], p["target"], p.get("fwhm", 0.0),
                            seed=int(p["seed"]), **_given(p, samples=int))
    if p.get("samples_out"):
        _write_samples(p["samples_out"], summary.samples)
    return {"mean_infidelity": summary.mean_infidelity,
            "mean_success": summary.mean_success,
            "n_resampled": summary.n_resampled}


def _write_samples(path, samples):
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["sample_id", "drawn_value", "f_c", "p"])
        for row in samples:
            writer.writerow([int(row[0])] + [repr(float(v)) for v in row[1:]])


def _crosstalk_scan(p):
    from . import crosstalk as ct

    gamma = p["gamma"]
    n_atoms = int(p["n_atoms"])
    delta_a = p["delta_ratio"] * n_atoms * gamma if "delta_ratio" in p else p["delta_a"]
    scenario = ct.matched_scenario(p["c_in"], gamma, n_atoms, delta_a)
    exact = ct.crosstalk_fidelity_exact(scenario)
    approx = ct.crosstalk_fidelity_approx(p["c_in"], n_atoms, delta_a, gamma)
    return {"delta_a": delta_a, "exact_infidelity": exact.infidelity,
            "approx_infidelity": approx, "p_success": exact.p_success,
            "per_atom_infidelity": ct.per_atom_infidelity(exact.infidelity, n_atoms)}


def _source_characterize(p):
    from . import source as src

    spec = src.SourceSpec(params=_cavity_from(p), p_br=p.get("p_br", 0.0),
                          target_sigma_t=p["sigma_t"],
                          **_given(p, level_scheme=str, kernel_points=int))
    kernel = src.source_kernel(spec)
    decomp = src.decompose(kernel)
    overlap = src.mode_overlap(decomp, src.gaussian_target(p["sigma_t"]))
    if p.get("kernel_out"):
        kernel.save(p["kernel_out"])
    lams = decomp.eigenvalues
    return {"p_gen": kernel.p_gen, "purity": kernel.purity,
            "lambda_1": float(lams[0]),
            "lambda_2": float(lams[1]) if lams.size > 1 else 0.0,
            "overlap_target": overlap}


_PROTOCOLS = ("memory_load", "type2", "type2_pair", "type3", "type1")
_SOURCES = ("cavity", "gaussian")


def _protocol_eval(p):
    from . import protocols as proto
    from .gate import GaussianPhoton

    gamma = p["gamma"]
    protocol = p["protocol"]
    sigma_t = p["sigma_t"]
    c_in = p["c_in"]
    node = proto.matched_node(c_in, gamma)
    p_opt = cav.r_opt(c_in) ** 2

    # type1 interferes two emitted photons; type2_pair loads a Gaussian pair
    if protocol == "type1" or (protocol != "type2_pair"
                               and p.get("source", "cavity") == "cavity"):
        from . import source as src

        if p.get("kernel_in"):  # a kernel exported by the source model
            photon = src.TemporalKernel.load(p["kernel_in"])
        else:
            scheme = (cav.ENTANGLER_4LVL if protocol in ("type3", "type1")
                      else cav.LAMBDA_3LVL)
            photon = src.source_kernel(src.SourceSpec(
                params=node.params, p_br=p.get("p_br", 0.5), target_sigma_t=sigma_t,
                level_scheme=scheme))
        p_gen = photon.p_gen
    else:
        photon, p_gen = GaussianPhoton(sigma_t), 1.0

    if protocol == "memory_load":
        result = proto.memory_load(node, photon)
    elif protocol == "type2":
        full = proto.matched_node(c_in, gamma, r_m=1.0)
        result = proto.type2(full, full, photon)
    elif protocol == "type2_pair":
        result = proto.type2_pair(node, node, (photon, photon))
    elif protocol == "type3":
        result = proto.type3(photon, node)
    else:
        result = proto.type1(photon, photon)
    return {"fidelity": result.fidelity, "infidelity": 1.0 - result.fidelity,
            "p_success": result.p_success, "p_gen": p_gen,
            "p_gen_times_p_opt": p_gen * p_opt}


def _wvm_system(p):
    return cav.WvmSystem(gamma=p["gamma"], omega_fsr=p["omega_fsr"],
                         omega_a=p["omega_a"],
                         sigma0_over_aeff=p["sigma0_over_aeff"],
                         c_over_vg=p["c_over_vg"], f_int=p["f_int"])


def _tm_spectrum(p):
    import numpy as np

    from . import transfer_matrix as tm

    n_ch = int(p.get("n_channels", 0))
    state = int(p.get("atom_state", 1))
    cavity = tm.channel_chain(_wvm_system(p), n_ch)
    deltas = np.atleast_1d(np.asarray(p["delta"], dtype=float))
    r = tm.tm_reflectance(cavity, deltas, atom_states=[state] * n_ch)
    # Python's abs(x) ** 2 of each element: np.abs(r) ** 2 rounds some last digits differently
    return {"delta_rad_s": deltas, "re_r": r.real, "im_r": r.imag,
            "abs2_r": np.array([abs(x) ** 2 for x in r.tolist()])}


def _wvm_crosstalk(p):
    from . import transfer_matrix as tm

    system = _wvm_system(p)
    res = tm.wvm_crosstalk(system, n_channels=int(p["n_channels"]),
                           trials=int(p.get("trials", 50)),
                           seed=int(p["seed"]),
                           **_given(p, n_atoms=int))
    trial, channel, infidelity = zip(*res.rows)
    return {"trial": trial, "channel": channel, "infidelity": infidelity,
            "mean_infidelity": [res.mean_infidelity] * len(trial)}


def _rate_tables(p):
    from . import rates as rt

    s = rt.MuxScenario(n_atoms=int(p["n_atoms"]), tau_s=p["tau_shuttle"],
                       sigma_t=p["sigma_t"], p_success=p["p_success"],
                       **_given(p, pulse_spacing_factor=float, n_channels=int, r_dark=float))
    return {"rate_time_mux": rt.rate_time_mux(s),
            "rate_wavelength_mux": rt.rate_wavelength_mux(s),
            "remainder_atoms": rt.remainder_atoms(s),
            "dark_count_error": rt.dark_count_error(s.sigma_t, s.r_dark)}


# --------------------------------------------------------------------------
# sanity checks (validation-time, no heavy execution)
# --------------------------------------------------------------------------

def _sanity_bandwidth(p):
    from .gate import min_sigma_t

    warnings = []
    if "sigma_t" in p and "c_in" in p:
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


_CAVITY = {"c_in": "positive", "g": "positive", "kappa_in": "positive",
           "kappa_ex": "coupling", "delta_a": "real"}
_OPTICS = dict(_CAVITY, r_m="mirror")
_CAVITY_FROM = (("g", "kappa_in"), ("c_in",))  # _cavity_from's two ways to build a cavity
_WVM = dict.fromkeys(("gamma", "omega_fsr", "omega_a", "sigma0_over_aeff", "c_over_vg",
                      "f_int"), "positive")  # _wvm_system's rates

EXPERIMENTS = {
    "reflection_scan": ExperimentDef(
        _reflection_scan,
        required={"gamma": "positive", "delta": "real"},
        optional=_CAVITY, alternatives=_CAVITY_FROM,
        columns=("re_r0", "im_r0", "abs2_r0", "arg_r0",
                 "re_r1", "im_r1", "abs2_r1", "arg_r1")),
    "longpulse_metrics": ExperimentDef(
        _longpulse_metrics,
        required={"gamma": "positive"},
        optional=_OPTICS, alternatives=_CAVITY_FROM,
        columns=("f_c", "infidelity", "p_success", "leakage",
                 "p_conventional", "p_opt")),
    "bandwidth_scan": ExperimentDef(
        _bandwidth_scan,
        required={"gamma": "positive", "sigma_t": "positive"},
        optional=dict(_OPTICS, length_dev="real"), alternatives=_CAVITY_FROM,
        columns=("f_c", "infidelity", "p_success"),
        sanity=_sanity_bandwidth),
    "robustness": ExperimentDef(
        _robustness,
        required={"gamma": "positive", "sigma_t": "positive",
                  "target": cav.FLUCTUATION_TARGETS},
        optional=dict(_OPTICS, fwhm="nonneg", samples="posint",
                      length_dev="real", samples_out="outfile"),
        alternatives=_CAVITY_FROM,
        columns=("mean_infidelity", "mean_success", "n_resampled"),
        sanity=_sanity_bandwidth),
    "crosstalk_scan": ExperimentDef(
        _crosstalk_scan,
        required={"gamma": "positive", "c_in": "positive", "n_atoms": "posint"},
        optional={"delta_a": "real", "delta_ratio": "positive"},
        alternatives=(("delta_ratio",), ("delta_a",)),
        columns=("delta_a", "exact_infidelity", "approx_infidelity",
                 "p_success", "per_atom_infidelity")),
    "source_characterize": ExperimentDef(
        _source_characterize,
        required={"gamma": "positive", "sigma_t": "positive"},
        optional=dict(_CAVITY, p_br="prob",
                      level_scheme=(cav.LAMBDA_3LVL, cav.ENTANGLER_4LVL),
                      kernel_points="posint", kernel_out="outfile"),
        alternatives=_CAVITY_FROM,
        columns=("p_gen", "purity", "lambda_1", "lambda_2", "overlap_target")),
    "protocol_eval": ExperimentDef(
        _protocol_eval,
        required={"gamma": "positive", "sigma_t": "positive",
                  "c_in": "positive", "protocol": _PROTOCOLS},
        optional={"p_br": "prob", "source": _SOURCES, "kernel_in": "str"},
        columns=("fidelity", "infidelity", "p_success", "p_gen",
                 "p_gen_times_p_opt"),
        sanity=_sanity_bandwidth),
    "tm_spectrum": ExperimentDef(
        _tm_spectrum,
        required=dict(_WVM, delta="real"),
        optional={"n_channels": "posint", "atom_state": "bit"},
        columns=("delta_rad_s", "re_r", "im_r", "abs2_r"),
        sanity=_sanity_tm, array_param="delta"),
    "wvm_crosstalk": ExperimentDef(
        _wvm_crosstalk,
        required=dict(_WVM, n_channels="posint"),
        optional={"trials": "posint", "n_atoms": "posint"},
        columns=("trial", "channel", "infidelity", "mean_infidelity"),
        sanity=_sanity_tm),
    "rate_tables": ExperimentDef(
        _rate_tables,
        required={"n_atoms": "posint", "tau_shuttle": "positive",
                  "sigma_t": "positive", "p_success": "prob"},
        optional={"n_channels": "posint", "pulse_spacing_factor": "positive",
                  "r_dark": "nonneg"},
        columns=("rate_time_mux", "rate_wavelength_mux", "remainder_atoms",
                 "dark_count_error")),
}

