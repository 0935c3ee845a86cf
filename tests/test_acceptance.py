"""Acceptance suite: one test per release criterion, with printed verdicts.

Run as `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.  Tolerances are fixed here, not tuned at runtime.
"""

import math
import time
from dataclasses import replace

import numpy as np

from capsim.cavity import (CavityParams, InterfaceOptics, LengthModel,
                           WvmSystem, delay_matched_params, kappa_ex_opt, l_cav_opt,
                           matched_optics, pulse_delays, r_opt)
from capsim.config import parse_config
from capsim.crosstalk import (crosstalk_fidelity_approx, crosstalk_fidelity_exact,
                              matched_scenario)
from capsim.gate import caps_finite_bandwidth, caps_longpulse, robustness_mc
from capsim.protocols import matched_node, type1, type2, type3
from capsim.rates import MuxScenario, rate_time_mux, rate_wavelength_mux
from capsim.runner import run_sweep
from capsim.source import (ENTANGLER_4LVL, SourceSpec, decompose,
                           gaussian_target, mode_overlap, source_kernel)
from capsim.transfer_matrix import TmCavity, tm_reflectance, wvm_crosstalk
from helpers import table_bytes

GAMMA_YB = 2 * math.pi * 0.24e6


def _verdict(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {status} ({detail})")
    assert ok, f"criterion {number} {name}: {detail}"


def test_criterion_01_closed_form_layer():
    worst = 0.0
    for c_in in (0, 1, 10, 100, 400):
        kappa_in = GAMMA_YB
        p = CavityParams(g=math.sqrt(2 * c_in * kappa_in * GAMMA_YB),
                         kappa_in=kappa_in, gamma=GAMMA_YB,
                         kappa_ex=kappa_ex_opt(kappa_in, c_in))
        out = caps_longpulse(p, InterfaceOptics(r_m=1.0))
        s = math.sqrt(1 + 2 * c_in)
        worst = max(worst,
                    abs(out.infidelity - 0.4 / (1 + c_in)),
                    abs(out.p_success - (1 - s / (1 + c_in + s))))
    exact_unity = True
    for c_in in (1, 10, 100, 400):  # r_opt(0) = 0 never heralds: excluded
        p = delay_matched_params(c_in, GAMMA_YB)
        exact_unity &= caps_longpulse(p, matched_optics(p)).f_c == 1.0
    _verdict(1, "closed-form layer", worst <= 1e-12 and exact_unity,
             f"max deviation {worst:.2e}; matched-mirror f_c identically 1: "
             f"{exact_unity}")


def test_criterion_02_optimal_cavity_length():
    model = LengthModel(sigma0_over_Aeff=0.10, v_g=299792458.0 / 1.4,
                        L_cav=0.1, T_ex=0.01, alpha_loss=1e-3)
    l100 = l_cav_opt(model, GAMMA_YB, 100)
    l89 = l_cav_opt(model, GAMMA_YB, 89)
    ok = abs(l100 - 0.098) <= 0.01 * 0.098 and abs(l89 - 0.11) <= 0.02 * 0.11
    _verdict(2, "optimal cavity length",
             ok, f"L(100) = {l100 * 100:.2f} cm, L(89) = {l89 * 100:.2f} cm")


def test_criterion_03_bandwidth_criterion():
    worst, slowest = 0.0, 0.0
    for c_in in (10, 30, 100):
        p = delay_matched_params(c_in, GAMMA_YB)
        t0 = time.perf_counter()
        out = caps_finite_bandwidth(p, matched_optics(p), 5.2 * c_in**-0.60 / GAMMA_YB)
        slowest = max(slowest, time.perf_counter() - t0)
        worst = max(worst, out.infidelity)
    _verdict(3, "bandwidth criterion", worst <= 1.5e-4 and slowest < 1.0,
             f"max infidelity {worst:.2e} at the fit pulse width; "
             f"{slowest * 1e3:.0f} ms/point")


def test_criterion_04_delay_approximation():
    t0 = time.perf_counter()
    worst = 0.0
    for c_in in (10, 30):
        kappa_in = 0.2 / 3 * GAMMA_YB
        p = CavityParams(g=math.sqrt(2 * c_in * kappa_in * GAMMA_YB),
                         kappa_in=kappa_in, gamma=GAMMA_YB,
                         kappa_ex=kappa_ex_opt(kappa_in, c_in))
        tau_0, tau_1 = pulse_delays(p)
        for x in (0.15, 0.3):
            sigma_w = x / abs(tau_1 - tau_0)
            out = caps_finite_bandwidth(p, matched_optics(p), 1 / sigma_w)
            model = (tau_1 - tau_0) ** 2 * sigma_w**2 / 20
            worst = max(worst, abs(out.infidelity - model) / model)
    elapsed = time.perf_counter() - t0
    _verdict(4, "delay approximation", worst <= 0.10 and elapsed < 1.0,
             f"max relative deviation {worst * 100:.1f}%; {elapsed:.2f} s")


def test_criterion_05_crosstalk_model():
    t0 = time.perf_counter()
    worst = 0.0
    for c_in in (10, 100):
        for ratio in (2e2, 6.3e2, 2e3):
            delta_a = ratio * 200 * GAMMA_YB
            exact = crosstalk_fidelity_exact(
                matched_scenario(c_in, GAMMA_YB, 200, delta_a)).infidelity
            approx = crosstalk_fidelity_approx(c_in, 200, delta_a, GAMMA_YB)
            worst = max(worst, abs(exact - approx) / approx)
    elapsed = time.perf_counter() - t0
    _verdict(5, "multi-atom crosstalk", worst <= 0.20 and elapsed < 10.0,
             f"max exact-vs-model deviation {worst * 100:.1f}%; {elapsed:.2f} s")


def test_criterion_06_photon_source_golden_point():
    t0 = time.perf_counter()
    params = delay_matched_params(10, 1.0)
    golden = source_kernel(SourceSpec(params=params, p_br=0.5, target_sigma_t=1.0))
    pure = source_kernel(SourceSpec(params=params, p_br=0.0, target_sigma_t=1.0))
    lams = decompose(golden).eigenvalues
    overlap = mode_overlap(decompose(pure), gaussian_target(1.0))
    elapsed = time.perf_counter() - t0
    ok = (abs(lams[0] - 0.68) <= 0.02
          and abs(lams[1] - 0.025) <= 0.005
          and abs(golden.p_gen - 0.72) <= 0.02
          and pure.purity >= 0.999 and overlap >= 0.999
          and elapsed < 300.0)
    _verdict(6, "photon-source golden point", ok,
             f"lambda_1 = {lams[0]:.3f}, "
             f"lambda_2 = {lams[1]:.4f}, "
             f"p_gen = {golden.p_gen:.3f}, pure purity = {pure.purity:.5f}, "
             f"overlap = {overlap:.5f}; {elapsed:.0f} s")


def test_criterion_07_hom_identity(kernel_c10_golden):
    fid = type1(kernel_c10_golden, kernel_c10_golden).fidelity
    # purity from the eigenvalues, not kernel.purity, which type1 shares
    lams = decompose(kernel_c10_golden).eigenvalues
    purity = np.sum(lams**2) / np.sum(lams) ** 2
    dev = abs(fid - 0.5 * (1 + purity))
    _verdict(7, "interference-purity identity", dev <= 1e-6,
             f"|F - (1+V)/2| = {dev:.2e}")


def test_criterion_08_end_to_end_protocols():
    t0 = time.perf_counter()
    sigma_t = 1.5  # in units of 1/gamma; comfortably past one pulse width
    params = delay_matched_params(100, 1.0)
    k2 = source_kernel(SourceSpec(params=params, p_br=0.5, target_sigma_t=sigma_t))
    k3 = source_kernel(SourceSpec(params=params, p_br=0.5, target_sigma_t=sigma_t,
                                  level_scheme=ENTANGLER_4LVL))
    node = matched_node(100, 1.0, r_m=1.0)
    r2 = type2(node, node, k2)
    r3 = type3(k3, matched_node(100, 1.0))
    p_opt = r_opt(100) ** 2
    dev2 = abs(r2.p_success - k2.p_gen * p_opt) / (k2.p_gen * p_opt)
    dev3 = abs(r3.p_success - k3.p_gen * p_opt) / (k3.p_gen * p_opt)
    elapsed = time.perf_counter() - t0
    ok = ((1 - r2.fidelity) <= 3e-4 and (1 - r3.fidelity) <= 3e-4
          and dev2 <= 0.02 and dev3 <= 0.02 and elapsed < 600.0)
    _verdict(8, "end-to-end entanglement", ok,
             f"type-II infid {1 - r2.fidelity:.2e}, type-III infid "
             f"{1 - r3.fidelity:.2e}, success deviations {dev2 * 100:.2f}% / "
             f"{dev3 * 100:.2f}%; {elapsed:.0f} s")


def test_criterion_09_transfer_matrix_oracle():
    from capsim.cavity import reflection_r0, reflection_r1

    worst, slowest = 0.0, 0.0
    base = delay_matched_params(10, 1.0)
    for scale in (0.8, 1.0, 1.2):
        p = replace(base, kappa_ex=base.kappa_ex * scale)
        t_ex = 0.001
        omega_fsr = 4 * math.pi * p.kappa_ex / t_ex
        n0 = 1001
        cav = TmCavity(omega_fsr=omega_fsr, n0=n0, t_ex=t_ex,
                       t_in=4 * math.pi * p.kappa_in / omega_fsr,
                       atom_positions=np.array([((n0 - 1) // 2 + 0.5) / n0]),
                       gamma_1d=math.pi * p.g**2 / omega_fsr, gamma_total=2 * p.gamma,
                       atom_delta_a=np.array([0.0]))
        deltas = np.linspace(-5 * p.kappa, 5 * p.kappa, 301)
        t0 = time.perf_counter()
        err1 = np.max(np.abs(tm_reflectance(cav, deltas, [1])
                             - reflection_r1(p, deltas)))
        err0 = np.max(np.abs(tm_reflectance(cav, deltas, [0])
                             - reflection_r0(p, deltas)))
        slowest = max(slowest, time.perf_counter() - t0)
        worst = max(worst, err0, err1)
    _verdict(9, "transfer-matrix oracle", worst <= 1e-3 and slowest < 1.0,
             f"max |chain - single-mode| = {worst:.2e} over a 20% coupler "
             f"sweep; {slowest * 1e3:.0f} ms/scan")


def test_criterion_10_wavelength_mux_crosstalk():
    t0 = time.perf_counter()

    def system(f_int):
        return WvmSystem(gamma=GAMMA_YB, omega_fsr=2 * math.pi * 2.7e9,
                         omega_a=2 * math.pi * 220e12, sigma0_over_aeff=0.10,
                         c_over_vg=1.4, f_int=f_int)

    hi = wvm_crosstalk(system(2000), n_channels=10, trials=50, seed=11)
    lo = wvm_crosstalk(system(100), n_channels=10, trials=50, seed=11)
    elapsed = time.perf_counter() - t0
    ok = hi.mean_infidelity < 1e-6 and lo.mean_infidelity < 1e-4 and elapsed < 120.0
    _verdict(10, "wavelength-mux crosstalk", ok,
             f"mean infidelity {hi.mean_infidelity:.2e} (finesse 2000), "
             f"{lo.mean_infidelity:.2e} (finesse 100); {elapsed:.0f} s")


def test_criterion_11_networking_rates():
    single = rate_time_mux(MuxScenario(n_atoms=200, tau_s=100e-6,
                                       sigma_t=210e-9, p_success=0.65))
    multi = rate_wavelength_mux(MuxScenario(n_atoms=200, tau_s=100e-6,
                                            sigma_t=210e-9, p_success=0.65,
                                            n_channels=6))
    ok = single > 4e5 and multi >= 9e5
    _verdict(11, "networking rates", ok,
             f"single channel {single:.3g}/s, six channels {multi:.3g}/s")


def test_criterion_12_robustness_thresholds():
    t0 = time.perf_counter()
    p = delay_matched_params(100, GAMMA_YB)
    optics = matched_optics(p)
    sigma_t = 5.2 * 100**-0.60 / GAMMA_YB
    nominal = caps_finite_bandwidth(p, optics, sigma_t).infidelity
    g_fluct = robustness_mc(p, optics, sigma_t, "coupling_g", 0.20, samples=10_000, seed=12)
    jitter = robustness_mc(p, optics, sigma_t, "cavity_freq", 0.10, samples=10_000, seed=12)
    elapsed = time.perf_counter() - t0
    added = jitter.mean_infidelity - nominal
    ok = (g_fluct.mean_infidelity <= 1e-3 and added <= 2e-4
          and elapsed < 2 * 120.0)
    _verdict(12, "fluctuation robustness", ok,
             f"20% coupling FWHM -> {g_fluct.mean_infidelity:.2e}; 10% "
             f"resonance jitter adds {added:.2e}; {elapsed:.0f} s for two "
             f"10k-sample runs")


def test_criterion_13_determinism_across_workers():
    configs = [
        {"experiment": "robustness", "seed": 5,
         "parameters": {"gamma_2pi_MHz": 0.24, "c_in": 100, "sigma_t_ns": 217.6,
                        "target": "coupling_g", "samples": 64},
         "sweep": [{"name": "fwhm", "start": 0.0, "stop": 0.2, "points": 4,
                    "scale": "lin"}]},
        {"experiment": "wvm_crosstalk", "seed": 11,
         "parameters": {"gamma_2pi_MHz": 0.24, "omega_fsr_2pi_GHz": 2.7,
                        "omega_a_2pi_THz": 220, "sigma0_over_aeff": 0.10,
                        "c_over_vg": 1.4, "f_int": 2000, "trials": 2},
         "sweep": [{"name": "n_channels", "start": 2, "stop": 4, "points": 2,
                    "scale": "lin"}]},
    ]
    identical = True
    for raw in configs:
        cfg = parse_config(raw)
        rows_1, cols, _ = run_sweep(cfg, workers=1)
        rows_4, _, _ = run_sweep(cfg, workers=4)
        identical &= table_bytes(rows_1, cols) == table_bytes(rows_4, cols)
    _verdict(13, "worker-count determinism", identical,
             "CSV bodies byte-identical for workers in {1, 4}")
