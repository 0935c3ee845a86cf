import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capsim import gate
from capsim.cavity import (CavityParams, InterfaceOptics, delay_matched_params,
                           kappa_ex_opt, matched_optics, pulse_delays, r_opt,
                           reflection_r0, reflection_r1,
                           scaled_by_length_deviation)
from capsim.errors import ConvergenceError, DomainError
from capsim.gate import (FluctuationSpec, GateOutcome, GateScenario,
                         SpectralMode, caps_finite_bandwidth, caps_longpulse,
                         gaussian_mode, min_sigma_t, robustness_mc)

GAMMA = 1.0


def _matched(c_in):
    p = delay_matched_params(c_in, GAMMA)
    return p, matched_optics(p)


# --------------------------------------------------------------------------
# Gaussian mode construction
# --------------------------------------------------------------------------

def test_gaussian_mode_norm():
    mode = gaussian_mode(2.0)
    assert mode.norm2() == pytest.approx(1.0, abs=1e-10)


def test_gaussian_mode_spectral_fwhm():
    sigma_t = 0.7
    mode = gaussian_mode(sigma_t)
    amp = np.abs(mode.amplitude)
    half = 0.5 * np.max(amp)
    above = np.where(amp >= half)[0]
    # linear interpolation of the two half-maximum crossings
    lo_i, hi_i = above[0], above[-1]
    x = mode.grid

    def cross(i, j):
        return x[i] + (half - amp[i]) * (x[j] - x[i]) / (amp[j] - amp[i])

    width = cross(hi_i, hi_i + 1) - cross(lo_i, lo_i - 1)
    assert width == pytest.approx(2 * math.sqrt(2 * math.log(2)) / sigma_t, rel=1e-3)


def test_gaussian_mode_is_its_own_fourier_pair():
    sigma_t = 1.3
    mode = gaussian_mode(sigma_t)
    t = np.linspace(-4 * sigma_t, 4 * sigma_t, 41)
    ft = mode.weights * mode.amplitude @ np.exp(-1j * np.outer(mode.grid, t))
    ft /= math.sqrt(2 * math.pi)
    expected = (math.pi * sigma_t**2) ** -0.25 * np.exp(-(t**2) / (2 * sigma_t**2))
    assert np.max(np.abs(ft - expected)) < 1e-8


def test_gaussian_mode_rejects_bad_grids():
    with pytest.raises(DomainError):
        gaussian_mode(1.0, n_points=8)
    with pytest.raises(DomainError):
        gaussian_mode(1.0, n_points=2048)
    with pytest.raises(DomainError):
        gaussian_mode(-1.0)


# --------------------------------------------------------------------------
# Long-pulse limit
# --------------------------------------------------------------------------

@pytest.mark.parametrize("c_in", [0, 1, 10, 100, 400])
def test_longpulse_closed_forms(c_in):
    kappa_in = GAMMA
    g = math.sqrt(2 * c_in * kappa_in * GAMMA)
    p = CavityParams(g=g, kappa_in=kappa_in, gamma=GAMMA,
                     kappa_ex=kappa_ex_opt(kappa_in, c_in))
    out = caps_longpulse(p, InterfaceOptics(r_m=1.0))
    s = math.sqrt(1 + 2 * c_in)
    assert out.infidelity == pytest.approx(0.4 / (1 + c_in), abs=1e-12)
    assert out.p_success == pytest.approx(1 - s / (1 + c_in + s), abs=1e-12)


@pytest.mark.parametrize("c_in", [1, 10, 100, 400])
def test_longpulse_matched_mirror_reaches_unit_fidelity(c_in):
    p, optics = _matched(c_in)
    out = caps_longpulse(p, optics)
    assert out.f_c == 1.0
    assert out.p_success == pytest.approx(r_opt(c_in) ** 2, abs=1e-12)


def test_longpulse_zero_cooperativity_reference():
    p = CavityParams(g=0.0, kappa_in=1.0, kappa_ex=1.0, gamma=GAMMA)
    out = caps_longpulse(p, InterfaceOptics(r_m=1.0))
    assert out.infidelity == pytest.approx(0.4, abs=1e-12)


def test_longpulse_degenerate_heralding_is_domain_error():
    p = CavityParams(g=0.0, kappa_in=1.0, kappa_ex=1.0, gamma=GAMMA)
    with pytest.raises(DomainError):
        caps_longpulse(p, InterfaceOptics(r_m=1e-300))


# --------------------------------------------------------------------------
# Finite bandwidth
# --------------------------------------------------------------------------

def test_long_pulse_limit_recovers_longpulse_metrics():
    p, optics = _matched(100)
    fb = caps_finite_bandwidth(p, optics, gaussian_mode(1e4))
    lp = caps_longpulse(p, optics)
    assert fb.f_c == pytest.approx(lp.f_c, abs=1e-6)
    assert fb.p_success == pytest.approx(lp.p_success, abs=1e-6)


@pytest.mark.parametrize("c_in", [10, 30, 100])
def test_minimum_pulse_width_fit_point(c_in):
    # empirical fit sigma_t = 5.2 C^-0.60 / gamma keeps infidelity near 1e-4
    p, optics = _matched(c_in)
    mode = gaussian_mode(5.2 * c_in**-0.60 / GAMMA)
    assert caps_finite_bandwidth(p, optics, mode).infidelity <= 1.2e-4


@pytest.mark.parametrize("c_in", [10, 30])
@pytest.mark.parametrize("delay_bw", [0.15, 0.3])
def test_delay_dominated_infidelity_matches_quadratic_model(c_in, delay_bw):
    kappa_in = 0.2 / 3 * GAMMA  # violates delay matching: tau_1 != tau_0
    g = math.sqrt(2 * c_in * kappa_in * GAMMA)
    p = CavityParams(g=g, kappa_in=kappa_in, gamma=GAMMA,
                     kappa_ex=kappa_ex_opt(kappa_in, c_in))
    tau_0, tau_1 = pulse_delays(p)
    sigma_w = delay_bw / abs(tau_1 - tau_0)
    out = caps_finite_bandwidth(p, matched_optics(p), gaussian_mode(1 / sigma_w))
    model = (tau_1 - tau_0) ** 2 * sigma_w**2 / 20
    assert out.infidelity == pytest.approx(model, rel=0.1)


def test_infidelity_monotone_in_pulse_width():
    p, optics = _matched(30)
    infs = [caps_finite_bandwidth(p, optics, gaussian_mode(s)).infidelity
            for s in np.geomspace(0.05, 50, 10)]
    assert all(b <= a + 1e-15 for a, b in zip(infs, infs[1:]))


def test_grid_reflection_symmetry():
    p, optics = _matched(20)
    mode = gaussian_mode(0.8)
    flipped = SpectralMode(grid=-mode.grid[::-1],
                           amplitude=mode.amplitude[::-1],
                           weights=mode.weights[::-1])
    a = caps_finite_bandwidth(p, optics, mode)
    b = caps_finite_bandwidth(p, optics, flipped)
    assert a.f_c == pytest.approx(b.f_c, abs=1e-10)
    assert a.p_success == pytest.approx(b.p_success, abs=1e-10)


def test_quadrature_refinement_converged_at_default_resolution():
    # the public evaluation embeds the refinement check; explicit doubling
    # of the point count here pins the 1e-8 contract independently
    p, optics = _matched(10)
    full = caps_finite_bandwidth(p, optics, gaussian_mode(0.5))
    dense = caps_finite_bandwidth(p, optics, gaussian_mode(0.5, n_points=4097))
    assert abs(full.f_c - dense.f_c) < 1e-8


def test_min_sigma_t_inverts_the_infidelity_curve():
    p, optics = _matched(30)
    sigma = min_sigma_t(30, GAMMA, target_infidelity=1e-4)
    at = caps_finite_bandwidth(p, optics, gaussian_mode(sigma)).infidelity
    below = caps_finite_bandwidth(p, optics, gaussian_mode(sigma * 0.9)).infidelity
    assert at <= 1e-4
    assert below > 1e-4 * 0.9


# --------------------------------------------------------------------------
# Fluctuation Monte-Carlo
# --------------------------------------------------------------------------

def _scenario(c_in=100, sigma_t=None):
    p, optics = _matched(c_in)
    if sigma_t is None:
        sigma_t = 5.2 * c_in**-0.60 / GAMMA
    return GateScenario(params=p, optics=optics, mode=gaussian_mode(sigma_t))


def test_zero_fwhm_reproduces_nominal():
    base = _scenario()
    summary = robustness_mc(base, FluctuationSpec(target="coupling_g", fwhm=0.0,
                                                  samples=3, seed=1))
    nominal = caps_finite_bandwidth(base.params, base.optics, base.mode)
    assert summary.mean_fidelity == pytest.approx(nominal.f_c, abs=1e-15)
    assert summary.mean_success == pytest.approx(nominal.p_success, abs=1e-15)


def test_mc_deterministic_for_fixed_seed():
    base = _scenario()
    spec = FluctuationSpec(target="coupling_g", fwhm=0.2, samples=64, seed=42)
    a = robustness_mc(base, spec)
    b = robustness_mc(base, spec)
    assert a.mean_fidelity == b.mean_fidelity
    assert np.array_equal(a.samples, b.samples)


def test_mc_seed_changes_draws():
    base = _scenario()
    a = robustness_mc(base, FluctuationSpec("coupling_g", 0.2, samples=32, seed=1))
    b = robustness_mc(base, FluctuationSpec("coupling_g", 0.2, samples=32, seed=2))
    assert not np.array_equal(a.samples[:, 1], b.samples[:, 1])


def test_mc_resamples_invalid_draws():
    base = _scenario()
    # FWHM so large that some draws push g negative and must be redrawn
    spec = FluctuationSpec(target="coupling_g", fwhm=2.5, samples=256, seed=3)
    summary = robustness_mc(base, spec)
    assert summary.n_resampled > 0
    assert summary.n_samples == 256


def test_gate_outcome_validation():
    with pytest.raises(DomainError):
        GateOutcome(f_c=1.2, p_success=0.5)
    out = GateOutcome(f_c=1.0 + 5e-13, p_success=1e-13)
    assert out.f_c == 1.0
    assert out.p_success == 0.0


# --------------------------------------------------------------------------
# Blocked kernel against a per-sample reference loop
# --------------------------------------------------------------------------

def _reference_metrics(params, optics, f, grid, weights, cavity_shift):
    # one sample, one pass: the filtered responses summed on the given grid
    delta = grid - cavity_shift
    filt = np.exp(-1j * optics.tau_m * grid)
    f0 = filt * reflection_r0(params, delta) * f
    f1 = filt * reflection_r1(params, delta) * f
    n00 = np.sum(weights * np.abs(f0) ** 2).real
    n11 = np.sum(weights * np.abs(f1) ** 2).real
    o0 = np.sum(weights * np.conj(f) * f0)
    o1 = np.sum(weights * np.conj(f) * f1)
    one_minus_l = (2.0 * optics.r_m**2 + n00 + n11) / 4.0
    f_pro = abs(2.0 * optics.r_m - o0 + o1) ** 2 / 16.0
    if one_minus_l <= 0.0:
        raise DomainError("zero heralding probability")
    return 1.0 - 0.8 * (1.0 - f_pro / one_minus_l), one_minus_l


def _reference_outcome(base, target, x, sigma_w):
    params, shift = base.params, 0.0
    if target == "coupling_g":
        if params.g * (1.0 + x) <= 0.0:
            raise DomainError("non-positive coupling draw")
        params = params.with_(g=params.g * (1.0 + x))
    elif target == "length":
        params = scaled_by_length_deviation(params, x)
    else:
        shift = x * sigma_w
        params = params.with_(delta_a=params.delta_a - shift)
    mode = base.mode
    grid_c = mode.grid[::2]
    w_c = np.ones(grid_c.size)
    w_c[1:-1:2] = 4.0
    w_c[2:-2:2] = 2.0
    w_c *= (grid_c[1] - grid_c[0]) / 3.0
    f_c_coarse, _ = _reference_metrics(params, base.optics, mode.amplitude[::2],
                                       grid_c, w_c, shift)
    f_c, p = _reference_metrics(params, base.optics, mode.amplitude, mode.grid,
                                mode.weights, shift)
    if abs(f_c_coarse - f_c) > 1e-8:
        raise ConvergenceError("quadrature not converged")
    return GateOutcome(f_c=f_c, p_success=p)


def _reference_robustness(base, spec):
    """Records and resample count of a plain one-sample-at-a-time loop."""
    sigma = spec.fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    a2 = np.abs(base.mode.amplitude) ** 2
    w = base.mode.weights
    sigma_w = math.sqrt(2.0 * np.sum(w * a2 * base.mode.grid**2) / np.sum(w * a2))
    records = np.empty((spec.samples, 4))
    n_resampled = 0
    for i in range(spec.samples):
        rng = np.random.default_rng([spec.seed, i])
        for _ in range(11):
            x = rng.normal(0.0, sigma) if spec.fwhm > 0.0 else 0.0
            try:
                out = _reference_outcome(base, spec.target, x, sigma_w)
            except DomainError:
                n_resampled += 1
                continue
            break
        else:
            raise DomainError(f"sample {i}: no valid draw")
        records[i] = (i, x, out.f_c, out.p_success)
    return records, n_resampled


@pytest.mark.parametrize("target, fwhm", [("coupling_g", 0.2), ("coupling_g", 2.5),
                                          ("cavity_freq", 0.5), ("length", 0.3)])
def test_blocked_kernel_matches_per_sample_loop(target, fwhm):
    base = _scenario()
    spec = FluctuationSpec(target=target, fwhm=fwhm, samples=61, seed=3)
    summary = robustness_mc(base, spec)
    records, n_resampled = _reference_robustness(base, spec)
    assert np.array_equal(summary.samples[:, :2], records[:, :2])
    assert summary.n_resampled == n_resampled
    assert np.max(np.abs(summary.samples[:, 2:] - records[:, 2:])) <= 1e-14
    if fwhm > 1.0:
        assert n_resampled > 0


@pytest.mark.parametrize("target, fwhm", [("coupling_g", 2.5), ("cavity_freq", 0.5)])
def test_records_independent_of_sample_count(target, fwhm):
    base = _scenario()
    short = robustness_mc(base, FluctuationSpec(target, fwhm, samples=7, seed=9))
    long = robustness_mc(base, FluctuationSpec(target, fwhm, samples=64, seed=9))
    assert np.array_equal(short.samples, long.samples[:7])


def test_under_resolved_mode_raises_convergence_error():
    p, optics = _matched(100)
    base = GateScenario(params=p, optics=optics, mode=gaussian_mode(0.05, n_points=17))
    with pytest.raises(ConvergenceError):
        robustness_mc(base, FluctuationSpec("coupling_g", 0.2, samples=8, seed=1))


def test_lowest_failing_sample_raises(monkeypatch):
    # sample 1 fails its quadrature check on the first attempt, but sample
    # 0 runs out of valid draws first in index order
    calls = []

    def outcome(f_pro, one_minus_l):
        calls.append(None)
        if len(calls) == 2:
            raise ConvergenceError("sample 1")
        raise DomainError("invalid")

    monkeypatch.setattr(gate, "_outcome", outcome)
    with pytest.raises(DomainError, match="sample 0: no valid draw"):
        robustness_mc(_scenario(), FluctuationSpec("coupling_g", 0.2, samples=3, seed=1))


# --------------------------------------------------------------------------
# Properties
# --------------------------------------------------------------------------

_RATE = st.floats(1e-3, 1e3)
_DETUNING = st.floats(-1e4, 1e4)


@settings(max_examples=200, deadline=None)
@given(g=st.floats(0.0, 1e3), kappa_in=_RATE, kappa_ex=_RATE, gamma=_RATE,
       delta_a=_DETUNING, delta=_DETUNING)
def test_passive_reflection_bounded(g, kappa_in, kappa_ex, gamma, delta_a, delta):
    p = CavityParams(g=g, kappa_in=kappa_in, kappa_ex=kappa_ex, gamma=gamma,
                     delta_a=delta_a)
    assert abs(reflection_r0(p, delta)) <= 1.0 + 1e-12
    assert abs(reflection_r1(p, delta)) <= 1.0 + 1e-12


@settings(max_examples=300, deadline=None)
@given(f_c=st.floats(-0.5, 1.5), p=st.floats(-0.5, 1.5))
def test_gate_outcome_bounds(f_c, p):
    try:
        out = GateOutcome(f_c=f_c, p_success=p)
    except DomainError:
        assert not (-1e-12 <= f_c <= 1.0 + 1e-12 and -1e-12 <= p <= 1.0 + 1e-12)
        return
    for value in (out.f_c, out.p_success, out.leakage):
        assert 0.0 <= value <= 1.0
    assert out.p_success + out.leakage == pytest.approx(1.0, abs=1e-12)
