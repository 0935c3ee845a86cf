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
from capsim.errors import DomainError
from capsim.gate import (FluctuationSpec, GateOutcome, GateScenario,
                         GaussianPhoton, caps_finite_bandwidth, caps_longpulse,
                         min_sigma_t, robustness_mc)

GAMMA = 1.0


def _matched(c_in):
    p = delay_matched_params(c_in, GAMMA)
    return p, matched_optics(p)


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
    lp = caps_longpulse(p, optics)
    for sigma_t, tol in ((1e4, 1e-6), (1e6, 1e-12)):
        fb = caps_finite_bandwidth(p, optics, sigma_t / GAMMA)
        assert fb.f_c == pytest.approx(lp.f_c, abs=tol)
        assert fb.p_success == pytest.approx(lp.p_success, abs=tol)


@pytest.mark.parametrize("c_in", [10, 30, 100])
def test_minimum_pulse_width_fit_point(c_in):
    # empirical fit sigma_t = 5.2 C^-0.60 / gamma keeps infidelity near 1e-4
    p, optics = _matched(c_in)
    assert caps_finite_bandwidth(p, optics, 5.2 * c_in**-0.60 / GAMMA).infidelity <= 1.2e-4


@pytest.mark.parametrize("c_in", [10, 30])
@pytest.mark.parametrize("delay_bw", [0.15, 0.3])
def test_delay_dominated_infidelity_matches_quadratic_model(c_in, delay_bw):
    kappa_in = 0.2 / 3 * GAMMA  # violates delay matching: tau_1 != tau_0
    g = math.sqrt(2 * c_in * kappa_in * GAMMA)
    p = CavityParams(g=g, kappa_in=kappa_in, gamma=GAMMA,
                     kappa_ex=kappa_ex_opt(kappa_in, c_in))
    tau_0, tau_1 = pulse_delays(p)
    sigma_w = delay_bw / abs(tau_1 - tau_0)
    out = caps_finite_bandwidth(p, matched_optics(p), 1 / sigma_w)
    model = (tau_1 - tau_0) ** 2 * sigma_w**2 / 20
    assert out.infidelity == pytest.approx(model, rel=0.1)


def test_infidelity_monotone_in_pulse_width():
    p, optics = _matched(30)
    infs = [caps_finite_bandwidth(p, optics, s).infidelity
            for s in np.geomspace(0.05, 50, 10)]
    assert all(b <= a + 1e-15 for a, b in zip(infs, infs[1:]))


def test_grid_reflection_symmetry():
    # mirroring the detuning axis: r(-d; delta_a) = conj r(d; -delta_a), so
    # (delta_a, shift) and (-delta_a, -shift) give the same metrics
    p, optics = _matched(20)
    for delta_a, shift in ((0.7, 0.3), (-2.0, 1.1), (0.0, 0.5)):
        a = caps_finite_bandwidth(p.with_(delta_a=delta_a), optics, 0.8, shift)
        b = caps_finite_bandwidth(p.with_(delta_a=-delta_a), optics, 0.8, -shift)
        assert a.f_c == pytest.approx(b.f_c, abs=1e-14)
        assert a.p_success == pytest.approx(b.p_success, abs=1e-14)


def _simpson_metrics(params, optics, sigma_t, cavity_shift, n=4097):
    """(f_pro, one_minus_l) by composite Simpson over +-8 bandwidths."""
    sigma_w = 1.0 / sigma_t
    d = np.linspace(-8.0 * sigma_w, 8.0 * sigma_w, n)
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-2:2] = 2.0
    w *= (d[1] - d[0]) / 3.0 * np.exp(-(d / sigma_w) ** 2) / (math.sqrt(math.pi) * sigma_w)
    r0 = reflection_r0(params, d - cavity_shift)
    r1 = reflection_r1(params, d - cavity_shift)
    one_minus_l = (2.0 * optics.r_m**2 + np.sum(w * (np.abs(r0) ** 2 + np.abs(r1) ** 2))) / 4.0
    overlap = np.sum(w * np.exp(-1j * optics.tau_m * d) * (r1 - r0))
    return abs(2.0 * optics.r_m + overlap) ** 2 / 16.0, one_minus_l


def _oracle_cases():
    rng = np.random.default_rng(2024)
    for _ in range(24):  # random rates, detunings and shifts
        c_in = 10 ** rng.uniform(0, math.log10(400))
        sigma_t = 10 ** rng.uniform(math.log10(0.05), math.log10(5))
        p = delay_matched_params(c_in, GAMMA)
        p = p.with_(g=p.g * rng.uniform(0.7, 1.3), delta_a=rng.normal(0, 2))
        yield p, matched_optics(p), sigma_t, rng.normal(0, 0.5) / sigma_t
    p, optics = _matched(10)
    for tau_sigma_w in (4.0, 8.0):  # a long mirror delay against the bandwidth
        yield p, InterfaceOptics(r_m=optics.r_m, tau_m=tau_sigma_w * 0.7), 0.7, 0.2
    # the r1 poles merge at g = |kappa - gamma|/2: both sides of the switch
    kappa_in, kappa_ex, gamma = 1.0, 2.0, 1.0
    g_ep = abs(kappa_in + kappa_ex - gamma) / 2
    for rel in (0.0, 1e-9, -1e-9, 1e-6, -1e-6, 1e-4, -1e-4, 1e-3, -1e-3, 1e-2, -1e-2):
        p = CavityParams(g=g_ep * (1 + rel), kappa_in=kappa_in, kappa_ex=kappa_ex,
                         gamma=gamma)
        for sigma_t in (0.05, 1.0, 5.0, 1e3):
            yield p, InterfaceOptics(r_m=0.7, tau_m=0.4), sigma_t, 0.0


def test_closed_form_matches_quadrature_oracle():
    for params, optics, sigma_t, shift in _oracle_cases():
        f_pro, one_minus_l = gate._gate_metrics(
            optics, sigma_t, params.g, params.kappa_in, params.kappa_ex,
            params.gamma, params.delta_a, shift)
        ref_f_pro, ref_one_minus_l = _simpson_metrics(params, optics, sigma_t, shift)
        assert abs(f_pro[0] - ref_f_pro) <= 1e-12
        assert abs(one_minus_l[0] - ref_one_minus_l) <= 1e-12
        f_c = caps_finite_bandwidth(params, optics, sigma_t, shift).f_c
        assert abs(f_c - (1.0 - 0.8 * (1.0 - ref_f_pro / ref_one_minus_l))) <= 1e-12


@pytest.mark.parametrize("sigma_t", [0.0, -1.0, float("nan")])
def test_nonpositive_pulse_width_rejected(sigma_t):
    p, optics = _matched(10)
    with pytest.raises(DomainError):
        caps_finite_bandwidth(p, optics, sigma_t)
    with pytest.raises(DomainError):
        GateScenario(params=p, optics=optics, sigma_t=sigma_t)
    with pytest.raises(DomainError):
        GaussianPhoton(sigma_t)


def test_min_sigma_t_inverts_the_infidelity_curve():
    p, optics = _matched(30)
    sigma = min_sigma_t(30, GAMMA, target_infidelity=1e-4)
    at = caps_finite_bandwidth(p, optics, sigma).infidelity
    below = caps_finite_bandwidth(p, optics, sigma * 0.9).infidelity
    assert at <= 1e-4
    assert below > 1e-4 * 0.9


# --------------------------------------------------------------------------
# Fluctuation Monte-Carlo
# --------------------------------------------------------------------------

def _scenario(c_in=100, sigma_t=None):
    p, optics = _matched(c_in)
    if sigma_t is None:
        sigma_t = 5.2 * c_in**-0.60 / GAMMA
    return GateScenario(params=p, optics=optics, sigma_t=sigma_t)


def test_zero_fwhm_reproduces_nominal():
    base = _scenario()
    summary = robustness_mc(base, FluctuationSpec(target="coupling_g", fwhm=0.0,
                                                  samples=3, seed=1))
    nominal = caps_finite_bandwidth(base.params, base.optics, base.sigma_t)
    assert summary.mean_fidelity == pytest.approx(nominal.f_c, abs=1e-15)
    assert summary.mean_success == pytest.approx(nominal.p_success, abs=1e-15)


def test_zero_fwhm_builds_no_random_streams(monkeypatch):
    built = []
    default_rng = np.random.default_rng

    def counting_rng(seed):
        built.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    robustness_mc(_scenario(), FluctuationSpec("coupling_g", 0.0, samples=50, seed=1))
    assert built == []
    robustness_mc(_scenario(), FluctuationSpec("coupling_g", 0.1, samples=5, seed=1))
    assert built == [[1, i] for i in range(5)]


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
# One kernel call over all samples against a per-sample reference loop
# --------------------------------------------------------------------------

def _reference_outcome(base, target, x):
    params, shift = base.params, 0.0
    if target == "coupling_g":
        if params.g * (1.0 + x) <= 0.0:
            raise DomainError("non-positive coupling draw")
        params = params.with_(g=params.g * (1.0 + x))
    elif target == "length":
        params = scaled_by_length_deviation(params, x)
    else:
        shift = x / base.sigma_t
        params = params.with_(delta_a=params.delta_a - shift)
    return caps_finite_bandwidth(params, base.optics, base.sigma_t, shift)


def _reference_robustness(base, spec):
    """Records and resample count of a plain one-sample-at-a-time loop."""
    sigma = spec.fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    records = np.empty((spec.samples, 4))
    n_resampled = 0
    for i in range(spec.samples):
        rng = np.random.default_rng([spec.seed, i])
        for _ in range(11):
            x = rng.normal(0.0, sigma) if spec.fwhm > 0.0 else 0.0
            try:
                out = _reference_outcome(base, spec.target, x)
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


def test_lowest_failing_sample_raises(monkeypatch):
    # one draw per sample, about half of them invalid: the error names the
    # lowest sample left without a valid draw
    monkeypatch.setattr(gate, "_RESAMPLE_CAP", 0)
    spec = FluctuationSpec("coupling_g", 1e3, samples=8, seed=1)
    sigma = spec.fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    invalid = [i for i in range(spec.samples)
               if np.random.default_rng([spec.seed, i]).normal(0.0, sigma) <= -1.0]
    assert len(invalid) >= 2 and invalid[0] > 0
    with pytest.raises(DomainError, match=f"sample {invalid[0]}: no valid draw"):
        robustness_mc(_scenario(), spec)


def _stub_metrics(monkeypatch, bad_row):
    """Make the kernel return nominal rows, with bad_row = (f_pro, 1 - L) at row 2."""
    def metrics(optics, sigma_t, g, *rates):
        f_pro, one_minus_l = np.full(g.shape, 0.9), np.full(g.shape, 0.95)
        f_pro[2], one_minus_l[2] = bad_row
        return f_pro, one_minus_l

    monkeypatch.setattr(gate, "_gate_metrics", metrics)


@pytest.mark.parametrize("bad_row", [(0.6, 0.5), (-0.2, 0.5), (1.485, 1.5), (0.5, 0.0),
                                     (0.5, -0.1), (np.nan, 0.5)])
def test_rows_outside_unit_interval_raise_as_one_outcome(monkeypatch, bad_row):
    with pytest.raises(DomainError) as scalar:
        GateOutcome(f_c=gate._conditional(*bad_row), p_success=bad_row[1])
    _stub_metrics(monkeypatch, bad_row)
    with pytest.raises(DomainError) as rows:
        robustness_mc(_scenario(), FluctuationSpec("coupling_g", 0.2, samples=5, seed=1))
    assert str(rows.value) == str(scalar.value)


@pytest.mark.parametrize("bad_row", [(0.95 + 4e-13, 0.95), (1.0 + 5e-13, 1.0 + 5e-13),
                                     (5e-13, 5e-13)])
def test_rows_near_the_edges_snap_as_one_outcome(monkeypatch, bad_row):
    scalar = GateOutcome(f_c=gate._conditional(*bad_row), p_success=bad_row[1])
    _stub_metrics(monkeypatch, bad_row)
    summary = robustness_mc(_scenario(), FluctuationSpec("coupling_g", 0.2, samples=5, seed=1))
    assert summary.samples[2, 2:].tolist() == [scalar.f_c, scalar.p_success]
    assert scalar.f_c in (0.0, 1.0) or scalar.p_success in (0.0, 1.0)


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
