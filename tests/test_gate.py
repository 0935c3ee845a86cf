import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capsim import gate
from capsim.cavity import (CavityParams, InterfaceOptics, delay_matched_params,
                           kappa_ex_opt, matched_optics, pulse_delays, r_opt,
                           reflection_r0, reflection_r1, scaled_by_length_deviation)
from capsim.errors import DomainError
from capsim.gate import (GateOutcome, GaussianPhoton, caps_finite_bandwidth,
                         caps_longpulse, min_sigma_t, robustness_mc)

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


def _shifted_outcome(params, optics, sigma_t, cavity_shift):
    """caps_finite_bandwidth with the cavity resonance moved by cavity_shift."""
    infidelity, p = gate._heralded(optics.r_m, *gate._gate_metrics(
        optics.tau_m, sigma_t, params.g, params.kappa_in, params.kappa_ex, params.gamma,
        params.delta_a, cavity_shift))
    return GateOutcome(f_c=1.0 - infidelity[0], p_success=p[0])


def test_grid_reflection_symmetry():
    # mirroring the detuning axis: r(-d; delta_a) = conj r(d; -delta_a), so
    # (delta_a, shift) and (-delta_a, -shift) give the same metrics
    p, optics = _matched(20)
    for delta_a, shift in ((0.7, 0.3), (-2.0, 1.1), (0.0, 0.5)):
        a = _shifted_outcome(replace(p, delta_a=delta_a), optics, 0.8, shift)
        b = _shifted_outcome(replace(p, delta_a=-delta_a), optics, 0.8, -shift)
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
        p = replace(p, g=p.g * rng.uniform(0.7, 1.3), delta_a=rng.normal(0, 2))
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
        norms, overlap = gate._gate_metrics(
            optics.tau_m, sigma_t, params.g, params.kappa_in, params.kappa_ex,
            params.gamma, params.delta_a, shift)
        f_pro = abs(2.0 * optics.r_m + overlap[0]) ** 2 / 16.0
        one_minus_l = (2.0 * optics.r_m**2 + norms[0]) / 4.0
        ref_f_pro, ref_one_minus_l = _simpson_metrics(params, optics, sigma_t, shift)
        assert abs(f_pro - ref_f_pro) <= 1e-12
        assert abs(one_minus_l - ref_one_minus_l) <= 1e-12
        out = _shifted_outcome(params, optics, sigma_t, shift)
        assert abs(out.f_c - (1.0 - 0.8 * (1.0 - ref_f_pro / ref_one_minus_l))) <= 1e-12
        if shift == 0.0:
            assert caps_finite_bandwidth(params, optics, sigma_t) == out


@pytest.mark.parametrize("decade", range(-3, 3))
def test_wofz_matches_scipy_oracle(decade):
    # scipy is a test-only oracle: 200,000 random points with |z| in one
    # decade band, at every argument, leaving out where exp(-z^2) overflows
    from scipy.special import wofz

    rng = np.random.default_rng(1994 + decade)
    z = 10.0 ** (decade + rng.random(200_000)) * np.exp(1j * rng.uniform(-np.pi, np.pi, 200_000))
    z = z[z.imag**2 - z.real**2 < 700.0]
    assert np.sum(z.imag < 0.0) > 40_000 and np.sum(z.imag > 0.0) > 40_000
    ref = wofz(z)
    assert np.max(np.abs(gate._wofz(z) - ref) / np.abs(ref)) <= 1e-13


@pytest.mark.parametrize("sigma_t", [0.0, -1.0, float("nan")])
def test_nonpositive_pulse_width_rejected(sigma_t):
    p, optics = _matched(10)
    with pytest.raises(DomainError):
        caps_finite_bandwidth(p, optics, sigma_t)
    with pytest.raises(DomainError):
        robustness_mc(p, optics, sigma_t, "coupling_g", 0.1, samples=3)
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
    """(params, optics, sigma_t), robustness_mc's nominal system."""
    p, optics = _matched(c_in)
    if sigma_t is None:
        sigma_t = 5.2 * c_in**-0.60 / GAMMA
    return p, optics, sigma_t


def test_zero_fwhm_reproduces_nominal():
    base = _scenario()
    summary = robustness_mc(*base, "coupling_g", 0.0, samples=3, seed=1)
    nominal = caps_finite_bandwidth(*base)
    assert summary.mean_fidelity == pytest.approx(nominal.f_c, abs=1e-15)
    assert summary.mean_success == pytest.approx(nominal.p_success, abs=1e-15)


def test_zero_fwhm_builds_no_random_streams(monkeypatch):
    derived = []
    stream_states = gate._stream_states

    def counting_states(seed, n):
        states = stream_states(seed, n)
        derived.extend(states)
        return states

    monkeypatch.setattr(gate, "_stream_states", counting_states)
    robustness_mc(*_scenario(), "coupling_g", 0.0, samples=50, seed=1)
    assert derived == []
    robustness_mc(*_scenario(), "coupling_g", 0.1, samples=5, seed=1)
    assert len(derived) == 5


@pytest.mark.parametrize("target, fwhm, samples", [
    pytest.param("coupling", 0.1, 5, id="unknown-target"),
    pytest.param("coupling_g", -0.1, 5, id="negative-fwhm"),
    # NaN passed a `fwhm < 0` check, drew nothing and returned the nominal gate
    pytest.param("cavity_freq", float("nan"), 5, id="nan-fwhm"),
    pytest.param("coupling_g", 0.1, 0, id="zero-samples")])
def test_a_bad_knob_raises_before_any_draw(monkeypatch, target, fwhm, samples):
    def no_streams(seed, n):
        raise AssertionError("streams derived before the knob was checked")

    monkeypatch.setattr(gate, "_stream_states", no_streams)
    with pytest.raises(DomainError):
        robustness_mc(*_scenario(), target, fwhm, samples=samples, seed=1)


@pytest.mark.parametrize("seed", [0, 3, 2**32 - 1, 2**32, 2**63 + 5])
def test_stream_states_equal_default_rng_streams(seed):
    states = gate._stream_states(seed, 2000)
    assert len(states) == 2000
    for i, state in enumerate(states):
        expected = np.random.default_rng([seed, i]).bit_generator.state["state"]
        assert state == (expected["state"], expected["inc"])


# both sides of the 32-bit path's edge, 64-bit bounds up to int64's, and bounds
# just past a power of two, which reject a quarter to a half of their words
_EDGE_N = [1, 2, 3, 2**31, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1, 2**62, 2**62 + 1,
           2**63 - 1, 2**63]


@pytest.mark.parametrize("seed", [0, 11, 2**32 + 7, 2**40 + 3, 2**64 + 1, 2**70 + 5])
def test_pcg64_integers_equal_default_rng(seed):
    pick = np.random.default_rng(seed % 997)
    widths = pick.integers(1, 64, 300).tolist()
    sizes = _EDGE_N * 4 + [int(pick.integers(2**w)) + 1 for w in widths]
    for i, state in enumerate(gate._stream_states(seed, 6)):
        # 32- and 64-bit draws interleave, around the half word numpy buffers
        order = pick.permutation(len(sizes)).tolist()
        stream, rng = gate._Pcg64(state), np.random.default_rng([seed, i])
        assert [stream.integers(sizes[j]) for j in order] == [
            int(rng.integers(sizes[j])) for j in order]
        after = rng.bit_generator.state
        assert stream.state == after["state"]["state"]
        assert (stream.high is not None) == after["has_uint32"]
        assert stream.next_uint64() == int(rng.bit_generator.random_raw())


def test_pcg64_integers_of_one_draw_no_word():
    (state,) = gate._stream_states(5, 1)
    for before in ([], [2**32 - 5], [2**40]):   # nothing, a half word or a whole word drawn
        stream, skipped = gate._Pcg64(state), gate._Pcg64(state)
        rng = np.random.default_rng([5, 0])
        for n in before:
            assert stream.integers(n) == skipped.integers(n) == rng.integers(n)
        assert stream.integers(1) == rng.integers(1) == 0
        # the next draw is the one a stream that skipped integers(1) makes
        assert stream.integers(2**32) == skipped.integers(2**32) == rng.integers(2**32)


class _CountingPcg64(gate._Pcg64):
    """A _Pcg64 that counts the 64-bit words it draws."""

    words = 0

    def next_uint64(self):
        self.words += 1
        return super().next_uint64()


# the computed ziggurat tables sit within 4e-14 relative of numpy's compiled
# ones, so every draw agrees with numpy's to this bound, not bitwise
_NORMAL_RTOL = 1e-13


@pytest.mark.parametrize("seed", [0, 2**32, 2**63 + 5])
def test_standard_normal_equals_default_rng(seed):
    # 1,400 streams of 24 draws per seed: 100,800 draws over the three seeds
    paths = {"fast": 0, "wedge": 0, "tail": 0}
    for i, state in enumerate(gate._stream_states(seed, 1400)):
        stream, rng = _CountingPcg64(state), np.random.default_rng([seed, i])
        for _ in range(24):
            before = stream.words
            z, expected = stream.standard_normal(), rng.standard_normal()
            assert abs(z - expected) <= _NORMAL_RTOL * abs(expected)
            # the same words were consumed, so no accept/reject branch flipped
            assert stream.state == rng.bit_generator.state["state"]["state"]
            # only the tail (idx 0, past its rectangle) returns |z| >= R, and
            # every other draw of more than one word ran a wedge test
            path = ("tail" if abs(z) >= gate._ZIG_R
                    else "fast" if stream.words - before == 1 else "wedge")
            paths[path] += 1
    assert paths["wedge"] > 0 and paths["tail"] > 0


def test_ziggurat_tables_are_equal_area_layers():
    """numpy-free oracle: the tables describe 256 layers of one area v.

    x_i = wi[i] 2**52 for i >= 1 with x_0 = 0 and x_255 = R; layer i spans
    heights f(x_i)..f(x_{i-1}) over [0, x_i], f(x) = exp(-x^2/2).  v is the
    base layer's area, the rectangle under f(R) plus the tail integral, here
    by quadrature.  The recurrence closes at the top (layer 1, x_0 = 0) to
    1.4e-13 relative; the bound is 5e-13.
    """
    integrate = pytest.importorskip("scipy.integrate")
    ki, wi, fi = gate._ziggurat()
    assert len(ki) == len(wi) == len(fi) == 256
    r = gate._ZIG_R
    x = [0.0] + [w * 2.0**52 for w in wi[1:]]
    assert x[255] == r and all(a < b for a, b in zip(x, x[1:]))
    tail, _ = integrate.quad(lambda t: math.exp(-0.5 * t * t), r, math.inf,
                             epsabs=0.0, epsrel=1e-13)
    v = r * math.exp(-0.5 * r * r) + tail
    for i in range(256):
        assert fi[i] == pytest.approx(math.exp(-0.5 * x[i] * x[i]), rel=1e-15, abs=0.0)
    # the base layer is read as a rectangle of width wi[0] 2**52 at height f(R)
    assert wi[0] * 2.0**52 * fi[255] == pytest.approx(v, rel=5e-13, abs=0.0)
    for i in range(1, 256):
        assert x[i] * (fi[i - 1] - fi[i]) == pytest.approx(v, rel=5e-13, abs=0.0)
    # ki: the 52-bit fraction of a layer's width under the layer above it
    # (R's share of the base rectangle), rounded to nearest as numpy's are
    widths = [r] + x[:255]
    assert ki == [round(w / wi[i]) for i, w in enumerate(widths)]


def test_mc_deterministic_for_fixed_seed():
    base = _scenario()
    a = robustness_mc(*base, "coupling_g", 0.2, samples=64, seed=42)
    b = robustness_mc(*base, "coupling_g", 0.2, samples=64, seed=42)
    assert a.mean_fidelity == b.mean_fidelity
    assert np.array_equal(a.samples, b.samples)


def test_mc_seed_changes_draws():
    base = _scenario()
    a = robustness_mc(*base, "coupling_g", 0.2, samples=32, seed=1)
    b = robustness_mc(*base, "coupling_g", 0.2, samples=32, seed=2)
    assert not np.array_equal(a.samples[:, 1], b.samples[:, 1])


def test_mc_resamples_invalid_draws():
    base = _scenario()
    # FWHM so large that some draws push g negative and must be redrawn
    summary = robustness_mc(*base, "coupling_g", 2.5, samples=256, seed=3)
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
    (params, optics, sigma_t), shift = base, 0.0
    if target == "coupling_g":
        if params.g * (1.0 + x) <= 0.0:
            raise DomainError("non-positive coupling draw")
        params = replace(params, g=params.g * (1.0 + x))
    elif target == "length":
        params = scaled_by_length_deviation(params, x)
    else:
        shift = x / sigma_t
        params = replace(params, delta_a=params.delta_a - shift)
    return _shifted_outcome(params, optics, sigma_t, shift)


def _reference_robustness(base, target, fwhm, samples, seed):
    """Records and resample count of a plain one-sample-at-a-time loop."""
    sigma = fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    records = np.empty((samples, 4))
    n_resampled = 0
    states = gate._stream_states(seed, samples)
    for i in range(samples):
        rng = gate._Pcg64(states[i])
        for _ in range(11):
            x = sigma * rng.standard_normal() if fwhm > 0.0 else 0.0
            try:
                out = _reference_outcome(base, target, x)
            except DomainError:
                n_resampled += 1
                continue
            break
        else:
            raise DomainError(f"sample {i}: no valid draw")
        records[i] = (i, x, out.f_c, out.p_success)
    return records, n_resampled


@pytest.mark.parametrize("target, fwhm, seed", [
    pytest.param("coupling_g", 0.2, 3, id="coupling_g-0.2"),
    pytest.param("coupling_g", 2.5, 3, id="coupling_g-2.5"),
    pytest.param("cavity_freq", 0.5, 3, id="cavity_freq-0.5"),
    pytest.param("length", 0.3, 3, id="length-0.3"),
    # a two-word seed: the stream entropy is (0, 1, i)
    pytest.param("coupling_g", 2.5, 2**32, id="coupling_g-2.5-seed2**32")])
def test_blocked_kernel_matches_per_sample_loop(target, fwhm, seed):
    base = _scenario()
    summary = robustness_mc(*base, target, fwhm, samples=61, seed=seed)
    records, n_resampled = _reference_robustness(base, target, fwhm, 61, seed)
    assert np.array_equal(summary.samples[:, :2], records[:, :2])
    assert summary.n_resampled == n_resampled
    assert np.max(np.abs(summary.samples[:, 2:] - records[:, 2:])) <= 1e-14
    if fwhm > 1.0:
        assert n_resampled > 0


@pytest.mark.parametrize("target, fwhm", [("coupling_g", 2.5), ("cavity_freq", 0.5)])
def test_records_independent_of_sample_count(target, fwhm):
    base = _scenario()
    short = robustness_mc(*base, target, fwhm, samples=7, seed=9)
    long = robustness_mc(*base, target, fwhm, samples=64, seed=9)
    assert np.array_equal(short.samples, long.samples[:7])


def test_lowest_failing_sample_raises(monkeypatch):
    # one draw per sample, about half of them invalid: the error names the
    # lowest sample left without a valid draw
    monkeypatch.setattr(gate, "_RESAMPLE_CAP", 0)
    sigma = 1e3 / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    invalid = [i for i, state in enumerate(gate._stream_states(1, 8))
               if sigma * gate._Pcg64(state).standard_normal() <= -1.0]
    assert len(invalid) >= 2 and invalid[0] > 0
    with pytest.raises(DomainError, match=f"sample {invalid[0]}: no valid draw"):
        robustness_mc(*_scenario(), "coupling_g", 1e3, samples=8, seed=1)


def _stub_metrics(monkeypatch, bad_row):
    """Unit-mirror scenario whose kernel returns nominal rows, bad_row at row 2.

    Rows are photon averages (norms, overlap); at r_m = 1 they give
    P = (2 + norms)/4 and F_pro = |2 + overlap|^2/16.
    """
    def metrics(tau_m, sigma_t, g, *rates):
        norms, overlap = np.full(g.shape, 1.8), np.full(g.shape, 1.6 + 0j)
        norms[2], overlap[2] = bad_row
        return norms, overlap

    monkeypatch.setattr(gate, "_gate_metrics", metrics)
    params, _, sigma_t = _scenario()
    return params, InterfaceOptics(r_m=1.0), sigma_t


def _scalar_outcome(bad_row):
    infidelity, p = gate._heralded(1.0, *bad_row)
    return GateOutcome(f_c=1.0 - infidelity, p_success=p)


# (F_pro, P): (0.64, 0.5) so F_c > 1, an infinite overlap, (1.44, 1.5),
# (0.25, 0), (0.25, -0.1) and a NaN overlap
@pytest.mark.parametrize("bad_row", [(0.0, 1.2), (0.0, np.inf), (4.0, 2.8), (-2.0, 0.0),
                                     (-2.4, 0.0), (0.0, np.nan)])
def test_rows_outside_unit_interval_raise_as_one_outcome(monkeypatch, bad_row):
    with pytest.raises(DomainError) as scalar:
        _scalar_outcome(bad_row)
    base = _stub_metrics(monkeypatch, bad_row)
    with pytest.raises(DomainError) as rows:
        robustness_mc(*base, "coupling_g", 0.2, samples=5, seed=1)
    assert str(rows.value) == str(scalar.value)


# (F_pro, P): F_pro/P = 1 + 3.7e-13, both 1 + 5e-13, and both 2^-42
@pytest.mark.parametrize("bad_row", [(1.24 - 1.2e-12, 1.6), (2.0 + 2e-12, 2.0 + 1e-12),
                                     (-2.0 + 2.0**-40, -2.0 + 2.0**-19)])
def test_rows_near_the_edges_snap_as_one_outcome(monkeypatch, bad_row):
    scalar = _scalar_outcome(bad_row)
    base = _stub_metrics(monkeypatch, bad_row)
    summary = robustness_mc(*base, "coupling_g", 0.2, samples=5, seed=1)
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
