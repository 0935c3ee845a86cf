import math
import tracemalloc

import numpy as np
import pytest

from capsim import gate
from capsim.cavity import (CavityParams, InterfaceOptics, delay_matched_params,
                           r_opt, reflection_r0, reflection_r1)
from capsim.errors import ConvergenceError, DomainError
from capsim.gate import GaussianPhoton
from capsim.protocols import (IdealNode, NodeConfig, components_from_kernel,
                              matched_node, memory_load, type1, type2,
                              type2_mismatched, type2_pair, type3)
from capsim.source import SourceSpec, TemporalKernel, decompose, source_kernel

GAMMA = 1.0
LONG = GaussianPhoton(5e3)


def _gaussian_rank1_kernel(sigma=1.0, n=401, lam=1.0, carrier=0.0):
    t = np.linspace(-8 * sigma, 8 * sigma, n)
    w = np.full(n, t[1] - t[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    v = (math.pi * sigma**2) ** -0.25 * np.exp(-(t**2) / (2 * sigma**2))
    v = v * np.exp(1j * carrier * t)
    v /= math.sqrt(np.sum(w * np.abs(v) ** 2))
    return TemporalKernel(times=t, kernel=lam * np.outer(v, np.conj(v)),
                          weights=w)


# --------------------------------------------------------------------------
# ideal limits
# --------------------------------------------------------------------------

def test_every_protocol_is_perfect_with_ideal_responses():
    ideal = IdealNode()
    photon = GaussianPhoton(1.0)
    assert memory_load(ideal, photon).fidelity == 1.0
    assert type2(ideal, ideal, photon).fidelity == 1.0
    pair = type2_pair(ideal, ideal, (photon, photon))
    assert pair.fidelity == 1.0
    assert [p for p, _ in pair.outcomes.values()] == pytest.approx([0.25] * 4)
    assert type3(photon, ideal).fidelity == pytest.approx(1.0, abs=1e-12)


def test_memory_load_outcomes_sum_to_success():
    node = matched_node(25, GAMMA)
    result = memory_load(node, GaussianPhoton(2.0))
    total = sum(p for p, _ in result.outcomes.values())
    assert total == pytest.approx(result.p_success, abs=1e-10)


def test_memory_load_matched_long_pulse():
    node = matched_node(100, GAMMA)
    result = memory_load(node, LONG)
    assert result.fidelity == pytest.approx(1.0, abs=1e-9)
    assert result.p_success == pytest.approx(r_opt(100) ** 2, abs=1e-8)


# --------------------------------------------------------------------------
# exact Gaussian averages against a quadrature oracle
# --------------------------------------------------------------------------

def _ep_node(rel):
    """Node whose r1 poles merge at rel = 0 (g = |kappa - gamma|/2)."""
    kappa_in, kappa_ex, gamma = 1.0, 2.0, 1.0
    g = abs(kappa_in + kappa_ex - gamma) / 2 * (1 + rel)
    return NodeConfig(CavityParams(g=g, kappa_in=kappa_in, kappa_ex=kappa_ex, gamma=gamma),
                      InterfaceOptics(r_m=0.7, tau_m=0.4))


def _mismatched_pair():
    node_a = matched_node(100, GAMMA, r_m=1.0, label="A")
    node_b = matched_node(25, GAMMA, r_m=1.0, label="B")
    optics_a, optics_b = type2_mismatched(node_a, node_b)
    return (NodeConfig(params=node_a.params, optics=optics_a, label="A"),
            NodeConfig(params=node_b.params, optics=optics_b, label="B"))


_EP_NODES = [_ep_node(rel) for rel in (0.0, 1e-9, -1e-9, 1e-3, -1e-3)]
_SINGLE_NODES = [matched_node(100, GAMMA), matched_node(25, GAMMA)] + _EP_NODES + [IdealNode()]
_NODE_PAIRS = ([(matched_node(100, GAMMA, r_m=1.0),) * 2, _mismatched_pair()]
               + [(node, matched_node(100, GAMMA)) for node in _EP_NODES]
               + [(IdealNode(), IdealNode())])


def _simpson_gaussian(sigma_t, n=4097):
    """Detuning grid and composite-Simpson weights times the unit-norm
    Gaussian density exp(-d^2/sigma_w^2)/(sqrt(pi) sigma_w), +-8 bandwidths."""
    sigma_w = 1.0 / sigma_t
    d = np.linspace(-8.0 * sigma_w, 8.0 * sigma_w, n)
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-2:2] = 2.0
    w *= (d[1] - d[0]) / 3.0 * np.exp(-(d / sigma_w) ** 2) / (math.sqrt(math.pi) * sigma_w)
    return d, w


def _grid_responses(node, d):
    """Delay-compensated (r0, r1) on the grid from the direct cavity formulas."""
    if isinstance(node, IdealNode):
        return -np.ones(d.size), np.ones(d.size)
    phase = np.exp(-1j * node.optics.tau_m * d)
    return phase * reflection_r0(node.params, d), phase * reflection_r1(node.params, d)


def _quadrature_protocol(protocol, nodes, sigma_t):
    """(fidelity, p_success, outcome probabilities in outcome-key order) by
    quadrature of each outcome's amplitudes."""
    d, w = _simpson_gaussian(sigma_t)

    def mean(x):
        return float(np.sum(w * x))

    probs, nums = [], []
    if protocol in ("memory_load", "type3"):
        node = nodes[0]
        r0, r1 = _grid_responses(node, d)
        e00 = np.full(d.size, node.r_m) / math.sqrt(2.0)
        e01 = -0.5 * (r1 + r0) / math.sqrt(2.0)
        e11 = 0.5 * (r1 - r0) / math.sqrt(2.0)
        if protocol == "memory_load":  # input (|0> + |1>)/sqrt 2, Z^(1+j) applied
            for b in (-1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)):
                a = 1.0 / math.sqrt(2.0)
                c0, c1 = e00 * a + e01 * b, e11 * b
                probs.append(mean(np.abs(c0) ** 2 + np.abs(c1) ** 2))
                nums.append(mean(np.abs(a * c0 + b * c1) ** 2))
        else:
            probs = [mean(0.5 * (np.abs(e00) ** 2 + np.abs(e01) ** 2 + np.abs(e11) ** 2))] * 2
            nums = [mean(np.abs(0.5 * (e00 + e11)) ** 2)] * 2
    elif protocol == "type2":
        (a0, a1), (b0, b1) = (_grid_responses(node, d) for node in nodes)
        rma, rmb = nodes[0].r_m, nodes[1].r_m
        for s in (1.0, -1.0):
            c00, c11 = (a0 * rmb + s * rma * b0) / 4.0, (a1 * rmb + s * rma * b1) / 4.0
            c01, c10 = (a0 * rmb + s * rma * b1) / 4.0, (a1 * rmb + s * rma * b0) / 4.0
            probs.append(mean(sum(np.abs(c) ** 2 for c in (c00, c11, c01, c10))))
            amp = c00 - c11 if s > 0 else c01 - c10
            nums.append(mean(np.abs(amp) ** 2) / 2.0)
    else:  # type2_pair: the two independent detunings factorize
        moments = []
        for node in nodes:
            r0, r1 = _grid_responses(node, d)
            minus, plus = 0.5 * (r1 - r0), 0.5 * (r1 + r0)
            moments.append((node.r_m, mean(np.ones(d.size)), mean(np.abs(minus) ** 2),
                            mean(np.abs(plus) ** 2), np.sum(w * minus), np.sum(w * plus)))
        (ra, one_a, m2_a, p2_a, m_a, p_a), (rb, one_b, m2_b, p2_b, m_b, p_b) = moments
        for s in (1.0, -1.0, -1.0, 1.0):
            probs.append((ra**2 * one_a * m2_b + rb**2 * m2_a * one_b
                          + ra**2 * one_a * p2_b + rb**2 * p2_a * one_b
                          + 2.0 * s * ra * rb * (p_b * np.conj(p_a)).real) / 8.0)
            nums.append((ra**2 * one_a * m2_b + rb**2 * m2_a * one_b
                         + 2.0 * ra * rb * (m_b * np.conj(m_a)).real) / 16.0)
    return sum(nums) / sum(probs), sum(probs), probs


def _exact_protocol(protocol, nodes, sigma_t):
    photon = GaussianPhoton(sigma_t)
    if protocol == "memory_load":
        return memory_load(nodes[0], photon)
    if protocol == "type3":
        return type3(photon, nodes[0])
    if protocol == "type2":
        return type2(*nodes, photon)
    return type2_pair(*nodes, (photon, photon))


@pytest.mark.parametrize("protocol", ["memory_load", "type2", "type2_pair", "type3"])
def test_gaussian_protocols_match_quadrature_oracle(protocol):
    cases = _NODE_PAIRS if protocol.startswith("type2") else [(n,) for n in _SINGLE_NODES]
    for nodes in cases:
        for sigma_t in (0.2, 1.0, 5.0):
            result = _exact_protocol(protocol, nodes, sigma_t)
            fidelity, p_success, probs = _quadrature_protocol(protocol, nodes, sigma_t)
            assert abs(result.fidelity - fidelity) <= 1e-12
            assert abs(result.p_success - p_success) <= 1e-12
            outcome_probs = [p for p, _ in result.outcomes.values()]
            assert np.max(np.abs(np.subtract(outcome_probs, probs))) <= 1e-12


def test_node_responses_match_cavity_formulas():
    d = np.linspace(-40.0, 40.0, 2001)
    detuned = matched_node(100, GAMMA)
    nodes = [matched_node(100, GAMMA), matched_node(25, GAMMA),
             NodeConfig(detuned.params.with_(delta_a=0.6), detuned.optics)] + _EP_NODES
    shift, tau = 0.37, 0.9
    for node in nodes:
        p = node.params
        phase = np.exp(-1j * node.optics.tau_m * d)
        r0, r1 = node.responses
        assert np.max(np.abs(r0(d) - phase * reflection_r0(p, d))) <= 1e-14
        assert np.max(np.abs(r1(d) - phase * reflection_r1(p, d))) <= 1e-14
        # the gate's form: the cavity moved by shift, another delay
        r0, r1 = gate._pole_form(p.g, p.kappa_in, p.kappa_ex, p.gamma, p.delta_a, shift, tau)
        phase = np.exp(-1j * tau * d)
        assert np.max(np.abs(r0(d) - phase * reflection_r0(p, d - shift))) <= 1e-14
        assert np.max(np.abs(r1(d) - phase * reflection_r1(p, d - shift))) <= 1e-14
    r0, r1 = IdealNode().responses
    assert np.array_equal(r0(d), -np.ones(d.size))
    assert np.array_equal(r1(d), np.ones(d.size))


# --------------------------------------------------------------------------
# single-photon routed protocol
# --------------------------------------------------------------------------

def test_type2_identical_nodes_long_pulse():
    node_a = matched_node(100, GAMMA, r_m=1.0, label="A")
    node_b = matched_node(100, GAMMA, r_m=1.0, label="B")
    result = type2(node_a, node_b, LONG)
    assert result.fidelity == pytest.approx(1.0, abs=1e-9)
    # one routed photon succeeds with the single-gate probability
    assert result.p_success == pytest.approx(r_opt(100) ** 2, abs=1e-8)


def test_type2_mismatched_nodes_adjustment():
    node_a = matched_node(100, GAMMA, r_m=1.0, label="A")
    node_b = matched_node(25, GAMMA, r_m=1.0, label="B")
    optics_a, optics_b = type2_mismatched(node_a, node_b)
    assert optics_a.r_m == 1.0
    assert optics_b.r_m == pytest.approx(r_opt(25) / r_opt(100))
    adj_a = NodeConfig(params=node_a.params, optics=optics_a, label="A")
    adj_b = NodeConfig(params=node_b.params, optics=optics_b, label="B")
    result = type2(adj_a, adj_b, LONG)
    assert result.fidelity == pytest.approx(1.0, abs=1e-9)
    assert result.p_success == pytest.approx(r_opt(25) ** 2, abs=1e-8)


def test_type2_equal_nodes_keep_full_mirrors():
    node = matched_node(100, GAMMA, r_m=1.0)
    optics_a, optics_b = type2_mismatched(node, node)
    assert optics_a.r_m == optics_b.r_m == 1.0


def test_type2_pure_kernel_equals_pure_mode():
    kernel = _gaussian_rank1_kernel()
    node_a = matched_node(100, GAMMA, r_m=1.0)
    node_b = matched_node(100, GAMMA, r_m=1.0)
    from_kernel = type2(node_a, node_b, kernel)
    from_photon = type2(node_a, node_b, GaussianPhoton(1.0))
    assert from_kernel.fidelity == pytest.approx(from_photon.fidelity, abs=1e-8)
    assert from_kernel.p_success == pytest.approx(from_photon.p_success, abs=1e-8)


# --------------------------------------------------------------------------
# photon-pair variant
# --------------------------------------------------------------------------

def test_pair_protocol_factorizes_and_heralds():
    node_a = matched_node(100, GAMMA, r_m=1.0)
    node_b = matched_node(100, GAMMA, r_m=1.0)
    photon = GaussianPhoton(5.0)
    result = type2_pair(node_a, node_b, (photon, photon))
    total = sum(p for p, _ in result.outcomes.values())
    assert total == pytest.approx(result.p_success, abs=1e-10)
    assert len(result.outcomes) == 4
    assert result.fidelity == pytest.approx(1.0, abs=1e-6)


def test_pair_protocol_short_pulse_infidelity_band():
    # distorted-spectrum loading at both nodes costs about 1e-3 at
    # gamma sigma_t = 0.2 and falls with longer pulses
    node_a = matched_node(100, GAMMA)
    node_b = matched_node(100, GAMMA)
    at_02 = type2_pair(node_a, node_b, (GaussianPhoton(0.2),) * 2)
    at_05 = type2_pair(node_a, node_b, (GaussianPhoton(0.5),) * 2)
    assert 1e-4 < 1.0 - at_02.fidelity < 5e-3
    assert 1.0 - at_05.fidelity < 1.0 - at_02.fidelity


# --------------------------------------------------------------------------
# hybrid protocol and two-photon-interference reference
# --------------------------------------------------------------------------

def test_type3_matched_long_pulse():
    node = matched_node(100, GAMMA)
    result = type3(LONG, node)
    assert result.fidelity == pytest.approx(1.0, abs=1e-9)
    assert result.p_success == pytest.approx(r_opt(100) ** 2, abs=1e-8)


def test_type3_not_worse_than_type2_with_same_source(kernel_pair_short,
                                                     kernel_c100_source,
                                                     kernel_c100_entangler):
    grids = [
        (kernel_pair_short[0], kernel_pair_short[1]),
        (kernel_c100_source, kernel_c100_entangler),
    ]
    node_plain = matched_node(100, GAMMA)
    node_full_a = matched_node(100, GAMMA, r_m=1.0, label="A")
    node_full_b = matched_node(100, GAMMA, r_m=1.0, label="B")
    for k2, k3 in grids:
        f2 = type2(node_full_a, node_full_b, k2).fidelity
        f3 = type3(k3, node_plain).fidelity
        assert (1.0 - f3) <= (1.0 - f2) + 1e-9


def test_type1_identities(kernel_c10_golden):
    result = type1(kernel_c10_golden, kernel_c10_golden)
    purity = decompose(kernel_c10_golden).purity
    assert result.fidelity == pytest.approx(0.5 * (1.0 + purity), abs=1e-6)
    p_gen = kernel_c10_golden.p_gen
    assert result.p_success == pytest.approx(p_gen**2 / 2.0, abs=1e-12)
    assert len(result.outcomes) == 4


def test_type1_pure_and_orthogonal_extremes():
    k = _gaussian_rank1_kernel()
    assert type1(k, k).fidelity == 1.0
    t = k.times
    w = k.weights
    v2 = (t / math.sqrt(np.sum(w * t**2))) * np.exp(-(t**2) / 2)
    v2 /= math.sqrt(np.sum(w * v2**2))
    k2 = TemporalKernel(times=t, kernel=np.outer(v2, v2).astype(complex), weights=w)
    assert type1(k, k2).fidelity == pytest.approx(0.5, abs=1e-12)


def test_type1_rejects_mismatched_grids():
    a = _gaussian_rank1_kernel(n=401)
    b = _gaussian_rank1_kernel(n=201)
    with pytest.raises(DomainError):
        type1(a, b)


# --------------------------------------------------------------------------
# kernel -> spectrum pipeline
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def kernel_1990ns():
    """Lambda-source kernel of the fig6a long-pulse end, sigma_t = 1990 ns."""
    gamma = 2 * math.pi * 0.24e6
    spec = SourceSpec(params=delay_matched_params(100, gamma), p_br=0.5,
                      target_sigma_t=1990e-9)
    return source_kernel(spec)


def _eigenmode_density(kernel, grid, rel_cutoff=1e-8, rows=2048):
    """Oracle: sum_l p_l |u_l(d)|^2 by the explicit Fourier transform of each
    kept eigenmode, u_l(d) = (2 pi)^(-1/2) sum_j w_j conj(v_l(t_j)) exp(i d t_j),
    taken over blocks of grid rows."""
    decomp = decompose(kernel)
    keep = decomp.eigenvalues > rel_cutoff * decomp.p_gen
    lams = decomp.eigenvalues[keep]
    conj_modes = (decomp.weights * np.conj(decomp.eigenmodes[keep])).T
    dens = np.empty(grid.size)
    for lo in range(0, grid.size, rows):
        ft = np.exp(1j * np.outer(grid[lo:lo + rows], decomp.times))
        dens[lo:lo + rows] = (np.abs(ft @ conj_modes) ** 2) @ lams
    return dens / (2.0 * math.pi)


def test_components_capture_population(kernel_c10_golden):
    comps = components_from_kernel(kernel_c10_golden)
    captured = float(np.sum(comps.weights * comps.density))
    assert captured == pytest.approx(kernel_c10_golden.p_gen, rel=2e-4)


@pytest.mark.parametrize("case", ["c10_golden", "1990ns", "carrier"])
def test_lag_sum_density_matches_eigenmode_oracle(case, request):
    if case == "carrier":
        # W(d) is peaked at the carrier, so a sign error in d shows
        kernel = _gaussian_rank1_kernel(carrier=3.0, lam=0.9)
    else:
        kernel = request.getfixturevalue(f"kernel_{case}")
    comps = components_from_kernel(kernel)
    oracle = _eigenmode_density(kernel, comps.grid)
    scale = oracle.max()
    if case == "1990ns":  # the inner grid is reused over two or more widenings
        assert comps.grid.size >= 4 * 2048 + 1
    if case == "carrier":
        assert np.max(np.abs(oracle - oracle[::-1])) > 0.5 * scale
    assert np.max(np.abs(comps.density - oracle)) <= 1e-12 * scale


def test_components_from_kernel_memory_is_bounded(kernel_1990ns):
    # a modes x grid Fourier matrix at 16,385 grid points needs > 50 MB
    tracemalloc.start()
    try:
        comps = components_from_kernel(kernel_1990ns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert comps.grid.size == 16385
    assert peak < 16e6


def test_components_reject_zero_kernel():
    t = np.linspace(-4.0, 4.0, 101)
    zero = TemporalKernel(times=t, kernel=np.zeros((t.size, t.size)),
                          weights=np.full(t.size, t[1] - t[0]))
    with pytest.raises(DomainError, match="no photon population"):
        components_from_kernel(zero)


def test_components_raise_when_window_cannot_widen(kernel_c10_golden):
    with pytest.raises(ConvergenceError):
        components_from_kernel(kernel_c10_golden, max_doublings=0)


def test_components_reject_non_uniform_time_grid():
    uniform = _gaussian_rank1_kernel()
    s = uniform.times / 8.0
    kernel = TemporalKernel(times=8.0 * (s + 0.2 * s**3), kernel=uniform.kernel,
                            weights=uniform.weights)
    with pytest.raises(DomainError, match="uniform"):
        components_from_kernel(kernel)
