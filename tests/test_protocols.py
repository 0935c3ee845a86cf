import math
import tracemalloc

import numpy as np
import pytest

from capsim.cavity import delay_matched_params, r_opt
from capsim.errors import ConvergenceError, DomainError
from capsim.gate import gaussian_mode
from capsim.protocols import (IdealNode, NodeConfig, components_from_kernel,
                              components_from_mode, matched_node, memory_load,
                              type1, type2, type2_mismatched, type2_pair, type3)
from capsim.source import SourceSpec, TemporalKernel, decompose, source_kernel

GAMMA = 1.0
LONG = gaussian_mode(5e3)


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
    mode = gaussian_mode(1.0)
    assert memory_load(ideal, mode).fidelity == 1.0
    assert type2(ideal, ideal, mode).fidelity == 1.0
    pair = type2_pair(ideal, ideal, (mode, mode))
    assert pair.fidelity == 1.0
    assert [p for p, _ in pair.outcomes.values()] == pytest.approx([0.25] * 4)
    assert type3(mode, ideal).fidelity == pytest.approx(1.0, abs=1e-12)


def test_memory_load_outcomes_sum_to_success():
    node = matched_node(25, GAMMA)
    result = memory_load(node, gaussian_mode(2.0))
    total = sum(p for p, _ in result.outcomes.values())
    assert total == pytest.approx(result.p_success, abs=1e-10)


def test_memory_load_matched_long_pulse():
    node = matched_node(100, GAMMA)
    result = memory_load(node, LONG)
    assert result.fidelity == pytest.approx(1.0, abs=1e-9)
    assert result.p_success == pytest.approx(r_opt(100) ** 2, abs=1e-8)


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
    from_mode = type2(node_a, node_b, gaussian_mode(1.0))
    assert from_kernel.fidelity == pytest.approx(from_mode.fidelity, abs=1e-8)
    assert from_kernel.p_success == pytest.approx(from_mode.p_success, abs=1e-8)


# --------------------------------------------------------------------------
# photon-pair variant
# --------------------------------------------------------------------------

def test_pair_protocol_factorizes_and_heralds():
    node_a = matched_node(100, GAMMA, r_m=1.0)
    node_b = matched_node(100, GAMMA, r_m=1.0)
    mode = gaussian_mode(5.0)
    result = type2_pair(node_a, node_b, (mode, mode))
    total = sum(p for p, _ in result.outcomes.values())
    assert total == pytest.approx(result.p_success, abs=1e-10)
    assert len(result.outcomes) == 4
    assert result.fidelity == pytest.approx(1.0, abs=1e-6)


def test_pair_protocol_short_pulse_infidelity_band():
    # distorted-spectrum loading at both nodes costs about 1e-3 at
    # gamma sigma_t = 0.2 and falls with longer pulses
    node_a = matched_node(100, GAMMA)
    node_b = matched_node(100, GAMMA)
    at_02 = type2_pair(node_a, node_b, (gaussian_mode(0.2),) * 2)
    at_05 = type2_pair(node_a, node_b, (gaussian_mode(0.5),) * 2)
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


def test_components_from_mode_is_identity():
    mode = gaussian_mode(1.0)
    comps = components_from_mode(mode)
    assert np.array_equal(comps.density, np.abs(mode.amplitude) ** 2)
    assert np.array_equal(comps.grid, mode.grid)
    assert np.array_equal(comps.weights, mode.weights)
