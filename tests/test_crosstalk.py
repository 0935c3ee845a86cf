import decimal
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from capsim.cavity import CavityParams, InterfaceOptics, delay_matched_params
from capsim.crosstalk import (MultiAtomScenario, _reflections_all_m,
                              crosstalk_fidelity_approx, crosstalk_fidelity_exact,
                              matched_scenario, per_atom_infidelity, reflection_multi,
                              required_detuning)
from capsim.errors import DomainError
from capsim.gate import GateOutcome, _heralded, caps_longpulse
from capsim.transfer_matrix import TmCavity, tm_reflectance

GAMMA = 2 * math.pi * 0.24e6


def crosstalk_fidelity_enumerated(scenario):
    """Reference evaluation by explicit bit-string enumeration.

    Exponential cost; cross-checks the regrouped path at small atom numbers.
    """
    n = scenario.n_atoms
    r0, r1 = _reflections_all_m(scenario)
    total_abs2 = 0.0
    total_diff = 0.0 + 0.0j
    for bits in range(2 ** (n - 1)):
        m = bin(bits).count("1")
        total_abs2 += abs(r0[m]) ** 2 + abs(r1[m]) ** 2
        total_diff += r1[m] - r0[m]
    scale = 2.0 ** (n - 1)
    infidelity, p = _heralded(scenario.r_m, total_abs2 / scale, total_diff / scale, n)
    return GateOutcome(f_c=1.0 - infidelity, p_success=p)


def test_no_spectators_reduces_to_single_atom_reflection():
    sc = matched_scenario(50, GAMMA, n_atoms=4, detuning_spectators=1e4 * GAMMA)
    from capsim.cavity import reflection_r0, reflection_r1

    assert reflection_multi(sc, 0, 0) == pytest.approx(
        reflection_r0(sc.params, 0.0), abs=1e-12)
    assert reflection_multi(sc, 1, 0) == pytest.approx(
        reflection_r1(sc.params, 0.0), abs=1e-12)


def test_far_detuned_spectators_decouple():
    near = matched_scenario(50, GAMMA, 10, 1e3 * GAMMA)
    far = matched_scenario(50, GAMMA, 10, 1e12 * GAMMA)
    for m in (1, 5, 9):
        assert abs(reflection_multi(far, 1, m)
                   - reflection_multi(near, 1, 0)) < 1e-9


def test_cooperativity_form_identity():
    rng = np.random.default_rng(7)
    for _ in range(6):
        g, kin, kex, gm, da = rng.uniform(0.5, 5.0, 5)
        p = CavityParams(g=g, kappa_in=kin, kappa_ex=kex, gamma=gm)
        sc = MultiAtomScenario(params=p, n_atoms=6, detuning_spectators=da, r_m=0.9)
        c = g**2 / (2 * p.kappa * gm)
        eta = kex / p.kappa
        for m in range(5):
            for j in (0, 1):
                form = 1 - 2 * eta / (1 + 2 * j * c + 2 * m * c / (1 + 1j * da / gm))
                assert reflection_multi(sc, j, m) == pytest.approx(form, abs=1e-12)


def test_single_atom_channel_equals_longpulse_gate():
    # the target keeps its own detuning delta_a
    base = matched_scenario(100, GAMMA, 1, GAMMA)
    for delta_a in (0.0, 0.3 * GAMMA, -2.0 * GAMMA):
        sc = replace(base, params=replace(base.params, delta_a=delta_a))
        gate = caps_longpulse(sc.params, InterfaceOptics(r_m=sc.r_m))
        for out in (crosstalk_fidelity_exact(sc), crosstalk_fidelity_enumerated(sc)):
            assert out.f_c == pytest.approx(gate.f_c, abs=1e-15)
            assert out.p_success == pytest.approx(gate.p_success, abs=1e-15)


@pytest.mark.parametrize("c_in", [10, 100])
@pytest.mark.parametrize("ratio", [2e2, 2e3])
def test_exact_matches_large_detuning_model(c_in, ratio):
    delta_a = ratio * 200 * GAMMA
    exact = crosstalk_fidelity_exact(matched_scenario(c_in, GAMMA, 200, delta_a))
    approx = crosstalk_fidelity_approx(c_in, 200, delta_a, GAMMA)
    assert exact.infidelity == pytest.approx(approx, rel=0.2)


def test_reference_point_near_1e_minus_3():
    delta_a = 2e2 * 200 * GAMMA
    exact = crosstalk_fidelity_exact(matched_scenario(100, GAMMA, 200, delta_a))
    assert exact.infidelity == pytest.approx(9.5e-4, rel=0.2)


def test_inverse_square_scaling_in_detuning():
    base = crosstalk_fidelity_exact(
        matched_scenario(100, GAMMA, 200, 2e2 * 200 * GAMMA)).infidelity
    quad = crosstalk_fidelity_exact(
        matched_scenario(100, GAMMA, 200, 8e2 * 200 * GAMMA)).infidelity
    assert base / quad == pytest.approx(16.0, rel=0.1)


def test_quadratic_scaling_in_atom_number():
    assert crosstalk_fidelity_approx(10, 400, 1e5 * GAMMA, GAMMA) == pytest.approx(
        4 * crosstalk_fidelity_approx(10, 200, 1e5 * GAMMA, GAMMA))
    assert crosstalk_fidelity_approx(10, 200, 1e30, GAMMA) < 1e-30


@pytest.mark.parametrize("n_atoms", [2, 5, 12])
def test_regrouped_sum_equals_enumeration(n_atoms):
    sc = matched_scenario(10, GAMMA, n_atoms, 500 * GAMMA)
    fast = crosstalk_fidelity_exact(sc)
    slow = crosstalk_fidelity_enumerated(sc)
    assert fast.f_c == pytest.approx(slow.f_c, abs=1e-12)
    assert fast.p_success == pytest.approx(slow.p_success, abs=1e-12)


def test_binomial_weights_correctly_rounded():
    from capsim.crosstalk import _binom_weights

    for n in range(301):
        exact = [float(Fraction(math.comb(n, m), 2**n)) for m in range(n + 1)]
        assert _binom_weights(n).tolist() == exact, n


@pytest.mark.parametrize("n_atoms", [2, 3, 4])
def test_transfer_chain_oracle_for_spectators(n_atoms):
    # independent of _reflections_all_m: N atoms on neighbouring central
    # antinodes of one mode of the transfer chain, mapped onto the single-mode
    # parameters as in criterion 09's single-atom oracle
    c_in, detuning = 10, 30.0
    sc = matched_scenario(c_in, 1.0, n_atoms, detuning)
    p = sc.params
    t_ex, n0 = 1e-3, 1001
    omega_fsr = 4 * math.pi * p.kappa_ex / t_ex
    k0 = (n0 - 1) // 2
    cav = TmCavity(omega_fsr=omega_fsr, n0=n0, t_ex=t_ex,
                   t_in=4 * math.pi * p.kappa_in / omega_fsr,
                   atom_positions=(k0 + np.arange(n_atoms) + 0.5) / n0,
                   gamma_1d=math.pi * p.g**2 / omega_fsr, gamma_total=2 * p.gamma,
                   atom_delta_a=np.r_[0.0, np.full(n_atoms - 1, detuning)])
    for bits in np.ndindex(*[2] * n_atoms):
        chain = tm_reflectance(cav, 0.0, atom_states=list(bits))
        assert abs(chain - reflection_multi(sc, bits[0], sum(bits[1:]))) < 1e-3


def test_per_atom_composition_round_trip():
    sc = matched_scenario(100, GAMMA, 200, 1e5 * GAMMA)
    collective = crosstalk_fidelity_exact(sc).f_c
    per_atom = 1.0 - per_atom_infidelity(1.0 - collective, 200)
    assert per_atom**200 == pytest.approx(collective, rel=1e-12)


@pytest.mark.parametrize("n_atoms", [2, 200, 10_000])
def test_per_atom_infidelity_matches_a_decimal_oracle(n_atoms):
    # 1 - (1 - x)^(1/n) in 50 digits; the float power next to 1 missed by up to 5e-7
    worst = 0.0
    for x in np.geomspace(1e-15, 0.5, 61).tolist():
        with decimal.localcontext(decimal.Context(prec=50)):
            exact = 1 - (1 - decimal.Decimal(x)) ** (decimal.Decimal(1) / n_atoms)
        worst = max(worst, abs(per_atom_infidelity(x, n_atoms) / float(exact) - 1.0))
    assert worst <= 1e-14


def test_required_detuning_reports_both_accountings():
    coll = required_detuning(100, 200, GAMMA, 5e-4, "collective")
    per = required_detuning(100, 200, GAMMA, 5e-4, "per_atom")
    assert coll == pytest.approx(2 * math.pi * 13.2e9, rel=0.01)
    assert per == pytest.approx(2 * math.pi * 0.936e9, rel=0.01)
    assert coll / per == pytest.approx(math.sqrt(200), rel=1e-12)
    # both land at the GHz scale for the multiplexed reference point
    assert 2 * math.pi * 0.1e9 < per < coll < 2 * math.pi * 100e9
    # inversion consistency against the closed form
    assert crosstalk_fidelity_approx(100, 200, coll, GAMMA) == pytest.approx(5e-4)


def test_degenerate_configurations_rejected():
    p = delay_matched_params(10, GAMMA)
    with pytest.raises(DomainError):
        MultiAtomScenario(params=p, n_atoms=3, detuning_spectators=0.0, r_m=0.5)
    with pytest.raises(DomainError):
        MultiAtomScenario(params=p, n_atoms=0, detuning_spectators=1.0, r_m=0.5)
    sc = matched_scenario(10, GAMMA, 4, GAMMA)
    with pytest.raises(DomainError):
        reflection_multi(sc, 2, 0)
    with pytest.raises(DomainError):
        reflection_multi(sc, 1, 4)
