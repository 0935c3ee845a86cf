import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capsim.cavity import delay_matched_params, reflection_r0, reflection_r1
from capsim.errors import DomainError
from capsim.transfer_matrix import (TmCavity, WvmSystem,
                                    calibrated_coupler, channel_offsets,
                                    single_mode_equivalent, tm_atom,
                                    tm_mirror_in, tm_mirror_out,
                                    tm_propagation, tm_reflectance,
                                    wvm_crosstalk)

GAMMA = 2 * math.pi * 0.24e6


def _nanofiber_system(f_int=2000):
    return WvmSystem(gamma=GAMMA, omega_fsr=2 * math.pi * 2.7e9,
                     omega_a=2 * math.pi * 220e12, sigma0_over_aeff=0.10,
                     c_over_vg=1.4, f_int=f_int)


def _empty_cavity(t_ex=0.01, t_in=0.01, n0=1000, omega_fsr=1.0):
    empty = np.array([])
    return TmCavity(omega_fsr=omega_fsr, n0=n0, t_ex=t_ex, t_in=t_in,
                    atom_positions=empty, atom_gamma_1d=empty,
                    atom_gamma_total=empty, atom_delta_a=empty)


def _single_atom_cavity(params, t_ex_target=0.001, n0=1001):
    omega_fsr = 4 * math.pi * params.kappa_ex / t_ex_target
    t_in = 4 * math.pi * params.kappa_in / omega_fsr
    gamma_1d = math.pi * params.g**2 / omega_fsr
    x = ((n0 - 1) // 2 + 0.5) / n0  # exact central antinode for odd n0
    return TmCavity(omega_fsr=omega_fsr, n0=n0, t_ex=t_ex_target, t_in=t_in,
                    atom_positions=np.array([x]),
                    atom_gamma_1d=np.array([gamma_1d]),
                    atom_gamma_total=np.array([2 * params.gamma]),
                    atom_delta_a=np.array([0.0]))


# --------------------------------------------------------------------------
# element matrices
# --------------------------------------------------------------------------

def test_uncoupled_atom_is_the_identity():
    assert np.allclose(tm_atom(0.0, 2.0, 0.5, 0.0), np.eye(2))


def test_resonant_single_pass_reflection_recovered():
    gamma_1d, gamma_tot = 0.7, 2.0
    m = tm_atom(gamma_1d, gamma_tot, 0.0, 0.0)
    # invert the matrix back to (r, t): t = 1/M11, r = M21/M11
    t_a = 1.0 / m[0, 0]
    r_a = m[1, 0] / m[0, 0]
    assert r_a == pytest.approx(-gamma_1d / (gamma_1d + gamma_tot), abs=1e-12)
    assert t_a == pytest.approx(1.0 + r_a, abs=1e-12)
    assert abs(r_a) ** 2 + abs(t_a) ** 2 < 1.0


def test_lossless_atom_saturates_energy_bound():
    # free-space-decay-free limit taken numerically
    m = tm_atom(0.7, 1e-12, 0.3, 0.0)
    t_a = 1.0 / m[0, 0]
    r_a = m[1, 0] / m[0, 0]
    assert abs(r_a) ** 2 + abs(t_a) ** 2 == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(g1d=st.floats(1e-3, 10.0), gt=st.floats(1e-3, 10.0),
       d=st.floats(-20.0, 20.0), da=st.floats(-20.0, 20.0))
def test_atom_and_propagation_determinants_are_one(g1d, gt, d, da):
    m = tm_atom(g1d, gt, d, da)
    # the algebraic determinant is one; float cancellation grows with |zeta|^2
    zeta2 = abs(m[0, 1]) ** 2
    assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-12 * (1.0 + zeta2))
    assert abs(np.linalg.det(tm_propagation(0.37, d, 5.0, 1000))) == pytest.approx(
        1.0, abs=1e-12)


def test_mirror_determinants_frozen():
    # symbolic values of the mirror determinants for these sign layouts
    t_ex, t_in = 0.04, 0.003
    assert np.linalg.det(tm_mirror_in(t_ex)) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.det(tm_mirror_out(t_in)) == pytest.approx(
        (2.0 - t_in) / t_in, rel=1e-12)


# --------------------------------------------------------------------------
# chain reflection
# --------------------------------------------------------------------------

def test_matched_empty_cavity_reflects_nothing_on_mode_centers():
    cav = _empty_cavity(t_ex=0.01, t_in=0.01)
    for delta in (-1.0, 0.0, 2.0):  # integer multiples of the FSR
        assert abs(tm_reflectance(cav, delta)) < 1e-9


def test_fsr_periodicity_without_atoms():
    cav = _empty_cavity(t_ex=0.02, t_in=0.001)
    deltas = np.linspace(-0.5, 0.5, 101)
    a = tm_reflectance(cav, deltas)
    b = tm_reflectance(cav, deltas + 1.0)
    assert np.max(np.abs(a - b)) < 1e-9


def test_one_dip_per_longitudinal_mode():
    cav = _empty_cavity(t_ex=0.01, t_in=0.003)
    deltas = np.linspace(-2.5, 2.5, 10001)
    power = np.abs(tm_reflectance(cav, deltas)) ** 2
    dips = np.where((power[1:-1] < power[:-2]) & (power[1:-1] < power[2:])
                    & (power[1:-1] < 0.5))[0]
    assert len(dips) == 5
    assert np.allclose(np.round(deltas[dips + 1]), deltas[dips + 1], atol=1e-3)


@settings(max_examples=25, deadline=None)
@given(scale=st.floats(0.8, 1.2), d=st.floats(-30.0, 30.0))
def test_energy_bound_on_scans(scale, d):
    params = delay_matched_params(10, 1.0)
    cav = _single_atom_cavity(params.with_(kappa_ex=params.kappa_ex * scale))
    assert abs(tm_reflectance(cav, d * 1.0, [1])) <= 1.0 + 1e-9


@pytest.mark.parametrize("kex_scale", [0.8, 1.0, 1.2])
def test_single_mode_oracle(kex_scale):
    params = delay_matched_params(10, 1.0).with_()
    params = params.with_(kappa_ex=params.kappa_ex * kex_scale)
    cav = _single_atom_cavity(params)
    deltas = np.linspace(-5 * params.kappa, 5 * params.kappa, 301)
    for states, reference in (([1], reflection_r1), ([0], reflection_r0)):
        chain = tm_reflectance(cav, deltas, atom_states=states)
        assert np.max(np.abs(chain - reference(params, deltas))) < 1e-3


@pytest.mark.parametrize("change", [{"t_ex": 1.5}, {"atom_gamma_1d": [-0.1]},
                                    {"atom_gamma_total": [0.0]}],
                         ids=["t_ex", "gamma_1d", "gamma_total"])
def test_invalid_cavity_rejected_at_construction(change):
    fields = dict(omega_fsr=1.0, n0=1001, t_ex=0.01, t_in=0.01,
                  atom_positions=[0.5], atom_gamma_1d=[0.1],
                  atom_gamma_total=[2.0], atom_delta_a=[0.0])
    TmCavity(**fields)
    with pytest.raises(DomainError):
        TmCavity(**dict(fields, **change))


# --------------------------------------------------------------------------
# wavelength-multiplexed crosstalk
# --------------------------------------------------------------------------

def test_calibration_balances_the_chain():
    system = _nanofiber_system()
    t_ex, r_m = calibrated_coupler(system)
    assert 0.0 < t_ex < 1.0
    assert 0.0 < r_m < 1.0
    # single-channel run at the calibrated point has essentially no error
    res = wvm_crosstalk(system, n_channels=1, trials=2, seed=5)
    assert res.mean_infidelity < 1e-9


def test_channel_offsets_are_centered():
    assert channel_offsets(10) == [-5, -4, -3, -2, -1, 0, 1, 2, 3, 4]
    assert channel_offsets(3) == [-1, 0, 1]


def test_nanofiber_parameter_crosstalk_bounds():
    res = wvm_crosstalk(_nanofiber_system(2000), n_channels=10, trials=10, seed=11)
    assert res.mean_infidelity < 1e-6
    res100 = wvm_crosstalk(_nanofiber_system(100), n_channels=10, trials=10, seed=11)
    assert res100.mean_infidelity < 1e-4


def test_crosstalk_deterministic_given_seed():
    a = wvm_crosstalk(_nanofiber_system(), n_channels=4, trials=3, seed=2)
    b = wvm_crosstalk(_nanofiber_system(), n_channels=4, trials=3, seed=2)
    assert a.rows == b.rows


def test_hidden_atom_sentinel_insensitive():
    import capsim.transfer_matrix as tmod

    system = _nanofiber_system()
    res_a = wvm_crosstalk(system, n_channels=3, trials=2, seed=9)
    original = tmod.HIDDEN_DETUNING_FACTOR
    try:
        tmod.HIDDEN_DETUNING_FACTOR = 2.0 * original
        res_b = wvm_crosstalk(system, n_channels=3, trials=2, seed=9)
    finally:
        tmod.HIDDEN_DETUNING_FACTOR = original
    diffs = [abs(x[2] - y[2]) for x, y in zip(res_a.rows, res_b.rows)]
    assert max(diffs) < 1e-12


def test_single_mode_equivalent_matches_cooperativity():
    system = _nanofiber_system()
    params = single_mode_equivalent(system)
    assert params.c_in == pytest.approx(system.c_in, rel=1e-12)
