import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import capsim.gate
import capsim.transfer_matrix as tmod
from capsim.cavity import (CavityParams, WvmSystem, delay_matched_params, reflection_r0,
                           reflection_r1)
from capsim.config import parse_config
from capsim.errors import DomainError
from capsim.experiments import _wvm_system
from capsim.gate import _heralded, _snap_unit
from capsim.runner import run_sweep
from capsim.transfer_matrix import (TmCavity, calibrated_coupler,
                                    central_antinode, channel_chain,
                                    channel_offsets, tm_mirror_in,
                                    tm_mirror_out, tm_reflectance, wvm_chain,
                                    wvm_crosstalk)

GAMMA = 2 * math.pi * 0.24e6


def _nanofiber_system(f_int=2000):
    return WvmSystem(gamma=GAMMA, omega_fsr=2 * math.pi * 2.7e9,
                     omega_a=2 * math.pi * 220e12, sigma0_over_aeff=0.10,
                     c_over_vg=1.4, f_int=f_int)


def _empty_cavity(t_ex=0.01, t_in=0.01, n0=1000, omega_fsr=1.0):
    empty = np.array([])
    return TmCavity(omega_fsr=omega_fsr, n0=n0, t_ex=t_ex, t_in=t_in,
                    atom_positions=empty, gamma_1d=0.0, gamma_total=1.0,
                    atom_delta_a=empty)


def _single_atom_cavity(params, t_ex_target=0.001, n0=1001):
    omega_fsr = 4 * math.pi * params.kappa_ex / t_ex_target
    t_in = 4 * math.pi * params.kappa_in / omega_fsr
    gamma_1d = math.pi * params.g**2 / omega_fsr
    x = ((n0 - 1) // 2 + 0.5) / n0  # exact central antinode for odd n0
    return TmCavity(omega_fsr=omega_fsr, n0=n0, t_ex=t_ex_target, t_in=t_in,
                    atom_positions=np.array([x]), gamma_1d=gamma_1d,
                    gamma_total=2 * params.gamma, atom_delta_a=np.array([0.0]))


# --------------------------------------------------------------------------
# element matrices, whose explicit product (_element_product_reflectance)
# is the oracle for the chain's column recursion
# --------------------------------------------------------------------------

def tm_atom(gamma_1d, gamma_total, delta, delta_a):
    """Transfer matrix of one linearly responding atom.

    zeta = gamma_1d / (2 (delta - delta_a) + i gamma_total); unit
    determinant for any parameters.  Broadcasts over array detunings,
    returning shape (..., 2, 2).
    """
    delta = np.asarray(delta, dtype=float)
    zeta = gamma_1d / (2.0 * (delta - delta_a) + 1j * gamma_total)
    out = np.empty(zeta.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = 1.0 + 1j * zeta
    out[..., 0, 1] = 1j * zeta
    out[..., 1, 0] = -1j * zeta
    out[..., 1, 1] = 1.0 - 1j * zeta
    return out


def tm_propagation(length_frac, delta, omega_fsr, n0):
    """Free propagation over a fraction of the cavity length."""
    delta = np.asarray(delta, dtype=float)
    phase = math.pi * (delta / omega_fsr + n0) * length_frac
    out = np.zeros(phase.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = np.exp(-1j * phase)
    out[..., 1, 1] = np.exp(1j * phase)
    return out


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
    cav = _single_atom_cavity(replace(params, kappa_ex=params.kappa_ex * scale))
    assert abs(tm_reflectance(cav, d * 1.0, [1])) <= 1.0 + 1e-9


@pytest.mark.parametrize("kex_scale", [0.8, 1.0, 1.2])
def test_single_mode_oracle(kex_scale):
    params = delay_matched_params(10, 1.0)
    params = replace(params, kappa_ex=params.kappa_ex * kex_scale)
    cav = _single_atom_cavity(params)
    deltas = np.linspace(-5 * params.kappa, 5 * params.kappa, 301)
    for states, reference in (([1], reflection_r1), ([0], reflection_r0)):
        chain = tm_reflectance(cav, deltas, atom_states=states)
        assert np.max(np.abs(chain - reference(params, deltas))) < 1e-3


def test_single_atom_chain_converges_to_single_mode_model():
    # the chain's single-mode limit: the error of the coupled-mode r0/r1
    # near resonance falls in proportion to the mirror transmittances
    params = delay_matched_params(10, 1.0)
    deltas = np.linspace(-2 * params.kappa, 2 * params.kappa, 201)
    for states, reference in (([1], reflection_r1), ([0], reflection_r0)):
        errors = []
        for t_ex in (1e-2, 1e-3, 1e-4):
            cav = _single_atom_cavity(params, t_ex_target=t_ex)
            chain = tm_reflectance(cav, deltas, atom_states=states)
            errors.append(float(np.max(np.abs(chain - reference(params, deltas)))))
            assert errors[-1] < 0.5 * t_ex
        assert errors[1] < 0.2 * errors[0] and errors[2] < 0.2 * errors[1]


def _random_cavity(rng, n):
    return TmCavity(omega_fsr=1.0, n0=int(rng.integers(100, 5000)),
                    t_ex=float(rng.uniform(1e-3, 0.1)),
                    t_in=2 * math.pi / rng.uniform(100, 2000),
                    atom_positions=np.sort(rng.uniform(0.0, 1.0, n)),
                    gamma_1d=float(rng.uniform(0.0, 1e-3)),
                    gamma_total=float(rng.uniform(1e-4, 1e-2)),
                    atom_delta_a=rng.integers(-3, 4, n).astype(float))


def test_detuning_batch_is_bitwise_the_per_detuning_scan():
    # the runner evaluates a sweep line as one batch; each detuning's
    # reflection must not depend on how many others share the batch
    rng = np.random.default_rng(7)
    for n in range(11):
        for _ in range(6):
            cav = _random_cavity(rng, n)
            deltas = np.concatenate([rng.uniform(-3.0, 3.0, 40), cav.atom_delta_a])
            for states in ([0] * n, [1] * n, rng.integers(0, 2, n).tolist()):
                batch = tm_reflectance(cav, deltas, states)
                single = np.array([tm_reflectance(cav, d, states) for d in deltas])
                assert np.array_equal(batch, single)


def _element_product_reflectance(cavity, delta, state_row):
    """M21 / M11 of the explicit product of the 2x2 element matrices."""
    m = tm_mirror_in(cavity.t_ex)
    prev = 0.0
    for i, x in enumerate(cavity.atom_positions):
        m = m @ tm_propagation(x - prev, delta, cavity.omega_fsr, cavity.n0)
        delta_a = (cavity.atom_delta_a[i] if state_row[i] == 1
                   else tmod.HIDDEN_DETUNING_FACTOR * cavity.gamma_total)
        m = m @ tm_atom(cavity.gamma_1d, cavity.gamma_total, delta, delta_a)
        prev = x
    m = m @ tm_propagation(1.0 - prev, delta, cavity.omega_fsr, cavity.n0)
    m = m @ tm_mirror_out(cavity.t_in)
    return m[..., 1, 0] / m[..., 0, 0]


@pytest.mark.parametrize("array_delta", [False, True], ids=["scalar", "array"])
def test_column_recursion_matches_element_product(array_delta):
    rng = np.random.default_rng(20 + array_delta)
    worst = 0.0
    for _ in range(150):
        cav = _random_cavity(rng, int(rng.integers(0, 11)))
        n = cav.atom_positions.size
        states = rng.integers(0, 2, (6, n))
        if array_delta:
            delta = rng.uniform(-3.0, 3.0, 6)
            ref = [_element_product_reflectance(cav, d, row)
                   for d, row in zip(delta, states)]
        else:
            delta = float(rng.uniform(-3.0, 3.0))
            ref = [_element_product_reflectance(cav, delta, row) for row in states]
        r = tmod._chain_reflectance(cav, delta, states)
        # state rows broadcast only through the atoms they describe
        assert r.shape == ((6,) if n or array_delta else (1,))
        worst = max(worst, float(np.max(np.abs(r - np.array(ref)))))
    assert worst < 1e-11


def _cases(n):
    """All 2^n atom-state bit strings, one row each, first atom slowest."""
    return np.indices((2,) * n).reshape(n, 2**n).T


def test_enumerated_cases_are_bitwise_the_fixed_state_chains():
    rng = np.random.default_rng(30)
    for n in range(9):
        for _ in range(3):
            cav = _random_cavity(rng, n)
            delta = rng.uniform(-3.0, 3.0, 4)
            enumerated = tmod._chain_reflectance(cav, delta)
            assert enumerated.shape == (4, 2**n)
            for case, bits in enumerate(_cases(n)):
                assert np.array_equal(enumerated[:, case], tm_reflectance(cav, delta, bits))


@pytest.mark.parametrize("change", [{"t_ex": 1.5}, {"gamma_1d": -0.1},
                                    {"gamma_total": 0.0}],
                         ids=["t_ex", "gamma_1d", "gamma_total"])
def test_invalid_cavity_rejected_at_construction(change):
    fields = dict(omega_fsr=1.0, n0=1001, t_ex=0.01, t_in=0.01,
                  atom_positions=[0.5], gamma_1d=0.1, gamma_total=2.0,
                  atom_delta_a=[0.0])
    TmCavity(**fields)
    with pytest.raises(DomainError):
        TmCavity(**dict(fields, **change))


# --------------------------------------------------------------------------
# Bisection root search
# --------------------------------------------------------------------------

def _bracketed_function(rng, kind):
    """A function with one sign change at a random root, and its bracket."""
    root = rng.uniform(-2.0, 2.0)
    c = rng.uniform(0.1, 3.0) * rng.choice([-1.0, 1.0])
    f = [lambda x: math.tanh(c * (x - root)),
         lambda x: (x - root) * (1.5 + math.sin(c * x)),
         lambda x: math.expm1(c * (x - root)),
         lambda x: (x - root) ** 3 + 1e-3 * abs(c) * (x - root),
         lambda x: math.atan(c * (x - root) ** 5)][kind]
    a, b = root - rng.uniform(1e-3, 5.0), root + rng.uniform(1e-3, 5.0)
    return f, *((a, b) if rng.random() < 0.5 else (b, a))


def test_bisect_brackets_the_sign_change_to_adjacent_floats():
    rng = np.random.default_rng(20)
    for i in range(1200):
        f, a, b = _bracketed_function(rng, i % 5)
        x = tmod._bisect(f, a, b)
        assert min(a, b) <= x <= max(a, b), (i, a, b)
        below, above = (f(np.nextafter(x, side)) < 0.0 for side in (-np.inf, np.inf))
        assert f(x) == 0.0 or below != above, (i, a, b, x)


@pytest.mark.parametrize("a, b", [(1.0, 3.0), (-2.0, 1.0)])
def test_bisect_returns_an_endpoint_root(a, b):
    # f(a) == 0 or f(b) == 0 ends the search before any step
    assert tmod._bisect(lambda x: x - 1.0, a, b) == 1.0


def test_bisect_rejects_a_bracket_without_sign_change():
    with pytest.raises(DomainError, match="no sign change"):
        tmod._bisect(lambda x: x * x + 1.0, -1.0, 1.0)


def _bundled_wvm_systems():
    """Every WvmSystem the bundled fig7 recipes and benchmark configs build."""
    from capsim.cli import _resolve_config

    root = Path(__file__).resolve().parents[1]
    raws = [_resolve_config(name) for name in ("fig7b", "fig7c")]
    raws += [_resolve_config(str(path))
             for path in sorted((root / "perfbench" / "configs").glob("*.json"))]
    systems = set()
    for raw in raws:
        if raw["experiment"] in ("tm_spectrum", "wvm_crosstalk"):
            config = parse_config(raw)
            systems.update(_wvm_system(config.point_parameters(i))
                           for i in range(config.grid_size()))
    return sorted(systems, key=repr)


def test_calibrated_coupler_agrees_with_scipy_root(monkeypatch):
    from scipy.optimize import brentq

    systems = _bundled_wvm_systems()
    assert systems
    systems += [_nanofiber_system(f_int) for f_int in (100, 500, 8000)]
    ours = [calibrated_coupler.__wrapped__(s) for s in systems]
    monkeypatch.setattr(tmod, "_bisect", lambda f, a, b: brentq(f, a, b, xtol=1e-14))
    ref = [calibrated_coupler.__wrapped__(s) for s in systems]
    assert np.max(np.abs(np.array(ours) - np.array(ref))) <= 1e-14


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


def _system_at_mode(n0):
    fsr = 2 * math.pi * 2.7e9
    return WvmSystem(gamma=GAMMA, omega_fsr=fsr, omega_a=n0 * fsr, sigma0_over_aeff=0.10,
                     c_over_vg=1.4, f_int=2000)


@given(st.integers(1, 10**9))
def test_central_antinode_is_the_antinode_nearest_the_center(n):
    x = central_antinode(n)
    if n % 2:
        assert x == ((n - 1) / 2 + 0.5) / n
    else:
        assert x == ((n // 2 - 1 if n % 4 == 2 else n // 2) + 0.5) / n
        assert abs(x - 0.5) <= 0.5 / n + 1e-15


@pytest.mark.parametrize("n0", [81481, 81482, 81484], ids=["odd", "2mod4", "0mod4"])
def test_system_chain_carries_the_shared_atomic_rates(n0):
    system = _system_at_mode(n0)
    positions = np.sort(np.random.default_rng(n0).uniform(0.0, 1.0, (3, 4)), axis=-1)
    cavity = wvm_chain(system, 0.01, positions, np.zeros((3, 4)))
    assert (cavity.omega_fsr, cavity.n0, cavity.t_ex, cavity.t_in) == (
        system.omega_fsr, n0, 0.01, system.t_in)
    assert cavity.gamma_1d == system.gamma_1d and cavity.gamma_total == 2 * GAMMA
    assert np.array_equal(cavity.atom_positions, positions)


@pytest.mark.parametrize("n0", [81481, 81482, 81484], ids=["odd", "2mod4", "0mod4"])
@pytest.mark.parametrize("n_channels", [0, 1, 2, 5, 10])
def test_channel_chain_puts_one_atom_per_channel_on_its_central_antinode(n0, n_channels):
    system = _system_at_mode(n0)
    cavity = channel_chain(system, n_channels)
    atoms = [(central_antinode(n0 + off), off * system.omega_fsr)
             for off in channel_offsets(n_channels)]
    # modes of one parity can share an antinode (every odd mode's is 1/2)
    assert np.all(np.diff(cavity.atom_positions) >= 0.0)
    chain_atoms = zip(cavity.atom_positions.tolist(), cavity.atom_delta_a.tolist())
    assert sorted(chain_atoms) == sorted(atoms)
    assert cavity.gamma_1d == system.gamma_1d and cavity.gamma_total == 2 * GAMMA
    assert cavity.t_ex == (calibrated_coupler(system)[0] if n_channels else system.t_ex)


@pytest.mark.parametrize("n0", [81481, 81482, 81484], ids=["odd", "2mod4", "0mod4"])
def test_calibrated_coupler_unchanged_on_even_modes(n0):
    # the bits the n0 // 2 antinode gave: at n0 = 2 (mod 4) the shared rule
    # takes the antinode mirrored about the center, and the chain is unmoved
    t_ex, r_m = calibrated_coupler(_system_at_mode(n0))
    assert (t_ex.hex(), r_m.hex()) == ("0x1.51b1d0c8534c3p-5", "0x1.b8c7d235d6c0ep-1")


_NO_MODE = {"rounds-to-0": {"omega_a_2pi_GHz": 1.0, "omega_fsr_2pi_GHz": 2.7},
            "overflows": {"omega_a": 1e300, "omega_fsr": 1e-300}}


@pytest.mark.parametrize("omega_a, omega_fsr", [(0.37, 1.0), (0.5, 1.0), (1e300, 1e-300),
                                                (math.inf, 1.0), (math.nan, 1.0)])
def test_mode_number_below_one_rejected_at_construction(omega_a, omega_fsr):
    with pytest.raises(DomainError, match="mode number"):
        WvmSystem(gamma=1.0, omega_fsr=omega_fsr, omega_a=omega_a,
                  sigma0_over_aeff=0.1, c_over_vg=1.4, f_int=2000)


@pytest.mark.parametrize("experiment, extra, axis", [
    ("tm_spectrum", {}, {"name": "delta", "start": -1.0, "stop": 1.0, "points": 3}),
    ("wvm_crosstalk", {"n_channels": 2}, {"name": "trials", "start": 1, "stop": 3, "points": 3})])
@pytest.mark.parametrize("modes", _NO_MODE.values(), ids=_NO_MODE.keys())
def test_mode_number_below_one_is_a_domain_error_row(experiment, extra, axis, modes):
    raw = {"experiment": experiment, "sweep": [axis], "output": {"path": "wvm.csv"},
           "parameters": dict({"gamma_2pi_MHz": 0.24, "sigma0_over_aeff": 0.1,
                               "c_over_vg": 1.4, "f_int": 2000}, **modes, **extra)}
    lines, columns, failures = run_sweep(parse_config(raw))
    errors = [line.rstrip("\n").split(",")[-1] for line in lines]
    assert failures == len(lines) == 3
    assert all(e.startswith("DomainError: ") for e in errors), errors


def test_nanofiber_parameter_crosstalk_bounds():
    res = wvm_crosstalk(_nanofiber_system(2000), n_channels=10, trials=10, seed=11)
    assert res.mean_infidelity < 1e-6
    res100 = wvm_crosstalk(_nanofiber_system(100), n_channels=10, trials=10, seed=11)
    assert res100.mean_infidelity < 1e-4


def test_crosstalk_deterministic_given_seed():
    a = wvm_crosstalk(_nanofiber_system(), n_channels=4, trials=3, seed=2)
    b = wvm_crosstalk(_nanofiber_system(), n_channels=4, trials=3, seed=2)
    assert a.rows == b.rows


def _list_positions(system, n_channels, n_atoms, trial, seed, window):
    """Drawn and sorted positions and sorted detunings of one trial, from explicit lists."""
    offsets = channel_offsets(n_channels)
    channel = [offsets[i % n_channels] for i in range(n_atoms)]
    rng = np.random.default_rng([seed, trial])
    taken = {off: set() for off in offsets}
    positions = np.empty(n_atoms)
    for i, off in enumerate(channel):
        n_mode = system.n0 + off
        lo = math.ceil(window[0] * n_mode - 0.5)
        hi = math.floor(window[1] * n_mode - 0.5)
        free = [x for x in ((k + 0.5) / n_mode for k in range(lo, hi + 1))
                if x not in taken[off]]
        x = free[rng.integers(len(free))]
        taken[off].add(x)
        positions[i] = x
    order = np.argsort(positions)
    return (positions, positions[order],
            np.array(channel, dtype=float)[order] * system.omega_fsr)


@pytest.mark.parametrize("n_channels, n_atoms, window",
                         [(2, 2, (0.45, 0.55)), (3, 9, (0.45, 0.55)),
                          (10, 10, (0.45, 0.55)), (2, 40, (0.45, 0.55)),
                          (2, 4, (0.5, 0.500025))],
                         ids=["2x2", "3x9", "10x10", "2x40", "2x4-narrow"])
def test_antinode_draws_match_list_reference(n_channels, n_atoms, window):
    # (2, 4) on the narrow window fills every antinode of channel -1
    system = _nanofiber_system()
    for seed in (1, 5, 11):
        positions, delta_a, chain_index = tmod._antinode_draws(
            system, n_channels, n_atoms, 4, seed, window)
        assert positions.shape == delta_a.shape == chain_index.shape == (4, n_atoms)
        for trial in range(4):
            drawn, ref_pos, ref_delta_a = _list_positions(system, n_channels, n_atoms,
                                                          trial, seed, window)
            assert positions[trial].tobytes() == ref_pos.tobytes()
            assert delta_a[trial].tobytes() == ref_delta_a.tobytes()
            # chain_index finds each drawn atom in the sorted chain
            assert positions[trial, chain_index[trial]].tobytes() == drawn.tobytes()


def test_antinode_capacity_checked_before_any_draw(monkeypatch):
    # at n0 = 3 channel -1's mode, N = 2, has its antinodes at x = 1/4 and
    # 3/4, none of them in the sampling window
    omega_fsr = 2 * math.pi * 2.7e9
    system = WvmSystem(gamma=GAMMA, omega_fsr=omega_fsr, omega_a=3 * omega_fsr,
                       sigma0_over_aeff=0.10, c_over_vg=1.4, f_int=2000)

    def no_draws(*args, **kwargs):
        raise AssertionError("drew antinodes for a trial that cannot fit")

    monkeypatch.setattr(capsim.gate, "_stream_states", no_draws)  # read when drawing
    with pytest.raises(DomainError, match="channel -1 has fewer antinodes"):
        wvm_crosstalk(system, 3, trials=3, seed=1)


@pytest.mark.parametrize("n_channels, trials, n_atoms",
                         [(0, 2, None), (2, 0, None), (3, 2, 2), (2, 2, 21)],
                         ids=["no-channels", "no-trials", "channels-over-atoms",
                              "over-enumeration-limit"])
def test_wvm_inputs_checked_before_any_draw(monkeypatch, n_channels, trials, n_atoms):
    def no_draws(*args, **kwargs):
        raise AssertionError("drew antinodes for inputs that cannot run")

    monkeypatch.setattr(capsim.gate, "_stream_states", no_draws)  # read when drawing
    with pytest.raises(DomainError):
        wvm_crosstalk(_nanofiber_system(), n_channels, trials, seed=1, n_atoms=n_atoms)


def _scalar_rows(system, n_channels, n_atoms, trials, seed):
    """wvm_crosstalk's rows, one scalar readout per (trial, target).

    Each readout enumerates the 2^n cases as fixed-state rows of one chain
    and signs them by the target's bit in the case table.
    """
    positions, delta_a, chain_index = tmod._antinode_draws(
        system, n_channels, n_atoms, trials, seed, (0.45, 0.55))
    t_ex, r_m = calibrated_coupler(system)
    offsets = channel_offsets(n_channels)
    cases = _cases(n_atoms)
    scale = 2.0 ** (n_atoms - 1)
    rows = []
    for trial in range(trials):
        cavity = wvm_chain(system, t_ex, positions[trial], delta_a[trial])
        for i in range(n_atoms):
            off = offsets[i % n_channels]
            refl = tmod._chain_reflectance(cavity, off * system.omega_fsr, cases)
            signed = np.where(cases[:, chain_index[trial, i]] == 1, 1.0, -1.0)
            infidelity = _heralded(r_m, np.sum(np.abs(refl) ** 2) / scale,
                                   np.sum(signed * refl) / scale, n_atoms)[0]
            rows.append((trial, off, _snap_unit(infidelity, "infidelity")))
    return rows


@pytest.mark.parametrize("n_channels, n_atoms", [(2, 2), (3, 9), (10, 10), (2, 12)],
                         ids=["2x2", "3x9", "10x10", "2x12"])
def test_wvm_rows_match_scalar_readouts(n_channels, n_atoms):
    system = _nanofiber_system()
    for seed in (1, 5, 11):
        rows = wvm_crosstalk(system, n_channels, trials=3, seed=seed, n_atoms=n_atoms).rows
        ref = _scalar_rows(system, n_channels, n_atoms, 3, seed)
        assert [r[:2] for r in rows] == [r[:2] for r in ref]
        # an array readout squares where a scalar one calls pow: 1 ulp apart
        assert max(abs(a[2] - b[2]) for a, b in zip(rows, ref)) <= 1e-15


@pytest.mark.parametrize("n_channels, n_atoms", [(2, 2), (3, 9)])
def test_wvm_rows_independent_of_block_size(monkeypatch, n_channels, n_atoms):
    system = _nanofiber_system()
    blocked = wvm_crosstalk(system, n_channels, trials=3, seed=4, n_atoms=n_atoms)
    monkeypatch.setattr(tmod, "_BLOCK_CASES", 1)   # one row per chain pass
    single = wvm_crosstalk(system, n_channels, trials=3, seed=4, n_atoms=n_atoms)
    assert single.rows == blocked.rows


def test_wvm_peak_memory_independent_of_trials():
    # blocks bound the chain arrays: without them the 50-trial sweep would
    # hold 500 x 1024 complex cases (8 MiB) per array
    system = _nanofiber_system()
    # a first sweep fills the calibration cache and numpy's lazy state
    wvm_crosstalk(system, n_channels=10, trials=1, seed=11)
    peaks = []
    for trials in (12, 50):
        tracemalloc.start()
        try:
            wvm_crosstalk(system, n_channels=10, trials=trials, seed=11)
            peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
        finally:
            tracemalloc.stop()
    # about 0.56 and 0.58 MiB; unblocked, 11 and 48 MiB
    assert peaks[0] < 1.0 and peaks[1] < peaks[0] + 0.25, peaks


def test_hidden_atom_sentinel_insensitive():
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


def single_mode_equivalent(system):
    """CavityParams matching one isolated mode of the chain."""
    g = math.sqrt(system.gamma_1d * system.omega_fsr / math.pi)
    return CavityParams(g=g, kappa_in=system.kappa_in, kappa_ex=system.kappa_ex,
                        gamma=system.gamma)


def test_single_mode_equivalent_matches_cooperativity():
    system = _nanofiber_system()
    params = single_mode_equivalent(system)
    assert params.c_in == pytest.approx(system.c_in, rel=1e-12)
