import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import capsim.source
from capsim.cavity import delay_matched_params
from capsim.errors import ConvergenceError, DomainError
from capsim.source import (_TRACE_TOL, ENTANGLER_4LVL, LAMBDA_3LVL, DriveProfile,
                           SourceSpec, TemporalKernel, _fine_grid, autocorrelation,
                           build_model, decompose, evolve_master, gaussian_target,
                           mode_overlap, source_kernel)

GAMMA = 1.0
PARAMS10 = delay_matched_params(10, GAMMA)


def _spec(**kw):
    base = dict(params=PARAMS10, p_br=0.0, target_sigma_t=1.0)
    base.update(kw)
    return SourceSpec(**base)


# --------------------------------------------------------------------------
# Drive inversion
# --------------------------------------------------------------------------

def test_drive_vanishes_before_the_pulse():
    # at the window start (five widths early) the drive tracks the target tail
    spec = _spec()
    drive = DriveProfile(spec.params, spec.target_sigma_t, window=spec.time_window)
    omega = drive(_fine_grid(spec)[0])
    assert abs(omega[0]) < 1e-4 * np.max(np.abs(omega))


def test_loss_integral_erf_within_4_ulp_of_scipy():
    from scipy.special import erf

    from capsim.source import _erf

    # a uniform grid over the range, plus log-spaced points down to the
    # smallest arguments where erf(x) ~ 2x / sqrt(pi)
    tiny = np.geomspace(1e-300, 6.0, 2_001)
    x = np.concatenate([np.linspace(-40.0, 40.0, 80_001), tiny, -tiny])
    ref = erf(x)
    assert np.all(np.abs(_erf(x) - ref) <= 4.0 * np.spacing(np.abs(ref)))


def test_drive_rejects_unreachable_pulse_widths():
    with pytest.raises(DomainError):
        DriveProfile(PARAMS10, 1e-4 / GAMMA)


def test_entangler_drive_uses_doubled_rates():
    d3 = DriveProfile(PARAMS10, 1.0)
    d4 = DriveProfile(PARAMS10, 1.0, level_scheme=ENTANGLER_4LVL)
    ref = DriveProfile(dataclasses.replace(PARAMS10, g=2 * PARAMS10.g,
                                           kappa_ex=2 * PARAMS10.kappa_ex,
                                           kappa_in=2 * PARAMS10.kappa_in), 1.0)
    t = np.linspace(-2.0, 2.0, 7)
    assert np.allclose(d4(t), ref(t))
    assert not np.allclose(d4(t), d3(t))


# an entangler source whose norm cost peaks inside the window (c_in 1, sigma_t
# 100 ns): a 4,001-point scan missed that peak by 1.1e-6 relative, more than
# _DRIVE_MARGIN, and left 1 - amplitude2 cost negative between its samples
_INTERIOR_PEAK = dict(params=delay_matched_params(1, 2 * math.pi * 0.24e6), p_br=0.0,
                      target_sigma_t=100e-9, level_scheme=ENTANGLER_4LVL)


def test_drive_scale_is_the_exact_cost_maximum():
    spec = SourceSpec(**_INTERIOR_PEAK)
    drive = DriveProfile(spec.params, spec.target_sigma_t, level_scheme=spec.level_scheme)
    dense = np.max(drive._cost(np.linspace(*spec.time_window, 2_000_001)))
    assert drive.amplitude2 * dense == pytest.approx(1.0 - capsim.source._DRIVE_MARGIN,
                                                     rel=1e-11)


def test_drive_with_an_interior_cost_peak_converges_under_refinement():
    # measured: purity - 1 = 4.3e-9 at sigma_t/800, and p_gen moves by 1.5e-6
    # relative from sigma_t/800 to sigma_t/3200
    sigma_t = _INTERIOR_PEAK["target_sigma_t"]
    fine, finer = (source_kernel(SourceSpec(**_INTERIOR_PEAK, dt=sigma_t / n))
                   for n in (800, 3200))
    assert fine.purity - 1.0 <= 1e-8
    assert fine.p_gen == pytest.approx(finer.p_gen, rel=1e-5)


def test_emitted_mode_matches_target(kernel_c10_pure):
    decomp = decompose(kernel_c10_pure)
    assert mode_overlap(decomp, gaussian_target(1.0)) >= 0.999


# --------------------------------------------------------------------------
# Master equation
# --------------------------------------------------------------------------

def test_undriven_atom_stays_put():
    spec = _spec()
    evo = evolve_master(spec, drive=lambda t: np.zeros_like(np.asarray(t, float)))
    pops = evo.populations(evo.times.size - 1)
    assert pops["u"] == pytest.approx(1.0, abs=1e-10)
    kernel = autocorrelation(evo)
    assert kernel.p_gen == pytest.approx(0.0, abs=1e-12)


def test_trace_conserved_and_populations_physical():
    evo = evolve_master(_spec(p_br=0.5))
    d = evo.model.dim
    traces = np.einsum("tii->t", evo.gauged_rho)
    assert np.max(np.abs(traces - 1.0)) < 1e-8
    diags = np.einsum("tii->ti", evo.gauged_rho)
    assert diags.min() > -1e-10
    assert diags.max() < 1.0 + 1e-10


def test_probability_bookkeeping_closes():
    spec = _spec()
    evo = evolve_master(spec)
    kernel = autocorrelation(evo)
    budget = evo.loss_budget()
    pops = evo.populations(evo.times.size - 1)
    # every route into |g> is a flux integral; residual population stays
    # in |u> and |e>
    success_plus_lost = (budget["emitted"] + budget["internal"]
                         + budget["decay_other"])
    residual = pops["u"] + pops["e"]
    assert success_plus_lost + residual == pytest.approx(1.0, abs=1e-6)
    assert pops["g"] == pytest.approx(success_plus_lost, abs=1e-6)
    # the kernel's trace reproduces the output-coupler flux integral
    assert kernel.p_gen == pytest.approx(budget["emitted"], abs=1e-6)


def test_max_trace_drift_recorded():
    evo = evolve_master(_spec(p_br=0.5))
    assert evo.max_trace_drift == max(abs(np.trace(r) - 1.0) for r in evo.gauged_rho)
    assert evo.max_trace_drift < _TRACE_TOL


def test_nan_state_fails_the_trace_drift_check():
    # NaN compares False both ways, so a `drift > tol` test would pass it
    def nan_drive(t):
        return np.where(t > 0, np.nan, 0.0)

    with pytest.raises(ConvergenceError, match="trace drift nan"):
        evolve_master(_spec(kernel_points=41), drive=nan_drive)


_BLOCKED_SOURCES = {"lambda_pure": dict(p_br=0.0), "lambda": dict(p_br=0.5),
                    "entangler": dict(p_br=0.5, level_scheme=ENTANGLER_4LVL)}


@pytest.mark.parametrize("case", sorted(_BLOCKED_SOURCES))
def test_interval_blocks_do_not_change_the_evolution(case, monkeypatch):
    # a stacked matmul works slice by slice, so one interval per block and
    # all intervals in one block give the default's bits
    spec = _spec(target_sigma_t=1.5, **_BLOCKED_SOURCES[case])
    runs = [evolve_master(spec)]
    for size in (1, spec.kernel_points - 1):
        monkeypatch.setattr(capsim.source, "_BLOCK_INTERVALS", size)
        runs.append(evolve_master(spec))
    ref = runs[0]
    for evo in runs[1:]:
        for name in ("propagators", "no_jump", "gauged_rho"):
            assert getattr(evo, name).tobytes() == getattr(ref, name).tobytes(), name
        assert evo.loss_budget() == ref.loss_budget()


# working memory beyond the stored arrays at 801 kernel points; with every
# interval in one block it is 10.8 MiB (Lambda) and 30.9 MiB (entangler)
_RK4_EXCESS = {LAMBDA_3LVL: 2 * 2**20, ENTANGLER_4LVL: 4 * 2**20}


@pytest.mark.parametrize("scheme", [LAMBDA_3LVL, ENTANGLER_4LVL])
def test_evolution_working_memory_is_bounded(scheme):
    spec = _spec(p_br=0.5, target_sigma_t=1.5, level_scheme=scheme, kernel_points=801)
    tracemalloc.start()
    try:
        evo = evolve_master(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n_int, n, m = evo.propagators.shape[0], evo.propagators.shape[1], evo.no_jump.shape[1]
    stored = n_int * (n + m) ** 2 * 8 + evo.gauged_rho.nbytes
    assert peak < stored + _RK4_EXCESS[scheme]


def test_complex_drive_rejected():
    spec = _spec(kernel_points=41)
    real_drive = DriveProfile(PARAMS10, 1.0)
    with pytest.raises(DomainError, match="drive"):
        evolve_master(spec, drive=lambda t: real_drive(t) * (1.0 + 1e-9j))
    # complex samples with a zero imaginary part are the real drive
    same = evolve_master(spec, drive=lambda t: real_drive(t).astype(complex))
    assert np.array_equal(same.gauged_rho, evolve_master(spec, drive=real_drive).gauged_rho)


def test_model_without_real_gauge_rejected(monkeypatch):
    # an imaginary Hermitian coupling breaks the phases diag(1, -i, -1);
    # the real engine must refuse it rather than drop the imaginary part
    build = capsim.source.build_model

    def imaginary_coupling(spec):
        model = build(spec)
        h = model.h_static
        return dataclasses.replace(model, h_static=1j * np.triu(h) - 1j * np.tril(h))

    monkeypatch.setattr(capsim.source, "build_model", imaginary_coupling)
    with pytest.raises(DomainError, match="not real"):
        evolve_master(_spec(kernel_points=41))


def test_reachable_subspace_dimensions():
    assert build_model(_spec(p_br=0.5)).dim == 4
    model = build_model(_spec(p_br=0.5, level_scheme=ENTANGLER_4LVL))
    assert model.dim == 6
    assert sorted(model.labels) == ["e", "q0", "q0", "q1", "q1", "u"]


def test_entangler_populations_sum_to_trace():
    evo = evolve_master(_spec(p_br=0.5, level_scheme=ENTANGLER_4LVL, kernel_points=41))
    for index in range(evo.times.size):
        pops = evo.populations(index)
        assert set(pops) == {"u", "e", "q0", "q1"}
        trace = float(np.trace(evo.gauged_rho[index]))
        assert sum(pops.values()) == pytest.approx(trace, rel=1e-12)
    # the drive moves population out of |u> into both qubit levels
    assert pops["u"] < 0.5
    assert pops["q0"] == pytest.approx(pops["q1"], rel=1e-12)


# --------------------------------------------------------------------------
# Independent reference: full Fock space stepped on the fine grid
# --------------------------------------------------------------------------

def _full_space_operators(spec, fock_cutoff):
    """Unreduced operators: (H_static, H_drive, [(L, channel)], [L_out])."""
    p, n_f = spec.params, fock_cutoff + 1
    a = np.diag(np.sqrt(np.arange(1.0, n_f)), k=1)
    if spec.level_scheme == LAMBDA_3LVL:
        n_atom, modes = 3, 1
    else:
        n_atom, modes = 4, 2

    def op(atom, *field):
        out = atom
        for f in (list(field) + [np.eye(n_f)] * modes)[:modes]:
            out = np.kron(out, f)
        return out

    def ket_bra(i, j):
        m = np.zeros((n_atom, n_atom))
        m[i, j] = 1.0
        return m

    fields = [[np.eye(n_f)] * m + [a] for m in range(modes)]
    cav = [op(np.eye(n_atom), *f) for f in fields]
    up = [op(ket_bra(1, 2 + m), *f) for m, f in enumerate(fields)]   # |e><q_m| a_m
    h_static = p.g * sum(u + u.T for u in up)
    h_drive = op(ket_bra(1, 0) + ket_bra(0, 1))
    share = 2.0 if modes == 1 else 1.0     # decay_other splits over the qubit levels
    jumps = [(math.sqrt(2.0 * p.kappa_ex) * c, "emitted") for c in cav]
    jumps += [(math.sqrt(2.0 * p.kappa_in) * c, "internal") for c in cav]
    jumps.append((math.sqrt(2.0 * spec.p_br * p.gamma) * op(ket_bra(0, 1)), "decay_initial"))
    jumps += [(math.sqrt(share * (1.0 - spec.p_br) * p.gamma) * op(ket_bra(2 + m, 1)),
               "decay_other") for m in range(modes)]
    return h_static, h_drive, jumps, [math.sqrt(2.0 * p.kappa_ex) * c for c in cav]


def _full_space_reference(spec, fock_cutoff):
    """Kernel and loss budget from scalar-drive RK4 steps of the full model."""
    h_static, h_drive, jumps, collectors = _full_space_operators(spec, fock_cutoff)
    d = h_static.shape[0]
    ident = np.eye(d)

    def liouvillian(h, lindblads):
        out = -1j * (np.kron(h, ident) - np.kron(ident, h.T))
        for lop in lindblads:
            k = lop.conj().T @ lop
            out = out + np.kron(lop, lop.conj()) - 0.5 * (np.kron(k, ident) + np.kron(ident, k.T))
        return sp.csr_matrix(out)

    l_c = liouvillian(h_static, [lop for lop, _ in jumps])
    l_d = liouvillian(h_drive, [])
    drive = DriveProfile(spec.params, spec.target_sigma_t,
                         level_scheme=spec.level_scheme, window=spec.time_window)
    t_i, t_f = spec.time_window
    n_sub = spec.kernel_points
    decim = math.ceil(max(math.ceil((t_f - t_i) / spec.dt), n_sub - 1) / (n_sub - 1))
    t_fine = np.linspace(t_i, t_f, decim * (n_sub - 1) + 1)
    h = t_fine[1] - t_fine[0]

    def step(t, x):
        gens = [l_c + drive(s) * l_d for s in (t, t + 0.5 * h, t + h)]
        k1 = gens[0] @ x
        k2 = gens[1] @ (x + 0.5 * h * k1)
        k3 = gens[1] @ (x + 0.5 * h * k2)
        k4 = gens[2] @ (x + h * k3)
        return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    flux_ops = np.array([(lop.conj().T @ lop).T.reshape(-1) for lop, _ in jumps])
    tvecs = [c.conj().reshape(-1) for c in collectors]
    rho = np.zeros((d, d), dtype=complex)
    rho[0, 0] = 1.0
    x = rho.reshape(-1)
    batch = np.zeros((d * d, 0), dtype=complex)
    budget = np.zeros(len(jumps))
    g1 = np.zeros((n_sub, n_sub), dtype=complex)
    for i in range(t_fine.size):
        if i % decim == 0:
            node = i // decim
            rho = x.reshape(d, d)
            batch = np.hstack([batch] + [(c @ rho).reshape(-1, 1) for c in collectors])
            for c_i, tv in enumerate(tvecs):
                g1[node, :node + 1] += tv @ batch[:, c_i::len(collectors)]
        if i == t_fine.size - 1:
            break
        flux_start = np.real(flux_ops @ x)
        x = step(t_fine[i], x)
        batch = step(t_fine[i], batch)
        budget += 0.5 * h * (flux_start + np.real(flux_ops @ x))
    losses = dict.fromkeys(("emitted", "internal", "decay_initial", "decay_other"), 0.0)
    for (_, kind), value in zip(jumps, budget):
        losses[kind] += value
    return np.tril(g1) + np.tril(g1, -1).conj().T, losses


@pytest.mark.parametrize("scheme, cutoff, p_br", [
    (LAMBDA_3LVL, 1, 0.0), (LAMBDA_3LVL, 2, 0.5), (LAMBDA_3LVL, 3, 1.0),
    (ENTANGLER_4LVL, 1, 0.0), (ENTANGLER_4LVL, 1, 0.5), (ENTANGLER_4LVL, 2, 1.0)])
def test_matches_full_space_reference(scheme, cutoff, p_br):
    # the reduced model is exact for every Fock cutoff; p_br = 0 and 1
    # drop the decay_initial and decay_other jumps from it
    spec = _spec(p_br=p_br, level_scheme=scheme, kernel_points=41, dt=0.025)
    ref_kernel, ref_losses = _full_space_reference(spec, cutoff)
    evo = evolve_master(spec)
    kernel = autocorrelation(evo).kernel
    scale = np.max(np.abs(ref_kernel))
    assert scale > 0.05
    # the complex oracle's kernel is real: the premise of the engine's real gauge
    assert np.max(np.abs(ref_kernel.imag)) <= 1e-15 * scale
    assert np.max(np.abs(kernel - ref_kernel)) <= 1e-12 * scale
    losses = evo.loss_budget()
    assert losses.keys() == ref_losses.keys()
    for kind, value in ref_losses.items():
        assert losses[kind] == pytest.approx(value, rel=1e-12, abs=1e-15)


# --------------------------------------------------------------------------
# Autocorrelation kernel
# --------------------------------------------------------------------------

def test_kernel_is_hermitian_and_psd(kernel_c10_golden):
    k = kernel_c10_golden.kernel
    assert k.dtype == np.float64
    assert np.array_equal(k, k.T)
    sqrt_w = np.sqrt(kernel_c10_golden.weights)
    evals = np.linalg.eigvalsh(k * np.outer(sqrt_w, sqrt_w))
    assert evals.min() >= -1e-8 * np.sum(np.abs(evals))


def test_diagonal_integral_is_emission_probability(kernel_c10_golden):
    assert 0.0 < kernel_c10_golden.p_gen < 1.0


def test_pure_source_kernel_matches_rank_one_closed_form():
    # With p_br = 0 nothing re-excites the atom, so the drive inversion is
    # exact in the no-jump sector and K(t, t') = amplitude2 v(t) v(t') with
    # v the Gaussian target.  The only departure is at the window start
    # t_i = -5 sigma_t, where the target has already begun to emit from a
    # state that is still all |u>: the full window deviates by 4.7e-6 of
    # max|K|, and moving t_i out to -7 sigma_t shrinks that to 5.1e-10.
    # The bulk |t|, |t'| < 3 sigma_t is held to 2e-8 (8.9e-9 measured).
    gamma = 2.0 * math.pi * 0.24e6
    params = delay_matched_params(100, gamma)
    sigma = 232e-9
    for t_i, full_tol in ((-5.0, 1e-5), (-7.0, 1e-9)):
        spec = SourceSpec(params=params, p_br=0.0, target_sigma_t=sigma,
                          time_window=(t_i * sigma, 6.0 * sigma))
        kernel = source_kernel(spec)
        drive = DriveProfile(params, sigma, window=spec.time_window)
        v = gaussian_target(sigma)(kernel.times)
        ref = drive.amplitude2 * np.outer(v, v)
        dev = np.abs(kernel.kernel - ref) / np.max(np.abs(ref))
        bulk = np.abs(kernel.times) < 3.0 * sigma
        assert dev[np.ix_(bulk, bulk)].max() <= 2e-8
        assert dev.max() <= full_tol


def test_pure_source_gives_rank_one_kernel(kernel_c10_pure):
    lam = decompose(kernel_c10_pure).eigenvalues
    assert lam[1] <= 1e-3 * lam[0]
    assert kernel_c10_pure.purity >= 0.999


def test_reexcitation_adds_a_late_tail(kernel_c10_pure, kernel_c10_golden):
    def late_flux(kernel):
        t = kernel.times
        sel = t > 3.0
        return float(np.sum(kernel.weights[sel]
                            * np.diag(kernel.kernel)[sel]))

    assert late_flux(kernel_c10_golden) > 5.0 * late_flux(kernel_c10_pure)


def test_golden_point_decomposition(kernel_c10_golden):
    decomp = decompose(kernel_c10_golden)
    assert decomp.eigenvalues[0] == pytest.approx(0.68, abs=0.02)
    assert decomp.eigenvalues[1] == pytest.approx(0.025, abs=0.005)
    assert kernel_c10_golden.p_gen == pytest.approx(0.72, abs=0.02)


def test_generation_probability_monotone_in_branching_ratio():
    # re-excitation recycles population, so emission grows with p_br while
    # the temporal purity degrades
    p_gens, purities = [], []
    for p_br in (0.0, 0.25, 0.5, 0.75):
        kernel = source_kernel(_spec(p_br=p_br))
        p_gens.append(kernel.p_gen)
        purities.append(kernel.purity)
    assert all(b > a for a, b in zip(p_gens, p_gens[1:]))
    assert all(b < a for a, b in zip(purities, purities[1:]))


def test_synthetic_rank_one_kernel_recovered():
    t = np.linspace(-4, 4, 101)
    w = np.gradient(t)
    v = (1.0 + 0.3 * t) * np.exp(-(t**2) / 2)  # real, and not even in t
    v /= math.sqrt(np.sum(w * v**2))
    lam = 0.55
    kernel = TemporalKernel(times=t, kernel=lam * np.outer(v, v), weights=w)
    decomp = decompose(kernel)
    assert decomp.eigenvalues[0] == pytest.approx(lam, rel=1e-12)
    assert decomp.eigenvalues[1] == pytest.approx(0.0, abs=1e-14)
    overlap = abs(np.sum(w * decomp.eigenmodes[0] * v))
    assert overlap == pytest.approx(1.0, abs=1e-10)


def test_grid_refinement_stable():
    # Halving the default step (sigma_t/200) moves p_gen by 4.0e-12, lambda_1
    # by 1.9e-10 and lambda_2 by 1.7e-11 here; a default step of sigma_t/100
    # would move lambda_1 by 2.3e-9, past the bound.
    coarse_kernel = source_kernel(_spec(p_br=0.5))
    fine_kernel = source_kernel(_spec(p_br=0.5, dt=1.0 / 400))
    assert abs(fine_kernel.p_gen - coarse_kernel.p_gen) < 1e-9
    coarse, fine = decompose(coarse_kernel), decompose(fine_kernel)
    assert abs(fine.eigenvalues[0] - coarse.eigenvalues[0]) < 1e-9
    assert abs(fine.eigenvalues[1] - coarse.eigenvalues[1]) < 1e-9


def test_kernel_text_round_trip(tmp_path, kernel_c10_golden):
    path = tmp_path / "kernel.txt"
    kernel_c10_golden.save(path)
    back = TemporalKernel.load(path)
    assert back.kernel.dtype == np.float64
    assert np.array_equal(back.times, kernel_c10_golden.times)
    assert np.array_equal(back.weights, kernel_c10_golden.weights)
    assert np.array_equal(back.kernel, kernel_c10_golden.kernel)
    assert back.p_gen == kernel_c10_golden.p_gen


def test_kernel_with_imaginary_part_rejected(tmp_path):
    t = np.linspace(0, 1, 5)
    k = np.ones((5, 5), dtype=complex)
    k[2, 2] += 1e-3j  # still Hermitian
    with pytest.raises(DomainError, match="not real"):
        TemporalKernel(times=t, kernel=k, weights=np.ones(5))
    # a file in the old format of 're,im' pairs is refused, not loaded
    path = tmp_path / "kernel.txt"
    TemporalKernel(times=t, kernel=k.real, weights=np.ones(5)).save(path)
    header = path.read_text().splitlines()[0]
    rows = [" ".join(f"{x.real:.17g},{x.imag:.17g}" for x in row) for row in k]
    path.write_text("\n".join([header] + rows) + "\n")
    with pytest.raises(ValueError):
        TemporalKernel.load(path)


@pytest.mark.parametrize("case", ["c10_golden", "1990ns"])
def test_kernel_purity_matches_eigenvalues(case, request):
    # the eigensolve-free purity sum w_i w_j K_ij^2 / p_gen^2 against
    # sum lambda^2 / (sum lambda)^2 of the unclipped spectrum; decompose
    # clips the 1990 ns kernel's eigenvalues of about -4e-12, which alone
    # moves its purity by 2.9e-11
    kernel = request.getfixturevalue(f"kernel_{case}")
    sqrt_w = np.sqrt(kernel.weights)
    lams = np.linalg.eigvalsh(kernel.kernel * np.outer(sqrt_w, sqrt_w))
    assert kernel.purity == pytest.approx(np.sum(lams**2) / np.sum(lams) ** 2, abs=1e-12)
    clipped = decompose(kernel).eigenvalues
    clip_mass = -np.sum(lams[lams < 0.0])
    assert abs(kernel.purity - np.sum(clipped**2) / np.sum(clipped) ** 2) <= (
        1e-12 + 3.0 * clip_mass / kernel.p_gen)


def test_non_hermitian_kernel_rejected():
    t = np.linspace(0, 1, 5)
    bad = np.ones((5, 5))
    bad[0, 1] = 2.0
    with pytest.raises(DomainError, match="symmetric"):
        TemporalKernel(times=t, kernel=bad, weights=np.ones(5))


def test_spec_validation():
    with pytest.raises(DomainError):
        _spec(p_br=1.5)
    with pytest.raises(DomainError):
        _spec(target_sigma_t=-1.0)
    with pytest.raises(DomainError):
        _spec(level_scheme="ladder")


@pytest.mark.parametrize("delta_a", [1.06e6, -1e-3])
def test_spec_rejects_an_atom_detuning(delta_a):
    # the model is resonant: a detuned atom gave the kernel of delta_a = 0 bit for bit
    with pytest.raises(DomainError, match="delta_a"):
        _spec(params=delay_matched_params(10, GAMMA, delta_a=delta_a))
    assert _spec(params=delay_matched_params(10, GAMMA, delta_a=0.0)).params == PARAMS10
