"""Multi-mode cavity spectra via 2x2 transfer matrices.

Mirrors, free propagation, and linearly responding atoms compose by
matrix products in the (right-moving, left-moving) field basis; the
chain reflection is M21/M11.  Both mirrors act as fixed ends, so the
longitudinal modes sit at integer multiples of the free spectral range
and the antinodes of mode N at x = (k + 1/2) L / N.  Used to quantify
crosstalk between wavelength channels when several atoms address
distinct longitudinal modes of one cavity.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError

# Atoms in the uncoupled qubit state are pushed this many linewidths away.
# 1e10 keeps the residual response below the 1e-12 stability bound asserted
# by the sentinel-doubling regression test; 1e6 would leave ~1e-9 residuals.
HIDDEN_DETUNING_FACTOR = 1e10


@dataclass(frozen=True)
class TmCavity:
    """Mirrors, identical atoms and the mode bookkeeping of the resonator.

    omega_fsr is the free spectral range (rad/s); omega_0 = n0 * omega_fsr
    is the reference mode all detunings are measured from.  Atom positions
    are stored as fractions of the cavity length, strictly increasing.
    The per-atom arrays may carry a leading row axis, (rows, n): one chain
    per row between the same mirrors, as _chain_reflectance evaluates them.
    """

    omega_fsr: float
    n0: int
    t_ex: float
    t_in: float
    atom_positions: np.ndarray      # fractions of L_cav, ascending
    gamma_1d: float
    gamma_total: float
    atom_delta_a: np.ndarray        # detuning of each atom's resonance from omega_0

    def __post_init__(self):
        pos = np.atleast_1d(np.asarray(self.atom_positions, dtype=float))
        delta_a = np.atleast_1d(np.asarray(self.atom_delta_a, dtype=float))
        if delta_a.shape != pos.shape:
            raise DomainError("atom detunings must share the positions' shape")
        if not (self.gamma_1d >= 0.0 and self.gamma_total > 0.0):
            raise DomainError("atomic rates: gamma_1d must be non-negative, "
                              "gamma_total positive")
        if pos.size and (np.any(pos < 0.0) or np.any(pos > 1.0)):
            raise DomainError("atom positions must lie inside the cavity")
        if pos.size > 1 and np.any(np.diff(pos) < 0.0):
            raise DomainError("atom positions must be ordered")
        object.__setattr__(self, "atom_positions", pos)
        object.__setattr__(self, "atom_delta_a", delta_a)
        if self.omega_fsr <= 0.0 or self.n0 < 1:
            raise DomainError("omega_fsr must be positive and n0 a positive mode index")
        if not (0.0 < self.t_ex < 1.0 and 0.0 < self.t_in < 1.0):
            raise DomainError("mirror transmittances must lie in (0, 1)")


def tm_mirror_in(t_ex):
    s = math.sqrt(1.0 - t_ex)
    return np.array([[1.0, s], [s, 1.0]], dtype=complex) / math.sqrt(t_ex)


def tm_mirror_out(t_in):
    # sign layout makes the mirror a fixed end seen from inside the cavity,
    # putting the resonances at integer multiples of the free spectral range
    s = math.sqrt(1.0 - t_in)
    return np.array([[1.0, s], [-s, 1.0]], dtype=complex) / math.sqrt(t_in)


def _chain_reflectance(cavity, delta, states=None):
    """Chain reflections M21 / M11, one row per chain.

    cavity's per-atom arrays are (n,) or (rows, n): every row is a chain
    with its own atoms between the shared mirrors.  delta is a scalar or a
    (rows,) array of probe detunings.  With states=None every row
    enumerates all 2^n atom-state cases and the result is (rows, 2^n),
    first atom slowest; otherwise states, (n,) or (rows, n), fixes each
    atom's state and the result is (rows,).  Atoms in state 0 are detuned
    HIDDEN_DETUNING_FACTOR linewidths.

    Only the column v = M e0 enters M21 / M11.  It is built from the output
    mirror inwards: free propagation multiplies v0 by exp(-i phase) and v1
    by exp(i phase); an atom, of matrix 1 + i zeta [[1, 1], [-1, -1]] with
    zeta = gamma_1d / (2 (delta - delta_a) + i gamma_total), adds
    i zeta (v0 + v1) to v0 and subtracts it from v1.  The column after
    atoms j..n-1 depends only on their states, so each atom takes one
    branch per state it can be in and the enumeration doubles the column
    at every atom.  The input mirror's action is written out
    elementwise: a BLAS (2, 2) @ (2, k) product rounds differently for
    k > 1, which would make a row's reflection depend on its batch.
    """
    delta = np.atleast_1d(np.asarray(delta, dtype=float))[:, None]
    positions, delta_a = np.atleast_2d(cavity.atom_positions, cavity.atom_delta_a)
    # each atom's branches: both states, or the one it is fixed in
    branches = np.array([0, 1]) if states is None else np.atleast_2d(states)[..., None]
    branch_delta_a = np.where(branches == 1, delta_a[..., None],
                              HIDDEN_DETUNING_FACTOR * cavity.gamma_total)
    # i zeta of every atom's branches, (rows, n, branches)
    i_zeta = 1j * (cavity.gamma_1d / (2.0 * (delta[..., None] - branch_delta_a)
                                      + 1j * cavity.gamma_total))
    wavenumber = math.pi * (delta / cavity.omega_fsr + cavity.n0)
    v0, v1 = tm_mirror_out(cavity.t_in)[:, 0]
    end = 1.0
    for i in reversed(range(positions.shape[-1])):
        x = positions[:, i, None]
        phase = wavenumber * (end - x)
        v0, v1 = v0 * np.exp(-1j * phase), v1 * np.exp(1j * phase)
        t = i_zeta[:, i, :, None] * (v0 + v1)[:, None, :]
        v0, v1 = ((v0[:, None, :] + t).reshape(len(t), -1),
                  (v1[:, None, :] - t).reshape(len(t), -1))
        end = x
    phase = wavenumber * end
    v0, v1 = v0 * np.exp(-1j * phase), v1 * np.exp(1j * phase)
    (a, b), (c, d) = tm_mirror_in(cavity.t_ex)
    m11, m21 = a * v0 + b * v1, c * v0 + d * v1
    if np.any(np.abs(m11) < 1e-300):
        raise DomainError("singular transfer chain: vanishing M11")
    r = m21 / m11
    return r if states is None else r[:, 0]


def tm_reflectance(cavity, delta, atom_states=None):
    """Chain-product reflection amplitude M21 / M11.

    delta may be scalar or an array (vectorized chain product); atom_states
    selects which atoms are coupled (state 1) versus hidden (state 0).
    """
    n = cavity.atom_positions.size
    states = np.ones(n, dtype=int) if atom_states is None else np.asarray(atom_states).reshape(n)
    r = _chain_reflectance(cavity, delta, states)
    return r if np.ndim(delta) else complex(r[0])


def wvm_chain(system, t_ex, positions, delta_a):
    """A WvmSystem's TmCavity: coupler t_ex, identical atoms (gamma_total = 2 gamma)."""
    return TmCavity(omega_fsr=system.omega_fsr, n0=system.n0, t_ex=t_ex, t_in=system.t_in,
                    atom_positions=positions, gamma_1d=system.gamma_1d,
                    gamma_total=2.0 * system.gamma, atom_delta_a=delta_a)


def channel_offsets(n_channels):
    """Mode offsets assigned to the channels, centered on the reference mode."""
    return [n - n_channels // 2 for n in range(n_channels)]


def central_antinode(n_mode):
    """Antinode k = round(n_mode/2 - 1/2) of mode n_mode, at (k + 1/2) / n_mode.

    For odd n_mode that is the center 1/2; for even n_mode, round-half-even
    picks k = n_mode/2 - 1 when n_mode = 2 (mod 4) and n_mode/2 when
    n_mode = 0 (mod 4), 1/(2 n_mode) either side of the center.
    """
    return (round(0.5 * n_mode - 0.5) + 0.5) / n_mode


def _bisect(f, a, b):
    """Root of f in the bracket [a, b], halved down to adjacent floats.

    Returns an endpoint where f vanishes, else whichever of the last two
    floats has the smaller |f|; a bracket without a sign change raises
    DomainError.
    """
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa < 0.0) == (fb < 0.0):
        raise DomainError(f"no sign change to bracket a root in [{a!r}, {b!r}]")
    while True:
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            return a if abs(fa) <= abs(fb) else b
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (fmid < 0.0) == (fa < 0.0):
            a, fa = mid, fmid
        else:
            b, fb = mid, fmid


@lru_cache(maxsize=64)
def calibrated_coupler(system):
    """Coupler transmittance and mirror reflectivity balanced on the chain.

    One target atom sits at the central antinode of the reference mode with
    no spectators; t_ex is tuned until the two target-state reflection
    magnitudes at the bare mode center coincide (the chain-level analogue
    of the closed-form external-rate rule, which bounds the bisection).
    Returns (t_ex, r_m); raises DomainError when the search bracket holds
    no balance point.
    """
    x = central_antinode(system.n0)

    def magnitudes(t_ex):  # (|r0|, |r1|) at the bare mode center
        return np.abs(_chain_reflectance(wvm_chain(system, t_ex, [x], [0.0]), 0.0)[0])

    def imbalance(t_ex):
        r0, r1 = magnitudes(t_ex)
        return r1**2 - r0**2

    lo, hi = system.t_in * 1.0001, min(0.9, 10.0 * system.t_ex)
    t_star = _bisect(imbalance, lo, hi)
    return t_star, float(magnitudes(t_star)[1])


def channel_chain(system, n_channels):
    """Calibrated chain with one atom per channel at its mode's central antinode.

    Offset off's atom is detuned off * omega_fsr; atoms in position order.
    With no channels the chain is empty and keeps the closed-form t_ex.
    """
    t_ex = calibrated_coupler(system)[0] if n_channels else system.t_ex
    offsets = channel_offsets(n_channels)
    positions = [central_antinode(system.n0 + off) for off in offsets]
    order = np.argsort(positions)
    return wvm_chain(system, t_ex, np.array(positions)[order],
                     np.array(offsets, dtype=float)[order] * system.omega_fsr)


@dataclass(frozen=True)
class WvmResult:
    mean_infidelity: float
    rows: list                 # (trial, channel offset, infidelity)
    n_resampled_trials: int    # always 0: whether a trial fits is decided before any draw


# Enumerated cases per chain pass of wvm_crosstalk: a block holds
# max(1, _BLOCK_CASES // 2^n) (trial, target) rows, so its arrays stay near
# 64 kB whatever the trial count.
_BLOCK_CASES = 2**12

# where wvm_crosstalk draws its antinodes, as x in units of the cavity length
_WINDOW = (0.45, 0.55)


def _antinode_draws(system, n_channels, n_atoms, trials, seed, window):
    """Every trial's antinode draws, as (positions, delta_a, chain_index).

    Atoms are assigned to channels round-robin and each is placed at a
    random free antinode of its own mode inside the window, trial t drawing
    default_rng([seed, t]).integers from that stream's own PCG64
    (gate._Pcg64), so numpy.random is never imported.  Row t of positions and delta_a is trial
    t's chain in ascending position order; chain_index[t, i] is where the
    i-th drawn atom sits in it.  A channel with fewer antinodes in the
    window than atoms raises DomainError before any draw.
    """
    from .gate import _Pcg64, _stream_states

    offsets = channel_offsets(n_channels)
    atom_channel = [offsets[i % n_channels] for i in range(n_atoms)]
    # antinodes k of mode N sit at x = (k + 1/2) / N; those in the window
    # are the integers lo..hi
    antinodes = {}
    for off in offsets:
        lo = math.ceil(window[0] * (system.n0 + off) - 0.5)
        hi = math.floor(window[1] * (system.n0 + off) - 0.5)
        if atom_channel.count(off) > hi - lo + 1:
            raise DomainError(f"channel {off} has fewer antinodes in x = {window} than atoms")
        antinodes[off] = (lo, hi)
    positions = np.empty((trials, n_atoms))
    order = np.empty((trials, n_atoms), dtype=int)
    for trial, state in enumerate(_stream_states(seed, trials)):
        rng = _Pcg64(state)
        taken = {off: set() for off in offsets}   # antinode indices k
        for i, off in enumerate(atom_channel):
            lo, hi = antinodes[off]
            # the j-th free antinode: step past each taken one at or below it
            k = lo + int(rng.integers(hi - lo + 1 - len(taken[off])))
            for k_taken in sorted(taken[off]):
                k += k_taken <= k
            taken[off].add(k)
            positions[trial, i] = (k + 0.5) / (system.n0 + off)
        order[trial] = np.argsort(positions[trial])
    delta_a = np.array(atom_channel, dtype=float)[order] * system.omega_fsr
    return (np.take_along_axis(positions, order, axis=1), delta_a,
            np.argsort(order, axis=1))


def wvm_crosstalk(system, n_channels, trials, seed, n_atoms=None):
    """Cross-channel crosstalk of parallel gates on distinct cavity modes.

    The antinodes of every trial are drawn first (_antinode_draws).  Each
    (trial, target atom) row is then read out by enumerating the spectator
    reflection set at the target channel's bare mode center: all rows go
    through _chain_reflectance in blocks of at most _BLOCK_CASES cases (one
    row when 2^n is larger) and through one array _heralded per block.
    Results are averaged over targets and trials.  Unless trials >= 1 and
    1 <= n_channels <= n_atoms <= 20, and when a channel has fewer
    antinodes in _WINDOW than atoms, DomainError is raised before any
    draw.  Rounding below zero is snapped to 0.
    """
    from .gate import _heralded, _snap_unit

    if n_atoms is None:
        n_atoms = n_channels
    if trials < 1 or not 1 <= n_channels <= n_atoms <= 20:
        raise DomainError("need trials >= 1 and 1 <= n_channels <= n_atoms <= 20 "
                          "(every trial enumerates 2^n_atoms spectator cases)")
    positions, delta_a, chain_index = _antinode_draws(system, n_channels, n_atoms,
                                                      trials, seed, _WINDOW)
    t_ex, r_m = calibrated_coupler(system)
    # row trial * n_atoms + i reads out trial's i-th drawn atom, of channel row_channel
    row_trial = np.repeat(np.arange(trials), n_atoms)
    row_channel = np.tile(np.resize(channel_offsets(n_channels), n_atoms), trials)
    row_probe = row_channel * system.omega_fsr
    row_shift = n_atoms - 1 - chain_index.reshape(-1)   # the target's bit in a case index
    cases = np.arange(2**n_atoms)
    scale = 2.0 ** (n_atoms - 1)
    per_block = max(1, _BLOCK_CASES >> n_atoms)
    infidelity = np.empty(row_trial.size)
    for start in range(0, row_trial.size, per_block):
        block = slice(start, start + per_block)
        trial = row_trial[block]
        refl = _chain_reflectance(wvm_chain(system, t_ex, positions[trial], delta_a[trial]),
                                  row_probe[block])
        signed = np.where(cases >> row_shift[block, None] & 1, 1.0, -1.0)
        infidelity[block] = _heralded(r_m, np.sum(np.abs(refl) ** 2, axis=-1) / scale,
                                      np.sum(signed * refl, axis=-1) / scale, n_atoms)[0]
    infidelity = _snap_unit(infidelity, "infidelity")
    rows = list(zip(row_trial.tolist(), row_channel.tolist(), infidelity.tolist()))
    return WvmResult(mean_infidelity=float(np.mean(infidelity)), rows=rows,
                     n_resampled_trials=0)
