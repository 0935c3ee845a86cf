"""Cavity-assisted photon generation and its temporal-mode content.

A driven three-level atom (or a four-level atom for polarization-encoded
atom-photon entanglement) emits a photon through the cavity output
coupler.  The drive that shapes the emitted wavepacket into a Gaussian is
obtained by exact inversion of the single-excitation equations.  The open
system, re-excitation after decay back to the initial state included, is a
Lindblad master equation on the single-excitation basis.  Only its
invariant blocks are stepped: rho on the one-excitation sector {(u,0),
(e,0), (q,1)} plus the (q,0) populations that the jumps out of it feed, and
the jump-dressed states L rho = |q,0><q,1| rho on one (q,0) row times the
sector, which only the no-jump generator moves (quantum regression theorem;
Gardiner & Zoller, Quantum Noise, ch. 5).  The phases D = diag(1, -i, -1)
on the rungs u, e, q make both blocks real under D . D^dag, so RK4 runs in
float64.  The two-time autocorrelation is therefore a real symmetric
kernel K: its weighted trace is the generation probability, its weighted
two-time overlap with itself over p_gen^2 the trace purity, and its
eigendecomposition yields the mode populations.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .cavity import ENTANGLER_4LVL, LAMBDA_3LVL, CavityParams
from .errors import ConvergenceError, DomainError

_TRACE_TOL = 1e-6
_DRIVE_MARGIN = 1e-6
_WINDOW = (-5.0, 6.0)  # default time window around the pulse center, in units of sigma_t
_STRANDED_LIMIT = 0.5
# Intervals per RK4 block (_interval_propagators): Lambda at 201 points ran 13.0 ms at 64,
# 13.4 unblocked, 13.8 at 32 (medians, 2-core x86_64); entangler at 801: 6.7 MiB, not 34.5.
_BLOCK_INTERVALS = 64
_erf = np.vectorize(math.erf, otypes=[float])  # elementwise math.erf, no scipy import


@dataclass(frozen=True)
class SourceSpec:
    """Photon-source configuration.

    p_br is the branching ratio of spontaneous decay back to the initial
    state (re-excitation channel).  The default window [-5, +6] sigma_t
    around the pulse center and step sigma_t/200 resolve both the drive
    and the cavity response for the regimes this package targets.
    """

    params: CavityParams
    p_br: float
    target_sigma_t: float
    level_scheme: str = LAMBDA_3LVL
    time_window: tuple = None
    dt: float = None
    kernel_points: int = 201

    def __post_init__(self):
        if not (0.0 <= self.p_br <= 1.0):
            raise DomainError("p_br must lie in [0, 1]")
        if self.target_sigma_t <= 0.0:
            raise DomainError("target_sigma_t must be positive")
        if self.level_scheme not in (LAMBDA_3LVL, ENTANGLER_4LVL):
            raise DomainError(f"unknown level scheme {self.level_scheme!r}")
        if self.time_window is None:
            object.__setattr__(self, "time_window",
                               tuple(w * self.target_sigma_t for w in _WINDOW))
        if self.time_window[1] <= self.time_window[0]:
            raise DomainError("time window must have positive extent")
        if self.dt is None:
            object.__setattr__(self, "dt", self.target_sigma_t / 200.0)
        if self.dt <= 0.0:
            raise DomainError("dt must be positive")
        if self.kernel_points < 8:
            raise DomainError("kernel_points must be at least 8")


class DriveProfile:
    """Drive amplitude shaping the emitted wavepacket into a Gaussian
    centred at t = 0.

    Exact inversion in the single-excitation sector: the cavity amplitude
    is fixed by the target output via the input-output relation, the
    excited-state amplitude by the cavity equation, and the drive by the
    remaining amplitude equation, with the initial-state amplitude
    obtained from probability bookkeeping.  The overall amplitude is the
    largest leaving the initial-state population non-negative over the
    window (up to _DRIVE_MARGIN), which reproduces the maximum-probability
    pulse in the adiabatic regime.
    """

    def __init__(self, params, sigma_t, level_scheme=LAMBDA_3LVL, window=None):
        if level_scheme == ENTANGLER_4LVL:
            # two polarization pathways: inversion runs on doubled rates
            g, kex, kin = 2.0 * params.g, 2.0 * params.kappa_ex, 2.0 * params.kappa_in
        else:
            g, kex, kin = params.g, params.kappa_ex, params.kappa_in
        if g <= 0.0:
            raise DomainError("photon generation needs g > 0")
        self._g = g
        self._kex = kex
        self._kappa = kex + kin
        self._gamma = params.gamma
        self._sigma = sigma_t
        if window is None:
            window = tuple(w * sigma_t for w in _WINDOW)
        # amplitude scale from the exact maximum of the norm cost: at a window end or
        # where its slope (2 psi_c^2/g^2) B(t) vanishes, sigma_t^3 B a cubic in t/sigma_t
        k, gam, g_s = self._kappa * sigma_t, self._gamma * sigma_t, g * sigma_t
        tau = np.roots([-1.0, gam + 2.0 * k, 1.0 - k * k - 2.0 * gam * k - g_s * g_s,
                        k * (g_s * g_s + gam * k - 1.0)])
        cost = self._cost(np.append(window, np.clip(tau.real * sigma_t, *window)))
        self.amplitude2 = (1.0 - _DRIVE_MARGIN) / float(np.max(cost))
        self.stranded = 1.0 - self.amplitude2 * float(cost[1])
        if self.stranded > _STRANDED_LIMIT:
            raise DomainError(
                "photon too fast for source: drive inversion strands "
                f"{self.stranded:.2f} of the population in the initial state")

    # per-unit-amplitude shapes ------------------------------------------
    def _psi_c(self, t):
        return gaussian_target(self._sigma)(t) / math.sqrt(2.0 * self._kex)

    def _e(self, t):
        s = self._sigma
        return self._psi_c(t) * (self._kappa - t / s**2) / self._g

    def _loss_integral(self, t):
        """integral of 2 kappa psi_c^2 + 2 gamma e^2 from -inf to t."""
        s = self._sigma
        tau = t / s
        e0 = 0.5 * (1.0 + _erf(tau))
        gauss = np.exp(-(tau**2)) / math.sqrt(math.pi)
        e1 = -0.5 * s * gauss
        e2 = 0.5 * s**2 * e0 - 0.5 * s * t * gauss
        kap, gam, g, kex = self._kappa, self._gamma, self._g, self._kex
        int_psi2 = e0 / (2.0 * kex)
        int_e2 = (kap**2 * e0 - 2.0 * kap * e1 / s**2 + e2 / s**4) / (2.0 * kex * g**2)
        return 2.0 * kap * int_psi2 + 2.0 * gam * int_e2

    def _cost(self, t):
        return self._e(t) ** 2 + self._psi_c(t) ** 2 + self._loss_integral(t)

    def __call__(self, t):
        """Drive amplitude (rad/s) at time(s) t."""
        t = np.asarray(t, dtype=float)
        s = self._sigma
        psi_c = self._psi_c(t)
        e = self._e(t)
        e_dot = psi_c * (-(t / s**2) * (self._kappa - t / s**2) - 1.0 / s**2) / self._g
        psi_u = np.sqrt(1.0 - self.amplitude2 * self._cost(t))
        omega = math.sqrt(self.amplitude2) * (e_dot + self._gamma * e + self._g * psi_c) / psi_u
        return omega if omega.ndim else float(omega)


# --------------------------------------------------------------------------
# Lindblad model and propagator engine
# --------------------------------------------------------------------------

def _unit(dim, *entries):
    """dim x dim real matrix with 1 at each (row, column) entry, 0 elsewhere."""
    m = np.zeros((dim, dim))
    for i, j in entries:
        m[i, j] = 1.0
    return m


@dataclass
class LindbladModel:
    """Hamiltonian pieces, jump operators, and output channels.

    The operators act on the single-excitation basis of build_model;
    labels[i] is the atomic level of basis state i and channels[j] the
    loss-budget channel of lindblads[j].
    """

    dim: int
    h_static: np.ndarray
    h_drive: np.ndarray
    lindblads: list
    channels: list
    collectors: list          # output-channel operators L_out (one per polarization)
    rho0: np.ndarray
    labels: tuple


def build_model(spec):
    """Assemble the level scheme on its single-excitation basis.

    Basis (atomic level, photons in the cavity mode of that level):
    Lambda (u,0), (e,0), (g,0), (g,1); entangler (u,0), (e,0), (q0,0),
    (q0,1), (q1,0), (q1,1), where q_m couples to polarization mode m.
    The drive |u><e| and the coupling |e,0><q,1| conserve the number of
    excitations (atom in u or e, plus photons), and every jump keeps or
    lowers it, so dynamics started in |u,0> never leaves these states:
    the model is exact for any Fock truncation of the cavity modes.
    """
    p = spec.params
    if spec.level_scheme == LAMBDA_3LVL:
        labels = ("u", "e", "g", "g")
        qubits = (2,)  # index of (q,0) for each qubit level q
    else:
        labels = ("u", "e", "q0", "q0", "q1", "q1")
        qubits = (2, 4)
    dim = len(labels)
    up = _unit(dim, *((1, q + 1) for q in qubits))     # |e,0><q,1|
    cavity = [_unit(dim, (q, q + 1)) for q in qubits]  # |q,0><q,1|
    emitted = [math.sqrt(2.0 * p.kappa_ex) * c for c in cavity]
    lindblads = emitted + [math.sqrt(2.0 * p.kappa_in) * c for c in cavity]
    channels = ["emitted"] * len(qubits) + ["internal"] * len(qubits)
    if spec.p_br > 0.0:
        lindblads.append(math.sqrt(2.0 * spec.p_br * p.gamma) * _unit(dim, (0, 1)))
        channels.append("decay_initial")
    if spec.p_br < 1.0:
        # the other decay splits evenly over the qubit levels
        rate = math.sqrt(2.0 * (1.0 - spec.p_br) * p.gamma / len(qubits))
        lindblads += [rate * _unit(dim, (q, 1)) for q in qubits]
        channels += ["decay_other"] * len(qubits)
    return LindbladModel(dim=dim, h_static=p.g * (up + up.T),
                         h_drive=_unit(dim, (0, 1), (1, 0)),
                         lindblads=lindblads, channels=channels, collectors=emitted,
                         rho0=_unit(dim, (0, 0)), labels=labels)


def _liouvillian(model):
    """Dense row-major vectorized generator L(t) = L_c + drive(t) L_d."""
    ident = np.eye(model.dim)

    def commutator(h):
        return -1j * (np.kron(h, ident) - np.kron(ident, h.T))

    l_c = commutator(model.h_static)
    for lop in model.lindblads:
        k = lop.conj().T @ lop
        l_c = l_c + np.kron(lop, lop.conj()) - 0.5 * (np.kron(k, ident) + np.kron(ident, k.T))
    return l_c, commutator(model.h_drive)


def _real(block, what="gauged source model"):
    """Real part of a block that must be real; a nonzero imaginary part raises."""
    if np.any(np.imag(block) != 0.0):
        raise DomainError(f"{what} is not real")
    return np.ascontiguousarray(np.real(block), dtype=float)


def _fine_grid(spec):
    """Uniform integration grid whose nodes contain the kernel subgrid."""
    t_i, t_f = spec.time_window
    n_sub = spec.kernel_points
    steps_hint = max(int(math.ceil((t_f - t_i) / spec.dt)), n_sub - 1)
    decim = int(math.ceil(steps_hint / (n_sub - 1)))
    n_fine = decim * (n_sub - 1) + 1
    return np.linspace(t_i, t_f, n_fine), decim


def _interval_propagators(l_c, l_d, flux_ops, n, drive, times_fine, decim):
    """RK4 propagators and channel-flux functionals of the subgrid intervals.

    l_c, l_d and flux_ops are the generator and the flux functionals on
    the invariant vec indices, gauged real; the first n of those indices
    are the rho block.  Interval k covers fine steps k*decim ...
    (k+1)*decim - 1.  Its propagator is the product of their RK4 step maps;
    its flux functional maps the rho block at the interval start to the
    fine-grid trapezoid integral of Tr[L^dag L rho] for every jump
    channel.  Blocks of _BLOCK_INTERVALS intervals (the result does not
    depend on the size) advance together, one fine step at a time, with the
    drive sampled once on the fine nodes and midpoints.  A step's
    end-of-step generator is the next step's start-of-step one.
    """
    h = times_fine[1] - times_fine[0]
    n_int = (times_fine.size - 1) // decim
    on_nodes, mids = (_real(drive(t), "drive") for t in (times_fine, times_fine[:-1] + 0.5 * h))
    drives = [w.reshape(n_int, decim, 1, 1) for w in (mids, on_nodes[1:])]
    phi, flux = np.empty((n_int,) + l_c.shape), np.empty((n_int, len(flux_ops), n))
    for lo in range(0, n_int, _BLOCK_INTERVALS):
        block = slice(lo, lo + _BLOCK_INTERVALS)
        p = np.tile(np.eye(len(l_c)), (phi[block].shape[0], 1, 1))
        f = 0.5 * (flux_ops @ p[..., :n])
        g4 = l_c + on_nodes[:-1:decim][block, None, None] * l_d
        for j in range(decim):
            g1 = g4
            g2, g4 = (l_c + w[block, j] * l_d for w in drives)
            k1 = g1 @ p
            k2 = g2 @ (p + 0.5 * h * k1)
            k3 = g2 @ (p + 0.5 * h * k2)
            k4 = g4 @ (p + h * k3)
            p = p + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            f += (0.5 if j == decim - 1 else 1.0) * (flux_ops @ p[..., :n])
        phi[block], flux[block] = p, h * f
    return phi, flux


class MasterEvolution:
    """Dynamical-map handle: state on the kernel subgrid plus the propagators
    between consecutive subgrid nodes.

    propagators step the rho block and no_jump the jump-dressed rows, both
    gauged real; gauged_rho is the real D rho D^dag on the subgrid, and
    max_trace_drift the largest |Tr rho - 1| there.
    """

    def __init__(self, spec, drive=None):
        model = self.model = build_model(spec)
        if drive is None:
            drive = DriveProfile(spec.params, spec.target_sigma_t,
                                 level_scheme=spec.level_scheme,
                                 window=spec.time_window)
        times_fine, decim = _fine_grid(spec)
        self.times = times_fine[::decim]
        d = model.dim
        # the inert (q,0) states: no Hamiltonian term and no jump acts on them
        acts = np.any(np.array([model.h_static, model.h_drive] + model.lindblads), axis=(0, 1))
        self.inert, self.sector = np.flatnonzero(~acts), np.flatnonzero(acts)
        phase = np.array([{"u": 1.0, "e": -1j}.get(s, -1.0) for s in model.labels])
        self.gauge = np.outer(phase, phase.conj())
        # vec indices: the rho block, then one inert row times the sector
        block = np.append(np.add.outer(d * self.sector, self.sector), self.inert * (d + 1))
        idx = np.append(block, self.inert[0] * d + self.sector)
        g = self.gauge.reshape(-1)[idx]
        l_c, l_d = (_real(m[np.ix_(idx, idx)] * np.outer(g, g.conj()))
                    for m in _liouvillian(model))
        # Tr[K rho] = vec_r(K^T) . vec_r(rho)
        flux_ops = np.array([(lop.conj().T @ lop).T.reshape(-1) for lop in model.lindblads])
        n = block.size
        phi, flux = _interval_propagators(l_c, l_d, _real(flux_ops[:, idx] * g.conj()), n,
                                          drive, times_fine, decim)
        self.propagators, self.no_jump = phi[:, :n, :n], phi[:, n:, n:]
        keep = np.zeros((self.times.size, d * d))
        keep[0, block] = x = model.rho0.reshape(-1)[block]
        budget = np.zeros(len(model.lindblads))
        self.max_trace_drift = 0.0
        for k, (phi_k, flux_k) in enumerate(zip(self.propagators, flux)):
            budget += flux_k @ x
            x = phi_k @ x
            keep[k + 1, block] = x
            tr = abs(np.trace(keep[k + 1].reshape(d, d)) - 1.0)
            self.max_trace_drift = max(tr, self.max_trace_drift)  # tr first: max keeps a NaN
            if not tr <= _TRACE_TOL:  # a NaN state fails too
                raise ConvergenceError(
                    f"trace drift {tr:.2e} at t = {self.times[k + 1]:.3e}; reduce dt")
        self.gauged_rho = keep.reshape(self.times.size, d, d)
        self._channel_budget = budget

    def loss_budget(self):
        """Integrated probability through each jump channel over the window.

        Keys: 'emitted' (output coupler), 'internal' (cavity loss),
        'decay_initial' (spontaneous decay back to the initial state, the
        re-excitation channel), 'decay_other' (all other spontaneous decay).
        """
        channels = dict.fromkeys(("emitted", "internal", "decay_initial", "decay_other"), 0.0)
        for kind, value in zip(self.model.channels, self._channel_budget):
            channels[kind] += float(value)
        return channels

    def populations(self, index):
        """Atomic-level populations (diagonal summed by label) at a subgrid node.

        The gauge phases have modulus 1, so gauged_rho has rho's diagonal.
        """
        diag = np.diag(self.gauged_rho[index])
        labels = np.array(self.model.labels)
        return {name: float(np.sum(diag[labels == name]))
                for name in dict.fromkeys(self.model.labels)}


def evolve_master(spec, drive=None):
    """Integrate the master equation; returns the dynamical-map handle.

    A custom drive must accept an array of times and return real samples.
    """
    return MasterEvolution(spec, drive=drive)


# --------------------------------------------------------------------------
# Two-time autocorrelation and temporal-mode decomposition
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TemporalKernel:
    """Discretized two-time field autocorrelation (real, symmetric) with quadrature weights."""

    times: np.ndarray
    kernel: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        k = _real(self.kernel, "kernel")
        w = np.asarray(self.weights, dtype=float)
        if k.shape != (t.size, t.size) or w.shape != t.shape:
            raise DomainError("kernel must be square on the time grid")
        asym = np.max(np.abs(k - k.T))
        scale = max(np.max(np.abs(k)), 1e-300)
        if asym > 1e-10 * scale:
            raise DomainError(f"kernel is not symmetric (deviation {asym:.2e})")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "kernel", k)
        object.__setattr__(self, "weights", w)

    @property
    def p_gen(self):
        """Photon emission probability: weighted trace of the kernel."""
        return float(np.sum(self.weights * np.diag(self.kernel)))

    def overlap(self, other):
        """Weighted two-time overlap sum_ij w_i w_j K_ij K'_ij on a shared grid."""
        if self.times.shape != other.times.shape or not np.allclose(self.times, other.times):
            raise DomainError("kernels must share a common time grid")
        return float(self.weights @ (self.kernel * other.kernel) @ self.weights)

    @property
    def purity(self):
        """Trace purity sum_l p_l^2 / p_gen^2 = overlap(self) / p_gen^2."""
        p = self.p_gen
        if p <= 0.0:
            raise DomainError("no emission: purity undefined")
        return self.overlap(self) / (p * p)

    def save(self, path):
        """Portable text export: JSON header line, then the kernel's rows."""
        header = {"times": self.times.tolist(), "weights": self.weights.tolist(),
                  "p_gen": self.p_gen}
        np.savetxt(path, self.kernel, fmt="%.17g", header=json.dumps(header), comments="# ")

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            first = fh.readline()
            if not first.startswith("# "):
                raise DomainError("missing kernel header line")
            header = json.loads(first[2:])
            kernel = np.loadtxt(fh, ndmin=2)
        return cls(times=np.array(header["times"]), kernel=kernel,
                   weights=np.array(header["weights"]))


def _trapezoid_weights(t):
    w = np.empty_like(t)
    w[1:-1] = 0.5 * (t[2:] - t[:-2])
    w[0] = 0.5 * (t[1] - t[0])
    w[-1] = 0.5 * (t[-1] - t[-2])
    return w


def autocorrelation(evolution):
    """Two-time autocorrelation of the emitted field on the kernel subgrid.

    Fills the lower triangle t >= t' by propagating the jump-dressed rows
    L rho(t') with the no-jump propagators and tracing against the output
    channels; the upper triangle follows by symmetry of the real kernel.
    All active columns advance together, so the cost is one sweep.
    """
    model = evolution.model
    sector = evolution.sector
    n = evolution.times.size
    n_ch = len(model.collectors)
    rows = _real(np.array([(c * evolution.gauge)[q, sector]
                           for c, q in zip(model.collectors, evolution.inert)]))
    g1 = np.zeros((n, n))
    batch = np.zeros((sector.size, n, n_ch))
    for k in range(n):
        if k:
            active = batch[:, :k].reshape(sector.size, k * n_ch)
            batch[:, :k] = (evolution.no_jump[k - 1] @ active).reshape(sector.size, k, n_ch)
        batch[:, k] = (rows @ evolution.gauged_rho[k][np.ix_(sector, sector)]).T
        g1[k, :k + 1] = np.einsum("cx,xjc->j", rows, batch[:, :k + 1])

    g1 = g1 + np.tril(g1, -1).T  # g1 is zero above the diagonal
    return TemporalKernel(times=evolution.times, kernel=g1,
                          weights=_trapezoid_weights(evolution.times))


def source_kernel(spec):
    """Convenience pipeline: drive inversion, evolution, autocorrelation."""
    return autocorrelation(evolve_master(spec))


@dataclass(frozen=True)
class ModeDecomposition:
    """Eigenmodes of the weight-symmetrized kernel.

    eigenvalues are mode populations in descending order; eigenmodes are
    real and orthonormal under the weighted grid inner product.
    """

    eigenvalues: np.ndarray
    eigenmodes: np.ndarray  # shape (n_modes, n_times)
    times: np.ndarray
    weights: np.ndarray


def decompose(kernel):
    """Eigendecomposition of a temporal kernel into mode populations.

    The kernel is symmetrized with sqrt(w_i w_j) before the real symmetric
    eigensolve; eigenvalues below -1e-8 of the trace are rejected, small
    negatives are clipped to zero.
    """
    sqrt_w = np.sqrt(kernel.weights)
    sym = kernel.kernel * np.outer(sqrt_w, sqrt_w)
    evals, evecs = np.linalg.eigh(sym)
    trace = float(np.sum(np.abs(evals)))
    if trace > 0.0 and evals.min() < -1e-8 * trace:
        raise DomainError(f"kernel not positive semidefinite (min eig {evals.min():.2e})")
    evals = np.clip(evals, 0.0, None)
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    modes = (evecs[:, order] / sqrt_w[:, None]).T
    return ModeDecomposition(eigenvalues=evals, eigenmodes=modes,
                             times=kernel.times, weights=kernel.weights)


def mode_overlap(decomp, target):
    """Modulus overlap between the leading eigenmode and a target function of time."""
    v = decomp.eigenmodes[0]
    tgt = np.asarray(target(decomp.times) if callable(target) else target,
                     dtype=complex)
    tgt_norm = math.sqrt(abs(np.sum(decomp.weights * np.abs(tgt) ** 2)))
    return abs(np.sum(decomp.weights * v * tgt)) / tgt_norm


def gaussian_target(sigma_t):
    """Normalized Gaussian temporal amplitude centred at t = 0."""
    def target(t):
        return (math.pi * sigma_t**2) ** -0.25 * np.exp(-(t**2) / (2.0 * sigma_t**2))
    return target
