"""Conditional fidelity and success probability of the scattering gate.

Covers the long-pulse (monochromatic) limit, finite-bandwidth Gaussian
pulses filtered by the frequency-dependent cavity response, and seeded
Monte-Carlo robustness studies under parameter fluctuations.  The
finite-bandwidth metrics are exact: the cavity responses are rational in
the detuning, so their Gaussian averages close in the Faddeeva function.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .cavity import CavityParams, InterfaceOptics, reflection_r0, reflection_r1
from .errors import DomainError

_BOUND_SNAP = 1e-12  # values this close to the [0, 1] edges are snapped
_SQRT_PI = math.sqrt(math.pi)
# near the exceptional point (see _cauchy_dd): switch, ring radius and node count
_EP_SWITCH = 1e-3
_EP_RING = 1e-2
_EP_NODES = 4


def _snap_unit(x, what):
    """x, a scalar or an array, with values near the [0, 1] edges snapped.

    Values within _BOUND_SNAP of 0 or 1 move onto the edge; a value left
    outside [0, 1] (or NaN) raises, naming the first one.
    """
    a = np.asarray(x, dtype=float)
    a = np.where((-_BOUND_SNAP <= a) & (a <= _BOUND_SNAP), 0.0,
                 np.where((1.0 - _BOUND_SNAP <= a) & (a <= 1.0 + _BOUND_SNAP), 1.0, a))
    outside = ~((0.0 <= a) & (a <= 1.0))
    if np.any(outside):
        raise DomainError(f"{what} = {float(a[outside][0])!r} outside [0, 1]")
    return a if a.ndim else float(a)


@dataclass(frozen=True)
class GateOutcome:
    """Heralded-gate figures of merit.

    f_c is the conditional (detection-heralded) average fidelity,
    p_success the heralding probability, and leakage = 1 - p_success the
    weight lost from the atom (x) polarization subspace.  Values within
    1e-12 of the [0, 1] edges are snapped onto them.
    """

    f_c: float
    p_success: float
    leakage: float = field(default=None)

    def __post_init__(self):
        if self.leakage is None:
            object.__setattr__(self, "leakage", 1.0 - self.p_success)
        object.__setattr__(self, "f_c", _snap_unit(self.f_c, "f_c"))
        object.__setattr__(self, "p_success", _snap_unit(self.p_success, "p_success"))
        object.__setattr__(self, "leakage", _snap_unit(self.leakage, "leakage"))
        if abs(self.p_success - (1.0 - self.leakage)) > 1e-12:
            raise DomainError("p_success and leakage are inconsistent")

    @property
    def infidelity(self):
        return 1.0 - self.f_c


@dataclass(frozen=True)
class SpectralMode:
    """Complex spectral amplitude sampled on a strictly increasing grid.

    weights are quadrature weights for the grid; the squared norm
    sum(w * |f|^2) may be below one (sub-normalized modes are allowed).
    """

    grid: np.ndarray
    amplitude: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        amp = np.asarray(self.amplitude, dtype=complex)
        w = np.asarray(self.weights, dtype=float)
        if grid.ndim != 1 or grid.shape != amp.shape or grid.shape != w.shape:
            raise DomainError("grid, amplitude and weights must be 1-d and equal length")
        if np.any(np.diff(grid) <= 0.0):
            raise DomainError("grid must be strictly increasing")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "amplitude", amp)
        object.__setattr__(self, "weights", w)
        if self.norm2() > 1.0 + 1e-9:
            raise DomainError("mode norm exceeds one")

    def norm2(self):
        return float(np.sum(self.weights * np.abs(self.amplitude) ** 2))


@dataclass(frozen=True)
class FluctuationSpec:
    """Gaussian fluctuation of one parameter, given by its FWHM.

    target 'coupling_g' and 'length' use fractional FWHM; 'cavity_freq'
    uses FWHM in units of the photon bandwidth 1/sigma_t.
    """

    target: str
    fwhm: float
    samples: int = 10_000
    seed: int = 0

    _TARGETS = ("coupling_g", "cavity_freq", "length")

    def __post_init__(self):
        if self.target not in self._TARGETS:
            raise DomainError(f"unknown fluctuation target {self.target!r}")
        if self.fwhm < 0.0:
            raise DomainError("fwhm must be non-negative")
        if self.samples < 1:
            raise DomainError("samples must be at least 1")


@dataclass(frozen=True)
class GateScenario:
    """Nominal operating point for robustness studies.

    The photon is a Gaussian of temporal width sigma_t.
    """

    params: CavityParams
    optics: InterfaceOptics
    sigma_t: float

    def __post_init__(self):
        if not self.sigma_t > 0.0:
            raise DomainError("sigma_t must be positive")


@dataclass(frozen=True)
class RobustnessSummary:
    """Success-weighted fluctuation average of the heralded gate metrics.

    mean_fidelity = sum(p_i f_i) / sum(p_i): heralded protocols condition
    on detection, so fidelity is averaged with the per-draw success
    probability as weight.  samples holds per-draw records with columns
    (sample_id, drawn_value, f_c, p).
    """

    mean_fidelity: float
    mean_success: float
    n_samples: int
    n_resampled: int
    samples: np.ndarray

    @property
    def mean_infidelity(self):
        return 1.0 - self.mean_fidelity


def _simpson_weights(n, h):
    if n < 3 or n % 2 == 0:
        raise DomainError("composite Simpson rule needs an odd point count >= 3")
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-2:2] = 2.0
    return w * (h / 3.0)


def gaussian_mode(sigma_t, grid_span=8.0, n_points=2049):
    """Unit-norm Gaussian spectral mode of temporal width sigma_t.

    The spectrum (pi sigma_w^2)^(-1/4) exp(-d^2 / 2 sigma_w^2) with
    sigma_w = 1/sigma_t is sampled on a uniform grid over +-grid_span
    bandwidths with composite-Simpson weights.
    """
    if sigma_t <= 0.0:
        raise DomainError("sigma_t must be positive")
    if n_points < 16:
        raise DomainError("n_points must be at least 16")
    sigma_w = 1.0 / sigma_t
    grid = np.linspace(-grid_span * sigma_w, grid_span * sigma_w, n_points)
    amp = (math.pi * sigma_w**2) ** -0.25 * np.exp(-(grid**2) / (2.0 * sigma_w**2))
    weights = _simpson_weights(n_points, grid[1] - grid[0])
    return SpectralMode(grid=grid, amplitude=amp.astype(complex), weights=weights)


def _conditional(f_pro, one_minus_l, d_q=4):
    """Conditional fidelity from process fidelity and leakage (scalars or arrays)."""
    if np.any(np.asarray(one_minus_l) <= 0.0):
        raise DomainError("zero heralding probability: conditional fidelity undefined")
    return 1.0 - d_q / (d_q + 1.0) * (1.0 - f_pro / one_minus_l)


def caps_longpulse(params, optics):
    """Gate metrics in the long-pulse limit (on-resonance responses only)."""
    r0 = reflection_r0(params, 0.0)
    r1 = reflection_r1(params, 0.0)
    r_m = optics.r_m
    p = (2.0 * abs(r_m) ** 2 + abs(r0) ** 2 + abs(r1) ** 2) / 4.0
    f_pro = abs(2.0 * r_m - r0 + r1) ** 2 / 16.0
    return GateOutcome(f_c=_conditional(f_pro, p), p_success=p)


def _cauchy(q, tau, sigma_w):
    """J(q, tau): integral of |f|^2 exp(-i tau d) / (d - q) over d, Im q < 0.

    For the unit-norm Gaussian |f|^2 = exp(-d^2/sigma_w^2) / (sqrt(pi) sigma_w)
    this is -i sqrt(pi)/sigma_w exp(-sigma_w^2 tau^2/4) w(-q/sigma_w - i sigma_w tau/2)
    with w the Faddeeva function.
    """
    from scipy.special import wofz  # at first use: no other path needs scipy

    return (-1j * _SQRT_PI / sigma_w * math.exp(-0.25 * (sigma_w * tau) ** 2)
            * wofz(-q / sigma_w - 0.5j * sigma_w * tau))


def _cauchy_dd(m, h, tau, sigma_w):
    """Divided difference J[m + h, m - h], exact through h = 0.

    The difference quotient cancels as the two poles merge (the
    exceptional point h = 0).  Where |h| < _EP_SWITCH |Im m|, the divided
    difference, analytic in h^2, is interpolated in h^2 from its
    difference quotients on _EP_NODES points of the ring
    |h| = _EP_RING |Im m|.  J varies on a scale of at least |Im m|, so the
    interpolant errs by about _EP_RING^(2 _EP_NODES) = 1e-16 relative.  A
    Taylor series from the derivative recurrence of w is not used: it
    loses eps |zeta|^2, and |zeta| ~ |m| sigma_t is large for long pulses.
    """
    def quotient(m, h):
        return (_cauchy(m + h, tau, sigma_w) - _cauchy(m - h, tau, sigma_w)) / (2.0 * h)

    near = np.abs(h) < _EP_SWITCH * np.abs(m.imag)
    dd = np.empty_like(h)
    dd[~near] = quotient(m[~near], h[~near])
    if np.any(near):
        ring = (_EP_RING * np.abs(m[near].imag)[:, None]
                * np.exp(1j * np.pi * np.arange(_EP_NODES) / _EP_NODES))
        x = (h[near, None] / ring) ** 2  # ring^2 / |ring|^2 are the M-th roots of unity
        lagrange = (1.0 - x**_EP_NODES) / (1.0 - x) / _EP_NODES
        dd[near] = np.sum(quotient(m[near, None], ring) * lagrange, axis=1)
    return dd


def _gate_metrics(optics, sigma_t, g, kappa_in, kappa_ex, gamma, delta_a, cavity_shift):
    """(f_pro, one_minus_l), one value per row, for a Gaussian photon.

    Every rate broadcasts as one value per row; cavity_shift moves the
    cavity resonance relative to the photon carrier.  In the photon
    detuning d, r0 - 1 = c/(d - p0) and r1 - 1 = c (d - a)/((d - q1)(d - q2))
    with q1,2 = m +- h, all poles below the real axis, so every spectral
    integral is a sum of J(q, tau) terms.
    """
    if not sigma_t > 0.0:
        raise DomainError("sigma_t must be positive")
    sigma_w = 1.0 / sigma_t
    g, kappa_in, kappa_ex, gamma, delta_a, shift = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(v, dtype=float))
          for v in (g, kappa_in, kappa_ex, gamma, delta_a, cavity_shift)))
    tau, r_m = optics.tau_m, optics.r_m
    c = -2j * kappa_ex
    p0 = shift - 1j * (kappa_in + kappa_ex)
    a = shift + delta_a - 1j * gamma
    m, e = 0.5 * (p0 + a), 0.5 * (p0 - a)  # e = m - a
    h = np.sqrt(e**2 + g**2)
    q2 = m - h
    j0, j2 = _cauchy(p0, 0.0, sigma_w), _cauchy(q2, 0.0, sigma_w)
    dd = _cauchy_dd(m, h, 0.0, sigma_w)
    # (q - a) J(q) over (q1, q2) by the product rule: (e + h) J[q1, q2] + J(q2)
    lin1 = c * ((e + h) * dd + j2)
    overlap = c * ((e + h) * _cauchy_dd(m, h, tau, sigma_w) + _cauchy(q2, tau, sigma_w)
                   - _cauchy(p0, tau, sigma_w))
    # |r - 1|^2 on the real axis is 2 Re sum_k res_k / (d - q_k) over the
    # lower poles alone; for r1 that is |c|^2 (R J)[q1, q2] with
    # R(q) = (q - a)(q - conj a) / ((q - conj q1)(q - conj q2)), taken in t = q - m
    u = 2j * m.imag                        # m - conj(m)
    den1, den2 = (u + h) ** 2 - np.conj(h) ** 2, (u - h) ** 2 - np.conj(h) ** 2
    r_q1 = (e + h) * (u + np.conj(e) + h) / den1
    r_q2 = (e - h) * (u + np.conj(e) - h) / den2
    r_dd = (e + u + np.conj(e) - 2.0 * u * r_q2) / den1
    # r0: |r0 - 1|^2 has residue -c kappa_ex / kappa at p0, so 2 Re(c J) scales by kappa_in / kappa
    norm0 = 1.0 + 2.0 * np.real(c * j0) * kappa_in / (kappa_in + kappa_ex)
    norm1 = 1.0 + 2.0 * np.real(lin1 + abs(c) ** 2 * (r_q1 * dd + r_dd * j2))
    one_minus_l = (2.0 * r_m**2 + norm0 + norm1) / 4.0
    f_pro = np.abs(2.0 * r_m + overlap) ** 2 / 16.0
    return f_pro, one_minus_l


def caps_finite_bandwidth(params, optics, sigma_t, cavity_shift=0.0):
    """Gate metrics for a Gaussian photon of temporal width sigma_t.

    The input spectrum is filtered by the state-dependent cavity response
    (and the mirror path by exp(-i tau_m d)).  The responses are rational
    in the detuning, so every spectral integral has an exact closed form
    through the Faddeeva function; nothing is sampled on a grid.
    cavity_shift moves the cavity resonance relative to the photon carrier
    (the caller sets params.delta_a consistently when modeling resonance
    jitter).
    """
    f_pro, one_minus_l = _gate_metrics(
        optics, sigma_t, params.g, params.kappa_in, params.kappa_ex, params.gamma,
        params.delta_a, cavity_shift)
    return GateOutcome(f_c=_conditional(f_pro[0], one_minus_l[0]), p_success=one_minus_l[0])


def min_sigma_t(c_in, gamma, target_infidelity=1e-4, rel_tol=1e-3):
    """Smallest Gaussian pulse width reaching a target gate infidelity.

    Inverts the finite-bandwidth gate evaluation by bisection for a
    delay-matched, reflectivity-matched system of the given internal
    cooperativity.  Infidelity is monotone decreasing in sigma_t in this
    configuration.
    """
    from .cavity import delay_matched_params, matched_optics

    params = delay_matched_params(c_in, gamma)
    optics = matched_optics(params)

    def infid(sig):
        return caps_finite_bandwidth(params, optics, sig).infidelity

    # below ~0.05/gamma the infidelity is far above any useful target
    lo = 0.05 / gamma
    hi = 1.0 / gamma
    for _ in range(60):
        if infid(hi) <= target_infidelity:
            break
        hi *= 2.0
    else:
        raise DomainError("no pulse width in range meets the target infidelity")
    if infid(lo) <= target_infidelity:
        return lo
    while hi / lo - 1.0 > rel_tol:
        mid = math.sqrt(lo * hi)
        if infid(mid) <= target_infidelity:
            hi = mid
        else:
            lo = mid
    return hi


_RESAMPLE_CAP = 10
_FWHM_TO_SIGMA = 1.0 / (2.0 * math.sqrt(2.0 * math.log(2.0)))


def robustness_mc(base, spec):
    """Monte-Carlo average of the gate metrics under one fluctuating knob.

    Optics stay at their nominal calibration while the chosen parameter is
    redrawn per sample from a Gaussian of the given FWHM.  Draws that
    produce an invalid system (non-positive coupling or cavity length) are
    redrawn up to ten times each; the resample count is reported, and the
    lowest sample left without a valid draw raises.  Deterministic for a
    fixed seed, independent of any execution partitioning: sample i uses
    the dedicated stream seeded by (seed, i), built only when fwhm > 0.
    All samples are then evaluated in one exact kernel call.
    """
    sigma = spec.fwhm * _FWHM_TO_SIGMA
    x = np.zeros(spec.samples)
    n_resampled = 0
    for i in range(spec.samples):
        rng = np.random.default_rng([spec.seed, i]) if spec.fwhm > 0.0 else None
        for _ in range(_RESAMPLE_CAP + 1):
            if rng is not None:
                x[i] = rng.normal(0.0, sigma)
            if _valid_draw(base.params, spec.target, x[i]):
                break
            n_resampled += 1
        else:
            raise DomainError(f"sample {i}: no valid draw within {_RESAMPLE_CAP} retries")
    f_pro, one_minus_l = _gate_metrics(
        base.optics, base.sigma_t, *_perturbed_rates(base.params, spec.target, x,
                                                     1.0 / base.sigma_t))
    f = _snap_unit(_conditional(f_pro, one_minus_l), "f_c")
    p = _snap_unit(one_minus_l, "p_success")
    records = np.column_stack((np.arange(spec.samples), x, f, p))
    total_p = float(np.sum(p))
    if total_p <= 0.0:
        raise DomainError("all samples failed to herald")
    return RobustnessSummary(
        mean_fidelity=float(np.sum(p * f) / total_p),
        mean_success=float(np.mean(p)),
        n_samples=spec.samples,
        n_resampled=n_resampled,
        samples=records,
    )


def _valid_draw(params, target, x):
    """Whether draw x of the knob leaves a physical system."""
    if target == "coupling_g":
        return params.g * (1.0 + x) > 0.0
    if target == "length":
        return x > -1.0
    return True


def _perturbed_rates(params, target, x, sigma_w):
    """Kernel rates for valid draws x of one knob.

    Returns (g, kappa_in, kappa_ex, gamma, delta_a, cavity_shift); rates
    the knob leaves alone stay scalars and broadcast.
    """
    g, kappa_in, kappa_ex = params.g, params.kappa_in, params.kappa_ex
    delta_a, shift = params.delta_a, 0.0
    if target == "coupling_g":
        g = params.g * (1.0 + x)
    elif target == "length":
        # scaled_by_length_deviation for every draw
        s = 1.0 + x
        g, kappa_in, kappa_ex = params.g / np.sqrt(s), params.kappa_in / s, params.kappa_ex / s
    else:  # cavity_freq
        # a cavity moved by +shift leaves atom and photon in place: photon
        # detuning from the cavity becomes d - shift and the atom-cavity
        # detuning falls by shift
        shift = x * sigma_w
        delta_a = params.delta_a - shift
    return g, kappa_in, kappa_ex, params.gamma, delta_a, shift
