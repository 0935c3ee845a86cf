"""Conditional fidelity and success probability of the scattering gate.

Covers the long-pulse (monochromatic) limit, finite-bandwidth Gaussian
pulses filtered by the frequency-dependent cavity response, and seeded
Monte-Carlo robustness studies under parameter fluctuations.  The
finite-bandwidth metrics are exact: the cavity responses are rational in
the detuning, so their Gaussian averages close in the Faddeeva function.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .cavity import CavityParams, InterfaceOptics, reflection_r0, reflection_r1
from .errors import DomainError

_BOUND_SNAP = 1e-12  # values this close to the [0, 1] edges are snapped
_SQRT_PI = math.sqrt(math.pi)
# near the exceptional point (see _dd): switch, ring radius and node count
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
class GaussianPhoton:
    """Unit-norm Gaussian photon of temporal width sigma_t.

    Its spectral density is exp(-d^2/sigma_w^2) / (sqrt(pi) sigma_w) with
    sigma_w = 1/sigma_t; every average over it closes exactly
    (gaussian_average).
    """

    sigma_t: float

    def __post_init__(self):
        if not self.sigma_t > 0.0:
            raise DomainError("sigma_t must be positive")


class Response(NamedTuple):
    """Reflection path (k + X(d)) exp(-i tau d) in the photon detuning d.

    X is rational with every pole below the real axis: X = 0 when c is
    None, c/(d - m) when h is None, and otherwise c (d - a)/((d - m)^2 - h^2)
    with the pole pair m +- h.  Fields broadcast as one value per row.
    """

    k: complex
    tau: float = 0.0
    c: complex = None
    m: complex = None
    a: complex = None
    h: complex = None

    def rational(self, q):
        """k + X(q) at complex q off the poles."""
        if self.c is None:
            return self.k
        if self.h is None:
            return self.k + self.c / (q - self.m)
        return self.k + self.c * (q - self.a) / ((q - self.m - self.h) * (q - self.m + self.h))

    def __call__(self, d):
        """The path on a real detuning array d."""
        return self.rational(d) * np.exp(-1j * self.tau * d)


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


def _dd(f, m, h):
    """Divided difference f[m + h, m - h], exact through h = 0.

    The difference quotient cancels as the two points merge (for r1, the
    exceptional point h = 0).  Where |h| < _EP_SWITCH |Im m|, the divided
    difference, analytic in h^2, is interpolated in h^2 from its
    difference quotients on _EP_NODES points of the ring
    |h| = _EP_RING |Im m|.  f varies on a scale of at least |Im m| (the
    distance of m from the real axis), so the interpolant errs by about
    _EP_RING^(2 _EP_NODES) = 1e-16 relative.  A Taylor series from the
    derivative recurrence of w is not used: it loses eps |zeta|^2, and
    |zeta| ~ |m| sigma_t is large for long pulses.  f broadcasts against
    m; the ring nodes arrive along a new leading axis.
    """
    with np.errstate(divide="ignore", invalid="ignore"):  # h = 0 rows are replaced below
        dd = (f(m + h) - f(m - h)) / (2.0 * h)
    radius = np.abs(np.imag(m))
    near = np.abs(h) < _EP_SWITCH * radius
    if np.any(near):
        ring = np.multiply.outer(np.exp(1j * np.pi * np.arange(_EP_NODES) / _EP_NODES),
                                 _EP_RING * radius)
        # far rows get x = 0; ring^2 / |ring|^2 are the M-th roots of unity
        x = (np.where(near, h, 0.0) / ring) ** 2
        lagrange = (1.0 - x**_EP_NODES) / (1.0 - x) / _EP_NODES
        dd = np.where(near, np.sum((f(m + ring) - f(m - ring)) / (2.0 * ring) * lagrange,
                                   axis=0), dd)
    return dd


def _lower(x, y, tau, sigma_w):
    """L_X[ybar](tau) = sum_k Res_k ybar(q_k) J(q_k, tau) over the poles q_k of X.

    ybar(q) = conj(k_y + Y(conj q)) is analytic below the real axis.  For
    the pole pair the residue sum is c times the divided difference of
    (q - a) ybar(q) J(q, tau) over m +- h.
    """
    if x.c is None:
        return 0.0

    def f(q):
        return np.conj(y.rational(np.conj(q))) * _cauchy(q, tau, sigma_w)

    if x.h is None:
        return x.c * f(x.m)
    return x.c * _dd(lambda q: (q - x.a) * f(q), x.m, x.h)


def gaussian_average(x, y, sigma_t):
    """Mean of x(d) conj(y(d)) over a Gaussian photon of width sigma_t.

    x and y are Responses.  In the partial fractions of
    (k_x + X) conj(k_y + Y) the lower poles are those of X, weighted by
    ybar, and the upper poles those of conj(Y), weighted by conj(xbar);
    the latter close through conj(J(q, -tau)).  With tau = tau_x - tau_y:

        G = k_x conj(k_y) exp(-sigma_w^2 tau^2 / 4)
            + L_X[ybar](tau) + conj(L_Y[xbar](-tau)).

    For y is x the two pole sums coincide and the mean of |x|^2 is real.
    """
    sigma_w = 1.0 / sigma_t
    tau = x.tau - y.tau
    lower = _lower(x, y, tau, sigma_w)
    if y is x:
        return abs(x.k) ** 2 + 2.0 * np.real(lower)
    return (x.k * np.conj(y.k) * math.exp(-0.25 * (sigma_w * tau) ** 2)
            + lower + np.conj(_lower(y, x, -tau, sigma_w)))


def _pole_form(g, kappa_in, kappa_ex, gamma, delta_a, cavity_shift, tau):
    """(r0, r1) as Responses delayed by tau, in the photon detuning d.

    cavity_shift moves the cavity resonance relative to the photon
    carrier.  r0 - 1 = c/(d - p0) and r1 - 1 = c (d - a)/((d - m)^2 - h^2)
    with c = -2i kappa_ex; every pole lies below the real axis.
    """
    c = -2j * kappa_ex
    p0 = cavity_shift - 1j * (kappa_in + kappa_ex)
    a = cavity_shift + delta_a - 1j * gamma
    m, e = 0.5 * (p0 + a), 0.5 * (p0 - a)
    h = np.sqrt(e**2 + g**2)
    return Response(1.0, tau, c, p0), Response(1.0, tau, c, m, a, h)


def _gate_metrics(optics, sigma_t, g, kappa_in, kappa_ex, gamma, delta_a, cavity_shift):
    """(f_pro, one_minus_l), one value per row, for a Gaussian photon.

    Every rate broadcasts as one value per row; cavity_shift moves the
    cavity resonance relative to the photon carrier.  The overlap of the
    delayed responses with the incident photon and their norms are
    Gaussian averages.
    """
    if not sigma_t > 0.0:
        raise DomainError("sigma_t must be positive")
    rates = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(v, dtype=float))
          for v in (g, kappa_in, kappa_ex, gamma, delta_a, cavity_shift)))
    r0, r1 = _pole_form(*rates, optics.tau_m)
    incident = Response(1.0)
    overlap = (gaussian_average(r1, incident, sigma_t)
               - gaussian_average(r0, incident, sigma_t))
    norms = gaussian_average(r0, r0, sigma_t) + gaussian_average(r1, r1, sigma_t)
    one_minus_l = (2.0 * optics.r_m**2 + norms) / 4.0
    f_pro = np.abs(2.0 * optics.r_m + overlap) ** 2 / 16.0
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
