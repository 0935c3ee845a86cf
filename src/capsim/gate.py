"""Conditional fidelity and success probability of the scattering gate.

Covers the long-pulse (monochromatic) limit, finite-bandwidth Gaussian
pulses filtered by the frequency-dependent cavity response, and seeded
Monte-Carlo robustness studies under parameter fluctuations.  The
finite-bandwidth metrics are exact: the cavity responses are rational in
the detuning, so their Gaussian averages close in the Faddeeva function.
_heralded reads every heralded channel of the package from its averages.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .cavity import (FLUCTUATION_TARGETS, delay_matched_params, matched_optics,
                     reflection_r0, reflection_r1)
from .errors import DomainError

_BOUND_SNAP = 1e-12  # values this close to the [0, 1] edges are snapped
_SQRT_PI = math.sqrt(math.pi)
# near the exceptional point (see _dd): switch, ring radius and node count
_EP_SWITCH = 1e-3
_EP_RING = 1e-2
_EP_NODES = 4
_SIGMA_T_REL_TOL = 1e-3  # relative bracket width at which min_sigma_t stops


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

    f_c is the conditional (detection-heralded) average fidelity and
    p_success the heralding probability.  Values within 1e-12 of the
    [0, 1] edges are snapped onto them.
    """

    f_c: float
    p_success: float

    def __post_init__(self):
        object.__setattr__(self, "f_c", _snap_unit(self.f_c, "f_c"))
        object.__setattr__(self, "p_success", _snap_unit(self.p_success, "p_success"))

    @property
    def infidelity(self):
        return 1.0 - self.f_c

    @property
    def leakage(self):
        """Weight lost from the atom (x) polarization subspace, 1 - p_success."""
        return 1.0 - self.p_success


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


def _heralded(r_m, mean_abs2, mean_diff, n_atoms=1):
    """(1 - F_c, P) of a heralded channel, scalars or arrays.

    mean_abs2 = <|r0|^2 + |r1|^2> and mean_diff = <r1 - r0> average over
    the photon and any spectator states: P = (2 r_m^2 + mean_abs2)/4,
    F_pro = |2 r_m + mean_diff|^2/16 and 1 - F_c = d/(d+1) (1 - F_pro/P)
    with d = 2^(n_atoms+1) (Nielsen, Phys. Lett. A 303, 249, 2002).
    Returning 1 - F_c keeps the digits of infidelities near 1e-14.
    """
    p = (2.0 * r_m**2 + mean_abs2) / 4.0
    if (np.asarray(p) <= 0.0).any():
        raise DomainError("zero heralding probability: conditional fidelity undefined")
    f_pro = np.abs(2.0 * r_m + mean_diff) ** 2 / 16.0
    # d/(d + 1) written to stay finite for any atom number
    return 1.0 / (1.0 + 2.0 ** -(n_atoms + 1)) * (1.0 - f_pro / p), p


def caps_longpulse(params, optics):
    """Gate metrics in the long-pulse limit (on-resonance responses only)."""
    r0 = reflection_r0(params, 0.0)
    r1 = reflection_r1(params, 0.0)
    infidelity, p = _heralded(optics.r_m, abs(r0) ** 2 + abs(r1) ** 2, r1 - r0)
    return GateOutcome(f_c=1.0 - infidelity, p_success=p)


def _cauchy(q, tau, sigma_w):
    """J(q, tau): integral of |f|^2 exp(-i tau d) / (d - q) over d, Im q < 0.

    For the unit-norm Gaussian |f|^2 = exp(-d^2/sigma_w^2) / (sqrt(pi) sigma_w)
    this is -i sqrt(pi)/sigma_w exp(-sigma_w^2 tau^2/4) w(-q/sigma_w - i sigma_w tau/2)
    with w the Faddeeva function.
    """
    return (-1j * _SQRT_PI / sigma_w * math.exp(-0.25 * (sigma_w * tau) ** 2)
            * _wofz(-q / sigma_w - 0.5j * sigma_w * tau))


@lru_cache(maxsize=None)
def _weideman():
    """Scale L and Weideman's a_n ... a_1, as cosine sums over 4n nodes."""
    n = 40  # terms: 1e-13 relative against scipy.special.wofz
    ell = math.sqrt(n / math.sqrt(2.0))
    k = np.arange(1 - 2 * n, 2 * n)
    t = ell * np.tan(0.25 * math.pi / n * k)
    f = np.exp(-t * t) * (ell**2 + t * t)
    return ell, np.cos(0.5 * math.pi / n * np.outer(np.arange(n, 0, -1), k)) @ f / (4 * n)


def _wofz(z):
    """Faddeeva function w(z) = exp(-z^2) erfc(-i z), scalar or array.

    Weideman's 40-term rational expansion (SIAM J. Numer. Anal. 31, 1497,
    1994) in the closed upper half-plane, and w(z) = 2 exp(-z^2) - w(-z)
    below it, with Re(-z^2) = (y - x)(x + y) free of cancellation.
    """
    ell, coefficients = _weideman()
    z = np.asarray(z, dtype=complex)
    x, y = z.real, z.imag
    s = np.where(y < 0.0, -z, z)
    d = ell - 1j * s
    w = 2.0 * np.polyval(coefficients, (ell + 1j * s) / d) / d**2 + 1.0 / (_SQRT_PI * d)
    e = np.exp((y - x) * (x + y) - 2j * x * y, out=np.zeros_like(z), where=y < 0.0)
    return np.where(y < 0.0, 2.0 * e - w, w)[()]


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


def _gate_metrics(tau_m, sigma_t, g, kappa_in, kappa_ex, gamma, delta_a, cavity_shift):
    """Photon averages (norms, overlap), one value per row, for a Gaussian photon.

    norms = <|r0|^2 + |r1|^2> and overlap = <r1 - r0> of the responses,
    delayed by tau_m, over the incident photon, as _heralded reads them.  Every
    rate broadcasts as one value per row; cavity_shift moves the cavity
    resonance relative to the photon carrier.
    """
    if not sigma_t > 0.0:
        raise DomainError("sigma_t must be positive")
    rates = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(v, dtype=float))
          for v in (g, kappa_in, kappa_ex, gamma, delta_a, cavity_shift)))
    r0, r1 = _pole_form(*rates, tau_m)
    incident = Response(1.0)
    overlap = (gaussian_average(r1, incident, sigma_t)
               - gaussian_average(r0, incident, sigma_t))
    norms = gaussian_average(r0, r0, sigma_t) + gaussian_average(r1, r1, sigma_t)
    return norms, overlap


def caps_finite_bandwidth(params, optics, sigma_t):
    """Gate metrics for a Gaussian photon of temporal width sigma_t.

    The input spectrum is filtered by the state-dependent cavity response
    (and the mirror path by exp(-i tau_m d)).  The responses are rational
    in the detuning, so every spectral integral has an exact closed form
    through the Faddeeva function; nothing is sampled on a grid.
    """
    infidelity, p = _heralded(optics.r_m, *_gate_metrics(
        optics.tau_m, sigma_t, params.g, params.kappa_in, params.kappa_ex, params.gamma,
        params.delta_a, 0.0))
    return GateOutcome(f_c=1.0 - infidelity[0], p_success=p[0])


def min_sigma_t(c_in, gamma, target_infidelity=1e-4):
    """Smallest Gaussian pulse width reaching a target gate infidelity.

    Inverts the finite-bandwidth gate evaluation by bisection for a
    delay-matched, reflectivity-matched system of the given internal
    cooperativity.  Infidelity is monotone decreasing in sigma_t in this
    configuration.
    """
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
    while hi / lo - 1.0 > _SIGMA_T_REL_TOL:
        mid = math.sqrt(lo * hi)
        if infid(mid) <= target_infidelity:
            hi = mid
        else:
            lo = mid
    return hi


_RESAMPLE_CAP = 10
_FWHM_TO_SIGMA = 1.0 / (2.0 * math.sqrt(2.0 * math.log(2.0)))


def robustness_mc(params, optics, sigma_t, target, fwhm, samples=10_000, seed=0):
    """Monte-Carlo average of caps_finite_bandwidth's metrics under one fluctuating knob.

    Optics stay at their nominal calibration while the target knob of params
    (one of FLUCTUATION_TARGETS) is redrawn per sample from a Gaussian of the
    given FWHM.  Draws that produce an invalid system (non-positive coupling
    or cavity length) are redrawn up to ten times each; the resample count is
    reported, and the lowest sample left without a valid draw raises.
    Deterministic for a fixed seed, independent of any execution
    partitioning: sample i draws from default_rng([seed, i])'s stream
    (_Pcg64), whose states are derived in one batch (_stream_states) only
    when fwhm > 0.  All samples are then evaluated in one exact kernel call.
    """
    if not sigma_t > 0.0:
        raise DomainError("sigma_t must be positive")
    if target not in FLUCTUATION_TARGETS:
        raise DomainError(f"unknown fluctuation target {target!r}")
    if not fwhm >= 0.0:
        raise DomainError(f"fwhm must be non-negative, got {fwhm!r}")
    if samples < 1:
        raise DomainError("samples must be at least 1")
    sigma = fwhm * _FWHM_TO_SIGMA
    x = np.zeros(samples)
    n_resampled = 0
    states = _stream_states(seed, samples) if fwhm > 0.0 else None
    for i in range(samples):
        rng = _Pcg64(states[i]) if states is not None else None
        for _ in range(_RESAMPLE_CAP + 1):
            if rng is not None:
                x[i] = sigma * rng.standard_normal()
            if _valid_draw(params, target, x[i]):
                break
            n_resampled += 1
        else:
            raise DomainError(f"sample {i}: no valid draw within {_RESAMPLE_CAP} retries")
    infidelity, p = _heralded(optics.r_m, *_gate_metrics(
        optics.tau_m, sigma_t, *_perturbed_rates(params, target, x, 1.0 / sigma_t)))
    f = _snap_unit(1.0 - infidelity, "f_c")
    p = _snap_unit(p, "p_success")
    records = np.column_stack((np.arange(samples), x, f, p))
    total_p = float(np.sum(p))
    if total_p <= 0.0:
        raise DomainError("all samples failed to herald")
    return RobustnessSummary(
        mean_fidelity=float(np.sum(p * f) / total_p),
        mean_success=float(np.mean(p)),
        n_samples=samples,
        n_resampled=n_resampled,
        samples=records,
    )


# numpy's SeedSequence constants (bit_generator.pyx) and PCG64's multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK64, _MASK128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
# numpy's ziggurat_nor_r and ziggurat_nor_inv_r: the base of its 256-layer normal ziggurat
_ZIG_R, _ZIG_INV_R = 3.6541528853610087963519472518, 0.27366123732975827203338247596


def _stream_states(seed, n):
    """PCG64 (state, inc) of default_rng([seed, i]) for every i < n <= 2**32.

    numpy's stream-stable SeedSequence mixing, vectorised over i in uint32
    arithmetic, feeds a pool of four words with the 32-bit words of seed,
    then i.  Its eight output words seed PCG64 as pcg64_set_seed does.
    """
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [np.full(n, seed >> b & _MASK32, np.uint32)
             for b in range(0, max(int(seed).bit_length(), 1), 32)]
    words.append(np.arange(n, dtype=np.uint32))
    hash_const = _INIT_A

    def hashmix(value, mult=_MULT_A):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * mult & _MASK32
        value = value * hash_const
        return value ^ value >> 16

    pool = [hashmix(words[j] if j < len(words) else np.zeros(n, np.uint32)) for j in range(4)]
    # mix each pool word into the others, then each entropy word past the pool
    for src in range(max(len(words), 4)):
        for dst in range(4):
            if dst != src:
                value = hashmix(pool[src] if src < 4 else words[src])
                pool[dst] = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * value
                pool[dst] ^= pool[dst] >> 16
    hash_const = _INIT_B
    out = np.array([hashmix(pool[j % 4], _MULT_B) for j in range(8)], dtype=np.uint64)
    states = []
    for s0, s1, s2, s3 in (out[0::2] | out[1::2] << 32).T.tolist():
        inc = ((s2 << 64 | s3) << 1 | 1) & _MASK128
        state = ((inc + (s0 << 64 | s1)) * _PCG64_MULT + inc) & _MASK128
        states.append((state, inc))
    return states


class _Pcg64:
    """default_rng([seed, i])'s draws from its (state, inc) in _stream_states.

    O'Neill's XSL-RR output of a 128-bit LCG; 32-bit words in halves (has_uint32),
    Lemire's rejection (random_bounded_uint64_fill), ziggurat (random_standard_normal).
    """

    def __init__(self, state_inc):
        self.state, self.inc = state_inc
        self.high = None   # the unread high half of the last word next_uint32 split

    def next_uint64(self):
        self.state = (self.state * _PCG64_MULT + self.inc) & _MASK128
        word, rot = (self.state >> 64 ^ self.state) & _MASK64, self.state >> 122
        return (word >> rot | word << (64 - rot)) & _MASK64

    def next_uint32(self):
        if self.high is not None:
            word, self.high = self.high, None
            return word
        word = self.next_uint64()
        self.high = word >> 32
        return word & _MASK32

    def integers(self, n):
        """Generator.integers(n) for 1 <= n <= 2**63: 32-bit words up to n = 2**32."""
        if n == 1:
            return 0
        bits, draw = (32, self.next_uint32) if n <= 2**32 else (64, self.next_uint64)
        # Lemire: m // 2**bits is uniform once low words below 2**bits mod n are redrawn
        m = draw() * n
        while m & ((1 << bits) - 1) < (1 << bits) % n:
            m = draw() * n
        return m >> bits

    def next_double(self):
        """numpy's next_double for PCG64: a word's top 53 bits over 2**53."""
        return (self.next_uint64() >> 11) * (1.0 / 9007199254740992.0)

    def standard_normal(self):
        """Generator.standard_normal() to 1e-13 relative, in the same words."""
        ki, wi, fi = _ziggurat()
        while True:
            r = self.next_uint64()
            idx, sign, rabs = r & 0xFF, r >> 8 & 1, r >> 9 & (2**52 - 1)
            x = -(rabs * wi[idx]) if sign else rabs * wi[idx]
            if rabs < ki[idx]:
                return x
            if idx == 0:   # the tail beyond R, by Marsaglia's exponential pairs
                while True:
                    xx = -_ZIG_INV_R * math.log1p(-self.next_double())
                    yy = -math.log1p(-self.next_double())
                    if yy + yy > xx * xx:
                        return -(_ZIG_R + xx) if rabs >> 8 & 1 else _ZIG_R + xx
            elif (fi[idx - 1] - fi[idx]) * self.next_double() + fi[idx] < math.exp(-0.5 * x * x):
                return x


@lru_cache(maxsize=None)
def _ziggurat():
    """(ki, wi, fi) of numpy's normal ziggurat, within 4e-14 relative of its tables.

    Marsaglia & Tsang's zigset in double precision, from x_255 = R down: layer
    i >= 1 spans [0, x_i] x [f(x_i), f(x_{i-1})], f = exp(-x^2/2), x_0 = 0, with
    the area v of the base (under f(R) and the tail), a rectangle of width w0 = v / f(R).
    wi = x_i / 2**52 (w0 for the base); ki = 2**52 x_{i-1} / x_i (R / w0), rounded.
    """
    f_r = math.exp(-0.5 * _ZIG_R * _ZIG_R)
    v = _ZIG_R * f_r + math.sqrt(0.5 * math.pi) * math.erfc(_ZIG_R / math.sqrt(2.0))
    x = [0.0] * 255 + [_ZIG_R]
    for i in range(254, 0, -1):
        x[i] = math.sqrt(-2.0 * math.log(v / x[i + 1] + math.exp(-0.5 * x[i + 1] * x[i + 1])))
    wi = [w * 2.0**-52 for w in [v / f_r] + x[1:]]
    ki = [round(a / w) for a, w in zip([_ZIG_R] + x[:255], wi)]
    return ki, wi, [math.exp(-0.5 * xi * xi) for xi in x]


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
