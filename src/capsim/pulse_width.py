"""Minimum Gaussian pulse width of a delay-matched gate, without numpy.

min_sigma_t bisects the finite-bandwidth heralded infidelity of one
system, which at one pulse width is a few Faddeeva values.  _infidelity
evaluates gate._gate_metrics and gate._heralded for that one row on Python
complex numbers, term for term, so the command layer's pulse-width check
loads no numerical module.  The array path keeps its own Weideman sums.
"""

import cmath
import math
from functools import lru_cache

from .cavity import delay_matched_params, matched_optics
from .errors import DomainError

_SQRT_PI = math.sqrt(math.pi)
# near the exceptional point (gate._dd reads them too): switch, ring radius, node count
_EP_SWITCH = 1e-3
_EP_RING = 1e-2
_EP_NODES = 4
_SIGMA_T_REL_TOL = 1e-3  # relative bracket width at which min_sigma_t stops


@lru_cache(maxsize=None)
def _weideman():
    """Scale L and Weideman's a_n ... a_1, as cosine sums over 4n nodes (gate._weideman)."""
    n = 40
    ell = math.sqrt(n / math.sqrt(2.0))
    ks = range(1 - 2 * n, 2 * n)
    t = [ell * math.tan(0.25 * math.pi / n * k) for k in ks]
    f = [math.exp(-tk * tk) * (ell**2 + tk * tk) for tk in t]
    return ell, tuple(math.fsum(math.cos(0.5 * math.pi / n * j * k) * fk
                                for k, fk in zip(ks, f)) / (4 * n) for j in range(n, 0, -1))


def _wofz(z):
    """Faddeeva function w(z) at one complex z, as gate._wofz evaluates it."""
    ell, coefficients = _weideman()
    x, y = z.real, z.imag
    s = -z if y < 0.0 else z
    d = ell - 1j * s
    u, poly = (ell + 1j * s) / d, 0j
    for a in coefficients:  # Horner, as np.polyval
        poly = poly * u + a
    w = 2.0 * poly / (d * d) + 1.0 / (_SQRT_PI * d)
    if y < 0.0:
        return 2.0 * cmath.exp(complex((y - x) * (x + y), -2.0 * x * y)) - w
    return w


def _cauchy(q, tau, sigma_w):
    """J(q, tau) of gate._cauchy at one pole q, Im q < 0."""
    return (-1j * _SQRT_PI / sigma_w * math.exp(-0.25 * (sigma_w * tau) ** 2)
            * _wofz(-q / sigma_w - 0.5j * sigma_w * tau))


def _dd(f, m, h):
    """Divided difference f[m + h, m - h], exact through h = 0 (gate._dd)."""
    radius = abs(m.imag)
    if not abs(h) < _EP_SWITCH * radius:
        return (f(m + h) - f(m - h)) / (2.0 * h)
    total = 0j
    for j in range(_EP_NODES):
        node = cmath.exp(1j * math.pi * j / _EP_NODES) * (_EP_RING * radius)
        x = (h / node) ** 2
        lagrange = (1.0 - x**_EP_NODES) / (1.0 - x) / _EP_NODES
        total += (f(m + node) - f(m - node)) / (2.0 * node) * lagrange
    return total


def _infidelity(r_m, tau_m, sigma_t, g, kappa_in, kappa_ex, gamma, delta_a):
    """1 - F_c of gate._heralded over gate._gate_metrics for one system, cavity unshifted.

    r0 - 1 = c/(d - p0) and r1 - 1 = c (d - a)/((d - m)^2 - h^2) (gate._pole_form);
    each photon average is 1 or exp(-sigma_w^2 tau_m^2 / 4) plus gate._lower's pole sum.
    """
    sigma_w = 1.0 / sigma_t
    c = -2j * kappa_ex
    p0 = -1j * (kappa_in + kappa_ex)
    a = delta_a - 1j * gamma
    m, e = 0.5 * (p0 + a), 0.5 * (p0 - a)
    h = cmath.sqrt(e * e + g**2)

    def r0bar(q):  # conj(r0(conj q)), analytic below the real axis
        return (1.0 + c / (q.conjugate() - p0)).conjugate()

    def r1bar(q):
        q = q.conjugate()
        return (1.0 + c * (q - a) / ((q - m - h) * (q - m + h))).conjugate()

    def lower0(weight, tau):
        return c * (weight(p0) * _cauchy(p0, tau, sigma_w))

    def lower1(weight, tau):
        return c * _dd(lambda q: (q - a) * (weight(q) * _cauchy(q, tau, sigma_w)), m, h)

    delayed = math.exp(-0.25 * (sigma_w * tau_m) ** 2)
    overlap = ((delayed + lower1(lambda q: 1.0, tau_m))  # the incident photon's weight is 1
               - (delayed + lower0(lambda q: 1.0, tau_m)))
    norms = (1.0 + 2.0 * lower0(r0bar, 0.0).real) + (1.0 + 2.0 * lower1(r1bar, 0.0).real)
    p = (2.0 * r_m**2 + norms) / 4.0
    if p <= 0.0:
        raise DomainError("zero heralding probability: conditional fidelity undefined")
    return 0.8 * (1.0 - abs(2.0 * r_m + overlap) ** 2 / 16.0 / p)  # d/(d + 1) at one atom


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
        return _infidelity(optics.r_m, optics.tau_m, sig, params.g, params.kappa_in,
                           params.kappa_ex, params.gamma, params.delta_a)

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
