"""Atom-cavity parameters, reflection responses, and matching rules.

A single three-level atom couples one qubit state to a one-sided cavity.
The frequency-dependent reflection amplitudes for the two qubit states,
together with closed-form rules for choosing the external coupling rate,
the mirror-path reflectivity, the compensating delay, and the cavity
length, are the foundation every other module builds on.

Conventions: all rates are angular (rad/s) and are field-amplitude decay
rates, i.e. the cavity energy decays at 2*kappa and the atomic excited
state at 2*gamma.  Detunings are angular frequencies relative to the
cavity resonance.

The module also holds the records and names the experiment registry reads
when it checks a config (the wavelength-multiplexed system, the
fluctuation targets and the source level schemes).  It imports numpy only
inside the reflection responses, so the command layer loads without numpy.
"""

import math
from dataclasses import dataclass, replace

from .errors import DomainError

_C_LIGHT = 299792458.0

LAMBDA_3LVL = "lambda_3lvl"
ENTANGLER_4LVL = "entangler_4lvl"
# the knobs gate.robustness_mc fluctuates: coupling_g and length by a fractional
# FWHM, cavity_freq by a FWHM in units of the photon bandwidth 1/sigma_t
FLUCTUATION_TARGETS = ("coupling_g", "cavity_freq", "length")


@dataclass(frozen=True)
class CavityParams:
    """Rates of one atom-cavity system.

    g         atom-photon coupling (rad/s, >= 0; zero means uncoupled)
    kappa_in  internal photon loss rate (rad/s, > 0)
    kappa_ex  external (output coupler) rate (rad/s, > 0)
    gamma     total atomic excited-state decay rate (rad/s, > 0)
    delta_a   atom-cavity detuning (rad/s, any real)
    """

    g: float
    kappa_in: float
    kappa_ex: float
    gamma: float
    delta_a: float = 0.0

    def __post_init__(self):
        for name in ("kappa_in", "kappa_ex", "gamma"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise DomainError(f"{name} must be strictly positive, got {value!r}")
        if not (self.g >= 0.0 and math.isfinite(self.g)):
            raise DomainError(f"g must be non-negative, got {self.g!r}")
        if not math.isfinite(self.delta_a):
            raise DomainError("delta_a must be finite")

    @property
    def kappa(self):
        """Total cavity field decay rate."""
        return self.kappa_in + self.kappa_ex

    @property
    def c_in(self):
        """Internal cooperativity g^2 / (2 kappa_in gamma)."""
        return self.g**2 / (2.0 * self.kappa_in * self.gamma)


@dataclass(frozen=True)
class InterfaceOptics:
    """Mirror-path amplitude reflectivity and compensating delay."""

    r_m: float
    tau_m: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.r_m <= 1.0):
            raise DomainError(f"r_m must lie in (0, 1], got {self.r_m!r}")
        if self.tau_m < 0.0:
            raise DomainError("tau_m must be non-negative")


@dataclass(frozen=True)
class LengthModel:
    """Geometry-level description of the cavity.

    sigma0_over_Aeff  resonant cross-section over effective mode area
    v_g               group velocity in the resonator medium (m/s)
    c                 vacuum speed of light (m/s)
    L_cav             cavity length (m)
    T_ex              output-coupler transmittance
    alpha_loss        round-trip intrinsic loss
    """

    sigma0_over_Aeff: float
    v_g: float
    L_cav: float
    T_ex: float
    alpha_loss: float
    c: float = _C_LIGHT

    def __post_init__(self):
        if self.L_cav <= 0.0:
            raise DomainError("L_cav must be positive")
        if not (0.0 < self.T_ex < 1.0):
            raise DomainError("T_ex must lie in (0, 1)")
        if not (0.0 <= self.alpha_loss < 1.0):
            raise DomainError("alpha_loss must lie in [0, 1)")
        if self.v_g <= 0.0 or self.c <= 0.0:
            raise DomainError("velocities must be positive")


def reflection_r0(params, delta):
    """Cavity reflection amplitude with the atom decoupled (qubit state 0).

    Accepts scalar or array detunings; |r0| <= 1 for all real detunings.
    """
    import numpy as np

    delta = np.asarray(delta, dtype=float)
    num = -params.kappa_ex + params.kappa_in - 1j * delta
    den = params.kappa_ex + params.kappa_in - 1j * delta
    out = num / den
    return out if out.ndim else complex(out)


def reflection_r1(params, delta):
    """Reflection amplitude with the atom coupled (qubit state 1)."""
    import numpy as np

    delta = np.asarray(delta, dtype=float)
    atom = params.gamma + 1j * params.delta_a - 1j * delta
    num = (-params.kappa_ex + params.kappa_in - 1j * delta) * atom + params.g**2
    den = (params.kappa_ex + params.kappa_in - 1j * delta) * atom + params.g**2
    out = num / den
    return out if out.ndim else complex(out)


def kappa_ex_opt(kappa_in, c_in):
    """External rate that balances the two on-resonance reflectivities."""
    if kappa_in <= 0.0:
        raise DomainError("kappa_in must be positive")
    if c_in < 0.0:
        raise DomainError("c_in must be non-negative")
    return kappa_in * math.sqrt(1.0 + 2.0 * c_in)


def r_opt(c_in):
    """Common magnitude of the balanced on-resonance reflectivities."""
    if c_in < 0.0:
        raise DomainError("c_in must be non-negative")
    return 1.0 - 2.0 / (1.0 + math.sqrt(1.0 + 2.0 * c_in))


def pulse_delays(params):
    """State-dependent group delays (tau_0, tau_1) of the reflected pulse.

    tau_j is the slope of arg r_j at zero detuning, tau_j = -i r_j'(0)/r_j(0),
    evaluated at zero atom-cavity detuning.  The uncoupled delay has a pole
    at kappa_ex == kappa_in (impedance matching, r_0(0) = 0), reported as a
    DomainError.
    """
    kex, kin, g, gamma = params.kappa_ex, params.kappa_in, params.g, params.gamma
    if abs(kex - kin) <= 1e-12 * (kex + kin):
        raise DomainError("group delay singular at kappa_ex == kappa_in (r_0(0) = 0)")
    try:
        dk2 = kex**2 - kin**2
        den_1 = g**4 + 2.0 * g**2 * gamma * kin - gamma**2 * dk2
    except OverflowError:
        raise DomainError(f"group delay overflows for cavity rates g = {g:.3g}, kappa_in = "
                          f"{kin:.3g}, kappa_ex = {kex:.3g}, gamma = {gamma:.3g}") from None
    tau_0 = 2.0 * kex / dk2
    if den_1 == 0.0:
        raise DomainError("group delay singular: r_1(0) = 0 for these rates")
    tau_1 = 2.0 * kex * (g**2 - gamma**2) / den_1
    return tau_0, tau_1


def l_cav_opt(model, gamma, c_in):
    """Cavity length at which both delays and reflectivities can be matched."""
    if gamma <= 0.0 or c_in < 0.0:
        raise DomainError("gamma must be positive and c_in non-negative")
    return model.sigma0_over_Aeff * model.c / (2.0 * gamma * (1.0 + c_in))


def params_from_length(model, gamma, delta_a=0.0):
    """Derive (g, kappa_in, kappa_ex) from resonator geometry.

    g scales as 1/sqrt(L) and both kappa rates as 1/L, so the internal
    cooperativity is independent of the length.
    """
    gamma_1d = (model.c / model.v_g) * model.sigma0_over_Aeff * gamma
    g = math.sqrt(model.v_g * gamma_1d / model.L_cav)
    kappa_ex = model.v_g * model.T_ex / (4.0 * model.L_cav)
    kappa_in = model.v_g * model.alpha_loss / (4.0 * model.L_cav)
    return CavityParams(g=g, kappa_in=kappa_in, kappa_ex=kappa_ex, gamma=gamma,
                        delta_a=delta_a)


def delay_matched_params(c_in, gamma, delta_a=0.0):
    """Parameter set with balanced reflectivities and equal group delays.

    Fixes kappa_in/gamma = (1 + C_in)/C_in (the delay-matching condition)
    and the balanced external rate, leaving gamma as the only scale.
    """
    if c_in <= 0.0:
        raise DomainError("delay matching needs c_in > 0")
    kappa_in = gamma * (1.0 + c_in) / c_in
    g = math.sqrt(2.0 * c_in * kappa_in * gamma)
    return CavityParams(g=g, kappa_in=kappa_in,
                        kappa_ex=kappa_ex_opt(kappa_in, c_in), gamma=gamma,
                        delta_a=delta_a)


def matched_optics(params, r_m=None):
    """Mirror settings that cancel reflectivity and mean-delay mismatch.

    r_m defaults to the balanced cavity reflectivity; tau_m is the mean of
    the two state-dependent delays.
    """
    tau_0, tau_1 = pulse_delays(params)
    if r_m is None:
        r_m = r_opt(params.c_in)
    return InterfaceOptics(r_m=r_m, tau_m=0.5 * (tau_0 + tau_1))


def scaled_by_length_deviation(params, dev_frac):
    """Apply a fractional cavity-length deviation to an installed system.

    g -> g/sqrt(1 + dev), kappa_ex(in) -> kappa_ex(in)/(1 + dev); gamma and
    the internal cooperativity are unchanged.
    """
    if dev_frac <= -1.0:
        raise DomainError("length deviation must keep L positive")
    s = 1.0 + dev_frac
    return replace(params, g=params.g / math.sqrt(s),
                   kappa_in=params.kappa_in / s,
                   kappa_ex=params.kappa_ex / s)


@dataclass(frozen=True)
class WvmSystem:
    """Physical inputs for wavelength-multiplexed crosstalk studies.

    alpha_loss defaults to 2 pi / intrinsic finesse.  kappa_ex (and hence
    the input-coupler transmittance) is optimized for the unshifted target
    atom.  Only length ratios enter the transfer matrices, so no absolute
    cavity length is needed.  omega_a / omega_fsr must round to a finite
    mode number n0 >= 1, else DomainError.  transfer_matrix.wvm_chain
    builds the system's transfer chain.
    """

    gamma: float
    omega_fsr: float
    omega_a: float
    sigma0_over_aeff: float
    c_over_vg: float
    f_int: float

    def __post_init__(self):
        ratio = self.omega_a / self.omega_fsr
        if not (math.isfinite(ratio) and round(ratio) >= 1):
            raise DomainError(f"omega_a / omega_fsr = {ratio!r} is no mode number >= 1")

    @property
    def alpha_loss(self):
        return 2.0 * math.pi / self.f_int

    @property
    def c_in(self):
        return self.c_over_vg * self.sigma0_over_aeff * 2.0 / self.alpha_loss

    @property
    def gamma_1d(self):
        return self.c_over_vg * self.sigma0_over_aeff * self.gamma

    @property
    def kappa_in(self):
        return self.alpha_loss * self.omega_fsr / (4.0 * math.pi)

    @property
    def kappa_ex(self):
        return kappa_ex_opt(self.kappa_in, self.c_in)

    @property
    def t_ex(self):
        return 4.0 * math.pi * self.kappa_ex / self.omega_fsr

    @property
    def t_in(self):
        return self.alpha_loss

    @property
    def n0(self):
        return int(round(self.omega_a / self.omega_fsr))
