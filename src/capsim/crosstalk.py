"""Gate crosstalk from detuned spectator atoms sharing the cavity.

One target atom, at the cavity parameters' own detuning delta_a, shares
the cavity with N_a - 1 spectators shifted out of resonance by
detuning_spectators.  The on-resonance reflection depends only on the
number m of spectators occupying the coupled qubit state, so the
2^(N_a+1)-dimensional channel metrics reduce to binomially weighted sums
over m, with O(N_a) cost; gate._heralded reads the channel out of them.
"""

import math
from dataclasses import dataclass

import numpy as np

from .cavity import CavityParams, delay_matched_params, r_opt
from .errors import DomainError
from .gate import GateOutcome, _heralded


@dataclass(frozen=True)
class MultiAtomScenario:
    """Target-plus-spectators configuration at zero probe detuning."""

    params: CavityParams
    n_atoms: int
    detuning_spectators: float
    r_m: float

    def __post_init__(self):
        if self.n_atoms < 1:
            raise DomainError("n_atoms must be at least 1")
        if self.n_atoms > 1 and self.detuning_spectators == 0.0:
            raise DomainError("spectators exactly on resonance are a degenerate configuration")


def matched_scenario(c_in, gamma, n_atoms, detuning_spectators):
    """Scenario with delay/reflectivity matching applied to the target."""
    return MultiAtomScenario(params=delay_matched_params(c_in, gamma),
                             n_atoms=n_atoms,
                             detuning_spectators=detuning_spectators,
                             r_m=r_opt(c_in))


def reflection_multi(scenario, j, m):
    """On-resonance reflection with target state j and m excited spectators."""
    if j not in (0, 1):
        raise DomainError("target state j must be 0 or 1")
    if not (0 <= m <= scenario.n_atoms - 1):
        raise DomainError("spectator count m out of range")
    return _reflections_all_m(scenario)[j][m]


def _reflections_all_m(scenario):
    p = scenario.params
    g2 = p.g**2
    m = np.arange(scenario.n_atoms)
    spect = m * g2 / (p.gamma + 1j * scenario.detuning_spectators)
    r0 = 1.0 - 2.0 * p.kappa_ex / (p.kappa + spect)
    r1 = 1.0 - 2.0 * p.kappa_ex / (p.kappa + g2 / (p.gamma + 1j * p.delta_a) + spect)
    return r0, r1


def _binom_weights(n):
    """binom(n, m) / 2^n for m = 0..n, each correctly rounded.

    The binomials run through the exact integer recurrence
    binom(n, m + 1) = binom(n, m) (n - m) / (m + 1); an int / int true
    division rounds once.
    """
    w, c, scale = np.empty(n + 1), 1, 2**n
    for m in range(n + 1):
        w[m] = c / scale
        c = c * (n - m) // (m + 1)
    return w


def crosstalk_fidelity_exact(scenario):
    """Conditional fidelity and success of the (N_a + 1)-qubit channel.

    Binomially regrouped evaluation, overflow-safe for any atom number.
    """
    r0, r1 = _reflections_all_m(scenario)
    w = _binom_weights(scenario.n_atoms - 1)
    infidelity, p = _heralded(scenario.r_m, np.sum(w * (np.abs(r0) ** 2 + np.abs(r1) ** 2)),
                              np.sum(w * (r1 - r0)), scenario.n_atoms)
    return GateOutcome(f_c=1.0 - infidelity, p_success=p)


def crosstalk_fidelity_approx(c_in, n_atoms, delta_a, gamma):
    """Large-detuning closed form for the collective channel infidelity."""
    if c_in < 0 or n_atoms < 1 or gamma <= 0:
        raise DomainError("inputs must be positive")
    if delta_a == 0.0:
        raise DomainError("delta_a must be nonzero")
    try:
        approx = 0.5 * (1.0 + 0.75 * c_in) * (n_atoms * gamma / delta_a) ** 2
    except OverflowError:  # squaring a finite ratio overflows; a division past the range gives inf
        approx = math.inf
    if not math.isfinite(approx):
        raise DomainError(f"delta_a = {delta_a!r} is too small: the large-detuning "
                          "infidelity overflows")
    return approx


def per_atom_infidelity(collective_infidelity, n_atoms):
    """Approximate single-gate infidelity implied by a collective figure.

    1 - (1 - x)^(1/n) is formed as -expm1(log1p(-x) / n): the power next to 1
    would cancel about 7 digits away at x ~ 1e-6.
    """
    f = 1.0 - collective_infidelity
    if f <= 0.0:
        raise DomainError("collective fidelity must be positive")
    return -math.expm1(math.log1p(-collective_infidelity) / n_atoms)


def required_detuning(c_in, n_atoms, gamma, target_infidelity, accounting="collective"):
    """Spectator detuning needed to reach a target crosstalk infidelity.

    Inverts the large-detuning closed form.  accounting='collective'
    treats the target as the (N_a + 1)-qubit channel infidelity;
    'per_atom' as the per-gate infidelity (collective approx. N_a times
    larger).  The two conventions differ by sqrt(N_a) in the detuning;
    both are reported by sweep tooling because published requirements mix
    them.
    """
    if accounting == "per_atom":
        target = target_infidelity * n_atoms
    elif accounting == "collective":
        target = target_infidelity
    else:
        raise DomainError(f"unknown accounting {accounting!r}")
    if not (0.0 < target < 1.0):
        raise DomainError("target infidelity must lie in (0, 1)")
    return n_atoms * gamma * math.sqrt(0.5 * (1.0 + 0.75 * c_in) / target)
