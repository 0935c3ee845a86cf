"""Closed-form networking rates for multiplexed operation.

Sequential (time-multiplexed) addressing of n_atoms through one optical
channel costs a shuttle time tau_s per batch plus a per-attempt slot of
pulse_spacing_factor * sigma_t; wavelength multiplexing runs n_channels
such pipelines in parallel on floor(n_atoms / n_channels) atoms each.
"""

from dataclasses import dataclass

from .errors import DomainError


@dataclass(frozen=True)
class MuxScenario:
    n_atoms: int
    tau_s: float
    sigma_t: float
    p_success: float
    pulse_spacing_factor: float = 5.0
    n_channels: int = 1
    r_dark: float = 0.0

    def __post_init__(self):
        if self.n_atoms < 1:
            raise DomainError("n_atoms must be at least 1")
        if self.tau_s <= 0.0 or self.sigma_t <= 0.0:
            raise DomainError("times must be positive")
        if not (0.0 < self.p_success <= 1.0):
            raise DomainError("p_success must lie in (0, 1]")
        if self.pulse_spacing_factor <= 0.0:
            raise DomainError("pulse_spacing_factor must be positive")
        if not (1 <= self.n_channels <= self.n_atoms):
            raise DomainError("n_channels must lie in [1, n_atoms]")
        if self.r_dark < 0.0:
            raise DomainError("r_dark must be non-negative")


def _pipeline_rate(s, n_atoms):
    """Success rate of one channel addressing n_atoms of s in turn (1/s)."""
    slot = s.pulse_spacing_factor * s.sigma_t
    return n_atoms * s.p_success / (s.tau_s + slot * n_atoms)


def rate_time_mux(s):
    """Success rate of single-channel time-multiplexed operation (1/s)."""
    return _pipeline_rate(s, s.n_atoms)


def rate_wavelength_mux(s):
    """Total rate over n_channels parallel time-multiplexed pipelines.

    Atoms are split floor(n_atoms / n_channels) per channel; the remainder
    is idle (see remainder_atoms).
    """
    return s.n_channels * _pipeline_rate(s, s.n_atoms // s.n_channels)


def remainder_atoms(s):
    """Atoms left unused by the equal per-channel split."""
    return s.n_atoms - s.n_channels * (s.n_atoms // s.n_channels)


def dark_count_error(sigma_t, r_dark):
    """Upper bound on the false-positive probability per attempt.

    Two detectors open for a 5 sigma_t window; this is a bound, not an
    estimate.
    """
    if sigma_t < 0.0 or r_dark < 0.0:
        raise DomainError("inputs must be non-negative")
    return 5.0 * sigma_t * 2.0 * r_dark
