"""Conditional fidelity and success probability of the scattering gate.

Covers the long-pulse (monochromatic) limit, finite-bandwidth Gaussian
pulses filtered by the frequency-dependent cavity response, and seeded
Monte-Carlo robustness studies under parameter fluctuations.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .cavity import (CavityParams, InterfaceOptics, _r0, _r1, reflection_r0,
                     reflection_r1)
from .errors import ConvergenceError, DomainError

_BOUND_SNAP = 1e-12  # values this close to the [0, 1] edges are snapped
_QUAD_TOL = 1e-8     # refinement agreement required of the quadrature


def _snap_unit(x, what):
    if -_BOUND_SNAP <= x <= _BOUND_SNAP:
        return 0.0
    if 1.0 - _BOUND_SNAP <= x <= 1.0 + _BOUND_SNAP:
        return 1.0
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"{what} = {x!r} outside [0, 1]")
    return x


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
    """Nominal operating point for robustness studies."""

    params: CavityParams
    optics: InterfaceOptics
    mode: SpectralMode


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
    if (n_points - 1) % 4 != 0:
        raise DomainError("n_points must be 1 mod 4 (odd Simpson grid that halves cleanly)")
    sigma_w = 1.0 / sigma_t
    grid = np.linspace(-grid_span * sigma_w, grid_span * sigma_w, n_points)
    amp = (math.pi * sigma_w**2) ** -0.25 * np.exp(-(grid**2) / (2.0 * sigma_w**2))
    weights = _simpson_weights(n_points, grid[1] - grid[0])
    return SpectralMode(grid=grid, amplitude=amp.astype(complex), weights=weights)


def _conditional(f_pro, one_minus_l, d_q=4):
    """Conditional fidelity from process fidelity and leakage."""
    if one_minus_l <= 0.0:
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


class _GateKernel:
    """Finite-bandwidth gate metrics for blocks of rate rows on one mode.

    The per-mode work is done once: the mirror-path filtered amplitude
    exp(-i tau_m d) f, the fine Simpson weights and the coarse ones on
    every other grid point, and the products the reflection responses are
    summed against.  Each call evaluates r0 and r1 once per row on the
    fine grid; the coarse refinement pass reads them at [::2].  Each row
    is summed on its own along the grid, so its result does not depend on
    the block it is evaluated in.
    """

    def __init__(self, optics, mode):
        n = mode.grid.size
        if (n - 1) % 4 != 0:
            raise DomainError("mode grid size must be 1 mod 4 for the refinement check")
        grid_c = mode.grid[::2]
        coarse = SpectralMode(grid=grid_c, amplitude=mode.amplitude[::2],
                              weights=_simpson_weights(grid_c.size, grid_c[1] - grid_c[0]))
        f = mode.amplitude
        filtered = np.exp(-1j * optics.tau_m * mode.grid) * f
        norm_density = np.abs(f) ** 2          # summed against |r0|^2 + |r1|^2
        overlap_density = np.conj(f) * filtered  # summed against r1 - r0
        self._grid = mode.grid
        self._r_m = optics.r_m
        self._passes = tuple(
            (cut, w * norm_density[cut], w * overlap_density[cut])
            for cut, w in ((slice(None), mode.weights),
                           (slice(None, None, 2), coarse.weights)))

    def __call__(self, g, kappa_in, kappa_ex, gamma, delta_a, cavity_shift):
        """(f_pro, one_minus_l), each (rows, 2): the fine pass, then the coarse.

        Every rate broadcasts as one value per row.  cavity_shift moves the
        cavity resonance relative to the photon carrier.
        """
        g, kappa_in, kappa_ex, gamma, delta_a, cavity_shift = (
            np.asarray(v, dtype=float).reshape(-1, 1)
            for v in (g, kappa_in, kappa_ex, gamma, delta_a, cavity_shift))
        delta = self._grid - cavity_shift
        r0 = _r0(kappa_in, kappa_ex, delta)
        r1 = _r1(g, kappa_in, kappa_ex, gamma, delta_a, delta)
        norm = np.abs(r0) ** 2 + np.abs(r1) ** 2
        diff = r1 - r0
        r_m = self._r_m
        one_minus_l = np.stack([(2.0 * r_m**2 + np.sum(norm[:, cut] * w, axis=1)) / 4.0
                                for cut, w, _ in self._passes], axis=1)
        f_pro = np.stack([np.abs(2.0 * r_m + np.sum(diff[:, cut] * w, axis=1)) ** 2 / 16.0
                          for cut, _, w in self._passes], axis=1)
        return f_pro, one_minus_l


def _outcome(f_pro, one_minus_l):
    """GateOutcome of one kernel row; the coarse pass must agree to 1e-8."""
    f_c_coarse = _conditional(f_pro[1], one_minus_l[1])
    f_c = _conditional(f_pro[0], one_minus_l[0])
    if abs(f_c_coarse - f_c) > _QUAD_TOL:
        raise ConvergenceError(
            f"quadrature not converged: refinement moved f_c by {abs(f_c_coarse - f_c):.3e}")
    return GateOutcome(f_c=f_c, p_success=one_minus_l[0])


def caps_finite_bandwidth(params, optics, mode, cavity_shift=0.0):
    """Gate metrics for a finite-bandwidth photon.

    The input spectrum is filtered by the state-dependent cavity response
    (and the mirror path by exp(-i tau_m d)); inner products are taken by
    quadrature on the mode grid.  One refinement pass at doubled
    resolution must agree to 1e-8 in the fidelity, otherwise a
    ConvergenceError is raised.  cavity_shift moves the cavity resonance
    relative to the photon carrier (the caller sets params.delta_a
    consistently when modeling resonance jitter).
    """
    f_pro, one_minus_l = _GateKernel(optics, mode)(
        params.g, params.kappa_in, params.kappa_ex, params.gamma, params.delta_a,
        cavity_shift)
    return _outcome(f_pro[0], one_minus_l[0])


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
        return caps_finite_bandwidth(params, optics, gaussian_mode(sig)).infidelity

    # below ~0.05/gamma the default grid no longer resolves the response
    # and the infidelity is far above any useful target anyway
    lo = 0.05 / gamma
    hi = 1.0 / gamma
    for _ in range(60):
        if infid(hi) <= target_infidelity:
            break
        hi *= 2.0
    else:
        raise ConvergenceError("no pulse width in range meets the target infidelity")
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
_BLOCK_ROWS = 4  # draws per kernel call: wider blocks were no faster and cost memory
_FWHM_TO_SIGMA = 1.0 / (2.0 * math.sqrt(2.0 * math.log(2.0)))


def robustness_mc(base, spec):
    """Monte-Carlo average of the gate metrics under one fluctuating knob.

    Optics stay at their nominal calibration while the chosen parameter is
    redrawn per sample from a Gaussian of the given FWHM.  Draws that
    produce an invalid system (e.g. non-positive coupling) are redrawn up
    to ten times each; the resample count is reported.  Deterministic for
    a fixed seed, independent of any execution partitioning: sample i uses
    the dedicated stream seeded by (seed, i).  Samples are evaluated in
    index order, a few per kernel call; the first failing sample raises,
    as in a one-by-one loop.
    """
    sigma = spec.fwhm * _FWHM_TO_SIGMA
    sigma_w = 1.0 / _mode_sigma_t(base.mode)
    kernel = _GateKernel(base.optics, base.mode)
    records = np.empty((spec.samples, 4))
    n_resampled = 0
    for start in range(0, spec.samples, _BLOCK_ROWS):
        pending = list(range(start, min(start + _BLOCK_ROWS, spec.samples)))
        rngs = {i: np.random.default_rng([spec.seed, i]) for i in pending}
        errors = {}
        for _ in range(_RESAMPLE_CAP + 1):
            x = np.array([rngs[i].normal(0.0, sigma) if spec.fwhm > 0.0 else 0.0
                          for i in pending])
            valid, rates = _perturbed_rates(base.params, spec.target, x, sigma_w)
            f_pro, one_minus_l = kernel(*rates)
            failed = []
            for row, i in enumerate(pending):
                try:
                    if not valid[row]:
                        raise DomainError("invalid draw")
                    outcome = _outcome(f_pro[row], one_minus_l[row])
                except DomainError:
                    failed.append(i)
                    continue
                except ConvergenceError as exc:
                    errors[i] = exc
                    continue
                records[i] = (i, x[row], outcome.f_c, outcome.p_success)
            n_resampled += len(failed)
            pending = failed
            if not pending:
                break
        for i in pending:
            errors[i] = DomainError(f"sample {i}: no valid draw within {_RESAMPLE_CAP} retries")
        if errors:
            raise errors[min(errors)]
    p = records[:, 3]
    f = records[:, 2]
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


def _mode_sigma_t(mode):
    """Temporal width implied by the spectral second moment."""
    w = mode.weights
    a2 = np.abs(mode.amplitude) ** 2
    norm = np.sum(w * a2)
    var = np.sum(w * a2 * mode.grid**2) / norm
    return 1.0 / math.sqrt(2.0 * var)


def _perturbed_rates(params, target, x, sigma_w):
    """Kernel rates for draws x of one knob, and which draws are valid.

    Returns (valid, (g, kappa_in, kappa_ex, gamma, delta_a, cavity_shift)).
    Rates the knob leaves alone stay scalars and broadcast.
    """
    g, kappa_in, kappa_ex = params.g, params.kappa_in, params.kappa_ex
    delta_a, shift = params.delta_a, 0.0
    if target == "coupling_g":
        g = params.g * (1.0 + x)
        valid = g > 0.0
    elif target == "length":
        # scaled_by_length_deviation for every draw that keeps L positive
        valid = x > -1.0
        s = np.where(valid, 1.0 + x, 1.0)
        g, kappa_in, kappa_ex = params.g / np.sqrt(s), params.kappa_in / s, params.kappa_ex / s
    else:  # cavity_freq
        # a cavity moved by +shift leaves atom and photon in place: photon
        # detuning from the cavity becomes d - shift and the atom-cavity
        # detuning falls by shift
        shift = x * sigma_w
        delta_a = params.delta_a - shift
        valid = np.ones(x.shape, dtype=bool)
    return valid, (g, kappa_in, kappa_ex, params.gamma, delta_a, shift)
