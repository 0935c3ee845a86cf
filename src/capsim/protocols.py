"""End-to-end remote-entanglement protocols built on the scattering gate.

memory_load   photonic qubit teleported into one cavity-coupled atom
type2         single photon routed through two gates (external source)
type2_pair    photon-pair variant loading both memories
type3         hybrid: emission at node A, memory loading at node B
type1         two-photon-interference reference (emission at both nodes)

A protocol reads its photon, a GaussianPhoton or a temporal kernel, only
through the Gram matrix of photon averages of x(d) conj(y(d)) over the
reflection paths it meets; every outcome probability and fidelity
numerator is a quadratic form in it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .cavity import CavityParams, InterfaceOptics, matched_optics, r_opt
from .errors import ConvergenceError, DomainError
from .gate import GaussianPhoton, Response, _pole_form, _snap_unit, gaussian_average
from .source import SourceSpec, TemporalKernel, decompose, source_kernel


@dataclass(frozen=True)
class NodeConfig:
    """One network node: cavity parameters plus interface optics."""

    params: CavityParams
    optics: InterfaceOptics
    label: str = "A"

    @property
    def r_m(self):
        return self.optics.r_m

    @property
    def responses(self):
        """(r0, r1) in pole form, delay-compensated by the mirror-path delay."""
        p = self.params
        return _pole_form(p.g, p.kappa_in, p.kappa_ex, p.gamma, p.delta_a, 0.0,
                          self.optics.tau_m)


class IdealNode:
    """Lossless reference responses: -r0 = r1 = r_m = 1, no delay."""

    label = "ideal"
    r_m = 1.0
    responses = (Response(-1.0), Response(1.0))


def matched_node(c_in, gamma, r_m=None, label="A"):
    """Delay- and reflectivity-matched node of given internal cooperativity."""
    from .cavity import delay_matched_params

    params = delay_matched_params(c_in, gamma)
    return NodeConfig(params=params, optics=matched_optics(params, r_m=r_m),
                      label=label)


@dataclass(frozen=True)
class ProtocolResult:
    """Aggregated fidelity plus per-detector-outcome breakdown."""

    fidelity: float
    p_success: float
    outcomes: dict

    def __post_init__(self):
        total = sum(p for p, _ in self.outcomes.values())
        if abs(total - self.p_success) > 1e-10:
            raise DomainError("outcome probabilities do not sum to the success probability")


def _aggregate(outcomes):
    total = sum(p for p, _ in outcomes.values())
    if total <= 0.0:
        raise DomainError("protocol never heralds")
    fid = sum(p * f for p, f in outcomes.values()) / total
    return ProtocolResult(fidelity=_snap_unit(fid, "fidelity"), p_success=total,
                          outcomes=outcomes)


# --------------------------------------------------------------------------
# Photon input -> Gram matrix of reflection paths
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralComponents:
    """Spectral density of a kernel photon on a quadrature grid.

    density is W(d) = sum_l p_l |u_l(d)|^2 over the photon's spectral
    modes, with sum p_l <= 1; the vacuum remainder carries no heralding
    weight.  Every kernel average is a weighted sum of W.
    """

    grid: np.ndarray
    weights: np.ndarray
    density: np.ndarray


def components_from_kernel(kernel, n_points=2049, rel_cutoff=1e-8,
                           coverage=1.0 - 1e-4, max_doublings=6):
    """Spectral density of a kernel's eigenmodes on a quadrature grid.

    W(d) sums p_l |u_l(d)|^2 over the eigenmodes above rel_cutoff of the
    population, u_l(d) = (2 pi)^(-1/2) integral u_l(t) exp(i d t) dt.  On
    the uniform kernel time grid (step dt) W is a trigonometric polynomial
    in d dt: with M the weighted two-time matrix of the kept modes and
    A_m = sum_i M_(i,i+m) its lag sums,
    W(d) = (2 Re sum_m A_m z^m - A_0) / 2 pi,  z = exp(i d dt),
    evaluated by Horner's rule at one complex exponential per grid point.

    The grid spans a multiple of the principal mode's bandwidth and is
    widened (doubling, keeping resolution) until it captures the requested
    fraction of the kept population, so spectrally broad re-excited
    components are not clipped; a widening evaluates only the new outer
    points.  A time grid that is not uniform raises DomainError.
    """
    t = kernel.times
    dt = (t[-1] - t[0]) / (t.size - 1)
    if np.max(np.abs(t - np.linspace(t[0], t[-1], t.size))) > 1e-9 * dt:
        raise DomainError("spectral transform needs a uniform kernel time grid")
    decomp = decompose(kernel)
    keep = decomp.eigenvalues > rel_cutoff * max(decomp.p_gen, 1e-300)
    if not np.any(keep):
        raise DomainError("kernel carries no photon population")
    lams = decomp.eigenvalues[keep]
    modes = decomp.eigenmodes[keep]
    w_t = decomp.weights

    # bandwidth estimate from the principal mode's temporal spread
    a2 = np.abs(modes[0]) ** 2 * w_t
    t_mean = float(np.sum(a2 * t) / np.sum(a2))
    t_var = float(np.sum(a2 * (t - t_mean) ** 2) / np.sum(a2))
    sigma_w = 1.0 / math.sqrt(2.0 * t_var)

    # M_ij = w_i w_j K_ij over the kept modes: the physical temporal modes
    # are the conjugates of the eigh vectors, K_ij = sum_l p_l u_l*(t_i) u_l(t_j)
    wu = modes * w_t
    two_time = wu.T @ (lams[:, None] * np.conj(wu))
    lag_sums = np.array([np.trace(two_time, m) for m in range(t.size)])

    def density(d):
        horner = np.polyval(lag_sums[::-1], np.exp(1j * dt * d))
        return (2.0 * horner.real - lag_sums[0].real) / (2.0 * math.pi)

    span = 8.0 * sigma_w
    n = n_points
    grid = np.linspace(-span, span, n)
    dens = density(grid)
    for doubling in range(max_doublings + 1):
        if doubling:
            # same spacing: the middle n points are the previous grid to rounding
            side = (n - 1) // 2
            span *= 2.0
            n = 2 * n - 1
            grid = np.linspace(-span, span, n)
            dens = np.concatenate([density(grid[:side]), dens,
                                   density(grid[-side:])])
        w = np.ones(n)  # composite Simpson: n is odd at every doubling
        w[1:-1:2] = 4.0
        w[2:-2:2] = 2.0
        w *= (grid[1] - grid[0]) / 3.0
        if np.sum(w * dens) >= coverage * np.sum(lams):
            return SpectralComponents(grid=grid, weights=w, density=dens)
    raise ConvergenceError("spectral window did not capture the kernel population")


def _gram(photon, paths):
    """Hermitian matrix of the photon averages of x(d) conj(y(d)) over paths.

    Exact for a GaussianPhoton (gaussian_average); for a TemporalKernel, a
    sum over its spectral density on components_from_kernel's grid.
    """
    if isinstance(photon, GaussianPhoton):
        return np.array([[gaussian_average(x, y, photon.sigma_t) for y in paths]
                         for x in paths])
    if isinstance(photon, TemporalKernel):
        comps = components_from_kernel(photon)
        values = np.array([x(comps.grid) for x in paths])
        return (values * (comps.weights * comps.density)) @ values.conj().T
    raise DomainError(f"unsupported photon input {type(photon).__name__}")


def _form(gram, c):
    """c^T G conj(c): the photon average of |sum_i c_i x_i(d)|^2."""
    return float(np.real(c @ gram @ np.conj(c)))


def _node_paths(node):
    """(mirror, r0, r1) of one node."""
    return (Response(node.r_m),) + node.responses


# coefficients over the paths (mirror, r0, r1) of r_m, r_plus = (r1 + r0)/2
# and r_minus = (r1 - r0)/2, and of the elements e00, e01, e11 of the
# loading error operator E = [r_m |0><0| + (r_minus |1> - r_plus |0>) <1|] / sqrt(2)
_MIRROR, _R_PLUS, _R_MINUS = np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5],
                                       [0.0, -0.5, 0.5]])
_E00, _E01, _E11 = np.array([_MIRROR, -_R_PLUS, _R_MINUS]) / math.sqrt(2.0)


# --------------------------------------------------------------------------
# Memory loading
# --------------------------------------------------------------------------

def memory_load(node, photon, input_state=(1.0 / math.sqrt(2), 1.0 / math.sqrt(2))):
    """Teleport a photonic qubit into the atom; herald on photon detection.

    input_state is the photonic qubit amplitude pair (alpha, beta).  The
    per-outcome fidelity compares against the outcome's ideal byproduct
    state; outcome keys are the photon measurement results 0 and 1.
    """
    gram = _gram(photon, _node_paths(node))
    alpha, beta = complex(input_state[0]), complex(input_state[1])
    norm = abs(alpha) ** 2 + abs(beta) ** 2
    alpha, beta = alpha / math.sqrt(norm), beta / math.sqrt(norm)
    outcomes = {}
    for j in (0, 1):
        # state entering E is Z^(1+j) |psi>
        a, b = alpha, -beta if j == 0 else beta
        # amplitude vector E |phi>
        c0 = _E00 * a + _E01 * b
        c1 = _E11 * b
        prob = _form(gram, c0) + _form(gram, c1)
        fid_num = _form(gram, np.conj(a) * c0 + np.conj(b) * c1)
        outcomes[j] = (prob, _snap_unit(fid_num / prob, "fidelity") if prob > 0 else 0.0)
    return _aggregate(outcomes)


# --------------------------------------------------------------------------
# Single-photon routed protocol and its photon-pair variant
# --------------------------------------------------------------------------

def type2(node_a, node_b, photon):
    """Sequential gates at two nodes on one routed photon, X-basis readout.

    Outcome j = 0 heralds the (00-11) Bell state, j = 1 the (01-10) one.
    """
    gram = _gram(photon, node_a.responses + node_b.responses)
    paths = np.eye(4)  # r0_A, r1_A, r0_B, r1_B
    rma, rmb = node_a.r_m, node_b.r_m
    outcomes = {}
    for j in (0, 1):
        s = 1.0 if j == 0 else -1.0
        # c_xy: A's cavity in state x with B's mirror plus B's cavity in
        # state y with A's mirror
        c = {(x, y): (rmb * paths[x] + s * rma * paths[2 + y]) / 4.0
             for x in (0, 1) for y in (0, 1)}
        prob = sum(_form(gram, v) for v in c.values())
        amp = c[0, 0] - c[1, 1] if j == 0 else c[0, 1] - c[1, 0]
        fid_num = _form(gram, amp / math.sqrt(2.0))
        outcomes[j] = (prob, _snap_unit(fid_num / prob, "fidelity") if prob > 0 else 0.0)
    return _aggregate(outcomes)


def type2_mismatched(node_a, node_b):
    """Mirror settings restoring unit long-pulse fidelity for unequal nodes.

    The node with the larger balanced reflectivity gets its mirror scaled
    down to the ratio of the two; the other keeps a perfect mirror.
    Returns the two adjusted optics in (A, B) order.
    """
    ra = r_opt(node_a.params.c_in)
    rb = r_opt(node_b.params.c_in)
    if ra >= rb:
        rm_a, rm_b = 1.0, rb / ra
    else:
        rm_a, rm_b = ra / rb, 1.0
    return (InterfaceOptics(r_m=rm_a, tau_m=node_a.optics.tau_m),
            InterfaceOptics(r_m=rm_b, tau_m=node_b.optics.tau_m))


def type2_pair(node_a, node_b, photons):
    """Photon-pair variant: each half of a photonic Bell pair is loaded.

    photons is the (photon_A, photon_B) pair.  Outcomes are the four
    measurement pairs (j_A, j_B); the target Bell state carries the sign
    (-1)^(j_A - j_B).  The two detunings are independent, so the Gram
    matrix over path pairs is the Kronecker product of the two nodes'
    Gram matrices over (mirror, r0, r1).
    """
    gram = np.kron(_gram(photons[0], _node_paths(node_a)),
                   _gram(photons[1], _node_paths(node_b)))
    # A's mirror with B's r_minus, A's r_minus with B's mirror, and the r_plus pair
    mirror_minus, minus_mirror = np.kron(_MIRROR, _R_MINUS), np.kron(_R_MINUS, _MIRROR)
    mirror_plus, plus_mirror = np.kron(_MIRROR, _R_PLUS), np.kron(_R_PLUS, _MIRROR)
    # target amplitude (c01 + s c10)/sqrt(2); s^2 = 1 makes it s-free
    num = _form(gram, mirror_minus + minus_mirror) / 16.0
    outcomes = {}
    for ja in (0, 1):
        for jb in (0, 1):
            s = 1.0 if (ja - jb) % 2 == 0 else -1.0
            prob = (_form(gram, mirror_minus) + _form(gram, minus_mirror)
                    + _form(gram, mirror_plus + s * plus_mirror)) / 8.0
            fid = _snap_unit(num / prob, "fidelity") if prob > 0 else 0.0
            outcomes[(ja, jb)] = (prob, fid)
    return _aggregate(outcomes)


# --------------------------------------------------------------------------
# Hybrid protocol and the two-photon-interference reference
# --------------------------------------------------------------------------

def type3(source, node_b):
    """Emission-generated atom-photon pair at A, memory loading at B.

    source is either a SourceSpec (the polarization-entangling scheme is
    simulated to obtain the photon kernel) or a precomputed TemporalKernel
    or GaussianPhoton.  Outcome j = 0 heralds (00-11), j = 1 heralds (00+11).
    """
    photon = source_kernel(source) if isinstance(source, SourceSpec) else source
    gram = _gram(photon, _node_paths(node_b))
    # Bell-diagonal elements: <Phi_id| (1 x E) |Phi_id> = (e00 + e11)/2 for both
    per_outcome_prob = 0.5 * (_form(gram, _E00) + _form(gram, _E01) + _form(gram, _E11))
    per_outcome_fid_num = _form(gram, 0.5 * (_E00 + _E11))
    fid = (_snap_unit(per_outcome_fid_num / per_outcome_prob, "fidelity")
           if per_outcome_prob > 0 else 0.0)
    outcomes = {j: (per_outcome_prob, fid) for j in (0, 1)}
    return _aggregate(outcomes)


def type1(kernel_a, kernel_b):
    """Two-photon-interference fidelity from the mean-wavepacket overlap.

    F = (1 + M) / 2 with M the normalized two-time overlap of the two
    kernels; for identical sources M equals the trace purity.  All four
    detection patterns are reported with the same fidelity (documented
    symmetry assumption of this detection model).
    """
    if kernel_a.times.shape != kernel_b.times.shape or not np.allclose(
            kernel_a.times, kernel_b.times):
        raise DomainError("kernels must share a common time grid")
    w = kernel_a.weights
    ww = np.outer(w, w)
    num = float(np.sum(ww * (np.conj(kernel_a.kernel) * kernel_b.kernel).real))
    pa = kernel_a.p_gen
    pb = kernel_b.p_gen
    if pa <= 0.0 or pb <= 0.0:
        raise DomainError("type-I needs emission from both sources")
    m_ab = num / (pa * pb)
    fid = _snap_unit(0.5 * (1.0 + m_ab), "fidelity")
    p_pattern = pa * pb / 8.0
    outcomes = {pattern: (p_pattern, fid)
                for pattern in ((0, 0), (0, 1), (1, 0), (1, 1))}
    return _aggregate(outcomes)
