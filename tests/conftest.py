import math

import pytest

from capsim.cavity import delay_matched_params
from capsim.source import ENTANGLER_4LVL, SourceSpec, source_kernel

GAMMA = 1.0  # all kernel fixtures use gamma = 1 units


@pytest.fixture(scope="session")
def kernel_c10_pure():
    """Re-excitation-free source at C_in = 10, sigma_t = 1/gamma."""
    spec = SourceSpec(params=delay_matched_params(10, GAMMA), p_br=0.0,
                      target_sigma_t=1.0)
    return source_kernel(spec)


@pytest.fixture(scope="session")
def kernel_c10_golden():
    """C_in = 10, p_br = 0.5, sigma_t = 1/gamma reference point."""
    spec = SourceSpec(params=delay_matched_params(10, GAMMA), p_br=0.5,
                      target_sigma_t=1.0)
    return source_kernel(spec)


@pytest.fixture(scope="session")
def kernel_c100_source():
    """Single-photon source at C_in = 100, sigma_t = 1.5/gamma."""
    spec = SourceSpec(params=delay_matched_params(100, GAMMA), p_br=0.5,
                      target_sigma_t=1.5)
    return source_kernel(spec)


@pytest.fixture(scope="session")
def kernel_c100_entangler():
    """Polarization-entangling source at C_in = 100, sigma_t = 1.5/gamma."""
    spec = SourceSpec(params=delay_matched_params(100, GAMMA), p_br=0.5,
                      target_sigma_t=1.5, level_scheme=ENTANGLER_4LVL)
    return source_kernel(spec)


@pytest.fixture(scope="session")
def kernel_pair_short():
    """Source + entangler kernels at sigma_t = 0.5/gamma (short-pulse grid)."""
    params = delay_matched_params(100, GAMMA)
    k2 = source_kernel(SourceSpec(params=params, p_br=0.5, target_sigma_t=0.5))
    k3 = source_kernel(SourceSpec(params=params, p_br=0.5, target_sigma_t=0.5,
                                  level_scheme=ENTANGLER_4LVL))
    return k2, k3


@pytest.fixture(scope="session")
def kernel_1990ns():
    """Lambda-source kernel of the fig6a long-pulse end, sigma_t = 1990 ns."""
    gamma = 2 * math.pi * 0.24e6
    spec = SourceSpec(params=delay_matched_params(100, gamma), p_br=0.5,
                      target_sigma_t=1990e-9)
    return source_kernel(spec)
