"""Parallel gates on distinct longitudinal modes of one cavity.

A transfer-matrix chain (mirrors, propagation, linear atoms) resolves the
full multi-mode spectrum; atoms parked on different modes run gates in
parallel with negligible cross-channel disturbance, multiplying the
time-multiplexed rate by the channel count.
"""

import math

from capsim import (MuxScenario, WvmSystem, calibrated_coupler, channel_chain,
                    channel_offsets, rate_wavelength_mux, tm_reflectance,
                    wvm_crosstalk)

GAMMA = 2 * math.pi * 0.24e6
SYSTEM = WvmSystem(gamma=GAMMA, omega_fsr=2 * math.pi * 2.7e9,
                   omega_a=2 * math.pi * 220e12, sigma0_over_aeff=0.10,
                   c_over_vg=1.4, f_int=2000)

print(f"Nanofiber-style resonator: C_in = {SYSTEM.c_in:.1f}, "
      f"free spectral range 2 pi x 2.7 GHz, intrinsic finesse 2000")
t_ex, r_m = calibrated_coupler(SYSTEM)
print(f"chain-calibrated coupler transmittance {t_ex:.4f}, mirror r_m {r_m:.4f}")

print("\nReflection spectrum with ten atoms on ten neighboring modes:")
offsets = channel_offsets(10)
cavity = channel_chain(SYSTEM, 10)
print(f"{'mode offset':>12} {'Re r, all |0>':>14} {'Re r, all |1>':>14}")
for off in offsets:
    probe = off * SYSTEM.omega_fsr
    r0 = tm_reflectance(cavity, probe, atom_states=[0] * 10)
    r1 = tm_reflectance(cavity, probe, atom_states=[1] * 10)
    print(f"{off:12d} {r0.real:+14.4f} {r1.real:+14.4f}")
print("Equal magnitudes, opposite signs: the balanced pi phase flip that")
print("drives the gate is available on every channel simultaneously.")

print("\nCross-channel gate crosstalk (50 random placements):")
res = wvm_crosstalk(SYSTEM, n_channels=10, trials=50, seed=11)
print(f"  mean infidelity over channels and trials: {res.mean_infidelity:.2e}")

print("\nNetwork rate vs channel count (200 atoms, hybrid-protocol inputs):")
print(f"{'N_ch':>6} {'rate (1/s)':>12}")
for n_ch in (1, 2, 4, 6, 8, 10):
    s = MuxScenario(n_atoms=200, tau_s=100e-6, sigma_t=210e-9,
                    p_success=0.65, n_channels=n_ch)
    print(f"{n_ch:6d} {rate_wavelength_mux(s):12.3e}")
