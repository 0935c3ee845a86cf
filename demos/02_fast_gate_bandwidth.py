"""Speed-fidelity tradeoff of the scattering gate with short pulses.

A finite-bandwidth photon samples the cavity response away from
resonance.  With group delays equalized (cavity length tuned) and the
mirror-path delay compensated, the gate stays above 0.9999 fidelity down
to surprisingly short pulses; this script scans the tradeoff and inverts
it for the minimum usable pulse width.
"""

import math

import numpy as np

from capsim import (caps_finite_bandwidth, delay_matched_params, matched_optics,
                    min_sigma_t, pulse_delays)

GAMMA = 2 * math.pi * 0.24e6

print("Gate infidelity vs pulse width (delay-matched, C_in rows):")
widths = np.geomspace(0.1, 5.0, 8)
header = "".join(f"{w:>10.2f}" for w in widths)
print(f"{'C_in':>6} | sigma_t * gamma ->{header}")
for c_in in (10, 30, 100):
    params = delay_matched_params(c_in, GAMMA)
    optics = matched_optics(params)
    cells = []
    for w in widths:
        out = caps_finite_bandwidth(params, optics, w / GAMMA)
        cells.append(f"{out.infidelity:>10.1e}")
    print(f"{c_in:6d} |                  " + "".join(cells))

print("\nMinimum pulse width for 1e-4 infidelity (bisection on the curve):")
for c_in in (10, 30, 100):
    sigma = min_sigma_t(c_in, GAMMA, target_infidelity=1e-4)
    fit = 5.2 * c_in**-0.60 / GAMMA
    print(f"  C_in = {c_in:3d}: sigma_t = {sigma * 1e9:7.1f} ns "
          f"(power-law fit 5.2 C^-0.6 gives {fit * 1e9:7.1f} ns)")

print("\nWhy delay matching matters: group delays at C_in = 100")
params = delay_matched_params(100, GAMMA)
tau_0, tau_1 = pulse_delays(params)
print(f"  tau_0 = {tau_0 * 1e9:.2f} ns, tau_1 = {tau_1 * 1e9:.2f} ns "
      "(equal because kappa_in/gamma = (1 + C)/C)")
