"""Driven photon generation and its temporal-mode content.

The drive is inverted analytically so that, absent re-excitation, the
emitted wavepacket is an exact Gaussian.  A finite branching ratio back to
the initial state re-excites the atom and emits distorted late photons;
the two-time autocorrelation kernel quantifies this: its weighted trace is
the emission probability, its weighted overlap with itself the trace
purity, and its eigenvalues the temporal-mode populations.
"""

import numpy as np

from capsim import (SourceSpec, decompose, delay_matched_params,
                    gaussian_target, mode_overlap, source_kernel)

GAMMA = 1.0
PARAMS = delay_matched_params(10, GAMMA)

print("Re-excitation-free reference (branching ratio 0):")
pure = source_kernel(SourceSpec(params=PARAMS, p_br=0.0, target_sigma_t=1.0))
print(f"  emission probability = {pure.p_gen:.4f}")
print(f"  trace purity         = {pure.purity:.6f}")
print(f"  overlap with target  = "
      f"{mode_overlap(decompose(pure), gaussian_target(1.0)):.6f}")

print("\nBranching-ratio scan (fixed drive family):")
print(f"{'p_br':>6} {'P_gen':>8} {'purity':>8} {'lambda_1':>9} {'lambda_2':>9}")
for p_br in (0.0, 0.25, 0.5, 0.75):
    k = source_kernel(SourceSpec(params=PARAMS, p_br=p_br, target_sigma_t=1.0))
    lams = decompose(k).eigenvalues
    print(f"{p_br:6.2f} {k.p_gen:8.4f} {k.purity:8.4f} "
          f"{lams[0]:9.4f} {lams[1]:9.4f}")
print("Re-excitation recycles population (emission grows) while purity falls.")

print("\nKernel snapshot at p_br = 0.5 (flux along the diagonal):")
kernel = source_kernel(SourceSpec(params=PARAMS, p_br=0.5, target_sigma_t=1.0))
t = kernel.times
flux = np.diag(kernel.kernel)
for i in range(0, t.size, 25):
    bar = "#" * int(60 * flux[i] / flux.max())
    print(f"  t = {t[i]:+6.2f}  {bar}")
print("The late shoulder past t ~ +2 is the re-excited component;")
print("its weight is the second eigenvalue above.")
