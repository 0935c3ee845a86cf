"""Performance models for passive cavity-assisted photon-scattering interconnects.

Library layout:

  cavity           atom-cavity parameters, reflection responses, matching rules
  gate             heralded gate metrics (long-pulse, finite bandwidth, Monte-Carlo)
  crosstalk        spectator-atom crosstalk for time-multiplexed operation
  source           driven photon generation, two-time kernels, mode decomposition
  protocols        remote-entanglement protocols (memory loading, types I/II/II'/III)
  transfer_matrix  multi-mode spectra and wavelength-multiplexed crosstalk
  rates            closed-form multiplexed networking rates
  cli              scenario runner (`caps-sim run/validate/list-experiments`)
"""

__version__ = "0.1.0"

from .cavity import (CavityParams, InterfaceOptics, LengthModel,
                     delay_matched_params, kappa_ex_opt, l_cav_opt,
                     matched_optics, params_from_length, pulse_delays,
                     r_opt, reflection_r0, reflection_r1,
                     scaled_by_length_deviation)
from .crosstalk import (MultiAtomScenario, crosstalk_fidelity_approx,
                        crosstalk_fidelity_enumerated, crosstalk_fidelity_exact,
                        matched_scenario, per_atom_infidelity, reflection_multi,
                        required_detuning)
from .errors import CapsError, ConfigError, ConvergenceError, DomainError
from .gate import (FluctuationSpec, GateOutcome, GateScenario, GaussianPhoton,
                   RobustnessSummary, caps_finite_bandwidth, caps_longpulse,
                   min_sigma_t, robustness_mc)
from .protocols import (IdealNode, NodeConfig, ProtocolResult,
                        components_from_kernel, matched_node, memory_load,
                        type1, type2, type2_mismatched, type2_pair, type3)
from .rates import (MuxScenario, dark_count_error, rate_time_mux,
                    rate_wavelength_mux, remainder_atoms)
from .source import (ENTANGLER_4LVL, LAMBDA_3LVL, DriveProfile, MasterEvolution,
                     ModeDecomposition, SourceSpec, TemporalKernel,
                     autocorrelation, decompose, drive_profile, evolve_master,
                     gaussian_target, mode_overlap, source_kernel)
from .transfer_matrix import (TmCavity, WvmSystem, calibrated_coupler,
                              channel_offsets, single_mode_equivalent, tm_atom,
                              tm_mirror_in, tm_mirror_out, tm_propagation,
                              tm_reflectance, wvm_crosstalk)
