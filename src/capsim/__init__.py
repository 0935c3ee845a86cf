"""Performance models for passive cavity-assisted photon-scattering interconnects.

Library layout:

  cavity           atom-cavity parameters, reflection responses, matching rules,
                   and the records the experiment registry reads (numpy-free)
  gate             heralded gate metrics (long-pulse, finite bandwidth, Monte-Carlo)
  crosstalk        spectator-atom crosstalk for time-multiplexed operation
  source           driven photon generation, two-time kernels, mode decomposition
  protocols        remote-entanglement protocols (memory loading, types I/II/II'/III)
  transfer_matrix  multi-mode spectra and wavelength-multiplexed crosstalk
  rates            closed-form multiplexed networking rates
  cli              scenario runner (`caps-sim run/validate/list-experiments`)

The exported names below, and the submodules, load on first access
(PEP 562), so `import capsim` loads no numpy and no numerical module.
"""

import importlib

__version__ = "0.1.0"

# each module's exported names
_EXPORTS = {
    "cavity": ("ENTANGLER_4LVL", "LAMBDA_3LVL", "CavityParams", "InterfaceOptics",
               "LengthModel", "WvmSystem", "delay_matched_params", "kappa_ex_opt",
               "l_cav_opt", "matched_optics", "params_from_length", "pulse_delays",
               "r_opt", "reflection_r0", "reflection_r1", "scaled_by_length_deviation"),
    "crosstalk": ("MultiAtomScenario", "crosstalk_fidelity_approx", "crosstalk_fidelity_exact",
                  "matched_scenario", "per_atom_infidelity", "reflection_multi",
                  "required_detuning"),
    "errors": ("CapsError", "ConfigError", "ConvergenceError", "DomainError"),
    "gate": ("GateOutcome", "GaussianPhoton", "RobustnessSummary", "caps_finite_bandwidth",
             "caps_longpulse", "min_sigma_t", "robustness_mc"),
    "protocols": ("NodeConfig", "ProtocolResult", "components_from_kernel", "matched_node",
                  "memory_load", "type1", "type2", "type2_mismatched", "type2_pair", "type3"),
    "rates": ("MuxScenario", "dark_count_error", "rate_time_mux", "rate_wavelength_mux",
              "remainder_atoms"),
    "source": ("DriveProfile", "MasterEvolution", "ModeDecomposition", "SourceSpec",
               "TemporalKernel", "autocorrelation", "decompose", "evolve_master",
               "gaussian_target", "mode_overlap", "source_kernel"),
    "transfer_matrix": ("TmCavity", "calibrated_coupler", "central_antinode",
                        "channel_chain", "channel_offsets", "tm_mirror_in", "tm_mirror_out",
                        "tm_reflectance", "wvm_chain", "wvm_crosstalk"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name):
    """An exported name or a submodule, imported on first access."""
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    if not name.startswith("_"):  # never __main__, which would run the CLI
        try:
            return importlib.import_module(f"{__name__}.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":  # a missing dependency of the submodule
                raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
