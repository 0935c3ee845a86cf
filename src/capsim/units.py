"""Unit-suffixed configuration fields.

All internal rates are angular (rad/s) and times are seconds.  Config
files attach an explicit suffix to every dimensionful key
("gamma_2pi_MHz", "sigma_t_ns"); ingestion strips the suffix and
rescales.  Keys without a known suffix pass through unchanged and are
assumed to already be in base units.  No parameter name ends in a suffix.
"""

import math
import sys

# Dimension -> suffix -> multiplicative factor to base units.  Longest match wins.
_UNITS = {
    "a rate": {"_2pi_THz": 2 * math.pi * 1e12, "_2pi_GHz": 2 * math.pi * 1e9,
               "_2pi_MHz": 2 * math.pi * 1e6, "_2pi_kHz": 2 * math.pi * 1e3,
               "_2pi_Hz": 2 * math.pi, "_rad_s": 1.0, "_per_s": 1.0},
    "a time": {"_ns": 1e-9, "_us": 1e-6, "_ms": 1e-3, "_s": 1.0},
}
_SUFFIXES = {suffix: factor for table in _UNITS.values() for suffix, factor in table.items()}
DIMENSIONS = {suffix: dimension for dimension, table in _UNITS.items() for suffix in table}

_ORDERED = sorted(_SUFFIXES, key=len, reverse=True)


def strip_suffix(key):
    """Return (base_name, factor) for a possibly unit-suffixed key."""
    for suf in _ORDERED:
        if key.endswith(suf) and len(key) > len(suf):
            return key[: -len(suf)], _SUFFIXES[suf]
    return key, 1.0


def is_number(value):
    """An exact JSON number: an int or float within float range, never bool, inf or NaN."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def normalize(mapping):
    """Convert a {key: value} mapping to base units, stripping suffixes.

    Values other than numbers (see is_number) pass through untouched.
    Raises ValueError when two keys collapse onto the same base name.
    """
    out = {}
    for key, value in mapping.items():
        base, factor = strip_suffix(key)
        if base in out:
            raise ValueError(f"duplicate parameter after unit conversion: {base!r}")
        out[base] = value * factor if is_number(value) else value
    return out
