"""Every bundled recipe runs clean, checked by invariants rather than stored values."""

import csv
import math

import numpy as np
import pytest

from capsim.cli import _recipe_names, _resolve_config, main
from capsim.config import INTEGER_KINDS, parse_config
from capsim.source import TemporalKernel
from helpers import schema_kinds

# fidelities, probabilities, reflectances and their per-atom or heralded forms
_UNIT_INTERVAL = {"f_c", "fidelity", "infidelity", "p_success", "leakage", "p_conventional",
                  "p_opt", "mean_infidelity", "mean_success", "exact_infidelity",
                  "per_atom_infidelity", "dark_count_error", "p_gen", "p_gen_times_p_opt",
                  "lambda_1", "lambda_2", "overlap_target", "abs2_r0", "abs2_r1", "abs2_r"}


@pytest.fixture(scope="module")
def run_recipe(tmp_path_factory):
    """(exit code, rows, parsed config, output directory) of a recipe, run once."""
    out, runs = tmp_path_factory.mktemp("recipes"), {}

    def run(name):
        if name not in runs:
            code = main(["run", name, "--out", str(out)])
            config = parse_config(_resolve_config(name))
            with open(out / config.output_path, newline="") as fh:
                runs[name] = code, list(csv.DictReader(fh)), config, out
        return runs[name]
    return run


def _rows_per_point(config, point):
    if config.experiment == "wvm_crosstalk":  # one row per trial and channel
        p = config.point_parameters(point)
        return int(p.get("trials", 50)) * int(p["n_channels"])
    return 1


@pytest.mark.parametrize("name", _recipe_names())
def test_recipe_runs_clean(name, run_recipe):
    code, rows, config, out = run_recipe(name)
    assert code == 0
    assert all(row.pop("error") == "" for row in rows)
    assert len(rows) == sum(_rows_per_point(config, i) for i in range(config.grid_size()))
    values = [{k: float(v) for k, v in row.items()} for row in rows]
    assert all(math.isfinite(v) for row in values for v in row.values())
    kinds = schema_kinds(config.experiment)
    for axis in config.axis_names():
        if kinds[axis] in INTEGER_KINDS:
            assert all(row[axis] % 1 == 0 for row in values), axis
    for row in values:
        for column in _UNIT_INTERVAL & row.keys():
            assert 0.0 <= row[column] <= 1.0, (column, row)
        if "p_gen" in row and "p_success" in row:
            assert row["p_success"] <= row["p_gen"], row
    if name == "fig5b":
        kernel = TemporalKernel.load(out / "fig5b_kernel.txt")
        assert kernel.kernel.dtype == np.float64 and kernel.times.dtype == np.float64


_PURITY_EXCESS = pytest.mark.xfail(strict=True, reason=(
    "the p_br = 0 kernel reads purity 1 + 6.0e-10: the fine RK4 step is not a positive "
    "map, so its error leaves negative kernel eigenvalues that the weighted purity keeps"))


@pytest.mark.parametrize("name", ["fig5b", "fig5c", pytest.param("fig5d", marks=_PURITY_EXCESS)])
def test_recipe_purity_is_at_most_one(name, run_recipe):
    code, rows, _, _ = run_recipe(name)
    assert code == 0
    assert all(0.0 <= float(row["purity"]) <= 1.0 for row in rows)
