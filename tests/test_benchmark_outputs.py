"""The benchmark's output gate, run in tier-1.

perfbench/run.py checks every CSV its children write against a stored
reference (check_outputs).  Running each workload config once here, at its
own seed, catches a change that would make that check fail.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from capsim.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _bench_module(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("config_path", sorted(PERFBENCH.glob("configs/*.json")),
                         ids=lambda p: p.stem)
def test_workload_passes_the_benchmark_output_check(config_path, tmp_path, monkeypatch):
    bench = _bench_module(monkeypatch)
    config = json.loads(config_path.read_text())
    seed = int(config["seed"])
    code = main(["run", str(config_path), "--seed", str(seed), "--workers", "1",
                 "--out", str(tmp_path)])
    attempted, failed, problems, _ = bench.check_outputs(
        config_path.stem, config, seed, code, tmp_path / config["output"]["path"])
    assert attempted > 0
    assert failed == 0, problems
