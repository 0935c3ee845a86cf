"""Traced `caps-sim` child: per-layer spans recorded from outside capsim.

    PYTHONPATH=src python3 perfbench/traced_run.py --workload W --layers L.json \
        --spans S.jsonl -- run CONFIG --seed N --workers 1 --out DIR

Imports capsim (timing the import), installs a timing wrapper at every
capsim module attribute that binds one of the public functions in TARGETS
and on every experiment in the EXPERIMENTS registry, then runs
`capsim.cli.main` with the given arguments, so the traced run takes the
same path as `caps-sim run`.  Spans (name, start, end, parent, workload)
are kept in memory and written to --spans at exit; the per-layer metrics
derived from them go to --layers.  The exit code is the CLI's.

The closed-form layers (crosstalk, rates, caps_longpulse) take
microseconds per call and no workload calls them, so they are not traced.
"""

import argparse
import dataclasses
import functools
import inspect
import json
import sys
import time

# (module, function) pairs traced by name; the span is named module.function.
TARGETS = (
    ("gate", "caps_finite_bandwidth"),
    ("gate", "robustness_mc"),
    ("gate", "min_sigma_t"),
    ("cavity", "reflection_r0"),
    ("cavity", "reflection_r1"),
    ("source", "source_kernel"),
    ("source", "evolve_master"),
    ("source", "autocorrelation"),
    ("source", "decompose"),
    ("protocols", "components_from_kernel"),
    ("protocols", "type2"),
    ("transfer_matrix", "wvm_crosstalk"),
    ("transfer_matrix", "tm_reflectance"),
    ("transfer_matrix", "calibrated_coupler"),
    ("runner", "run_sweep"),
    ("runner", "write_outputs"),
    ("config", "sanity_warnings"),
)

# Layers whose inclusive share of the traced `cli.main` span is reported.
SHARE_LAYERS = ("gate", "cavity", "source", "protocols", "transfer_matrix")


class Tracer:
    """In-memory span recorder plus the counters read at layer boundaries."""

    def __init__(self, workload):
        self.workload = workload
        self.spans = []   # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = {}

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def peak(self, key, value):
        self.counts[key] = max(self.counts.get(key, 0), value)

    def wrap(self, fn, name, on_return=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None,
                               self.stack[-1] if self.stack else -1])
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index][2] = time.perf_counter()
                self.stack.pop()
            if on_return is not None:
                on_return(args, kwargs, result)
            return result
        return traced

    def write_spans(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "workload": self.workload}) + "\n")


def _counters(tracer, capsim):
    """on_return hooks: work counts read where the work happens."""
    source = capsim.source

    def robustness(args, kwargs, summary):
        tracer.add("robustness.samples", summary.n_samples)
        tracer.add("robustness.resampled", summary.n_resampled)

    def kernel(args, kwargs, result):
        spec = args[0] if args else kwargs["spec"]
        tracer.peak("source.model_dim", source.build_model(spec).dim)

    def components(args, kwargs, comps):
        tracer.peak("protocols.spectral_points", comps.grid.size)

    def wvm(args, kwargs, result):
        bound = wvm_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        p = bound.arguments
        n = p["n_atoms"] if p["n_atoms"] is not None else p["n_channels"]
        tracer.add("wvm.chain_cases", p["trials"] * n * 2 ** n)
        tracer.add("wvm.resampled_trials", result.n_resampled_trials)

    def sweep(args, kwargs, result):
        config = args[0] if args else kwargs["config"]
        tracer.add("runner.points", config.grid_size())
        tracer.add("runner.failed_points", result[2])

    wvm_signature = inspect.signature(capsim.transfer_matrix.wvm_crosstalk)
    return {"robustness_mc": robustness, "source_kernel": kernel,
            "components_from_kernel": components, "wvm_crosstalk": wvm,
            "run_sweep": sweep}


def install(tracer):
    """Wrap every binding of the traced functions; returns originals by name."""
    import capsim
    import capsim.cli  # noqa: F401  (binds runner and config functions)
    from capsim.config import ScenarioConfig
    from capsim.experiments import EXPERIMENTS

    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "capsim" or name.startswith("capsim."))]
    hooks = _counters(tracer, capsim)
    originals = {}
    for module_name, fn_name in TARGETS:
        original = getattr(getattr(capsim, module_name), fn_name)
        wrapper = tracer.wrap(original, f"{module_name}.{fn_name}", hooks.get(fn_name))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
        originals[fn_name] = original
    ScenarioConfig.point_parameters = tracer.wrap(
        ScenarioConfig.point_parameters, "config.point_parameters")
    for name, exp in list(EXPERIMENTS.items()):
        EXPERIMENTS[name] = dataclasses.replace(
            exp, fn=tracer.wrap(exp.fn, f"experiments.{name}"))
    return originals


def layer_metrics(tracer, originals, import_s):
    """Per-function calls, inclusive and self time, plus the derived metrics."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats = {}
    layer_total = dict.fromkeys(SHARE_LAYERS, 0.0)
    for i, (name, start, end, parent) in enumerate(spans):
        s = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        s["calls"] += 1
        s["s"] += end - start
        s["self_s"] += end - start - child_time[i]
        layer = name.split(".")[0]
        if layer in layer_total:
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0].split(".")[0] != layer:
                ancestor = spans[ancestor][3]
            if ancestor < 0:   # outermost span of its layer: inclusive time
                layer_total[layer] += end - start

    def get(name, key):
        return stats.get(name, {}).get(key, 0)

    def per_call_us(name, count):
        return 1e6 * get(name, "s") / count if count else 0.0

    c = tracer.counts
    samples = c.get("robustness.samples", 0)
    cache = originals["calibrated_coupler"].cache_info()
    wall = get("cli.main", "s")
    runner_self = (get("runner.run_sweep", "self_s") + get("config.point_parameters", "s")
                   + get("runner.write_outputs", "s"))
    m = {
        "gate.caps_finite_bandwidth.calls": get("gate.caps_finite_bandwidth", "calls"),
        "gate.caps_finite_bandwidth.self_s": get("gate.caps_finite_bandwidth", "self_s"),
        "gate.caps_finite_bandwidth.us_per_call": per_call_us(
            "gate.caps_finite_bandwidth", get("gate.caps_finite_bandwidth", "calls")),
        "gate.robustness_mc.self_s": get("gate.robustness_mc", "self_s"),
        "gate.robustness_mc.us_per_sample": per_call_us("gate.robustness_mc", samples),
        "gate.robustness_mc.draw_yield": (
            samples / (samples + c["robustness.resampled"]) if samples else 0.0),
        "gate.min_sigma_t.s": get("gate.min_sigma_t", "s"),
        "cavity.reflection.calls": (get("cavity.reflection_r0", "calls")
                                    + get("cavity.reflection_r1", "calls")),
        "cavity.reflection.self_s": (get("cavity.reflection_r0", "self_s")
                                     + get("cavity.reflection_r1", "self_s")),
        "source.evolve_master.s": get("source.evolve_master", "s"),
        "source.autocorrelation.s": get("source.autocorrelation", "s"),
        "source.decompose.s": get("source.decompose", "s"),
        "source.source_kernel.calls": get("source.source_kernel", "calls"),
        "source.model_dim": c.get("source.model_dim", 0),
        "protocols.components_from_kernel.s": get("protocols.components_from_kernel", "s"),
        "protocols.components_from_kernel.spectral_points": c.get(
            "protocols.spectral_points", 0),
        "protocols.type2.s": get("protocols.type2", "s"),
        "transfer_matrix.wvm_crosstalk.s": get("transfer_matrix.wvm_crosstalk", "s"),
        "transfer_matrix.wvm_crosstalk.chain_cases": c.get("wvm.chain_cases", 0),
        "transfer_matrix.wvm_crosstalk.resampled_trials": c.get("wvm.resampled_trials", 0),
        "transfer_matrix.tm_reflectance.calls": get("transfer_matrix.tm_reflectance", "calls"),
        "transfer_matrix.tm_reflectance.us_per_call": per_call_us(
            "transfer_matrix.tm_reflectance",
            get("transfer_matrix.tm_reflectance", "calls")),
        "transfer_matrix.calibrated_coupler.s": get("transfer_matrix.calibrated_coupler", "s"),
        "transfer_matrix.calibrated_coupler.cache_hits": cache.hits,
        "transfer_matrix.calibrated_coupler.cache_misses": cache.misses,
        "runner.run_sweep.self_s": get("runner.run_sweep", "self_s"),
        "config.point_parameters.calls": get("config.point_parameters", "calls"),
        "config.point_parameters.s": get("config.point_parameters", "s"),
        "runner.write_outputs.s": get("runner.write_outputs", "s"),
        "cli.import_s": import_s,
        "config.sanity_warnings.s": get("config.sanity_warnings", "s"),
        "runner.points": c.get("runner.points", 0),
        "runner.failed_points": c.get("runner.failed_points", 0),
        "trace.spans": len(spans),
        "runner.self_share": runner_self / wall,
    }
    for layer, total in layer_total.items():
        m[f"{layer}.share"] = total / wall
    return m


def main():
    parser = argparse.ArgumentParser(description="traced caps-sim child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--layers", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    start = time.perf_counter()
    import capsim.cli
    import_s = time.perf_counter() - start

    tracer = Tracer(args.workload)
    originals = install(tracer)
    code = tracer.wrap(capsim.cli.main, "cli.main")(cli_args)
    metrics = layer_metrics(tracer, originals, import_s)
    with open(args.layers, "w") as fh:
        json.dump(metrics, fh, indent=1, sort_keys=True)
    tracer.write_spans(args.spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
