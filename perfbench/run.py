"""Sweep benchmark for capsim.

Run from the root of a capsim checkout:

    python3 perfbench/run.py --workload gate_mc --seed 3 --seconds 20 --trace 0

Each workload is a `caps-sim run` config in perfbench/configs/ shaped like
one bundled recipe (see NOTES.md for why each was chosen and what is left
out).  With --trace 0 the benchmark times `caps-sim validate` (set-up) and
`caps-sim run --seed S --workers 1` as child processes, untraced, and
reports the end-to-end metrics.  With --trace 1 it pairs one untraced
child with one child that runs the same command under perfbench/traced_run.py
and reports the per-layer metrics.  Every child's CSV is checked (see
check_outputs); the last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.  Result sets with their
provenance are kept in .perfbench_out/results/.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import resource
import select
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 5
MIN_REPEATS = 3
# Children still running this long after the benchmark started are killed
# (their points count as failed), so one invocation ends within 180 s.
STARTED = time.perf_counter()
BUDGET_S = 165.0

# A CSV cell matches the stored reference when |a - b| <= ATOL + RTOL |b|.
# Reordering a floating-point sum moves these outputs by ~1e-15 relative,
# or ~1e-16 absolute where the value is a cancellation near zero (the
# smallest wvm_enum infidelities are ~1e-14).  A change of the physics
# moves them by far more.  Not a reordering: raising the hidden-atom
# sentinel HIDDEN_DETUNING_FACTOR from 1e10 to 1e14 moves dense_scan by up
# to 6e-9 and wvm_enum by 2e-12, so removing it needs a new reference.
RTOL = 1e-9
ATOL = 1e-12

# Outputs that lie in [0, 1] may miss it by this much, the margin within
# which capsim's gate layer snaps values onto the bounds (_BOUND_SNAP).
# wvm_crosstalk does not snap: some seeds give infidelities of -2e-16.
UNIT_ROUNDING = 1e-12

# BLAS pinned to one thread: a plain single-threaded baseline on shared cores.
CHILD_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}

# Per workload: the outputs that lie in [0, 1], and which rows are the same
# at every seed (those are compared with the reference at any seed; the
# other rows only at the config's own seed).
WORKLOADS = {
    "gate_mc": {
        "unit_columns": ("mean_infidelity", "mean_success"),
        "seed_free": lambda row: float(row["fwhm"]) == 0.0,
    },
    "source_protocol": {
        "unit_columns": ("fidelity", "infidelity", "p_success", "p_gen",
                         "p_gen_times_p_opt"),
        "seed_free": lambda row: True,
    },
    "wvm_enum": {
        "unit_columns": ("infidelity", "mean_infidelity"),
        "seed_free": lambda row: False,
    },
    "dense_scan": {
        "unit_columns": ("abs2_r",),
        "seed_free": lambda row: True,
    },
}


class SetupError(Exception):
    """The benchmark cannot run: no capsim checkout, or set-up failed."""


def child_env():
    env = dict(os.environ, PYTHONPATH=str(SRC), **CHILD_THREADS)
    env.pop("PYTHONSTARTUP", None)
    return env


def run_child(argv, log_path):
    """Run one child to completion; returns (exit code, wall s, peak RSS MB).

    The peak RSS comes from this child's own rusage (os.wait4), not from
    RUSAGE_CHILDREN, which is a running maximum over every reaped child.
    Linux carries the spawning process's peak RSS across exec into the
    child's, so it is a floor on the reading; this process stays far below
    any capsim child (it is recorded as bench_peak_rss_mb).
    """
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, child_env(),
                             file_actions=[(os.POSIX_SPAWN_DUP2, log.fileno(), 1),
                                           (os.POSIX_SPAWN_DUP2, log.fileno(), 2)])
        pidfd = os.pidfd_open(pid)
        try:
            # a pidfd turns readable when the child exits
            remaining = max(0.0, STARTED + BUDGET_S - start)
            if not select.select([pidfd], [], [], remaining)[0]:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024.0


# --------------------------------------------------------------------------
# correctness checks
# --------------------------------------------------------------------------

def axis_values(axis):
    """Grid of one sweep axis, as capsim's config module defines it."""
    n = int(axis["points"])
    a, b = float(axis["start"]), float(axis["stop"])
    if n == 1:
        return [a]
    if axis.get("scale", "lin") == "log":
        return [a * (b / a) ** (i / (n - 1)) for i in range(n)]
    return [a + (b - a) * i / (n - 1) for i in range(n)]


# unit suffixes of the sweep axes these configs use, and their factor to the
# base units the CSV holds
AXIS_SUFFIXES = {"_2pi_GHz": 2.0 * math.pi * 1e9, "_ns": 1e-9}


def expected_points(config):
    """Row-major grid: one dict per point, CSV column -> (value, tolerance)."""
    points = [{}]
    for axis in config["sweep"]:
        name, factor = axis["name"], 1.0
        for suffix, scale in AXIS_SUFFIXES.items():
            if name.endswith(suffix):
                name, factor = name[:-len(suffix)], scale
        tol = 1e-9 * factor * max(abs(axis["start"]), abs(axis["stop"]))
        points = [dict(p, **{name: (v * factor, tol)})
                  for p in points for v in axis_values(axis)]
    return points


def rows_per_point(config, point):
    if config["experiment"] == "wvm_crosstalk":
        return int(point["n_channels"][0]) * int(config["parameters"]["trials"])
    return 1


def _close(a, b):
    return abs(a - b) <= ATOL + RTOL * abs(b)


def _cell_problem(value, ref):
    if value == ref:
        return None
    try:
        a, b = float(value), float(ref)
    except ValueError:
        return f"{value!r} != reference {ref!r}"
    if not _close(a, b):
        return f"{a!r} differs from reference {b!r}"
    return None


def row_problems(workload, point, row, ref_row, notes):
    """Reasons one CSV row is wrong (empty when it passes every check).

    A [0, 1] output that misses the interval by no more than UNIT_ROUNDING
    passes and is added to `notes`, so the excursion stays visible.
    """
    if row.get("error"):
        return [f"error row: {row['error']}"]
    problems = []
    values = {}
    for col, text in row.items():
        if col == "error":
            continue
        try:
            values[col] = float(text)
        except (TypeError, ValueError):
            problems.append(f"{col}={text!r} is not a number")
            continue
        if not math.isfinite(values[col]):
            problems.append(f"{col}={text} is not finite")
    for col, (value, tol) in point.items():
        if col in values and not abs(values[col] - value) <= tol:
            problems.append(f"axis {col}={row[col]} is not the grid value {value!r}")
    for col in WORKLOADS[workload]["unit_columns"]:
        x = values.get(col, 0.0)
        if not -UNIT_ROUNDING <= x <= 1.0 + UNIT_ROUNDING:
            problems.append(f"{col}={row[col]} outside [0, 1]")
        elif not 0.0 <= x <= 1.0:
            notes.append(f"{col}={row[col]} outside [0, 1] by rounding")
    if ref_row is not None:
        for col, ref in ref_row.items():
            bad = _cell_problem(row[col], ref)
            if bad:
                problems.append(f"{col}: {bad}")
    return problems


def check_outputs(workload, config, seed, exit_code, csv_path):
    """Check one child's outputs; returns (attempted, failed, problems, notes).

    A point fails if it is an error row or if any of its rows fails a
    check.  Every point fails if the child exited non-zero or its output
    files disagree with the grid.
    """
    points = expected_points(config)
    attempted = len(points)
    if exit_code != 0:
        return attempted, attempted, [f"exit code {exit_code}"], []
    try:
        with open(csv_path, newline="") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        with open(str(csv_path) + ".meta.json") as fh:
            meta = json.load(fh)
    except (OSError, ValueError) as exc:
        return attempted, attempted, [f"unreadable output: {exc}"], []
    with open(BENCH / "reference" / f"{workload}.csv", newline="") as fh:
        ref_reader = csv.DictReader(fh)
        reference = list(ref_reader)
    if reader.fieldnames != ref_reader.fieldnames:
        return attempted, attempted, [
            f"columns {reader.fieldnames}, reference {ref_reader.fieldnames}"], []
    expected_rows = sum(rows_per_point(config, p) for p in points)
    if len(rows) != expected_rows or len(reference) != expected_rows:
        return attempted, attempted, [
            f"{len(rows)} rows (reference {len(reference)}), grid needs {expected_rows}"], []
    if meta.get("grid_points") != attempted or meta.get("seed") != seed:
        return attempted, attempted, [f"sidecar disagrees with the run: {meta}"], []
    at_recorded_seed = seed == int(config["seed"])
    seed_free = WORKLOADS[workload]["seed_free"]
    failed = 0
    problems, notes = [], []
    start = 0
    for point in points:
        n = rows_per_point(config, point)
        block = rows[start:start + n]
        point_problems = []
        for row, ref in zip(block, reference[start:start + n]):
            compare = at_recorded_seed or seed_free(row)
            point_problems += row_problems(workload, point, row,
                                           ref if compare else None, notes)
        if config["experiment"] == "wvm_crosstalk" and not point_problems:
            mean = statistics.fmean(float(r["infidelity"]) for r in block)
            if not all(_close(float(r["mean_infidelity"]), mean) for r in block):
                point_problems.append("mean_infidelity is not the mean of its rows")
        start += n
        if point_problems:
            failed += 1
            where = {k: v[0] for k, v in point.items()}
            problems += [f"point {where}: {p}" for p in point_problems[:3]]
    return attempted, failed, problems, notes


# --------------------------------------------------------------------------
# provenance
# --------------------------------------------------------------------------

def git_sha():
    """HEAD of the checkout, read without running git; None outside git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _blas(config_module):
    blas = getattr(config_module, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name')} {blas.get('version')}"


def provenance():
    import numpy
    import numpy.__config__
    import scipy
    import scipy.__config__

    sources = sorted((SRC / "capsim").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        body = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + body)
        lines += body.count(b"\n")
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(numpy.__config__),
        "scipy_blas": _blas(scipy.__config__),
        "child_blas_threads": CHILD_THREADS,
        "git_sha": git_sha(),
        "src_capsim_sha256": digest.hexdigest()[:16],
        "src_capsim_lines": lines,
    }


# --------------------------------------------------------------------------
# runs
# --------------------------------------------------------------------------

def capsim_argv(*args):
    return [sys.executable, "-m", "capsim", *args]


def check_checkout():
    if not (SRC / "capsim" / "__init__.py").is_file():
        raise SetupError(f"no capsim sources under {SRC}; run from a checkout")
    probe = OUT / "probe.log"
    argv = [sys.executable, "-c", "import capsim; print(capsim.__file__)"]
    code, _, _ = run_child(argv, probe)
    where = probe.read_text().strip()
    if code != 0 or Path(where).resolve().parent != (SRC / "capsim").resolve():
        raise SetupError(f"capsim does not import from this checkout: {where}")


def measure_setup(config_path, work):
    """Median wall time of `caps-sim validate`, which must report valid."""
    times = []
    for i in range(SETUP_REPEATS):
        log = work / f"validate{i}.log"
        code, wall, _ = run_child(capsim_argv("validate", str(config_path)), log)
        text = log.read_text()
        try:
            valid = code == 0 and json.loads(text)["status"] == "valid"
        except ValueError:
            valid = False
        if not valid:
            raise SetupError(f"validate failed:\n{text}")
        times.append(wall)
    return statistics.median(times), times


def run_once(workload, config, config_path, seed, work, traced):
    """One `caps-sim run` child (optionally under the tracer), checked."""
    out_dir = work / ("traced" if traced else "untraced")
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / config["output"]["path"]
    for stale in (csv_path, Path(str(csv_path) + ".meta.json")):
        stale.unlink(missing_ok=True)
    args = ["run", str(config_path), "--seed", str(seed), "--workers", "1",
            "--out", str(out_dir)]
    if traced:
        layers = out_dir / "layers.json"
        layers.unlink(missing_ok=True)
        argv = [sys.executable, str(BENCH / "traced_run.py"), "--workload", workload,
                "--layers", str(layers), "--spans", str(out_dir / "spans.jsonl"),
                "--", *args]
    else:
        argv = capsim_argv(*args)
    code, wall, rss = run_child(argv, out_dir / "child.log")
    attempted, failed, problems, notes = check_outputs(workload, config, seed,
                                                       code, csv_path)
    rep = {"exit_code": code, "wall_s": wall, "peak_rss_mb": rss,
           "attempted": attempted, "failed": failed, "problems": problems[:10],
           "notes": notes[:10]}
    if traced and code == 0:
        rep["layers"] = json.loads(layers.read_text())
    return rep


def repeat_for(seconds, body, minimum):
    """Call body() until the next call would overrun `seconds` (at least
    `minimum` calls); returns the list of results."""
    start = time.perf_counter()
    results = []
    while True:
        results.append(body())
        elapsed = time.perf_counter() - start
        if (len(results) >= minimum
                and elapsed * (len(results) + 1) / len(results) > seconds):
            return results


def end_to_end(workload, config, config_path, seed, seconds, work):
    setup, setup_times = measure_setup(config_path, work)
    reps = repeat_for(seconds, lambda: run_once(workload, config, config_path,
                                                seed, work, traced=False),
                      MIN_REPEATS)
    metrics = {
        "run_s": statistics.median(r["wall_s"] for r in reps),
        "setup_s": setup,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    return metrics, reps, {"setup_s": setup_times}


def per_layer(workload, config, config_path, seed, seconds, work):
    def pair():
        plain = run_once(workload, config, config_path, seed, work, traced=False)
        traced = run_once(workload, config, config_path, seed, work, traced=True)
        layers = traced.get("layers", {})
        if layers:
            layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        return plain, traced, layers

    pairs = repeat_for(seconds, pair, 1)
    reps = [r for p in pairs for r in p[:2]]
    names = set().union(*(p[2] for p in pairs))
    metrics = {name: statistics.median(p[2][name] for p in pairs if name in p[2])
               for name in names}
    return metrics, reps, {}


BASELINES = {  # ROADMAP item 1, measured at the re-anchor on 2 cores
    "gate.caps_finite_bandwidth.us_per_call": 420.0,
    "gate.robustness_mc.us_per_sample": 450.0,
}


def print_layer_report(workload, metrics):
    print(f"per-layer breakdown ({workload}, traced, median over pairs):")
    for name, value in metrics.items():
        base = BASELINES.get(name)
        note = f"   (ROADMAP baseline {base:g})" if base and value else ""
        print(f"  {name:48s} {value:14.6g}{note}")
    chosen = CHOSEN_LAYER[workload]
    share = metrics[f"{chosen}.share"]
    verdicts = [f"{chosen} share {share:.2f} "
                + ("(most: ok)" if share > 0.5 else "(MISMATCH: not most)")]
    for other in sorted(set(CHOSEN_LAYER.values()) - {chosen}):
        share = metrics[f"{other}.share"]
        verdicts.append(f"{other} share {share:.2f} "
                        + ("(~0: ok)" if share < 0.05 else "(MISMATCH: not ~0)"))
    print("  stress check: " + "; ".join(verdicts))


# The layer each workload was chosen to load (NOTES.md).
CHOSEN_LAYER = {"gate_mc": "gate", "source_protocol": "source",
                "wvm_enum": "transfer_matrix", "dense_scan": "transfer_matrix"}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work = OUT / args.workload
    work.mkdir(parents=True, exist_ok=True)
    try:
        check_checkout()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    config_path = BENCH / "configs" / f"{args.workload}.json"
    config = json.loads(config_path.read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {e["name"]: e["unit"] for e in spec["end_to_end"] + spec["per_layer"]}
    measure = per_layer if args.trace else end_to_end
    try:
        metrics, reps, extra = measure(args.workload, config, config_path,
                                       args.seed, args.seconds, work)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    names = [e["name"] for e in spec["per_layer" if args.trace else "end_to_end"]]
    if not metrics:  # every traced child failed, and its points count as failed
        metrics = dict.fromkeys(names, 0)
    metrics = {name: metrics[name] for name in names}
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    for r in reps:
        for problem in r["problems"]:
            print(f"check failed: {problem}")
        for note in r["notes"]:
            print(f"check note: {note}")
    prov = provenance()
    print("provenance: " + json.dumps(prov, sort_keys=True))
    if args.trace:
        print_layer_report(args.workload, metrics)
    else:
        for name, value in metrics.items():
            print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    error_rate = failed / attempted
    print(f"{args.workload} error_rate = {error_rate:.6g} ratio "
          f"({failed} of {attempted} grid points over {len(reps)} runs)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, error_rate=error_rate,
                  provenance=prov, runs=reps, **extra,
                  bench_peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
     ).write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
