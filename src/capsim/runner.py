"""Sweep execution and tabular output.

The sweep grid is flattened row-major; a point depends only on its
parameters (the Monte-Carlo experiments draw from the config seed), so
results are byte-identical for any worker count.  A point that raises
becomes an error row.  Relative "outfile" parameters are placed in the
CSV's directory.  Rows are written as CSV with shortest-roundtrip float
formatting; run metadata (config hash, code version, seed, timestamp)
goes to a JSON sidecar so the CSV body stays reproducible.
"""

import csv
import datetime
import io
import json
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__
from .experiments import EXPERIMENTS


def _eval_point(args):
    experiment, params, seed, index = args
    exp = EXPERIMENTS[experiment]
    p = dict(params)
    p.setdefault("seed", seed)
    try:
        rows = exp.fn(p)
        return index, rows, None
    except Exception as exc:  # any failure becomes an error row, never a lost sweep
        return index, None, f"{type(exc).__name__}: {exc}"


def run_sweep(config, workers=1):
    """Evaluate every grid point; returns (rows, columns, n_failures).

    Each row is the axis values plus the experiment outputs plus an
    'error' column (empty on success).
    """
    exp = EXPERIMENTS[config.experiment]
    axis_names = config.axis_names()
    n = config.grid_size()
    out_dir = os.path.dirname(config.output_path)
    out_files = [name for name, kind in exp.optional.items() if kind == "outfile"]
    tasks = []
    axis_rows = []
    for i in range(n):
        p = config.point_parameters(i)
        axis_rows.append({name: p[name] for name in axis_names})
        for name in out_files:
            if p.get(name):
                p[name] = os.path.join(out_dir, p[name])
        tasks.append((config.experiment, p, config.seed, i))
    if workers > 1 and n > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_eval_point, tasks,
                                    chunksize=max(1, n // (4 * workers))))
    else:
        results = [_eval_point(t) for t in tasks]
    results.sort(key=lambda r: r[0])

    columns = list(axis_names) + list(exp.columns) + ["error"]
    rows = []
    n_failures = 0
    for index, point_rows, error in results:
        axis_values = axis_rows[index]
        if error is not None:
            n_failures += 1
            row = dict(axis_values)
            row.update({c: "" for c in exp.columns})
            row["error"] = error
            rows.append(row)
            continue
        for out in point_rows:
            row = dict(axis_values)
            for c in exp.columns:
                row[c] = out.get(c, "")
            row["error"] = ""
            rows.append(row)
    return rows, columns, n_failures


def _format_cell(value):
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def table_bytes(rows, columns):
    """Deterministic CSV body for a result table."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_format_cell(row[c]) for c in columns])
    return buf.getvalue().encode()


def write_outputs(config, rows, columns):
    """Write the CSV table and its metadata sidecar; returns the CSV path."""
    path = config.output_path
    with open(path, "wb") as fh:
        fh.write(table_bytes(rows, columns))
    meta = {
        "experiment": config.experiment,
        "config_hash": config.config_hash(),
        "code_version": __version__,
        "seed": config.seed,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "rows": len(rows),
        "grid_points": config.grid_size(),
        "failures": sum(1 for r in rows if r.get("error")),
        "fidelity_averaging": "success-weighted (heralded)",
    }
    with open(path + ".meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
