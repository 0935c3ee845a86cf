"""Sweep execution and tabular output.

The sweep grid is flattened row-major.  A point depends only on its
parameters (the Monte-Carlo experiments draw from the config seed), never
on which other points share its task, so results are byte-identical for
any worker count.  When an experiment accepts one parameter as an array
and the sweep has that axis, the points that differ only along it form a
line, and each line is one task: the experiment evaluates the whole line
in one call.  A point that raises becomes an error row; a line that raises
is evaluated again point by point, so each failing point keeps its own
row.  Relative "outfile" parameters are placed in the CSV's directory.
Rows are written as CSV with shortest-roundtrip float formatting; run
metadata (config hash, code version, seed, timestamp) goes to a JSON
sidecar so the CSV body stays reproducible.
"""

import csv
import datetime
import io
import itertools
import json
import math
import os

import numpy as np

from . import __version__
from .experiments import EXPERIMENTS


def _call(fn, params):
    try:
        return fn(dict(params)), None
    except Exception as exc:  # any failure becomes an error row, never a lost sweep
        return None, f"{type(exc).__name__}: {exc}"


def _eval_task(task):
    """(flat index, rows, error) for each grid point of one task.

    A task is one point (axis None) or one line, whose axis parameter
    holds the line's values as an array and yields one row per value.  A
    line that raises, or returns another number of rows, is evaluated
    again point by point.
    """
    experiment, params, indices, axis = task
    fn = EXPERIMENTS[experiment].fn
    if axis is None:
        return [(indices[0], *_call(fn, params))]
    rows, error = _call(fn, params)
    if error is None and len(rows) == len(indices):
        return [(i, [row], None) for i, row in zip(indices, rows)]
    return [(i, *_call(fn, dict(params, **{axis: value})))
            for i, value in zip(indices, params[axis].tolist())]


def _tasks(config, exp):
    """(params, flat indices, array axis or None) per task, in row-major order."""
    n = config.grid_size()
    axis = exp.array_param
    if axis not in config.axis_names():
        return [(config.point_parameters(i), [i], None) for i in range(n)]
    a = config.axis_names().index(axis)
    shape = config.grid_shape()
    stride = math.prod(shape[a + 1:])
    span = shape[a] * stride
    tasks = []
    for first in (o + i for o in range(0, n, span) for i in range(stride)):
        p = config.point_parameters(first)
        p[axis] = config.sweep[a].values
        tasks.append((p, range(first, first + span, stride), axis))
    return tasks


def run_sweep(config, workers=1):
    """Evaluate every grid point; returns (rows, columns, n_failures).

    Each row is the axis values plus the experiment outputs plus an
    'error' column (empty on success).
    """
    exp = EXPERIMENTS[config.experiment]
    axis_names = config.axis_names()
    out_dir = os.path.dirname(config.output_path)
    out_files = [name for name, kind in exp.optional.items() if kind == "outfile"]
    tasks = []
    for p, indices, axis in _tasks(config, exp):
        p.setdefault("seed", config.seed)
        for name in out_files:
            if p.get(name):
                p[name] = os.path.join(out_dir, p[name])
        tasks.append((config.experiment, p, indices, axis))
    if workers > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor  # only parallel runs pay for it

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_eval_task, tasks,
                                    chunksize=max(1, len(tasks) // (4 * workers))))
    else:
        results = [_eval_task(t) for t in tasks]
    results = sorted(itertools.chain.from_iterable(results), key=lambda r: r[0])

    columns = list(axis_names) + list(exp.columns) + ["error"]
    rows = []
    n_failures = 0
    grid = itertools.product(*(axis.values.tolist() for axis in config.sweep))
    for (_, point_rows, error), values in zip(results, grid):
        axis_values = dict(zip(axis_names, values))
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
