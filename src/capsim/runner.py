"""Sweep execution and tabular output.

The sweep grid is flattened row-major.  A point depends only on its
parameters (the Monte-Carlo experiments draw from the config seed), never
on which other points share its task, so results are byte-identical for
any worker count.  When an experiment accepts one parameter as an array
and the sweep has that axis, the points that differ only along it form a
line, and each line is one task: the experiment evaluates the whole line
in one call and returns one sequence per output column.  Every
experiment returns float or int columns, a scalar being a one-row column,
so every task's rows take one path: each column is converted once by
np.asarray, all cells are checked for NaN and infinity in one pass, and
a row is the repr of its cells joined with ",".  A point that raises, or
returns a NaN or infinite output or a column of another dtype (bool,
str, object), becomes an error row, the one row csv.writer quotes; a
line that fails, or returns columns of another length, is evaluated
again point by point, so each failing point keeps its own row.
Relative "outfile" parameters are placed in the CSV's directory.  Each
task's rows become CSV lines (shortest-roundtrip floats) as it returns;
run_sweep holds every line in memory until the sweep ends, and
write_outputs then writes them to the file.  Run metadata and health
(timings, peak RSS) go to a JSON sidecar so the CSV body stays
reproducible.
"""

import collections
import csv
import datetime
import io
import itertools
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .errors import DomainError
from .experiments import EXPERIMENTS

# a parallel sweep's window: tasks per chunk, and chunks in flight per worker.
# On a 20,000-point rate_tables sweep at 2 workers (2-core x86_64), chunks of
# 64 tasks ran 10-20% slower than uncapped chunks of 2,500; chunks of 1024 ran
# as fast.
_CHUNK_TASKS = 1024
_CHUNKS_PER_WORKER = 2


def _tails(out, names, rows=None):
    """Each row's CSV text after its axis cells: its outputs and an empty error cell.

    out maps each name to a float or int scalar (one row) or sequence (one
    row per entry); each column is converted once and written as the repr
    of its cells.  Raises TypeError for a column of any other dtype,
    ValueError for columns of unequal length (or, when rows is given, not
    rows long) and DomainError, naming the first, for a NaN or inf output.
    """
    cols = []
    for name in names:
        col = np.asarray(out[name])
        if col.dtype.kind not in "fiu":  # bool, str, object, or ints past int64
            raise TypeError(f"output {name} of dtype {col.dtype}")
        cells = col.tolist()
        cols.append(cells if col.ndim else [cells])
    lengths = set(map(len, cols))
    if len(lengths) > 1 or rows is not None and lengths != {rows}:
        raise ValueError(f"output columns of lengths {sorted(lengths)}")
    if not all(map(math.isfinite, itertools.chain.from_iterable(cols))):
        for row in zip(*cols):  # name the first, row by row
            for name, value in zip(names, row):
                if not math.isfinite(value):
                    raise DomainError(f"non-finite output {name} = {value!r}")
    texts = [map(repr, col) for col in cols]
    return list(map(",".join, zip(*texts, itertools.repeat("\n"))))  # "\n" ends the error cell


def _call(fn, params, names, rows=None):
    """(row tails, 0) of one call (see _tails), or (one error row's tail, 1).

    The call fails when fn raises or _tails rejects its output.
    """
    try:
        return _tails(fn(dict(params)), names, rows), 0
    except Exception as exc:  # any failure becomes an error row, never a lost sweep
        return [_line([""] * len(names) + [f"{type(exc).__name__}: {exc}"])], 1


def _eval_task(task):
    """(flat indices, row tails, failures) pieces of one task.

    A task is one point (axis None) or one line, whose axis parameter
    holds the line's values as an array and yields one row per value.  A
    point's piece gives all its rows to its one index; a line's gives row
    k to its k-th index.  A line that fails, or returns columns of another
    length, is evaluated again point by point.
    """
    experiment, params, indices, axis = task
    exp = EXPERIMENTS[experiment]
    if axis is None:
        return [(indices, *_call(exp.fn, params, exp.columns))]
    tails, failed = _call(exp.fn, params, exp.columns, len(indices))
    if not failed:
        return [(indices, tails, 0)]
    return [((i,), *_call(exp.fn, dict(params, **{axis: value}), exp.columns))
            for i, value in zip(indices, params[axis].tolist())]


def _tasks(config, exp):
    """(task count, iterator of tasks in row-major order).

    A task is (experiment, params, flat indices, array axis or None), made
    with its seed and outfile paths only when the iterator reaches it.
    """
    names, shape, n = config.axis_names(), config.grid_shape(), config.grid_size()
    axis = exp.array_param if exp.array_param in names else None
    a = names.index(axis) if axis else len(shape)  # no array axis: each point is a task
    stride, span = math.prod(shape[a + 1:]), math.prod(shape[a:])
    out_dir = os.path.dirname(config.output_path)
    out_files = [name for name, kind in exp.optional.items() if kind == "outfile"]

    def task(first):
        p = config.point_parameters(first)
        if axis:
            p[axis] = config.sweep[a].values
        p["seed"] = config.seed
        for name in out_files:
            if p.get(name):
                p[name] = os.path.join(out_dir, p[name])
        return config.experiment, p, range(first, first + span, stride), axis

    firsts = (o + i for o in range(0, n, span) for i in range(stride))
    return n // span * stride, map(task, firsts)


def _eval_chunk(chunk):
    return [_eval_task(task) for task in chunk]


def _results(n_tasks, tasks, workers):  # each task's _eval_task list as it returns, in task order
    if workers > 1 and n_tasks > 1:
        from concurrent.futures import ProcessPoolExecutor  # only parallel runs pay for it
        size = max(1, min(n_tasks // (4 * workers), _CHUNK_TASKS))
        chunks = iter(lambda: list(itertools.islice(tasks, size)), [])
        with ProcessPoolExecutor(max_workers=workers) as pool:
            window = collections.deque()  # futures of the chunks in flight, oldest first
            for chunk in chunks:
                window.append(pool.submit(_eval_chunk, chunk))
                if len(window) > _CHUNKS_PER_WORKER * workers:
                    yield from window.popleft().result()
            while window:
                yield from window.popleft().result()
    else:
        yield from map(_eval_task, tasks)


def run_sweep(config, workers=1):
    """Evaluate every grid point; returns (lines, columns, n_failures).

    `lines` holds one CSV line per table row, in row-major order: the axis
    values, the experiment outputs and an 'error' cell (empty on success).
    Each task is made only when it is evaluated or, with several workers,
    submitted; a parallel sweep keeps at most _CHUNKS_PER_WORKER chunks of
    at most _CHUNK_TASKS tasks per worker in flight.
    """
    exp = EXPERIMENTS[config.experiment]
    # each axis value's cell and its delimiter
    axis_cells = [[repr(v) + "," for v in axis.values.tolist()] for axis in config.sweep]
    shape = config.grid_shape()  # row-major: the last axis varies fastest
    strides = [math.prod(shape[a + 1:]) for a in range(len(shape))]
    points = [None] * config.grid_size()  # one tuple of lines per point, by flat index
    n_failures = 0
    results = _results(*_tasks(config, exp), workers)
    for indices, tails, failed in itertools.chain.from_iterable(results):
        n_failures += failed
        heads = [cells[indices[0] // stride % len(cells)]
                 for cells, stride in zip(axis_cells, strides)]
        if len(indices) > 1:  # a line: row k is at its axis's k-th value
            line = config.axis_names().index(exp.array_param)
            before, after = "".join(heads[:line]), "".join(heads[line + 1:])
            heads = [before + cell + after for cell in axis_cells[line]]
            points[indices.start:indices.stop:indices.step] = zip(map(str.__add__, heads, tails))
        else:
            head = "".join(heads)
            points[indices[0]] = tuple([head + tail for tail in tails])
    columns = list(config.axis_names()) + list(exp.columns) + ["error"]
    return list(itertools.chain.from_iterable(points)), columns, n_failures


def _line(cells):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(cells)
    return buf.getvalue()


def _peak_rss_mb():  # None on Windows, which has no resource module
    try:
        import resource
    except ImportError:
        return None
    unit = 2**20 if sys.platform == "darwin" else 1024  # ru_maxrss: bytes on macOS, else KiB
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / unit


def write_outputs(config, lines, columns, n_failures, sweep_s):
    """Write the CSV table and its metadata sidecar; returns the CSV path."""
    path = config.output_path
    start = time.perf_counter()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_line(columns))
        fh.writelines(lines)
    meta = {
        "experiment": config.experiment,
        "config_hash": config.config_hash(),
        "code_version": __version__,
        "seed": config.seed,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "rows": len(lines),
        "grid_points": config.grid_size(),
        "failures": n_failures,
        "fidelity_averaging": "success-weighted (heralded)",
        "sweep_s": sweep_s,
        "write_s": time.perf_counter() - start,
        "peak_rss_mb": _peak_rss_mb(),
    }
    with open(path + ".meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
