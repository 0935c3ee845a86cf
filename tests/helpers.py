"""Helpers shared by several test modules."""

from capsim.experiments import EXPERIMENTS
from capsim.runner import _line


def table_bytes(lines, columns):
    """CSV body of a result table, as write_outputs writes it."""
    return (_line(columns) + "".join(lines)).encode()


def schema_kinds(experiment):
    """Each parameter of experiment's schema, mapped to its kind."""
    exp = EXPERIMENTS[experiment]
    return {**exp.required, **exp.optional}
