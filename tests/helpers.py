"""Helpers shared by several test modules."""

from capsim.runner import _line


def table_bytes(lines, columns):
    """CSV body of a result table, as write_outputs writes it."""
    return (_line(columns) + "".join(lines)).encode()
