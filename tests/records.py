"""Observation sets as records, for tests that compare entries one by one."""

from typing import NamedTuple


class Record(NamedTuple):
    i: int
    j: int
    k: int
    value: float


def entries(t) -> list:
    """t's observations as (i, j, k, value) records of Python scalars, in
    entry order."""
    return list(map(Record, t.ii.tolist(), t.jj.tolist(), t.kk.tolist(), t.values.tolist()))
