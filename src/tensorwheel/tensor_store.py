"""Sparse third-order tensor store: ingestion, normalization, splitting.

Observations of a dynamic weighted network are kept in COO form: one
(i, j, k, value) record per observed interaction, where i and j index
nodes, k indexes the time slot, and value is the interaction weight.
Indices are 0-based both in files and in memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BoundsError,
    DomainError,
    DuplicateKeyError,
    ParameterError,
    ParseError,
    StateError,
)


@dataclass(frozen=True)
class Entry:
    """One observed tensor element."""

    i: int
    j: int
    k: int
    value: float


@dataclass(frozen=True)
class SplitSpec:
    """Train:validation:test ratio and the shuffle seed."""

    ratios: tuple[int, int, int]
    seed: int

    def __post_init__(self):
        if len(self.ratios) != 3 or any(int(x) != x or x < 0 for x in self.ratios):
            raise ParameterError(f"ratios must be three non-negative integers, got {self.ratios}")
        if sum(self.ratios) == 0:
            raise ParameterError("ratio components must sum to > 0")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
        object.__setattr__(self, "ratios", tuple(int(x) for x in self.ratios))


class SparseTensor:
    """Immutable COO store of observed entries with dimension bounds.

    Observations are held as four read-only arrays in entry order:
    ``ii``, ``jj`` and ``kk`` (int64) and ``values`` (float64).
    ``normalized`` records whether the log transform has been applied.
    Safe for concurrent reads after construction.
    """

    def __init__(self, dims, entries, normalized: bool = False):
        keys = np.array([(e.i, e.j, e.k) for e in entries], dtype=np.int64).reshape(-1, 3)
        self._store(dims, *keys.T, [e.value for e in entries], normalized)

    @classmethod
    def from_arrays(cls, dims, ii, jj, kk, values, normalized: bool = False) -> SparseTensor:
        """A tensor over copies of the given index and value arrays."""
        t = cls.__new__(cls)
        t._store(dims, ii, jj, kk, values, normalized)
        return t

    def _store(self, dims, ii, jj, kk, values, normalized):
        """Validate and keep the arrays; the first faulty entry decides the error."""
        if len(dims) != 3:
            raise ParameterError(f"dims must be three sizes, got {dims}")
        self.dims = tuple(int(d) for d in dims)
        if min(self.dims) < 1:
            raise ParameterError(f"dims must be >= 1, got {self.dims}")
        ii, jj, kk = (np.array(a, dtype=np.int64) for a in (ii, jj, kk))
        values = np.array(values, dtype=np.float64)
        if values.ndim != 1 or not ii.shape == jj.shape == kk.shape == values.shape:
            raise ParameterError("index and value arrays must be 1-D and of one length")
        ni, nj, nk = self.dims
        outside = (ii < 0) | (ii >= ni) | (jj < 0) | (jj >= nj) | (kk < 0) | (kk >= nk)
        non_finite = ~np.isfinite(values)
        # a stable sort keeps the repeats of a key in entry order, so every
        # occurrence after the first is marked; unlike a linear index of
        # the dims, sorting the keys cannot overflow
        order = np.lexsort((kk, jj, ii))
        repeat = np.zeros(len(values), dtype=bool)
        repeat[order[1:]] = (np.diff(np.stack((ii, jj, kk))[:, order]) == 0).all(axis=0)
        faulty = outside | non_finite | repeat
        if faulty.any():
            p = int(np.argmax(faulty))
            key = (int(ii[p]), int(jj[p]), int(kk[p]))
            if outside[p]:
                raise BoundsError(f"entry {key} outside dims {self.dims}")
            if non_finite[p]:
                raise DomainError(f"entry {key} has non-finite value {values[p]}")
            raise DuplicateKeyError(key)
        for a in (ii, jj, kk, values):
            a.flags.writeable = False
        self.ii, self.jj, self.kk, self.values = ii, jj, kk, values
        self.normalized = normalized

    def __len__(self):
        return len(self.values)

    @cached_property
    def entries(self) -> list[Entry]:
        """The observations as Entry records, in entry order; derived from the arrays."""
        return list(map(Entry, self.ii.tolist(), self.jj.tolist(), self.kk.tolist(),
                        self.values.tolist()))


def _dims_header(line: str, line_no: int):
    """(I, J, K) from a "# dims I J K" comment line; None for any other comment."""
    parts = line[1:].split()
    if parts[:1] != ["dims"]:
        return None
    if len(parts) != 4:
        raise ParseError(line_no, f"malformed dims header: {line!r}")
    try:
        return tuple(int(p) for p in parts[1:])
    except ValueError:
        raise ParseError(line_no, f"malformed dims header: {line!r}") from None


def _undecodable_line(path) -> int:
    """1-based number of the first line of a file that is not valid UTF-8."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                raw.encode("utf-8")  # an undecodable byte was escaped to a lone surrogate
            except UnicodeEncodeError:
                return line_no
    return line_no


def read_dims_header(path):
    """The dims a COO file declares in its "# dims" header, or None.

    The first header counts, as in ``ingest``.
    """
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line.startswith("#"):
                dims = _dims_header(line, line_no)
                if dims is not None:
                    return dims
    return None


def ingest(path, dims="infer", keep_last: bool = False) -> SparseTensor:
    """Load a COO text file into a SparseTensor.

    Each non-comment line holds four whitespace-separated fields
    ``i j k value``.  Lines starting with '#' are comments; a header
    comment "# dims I J K" declares the dimensions.  Explicit ``dims``
    win over the header; with ``dims="infer"`` and no header, dimensions
    are one past the largest index seen.

    Args:
        path: file to read.
        dims: (I, J, K) tuple, or "infer".
        keep_last: when True, a repeated (i, j, k) silently replaces the
            earlier record instead of raising DuplicateKeyError.
    """
    header_dims = None
    records = {}  # (i, j, k) -> value, insertion-ordered
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, raw in enumerate(fh, start=1):
                line = raw.strip()
                if line.startswith("#"):
                    if header_dims is None:
                        header_dims = _dims_header(line, line_no)
                    continue
                if not line:
                    continue
                fields = line.split()
                if len(fields) != 4:
                    raise ParseError(line_no, f"expected 4 fields, got {len(fields)}")
                try:
                    i, j, k = int(fields[0]), int(fields[1]), int(fields[2])
                    value = float(fields[3])
                except ValueError:
                    raise ParseError(line_no, f"non-numeric field in {line!r}") from None
                if min(i, j, k) < 0:
                    raise ParseError(line_no, f"negative index in {line!r}")
                if max(i, j, k) >= 2 ** 63:
                    raise ParseError(line_no, f"index beyond int64 in {line!r}")
                if not math.isfinite(value):
                    raise ParseError(line_no, f"non-finite value in {line!r}")
                key = (i, j, k)
                if key in records and not keep_last:
                    raise DuplicateKeyError(key, line_no)
                records[key] = value
    except UnicodeDecodeError:
        raise ParseError(_undecodable_line(path), "not valid UTF-8 text") from None

    keys = np.array(list(records), dtype=np.int64).reshape(-1, 3)
    if dims == "infer":
        # one past the largest index seen; (1, 1, 1) for an empty file
        dims = header_dims or (keys.max(axis=0, initial=0) + 1).tolist()
    return SparseTensor.from_arrays(dims, *keys.T, list(records.values()))


def write_coo(t: SparseTensor, path) -> None:
    """Write a SparseTensor in the COO text format with a dims header."""
    ni, nj, nk = t.dims
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# dims {ni} {nj} {nk}\n")
        for i, j, k, v in zip(t.ii.tolist(), t.jj.tolist(), t.kk.tolist(), t.values.tolist()):
            fh.write(f"{i} {j} {k} {v!r}\n")


def normalize(t: SparseTensor) -> SparseTensor:
    """Replace every value v by ln(v + 1); requires non-negative values."""
    if t.normalized:
        raise StateError("tensor is already normalized")
    if (t.values < 0).any():
        p = int(np.argmax(t.values < 0))
        raise DomainError(f"cannot normalize negative value {t.values[p]} "
                          f"at ({t.ii[p]}, {t.jj[p]}, {t.kk[p]})")
    return SparseTensor.from_arrays(t.dims, t.ii, t.jj, t.kk, np.log1p(t.values), normalized=True)


def denormalize(t: SparseTensor) -> SparseTensor:
    """Invert ``normalize``: replace every value v by exp(v) - 1."""
    if not t.normalized:
        raise StateError("tensor is not normalized")
    return SparseTensor.from_arrays(t.dims, t.ii, t.jj, t.kk, np.expm1(t.values))


def largest_remainder_sizes(n: int, ratios: tuple[int, int, int]) -> tuple[int, int, int]:
    """Apportion n items to three buckets proportionally to ratios.

    Each bucket gets the floor of its exact share; leftover items go to
    the buckets with the largest fractional remainders, earlier buckets
    first on ties.  Exact integer arithmetic throughout.
    """
    total = sum(ratios)
    base = [n * r // total for r in ratios]
    rema = [n * r % total for r in ratios]
    short = n - sum(base)
    for pos in sorted(range(3), key=lambda p: (-rema[p], p))[:short]:
        base[pos] += 1
    return tuple(base)


def split(t: SparseTensor, spec: SplitSpec) -> tuple[SparseTensor, SparseTensor, SparseTensor]:
    """Partition entries into train/validation/test by seeded shuffle.

    Sizes follow ``spec.ratios`` with largest-remainder rounding; the
    same (tensor, spec) always yields the same partition.
    """
    n = len(t)
    if n == 0:
        raise ParameterError("cannot split an empty tensor")
    n_train, n_valid, n_test = largest_remainder_sizes(n, spec.ratios)
    perm = np.random.default_rng(spec.seed).permutation(n)
    return tuple(SparseTensor.from_arrays(t.dims, t.ii[idx], t.jj[idx], t.kk[idx], t.values[idx],
                                          normalized=t.normalized)
                 for idx in np.split(perm, [n_train, n_train + n_valid]))
