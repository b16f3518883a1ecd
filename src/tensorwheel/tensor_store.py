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


@dataclass
class SparseTensor:
    """Immutable COO store of observed entries with dimension bounds.

    ``normalized`` records whether the log transform has been applied.
    Safe for concurrent reads after construction.
    """

    dims: tuple[int, int, int]
    entries: list[Entry]
    normalized: bool = False

    def __post_init__(self):
        ni, nj, nk = self.dims
        if min(ni, nj, nk) < 1:
            raise ParameterError(f"dims must be >= 1, got {self.dims}")
        seen = set()
        for e in self.entries:
            if not (0 <= e.i < ni and 0 <= e.j < nj and 0 <= e.k < nk):
                raise BoundsError(f"entry ({e.i}, {e.j}, {e.k}) outside dims {self.dims}")
            if not math.isfinite(e.value):
                raise DomainError(f"entry ({e.i}, {e.j}, {e.k}) has non-finite value {e.value}")
            key = (e.i, e.j, e.k)
            if key in seen:
                raise DuplicateKeyError(key)
            seen.add(key)

    def __len__(self):
        return len(self.entries)

    @cached_property
    def index_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Entry indices as three int64 arrays (in entry order)."""
        ii = np.array([e.i for e in self.entries], dtype=np.int64)
        jj = np.array([e.j for e in self.entries], dtype=np.int64)
        kk = np.array([e.k for e in self.entries], dtype=np.int64)
        return ii, jj, kk

    @cached_property
    def value_array(self) -> np.ndarray:
        return np.array([e.value for e in self.entries], dtype=np.float64)


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
                if not math.isfinite(value):
                    raise ParseError(line_no, f"non-finite value in {line!r}")
                key = (i, j, k)
                if key in records and not keep_last:
                    raise DuplicateKeyError(key, line_no)
                records[key] = value
    except UnicodeDecodeError:
        raise ParseError(_undecodable_line(path), "not valid UTF-8 text") from None

    if dims == "infer":
        if header_dims is not None:
            resolved = header_dims
        elif records:
            resolved = tuple(max(key[axis] for key in records) + 1 for axis in range(3))
        else:
            resolved = (1, 1, 1)
    else:
        resolved = tuple(int(d) for d in dims)

    entries = [Entry(i, j, k, v) for (i, j, k), v in records.items()]
    return SparseTensor(dims=resolved, entries=entries)


def write_coo(t: SparseTensor, path) -> None:
    """Write a SparseTensor in the COO text format with a dims header."""
    ni, nj, nk = t.dims
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# dims {ni} {nj} {nk}\n")
        for e in t.entries:
            fh.write(f"{e.i} {e.j} {e.k} {repr(float(e.value))}\n")


def normalize(t: SparseTensor) -> SparseTensor:
    """Replace every value v by ln(v + 1); requires non-negative values."""
    if t.normalized:
        raise StateError("tensor is already normalized")
    for e in t.entries:
        if e.value < 0:
            raise DomainError(f"cannot normalize negative value {e.value} at ({e.i}, {e.j}, {e.k})")
    entries = [Entry(e.i, e.j, e.k, float(np.log1p(e.value))) for e in t.entries]
    return SparseTensor(t.dims, entries, normalized=True)


def denormalize(t: SparseTensor) -> SparseTensor:
    """Invert ``normalize``: replace every value v by exp(v) - 1."""
    if not t.normalized:
        raise StateError("tensor is not normalized")
    entries = [Entry(e.i, e.j, e.k, float(np.expm1(e.value))) for e in t.entries]
    return SparseTensor(t.dims, entries, normalized=False)


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
    n = len(t.entries)
    if n == 0:
        raise ParameterError("cannot split an empty tensor")
    n_train, n_valid, n_test = largest_remainder_sizes(n, spec.ratios)
    perm = np.random.default_rng(spec.seed).permutation(n)
    picks = (perm[:n_train], perm[n_train:n_train + n_valid], perm[n_train + n_valid:])
    parts = []
    for idx in picks:
        part_entries = [t.entries[p] for p in idx]
        parts.append(SparseTensor(t.dims, part_entries, normalized=t.normalized))
    return tuple(parts)
