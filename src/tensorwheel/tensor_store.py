"""Sparse third-order tensor store: ingestion, normalization, splitting.

Observations of a dynamic weighted network are kept in COO form: one
(i, j, k, value) record per observed interaction, where i and j index
nodes, k indexes the time slot, and value is the interaction weight.
Indices are 0-based both in files and in memory.
"""

from __future__ import annotations

import math
import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundsError,
    DomainError,
    DuplicateKeyError,
    ParameterError,
    ParseError,
    StateError,
    TensorWheelError,
)


def is_whole(x) -> bool:
    """Whether x is a whole number; NaN and infinity are not."""
    try:
        return int(x) == x
    except (TypeError, ValueError, OverflowError):  # None, NaN, infinity
        return False


def whole(x, what: str) -> int:
    """int(x), or ParameterError where x is not a whole number."""
    if not is_whole(x):
        raise ParameterError(f"{what} must be a whole number, got {x}")
    return int(x)


def natural(x, what: str) -> int:
    """int(x), or ParameterError where x is not a whole number >= 0."""
    n = whole(x, what)
    if n < 0:
        raise ParameterError(f"{what} must be >= 0, got {n}")
    return n


def check_dims(dims) -> tuple[int, int, int]:
    """dims as three ints, or ParameterError where they are not three
    whole numbers >= 1."""
    if len(dims) != 3:
        raise ParameterError(f"dims must be three sizes, got {dims}")
    if not all(map(is_whole, dims)):
        raise ParameterError(f"dims must be whole numbers, got {dims}")
    ints = tuple(int(d) for d in dims)
    if min(ints) < 1:
        raise ParameterError(f"dims must be >= 1, got {ints}")
    return ints


@dataclass(frozen=True)
class SplitSpec:
    """Train:validation:test ratio and the shuffle seed."""

    ratios: tuple[int, int, int] = (1, 2, 7)
    seed: int = 0

    def __post_init__(self):
        if len(self.ratios) != 3 or any(not is_whole(x) or x < 0 for x in self.ratios):
            raise ParameterError(f"ratios must be three non-negative integers, got {self.ratios}")
        if sum(self.ratios) == 0:
            raise ParameterError("ratio components must sum to > 0")
        object.__setattr__(self, "seed", natural(self.seed, "seed"))
        object.__setattr__(self, "ratios", tuple(int(x) for x in self.ratios))


class SparseTensor:
    """Immutable COO store of observed entries with dimension bounds.

    Observations are held as four read-only, C-ordered arrays in entry
    order: ``ii``, ``jj`` and ``kk`` (int64) and ``values`` (float64),
    copied from the given sequences; an observation is named by its
    position in them, its entry id.  With no arrays the tensor is empty.
    ``normalized`` records whether the log transform has been applied.
    Safe for concurrent reads after construction.

    The constructor refuses an entry outside the dims (BoundsError), a
    non-finite value (DomainError) and a repeated key (DuplicateKeyError);
    the first faulty entry decides which.  A repeat is found as a key equal
    to the one before it in ``key_order``, which keeps the repeats of a key
    in entry order, so each occurrence after the first is faulty.
    """

    def __init__(self, dims, ii=(), jj=(), kk=(), values=(), normalized: bool = False):
        self._store(dims, ii, jj, kk, values, normalized)

    @classmethod
    def _over_valid_keys(cls, dims, ii, jj, kk, values, normalized: bool = False):
        """A tensor over keys in bounds and distinct by construction: taken
        from a validated tensor, or from a mask of shape dims.  The arrays
        are kept, not copied, where they are C-ordered already, and only
        the values are checked; they must not be written afterwards."""
        return cls.__new__(cls)._store(dims, ii, jj, kk, values, normalized, keys_valid=True)

    def _store(self, dims, ii, jj, kk, values, normalized, keys_valid=False):
        """Validate and keep the arrays, and return self; the first faulty
        entry decides the error."""
        self.dims = check_dims(dims)
        keep = np.ascontiguousarray if keys_valid else np.array
        given = ii, jj, kk
        if keys_valid:
            ii, jj, kk = (keep(a, dtype=np.int64) for a in given)
        else:
            try:
                with np.errstate(invalid="ignore"):  # NaN or infinity in an array: refused below
                    ii, jj, kk = (keep(a, dtype=np.int64) for a in given)
            except (ValueError, OverflowError):  # NaN, infinity or what is no number, in a list
                raise ParameterError("indices must be whole numbers") from None
        values = keep(values, dtype=np.float64)
        if values.ndim != 1 or not ii.shape == jj.shape == kk.shape == values.shape:
            raise ParameterError("index and value arrays must be 1-D and of one length")
        # only a column of another kind than integers can hold a fraction
        if not keys_valid and any(np.asarray(a).dtype.kind not in "iub" and np.any(col != a)
                                  for col, a in zip((ii, jj, kk), given)):
            raise ParameterError("indices must be whole numbers")
        non_finite = ~np.isfinite(values)
        outside = repeat = np.zeros_like(non_finite)
        if not keys_valid:
            ni, nj, nk = self.dims
            outside = (ii < 0) | (ii >= ni) | (jj < 0) | (jj >= nj) | (kk < 0) | (kk >= nk)
            order = key_order(ii, jj, kk)
            repeat[order[1:]] = _same_key_as_before(order, ii, jj, kk)
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
        return self

    def __len__(self):
        return len(self.values)


def key_order(ii, jj, kk) -> np.ndarray:
    """The stable order of the keys (ii[p], jj[p], kk[p]) that
    ``np.lexsort((kk, jj, ii))`` gives: by i, then j, then k, and the
    repeats of a key in entry order.

    It sorts one linear index per key, (i * J + j) * K + k, where I, J and
    K are the sides of the box that spans 0 and every key.  So it needs no
    dims, a key outside them, or negative, sorts as the three columns
    would, and no index overflows while the box has fewer cells than int64
    can count.  A larger box, as for dims of 10**7 cubed, sorts the
    columns."""
    sizes = [int(col.max(initial=0)) - int(col.min(initial=0)) + 1 for col in (ii, jj, kk)]
    if math.prod(sizes) > np.iinfo(np.int64).max:
        return np.lexsort((kk, jj, ii))
    return np.argsort((ii * sizes[1] + jj) * sizes[2] + kk, kind="stable")


def _same_key_as_before(order, ii, jj, kk) -> np.ndarray:
    """For each entry of ``order[1:]``, whether its key equals the key of
    the entry before it in ``order``."""
    same = True
    for col in (ii, jj, kk):
        in_order = col[order]
        same = same & (in_order[1:] == in_order[:-1])
    return same


def _dims_header(line: str):
    """(I, J, K) from a "# dims I J K" comment line; None for any other
    comment.  A malformed header raises ValueError."""
    parts = line[1:].split()
    if parts[:1] != ["dims"]:
        return None
    try:
        ni, nj, nk = (int(p) for p in parts[1:])  # a count other than three raises too
    except ValueError:
        raise ValueError(f"malformed dims header: {line!r}") from None
    return ni, nj, nk


def ingest(path, dims="infer", keep_last: bool = False) -> SparseTensor:
    """Load a COO text file into a SparseTensor.

    Each non-comment line holds four whitespace-separated fields
    ``i j k value``.  Lines starting with '#' are comments; a header
    comment "# dims I J K" declares the dimensions.  Explicit ``dims``
    win over the header; with ``dims="infer"`` and no header, dimensions
    are one past the largest index seen.

    The file is read once, so a pipe works too.  A well-formed file is
    parsed in one pass by numpy's reader.  A file that pass refuses, for
    any fault, is parsed again line by line from the bytes read, each
    line decoded as UTF-8 once, so that a fault of a line (its text, a
    field, a header or a repeated key) names the first bad line.  A
    fault of the tensor as a whole names no line: an entry outside the
    dims names its position, and bad dims name the dims.

    Args:
        path: file to read.
        dims: (I, J, K) tuple, or "infer".
        keep_last: when True, a repeated (i, j, k) silently replaces the
            earlier record instead of raising DuplicateKeyError.
    """
    return read_coo(path, dims, keep_last)[0]


def read_coo(path, dims="infer", keep_last: bool = False):
    """``ingest``'s tensor, and the dims the file's first "# dims" header
    declares, or None where it has none: (tensor, header_dims)."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return _ingest_whole(data, dims, keep_last)
    except (ValueError, TypeError, Warning, TensorWheelError):
        pass  # numpy's reader or the tensor's checks refused the file
    return _ingest_lines(data, dims, keep_last)


_COO_ROW = np.dtype([("i", np.int64), ("j", np.int64), ("k", np.int64), ("value", np.float64)])


def _ingest_whole(data: bytes, dims, keep_last: bool):
    """``read_coo`` of a COO file's bytes, its entry lines parsed in one
    ``np.loadtxt`` call.  Raises where numpy's reader refuses a field
    that ``int`` or ``float`` may still take, such as a Unicode digit or
    "1_0", on a file with no entry, and where a check of the tensor
    fails, as for a negative index, a non-finite value or, without
    ``keep_last``, a repeated key.

    Numpy skips the comment lines (``comments="#"``).  The line of each
    '#' is read first, for two things only: the first "# dims" header,
    and to refuse a '#' in any other line, as in "0 1 2 3.0 # note",
    which the loop refuses too.  A malformed header raises, and the loop
    names its line."""
    if b"\r" in data:  # as a text file is read: "\r\n" and "\r" end a line
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    header_dims = None
    at = data.find(b"#")
    while at != -1:
        start = data.rfind(b"\n", 0, at) + 1
        end = data.find(b"\n", at) + 1 or len(data)
        line = data[start:end].decode("utf-8").strip()
        if not line.startswith("#"):
            raise ValueError(f"'#' inside an entry line: {line!r}")
        header_dims = header_dims or _dims_header(line)
        at = data.find(b"#", end)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = np.loadtxt(data.decode("utf-8").split("\n"), dtype=_COO_ROW, comments="#",
                          ndmin=1)
    keys, values = (rows["i"], rows["j"], rows["k"]), rows["value"]
    if keep_last:
        if not np.isfinite(values).all():
            raise DomainError("non-finite value")  # the loop names its line before any merge
        keys, values = _last_of_each_key(*keys, values)
    if dims == "infer":
        dims = header_dims or _inferred_dims(*keys)
    return SparseTensor(dims, *keys, values), header_dims


def _last_of_each_key(ii, jj, kk, values):
    """The keys in order of first appearance, each with its last value,
    as the line loop merges repeats under ``keep_last``."""
    order = key_order(ii, jj, kk)  # stable: the repeats of a key stay in file order
    first_of_run = np.ones(len(order), dtype=bool)
    first_of_run[1:] = ~_same_key_as_before(order, ii, jj, kk)
    if first_of_run.all():
        return (ii, jj, kk), values
    first = order[first_of_run]
    last = order[np.append(first_of_run[1:], True)]
    by_file_order = np.argsort(first)
    first, last = first[by_file_order], last[by_file_order]
    return (ii[first], jj[first], kk[first]), values[last]


def _inferred_dims(ii, jj, kk) -> tuple[int, int, int]:
    """One past the largest index on each axis, (1, 1, 1) for no entries;
    in Python ints, as one past 2**63 - 1 wraps around in int64."""
    return tuple(int(col.max(initial=0)) + 1 for col in (ii, jj, kk))


def _ingest_lines(data: bytes, dims, keep_last: bool):
    """``read_coo`` of a file's bytes one line at a time: the path that
    names a bad line."""
    header_dims = None
    records = {}  # (i, j, k) -> value, insertion-ordered
    # as a text file is read: "\n", "\r\n" and "\r" end a line
    for line_no, raw in enumerate(data.splitlines(), start=1):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError:
            raise ParseError(line_no, "not valid UTF-8 text") from None
        if line.startswith("#"):
            if header_dims is None:
                try:
                    header_dims = _dims_header(line)
                except ValueError as err:
                    raise ParseError(line_no, str(err)) from None
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

    keys = np.array(list(records), dtype=np.int64).reshape(-1, 3)
    if dims == "infer":
        # one past the largest index seen; (1, 1, 1) for an empty file
        dims = header_dims or _inferred_dims(*keys.T)
    return SparseTensor(dims, *keys.T, list(records.values())), header_dims


@contextmanager
def open_replacing(path):
    """Open a new temp file beside ``path`` for UTF-8 text writing; on a
    clean exit it replaces ``path``.

    A write that raises leaves ``path`` as it was and removes the temp
    file, so a reader never sees a partly written file.  The replace is
    not fsynced.  A path that exists but is not a regular file, such as
    a device or a pipe, cannot be replaced and is written in place; a
    symlink is followed, so the file it points to is replaced.  A temp
    file that cannot be created raises its OSError naming ``path``, as
    given, not the temp file's random name.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
        return
    target = os.path.realpath(path)
    tmp = f"{target}.{os.urandom(6).hex()}.tmp"
    try:
        fh = open(tmp, "x", encoding="utf-8")
    except OSError as err:
        raise OSError(err.errno, err.strerror, os.fspath(path)) from None
    try:
        with fh:
            yield fh
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


class _IndexText(dict):
    """An index value's text and the space after it, formatted on first use:
    one per axis, as an axis has far fewer distinct values than entries."""

    def __missing__(self, index):
        text = self[index] = f"{index} "
        return text


def write_coo(t: SparseTensor, path) -> None:
    """Write a SparseTensor in the COO text format with a dims header,
    replacing ``path`` only once the whole file is written.

    Each entry is the line ``f"{i} {j} {k} {value!r}\\n"``: ``repr`` gives
    the shortest text that reads back as the same float.  Each index
    value is formatted once per axis, not once per entry."""
    ni, nj, nk = t.dims
    i_text, j_text, k_text = (map(_IndexText().__getitem__, col.tolist())
                              for col in (t.ii, t.jj, t.kk))
    with open_replacing(path) as fh:
        fh.write(f"# dims {ni} {nj} {nk}\n")
        for i, j, k, v in zip(i_text, j_text, k_text, t.values.tolist()):
            fh.write(f"{i}{j}{k}{v!r}\n")


def normalize(t: SparseTensor) -> SparseTensor:
    """Replace every value v by ln(v + 1); requires non-negative values."""
    if t.normalized:
        raise StateError("tensor is already normalized")
    if (t.values < 0).any():
        p = int(np.argmax(t.values < 0))
        raise DomainError(f"cannot normalize negative value {t.values[p]} "
                          f"at ({t.ii[p]}, {t.jj[p]}, {t.kk[p]})")
    return SparseTensor._over_valid_keys(t.dims, t.ii, t.jj, t.kk, np.log1p(t.values),
                                         normalized=True)


def denormalize(t: SparseTensor) -> SparseTensor:
    """Invert ``normalize``: replace every value v by exp(v) - 1."""
    if not t.normalized:
        raise StateError("tensor is not normalized")
    return SparseTensor._over_valid_keys(t.dims, t.ii, t.jj, t.kk, np.expm1(t.values))


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
    return tuple(SparseTensor._over_valid_keys(t.dims, t.ii[idx], t.jj[idx], t.kk[idx],
                                               t.values[idx], normalized=t.normalized)
                 for idx in np.split(perm, [n_train, n_train + n_valid]))
