import math
import os
import re
import stat
import threading
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tensorwheel import (
    BoundsError,
    DomainError,
    DuplicateKeyError,
    Entry,
    ParameterError,
    ParseError,
    Ranks,
    SparseTensor,
    SplitSpec,
    StateError,
    SynthSpec,
    denormalize,
    generate,
    holdout_set,
    ingest,
    normalize,
    split,
    write_coo,
)
from tensorwheel import tensor_store
from tensorwheel.tensor_store import largest_remainder_sizes, read_coo


def write_file(tmp_path, text, name="data.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


# ---------------------------------------------------------------- ingest

def test_ingest_single_line(tmp_path):
    path = write_file(tmp_path, "0 1 2 3.5\n")
    t = ingest(path, dims=(2, 2, 3))
    assert t.dims == (2, 2, 3)
    assert len(t) == 1
    assert t.entries[0] == Entry(0, 1, 2, 3.5)
    assert t.normalized is False


def test_ingest_empty_file(tmp_path):
    t = ingest(write_file(tmp_path, ""))
    assert len(t) == 0


def test_ingest_infer_dims(tmp_path):
    path = write_file(tmp_path, "0 1 2 3.5\n4 0 1 2.0\n")
    t = ingest(path)
    assert t.dims == (5, 2, 3)


def test_ingest_header_dims(tmp_path):
    path = write_file(tmp_path, "# dims 7 8 9\n0 1 2 3.5\n")
    assert ingest(path).dims == (7, 8, 9)
    # explicit dims win over the header
    assert ingest(path, dims=(2, 2, 3)).dims == (2, 2, 3)


def test_ingest_skips_comments_and_blanks(tmp_path):
    path = write_file(tmp_path, "# note\n\n0 0 0 1.0\n  \n# more\n1 1 1 2.0\n")
    t = ingest(path)
    assert len(t) == 2


def test_ingest_duplicate_error_names_line(tmp_path):
    lines = ["0 1 2 3.5", "0 1 2 4.0"]
    # independent set-based duplicate scan to locate the expected line
    seen, dup_line = set(), None
    for no, line in enumerate(lines, start=1):
        key = tuple(line.split()[:3])
        if key in seen:
            dup_line = no
            break
        seen.add(key)
    assert dup_line == 2

    path = write_file(tmp_path, "\n".join(lines) + "\n")
    with pytest.raises(DuplicateKeyError) as err:
        ingest(path)
    assert err.value.line_no == dup_line
    assert err.value.key == (0, 1, 2)


def test_ingest_keep_last_overrides_duplicates(tmp_path):
    path = write_file(tmp_path, "0 1 2 3.5\n0 1 2 4.0\n")
    t = ingest(path, keep_last=True)
    assert len(t) == 1
    assert t.entries[0].value == 4.0


@pytest.mark.parametrize("bad_line, line_no", [
    ("0 1 2", 1),
    ("0 1 2 3.5 9", 1),
    ("a 1 2 3.5", 1),
    ("0 1 2 xyz", 1),
    ("0.5 1 2 3.5", 1),
    ("-1 1 2 3.5", 1),
    ("0 1 2 nan", 1),
])
def test_ingest_parse_errors(tmp_path, bad_line, line_no):
    path = write_file(tmp_path, bad_line + "\n")
    with pytest.raises(ParseError) as err:
        ingest(path)
    assert err.value.line_no == line_no


def test_ingest_parse_error_reports_later_line(tmp_path):
    path = write_file(tmp_path, "# header\n0 0 0 1.0\n0 1 2\n")
    with pytest.raises(ParseError) as err:
        ingest(path)
    assert err.value.line_no == 3


def test_ingest_bounds_error(tmp_path):
    path = write_file(tmp_path, "0 1 5 3.5\n")
    with pytest.raises(BoundsError):
        ingest(path, dims=(2, 2, 3))


def test_ingest_totality(tmp_path):
    # every well-formed line yields exactly one entry
    rng = np.random.default_rng(11)
    lines = []
    keys = set()
    while len(lines) < 50:
        i, j, k = rng.integers(0, 10, 3)
        if (i, j, k) in keys:
            continue
        keys.add((i, j, k))
        lines.append(f"{i} {j} {k} {rng.uniform():.6f}")
    path = write_file(tmp_path, "# comment\n" + "\n".join(lines) + "\n")
    assert len(ingest(path)) == 50


def test_write_coo_round_trip(tmp_path):
    entries = [Entry(0, 1, 2, 3.5), Entry(1, 0, 0, 0.25)]
    t = SparseTensor((2, 2, 3), entries)
    path = tmp_path / "out.txt"
    write_coo(t, path)
    back = ingest(path)
    assert back.dims == t.dims
    assert back.entries == t.entries


# ----------------------------------------------------- tensor validation

def test_sparse_tensor_rejects_out_of_bounds():
    with pytest.raises(BoundsError):
        SparseTensor((2, 2, 2), [Entry(2, 0, 0, 1.0)])


def test_sparse_tensor_rejects_duplicates():
    with pytest.raises(DuplicateKeyError):
        SparseTensor((2, 2, 2), [Entry(0, 0, 0, 1.0), Entry(0, 0, 0, 2.0)])


def test_sparse_tensor_rejects_non_finite():
    with pytest.raises(DomainError):
        SparseTensor((2, 2, 2), [Entry(0, 0, 0, float("inf"))])


def test_sparse_tensor_rejects_bad_dims():
    with pytest.raises(ParameterError):
        SparseTensor((0, 2, 2), [])


# ------------------------------------------------------------- normalize

def test_normalize_values():
    t = SparseTensor((1, 1, 3), [Entry(0, 0, 0, 0.0),
                                 Entry(0, 0, 1, math.e - 1.0),
                                 Entry(0, 0, 2, 3.5)])
    n = normalize(t)
    assert n.normalized is True
    assert n.entries[0].value == 0.0
    assert n.entries[1].value == pytest.approx(1.0, abs=1e-15)
    # independent reference for ln(4.5)
    assert n.entries[2].value == pytest.approx(math.log(4.5), abs=1e-15)
    # input untouched
    assert t.entries[2].value == 3.5 and t.normalized is False


def test_normalize_rejects_negative():
    t = SparseTensor((1, 1, 1), [Entry(0, 0, 0, -0.5)])
    with pytest.raises(DomainError):
        normalize(t)


def test_normalize_twice_is_state_error():
    t = normalize(SparseTensor((1, 1, 1), [Entry(0, 0, 0, 1.0)]))
    with pytest.raises(StateError):
        normalize(t)


def test_denormalize_values():
    t = SparseTensor((1, 1, 2), [Entry(0, 0, 0, 0.0), Entry(0, 0, 1, 1.0)],
                     normalized=True)
    d = denormalize(t)
    assert d.normalized is False
    assert d.entries[0].value == 0.0
    assert d.entries[1].value == pytest.approx(math.e - 1.0, abs=1e-15)


def test_denormalize_requires_normalized():
    t = SparseTensor((1, 1, 1), [Entry(0, 0, 0, 1.0)])
    with pytest.raises(StateError):
        denormalize(t)


def test_round_trip_identity():
    # tolerance is 1e-12 scaled by max(1, value): near the top of the
    # range (1e6) the exp-domain sensitivity amplifies one ulp in the log
    # domain to ~1e-9 absolute, so a pure absolute 1e-12 is not
    # representable in float64
    rng = np.random.default_rng(5)
    values = np.concatenate([rng.uniform(0, 1e6, 500), [0.0, 1.0, 1e-9, 1e6]])
    entries = [Entry(0, 0, k, float(v)) for k, v in enumerate(values)]
    t = SparseTensor((1, 1, len(entries)), entries)
    back = denormalize(normalize(t))
    for orig, rt in zip(t.entries, back.entries):
        assert abs(rt.value - orig.value) <= 1e-12 * max(1.0, orig.value)


# ----------------------------------------------------------------- split

def test_split_exact_ratio_100():
    t = SparseTensor((10, 10, 1), [Entry(i, j, 0, 1.0 + i + 10 * j)
                                   for i in range(10) for j in range(10)])
    tr, va, te = split(t, SplitSpec(ratios=(1, 2, 7), seed=0))
    assert (len(tr), len(va), len(te)) == (10, 20, 70)


def test_split_exact_ratio_10():
    t = SparseTensor((10, 1, 1), [Entry(i, 0, 0, float(i)) for i in range(10)])
    tr, va, te = split(t, SplitSpec(ratios=(1, 2, 7), seed=3))
    assert (len(tr), len(va), len(te)) == (1, 2, 7)


def largest_remainder_reference(n, ratios):
    # independent apportionment with exact rational arithmetic
    total = sum(ratios)
    shares = [Fraction(n * r, total) for r in ratios]
    base = [int(s) for s in shares]
    leftovers = sorted(range(3), key=lambda p: (-(shares[p] - base[p]), p))
    for p in leftovers[: n - sum(base)]:
        base[p] += 1
    return tuple(base)


def test_split_101_matches_largest_remainder():
    t = SparseTensor((101, 1, 1), [Entry(i, 0, 0, float(i)) for i in range(101)])
    tr, va, te = split(t, SplitSpec(ratios=(1, 2, 7), seed=1))
    sizes = (len(tr), len(va), len(te))
    assert sizes == largest_remainder_reference(101, (1, 2, 7))
    assert sum(sizes) == 101
    for size, ratio in zip(sizes, (1, 2, 7)):
        assert abs(size - 101 * ratio / 10) < 1.0


@pytest.mark.parametrize("n", [1, 2, 7, 13, 99, 256])
@pytest.mark.parametrize("ratios", [(1, 2, 7), (3, 1, 1), (0, 1, 1), (5, 0, 2)])
def test_largest_remainder_randomized(n, ratios):
    assert largest_remainder_sizes(n, ratios) == largest_remainder_reference(n, ratios)


def test_split_partitions_entries():
    rng = np.random.default_rng(17)
    for trial in range(20):
        n = int(rng.integers(1, 60))
        entries = [Entry(i, 0, 0, float(rng.uniform())) for i in range(n)]
        t = SparseTensor((n, 1, 1), entries)
        spec = SplitSpec(ratios=tuple(rng.integers(0, 5, 3) + np.array([1, 0, 0])),
                         seed=int(rng.integers(1e6)))
        parts = split(t, spec)
        keys = [set((e.i, e.j, e.k) for e in p.entries) for p in parts]
        assert keys[0] | keys[1] | keys[2] == set((e.i, e.j, e.k) for e in entries)
        assert not (keys[0] & keys[1]) and not (keys[0] & keys[2]) and not (keys[1] & keys[2])
        assert sum(len(p) for p in parts) == n


def test_split_deterministic():
    t = SparseTensor((50, 1, 1), [Entry(i, 0, 0, float(i)) for i in range(50)])
    spec = SplitSpec(ratios=(1, 2, 7), seed=42)
    first = split(t, spec)
    second = split(t, spec)
    for p1, p2 in zip(first, second):
        assert p1.entries == p2.entries


def test_split_distinct_seeds_differ():
    t = SparseTensor((100, 1, 1), [Entry(i, 0, 0, float(i)) for i in range(100)])
    a = split(t, SplitSpec(ratios=(1, 2, 7), seed=0))
    b = split(t, SplitSpec(ratios=(1, 2, 7), seed=1))
    assert a[0].entries != b[0].entries


def test_split_empty_input_rejected():
    t = SparseTensor((1, 1, 1), [])
    with pytest.raises(ParameterError):
        split(t, SplitSpec(ratios=(1, 2, 7), seed=0))


def test_split_preserves_normalized_flag():
    t = normalize(SparseTensor((3, 1, 1), [Entry(i, 0, 0, 1.0 * i) for i in range(3)]))
    for part in split(t, SplitSpec(ratios=(1, 1, 1), seed=0)):
        assert part.normalized is True


@pytest.mark.parametrize("ratios", [(0, 0, 0), (-1, 2, 7), (1, 2), (1.5, 2, 7)])
def test_split_spec_rejects_bad_ratios(ratios):
    with pytest.raises(ParameterError):
        SplitSpec(ratios=ratios, seed=0)


# ---------------------------------------------------------- non-UTF-8 input

@pytest.mark.parametrize("content, line_no", [
    (b"0 0 0 1.0\n0 1 \xff 2.0\n", 2),
    (b"# dims 2 2 2\n0 0 0 1.0\n1 1 1 2.0\n# caf\xe9\n", 4),
    (b"\x80\n", 1),
    (b"0 0 0 1.0\n0 1 1 2.0 \xe2\x82", 2),  # truncated multi-byte sequence at EOF
])
def test_ingest_non_utf8_is_parse_error_with_line(tmp_path, content, line_no):
    path = tmp_path / "data.txt"
    path.write_bytes(content)
    with pytest.raises(ParseError) as err:
        ingest(path)
    assert err.value.line_no == line_no
    assert "UTF-8" in str(err.value)


def test_ingest_non_utf8_deep_in_large_file(tmp_path):
    # the decoder reads ahead in blocks; the line number must still be exact
    lines = [f"{n} 0 0 1.0\n".encode() for n in range(5000)]
    lines[3210] = b"3210 0 0 \xc3\x28\n"
    path = tmp_path / "data.txt"
    path.write_bytes(b"".join(lines))
    with pytest.raises(ParseError) as err:
        ingest(path)
    assert err.value.line_no == 3211


def header_dims(path):
    return read_coo(path)[1]


def test_read_dims_header(tmp_path):
    assert header_dims(write_file(tmp_path, "0 0 0 1.0\n")) is None
    assert header_dims(write_file(tmp_path, "# note\n# dims 4 4 3\n0 0 0 1.0\n")) == (4, 4, 3)
    # the first header wins, wherever it is
    later = write_file(tmp_path, "0 0 0 1.0\n# dims 2 3 4\n# dims 9 9 9\n")
    assert header_dims(later) == (2, 3, 4)
    with pytest.raises(ParseError):
        header_dims(write_file(tmp_path, "# dims 4 x 3\n"))


# ------------------------------------------------- array store and validation

def loop_validation(dims, rows):
    """The per-entry loop that the vectorized validation replaced, as a
    reference: the error it raises for (i, j, k, value) rows, or None."""
    ni, nj, nk = dims
    seen = set()
    for i, j, k, value in rows:
        if not (0 <= i < ni and 0 <= j < nj and 0 <= k < nk):
            return BoundsError(f"entry ({i}, {j}, {k}) outside dims {dims}")
        if not math.isfinite(value):
            return DomainError(f"entry ({i}, {j}, {k}) has non-finite value {value}")
        if (i, j, k) in seen:
            return DuplicateKeyError((i, j, k))
        seen.add((i, j, k))
    return None


def build_both_ways(dims, rows):
    """Constructors of the same tensor: from Entry records and from arrays."""
    columns = [list(c) for c in zip(*rows)] if rows else [[], [], [], []]
    return (lambda: SparseTensor(dims, [Entry(*r) for r in rows]),
            lambda: SparseTensor.from_arrays(dims, *columns))


@pytest.mark.parametrize("dims, rows, error, message", [
    ((2, 2, 2), [(0, 0, 0, 1.0), (2, 0, 0, 1.0)], BoundsError,
     "entry (2, 0, 0) outside dims (2, 2, 2)"),
    ((2, 2, 2), [(0, -1, 0, 1.0)], BoundsError, "entry (0, -1, 0) outside dims (2, 2, 2)"),
    ((2, 2, 2), [(1, 1, 1, float("nan"))], DomainError, "entry (1, 1, 1) has non-finite value nan"),
    ((2, 2, 2), [(0, 0, 0, 1.0), (1, 1, 1, 1.0), (0, 0, 0, 2.0)], DuplicateKeyError,
     "duplicate position (0, 0, 0)"),
    # two faults: the earlier entry's error wins
    ((2, 2, 2), [(0, 0, 0, float("inf")), (5, 0, 0, 1.0)], DomainError,
     "entry (0, 0, 0) has non-finite value inf"),
    ((2, 2, 2), [(1, 0, 1, 1.0), (1, 0, 1, 2.0), (0, 9, 0, 1.0)], DuplicateKeyError,
     "duplicate position (1, 0, 1)"),
    ((2, 2, 2), [(0, 0, 0, 1.0), (0, 3, 0, float("nan")), (0, 0, 0, 1.0)], BoundsError,
     "entry (0, 3, 0) outside dims (2, 2, 2)"),
    ((2, 2), [(0, 0, 0, 1.0)], ParameterError, "dims must be three sizes"),
    ((2, 2, 2, 2), [], ParameterError, "dims must be three sizes"),
    ((2, 0, 2), [], ParameterError, "dims must be >= 1, got (2, 0, 2)"),
])
def test_both_constructors_raise_the_same_error(dims, rows, error, message):
    for build in build_both_ways(dims, rows):
        with pytest.raises(error) as err:
            build()
        assert type(err.value) is error
        assert str(err.value).startswith(message)


SMALL_INDEX = st.integers(-1, 3)


@settings(max_examples=300, deadline=None)
@given(dims=st.tuples(*[st.integers(1, 3)] * 3),
       rows=st.lists(st.tuples(SMALL_INDEX, SMALL_INDEX, SMALL_INDEX,
                               st.sampled_from([0.5, -2.0, float("inf"), -float("inf"),
                                                float("nan")])), max_size=10))
def test_validation_matches_the_entry_loop(dims, rows):
    expected = loop_validation(dims, rows)
    for build in build_both_ways(dims, rows):
        if expected is None:
            assert len(build()) == len(rows)
            continue
        with pytest.raises(type(expected)) as err:
            build()
        assert str(err.value) == str(expected)


def test_ingest_rejects_dims_of_wrong_length(tmp_path):
    with pytest.raises(ParameterError):
        ingest(write_file(tmp_path, "0 0 0 1.0\n"), dims=(4, 4))


HUGE = "9999999 9999999 9999999 1.0\n0 0 0 2.0\n"


def test_ingest_accepts_dims_whose_product_exceeds_int64(tmp_path):
    t = ingest(write_file(tmp_path, HUGE))
    assert t.dims == (10 ** 7,) * 3
    assert t.entries == [Entry(9999999, 9999999, 9999999, 1.0), Entry(0, 0, 0, 2.0)]
    with pytest.raises(DuplicateKeyError) as err:
        ingest(write_file(tmp_path, HUGE + "9999999 9999999 9999999 3.0\n"))
    assert err.value.line_no == 3
    with pytest.raises(DuplicateKeyError):
        SparseTensor.from_arrays(t.dims, [9999999, 0, 9999999], [9999999, 0, 9999999],
                                 [9999999, 0, 9999999], [1.0, 2.0, 3.0])


def test_ingest_rejects_index_beyond_int64(tmp_path):
    with pytest.raises(ParseError) as err:
        ingest(write_file(tmp_path, f"0 0 0 1.0\n0 {2 ** 63} 0 1.0\n"))
    assert err.value.line_no == 2


@pytest.mark.parametrize("tail", ["", "# a comment after the entries\n"])
def test_ingest_infers_dims_past_the_largest_int64_index(tmp_path, tail):
    # one past 2**63 - 1 is a Python int: in int64 it wrapped to -2**63
    t = ingest(write_file(tmp_path, f"0 0 0 1.0\n0 {2 ** 63 - 1} 1 2.0\n" + tail))
    assert t.dims == (1, 2 ** 63, 2)
    assert t.entries == [Entry(0, 0, 0, 1.0), Entry(0, 2 ** 63 - 1, 1, 2.0)]


def test_arrays_are_read_only_and_not_shared_with_callers():
    values = np.array([1.0, 3.0])
    t = SparseTensor.from_arrays((1, 1, 2), np.zeros(2, dtype=np.int64), [0, 0], [0, 1], values)
    values[0] = 9.0
    assert values.flags.writeable and t.values.tolist() == [1.0, 3.0]
    for name in ("ii", "jj", "kk", "values"):
        with pytest.raises(ValueError):
            getattr(t, name)[0] = 0
    normalize(t)
    assert t.values.tolist() == [1.0, 3.0]


def test_entries_view_holds_python_scalars_in_entry_order():
    t = SparseTensor.from_arrays((3, 3, 3), np.array([2, 0]), np.array([1, 0]), np.array([0, 2]),
                                 np.array([0.5, -1.0]))
    assert t.entries == [Entry(2, 1, 0, 0.5), Entry(0, 0, 2, -1.0)]
    assert all(type(e.i) is int and type(e.value) is float for e in t.entries)


def test_log_transforms_match_the_per_entry_reference():
    rng = np.random.default_rng(3)
    raw = np.concatenate([rng.uniform(0, 1e6, 4000), rng.exponential(1e-3, 4000),
                          10.0 ** rng.uniform(-300, 300, 4000), [0.0, -0.0, 5e-324, 1e308]])
    n = len(raw)
    t = SparseTensor.from_arrays((1, 1, n), np.zeros(n), np.zeros(n), np.arange(n), raw)
    logged = normalize(t)
    assert logged.values.tobytes() == np.array([np.log1p(v) for v in raw.tolist()]).tobytes()
    back = denormalize(logged)
    assert back.values.tobytes() == np.array(
        [np.expm1(v) for v in logged.values.tolist()]).tobytes()


# ------------------------------------------- tensors derived from valid keys

def test_derived_tensors_do_not_check_their_keys_again(monkeypatch):
    # their keys come from a validated tensor or from a mask of shape dims,
    # so none of them sorts the keys to look for repeats
    def no_sort(*args, **kwargs):
        pytest.fail("keys valid by construction were checked again")
    monkeypatch.setattr(np, "lexsort", no_sort)
    spec = SynthSpec(dims=(5, 4, 3), ranks=Ranks(r=(2, 2, 2), h=(2, 2, 2)), density=0.5, seed=1)
    observed, truth = generate(spec)
    held = holdout_set(observed, truth)
    parts = split(denormalize(normalize(observed)), SplitSpec(ratios=(1, 1, 1), seed=0))
    assert len(observed) + len(held) == 60 and sum(map(len, parts)) == len(observed)
    monkeypatch.undo()
    with pytest.raises(DuplicateKeyError):
        SparseTensor.from_arrays((2, 2, 2), [0, 0], [1, 1], [0, 0], [1.0, 2.0])


def test_log_transforms_share_the_index_arrays():
    t = SparseTensor.from_arrays((2, 2, 2), [0, 1], [1, 0], [0, 1], [1.0, 2.0])
    logged = normalize(t)
    back = denormalize(logged)
    for name in ("ii", "jj", "kk"):
        assert getattr(logged, name) is getattr(t, name) is getattr(back, name)
        assert not getattr(back, name).flags.writeable


def test_denormalize_overflow_is_a_domain_error():
    t = SparseTensor.from_arrays((1, 1, 2), [0, 0], [0, 0], [0, 1], [1.0, 1000.0],
                                 normalized=True)
    with np.errstate(over="ignore"), pytest.raises(
            DomainError, match=re.escape("entry (0, 0, 1) has non-finite value inf")):
        denormalize(t)


# ------------------------------------------------------------ replacing writes

class FailingValue(float):
    """A value whose formatting fails, so that a write raises part way."""

    def __repr__(self):
        raise OSError("disk full")


def test_write_coo_that_fails_part_way_keeps_the_previous_file(tmp_path):
    path = tmp_path / "out.txt"
    write_coo(SparseTensor((2, 2, 2), [Entry(0, 0, 0, 1.0)]), path)
    before = path.read_bytes()
    # two entries, of which only the first can be written
    half = SimpleNamespace(dims=(2, 2, 2), ii=np.array([0, 1]), jj=np.array([0, 1]),
                           kk=np.array([0, 1]),
                           values=SimpleNamespace(tolist=lambda: [2.0, FailingValue(3.0)]))
    with pytest.raises(OSError, match="disk full"):
        write_coo(half, path)
    assert path.read_bytes() == before
    with pytest.raises(OSError, match="disk full"):
        write_coo(half, tmp_path / "new.txt")
    assert os.listdir(tmp_path) == ["out.txt"]


def test_write_coo_through_a_symlink_replaces_its_target(tmp_path):
    target = tmp_path / "target.txt"
    target.write_text("old\n")
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    t = SparseTensor((2, 2, 2), [Entry(1, 0, 1, 0.5)])
    write_coo(t, link)
    assert link.is_symlink() and ingest(target).entries == t.entries
    assert sorted(os.listdir(tmp_path)) == ["link.txt", "target.txt"]


def test_write_coo_into_a_pipe_writes_in_place(tmp_path):
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    received = []
    reader = threading.Thread(target=lambda: received.append(pipe.read_text()), daemon=True)
    reader.start()
    write_coo(SparseTensor((2, 2, 2), [Entry(0, 0, 0, 1.0)]), pipe)
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert received == ["# dims 2 2 2\n0 0 0 1.0\n"]
    assert stat.S_ISFIFO(os.stat(pipe).st_mode)


# ----------------------------------------------------------------- properties

FINITE = (st.floats(allow_nan=False, allow_infinity=False)
          | st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308]))


@st.composite
def sparse_tensors(draw):
    dims = tuple(draw(st.integers(1, 5)) for _ in range(3))
    positions = draw(st.lists(st.integers(0, math.prod(dims) - 1), unique=True))
    values = draw(st.lists(FINITE, min_size=len(positions), max_size=len(positions)))
    ii, jj, kk = np.unravel_index(np.array(positions, dtype=np.int64), dims)
    return SparseTensor.from_arrays(dims, ii, jj, kk, values)


@settings(max_examples=100, deadline=None)
@given(t=sparse_tensors())
def test_coo_round_trip_is_bitwise(tmp_path_factory, t):
    path = tmp_path_factory.mktemp("coo") / "t.txt"
    write_coo(t, path)
    back = ingest(path)
    assert back.dims == t.dims
    for name in ("ii", "jj", "kk", "values"):
        ours, theirs = getattr(back, name), getattr(t, name)
        assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes()


@given(n=st.integers(0, 10 ** 6),
       ratios=st.tuples(*[st.integers(0, 50)] * 3).filter(lambda r: sum(r) > 0))
def test_largest_remainder_sizes_property(n, ratios):
    sizes = largest_remainder_sizes(n, ratios)
    assert sum(sizes) == n
    for size, ratio in zip(sizes, ratios):
        assert abs(size - Fraction(n * ratio, sum(ratios))) < 1


# ------------------------------------------- one-pass parse against the line loop

def ingest_outcome(read, path, dims, keep_last):
    """The header's dims, the dims and the arrays' bytes that reading
    ``path`` gives, or its error's class, message and line number."""
    try:
        t, header_dims = read(path, dims=dims, keep_last=keep_last)
    except Exception as exc:  # the error itself is the outcome
        return type(exc), str(exc), getattr(exc, "line_no", None)
    return header_dims, t.dims, *((a.dtype, a.tobytes()) for a in (t.ii, t.jj, t.kk, t.values))


def line_loop(path, dims, keep_last):
    """``read_coo`` by the line loop alone."""
    return tensor_store._ingest_lines(path.read_bytes(), dims, keep_last)


PLAIN_INDEX = ["0", "1", "2", "3"]
ODD_INDEX = ["+1", "-0", "007", "\u0661", "1_0", "-1", "1.0", "x", "#",
             str(2 ** 63), str(2 ** 63 - 1)]
ODD_VALUE = ["nan", "inf", "-inf", "1e400", "1e-400", "-0.0", ".5", "1.", "Infinity", "1_0",
             "\u0663", "\u0661.5", "0x1", "5e", "#", "1.0#x"]
SEPARATORS = [" ", " ", " ", "\t", "  ", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2028",
              "\u3000"]
OTHER_LINES = ["", "  ", "\t", "\x0b", "# note", "#", "# 1 2 3 4", "# dims 4 4 4",
               "# dims 2 2 2", "  # dims 3 4 5", "# dims 0 4 4", "# dims 4 4", "# dims x 4 4"]
LINE_ENDS = ["\n", "\n", "\n", "\r\n", "\r", ""]


@st.composite
def coo_texts(draw):
    """COO file text.  Half the files are well formed: a header, then
    entries of plain tokens, then perhaps a comment.  The other half mix
    in the tokens and whitespace where ``int``/``float`` and numpy's
    reader differ, and comments, headers, blank lines and wrong field
    counts among the entries."""
    plain = draw(st.booleans())
    index = st.sampled_from(PLAIN_INDEX if plain else PLAIN_INDEX * 4 + ODD_INDEX)
    value = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    if not plain:
        value |= st.sampled_from(PLAIN_INDEX + ODD_VALUE)
    kinds = ["entry"] if plain else ["entry"] * 6 + ["short", "long", "other"]
    sep = st.sampled_from(SEPARATORS)
    text = [draw(st.sampled_from(["", "# dims 4 4 4\n", "# note\n\n# dims 3 3 3\r\n"]))]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(kinds))
        if kind == "other":
            line = draw(st.sampled_from(OTHER_LINES))
        else:
            fields = [draw(index) for _ in range(3)] + [draw(value)]
            if kind == "short":
                fields.pop()
            elif kind == "long":
                fields.append(draw(st.sampled_from(["# note", "#", "9"])))
            line = "".join(f + draw(sep) for f in fields[:-1]) + fields[-1]
            line = draw(st.sampled_from(["", "", " ", "\xa0"])) + line + draw(
                st.sampled_from(["", "", " ", "\x0b"]))
        text.append(line + draw(st.sampled_from(LINE_ENDS[:-1] if plain else LINE_ENDS)))
    text.append(draw(st.sampled_from(["", "", "# end\n", "\n# dims 9 9 9"])))
    return "".join(text)


@settings(max_examples=400, deadline=None)
@given(text=coo_texts(), dims=st.sampled_from(["infer", (4, 4, 4), (2, 2, 2)]),
       keep_last=st.booleans())
@example(text="# dims 3 3 3\n", dims="infer", keep_last=False)
@example(text="\n  \n\t\n", dims="infer", keep_last=False)
@example(text="0 1 2 3.0 # note\n", dims="infer", keep_last=False)
@example(text="# dims 4 4 4\r\n0 1 2 3.0\r\n1 1 1 0.5\r\n", dims="infer", keep_last=False)
@example(text="\u0661 0 0 1.0\n", dims="infer", keep_last=False)
@example(text="0 0 0 1.0\n0 0 0 2.0\n1 1 1 3.0\n", dims="infer", keep_last=True)
@example(text="0 0 0 nan\n0 0 0 2.0\n", dims="infer", keep_last=True)
@example(text="0 0 0 1.0\n# dims 5 5 5\n1 1 1 2.0\n# end", dims="infer", keep_last=False)
@example(text="# dims 4 4 4\r0 1 2 3.0\r# x\r\n1 1 1 0.5\r", dims="infer", keep_last=False)
def test_ingest_equals_the_line_loop(tmp_path_factory, text, dims, keep_last):
    path = tmp_path_factory.mktemp("coo") / "d.txt"
    path.write_bytes(text.encode("utf-8"))
    assert (ingest_outcome(read_coo, path, dims, keep_last)
            == ingest_outcome(line_loop, path, dims, keep_last))


def test_well_formed_file_is_parsed_without_the_line_loop(tmp_path, monkeypatch):
    t = generate(SynthSpec(dims=(6, 5, 4), ranks=Ranks(r=(2, 2, 2), h=(2, 2, 2)),
                           density=0.5, seed=3))[0]
    path = tmp_path / "d.txt"
    write_coo(t, path)
    monkeypatch.setattr(tensor_store, "_ingest_lines",
                        lambda *args: pytest.fail("the line loop read a well-formed file"))
    back = ingest(path)
    assert back.dims == t.dims
    assert all(getattr(back, n).tobytes() == getattr(t, n).tobytes()
               for n in ("ii", "jj", "kk", "values"))


@pytest.mark.parametrize("text, keep_last", [
    ("# dims 4 4 4\n0 0 0 1.0\n# a comment among the entries\n1 2 3 2.0\n# end\n", False),
    ("0 0 0 1.0\n1 2 3 2.0\n0 0 0 3.0\n2 2 2 4.0\n1 2 3 5.0\n", True),
])
def test_valid_comments_and_repeats_are_parsed_without_the_line_loop(
        tmp_path, monkeypatch, text, keep_last):
    path = write_file(tmp_path, text)
    expected = ingest_outcome(line_loop, path, "infer", keep_last)
    monkeypatch.setattr(tensor_store, "_ingest_lines",
                        lambda *args: pytest.fail("the line loop read a valid file"))
    assert ingest_outcome(read_coo, path, "infer", keep_last) == expected


def read_through_a_pipe(tmp_path, text, **kwargs):
    """``ingest`` of ``text`` written into a named pipe by another thread."""
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    writer = threading.Thread(target=lambda: pipe.write_text(text), daemon=True)
    writer.start()
    try:
        return ingest(pipe, **kwargs)
    finally:
        writer.join(timeout=30)
        assert not writer.is_alive()


@pytest.mark.parametrize("keep_last", [False, True])
def test_ingest_reads_a_pipe_once(tmp_path, keep_last):
    # a pipe cannot be read again, so the line loop must get the bytes already read
    text = "# dims 3 3 3\n0 0 0 1.0\n1 1 1 2.0\n0 0 0 3.0\n# end\n"
    if keep_last:
        t = read_through_a_pipe(tmp_path, text, keep_last=True)
        assert t.dims == (3, 3, 3) and t.entries == [Entry(0, 0, 0, 3.0), Entry(1, 1, 1, 2.0)]
    else:
        with pytest.raises(DuplicateKeyError) as err:
            read_through_a_pipe(tmp_path, text)
        assert err.value.line_no == 4


def test_ingest_names_the_bad_line_of_a_pipe(tmp_path):
    with pytest.raises(ParseError, match="expected 4 fields, got 6") as err:
        read_through_a_pipe(tmp_path, "0 0 0 1.0\n0 1 2 3.0 # note\n")
    assert err.value.line_no == 2


@pytest.mark.parametrize("text, line_no, message", [
    # loadtxt with comments="#" would drop a trailing comment; the loop counts its fields
    ("0 0 0 1.0\n0 1 2 3.0 # note\n", 2, "expected 4 fields, got 6"),
    ("# dims 3 3 3\r\n0 0 0 1.0\r\n0 0 x 1.0\r\n", 3, "non-numeric field"),
    ("0 0 0 1.0\n0 0 1 1.0\n0 0 -1 1.0\n", 3, "negative index"),
    ("0 0 0 1.0\n\n0 0 1 1e400\n", 3, "non-finite value"),
])
def test_ingest_errors_name_the_line_the_loop_names(tmp_path, text, line_no, message):
    with pytest.raises(ParseError, match=message) as err:
        ingest(write_file(tmp_path, text))
    assert err.value.line_no == line_no


def test_ingest_takes_what_int_and_float_take(tmp_path):
    # Unicode digits and underscores, which numpy's reader refuses
    t = ingest(write_file(tmp_path, "\u0661 0 0 1_0.5\n0 1_0 0 \u0663\n"))
    assert t.entries == [Entry(1, 0, 0, 10.5), Entry(0, 10, 0, 3.0)]
