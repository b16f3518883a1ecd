import math
from fractions import Fraction

import numpy as np
import pytest

from tensorwheel import (
    BoundsError,
    DomainError,
    DuplicateKeyError,
    Entry,
    ParameterError,
    ParseError,
    SparseTensor,
    SplitSpec,
    StateError,
    denormalize,
    ingest,
    normalize,
    split,
    write_coo,
)
from tensorwheel.tensor_store import largest_remainder_sizes, read_dims_header


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


def test_read_dims_header(tmp_path):
    assert read_dims_header(write_file(tmp_path, "0 0 0 1.0\n")) is None
    assert read_dims_header(write_file(tmp_path, "# note\n# dims 4 4 3\n0 0 0 1.0\n")) == (4, 4, 3)
    # the first header wins, wherever it is
    later = write_file(tmp_path, "0 0 0 1.0\n# dims 2 3 4\n# dims 9 9 9\n")
    assert read_dims_header(later) == (2, 3, 4)
    with pytest.raises(ParseError):
        read_dims_header(write_file(tmp_path, "# dims 4 x 3\n"))
