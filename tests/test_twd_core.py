import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tensorwheel import (
    BoundsError,
    ParameterError,
    Ranks,
    SizeCapError,
    TwdFactors,
    init_factors,
    load_checkpoint,
    oracle_entry,
    reconstruct_entries,
    reconstruct_entry,
    reconstruct_full,
    save_checkpoint,
)
from tensorwheel.twd_core import checkpoint_text


def random_instance(rng, max_dim=4, max_rank=3, low=-1.0, high=1.0):
    dims = tuple(int(d) for d in rng.integers(1, max_dim + 1, 3))
    ranks = Ranks(r=tuple(int(x) for x in rng.integers(1, max_rank + 1, 3)),
                  h=tuple(int(x) for x in rng.integers(1, max_rank + 1, 3)))
    f = init_factors(dims, ranks, seed=int(rng.integers(2**31)), scale=1.0)
    for arr in (f.g, f.a, f.b, f.c):
        arr *= (high - low)
        arr += low
    return f


def scalar_factors(g, a, b, c):
    # all six ranks 1, dims (1,1,1)
    ranks = Ranks(r=(1, 1, 1), h=(1, 1, 1))
    return TwdFactors(np.full((1, 1, 1), g), np.full((1, 1, 1, 1), a),
                      np.full((1, 1, 1, 1), b), np.full((1, 1, 1, 1), c),
                      (1, 1, 1), ranks)


# ----------------------------------------------------------------- ranks

def test_ranks_validation():
    with pytest.raises(ParameterError):
        Ranks(r=(0, 1, 1), h=(1, 1, 1))
    with pytest.raises(ParameterError):
        Ranks(r=(1, 1, 1), h=(1, 1))
    with pytest.raises(ParameterError):
        Ranks(r=(1, 1, 1), h=(1, 1, 1.5))
    with pytest.raises(ParameterError, match="ranks.r must be three integers >= 1"):
        Ranks(r=(float("nan"), 1, 1), h=(1, 1, 1))
    with pytest.raises(ParameterError, match="ranks.h must be three integers >= 1"):
        Ranks(r=(1, 1, 1), h=(1, float("inf"), 1))


def test_ranks_from_dim():
    ranks = Ranks.from_dim(5)
    assert ranks.r == (5, 5, 5)
    assert ranks.h == (2, 2, 2)
    with pytest.raises(ParameterError):
        Ranks.from_dim(0)


# ------------------------------------------------------------------ init

def test_init_factors_zero_scale():
    f = init_factors((2, 3, 4), Ranks(r=(2, 2, 2), h=(2, 2, 2)), seed=1, scale=0.0)
    for arr in (f.g, f.a, f.b, f.c):
        assert np.all(arr == 0.0)


def test_init_factors_deterministic():
    ranks = Ranks(r=(2, 3, 2), h=(2, 1, 2))
    f1 = init_factors((3, 4, 5), ranks, seed=99, scale=0.5)
    f2 = init_factors((3, 4, 5), ranks, seed=99, scale=0.5)
    for name in "gabc":
        assert np.array_equal(getattr(f1, name), getattr(f2, name))
    f3 = init_factors((3, 4, 5), ranks, seed=100, scale=0.5)
    assert not np.array_equal(f1.a, f3.a)


def test_init_factors_shapes_and_counts():
    ranks = Ranks(r=(2, 2, 2), h=(2, 2, 2))
    f = init_factors((3, 3, 3), ranks, seed=0, scale=0.1)
    # R3 * I * R1 * H1 elements in a
    assert f.a.size == 2 * 3 * 2 * 2 == 24
    assert f.a.shape == (2, 3, 2, 2)
    assert f.b.shape == (2, 3, 2, 2)
    assert f.c.shape == (2, 3, 2, 2)
    assert f.g.shape == (2, 2, 2)
    assert np.all((f.g >= 0) & (f.g < 0.1))


def test_init_factors_rejects_zero_dims():
    with pytest.raises(ParameterError):
        init_factors((0, 2, 2), Ranks(r=(1, 1, 1), h=(1, 1, 1)), seed=0, scale=0.1)


def test_init_factors_refuses_dims_that_are_not_whole():
    ranks = Ranks(r=(1, 1, 1), h=(1, 1, 1))
    with pytest.raises(ParameterError, match=r"dims must be whole numbers, got \(2.5, 2, 2\)"):
        init_factors((2.5, 2, 2), ranks, seed=0, scale=0.1)
    assert init_factors((2.0, 2, 2), ranks, seed=0, scale=0.1).dims == (2, 2, 2)


@pytest.mark.parametrize("seed, message", [
    (-1, "seed must be >= 0, got -1"),
    (2.5, "seed must be a whole number, got 2.5"),
    (float("nan"), "seed must be a whole number, got nan"),
], ids=["negative", "fraction", "nan"])
def test_init_factors_refuses_a_bad_seed(seed, message):
    with pytest.raises(ParameterError, match=message):
        init_factors((2, 2, 2), Ranks(r=(1, 1, 1), h=(1, 1, 1)), seed=seed, scale=0.1)


# sizes numpy refuses at once: 10**14 rows of factor a exceed any address
# space, and 10**20 exceeds numpy's index range
@pytest.mark.parametrize("dims", [(10 ** 14, 3, 3), (3, 10 ** 20, 3)])
def test_init_factors_too_large_to_allocate_is_parameter_error(dims):
    with pytest.raises(ParameterError, match=r"cannot allocate factors for dims .*r=\(1, 1, 1\)"):
        init_factors(dims, Ranks(r=(1, 1, 1), h=(1, 1, 1)), seed=0, scale=0.1)


def test_factors_shape_mismatch_rejected():
    ranks = Ranks(r=(2, 2, 2), h=(2, 2, 2))
    g = np.zeros((2, 2, 2))
    a = np.zeros((2, 3, 2, 2))
    b = np.zeros((2, 3, 2, 2))
    c = np.zeros((2, 3, 2, 3))  # wrong trailing axis
    with pytest.raises(ParameterError):
        TwdFactors(g, a, b, c, (3, 3, 3), ranks)


# -------------------------------------------------------- reconstruction

def test_reconstruct_entry_scalar_case():
    f = scalar_factors(2.0, 3.0, 4.0, 5.0)
    assert reconstruct_entry(f, 0, 0, 0) == pytest.approx(120.0, abs=1e-12)


def test_reconstruct_entry_zero_core():
    rng = np.random.default_rng(0)
    f = random_instance(rng)
    f.g[:] = 0.0
    ni, nj, nk = f.dims
    for i in range(ni):
        for j in range(nj):
            for k in range(nk):
                assert reconstruct_entry(f, i, j, k) == 0.0


def test_oracle_entry_all_ones_single_rank():
    f = scalar_factors(1.0, 1.0, 1.0, 1.0)
    assert oracle_entry(f, 0, 0, 0) == 1.0


def test_oracle_entry_all_ones_counts_terms():
    # ranks r=(2,2,2), h=(1,1,1): 2*2*2 = 8 rank combinations, each term 1
    ranks = Ranks(r=(2, 2, 2), h=(1, 1, 1))
    f = TwdFactors(np.ones((1, 1, 1)), np.ones((2, 1, 2, 1)), np.ones((2, 1, 2, 1)),
                   np.ones((2, 1, 2, 1)), (1, 1, 1), ranks)
    assert oracle_entry(f, 0, 0, 0) == 8.0


def test_reconstruct_matches_oracle_randomized():
    rng = np.random.default_rng(123)
    for trial in range(100):
        f = random_instance(rng)
        i, j, k = (int(rng.integers(d)) for d in f.dims)
        assert abs(reconstruct_entry(f, i, j, k) - oracle_entry(f, i, j, k)) < 1e-12


def test_reconstruct_entry_bounds():
    f = init_factors((2, 3, 4), Ranks(r=(1, 1, 1), h=(1, 1, 1)), seed=0, scale=1.0)
    for bad in [(2, 0, 0), (0, 3, 0), (0, 0, 4), (-1, 0, 0), (0, -1, 0), (0, 0, -1)]:
        with pytest.raises(BoundsError):
            reconstruct_entry(f, *bad)
        with pytest.raises(BoundsError):
            oracle_entry(f, *bad)


def test_reconstruct_entry_bounds_randomized():
    # any index outside the declared dims must raise, never read memory
    rng = np.random.default_rng(61)
    for trial in range(50):
        f = random_instance(rng)
        ni, nj, nk = f.dims
        idx = [int(rng.integers(ni)), int(rng.integers(nj)), int(rng.integers(nk))]
        axis = int(rng.integers(3))
        idx[axis] = (ni, nj, nk)[axis] + int(rng.integers(0, 3)) if rng.random() < 0.5 \
            else -1 - int(rng.integers(0, 3))
        with pytest.raises(BoundsError):
            reconstruct_entry(f, *idx)


def test_reconstruct_full_scalar_case():
    f = scalar_factors(2.0, 3.0, 4.0, 5.0)
    full = reconstruct_full(f)
    assert full.shape == (1, 1, 1)
    assert full[0, 0, 0] == pytest.approx(120.0, abs=1e-12)


def test_reconstruct_full_zero_core():
    f = init_factors((3, 2, 2), Ranks(r=(2, 2, 2), h=(2, 2, 2)), seed=4, scale=1.0)
    f.g[:] = 0.0
    assert np.all(reconstruct_full(f) == 0.0)


def test_reconstruct_full_matches_oracle():
    ranks = Ranks(r=(2, 3, 2), h=(2, 2, 3))
    f = init_factors((4, 3, 2), ranks, seed=21, scale=1.0)
    for arr in (f.g, f.a, f.b, f.c):
        arr -= 0.5
    full = reconstruct_full(f)
    for i in range(4):
        for j in range(3):
            for k in range(2):
                assert abs(full[i, j, k] - oracle_entry(f, i, j, k)) < 1e-12


def test_reconstruct_full_cap():
    f = init_factors((100, 100, 2), Ranks(r=(1, 1, 1), h=(1, 1, 1)), seed=0, scale=0.1)
    with pytest.raises(SizeCapError):
        reconstruct_full(f, cap=10_000)


def test_reconstruct_entries_matches_single():
    rng = np.random.default_rng(31)
    f = random_instance(rng)
    ni, nj, nk = f.dims
    ii = rng.integers(0, ni, 20)
    jj = rng.integers(0, nj, 20)
    kk = rng.integers(0, nk, 20)
    batch = reconstruct_entries(f, ii, jj, kk)
    for n in range(20):
        single = reconstruct_entry(f, int(ii[n]), int(jj[n]), int(kk[n]))
        assert abs(batch[n] - single) < 1e-12


def test_reconstruct_entries_bounds():
    f = init_factors((2, 2, 2), Ranks(r=(1, 1, 1), h=(1, 1, 1)), seed=0, scale=0.1)
    with pytest.raises(BoundsError):
        reconstruct_entries(f, np.array([0, 2]), np.array([0, 0]), np.array([0, 0]))


def test_reconstruct_entries_takes_integer_lists():
    f = init_factors((2, 3, 2), Ranks(r=(2, 1, 2), h=(1, 2, 2)), seed=0, scale=0.5)
    cols = ([0, 1, 1], [2, 0, 1], [1, 1, 0])
    assert np.array_equal(reconstruct_entries(f, *cols),
                          reconstruct_entries(f, *(np.array(col) for col in cols)))
    assert reconstruct_entries(f, [], [], []).shape == (0,)


def test_reconstruct_entries_refuses_float_columns():
    f = init_factors((2, 3, 2), Ranks(r=(1, 1, 1), h=(1, 1, 1)), seed=0, scale=0.1)
    with pytest.raises(ParameterError, match="batch index columns"):
        reconstruct_entries(f, np.array([0.0, 1.0]), np.array([2, 0]), np.array([1, 1]))


@pytest.mark.parametrize("axis", range(3))
@pytest.mark.parametrize("length", [1, 3])
def test_reconstruct_entries_refuses_a_column_of_another_length(axis, length):
    # numpy would broadcast a column of one position against the others
    f = init_factors((2, 3, 2), Ranks(r=(1, 1, 1), h=(1, 1, 1)), seed=0, scale=0.1)
    cols = [np.array([0, 1]), np.array([2, 0]), np.array([1, 1])]
    cols[axis] = np.zeros(length, dtype=np.int64)
    with pytest.raises(ParameterError, match="batch index columns"):
        reconstruct_entries(f, *cols)


# ------------------------------------------------------------ properties

def test_multilinearity_in_core_and_factor():
    rng = np.random.default_rng(55)
    for trial in range(10):
        f = random_instance(rng)
        i, j, k = (int(rng.integers(d)) for d in f.dims)
        base = reconstruct_entry(f, i, j, k)
        alpha = float(rng.uniform(0.2, 3.0))

        scaled_g = f.copy()
        scaled_g.g *= alpha
        assert reconstruct_entry(scaled_g, i, j, k) == pytest.approx(alpha * base, rel=1e-12, abs=1e-12)

        scaled_a = f.copy()
        scaled_a.a *= alpha
        assert reconstruct_entry(scaled_a, i, j, k) == pytest.approx(alpha * base, rel=1e-12, abs=1e-12)


def test_permutation_symmetry_on_first_mode():
    rng = np.random.default_rng(77)
    f = random_instance(rng, max_dim=4)
    ni = f.dims[0]
    perm = rng.permutation(ni)
    permuted = f.copy()
    permuted.a = permuted.a[:, perm]
    for i in range(ni):
        j = int(rng.integers(f.dims[1]))
        k = int(rng.integers(f.dims[2]))
        # row perm[i] of the original moved to row i of the permuted model
        assert reconstruct_entry(permuted, i, j, k) == pytest.approx(
            reconstruct_entry(f, int(perm[i]), j, k), rel=1e-15, abs=1e-15)


# ------------------------------------------------------------ checkpoint

def test_checkpoint_round_trip_exact(tmp_path):
    rng = np.random.default_rng(9)
    f = random_instance(rng)
    path = tmp_path / "model.txt"
    save_checkpoint(f, path)
    back = load_checkpoint(path)
    assert back.dims == f.dims
    assert back.ranks == f.ranks
    for name in "gabc":
        assert np.array_equal(getattr(back, name), getattr(f, name))


FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1e308])


@st.composite
def finite_factors(draw):
    """Factors of small random shape holding any finite floats."""
    small = st.integers(1, 3)
    dims = tuple(draw(small) for _ in range(3))
    ranks = Ranks(r=tuple(draw(small) for _ in range(3)), h=tuple(draw(small) for _ in range(3)))
    (r1, r2, r3), (h1, h2, h3), (ni, nj, nk) = ranks.r, ranks.h, dims
    shapes = [(h1, h2, h3), (r3, ni, r1, h1), (r1, nj, r2, h2), (r2, nk, r3, h3)]
    return TwdFactors(*(draw(arrays(np.float64, s, elements=FINITE)) for s in shapes),
                      dims, ranks)


@settings(max_examples=100, deadline=None)
@given(f=finite_factors())
def test_checkpoint_round_trip_is_bitwise(tmp_path_factory, f):
    path = tmp_path_factory.mktemp("ckpt") / "model.txt"
    save_checkpoint(f, path)
    back = load_checkpoint(path)
    assert back.dims == f.dims and back.ranks == f.ranks
    for name in "gabc":
        ours, theirs = getattr(back, name), getattr(f, name)
        assert ours.shape == theirs.shape and ours.tobytes() == theirs.tobytes()


def per_element_checkpoint_text(f):
    """The checkpoint text as formerly written: repr of each numpy scalar."""
    lines = [" ".join(["TWD v1", *map(str, f.dims), *map(str, f.ranks.r), *map(str, f.ranks.h)])]
    for arr in (f.g, f.a, f.b, f.c):
        flat = arr.ravel()
        lines += [" ".join(repr(float(v)) for v in flat[start:start + 8])
                  for start in range(0, flat.size, 8)]
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None)
@given(f=finite_factors())
def test_checkpoint_text_equals_the_per_element_form(f):
    assert checkpoint_text(f) == per_element_checkpoint_text(f)


def test_failed_checkpoint_write_keeps_the_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "model.txt"
    save_checkpoint(init_factors((2, 2, 2), Ranks(r=(1, 1, 1), h=(1, 1, 1)), seed=0, scale=1.0),
                    path)
    before = path.read_bytes()

    def fail_after_writing(src, dst):
        assert os.path.getsize(src) > 0  # the whole new checkpoint went to the temp file
        raise OSError("disk full")
    monkeypatch.setattr(os, "replace", fail_after_writing)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(init_factors((3, 3, 3), Ranks(r=(2, 2, 2), h=(2, 2, 2)), seed=1,
                                     scale=1.0), path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["model.txt"]


def test_norms_do_not_overflow():
    f = TwdFactors(np.full((1, 1, 1), -1e-200), np.array([3e300, 4e300]).reshape(1, 2, 1, 1),
                   np.ones((1, 1, 1, 1)), np.zeros((1, 1, 1, 1)), (2, 1, 1),
                   Ranks(r=(1, 1, 1), h=(1, 1, 1)))
    assert f.norms() == pytest.approx({"g": 1e-200, "a": 5e300, "b": 1.0, "c": 0.0}, rel=1e-15)


def test_checkpoint_header_format(tmp_path):
    f = init_factors((2, 3, 4), Ranks(r=(1, 2, 3), h=(2, 1, 2)), seed=0, scale=0.1)
    path = tmp_path / "model.txt"
    save_checkpoint(f, path)
    head = path.read_text().splitlines()[0]
    assert head == "TWD v1 2 3 4 1 2 3 2 1 2"


@pytest.mark.parametrize("token", ["abc", "0x1p3", "1d5", "1.0.0"])
def test_checkpoint_names_its_first_bad_value(tmp_path, token):
    path = tmp_path / "bad.txt"
    path.write_text(f"TWD v1 2 2 2 1 1 1 1 1 1\n1.0 2.0 -0.5\n{token} 1.0 zzz\n")
    with pytest.raises(ParameterError) as err:
        load_checkpoint(path)
    assert str(err.value) == f"bad checkpoint value: could not convert string to float: '{token}'"


@pytest.mark.parametrize("after_header", ["\n", "\r\n", "\r", "\x0b", "\x1e"])
def test_checkpoint_header_ends_at_any_line_break(tmp_path, after_header):
    # "1_0" and "+.5" are what float() takes
    path = tmp_path / "model.txt"
    path.write_bytes(f"TWD v1 2 2 2 1 1 1 1 1 1{after_header}1_0 +.5\r-0.0 5e-324\n3 4 1e16"
                     .encode())
    f = load_checkpoint(path)
    assert f.dims == (2, 2, 2) and f.ranks == Ranks(r=(1, 1, 1), h=(1, 1, 1))
    flat = np.concatenate([getattr(f, name).ravel() for name in "gabc"])
    assert flat.tobytes() == np.array([10.0, 0.5, -0.0, 5e-324, 3.0, 4.0, 1e16]).tobytes()


@pytest.mark.parametrize("content, header", [
    ("\nTWD v1 2 2 2 1 1 1 1 1 1\n", ""),                   # a blank first line
    ("TWD v1 2 2\x0cTWD v1 2 2 2 1 1 1 1 1 1\n", "TWD v1 2 2"),  # ended by a form feed
    ("NOT A CHECKPOINT\r\n1.0\n", "NOT A CHECKPOINT"),
    ("TWD v1 2 2 2 1 1 1 1 1 x", "TWD v1 2 2 2 1 1 1 1 1 x"),   # no line break at all
])
def test_checkpoint_header_errors_quote_the_first_line(tmp_path, content, header):
    path = tmp_path / "bad.txt"
    path.write_bytes(content.encode())
    with pytest.raises(ParameterError) as err:
        load_checkpoint(path)
    assert str(err.value) == f"bad checkpoint header: {header!r}"
    path.write_bytes(b"")
    with pytest.raises(ParameterError) as err:
        load_checkpoint(path)
    assert str(err.value) == f"empty checkpoint file: {path}"


@pytest.mark.parametrize("content", [
    "",
    "NOT A CHECKPOINT\n",
    "TWD v1 2 2 2 1 1 1 1 1 1\r",   # header alone, ended by a carriage return
    "TWD v1 2 2 2 1 1 1 1 1\n",          # header too short
    "TWD v1 2 2 2 1 1 1 1 1 1\n1.0\n",   # too few values
    "TWD v1 2 x 2 1 1 1 1 1 1\n" + "1.0\n" * 7,   # non-integer header field
    "TWD v1 2 2 2 1 1 1 1 1 1\n" + "1.0\n" * 6 + "abc\n",   # non-float body token
    "TWD v1 0 2 2 1 1 1 1 1 1\n1.0 1.0 1.0 1.0 1.0\n",   # zero dimension
    "TWD v1 -1 2 2 1 1 1 1 1 1\n1.0 1.0 1.0 1.0\n",   # negative dimension
    "TWD v1 2 2 2 1 1 1 1 1 1\n" + "1.0\n" * 6 + "\u00e9\n",   # not ASCII
])
def test_checkpoint_rejects_malformed(tmp_path, content):
    path = tmp_path / "bad.txt"
    path.write_text(content)
    with pytest.raises(ParameterError):
        load_checkpoint(path)
