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


def test_checkpoint_header_format(tmp_path):
    f = init_factors((2, 3, 4), Ranks(r=(1, 2, 3), h=(2, 1, 2)), seed=0, scale=0.1)
    path = tmp_path / "model.txt"
    save_checkpoint(f, path)
    head = path.read_text().splitlines()[0]
    assert head == "TWD v1 2 3 4 1 2 3 2 1 2"


@pytest.mark.parametrize("content", [
    "",
    "NOT A CHECKPOINT\n",
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
