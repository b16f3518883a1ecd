"""Property tests of the staged contraction kernels in twd_core."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorwheel import (
    Ranks,
    TwdFactors,
    oracle_entry,
    reconstruct_entries,
    reconstruct_entry,
    reconstruct_full,
)
from tensorwheel.twd_core import BATCH_CHUNK, entry_partials

RANK = st.integers(1, 4)
BATCH_SIZES = (st.sampled_from([1, BATCH_CHUNK - 1, BATCH_CHUNK, BATCH_CHUNK + 1,
                                2 * BATCH_CHUNK + 3])
               | st.integers(1, 3 * BATCH_CHUNK))


@st.composite
def factor_sets(draw, max_dim=6):
    """Factors with random, often unequal, rank triples and values in [-1, 1)."""
    dims = tuple(draw(st.integers(1, max_dim)) for _ in range(3))
    ranks = Ranks(r=tuple(draw(RANK) for _ in range(3)), h=tuple(draw(RANK) for _ in range(3)))
    r1, r2, r3 = ranks.r
    h1, h2, h3 = ranks.h
    ni, nj, nk = dims
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shapes = [(h1, h2, h3), (r3, ni, r1, h1), (r1, nj, r2, h2), (r2, nk, r3, h3)]
    return TwdFactors(*(rng.uniform(-1.0, 1.0, s) for s in shapes), dims, ranks)


def term_magnitude(f, ii, jj, kk):
    """Sum of |term| over the six-fold contraction: the scale that rounding
    errors of any summation order are relative to."""
    absolute = TwdFactors(np.abs(f.g), np.abs(f.a), np.abs(f.b), np.abs(f.c), f.dims, f.ranks)
    return reconstruct_entries(absolute, ii, jj, kk)


@settings(max_examples=40, deadline=None)
@given(f=factor_sets(), n=BATCH_SIZES, seed=st.integers(0, 2**32 - 1))
def test_batched_kernel_matches_single_entry_and_oracle(f, n, seed):
    rng = np.random.default_rng(seed)
    ii, jj, kk = (rng.integers(0, d, n) for d in f.dims)
    batch = reconstruct_entries(f, ii, jj, kk)
    single = np.array([reconstruct_entry(f, int(i), int(j), int(k))
                       for i, j, k in zip(ii, jj, kk)])
    scale = term_magnitude(f, ii, jj, kk)
    assert np.all(np.abs(batch - single) <= 1e-12 * scale)
    # the oracle is slow: check both ends of the batch and of each chunk edge
    edges = {0, n - 1} | {min(p, n - 1) for p in (BATCH_CHUNK - 1, BATCH_CHUNK, BATCH_CHUNK + 1)}
    for p in sorted(edges):
        exact = oracle_entry(f, int(ii[p]), int(jj[p]), int(kk[p]))
        assert abs(batch[p] - exact) <= 1e-12 * scale[p]
        assert abs(single[p] - exact) <= 1e-12 * scale[p]


@settings(max_examples=40, deadline=None)
@given(f=factor_sets(max_dim=9))
def test_reconstruct_full_equals_batched_kernel_on_grid(f):
    full = reconstruct_full(f)
    grid = np.unravel_index(np.arange(full.size), f.dims)
    assert np.array_equal(full.ravel(), reconstruct_entries(f, *grid))


@settings(max_examples=60, deadline=None)
@given(f=factor_sets(), data=st.data())
def test_entry_partials_x_hat_is_reconstruct_entry(f, data):
    i, j, k = (data.draw(st.integers(0, d - 1)) for d in f.dims)
    x_hat, t_g, t_a, t_b, t_c = entry_partials(f, i, j, k)
    assert x_hat == reconstruct_entry(f, i, j, k)
    assert t_g.shape == f.g.shape
    assert (t_a.shape, t_b.shape, t_c.shape) == (f.a[:, i].shape, f.b[:, j].shape,
                                                 f.c[:, k].shape)
