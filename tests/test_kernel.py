"""Property tests of the staged contraction kernels in twd_core, and of
the native kernel beside the numpy one."""

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorwheel import (
    BoundsError,
    DivergenceError,
    DomainError,
    HyperParams,
    ParameterError,
    PidState,
    Ranks,
    SparseTensor,
    SplitSpec,
    SynthSpec,
    TwdFactors,
    compute_loss,
    evaluate,
    generate,
    init_factors,
    metrics,
    oracle_entry,
    pid_sgd,
    reconstruct_entries,
    reconstruct_entry,
    reconstruct_full,
    sgd_step,
    split,
    train,
    twd_core,
    write_coo,
)
from tensorwheel.cli import main
from tensorwheel.pid_sgd import epoch_visit_order, validation_rmse
from tensorwheel.twd_core import BATCH_CHUNK, block_partials, entry_blocks, entry_partials

RANK = st.integers(1, 4)
BATCH_SIZES = (st.sampled_from([1, BATCH_CHUNK - 1, BATCH_CHUNK, BATCH_CHUNK + 1,
                                2 * BATCH_CHUNK + 3])
               | st.integers(1, 3 * BATCH_CHUNK))


@st.composite
def factor_sets(draw, max_dim=6, rank=RANK, ranks=None):
    """Factors with random, often unequal, rank triples, or the given ranks,
    and values in [-1, 1)."""
    dims = tuple(draw(st.integers(1, max_dim)) for _ in range(3))
    if ranks is None:
        ranks = Ranks(r=tuple(draw(rank) for _ in range(3)),
                      h=tuple(draw(rank) for _ in range(3)))
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


# ------------------------------------------------------- the native kernel

def native():
    """The native kernel; skips the test where it cannot be built."""
    kernel = twd_core.native_kernel()
    if kernel is None:
        pytest.skip("the native kernel cannot be built here")
    return kernel


@pytest.fixture(params=["native", "numpy"])
def kernel(request, monkeypatch):
    """Runs a test on the native kernel, then with the numpy kernel forced."""
    if request.param == "numpy":
        monkeypatch.setattr(twd_core, "_native", None)
    else:
        native()
    return request.param


# validation columns of no entries
EMPTY = (np.empty(0, np.int64),) * 3 + (np.empty(0),)


def round_loss(kernel, f, cols, gains):
    """The native loss of f over cols at L2 weight gains[1]: the training
    loss of ``tw_round``, whose residuals are grouped by (i, j), here over
    an empty order, which runs no step, and empty validation columns."""
    return kernel.bind_round(f, cols, None, gains, EMPTY)(np.empty(0, np.int64))[0]()


@settings(max_examples=60, deadline=None)
@given(f=factor_sets(rank=st.integers(1, 5)), data=st.data())
def test_native_partials_match_numpy_block_partials(f, data):
    i, j, k = (data.draw(st.integers(0, d - 1)) for d in f.dims)
    blocks = entry_blocks(f, i, j, k)
    ours = native().partials(f, i, j, k)
    # every output's rounding is relative to the sum of its terms' magnitudes
    scale = block_partials(*(np.abs(block) for block in blocks))
    for got, want, magnitude in zip(ours, block_partials(*blocks), scale):
        assert np.shape(got) == np.shape(want)
        assert np.all(np.abs(np.subtract(got, want)) <= 1e-12 * magnitude)


def chain(terms):
    """A sum from 0.0, one term after the other."""
    total = 0.0
    for term in terms:
        total += term
    return total


def plain_loop_partials(g, a_i, b_j, c_k):
    """``block_partials`` in Python floats, each output one sum of its
    terms in the order of the kernel's stages."""
    g, a, b, c = (block.tolist() for block in (g, a_i, b_j, c_k))
    R3, R1, H1 = np.shape(a_i)
    _, R2, H2 = np.shape(b_j)
    H3 = len(g[0][0])
    ab = [[[[chain(a[r3][r1][h1] * b[r1][r2][h2] for r1 in range(R1)) for h2 in range(H2)]
            for r2 in range(R2)] for h1 in range(H1)] for r3 in range(R3)]
    t_g = [[[chain(ab[r3][h1][r2][h2] * c[r2][r3][h3] for r3 in range(R3) for r2 in range(R2))
             for h3 in range(H3)] for h2 in range(H2)] for h1 in range(H1)]
    x_hat = chain(t_g[h1][h2][h3] * g[h1][h2][h3]
                  for h1 in range(H1) for h2 in range(H2) for h3 in range(H3))
    t_c = [[[chain(ab[r3][h1][r2][h2] * g[h1][h2][h3] for h1 in range(H1) for h2 in range(H2))
             for h3 in range(H3)] for r3 in range(R3)] for r2 in range(R2)]
    gb = [[[[chain(b[r1][r2][h2] * g[h1][h2][h3] for h2 in range(H2)) for h3 in range(H3)]
            for h1 in range(H1)] for r2 in range(R2)] for r1 in range(R1)]
    t_a = [[[chain(gb[r1][r2][h1][h3] * c[r2][r3][h3] for r2 in range(R2) for h3 in range(H3))
             for h1 in range(H1)] for r1 in range(R1)] for r3 in range(R3)]
    ca = [[[[chain(c[r2][r3][h3] * a[r3][r1][h1] for r3 in range(R3)) for h1 in range(H1)]
            for r1 in range(R1)] for h3 in range(H3)] for r2 in range(R2)]
    t_b = [[[chain(ca[r2][h3][r1][h1] * g[h1][h2][h3] for h1 in range(H1) for h3 in range(H3))
             for h2 in range(H2)] for r2 in range(R2)] for r1 in range(R1)]
    return x_hat, *(np.array(t) for t in (t_g, t_a, t_b, t_c))


def assert_partials_in_plain_loop_order(kernel, f, data):
    # the kernel sums several outputs per pass; each must still round as a
    # lone sum of its terms, in its stage's order, does
    i, j, k = (data.draw(st.integers(0, d - 1)) for d in f.dims)
    ours = kernel.partials(f, i, j, k)
    want = plain_loop_partials(*entry_blocks(f, i, j, k))
    assert ours[0] == want[0]
    for got, plain in zip(ours[1:], want[1:]):
        assert got.tobytes() == plain.tobytes()


@settings(max_examples=60, deadline=None)
@given(f=factor_sets(rank=st.integers(1, 5)), data=st.data())
def test_native_partials_sum_each_output_in_plain_loop_order(f, data):
    assert_partials_in_plain_loop_order(native(), f, data)


# a rank tuple whose build has calls of dots with eight outputs or more:
# stage 1 and ca have 10, gb 25 (a pass of sixteen, then eight and one)
EIGHT_WIDE = Ranks(r=(5, 5, 5), h=(2, 2, 2))


# a rank tuple whose stage 1 (R2 H2) and gb (R1 R2) each have 15 outputs,
# summed in passes of eight, four, two and one
EVERY_PASS = Ranks(r=(3, 5, 2), h=(1, 3, 1))


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_rank_build_partials_sum_each_output_in_plain_loop_order(data):
    for ranks in (EIGHT_WIDE, EVERY_PASS):
        f = data.draw(factor_sets(ranks=ranks))
        assert_partials_in_plain_loop_order(rank_build(ranks), f, data)


def plain_loop_loss(f, cols, lam):
    """The native loss in Python floats: one sum of the squared residuals,
    each reconstruction ``reconstruct_entry``'s, and, unless lam is 0, lam
    times (n |g|^2 + the sums of the slice norms the entries touch), each
    slice norm summed over (run, rest of the slice), run-major."""
    ii, jj, kk, values = (col.tolist() for col in cols)
    loss = chain(r * r for r in (v - reconstruct_entry(f, i, j, k)
                                 for i, j, k, v in zip(ii, jj, kk, values)))
    if lam == 0.0:
        return loss

    def slice_norms(x):  # x laid out as (runs, slices, ...)
        flat = x.reshape(x.shape[0], x.shape[1], -1).tolist()
        return [chain(y * y for run in flat for y in run[s]) for s in range(x.shape[1])]

    (g_norm,), an, bn, cn = map(slice_norms, (f.g.reshape(1, 1, -1), f.a, f.b, f.c))
    sa, sb, sc = (chain(norms[s] for s in at) for norms, at in ((an, ii), (bn, jj), (cn, kk)))
    return loss + lam * (len(values) * g_norm + (sa + sb + sc))


@pytest.mark.parametrize("ranks", [None, Ranks(r=(3, 2, 2), h=(2, 3, 1)), EIGHT_WIDE, EVERY_PASS],
                         ids=["generic", "3-2-2-2-3-1", "5-5-5-2-2-2", "3-5-2-1-3-1"])
@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(1, 30), lam=st.sampled_from([0.0, 0.01, 0.7]),
       seed=st.integers(0, 2**32 - 1))
def test_native_loss_sums_in_plain_loop_order(ranks, data, n, lam, seed):
    # the residuals, the slice norms and the core's sum of the loss are each
    # one sum from 0.0, in the order of a plain loop over their terms; dims
    # up to 9 give the slice norms, one output per slice, passes of eight
    kernel = native() if ranks is None else rank_build(ranks)
    f = data.draw(factor_sets(max_dim=9, rank=st.integers(1, 5)) if ranks is None
                  else factor_sets(max_dim=9, ranks=ranks))
    rng = np.random.default_rng(seed)
    # positions may repeat: the loss reads the columns as they are
    cols = (*(rng.integers(0, d, n) for d in f.dims), rng.uniform(-1, 1, n))
    ours = round_loss(kernel, f, cols, (0.1, lam, 1.0, 0.0, 0.0))
    assert ours == plain_loop_loss(f, cols, lam)


@pytest.mark.parametrize("ranks, generic", [(Ranks(r=(2, 3, 4), h=(3, 1, 2)), True),
                                            (Ranks(r=(3, 2, 2), h=(2, 3, 1)), False),
                                            (EIGHT_WIDE, False)],
                         ids=["generic", "3-2-2-2-3-1", "5-5-5-2-2-2"])
@pytest.mark.parametrize("lam", [0.0, 0.3])
def test_native_loss_reads_each_factor_at_its_own_strides(ranks, generic, lam):
    # the loss reads a_i, b_j and c_k in the factors, each run a stride of
    # its own axis apart: with unequal dims and ranks, and every index of
    # each axis visited, a stride of another axis or rank reads other values
    kernel = native() if generic else rank_build(ranks)
    dims, rng = (7, 5, 3), np.random.default_rng(23)
    f = TwdFactors(*(rng.uniform(-1.0, 1.0, s) for s in twd_core.factor_shapes(dims, ranks)),
                   dims, ranks)
    n = 21
    cols = (*(np.arange(n) % d for d in dims), rng.uniform(-1.0, 1.0, n))
    ours = round_loss(kernel, f, cols, (0.1, lam, 1.0, 0.0, 0.0))
    assert ours == plain_loop_loss(f, cols, lam)


# gains that damp the error: negative ones make the trajectories grow
# without bound, and rounding differences with them
GAINS = st.sampled_from([0.0, 1.0, 0.5, 0.01, 0.001]) | st.floats(0.0, 2.0)


@settings(max_examples=40, deadline=None)
@given(dims=st.tuples(*[st.integers(1, 4)] * 3),
       r=st.tuples(*[st.integers(1, 5)] * 3), h=st.tuples(*[st.integers(1, 5)] * 3),
       lam=st.sampled_from([0.0, 0.01]), eta=st.sampled_from([0.01, 0.05]),
       cp=GAINS, ci=GAINS, cd=GAINS, seed=st.integers(0, 2**32 - 1))
def test_native_and_numpy_trajectories_agree(dims, r, h, lam, eta, cp, ci, cd, seed):
    native()
    hp = HyperParams(eta=eta, lam=lam, cp=cp, ci=ci, cd=cd)
    rng = np.random.default_rng(seed)
    draws = [(*(int(rng.integers(d)) for d in dims), float(rng.uniform(-1, 1)))
             for _ in range(3)]
    # a set and a PID state of one entry per draw, as two draws may share a position
    sets = [SparseTensor(dims, [i], [j], [k], [v]) for i, j, k, v in draws]
    # values scaled so that a reconstruction is of order one at every rank
    start = init_factors(dims, Ranks(r=r, h=h), seed, 1.0 / max(*r, *h))
    runs = {}
    for name in ("native", "numpy"):
        f, states, diverged_at = start.copy(), [PidState(1) for _ in sets], None
        with pytest.MonkeyPatch.context() as mp, np.errstate(over="ignore", invalid="ignore"):
            if name == "numpy":
                mp.setattr(twd_core, "_native", None)
            for step in range(20):
                try:
                    sgd_step(f, sets[step % 3], 0, states[step % 3], hp)
                except DivergenceError:
                    diverged_at = step
                    break
        runs[name] = f, np.concatenate([state.integral for state in states]), diverged_at
    (ours, our_integral, ours_at), (ref, ref_integral, ref_at) = runs["native"], runs["numpy"]
    assert ours_at == ref_at
    for name in "gabc":
        want = getattr(ref, name)
        assert np.all(np.abs(getattr(ours, name) - want) <= 1e-12 * np.abs(want).max())
    assert np.allclose(our_integral, ref_integral, rtol=1e-12,
                       atol=1e-12 * np.abs(ref_integral).max(), equal_nan=True)


def columns(obs):
    return obs.ii, obs.jj, obs.kk, obs.values


def test_the_kernel_takes_a_tensors_arrays_without_a_copy():
    # so that a step, an epoch of one id, costs the same on a set of any size
    observed, _ = generate(SynthSpec(dims=(7, 6, 5), ranks=Ranks(r=(2, 2, 2), h=(2, 2, 2)),
                                     density=0.5, seed=3))
    cols = columns(observed)
    assert all(kept is col for kept, col in zip(native()._columns(cols), cols))


def test_native_loss_of_one_entry_without_l2_is_its_squared_residual():
    f = init_factors((3, 4, 2), Ranks(r=(2, 3, 1), h=(3, 1, 2)), seed=5, scale=0.7)
    # slice norms that overflow, where lam = 0 must not read them
    skewed = TwdFactors(f.g, f.a * 1e160, f.b * 1e-160, f.c, f.dims, f.ranks)
    obs = SparseTensor(f.dims, [1], [3], [1], [0.25])
    for factors in (f, skewed):
        want = (0.25 - reconstruct_entry(factors, 1, 3, 1)) ** 2
        assert round_loss(native(), factors, columns(obs), (0.1, 0.0, 1.0, 0.0, 0.0)) == want


def test_native_loss_that_overflows_raises_as_compute_loss_does():
    f = init_factors((3, 4, 2), Ranks(r=(2, 3, 1), h=(3, 1, 2)), seed=5, scale=0.7)
    huge = TwdFactors(f.g * 1e200, f.a * 1e200, f.b, f.c, f.dims, f.ranks)
    obs = SparseTensor(f.dims, [1, 0], [3, 0], [1, 0], [0.25, 1.0])
    for lam in (0.0, 0.01):
        with pytest.raises(DomainError) as ours:
            round_loss(native(), huge, columns(obs), (0.1, lam, 1.0, 0.0, 0.0))
        with pytest.raises(DomainError) as want:
            compute_loss(huge, obs, lam)
        assert str(ours.value) == str(want.value)


@settings(max_examples=60, deadline=None)
@given(f=factor_sets(rank=st.integers(1, 5)), n=st.integers(1, 30),
       lam=st.sampled_from([0.0, 0.01, 0.7]), seed=st.integers(0, 2**32 - 1))
def test_native_loss_matches_compute_loss(f, n, lam, seed):
    rng = np.random.default_rng(seed)
    ii, jj, kk = (rng.integers(0, d, n) for d in f.dims)
    keys = np.unique(np.stack([ii, jj, kk]), axis=1)  # distinct positions
    obs = SparseTensor(f.dims, *keys, rng.uniform(-1, 1, keys.shape[1]))
    ours = round_loss(native(), f, columns(obs), (0.1, lam, 1.0, 0.0, 0.0))
    want = compute_loss(f, obs, lam)
    # relative to the loss, or to the residuals' scale where a reconstruction
    # cancels its observation
    scale = want + np.sum((np.abs(obs.values) + term_magnitude(f, *keys)) ** 2)
    assert abs(ours - want) <= 1e-12 * scale


def planted_split(seed=2):
    spec = SynthSpec(dims=(8, 8, 6), ranks=Ranks(r=(2, 2, 2), h=(2, 2, 2)),
                     density=0.4, noise_sigma=0.0, seed=seed)
    observed, _ = generate(spec)
    return observed, *split(observed, SplitSpec(ratios=(8, 2, 0), seed=seed))[:2]


def test_pid_reduction_holds_on_both_kernels(kernel):
    observed, tr, va = planted_split()
    ranks = Ranks(r=(2, 2, 2), h=(2, 2, 2))
    hp = HyperParams(eta=0.05, lam=0.01, cp=1.0, ci=0.0, cd=0.0, max_epochs=8, seed=2)
    f_pid, r_pid = train(tr, va, observed.dims, ranks, hp, pid=True, early_stop=False)
    f_plain, r_plain = train(tr, va, observed.dims, ranks, hp, pid=False, early_stop=False)
    assert r_pid.loss_history == r_plain.loss_history
    assert r_pid.valid_rmse_history == r_plain.valid_rmse_history
    for name in "gabc":
        assert getattr(f_pid, name).tobytes() == getattr(f_plain, name).tobytes()


def test_train_equals_its_sgd_step_replay_on_both_kernels(kernel):
    observed, tr, _ = planted_split(seed=4)
    ranks = Ranks(r=(2, 2, 2), h=(2, 3, 1))
    empty = split(observed, SplitSpec(ratios=(1, 0, 0), seed=0))[1]
    hp = HyperParams(eta=0.05, lam=0.001, cp=1.0, ci=0.01, cd=0.001, max_epochs=6, seed=4)
    trained, _ = train(tr, empty, observed.dims, ranks, hp)
    replay = init_factors(observed.dims, ranks, hp.seed, hp.init_scale)
    state, rng = PidState(len(tr)), np.random.default_rng(hp.seed)
    for _ in range(hp.max_epochs):
        for eid in epoch_visit_order(rng, len(tr)):
            sgd_step(replay, tr, int(eid), state, hp)
    for name in "gabc":
        assert getattr(trained, name).tobytes() == getattr(replay, name).tobytes()


def test_train_loss_history_is_a_compute_loss_replay_on_both_kernels(kernel):
    observed, tr, va = planted_split(seed=3)
    ranks = Ranks(r=(3, 2, 2), h=(2, 3, 1))
    hp = HyperParams(eta=0.05, lam=0.01, cp=1.0, ci=0.01, cd=0.001, max_epochs=60,
                     patience=3, seed=3)
    _, report = train(tr, va, observed.dims, ranks, hp)
    replay = init_factors(observed.dims, ranks, hp.seed, hp.init_scale)
    state, rng = PidState(len(tr)), np.random.default_rng(hp.seed)
    losses = []
    for _ in range(report.epochs_run):
        for eid in epoch_visit_order(rng, len(tr)):
            sgd_step(replay, tr, int(eid), state, hp)
        losses.append(compute_loss(replay, tr, hp.lam))
    if kernel == "numpy":
        assert report.loss_history == losses
    else:
        assert np.allclose(report.loss_history, losses, rtol=1e-12, atol=0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(twd_core, "_native", None)
        _, on_numpy = train(tr, va, observed.dims, ranks, hp)
    assert report.epochs_run < hp.max_epochs  # early stopping decided
    assert (report.epochs_run, report.converged_at) == (on_numpy.epochs_run,
                                                        on_numpy.converged_at)


def test_a_loss_overflow_is_divergence_on_both_kernels(kernel):
    # every step stays finite, but the epoch's loss overflows
    observed, _ = generate(SynthSpec(dims=(8, 8, 6), ranks=Ranks(r=(2, 2, 2), h=(2, 2, 2)),
                                     density=0.4, noise_sigma=0.0, seed=2))
    tr, va, _ = split(observed, SplitSpec(ratios=(1, 2, 7), seed=0))
    hp = HyperParams(eta=200.0, lam=0.01, max_epochs=1, seed=0)
    with pytest.raises(DivergenceError, match="non-finite loss") as err:
        train(tr, va, observed.dims, Ranks(r=(2, 2, 2), h=(2, 2, 2)), hp)
    assert (err.value.epoch, err.value.entry_id) == (0, None)


def test_reports_are_byte_deterministic_per_kernel(kernel, tmp_path):
    observed, _, _ = planted_split()
    data = tmp_path / "obs.txt"
    write_coo(observed, data)
    argv = ["train", "--input", str(data), "--ranks", "2,2,2,2,2,2", "--epochs", "15",
            "--ci", "0.01", "--reps", "2", "--report"]
    reports = [tmp_path / "r1.json", tmp_path / "r2.json"]
    for report in reports:
        assert main(argv + [str(report)]) == 0
    assert reports[0].read_bytes() == reports[1].read_bytes()
    assert json.loads(reports[0].read_text())["config"]["kernel"] == kernel


def test_sgd_step_rejects_what_lies_outside_the_factors(kernel):
    f = init_factors((3, 4, 2), Ranks(r=(2, 2, 2), h=(2, 2, 2)), seed=0, scale=0.3)
    before = f.copy()
    hp = HyperParams(eta=0.1)
    # dims larger than f's, so that the set holds what lies outside f
    outside = SparseTensor((4, 5, 3), [3, 0, 0], [0, 4, 0], [0, 0, 2], [1.0, 1.0, 1.0])
    for entry_id in range(len(outside)):
        with pytest.raises(BoundsError):
            sgd_step(f, outside, entry_id, PidState(len(outside)), hp)
    one = SparseTensor(f.dims, [0], [0], [0], [1.0])
    for entry_id in (-1, 1):
        with pytest.raises(BoundsError):
            sgd_step(f, one, entry_id, PidState(1), hp)
    with pytest.raises(ParameterError, match="PID state of size 2 for 1 observations"):
        sgd_step(f, one, 0, PidState(2), hp)
    for name in "gabc":
        assert getattr(f, name).tobytes() == getattr(before, name).tobytes()


def test_sgd_step_refuses_an_entry_id_that_is_not_an_integer(kernel):
    # True and 1.5 would pass the bounds check of two observations
    f = init_factors((3, 4, 2), Ranks(r=(2, 2, 2), h=(2, 2, 2)), seed=0, scale=0.3)
    before = f.copy()
    obs = SparseTensor(f.dims, [0, 1], [0, 1], [0, 1], [1.0, 2.0])
    state = PidState(2)
    for entry_id in (True, 1.5, "1", None, np.float64(1.0)):
        with pytest.raises(ParameterError, match="must be an integer"):
            sgd_step(f, obs, entry_id, state, HyperParams(eta=0.1))
    for name in "gabc":
        assert getattr(f, name).tobytes() == getattr(before, name).tobytes()
    assert not state.integral.any() and not state.prev_error.any()
    for entry_id in (1, np.int64(1), np.uint8(1)):  # the integers check_index takes
        sgd_step(f, obs, entry_id, state, HyperParams(eta=0.1))
    assert state.integral[1] != 0.0 and state.integral[0] == 0.0


def test_the_binding_refuses_a_pid_state_of_another_length():
    f = init_factors((3, 4, 2), Ranks(r=(2, 2, 2), h=(2, 2, 2)), seed=0, scale=0.3)
    obs = SparseTensor(f.dims, [0, 1], [0, 1], [0, 1], [1.0, 2.0])
    for pid in ((np.zeros(3), np.zeros(3)), (np.zeros(2), np.zeros(3))):
        with pytest.raises(ParameterError,
                           match="PID state arrays must be writeable, C-ordered and of "
                                 "the training columns' length 2"):
            native().steps(f, columns(obs), pid, (0.1, 0.0, 1.0, 0.0, 0.0), np.array([0]))


def test_the_binding_refuses_what_it_cannot_run_and_leaves_the_factors_as_they_were():
    f = init_factors((3, 4, 2), Ranks(r=(2, 2, 2), h=(2, 2, 2)), seed=0, scale=0.3)
    before = f.copy()
    obs = SparseTensor(f.dims, [0, 1], [0, 1], [0, 1], [1.0, 2.0])
    gains = (0.1, 0.0, 1.0, 0.0, 0.0)
    read_only = f.a.copy()
    read_only.flags.writeable = False
    for a in (read_only, np.asfortranarray(f.a)):
        f.a = a
        with pytest.raises(ParameterError, match=re.escape(
                "factor a must be a C-ordered float64 array of shape (2, 3, 2, 2), writeable")):
            native().steps(f, columns(obs), None, gains, np.array([0]))
    f.a = before.a.copy()
    with pytest.raises(ParameterError, match="the training columns differ in length"):
        native().steps(f, (obs.ii, obs.jj, obs.kk[:1], obs.values), None, gains, np.array([0]))
    for order in ([2], [-1], [0, 2]):
        with pytest.raises(BoundsError,
                           match="visit order outside the 2 training entries"):
            native().steps(f, columns(obs), None, gains, order)
    for name in "gabc":
        assert getattr(f, name).tobytes() == getattr(before, name).tobytes()


def test_a_diverging_step_leaves_the_factors_unchanged_on_both_kernels(kernel):
    f = init_factors((3, 3, 3), Ranks(r=(2, 2, 2), h=(2, 2, 2)), seed=1, scale=1.0)
    before = f.copy()
    hp = HyperParams(eta=1e10, lam=0.0, cp=1.0, ci=0.0, cd=0.0)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as err:
        sgd_step(f, SparseTensor((3, 3, 3), [1], [2], [0], [1e300]), 0, PidState(1), hp)
    assert err.value.entry_id == 0
    for name in "gabc":
        assert getattr(f, name).tobytes() == getattr(before, name).tobytes()


@pytest.mark.parametrize("gains", [(0.1, 0.0), (0.1,), (0.1, 0.0, 1.0, 0.0, 0.0, 0.0),
                                   [[0.1, 0.0, 1.0, 0.0, 0.0]]])
def test_the_binding_refuses_gains_of_another_shape(gains):
    # the kernel reads cp, ci and cd from the gains' slots 2..4 unchecked
    f = init_factors((3, 4, 2), Ranks(r=(2, 2, 2), h=(2, 2, 2)), seed=0, scale=0.3)
    obs = SparseTensor(f.dims, [0, 1], [0, 1], [0, 1], [1.0, 2.0])
    with pytest.raises(ParameterError, match=re.escape("gains must be five values")):
        native().steps(f, columns(obs), (np.zeros(2), np.zeros(2)), gains, np.array([0]))


def test_train_rejects_indices_outside_dims(kernel):
    observed, tr, va = planted_split()
    with pytest.raises(BoundsError):
        train(tr, va, (4, 4, 3), Ranks(r=(2, 2, 2), h=(2, 2, 2)), HyperParams(max_epochs=2))


def test_train_rejects_validation_indices_outside_dims(kernel, monkeypatch):
    observed, tr, va = planted_split()
    ni, nj, nk = observed.dims
    outside = SparseTensor((ni + 1, nj, nk), [*va.ii, ni], [*va.jj, 0], [*va.kk, 0],
                           [*va.values, 1.0])

    def no_epoch(*args):
        pytest.fail("an epoch ran before the validation set was checked")
    monkeypatch.setattr(pid_sgd, "epoch_visit_order", no_epoch)
    with pytest.raises(BoundsError, match="validation indices outside dims"):
        train(tr, outside, observed.dims, Ranks(r=(2, 2, 2), h=(2, 2, 2)),
              HyperParams(max_epochs=2))


@pytest.mark.parametrize("axis", range(3))
def test_train_names_training_indices_outside_dims(kernel, monkeypatch, axis):
    observed, tr, va = planted_split()
    dims, cols = list(observed.dims), [list(tr.ii), list(tr.jj), list(tr.kk)]
    cols[axis][-1] = dims[axis]  # a position no other entry holds
    dims[axis] += 1
    outside = SparseTensor(tuple(dims), *cols, tr.values)

    def no_epoch(*args):
        pytest.fail("an epoch ran before the training set was checked")
    monkeypatch.setattr(pid_sgd, "epoch_visit_order", no_epoch)
    with pytest.raises(BoundsError,
                       match=re.escape(f"training indices outside dims {observed.dims}")):
        train(outside, va, observed.dims, Ranks(r=(2, 2, 2), h=(2, 2, 2)),
              HyperParams(max_epochs=2))


@pytest.mark.parametrize("axis", range(3))
def test_a_batch_outside_dims_is_named_by_reconstruct_entries_and_evaluate(kernel, axis):
    observed, _, va = planted_split()
    f = init_factors(observed.dims, Ranks(r=(2, 2, 2), h=(2, 2, 2)), seed=0, scale=0.1)
    message = re.escape(f"batch indices outside dims {observed.dims}")
    for bad in (-1, observed.dims[axis]):
        cols = [va.ii.copy(), va.jj.copy(), va.kk.copy()]
        cols[axis][-1] = bad
        with pytest.raises(BoundsError, match=message):
            reconstruct_entries(f, *cols)
    dims, cols = list(observed.dims), [list(va.ii), list(va.jj), list(va.kk)]
    cols[axis][-1] = dims[axis]
    dims[axis] += 1
    with pytest.raises(BoundsError, match=message):
        evaluate(f, SparseTensor(tuple(dims), *cols, va.values))


@pytest.mark.parametrize("position", [(0.5, 0, 0), (np.float64(1.0), 0, 0), (0, "1", 0),
                                      (0, 0, None), (True, 0, 0), (0, 0, np.bool_(True))])
def test_a_position_that_is_not_three_integers_is_a_parameter_error(kernel, position):
    f = init_factors((2, 2, 2), Ranks(r=(2, 2, 2), h=(2, 2, 2)), seed=0, scale=0.1)
    for fn in (reconstruct_entry, twd_core.entry_partials, oracle_entry):
        with pytest.raises(ParameterError, match=re.escape(
                f"index ({', '.join(map(repr, position))}) must be three integers")):
            fn(f, *position)


def test_a_position_of_python_or_numpy_integers_passes_the_point_gate(kernel):
    f = init_factors((2, 2, 2), Ranks(r=(2, 2, 2), h=(2, 2, 2)), seed=0, scale=0.1)
    expected = reconstruct_entry(f, 1, 0, 1)
    assert reconstruct_entry(f, np.int64(1), np.int32(0), np.uint8(1)) == expected
    assert oracle_entry(f, np.int64(1), 0, np.uint8(1)) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(BoundsError, match=re.escape("index (2, 0, 0) outside dims (2, 2, 2)")):
        reconstruct_entry(f, np.int64(2), 0, 0)


def test_an_overflowing_validation_sum_takes_evaluates_rescale_on_both_kernels(kernel):
    # each squared residual overflows, the RMSE does not
    observed, tr, va = planted_split()
    huge = SparseTensor(va.dims, va.ii, va.jj, va.kk, np.full(len(va), 1e160))
    hp = HyperParams(eta=0.05, lam=0.0, max_epochs=3, seed=0)
    _, report = train(tr, huge, observed.dims, Ranks(r=(2, 2, 2), h=(2, 2, 2)), hp)
    assert report.valid_rmse_history == [1e160, 1e160, 1e160]


# the rank tuples of the suite's trainings, each built once: not drawn ranks
@pytest.mark.parametrize("rank_tuple", [(2, 2, 2, 2, 2, 2), (5, 5, 5, 2, 2, 2)],
                         ids=["2-2-2-2-2-2", "5-5-5-2-2-2"])
def test_the_validation_rmse_is_evaluates_on_both_kernels(kernel, rank_tuple):
    observed, tr, va = planted_split(seed=5)
    ranks = Ranks(r=rank_tuple[:3], h=rank_tuple[3:])
    hp = HyperParams(eta=0.05, lam=0.001, ci=0.01, max_epochs=40, patience=4, seed=5)
    best, report = train(tr, va, observed.dims, ranks, hp)
    recorded = report.valid_rmse_history[report.converged_at]
    # the returned factors are the best epoch's, bit for bit
    if kernel == "numpy":
        assert recorded == evaluate(best, va).rmse
    else:
        assert recorded == pytest.approx(evaluate(best, va).rmse, rel=1e-12, abs=0)


def test_train_on_the_native_kernel_never_scores_with_numpy(monkeypatch):
    native()
    observed, tr, va = planted_split()

    def numpy_scoring(*args, **kwargs):
        pytest.fail("train scored its validation set with numpy")
    for module in (pid_sgd, metrics, twd_core):
        monkeypatch.setattr(module, "reconstruct_entries", numpy_scoring)
    monkeypatch.setattr(pid_sgd, "evaluate", numpy_scoring)
    monkeypatch.setattr(metrics, "evaluate", numpy_scoring)
    hp = HyperParams(eta=0.05, lam=0.01, max_epochs=10, seed=2)
    _, report = train(tr, va, observed.dims, Ranks(r=(2, 2, 2), h=(2, 2, 2)), hp)
    assert len(report.valid_rmse_history) == 10


@pytest.fixture
def fresh_loader(tmp_path, monkeypatch):
    """An empty kernel cache, and a loader that has not loaded yet."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(twd_core, "_native", twd_core._UNLOADED)
    monkeypatch.setattr(twd_core, "_for_ranks", {})
    return tmp_path / "tensorwheel"


def test_a_second_load_reuses_the_cached_build(fresh_loader, monkeypatch):
    if shutil.which(twd_core.CC) is None:
        pytest.skip("no C compiler")
    assert twd_core.native_kernel() is not None
    built = sorted(fresh_loader.iterdir())
    assert [path.suffix for path in built] == [".so"]
    monkeypatch.setattr(twd_core, "_native", twd_core._UNLOADED)
    monkeypatch.setattr(twd_core, "CC", "false")  # any compile would now fail
    assert twd_core.native_kernel() is not None
    assert sorted(fresh_loader.iterdir()) == built


def test_a_failing_compiler_falls_back_to_numpy(fresh_loader, monkeypatch, tmp_path):
    monkeypatch.setattr(twd_core, "CC", "false")
    assert twd_core.native_kernel() is None
    assert list(fresh_loader.iterdir()) == []  # no temp file is left behind
    observed, _, _ = planted_split()
    write_coo(observed, tmp_path / "obs.txt")
    report = tmp_path / "r.json"
    assert main(["train", "--input", str(tmp_path / "obs.txt"), "--epochs", "3",
                 "--reps", "1", "--report", str(report)]) == 0
    assert json.loads(report.read_text())["config"]["kernel"] == "numpy"


# the rank tuples of the tests below; the suite's trainings run the last three
RANK_TUPLES = [(1, 1, 1, 1, 1, 1), (2, 2, 2, 2, 2, 2), (5, 5, 5, 2, 2, 2), (3, 2, 2, 2, 3, 1)]


def rank_build(ranks):
    """The kernel built for ranks; skips the test where it cannot be."""
    native()
    kernel = twd_core.native_kernel(ranks)
    if kernel.ranks != ranks:
        pytest.skip("the kernel cannot be built for one rank tuple here")
    return kernel


def test_each_rank_tuple_is_built_once_into_a_library_of_its_own(fresh_loader, monkeypatch):
    if shutil.which(twd_core.CC) is None:
        pytest.skip("no C compiler")
    compiles = []
    compile_with = subprocess.run

    def counted(argv, **kwargs):
        compiles.append(argv)
        return compile_with(argv, **kwargs)

    monkeypatch.setattr(twd_core.subprocess, "run", counted)
    one, other = Ranks(r=(1, 1, 1), h=(1, 1, 1)), Ranks(r=(2, 2, 2), h=(2, 2, 2))
    kernels = [twd_core.native_kernel(ranks) for ranks in (one, other, one)]
    assert [kernel.ranks for kernel in kernels] == [one, other, one]
    assert kernels[2] is kernels[0]
    assert len(compiles) == 3  # the generic build, then one per rank tuple
    built = sorted(fresh_loader.iterdir())
    assert [path.suffix for path in built] == [".so"] * 3
    # a new process finds both in the cache
    monkeypatch.setattr(twd_core, "_native", twd_core._UNLOADED)
    monkeypatch.setattr(twd_core, "_for_ranks", {})
    assert [twd_core.native_kernel(ranks).ranks for ranks in (one, other)] == [one, other]
    assert len(compiles) == 3
    assert sorted(fresh_loader.iterdir()) == built


def test_a_failing_rank_build_leaves_train_on_the_generic_kernel(fresh_loader, monkeypatch,
                                                                 tmp_path):
    compiler = shutil.which(twd_core.CC)
    if compiler is None:
        pytest.skip("no C compiler")
    observed, _, _ = planted_split()
    write_coo(observed, tmp_path / "obs.txt")
    argv = ["train", "--input", str(tmp_path / "obs.txt"), "--ranks", "2,2,2,2,2,2",
            "--epochs", "5", "--ci", "0.01", "--reps", "2", "--report"]
    ranks = Ranks(r=(2, 2, 2), h=(2, 2, 2))
    # a compiler that fails for a rank build only
    cc = tmp_path / "cc"
    cc.write_text(f'#!/bin/sh\ncase "$*" in *-DTW_RANK*) exit 1;; esac\n'
                  f'exec {compiler} "$@"\n')
    cc.chmod(0o755)
    monkeypatch.setattr(twd_core, "CC", str(cc))
    assert main(argv + [str(tmp_path / "generic.json")]) == 0
    assert twd_core._for_ranks == {ranks: twd_core.native_kernel()}  # train ran the generic
    assert [path.suffix for path in fresh_loader.iterdir()] == [".so"]  # no temp file left
    monkeypatch.setattr(twd_core, "CC", compiler)
    monkeypatch.setattr(twd_core, "_for_ranks", {})
    assert main(argv + [str(tmp_path / "ranks.json")]) == 0
    assert twd_core._for_ranks[ranks].ranks == ranks  # train ran the rank build
    assert (tmp_path / "generic.json").read_bytes() == (tmp_path / "ranks.json").read_bytes()


@pytest.mark.parametrize("ranks", [Ranks(r=t[:3], h=t[3:]) for t in RANK_TUPLES],
                         ids=["-".join(map(str, t)) for t in RANK_TUPLES])
def test_a_rank_build_equals_the_generic_build_bitwise(ranks):
    observed, _ = generate(SynthSpec(dims=(7, 6, 5), ranks=ranks, density=0.5,
                                     noise_sigma=0.01, seed=3))
    cols, gains = columns(observed), (0.05, 0.01, 1.0, 0.01, 0.001)
    runs = []
    for kernel in (rank_build(ranks), native()):
        f, state = init_factors(observed.dims, ranks, 1, 0.3), PidState(len(observed))
        arrays, rng, losses = (state.integral, state.prev_error), np.random.default_rng(0), []
        for _ in range(50):
            kernel.steps(f, cols, arrays, gains, epoch_visit_order(rng, len(observed)))
            losses.append(round_loss(kernel, f, cols, gains))
        runs.append(([getattr(f, name).tobytes() for name in "gabc"], losses,
                     state.integral.tobytes(), state.prev_error.tobytes()))
    assert runs[0] == runs[1]


AVX2_TUPLES = [(2, 2, 2, 2, 2, 2), (5, 5, 5, 2, 2, 2), (3, 5, 2, 1, 3, 1)]


@pytest.mark.parametrize("ranks", [Ranks(r=t[:3], h=t[3:]) for t in AVX2_TUPLES],
                         ids=["-".join(map(str, t)) for t in AVX2_TUPLES])
def test_the_avx2_rank_build_equals_the_baseline_rank_build_bitwise(ranks, tmp_path,
                                                                    monkeypatch):
    if shutil.which(twd_core.CC) is None or not twd_core.host_avx2():
        pytest.skip("no C compiler or no AVX2")
    native()
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    # dims of 16 and more, so that the loss's slice norms take a pass of sixteen
    observed, _ = generate(SynthSpec(dims=(18, 17, 16), ranks=ranks, density=0.1,
                                     noise_sigma=0.01, seed=4))
    cols, runs = columns(observed), []
    for avx2 in (True, False):
        monkeypatch.setattr(twd_core, "host_avx2", lambda: avx2)
        monkeypatch.setattr(twd_core, "_for_ranks", {})
        assert ("-mavx2" in twd_core.kernel_flags(ranks)) == avx2
        kernel = rank_build(ranks)
        f, state = init_factors(observed.dims, ranks, 5, 0.2), PidState(len(observed))
        gains, rng = (0.01, 0.02, 1.0, 0.05, 0.001), np.random.default_rng(1)
        for _ in range(5):
            kernel.steps(f, cols, (state.integral, state.prev_error), gains,
                         epoch_visit_order(rng, len(observed)))
        runs.append(([getattr(f, name).tobytes() for name in "gabc"], state.integral.tobytes(),
                     state.prev_error.tobytes(), round_loss(kernel, f, cols, gains),
                     round_loss(kernel, f, cols, (0.01, 0.0, 1.0, 0.0, 0.0))))
    assert runs[0] == runs[1]


ROUND_BUILDS = [None, (2, 2, 2, 2, 2, 2), (5, 5, 5, 2, 2, 2)]


@pytest.mark.parametrize("n_valid", [0, 40], ids=["no-validation", "validation"])
@pytest.mark.parametrize("lam", [0.0, 0.02])
@pytest.mark.parametrize("pid", [True, False], ids=["pid", "plain"])
@pytest.mark.parametrize("rank_tuple", ROUND_BUILDS,
                         ids=["generic", "2-2-2-2-2-2", "5-5-5-2-2-2"])
def test_a_round_equals_the_epoch_and_the_two_losses_bitwise(rank_tuple, pid, lam, n_valid):
    # tw_round against tw_epoch, then tw_loss and tw_loss with lam 0 over
    # the validation columns, each through a round over an empty order, on
    # copies of the same factors, for five epochs
    ranks = Ranks(r=(3, 2, 4), h=(2, 3, 1)) if rank_tuple is None else \
        Ranks(r=rank_tuple[:3], h=rank_tuple[3:])
    kernel = native() if rank_tuple is None else rank_build(ranks)
    observed, _ = generate(SynthSpec(dims=(7, 6, 5), ranks=ranks, density=0.5,
                                     noise_sigma=0.01, seed=3))
    cols = columns(observed)
    n = len(observed) - 40
    train_cols, valid_cols = [c[:n] for c in cols], [c[n:n + n_valid] for c in cols]
    gains = (0.05, lam, 1.0, 0.01, 0.001)
    runs = []
    for one_call in (True, False):
        f, state = init_factors(observed.dims, ranks, 1, 0.3), PidState(n)
        arrays = (state.integral, state.prev_error) if pid else None
        rng, sums = np.random.default_rng(0), []
        if one_call:
            run_round = kernel.bind_round(f, train_cols, arrays, gains, valid_cols)
            for _ in range(5):
                loss, squares = run_round(epoch_visit_order(rng, n))
                sums.append((loss(), squares()))
        else:
            for _ in range(5):
                kernel.steps(f, train_cols, arrays, gains, epoch_visit_order(rng, n))
                sums.append((round_loss(kernel, f, train_cols, gains),
                             round_loss(kernel, f, valid_cols, (0.05, 0.0, 1.0, 0.0, 0.0))))
        runs.append(([getattr(f, name).tobytes() for name in "gabc"], state.integral.tobytes(),
                     state.prev_error.tobytes(), np.array(sums).tobytes()))
    assert runs[0] == runs[1]
    squares = np.frombuffer(runs[0][3]).reshape(5, 2)[:, 1]
    assert (squares == 0.0).all() == (n_valid == 0)  # an empty validation set sums to 0.0


def test_a_round_refuses_an_order_outside_the_training_entries_before_any_step():
    f = init_factors((3, 4, 2), Ranks(r=(2, 2, 2), h=(2, 2, 2)), seed=0, scale=0.3)
    obs = SparseTensor(f.dims, [0, 1], [0, 1], [0, 1], [1.0, 2.0])
    state = PidState(2)
    run_round = native().bind_round(f, columns(obs), (state.integral, state.prev_error),
                                    (0.1, 0.0, 1.0, 0.01, 0.001), columns(obs))
    before = [getattr(f, name).tobytes() for name in "gabc"]
    for order in ([-1], [2], [0, 1, 2], [0, -1]):
        with pytest.raises(BoundsError, match="visit order outside the 2 training entries"):
            run_round(np.array(order))
        assert [getattr(f, name).tobytes() for name in "gabc"] == before
        assert not state.integral.any() and not state.prev_error.any()


def test_a_round_over_an_empty_order_runs_no_step_and_takes_both_sums():
    # the round round_loss reads the native loss through
    f = init_factors((3, 4, 2), Ranks(r=(2, 2, 2), h=(2, 2, 2)), seed=0, scale=0.3)
    obs = SparseTensor(f.dims, [0, 1, 2], [0, 1, 3], [0, 1, 1], [1.0, 2.0, -0.5])
    state = PidState(3)
    state.integral[:], state.prev_error[:] = (0.1, -0.2, 0.3), (0.4, 0.5, -0.6)
    before = [getattr(f, name).tobytes() for name in "gabc"] + \
        [state.integral.tobytes(), state.prev_error.tobytes()]
    run_round = native().bind_round(f, columns(obs), (state.integral, state.prev_error),
                                    (0.1, 0.01, 1.0, 0.01, 0.001), columns(obs))
    loss, squares = run_round(np.empty(0, np.int64))
    after = [getattr(f, name).tobytes() for name in "gabc"] + \
        [state.integral.tobytes(), state.prev_error.tobytes()]
    assert after == before
    assert loss() == plain_loop_loss(f, columns(obs), 0.01)
    assert squares() == plain_loop_loss(f, columns(obs), 0.0)


@pytest.mark.parametrize("order", [[0.7], [[0, 1]], np.array([True]), np.array([[1], [0]]),
                                   np.array(1), np.array([0.0, 1.0])],
                         ids=["float", "2-D", "bool", "column", "0-D", "float-array"])
def test_a_native_order_that_is_not_a_1d_integer_array_is_refused_before_any_step(order):
    # converted unchecked, [0.7] would run entry 0 and [[0, 1]] entry 0 alone
    f = init_factors((3, 4, 2), Ranks(r=(2, 2, 2), h=(2, 2, 2)), seed=0, scale=0.3)
    obs = SparseTensor(f.dims, [0, 1], [0, 1], [0, 1], [1.0, 2.0])
    state = PidState(2)
    pid, gains = (state.integral, state.prev_error), (0.1, 0.0, 1.0, 0.01, 0.001)
    before = [getattr(f, name).tobytes() for name in "gabc"]
    run_round = native().bind_round(f, columns(obs), pid, gains, columns(obs))
    for call in (lambda: native().steps(f, columns(obs), pid, gains, order),
                 lambda: run_round(order)):
        with pytest.raises(ParameterError, match="visit order must be a 1-D array of integers"):
            call()
        assert [getattr(f, name).tobytes() for name in "gabc"] == before
        assert not state.integral.any() and not state.prev_error.any()


def test_a_round_stops_at_the_diverging_step_which_writes_nothing_back():
    f = init_factors((3, 3, 3), Ranks(r=(2, 2, 2), h=(2, 2, 2)), seed=1, scale=1.0)
    obs = SparseTensor(f.dims, [0, 1], [0, 2], [0, 0], [0.5, 1e300])
    gains = (1e10, 0.0, 1.0, 0.0, 0.0)
    copy = f.copy()
    native().steps(copy, columns(obs), None, gains, np.array([0]))  # the finite step only
    run_round = native().bind_round(f, columns(obs), None, gains, columns(obs))
    with pytest.raises(DivergenceError) as err:
        run_round(np.array([0, 1]))
    assert err.value.entry_id == 1
    for name in "gabc":
        assert getattr(f, name).tobytes() == getattr(copy, name).tobytes()


def ungrouped_loss(kernel, f, cols, lam):
    """``tw_loss`` of f over cols at L2 weight lam, called directly: the
    ungrouped loss, one reconstruction per entry in entry order."""
    operands = kernel._operands(f, in_place=False, extra=sum(f.dims))
    shape, g, a, b, c, work = (arr.ctypes.data for arr in operands)
    cols = kernel._columns(cols)
    return kernel._lib.tw_loss(shape, g, a, b, c, *(col.ctypes.data for col in cols),
                               len(cols[3]), lam, work)


def shared_pair_columns(dims, case, rng):
    """Training and validation columns of positions in dims (5, 4, 3):
    "shared", whose (i, j) pairs repeat within and across the two sets;
    "one-pair", every entry at one (i, j); "distinct", no (i, j) twice;
    "one-entry", one entry in each set, at one (i, j); and "no-validation",
    shared pairs and empty validation columns."""
    if case == "one-pair":
        ii, jj, kk = np.full(9, 3), np.full(9, 1), np.arange(9) % dims[2]
    elif case == "distinct":
        pairs = rng.permutation(dims[0] * dims[1])[:12]
        ii, jj, kk = pairs // dims[1], pairs % dims[1], rng.integers(0, dims[2], 12)
    elif case == "one-entry":
        ii, jj, kk = np.array([2, 2]), np.array([3, 3]), np.array([0, 2])
    else:
        ii, jj, kk = (rng.integers(0, d, 30) for d in (2, 2, dims[2]))
    values = rng.uniform(-1.0, 1.0, len(ii))
    n = len(ii) if case == "no-validation" else len(ii) // 2
    cols = [np.asarray(col, dtype=dtype) for col, dtype in zip((ii, jj, kk, values),
                                                                (np.int64,) * 3 + (np.float64,))]
    return [col[:n] for col in cols], [col[n:] for col in cols]


@pytest.mark.parametrize("case", ["shared", "one-pair", "distinct", "one-entry", "no-validation"])
@pytest.mark.parametrize("rank_tuple", ROUND_BUILDS, ids=["generic", "2-2-2-2-2-2", "5-5-5-2-2-2"])
def test_the_rounds_validation_sum_is_the_plain_loop_sum_bitwise(rank_tuple, case):
    # the round takes both sets' residuals in one pass grouped by (i, j), with
    # stage 1 once per pair; each sum must still add its squares in its own
    # set's entry order, as the plain loop and the ungrouped tw_loss do
    ranks = Ranks(r=(3, 2, 4), h=(2, 3, 1)) if rank_tuple is None else \
        Ranks(r=rank_tuple[:3], h=rank_tuple[3:])
    kernel = native() if rank_tuple is None else rank_build(ranks)
    rng = np.random.default_rng(41)
    dims = (5, 4, 3)
    f = TwdFactors(*(rng.uniform(-0.4, 0.4, s) for s in twd_core.factor_shapes(dims, ranks)),
                   dims, ranks)
    train_cols, valid_cols = shared_pair_columns(dims, case, rng)
    n = len(train_cols[3])
    state = PidState(n)
    run_round = kernel.bind_round(f, train_cols, (state.integral, state.prev_error),
                                  (0.01, 0.0, 1.0, 0.01, 0.001), valid_cols)
    for order in (np.empty(0, np.int64), rng.permutation(n)):  # no step, then an epoch's
        loss, squares = run_round(order)
        assert loss() == plain_loop_loss(f, train_cols, 0.0)
        assert squares() == plain_loop_loss(f, valid_cols, 0.0)
        assert squares() == ungrouped_loss(kernel, f, valid_cols, 0.0)
        assert (squares() == 0.0) == (case == "no-validation")
    # the training loss with its l2 term, against the ungrouped loss
    run_round = kernel.bind_round(f, train_cols, None, (0.05, 0.02, 1.0, 0.0, 0.0), valid_cols)
    loss, squares = run_round(np.empty(0, np.int64))
    assert loss() == ungrouped_loss(kernel, f, train_cols, 0.02)
    assert loss() == plain_loop_loss(f, train_cols, 0.02)


@pytest.mark.parametrize("rank_tuple", ROUND_BUILDS, ids=["generic", "2-2-2-2-2-2", "5-5-5-2-2-2"])
def test_a_round_whose_validation_residual_overflows_leaves_the_rmse_to_evaluate(rank_tuple):
    # each squared residual overflows, and shares its (i, j) with a training
    # entry: the sum is not finite, so validation_rmse takes evaluate's
    ranks = Ranks(r=(2, 2, 2), h=(2, 2, 2)) if rank_tuple is None else \
        Ranks(r=rank_tuple[:3], h=rank_tuple[3:])
    kernel = native() if rank_tuple is None else rank_build(ranks)
    f = init_factors((4, 3, 3), ranks, seed=2, scale=0.4)
    train_cols = columns(SparseTensor(f.dims, [0, 1, 3], [0, 2, 1], [0, 1, 2], [0.5, -0.2, 0.1]))
    valid = SparseTensor(f.dims, [0, 1, 3], [0, 2, 1], [1, 2, 0], [1e160, -1e160, 1e160])
    run_round = kernel.bind_round(f, train_cols, None, (0.05, 0.01, 1.0, 0.0, 0.0),
                                  columns(valid))
    loss, squares = run_round(np.array([2, 0, 1]))
    assert loss() == plain_loop_loss(f, train_cols, 0.01)  # the training sum is untouched
    with pytest.raises(DomainError, match="validation sum of squares is not finite"):
        squares()
    assert validation_rmse(f, valid, squares) == evaluate(f, valid).rmse
    assert validation_rmse(f, valid, squares) == pytest.approx(1e160, rel=1e-12)


@pytest.mark.parametrize("order", [[], [1, 0, 2], [2, 2, 0, 1, 0, 2, 1]],
                         ids=["empty", "n", "longer-with-repeats"])
@pytest.mark.parametrize("dtype", [np.int64, np.int32])
def test_a_round_runs_an_order_of_any_length_as_the_steps_do(order, dtype):
    # an order of the training length is copied into a buffer bound once;
    # others are passed as they are: each must run as steps runs it, again
    # and again, and leave the caller's array as it was
    f = init_factors((4, 3, 3), Ranks(r=(2, 2, 2), h=(2, 2, 2)), seed=3, scale=0.4)
    cols = columns(SparseTensor(f.dims, [0, 1, 3], [0, 2, 1], [0, 1, 2], [0.5, -0.2, 0.1]))
    gains = (0.05, 0.01, 1.0, 0.01, 0.001)
    copy, state, want_state = f.copy(), PidState(3), PidState(3)
    run_round = native().bind_round(f, cols, (state.integral, state.prev_error), gains, cols)
    given = np.array(order, dtype=dtype)
    for _ in range(3):
        loss, squares = run_round(given)
        native().steps(copy, cols, (want_state.integral, want_state.prev_error), gains,
                       np.array(order, dtype=np.int64))
        assert [getattr(f, name).tobytes() for name in "gabc"] == \
            [getattr(copy, name).tobytes() for name in "gabc"]
        assert state.integral.tobytes() == want_state.integral.tobytes()
        assert state.prev_error.tobytes() == want_state.prev_error.tobytes()
        assert (loss(), squares()) == (plain_loop_loss(copy, cols, 0.01),
                                       plain_loop_loss(copy, cols, 0.0))
    assert given.tolist() == order and given.dtype == dtype


def test_a_host_without_avx2_gets_the_baseline_flags(monkeypatch):
    ranks = Ranks(r=(5, 5, 5), h=(2, 2, 2))
    baseline = ["-O3", "-shared", "-fPIC", "-ffp-contract=off", "-DTW_RANK3=5",
                "-DTW_RANK4=5", "-DTW_RANK5=5", "-DTW_RANK6=2", "-DTW_RANK7=2", "-DTW_RANK8=2"]
    monkeypatch.setattr(twd_core, "host_avx2", lambda: False)
    assert twd_core.kernel_flags(ranks) == baseline
    key = hashlib.sha256(twd_core.KERNEL_SOURCE.read_bytes() + " ".join(baseline).encode())
    assert twd_core.library_path(ranks).name == f"{key.hexdigest()}.so"
    for avx2 in (False, True):  # the generic build, the fallback, is baseline on every host
        monkeypatch.setattr(twd_core, "host_avx2", lambda: avx2)
        assert twd_core.kernel_flags(None) == baseline[:4]
    assert twd_core.kernel_flags(ranks) == baseline[:4] + ["-mavx2"] + baseline[4:]


def test_a_rank_build_refuses_factors_of_other_ranks():
    ranks = Ranks(r=(2, 2, 2), h=(2, 2, 2))
    kernel = rank_build(ranks)
    cols = (np.zeros(1, np.int64),) * 3 + (np.ones(1),)
    for other in (Ranks(r=(2, 2, 2), h=(2, 2, 3)), Ranks(r=(1, 2, 2), h=(2, 2, 2))):
        f = init_factors((3, 3, 3), other, seed=0, scale=0.3)
        before = [getattr(f, name).copy() for name in "gabc"]
        for call in (lambda: kernel.steps(f, cols, None, (0.1, 0.01, 1.0, 0.0, 0.0),
                                          np.array([0])),
                     lambda: kernel.bind_round(f, cols, None, (0.1, 0.01, 1.0, 0.0, 0.0), EMPTY),
                     lambda: kernel.partials(f, 0, 0, 0)):
            with pytest.raises(ParameterError, match="built for ranks"):
                call()
        assert all(np.array_equal(getattr(f, name), was) for name, was in zip("gabc", before))
    f = init_factors((3, 3, 3), ranks, seed=0, scale=0.3)
    assert kernel.partials(f, 0, 0, 0)[0] == native().partials(f, 0, 0, 0)[0]


def test_kernel_source_compiles_without_warnings(tmp_path):
    if shutil.which(twd_core.CC) is None:
        pytest.skip("no C compiler")
    # the generic build, rank builds whose stages stay under or reach eight
    # outputs, and planted-small's and the manifest's train tuple: gcc
    # inlines reconstruct's callers and move_blocks its own way in each
    for ranks in (None, Ranks(r=(3, 2, 4), h=(2, 3, 1)), EIGHT_WIDE,
                  Ranks(r=(2, 2, 2), h=(2, 2, 2))):
        subprocess.run([twd_core.CC, *twd_core.kernel_flags(ranks), "-Wall", "-Wextra",
                        "-Werror", "-o", str(tmp_path / "kernel.so"),
                        str(twd_core.KERNEL_SOURCE)], check=True, capture_output=True)


def test_every_exported_kernel_function_has_one_argtype_per_parameter():
    # ctypes passes what argtypes lists: one type too few or too many and
    # every later argument lands in the wrong parameter
    lib = native()._lib
    source = twd_core.KERNEL_SOURCE.read_text()
    exported = re.findall(r"^\w[\w ]*\b(tw_\w+)\(([^)]*)\)\s*\{", source, flags=re.M)
    assert exported
    for name, params in exported:
        assert len(params.split(",")) == len(getattr(lib, name).argtypes or ()), name


def test_commands_that_do_not_train_never_load_the_kernel(tmp_path):
    # a fresh process: the synth -> evaluate path neither builds nor loads
    script = (
        "import sys\n"
        "from tensorwheel import cli, twd_core\n"
        "assert cli.main(['synth', '--dims', '4,4,3', '--output', 'o.txt',"
        " '--truth', 't.txt']) == 0\n"
        "assert cli.main(['evaluate', '--input', 'o.txt', '--checkpoint', 't.txt']) == 0\n"
        "sys.exit(twd_core._native is not twd_core._UNLOADED)\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env, check=True,
                   capture_output=True)
