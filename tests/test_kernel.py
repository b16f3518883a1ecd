"""Property tests of the staged contraction kernels in twd_core, and of
the native kernel beside the numpy one."""

import json
import os
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
    Entry,
    HyperParams,
    PidState,
    Ranks,
    SparseTensor,
    SplitSpec,
    SynthSpec,
    TwdFactors,
    compute_loss,
    generate,
    init_factors,
    oracle_entry,
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
from tensorwheel.pid_sgd import epoch_visit_order
from tensorwheel.twd_core import BATCH_CHUNK, block_partials, entry_blocks, entry_partials

RANK = st.integers(1, 4)
BATCH_SIZES = (st.sampled_from([1, BATCH_CHUNK - 1, BATCH_CHUNK, BATCH_CHUNK + 1,
                                2 * BATCH_CHUNK + 3])
               | st.integers(1, 3 * BATCH_CHUNK))


@st.composite
def factor_sets(draw, max_dim=6, rank=RANK):
    """Factors with random, often unequal, rank triples and values in [-1, 1)."""
    dims = tuple(draw(st.integers(1, max_dim)) for _ in range(3))
    ranks = Ranks(r=tuple(draw(rank) for _ in range(3)), h=tuple(draw(rank) for _ in range(3)))
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


@settings(max_examples=60, deadline=None)
@given(f=factor_sets(rank=st.integers(1, 5)), data=st.data())
def test_native_partials_sum_each_output_in_plain_loop_order(f, data):
    # the kernel sums several outputs per pass; each must still round as a
    # lone sum of its terms, in its stage's order, does
    i, j, k = (data.draw(st.integers(0, d - 1)) for d in f.dims)
    ours = native().partials(f, i, j, k)
    want = plain_loop_partials(*entry_blocks(f, i, j, k))
    assert ours[0] == want[0]
    for got, plain in zip(ours[1:], want[1:]):
        assert got.tobytes() == plain.tobytes()


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
    entries = [Entry(*(int(rng.integers(d)) for d in dims), float(rng.uniform(-1, 1)))
               for _ in range(3)]
    # values scaled so that a reconstruction is of order one at every rank
    start = init_factors(dims, Ranks(r=r, h=h), seed, 1.0 / max(*r, *h))
    runs = {}
    for name in ("native", "numpy"):
        f, state, diverged_at = start.copy(), PidState(len(entries)), None
        with pytest.MonkeyPatch.context() as mp, np.errstate(over="ignore", invalid="ignore"):
            if name == "numpy":
                mp.setattr(twd_core, "_native", None)
            for step in range(20):
                try:
                    sgd_step(f, entries[step % 3], step % 3, state, hp)
                except DivergenceError:
                    diverged_at = step
                    break
        runs[name] = f, state, diverged_at
    (ours, our_state, ours_at), (ref, ref_state, ref_at) = runs["native"], runs["numpy"]
    assert ours_at == ref_at
    for name in "gabc":
        want = getattr(ref, name)
        assert np.all(np.abs(getattr(ours, name) - want) <= 1e-12 * np.abs(want).max())
    assert np.allclose(our_state.integral, ref_state.integral, rtol=1e-12,
                       atol=1e-12 * np.abs(ref_state.integral).max(), equal_nan=True)


def columns(obs):
    return obs.ii, obs.jj, obs.kk, obs.values


def test_native_loss_of_one_entry_without_l2_is_its_squared_residual():
    f = init_factors((3, 4, 2), Ranks(r=(2, 3, 1), h=(3, 1, 2)), seed=5, scale=0.7)
    # slice norms that overflow, where lam = 0 must not read them
    skewed = TwdFactors(f.g, f.a * 1e160, f.b * 1e-160, f.c, f.dims, f.ranks)
    obs = SparseTensor(f.dims, [Entry(1, 3, 1, 0.25)])
    for factors in (f, skewed):
        want = (0.25 - reconstruct_entry(factors, 1, 3, 1)) ** 2
        assert native().loss(factors, columns(obs), 0.0)() == want


@settings(max_examples=60, deadline=None)
@given(f=factor_sets(rank=st.integers(1, 5)), n=st.integers(1, 30),
       lam=st.sampled_from([0.0, 0.01, 0.7]), seed=st.integers(0, 2**32 - 1))
def test_native_loss_matches_compute_loss(f, n, lam, seed):
    rng = np.random.default_rng(seed)
    ii, jj, kk = (rng.integers(0, d, n) for d in f.dims)
    keys = np.unique(np.stack([ii, jj, kk]), axis=1)  # distinct positions
    obs = SparseTensor.from_arrays(f.dims, *keys, rng.uniform(-1, 1, keys.shape[1]))
    ours, want = native().loss(f, columns(obs), lam)(), compute_loss(f, obs, lam)
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
    entries = tr.entries
    for _ in range(hp.max_epochs):
        for eid in epoch_visit_order(rng, len(tr)):
            sgd_step(replay, entries[eid], int(eid), state, hp)
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
            sgd_step(replay, tr.entries[eid], int(eid), state, hp)
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
    for entry in (Entry(3, 0, 0, 1.0), Entry(0, 4, 0, 1.0), Entry(0, 0, 2, 1.0),
                  Entry(-1, 0, 0, 1.0)):
        with pytest.raises(BoundsError):
            sgd_step(f, entry, 0, PidState(1), hp)
    for entry_id in (-1, 1):
        with pytest.raises(BoundsError):
            sgd_step(f, Entry(0, 0, 0, 1.0), entry_id, PidState(1), hp)
    for name in "gabc":
        assert getattr(f, name).tobytes() == getattr(before, name).tobytes()


def test_train_rejects_indices_outside_dims(kernel):
    observed, tr, va = planted_split()
    with pytest.raises(BoundsError):
        train(tr, va, (4, 4, 3), Ranks(r=(2, 2, 2), h=(2, 2, 2)), HyperParams(max_epochs=2))


@pytest.fixture
def fresh_loader(tmp_path, monkeypatch):
    """An empty kernel cache, and a loader that has not loaded yet."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(twd_core, "_native", twd_core._UNLOADED)
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


def test_kernel_source_compiles_without_warnings(tmp_path):
    if shutil.which(twd_core.CC) is None:
        pytest.skip("no C compiler")
    subprocess.run([twd_core.CC, *twd_core.CC_FLAGS, "-Wall", "-Wextra", "-Werror",
                    "-o", str(tmp_path / "kernel.so"), str(twd_core.KERNEL_SOURCE)],
                   check=True, capture_output=True)


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
