import math

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    holdout_set,
    init_factors,
    pid_error,
    plain_sgd_step,
    reconstruct_entry,
    sgd_step,
    split,
    train,
)
from tensorwheel import pid_sgd
from tensorwheel.pid_sgd import epoch_visit_order
from tensorwheel.twd_core import entry_partials

from records import entries


def scalar_factors(g, a, b, c):
    ranks = Ranks(r=(1, 1, 1), h=(1, 1, 1))
    return TwdFactors(np.full((1, 1, 1), g), np.full((1, 1, 1, 1), a),
                      np.full((1, 1, 1, 1), b), np.full((1, 1, 1, 1), c),
                      (1, 1, 1), ranks)


def proportional_hp(**kw):
    defaults = dict(eta=0.1, lam=0.0, cp=1.0, ci=0.0, cd=0.0, seed=0)
    defaults.update(kw)
    return HyperParams(**defaults)


# ----------------------------------------------------------- hyperparams

@pytest.mark.parametrize("bad", [
    dict(eta=0.0),
    dict(eta=-1.0),
    dict(lam=-0.1),
    dict(max_epochs=0),
    dict(patience=0),
    dict(init_scale=0.0),
    dict(seed=-1),
    dict(eta=float("nan")),
    dict(eta=float("inf")),
    dict(lam=float("inf")),
    dict(lam=float("nan")),
    dict(cp=float("nan")),
    dict(ci=float("inf")),
    dict(cd=float("nan")),
    dict(cd=float("-inf")),
    dict(init_scale=float("inf")),
    dict(init_scale=float("nan")),
    dict(eta=float("nan"), lam=float("inf"), cd=float("nan")),
])
def test_hyperparams_validation(bad):
    with pytest.raises(ParameterError):
        HyperParams(**bad)


@pytest.mark.parametrize("name", ["max_epochs", "patience", "seed"])
def test_hyperparams_refuse_counts_and_seeds_that_are_not_whole(name):
    with pytest.raises(ParameterError, match=f"{name} must be a whole number, got 2.5"):
        HyperParams(**{name: 2.5})
    for value in (float("nan"), float("inf")):
        with pytest.raises(ParameterError, match=f"{name} must be a whole number, got {value}"):
            HyperParams(**{name: value})
    hp = HyperParams(**{name: 2.0})
    assert getattr(hp, name) == 2 and type(getattr(hp, name)) is int


def test_hyperparams_defaults():
    hp = HyperParams()
    assert hp.eta == 0.01 and hp.lam == 0.01
    assert (hp.cp, hp.ci, hp.cd) == (1.0, 0.0, 0.001)
    assert hp.max_epochs == 1000 and hp.patience == 10
    assert hp.init_scale == 0.1


# ------------------------------------------------------------------ loss

def test_compute_loss_empty_obs():
    f = scalar_factors(1.0, 1.0, 1.0, 1.0)
    assert compute_loss(f, SparseTensor((1, 1, 1), []), 0.5) == 0.0


def test_compute_loss_perfect_fit():
    spec = SynthSpec(dims=(4, 4, 3), ranks=Ranks(r=(2, 2, 2), h=(2, 2, 2)),
                     density=0.5, noise_sigma=0.0, seed=8)
    observed, truth = generate(spec)
    assert compute_loss(truth, observed, 0.0) <= 1e-18


def test_compute_loss_hand_example():
    # one observation, all ranks 1, x=2 against x_hat=1, lambda=0.1:
    # (2-1)^2 + 0.1 * (1 + 1 + 1 + 1) = 1.4
    f = scalar_factors(1.0, 1.0, 1.0, 1.0)
    obs = SparseTensor((1, 1, 1), [0], [0], [0], [2.0])
    assert compute_loss(f, obs, 0.1) == pytest.approx(1.4, abs=1e-15)


def test_compute_loss_counts_core_per_observation():
    # two observations each contribute the full core norm
    ranks = Ranks(r=(1, 1, 1), h=(1, 1, 1))
    f = TwdFactors(np.full((1, 1, 1), 2.0), np.ones((1, 2, 1, 1)),
                   np.ones((1, 2, 1, 1)), np.ones((1, 2, 1, 1)), (2, 2, 2), ranks)
    obs = SparseTensor((2, 2, 2), [0, 1], [0, 1], [0, 1], [2.0, 2.0])
    # per obs: residual 0, reg = g^2 + 1 + 1 + 1 = 7 -> total 2 * 0.1 * 7
    assert compute_loss(f, obs, 0.1) == pytest.approx(1.4, abs=1e-14)


def test_compute_loss_bounds():
    f = scalar_factors(1.0, 1.0, 1.0, 1.0)
    obs = SparseTensor((2, 2, 2), [1], [1], [1], [1.0])
    with pytest.raises(BoundsError):
        compute_loss(f, obs, 0.0)


def test_compute_loss_overflow_raises_domain_error():
    # reconstructions that overflow float64: not inf after an overflow
    # warning (pytest turns warnings into failures)
    f = init_factors((3, 3, 3), Ranks(r=(2, 2, 2), h=(2, 2, 2)), 0, 1.0)
    big = TwdFactors(*(getattr(f, name) * 1e80 for name in "gabc"), f.dims, f.ranks)
    obs = SparseTensor((3, 3, 3), [0, 2], [1, 0], [2, 1], [1.0, -1.0])
    with pytest.raises(DomainError, match="loss is not finite"):
        compute_loss(big, obs, 0.01)


# ------------------------------------------------------------- pid error

def test_pid_error_proportional_only_is_identity():
    hp = proportional_hp()
    state = PidState(3)
    for e in (0.5, -0.25, 1.75, 0.0):
        assert pid_error(state, 1, e, hp) == e


def test_pid_error_derivative_hand_example():
    # cp=1, ci=0, cd=0.001, prev 0.5, current 0.4:
    # 0.4 + 0.001 * (0.4 - 0.5) = 0.3999
    hp = proportional_hp(cd=0.001)
    state = PidState(1)
    pid_error(state, 0, 0.5, hp)
    assert pid_error(state, 0, 0.4, hp) == pytest.approx(0.3999, abs=1e-15)


def test_pid_error_integral_hand_example():
    # cp=1, ci=0.1, cd=0, visits 0.2 then 0.1:
    # second composite = 0.1 + 0.1 * (0.2 + 0.1) = 0.13
    hp = proportional_hp(ci=0.1)
    state = PidState(1)
    first = pid_error(state, 0, 0.2, hp)
    assert first == pytest.approx(0.2 + 0.1 * 0.2, abs=1e-15)
    second = pid_error(state, 0, 0.1, hp)
    assert second == pytest.approx(0.13, abs=1e-15)


def test_pid_error_first_visit_derivative_uses_zero():
    hp = proportional_hp(cd=0.5)
    state = PidState(1)
    assert pid_error(state, 0, 0.4, hp) == pytest.approx(0.4 + 0.5 * 0.4, abs=1e-15)


def test_pid_error_state_bookkeeping():
    hp = proportional_hp(ci=1.0, cd=1.0)
    state = PidState(2)
    pid_error(state, 0, 0.5, hp)
    pid_error(state, 0, 0.25, hp)
    pid_error(state, 1, -1.0, hp)
    assert state.integral[0] == pytest.approx(0.75)
    assert state.prev_error[0] == 0.25
    assert state.integral[1] == -1.0


def test_pid_error_bounds():
    with pytest.raises(BoundsError):
        pid_error(PidState(2), 2, 0.1, proportional_hp())


# -------------------------------------------------------------- sgd step

def test_sgd_step_null_update():
    # zero residual with lambda 0 leaves every parameter bitwise unchanged
    f = scalar_factors(1.0, 1.0, 1.0, 1.0)
    before = f.copy()
    sgd_step(f, SparseTensor((1, 1, 1), [0], [0], [0], [1.0]), 0, PidState(1), proportional_hp())
    for name in "gabc":
        assert np.array_equal(getattr(f, name), getattr(before, name))


def test_sgd_step_scalar_hand_example():
    # all-ranks-1, g=a=b=c=1, x=2 -> e=1, eta=0.1, lambda=0:
    # every parameter moves to 1 + 0.1 * 1 = 1.1
    f = scalar_factors(1.0, 1.0, 1.0, 1.0)
    sgd_step(f, SparseTensor((1, 1, 1), [0], [0], [0], [2.0]), 0, PidState(1), proportional_hp())
    for name in "gabc":
        assert getattr(f, name).item() == pytest.approx(1.1, abs=1e-15)


def test_sgd_step_only_touched_slices_change():
    ranks = Ranks(r=(2, 2, 2), h=(2, 2, 2))
    f = init_factors((4, 4, 4), ranks, seed=5, scale=1.0)
    before = f.copy()
    sgd_step(f, SparseTensor((4, 4, 4), [1], [2], [3], [0.7]), 0, PidState(1),
             proportional_hp(lam=0.05))
    assert not np.array_equal(f.g, before.g)
    for name, touched in (("a", 1), ("b", 2), ("c", 3)):
        arr, prev = getattr(f, name), getattr(before, name)
        for idx in range(4):
            same = np.array_equal(arr[:, idx], prev[:, idx])
            assert same == (idx != touched)


def test_sgd_step_matches_finite_differences():
    # each applied increment equals -eta * (1/2 gradient of the
    # single-observation loss), checked by central differences
    rng = np.random.default_rng(42)
    step = 1e-6
    worst = 0.0
    for trial in range(50):
        dims = tuple(int(d) for d in rng.integers(2, 5, 3))
        ranks = Ranks(r=tuple(int(x) for x in rng.integers(1, 4, 3)),
                      h=tuple(int(x) for x in rng.integers(1, 4, 3)))
        lam = float(rng.choice([0.0, 0.01]))
        eta = 0.05
        f = init_factors(dims, ranks, seed=int(rng.integers(2**31)), scale=1.0)
        for arr in (f.g, f.a, f.b, f.c):
            arr *= 0.9
            arr += 0.1  # magnitudes in [0.1, 1]
        i, j, k = (int(rng.integers(d)) for d in dims)
        obs = SparseTensor(dims, [i], [j], [k], [float(rng.uniform(-1, 1))])

        before = f.copy()
        sgd_step(f, obs, 0, PidState(1),
                 proportional_hp(eta=eta, lam=lam))

        def loss_with(name, full_idx, delta):
            probe = before.copy()
            getattr(probe, name)[full_idx] += delta
            return compute_loss(probe, obs, lam)

        for name, sel in (("g", None), ("a", i), ("b", j), ("c", k)):
            block = getattr(before, name) if sel is None else getattr(before, name)[:, sel]
            for idx in np.ndindex(block.shape):
                full_idx = idx if sel is None else (idx[0], sel, *idx[1:])
                grad = (loss_with(name, full_idx, step)
                        - loss_with(name, full_idx, -step)) / (2 * step)
                expected = -eta * 0.5 * grad
                actual = getattr(f, name)[full_idx] - getattr(before, name)[full_idx]
                rel = abs(actual - expected) / max(abs(expected), 1e-12)
                worst = max(worst, rel)
    assert worst < 1e-4


def test_plain_step_equals_pid_step_at_reduction_gains():
    ranks = Ranks(r=(2, 2, 2), h=(2, 2, 2))
    hp = proportional_hp(lam=0.01)
    f1 = init_factors((3, 3, 3), ranks, seed=7, scale=0.3)
    f2 = f1.copy()
    obs = SparseTensor((3, 3, 3), [1], [0], [2], [0.9])
    sgd_step(f1, obs, 0, PidState(1), hp)
    plain_sgd_step(f2, obs, 0, hp)
    for name in "gabc":
        assert np.array_equal(getattr(f1, name), getattr(f2, name))


def per_block_step(f, obs, entry_id, state, hp):
    """The update as four per-block expressions, each block updated in
    place and checked after all four moved: the reference the fused step
    must match bit for bit.  ``state`` None is the plain step."""
    i, j, k, value = entries(obs)[entry_id]
    x_hat, t_g, t_a, t_b, t_c = entry_partials(f, i, j, k)
    e_t = value - x_hat
    if state is not None:
        e_t = pid_error(state, entry_id, e_t, hp)
    blocks = ((f.g, t_g), (f.a[:, i], t_a), (f.b[:, j], t_b), (f.c[:, k], t_c))
    for view, t in blocks:
        view += hp.eta * (e_t * t - hp.lam * view)
    if not math.isfinite(e_t):
        raise DivergenceError(entry_id)
    for view, _ in blocks:
        if not np.isfinite(view).all():
            raise DivergenceError(entry_id)


GAINS = st.sampled_from([0.0, 1.0, 0.5, 0.01, 0.001]) | st.floats(-2.0, 2.0)


@settings(max_examples=60, deadline=None)
@given(dims=st.tuples(*[st.integers(1, 5)] * 3),
       r=st.tuples(*[st.integers(1, 4)] * 3), h=st.tuples(*[st.integers(1, 4)] * 3),
       lam=st.sampled_from([0.0, 0.01]), eta=st.sampled_from([0.01, 0.05, 0.2]),
       cp=GAINS, ci=GAINS, cd=GAINS, seed=st.integers(0, 2**32 - 1))
# a rank of 1 makes numpy multiply a matrix by a strided vector, whose
# rounding in BLAS depends on the stride: the partials must come from the
# factors' own views, not from a gathered copy
@example(dims=(1, 2, 1), r=(3, 1, 1), h=(4, 1, 4), lam=0.0, eta=0.05, cp=1.0, ci=0.0, cd=0.0,
         seed=0)
def test_fused_step_equals_the_per_block_update(dims, r, h, lam, eta, cp, ci, cd, seed):
    ranks = Ranks(r=r, h=h)
    hp = HyperParams(eta=eta, lam=lam, cp=cp, ci=ci, cd=cd)
    rng = np.random.default_rng(seed)
    draws = [(*(int(rng.integers(d)) for d in dims), float(rng.uniform(-1, 1)))
             for _ in range(3)]
    # a set and a PID state of one entry per draw, as two draws may share a position
    sets = [SparseTensor(dims, [i], [j], [k], [v]) for i, j, k, v in draws]
    start = init_factors(dims, ranks, seed, 0.3)
    fused_states, ref_states = [PidState(1) for _ in sets], [PidState(1) for _ in sets]
    arms = ((lambda f, d: sgd_step(f, sets[d], 0, fused_states[d], hp),
             lambda f, d: per_block_step(f, sets[d], 0, ref_states[d], hp)),
            (lambda f, d: plain_sgd_step(f, sets[d], 0, hp),
             lambda f, d: per_block_step(f, sets[d], 0, None, hp)))
    for fused_step, ref_step in arms:
        fused, ref = start.copy(), start.copy()
        for step in range(8):  # entries repeat, so the PID state carries over
            d = step % len(sets)
            diverged = [diverges(step_fn, f, d)
                        for step_fn, f in ((fused_step, fused), (ref_step, ref))]
            assert diverged[0] == diverged[1]
            if diverged[0]:
                break  # the reference wrote the diverged blocks; the fused step did not
            for name in "gabc":
                assert getattr(fused, name).tobytes() == getattr(ref, name).tobytes()
    assert ([s.integral.tobytes() for s in fused_states]
            == [s.integral.tobytes() for s in ref_states])


def diverges(step_fn, f, d):
    """Run one step on draw d; whether it raised DivergenceError."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            step_fn(f, d)
    except DivergenceError:
        return True
    return False


def test_diverging_step_leaves_the_factors_unchanged():
    ranks = Ranks(r=(2, 2, 2), h=(2, 2, 2))
    f = init_factors((3, 3, 3), ranks, seed=1, scale=1.0)
    before = f.copy()
    state = PidState(1)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as err:
        sgd_step(f, SparseTensor((3, 3, 3), [1], [2], [0], [1e300]), 0, state,
                 proportional_hp(eta=1e10))
    assert err.value.entry_id == 0
    for name in "gabc":
        assert getattr(f, name).tobytes() == getattr(before, name).tobytes()


# ----------------------------------------------------------------- train

def small_planted(seed=0, dims=(8, 8, 6), density=0.4):
    spec = SynthSpec(dims=dims, ranks=Ranks(r=(2, 2, 2), h=(2, 2, 2)),
                     density=density, noise_sigma=0.0, seed=seed)
    return generate(spec)


def test_train_rejects_empty_training_set():
    empty = SparseTensor((2, 2, 2), [])
    with pytest.raises(ParameterError):
        train(empty, empty, (2, 2, 2), Ranks(r=(1, 1, 1), h=(1, 1, 1)),
              HyperParams())


def test_train_single_epoch():
    observed, _ = small_planted()
    tr, va, _ = split(observed, SplitSpec(ratios=(8, 2, 0), seed=0))
    hp = HyperParams(eta=0.05, lam=0.0, max_epochs=1, seed=0)
    factors, report = train(tr, va, observed.dims, Ranks(r=(2, 2, 2), h=(2, 2, 2)), hp)
    assert report.epochs_run == 1
    assert len(report.loss_history) == 1
    assert len(report.valid_rmse_history) == 1
    assert report.converged_at == 0


def test_train_deterministic_bitwise():
    observed, _ = small_planted()
    tr, va, _ = split(observed, SplitSpec(ratios=(8, 2, 0), seed=1))
    ranks = Ranks(r=(2, 2, 2), h=(2, 2, 2))
    hp = HyperParams(eta=0.05, lam=0.001, max_epochs=15, seed=3)
    f1, r1 = train(tr, va, observed.dims, ranks, hp)
    f2, r2 = train(tr, va, observed.dims, ranks, hp)
    assert r1.loss_history == r2.loss_history
    assert r1.valid_rmse_history == r2.valid_rmse_history
    assert r1.converged_at == r2.converged_at
    for name in "gabc":
        assert np.array_equal(getattr(f1, name), getattr(f2, name))


def test_train_divergence_reports_epoch_and_entry():
    observed, _ = small_planted()
    tr, va, _ = split(observed, SplitSpec(ratios=(8, 2, 0), seed=0))
    hp = HyperParams(eta=5000.0, lam=0.0, max_epochs=10, seed=0)
    with pytest.raises(DivergenceError) as err:
        train(tr, va, observed.dims, Ranks(r=(2, 2, 2), h=(2, 2, 2)), hp)
    assert err.value.epoch is not None
    assert "epoch" in str(err.value) and "entry" in str(err.value)


def test_train_divergence_carries_eta_and_the_last_finite_norms():
    observed, _ = small_planted()
    tr, va, _ = split(observed, SplitSpec(ratios=(8, 2, 0), seed=0))
    ranks = Ranks(r=(2, 2, 2), h=(2, 2, 2))
    hp = HyperParams(eta=5000.0, lam=0.0, max_epochs=10, seed=0)
    with pytest.raises(DivergenceError) as err:
        train(tr, va, observed.dims, ranks, hp)
    failed = err.value
    assert failed.eta == 5000.0 and failed.entry_id is not None
    assert sorted(failed.norms) == ["a", "b", "c", "g"]
    assert all(math.isfinite(v) for v in failed.norms.values())
    # replay the run up to the failing step: the norms are of the factors
    # before it, and the failing step leaves them unchanged
    factors = init_factors(observed.dims, ranks, hp.seed, hp.init_scale)
    state, rng = PidState(len(tr)), np.random.default_rng(hp.seed)
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(failed.epoch + 1):
            for eid in epoch_visit_order(rng, len(tr)):
                if (epoch, eid) == (failed.epoch, failed.entry_id):
                    break
                sgd_step(factors, tr, int(eid), state, hp)
        assert factors.norms() == failed.norms
        before = factors.copy()
        with pytest.raises(DivergenceError):
            sgd_step(factors, tr, failed.entry_id, state, hp)
    for name in "gabc":
        assert getattr(factors, name).tobytes() == getattr(before, name).tobytes()


def test_train_non_finite_loss_is_divergence():
    # every step stays finite, but the epoch's loss overflows to inf
    observed, _ = small_planted(seed=2)
    tr, va, _ = split(observed, SplitSpec(ratios=(1, 2, 7), seed=0))
    hp = HyperParams(eta=200.0, lam=0.01, max_epochs=1, seed=0)
    with pytest.raises(DivergenceError) as err:
        train(tr, va, observed.dims, Ranks(r=(2, 2, 2), h=(2, 2, 2)), hp)
    assert (err.value.epoch, err.value.entry_id) == (0, None)
    assert "non-finite loss" in str(err.value)


def test_train_non_finite_validation_rmse_is_divergence(monkeypatch):
    observed, _ = small_planted()
    tr, va, _ = split(observed, SplitSpec(ratios=(8, 2, 0), seed=0))

    def overflowing(f, obs, squares):  # as metrics.evaluate fails where a metric is not finite
        raise DomainError("rmse is not finite: a residual overflows float64")
    monkeypatch.setattr(pid_sgd, "validation_rmse", overflowing)
    hp = HyperParams(eta=0.05, lam=0.0, max_epochs=3, seed=0)
    with pytest.raises(DivergenceError) as err:
        train(tr, va, observed.dims, Ranks(r=(2, 2, 2), h=(2, 2, 2)), hp)
    assert (err.value.epoch, err.value.entry_id) == (0, None)
    assert "validation RMSE" in str(err.value)


def test_train_without_validation_runs_max_epochs():
    observed, _ = small_planted()
    tr, _, _ = split(observed, SplitSpec(ratios=(1, 0, 0), seed=0))
    empty = SparseTensor(observed.dims, [])
    hp = HyperParams(eta=0.05, lam=0.0, max_epochs=7, seed=0)
    factors, report = train(tr, empty, observed.dims,
                            Ranks(r=(2, 2, 2), h=(2, 2, 2)), hp)
    assert report.epochs_run == 7
    assert report.valid_rmse_history == []
    assert report.converged_at == 6


def test_train_early_stopping_respects_patience():
    observed, _ = small_planted()
    tr, va, _ = split(observed, SplitSpec(ratios=(8, 2, 0), seed=0))
    hp = HyperParams(eta=0.1, lam=0.0, max_epochs=1000, patience=5, seed=0)
    factors, report = train(tr, va, observed.dims, Ranks(r=(2, 2, 2), h=(2, 2, 2)), hp)
    assert report.epochs_run < 1000
    assert report.epochs_run == report.converged_at + 1 + 5
    # returned factors are the best-validation checkpoint
    best = min(report.valid_rmse_history)
    assert report.valid_rmse_history[report.converged_at] == best
    assert evaluate(factors, va).rmse == pytest.approx(best, abs=1e-15)


def test_train_returns_the_best_epoch_factors_bitwise():
    # validation only decides when to stop, so a run without it that ends at
    # the best epoch holds that epoch's factors as its live ones
    observed, _ = small_planted()
    tr, va, _ = split(observed, SplitSpec(ratios=(8, 2, 0), seed=0))
    ranks = Ranks(r=(2, 2, 2), h=(2, 2, 2))
    hp = HyperParams(eta=0.1, lam=0.0, max_epochs=1000, patience=5, seed=0)
    factors, report = train(tr, va, observed.dims, ranks, hp)
    assert 0 < report.converged_at < report.epochs_run - 1
    cut = HyperParams(eta=0.1, lam=0.0, max_epochs=report.converged_at + 1, seed=0)
    live, _ = train(tr, SparseTensor(observed.dims, []), observed.dims, ranks, cut)
    for name in "gabc":
        assert getattr(factors, name).tobytes() == getattr(live, name).tobytes()


def test_a_validation_tie_neither_moves_the_best_epoch_nor_resets_patience(monkeypatch):
    # epochs 2 and 5 tie the best so far, so the best epoch stays 1 and then 4,
    # and patience 3 runs out at epoch 7, three epochs after epoch 4
    observed, _ = small_planted()
    tr, va, _ = split(observed, SplitSpec(ratios=(8, 2, 0), seed=0))
    ranks = Ranks(r=(2, 2, 2), h=(2, 2, 2))
    rmses = iter([3.0, 2.0, 2.0, 2.5, 1.0, 1.0, 1.0, 1.0, 0.5])
    monkeypatch.setattr(pid_sgd, "validation_rmse", lambda f, obs, squares: next(rmses))
    hp = HyperParams(eta=0.1, lam=0.0, max_epochs=9, patience=3, seed=0)
    factors, report = train(tr, va, observed.dims, ranks, hp)
    assert (report.epochs_run, report.converged_at) == (8, 4)
    assert report.valid_rmse_history == [3.0, 2.0, 2.0, 2.5, 1.0, 1.0, 1.0, 1.0]
    cut = HyperParams(eta=0.1, lam=0.0, max_epochs=5, seed=0)
    live, _ = train(tr, SparseTensor(observed.dims, []), observed.dims, ranks, cut)
    for name in "gabc":
        assert getattr(factors, name).tobytes() == getattr(live, name).tobytes()


def test_train_no_early_stop_flag():
    observed, _ = small_planted()
    tr, va, _ = split(observed, SplitSpec(ratios=(8, 2, 0), seed=0))
    hp = HyperParams(eta=0.1, lam=0.0, max_epochs=40, patience=3, seed=0)
    _, report = train(tr, va, observed.dims, Ranks(r=(2, 2, 2), h=(2, 2, 2)), hp,
                      early_stop=False)
    assert report.epochs_run == 40


def test_pid_reduction_trajectory_bitwise():
    # gains (1, 0, 0) must reproduce the plain-SGD path exactly
    observed, _ = small_planted(seed=2)
    tr, va, _ = split(observed, SplitSpec(ratios=(8, 2, 0), seed=2))
    ranks = Ranks(r=(2, 2, 2), h=(2, 2, 2))
    hp = HyperParams(eta=0.05, lam=0.01, cp=1.0, ci=0.0, cd=0.0,
                     max_epochs=12, seed=2)
    f_pid, r_pid = train(tr, va, observed.dims, ranks, hp, pid=True, early_stop=False)
    f_plain, r_plain = train(tr, va, observed.dims, ranks, hp, pid=False, early_stop=False)
    assert r_pid.loss_history == r_plain.loss_history
    assert r_pid.valid_rmse_history == r_plain.valid_rmse_history
    for name in "gabc":
        assert np.array_equal(getattr(f_pid, name), getattr(f_plain, name))


def test_integral_replay():
    # the PID integral of every entry equals the per-entry error sums
    # accumulated independently while replaying the same seeded run
    observed, _ = small_planted(seed=4, dims=(6, 6, 4))
    tr, _, _ = split(observed, SplitSpec(ratios=(1, 0, 0), seed=4))
    ranks = Ranks(r=(2, 2, 2), h=(2, 2, 2))
    hp = HyperParams(eta=0.05, lam=0.001, cp=1.0, ci=0.01, cd=0.001, seed=4)
    n = len(tr)
    epochs = 5

    factors = init_factors(observed.dims, ranks, hp.seed, hp.init_scale)
    state = PidState(n)
    rng = np.random.default_rng(hp.seed)
    for _ in range(epochs):
        for eid in epoch_visit_order(rng, n):
            sgd_step(factors, tr, int(eid), state, hp)

    replay_factors = init_factors(observed.dims, ranks, hp.seed, hp.init_scale)
    replay_state = PidState(n)
    replay_rng = np.random.default_rng(hp.seed)
    sums = np.zeros(n)
    records = entries(tr)
    for _ in range(epochs):
        for eid in epoch_visit_order(replay_rng, n):
            e = records[eid]
            sums[eid] += e.value - reconstruct_entry(replay_factors, e.i, e.j, e.k)
            sgd_step(replay_factors, tr, int(eid), replay_state, hp)

    assert np.array_equal(state.integral, sums)


def test_training_loss_mostly_decreases():
    # noise-free planted data, small eta, lambda 0: descent in >= 95% of epochs
    observed, _ = small_planted(seed=6)
    tr, _, _ = split(observed, SplitSpec(ratios=(1, 0, 0), seed=6))
    empty = SparseTensor(observed.dims, [])
    hp = HyperParams(eta=0.01, lam=0.0, max_epochs=100, seed=6)
    _, report = train(tr, empty, observed.dims, Ranks(r=(2, 2, 2), h=(2, 2, 2)), hp)
    losses = np.array(report.loss_history)
    decreasing = np.sum(np.diff(losses) <= 0)
    assert decreasing >= 0.95 * (len(losses) - 1)


def test_planted_recovery_quick():
    observed, truth = small_planted(seed=0)
    held = holdout_set(observed, truth)
    tr, va, _ = split(observed, SplitSpec(ratios=(9, 1, 0), seed=0))
    hp = HyperParams(eta=0.1, lam=0.0, max_epochs=400, seed=0)
    factors, _ = train(tr, va, observed.dims, Ranks(r=(2, 2, 2), h=(2, 2, 2)), hp)
    assert evaluate(factors, held).rmse < 0.05
