"""PID-controlled stochastic gradient descent for tensor wheel factors.

The trainer minimizes the density-oriented squared-residual loss over the
observed entries, with L2 terms on the core and the factor slices each
observation touches.  Instead of feeding the raw residual into the SGD
update, each training entry keeps a PID accumulator: the update is driven
by a weighted mix of the current residual (proportional), the running sum
of that entry's residuals across its visits (integral), and the change
since its previous visit (derivative).  Proportional-only settings
(cp=1, ci=0, cd=0) reduce exactly to plain SGD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BoundsError, DivergenceError, DomainError, ParameterError
from .metrics import evaluate
from .tensor_store import Entry, SparseTensor
from .twd_core import (Ranks, TwdFactors, block_partials, check_index, entry_blocks,
                       finite_loss, init_factors, native_kernel, reconstruct_entries,
                       scatter_blocks, training_kernel)


@dataclass(frozen=True)
class HyperParams:
    """Training configuration.

    eta is the SGD learning rate, lam the L2 coefficient, (cp, ci, cd)
    the proportional/integral/derivative gains.  patience counts
    validation epochs without improvement before early stop.
    """

    eta: float = 0.01
    lam: float = 0.01
    cp: float = 1.0
    ci: float = 0.0
    cd: float = 0.001
    max_epochs: int = 1000
    patience: int = 10
    seed: int = 0
    init_scale: float = 0.1

    def __post_init__(self):
        for name in ("eta", "lam", "cp", "ci", "cd", "init_scale"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value}")
        if self.eta <= 0:
            raise ParameterError(f"eta must be > 0, got {self.eta}")
        if self.lam < 0:
            raise ParameterError(f"lambda must be >= 0, got {self.lam}")
        if self.max_epochs < 1:
            raise ParameterError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.patience < 1:
            raise ParameterError(f"patience must be >= 1, got {self.patience}")
        if self.init_scale <= 0:
            raise ParameterError(f"init_scale must be > 0, got {self.init_scale}")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")


class PidState:
    """Per-training-entry error history.

    integral[e] is the sum of all residuals observed for entry e so far
    (current visit included), prev_error[e] the residual of its previous
    visit (0 before the first).
    """

    def __init__(self, n_entries: int):
        self.integral = np.zeros(n_entries)
        self.prev_error = np.zeros(n_entries)

    def __len__(self):
        return len(self.integral)


@dataclass
class TrainReport:
    """Per-epoch training trace.

    valid_rmse_history is empty when training ran without a validation
    set; otherwise both histories have length epochs_run.
    """

    loss_history: list[float] = field(default_factory=list)
    valid_rmse_history: list[float] = field(default_factory=list)
    epochs_run: int = 0
    converged_at: int = 0


def compute_loss(f: TwdFactors, obs: SparseTensor, lam: float) -> float:
    """Regularized loss over an observation set.

    Sum over observed entries of the squared residual plus lam times the
    squared norms of the core tensor and of the factor slices the entry
    touches (i-slice of a, j-slice of b, k-slice of c).  lam=0 gives the
    pure density-oriented objective.  Empty observation sets cost 0.  A
    loss that overflows raises DomainError.
    """
    n = len(obs)
    if n == 0:
        return 0.0
    ii, jj, kk = obs.ii, obs.jj, obs.kk
    with np.errstate(over="ignore", invalid="ignore"):
        preds = reconstruct_entries(f, ii, jj, kk)
        loss = float(np.sum((obs.values - preds) ** 2))
        if lam != 0.0:
            g_norm = float(np.sum(f.g ** 2))
            a_norms = np.sum(f.a ** 2, axis=(0, 2, 3))
            b_norms = np.sum(f.b ** 2, axis=(0, 2, 3))
            c_norms = np.sum(f.c ** 2, axis=(0, 2, 3))
            reg = n * g_norm + float(np.sum(a_norms[ii]) + np.sum(b_norms[jj])
                                     + np.sum(c_norms[kk]))
            loss += lam * reg
    return finite_loss(loss)


def pid_error(state: PidState, entry_id: int, e_n: float, hp: HyperParams) -> float:
    """Fold the instantaneous residual e_n into the PID state and return
    the composite error cp*e_n + ci*sum_of_visits + cd*(e_n - previous).

    The integral includes e_n itself; on the first visit the previous
    error counts as 0.
    """
    if not 0 <= entry_id < len(state):
        raise BoundsError(f"entry id {entry_id} outside state of size {len(state)}")
    integral = state.integral[entry_id] + e_n
    state.integral[entry_id] = integral
    composite = hp.cp * e_n + hp.ci * integral + hp.cd * (e_n - state.prev_error[entry_id])
    state.prev_error[entry_id] = e_n
    return composite


def _pid_arrays(state: PidState | None):
    return None if state is None else (state.integral, state.prev_error)


def _gains(hp: HyperParams) -> tuple:
    return hp.eta, hp.lam, hp.cp, hp.ci, hp.cd


def sgd_step(f: TwdFactors, entry: Entry, entry_id: int, state: PidState | None,
             hp: HyperParams) -> None:
    """One PID-guided SGD step on a single observation (in place); with
    ``state`` None, the plain SGD step, driven by the raw residual.

    Every partial is taken before any write (Jacobi-style within the
    step).  The four blocks the entry touches are gathered into one
    vector p, p moves by one expression, and p is written back only if
    it and the driving error are finite: a diverging step raises
    DivergenceError and leaves f as it was, with the PID state folded.
    Runs the native kernel when it is loaded, else ``_numpy_step``.
    """
    check_index(f, entry.i, entry.j, entry.k)
    if state is not None and not 0 <= entry_id < len(state):
        raise BoundsError(f"entry id {entry_id} outside state of size {len(state)}")
    kernel = native_kernel()
    if kernel is None:
        _numpy_step(f, entry.i, entry.j, entry.k, entry.value, entry_id, state, hp)
    else:
        kernel.step(f, entry.i, entry.j, entry.k, entry.value, entry_id, _pid_arrays(state),
                    _gains(hp))


def _numpy_step(f: TwdFactors, i: int, j: int, k: int, value: float, entry_id: int,
                state: PidState | None, hp: HyperParams) -> None:
    """``sgd_step`` in numpy, on checked indices; the caller silences
    numpy's overflow warnings for it."""
    blocks = entry_blocks(f, i, j, k)
    x_hat, *partials = block_partials(*blocks)
    e_t = value - x_hat
    if state is not None:
        e_t = pid_error(state, entry_id, e_t, hp)
    p = np.concatenate(blocks, axis=None)
    p += hp.eta * (e_t * np.concatenate(partials, axis=None) - hp.lam * p)
    if not (math.isfinite(e_t) and np.isfinite(p).all()):
        raise DivergenceError(entry_id)
    scatter_blocks(p, blocks)


def plain_sgd_step(f: TwdFactors, entry: Entry, entry_id: int, hp: HyperParams) -> None:
    """One plain SGD step: the raw residual drives the update directly,
    with no PID bookkeeping.  Reference path for the reduction check."""
    sgd_step(f, entry, entry_id, None, hp)


def epoch_visit_order(rng: np.random.Generator, n_entries: int) -> np.ndarray:
    """Visit order for one epoch: a fresh permutation from the trainer's
    order generator.  Exposed so tests can replay training runs."""
    return rng.permutation(n_entries)


def _epoch_runner(f: TwdFactors, train_set: SparseTensor, state: PidState | None,
                  hp: HyperParams):
    """The function that runs one epoch's steps over a visit order: one
    call into the native kernel built for f's ranks when it is loaded, else
    a loop of numpy steps.  It raises DivergenceError at the first step
    that diverges."""
    columns = (train_set.ii, train_set.jj, train_set.kk, train_set.values)
    kernel = training_kernel(f.ranks)
    if kernel is not None:
        return kernel.epoch(f, columns, _pid_arrays(state), _gains(hp))
    ii, jj, kk, values = (col.tolist() for col in columns)

    def run(order):
        for e in order.tolist():
            _numpy_step(f, ii[e], jj[e], kk[e], values[e], e, state, hp)
    return run


def _loss_runner(f: TwdFactors, train_set: SparseTensor, lam: float):
    """The function that returns the epoch's training loss: one call into
    the native kernel built for f's ranks when it is loaded, else
    ``compute_loss``.  Either raises DomainError where the loss overflows."""
    kernel = training_kernel(f.ranks)
    if kernel is not None:
        return kernel.loss(f, (train_set.ii, train_set.jj, train_set.kk, train_set.values), lam)
    return lambda: compute_loss(f, train_set, lam)


def train(train_set: SparseTensor, valid_set: SparseTensor, dims, ranks: Ranks,
          hp: HyperParams, pid: bool = True,
          early_stop: bool = True) -> tuple[TwdFactors, TrainReport]:
    """Fit tensor wheel factors to the training set by (PID-)SGD.

    Factors start from ``init_factors(dims, ranks, hp.seed, hp.init_scale)``;
    each epoch visits every training entry once in a seeded shuffled
    order.  After each epoch the regularized training loss is recorded,
    and, when a validation set is given, its RMSE; training stops at
    hp.max_epochs or (with early_stop) once validation RMSE has not
    improved for hp.patience consecutive epochs.  The returned factors
    are the checkpoint from the best-validation epoch.  A non-finite
    factor, loss or validation RMSE raises DivergenceError with the
    epoch, hp.eta and the norms of the last finite factors.  Each
    epoch's steps, and its loss, run in one call each into the native
    kernel built for ``ranks`` when it is loaded
    (``twd_core.training_kernel``), else as numpy steps and
    ``compute_loss``; the validation RMSE is numpy's ``evaluate`` on
    either.

    Args:
        train_set: observed entries to fit; must be non-empty, with
            indices inside dims (else BoundsError).
        valid_set: held-out entries for stopping/model selection; may be
            empty, in which case stopping uses max_epochs only and the
            final factors are returned.
        dims: tensor dimensions (I, J, K).
        ranks: ring and core-link ranks.
        hp: hyperparameters.
        pid: when False, run the plain-SGD reference path (no PID state).
        early_stop: when False, always run the full max_epochs.

    Returns:
        (factors, report); report.converged_at is the 0-based epoch index
        of the best validation RMSE (last epoch when no validation set).
    """
    n = len(train_set)
    if n == 0:
        raise ParameterError("training set is empty")
    factors = init_factors(dims, ranks, hp.seed, hp.init_scale)
    # the store keeps indices >= 0; only dims smaller than the data's can fail
    for col, dim in zip((train_set.ii, train_set.jj, train_set.kk), factors.dims):
        if col.max() >= dim:
            raise BoundsError(f"training indices outside dims {factors.dims}")
    state = PidState(n) if pid else None
    order_rng = np.random.default_rng(hp.seed)
    run_epoch = _epoch_runner(factors, train_set, state, hp)
    epoch_loss = _loss_runner(factors, train_set, hp.lam)
    use_valid = len(valid_set) > 0

    report = TrainReport()
    best_rmse = np.inf
    best_epoch = 0
    # the best epoch's g, a, b and c are copied in place, and checked once, at return
    arrays = (factors.g, factors.a, factors.b, factors.c)  # written in place by every epoch
    best = [np.empty_like(x) for x in arrays] if use_valid else None
    bad_epochs = 0

    for epoch in range(hp.max_epochs):
        order = epoch_visit_order(order_rng, n)
        try:
            # overflow in a diverging run surfaces as DivergenceError, not as numpy warnings
            with np.errstate(over="ignore", invalid="ignore"):
                run_epoch(order)
            try:
                loss = epoch_loss()
            except DomainError:
                raise DivergenceError(what="loss")
            try:
                rmse = evaluate(factors, valid_set).rmse if use_valid else None
            except DomainError:
                raise DivergenceError(what="validation RMSE")
        except DivergenceError as err:
            # a diverging step wrote nothing back: the factors are still finite
            raise err.with_epoch(epoch, hp.eta, factors.norms()) from None

        report.loss_history.append(loss)
        report.epochs_run = epoch + 1

        if use_valid:
            report.valid_rmse_history.append(rmse)
            if rmse < best_rmse:
                best_rmse = rmse
                best_epoch = epoch
                for dst, src in zip(best, arrays):
                    np.copyto(dst, src)
                bad_epochs = 0
            else:
                bad_epochs += 1
                if early_stop and bad_epochs >= hp.patience:
                    break

    if use_valid:
        report.converged_at = best_epoch
        return TwdFactors(*best, factors.dims, factors.ranks), report
    report.converged_at = report.epochs_run - 1
    return factors, report
