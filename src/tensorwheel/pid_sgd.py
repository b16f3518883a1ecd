"""PID-controlled stochastic gradient descent for tensor wheel factors.

The trainer minimizes the density-oriented squared-residual loss over the
observed entries, with L2 terms on the core and the factor slices each
observation touches.  Instead of feeding the raw residual into the SGD
update, each training entry keeps a PID accumulator: the update is driven
by a weighted mix of the current residual (proportional), the running sum
of that entry's residuals across its visits (integral), and the change
since its previous visit (derivative).  Proportional-only settings
(cp=1, ci=0, cd=0) reduce exactly to plain SGD.

A step names its observation by the set and an entry id, the
observation's position in the set's arrays, which is also its slot in
the PID state.  ``train`` and ``sgd_step`` reach the kernel through one
function, ``_runners``, which picks native or numpy: ``train`` runs it on
the build for its ranks over each epoch's visit order, and for the sum
of squared validation residuals its RMSE is taken from, ``sgd_step`` on
the generic build over the one id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import BoundsError, DivergenceError, DomainError, ParameterError
from .metrics import evaluate
from .tensor_store import SparseTensor, whole
from .twd_core import (LOSS_OVERFLOW, NativeKernel, Ranks, TwdFactors, block_partials,
                       check_finite, check_index, check_indices, entry_blocks, init_factors,
                       native_kernel, reconstruct_entries, scatter_blocks)


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
        for name in ("max_epochs", "patience", "seed"):
            object.__setattr__(self, name, whole(getattr(self, name), name))
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
    set; otherwise both histories have length epochs_run.  converged_at
    is the 0-based best epoch so far: the first epoch of the lowest
    validation RMSE, or the last epoch run without a validation set.
    ``train`` keeps its stopping state here and nowhere else.
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
    return check_finite(loss, "loss", LOSS_OVERFLOW)


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


def sgd_step(f: TwdFactors, obs: SparseTensor, entry_id: int, state: PidState | None,
             hp: HyperParams) -> None:
    """One PID-guided SGD step (in place) on the observation ``entry_id``
    of ``obs``, whose residual folds into the PID slot of the same id;
    ``state`` holds one slot per observation of ``obs``.  With ``state``
    None, the plain SGD step, driven by the raw residual.

    Every partial is taken before any write (Jacobi-style within the
    step).  The four blocks the entry touches are gathered into one
    vector p, p moves by one expression, and p is written back only if
    it and the driving error are finite: a diverging step raises
    DivergenceError and leaves f as it was, with the PID state folded.
    Runs ``_runners``' epoch over the one id on the generic kernel, as
    ``train`` does over a visit order; neither copies obs, so the cost
    does not grow with its length.
    """
    if not 0 <= entry_id < len(obs):
        raise BoundsError(f"entry id {entry_id} outside the {len(obs)} observations")
    if state is not None and len(state) != len(obs):
        raise ParameterError(f"PID state of size {len(state)} for {len(obs)} observations")
    check_index(f, obs.ii.item(entry_id), obs.jj.item(entry_id), obs.kk.item(entry_id))
    run_epoch, _ = _runners(f, obs, state, hp, native_kernel())
    run_epoch(np.array([entry_id]))


def plain_sgd_step(f: TwdFactors, obs: SparseTensor, entry_id: int, hp: HyperParams) -> None:
    """One plain SGD step: the raw residual drives the update directly,
    with no PID bookkeeping.  Reference path for the reduction check."""
    sgd_step(f, obs, entry_id, None, hp)


def epoch_visit_order(rng: np.random.Generator, n_entries: int) -> np.ndarray:
    """Visit order for one epoch: a fresh permutation from the trainer's
    order generator.  Exposed so tests can replay training runs."""
    return rng.permutation(n_entries)


def _runners(f: TwdFactors, obs: SparseTensor, state: PidState | None, hp: HyperParams,
             kernel: NativeKernel | None):
    """The two functions of an epoch over obs, which must lie inside f's
    dims: ``run_epoch(order)`` runs the steps in place over an order of
    entry ids and raises DivergenceError at the first that diverges, and
    ``epoch_loss()`` returns ``compute_loss(f, obs, hp.lam)``.  They are
    ``kernel.bind``'s, one call into C each, where ``kernel`` is loaded;
    else a loop of numpy steps, reading each visited entry from obs's
    arrays, and ``compute_loss``.  The only place native or numpy is
    picked for training.  Numpy's overflow warnings are the caller's to
    silence."""
    if kernel is not None:
        return kernel.bind(f, (obs.ii, obs.jj, obs.kk, obs.values),
                           None if state is None else (state.integral, state.prev_error),
                           (hp.eta, hp.lam, hp.cp, hp.ci, hp.cd))

    def run_epoch(order: np.ndarray) -> None:
        for e in order.tolist():
            blocks = entry_blocks(f, obs.ii.item(e), obs.jj.item(e), obs.kk.item(e))
            x_hat, *partials = block_partials(*blocks)
            e_t = obs.values.item(e) - x_hat
            if state is not None:
                e_t = pid_error(state, e, e_t, hp)
            p = np.concatenate(blocks, axis=None)
            p += hp.eta * (e_t * np.concatenate(partials, axis=None) - hp.lam * p)
            if not (math.isfinite(e_t) and np.isfinite(p).all()):
                raise DivergenceError(e)
            scatter_blocks(p, blocks)

    return run_epoch, lambda: compute_loss(f, obs, hp.lam)


def validation_rmse(f: TwdFactors, obs: SparseTensor, squares) -> float:
    """The validation RMSE ``train`` records for f over obs, a non-empty
    set inside f's dims: sqrt(squares() / n), where ``squares()``, the
    ``epoch_loss`` of ``_runners`` over obs with lam 0, returns the sum
    of squared residuals.  Where that sum is not finite, numpy's
    ``evaluate(f, obs).rmse``, which takes it again scaled by max|r| and
    raises DomainError where even that overflows."""
    try:
        return math.sqrt(squares() / len(obs))
    except DomainError:
        return evaluate(f, obs).rmse


def train(train_set: SparseTensor, valid_set: SparseTensor, dims, ranks: Ranks,
          hp: HyperParams, pid: bool = True,
          early_stop: bool = True) -> tuple[TwdFactors, TrainReport]:
    """Fit tensor wheel factors to the training set by (PID-)SGD.

    Factors start from ``init_factors(dims, ranks, hp.seed, hp.init_scale)``;
    each epoch visits every training entry once in a seeded shuffled
    order.  After each epoch the regularized training loss is recorded,
    and, when a validation set is given, its RMSE; training stops at
    hp.max_epochs or (with early_stop) once hp.patience epochs have run
    since the best one, ``report.converged_at``, without a strictly lower
    validation RMSE (a tie is no improvement).  The returned factors
    are the checkpoint from the best-validation epoch.  A non-finite
    factor, loss or validation RMSE raises DivergenceError with the
    epoch, hp.eta and the norms of the last finite factors.  Each
    epoch's steps, its loss and the sum of squared validation residuals
    run through ``_runners`` on ``twd_core.native_kernel(ranks)``, the
    build for ``ranks``, bound once per run: one call each into C when
    it is loaded, else numpy steps and ``compute_loss``.  The validation
    RMSE is ``validation_rmse`` of that sum, and on the numpy kernel
    equals ``evaluate``'s bit for bit; on the native kernel it agrees
    with it to rounding (the sum runs in an order of its own).

    Args:
        train_set: observed entries to fit; must be non-empty, with
            indices inside dims (else BoundsError).
        valid_set: held-out entries for stopping/model selection, with
            indices inside dims (else BoundsError); may be empty, in which
            case stopping uses max_epochs only and the final factors are
            returned.
        dims: tensor dimensions (I, J, K).
        ranks: ring and core-link ranks.
        hp: hyperparameters.
        pid: when False, run the plain-SGD reference path (no PID state).
        early_stop: when False, always run the full max_epochs.

    Returns:
        (factors, report); report.converged_at is the 0-based index of
        the first epoch of the lowest validation RMSE (the last epoch when
        no validation set), whose factors are returned.
    """
    n = len(train_set)
    if n == 0:
        raise ParameterError("training set is empty")
    factors = init_factors(dims, ranks, hp.seed, hp.init_scale)
    for what, obs in (("training", train_set), ("validation", valid_set)):
        check_indices(factors, obs.ii, obs.jj, obs.kk, what)
    state = PidState(n) if pid else None
    order_rng = np.random.default_rng(hp.seed)
    kernel = native_kernel(ranks)
    run_epoch, epoch_loss = _runners(factors, train_set, state, hp, kernel)
    _, valid_squares = _runners(factors, valid_set, None, replace(hp, lam=0.0), kernel)
    use_valid = len(valid_set) > 0

    report = TrainReport()
    arrays = (factors.g, factors.a, factors.b, factors.c)  # written in place by every epoch
    # the best epoch's g, a, b and c are copied in place, and checked once, at return;
    # without validation the best epoch is the last, and best holds the live arrays
    best = [np.empty_like(x) for x in arrays] if use_valid else arrays

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
                rmse = validation_rmse(factors, valid_set, valid_squares) if use_valid else None
            except DomainError:
                raise DivergenceError(what="validation RMSE")
        except DivergenceError as err:
            # a diverging step wrote nothing back: the factors are still finite
            raise err.with_epoch(epoch, hp.eta, factors.norms()) from None

        report.loss_history.append(loss)
        report.epochs_run = epoch + 1
        if use_valid:
            report.valid_rmse_history.append(rmse)
            # a tie is no improvement: it neither moves the best epoch nor resets patience
            if epoch > 0 and not rmse < report.valid_rmse_history[report.converged_at]:
                if early_stop and epoch - report.converged_at >= hp.patience:
                    break
                continue
        report.converged_at = epoch
        for dst, src in zip(best, arrays):
            np.copyto(dst, src)  # a no-op where dst is src
    return TwdFactors(*best, factors.dims, factors.ranks), report
