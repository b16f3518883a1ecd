"""Held-out accuracy metrics for a trained factor model."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, StateError
from .tensor_store import SparseTensor
from .twd_core import TwdFactors, check_finite, reconstruct_entries


@dataclass(frozen=True)
class EvalReport:
    rmse: float
    mae: float
    count: int


def mean(values) -> float:
    """The mean of values, bit for bit ``np.mean``'s: their float64 sum
    over their count.  A sum that overflows is taken again scaled by
    m = max|x|, as m * mean(x / m)."""
    x = np.asarray(values)
    with np.errstate(over="ignore", invalid="ignore"):
        result = float(np.sum(x, dtype=np.float64) / x.size)
        if not math.isfinite(result):
            m = float(np.max(np.abs(x)))
            result = m * float(np.sum(x / m) / x.size)
    return result


def evaluate(f: TwdFactors, test_set: SparseTensor, raw_domain: bool = False) -> EvalReport:
    """RMSE and MAE of the model's reconstructions over a held-out set.

    rmse = sqrt(sum((y - y_hat)^2) / n), mae = mean(|y - y_hat|).
    With raw_domain=True both observations and predictions are mapped
    back through exp(v) - 1 before the residuals are taken, so the
    metrics are reported in the original weight domain; the test set
    must be normalized in that case.

    A sum of squares that overflows while the residuals are finite is
    taken again scaled by m = max|y - y_hat|, as
    m * sqrt(mean(((y - y_hat) / m)^2)); the MAE is ``mean``'s.  A metric
    that is still not finite raises DomainError.
    """
    n = len(test_set)
    if n == 0:
        raise ParameterError("test set is empty")
    if raw_domain and not test_set.normalized:
        raise StateError("raw-domain metrics need a normalized test set")
    with np.errstate(over="ignore", invalid="ignore"):
        preds = reconstruct_entries(f, test_set.ii, test_set.jj, test_set.kk)
        y = test_set.values
        if raw_domain:
            y = np.expm1(y)
            preds = np.expm1(preds)
        residuals = y - preds
        rmse = float(np.sqrt(np.sum(residuals ** 2) / n))
    if not math.isfinite(rmse) and np.isfinite(residuals).all():
        m = float(np.max(np.abs(residuals)))
        rmse = m * float(np.sqrt(np.mean((residuals / m) ** 2)))
    why = "a residual overflows float64"
    return EvalReport(rmse=check_finite(rmse, "rmse", why),
                      mae=check_finite(mean(np.abs(residuals)), "mae", why), count=n)
