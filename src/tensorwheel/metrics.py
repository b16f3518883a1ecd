"""Held-out accuracy metrics for a trained factor model."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError, StateError
from .tensor_store import SparseTensor
from .twd_core import TwdFactors, reconstruct_entries


@dataclass(frozen=True)
class EvalReport:
    rmse: float
    mae: float
    count: int


def evaluate(f: TwdFactors, test_set: SparseTensor, raw_domain: bool = False) -> EvalReport:
    """RMSE and MAE of the model's reconstructions over a held-out set.

    rmse = sqrt(sum((y - y_hat)^2) / n), mae = sum(|y - y_hat|) / n.
    With raw_domain=True both observations and predictions are mapped
    back through exp(v) - 1 before the residuals are taken, so the
    metrics are reported in the original weight domain; the test set
    must be normalized in that case.

    A sum that overflows while the residuals are finite is taken again
    scaled by m = max|y - y_hat|, as m * sqrt(mean(((y - y_hat) / m)^2))
    and m * mean(|y - y_hat| / m).  A metric that is still not finite
    raises DomainError.
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
        mae = float(np.sum(np.abs(residuals)) / n)
    if not (math.isfinite(rmse) and math.isfinite(mae)) and np.isfinite(residuals).all():
        m = float(np.max(np.abs(residuals)))
        if not math.isfinite(rmse):
            rmse = m * float(np.sqrt(np.mean((residuals / m) ** 2)))
        if not math.isfinite(mae):
            mae = m * float(np.mean(np.abs(residuals / m)))
    for name, value in (("rmse", rmse), ("mae", mae)):
        if not math.isfinite(value):
            raise DomainError(f"{name} is not finite: a residual overflows float64")
    return EvalReport(rmse=rmse, mae=mae, count=n)
