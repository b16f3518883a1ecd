import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorwheel import (
    DomainError,
    Entry,
    ParameterError,
    Ranks,
    SparseTensor,
    StateError,
    TensorWheelError,
    TwdFactors,
    evaluate,
    normalize,
)


def model_predicting(values, dims):
    """Rank-1 factors whose reconstruction at (0, 0, k) equals values[k]."""
    ranks = Ranks(r=(1, 1, 1), h=(1, 1, 1))
    c = np.array(values, dtype=float).reshape(1, len(values), 1, 1)
    return TwdFactors(np.ones((1, 1, 1)), np.ones((1, dims[0], 1, 1)),
                      np.ones((1, dims[1], 1, 1)), c,
                      (dims[0], dims[1], len(values)), ranks)


def eval_residuals(residuals):
    """Score a test set engineered to produce exactly these residuals."""
    preds = np.zeros(len(residuals))
    f = model_predicting(preds, (1, 1))
    entries = [Entry(0, 0, k, float(r)) for k, r in enumerate(residuals)]
    return evaluate(f, SparseTensor((1, 1, len(residuals)), entries))


def test_perfect_predictions():
    f = model_predicting([0.5, 1.5, -2.0], (1, 1))
    entries = [Entry(0, 0, 0, 0.5), Entry(0, 0, 1, 1.5), Entry(0, 0, 2, -2.0)]
    report = evaluate(f, SparseTensor((1, 1, 3), entries))
    assert report.rmse == 0.0
    assert report.mae == 0.0
    assert report.count == 3


def test_hand_checked_formulas():
    # residuals (1, -2): rmse = sqrt((1 + 4) / 2) = sqrt(2.5), mae = 1.5
    report = eval_residuals([1.0, -2.0])
    assert report.rmse == pytest.approx(math.sqrt(2.5), abs=1e-15)
    assert report.mae == pytest.approx(1.5, abs=1e-15)


def test_single_residual_collapse():
    report = eval_residuals([-1.0])
    assert report.rmse == pytest.approx(1.0, abs=1e-15)
    assert report.mae == pytest.approx(1.0, abs=1e-15)


def test_mae_never_exceeds_rmse():
    rng = np.random.default_rng(19)
    for trial in range(200):
        n = int(rng.integers(1, 30))
        report = eval_residuals(rng.normal(0, 2, n))
        assert report.mae <= report.rmse + 1e-15


def test_equality_iff_equal_magnitudes():
    same = eval_residuals([2.0, -2.0, 2.0])
    assert same.mae == pytest.approx(same.rmse, abs=1e-14)
    mixed = eval_residuals([2.0, -1.0])
    assert mixed.mae < mixed.rmse


def test_permutation_invariance():
    rng = np.random.default_rng(23)
    residuals = rng.normal(0, 1, 17)
    a = eval_residuals(residuals)
    b = eval_residuals(residuals[rng.permutation(17)])
    assert a.rmse == pytest.approx(b.rmse, rel=1e-14)
    assert a.mae == pytest.approx(b.mae, rel=1e-14)


def test_linear_scaling_of_residuals():
    rng = np.random.default_rng(29)
    residuals = rng.normal(0, 1, 11)
    alpha = 3.5
    base = eval_residuals(residuals)
    scaled = eval_residuals(alpha * residuals)
    assert scaled.rmse == pytest.approx(alpha * base.rmse, rel=1e-12)
    assert scaled.mae == pytest.approx(alpha * base.mae, rel=1e-12)


def test_empty_test_set_rejected():
    f = model_predicting([1.0], (1, 1))
    with pytest.raises(ParameterError):
        evaluate(f, SparseTensor((1, 1, 1), []))


def test_raw_domain_metrics():
    raw_values = [0.5, 2.0, 4.0]
    preds_log = [0.3, 0.9, 1.2]
    f = model_predicting(preds_log, (1, 1))
    raw = SparseTensor((1, 1, 3), [Entry(0, 0, k, v) for k, v in enumerate(raw_values)])
    logged = normalize(raw)

    report = evaluate(f, logged, raw_domain=True)
    resid = np.array(raw_values) - np.expm1(np.array(preds_log))
    assert report.rmse == pytest.approx(float(np.sqrt(np.mean(resid ** 2))), rel=1e-12)
    assert report.mae == pytest.approx(float(np.mean(np.abs(resid))), rel=1e-12)
    # log-domain numbers differ
    assert evaluate(f, logged).rmse != pytest.approx(report.rmse, rel=1e-6)


def test_raw_domain_requires_normalized_input():
    f = model_predicting([1.0], (1, 1))
    t = SparseTensor((1, 1, 1), [Entry(0, 0, 0, 1.0)])
    with pytest.raises(StateError):
        evaluate(f, t, raw_domain=True)


def test_overflowing_sums_are_taken_again_scaled():
    # each residual is finite, but their squares (and in the second case
    # their absolute sum) overflow float64
    report = eval_residuals([1e200, -1e200, 1e200])
    assert (report.rmse, report.mae) == (1e200, 1e200)
    report = eval_residuals([1.5e308, 1.5e308])
    assert (report.rmse, report.mae) == (1.5e308, 1.5e308)


def test_an_overflowing_residual_is_a_domain_error():
    f = model_predicting([-1e308], (1, 1))
    with pytest.raises(DomainError, match="rmse"):
        evaluate(f, SparseTensor((1, 1, 1), [Entry(0, 0, 0, 1e308)]))


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(pairs=st.lists(st.tuples(FINITE, FINITE), min_size=1, max_size=8), raw=st.booleans())
def test_finite_inputs_give_finite_metrics_or_one_error(pairs, raw):
    preds, values = zip(*pairs)
    f = model_predicting(preds, (1, 1))
    test_set = SparseTensor((1, 1, len(values)),
                            [Entry(0, 0, k, v) for k, v in enumerate(values)], normalized=raw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            report = evaluate(f, test_set, raw_domain=raw)
        except TensorWheelError:
            return
    assert math.isfinite(report.rmse) and math.isfinite(report.mae)
