import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorwheel import (
    DomainError,
    ParameterError,
    Ranks,
    SparseTensor,
    StateError,
    TensorWheelError,
    TwdFactors,
    evaluate,
    normalize,
)
from tensorwheel.metrics import mean


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
    n = len(residuals)
    return evaluate(f, SparseTensor((1, 1, n), [0] * n, [0] * n, range(n), residuals))


def test_perfect_predictions():
    f = model_predicting([0.5, 1.5, -2.0], (1, 1))
    report = evaluate(f, SparseTensor((1, 1, 3), [0, 0, 0], [0, 0, 0], [0, 1, 2],
                                      [0.5, 1.5, -2.0]))
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
    raw = SparseTensor((1, 1, 3), [0, 0, 0], [0, 0, 0], [0, 1, 2], raw_values)
    logged = normalize(raw)

    report = evaluate(f, logged, raw_domain=True)
    resid = np.array(raw_values) - np.expm1(np.array(preds_log))
    assert report.rmse == pytest.approx(float(np.sqrt(np.mean(resid ** 2))), rel=1e-12)
    assert report.mae == pytest.approx(float(np.mean(np.abs(resid))), rel=1e-12)
    # log-domain numbers differ
    assert evaluate(f, logged).rmse != pytest.approx(report.rmse, rel=1e-6)


def test_raw_domain_requires_normalized_input():
    f = model_predicting([1.0], (1, 1))
    t = SparseTensor((1, 1, 1), [0], [0], [0], [1.0])
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
        evaluate(f, SparseTensor((1, 1, 1), [0], [0], [0], [1e308]))


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(pairs=st.lists(st.tuples(FINITE, FINITE), min_size=1, max_size=8), raw=st.booleans())
def test_finite_inputs_give_finite_metrics_or_one_error(pairs, raw):
    preds, values = zip(*pairs)
    f = model_predicting(preds, (1, 1))
    n = len(values)
    test_set = SparseTensor((1, 1, n), [0] * n, [0] * n, range(n), values, normalized=raw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            report = evaluate(f, test_set, raw_domain=raw)
        except TensorWheelError:
            return
    assert math.isfinite(report.rmse) and math.isfinite(report.mae)


def test_mean_is_numpys_and_rescales_an_overflowing_sum():
    rng = np.random.default_rng(31)
    for n in (1, 2, 7, 100, 1000):
        x = rng.normal(0, 1, n)
        assert mean(x) == float(np.mean(x))
    assert mean([1.5e308, 1.5e308, -1e308]) == pytest.approx(1e308 / 1.5, rel=1e-15)
    assert mean([1, 2, 4]) == 7 / 3


# ranks whose stage-1 block, R3*H1*R2*H2 doubles, takes 20 MB a position:
# 256 positions of it would pass the 3 GiB cap, one needs a little of it
CAPPED_EVALUATE = """
import json, resource
import numpy as np
from tensorwheel import Ranks, SparseTensor, evaluate, init_factors, reconstruct_entry, twd_core
resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
twd_core._native = None
f = init_factors((8, 8, 6), Ranks(r=(1, 40, 40), h=(40, 40, 1)), 0, 0.1)
ii, jj, kk = np.unravel_index(np.arange(0, 384, 2), f.dims)
single = [reconstruct_entry(f, i, j, k) for i, j, k in zip(ii.tolist(), jj.tolist(), kk.tolist())]
report = evaluate(f, SparseTensor(f.dims, ii, jj, kk, single))
print(json.dumps([report.rmse, report.mae, float(np.sqrt(np.mean(np.square(single)))),
                  float(np.mean(single))]))
"""


def test_evaluate_at_ranks_whose_full_chunk_cannot_be_allocated():
    # a child process whose address space is capped, so that an allocation
    # of the full chunk fails on any host, whatever its overcommit policy
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", CAPPED_EVALUATE], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rmse, mae, rms, average = json.loads(proc.stdout)
    # the factors are non-negative, so each reconstruction is the sum of its
    # terms' magnitudes, the scale of the batched kernel's 1e-12 tolerance
    assert rmse <= 1e-12 * rms and mae <= 1e-12 * average
