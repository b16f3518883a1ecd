"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.  The planted-model experiments substitute for proprietary network
traces: ground truth is known by construction, so held-out quality is
measured at positions the trainer never saw.
"""

import contextlib
import io
import math
import re
import time
from pathlib import Path

import numpy as np
import pytest

from tensorwheel import (
    HyperParams,
    Ranks,
    SparseTensor,
    SplitSpec,
    SynthSpec,
    TwdFactors,
    evaluate,
    generate,
    holdout_set,
    init_factors,
    oracle_entry,
    reconstruct_entry,
    split,
    train,
    write_coo,
)
from tensorwheel.cli import build_parser, main, run_grid
from tensorwheel.tensor_store import largest_remainder_sizes

from records import entries

PLANTED_RANKS = Ranks(r=(2, 2, 2), h=(2, 2, 2))
GRID_ETAS = "0.1,0.03,0.01"
GRID_LAMBDAS = "0,0.001,0.01"


def report_line(num, name, passed, note=""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({note})" if note else ""
    print(f"[criterion {num}] {name}: {status}{suffix}")
    return passed


@pytest.fixture(scope="module")
def planted():
    spec = SynthSpec(dims=(10, 10, 8), ranks=PLANTED_RANKS, density=0.3,
                     noise_sigma=0.0, seed=0)
    observed, truth = generate(spec)
    return observed, truth, holdout_set(observed, truth)


@pytest.fixture(scope="module")
def tuned_recovery(planted, tmp_path_factory):
    """Criterion 4 experiment: grid-tune eta/lambda, then train to 1000
    epochs and score the unobserved positions against the planted truth.

    Grid cells run under a 200-epoch cap (tuning only); the final model
    gets the full budget.
    """
    observed, truth, held = planted
    tmp = tmp_path_factory.mktemp("accept")
    obs_path = tmp / "planted.txt"
    write_coo(observed, obs_path)

    t0 = time.perf_counter()
    args = build_parser().parse_args([
        "grid", "--input", str(obs_path), "--no-normalize",
        "--ranks", "2,2,2,2,2,2", "--etas", GRID_ETAS, "--lambdas", GRID_LAMBDAS,
        "--epochs", "1000", "--grid-epochs", "200", "--split", "9:1:0",
        "--seed", "0", "--report", str(tmp / "grid.json")])
    grid_report = run_grid(args)
    eta = grid_report["winner"]["eta"]
    lam = grid_report["winner"]["lambda"]

    train_t, valid_t, _ = split(observed, SplitSpec(ratios=(9, 1, 0), seed=0))
    hp = HyperParams(eta=eta, lam=lam, max_epochs=1000, seed=0)
    factors, train_report = train(train_t, valid_t, observed.dims, PLANTED_RANKS, hp)
    elapsed = time.perf_counter() - t0
    held_rmse = evaluate(factors, held).rmse
    return {"eta": eta, "lam": lam, "held_rmse": held_rmse,
            "epochs_run": train_report.epochs_run, "elapsed": elapsed,
            "grid": grid_report}


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(100):
        dims = tuple(int(d) for d in rng.integers(1, 5, 3))
        ranks = Ranks(r=tuple(int(x) for x in rng.integers(1, 4, 3)),
                      h=tuple(int(x) for x in rng.integers(1, 4, 3)))
        f = init_factors(dims, ranks, seed=int(rng.integers(2**31)), scale=1.0)
        for arr in (f.g, f.a, f.b, f.c):
            arr *= 2.0
            arr -= 1.0  # values uniform in [-1, 1]
        for i in range(dims[0]):
            for j in range(dims[1]):
                for k in range(dims[2]):
                    diff = abs(reconstruct_entry(f, i, j, k) - oracle_entry(f, i, j, k))
                    worst = max(worst, diff)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and elapsed < 5.0
    report_line(1, "oracle equivalence", ok,
                f"worst diff {worst:.2e}, {elapsed:.2f}s")
    assert worst < 1e-12
    assert elapsed < 5.0


def test_criterion_2_gradient_check():
    from tensorwheel import PidState, compute_loss, sgd_step

    rng = np.random.default_rng(1002)
    step = 1e-6
    eta = 0.05
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(50):
        lam = 0.0 if trial % 2 == 0 else 0.01
        dims = tuple(int(d) for d in rng.integers(2, 5, 3))
        ranks = Ranks(r=tuple(int(x) for x in rng.integers(1, 4, 3)),
                      h=tuple(int(x) for x in rng.integers(1, 4, 3)))
        f = init_factors(dims, ranks, seed=int(rng.integers(2**31)), scale=1.0)
        for arr in (f.g, f.a, f.b, f.c):
            arr *= 0.9
            arr += 0.1  # parameter magnitudes in [0.1, 1]
        i, j, k = (int(rng.integers(d)) for d in dims)
        obs = SparseTensor(dims, [i], [j], [k], [float(rng.uniform(-1, 1))])

        before = f.copy()
        hp = HyperParams(eta=eta, lam=lam, cp=1.0, ci=0.0, cd=0.0, seed=0)
        sgd_step(f, obs, 0, PidState(1), hp)

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
                worst = max(worst, abs(actual - expected) / max(abs(expected), 1e-12))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 10.0
    report_line(2, "gradient check", ok, f"worst rel {worst:.2e}, {elapsed:.2f}s")
    assert worst < 1e-4
    assert elapsed < 10.0


def test_criterion_3_pid_reduction_bitwise(planted):
    observed, _, _ = planted
    train_t, valid_t, _ = split(observed, SplitSpec(ratios=(9, 1, 0), seed=0))
    hp = HyperParams(cp=1.0, ci=0.0, cd=0.0, max_epochs=20, seed=0)
    f_pid, r_pid = train(train_t, valid_t, observed.dims, PLANTED_RANKS, hp,
                         pid=True, early_stop=False)
    f_plain, r_plain = train(train_t, valid_t, observed.dims, PLANTED_RANKS, hp,
                             pid=False, early_stop=False)
    identical = (r_pid.loss_history == r_plain.loss_history
                 and r_pid.valid_rmse_history == r_plain.valid_rmse_history
                 and all(np.array_equal(getattr(f_pid, n), getattr(f_plain, n))
                         for n in "gabc"))
    report_line(3, "PID reduction bitwise", identical, "20 epochs, 10x10x8")
    assert identical


def test_criterion_4_planted_recovery(tuned_recovery):
    res = tuned_recovery
    ok = res["held_rmse"] < 0.05 and res["epochs_run"] <= 1000 and res["elapsed"] < 120.0
    report_line(4, "planted recovery", ok,
                f"eta {res['eta']:g}, lambda {res['lam']:g}, "
                f"held-out rmse {res['held_rmse']:.4f}, {res['elapsed']:.1f}s")
    assert res["held_rmse"] < 0.05
    assert res["epochs_run"] <= 1000
    assert res["elapsed"] < 120.0


def test_criterion_5_ablation_direction(planted, tuned_recovery):
    observed, truth, held = planted
    eta, lam = tuned_recovery["eta"], tuned_recovery["lam"]

    def arm(seed, cd):
        train_t, valid_t, _ = split(observed, SplitSpec(ratios=(9, 1, 0), seed=seed))
        hp = HyperParams(eta=eta, lam=lam, cp=1.0, ci=0.0, cd=cd,
                         max_epochs=1000, seed=seed)
        factors, report = train(train_t, valid_t, observed.dims, PLANTED_RANKS, hp)
        return report.converged_at, evaluate(factors, held).rmse

    pid_epochs, pid_rmse, plain_epochs, plain_rmse = [], [], [], []
    for seed in range(5):
        conv, rmse = arm(seed, cd=0.001)
        pid_epochs.append(conv)
        pid_rmse.append(rmse)
        conv, rmse = arm(seed, cd=0.0)
        plain_epochs.append(conv)
        plain_rmse.append(rmse)

    mean_pid = float(np.mean(pid_epochs))
    mean_plain = float(np.mean(plain_epochs))
    rmse_gap = abs(float(np.mean(pid_rmse)) - float(np.mean(plain_rmse)))
    ok = mean_pid <= mean_plain and rmse_gap <= 0.01
    report_line(5, "ablation direction", ok,
                f"mean epochs pid {mean_pid:.1f} vs plain {mean_plain:.1f}, "
                f"rmse gap {rmse_gap:.4f}")
    assert mean_pid <= mean_plain
    assert rmse_gap <= 0.01


def test_criterion_6_metric_identities():
    ranks = Ranks(r=(1, 1, 1), h=(1, 1, 1))

    def eval_residuals(residuals):
        n = len(residuals)
        c = np.zeros((1, n, 1, 1))
        f = TwdFactors(np.ones((1, 1, 1)), np.ones((1, 1, 1, 1)),
                       np.ones((1, 1, 1, 1)), c, (1, 1, n), ranks)
        return evaluate(f, SparseTensor((1, 1, n), [0] * n, [0] * n, range(n), residuals))

    rng = np.random.default_rng(1006)
    violations = 0
    for trial in range(1000):
        n = int(rng.integers(1, 40))
        rep = eval_residuals(rng.normal(0, rng.uniform(0.1, 5), n))
        if rep.mae > rep.rmse + 1e-15:
            violations += 1

    hand = eval_residuals([1.0, -2.0])
    hand_ok = (abs(hand.rmse - math.sqrt(2.5)) < 1e-14
               and abs(hand.mae - 1.5) < 1e-14)
    ok = violations == 0 and hand_ok
    report_line(6, "metric identities", ok,
                f"0 violations in 1000 draws, rmse {hand.rmse:.6f}, mae {hand.mae:.2f}")
    assert violations == 0
    assert hand_ok


def test_criterion_7_split_protocol():
    t = SparseTensor((100, 1, 1), range(100), [0] * 100, [0] * 100, range(100))
    tr, va, te = split(t, SplitSpec(ratios=(1, 2, 7), seed=0))
    exact = (len(tr), len(va), len(te)) == (10, 20, 70)

    rng = np.random.default_rng(1007)
    clean = True
    for trial in range(200):
        n = int(rng.integers(1, 60))
        tensor = SparseTensor((n, 1, 1), range(n), [0] * n, [0] * n,
                              [float(rng.uniform()) for _ in range(n)])
        ratios = tuple(int(x) for x in rng.integers(0, 6, 3))
        if sum(ratios) == 0:
            ratios = (1, 2, 7)
        parts = split(tensor, SplitSpec(ratios=ratios, seed=int(rng.integers(1e9))))
        keys = [set((e.i, e.j, e.k) for e in entries(p)) for p in parts]
        covered = keys[0] | keys[1] | keys[2] == {(e.i, e.j, e.k) for e in entries(tensor)}
        disjoint = (not keys[0] & keys[1] and not keys[0] & keys[2]
                    and not keys[1] & keys[2])
        sized = tuple(len(p) for p in parts) == largest_remainder_sizes(n, ratios)
        if not (covered and disjoint and sized):
            clean = False
            break
    ok = exact and clean
    report_line(7, "split protocol", ok,
                f"100@1:2:7 -> (10,20,70) {exact}, 200 random tensors {clean}")
    assert exact
    assert clean


def test_criterion_8_report_determinism(planted, tmp_path):
    observed, _, _ = planted
    obs_path = tmp_path / "planted.txt"
    write_coo(observed, obs_path)
    argv = ["train", "--input", str(obs_path), "--no-normalize",
            "--ranks", "2,2,2,2,2,2", "--eta", "0.1", "--lambda", "0",
            "--epochs", "25", "--split", "8:1:1", "--seed", "0", "--reps", "2"]
    first = tmp_path / "r1.json"
    second = tmp_path / "r2.json"
    assert main(argv + ["--report", str(first)]) == 0
    assert main(argv + ["--report", str(second)]) == 0
    identical = first.read_bytes() == second.read_bytes()
    report_line(8, "report determinism", identical,
                f"{len(first.read_bytes())} bytes each")
    assert identical


def test_the_readme_library_example_runs_and_meets_criterion_4():
    # README's "Library" block, run as it stands, so that it cannot rot
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    library = readme[readme.index("\n## Library\n"):]
    block = re.search(r"```python\n(.*?)```", library, flags=re.S).group(1)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(block, "README.md", "exec"), {})
    rmse = float(printed.getvalue())
    print(f"README example: held-out rmse {rmse:.4f}")
    assert rmse < 0.05
