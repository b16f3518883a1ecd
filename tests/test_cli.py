import json
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from tensorwheel import SplitSpec, ingest, load_checkpoint, oracle_entry
from tensorwheel.cli import _decimal, _parse_split, build_parser, main


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture
def synth_file(tmp_path):
    """Planted dataset written in COO form, plus its truth checkpoint."""
    obs = tmp_path / "obs.txt"
    truth = tmp_path / "truth.txt"
    code = run(["synth", "--dims", "8,8,6", "--ranks", "2,2,2,2,2,2",
                "--density", "0.4", "--seed", "3",
                "--output", obs, "--truth", truth])
    assert code == 0
    return obs, truth


def train_args(obs, report, **over):
    base = {
        "--input": obs, "--ranks": "2,2,2,2,2,2", "--eta": 0.1, "--lambda": 0,
        "--split": "8,1,1".replace(",", ":"), "--seed": 0, "--reps": 1,
        "--epochs": 30, "--report": report,
    }
    base.update(over)
    argv = ["train", "--no-normalize"]
    for key, val in base.items():
        argv += [key, val]
    return argv


# --------------------------------------------------------------- ingest

def test_ingest_check_ok(tmp_path, capsys):
    path = tmp_path / "d.txt"
    path.write_text("0 1 2 3.5\n1 0 0 1.25\n")
    assert run(["ingest-check", "--input", path]) == 0
    out = capsys.readouterr().out
    assert "2 entries" in out


@pytest.mark.parametrize("name", ["absent.txt", "d.txt/x"])
def test_ingest_check_missing_file(tmp_path, capsys, name):
    (tmp_path / "d.txt").write_text("0 0 0 1.0\n")
    assert run(["ingest-check", "--input", tmp_path / name]) == 1
    assert "error:" in capsys.readouterr().err


def test_ingest_check_reports_parse_error(tmp_path, capsys):
    path = tmp_path / "d.txt"
    path.write_text("0 1 2 3.5\nbroken\n")
    assert run(["ingest-check", "--input", path]) == 1
    assert "line 2" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
def test_ingest_check_mean_whose_sum_overflows_is_finite(tmp_path, capsys):
    path = tmp_path / "d.txt"
    path.write_text("0 0 0 1e308\n0 0 1 1.5e308\n")
    assert run(["ingest-check", "--input", path]) == 0
    assert "mean 1.25e+308" in capsys.readouterr().out


# ---------------------------------------------------------------- split

def test_split_command_writes_parts(tmp_path):
    path = tmp_path / "d.txt"
    lines = [f"{i} {j} 0 {1.0 + i + 4 * j}" for i in range(4) for j in range(5)]
    path.write_text("\n".join(lines) + "\n")
    prefix = tmp_path / "part"
    assert run(["split", "--input", path, "--split", "1:2:7", "--seed", 5,
                "--output-prefix", prefix]) == 0
    parts = [ingest(f"{prefix}.{name}.txt") for name in ("train", "valid", "test")]
    assert [len(p) for p in parts] == [2, 4, 14]
    keys = set()
    for p in parts:
        keys |= {(e.i, e.j, e.k) for e in p.entries}
    assert len(keys) == 20


# ---------------------------------------------------------------- synth

def test_synth_outputs_are_consistent(synth_file):
    obs_path, truth_path = synth_file
    observed = ingest(obs_path)
    truth = load_checkpoint(truth_path)
    assert observed.dims == truth.dims == (8, 8, 6)
    assert len(observed) == int(np.ceil(0.4 * 8 * 8 * 6))
    for e in observed.entries[:10]:
        assert abs(e.value - oracle_entry(truth, e.i, e.j, e.k)) < 1e-12


# ---------------------------------------------------------------- train

def test_train_single_repetition_report(synth_file, tmp_path):
    obs, _ = synth_file
    report_path = tmp_path / "report.json"
    assert run(train_args(obs, report_path)) == 0
    report = json.loads(report_path.read_text())
    assert report["command"] == "train"
    assert len(report["repetitions"]) == 1
    rep = report["repetitions"][0]
    assert rep["seed"] == 0
    assert len(rep["loss_history"]) == rep["epochs_run"]
    assert report["mean_rmse"] == rep["rmse"]
    assert report["config"]["normalize"] is False
    assert report["config"]["hyperparams"]["eta"] == 0.1


def test_train_mean_matches_repetitions(synth_file, tmp_path):
    obs, _ = synth_file
    report_path = tmp_path / "report.json"
    assert run(train_args(obs, report_path, **{"--reps": 3, "--epochs": 15})) == 0
    report = json.loads(report_path.read_text())
    reps = report["repetitions"]
    assert [r["seed"] for r in reps] == [0, 1, 2]
    assert report["mean_rmse"] == pytest.approx(np.mean([r["rmse"] for r in reps]), rel=1e-15)
    assert report["mean_mae"] == pytest.approx(np.mean([r["mae"] for r in reps]), rel=1e-15)


def test_train_report_bytes_deterministic(synth_file, tmp_path):
    obs, _ = synth_file
    first = tmp_path / "r1.json"
    second = tmp_path / "r2.json"
    assert run(train_args(obs, first, **{"--epochs": 12})) == 0
    assert run(train_args(obs, second, **{"--epochs": 12})) == 0
    assert first.read_bytes() == second.read_bytes()


def test_train_missing_input_no_report(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = run(train_args(tmp_path / "absent.txt", report_path, **{"--epochs": 5}))
    assert code == 1
    assert not report_path.exists()
    assert "error:" in capsys.readouterr().err


def test_failed_report_write_keeps_the_previous_report(synth_file, tmp_path, capsys,
                                                     monkeypatch):
    obs, _ = synth_file
    report_path = tmp_path / "report.json"
    assert run(train_args(obs, report_path, **{"--epochs": 5})) == 0
    before = report_path.read_bytes()

    def fail(src, dst):
        raise OSError("disk full")
    monkeypatch.setattr(os, "replace", fail)
    capsys.readouterr()
    assert run(train_args(obs, report_path, **{"--epochs": 6})) == 1
    assert_one_error_line(capsys, "disk full")
    assert report_path.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["obs.txt", "report.json", "truth.txt"]


def test_train_writes_checkpoints_scoreable_by_evaluate(synth_file, tmp_path, capsys):
    obs, _ = synth_file
    report_path = tmp_path / "report.json"
    ckpt_prefix = tmp_path / "model"
    assert run(train_args(obs, report_path, **{"--checkpoint": ckpt_prefix,
                                               "--epochs": 40})) == 0
    ckpt = f"{ckpt_prefix}.rep0.txt"
    assert run(["evaluate", "--input", obs, "--checkpoint", ckpt]) == 0
    out = capsys.readouterr().out
    assert "rmse" in out


def test_train_normalizes_by_default(tmp_path):
    # raw weights >= 0 pass through log1p before splitting/training
    path = tmp_path / "d.txt"
    rng = np.random.default_rng(0)
    lines = [f"{i} {j} {k} {rng.uniform(0, 5):.6f}"
             for i in range(5) for j in range(5) for k in range(3)]
    path.write_text("\n".join(lines) + "\n")
    report_path = tmp_path / "report.json"
    assert run(["train", "--input", path, "--ranks", "2,2,2,1,1,1",
                "--eta", "0.1", "--lambda", "0", "--epochs", "10",
                "--split", "6:2:2", "--reps", "1", "--report", report_path]) == 0
    report = json.loads(report_path.read_text())
    assert report["config"]["normalize"] is True


# --------------------------------------------------------------- ablate

def test_ablate_arms_share_initialization(synth_file, tmp_path):
    obs, _ = synth_file
    report_path = tmp_path / "ablate.json"
    assert run(["ablate", "--input", obs, "--no-normalize",
                "--ranks", "2,2,2,2,2,2", "--eta", "0.1", "--lambda", "0",
                "--cd", "0.001", "--epochs", "25", "--split", "8:1:1",
                "--seed", "0", "--reps", "2", "--report", report_path]) == 0
    report = json.loads(report_path.read_text())
    assert len(report["repetitions"]) == 2
    for rep in report["repetitions"]:
        assert len(rep["init_checkpoint_sha256"]) == 64
        assert rep["pid"]["epochs_run"] >= 1
        assert rep["plain"]["epochs_run"] >= 1


def test_ablate_reduction_gains_make_arms_identical(synth_file, tmp_path):
    obs, _ = synth_file
    report_path = tmp_path / "ablate.json"
    assert run(["ablate", "--input", obs, "--no-normalize",
                "--ranks", "2,2,2,2,2,2", "--eta", "0.1", "--lambda", "0",
                "--cp", "1", "--ci", "0", "--cd", "0", "--epochs", "20",
                "--split", "8:1:1", "--seed", "1", "--report", report_path]) == 0
    report = json.loads(report_path.read_text())
    rep = report["repetitions"][0]
    assert rep["pid"] == rep["plain"]


# ----------------------------------------------------------------- grid

def test_grid_single_point(synth_file, tmp_path):
    obs, _ = synth_file
    report_path = tmp_path / "grid.json"
    assert run(["grid", "--input", obs, "--no-normalize",
                "--ranks", "2,2,2,2,2,2", "--etas", "0.05", "--lambdas", "0.001",
                "--epochs", "15", "--split", "8:1:1", "--report", report_path]) == 0
    report = json.loads(report_path.read_text())
    assert len(report["cells"]) == 1
    assert report["winner"]["eta"] == 0.05
    assert report["winner"]["lambda"] == 0.001


def test_grid_divergent_cell_is_isolated(synth_file, tmp_path):
    obs, _ = synth_file
    report_path = tmp_path / "grid.json"
    assert run(["grid", "--input", obs, "--no-normalize",
                "--ranks", "2,2,2,2,2,2", "--etas", "5000,0.05",
                "--lambdas", "0", "--epochs", "15", "--split", "8:1:1",
                "--report", report_path]) == 0
    report = json.loads(report_path.read_text())
    by_eta = {c["eta"]: c for c in report["cells"]}
    assert by_eta[5000.0]["diverged"] is True
    assert by_eta[0.05]["diverged"] is False
    assert report["winner"]["eta"] == 0.05


def test_grid_winner_minimizes_validation_rmse(synth_file, tmp_path):
    obs, _ = synth_file
    report_path = tmp_path / "grid.json"
    assert run(["grid", "--input", obs, "--no-normalize",
                "--ranks", "2,2,2,2,2,2", "--etas", "0.1,0.03",
                "--lambdas", "0,0.01", "--epochs", "20", "--split", "8:1:1",
                "--report", report_path]) == 0
    report = json.loads(report_path.read_text())
    viable = [c for c in report["cells"] if not c["diverged"]]
    assert report["winner"]["valid_rmse"] == min(c["valid_rmse"] for c in viable)


def test_grid_empty_is_parameter_error(synth_file, tmp_path, capsys):
    obs, _ = synth_file
    code = run(["grid", "--input", obs, "--no-normalize", "--etas", "",
                "--lambdas", "0.01", "--report", tmp_path / "grid.json"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_train_raw_domain_metrics(tmp_path):
    path = tmp_path / "d.txt"
    rng = np.random.default_rng(1)
    lines = [f"{i} {j} {k} {rng.uniform(0, 5):.6f}"
             for i in range(5) for j in range(5) for k in range(3)]
    path.write_text("\n".join(lines) + "\n")
    log_report = tmp_path / "log.json"
    raw_report = tmp_path / "raw.json"
    base = ["train", "--input", path, "--ranks", "2,2,2,1,1,1", "--eta", "0.1",
            "--lambda", "0", "--epochs", "15", "--split", "6:2:2", "--reps", "1"]
    assert run(base + ["--report", log_report]) == 0
    assert run(base + ["--raw-domain-metrics", "--report", raw_report]) == 0
    log_rmse = json.loads(log_report.read_text())["mean_rmse"]
    raw_rmse = json.loads(raw_report.read_text())["mean_rmse"]
    assert raw_rmse != pytest.approx(log_rmse, rel=1e-6)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, means", [
    ("train", {"mean_rmse": lambda rep: rep["rmse"], "mean_mae": lambda rep: rep["mae"]}),
    ("ablate", {"mean_rmse_pid": lambda rep: rep["pid"]["rmse"],
                "mean_rmse_plain": lambda rep: rep["plain"]["rmse"]}),
], ids=["train", "ablate"])
def test_means_over_repetitions_whose_sum_overflows_are_finite(tmp_path, command, means):
    # each repetition's raw-domain rmse is finite, ~1e308, but two of them sum to inf
    path = tmp_path / "d.txt"
    rng = np.random.default_rng(0)
    path.write_text("".join(f"{i} {j} {k} {rng.uniform(0.9e308, 1e308)!r}\n"
                            for i in range(6) for j in range(6) for k in range(5)))
    report_path = tmp_path / "r.json"
    assert run([command, "--input", path, "--eta", "1e-300", "--raw-domain-metrics",
                "--reps", "2", "--epochs", "2", "--report", report_path]) == 0
    report = json.loads(report_path.read_text())
    for key, of_rep in means.items():
        reps = [of_rep(rep) for rep in report["repetitions"]]
        assert report[key] == pytest.approx(sum(r / len(reps) for r in reps), rel=1e-12)


@pytest.mark.filterwarnings("error")
def test_a_summary_near_the_float_limit_prints_in_exponent_form(tmp_path, capsys):
    # each repetition's raw-domain rmse is ~1e308: 309 digits before the point
    path = tmp_path / "d.txt"
    rng = np.random.default_rng(0)
    path.write_text("".join(f"{i} {j} {k} {rng.uniform(0.9e308, 1e308)!r}\n"
                            for i in range(6) for j in range(6) for k in range(5)))
    report_path = tmp_path / "r.json"
    assert run(["train", "--input", path, "--eta", "1e-300", "--raw-domain-metrics",
                "--reps", "2", "--epochs", "2", "--report", report_path]) == 0
    report = json.loads(report_path.read_text())
    assert capsys.readouterr().out == (
        f"mean rmse {report['mean_rmse']:.6e}, mean mae {report['mean_mae']:.6e} "
        f"over 2 repetition(s) -> {report_path}\n")
    assert report["mean_rmse"] > 1e307


def test_summary_numbers_keep_six_decimals_below_1e16():
    for x in (0.0, 0.1234565, -3.5, 123456.789, 9.999e15, -9.999e15, math.inf, math.nan):
        assert _decimal(x) == f"{x:.6f}"
    for x in (1e16, -1e16, 1.7e308, -math.inf):
        assert _decimal(x) == f"{x:.6e}"


def test_split_flags_default_to_split_spec():
    parser = build_parser()
    assert SplitSpec() == SplitSpec(ratios=(1, 2, 7), seed=0)
    for argv in (["split", "--input", "d", "--output-prefix", "p"],
                 ["train", "--input", "d", "--report", "r"],
                 ["ablate", "--input", "d", "--report", "r"],
                 ["grid", "--input", "d", "--report", "r"]):
        args = parser.parse_args(argv)
        assert _parse_split(args.split) == SplitSpec.ratios
    assert parser.parse_args(["split", "--input", "d", "--output-prefix", "p"]).seed == 0


def test_train_rejects_zero_reps(synth_file, tmp_path, capsys):
    obs, _ = synth_file
    code = run(train_args(obs, tmp_path / "r.json", **{"--reps": 0}))
    assert code == 1
    assert "reps" in capsys.readouterr().err


# ----------------------------------------------------- input protection

def test_commands_do_not_mutate_input(synth_file, tmp_path):
    obs, _ = synth_file
    original = obs.read_bytes()
    run(train_args(obs, tmp_path / "r.json", **{"--epochs": 5}))
    assert obs.read_bytes() == original


# ------------------------------------------------------ bad input handling

def assert_one_error_line(capsys, *fragments):
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    for fragment in fragments:
        assert fragment in lines[0]


@pytest.mark.parametrize("flag, value, name", [
    ("--eta", "nan", "eta"),
    ("--lambda", "inf", "lam"),
    ("--cd", "nan", "cd"),
    ("--init-scale", "inf", "init_scale"),
])
def test_train_rejects_non_finite_hyperparams(synth_file, tmp_path, capsys, flag, value, name):
    obs, _ = synth_file
    report_path = tmp_path / "r.json"
    assert run(train_args(obs, report_path, **{flag: value, "--epochs": 2})) == 1
    assert_one_error_line(capsys, f"{name} must be finite")
    assert not report_path.exists()


@pytest.mark.parametrize("flag, name", [("--noise", "noise_sigma"),
                                        ("--value-scale", "value_scale")])
def test_synth_rejects_non_finite_values(tmp_path, capsys, flag, name):
    output = tmp_path / "o.txt"
    assert run(["synth", "--dims", "4,4,3", "--ranks", "2,2,2,2,2,2", flag, "nan",
                "--output", output]) == 1
    assert_one_error_line(capsys, f"{name} must be finite")
    assert not output.exists()


@pytest.mark.parametrize("content", [
    "TWD v1 8 x 6 2 2 2 2 2 2\n",
    "TWD v1 2 2 2 1 1 1 1 1 1\nabc\n",
])
def test_evaluate_malformed_checkpoint(synth_file, tmp_path, capsys, content):
    obs, _ = synth_file
    ckpt = tmp_path / "bad.txt"
    ckpt.write_text(content)
    assert run(["evaluate", "--input", obs, "--checkpoint", ckpt]) == 1
    assert_one_error_line(capsys, "checkpoint")


def test_evaluate_rejects_declared_dims_mismatch(tmp_path, capsys):
    truth = tmp_path / "truth.txt"
    assert run(["synth", "--dims", "9,9,9", "--ranks", "1,1,1,1,1,1", "--density", "0.1",
                "--output", tmp_path / "obs.txt", "--truth", truth]) == 0
    capsys.readouterr()
    headed = tmp_path / "headed.txt"
    headed.write_text("# dims 4 4 3\n0 0 0 1.0\n3 3 2 0.5\n")
    assert run(["evaluate", "--input", headed, "--checkpoint", truth]) == 1
    assert_one_error_line(capsys, "(4, 4, 3)", "(9, 9, 9)")
    plain = tmp_path / "plain.txt"
    plain.write_text("0 0 0 1.0\n3 3 2 0.5\n")
    assert run(["evaluate", "--input", plain, "--dims", "4,4,3", "--checkpoint", truth]) == 1
    assert_one_error_line(capsys, "(4, 4, 3)", "(9, 9, 9)")
    # without a header the dims are inferred, and a smaller inferred shape scores
    assert run(["evaluate", "--input", plain, "--checkpoint", truth]) == 0
    assert "over 2 entries" in capsys.readouterr().out
    # a header that matches the checkpoint scores too
    matching = tmp_path / "matching.txt"
    matching.write_text("# dims 9 9 9\n0 0 0 1.0\n")
    assert run(["evaluate", "--input", matching, "--checkpoint", truth]) == 0


@pytest.mark.parametrize("header, code", [("# dims 4 4 3\n", 0), ("# dims 5 4 3\n", 1)],
                         ids=["header-matches", "header-differs"])
def test_evaluate_reads_a_named_pipe_once(tmp_path, header, code):
    # a second open of the pipe would wait for a writer that never comes,
    # so the command runs in a process of its own, under a timeout
    truth = tmp_path / "truth.txt"
    assert run(["synth", "--dims", "4,4,3", "--density", "0.5",
                "--output", tmp_path / "obs.txt", "--truth", truth]) == 0
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    text = header + "0 0 0 1.0\n3 3 2 0.5\n"
    writer = threading.Thread(target=lambda: pipe.write_text(text), daemon=True)
    writer.start()
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    try:
        proc = subprocess.run([sys.executable, "-m", "tensorwheel.cli", "evaluate",
                               "--input", str(pipe), "--checkpoint", str(truth)],
                              env=env, capture_output=True, text=True, timeout=60)
    finally:
        # a reader that does not block frees a writer the command left waiting
        os.close(os.open(pipe, os.O_RDONLY | os.O_NONBLOCK))
        writer.join(timeout=30)
    assert proc.returncode == code, proc.stderr
    if code:
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
        assert "(5, 4, 3)" in lines[0] and "(4, 4, 3)" in lines[0]
    else:
        assert proc.stdout.startswith("rmse ") and "over 2 entries" in proc.stdout


@pytest.mark.parametrize("command", ["ingest-check", "train"])
def test_non_utf8_input_is_one_error_line(tmp_path, capsys, command):
    path = tmp_path / "d.txt"
    path.write_bytes(b"0 0 0 1.0\n1 1 1 \xff\n")
    argv = [command, "--input", path]
    if command == "train":
        argv += ["--report", tmp_path / "r.json"]
    assert run(argv) == 1
    assert_one_error_line(capsys, "line 2", "UTF-8")


# sizes numpy refuses at once, without touching memory: 10**14 rows of a
# factor exceed any address space, and 10**20 exceeds numpy's index range
@pytest.mark.parametrize("header, over", [
    ("# dims 100000000000000 3 3\n", {}),
    ("", {"--dims": "3,100000000000000000000,3"}),
])
def test_train_dims_too_large_for_the_factors_is_one_error_line(tmp_path, capsys, header, over):
    path = tmp_path / "d.txt"
    path.write_text(header + "".join(f"{i} {j} {k} 1.0\n" for i in range(3) for j in range(3)
                                     for k in range(3)))
    report_path = tmp_path / "r.json"
    assert run(train_args(path, report_path, **over)) == 1
    assert_one_error_line(capsys, "cannot allocate factors for dims", "ranks")
    assert not report_path.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value_scale, code", [(3, 0), (4, 1)])
def test_evaluate_raw_domain_metrics_are_finite_or_one_error_line(tmp_path, capsys,
                                                                 value_scale, code):
    # at value scale 3 the squared raw-domain residuals overflow, at 4 the
    # predictions themselves do
    obs, truth = tmp_path / "obs.txt", tmp_path / "truth.txt"
    assert run(["synth", "--dims", "6,6,4", "--ranks", "2,2,2,2,2,2", "--density", "0.5",
                "--value-scale", value_scale, "--output", obs, "--truth", truth]) == 0
    capsys.readouterr()
    assert run(["evaluate", "--input", obs, "--checkpoint", truth, "--normalize",
                "--raw-domain-metrics"]) == code
    if code:
        assert_one_error_line(capsys, "rmse is not finite")
    else:
        out = capsys.readouterr().out
        assert "inf" not in out and "nan" not in out and out.startswith("rmse ")


TRAINING_COMMANDS = ("train", "ablate", "grid")
# the fixture's data diverges in both ways: at eta 200 (normalized, lambda 0.01,
# split 1:2:7) every step stays finite but the epoch's loss overflows to inf;
# at eta 30 (raw, lambda 0, split 8:1:1) a step overflows a factor
LOSS_DIVERGES = {"--eta": 200, "--epochs": 1}
STEP_DIVERGES = {"--no-normalize": None, "--eta": 30, "--lambda": 0, "--split": "8:1:1"}
GRID_FLAGS = {"--eta": "--etas", "--lambda": "--lambdas"}


def failure(command, over, trains=False):
    if command == "grid":
        over = {GRID_FLAGS.get(key, key): val for key, val in over.items()}
    text = " ".join(f"{k}" if v is None else f"{k} {v}" for k, v in over.items())
    return pytest.param(command, over, trains, id=f"{command} {text}")


CLI_FAILURES = [
    failure("ablate", {"--reps": 0}),
    failure("train", {"--split": "1:1:0"}),
    failure("ablate", {"--split": "1:1:0"}),
    failure("grid", {"--split": "1:0:1"}),
    failure("grid", {"--grid-epochs": 0}),
    *[failure(c, {"--dims": "1,2"}) for c in TRAINING_COMMANDS],
    *[failure(c, {"--ranks": "a,b"}) for c in TRAINING_COMMANDS],
    *[failure(c, {"--seed": -1}) for c in TRAINING_COMMANDS],
    *[failure(c, {"--no-normalize": None, "--raw-domain-metrics": None})
      for c in ("train", "ablate")],
    *[failure(c, LOSS_DIVERGES, trains=True) for c in TRAINING_COMMANDS],
    *[failure(c, STEP_DIVERGES, trains=True) for c in TRAINING_COMMANDS],
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, over, trains", CLI_FAILURES)
def test_cli_failure_is_one_error_line(synth_file, tmp_path, capsys, monkeypatch,
                                       command, over, trains):
    obs, _ = synth_file
    if not trains:
        def no_training(*args, **kwargs):
            pytest.fail("the command trained before it failed")
        monkeypatch.setattr("tensorwheel.cli.train", no_training)
    report_path = tmp_path / "r.json"
    opts = {"--input": obs, "--ranks": "2,2,2,2,2,2", "--epochs": 5, "--report": report_path}
    if command == "grid":
        opts.update({"--etas": 0.1, "--lambdas": 0.01})
    else:
        opts["--reps"] = 1
    opts.update(over)
    argv = [command]
    for key, val in opts.items():
        argv += [key] if val is None else [key, val]
    assert run(argv) == 1
    assert_one_error_line(capsys)
    assert not report_path.exists()
