"""The benchmark's own test: each workload at toy size, untraced and
traced, prints every metric BENCHMARK.json names, with its unit, and
passes its checks.

    python3 -m pytest -q benchmarks/test_run.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def bench(workload, trace, root=ROOT):
    argv = [sys.executable, str(root / "benchmarks" / "run.py"), "--workload", workload,
            "--seed", "0", "--seconds", "1", "--trace", str(trace), "--scale", "toy"]
    return subprocess.run(argv, capture_output=True, text=True, timeout=170, cwd=root)


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_unit(workload, trace, kind):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1] if line.split()}
    for name, unit in units.items():
        assert isinstance(result["metrics"][name]["value"], (int, float)), name
        assert printed.get(name) == unit, name


def test_metric_tables_match_benchmark_json():
    for kind, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in SPEC[kind]} == table


def test_no_result_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmarks")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("planted-small", 0, root=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_spans_nest_and_restore():
    from tensorwheel import pid_sgd, synthgen, twd_core
    spec = synthgen.SynthSpec(dims=(4, 4, 3), ranks=twd_core.Ranks(r=(2, 2, 2), h=(2, 2, 2)),
                              density=0.5)
    observed, truth = synthgen.generate(spec)
    original = pid_sgd.compute_loss
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.span():
        pid_sgd.compute_loss(truth, observed, 0.0)
    assert pid_sgd.compute_loss is original
    names = [rec[tracing.NAME] for rec in tracer.spans]
    assert names == ["repeat", "pid_sgd.compute_loss", "twd_core.reconstruct_entries"]
    assert [rec[tracing.PARENT] for rec in tracer.spans] == [-1, 0, 1]
    loss = tracer.stats()["pid_sgd.compute_loss"]
    inner = tracer.stats()["twd_core.reconstruct_entries"]
    assert loss["self_s"][0] == pytest.approx(loss["incl_s"][0] - inner["incl_s"][0])
    assert inner["items"] == [len(observed)]


def test_gone_function_is_missing_not_zero(monkeypatch):
    monkeypatch.setitem(tracing.TARGETS, "pid_sgd.sgd_step", ("pid_sgd", "gone", None))
    tracer = tracing.Tracer()
    with tracer.installed():
        pass
    assert tracer.missing == {"pid_sgd.sgd_step"}
    values = run.Run(None, 0, True).per_layer(tracer)
    assert values["pid_sgd.sgd_step_calls"] is None
    assert values["cli.self_s"] == 0


def _toy_training():
    from tensorwheel import pid_sgd, synthgen, tensor_store, twd_core
    ranks = twd_core.Ranks(r=(2, 2, 2), h=(2, 2, 2))
    observed, _ = synthgen.generate(synthgen.SynthSpec(dims=(4, 4, 3), ranks=ranks, density=0.5))
    empty = tensor_store.SparseTensor(observed.dims, [])
    hp = pid_sgd.HyperParams(eta=0.1, lam=0.0, max_epochs=4)
    return lambda: pid_sgd.train(observed, empty, observed.dims, ranks, hp), len(observed)


def test_epoch_clock_times_each_epoch_and_restores():
    from tensorwheel import pid_sgd
    original = pid_sgd.epoch_visit_order
    train, n = _toy_training()
    clock = workloads.EpochClock()
    with clock.installed():
        _, report = train()
    assert pid_sgd.epoch_visit_order is original
    chunks = clock.chunks(n, 1.0, n * report.epochs_run)
    assert report.epochs_run == 4 and len(chunks) == 3
    assert all(us > 0 and ref > 0 for us, ref in chunks)


def test_epoch_clock_without_the_hook_takes_whole_training(monkeypatch):
    from tensorwheel import pid_sgd
    train, n = _toy_training()
    monkeypatch.delattr(pid_sgd, "epoch_visit_order")
    clock = workloads.EpochClock()
    with clock.installed():
        assert not hasattr(pid_sgd, "epoch_visit_order")
    ((us, ref),) = clock.chunks(n, 0.01, 100)
    assert us == pytest.approx(100.0) and ref > 0
