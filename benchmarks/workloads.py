"""The benchmark's workloads.

Each workload makes its inputs from the workload seed with
``synthgen.generate``, runs one pipeline of tensorwheel's public API per
repeat and checks the outputs.  The workloads are chosen so that a
different layer does most of the work in each:

- ``planted-small``: the per-step SGD kernel (``pid_sgd.sgd_step``);
- ``cli-default``: the ``tensorwheel train`` path, where the 1:2:7 split
  makes per-epoch loss and validation (batched reconstruction) a large
  share beside the steps;
- ``data-path``: no SGD at all; COO and checkpoint I/O in
  ``tensor_store``/``twd_core`` and batched reconstruction over 19,200
  entries.

Calls go through module attributes (``pid_sgd.train``, not a name bound
at import) so that a traced repeat sees them through the wrappers of
``tracing.py``.

Besides its wall time, a repeat reports short timed chunks, each
paired with the reference kernel of ``reference.py`` timed right before
and after it: each training epoch, or each call of the data path.
Dividing a chunk by its reference cancels the host's CPU speed, which
drifts by up to 2x on a shared host.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import reference
from tensorwheel import cli, metrics, pid_sgd, synthgen, tensor_store, twd_core

clock = time.perf_counter


@dataclass
class Outcome:
    """What one repeat measured and produced."""

    wall_s: float  # the whole timed pipeline, reference timings left out
    visits: int  # entry visits: SGD steps, or entries passing through data-path
    phases: dict[str, float]  # phase -> seconds; setup_s is timed apart, see run.Run
    # chunk kind -> (us per entry visit, us per reference op around it) of
    # each chunk of that kind in the repeat
    chunks: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    checks: dict[str, bool] = field(default_factory=dict)
    fingerprint: object = None  # must be identical across the repeats of a run
    epochs: int = 0
    epochs_to_best: int = 0
    heldout_rmse: float = 0.0


class EpochClock:
    """Times every training epoch against the reference kernel.

    ``pid_sgd.train`` calls ``pid_sgd.epoch_visit_order`` once at the
    start of every epoch.  While installed, a wrapper there times the
    reference kernel (about 2 ms against an epoch of tens of
    milliseconds) and then notes when the epoch starts.  The interval
    from one epoch's start to the next epoch's reference covers the
    epoch's steps, its loss and its validation.
    """

    def __init__(self):
        self.starts: list[float] = []  # when each epoch began, after its reference
        self.refs: list[float] = []  # seconds per reference op, timed before each epoch
        self.ref_s = 0.0  # time spent in the reference kernel
        self.ends: list[float] = []  # when each reference began

    @contextmanager
    def installed(self):
        original = getattr(pid_sgd, "epoch_visit_order", None)
        if original is None:  # renamed or inlined: chunks() falls back to whole trainings
            yield self
            return

        def timed(*args, **kwargs):
            self._reference()
            self.starts.append(clock())
            return original(*args, **kwargs)

        pid_sgd.epoch_visit_order = timed
        try:
            yield self
        finally:
            pid_sgd.epoch_visit_order = original

    def _reference(self):
        began = clock()
        self.ends.append(began)
        self.refs.append(reference.measure())
        self.ref_s += clock() - began

    def chunks(self, n_train: int, train_s: float, visits: int) -> list[tuple[float, float]]:
        """(us per step, us per reference op) of every epoch that has a
        successor.  Without two epoch starts the whole training, less the
        reference time, is one chunk against the references seen."""
        if len(self.starts) < 2:
            ref = sum(self.refs) / len(self.refs) if self.refs else reference.measure()
            return [((train_s - self.ref_s) / visits * 1e6, ref * 1e6)]
        return [((end - start) / n_train * 1e6, (ref_before + ref_after) / 2 * 1e6)
                for start, end, ref_before, ref_after
                in zip(self.starts, self.ends[1:], self.refs, self.refs[1:])]


class PlantedSmall:
    """The README library example on the acceptance planted set."""

    name = "planted-small"
    rmse_limit = 0.05  # acceptance criterion 4

    def __init__(self, seed: int, toy: bool, workdir: Path):
        self.ranks = twd_core.Ranks(r=(2, 2, 2), h=(2, 2, 2))
        self.spec = synthgen.SynthSpec(dims=(6, 6, 5) if toy else (10, 10, 8), ranks=self.ranks,
                                       density=0.5 if toy else 0.3, noise_sigma=0.0, seed=seed)
        self.split_spec = tensor_store.SplitSpec(ratios=(9, 1, 0), seed=seed)
        self.hp = pid_sgd.HyperParams(eta=0.1, lam=0.0, cp=1.0, ci=0.0, cd=0.001, seed=seed)

    def prepare(self):
        pass

    def setup(self):
        """generate -> holdout_set -> split: tensors ready for training."""
        observed, truth = synthgen.generate(self.spec)
        held = synthgen.holdout_set(observed, truth)
        train_t, valid_t, _ = tensor_store.split(observed, self.split_spec)
        return observed.dims, held, train_t, valid_t

    def repeat(self) -> Outcome:
        t0 = clock()
        dims, held, train_t, valid_t = self.setup()
        t1 = clock()
        epochs = EpochClock()
        with epochs.installed():
            factors, report = pid_sgd.train(train_t, valid_t, dims, self.ranks, self.hp)
        t2 = clock()
        rmse = metrics.evaluate(factors, held).rmse
        t3 = clock()
        visits = len(train_t) * report.epochs_run
        return Outcome(
            wall_s=t3 - t0 - epochs.ref_s, visits=visits,
            phases={"setup": t1 - t0, "train": t2 - t1 - epochs.ref_s, "score": t3 - t2},
            chunks={"epoch": epochs.chunks(len(train_t), t2 - t1, visits)},
            checks={f"heldout_rmse < {self.rmse_limit}": rmse < self.rmse_limit},
            fingerprint=(report.converged_at, rmse), epochs=report.epochs_run,
            epochs_to_best=report.converged_at + 1, heldout_rmse=rmse)


class CliDefault:
    """``tensorwheel train`` in-process with every default and --reps 1."""

    name = "cli-default"

    def __init__(self, seed: int, toy: bool, workdir: Path):
        self.spec = synthgen.SynthSpec(
            dims=(8, 8, 6) if toy else (24, 24, 16),
            ranks=twd_core.Ranks(r=(5, 5, 5), h=(2, 2, 2)),
            density=0.3 if toy else 0.2, seed=seed)
        self.input = workdir / "cli-input.txt"
        self.report = workdir / "cli-report.json"
        self.argv = ["train", "--input", str(self.input), "--reps", "1",
                     "--report", str(self.report)]

    def prepare(self):
        observed, _ = synthgen.generate(self.spec)
        tensor_store.write_coo(observed, self.input)
        self.n_train = tensor_store.largest_remainder_sizes(len(observed), (1, 2, 7))[0]

    def setup(self):
        """ingest -> normalize -> split: the calls ``tensorwheel train``
        starts with, at its defaults (normalize on, 1:2:7, seed 0)."""
        tensor = tensor_store.normalize(tensor_store.ingest(self.input))
        return tensor_store.split(tensor, tensor_store.SplitSpec(ratios=(1, 2, 7), seed=0))

    def repeat(self) -> Outcome:
        epochs = EpochClock()
        t0 = clock()
        with contextlib.redirect_stdout(io.StringIO()), epochs.installed():
            status = cli.main(self.argv)
        t1 = clock()
        data = self.report.read_bytes()
        rep = json.loads(data)["repetitions"][0]
        visits = self.n_train * rep["epochs_run"]
        return Outcome(
            wall_s=t1 - t0 - epochs.ref_s, visits=visits, phases={"main": t1 - t0 - epochs.ref_s},
            chunks={"epoch": epochs.chunks(self.n_train, t1 - t0, visits)},
            checks={"main returns 0": status == 0},
            fingerprint=hashlib.sha256(data).hexdigest(), epochs=rep["epochs_run"],
            epochs_to_best=rep["converged_at"] + 1, heldout_rmse=rep["rmse"])


class DataPath:
    """synth -> setup -> score of a planted file; no SGD."""

    name = "data-path"
    rmse_limit = 1e-9
    ratios = (8, 1, 1)

    def __init__(self, seed: int, toy: bool, workdir: Path):
        self.spec = synthgen.SynthSpec(
            dims=(20, 20, 10) if toy else (80, 80, 30),
            ranks=twd_core.Ranks(r=(5, 5, 5), h=(2, 2, 2)), density=0.1, seed=seed)
        self.split_spec = tensor_store.SplitSpec(ratios=self.ratios, seed=seed)
        self.coo = workdir / "data-path.txt"
        self.checkpoint = workdir / "data-path-truth.txt"

    def prepare(self):
        pass

    def setup(self):
        """ingest -> normalize -> split: from the file on disk to tensors
        ready for training."""
        raw = tensor_store.ingest(self.coo)
        return raw, tensor_store.split(tensor_store.normalize(raw), self.split_spec)

    def repeat(self) -> Outcome:
        calls: dict[str, float] = {}  # call -> seconds
        refs = [reference.measure()]  # seconds per reference op, around each call

        def timed(name, fn, *args):
            began = clock()
            result = fn(*args)
            calls[name] = clock() - began
            refs.append(reference.measure())
            return result

        observed, truth = timed("generate", synthgen.generate, self.spec)
        timed("write_coo", tensor_store.write_coo, observed, self.coo)
        timed("save_checkpoint", twd_core.save_checkpoint, truth, self.checkpoint)
        raw = timed("ingest", tensor_store.ingest, self.coo)
        normalized = timed("normalize", tensor_store.normalize, raw)
        parts = timed("split", tensor_store.split, normalized, self.split_spec)
        loaded = timed("load_checkpoint", twd_core.load_checkpoint, self.checkpoint)
        rmse = timed("evaluate", metrics.evaluate, loaded, raw).rmse
        n_obs = len(observed)
        sizes = tuple(len(p) for p in parts)
        phases = {phase: sum(calls[name] for name in names) for phase, names in (
            ("synth", ("generate", "write_coo", "save_checkpoint")),
            ("setup", ("ingest", "normalize", "split")),
            ("score", ("load_checkpoint", "evaluate")))}
        return Outcome(
            wall_s=sum(calls.values()), visits=n_obs, phases=phases,
            chunks={name: [(seconds / n_obs * 1e6, (ref_before + ref_after) / 2 * 1e6)]
                    for (name, seconds), ref_before, ref_after
                    in zip(calls.items(), refs, refs[1:])},
            checks={
                f"truth rmse <= {self.rmse_limit}": rmse <= self.rmse_limit,
                "ingested count == generated count": len(raw) == n_obs,
                "split sizes == largest_remainder_sizes":
                    sizes == tensor_store.largest_remainder_sizes(len(raw), self.ratios),
                "reloaded checkpoint == saved factors (bitwise)": all(
                    getattr(loaded, n).tobytes() == getattr(truth, n).tobytes() for n in "gabc"),
            },
            fingerprint=(rmse, sizes), heldout_rmse=rmse)


WORKLOADS = {w.name: w for w in (PlantedSmall, CliDefault, DataPath)}
