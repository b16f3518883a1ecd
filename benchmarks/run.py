#!/usr/bin/env python3
"""tensorwheel benchmark: fixed planted workloads, end to end and per layer.

Run from the repository root:

    python3 benchmarks/run.py --workload planted-small --seed 0 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --trace 1

One process runs one workload closed-loop: a single caller runs the
workload's pipeline back to back until ``--seconds`` is used up.  With
``--trace 0`` it reports the end-to-end metrics, untraced.  With
``--trace 1`` it alternates untraced and traced repeats and reports the
per-layer metrics from the traced ones, and the tracing overhead as the
difference of the two.  ``--workload all`` runs every workload, each in
a child process of its own.

The end-to-end times are taken against a fixed reference kernel timed
right before and after each timed chunk (``reference.py``), so that the
CPU speed a shared host gives the process cancels out.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every check a
repeat fails, and every exception a repeat raises, is one failed
operation.  A fuller record and, for traced runs, every span are
written under ``.bench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# an untraced run times at least SETUP_SAMPLES set-ups and at least
# SETUP_SECONDS of them, so that a set-up of milliseconds is sampled
# hundreds of times; setup_s is the median.  They are spread over the
# run, keeping up with the repeats, so that the median stands for the
# whole run rather than one second of it.
SETUP_SAMPLES = 3
SETUP_SECONDS = 1.0

# name -> (unit, better); BENCHMARK.json lists the same metrics
END_TO_END = {
    "entry_ref": ("ref", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
# figures of the run itself, from its untraced repeats (the overhead from both kinds)
RUN_LAYER = {
    "entry_us": ("us", "lower"),
    "reference_us": ("us", "lower"),
    "wall_s": ("s", "lower"),
    "epochs_to_best": ("epochs", "lower"),
    "heldout_rmse": ("1", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "pid_sgd.epochs": ("count", "lower"),
}
# name -> (unit, better, span, statistic); see tracing.summarize
SPAN_LAYER = {
    "pid_sgd.sgd_step_calls": ("count", "lower", "pid_sgd.sgd_step", "calls"),
    "pid_sgd.sgd_step_self_s": ("s", "lower", "pid_sgd.sgd_step", "self_s"),
    "pid_sgd.sgd_step_self_us_p50": ("us", "lower", "pid_sgd.sgd_step", "self_us_p50"),
    "pid_sgd.sgd_step_self_us_p99": ("us", "lower", "pid_sgd.sgd_step", "self_us_p99"),
    "pid_sgd.pid_error_s": ("s", "lower", "pid_sgd.pid_error", "incl_s"),
    "pid_sgd.compute_loss_self_s": ("s", "lower", "pid_sgd.compute_loss", "self_s"),
    "pid_sgd.train_s": ("s", "lower", "pid_sgd.train", "incl_s"),
    "pid_sgd.train_self_s": ("s", "lower", "pid_sgd.train", "self_s"),
    "twd_core.reconstruct_entries_s": ("s", "lower", "twd_core.reconstruct_entries", "incl_s"),
    "twd_core.reconstruct_entries_calls": ("count", "lower", "twd_core.reconstruct_entries", "calls"),
    "twd_core.reconstruct_entries_us_per_entry":
        ("us", "lower", "twd_core.reconstruct_entries", "us_per_item"),
    "twd_core.gathered_mb": ("MB", "lower", "twd_core.reconstruct_entries", "mb"),
    "metrics.evaluate_self_s": ("s", "lower", "metrics.evaluate", "self_s"),
    "metrics.evaluate_calls": ("count", "lower", "metrics.evaluate", "calls"),
    "metrics.entries_scored": ("count", "lower", "metrics.evaluate", "items"),
    "tensor_store.ingest_s": ("s", "lower", "tensor_store.ingest", "incl_s"),
    "tensor_store.normalize_s": ("s", "lower", "tensor_store.normalize", "incl_s"),
    "tensor_store.split_s": ("s", "lower", "tensor_store.split", "incl_s"),
    "tensor_store.entries": ("count", "higher", "tensor_store.ingest", "items"),
    "tensor_store.write_coo_s": ("s", "lower", "tensor_store.write_coo", "incl_s"),
    "synthgen.generate_s": ("s", "lower", "synthgen.generate", "incl_s"),
    "synthgen.holdout_set_s": ("s", "lower", "synthgen.holdout_set", "incl_s"),
    "twd_core.checkpoint_save_s": ("s", "lower", "twd_core.save_checkpoint", "incl_s"),
    "twd_core.checkpoint_load_s": ("s", "lower", "twd_core.load_checkpoint", "incl_s"),
    "twd_core.checkpoint_bytes": ("bytes", "lower", "twd_core.save_checkpoint", "bytes"),
    "cli.self_s": ("s", "lower", "cli.main", "self_s"),
}
PER_LAYER = {**RUN_LAYER, **{name: spec[:2] for name, spec in SPAN_LAYER.items()}}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["planted-small", "cli-default", "data-path", "all"])
    p.add_argument("--seed", type=int, default=0, help="workload seed")
    p.add_argument("--seconds", type=float, default=30.0, help="measuring time")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--scale", choices=["full", "toy"], default="full",
                   help="toy: tiny inputs, for the benchmark's own test")
    return p.parse_args(argv)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def limit_threads():
    """Cap BLAS/OpenMP pools at nproc; must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            wanted = int(os.environ.get(var, nproc()))
        except ValueError:
            wanted = nproc()
        os.environ[var] = str(max(1, min(wanted, nproc())))


def import_program():
    """Import tensorwheel from this checkout's sources, never from elsewhere."""
    package = SRC / "tensorwheel"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: tensorwheel sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import tensorwheel
    if Path(tensorwheel.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported tensorwheel from {tensorwheel.__file__}, not {package}")


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if not found."""
    import ctypes
    import numpy as np
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def git_commit() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_metadata(seed: int) -> dict:
    import numpy as np
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "nproc": nproc(),
        "seed": seed,
        "commit": git_commit(),
    }


def median(values):
    return statistics.median(values) if values else 0.0


class Run:
    """Repeats one workload for a time budget and tallies its checks."""

    def __init__(self, workload, seconds: float, trace: bool):
        self.workload = workload
        self.seconds = seconds
        self.trace = trace
        self.untraced: list = []
        self.traced: list = []
        self.setups: list[tuple[float, float]] = []  # (seconds, seconds per reference op)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def _attempt(self, what, fn):
        try:
            return fn()
        except Exception:  # a failing repeat is a failed operation, not the end of the run
            traceback.print_exc(file=sys.stderr)
            self._count(f"{what} raised", False)
            return None

    def _count(self, check: str, passed: bool):
        self.attempted += 1
        if not passed:
            self.failed += 1
            self.failures.append(check)

    def _traced_repeat(self, tracer):
        with tracer.installed(), tracer.span():
            return self.workload.repeat()

    def _time_setup(self) -> bool:
        """Time one set-up between two reference timings; False if it raised."""
        import reference
        before = reference.measure()
        began = time.perf_counter()
        if self._attempt("setup", self.workload.setup) is None:
            return False
        self.setups.append((time.perf_counter() - began, (before + reference.measure()) / 2))
        return True

    def _setup_s(self) -> float:
        return sum(seconds for seconds, _ in self.setups)

    def measure(self, tracer=None):
        self._attempt("prepare", self.workload.prepare)
        start = time.perf_counter()
        for n in itertools.count(1):
            traced = self.trace and n % 2 == 0
            began = time.perf_counter()
            if traced:
                outcome = self._attempt("traced repeat", lambda: self._traced_repeat(tracer))
            else:
                outcome = self._attempt("repeat", self.workload.repeat)
            last = time.perf_counter() - began
            if outcome is not None:
                for check, passed in outcome.checks.items():
                    self._count(check, passed)
                (self.traced if traced else self.untraced).append(outcome)
            if not self.trace:
                due = SETUP_SECONDS * (time.perf_counter() - start) / self.seconds
                while self._setup_s() < due and self._time_setup():
                    pass
            # stop before the next repeat (an untraced-traced pair when
            # tracing) would overrun the budget
            ahead = last * (2 if self.trace else 1)
            if (traced or not self.trace) and time.perf_counter() - start + ahead > self.seconds:
                break
        if not self.trace:
            while len(self.setups) < SETUP_SAMPLES or self._setup_s() < SETUP_SECONDS:
                if not self._time_setup():
                    break
        fingerprints = {repr(o.fingerprint) for o in self.untraced + self.traced}
        if len(self.untraced) + len(self.traced) > 1:
            self._count("results identical across repeats", len(fingerprints) == 1)

    def _chunks(self) -> dict[str, list[tuple[float, float]]]:
        kinds: dict[str, list[tuple[float, float]]] = {}
        for outcome in self.untraced:
            for kind, chunks in outcome.chunks.items():
                kinds.setdefault(kind, []).extend(chunks)
        return kinds

    def entry_ref(self) -> float:
        """Wall time per entry visit in reference ops: for each kind of
        chunk (an epoch, or one call of the data path) the median over the
        untraced repeats of the chunk's time per visit divided by the
        reference timed around it, summed over the kinds."""
        return sum(median([us / ref for us, ref in chunks])
                   for chunks in self._chunks().values())

    def entry_us(self) -> float:
        """The same in microseconds: it follows the host's speed."""
        return sum(median([us for us, _ in chunks]) for chunks in self._chunks().values())

    def reference_us(self) -> float:
        return median([ref for chunks in self._chunks().values() for _, ref in chunks])

    def end_to_end(self) -> dict:
        import reference
        return {
            "entry_ref": self.entry_ref(),
            # in reference ops, converted to seconds at the nominal speed
            "setup_s": median([t / ref for t, ref in self.setups]) * reference.NOMINAL_S,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }

    def info(self) -> dict:
        """Workload-specific untraced figures, printed beside the metrics."""
        out = {"entry_us": (self.entry_us(), "us"), "reference_us": (self.reference_us(), "us"),
               "chunks": (sum(len(c) for c in self._chunks().values()), "count"),
               "setup_wall_s": (median([t for t, _ in self.setups]), "s"),
               "wall_s": (median([o.wall_s for o in self.untraced]), "s")}
        phases = self.untraced[0].phases if self.untraced else {}
        for phase in phases.keys() - {"setup"}:
            out[f"{phase}_s"] = (median([o.phases[phase] for o in self.untraced]), "s")
        if self.untraced:
            first = self.untraced[0]
            out["repeats"] = (len(self.untraced), "count")
            out["entry_visits"] = (first.visits, "count")
            out["epochs"] = (first.epochs, "epochs")
            out["epochs_to_best"] = (first.epochs_to_best, "epochs")
            out["heldout_rmse"] = (first.heldout_rmse, "1")
        return out

    def per_layer(self, tracer) -> dict:
        from tracing import summarize
        first = (self.untraced or self.traced or [None])[0]
        values = {
            "entry_us": self.entry_us(),
            "reference_us": self.reference_us(),
            "wall_s": median([o.wall_s for o in self.untraced]),
            "epochs_to_best": first.epochs_to_best if first else 0,
            "heldout_rmse": first.heldout_rmse if first else 0.0,
            # each traced repeat follows an untraced one; pairing them cancels slow drift
            "trace.overhead_s": median([t.wall_s - u.wall_s
                                        for u, t in zip(self.untraced, self.traced)]),
            "pid_sgd.epochs": first.epochs if first else 0,
        }
        stats = tracer.stats()
        for name, (_, _, span, statistic) in SPAN_LAYER.items():
            # a span whose function is gone is missing, not 0
            values[name] = None if span in tracer.missing else summarize(stats.get(span), statistic)
        return values


def run_one(args) -> int:
    limit_threads()
    import_program()
    from tracing import Tracer, write_spans
    from workloads import WORKLOADS

    meta = run_metadata(args.seed)
    print(f"# tensorwheel benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}, scale {args.scale}")
    print("# meta " + json.dumps(meta, sort_keys=True))

    OUT_DIR.mkdir(exist_ok=True)
    suffix = "-toy" if args.scale == "toy" else ""
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    tracer = Tracer() if args.trace else None
    try:
        workload = WORKLOADS[args.workload](args.seed, args.scale == "toy", workdir)
        run = Run(workload, args.seconds, bool(args.trace))
        run.measure(tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info = run.info()
    if args.trace:
        units = PER_LAYER
        values = run.per_layer(tracer)
        write_spans(tracer, OUT_DIR / f"spans-{args.workload}{suffix}.tsv")
    else:
        units = END_TO_END
        values = run.end_to_end()
    result = {
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": units[name][0]} for name in units},
    }
    record = {"meta": meta, "args": vars(args), "result": result,
              "info": {k: {"value": v, "unit": u} for k, (v, u) in info.items()},
              "failures": run.failures, "missing_spans": sorted(tracer.missing) if tracer else [],
              "untraced_wall_s": [o.wall_s for o in run.untraced],
              "traced_wall_s": [o.wall_s for o in run.traced],
              "setup_samples_s": run.setups}
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}{suffix}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")

    for name, (unit, _) in units.items():
        value = values[name]
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"{name:45s} {shown:>14s} {unit}")
    for name, (value, unit) in info.items():
        print(f"{'(info) ' + name:45s} {value:14.6g} {unit}")
    if tracer and tracer.missing:
        print("# missing spans: " + ", ".join(sorted(tracer.missing)))
    print(f"# checks: {run.attempted} attempted, {run.failed} failed"
          + (": " + "; ".join(run.failures) if run.failures else ""))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    status = 0
    for name in ("planted-small", "cli-default", "data-path"):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--scale", args.scale]
        status = max(status, subprocess.run(argv, check=False).returncode)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
