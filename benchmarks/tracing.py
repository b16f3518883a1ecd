"""Span tracing around the public functions of tensorwheel's modules.

The program is traced from outside.  While a traced repeat runs, every
attribute of a loaded tensorwheel module that refers to a traced
function is replaced by a recording wrapper.  Patching the name each
calling module looks up means calls made inside the package
(``pid_sgd.train`` -> ``pid_sgd.sgd_step``, ``metrics.evaluate`` ->
``metrics.reconstruct_entries``, ``cli.run_train`` -> ``cli.train``)
are recorded as well as the benchmark's own calls.

Each span keeps its name, start, end and parent span.  Spans stay in
memory and are written out by ``write_spans`` when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import statistics
import sys
import time
from contextlib import contextmanager

PACKAGE = "tensorwheel"
ROOT_SPAN = "repeat"


def _gathered(arguments, _result):
    """Entries reconstructed and bytes of factor slices gathered for them
    (computed from the slice shapes, not measured)."""
    f, n = arguments["f"], len(arguments["ii"])
    r1, r2, r3 = f.ranks.r
    h1, h2, h3 = f.ranks.h
    return n, n * (r3 * r1 * h1 + r1 * r2 * h2 + r2 * r3 * h3) * 8


def _scored(arguments, _result):
    return len(arguments["test_set"]), 0


def _ingested(_arguments, result):
    return len(result), 0


def _written(arguments, _result):
    return 0, os.path.getsize(arguments["path"])


# span name -> (module, public function, counter of (items, bytes) per call)
TARGETS = {
    "cli.main": ("cli", "main", None),
    "pid_sgd.train": ("pid_sgd", "train", None),
    "pid_sgd.sgd_step": ("pid_sgd", "sgd_step", None),
    "pid_sgd.pid_error": ("pid_sgd", "pid_error", None),
    "pid_sgd.compute_loss": ("pid_sgd", "compute_loss", None),
    "metrics.evaluate": ("metrics", "evaluate", _scored),
    "twd_core.reconstruct_entries": ("twd_core", "reconstruct_entries", _gathered),
    "twd_core.save_checkpoint": ("twd_core", "save_checkpoint", _written),
    "twd_core.load_checkpoint": ("twd_core", "load_checkpoint", None),
    "tensor_store.ingest": ("tensor_store", "ingest", _ingested),
    "tensor_store.normalize": ("tensor_store", "normalize", None),
    "tensor_store.split": ("tensor_store", "split", None),
    "tensor_store.write_coo": ("tensor_store", "write_coo", None),
    "synthgen.generate": ("synthgen", "generate", None),
    "synthgen.holdout_set": ("synthgen", "holdout_set", None),
}

# span record fields
NAME, START, END, PARENT, ITEMS, BYTES = range(6)
COUNTS = ("calls", "items", "bytes")


class Tracer:
    """Records spans while installed; one root span per traced repeat."""

    def __init__(self):
        self.spans: list[list] = []
        self.missing: set[str] = set()
        self._stack: list[int] = []

    def _open(self, name):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def _close(self, rec):
        rec[END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self):
        """The root span of one traced repeat."""
        rec = self._open(ROOT_SPAN)
        try:
            yield
        finally:
            self._close(rec)

    def _wrap(self, name, fn, counter):
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if counter:
                bound = signature.bind(*args, **kwargs).arguments
                rec[ITEMS], rec[BYTES] = counter(bound, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every traced function under each name the package binds it to.

        A function that no longer exists in its module is recorded in
        ``missing``; its metrics are then reported as missing, not as 0.
        """
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        patches = []
        for name, (module_name, attr, counter) in TARGETS.items():
            try:
                home = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                self.missing.add(name)
                continue
            fn = getattr(home, attr, None)
            if not callable(fn):
                self.missing.add(name)
                continue
            wrapper = self._wrap(name, fn, counter)
            patches += [(m, key, fn, wrapper) for m in modules
                        for key, value in vars(m).items() if value is fn]
        for m, key, _, wrapper in patches:
            setattr(m, key, wrapper)
        try:
            yield
        finally:
            for m, key, fn, _ in patches:
                setattr(m, key, fn)

    def stats(self) -> dict:
        """Per span name: per-repeat lists of calls, inclusive and self
        seconds, items and bytes, plus every call's self seconds.

        Self time is a span's duration minus the time its child spans
        cover.  Spans outside any root span are ignored.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        root = [-1] * len(spans)
        for idx, rec in enumerate(spans):
            parent = rec[PARENT]
            if parent < 0:
                root[idx] = idx if rec[NAME] == ROOT_SPAN else -1
            else:
                root[idx] = root[parent]
                child[parent] += rec[END] - rec[START]
        repeats = [idx for idx, rec in enumerate(spans) if rec[NAME] == ROOT_SPAN and rec[PARENT] < 0]
        slot = {idx: pos for pos, idx in enumerate(repeats)}
        out: dict[str, dict] = {}
        for idx, rec in enumerate(spans):
            if root[idx] < 0:
                continue
            entry = out.get(rec[NAME])
            if entry is None:
                entry = out[rec[NAME]] = {key: [0] * len(repeats) for key in COUNTS}
                entry.update({key: [0.0] * len(repeats) for key in ("incl_s", "self_s")})
                entry["self_samples"] = []
            pos = slot[root[idx]]
            duration = rec[END] - rec[START]
            self_s = duration - child[idx]
            entry["calls"][pos] += 1
            entry["incl_s"][pos] += duration
            entry["self_s"][pos] += self_s
            entry["items"][pos] += rec[ITEMS]
            entry["bytes"][pos] += rec[BYTES]
            entry["self_samples"].append(self_s)
        return out


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile (q in (0, 100]) of a non-empty sample."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def summarize(entry: dict | None, statistic: str) -> float:
    """One figure of a span's ``stats()`` entry; 0 when the span never ran.

    calls, incl_s, self_s, items, bytes: median over traced repeats of
    the per-repeat total.  self_us_p50, self_us_p99: percentile of the
    self time of every call, in us.  us_per_item: median over repeats of
    inclusive us per item.  mb: bytes in 1e6.
    """
    if entry is None:
        return 0.0
    if statistic.startswith("self_us_p"):
        return percentile(entry["self_samples"], float(statistic[9:])) * 1e6
    if statistic == "us_per_item":
        ratios = [s / n * 1e6 for s, n in zip(entry["incl_s"], entry["items"]) if n]
        return statistics.median(ratios) if ratios else 0.0
    if statistic == "mb":
        return statistics.median_low(entry["bytes"]) / 1e6
    if statistic in COUNTS:
        return statistics.median_low(entry[statistic])
    return statistics.median(entry[statistic])


def write_spans(tracer: Tracer, path) -> None:
    """Write every span as one tab-separated line: id, parent, name,
    start, end (seconds), items, bytes."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id\tparent\tname\tstart\tend\titems\tbytes\n")
        for idx, rec in enumerate(tracer.spans):
            fh.write(f"{idx}\t{rec[PARENT]}\t{rec[NAME]}\t{rec[START]!r}\t{rec[END]!r}"
                     f"\t{rec[ITEMS]}\t{rec[BYTES]}\n")
