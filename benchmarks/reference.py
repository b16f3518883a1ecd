"""A fixed reference kernel that times the host, not the program.

On a shared host the CPU speed a process gets drifts by up to 2x over
minutes, so a wall time measures the host as much as the program.  The
benchmark times this kernel right before and after each timed chunk of
the program and reports the chunk in reference ops: the host's speed
cancels and the program's cost stays.  The kernel mixes what
tensorwheel spends its time on (tiny numpy contractions, Python-level
float formatting and parsing, a vector product over a few thousand
elements) and never calls tensorwheel, so a change of the program does
not move it.  Keep it unchanged: every figure in reference ops is
relative to it.
"""

from __future__ import annotations

import time

import numpy as np

OPS = 64  # ops per measurement, about 2 ms
# seconds per op on an undisturbed core of the 2-vCPU Xeon VM the bounds
# were set on; converts a time in reference ops back to seconds where a
# metric must be in seconds
NOMINAL_S = 30e-6

_rng = np.random.default_rng(20250520)
_A, _B, _C = (_rng.random((5, 5, 2)) for _ in range(3))
_G = _rng.random((2, 2, 2))
_X, _Y = _rng.random(4096), _rng.random(4096)
_ROW = _rng.random(4)


def _op() -> float:
    ab = np.tensordot(_A, _B, axes=([1], [0]))
    t = np.tensordot(ab, _C, axes=([0, 2], [1, 0]))
    total = float(np.vdot(t, _G))
    line = " ".join(repr(float(v)) for v in _ROW)
    total += sum(float(x) for x in line.split())
    return total + float(_X @ _Y)


def measure() -> float:
    """Seconds per reference op, timed over OPS ops."""
    began = time.perf_counter()
    for _ in range(OPS):
        _op()
    return (time.perf_counter() - began) / OPS
