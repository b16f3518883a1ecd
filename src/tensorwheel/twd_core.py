"""Tensor wheel factors: initialization, reconstruction, and checkpoints.

A third-order tensor of shape (I, J, K) is represented by a core tensor
``g`` of shape (H1, H2, H3) and three fourth-order ring factors

    a: (R3, I, R1, H1),   b: (R1, J, R2, H2),   c: (R2, K, R3, H3),

chained cyclically through the ring ranks (R1, R2, R3) and each tied to
the core through one core-link rank (H1, H2, H3).  A single element is
the six-fold contraction over (r1, r2, r3, h1, h2, h3) of
``g[h1,h2,h3] * a[r3,i,r1,h1] * b[r1,j,r2,h2] * c[r2,k,r3,h3]``.

Every contraction in this module follows one staging order, written as
matrix products on reshaped slices:

    1. sum over r1:          a_i (R3*H1, R1) . b_j (R1, R2*H2)
    2. sum over (r3, r2):    ab (H1*H2, R3*R2) . c_k (R3*R2, H3) -> t_g
    3. sum over (h1, h2, h3): vdot(t_g, g)

``block_partials`` runs the three stages for one position, on the four
blocks it touches, and, from stage 1's product and the same blocks, the
partials with respect to the a, b and c slices.  ``twd_kernel.c`` runs
the same stages in C, with the trainer's step, its epoch and its
training loss around them; every contraction there sums a few outputs
per pass, each in the order of a plain loop, so blocking changes no
bit.  It is built with the system C compiler on first use and loaded
with ctypes (``native_kernel``), and numpy's ``block_partials`` runs
wherever it cannot be; the trainer's epochs and losses run a build of
the same source for their ranks (``training_kernel``), whose loops have
constant trip counts and whose results are the same bit for bit.
``entry_partials``, ``reconstruct_entry`` and the trainer's step all
run whichever kernel is loaded, never a mix, so ``reconstruct_entry``
equals the trainer's x_hat bit for bit, as does each reconstruction of
the native training loss.
``reconstruct_entries`` and ``reconstruct_full`` run the same stages,
summing over the same indices in the same order, as batched products
over gathered slices, BATCH_CHUNK positions at a time; the products are
grouped differently there, so they agree with ``reconstruct_entry`` to
rounding, not bit for bit.  ``reconstruct_full`` contracts the row-major
index grid in ``reconstruct_entries``'s chunks, stage 1 once per (i, j)
pair of a chunk, so the two agree bit for bit there.  ``oracle_entry``
is the independent six-loop reference.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import subprocess
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import BoundsError, DivergenceError, DomainError, ParameterError, SizeCapError
from .tensor_store import open_replacing

DENSE_CAP = 10_000_000  # max elements a dense reconstruction may materialize
BATCH_CHUNK = 256  # positions per batched-kernel call; bounds its temporaries

CHECKPOINT_MAGIC = "TWD v1"

KERNEL_SOURCE = Path(__file__).with_name("twd_kernel.c")
CC = "cc"
# no FMA contraction: the kernel's update and PID fold round as numpy's do
CC_FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")
# a build for one rank tuple: -O3 unrolls and vectorises its constant-count
# loops; it is no faster on the generic build, whose counts are read at run time
RANK_CC_FLAGS = ("-O3", *CC_FLAGS[1:])


@dataclass(frozen=True)
class Ranks:
    """Ring ranks (R1, R2, R3) and core-link ranks (H1, H2, H3)."""

    r: tuple[int, int, int]
    h: tuple[int, int, int]

    def __post_init__(self):
        for name, triple in (("r", self.r), ("h", self.h)):
            if len(triple) != 3 or any(int(x) != x or x < 1 for x in triple):
                raise ParameterError(f"ranks.{name} must be three integers >= 1, got {triple}")
        object.__setattr__(self, "r", tuple(int(x) for x in self.r))
        object.__setattr__(self, "h", tuple(int(x) for x in self.h))

    @classmethod
    def from_dim(cls, dim: int) -> "Ranks":
        """Map a single latent dimension to a full rank tuple.

        The headline value goes to the three ring ranks; core-link ranks
        stay at 2 to keep the core tensor small.
        """
        if dim < 1:
            raise ParameterError(f"latent dimension must be >= 1, got {dim}")
        return cls(r=(dim, dim, dim), h=(2, 2, 2))


def factor_shapes(dims, ranks: Ranks) -> list:
    """Shapes of g, a, b and c, in that order, for dims (I, J, K)."""
    (ni, nj, nk), (r1, r2, r3), (h1, h2, h3) = dims, ranks.r, ranks.h
    return [(h1, h2, h3), (r3, ni, r1, h1), (r1, nj, r2, h2), (r2, nk, r3, h3)]


@dataclass
class TwdFactors:
    """Dense factor set of one tensor wheel model.

    Arrays are float64, row-major, mutated in place by the trainer and
    read-only everywhere else.
    """

    g: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    dims: tuple[int, int, int]
    ranks: Ranks

    def __post_init__(self):
        for name, shape in zip("gabc", factor_shapes(self.dims, self.ranks)):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            setattr(self, name, arr)
            if arr.shape != shape:
                raise ParameterError(f"factor {name} has shape {arr.shape}, expected {shape}")
            if not np.all(np.isfinite(arr)):
                raise ParameterError(f"factor {name} contains non-finite values")

    def copy(self) -> "TwdFactors":
        return TwdFactors(self.g.copy(), self.a.copy(), self.b.copy(),
                          self.c.copy(), self.dims, self.ranks)

    def norms(self) -> dict[str, float]:
        """Frobenius norm of each of g, a, b and c; exact where squaring
        the values would overflow."""
        return {name: math.hypot(*getattr(self, name).ravel().tolist()) for name in "gabc"}


def init_factors(dims, ranks: Ranks, seed: int, scale: float) -> TwdFactors:
    """Draw every factor element i.i.d. uniform from [0, scale).

    Generation order is fixed (g, a, b, c from one seeded generator), so
    a given seed always produces the same factors.
    """
    ni, nj, nk = (int(d) for d in dims)
    if min(ni, nj, nk) < 1:
        raise ParameterError(f"dims must be >= 1, got {dims}")
    if scale < 0:
        raise ParameterError(f"init scale must be >= 0, got {scale}")
    rng = np.random.default_rng(seed)
    try:
        g, a, b, c = (rng.random(shape) * scale for shape in factor_shapes((ni, nj, nk), ranks))
    except (MemoryError, ValueError) as exc:  # ValueError: a size beyond numpy's index range
        raise ParameterError(f"cannot allocate factors for dims {(ni, nj, nk)}, "
                             f"ranks r={ranks.r} h={ranks.h}: {exc}") from None
    return TwdFactors(g, a, b, c, (ni, nj, nk), ranks)


def check_index(f: TwdFactors, i: int, j: int, k: int):
    """Raise BoundsError unless (i, j, k) lies inside f's dims."""
    ni, nj, nk = f.dims
    if not (0 <= i < ni and 0 <= j < nj and 0 <= k < nk):
        raise BoundsError(f"index ({i}, {j}, {k}) outside dims {f.dims}")


def block_partials(g, a_i, b_j, c_k):
    """Reconstruction at one position and its partial derivative w.r.t.
    each block it touches, from the blocks alone: the core ``g``
    (H1, H2, H3) and the slices ``a_i`` (R3, R1, H1), ``b_j``
    (R1, R2, H2) and ``c_k`` (R2, R3, H3) of a, b and c.

    Returns (x_hat, t_g, t_a, t_b, t_c), each partial in its block's
    shape.  The only single-position contraction: ``entry_partials``,
    ``reconstruct_entry`` and the trainer's step all run it.
    """
    r3, r1, h1 = a_i.shape
    _, r2, h2 = b_j.shape
    h3 = g.shape[2]
    # stage 1, sum over r1 -> (R3, H1, R2, H2); stage 2, over (r3, r2) -> t_g
    ab = np.dot(a_i.transpose(0, 2, 1).reshape(r3 * h1, r1),
                b_j.reshape(r1, r2 * h2)).reshape(r3, h1, r2, h2)
    t_g = np.dot(ab.transpose(1, 3, 0, 2).reshape(h1 * h2, r3 * r2),
                 c_k.transpose(1, 0, 2).reshape(r3 * r2, h3)).reshape(h1, h2, h3)
    x_hat = float(np.vdot(t_g, g))
    # sum over (h1, h2) -> (R3, R2, H3), reordered to c's slice layout (R2, R3, H3)
    t_c = np.dot(ab.transpose(0, 2, 1, 3).reshape(r3 * r2, h1 * h2),
                 g.reshape(h1 * h2, h3)).reshape(r3, r2, h3).transpose(1, 0, 2)
    # sum over h2 -> (R1, R2, H1, H3), then (r2, h3) -> (R1, H1, R3) -> (R3, R1, H1)
    gb = np.dot(b_j.reshape(r1 * r2, h2),
                g.transpose(1, 0, 2).reshape(h2, h1 * h3)).reshape(r1, r2, h1, h3)
    c_r3 = c_k.transpose(0, 2, 1).reshape(r2 * h3, r3)
    t_a = np.dot(gb.transpose(0, 2, 1, 3).reshape(r1 * h1, r2 * h3),
                 c_r3).reshape(r1, h1, r3).transpose(2, 0, 1)
    # sum over r3 -> (R2, H3, R1, H1), then (h1, h3) -> (R2, R1, H2) -> (R1, R2, H2)
    ca = np.dot(c_r3, a_i.reshape(r3, r1 * h1)).reshape(r2, h3, r1, h1)
    t_b = np.dot(ca.transpose(0, 2, 3, 1).reshape(r2 * r1, h1 * h3),
                 g.transpose(0, 2, 1).reshape(h1 * h3, h2))
    t_b = t_b.reshape(r2, r1, h2).transpose(1, 0, 2)
    return x_hat, t_g, t_a, t_b, t_c


def block_shapes(ranks: Ranks) -> list:
    """Shapes of the four blocks one position touches: g, a[:, i], b[:, j]
    and c[:, k], in that order."""
    (r1, r2, r3), (h1, h2, h3) = ranks.r, ranks.h
    return [(h1, h2, h3), (r3, r1, h1), (r1, r2, h2), (r2, r3, h3)]


def entry_blocks(f: TwdFactors, i: int, j: int, k: int) -> tuple:
    """Views into f of the four blocks position (i, j, k) touches, in the
    order g, a[:, i], b[:, j], c[:, k].  ``np.concatenate(blocks,
    axis=None)`` gathers them into one vector; ``scatter_blocks`` writes
    such a vector back.  Indices are not bounds-checked.

    The partials are taken from these views, not from a gathered copy:
    where a rank is 1, numpy hands some products to BLAS as
    matrix-vector calls, whose rounding can depend on the operands'
    strides.
    """
    return f.g, f.a[:, i], f.b[:, j], f.c[:, k]


def scatter_blocks(flat: np.ndarray, blocks) -> None:
    """Write a vector laid out as ``np.concatenate(blocks, axis=None)``
    back into ``blocks``, arrays or views, each in row-major order."""
    start = 0
    for block in blocks:
        end = start + block.size
        block.flat = flat[start:end]
        start = end


def finite_loss(loss: float) -> float:
    """``loss``, or DomainError where it is not finite."""
    if not math.isfinite(loss):
        raise DomainError("loss is not finite: a reconstruction or a factor norm overflows "
                          "float64")
    return loss


class NativeKernel:
    """The entry points of the compiled ``twd_kernel.c``.

    Each call checks the arrays it hands over: float64 (int64 for
    indices), C order, their shapes or lengths, and writeable
    where the kernel writes.  The indices and entry ids the kernel
    follows are checked by the callers, the public functions of this
    module and of ``pid_sgd``; only the epoch's visit order is checked
    here.
    """

    def __init__(self, lib: ctypes.CDLL, ranks: Ranks | None = None):
        ptr, i64, f64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
        lib.tw_partials.argtypes = [ptr] * 5 + [i64] * 3 + [ptr]
        lib.tw_partials.restype = f64
        lib.tw_step.argtypes = [ptr] * 5 + [i64] * 3 + [f64, i64] + [ptr] * 4
        lib.tw_step.restype = ctypes.c_int
        lib.tw_epoch.argtypes = [ptr] * 10 + [i64] + [ptr] * 4
        lib.tw_epoch.restype = i64
        lib.tw_loss.argtypes = [ptr] * 9 + [i64, f64, ptr]
        lib.tw_loss.restype = f64
        self._lib = lib
        self.ranks = ranks  # those of a build for one rank tuple; None: any

    def _operands(self, f: TwdFactors, in_place: bool, extra: int = 0) -> list:
        """The kernel's shape vector, f's four arrays and a fresh workspace,
        ``extra`` doubles longer than a step's.  In place, the arrays are
        f's own, which the kernel writes or a runner reads across calls,
        so they must be writeable; else they may be contiguous copies.  A
        build for one rank tuple takes factors of those ranks only."""
        if self.ranks is not None and f.ranks != self.ranks:
            raise ParameterError(f"kernel built for ranks r={self.ranks.r} h={self.ranks.h} "
                                 f"given factors of ranks r={f.ranks.r} h={f.ranks.h}")
        arrays = []
        for name, shape in zip("gabc", factor_shapes(f.dims, f.ranks)):
            arr = getattr(f, name)
            arr = arr if in_place else np.ascontiguousarray(arr, dtype=np.float64)
            if (arr.dtype != np.float64 or arr.shape != shape or not arr.flags.c_contiguous
                    or (in_place and not arr.flags.writeable)):
                raise ParameterError(f"factor {name} must be a C-ordered float64 array of "
                                     f"shape {shape}" + (", writeable" if in_place else ""))
            arrays.append(arr)
        (r1, r2, r3), (h1, h2, h3) = f.ranks.r, f.ranks.h
        n = sum(math.prod(s) for s in block_shapes(f.ranks))
        # p and t, then the stage products ab, gb and ca
        work = np.empty(2 * n + r3 * h1 * r2 * h2 + r1 * r2 * h1 * h3 + r2 * h3 * r1 * h1
                        + extra)
        return [np.array([*f.dims, *f.ranks.r, *f.ranks.h], dtype=np.int64), *arrays, work]

    @staticmethod
    def _columns(columns) -> list:
        """Copies of the training columns (ii, jj, kk, values) as int64 and
        float64 arrays, of one length."""
        cols = [np.array(col, dtype=dtype)
                for col, dtype in zip(columns, (np.int64,) * 3 + (np.float64,))]
        if any(col.shape != cols[3].shape for col in cols) or cols[3].ndim != 1:
            raise ParameterError("the training columns differ in length")
        return cols

    def partials(self, f: TwdFactors, i: int, j: int, k: int):
        """``block_partials``'s result at (i, j, k), computed in C."""
        operands = self._operands(f, in_place=False)
        shape, g, a, b, c, work = (arr.ctypes.data for arr in operands)
        x_hat = self._lib.tw_partials(shape, g, a, b, c, i, j, k, work)
        shapes = block_shapes(f.ranks)
        ends = np.cumsum([math.prod(s) for s in shapes])
        t = np.split(operands[-1][ends[-1]:2 * ends[-1]], ends[:-1])
        return (x_hat, *(part.reshape(s) for part, s in zip(t, shapes)))

    @staticmethod
    def _pid(pid) -> list:
        """Pointers to the PID state (integral, prev_error), or NULLs for
        the plain step."""
        if pid is None:
            return [None] * 2
        n = len(pid[0])
        for arr in pid:
            if (arr.dtype != np.float64 or arr.shape != (n,) or not arr.flags.c_contiguous
                    or not arr.flags.writeable):
                raise ParameterError("PID state arrays must be writeable, C-ordered and "
                                     "of one length")
        return [arr.ctypes.data for arr in pid]

    def step(self, f: TwdFactors, i: int, j: int, k: int, value: float, entry_id: int,
             pid, gains) -> None:
        """One step in place (the plain step with ``pid`` None); gains are
        (eta, lam, cp, ci, cd).  A diverging step raises DivergenceError
        and writes nothing."""
        operands = self._operands(f, in_place=True)
        hp = np.array(gains, dtype=np.float64)
        shape, g, a, b, c, work = (arr.ctypes.data for arr in operands)
        if self._lib.tw_step(shape, g, a, b, c, i, j, k, value, entry_id, hp.ctypes.data,
                             *self._pid(pid), work):
            raise DivergenceError(entry_id)

    def epoch(self, f: TwdFactors, columns, pid, gains):
        """A function running one epoch of steps over an order of entry ids
        in one call; it raises DivergenceError at the step that diverges.
        ``columns`` (ii, jj, kk, values) are copied once, here; their
        indices must lie inside f's dims, and the PID state must cover them."""
        operands = self._operands(f, in_place=True)
        cols = self._columns(columns)
        hp = np.array(gains, dtype=np.float64)
        shape, g, a, b, c, work = (arr.ctypes.data for arr in operands)
        head = [shape, g, a, b, c, *(col.ctypes.data for col in cols)]
        tail = [hp.ctypes.data, *self._pid(pid), work]
        n = len(cols[3])
        if pid is not None and len(pid[0]) != n:
            raise ParameterError("the training columns and the PID state differ in length")

        def run(order: np.ndarray) -> None:
            order = np.ascontiguousarray(order, dtype=np.int64)
            if len(order) and (order.min() < 0 or order.max() >= n):
                raise BoundsError(f"visit order outside the {n} training entries")
            diverged = self._lib.tw_epoch(*head, order.ctypes.data, len(order), *tail)
            if diverged >= 0:
                raise DivergenceError(diverged)

        run.buffers = (operands, cols, hp, pid)  # the memory head and tail point into
        return run

    def loss(self, f: TwdFactors, columns, lam: float):
        """A function returning ``pid_sgd.compute_loss`` of f's current
        values over ``columns`` (ii, jj, kk, values) with L2 weight lam, in
        one call; as there, a loss that overflows raises DomainError.  Each
        reconstruction equals the step's bit for bit; the sums run in an
        order of their own, so the loss agrees with numpy's to rounding.
        The columns are copied once, here; their indices must lie inside
        f's dims."""
        operands = self._operands(f, in_place=True, extra=sum(f.dims))
        cols = self._columns(columns)
        args = [*(arr.ctypes.data for arr in operands[:-1]), *(col.ctypes.data for col in cols),
                len(cols[3]), float(lam), operands[-1].ctypes.data]

        def run() -> float:
            return finite_loss(self._lib.tw_loss(*args))

        run.buffers = (operands, cols)  # the memory args point into
        return run


_UNLOADED = object()
_native = _UNLOADED  # the NativeKernel once loaded, None where it cannot be
_for_ranks: dict = {}  # Ranks -> the kernel training_kernel returns for them


def kernel_flags(ranks: Ranks | None = None) -> list:
    """The compiler flags of the generic build of ``twd_kernel.c``, or of
    its build for ranks, which takes the six as constants."""
    if ranks is None:
        return list(CC_FLAGS)
    return [*RANK_CC_FLAGS,
            *(f"-DTW_RANK{q}={n}" for q, n in enumerate((*ranks.r, *ranks.h), start=3))]


def _build_kernel(ranks: Ranks | None = None) -> Path:
    """The kernel's shared library, generic or built for ranks, compiled
    into the cache ($XDG_CACHE_HOME/tensorwheel, by default
    ~/.cache/tensorwheel) unless a build of the same source and flags is
    there; the build goes to a temp file that replaces the target only
    once it is whole."""
    flags = kernel_flags(ranks)
    source = KERNEL_SOURCE.read_bytes()
    key = hashlib.sha256(source + " ".join(flags).encode()).hexdigest()
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache", "tensorwheel")
    path = cache / f"{key}.so"
    if not path.exists():
        cache.mkdir(parents=True, exist_ok=True)
        tmp = cache / f"{key}.{os.urandom(6).hex()}.tmp"
        try:
            subprocess.run([CC, *flags, "-o", str(tmp), "-x", "c", "-"], input=source,
                           capture_output=True, check=True, timeout=300)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
    return path


def native_kernel() -> NativeKernel | None:
    """The compiled kernel, built and loaded on the first call; None, and
    numpy runs instead, when the compiler is missing or the build or the
    load fails."""
    global _native
    if _native is _UNLOADED:
        try:
            _native = NativeKernel(ctypes.CDLL(str(_build_kernel())))
        except (OSError, subprocess.SubprocessError):
            _native = None
    return _native


def training_kernel(ranks: Ranks) -> NativeKernel | None:
    """The kernel ``pid_sgd.train`` runs its epochs and losses on: the
    build for ranks, compiled and loaded on the first call for them; the
    generic kernel where that build or load fails; None, as
    ``native_kernel``, where the generic kernel is not loaded.  Both
    builds give the same results bit for bit."""
    generic = native_kernel()
    if generic is None:
        return None
    if ranks not in _for_ranks:
        try:
            _for_ranks[ranks] = NativeKernel(ctypes.CDLL(str(_build_kernel(ranks))), ranks)
        except (OSError, subprocess.SubprocessError):
            _for_ranks[ranks] = generic
    return _for_ranks[ranks]


def kernel_name() -> str:
    """The kernel single-entry contractions run on: "native" or "numpy"."""
    return "numpy" if native_kernel() is None else "native"


def entry_partials(f: TwdFactors, i: int, j: int, k: int):
    """``block_partials`` of the four blocks at (i, j, k), from the current
    factor values, on whichever kernel is loaded."""
    check_index(f, i, j, k)
    kernel = native_kernel()
    if kernel is None:
        return block_partials(*entry_blocks(f, i, j, k))
    return kernel.partials(f, i, j, k)


def reconstruct_entry(f: TwdFactors, i: int, j: int, k: int) -> float:
    """Reconstruct one element through the trainer's kernel, so the
    result equals the training path's x_hat bit for bit."""
    return entry_partials(f, i, j, k)[0]


def oracle_entry(f: TwdFactors, i: int, j: int, k: int) -> float:
    """Reference single-element reconstruction by explicit six-nested loops.

    Deliberately unoptimized; exists only to cross-check the staged
    kernels in tests.
    """
    check_index(f, i, j, k)
    r1n, r2n, r3n = f.ranks.r
    h1n, h2n, h3n = f.ranks.h
    total = 0.0
    for r1 in range(r1n):
        for r2 in range(r2n):
            for r3 in range(r3n):
                for h1 in range(h1n):
                    for h2 in range(h2n):
                        for h3 in range(h3n):
                            total += (f.g[h1, h2, h3]
                                      * f.a[r3, i, r1, h1]
                                      * f.b[r1, j, r2, h2]
                                      * f.c[r2, k, r3, h3])
    return total


def _slice_major(f: TwdFactors):
    """Contiguous copies of a, b and c indexed by i, j and k first, each
    slice laid out as the batched stages multiply it: a as (H1*R3, R1),
    b as (R1, R2*H2), c as (1, R3*R2, H3).  Gathering whole contiguous
    slices is several times faster than gathering from the ring layout."""
    r1, r2, r3 = f.ranks.r
    h1, h2, h3 = f.ranks.h
    ni, nj, nk = f.dims
    return (np.ascontiguousarray(f.a.transpose(1, 3, 0, 2)).reshape(ni, h1 * r3, r1),
            np.ascontiguousarray(f.b.transpose(1, 0, 2, 3)).reshape(nj, r1, r2 * h2),
            np.ascontiguousarray(f.c.transpose(1, 2, 0, 3)).reshape(nk, 1, r3 * r2, h3))


def _stage1(f: TwdFactors, slices, ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
    """Stage 1 for a batch of (i, j) pairs, as one batched matmul over
    slices gathered from ``_slice_major(f)``: per pair and h1, an
    (R3*R2, H2) block, so that stage 2 multiplies its transpose without a
    copy."""
    _, r2, r3 = f.ranks.r
    h1, h2, _ = f.ranks.h
    a_s, b_s, _ = slices
    return (a_s[ii] @ b_s[jj]).reshape(len(ii), h1, r3 * r2, h2)


def _stages23(f: TwdFactors, ab: np.ndarray, c_k: np.ndarray) -> np.ndarray:
    """Stages 2 and 3 for a batch of positions, from their stage-1 blocks
    and their gathered c slices, per position and h1."""
    h1, h2, h3 = f.ranks.h
    t_g = ab.transpose(0, 1, 3, 2) @ c_k  # (n, H1, H2, H3)
    return t_g.reshape(len(ab), h1 * h2 * h3) @ f.g.ravel()


def reconstruct_entries(f: TwdFactors, ii: np.ndarray, jj: np.ndarray,
                        kk: np.ndarray) -> np.ndarray:
    """Reconstruct many elements at once, BATCH_CHUNK positions at a time."""
    ni, nj, nk = f.dims
    n = len(ii)
    if n == 0:
        return np.zeros(0)
    if (ii.min() < 0 or ii.max() >= ni or jj.min() < 0 or jj.max() >= nj
            or kk.min() < 0 or kk.max() >= nk):
        raise BoundsError(f"batch indices outside dims {f.dims}")
    slices = _slice_major(f)
    out = np.empty(n)
    for start in range(0, n, BATCH_CHUNK):
        stop = start + BATCH_CHUNK
        ab = _stage1(f, slices, ii[start:stop], jj[start:stop])
        out[start:stop] = _stages23(f, ab, slices[2][kk[start:stop]])
    return out


def reconstruct_full(f: TwdFactors, cap: int = DENSE_CAP) -> np.ndarray:
    """Materialize the full dense reconstruction of shape ``f.dims``.

    Runs the batched kernel over the row-major index grid, in the chunks
    ``reconstruct_entries`` would, so it equals ``reconstruct_entries`` on
    that grid bit for bit; stage 1 runs once per (i, j) pair a chunk
    covers, not once per position.  Raises SizeCapError when the element
    count exceeds ``cap``.
    """
    ni, nj, nk = f.dims
    total = ni * nj * nk
    if total > cap:
        raise SizeCapError(f"dense reconstruction of {total} elements exceeds cap {cap}")
    slices = _slice_major(f)
    out = np.empty(total)
    for start in range(0, total, BATCH_CHUNK):
        stop = min(start + BATCH_CHUNK, total)
        pair, kk = np.divmod(np.arange(start, stop), nk)
        first = start // nk
        ab = _stage1(f, slices, *np.divmod(np.arange(first, pair[-1] + 1), nj))
        out[start:stop] = _stages23(f, ab[pair - first], slices[2][kk])
    return out.reshape(f.dims)


def checkpoint_text(f: TwdFactors) -> str:
    """Serialize factors to the text checkpoint format.

    One header line "TWD v1 I J K R1 R2 R3 H1 H2 H3", then the flat
    contents of g, a, b, c row-major, whitespace-separated, with full
    round-trip float precision.
    """
    ni, nj, nk = f.dims
    head = " ".join([CHECKPOINT_MAGIC, str(ni), str(nj), str(nk),
                     *(str(x) for x in f.ranks.r), *(str(x) for x in f.ranks.h)])
    lines = [head]
    for arr in (f.g, f.a, f.b, f.c):
        flat = arr.ravel().tolist()
        for start in range(0, len(flat), 8):
            lines.append(" ".join(map(repr, flat[start:start + 8])))
    return "\n".join(lines) + "\n"


def save_checkpoint(f: TwdFactors, path) -> None:
    """Write ``checkpoint_text(f)``, replacing ``path`` only once it is whole."""
    with open_replacing(path, encoding="ascii") as fh:
        fh.write(checkpoint_text(f))


def load_checkpoint(path) -> TwdFactors:
    """Parse a text checkpoint back into a TwdFactors."""
    try:
        with open(path, encoding="ascii") as fh:
            content = fh.read()
    except UnicodeDecodeError:
        raise ParameterError(f"checkpoint is not ASCII text: {path}") from None
    lines = content.splitlines()
    if not lines:
        raise ParameterError(f"empty checkpoint file: {path}")
    head = lines[0].split()
    magic = " ".join(head[:2])
    if magic != CHECKPOINT_MAGIC or len(head) != 11:
        raise ParameterError(f"bad checkpoint header: {lines[0]!r}")
    try:
        ni, nj, nk, r1, r2, r3, h1, h2, h3 = (int(x) for x in head[2:])
    except ValueError:
        raise ParameterError(f"bad checkpoint header: {lines[0]!r}") from None
    if min(ni, nj, nk) < 1:
        raise ParameterError(f"bad checkpoint header: {lines[0]!r}")
    dims, ranks = (ni, nj, nk), Ranks(r=(r1, r2, r3), h=(h1, h2, h3))
    try:
        values = np.array([float(t) for line in lines[1:] for t in line.split()])
    except ValueError as exc:
        raise ParameterError(f"bad checkpoint value: {exc}") from None
    shapes = factor_shapes(dims, ranks)
    expected = sum(math.prod(s) for s in shapes)
    if values.size != expected:
        raise ParameterError(f"checkpoint holds {values.size} values, expected {expected}")
    arrays = [np.empty(shape) for shape in shapes]
    scatter_blocks(values, arrays)
    return TwdFactors(*arrays, dims, ranks)
