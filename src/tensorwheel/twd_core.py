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
the same stages in C, with the trainer's epoch of steps and its
training loss around them; every contraction there sums a few outputs
per pass, each in the order of a plain loop, so blocking changes no
bit.  It is built with the system C compiler on first use and loaded
with ctypes by the one loader ``native_kernel``, and numpy's
``block_partials`` runs wherever it cannot be.  ``native_kernel(ranks)``
is a build of the same source, with the same flags (and ``-mavx2`` where
the host runs AVX2), for one rank tuple, whose loops have constant trip
counts and whose results are the same bit for bit; the trainer runs it.  ``NativeKernel.bind`` hands the
trainer, and the step, an epoch runner and a loss over one workspace.
``entry_partials``, ``reconstruct_entry`` and the trainer's step (a
one-entry epoch in C) all run whichever kernel is loaded, never a mix,
so ``reconstruct_entry`` equals the trainer's x_hat bit for bit, as does
each reconstruction of the native training loss.
``reconstruct_entries`` runs the same stages, summing over the same
indices in the same order, as batched products over gathered slices,
at most BATCH_CHUNK positions at a time and fewer where their stage-1
block would pass BATCH_BYTES; the products are grouped differently
there, so it agrees with ``reconstruct_entry`` to rounding, not bit for
bit.  ``reconstruct_full`` is ``reconstruct_entries`` over the row-major
index grid.  ``oracle_entry`` is the independent six-loop reference.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import math
import os
import platform
import subprocess
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import BoundsError, DivergenceError, DomainError, ParameterError, SizeCapError
from .tensor_store import check_dims, check_seed, is_whole, open_replacing

DENSE_CAP = 10_000_000  # max elements a dense reconstruction may materialize
BATCH_CHUNK = 256  # positions per batched-kernel call; bounds its temporaries
BATCH_BYTES = 64 << 20  # cap on a chunk's stage-1 block, where BATCH_CHUNK positions pass it

CHECKPOINT_MAGIC = "TWD v1"

LOSS_OVERFLOW = "a reconstruction or a factor norm overflows float64"  # why a loss is not finite

KERNEL_SOURCE = Path(__file__).with_name("twd_kernel.c")
CC = "cc"
# no FMA contraction: the kernel's update and PID fold round as numpy's do;
# -O3 unrolls and vectorises the constant-count loops of a build for one
# rank tuple
CC_FLAGS = ("-O3", "-shared", "-fPIC", "-ffp-contract=off")


@dataclass(frozen=True)
class Ranks:
    """Ring ranks (R1, R2, R3) and core-link ranks (H1, H2, H3)."""

    r: tuple[int, int, int]
    h: tuple[int, int, int]

    def __post_init__(self):
        for name, triple in (("r", self.r), ("h", self.h)):
            if len(triple) != 3 or any(not is_whole(x) or x < 1 for x in triple):
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
    ni, nj, nk = check_dims(dims)
    if scale < 0:
        raise ParameterError(f"init scale must be >= 0, got {scale}")
    rng = np.random.default_rng(check_seed(seed))
    try:
        g, a, b, c = (rng.random(shape) * scale for shape in factor_shapes((ni, nj, nk), ranks))
    except (MemoryError, ValueError) as exc:  # ValueError: a size beyond numpy's index range
        raise ParameterError(f"cannot allocate factors for dims {(ni, nj, nk)}, "
                             f"ranks r={ranks.r} h={ranks.h}: {exc}") from None
    return TwdFactors(g, a, b, c, (ni, nj, nk), ranks)


def check_index(f: TwdFactors, i: int, j: int, k: int):
    """Raise ParameterError unless i, j and k are integers, Python's (bool
    aside) or numpy's, and BoundsError unless (i, j, k) lies inside f's
    dims."""
    if not all(isinstance(x, (int, np.integer)) and not isinstance(x, bool) for x in (i, j, k)):
        raise ParameterError(f"index ({i!r}, {j!r}, {k!r}) must be three integers")
    ni, nj, nk = f.dims
    if not (0 <= i < ni and 0 <= j < nj and 0 <= k < nk):
        raise BoundsError(f"index ({i}, {j}, {k}) outside dims {f.dims}")


def check_indices(f: TwdFactors, ii, jj, kk, what: str) -> list:
    """The index columns ii, jj and kk as arrays (``np.asarray``), once
    every position they hold lies inside f's dims: the one check of a set
    of positions, which the native kernel and numpy's gathers follow
    unchecked.  Columns that are not 1-D integer arrays of one length
    (empty ones of any type pass) raise ParameterError("<what> index
    columns must be ..."), and positions outside the dims raise
    BoundsError("<what> indices outside dims <dims>")."""
    cols = [np.asarray(col) for col in (ii, jj, kk)]
    if any(col.ndim != 1 or len(col) != len(cols[0]) or (len(col) and col.dtype.kind not in "iu")
           for col in cols):
        raise ParameterError(f"{what} index columns must be 1-D integer arrays of one length")
    if len(cols[0]) and any(col.min() < 0 or col.max() >= dim
                            for col, dim in zip(cols, f.dims)):
        raise BoundsError(f"{what} indices outside dims {f.dims}")
    return cols


def check_finite(value: float, what: str, why: str | None = None) -> float:
    """value, or DomainError("<what> is not finite[: why]") where it is not:
    the one check of a float bound for a caller, a report or a summary."""
    if not math.isfinite(value):
        raise DomainError(f"{what} is not finite" + (f": {why}" if why else ""))
    return value


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


def workspace(ranks: Ranks, extra: int = 0) -> np.ndarray:
    """A fresh workspace of the native kernel: p and t, one block vector
    each, then the stage products ab, gb and ca, then ``extra`` doubles.
    A step gathers its entry's blocks into p and its partials into t;
    ``tw_loss`` reads the blocks in the factors, and puts its slice norms
    first and its stage products after them."""
    (r1, r2, r3), (h1, h2, h3) = ranks.r, ranks.h
    n = sum(math.prod(s) for s in block_shapes(ranks))
    return np.empty(2 * n + r3 * h1 * r2 * h2 + r1 * r2 * h1 * h3 + r2 * h3 * r1 * h1 + extra)


def scatter_blocks(flat: np.ndarray, blocks) -> None:
    """Write a vector laid out as ``np.concatenate(blocks, axis=None)``
    back into ``blocks``, arrays or views, each in row-major order."""
    start = 0
    for block in blocks:
        end = start + block.size
        block.flat = flat[start:end]
        start = end


class NativeKernel:
    """The entry points of the compiled ``twd_kernel.c``.

    Each call checks the arrays it hands over: float64 (int64 for
    indices), C order, their shapes or lengths, and writeable
    where the kernel writes.  Here an epoch's visit order is checked
    against the columns and the PID state's length against theirs.  The
    positions the kernel follows are not checked here: ``check_indices``
    checks a whole set against the dims, in ``pid_sgd.train``, and
    ``check_index`` one position, in ``sgd_step`` and ``entry_partials``.
    """

    def __init__(self, lib: ctypes.CDLL, ranks: Ranks | None = None):
        ptr, i64, f64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
        lib.tw_partials.argtypes = [ptr] * 5 + [i64] * 3 + [ptr]
        lib.tw_partials.restype = f64
        lib.tw_epoch.argtypes = [ptr] * 10 + [i64] + [ptr] * 4
        lib.tw_epoch.restype = i64
        lib.tw_loss.argtypes = [ptr] * 9 + [i64, f64, ptr]
        lib.tw_loss.restype = f64
        self._lib = lib
        self.ranks = ranks  # those of a build for one rank tuple; None: any

    def _operands(self, f: TwdFactors, in_place: bool, extra: int = 0) -> list:
        """The kernel's shape vector, f's four arrays and a fresh
        ``workspace(f.ranks, extra)``.  In place, the arrays are f's own,
        which the kernel writes or a runner reads across calls, so they
        must be writeable; else they may be contiguous copies.  A build
        for one rank tuple takes factors of those ranks only."""
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
        return [np.array([*f.dims, *f.ranks.r, *f.ranks.h], dtype=np.int64), *arrays,
                workspace(f.ranks, extra)]

    @staticmethod
    def _columns(columns) -> list:
        """The columns (ii, jj, kk, values) as C-ordered int64 and float64
        arrays, of one length; arrays that already are, such as a
        SparseTensor's read-only ones, are kept, not copied."""
        cols = [np.ascontiguousarray(col, dtype=dtype)
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
    def _pid(pid, n: int) -> list:
        """Pointers to the PID state (integral, prev_error), one slot for
        each of the n training entries, or NULLs for the plain step."""
        if pid is None:
            return [None] * 2
        for arr in pid:
            if (arr.dtype != np.float64 or arr.shape != (n,) or not arr.flags.c_contiguous
                    or not arr.flags.writeable):
                raise ParameterError("PID state arrays must be writeable, C-ordered and of "
                                     f"the training columns' length {n}")
        return [arr.ctypes.data for arr in pid]

    def bind(self, f: TwdFactors, columns, pid, gains):
        """The two functions an epoch of training runs, bound to f in place
        and to one workspace: ``run_epoch(order)`` runs the steps over an
        order of entry ids in one call (plain steps with ``pid`` None), and
        raises DivergenceError at the step that diverges, which writes
        nothing back; ``epoch_loss()`` returns ``pid_sgd.compute_loss`` of
        f's current values over the columns with L2 weight lam, and, as
        there, raises DomainError where it overflows.  Gains are the five
        values (eta, lam, cp, ci, cd); any other shape raises
        ParameterError.  The steps gather each entry's blocks into the
        workspace and write them back; the loss reads them in f where they
        lie, with no copy.  Each of the loss's reconstructions equals the
        step's bit for bit; its sums run in an order of their own, so it
        agrees with numpy's to rounding.  ``columns`` (ii, jj, kk, values)
        are taken by ``_columns`` and must not be written while the
        functions are in use; their indices must lie inside f's dims
        (``check_indices``), and the PID state must hold one slot each."""
        operands = self._operands(f, in_place=True, extra=sum(f.dims))
        cols = self._columns(columns)
        hp = np.array(gains, dtype=np.float64)
        if hp.shape != (5,):
            raise ParameterError(f"gains must be five values (eta, lam, cp, ci, cd), "
                                 f"got an array of shape {hp.shape}")
        shape, g, a, b, c, work = (arr.ctypes.data for arr in operands)
        n, lam = len(cols[3]), float(hp[1])
        head = [shape, g, a, b, c, *(col.ctypes.data for col in cols)]
        tail = [hp.ctypes.data, *self._pid(pid, n), work]

        def run_epoch(order: np.ndarray) -> None:
            order = np.ascontiguousarray(order, dtype=np.int64)
            if len(order) and (order.min() < 0 or order.max() >= n):
                raise BoundsError(f"visit order outside the {n} training entries")
            diverged = self._lib.tw_epoch(*head, order.ctypes.data, len(order), *tail)
            if diverged >= 0:
                raise DivergenceError(diverged)

        def epoch_loss() -> float:
            return check_finite(self._lib.tw_loss(*head, n, lam, work), "loss", LOSS_OVERFLOW)

        # keep alive the memory that head and tail point into
        run_epoch.buffers = epoch_loss.buffers = (operands, cols, hp, pid)
        return run_epoch, epoch_loss


_UNLOADED = object()
_native = _UNLOADED  # the NativeKernel once loaded, None where it cannot be
_for_ranks: dict = {}  # Ranks -> the kernel native_kernel returns for them


@functools.cache
def host_avx2() -> bool:
    """Whether this host's CPU runs AVX2: on x86-64, ``avx2`` among the
    flags of /proc/cpuinfo, which Linux lists only where the OS saves the
    AVX state.  False on another machine, or where the file cannot be
    read.  Read once per process."""
    if platform.machine() != "x86_64":
        return False
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as info:
            flags = next((line for line in info if line.startswith("flags")), ":")
    except OSError:
        return False
    return "avx2" in flags.partition(":")[2].split()


def kernel_flags(ranks: Ranks | None = None) -> list:
    """The compiler flags of ``twd_kernel.c``: CC_FLAGS for the generic
    build, and for the build for ranks CC_FLAGS, ``-mavx2`` where the host
    runs AVX2 (``host_avx2``), and the six ranks defined as constants."""
    if ranks is None:
        return [*CC_FLAGS]
    # a rank build may then sum its independent chains in 256-bit
    # registers; -mavx2 leaves FMA off, and a packed IEEE multiply or add
    # rounds as a scalar one does, so no bit moves.  The generic build, the
    # fallback, stays at the baseline ISA.
    isa = ["-mavx2"] if host_avx2() else []
    defines = enumerate((*ranks.r, *ranks.h), start=3)
    return [*CC_FLAGS, *isa, *(f"-DTW_RANK{q}={n}" for q, n in defines)]


def library_path(ranks: Ranks | None = None) -> Path:
    """Where the kernel's shared library, generic or built for ranks, is
    cached: in $XDG_CACHE_HOME/tensorwheel (by default
    ~/.cache/tensorwheel), named by the sha256 of the source and flags."""
    flags = " ".join(kernel_flags(ranks)).encode()
    key = hashlib.sha256(KERNEL_SOURCE.read_bytes() + flags).hexdigest()
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache", "tensorwheel")
    return cache / f"{key}.so"


def _build_kernel(ranks: Ranks | None = None) -> Path:
    """``library_path(ranks)``, compiled there unless it exists; the build
    goes to a temp file that replaces the target only once it is whole."""
    path = library_path(ranks)
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".{os.urandom(6).hex()}.tmp")
        try:
            subprocess.run([CC, *kernel_flags(ranks), "-o", str(tmp), "-x", "c", "-"],
                           input=KERNEL_SOURCE.read_bytes(), capture_output=True, check=True,
                           timeout=300)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
    return path


def _load(ranks: Ranks | None = None) -> NativeKernel | None:
    """The kernel's build for ranks (None: the generic one), built unless
    cached and loaded; None where the compiler is missing or the build or
    the load fails."""
    try:
        return NativeKernel(ctypes.CDLL(str(_build_kernel(ranks))), ranks)
    except (OSError, subprocess.SubprocessError):
        return None


def native_kernel(ranks: Ranks | None = None) -> NativeKernel | None:
    """The compiled kernel: the generic build, loaded on the first call,
    or, given ranks, the build for them, which the trainer runs, loaded on
    the first call for them; the generic kernel where that build or load
    fails.  Both builds give the same results bit for bit.  None, and
    numpy runs instead, where the generic kernel is not loaded: the
    compiler is missing or its build or load failed.  Ranks whose
    workspace cannot be allocated raise MemoryError before any build for
    them."""
    global _native
    if _native is _UNLOADED:
        _native = _load()
    if ranks is None or _native is None:
        return _native
    if ranks not in _for_ranks:
        workspace(ranks)  # fails here, not after compiling a build that could never run
        _for_ranks[ranks] = _load(ranks) or _native
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


def reconstruct_entries(f: TwdFactors, ii: np.ndarray, jj: np.ndarray,
                        kk: np.ndarray) -> np.ndarray:
    """Reconstruct many elements at once, each chunk of positions as
    batched matmuls over slices gathered from ``_slice_major(f)``.  A
    chunk holds BATCH_CHUNK positions, or as many, at least one, as keep
    its stage-1 block, R3*H1*R2*H2 doubles a position, within
    BATCH_BYTES.  The columns are taken by ``check_indices``: they must
    be 1-D integer arrays or sequences of one length, or ParameterError
    names the batch, and positions outside f's dims raise BoundsError."""
    ii, jj, kk = check_indices(f, ii, jj, kk, "batch")
    n = len(ii)
    if n == 0:
        return np.zeros(0)
    (_, r2, r3), (h1, h2, h3) = f.ranks.r, f.ranks.h
    a_s, b_s, c_s = _slice_major(f)
    g = f.g.ravel()
    out = np.empty(n)
    chunk = max(1, min(BATCH_CHUNK, BATCH_BYTES // (8 * r3 * h1 * r2 * h2)))
    for start in range(0, n, chunk):
        stop = start + chunk
        # stage 1 per position and h1: an (R3*R2, H2) block, so that stage 2
        # multiplies its transpose without a copy
        ab = (a_s[ii[start:stop]] @ b_s[jj[start:stop]]).reshape(-1, h1, r3 * r2, h2)
        t_g = ab.transpose(0, 1, 3, 2) @ c_s[kk[start:stop]]  # (n, H1, H2, H3)
        out[start:stop] = t_g.reshape(len(ab), h1 * h2 * h3) @ g
    return out


def reconstruct_full(f: TwdFactors, cap: int = DENSE_CAP) -> np.ndarray:
    """Materialize the full dense reconstruction of shape ``f.dims``:
    ``reconstruct_entries`` over the row-major index grid, which it holds
    as 24 bytes per element.  Raises SizeCapError when the element count
    exceeds ``cap``.
    """
    ni, nj, nk = f.dims
    total = ni * nj * nk
    if total > cap:
        raise SizeCapError(f"dense reconstruction of {total} elements exceeds cap {cap}")
    return reconstruct_entries(f, *np.indices(f.dims).reshape(3, -1)).reshape(f.dims)


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
    with open_replacing(path) as fh:
        fh.write(checkpoint_text(f))


def load_checkpoint(path) -> TwdFactors:
    """Parse a text checkpoint back into a TwdFactors.

    The header is the first line, ended by any line break that
    ``str.splitlines`` takes, "\\r" among them.  The values are every
    whitespace-separated token after it, parsed in one numpy call, which
    takes a token as ``float`` does; the first it refuses raises
    ``bad checkpoint value: could not convert string to float: '<token>'``.
    """
    try:
        with open(path, encoding="ascii") as fh:
            content = fh.read()
    except UnicodeDecodeError:
        raise ParameterError(f"checkpoint is not ASCII text: {path}") from None
    if not content:
        raise ParameterError(f"empty checkpoint file: {path}")
    # the first line, found without splitting the body: any other break
    # that splitlines takes can only end it before the first "\n"
    header = (content.partition("\n")[0].splitlines() or [""])[0]
    head = header.split()
    magic = " ".join(head[:2])
    if magic != CHECKPOINT_MAGIC or len(head) != 11:
        raise ParameterError(f"bad checkpoint header: {header!r}")
    try:
        ni, nj, nk, r1, r2, r3, h1, h2, h3 = (int(x) for x in head[2:])
    except ValueError:
        raise ParameterError(f"bad checkpoint header: {header!r}") from None
    if min(ni, nj, nk) < 1:
        raise ParameterError(f"bad checkpoint header: {header!r}")
    dims, ranks = (ni, nj, nk), Ranks(r=(r1, r2, r3), h=(h1, h2, h3))
    try:
        # the header's tokens lead the file's, as every line break is whitespace
        values = np.array(content.split()[len(head):], dtype=np.float64)
    except ValueError as exc:
        raise ParameterError(f"bad checkpoint value: {exc}") from None
    shapes = factor_shapes(dims, ranks)
    expected = sum(math.prod(s) for s in shapes)
    if values.size != expected:
        raise ParameterError(f"checkpoint holds {values.size} values, expected {expected}")
    arrays = [np.empty(shape) for shape in shapes]
    scatter_blocks(values, arrays)
    return TwdFactors(*arrays, dims, ranks)
