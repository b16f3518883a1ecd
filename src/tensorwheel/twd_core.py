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
partials with respect to the a, b and c slices.  ``entry_partials``,
``reconstruct_entry`` and the trainer's step all run it, so
``reconstruct_entry`` equals the trainer's x_hat bit for bit.
``reconstruct_entries`` and
``reconstruct_full`` run the same stages, summing over the same indices
in the same order, as batched products over gathered slices,
BATCH_CHUNK positions at a time; the products are grouped differently
there, so they agree with ``reconstruct_entry`` to rounding, not bit
for bit.  ``reconstruct_full`` contracts the row-major index grid with
``reconstruct_entries``'s chunks, so the two agree bit for bit there.
``oracle_entry`` is the independent six-loop reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundsError, ParameterError, SizeCapError
from .tensor_store import open_replacing

DENSE_CAP = 10_000_000  # max elements a dense reconstruction may materialize
BATCH_CHUNK = 256  # positions per batched-kernel call; bounds its temporaries

CHECKPOINT_MAGIC = "TWD v1"


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
            arr = getattr(self, name)
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
    g, a, b, c = (rng.random(shape) * scale for shape in factor_shapes((ni, nj, nk), ranks))
    return TwdFactors(g, a, b, c, (ni, nj, nk), ranks)


def _check_index(f: TwdFactors, i: int, j: int, k: int):
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


def entry_partials(f: TwdFactors, i: int, j: int, k: int):
    """``block_partials`` of the four blocks at (i, j, k), from the current
    factor values.  Indices are not bounds-checked."""
    return block_partials(*entry_blocks(f, i, j, k))


def reconstruct_entry(f: TwdFactors, i: int, j: int, k: int) -> float:
    """Reconstruct one element through the trainer's kernel, so the
    result equals the training path's x_hat bit for bit."""
    _check_index(f, i, j, k)
    return entry_partials(f, i, j, k)[0]


def oracle_entry(f: TwdFactors, i: int, j: int, k: int) -> float:
    """Reference single-element reconstruction by explicit six-nested loops.

    Deliberately unoptimized; exists only to cross-check the staged
    kernels in tests.
    """
    _check_index(f, i, j, k)
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


def _contract_batch(f: TwdFactors, slices, ii: np.ndarray, jj: np.ndarray,
                    kk: np.ndarray) -> np.ndarray:
    """The three stages for a batch of positions, as batched matmuls over
    slices gathered from ``_slice_major(f)``.

    Stage 1 yields, per position and h1, an (R3*R2, H2) block, so stage 2
    multiplies its transpose without a copy, per position and h1.
    """
    _, r2, r3 = f.ranks.r
    h1, h2, h3 = f.ranks.h
    a_s, b_s, c_s = slices
    n = len(ii)
    ab = (a_s[ii] @ b_s[jj]).reshape(n, h1, r3 * r2, h2)
    t_g = ab.transpose(0, 1, 3, 2) @ c_s[kk]  # (n, H1, H2, H3)
    return t_g.reshape(n, h1 * h2 * h3) @ f.g.ravel()


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
        out[start:stop] = _contract_batch(f, slices, ii[start:stop], jj[start:stop],
                                          kk[start:stop])
    return out


def reconstruct_full(f: TwdFactors, cap: int = DENSE_CAP) -> np.ndarray:
    """Materialize the full dense reconstruction of shape ``f.dims``.

    Runs the batched kernel over the row-major index grid, so it equals
    ``reconstruct_entries`` on that grid bit for bit.  Raises
    SizeCapError when the element count exceeds ``cap``.
    """
    ni, nj, nk = f.dims
    total = ni * nj * nk
    if total > cap:
        raise SizeCapError(f"dense reconstruction of {total} elements exceeds cap {cap}")
    slices = _slice_major(f)
    out = np.empty(total)
    for start in range(0, total, BATCH_CHUNK):
        stop = min(start + BATCH_CHUNK, total)
        out[start:stop] = _contract_batch(f, slices,
                                          *np.unravel_index(np.arange(start, stop), f.dims))
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
        flat = arr.ravel()
        for start in range(0, flat.size, 8):
            lines.append(" ".join(repr(float(v)) for v in flat[start:start + 8]))
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
