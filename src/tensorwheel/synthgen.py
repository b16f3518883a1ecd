"""Planted-model synthetic data: low-rank tensors with known ground truth.

Generates a random tensor wheel model, samples a fraction of positions
uniformly without replacement, and reports the (optionally noisy) values
there.  Because the planted factors are returned alongside the
observations, recovery quality can be measured exactly at positions the
trainer never saw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SizeCapError
from .tensor_store import SparseTensor, check_dims, natural
from .twd_core import (
    DENSE_CAP,
    Ranks,
    TwdFactors,
    init_factors,
    reconstruct_entries,
)


@dataclass(frozen=True)
class SynthSpec:
    """Planted-model recipe: shape, ranks, observation density, noise."""

    dims: tuple[int, int, int]
    ranks: Ranks
    density: float
    noise_sigma: float = 0.0
    seed: int = 0
    value_scale: float = 0.5

    def __post_init__(self):
        for name in ("density", "noise_sigma", "value_scale"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value}")
        if not 0 < self.density <= 1:
            raise ParameterError(f"density must be in (0, 1], got {self.density}")
        if self.noise_sigma < 0:
            raise ParameterError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.value_scale <= 0:
            raise ParameterError(f"value_scale must be > 0, got {self.value_scale}")
        object.__setattr__(self, "seed", natural(self.seed, "seed"))
        object.__setattr__(self, "dims", check_dims(self.dims))


def generate(spec: SynthSpec) -> tuple[SparseTensor, TwdFactors]:
    """Plant a model and sample observations from it.

    Positions are chosen by a seeded shuffle of the linearized index
    space, taking the first ceil(density * total); values are the planted
    reconstruction plus Gaussian noise of the requested sigma.  The same
    spec always produces the same output.
    """
    ni, nj, nk = spec.dims
    total = ni * nj * nk
    if total > DENSE_CAP:
        raise SizeCapError(f"planted tensor of {total} elements exceeds cap {DENSE_CAP}")
    truth = init_factors(spec.dims, spec.ranks, spec.seed, spec.value_scale)
    n_obs = math.ceil(spec.density * total)
    # separate stream from init_factors, which consumed default_rng(seed)
    rng = np.random.default_rng([spec.seed, 1])
    linear = np.sort(rng.permutation(total)[:n_obs])
    ii, jj, kk = np.unravel_index(linear, spec.dims)
    # positions in row-major order: at full density this is the index grid
    # reconstruct_full hands reconstruct_entries, so the two agree bit for bit
    # values that overflow come out non-finite, which SparseTensor refuses
    with np.errstate(over="ignore", invalid="ignore"):
        values = reconstruct_entries(truth, ii, jj, kk)
        if spec.noise_sigma > 0:
            values = values + rng.normal(0.0, spec.noise_sigma, n_obs)
    return SparseTensor._over_valid_keys(spec.dims, ii, jj, kk, values), truth


def holdout_set(observed: SparseTensor, truth: TwdFactors) -> SparseTensor:
    """Ground-truth values at every position the observation set missed.

    This is the natural held-out set for planted-model experiments: the
    values are known by construction, not by measurement.  truth must have
    the observed dims.
    """
    if tuple(truth.dims) != observed.dims:
        raise ParameterError(f"truth dims {tuple(truth.dims)} differ from the observed dims "
                             f"{observed.dims}")
    ni, nj, nk = observed.dims
    mask = np.zeros((ni, nj, nk), dtype=bool)
    mask[observed.ii, observed.jj, observed.kk] = True
    hi, hj, hk = np.nonzero(~mask)
    values = reconstruct_entries(truth, hi, hj, hk)
    return SparseTensor._over_valid_keys(observed.dims, hi, hj, hk, values,
                                         normalized=observed.normalized)
