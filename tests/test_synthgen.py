import math

import numpy as np
import pytest

from tensorwheel import (
    ParameterError,
    Ranks,
    SizeCapError,
    SynthSpec,
    generate,
    holdout_set,
    oracle_entry,
    reconstruct_full,
)

RANKS = Ranks(r=(2, 2, 2), h=(2, 2, 2))


def test_full_density_no_noise_equals_dense_reconstruction():
    spec = SynthSpec(dims=(4, 3, 2), ranks=RANKS, density=1.0, seed=5)
    observed, truth = generate(spec)
    assert len(observed) == 4 * 3 * 2
    full = reconstruct_full(truth)
    for e in observed.entries:
        assert e.value == full[e.i, e.j, e.k]


def test_observed_values_match_oracle():
    spec = SynthSpec(dims=(5, 4, 3), ranks=RANKS, density=0.4, seed=9)
    observed, truth = generate(spec)
    for e in observed.entries:
        assert abs(e.value - oracle_entry(truth, e.i, e.j, e.k)) < 1e-12


def test_deterministic_per_seed():
    spec = SynthSpec(dims=(5, 5, 4), ranks=RANKS, density=0.3, noise_sigma=0.1, seed=13)
    first_obs, first_truth = generate(spec)
    second_obs, second_truth = generate(spec)
    assert first_obs.entries == second_obs.entries
    for name in "gabc":
        assert np.array_equal(getattr(first_truth, name), getattr(second_truth, name))
    other_obs, _ = generate(SynthSpec(dims=(5, 5, 4), ranks=RANKS, density=0.3,
                                      noise_sigma=0.1, seed=14))
    assert other_obs.entries != first_obs.entries


def test_sample_count_and_distinct_positions():
    rng = np.random.default_rng(3)
    for trial in range(10):
        density = float(rng.uniform(0.05, 1.0))
        spec = SynthSpec(dims=(6, 5, 4), ranks=RANKS, density=density,
                         seed=int(rng.integers(1e6)))
        observed, _ = generate(spec)
        expected = math.ceil(density * 6 * 5 * 4)
        assert len(observed) == expected
        positions = {(e.i, e.j, e.k) for e in observed.entries}
        assert len(positions) == expected


def test_noise_perturbs_values():
    base = SynthSpec(dims=(4, 4, 4), ranks=RANKS, density=0.5, noise_sigma=0.0, seed=2)
    noisy = SynthSpec(dims=(4, 4, 4), ranks=RANKS, density=0.5, noise_sigma=0.05, seed=2)
    clean_obs, truth = generate(base)
    noisy_obs, _ = generate(noisy)
    # same positions, shifted values
    assert [(e.i, e.j, e.k) for e in clean_obs.entries] == \
           [(e.i, e.j, e.k) for e in noisy_obs.entries]
    diffs = [abs(c.value - n.value) for c, n in zip(clean_obs.entries, noisy_obs.entries)]
    assert max(diffs) > 0.0


def test_holdout_complements_observed():
    spec = SynthSpec(dims=(5, 4, 3), ranks=RANKS, density=0.35, seed=11)
    observed, truth = generate(spec)
    held = holdout_set(observed, truth)
    assert len(held) == 5 * 4 * 3 - len(observed)
    obs_pos = {(e.i, e.j, e.k) for e in observed.entries}
    for e in held.entries:
        assert (e.i, e.j, e.k) not in obs_pos
        assert abs(e.value - oracle_entry(truth, e.i, e.j, e.k)) < 1e-12


@pytest.mark.parametrize("bad", [
    dict(density=0.0),
    dict(density=1.5),
    dict(noise_sigma=-0.1),
    dict(value_scale=0.0),
    dict(noise_sigma=float("nan")),
    dict(noise_sigma=float("inf")),
    dict(value_scale=float("nan")),
    dict(value_scale=float("inf")),
    dict(density=float("nan")),
])
def test_spec_validation(bad):
    kw = dict(dims=(3, 3, 3), ranks=RANKS, density=0.5)
    kw.update(bad)
    with pytest.raises(ParameterError):
        SynthSpec(**kw)


def test_dense_cap_enforced():
    spec = SynthSpec(dims=(500, 500, 100), ranks=RANKS, density=0.01, seed=0)
    with pytest.raises(SizeCapError):
        generate(spec)
