import math
import re

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

from records import entries

RANKS = Ranks(r=(2, 2, 2), h=(2, 2, 2))


def test_full_density_no_noise_equals_dense_reconstruction():
    spec = SynthSpec(dims=(4, 3, 2), ranks=RANKS, density=1.0, seed=5)
    observed, truth = generate(spec)
    assert len(observed) == 4 * 3 * 2
    full = reconstruct_full(truth)
    for e in entries(observed):
        assert e.value == full[e.i, e.j, e.k]


def test_observed_values_match_oracle():
    spec = SynthSpec(dims=(5, 4, 3), ranks=RANKS, density=0.4, seed=9)
    observed, truth = generate(spec)
    for e in entries(observed):
        assert abs(e.value - oracle_entry(truth, e.i, e.j, e.k)) < 1e-12


def test_deterministic_per_seed():
    spec = SynthSpec(dims=(5, 5, 4), ranks=RANKS, density=0.3, noise_sigma=0.1, seed=13)
    first_obs, first_truth = generate(spec)
    second_obs, second_truth = generate(spec)
    assert entries(first_obs) == entries(second_obs)
    for name in "gabc":
        assert np.array_equal(getattr(first_truth, name), getattr(second_truth, name))
    other_obs, _ = generate(SynthSpec(dims=(5, 5, 4), ranks=RANKS, density=0.3,
                                      noise_sigma=0.1, seed=14))
    assert entries(other_obs) != entries(first_obs)


def test_sample_count_and_distinct_positions():
    rng = np.random.default_rng(3)
    for trial in range(10):
        density = float(rng.uniform(0.05, 1.0))
        spec = SynthSpec(dims=(6, 5, 4), ranks=RANKS, density=density,
                         seed=int(rng.integers(1e6)))
        observed, _ = generate(spec)
        expected = math.ceil(density * 6 * 5 * 4)
        assert len(observed) == expected
        positions = {(e.i, e.j, e.k) for e in entries(observed)}
        assert len(positions) == expected


def test_noise_perturbs_values():
    base = SynthSpec(dims=(4, 4, 4), ranks=RANKS, density=0.5, noise_sigma=0.0, seed=2)
    noisy = SynthSpec(dims=(4, 4, 4), ranks=RANKS, density=0.5, noise_sigma=0.05, seed=2)
    clean_obs, truth = generate(base)
    noisy_obs, _ = generate(noisy)
    # same positions, shifted values
    assert [(e.i, e.j, e.k) for e in entries(clean_obs)] == \
           [(e.i, e.j, e.k) for e in entries(noisy_obs)]
    diffs = [abs(c.value - n.value) for c, n in zip(entries(clean_obs), entries(noisy_obs))]
    assert max(diffs) > 0.0


def test_holdout_complements_observed():
    spec = SynthSpec(dims=(5, 4, 3), ranks=RANKS, density=0.35, seed=11)
    observed, truth = generate(spec)
    held = holdout_set(observed, truth)
    assert len(held) == 5 * 4 * 3 - len(observed)
    obs_pos = {(e.i, e.j, e.k) for e in entries(observed)}
    for e in entries(held):
        assert (e.i, e.j, e.k) not in obs_pos
        assert abs(e.value - oracle_entry(truth, e.i, e.j, e.k)) < 1e-12


@pytest.mark.parametrize("truth_dims", [(6, 4, 3), (5, 4, 2)])
def test_holdout_refuses_a_truth_of_other_dims(truth_dims):
    observed, _ = generate(SynthSpec(dims=(5, 4, 3), ranks=RANKS, density=0.35, seed=11))
    _, truth = generate(SynthSpec(dims=truth_dims, ranks=RANKS, density=0.35, seed=11))
    message = f"truth dims {truth_dims} differ from the observed dims (5, 4, 3)"
    with pytest.raises(ParameterError, match=re.escape(message)):
        holdout_set(observed, truth)


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
    dict(seed=-1),
])
def test_spec_validation(bad):
    kw = dict(dims=(3, 3, 3), ranks=RANKS, density=0.5)
    kw.update(bad)
    with pytest.raises(ParameterError):
        SynthSpec(**kw)


def test_dims_and_seed_that_are_not_whole_are_refused():
    with pytest.raises(ParameterError, match=r"dims must be whole numbers, got \(3.5, 3, 3\)"):
        generate(SynthSpec(dims=(3.5, 3, 3), ranks=RANKS, density=0.5))
    with pytest.raises(ParameterError, match="seed must be a whole number, got 2.5"):
        SynthSpec(dims=(3, 3, 3), ranks=RANKS, density=0.5, seed=2.5)
    whole = generate(SynthSpec(dims=(3.0, 3, 3), ranks=RANKS, density=0.5, seed=2.0))
    exact = generate(SynthSpec(dims=(3, 3, 3), ranks=RANKS, density=0.5, seed=2))
    assert entries(whole[0]) == entries(exact[0])


def test_dense_cap_enforced():
    spec = SynthSpec(dims=(500, 500, 100), ranks=RANKS, density=0.01, seed=0)
    with pytest.raises(SizeCapError):
        generate(spec)
