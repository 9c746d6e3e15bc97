"""Array-valued mixtures: the (D, Z, K) batch, its validation and the
batched scenario sampler, checked against the one-mixture-at-a-time
references in `oracles`."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetcast.mdn import SIGMA_FLOOR, MixtureBatch, gmm_logpdf, gmm_nll, mdn_transform
from fleetcast.relocation import ScenarioSet, sample_scenarios
from oracles import per_zone_sample

weight = st.one_of(st.just(0.0), st.floats(0.01, 1.0))
mean = st.floats(-50.0, 120.0)
std = st.one_of(st.just(0.0), st.floats(1e-3, 30.0))


@st.composite
def mixture(draw, k):
    raw = draw(st.lists(weight, min_size=k, max_size=k).filter(lambda w: sum(w) > 0))
    w = np.array(raw) / sum(raw)
    return MixtureBatch(w, draw(st.lists(mean, min_size=k, max_size=k)),
                        draw(st.lists(std, min_size=k, max_size=k)))


@st.composite
def day_of_zones(draw, zones):
    """One day's mixtures, each zone with its own component count."""
    return [draw(mixture(draw(st.integers(1, 4)))) for _ in range(zones)]


@st.composite
def days_of_zones(draw):
    """Up to three days of Z zones' mixtures, all with one component count."""
    zones, days, k = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    return [[draw(mixture(k)) for _ in range(zones)] for _ in range(days)]


def as_batch(days):
    stacked = [MixtureBatch.stack(day) for day in days]
    return MixtureBatch(*(np.stack([getattr(b, name) for b in stacked])
                          for name in ("weights", "means", "stds")))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(day_of_zones),
       st.integers(1, 60), st.integers(0, 2**32 - 1))
def test_one_day_draws_equal_the_per_zone_sampler(per_zone, n, seed):
    got = sample_scenarios(per_zone, n, seed)
    want = per_zone_sample(per_zone, n, seed)
    assert isinstance(got, ScenarioSet) and got.seed == seed
    assert np.array_equal(got.demand, want.demand)
    assert got.demand.flags.c_contiguous


@settings(max_examples=100, deadline=None)
@given(days_of_zones(), st.integers(1, 40), st.lists(st.integers(0, 2**32 - 1),
                                                     min_size=3, max_size=3))
def test_batched_draws_equal_the_per_zone_sampler_day_by_day(days, n, seeds):
    seeds = seeds[: len(days)]
    got = sample_scenarios(as_batch(days), n, seeds)
    assert len(got) == len(days)
    for scen, day, seed in zip(got, days, seeds):
        assert scen.seed == seed
        assert np.array_equal(scen.demand, per_zone_sample(day, n, seed).demand)


def test_a_day_of_the_batch_samples_as_the_one_day_form():
    batch = valid_batch(days=5)
    got = sample_scenarios(batch, 200, [11 + t for t in range(5)])
    for t in range(5):
        one = sample_scenarios(batch[t], 200, seed=11 + t)
        assert np.array_equal(got[t].demand, one.demand)


def test_a_batch_needs_one_seed_per_day():
    batch = as_batch([[MixtureBatch([1.0], [5.0], [1.0])]] * 3)
    for seed in (7, [7, 8]):
        with pytest.raises(ValueError, match="needs D seeds"):
            sample_scenarios(batch, 10, seed)


def valid_batch(days=4, zones=3, k=3):
    rng = np.random.default_rng(0)
    return as_batch([[MixtureBatch(rng.dirichlet(np.ones(k)), rng.uniform(0, 80, k),
                                   rng.uniform(1, 9, k)) for _ in range(zones)]
                     for _ in range(days)])


def invalid_batch(field, value, day=2, zone=1):
    batch = valid_batch()
    getattr(batch, field)[day, zone, 0] = value
    return batch


@pytest.mark.parametrize("field, value, why", [
    ("weights", math.nan, "non-finite"),
    ("means", math.inf, "non-finite"),
    ("stds", -math.inf, "non-finite"),
    ("weights", 5.0, "weights sum to"),
    ("stds", -1e-9, "std below floor"),
])
def test_sampling_names_the_day_and_zone_of_an_invalid_mixture(field, value, why):
    with pytest.raises(ValueError, match=f"^day 2, zone 1: {why}"):
        sample_scenarios(invalid_batch(field, value), 10, [0, 1, 2, 3])


def test_a_negative_weight_is_named_by_day_and_zone():
    batch = valid_batch()
    w = batch.weights[2, 1]
    w[1] += w[0] + 0.25
    w[0] = -0.25  # the weights still sum to 1
    with pytest.raises(ValueError, match="^day 2, zone 1: negative mixture weight"):
        sample_scenarios(batch, 10, [0, 1, 2, 3])


def test_weights_off_one_by_more_than_1e_9_are_invalid():
    batch = invalid_batch("weights", 0.0)
    batch.weights[2, 1, 0] += 2e-9 - batch.weights[2, 1].sum() + 1.0
    with pytest.raises(ValueError, match="^day 2, zone 1: weights sum to"):
        batch.validate()
    batch.weights[2, 1, 0] -= 1.5e-9
    batch.validate()


def test_the_first_invalid_mixture_is_named_and_the_one_day_form_is_day_0():
    batch = invalid_batch("stds", 1e-4, day=3, zone=0)
    batch.stds[1, 2, 2] = 1e-4
    with pytest.raises(ValueError, match=f"^day 1, zone 2: std below floor {SIGMA_FLOOR}"):
        batch.validate()
    per_zone = [MixtureBatch([1.0], [3.0], [1.0]),
                MixtureBatch([0.5, 0.6], [1.0, 2.0], [1.0, 1.0])]
    with pytest.raises(ValueError, match="^day 0, zone 1: weights sum to 1.1"):
        sample_scenarios(per_zone, 10, seed=0)
    with pytest.raises(ValueError, match="^weights sum to 1.1"):
        per_zone[1].validate()


def test_stack_pads_with_zero_weight_components_and_rejects_ragged_mixtures():
    batch = MixtureBatch.stack([MixtureBatch([1.0], [3.0], [2.0]),
                                MixtureBatch([0.5, 0.5], [1.0, 2.0], [1.0, 1.0])])
    np.testing.assert_array_equal(batch.weights, [[1.0, 0.0], [0.5, 0.5]])
    np.testing.assert_array_equal(batch.mean(), [3.0, 1.5])
    with pytest.raises(ValueError, match=r"one shape \(\.\.\., K\)"):
        MixtureBatch.stack([MixtureBatch([1.0], [3.0], [2.0]),
                            MixtureBatch([0.5, 0.5], [1.0], [1.0, 1.0])])
    with pytest.raises(ValueError, match="no mixtures"):
        MixtureBatch.stack([])


def test_transform_of_a_stack_equals_the_transform_of_each_row():
    raw = np.random.default_rng(2).normal(size=(5, 3, 12)) * 4
    batch = mdn_transform(raw, sigma_floor=0.01)
    assert isinstance(batch, MixtureBatch) and batch.shape == (5, 3)
    for d in range(5):
        for z in range(3):
            want = mdn_transform(raw[d, z], sigma_floor=0.01)
            got = batch[d][z]
            assert isinstance(got, MixtureBatch) and got.shape == want.shape == ()
            for name in ("weights", "means", "stds"):
                assert np.array_equal(getattr(got, name), getattr(want, name))
    with pytest.raises(ValueError, match="expected 3\\*3"):
        mdn_transform(raw, k=3)


def test_scale_matches_the_one_mixture_scale():
    raw = np.random.default_rng(3).normal(size=(4, 2, 9))
    factor, offset = np.array([20.0, 3.5]), np.array([100.0, -2.0])
    batch = mdn_transform(raw).scale(factor, offset)
    for d in range(4):
        for z in range(2):
            want = mdn_transform(raw[d, z]).scale(factor[z], offset[z])
            for name in ("weights", "means", "stds"):
                assert np.array_equal(getattr(batch[d, z], name), getattr(want, name))
    with pytest.raises(ValueError, match="positive"):
        batch.scale(np.array([1.0, 0.0]))


def test_one_mixture_is_a_batch_of_shape_empty_and_has_no_len():
    batch = valid_batch(days=2, zones=3, k=2)
    one = batch[1, 2]
    assert isinstance(one, MixtureBatch) and one.shape == () and one.n_components == 2
    assert all(isinstance(day, MixtureBatch) and day.shape == (3,) for day in batch)
    with pytest.raises(TypeError, match="len"):
        len(one)


def test_a_record_round_trips_one_mixture_and_rejects_anything_else():
    one = MixtureBatch([0.25, 0.75], [1.0, 2.0], [0.5, 1.5])
    record = one.to_dict()
    assert record == {"K": 2, "weights": [0.25, 0.75], "means": [1.0, 2.0],
                      "stds": [0.5, 1.5]}
    back = MixtureBatch.from_dict(record)
    for name in ("weights", "means", "stds"):
        assert np.array_equal(getattr(back, name), getattr(one, name))
    with pytest.raises(ValueError, match="K does not match weights length"):
        MixtureBatch.from_dict(dict(record, K=3))
    two = {"K": 2, "weights": [[0.25, 0.75]] * 2, "means": [[1.0, 2.0]] * 2,
           "stds": [[0.5, 1.5]] * 2}
    with pytest.raises(ValueError, match=r"shape \(K,\), not \(2, 2\)"):
        MixtureBatch.from_dict(two)


def test_nll_of_a_stack_sums_the_score_of_each_pair_left_to_right():
    batch = valid_batch(days=3, zones=2, k=3)
    targets = np.random.default_rng(4).uniform(-300, 400, size=(3, 2))
    total = 0.0
    for x, p in zip(targets.ravel(), [mix for day in batch for mix in day]):
        total -= float(gmm_logpdf(x, p))
    assert gmm_nll(targets, batch) == total / 6
    assert gmm_nll(targets.ravel(), [mix for day in batch for mix in day]) == total / 6
    # zero-weight components, as `stack` pads with, add nothing even where
    # the real component's density is below 1e-300
    ragged = [MixtureBatch([1.0], [50.0], [1.0]),
              MixtureBatch([0.5, 0.5], [1.0, 2.0], [1.0, 1.0])]
    far = 1250.0 + 0.5 * math.log(2 * math.pi)
    assert gmm_nll([0.0], ragged[:1]) == pytest.approx(far, rel=1e-15)
    assert gmm_nll([0.0, 0.0], ragged) == pytest.approx(
        (far + gmm_nll([0.0], ragged[1:])) / 2, rel=1e-15)
