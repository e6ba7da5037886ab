import hashlib
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plexsim.core import (
    Aggregate,
    DeviceProfile,
    Membership,
    ModelParameters,
    Train,
    average_models,
    derive_rng,
    message_size_bytes,
    model_size_bytes,
    validate_node_id,
)

from oracles import average_reference, derive_rng_reference


def vec(*vals):
    return ModelParameters(np.array(vals, dtype=np.float64))


# ------------------------------------------------------------ validation --


def test_node_id_rules():
    validate_node_id("n1")
    with pytest.raises(ValueError):
        validate_node_id("")
    with pytest.raises(ValueError, match=r"\|"):
        validate_node_id("a|b")


def test_model_requires_finite_1d():
    with pytest.raises(ValueError):
        ModelParameters(np.array([1.0, np.inf]))
    with pytest.raises(ValueError):
        ModelParameters(np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError):
        ModelParameters(np.array([], dtype=np.float64))
    with pytest.raises(ValueError):
        ModelParameters(np.array([1.0]), age=-1)


def test_model_values_are_frozen():
    m = vec(1.0, 2.0)
    with pytest.raises(ValueError):
        m.values[0] = 5.0


def test_model_copies_a_writeable_vector():
    values = np.array([1.0, 2.0])
    m = ModelParameters(values)
    assert not np.shares_memory(m.values, values)
    values[0] = 5.0
    assert m.values.tolist() == [1.0, 2.0]
    assert values.flags.writeable


def test_model_copies_a_read_only_view():
    # The view is read-only, but its base is not: writing to the base would
    # change an adopted view.
    base = np.array([1.0, 2.0, 3.0])
    view = base[:2]
    view.flags.writeable = False
    m = ModelParameters(view)
    base[0] = 5.0
    assert m.values.tolist() == [1.0, 2.0]


def test_model_adopts_an_owned_read_only_vector():
    values = np.array([1.0, 2.0])
    values.flags.writeable = False
    m = ModelParameters(values)
    assert m.values is values
    assert ModelParameters(m.values, age=3).values is values


def test_model_checks_an_adopted_vector():
    for bad in (np.array([1.0, np.nan]), np.zeros((1, 2)), np.zeros(0)):
        bad.flags.writeable = False
        with pytest.raises(ValueError):
            ModelParameters(bad)


def test_model_copies_a_vector_of_another_dtype():
    values = np.array([1, 2], dtype=np.int64)
    values.flags.writeable = False
    m = ModelParameters(values)
    assert m.values.dtype == np.float64 and not m.values.flags.writeable


def test_device_profile_positive():
    with pytest.raises(ValueError):
        DeviceProfile(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        DeviceProfile(1.0, -2.0, 1.0)
    with pytest.raises(ValueError):
        DeviceProfile(1.0, 1.0, 1.0, city_index=-1)


def test_membership_rejects_duplicates_and_missing_profiles():
    p = DeviceProfile(1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="duplicate"):
        Membership(["a", "a"], {"a": p})
    with pytest.raises(ValueError, match="profile"):
        Membership(["a", "b"], {"a": p})
    with pytest.raises(ValueError):
        Membership([], {})


def test_membership_indexes_its_members_and_refuses_an_unknown_id():
    p = DeviceProfile(1.0, 1.0, 1.0)
    m = Membership(["c", "a", "b"], {"a": p, "b": p, "c": p})
    assert [m.index_of(nid) for nid in m.nodes] == [0, 1, 2]
    with pytest.raises(ValueError, match="'d' is not a member"):
        m.index_of("d")


# ------------------------------------------------------------- averaging --


def test_average_matches_sum_oracle():
    rng = derive_rng(99, "avg-test")
    models = [ModelParameters(rng.normal(size=16)) for _ in range(10)]
    got = average_models(models)
    want = average_reference([m.values for m in models])
    assert np.max(np.abs(got.values - want)) <= 1e-12
    assert got.age == 0


def test_average_errors():
    with pytest.raises(ValueError, match="nothing to aggregate"):
        average_models([])
    with pytest.raises(ValueError, match="heterogeneous model dimensions"):
        average_models([vec(1.0), vec(1.0, 2.0)])


@given(st.integers(0, 10**6), st.integers(2, 8), st.integers(1, 12))
@settings(max_examples=50, deadline=None)
def test_average_permutation_invariant_and_bounded(seed, count, dim):
    rng = np.random.default_rng(seed)
    models = [ModelParameters(rng.uniform(-10, 10, dim)) for _ in range(count)]
    base = average_models(models).values
    perm = [models[i] for i in rng.permutation(count)]
    assert np.max(np.abs(average_models(perm).values - base)) <= 1e-12
    stacked = np.stack([m.values for m in models])
    assert np.all(base <= stacked.max(axis=0) + 1e-12)
    assert np.all(base >= stacked.min(axis=0) - 1e-12)


@given(st.integers(1, 40), st.integers(1, 64), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_average_is_the_sequential_mean_bit_for_bit(count, dim, seed):
    # Each model has its own magnitude, from 1e-3 to 1e3, and random signs.
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.uniform(-3.0, 3.0, count)
    vectors = [scale * rng.standard_normal(dim) for scale in scales]
    got = average_models([ModelParameters(v) for v in vectors]).values
    assert got.tobytes() == average_reference(vectors).tobytes()
    if dim >= 2:  # NumPy sums a one-column stack pairwise
        assert got.tobytes() == np.stack(vectors).mean(axis=0).tobytes()


# ------------------------------------------------------------- wire size --


def test_model_size_formula():
    m = ModelParameters(np.zeros(1000))
    assert model_size_bytes(m.dim) == 8016
    assert message_size_bytes(Train(1, m)) == 8016
    assert message_size_bytes(Aggregate(1, m)) == 8016


# ------------------------------------------------------------------- rng --


def test_derive_rng_deterministic_and_keyed():
    a = derive_rng(1, "x", 2).normal(size=4)
    b = derive_rng(1, "x", 2).normal(size=4)
    c = derive_rng(1, "x", 3).normal(size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def assert_same_streams(got, want):
    assert got.random(8).tobytes() == want.random(8).tobytes()
    assert np.array_equal(got.choice(1000, size=20, replace=False), want.choice(1000, size=20, replace=False))


KEYS = st.one_of(st.integers(), st.text(st.characters(exclude_categories=("Cs",))), st.floats(allow_nan=False))


@given(st.integers(0, 2**64), st.lists(KEYS, max_size=5))
@settings(max_examples=200, deadline=None)
def test_derive_rng_gives_the_streams_of_its_reference(root_seed, keys):
    assert_same_streams(derive_rng(root_seed, *keys), derive_rng_reference(root_seed, *keys))


@pytest.mark.parametrize(
    "words",
    [(1, 2, 3, 0), (7, 9, 0, 0), (5, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 2**31), (2**32 - 1, 0, 2**32 - 1, 0)],
)
def test_derive_rng_keeps_the_stream_of_a_digest_with_zero_high_words(monkeypatch, words):
    # An int with zero high words has fewer than four; SeedSequence pads
    # both seeds' words with zeros to four, so they fill one pool.
    digest = np.array(words, dtype="<u4").tobytes() + bytes(16)
    monkeypatch.setattr(hashlib, "sha256", lambda material: types.SimpleNamespace(digest=lambda: digest))
    assert_same_streams(derive_rng(1, "x"), derive_rng_reference(1, "x"))
