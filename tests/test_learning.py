from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plexsim import learning
from plexsim.core import ModelParameters, derive_rng
from plexsim.learning import (
    DataPartition,
    EvalSplit,
    ModelSpec,
    PartitionScheme,
    TrainerConfig,
    evaluate_many,
    local_train,
    local_train_many,
    partition,
    synth_dataset,
)

from oracles import (
    evaluate_reference,
    finite_difference_grad,
    local_train_reference,
    loss_grad_reference,
    synth_dataset_reference,
)


LINEAR = ModelSpec("linear", d_in=4, classes=3)
MLP = ModelSpec("mlp", d_in=4, classes=3, hidden=6)
SQUARED = ModelSpec("squared", d_in=2, classes=2)


def whole(X, y):
    """A shard of every row of X, y."""
    return DataPartition(X, y, np.arange(y.size))


def split_of(X, y):
    """An evaluation split of every row of X, y."""
    return EvalSplit(X, y, np.arange(y.size))


def toy_batch(spec, n=12, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, spec.d_in))
    y = rng.integers(0, max(2, spec.classes), size=n)
    return X, y


# ------------------------------------------------------------------ shapes --


def test_dims():
    assert LINEAR.dim == 3 * 4 + 3
    assert MLP.dim == 6 * 4 + 6 + 3 * 6 + 3
    assert SQUARED.dim == 2
    assert ModelSpec("linear", d_in=256, classes=10).dim == 2570


def test_spec_validation():
    with pytest.raises(ValueError, match="family"):
        ModelSpec("forest", 4, 3)
    with pytest.raises(ValueError):
        ModelSpec("linear", 0, 3)
    with pytest.raises(ValueError):
        ModelSpec("linear", 4, 1)
    with pytest.raises(ValueError):
        ModelSpec("mlp", 4, 3, hidden=0)


def test_init_model_shape_and_determinism():
    for spec in (LINEAR, MLP, SQUARED):
        a = spec.init_model(derive_rng(0, "init"))
        b = spec.init_model(derive_rng(0, "init"))
        assert a.dim == spec.dim
        assert a.age == 0
        assert np.array_equal(a.values, b.values)


# --------------------------------------------------------------- gradients --


def test_squared_gradient_by_hand():
    # One sample, X = [[1, 2]], y = [1], w = 0: residual -1,
    # gradient X^T * resid = [-1, -2].
    X = np.array([[1.0, 2.0]])
    y = np.array([1.0])
    assert np.allclose(SQUARED.grad(np.zeros(2), X, y), [-1.0, -2.0])


def test_squared_sgd_step_by_hand():
    # theta <- theta - eta * grad with eta = 0.1 from w = 0:
    # w becomes [0.1, 0.2].
    part = whole(np.array([[1.0, 2.0]]), np.array([1.0]))
    cfg = TrainerConfig(eta=0.1, momentum=0.0, batch_size=1, local_steps=1)
    out = local_train(ModelParameters(np.zeros(2)), SQUARED, part, cfg, derive_rng(0))
    assert np.allclose(out.values, [0.1, 0.2])
    assert out.age == 1


@pytest.mark.parametrize("spec", [LINEAR, MLP, SQUARED], ids=lambda s: s.family)
def test_analytic_gradient_matches_finite_differences(spec):
    rng = np.random.default_rng(7)
    theta = rng.normal(0.0, 0.5, spec.dim)
    X, y = toy_batch(spec, seed=3)
    if spec.family == "squared":
        y = rng.normal(size=X.shape[0])
    grad = spec.grad(theta, X, y)
    num = finite_difference_grad(lambda th: loss_grad_reference(spec, th, X, y)[0], theta)
    assert np.max(np.abs(grad - num)) <= 1e-6


def test_momentum_accumulates():
    # Full-batch on a fixed sample: two momentum steps are
    # w1 = -eta*g, v2 = mu*g + g2, w2 = w1 - eta*v2; check against a
    # hand-rolled recurrence using the analytic gradient.
    part = whole(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, 2.0]))
    cfg = TrainerConfig(eta=0.1, momentum=0.9, batch_size=2, local_steps=3)
    out = local_train(ModelParameters(np.zeros(2)), SQUARED, part, cfg, derive_rng(0))
    theta = np.zeros(2)
    v = np.zeros(2)
    for _ in range(3):
        g = SQUARED.grad(theta, part.X, part.y)
        v = 0.9 * v + g
        theta = theta - 0.1 * v
    assert np.allclose(out.values, theta, atol=1e-12)


def test_zero_steps_and_zero_eta_are_identity():
    part = whole(*toy_batch(LINEAR))
    theta0 = LINEAR.init_model(derive_rng(1, "m"))
    out = local_train(theta0, LINEAR, part, TrainerConfig(local_steps=0), derive_rng(2))
    assert np.array_equal(out.values, theta0.values)
    assert out.age == theta0.age
    out2 = local_train(theta0, LINEAR, part, TrainerConfig(eta=0.0, local_steps=5), derive_rng(2))
    assert np.array_equal(out2.values, theta0.values)
    assert out2.age == theta0.age + 5


def test_local_train_does_not_mutate_input():
    part = whole(*toy_batch(LINEAR))
    theta0 = LINEAR.init_model(derive_rng(1, "m"))
    before = theta0.values.copy()
    local_train(theta0, LINEAR, part, TrainerConfig(), derive_rng(5))
    assert np.array_equal(theta0.values, before)


def test_local_train_rejects_empty_shard_and_divergence():
    with pytest.raises(ValueError, match="empty shard"):
        local_train(
            ModelParameters(np.zeros(2)),
            SQUARED,
            whole(np.zeros((0, 2)), np.zeros(0)),
            TrainerConfig(),
            derive_rng(0),
        )
    part = whole(np.array([[10.0, 10.0]]), np.array([1.0]))
    with pytest.raises(ValueError, match="divergence"), np.errstate(all="ignore"):
        local_train(
            ModelParameters(np.zeros(2)),
            SQUARED,
            part,
            TrainerConfig(eta=1e9, batch_size=1, local_steps=50),
            derive_rng(0),
        )


def bits(a):
    """The raw 64-bit patterns, so -0.0 and +0.0 compare unequal."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def training_inputs(family, shard, scale, zero_share, seed):
    """A 3-input spec, a parameter vector with a share of -0.0 entries (a
    large scale saturates the mlp's tanh units) and a shard whose inputs and
    squared-family targets hold zeros too."""
    spec = ModelSpec(family, d_in=3, classes=3, hidden=4)
    rng = np.random.default_rng(seed)
    theta = rng.normal(0.0, scale, spec.dim)
    theta[rng.random(spec.dim) < zero_share] = -0.0
    X = rng.normal(size=(shard, 3))
    X[rng.random(X.shape) < zero_share / 2] = 0.0
    if family == "squared":
        y = np.where(rng.random(shard) < zero_share, 0.0, rng.normal(size=shard))
    else:
        y = rng.integers(0, 3, shard)
    return spec, theta, X, y


training_cases = dict(
    family=st.sampled_from(["linear", "mlp", "squared"]),
    shard=st.integers(1, 12),
    scale=st.sampled_from([0.0, 0.1, 1.0, 40.0]),
    zero_share=st.sampled_from([0.0, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)


@given(**training_cases)
@example(family="mlp", shard=1, scale=40.0, zero_share=0.5, seed=3)
@settings(max_examples=150, deadline=None)
def test_grad_and_loss_grad_match_the_reference(family, shard, scale, zero_share, seed):
    spec, theta, X, y = training_inputs(family, shard, scale, zero_share, seed)
    with np.errstate(all="ignore"):
        _, want = loss_grad_reference(spec, theta, X, y)
        grad = spec.grad(theta, X, y)
    assert np.array_equal(bits(grad), bits(want))


@given(
    momentum=st.sampled_from([0.0, 0.9]),
    eta=st.sampled_from([0.0, 0.05, 0.5]),
    batch_size=st.integers(1, 8),
    local_steps=st.integers(0, 4),
    **training_cases,
)
@example(momentum=0.0, eta=0.05, batch_size=1, local_steps=3,
         family="mlp", shard=1, scale=40.0, zero_share=0.5, seed=3)
@settings(max_examples=200, deadline=None)
def test_local_train_matches_the_reference_bit_for_bit(
    momentum, eta, batch_size, local_steps, family, shard, scale, zero_share, seed
):
    spec, theta, X, y = training_inputs(family, shard, scale, zero_share, seed)
    # local_train reads the shard through its row indices, among rows of
    # NaN that it must never touch; the reference reads a copy of the rows.
    rows = np.sort(np.random.default_rng(seed).choice(shard + 3, shard, replace=False))
    X_split = np.full((shard + 3, X.shape[1]), np.nan)
    y_split = np.zeros(shard + 3, dtype=y.dtype)
    X_split[rows], y_split[rows] = X, y
    cfg = TrainerConfig(eta=eta, momentum=momentum, batch_size=batch_size, local_steps=local_steps)
    model = ModelParameters(theta, age=2)
    outcomes = []
    for train, part in (
        (local_train, DataPartition(X_split, y_split, rows)),
        (local_train_reference, whole(X, y)),
    ):
        with np.errstate(all="ignore"):
            try:
                outcomes.append(train(model, spec, part, cfg, derive_rng(seed, "sgd")))
            except ValueError as exc:
                outcomes.append(str(exc))
    got, want = outcomes
    if isinstance(want, str):
        assert got == want
    else:
        assert np.array_equal(bits(got.values), bits(want.values))
        assert np.array_equal(np.signbit(got.values), np.signbit(want.values))
        assert got.age == want.age == 2 + local_steps


@given(
    family=st.sampled_from(["linear", "mlp", "squared"]),
    momentum=st.sampled_from([0.0, 0.9]),
    shards=st.lists(st.integers(1, 12), min_size=1, max_size=2 * learning._TRAIN_CHUNK + 3),
    batch_size=st.integers(1, 8),
    local_steps=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
@example(family="linear", momentum=0.9, shards=[2, 12] * learning._TRAIN_CHUNK + [5],
         batch_size=4, local_steps=3, seed=1)
@settings(max_examples=80, deadline=None)
def test_local_train_many_matches_the_reference_model_by_model(
    family, momentum, shards, batch_size, local_steps, seed
):
    # Every shard indexes one dataset, as the shards of a partition do; the
    # reference trains each model alone on a copy of its rows.
    spec = ModelSpec(family, d_in=3, classes=3, hidden=4)
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(15, 3))
    y = rng.normal(size=15) if family == "squared" else rng.integers(0, 3, 15)
    parts = [DataPartition(X, y, np.sort(rng.choice(15, m, replace=False))) for m in shards]
    models = [ModelParameters(rng.normal(0.0, 1.0, spec.dim), age=i) for i in range(len(shards))]
    thetas = np.stack([model.values for model in models])
    thetas.flags.writeable = False
    cfg = TrainerConfig(eta=0.05, momentum=momentum, batch_size=batch_size, local_steps=local_steps)
    rngs = [derive_rng(seed, "sgd", i) for i in range(len(shards))]
    trained = local_train_many(thetas, spec, parts, cfg, rngs)
    assert trained.shape == thetas.shape
    for i, (model, part, got) in enumerate(zip(models, parts, trained)):
        want = local_train_reference(model, spec, whole(X[part.rows], y[part.rows]), cfg, derive_rng(seed, "sgd", i))
        assert np.array_equal(bits(got), bits(want.values))
        assert np.array_equal(bits(thetas[i]), bits(model.values))  # the input stack is left alone
    alone = local_train(models[0], spec, parts[0], cfg, derive_rng(seed, "sgd", 0))
    assert np.array_equal(bits(alone.values), bits(trained[0]))


def test_training_reduces_loss_on_separable_data():
    ds = synth_dataset(seed=5, n_samples=400, d_in=6, classes=3, class_sep=3.0)
    part = DataPartition(ds.X, ds.y, ds.train)
    X_train, y_train = ds.X[ds.train], ds.y[ds.train]
    theta0 = LINEAR_DS.init_model(derive_rng(0, "init"))
    l0, _ = loss_grad_reference(LINEAR_DS, theta0.values, X_train, y_train)
    out = local_train(theta0, LINEAR_DS, part, TrainerConfig(eta=0.2, local_steps=60, batch_size=64), derive_rng(3))
    l1, _ = loss_grad_reference(LINEAR_DS, out.values, X_train, y_train)
    assert l1 < 0.5 * l0
    assert evaluate_many([out.values], LINEAR_DS, EvalSplit(ds.X, ds.y, ds.test))[0] > 0.85


LINEAR_DS = ModelSpec("linear", d_in=6, classes=3)


# ----------------------------------------------------------------- dataset --


def test_synth_dataset_shapes_and_split():
    ds = synth_dataset(seed=1, n_samples=500, d_in=8, classes=4)
    assert ds.X.shape == (500, 8)
    assert ds.train.size == 400 and ds.test.size == 100
    # The split is a permutation of the rows: disjoint, and covering them.
    assert np.array_equal(np.sort(np.concatenate([ds.train, ds.test])), np.arange(500))
    assert set(np.unique(ds.y)) <= set(range(4))
    assert ds.y.dtype == np.int64


def test_synth_dataset_deterministic_per_seed():
    a = synth_dataset(seed=2, n_samples=200, d_in=3, classes=2)
    b = synth_dataset(seed=2, n_samples=200, d_in=3, classes=2)
    c = synth_dataset(seed=3, n_samples=200, d_in=3, classes=2)
    for field in ("X", "y", "train", "test"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    assert not np.array_equal(a.X, c.X)


def test_synth_dataset_noise_flips_labels_only():
    clean = synth_dataset(seed=4, n_samples=2000, d_in=3, classes=4, noise=0.0)
    noisy = synth_dataset(seed=4, n_samples=2000, d_in=3, classes=4, noise=0.3)
    # Noise must not move any feature or change the split.
    assert np.array_equal(clean.X, noisy.X)
    assert np.array_equal(clean.train, noisy.train)
    assert np.array_equal(clean.test, noisy.test)
    frac = np.mean(clean.y != noisy.y)
    assert 0.25 < frac < 0.35


BLOCK = learning._BLOCK_ROWS


@given(
    seed=st.integers(0, 2**32 - 1),
    classes=st.integers(2, 6),
    d_in=st.integers(1, 9),
    extra=st.sampled_from([0, BLOCK - 60, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 17])
    | st.integers(0, 4 * BLOCK),
    noise=st.sampled_from([0.0, 0.5]) | st.floats(0.0, 0.99),
    class_sep=st.floats(0.0, 5.0),
)
@settings(max_examples=100, deadline=None)
def test_synth_dataset_equals_the_materialised_reference(seed, classes, d_in, extra, noise, class_sep):
    # The rows read through the split are the copies the reference makes,
    # byte for byte. Sizes cross the block boundaries of the in-place sum.
    n = 10 * classes + extra
    ds = synth_dataset(seed, n, d_in, classes, noise, class_sep)
    got = (ds.X[ds.train], ds.y[ds.train], ds.X[ds.test], ds.y[ds.test])
    for a, b in zip(got, synth_dataset_reference(seed, n, d_in, classes, noise, class_sep)):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    assert ds.classes == classes


def test_synth_dataset_validation():
    with pytest.raises(ValueError):
        synth_dataset(seed=0, n_samples=15, d_in=2, classes=2)
    with pytest.raises(ValueError):
        synth_dataset(seed=0, n_samples=100, d_in=2, classes=1)
    with pytest.raises(ValueError):
        synth_dataset(seed=0, n_samples=100, d_in=2, classes=2, noise=1.0)


# --------------------------------------------------------------- partition --


def ds_for_partition():
    return synth_dataset(seed=9, n_samples=1000, d_in=4, classes=5)


def _assert_exact_cover(ds, shards):
    # Every train row lies in exactly one shard, and the rows read through
    # the shards' indices are the train split's, row for row.
    rows = np.concatenate([s.rows for s in shards])
    train = np.sort(ds.train)
    assert np.array_equal(np.sort(rows), train)
    order = np.argsort(rows)
    assert np.array_equal(np.concatenate([s.X[s.rows] for s in shards])[order], ds.X[train])
    assert np.array_equal(np.concatenate([s.y[s.rows] for s in shards])[order], ds.y[train])


@pytest.mark.parametrize(
    "scheme",
    [
        PartitionScheme("iid"),
        PartitionScheme("dirichlet", alpha=0.5),
        PartitionScheme("label_shards", shards_per_node=2),
    ],
    ids=lambda s: s.kind,
)
def test_partition_covers_without_overlap(scheme):
    ds = ds_for_partition()
    shards = partition(ds, 10, scheme, seed=3)
    assert len(shards) == 10
    assert all(len(s) > 0 for s in shards)
    _assert_exact_cover(ds, shards)


def test_partition_is_deterministic():
    ds = ds_for_partition()
    a = partition(ds, 7, PartitionScheme("dirichlet", alpha=0.3), seed=5)
    b = partition(ds, 7, PartitionScheme("dirichlet", alpha=0.3), seed=5)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.rows, sb.rows)
        assert np.array_equal(sa.X[sa.rows], sb.X[sb.rows])
        assert np.array_equal(sa.y[sa.rows], sb.y[sb.rows])


def test_iid_shards_are_balanced():
    ds = ds_for_partition()
    shards = partition(ds, 8, PartitionScheme("iid"), seed=0)
    sizes = [len(s) for s in shards]
    assert max(sizes) - min(sizes) <= 1


def test_label_shards_concentrate_classes():
    ds = ds_for_partition()
    shards = partition(ds, 10, PartitionScheme("label_shards", shards_per_node=2), seed=1)
    # With 2 shards of a label-sorted deal, most nodes see few classes.
    n_classes = [len(np.unique(s.y[s.rows])) for s in shards]
    assert np.median(n_classes) <= 3


def test_dirichlet_skew_grows_as_alpha_shrinks():
    ds = ds_for_partition()

    def skew(alpha):
        shards = partition(ds, 10, PartitionScheme("dirichlet", alpha=alpha), seed=2)
        props = []
        for s in shards:
            counts = np.bincount(s.y[s.rows], minlength=ds.classes) / len(s)
            props.append(counts.max())
        return float(np.mean(props))

    assert skew(0.1) > skew(100.0) + 0.1


def test_partition_validation():
    ds = ds_for_partition()
    with pytest.raises(ValueError):
        partition(ds, 0, PartitionScheme("iid"), seed=0)
    with pytest.raises(ValueError):
        partition(ds, 10**6, PartitionScheme("iid"), seed=0)
    with pytest.raises(ValueError):
        PartitionScheme("dirichlet", alpha=0.0)
    with pytest.raises(ValueError):
        PartitionScheme("nope")


# ---------------------------------------------------------------- evaluate --


def test_evaluate_counts_top1():
    spec = ModelSpec("linear", d_in=2, classes=2)
    # Weights that classify by sign of x0.
    theta = np.array([1.0, 0.0, -1.0, 0.0, 0.0, 0.0])
    X = np.array([[2.0, 0.0], [-2.0, 0.0], [3.0, 1.0], [-1.0, 5.0]])
    y = np.array([0, 1, 0, 0])  # last one is wrong on purpose
    acc = evaluate_many([theta], spec, split_of(X, y))[0]
    assert acc == pytest.approx(0.75)
    with pytest.raises(ValueError, match="empty test set"):
        evaluate_many([theta], spec, split_of(X[:0], y[:0]))


def with_tied_classes(spec, theta, src, dst, ulps=0, shift=0.0):
    """Copy class ``src``'s output weights and bias onto class ``dst``, so
    the two classes' logits tie on every row; ``ulps`` then moves the bias of
    ``dst`` that many steps away, which leaves a near tie that rounding may
    turn either way. ``shift`` moves it by that share of its size (at least
    1) instead, a near tie that float32 cannot decide but float64 can."""
    c, d, h = spec.classes, spec.d_in, spec.hidden
    width, start = (d, 0) if spec.family == "linear" else (h, h * d + h)
    rows = theta[start : start + c * width].reshape(c, width)
    bias = theta[start + c * width : start + c * width + c]
    rows[dst] = rows[src]
    bias[dst] = bias[src]
    for _ in range(abs(ulps)):
        bias[dst] = np.nextafter(bias[dst], np.inf if ulps > 0 else -np.inf)
    bias[dst] += shift * max(1.0, abs(bias[dst]))
    return theta


def block_models(spec):
    return learning._EVAL_COLS // spec.classes


@given(
    family=st.sampled_from(["linear", "mlp"]),
    d_in=st.integers(1, 40),
    classes=st.integers(2, 5),
    hidden=st.integers(1, 6),
    n_models=st.sampled_from(["none", "one", "block-1", "block", "block+1", "blocks"]),
    rows=st.sampled_from([1, 2, learning._EVAL_ROWS - 1, learning._EVAL_ROWS,
                          learning._EVAL_ROWS + 1, 2 * learning._EVAL_ROWS + 1])
    | st.integers(1, 3 * learning._EVAL_ROWS),
    ties=st.sampled_from(["none", "duplicate", "near", "f32-near", "zero"]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_evaluate_many_equals_the_per_model_loop(
    family, d_in, classes, hidden, n_models, rows, ties, seed
):
    spec = ModelSpec(family, d_in=d_in, classes=classes, hidden=hidden)
    per = block_models(spec)
    count = {"none": 0, "one": 1, "block-1": max(per - 1, 1), "block": per,
             "block+1": per + 1, "blocks": 2 * per + 3}[n_models]
    rng = np.random.default_rng(seed)
    # The split is a scattered subset of the rows of a larger set.
    total = rows + int(rng.integers(0, rows + 1))
    X = rng.normal(size=(total, d_in))
    X[rng.random(total) < 0.1] = 0.0
    y = rng.integers(0, classes, total)
    test = rng.permutation(total)[:rows]
    thetas = rng.normal(size=(count, spec.dim))
    for theta in thetas[::2]:
        if ties in ("duplicate", "near", "f32-near"):
            src, dst = rng.choice(classes, size=2, replace=False)
            ulps = int(rng.integers(-3, 4)) if ties == "near" else 0
            shift = rng.choice([-1e-6, 1e-6]) if ties == "f32-near" else 0.0
            with_tied_classes(spec, theta, src, dst, ulps, shift)
        elif ties == "zero":
            theta[:] = 0.0
    with mock.patch.object(learning, "_count_correct", wraps=learning._count_correct) as solo:
        accs = evaluate_many(thetas, spec, EvalSplit(X, y, test))
    assert accs == evaluate_reference(thetas, spec, X[test], y[test])
    if family == "linear" and ties == "f32-near":
        # The float64 recheck settles every pair: no model is scored alone.
        assert solo.call_count == 0


def count_solo_scores(monkeypatch):
    calls = []
    solo = ModelSpec.logits

    def counting(self, theta, X):
        calls.append(theta.shape)
        return solo(self, theta, X)

    monkeypatch.setattr(ModelSpec, "logits", counting)
    return calls


def count_rechecks(monkeypatch):
    """Per float32 tile, the pairs it leaves to the float64 recheck."""
    rechecked = []
    certify = learning._certify

    def counting(z, *args):
        correct, unsure = certify(z, *args)
        if z.dtype == np.float32:
            rechecked.append(int(np.count_nonzero(unsure)))
        return correct, unsure

    monkeypatch.setattr(learning, "_certify", counting)
    return rechecked


def test_evaluate_many_breaks_ties_at_the_first_class(monkeypatch):
    spec = ModelSpec("linear", d_in=2, classes=4)
    X = np.array([[1.0, 0.0], [2.0, 1.0], [3.0, -1.0], [0.5, 0.5], [1.0, 2.0]])
    y = np.array([0, 1, 2, 3, 2])
    zero = np.zeros(spec.dim)
    # Classes 3 and 2 lead together on every row with x0 > 0: class 2 wins.
    lead = np.zeros(spec.dim)
    lead[3 * 2] = 5.0
    lead = with_tied_classes(spec, lead, 3, 2)
    plain = np.random.default_rng(0).normal(size=spec.dim)
    calls = count_solo_scores(monkeypatch)
    accs = evaluate_many([zero, plain, lead], spec, split_of(X, y))
    assert accs[0] == 1 / 5 and accs[2] == 2 / 5
    assert accs == evaluate_reference([zero, plain, lead], spec, X, y)
    assert len(calls) == 2  # only the two tied models were rescored alone


def test_evaluate_many_scores_desk_shaped_models_in_blocks(monkeypatch):
    # The desk world's shapes: no row is near a tie, so no model is
    # rescored alone, at most 0.1 % of the pairs need the float64 recheck,
    # and every accuracy equals the per-model loop's.
    ds = synth_dataset(seed=1, n_samples=2000, d_in=256, classes=10, class_sep=0.185)
    spec = ModelSpec("linear", d_in=256, classes=10)
    part = DataPartition(ds.X, ds.y, ds.train)
    models = [
        local_train(spec.init_model(derive_rng(i, "init")), spec, part, TrainerConfig(), derive_rng(i)).values
        for i in range(block_models(spec) + 5)
    ]
    calls = count_solo_scores(monkeypatch)
    rechecked = count_rechecks(monkeypatch)
    accs = evaluate_many(models, spec, EvalSplit(ds.X, ds.y, ds.test))
    assert calls == []
    assert sum(rechecked) <= 0.001 * len(models) * ds.test.size
    assert accs == evaluate_reference(models, spec, ds.X[ds.test], ds.y[ds.test])


def test_evaluate_many_rechecks_a_prediction_that_float32_rounding_flips(monkeypatch):
    # Exactly, class 0 leads class 1 by about 0.09 float32 ulps at 1.0.
    # Rounding the inputs to float32 turns x_0 down to 1 and x_1 up to
    # 1 + ulp, so in float32 class 1 leads by a whole ulp, in any summation
    # order: the float32 pass must leave the pair to the float64 recheck,
    # which sees class 0 win.
    ulp = 2.0**-23
    spec = ModelSpec("linear", d_in=2, classes=2)
    theta = np.array([1.0, 0.0, 0.0, 1.0 - 13 / 128 * ulp, 0.0, 0.0])
    X, y = np.array([[1.0 + 63 / 128 * ulp, 1.0 + 65 / 128 * ulp]]), np.array([0])
    z32 = X.astype(np.float32) @ theta[:4].reshape(2, 2).T.astype(np.float32)
    assert z32[0, 1] > z32[0, 0]
    calls = count_solo_scores(monkeypatch)
    rechecked = count_rechecks(monkeypatch)
    assert evaluate_many([theta], spec, split_of(X, y)) == [1.0]
    assert rechecked == [1] and calls == []


def spread_values(rng, shape, scale, spread):
    """Signed values with exponents within ``spread`` of ``scale``, clipped
    to float32's range from below its subnormals to its overflow, a tenth of
    them zero."""
    exponents = np.clip(scale + rng.integers(-spread, spread + 1, shape), -151, 127)
    values = np.ldexp(rng.uniform(1.0, 2.0, shape), exponents) * rng.choice([-1.0, 1.0], shape)
    values[rng.random(shape) < 0.1] = 0.0
    return values


@given(
    d_in=st.integers(1, 40),
    classes=st.integers(2, 4),
    rows=st.integers(1, 6),
    scales=st.tuples(*[st.integers(-151, 127)] * 3),
    spread=st.integers(0, 40),
    seed=st.integers(0, 2**32 - 1),
)
# Subnormal float32 inputs next to unit weights and a bias that rounds to 0;
# products that overflow float32.
@example(d_in=3, classes=2, rows=2, scales=(-140, 0, -151), spread=0, seed=1)
@example(d_in=3, classes=2, rows=2, scales=(100, 40, 0), spread=0, seed=1)
@settings(max_examples=200, deadline=None)
def test_float32_logits_lie_within_the_certified_bound(d_in, classes, rows, scales, spread, seed):
    # The float32 logits that evaluate_many computes lie within e32 of the
    # exact logits; a row with a non-finite logit is left undecided.
    spec = ModelSpec("linear", d_in=d_in, classes=classes)
    rng = np.random.default_rng(seed)
    X = spread_values(rng, (rows, d_in), scales[0], spread)
    y = rng.integers(0, classes, rows)
    thetas = np.stack([
        np.concatenate([spread_values(rng, classes * d_in, scales[1], spread),
                        spread_values(rng, classes, scales[2], spread)])
        for _ in range(2)
    ])
    tiles = []
    certify = learning._certify

    def spy(z, *args):
        logits = z.copy()
        correct, unsure = certify(z, *args)
        if z.dtype == np.float32:
            tiles.append((logits, unsure))
        return correct, unsure

    split = split_of(X, y)
    with mock.patch.object(learning, "_certify", spy), np.errstate(all="ignore"):
        accs = evaluate_many(list(thetas), spec, split)
        assert accs == evaluate_reference(thetas, spec, X, y)
    [(z32, unsure)] = tiles
    W, b = spec._unpack_linear(thetas)
    w = np.sqrt(np.einsum("mcd,mcd->mc", W, W)).max(axis=1)
    slope, offset = learning._float32_logit_error_bound(w, np.abs(b).max(axis=1), d_in)
    # The tile holds the rows in label order.
    X = X[split.order]
    norms = np.sqrt(np.einsum("ij,ij->i", X, X))
    for m in range(len(thetas)):
        for i in range(rows):
            if not np.all(np.isfinite(z32[:, m, i])):
                assert unsure[m, i]
                continue
            e32 = Fraction(float(slope[m] * norms[i] + offset[m]))
            for j in range(classes):
                exact = sum(Fraction(wk) * Fraction(xk) for wk, xk in zip(W[m, j], X[i])) + Fraction(b[m, j])
                assert abs(Fraction(float(z32[j, m, i])) - exact) <= e32


def test_evaluate_many_scores_mlp_models_alone(monkeypatch):
    X, y = toy_batch(MLP)
    models = [MLP.init_model(derive_rng(i)).values for i in range(3)]
    calls = count_solo_scores(monkeypatch)
    assert evaluate_many(models, MLP, split_of(X, y)) == evaluate_reference(models, MLP, X, y)
    assert len(calls) == 3


def test_evaluate_many_rejects_squared_and_empty_test_sets():
    X, y = toy_batch(LINEAR)
    model = LINEAR.init_model(derive_rng(0)).values
    for models in ([], [model]):
        with pytest.raises(ValueError, match="no class logits"):
            evaluate_many(models, SQUARED, split_of(X[:, :2], y))
        with pytest.raises(ValueError, match="empty test set"):
            evaluate_many(models, LINEAR, split_of(X[:0], y[:0]))
    with pytest.raises(ValueError, match="no class logits"):
        evaluate_many([np.zeros(2)], SQUARED, split_of(X[:, :2], y))


@pytest.mark.parametrize("label", [-1, LINEAR.classes])
def test_evaluate_many_rejects_labels_outside_the_classes(label):
    # A label no class index can match would otherwise be read as a class.
    X, y = toy_batch(LINEAR)
    y[3] = label
    with pytest.raises(ValueError, match="labels"):
        evaluate_many([LINEAR.init_model(derive_rng(0)).values], LINEAR, split_of(X, y))
