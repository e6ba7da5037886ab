"""Learning substrate: synthetic classification tasks, data partitioning,
local SGD, and evaluation.

The default model is multinomial logistic regression on a flat parameter
vector; a one-hidden-layer tanh MLP is available behind the same interface.
Parameter vectors live in ``ModelParameters`` so the protocol layer never
needs to know the model family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ModelParameters, derive_rng

_MAX_PARTITION_RETRIES = 100


# ----------------------------------------------------------------- model --


@dataclass(frozen=True)
class ModelSpec:
    """Shape of the learned model. ``family`` is ``linear`` (softmax
    regression), ``mlp`` (one tanh hidden layer), or ``squared`` (least
    squares, used by test harnesses for hand-checkable gradients)."""

    family: str
    d_in: int
    classes: int
    hidden: int = 32

    def __post_init__(self) -> None:
        if self.family not in ("linear", "mlp", "squared"):
            raise ValueError(f"unknown model family {self.family!r}")
        if self.d_in < 1:
            raise ValueError("d_in must be >= 1")
        if self.family != "squared" and self.classes < 2:
            raise ValueError("classifiers need at least 2 classes")
        if self.family == "mlp" and self.hidden < 1:
            raise ValueError("mlp needs a positive hidden width")

    @property
    def dim(self) -> int:
        if self.family == "linear":
            return self.classes * self.d_in + self.classes
        if self.family == "mlp":
            return (
                self.hidden * self.d_in
                + self.hidden
                + self.classes * self.hidden
                + self.classes
            )
        return self.d_in  # squared: one weight per input, no bias

    def init_model(self, rng: np.random.Generator) -> ModelParameters:
        if self.family == "linear":
            w = rng.normal(0.0, 0.01, self.classes * self.d_in)
            b = np.zeros(self.classes)
            return ModelParameters(np.concatenate([w, b]), age=0)
        if self.family == "mlp":
            w1 = rng.normal(0.0, 1.0 / math.sqrt(self.d_in), self.hidden * self.d_in)
            b1 = np.zeros(self.hidden)
            w2 = rng.normal(0.0, 1.0 / math.sqrt(self.hidden), self.classes * self.hidden)
            b2 = np.zeros(self.classes)
            return ModelParameters(np.concatenate([w1, b1, w2, b2]), age=0)
        return ModelParameters(np.zeros(self.d_in), age=0)

    def _unpack_linear(self, theta: np.ndarray):
        """W and b of one parameter vector, or of a (models, dim) stack."""
        c, d = self.classes, self.d_in
        lead = theta.shape[:-1]
        W = theta[..., : c * d].reshape(*lead, c, d)
        b = theta[..., c * d:]
        return W, b

    def _unpack_mlp(self, theta: np.ndarray):
        h, d, c = self.hidden, self.d_in, self.classes
        o = 0
        W1 = theta[o : o + h * d].reshape(h, d); o += h * d
        b1 = theta[o : o + h]; o += h
        W2 = theta[o : o + c * h].reshape(c, h); o += c * h
        b2 = theta[o : o + c]
        return W1, b1, W2, b2

    def logits(self, theta: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Class logits of one parameter vector on the rows of X."""
        if self.family == "linear":
            W, b = self._unpack_linear(theta)
            return X @ W.T + b
        if self.family == "mlp":
            W1, b1, W2, b2 = self._unpack_mlp(theta)
            hidden = np.tanh(X @ W1.T + b1)
            return hidden @ W2.T + b2
        raise ValueError("squared family has no class logits")

    def grad(self, theta: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Gradient of the mean batch loss, as a flat vector: cross-entropy
        for classifiers, 0.5*(Xw - y)^2 for squared."""
        m = X.shape[0]
        if self.family == "squared":
            return X.T @ (X @ theta - y) / m
        if self.family == "linear":
            delta = _softmax(self.logits(theta, X))
            delta[np.arange(m), y] -= 1.0
            delta /= m
            return np.concatenate([(delta.T @ X).ravel(), delta.sum(axis=0)])
        W1, b1, W2, b2 = self._unpack_mlp(theta)
        h = np.tanh(X @ W1.T + b1)
        delta = _softmax(h @ W2.T + b2)
        delta[np.arange(m), y] -= 1.0
        delta /= m
        dh = (delta @ W2) * (1.0 - h**2)
        return np.concatenate([(dh.T @ X).ravel(), dh.sum(axis=0), (delta.T @ h).ravel(), delta.sum(axis=0)])


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


# --------------------------------------------------------------- dataset --


@dataclass(frozen=True)
class Dataset:
    X_train: np.ndarray
    y_train: np.ndarray
    X_test: np.ndarray
    y_test: np.ndarray
    classes: int


def synth_dataset(
    seed: int,
    n_samples: int,
    d_in: int,
    classes: int,
    noise: float = 0.0,
    class_sep: float = 2.0,
) -> Dataset:
    """Gaussian class-conditional clusters with seeded means, optional
    label-flip noise, and a fixed 80/20 train/test split."""
    if classes < 2:
        raise ValueError("need at least 2 classes")
    if n_samples < 10 * classes:
        raise ValueError(f"need at least {10 * classes} samples for {classes} classes")
    if not (0.0 <= noise < 1.0):
        raise ValueError("noise must be in [0, 1)")
    rng = derive_rng(seed, "dataset")
    means = rng.normal(0.0, class_sep, size=(classes, d_in))
    y = rng.integers(0, classes, size=n_samples)
    X = means[y] + rng.standard_normal((n_samples, d_in))
    # Both draws happen even at noise=0 so the rng stream, and with it the
    # train/test split below, depends only on the seed: noise changes labels
    # and nothing else.
    flip = rng.random(n_samples) < noise
    bump = rng.integers(1, classes, size=n_samples)
    y = np.where(flip, (y + bump) % classes, y)
    n_test = max(1, int(round(0.2 * n_samples)))
    perm = rng.permutation(n_samples)
    test_idx, train_idx = perm[:n_test], perm[n_test:]
    return Dataset(
        X_train=X[train_idx],
        y_train=y[train_idx].astype(np.int64),
        X_test=X[test_idx],
        y_test=y[test_idx].astype(np.int64),
        classes=classes,
    )


# ------------------------------------------------------------- partition --


@dataclass(frozen=True)
class DataPartition:
    X: np.ndarray
    y: np.ndarray

    def __len__(self) -> int:
        return int(self.y.size)


@dataclass(frozen=True)
class PartitionScheme:
    kind: str  # iid | dirichlet | label_shards
    alpha: float = 0.5
    shards_per_node: int = 2

    def __post_init__(self) -> None:
        if self.kind not in ("iid", "dirichlet", "label_shards"):
            raise ValueError(f"unknown partition kind {self.kind!r}")
        if self.kind == "dirichlet" and self.alpha <= 0:
            raise ValueError("dirichlet alpha must be positive")
        if self.kind == "label_shards" and self.shards_per_node < 1:
            raise ValueError("shards_per_node must be >= 1")


def partition(
    dataset: Dataset, n_nodes: int, scheme: PartitionScheme, seed: int
) -> list[DataPartition]:
    """Split the train set into one shard per node. Every node ends up with
    at least one sample; draws that would leave a node empty are re-dealt a
    bounded number of times before erroring out."""
    if n_nodes < 1:
        raise ValueError("need at least one node")
    N = dataset.y_train.size
    if N < n_nodes:
        raise ValueError(f"cannot split {N} samples over {n_nodes} nodes")
    rng = derive_rng(seed, "partition", scheme.kind)
    if scheme.kind == "iid":
        index_lists = _split_iid(N, n_nodes, rng)
    elif scheme.kind == "dirichlet":
        index_lists = _split_dirichlet(dataset, n_nodes, scheme.alpha, rng)
    else:
        index_lists = _split_label_shards(dataset, n_nodes, scheme.shards_per_node, rng)
    return [
        DataPartition(dataset.X_train[idx], dataset.y_train[idx])
        for idx in index_lists
    ]


def _split_iid(N: int, n_nodes: int, rng: np.random.Generator) -> list[np.ndarray]:
    perm = rng.permutation(N)
    return [np.sort(chunk) for chunk in np.array_split(perm, n_nodes)]


def _split_dirichlet(
    dataset: Dataset, n_nodes: int, alpha: float, rng: np.random.Generator
) -> list[np.ndarray]:
    by_class = [np.flatnonzero(dataset.y_train == c) for c in range(dataset.classes)]
    for _ in range(_MAX_PARTITION_RETRIES):
        buckets: list[list[np.ndarray]] = [[] for _ in range(n_nodes)]
        for idx_c in by_class:
            if idx_c.size == 0:
                continue
            shuffled = rng.permutation(idx_c)
            props = rng.dirichlet([alpha] * n_nodes)
            cuts = (np.cumsum(props)[:-1] * idx_c.size).astype(int)
            for node, chunk in enumerate(np.split(shuffled, cuts)):
                buckets[node].append(chunk)
        shards = [np.sort(np.concatenate(b)) if b else np.array([], dtype=int) for b in buckets]
        if all(s.size > 0 for s in shards):
            return shards
    raise ValueError(
        f"dirichlet partition left a node empty after {_MAX_PARTITION_RETRIES} re-deals; "
        "increase alpha or the dataset size"
    )


def _split_label_shards(
    dataset: Dataset, n_nodes: int, shards_per_node: int, rng: np.random.Generator
) -> list[np.ndarray]:
    N = dataset.y_train.size
    n_shards = n_nodes * shards_per_node
    if N < n_shards:
        raise ValueError(f"cannot cut {N} samples into {n_shards} shards")
    by_label = np.argsort(dataset.y_train, kind="stable")
    shards = np.array_split(by_label, n_shards)
    order = rng.permutation(n_shards)
    out = []
    for node in range(n_nodes):
        picks = order[node * shards_per_node : (node + 1) * shards_per_node]
        out.append(np.sort(np.concatenate([shards[p] for p in picks])))
    if any(s.size == 0 for s in out):
        raise ValueError("label shard deal produced an empty shard")
    return out


# ---------------------------------------------------------------- training --


@dataclass(frozen=True)
class TrainerConfig:
    eta: float = 0.05
    momentum: float = 0.0
    batch_size: int = 20
    local_steps: int = 5

    def __post_init__(self) -> None:
        # eta == 0 is permitted: it turns training into a no-op, which the
        # invariance tests rely on.
        if self.eta < 0 or not np.isfinite(self.eta):
            raise ValueError("eta must be >= 0 and finite")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError("momentum must be in [0, 1)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.local_steps < 0:
            raise ValueError("local_steps must be >= 0")


def local_train(
    model: ModelParameters,
    spec: ModelSpec,
    part: DataPartition,
    cfg: TrainerConfig,
    rng: np.random.Generator,
) -> ModelParameters:
    """Run ``local_steps`` minibatch SGD steps and return a new model with
    age advanced by the step count. The input model is never modified and
    the momentum buffer starts at zero on every invocation."""
    if len(part) == 0:
        raise ValueError("cannot train on an empty shard")
    theta = model.values.copy()
    velocity = np.zeros_like(theta)
    m = len(part)
    for _ in range(cfg.local_steps):
        if m >= cfg.batch_size:
            idx = rng.choice(m, size=cfg.batch_size, replace=False)
        else:
            idx = rng.integers(0, m, size=cfg.batch_size)
        velocity = cfg.momentum * velocity + spec.grad(theta, part.X[idx], part.y[idx])
        theta = theta - cfg.eta * velocity
    if not np.all(np.isfinite(theta)):
        raise ValueError("divergence: reduce eta")
    return ModelParameters(theta, age=model.age + cfg.local_steps)


def evaluate(model: ModelParameters, spec: ModelSpec, X: np.ndarray, y: np.ndarray) -> float:
    """Top-1 accuracy on the given split."""
    return evaluate_many([model], spec, X, y)[0]


# Evaluation tiles: one GEMM multiplies the stacked weight rows of as many
# linear models as fit in _EVAL_COLS by at most _EVAL_ROWS test rows. On the
# desk shapes (256 inputs, 10 classes) a block's weights, logits and masks
# stay near 1 MB; larger tiles were no faster.
_EVAL_ROWS = 256
_EVAL_COLS = 128


def evaluate_many(
    models: list[ModelParameters], spec: ModelSpec, X: np.ndarray, y: np.ndarray
) -> list[float]:
    """Top-1 accuracy of each model on the given split, equal float for float
    to scoring each model alone with ``logits`` over all of X.

    Linear models are scored in blocks, one GEMM per chunk of test rows. A
    row's prediction is certain when one class leads every other by more
    than twice ``_linear_logit_error_bound``: no summation order can then
    change it. A model with an uncertain row (a near tie or a non-finite
    logit) is rescored alone with ``logits``, so ties break as they always
    did, at the first maximal class. MLP models are always scored alone.
    Correct predictions are counted as integers and divided by the row
    count once."""
    if spec.family == "squared":
        raise ValueError("squared family has no class logits")
    if y.size == 0:
        raise ValueError("empty test set")
    if y.min() < 0 or y.max() >= spec.classes:
        raise ValueError(f"test labels must lie in [0, {spec.classes})")
    if spec.family != "linear":
        return [_count_correct(spec, m.values, X, y) / y.size for m in models]
    c = spec.classes
    per_block = max(1, _EVAL_COLS // c)
    row_norms = np.sqrt(np.einsum("ij,ij->i", X, X))
    accs: list[float] = []
    for first in range(0, len(models), per_block):
        thetas = np.stack([m.values for m in models[first : first + per_block]])
        B = len(thetas)
        W, b = spec._unpack_linear(thetas)
        # Within a bound each, a rival class may gain while the leader loses.
        slope, offset = (2.0 * v for v in _linear_logit_error_bound(W, b))
        # Class-major stacking: row j * B + i holds class j of model i.
        W = W.transpose(1, 0, 2).reshape(c * B, spec.d_in)
        b = b.T.reshape(c * B, 1)
        correct = np.zeros(B, dtype=np.int64)
        unsure = np.zeros(B, dtype=bool)
        for lo in range(0, X.shape[0], _EVAL_ROWS):
            hi = min(lo + _EVAL_ROWS, X.shape[0])
            z = W @ X[lo:hi].T
            z += b
            z = z.reshape(c, B, hi - lo)
            top = z.max(axis=0)
            floor = top - np.outer(slope, row_norms[lo:hi]) - offset[:, None]
            leaders = np.count_nonzero(z >= floor, axis=0)
            hit = z[y[lo:hi], :, np.arange(hi - lo)].T >= floor
            correct += np.count_nonzero(hit & (leaders == 1), axis=1)
            unsure |= np.any((leaders != 1) | ~np.isfinite(top), axis=1)
        for i in np.flatnonzero(unsure):
            correct[i] = _count_correct(spec, thetas[i], X, y)
        accs.extend(int(k) / y.size for k in correct)
    return accs


def _count_correct(spec: ModelSpec, theta: np.ndarray, X: np.ndarray, y: np.ndarray) -> int:
    """Rows of X whose first maximal class under ``logits`` is their label."""
    return int(np.count_nonzero(spec.logits(theta, X).argmax(axis=1) == y))


def _linear_logit_error_bound(W: np.ndarray, b: np.ndarray):
    """Per model of a stack of linear weights W (models, classes, inputs)
    and biases b (models, classes), (slope, offset) such that two
    evaluations of a logit of row x that sum in different orders lie at most
    slope * |x| + offset apart. A length-n dot product plus a bias is off by
    at most gamma_{n+2} = (n+2)u/(1-(n+2)u) times sum |x_k w_k| + |b| <=
    |x| |w| + |b| in any order (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, section 3.1), plus (n+2)u times the least normal
    number for products that underflow; the bound doubles that twice, for
    the two evaluations and for slack."""
    u, least = np.finfo(np.float64).eps / 2, np.finfo(np.float64).tiny
    slack = 4.0 * (W.shape[2] + 2) * u
    w = np.linalg.norm(W, axis=2).max(axis=1)
    return slack * w, slack * (np.abs(b).max(axis=1) + least)
