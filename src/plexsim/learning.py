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
from typing import Sequence

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
            values = np.concatenate([w, np.zeros(self.classes)])
        elif self.family == "mlp":
            w1 = rng.normal(0.0, 1.0 / math.sqrt(self.d_in), self.hidden * self.d_in)
            b1 = np.zeros(self.hidden)
            w2 = rng.normal(0.0, 1.0 / math.sqrt(self.hidden), self.classes * self.hidden)
            values = np.concatenate([w1, b1, w2, np.zeros(self.classes)])
        else:
            values = np.zeros(self.d_in)
        values.flags.writeable = False
        return ModelParameters(values, age=0)

    def _unpack_linear(self, theta: np.ndarray):
        """W and b of one parameter vector, or of a (models, dim) stack."""
        c, d = self.classes, self.d_in
        lead = theta.shape[:-1]
        W = theta[..., : c * d].reshape(*lead, c, d)
        b = theta[..., c * d:]
        return W, b

    def _unpack_mlp(self, theta: np.ndarray):
        """W1, b1, W2 and b2 of one parameter vector, or of a (models, dim)
        stack."""
        h, d, c = self.hidden, self.d_in, self.classes
        lead = theta.shape[:-1]
        o = 0
        W1 = theta[..., o : o + h * d].reshape(*lead, h, d); o += h * d
        b1 = theta[..., o : o + h]; o += h
        W2 = theta[..., o : o + c * h].reshape(*lead, c, h); o += c * h
        b2 = theta[..., o : o + c]
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

    def grad(self, theta: np.ndarray, X: np.ndarray, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Gradient of the mean batch loss, as a flat vector: cross-entropy
        for classifiers, 0.5*(Xw - y)^2 for squared. A (models, dim) stack
        of parameter vectors takes a (models, batch, d_in) stack of batches
        and (models, batch) labels, and each slice gets the products and
        sums a single model gets. The gradient is written to ``out`` when
        given."""
        out = np.empty(theta.shape) if out is None else out
        m = X.shape[-2]
        if self.family == "squared":
            resid = np.matmul(X, theta[..., None])
            resid[..., 0] -= y
            np.matmul(X.mT, resid, out=out[..., None])
            out /= m
            return out
        if self.family == "linear":
            W, b = self._unpack_linear(theta)
            delta = np.matmul(X, W.mT)
            delta += b[..., None, :]
            _softmax_minus_onehot(delta, y)
            gW, gb = self._unpack_linear(out)
            np.matmul(delta.mT, X, out=gW)
            np.add.reduce(delta, axis=-2, out=gb)
            return out
        W1, b1, W2, b2 = self._unpack_mlp(theta)
        h = np.matmul(X, W1.mT)
        h += b1[..., None, :]
        np.tanh(h, out=h)
        delta = np.matmul(h, W2.mT)
        delta += b2[..., None, :]
        _softmax_minus_onehot(delta, y)
        gW1, gb1, gW2, gb2 = self._unpack_mlp(out)
        np.matmul(delta.mT, h, out=gW2)
        np.add.reduce(delta, axis=-2, out=gb2)
        dh = np.matmul(delta, W2)
        dh *= 1.0 - h**2
        np.matmul(dh.mT, X, out=gW1)
        np.add.reduce(dh, axis=-2, out=gb1)
        return out


def _softmax_minus_onehot(z: np.ndarray, y: np.ndarray) -> None:
    """Overwrite the logits z (..., batch, classes) with the gradient of the
    mean cross-entropy with respect to them: the softmax of each row, less
    one at its label y, over the batch size."""
    z -= np.maximum.reduce(z, axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=-1, keepdims=True)
    rows = z.reshape(-1, z.shape[-1])
    rows[np.arange(rows.shape[0]), y.reshape(-1)] -= 1.0
    z /= z.shape[-2]


# --------------------------------------------------------------- dataset --


@dataclass(frozen=True)
class Dataset:
    """Every sample once, in drawing order: features X and labels y. The
    train/test split is two disjoint arrays of row indices that together
    cover every row."""

    X: np.ndarray
    y: np.ndarray
    train: np.ndarray
    test: np.ndarray
    classes: int


# Rows per block when a step walks a float64 matrix in pieces, so that it
# never holds a second full-size copy: the class means added to the drawn
# noise, the float32 copy of a test split.
_BLOCK_ROWS = 256


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
    X = rng.standard_normal((n_samples, d_in))
    # Each row is its class mean plus its noise; float addition commutes, so
    # adding the means into the noise in place gives the same floats.
    for lo in range(0, n_samples, _BLOCK_ROWS):
        X[lo : lo + _BLOCK_ROWS] += means[y[lo : lo + _BLOCK_ROWS]]
    # Both draws happen even at noise=0 so the rng stream, and with it the
    # train/test split below, depends only on the seed: noise changes labels
    # and nothing else.
    flip = rng.random(n_samples) < noise
    bump = rng.integers(1, classes, size=n_samples)
    y = np.where(flip, (y + bump) % classes, y)
    n_test = max(1, int(round(0.2 * n_samples)))
    perm = rng.permutation(n_samples)
    return Dataset(X, y, train=perm[n_test:], test=perm[:n_test], classes=classes)


# ------------------------------------------------------------- partition --


@dataclass(frozen=True)
class DataPartition:
    """One node's shard: rows ``rows`` of X, y. Every shard of a partition
    holds the dataset's own X and y, so no row is copied."""

    X: np.ndarray
    y: np.ndarray
    rows: np.ndarray

    def __len__(self) -> int:
        return int(self.rows.size)


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
    """Split the train rows into one shard per node. Each scheme deals
    positions in the train split, and a shard holds the dataset rows at its
    positions, in position order. Every node ends up with at least one
    sample; draws that would leave a node empty are re-dealt a bounded
    number of times before erroring out."""
    if n_nodes < 1:
        raise ValueError("need at least one node")
    N = dataset.train.size
    if N < n_nodes:
        raise ValueError(f"cannot split {N} samples over {n_nodes} nodes")
    rng = derive_rng(seed, "partition", scheme.kind)
    if scheme.kind == "iid":
        index_lists = _split_iid(N, n_nodes, rng)
    elif scheme.kind == "dirichlet":
        index_lists = _split_dirichlet(dataset, n_nodes, scheme.alpha, rng)
    else:
        index_lists = _split_label_shards(dataset, n_nodes, scheme.shards_per_node, rng)
    return [DataPartition(dataset.X, dataset.y, dataset.train[idx]) for idx in index_lists]


def _split_iid(N: int, n_nodes: int, rng: np.random.Generator) -> list[np.ndarray]:
    perm = rng.permutation(N)
    return [np.sort(chunk) for chunk in np.array_split(perm, n_nodes)]


def _split_dirichlet(
    dataset: Dataset, n_nodes: int, alpha: float, rng: np.random.Generator
) -> list[np.ndarray]:
    y_train = dataset.y[dataset.train]
    by_class = [np.flatnonzero(y_train == c) for c in range(dataset.classes)]
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
    N = dataset.train.size
    n_shards = n_nodes * shards_per_node
    if N < n_shards:
        raise ValueError(f"cannot cut {N} samples into {n_shards} shards")
    by_label = np.argsort(dataset.y[dataset.train], kind="stable")
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
    (values,) = train_steps([model.values], spec, part.X, part.y, cfg, [draw_batches(part, cfg, rng)])
    return ModelParameters(values, age=model.age + cfg.local_steps)


def draw_batches(part: DataPartition, cfg: TrainerConfig, rng: np.random.Generator) -> np.ndarray:
    """The dataset rows of the ``local_steps`` minibatches that local SGD on
    ``part`` draws from ``rng``, one (steps, batch_size) row per step, in the
    order a step-by-step loop draws them. They depend only on the stream
    and the shard, never on a model."""
    m, size = len(part), cfg.batch_size
    if m == 0:
        raise ValueError("cannot train on an empty shard")
    rows = np.empty((cfg.local_steps, size), dtype=np.intp)
    for s in range(cfg.local_steps):
        if m >= size:
            idx = rng.choice(m, size=size, replace=False)
        else:
            idx = rng.integers(0, m, size=size)
        rows[s] = part.rows[idx]
    return rows


def train_steps(
    thetas: Sequence[np.ndarray],
    spec: ModelSpec,
    X: np.ndarray,
    y: np.ndarray,
    cfg: TrainerConfig,
    batches: Sequence[np.ndarray],
) -> np.ndarray:
    """A new (models, dim) stack: row i of ``thetas`` after ``local_steps``
    SGD steps, step s on the rows ``batches[i][s]`` of X, y that
    ``draw_batches`` drew. Each step moves the whole stack at once, and its
    gradient makes the same products and sums per model as one model's; a
    caller that trains many models bounds the stack's buffers by the size
    of the stack it passes."""
    theta = np.array(thetas, dtype=np.float64)
    rows = np.stack(batches)
    labels = y[rows]
    velocity = np.zeros_like(theta)
    step = np.empty_like(theta)
    batch = np.empty((len(theta), cfg.batch_size, spec.d_in))
    for s in range(cfg.local_steps):
        # The rows are the dataset's own, so "clip" never moves one; it
        # spares the copy that "raise" makes of every gather.
        X.take(rows[:, s], axis=0, out=batch, mode="clip")
        spec.grad(theta, batch, labels[:, s], out=step)
        velocity *= cfg.momentum
        velocity += step
        np.multiply(velocity, cfg.eta, out=step)
        theta -= step
    if not np.isfinite(theta).all():
        raise ValueError("divergence: reduce eta")
    return theta


class EvalSplit:
    """The rows ``rows`` of a labelled set X, y, as ``evaluate_many`` reads
    them. It keeps the same rows in label order (``order``, indices into X):
    their labels, a float32 copy with a trailing 1 that multiplies the bias,
    and each row's Euclidean norm, which the rounding bounds scale with. In
    label order a tile of rows holds few runs of one label, and each run's
    logits are a plain slice. The copy and the norms are filled a block of
    rows at a time, so no float64 copy of the split is made. Build it once
    and score every checkpoint against it."""

    def __init__(self, X: np.ndarray, y: np.ndarray, rows: np.ndarray):
        self.X, self.y, self.rows = X, y, rows
        self.order = rows[np.argsort(y[rows], kind="stable")]
        self.labels = y[self.order]
        self.X32 = np.ones((rows.size, X.shape[1] + 1), dtype=np.float32)
        self.norms = np.empty(rows.size)
        for lo in range(0, rows.size, _BLOCK_ROWS):
            block = X[self.order[lo : lo + _BLOCK_ROWS]]
            self.X32[lo : lo + _BLOCK_ROWS, :-1] = block
            self.norms[lo : lo + _BLOCK_ROWS] = np.sqrt(np.einsum("ij,ij->i", block, block))
            del block  # or the next gather would hold two blocks at once


# Evaluation tiles: one float32 GEMM multiplies at most _EVAL_ROWS test rows
# by the stacked weight rows of as many linear models as fit in _EVAL_COLS.
# On the desk shapes (256 inputs, 10 classes) a tile's logits take 1 MB;
# 256 to 1024 rows by 256 to 1024 columns were no faster.
_EVAL_ROWS = 512
_EVAL_COLS = 512


def models_per_block(spec: ModelSpec) -> int:
    """The models that ``evaluate_many`` scores together in one block: as
    many linear models as fill _EVAL_COLS weight rows (51 on the desk
    shapes), and one MLP model, which is scored alone."""
    return max(1, _EVAL_COLS // spec.classes) if spec.family == "linear" else 1


def evaluate_many(thetas: Sequence[np.ndarray], spec: ModelSpec, split: EvalSplit) -> list[float]:
    """Top-1 accuracy on ``split`` of each parameter vector (or stack row) in
    ``thetas``, equal float for float to scoring each alone with ``logits``
    over all of the split's rows.

    Linear models are scored in blocks, one float32 GEMM per tile of rows,
    and each (model, row) pair is decided from certified margins. Let z* be
    the exact logits of the float64 inputs and z those that ``logits``
    computes, in whatever order its BLAS sums. ``_linear_logit_error_bound``
    gives e64 with |z - z*| <= e64 / 2, and ``_float32_logit_error_bound``
    gives e32 with |z32 - z*| <= e32 for the float32 logits z32 of the tile,
    whenever z32 is finite. If the label's z32 leads every rival by more
    than T = 2 (e32 + e64), its z* leads by more than 2 e64 and its z by
    more than e64 >= 0, so ``logits`` predicts the label, whichever class
    comes first. If a rival's z32 leads the label's by more than T, ``logits``
    does not predict the label. A lead is a difference of floats taken in
    float64 and compared with T, itself rounded up; rounding is monotone, so
    a computed lead above T means an exact lead above T. A row with a
    non-finite logit (a NaN or infinite operand, or an overflow) is
    undecided, as is a pair whose T is not finite.

    The undecided rows of a block are rechecked with one float64 product
    of the block's weights and T = 2 e64, which decides them by the same
    argument, since that product's logits lie within e64 / 2 of z*. A model
    with a pair still undecided (a near tie) is rescored alone with
    ``logits``, so ties break as they always did, at the first maximal
    class. MLP models are always scored alone. Scoring alone reads the rows
    in their order in ``split.rows``, as the logits of a separate model
    would. Correct predictions are counted as integers and divided by the
    row count once."""
    labels = split.labels
    if spec.family == "squared":
        raise ValueError("squared family has no class logits")
    if labels.size == 0:
        raise ValueError("empty test set")
    if labels.min() < 0 or labels.max() >= spec.classes:
        raise ValueError(f"test labels must lie in [0, {spec.classes})")
    if spec.family != "linear":
        X, y = split.X[split.rows], split.y[split.rows]
        return [_count_correct(spec, theta, X, y) / y.size for theta in thetas]
    c, N = spec.classes, labels.size
    per_block = models_per_block(spec)
    accs: list[float] = []
    for first in range(0, len(thetas), per_block):
        block = np.stack(thetas[first : first + per_block])
        B = len(block)
        W, b = spec._unpack_linear(block)
        w, bias = np.sqrt(np.einsum("mcd,mcd->mc", W, W)).max(axis=1), np.abs(b).max(axis=1)
        s64, o64 = _linear_logit_error_bound(w, bias, spec.d_in)
        s32, o32 = _float32_logit_error_bound(w, bias, spec.d_in)
        # Within a bound each, a rival class may gain while the label loses.
        slope, offset = 2.0 * (s32 + s64), 2.0 * (o32 + o64)
        # Class-major stacking: row j * B + i holds class j of model i, its
        # float32 copy ends in the bias.
        W = W.transpose(1, 0, 2).reshape(c * B, spec.d_in)
        b = b.T.reshape(c * B, 1)
        W32 = np.empty((c * B, spec.d_in + 1), dtype=np.float32)
        W32[:, :-1], W32[:, -1:] = W, b
        correct = np.zeros(B, dtype=np.int64)
        unsure = np.empty((B, N), dtype=bool)
        for lo in range(0, N, _EVAL_ROWS):
            hi = min(lo + _EVAL_ROWS, N)
            z = W32 @ split.X32[lo:hi].T
            hit, unsure[:, lo:hi] = _certify(
                z.reshape(c, B, hi - lo), labels[lo:hi], split.norms[lo:hi], slope, offset
            )
            correct += np.count_nonzero(hit, axis=1)
        rows = np.flatnonzero(unsure.any(axis=0))
        if rows.size:
            z = W @ split.X[split.order[rows]].T + b
            z = z.reshape(c, B, rows.size)
            hit, still = _certify(z, labels[rows], split.norms[rows], 2.0 * s64, 2.0 * o64)
            pending = unsure[:, rows]
            correct += np.count_nonzero(hit & pending, axis=1)
            for i in np.flatnonzero((still & pending).any(axis=1)):
                correct[i] = _count_correct(spec, block[i], split.X[split.rows], split.y[split.rows])
        accs.extend(int(k) / N for k in correct)
    return accs


def _certify(z: np.ndarray, labels: np.ndarray, norms: np.ndarray, slope: np.ndarray, offset: np.ndarray):
    """Decide the pairs of a tile of logits z (classes, models, rows), which
    it overwrites, given each row's label and norm |x| and each model's
    tolerance slope * |x| + offset. Rows of one label are read as a run, so
    few long runs are fast. Returns (correct, undecided), each (models,
    rows): a pair is decided when every logit of its row is finite and the
    label's lead over its best rival clears the tolerance, either way."""
    finite = np.isfinite(z.sum(axis=0))
    lead = np.empty(z.shape[1:])
    starts = [0, *(np.flatnonzero(np.diff(labels)) + 1)]
    for lo, hi in zip(starts, [*starts[1:], labels.size]):
        lead[:, lo:hi] = z[labels[lo], :, lo:hi]
        z[labels[lo], :, lo:hi] = -np.inf
    lead -= z.max(axis=0)
    lead[~finite] = np.nan
    tol = np.outer(slope, norms)
    tol += offset[:, None]
    return lead > tol, ~(np.abs(lead) > tol)


def _count_correct(spec: ModelSpec, theta: np.ndarray, X: np.ndarray, y: np.ndarray) -> int:
    """Rows of X whose first maximal class under ``logits`` is their label."""
    return int(np.count_nonzero(spec.logits(theta, X).argmax(axis=1) == y))


def _linear_logit_error_bound(w: np.ndarray, bias: np.ndarray, n: int):
    """Per model of a stack of linear models over n inputs, with largest
    class weight norm w and largest bias magnitude ``bias``, (slope, offset)
    such that two float64 evaluations of a logit of row x that sum in
    different orders lie at most slope * |x| + offset apart. A length-n dot
    product plus a bias is off by at most gamma_{n+2} = (n+2)u/(1-(n+2)u)
    times sum |x_k w_k| + |b| <= |x| |w| + |b| in any order (Higham,
    Accuracy and Stability of Numerical Algorithms, 2002, section 3.1), plus
    (n+2)u times the least normal number for products that underflow; the
    bound doubles that twice, for the two evaluations and for slack."""
    u, least = np.finfo(np.float64).eps / 2, np.finfo(np.float64).tiny
    slack = 4.0 * (n + 2) * u
    return slack * w, slack * (bias + least)


def _float32_logit_error_bound(w: np.ndarray, bias: np.ndarray, n: int):
    """Per model of a stack of linear models over n inputs, with largest
    class weight norm w and largest bias magnitude ``bias``, (slope, offset)
    such that a finite float32 logit of row x, computed from float32 copies
    of x, the weights and the bias, lies within slope * |x| + offset of the
    exact logit of the float64 inputs, whatever order and fused
    multiply-adds the BLAS uses.

    With u = 2^-24 and a = u * (least normal float32) = 2^-150, rounding an
    entry t to float32 moves it by at most u|t| + a, so the rounded row x^
    lies within u|x| + a sqrt(n) of x, and likewise w^ and b^. A finite
    result means nothing overflowed. Summing n products and a bias in any
    order then errs by at most gamma_{n+1} (sum |x^_k w^_k| + |b^|), plus
    (n+1) a (1 + gamma_n) for products that underflow (Higham, 2002,
    section 3.1). With Cauchy-Schwarz and (1+u)^2 (1+gamma_{n+1}) <=
    1 + gamma_{n+3}, the whole error is at most gamma_{n+4} (|x| |w| + |b|)
    + 2a (sqrt(n) (|x| + |w|) + n + 3), for (n+4)u <= 1/2; beyond that the
    bound is infinite. Both parts are rounded up by 2^-20 relative, more
    than the float64 arithmetic of the norms and the bound can lose."""
    u = float(np.finfo(np.float32).eps) / 2
    a = u * float(np.finfo(np.float32).tiny)
    if (n + 4) * u > 0.5:
        return np.full_like(w, np.inf), np.full_like(w, np.inf)
    g = (n + 4) * u / (1 - (n + 4) * u)
    up, root = 1 + 2.0**-20, math.sqrt(n)
    return up * (g * w + 2 * a * root), up * (g * bias + 2 * a * (root * w + n + 3))
