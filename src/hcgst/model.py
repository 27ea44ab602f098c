"""Dual-head message-passing classifier.

Two rounds of symmetric-normalized aggregation form the feature extractor;
a main head produces the classification logits and an auxiliary pseudo head
(used only during training) shares the extractor. Gradients are computed by
hand and training is full-batch Adam, so runs are bit-reproducible from a
seed. Training runs on one OpenBLAS thread, so the bits do not depend on the
core count either; under a numpy without a bundled OpenBLAS the library's own
threading applies and may change the last bits of large runs.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph import _ids, k_hop_adjacency

logger = logging.getLogger(__name__)

_ADAM_B1 = 0.9
_ADAM_B2 = 0.999
_ADAM_EPS = 1e-8
_FD_STEP = 1e-5  # central-difference step of gradient_check


class ModelParams:
    """The weights as one float64 vector ``flat``, all zeros when new; w1 (d, hidden), w2 (hidden,
    hidden), w_main and w_pseudo (hidden, c) are reshaped views of it, in that order."""

    def __init__(self, d: int, hidden: int, c: int, flat=None):
        o1 = d * hidden  # plain int offsets: the gradient builds one of these every epoch
        o2 = o1 + hidden * hidden
        o3 = o2 + hidden * c
        self.flat = np.zeros(o3 + hidden * c) if flat is None else flat
        self.w1 = self.flat[:o1].reshape(d, hidden)
        self.w2 = self.flat[o1:o2].reshape(hidden, hidden)
        self.w_main = self.flat[o2:o3].reshape(hidden, c)
        self.w_pseudo = self.flat[o3:].reshape(hidden, c)

    def __reduce__(self):  # an unpickled copy rebuilds its views on its own vector
        return ModelParams, (*self.w1.shape, self.w_main.shape[1], self.flat)

    def copy(self) -> "ModelParams":
        return ModelParams(*self.w1.shape, self.w_main.shape[1], self.flat.copy())


@dataclass
class TrainConfig:
    epochs: int = 300
    learning_rate: float = 0.001
    weight_decay: float = 5e-4

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not 0 < self.learning_rate < np.inf:  # NaN fails every comparison
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if not 0 <= self.weight_decay < np.inf:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")


@functools.cache
def _openblas_thread_calls():
    """(get, set) thread-count functions of numpy's bundled OpenBLAS, or None."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(handle, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    logger.debug("no OpenBLAS library under %s; BLAS threading left as it is", libdir)
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block on one OpenBLAS thread and restore the caller's count after.

    With two threads OpenBLAS splits the row sums of ``x.T @ y`` differently
    than with one once n reaches a few thousand, and its second thread spins on
    the small training products without shortening them. Nested entries are
    harmless; without an OpenBLAS handle this does nothing.
    """
    calls = _openblas_thread_calls()
    if calls is None:
        yield
        return
    get, set_ = calls
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def init_params(d: int, hidden: int, c: int, seed: int) -> ModelParams:
    """Deterministic scaled-uniform initialization; same seed gives identical params."""
    if min(d, hidden, c) < 1:
        raise ValueError(f"all dimensions must be >= 1, got d={d} hidden={hidden} c={c}")
    rng = np.random.default_rng(seed)
    params = ModelParams(d, hidden, c)
    for mat in (params.w1, params.w2, params.w_main, params.w_pseudo):  # the order of the draws
        limit = np.sqrt(6.0 / sum(mat.shape))  # fan in + fan out
        mat[:] = rng.uniform(-limit, limit, size=mat.shape)
    return params


def _shifted_exp(logits_rows):
    """(z - row max, its exp, the exp's row sums) of a finite logit matrix z."""
    if logits_rows.ndim != 2 or logits_rows.shape[1] == 0:
        raise ValueError(f"logits must be a matrix with at least one column, got shape {logits_rows.shape}")
    if not np.all(np.isfinite(logits_rows)):
        raise ValueError("logits contain non-finite entries")
    # the row max column by column: exact in any order, and far faster than
    # max(axis=1) over a few columns
    top = logits_rows[:, 0].copy()
    for j in range(1, logits_rows.shape[1]):
        np.maximum(top, logits_rows[:, j], out=top)
    shifted = logits_rows - top[:, None]
    e = np.exp(shifted)
    return shifted, e, e.sum(axis=1)


def softmax_rows(logits) -> np.ndarray:
    """Row-wise softmax with max-subtraction stabilization."""
    _, e, total = _shifted_exp(np.asarray(logits, dtype=np.float64))
    return e / total[:, None]


def forward(params: ModelParams, view, features) -> np.ndarray:
    """Main-head logits (n, c): two aggregation rounds with a ramp nonlinearity
    after the first layer. ``softmax_rows`` of them gives the soft labels.

    The second layer is linear, so it is folded into the head first and the
    second aggregation runs c columns wide: Â·(relu(Â·X·W1)·(W2·W_main)).
    """
    x = np.asarray(features, dtype=np.float64)
    if view.n != x.shape[0]:
        raise ValueError(f"adjacency view has {view.n} nodes but features have {x.shape[0]} rows")
    if x.shape[1] != params.w1.shape[0]:
        raise ValueError(f"feature dim {x.shape[1]} does not match model input dim {params.w1.shape[0]}")
    act1 = (view.norm @ x) @ params.w1
    np.maximum(act1, 0.0, out=act1)
    return view.norm @ (act1 @ (params.w2 @ params.w_main))


def predict(params: ModelParams, view, features) -> np.ndarray:
    """Argmax over main-head logits; ties resolve to the lowest class index."""
    return np.argmax(forward(params, view, features), axis=1)


def _cross_entropy_rows(logits_rows, label_at, ends):
    """Each mean cross entropy of rows [0, ends[0]), [ends[0], ends[1]), ... against the labels at
    flat positions ``label_at``, and the gradient rows, each such run divided by its row count."""
    shifted, e, z = _shifted_exp(logits_rows)
    losses = np.log(z) - shifted.reshape(-1)[label_at]
    grad_rows = e / z[:, None]  # softmax_rows(logits_rows), bit for bit
    grad_rows.reshape(-1)[label_at] -= 1.0
    spans = list(zip((0, *ends), ends))
    for lo, hi in spans:
        grad_rows[lo:hi] /= hi - lo
    return [float(losses[lo:hi].mean()) for lo, hi in spans], grad_rows


class TrainingRows:
    """Constants and work arrays of one training run on ``view`` of a model with
    ``hidden`` units and ``c`` classes.

    The loss and the validation accuracy read only the rows
    R = sorted(main ∪ leftover ∪ validation), so the second aggregation runs
    on Â[R] alone; Â·X and Â[R]ᵀ do not depend on the parameters and are
    built once. Positions index into R; ``val_pos`` is empty without a
    validation set. ``gather`` holds the flat positions in Z of the main
    head's main rows, then of the pseudo head's leftover rows; ``label_at``
    the flat positions of their labels in the gathered matrix; ``ends`` where
    each head's rows end.
    """

    def __init__(self, view, features, hidden, c, main_idx, main_y, left_idx, left_y, val_idx=None):
        sets = [np.asarray(idx, dtype=np.int64)  # main, leftover and validation nodes
                for idx in (main_idx, left_idx, () if val_idx is None else val_idx)]
        rows = np.sort(np.concatenate(sets))
        rows = rows[np.diff(rows, prepend=-1) != 0]  # ids >= 0: np.unique's array, without its hash path
        self.x1 = view.norm @ np.asarray(features, dtype=np.float64)  # (n, d) Â·X
        self.a_rows = view.norm[rows]    # (|R|, n) Â[R]
        self.a_rows_t = self.a_rows.T    # (n, |R|) Â[R]ᵀ, a CSC matrix
        self.main_pos, self.left_pos, self.val_pos = (np.searchsorted(rows, idx) for idx in sets)
        width = 2 * c if len(self.left_pos) else c  # Z's columns: the main head, then the pseudo head's
        self.act1 = np.empty((self.x1.shape[0], hidden))
        self.dz = np.zeros((len(rows), width))  # the entries outside the label rows stay 0
        self.gather = np.concatenate([self.main_pos * width, self.left_pos * width + c])[:, None] + np.arange(c)
        labels = np.concatenate([np.asarray(y, dtype=np.int64) for y in (main_y, left_y)])
        self.label_at = np.arange(len(labels)) * c + labels
        self.ends = (len(self.main_pos), len(labels))[:width // c]


def dual_loss_and_grads(params: ModelParams, rows: TrainingRows, lambda_dual: float,
                        weight_decay: float):
    """Training loss and parameter gradients.

    Loss = CE_main + lambda_dual * CE_pseudo + (wd/2) * (|w1|^2 + |w2|^2 + |w_main|^2).
    Weight decay deliberately skips the pseudo head so that lambda_dual = 0
    leaves it untouched; without leftover rows the pseudo head is off and gets
    a zero gradient. Returns (loss, the gradient as a ``ModelParams``, main
    logits of the rows R).

    W2 is folded into the heads, V = W2·[W_main | W_pseudo], so the second
    aggregation and its backward pass run 2c columns wide, not hidden wide:
    Z = Â[R]·(act1·V) holds both heads' logits, S = Â[R]ᵀ·dZ, and the
    gradients follow from S and T = act1ᵀ·S. act1 and dZ are ``rows``' work
    arrays, d act1 overwrites act1 once the ReLU mask is taken, and one
    cross-entropy pass serves both heads' label rows.
    """
    hidden, c = params.w_main.shape
    if (hidden, c) != (rows.act1.shape[1], rows.gather.shape[1]):
        raise ValueError(f"model of hidden {hidden}, c {c} does not match training rows built for "
                         f"hidden {rows.act1.shape[1]}, c {rows.gather.shape[1]}")
    act1 = rows.act1
    np.matmul(rows.x1, params.w1, out=act1)
    np.maximum(act1, 0.0, out=act1)  # act1 > 0 exactly where the pre-activation is
    pseudo_on = len(rows.left_pos) > 0
    heads = np.hstack([params.w_main, params.w_pseudo]) if pseudo_on else params.w_main
    v = params.w2 @ heads
    z = rows.a_rows @ (act1 @ v)
    if not np.all(np.isfinite(z)):
        raise RuntimeError("training logits became non-finite")  # the parameters diverged

    (loss, *loss_pseudo), d_rows = _cross_entropy_rows(np.take(z, rows.gather), rows.label_at, rows.ends)
    if pseudo_on:
        loss += lambda_dual * loss_pseudo[0]
        d_rows[rows.ends[0]:] *= lambda_dual
    np.put(rows.dz, rows.gather, d_rows)

    s = rows.a_rows_t @ rows.dz  # (n, c or 2c): gradient of act1·V
    t = (s.T @ act1).T           # gradient of V; the same bits as act1ᵀ·S, faster
    d_heads = params.w2.T @ t
    grads = ModelParams(*params.w1.shape, c)  # the pseudo head's part stays 0 when it is off
    grads.w2[:] = t @ heads.T + weight_decay * params.w2
    grads.w_main[:] = d_heads[:, :c] + weight_decay * params.w_main
    if pseudo_on:
        grads.w_pseudo[:] = d_heads[:, c:]
    relu = act1 > 0
    dact1 = np.matmul(s, v.T, out=act1)
    np.multiply(dact1, relu, out=dact1)  # ReLU backward, in place
    grads.w1[:] = rows.x1.T @ dact1 + weight_decay * params.w1

    loss += 0.5 * weight_decay * (np.sum(params.w1**2) + np.sum(params.w2**2) + np.sum(params.w_main**2))
    return loss, grads, z[:, :c]


def _check_label_sets(name, nodes, labels, n, c):
    nodes, labels = _ids(f"{name} node", nodes, n), _ids(f"{name} label", labels, c)
    if nodes.shape != labels.shape:
        raise ValueError(f"{name}: nodes and labels must be co-indexed")
    return nodes, labels


@_one_blas_thread()
def train_dual(params: ModelParams, graph, view, clean_with_labels, pseudo_with_labels,
               leftover_with_labels, cfg: TrainConfig, lambda_dual: float,
               validation=None) -> ModelParams:
    """Full-batch Adam on the dual-head objective.

    The main head trains on the clean pair followed by the
    distribution-consistent pseudo pair: the two are concatenated in that
    order and are otherwise treated alike. The pseudo head trains on the
    leftover candidates with weight ``lambda_dual`` (>= 0), feeding gradients
    into the shared extractor. When a validation (nodes, labels) pair is given
    the parameters with the best validation accuracy seen during training are
    returned, otherwise the final-epoch parameters.
    """
    if not lambda_dual >= 0:
        raise ValueError(f"lambda_dual must be >= 0, got {lambda_dual}")
    n, c = graph.n, params.w_main.shape[1]
    clean_idx, clean_y = _check_label_sets("clean set", *clean_with_labels, n, c)
    cons_idx, cons_y = _check_label_sets("consistent pseudo set", *pseudo_with_labels, n, c)
    left_idx, left_y = _check_label_sets("leftover set", *leftover_with_labels, n, c)
    if clean_idx.size == 0:
        raise ValueError("clean training set must be non-empty")
    all_train = np.concatenate([clean_idx, cons_idx, left_idx])
    if np.any(np.diff(np.sort(all_train)) == 0):
        raise ValueError("clean, consistent and leftover sets must be disjoint")

    val_idx, val_y = _check_label_sets("validation set", *(validation or ((), ())), n, c)
    rows = TrainingRows(view, graph.features, *params.w_main.shape, np.concatenate([clean_idx, cons_idx]),
                        np.concatenate([clean_y, cons_y]), left_idx, left_y, val_idx)

    cur = params.copy()
    state_m = np.zeros_like(cur.flat)  # Adam is elementwise: one step moves all four matrices
    state_v = np.zeros_like(cur.flat)
    best = None  # (acc, params copy)

    for epoch in range(cfg.epochs + 1):  # the last pass checks the final parameters, no step
        loss, grads, zm = dual_loss_and_grads(cur, rows, lambda_dual, cfg.weight_decay)
        if not np.isfinite(loss):
            raise RuntimeError(f"non-finite training loss at epoch {epoch}")
        if val_idx.size:
            acc = float(np.mean(np.argmax(zm[rows.val_pos], axis=1) == val_y))
            if best is None or acc >= best[0]:  # ties prefer the later, better-fitted epoch
                best = (acc, cur.copy())
        if epoch == cfg.epochs:
            break
        t = epoch + 1
        g = grads.flat
        state_m = _ADAM_B1 * state_m + (1 - _ADAM_B1) * g
        state_v = _ADAM_B2 * state_v + (1 - _ADAM_B2) * g * g
        m_hat = state_m / (1 - _ADAM_B1**t)
        v_hat = state_v / (1 - _ADAM_B2**t)
        cur.flat -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)
    return cur if best is None else best[1]


def gradient_check(params: ModelParams, tiny_graph, cfg: TrainConfig, lambda_dual: float) -> float:
    """Max relative error between analytic gradients and central finite differences.

    Runs on a tiny labelled instance and its 1-hop view; even nodes form the
    main set and odd nodes the leftover pseudo set.
    """
    if tiny_graph.labels is None:
        raise ValueError("gradient check needs a labelled graph")
    y = tiny_graph.labels
    nodes = np.arange(tiny_graph.n)
    rows = TrainingRows(k_hop_adjacency(tiny_graph, 1), tiny_graph.features, *params.w_main.shape,
                        nodes[0::2], y[0::2], nodes[1::2], y[1::2])
    _, grads, _ = dual_loss_and_grads(params, rows, lambda_dual, cfg.weight_decay)

    def loss_at(p):
        return dual_loss_and_grads(p, rows, lambda_dual, cfg.weight_decay)[0]

    fd = np.zeros_like(params.flat)
    probe = params.copy()
    for i, value in enumerate(params.flat):
        probe.flat[i] = value + _FD_STEP
        up = loss_at(probe)
        probe.flat[i] = value - _FD_STEP
        fd[i] = (up - loss_at(probe)) / (2 * _FD_STEP)
        probe.flat[i] = value
    denom = np.maximum(np.maximum(np.abs(fd), np.abs(grads.flat)), 1e-8)
    return float(np.max(np.abs(fd - grads.flat) / denom))
