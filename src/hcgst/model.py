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
import scipy.sparse as sp

logger = logging.getLogger(__name__)

_ADAM_B1 = 0.9
_ADAM_B2 = 0.999
_ADAM_EPS = 1e-8


@dataclass
class ModelParams:
    w1: np.ndarray        # (d, hidden)
    w2: np.ndarray        # (hidden, hidden)
    w_main: np.ndarray    # (hidden, c)
    w_pseudo: np.ndarray  # (hidden, c)

    def copy(self) -> "ModelParams":
        return ModelParams(self.w1.copy(), self.w2.copy(), self.w_main.copy(), self.w_pseudo.copy())

    def matrices(self):
        return {"w1": self.w1, "w2": self.w2, "w_main": self.w_main, "w_pseudo": self.w_pseudo}


@dataclass
class TrainConfig:
    epochs: int = 300
    learning_rate: float = 0.001
    weight_decay: float = 5e-4

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.weight_decay < 0:
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

    def glorot(fan_in, fan_out):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=(fan_in, fan_out))

    return ModelParams(w1=glorot(d, hidden), w2=glorot(hidden, hidden),
                       w_main=glorot(hidden, c), w_pseudo=glorot(hidden, c))


def softmax_rows(logits) -> np.ndarray:
    """Row-wise softmax with max-subtraction stabilization."""
    z = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise ValueError("logits contain non-finite entries")
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def forward(params: ModelParams, view, features) -> np.ndarray:
    """Main-head logits (n, c): two aggregation rounds with a ramp nonlinearity
    after the first layer. ``softmax_rows`` of them gives the soft labels."""
    x = np.asarray(features, dtype=np.float64)
    if view.n != x.shape[0]:
        raise ValueError(f"adjacency view has {view.n} nodes but features have {x.shape[0]} rows")
    if x.shape[1] != params.w1.shape[0]:
        raise ValueError(f"feature dim {x.shape[1]} does not match model input dim {params.w1.shape[0]}")
    return _extract_rows(params, view.norm @ x, view.norm)[2] @ params.w_main


def predict(params: ModelParams, view, features) -> np.ndarray:
    """Argmax over main-head logits; ties resolve to the lowest class index."""
    return np.argmax(forward(params, view, features), axis=1)


def _cross_entropy_rows(logits_rows, y):
    if not np.all(np.isfinite(logits_rows)):
        raise ValueError("logits contain non-finite entries")
    shifted = logits_rows - logits_rows.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    z = e.sum(axis=1)
    losses = np.log(z) - shifted[np.arange(len(y)), y]
    grad_rows = e / z[:, None]  # softmax_rows(logits_rows), bit for bit
    grad_rows[np.arange(len(y)), y] -= 1.0
    return float(losses.mean()), grad_rows / len(y)


@dataclass(frozen=True)
class TrainingRows:
    """Constants of one training run.

    The loss and the validation accuracy read only the rows
    R = sorted(main ∪ leftover ∪ validation), so the second aggregation runs
    on Â[R] alone; Â·X does not depend on the parameters and is computed once.
    Positions index into R.
    """

    x1: np.ndarray          # (n, d) Â·X
    a_rows: sp.csr_matrix   # (|R|, n) Â[R]
    main_pos: np.ndarray
    main_y: np.ndarray
    left_pos: np.ndarray
    left_y: np.ndarray
    val_pos: np.ndarray     # empty without a validation set


def training_rows(view, features, main_idx, main_y, left_idx, left_y,
                  val_idx=None) -> TrainingRows:
    """Build the :class:`TrainingRows` of one training run on ``view``."""
    x = np.asarray(features, dtype=np.float64)
    val_idx = np.empty(0, dtype=np.int64) if val_idx is None else np.asarray(val_idx, dtype=np.int64)
    main_idx = np.asarray(main_idx, dtype=np.int64)
    left_idx = np.asarray(left_idx, dtype=np.int64)
    rows = np.unique(np.concatenate([main_idx, left_idx, val_idx]))
    return TrainingRows(x1=view.norm @ x, a_rows=view.norm[rows],
                        main_pos=np.searchsorted(rows, main_idx),
                        main_y=np.asarray(main_y, dtype=np.int64),
                        left_pos=np.searchsorted(rows, left_idx),
                        left_y=np.asarray(left_y, dtype=np.int64),
                        val_pos=np.searchsorted(rows, val_idx))


def _extract_rows(params: ModelParams, x1, a_rows):
    """First layer on all nodes from x1 = Â·X, second aggregation and extractor
    output on the rows of a_rows (Â itself, or Â[R] in training)."""
    pre1 = x1 @ params.w1
    act1 = np.maximum(pre1, 0.0)
    x2 = a_rows @ act1
    return pre1, x2, x2 @ params.w2


def dual_loss_and_grads(params: ModelParams, rows: TrainingRows, lambda_dual: float,
                        weight_decay: float):
    """Training loss and parameter gradients.

    Loss = CE_main + lambda_dual * CE_pseudo + (wd/2) * (|w1|^2 + |w2|^2 + |w_main|^2).
    Weight decay deliberately skips the pseudo head so that lambda_dual = 0
    leaves it untouched. Returns (loss, grads dict, main logits of the rows R).
    """
    pre1, x2, h = _extract_rows(params, rows.x1, rows.a_rows)
    zm = h @ params.w_main
    zp = h @ params.w_pseudo
    if not (np.all(np.isfinite(zm)) and np.all(np.isfinite(zp))):
        raise RuntimeError("training logits became non-finite")  # the parameters diverged

    r, c = zm.shape
    loss_main, d_rows = _cross_entropy_rows(zm[rows.main_pos], rows.main_y)
    dzm = np.zeros((r, c))
    dzm[rows.main_pos] = d_rows

    loss = loss_main
    d_wp = np.zeros_like(params.w_pseudo)
    dh = dzm @ params.w_main.T
    if len(rows.left_pos):
        loss_pseudo, d_rows_p = _cross_entropy_rows(zp[rows.left_pos], rows.left_y)
        loss += lambda_dual * loss_pseudo
        dzp = np.zeros((r, c))
        dzp[rows.left_pos] = lambda_dual * d_rows_p
        d_wp = h.T @ dzp
        dh = dh + dzp @ params.w_pseudo.T

    d_wm = h.T @ dzm + weight_decay * params.w_main
    d_w2 = x2.T @ dh + weight_decay * params.w2
    dact1 = rows.a_rows.T @ (dh @ params.w2.T)
    np.multiply(dact1, pre1 > 0, out=dact1)  # ReLU backward, in place
    d_w1 = rows.x1.T @ dact1 + weight_decay * params.w1

    loss += 0.5 * weight_decay * (np.sum(params.w1**2) + np.sum(params.w2**2) + np.sum(params.w_main**2))
    grads = {"w1": d_w1, "w2": d_w2, "w_main": d_wm, "w_pseudo": d_wp}
    return loss, grads, zm


def _check_label_sets(name, nodes, labels, c):
    nodes = np.asarray(nodes, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if nodes.shape != labels.shape:
        raise ValueError(f"{name}: nodes and labels must be co-indexed")
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise ValueError(f"{name}: label outside [0, {c})")
    return nodes, labels


@_one_blas_thread()
def train_dual(params: ModelParams, graph, view, clean_with_labels, pseudo_with_labels,
               leftover_with_labels, cfg: TrainConfig, lambda_dual: float,
               validation=None) -> ModelParams:
    """Full-batch Adam on the dual-head objective.

    The main head trains on clean plus distribution-consistent pseudo-nodes;
    the pseudo head trains on the leftover candidates with weight
    ``lambda_dual`` (>= 0), feeding gradients into the shared extractor. When a
    validation (nodes, labels) pair is given the parameters with the best
    validation accuracy seen during training are returned, otherwise the
    final-epoch parameters.
    """
    if lambda_dual < 0:
        raise ValueError(f"lambda_dual must be >= 0, got {lambda_dual}")
    c = params.w_main.shape[1]
    clean_idx, clean_y = _check_label_sets("clean set", *clean_with_labels, c=c)
    cons_idx, cons_y = _check_label_sets("consistent pseudo set", *pseudo_with_labels, c=c)
    left_idx, left_y = _check_label_sets("leftover set", *leftover_with_labels, c=c)
    if clean_idx.size == 0:
        raise ValueError("clean training set must be non-empty")
    all_train = np.concatenate([clean_idx, cons_idx, left_idx])
    if len(np.unique(all_train)) != all_train.size:
        raise ValueError("clean, consistent and leftover sets must be disjoint")

    val_idx = val_y = None
    if validation is not None:
        val_idx, val_y = _check_label_sets("validation set", *validation, c=c)
    rows = training_rows(view, graph.features, np.concatenate([clean_idx, cons_idx]),
                         np.concatenate([clean_y, cons_y]), left_idx, left_y, val_idx)

    cur = params.copy()
    state_m = {k: np.zeros_like(v) for k, v in cur.matrices().items()}
    state_v = {k: np.zeros_like(v) for k, v in cur.matrices().items()}
    best = None  # (acc, params copy)

    for epoch in range(cfg.epochs + 1):  # the last pass checks the final parameters, no step
        loss, grads, zm = dual_loss_and_grads(cur, rows, lambda_dual, cfg.weight_decay)
        if not np.isfinite(loss):
            raise RuntimeError(f"non-finite training loss at epoch {epoch}")
        if val_idx is not None:
            acc = float(np.mean(np.argmax(zm[rows.val_pos], axis=1) == val_y))
            if best is None or acc >= best[0]:  # ties prefer the later, better-fitted epoch
                best = (acc, cur.copy())
        if epoch == cfg.epochs:
            break
        t = epoch + 1
        mats = cur.matrices()
        for key, g in grads.items():
            state_m[key] = _ADAM_B1 * state_m[key] + (1 - _ADAM_B1) * g
            state_v[key] = _ADAM_B2 * state_v[key] + (1 - _ADAM_B2) * g * g
            m_hat = state_m[key] / (1 - _ADAM_B1**t)
            v_hat = state_v[key] / (1 - _ADAM_B2**t)
            mats[key] -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)
    return cur if best is None else best[1]


def gradient_check(params: ModelParams, tiny_graph, cfg: TrainConfig, lambda_dual: float,
                   view=None, h: float = 1e-5) -> float:
    """Max relative error between analytic gradients and central finite differences.

    Runs on a tiny labelled instance; even nodes form the main set and odd
    nodes the leftover pseudo set.
    """
    from .graph import k_hop_adjacency

    if tiny_graph.labels is None:
        raise ValueError("gradient check needs a labelled graph")
    if view is None:
        view = k_hop_adjacency(tiny_graph, 1)
    y = tiny_graph.labels
    nodes = np.arange(tiny_graph.n)
    rows = training_rows(view, tiny_graph.features, nodes[0::2], y[0::2], nodes[1::2], y[1::2])
    _, grads, _ = dual_loss_and_grads(params, rows, lambda_dual, cfg.weight_decay)

    def loss_at(p):
        return dual_loss_and_grads(p, rows, lambda_dual, cfg.weight_decay)[0]

    worst = 0.0
    for key, mat in params.matrices().items():
        fd = np.zeros_like(mat)
        for idx in np.ndindex(mat.shape):
            probe = params.copy()
            probe.matrices()[key][idx] = mat[idx] + h
            up = loss_at(probe)
            probe.matrices()[key][idx] = mat[idx] - h
            down = loss_at(probe)
            fd[idx] = (up - down) / (2 * h)
        denom = np.maximum(np.maximum(np.abs(fd), np.abs(grads[key])), 1e-8)
        worst = max(worst, float(np.max(np.abs(fd - grads[key]) / denom)))
    return worst

