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

logger = logging.getLogger(__name__)

_ADAM_B1 = 0.9
_ADAM_B2 = 0.999
_ADAM_EPS = 1e-8
_FD_STEP = 1e-5  # central-difference step of gradient_check


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
    act1 = np.maximum((view.norm @ x) @ params.w1, 0.0)
    return view.norm @ (act1 @ (params.w2 @ params.w_main))


def predict(params: ModelParams, view, features) -> np.ndarray:
    """Argmax over main-head logits; ties resolve to the lowest class index."""
    return np.argmax(forward(params, view, features), axis=1)


def _cross_entropy_rows(logits_rows, y):
    shifted, e, z = _shifted_exp(logits_rows)
    losses = np.log(z) - shifted[np.arange(len(y)), y]
    grad_rows = e / z[:, None]  # softmax_rows(logits_rows), bit for bit
    grad_rows[np.arange(len(y)), y] -= 1.0
    return float(losses.mean()), grad_rows / len(y)


class TrainingRows:
    """Constants and work arrays of one training run on ``view``.

    The loss and the validation accuracy read only the rows
    R = sorted(main ∪ leftover ∪ validation), so the second aggregation runs
    on Â[R] alone; Â·X and Â[R]ᵀ do not depend on the parameters and are
    built once. Positions index into R; ``val_pos`` is empty without a
    validation set.
    """

    def __init__(self, view, features, main_idx, main_y, left_idx, left_y, val_idx=None):
        sets = [np.asarray(idx, dtype=np.int64)  # main, leftover and validation nodes
                for idx in (main_idx, left_idx, () if val_idx is None else val_idx)]
        rows = np.unique(np.concatenate(sets))
        self.x1 = view.norm @ np.asarray(features, dtype=np.float64)  # (n, d) Â·X
        self.a_rows = view.norm[rows]    # (|R|, n) Â[R]
        self.a_rows_t = self.a_rows.T    # (n, |R|) Â[R]ᵀ, a CSC matrix
        self.main_pos, self.left_pos, self.val_pos = (np.searchsorted(rows, idx) for idx in sets)
        self.main_y = np.asarray(main_y, dtype=np.int64)
        self.left_y = np.asarray(left_y, dtype=np.int64)
        self._work = {}

    def buffer(self, name: str, shape: tuple) -> np.ndarray:
        """A float64 work array kept across epochs; its contents are not kept."""
        buf = self._work.get(name)
        if buf is None or buf.shape != shape:
            buf = self._work[name] = np.empty(shape)
        return buf


def dual_loss_and_grads(params: ModelParams, rows: TrainingRows, lambda_dual: float,
                        weight_decay: float):
    """Training loss and parameter gradients.

    Loss = CE_main + lambda_dual * CE_pseudo + (wd/2) * (|w1|^2 + |w2|^2 + |w_main|^2).
    Weight decay deliberately skips the pseudo head so that lambda_dual = 0
    leaves it untouched; without leftover rows the pseudo head is off and gets
    a zero gradient. Returns (loss, grads dict, main logits of the rows R).

    W2 is folded into the heads, V = W2·[W_main | W_pseudo], so the second
    aggregation and its backward pass run 2c columns wide, not hidden wide:
    Z = Â[R]·(act1·V) holds both heads' logits, S = Â[R]ᵀ·dZ, and the
    gradients follow from S and T = act1ᵀ·S. act1, d act1 and dZ live in
    ``rows``' work arrays.
    """
    act1 = rows.buffer("act1", (rows.x1.shape[0], params.w1.shape[1]))
    np.matmul(rows.x1, params.w1, out=act1)
    np.maximum(act1, 0.0, out=act1)  # act1 > 0 exactly where the pre-activation is
    c = params.w_main.shape[1]
    pseudo_on = len(rows.left_pos) > 0
    heads = np.hstack([params.w_main, params.w_pseudo]) if pseudo_on else params.w_main
    v = params.w2 @ heads
    z = rows.a_rows @ (act1 @ v)
    if not np.all(np.isfinite(z)):
        raise RuntimeError("training logits became non-finite")  # the parameters diverged

    zm = z[:, :c]
    loss, d_rows = _cross_entropy_rows(zm[rows.main_pos], rows.main_y)
    dz = rows.buffer("dz", z.shape)
    dz.fill(0.0)
    dz[rows.main_pos, :c] = d_rows
    if pseudo_on:
        loss_pseudo, d_rows_p = _cross_entropy_rows(z[rows.left_pos, c:], rows.left_y)
        loss += lambda_dual * loss_pseudo
        dz[rows.left_pos, c:] = lambda_dual * d_rows_p

    s = rows.a_rows_t @ dz  # (n, c or 2c): gradient of act1·V
    t = (s.T @ act1).T      # gradient of V; the same bits as act1ᵀ·S, faster
    d_heads = params.w2.T @ t
    d_w2 = t @ heads.T + weight_decay * params.w2
    dact1 = rows.buffer("dact1", act1.shape)
    np.matmul(s, v.T, out=dact1)
    np.multiply(dact1, act1 > 0, out=dact1)  # ReLU backward, in place
    d_w1 = rows.x1.T @ dact1 + weight_decay * params.w1

    loss += 0.5 * weight_decay * (np.sum(params.w1**2) + np.sum(params.w2**2) + np.sum(params.w_main**2))
    grads = {"w1": d_w1, "w2": d_w2, "w_main": d_heads[:, :c] + weight_decay * params.w_main,
             "w_pseudo": d_heads[:, c:] if pseudo_on else np.zeros_like(params.w_pseudo)}
    return loss, grads, zm


def _flat_copy(params: ModelParams):
    """A copy of ``params`` whose matrices are views into one flat vector, and that vector."""
    mats = params.matrices().values()
    flat = np.concatenate([m.ravel() for m in mats])
    ends = np.cumsum([m.size for m in mats])
    views = [part.reshape(m.shape) for part, m in zip(np.split(flat, ends[:-1]), mats)]
    return ModelParams(*views), flat


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

    The main head trains on the clean pair followed by the
    distribution-consistent pseudo pair: the two are concatenated in that
    order and are otherwise treated alike. The pseudo head trains on the
    leftover candidates with weight ``lambda_dual`` (>= 0), feeding gradients
    into the shared extractor. When a validation (nodes, labels) pair is given
    the parameters with the best validation accuracy seen during training are
    returned, otherwise the final-epoch parameters.
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
    rows = TrainingRows(view, graph.features, np.concatenate([clean_idx, cons_idx]),
                        np.concatenate([clean_y, cons_y]), left_idx, left_y, val_idx)

    cur, flat = _flat_copy(params)
    state_m = np.zeros_like(flat)  # Adam is elementwise: one step moves all four matrices
    state_v = np.zeros_like(flat)
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
        g = np.concatenate([grads[key].ravel() for key in cur.matrices()])
        state_m = _ADAM_B1 * state_m + (1 - _ADAM_B1) * g
        state_v = _ADAM_B2 * state_v + (1 - _ADAM_B2) * g * g
        m_hat = state_m / (1 - _ADAM_B1**t)
        v_hat = state_v / (1 - _ADAM_B2**t)
        flat -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)
    return cur if best is None else best[1]


def gradient_check(params: ModelParams, tiny_graph, cfg: TrainConfig, lambda_dual: float) -> float:
    """Max relative error between analytic gradients and central finite differences.

    Runs on a tiny labelled instance and its 1-hop view; even nodes form the
    main set and odd nodes the leftover pseudo set.
    """
    from .graph import k_hop_adjacency

    if tiny_graph.labels is None:
        raise ValueError("gradient check needs a labelled graph")
    y = tiny_graph.labels
    nodes = np.arange(tiny_graph.n)
    rows = TrainingRows(k_hop_adjacency(tiny_graph, 1), tiny_graph.features,
                        nodes[0::2], y[0::2], nodes[1::2], y[1::2])
    _, grads, _ = dual_loss_and_grads(params, rows, lambda_dual, cfg.weight_decay)

    def loss_at(p):
        return dual_loss_and_grads(p, rows, lambda_dual, cfg.weight_decay)[0]

    worst = 0.0
    for key, mat in params.matrices().items():
        fd = np.zeros_like(mat)
        for idx in np.ndindex(mat.shape):
            probe = params.copy()
            probe.matrices()[key][idx] = mat[idx] + _FD_STEP
            up = loss_at(probe)
            probe.matrices()[key][idx] = mat[idx] - _FD_STEP
            down = loss_at(probe)
            fd[idx] = (up - down) / (2 * _FD_STEP)
        denom = np.maximum(np.maximum(np.abs(fd), np.abs(grads[key])), 1e-8)
        worst = max(worst, float(np.max(np.abs(fd - grads[key]) / denom)))
    return worst

