"""Distribution-distance metrics: central moment discrepancy and smoothed KL divergence.

CMD between two sample sets X, Y:

    (1/|b-a|) * ||E(X) - E(Y)||_2  +  sum_{k=2..K} (1/|b-a|^k) * ||c_k(X) - c_k(Y)||_2

with c_k the elementwise k-th central moment and [a, b] the sample support.
The weighted variant replaces X's expectation and central moments by their
weight-averaged counterparts (weights normalized to sum 1) and exposes the
analytic gradient with respect to the weights, which drives the selection
optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_NORM_FLOOR = 1e-300  # below this a norm term contributes no gradient


@dataclass(frozen=True)
class CmdConfig:
    """Moment-order truncation and optional explicit support bounds.

    When ``support_lo``/``support_hi`` are None the bounds are taken per call
    as the global min/max over both sample sets.
    """

    max_order: int = 5
    support_lo: float | None = None
    support_hi: float | None = None

    def __post_init__(self):
        if self.max_order < 1:
            raise ValueError(f"max_order must be >= 1, got {self.max_order}")
        if self.support_lo is not None and self.support_hi is not None and not (self.support_hi > self.support_lo):
            raise ValueError("support_hi must exceed support_lo")


def _as_samples(x, name) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError(f"{name} must be a non-empty 2-d sample matrix")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} contains non-finite entries")
    return x


def _paired_samples(x, y, cfg: CmdConfig):
    """X and Y as checked sample matrices of equal width, and the support width |b - a|."""
    x = _as_samples(x, "X")
    y = _as_samples(y, "Y")
    if x.shape[1] != y.shape[1]:
        raise ValueError(f"dimension mismatch: X has {x.shape[1]} columns, Y has {y.shape[1]}")
    if cfg.support_lo is not None and cfg.support_hi is not None:
        return x, y, float(cfg.support_hi - cfg.support_lo)
    return x, y, float(max(x.max(), y.max()) - min(x.min(), y.min()))


def _moment_stats(x, weights=None):
    """Weighted mean and central moment matrix U = x - mean."""
    if weights is None:
        mean = x.mean(axis=0)
    else:
        mean = weights @ x
    return mean, x - mean


def cmd(x, y, cfg: CmdConfig = CmdConfig()) -> float:
    """Central moment discrepancy between two sample sets of equal dimension."""
    x, y, scale = _paired_samples(x, y, cfg)
    if scale == 0.0:
        return 0.0
    mx, ux = _moment_stats(x)
    my, uy = _moment_stats(y)
    total = np.linalg.norm(mx - my) / scale
    uxk, uyk = ux, uy
    for k in range(2, cfg.max_order + 1):
        uxk = uxk * ux
        uyk = uyk * uy
        total += np.linalg.norm(np.mean(uxk, axis=0) - np.mean(uyk, axis=0)) / scale**k
    return float(total)


def _normalize_weights(x, weights) -> np.ndarray:
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (x.shape[0],):
        raise ValueError(f"weights must have length {x.shape[0]}, got {w.shape}")
    if np.any(w < 0) or np.any(w > 1):
        raise ValueError("weights must lie in [0, 1]")
    total = w.sum()
    if total <= 0:
        raise ValueError("weights must have positive total")
    return w / total


def cmd_weighted_with_grad(x, weights, y, cfg: CmdConfig = CmdConfig()):
    """Weighted CMD and its gradient with respect to the raw weights.

    X's moments are weight-averaged, so uniform weights reduce to cmd().
    Returns (value, grad) where grad[j] = d CMD / d weights[j]. Support
    bounds, when data-driven, are treated as constants of the gradient.
    """
    x, y, scale = _paired_samples(x, y, cfg)
    w_raw = np.asarray(weights, dtype=np.float64)
    p = _normalize_weights(x, w_raw)
    total_w = w_raw.sum()
    if scale == 0.0:
        return 0.0, np.zeros_like(w_raw)

    mx, ux = _moment_stats(x, weights=p)
    my, uy = _moment_stats(y)

    value = 0.0
    grad = np.zeros_like(w_raw)

    # first-moment term; d mean / d w_j = u_j / W
    diff = mx - my
    nrm = np.linalg.norm(diff)
    value += nrm / scale
    if nrm > _NORM_FLOOR:
        grad += (ux @ (diff / nrm)) / (scale * total_w)

    # central moments; d c_k / d w_j = (u_j^k - c_k - k * c_{k-1} * u_j) / W
    ck_prev = np.zeros(x.shape[1])
    uk, uyk = ux, uy
    for k in range(2, cfg.max_order + 1):
        uk = uk * ux
        uyk = uyk * uy
        ck_x = p @ uk
        diff = ck_x - np.mean(uyk, axis=0)
        nrm = np.linalg.norm(diff)
        value += nrm / scale**k
        if nrm > _NORM_FLOOR:
            v = diff / (nrm * scale**k * total_w)
            grad += (uk - ck_x) @ v - k * (ux * ck_prev) @ v
        ck_prev = ck_x  # c_k becomes next round's c_{k-1}
    return float(value), grad


def kl_divergence(p_counts, q_counts, eps: float = 1e-8) -> float:
    """KL divergence between two binned distributions after additive smoothing.

    Both count vectors are shifted by ``eps`` and normalized before
    sum_i p_i * ln(p_i / q_i) is evaluated, so zero bins stay finite. Near-equal
    inputs can round that sum a few ulps below zero; the value is clamped to 0.
    """
    return max(kl_divergence_with_grad(p_counts, q_counts, eps)[0], 0.0)


def kl_divergence_with_grad(p_counts, q_counts, eps: float = 1e-8):
    """Smoothed KL and its gradient with respect to the raw P counts.

    Returns (value, grad) with grad[j] = (ln(p_j/q_j) - KL) / sum(P + eps).
    """
    if eps <= 0:
        raise ValueError(f"smoothing eps must be positive, got {eps}")
    p_raw = np.asarray(p_counts, dtype=np.float64)
    q_raw = np.asarray(q_counts, dtype=np.float64)
    if p_raw.shape != q_raw.shape:
        raise ValueError(f"bin-count mismatch: {p_raw.shape} vs {q_raw.shape}")
    cp = p_raw + eps
    cq = q_raw + eps
    total_p = cp.sum()
    p = cp / total_p
    q = cq / cq.sum()
    log_ratio = np.log(p) - np.log(q)
    value = float(np.sum(p * log_ratio))
    grad = (log_ratio - value) / total_p
    return value, grad
