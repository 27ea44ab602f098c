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
    as the global min/max over both sample sets; set both or neither.
    """

    max_order: int = 5
    support_lo: float | None = None
    support_hi: float | None = None

    def __post_init__(self):
        if self.max_order < 1:
            raise ValueError(f"max_order must be >= 1, got {self.max_order}")
        if (self.support_lo is None) != (self.support_hi is None):
            raise ValueError("set both support_lo and support_hi, or neither")
        if self.support_lo is not None and not (self.support_hi > self.support_lo):
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
    """X and Y as checked sample matrices of equal width, and the support width |b - a|.

    CMD does not change when both sets and the support are divided by the
    width, so when the width's K-th power underflows (0/0 in the top moment
    term) or overflows a float, the sets are divided by the width and the
    width becomes 1.
    """
    x = _as_samples(x, "X")
    y = _as_samples(y, "Y")
    if x.shape[1] != y.shape[1]:
        raise ValueError(f"dimension mismatch: X has {x.shape[1]} columns, Y has {y.shape[1]}")
    if cfg.support_lo is not None:
        scale = float(cfg.support_hi - cfg.support_lo)
    else:
        scale = float(max(x.max(), y.max()) - min(x.min(), y.min()))
    if scale > 0.0 and not _power_fits(scale, cfg.max_order):
        return x / scale, y / scale, 1.0
    return x, y, scale


def _power_fits(scale: float, k: int) -> bool:
    """Whether scale**k is a positive finite float."""
    try:
        return scale**k > 0.0
    except OverflowError:
        return False


def _moments(x, max_order: int) -> list:
    """The mean of the rows of x, then their central-moment means of orders 2..max_order."""
    mean = x.mean(axis=0)
    u = x - mean
    out, uk = [mean], u
    for _ in range(2, max_order + 1):
        uk = uk * u
        out.append(np.mean(uk, axis=0))
    return out


def cmd(x, y, cfg: CmdConfig = CmdConfig()) -> float:
    """Central moment discrepancy between two sample sets of equal dimension."""
    x, y, scale = _paired_samples(x, y, cfg)
    if scale == 0.0:
        return 0.0
    pairs = zip(_moments(x, cfg.max_order), _moments(y, cfg.max_order))
    return float(sum(np.linalg.norm(mx - my) / scale**k for k, (mx, my) in enumerate(pairs, 1)))


def cmd_fixed_terms(x, y, cfg: CmdConfig = CmdConfig()):
    """The part of a weighted CMD of X against Y that no weight vector changes:
    X as a checked sample matrix, Y's moments (mean, then central-moment means
    of orders 2..K) and the support width. Pass it as ``fixed`` to
    :func:`cmd_weighted_with_grad` to compute it once for many weight vectors."""
    x, y, scale = _paired_samples(x, y, cfg)
    return x, _moments(y, cfg.max_order), scale


def cmd_weighted_with_grad(x, weights, y, cfg: CmdConfig = CmdConfig(), fixed=None):
    """Weighted CMD and its gradient with respect to the raw weights.

    X's moments are weight-averaged, so uniform weights reduce to cmd().
    Returns (value, grad) where grad[j] = d CMD / d weights[j]. Support
    bounds, when data-driven, are treated as constants of the gradient.
    ``fixed``, if given, is ``cmd_fixed_terms(x, y, cfg)`` of the same
    arguments; the result is the same to the bit.
    """
    x, y_moments, scale = cmd_fixed_terms(x, y, cfg) if fixed is None else fixed
    w_raw = np.asarray(weights, dtype=np.float64)
    if w_raw.shape != (x.shape[0],):
        raise ValueError(f"weights must have length {x.shape[0]}, got {w_raw.shape}")
    if not np.all((w_raw >= 0) & (w_raw <= 1)):  # NaN fails both
        raise ValueError("weights must lie in [0, 1]")
    total_w = w_raw.sum()
    if total_w <= 0:
        raise ValueError("weights must have positive total")
    if scale == 0.0:
        return 0.0, np.zeros_like(w_raw)
    p = w_raw / total_w

    # a weight total near the float minimum overflows 1/W; the finiteness check below reports it
    with np.errstate(all="ignore"):
        mx = p @ x
        ux = x - mx

        value = 0.0
        grad = np.zeros_like(w_raw)

        # first-moment term; d mean / d w_j = u_j / W
        diff = mx - y_moments[0]
        nrm = np.linalg.norm(diff)
        value += nrm / scale
        if nrm > _NORM_FLOOR:
            grad += (ux @ (diff / nrm)) / (scale * total_w)

        # central moments; d c_k / d w_j = (u_j^k - c_k - k * c_{k-1} * u_j) / W
        ck_prev = np.zeros(x.shape[1])
        uk = ux
        for k in range(2, cfg.max_order + 1):
            uk = uk * ux
            ck_x = p @ uk
            diff = ck_x - y_moments[k - 1]
            nrm = np.linalg.norm(diff)
            value += nrm / scale**k
            if nrm > _NORM_FLOOR:
                v = diff / (nrm * scale**k * total_w)
                grad += (uk - ck_x) @ v - k * (ux * ck_prev) @ v
            ck_prev = ck_x  # c_k becomes next round's c_{k-1}
    if not np.all(np.isfinite(grad)):
        raise ValueError(f"weight total {float(total_w)!r} gives a non-finite CMD gradient")
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
    if not 0 < eps < np.inf:
        raise ValueError(f"smoothing eps must be positive, got {eps}")
    p_raw = np.asarray(p_counts, dtype=np.float64)
    q_raw = np.asarray(q_counts, dtype=np.float64)
    if p_raw.shape != q_raw.shape:
        raise ValueError(f"bin-count mismatch: {p_raw.shape} vs {q_raw.shape}")
    for name, counts in (("P", p_raw), ("Q", q_raw)):
        bad = counts[~((counts >= 0) & (counts < np.inf))]  # NaN fails both
        if bad.size:
            raise ValueError(f"{name} bin count {bad[0]} is not finite and non-negative")
    cp = p_raw + eps
    cq = q_raw + eps
    total_p = cp.sum()
    p = cp / total_p
    q = cq / cq.sum()
    log_ratio = np.log(p) - np.log(q)
    value = float(np.sum(p * log_ratio))
    grad = (log_ratio - value) / total_p
    return value, grad
