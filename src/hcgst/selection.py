"""Distribution-consistent pseudo-node selection.

Candidates are high-confidence unlabeled nodes. A relaxed selection vector
q is optimized by projected gradient descent on

    L_q = CMD(Z_global, q * Z_cand) + lambda_s * KL(bin_mass(q), target)
    subject to q in [0,1]^|C| and |q|_1 <= K,

the budget enforced by exact projection after every step, and the K
highest-ranked candidates become the stage's pseudo-nodes.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .graph import _ids
from .homophily import bin_index
from .metrics import cmd_fixed_terms, cmd_weighted_with_grad, kl_divergence_with_grad

_ITERATIONS = 200
_STEP_SIZE = 0.05

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SelectionProblem:
    candidates: np.ndarray      # (m,) node ids, ascending
    cand_repr: np.ndarray       # (m, r) candidate representations
    global_repr: np.ndarray     # (g, r) global representation sample
    cand_homophily: np.ndarray  # (m,) estimated ratios in [0, 1]
    target: np.ndarray          # (n_bins,) non-negative per-bin quotas
    k: int
    lambda_s: float
    n_bins: int

    def __post_init__(self):
        m = len(self.candidates)
        if m < 1:
            raise ValueError("selection problem needs at least one candidate")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.cand_repr.shape[0] != m or self.cand_homophily.shape[0] != m:
            raise ValueError("candidate representations and homophily must be co-indexed with candidates")
        target = np.asarray(self.target)
        if target.shape != (self.n_bins,):
            raise ValueError(f"target must have shape ({self.n_bins},), got {target.shape}")
        if np.any(target < 0):
            raise ValueError("target entries must be non-negative")
        # what L_q needs whatever q is, computed once: the CMD's fixed terms and each candidate's bin
        object.__setattr__(self, "cmd_fixed", cmd_fixed_terms(self.cand_repr, self.global_repr))
        object.__setattr__(self, "bins", bin_index(self.cand_homophily, self.n_bins))


@dataclass
class SelectionVector:
    q: np.ndarray


def candidate_set(soft_labels, prior_pseudo, labeled, validation, delta_c: float) -> np.ndarray:
    """Nodes whose max softmax exceeds delta_c, minus prior pseudo, labeled and
    validation nodes; ascending node-id order. May be empty. An excluded id
    outside [0, n) is a ValueError."""
    if not 0 < delta_c < 1:
        raise ValueError(f"delta_c must lie in (0, 1), got {delta_c}")
    soft = np.asarray(soft_labels, dtype=np.float64)
    conf = soft.max(axis=1)
    mask = conf > delta_c
    for excluded in (prior_pseudo, labeled, validation):
        mask[_ids("excluded node", excluded, mask.size)] = False
    return np.nonzero(mask)[0].astype(np.int64)


def selection_bin_mass(q, cand_homophily, n_bins: int) -> np.ndarray:
    """Per-bin sum of selection weights, linear in q; float64, length ``n_bins``."""
    q = np.asarray(q, dtype=np.float64)
    idx = bin_index(cand_homophily, n_bins)
    return np.bincount(idx, weights=q, minlength=n_bins)


def selection_loss_and_grad(problem: SelectionProblem, q):
    """L_q, its gradient with respect to q, and the per-term breakdown."""
    q = np.asarray(q, dtype=np.float64)
    cmd_val, cmd_grad = cmd_weighted_with_grad(problem.cand_repr, q, problem.global_repr,
                                               fixed=problem.cmd_fixed)

    mass = np.bincount(problem.bins, weights=q, minlength=problem.n_bins)
    kl_val, kl_mass_grad = kl_divergence_with_grad(mass, problem.target)

    weighted_kl = problem.lambda_s * kl_val
    loss = cmd_val + weighted_kl
    grad = cmd_grad + problem.lambda_s * kl_mass_grad[problem.bins]
    return loss, grad, {"cmd": cmd_val, "kl": kl_val, "lambda_s*kl": weighted_kl}


def project_capped_simplex(v, k: float) -> np.ndarray:
    """Euclidean projection of v onto {q in [0,1]^m : sum(q) <= k}, k >= 0: the
    clipped v if that meets the budget, else clip(v - tau, 0, 1) with tau > 0
    where the sum is k (Wang & Lu, arXiv:1503.01002).

    f(t) = sum(clip(v - t, 0, 1)) is piecewise linear in t with kinks at v_i
    and v_i - 1. From v sorted and its prefix sums, f is evaluated at every
    kink at once, and tau is solved for on the segment where f crosses k.
    Rounding can leave the clipped sum a few ulps above k; tau then moves up,
    by steps that double, until it is not, so the sum never exceeds k.
    """
    if not k >= 0:
        raise ValueError(f"budget k must be >= 0, got {k}")
    v = np.asarray(v, dtype=np.float64)
    q = np.clip(v, 0.0, 1.0)
    if q.sum() <= k:
        return q
    s = np.sort(v)
    prefix = np.concatenate([[0.0], np.cumsum(s)])

    def f_parts(t):
        """f(t) = (m - hi) + prefix[hi] - prefix[lo] - (hi - lo) t, and hi - lo: the
        entries above t + 1 give 1 each, those in (t, t + 1) give v_i - t."""
        lo, hi = np.searchsorted(s, t, side="right"), np.searchsorted(s, t + 1.0, side="left")
        return (s.size - hi) + (prefix[hi] - prefix[lo]), hi - lo

    kinks = np.sort(np.concatenate([s, s - 1.0]))
    kinks = kinks[kinks > 0.0]  # not empty: some v_i exceeds 0, as f(0) > k
    const, slope = f_parts(kinks)
    j = min(int(np.searchsorted(slope * kinks - const, -k)), kinks.size - 1)  # first f <= k
    t0, t1 = (kinks[j - 1] if j else 0.0), kinks[j]
    const, slope = f_parts(0.5 * (t0 + t1))  # f is linear between the two kinks
    tau = min(max((const - k) / slope, t0), t1) if slope else t1

    q = np.clip(v - tau, 0.0, 1.0)
    excess = q.sum() - k
    step = max(np.spacing(tau), excess / max(slope, 1))
    while excess > 0.0 and tau < s[-1]:
        tau = min(tau + step, s[-1])
        step *= 2.0
        q = np.clip(v - tau, 0.0, 1.0)
        excess = q.sum() - k
    return q


def optimize_selection(problem: SelectionProblem) -> SelectionVector:
    """Projected gradient descent on L_q subject to q in [0,1]^|C|, |q|_1 <= K.

    From the uniform q0 = min(K/|C|, 1), each of at most ``_ITERATIONS``
    steps moves at most ``_STEP_SIZE / sqrt(t)`` per entry against the
    max-normalized gradient and is projected onto the budget set. Stops with
    ``converged`` (zero gradient), ``stalled`` (a step left no mass, so L_q
    is undefined) or ``cap``, logged on one INFO line. Returns the
    lowest-loss iterate, the start included.
    """
    m = len(problem.candidates)
    q0 = np.full(m, min(problem.k / m, 1.0))
    q, best_q, best_loss = q0, q0, np.inf
    reason = "cap"
    for it in range(_ITERATIONS + 1):
        loss, grad, terms = selection_loss_and_grad(problem, q)
        if not np.isfinite(loss):
            diverged = [name for name, val in terms.items() if not np.isfinite(val)]
            raise RuntimeError(f"selection loss non-finite at iteration {it}; diverged terms: {diverged}")
        if it == 0:
            start_loss = loss
        if loss < best_loss:
            best_loss, best_q = loss, q
        if it == _ITERATIONS:
            break
        scale = np.max(np.abs(grad))
        if scale == 0.0:
            reason = "converged"
            break
        step = _STEP_SIZE / np.sqrt(it + 1.0)
        q = project_capped_simplex(q - step * grad / scale, problem.k)
        if q.sum() == 0.0:
            reason = "stalled"
            break
    logger.info("selection: %d iterations, stop %s, L_q %.6g -> %.6g, |q|_1 %.6g of K = %d",
                it, reason, start_loss, best_loss, best_q.sum(), problem.k)
    if best_q is q0:
        logger.warning("selection: no iterate improved on the uniform start (stop %s)", reason)
    return SelectionVector(q=best_q)


def top_k(q, k: int, candidates, confidence) -> np.ndarray:
    """The k candidates with largest q; ties broken by higher confidence, then
    lower node id, so a constant q ranks by confidence alone. Returns all
    candidates when fewer than k exist."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    candidates = np.asarray(candidates, dtype=np.int64)
    if candidates.size == 0:
        return candidates
    q = np.asarray(q, dtype=np.float64)
    confidence = np.asarray(confidence, dtype=np.float64)
    order = np.lexsort((candidates, -confidence, -q))
    return candidates[order[: min(k, candidates.size)]]
