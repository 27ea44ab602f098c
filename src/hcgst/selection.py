"""Distribution-consistent pseudo-node selection.

Candidates are high-confidence unlabeled nodes. A relaxed selection vector
q in [0,1]^|C| is optimized by projected gradient descent against

    L_q = CMD(Z_global, q * Z_cand) + lambda_s * KL(bin_mass(q), target) + max(0, |q|_1 - K)

and the K highest-ranked candidates become the stage's pseudo-nodes.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .homophily import bin_index
from .metrics import CmdConfig, cmd_weighted_with_grad, kl_divergence_with_grad

KL_EPS = 1e-8


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
    cmd_cfg: CmdConfig = field(default_factory=CmdConfig)

    def __post_init__(self):
        m = len(self.candidates)
        if m < 1:
            raise ValueError("selection problem needs at least one candidate")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.cand_repr.shape[0] != m or self.cand_homophily.shape[0] != m:
            raise ValueError("candidate representations and homophily must be co-indexed with candidates")
        hh = np.asarray(self.cand_homophily)
        if hh.min() < 0 or hh.max() > 1:
            raise ValueError("candidate homophily ratios must lie in [0, 1]")
        target = np.asarray(self.target)
        if target.shape != (self.n_bins,):
            raise ValueError(f"target must have shape ({self.n_bins},), got {target.shape}")
        if np.any(target < 0):
            raise ValueError("target entries must be non-negative")


@dataclass
class SelectionVector:
    q: np.ndarray


@dataclass(frozen=True)
class PgdConfig:
    iterations: int = 200
    step_size: float = 0.05


def candidate_set(soft_labels, prior_pseudo, labeled, validation, delta_c: float) -> np.ndarray:
    """Nodes whose max softmax exceeds delta_c, minus prior pseudo, labeled and
    validation nodes; ascending node-id order. May be empty."""
    if not 0 < delta_c < 1:
        raise ValueError(f"delta_c must lie in (0, 1), got {delta_c}")
    soft = np.asarray(soft_labels, dtype=np.float64)
    conf = soft.max(axis=1)
    mask = conf > delta_c
    for excluded in (prior_pseudo, labeled, validation):
        excluded = np.asarray(excluded, dtype=np.int64)
        if excluded.size:
            mask[excluded] = False
    return np.nonzero(mask)[0].astype(np.int64)


def selection_bin_mass(q, cand_homophily, n_bins: int) -> np.ndarray:
    """Per-bin sum of selection weights, linear in q; float64, length ``n_bins``."""
    q = np.asarray(q, dtype=np.float64)
    idx = bin_index(cand_homophily, n_bins)
    return np.bincount(idx, weights=q, minlength=n_bins)


def selection_loss_and_grad(problem: SelectionProblem, q):
    """L_q, its gradient with respect to q, and the per-term breakdown."""
    q = np.asarray(q, dtype=np.float64)
    if q.sum() <= 0:
        raise RuntimeError("selection vector mass collapsed to zero; CMD term undefined")
    cmd_val, cmd_grad = cmd_weighted_with_grad(problem.cand_repr, q, problem.global_repr, problem.cmd_cfg)

    idx = bin_index(problem.cand_homophily, problem.n_bins)
    mass = np.bincount(idx, weights=q, minlength=problem.n_bins)
    kl_val, kl_mass_grad = kl_divergence_with_grad(mass, problem.target, KL_EPS)

    excess = q.sum() - problem.k
    penalty = max(0.0, excess)

    loss = cmd_val + problem.lambda_s * kl_val + penalty
    grad = cmd_grad + problem.lambda_s * kl_mass_grad[idx]
    if excess > 0:
        grad = grad + 1.0
    terms = {"cmd": cmd_val, "kl": kl_val, "penalty": penalty}
    return loss, grad, terms


def _check_finite(loss, terms, iteration):
    if np.isfinite(loss):
        return
    diverged = [name for name, val in terms.items() if not np.isfinite(val)]
    raise RuntimeError(f"selection loss non-finite at iteration {iteration}; diverged terms: {diverged}")


def optimize_selection(problem: SelectionProblem, opt_cfg: PgdConfig = PgdConfig(),
                       trace_path=None) -> SelectionVector:
    """Projected gradient descent on L_q over the box [0,1]^|C|.

    Starts from the uniform q0 = min(K/|C|, 1) and clamps after every step.
    Steps are normalized by the gradient's largest coordinate and decay as
    1/sqrt(t), so no entry moves more than ``step_size`` per iteration; raw
    fixed steps wipe out whole coordinate blocks or limit-cycle on the hinge
    when the KL term's log-ratios dwarf the q scale. Returns the iterate with
    the lowest observed loss (the initial point included). Optionally writes
    a per-iteration CSV trace.
    """
    m = len(problem.candidates)
    q = np.full(m, min(problem.k / m, 1.0))
    best_q, best_loss = q.copy(), np.inf
    rows = []
    for it in range(opt_cfg.iterations):
        loss, grad, terms = selection_loss_and_grad(problem, q)
        _check_finite(loss, terms, it)
        if loss < best_loss:
            best_loss, best_q = loss, q.copy()
        if trace_path is not None:
            rows.append([it, loss, terms["cmd"], terms["kl"], terms["penalty"], q.sum()])
        scale = np.max(np.abs(grad))
        if scale == 0.0:
            break
        # normalized diminishing steps: the hinge term makes L_q nonsmooth, and
        # a fixed raw-gradient step oscillates or wipes q out entirely
        step = opt_cfg.step_size / np.sqrt(it + 1.0)
        proposal = np.clip(q - step * grad / scale, 0.0, 1.0)
        if proposal.sum() == 0.0:
            break
        q = proposal
    loss, _, terms = selection_loss_and_grad(problem, q)
    _check_finite(loss, terms, opt_cfg.iterations)
    if loss < best_loss:
        best_loss, best_q = loss, q.copy()
    if trace_path is not None:
        rows.append([opt_cfg.iterations, loss, terms["cmd"], terms["kl"], terms["penalty"], q.sum()])
        with open(trace_path, "w", newline="\n") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(["iteration", "loss", "cmd", "kl", "penalty", "q_l1"])
            w.writerows(rows)
    return SelectionVector(q=best_q)


def top_k(q, k: int, candidates, confidence) -> np.ndarray:
    """The k candidates with largest q; ties broken by higher confidence, then
    lower node id. Returns all candidates when fewer than k exist."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    candidates = np.asarray(candidates, dtype=np.int64)
    if candidates.size == 0:
        return candidates
    q = np.asarray(q, dtype=np.float64)
    confidence = np.asarray(confidence, dtype=np.float64)
    order = np.lexsort((candidates, -confidence, -q))
    return candidates[order[: min(k, candidates.size)]]
