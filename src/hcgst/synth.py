"""Seeded synthetic graphs with controllable homophily-ratio distributions,
plus biased training-set samplers for desk-scale experiments."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .graph import Graph, build_graph, true_homophily_profile
from .homophily import bin_index

logger = logging.getLogger(__name__)

BIAS_MODES = ("homophily_biased", "representative", "heterophily_biased")
_EDGE_RETRIES = 30


@dataclass
class SynthConfig:
    n: int = 500
    classes: int = 4
    feature_dim: int = 16
    mean_degree: float = 8.0
    target_histogram: np.ndarray = field(default_factory=lambda: np.ones(10))
    separation: float = 1.0
    cross_structure: float = 0.6  # 0: uniform cross-class wiring; 1: always the next class
    seed: int = 0

    def __post_init__(self):
        self.target_histogram = np.asarray(self.target_histogram, dtype=np.float64)
        if np.any(self.target_histogram < 0) or self.target_histogram.sum() <= 0:
            raise ValueError("target_histogram must be non-negative with positive sum")
        if self.classes < 1 or self.feature_dim < 1:
            raise ValueError(f"classes and feature_dim must be >= 1, got {self.classes} and {self.feature_dim}")
        if not self.mean_degree >= 0:
            raise ValueError(f"mean_degree must be >= 0, got {self.mean_degree}")
        if not self.separation >= 0:
            raise ValueError(f"separation must be >= 0, got {self.separation}")
        if not 0 <= self.cross_structure <= 1:
            raise ValueError("cross_structure must lie in [0, 1]")


def generate_graph(cfg: SynthConfig) -> Graph:
    """Wire a labeled graph whose node homophily ratios follow a target histogram.

    Each node draws a personal target ratio from the histogram and hosts edges
    that pick a same-class partner with that probability. Cross-class edges
    prefer the paired class (0-1, 2-3, ...) with probability
    ``cross_structure`` and a uniform other class otherwise, so heterophilic
    neighborhoods stay class-informative and two-hop neighborhoods lean back
    toward the node's own class, the way real heterophilic graphs behave.
    Partners are sampled with weights favoring nodes whose own targets match
    the edge type, which keeps per-node realized ratios close to their
    targets. Features are class means (pairwise distance set by
    ``separation``) plus unit Gaussian noise.
    """
    n, c = cfg.n, cfg.classes
    if cfg.mean_degree > n - 1:
        raise ValueError(f"mean degree {cfg.mean_degree} infeasible for {n} nodes")
    rng = np.random.default_rng(cfg.seed)

    labels = rng.integers(0, c, size=n)
    n_bins = cfg.target_histogram.shape[0]
    probs = cfg.target_histogram / cfg.target_histogram.sum()
    node_bin = rng.choice(n_bins, size=n, p=probs)
    target_h = (node_bin + rng.random(n)) / n_bins

    by_class = [np.nonzero(labels == k)[0] for k in range(c)]
    same_cdf = [_partner_cdf(target_h[idx] + 1e-3) for idx in by_class]
    cross_cdf = [_partner_cdf((1.0 - target_h[idx]) + 1e-3) for idx in by_class]

    budget = int(round(n * cfg.mean_degree / 2))
    seen = set()
    edges = []
    label_of, target_of = labels.tolist(), target_h.tolist()
    for i in range(budget):
        v = i % n
        k = label_of[v]
        want_same = c == 1 or rng.random() < target_of[v]
        for _ in range(_EDGE_RETRIES):
            if want_same:
                pool, cdf = by_class[k], same_cdf[k]
                if pool.size <= 1:
                    break
            else:
                paired = k ^ 1
                if paired < c and rng.random() < cfg.cross_structure:
                    j = paired
                else:
                    j = int(rng.integers(0, c - 1))
                    j = j if j < k else j + 1
                pool, cdf = by_class[j], cross_cdf[j]
                if pool.size == 0:
                    continue
            partner = int(pool[cdf.searchsorted(rng.random(), side="right")])
            if partner == v:
                continue
            key = (v, partner) if v < partner else (partner, v)
            if key not in seen:
                seen.add(key)
                edges.append(key)
                break

    means = rng.standard_normal((c, cfg.feature_dim))
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    means *= cfg.separation
    features = means[labels] + rng.standard_normal((n, cfg.feature_dim))
    return build_graph(edges, features, labels, n_classes=c)


def _partner_cdf(weights: np.ndarray) -> np.ndarray | None:
    """Cumulative table that turns one ``rng.random()`` draw into a weighted pick.

    The arithmetic is that of ``Generator.choice(pool, p=weights / weights.sum())``
    with one draw, so ``pool[cdf.searchsorted(rng.random(), side="right")]``
    consumes the same double and returns the same partner. Empty pools get no
    table: the wiring loop never draws from them.
    """
    if weights.size == 0:
        return None
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf


def _largest_remainder(fractions: np.ndarray, total: int) -> np.ndarray:
    """Integer allocation of ``total`` proportional to non-negative fractions."""
    if fractions.sum() <= 0:
        raise ValueError("cannot allocate against an all-zero fraction vector")
    quota = fractions / fractions.sum() * total
    alloc = np.floor(quota).astype(np.int64)
    short = total - alloc.sum()
    if short > 0:
        order = np.argsort(-(quota - alloc), kind="stable")
        alloc[order[:short]] += 1
    return alloc


def sample_training_set(graph: Graph, label_rate: float, mode: str, n_bins: int, seed: int) -> np.ndarray:
    """Draw a labeled training set whose true-homophily histogram follows a bias mode.

    homophily_biased puts the whole budget in the top 4 bins, heterophily_biased
    in the bottom 4, and representative matches the global bin frequencies.
    When a bin runs out of nodes the shortfall falls back to the nearest
    non-exhausted bins, with one logged warning per exhausted bin.
    """
    if mode not in BIAS_MODES:
        raise ValueError(f"unknown bias mode {mode!r}; expected one of {BIAS_MODES}")
    if graph.labels is None:
        raise ValueError("training-set sampling needs ground-truth labels")
    if graph.n == 0:
        raise ValueError("empty graph")
    if not 0 < label_rate < 1:
        raise ValueError(f"label_rate must lie in (0, 1), got {label_rate}")
    budget = int(np.floor(label_rate * graph.n))
    if budget < graph.c:
        raise ValueError(f"label budget {budget} below class count {graph.c}")

    ratios = true_homophily_profile(graph)
    idx = bin_index(ratios, n_bins)
    bins = [np.nonzero(idx == b)[0] for b in range(n_bins)]
    sizes = np.array([b.size for b in bins], dtype=np.float64)

    if mode == "representative":
        weights = sizes
    else:
        weights = np.zeros(n_bins)
        span = min(4, n_bins)
        window = slice(n_bins - span, n_bins) if mode == "homophily_biased" else slice(0, span)
        weights[window] = np.maximum(sizes[window], 1e-9)
    targets = _largest_remainder(weights, budget)

    rng = np.random.default_rng(seed)
    chosen, remaining = [], []
    for b in range(n_bins):
        perm = rng.permutation(bins[b])
        chosen.extend(perm[:targets[b]].tolist())
        remaining.append(perm[targets[b]:])

    for b in np.flatnonzero(targets > sizes).tolist():  # each exhausted bin borrows from its nearest bins
        need, lenders = int(targets[b] - sizes[b]), []
        for j in sorted(range(n_bins), key=lambda j: (abs(j - b), j)):  # nearer first, lower on ties
            if need and remaining[j].size:
                take, remaining[j] = remaining[j][:need], remaining[j][need:]
                chosen.extend(take.tolist())
                need -= take.size
                lenders.append(j)
        logger.warning("bin %d exhausted: wanted %d nodes, found %d, borrowed from bins %s",
                       b, targets[b], bins[b].size, sorted(lenders))
    return np.array(sorted(chosen), dtype=np.int64)
