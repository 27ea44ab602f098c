"""Soft-label homophily estimation and binned homophily-ratio distributions."""

from __future__ import annotations

import numpy as np

from .graph import Graph, _ids, _neighbour_agreement


def bin_index(ratios, n_bins: int) -> np.ndarray:
    """Map ratios in [0, 1] to 0-based bin indices over N even intervals.

    Intervals are [(i-1)/N, i/N) except the last, which is closed so that a
    ratio of exactly 1.0 lands in bin N.
    """
    ratios = np.atleast_1d(np.asarray(ratios, dtype=np.float64))
    if n_bins < 1:
        raise ValueError(f"bin count must be >= 1, got {n_bins}")
    if ratios.size and not (ratios.min() >= 0.0 and ratios.max() <= 1.0):  # NaN fails it
        bad = ratios[~((ratios >= 0.0) & (ratios <= 1.0))][0]
        raise ValueError(f"homophily ratio {bad} outside [0, 1]")
    edges = np.arange(1, n_bins, dtype=np.float64) / n_bins
    return np.searchsorted(edges, ratios, side="right")


def bin_distribution(ratios, n_bins: int) -> np.ndarray:
    """Histogram of homophily ratios over N even-width bins: float64 counts, length N."""
    return np.bincount(bin_index(ratios, n_bins), minlength=n_bins).astype(np.float64)


def _normalized_rows(soft_labels, n: int) -> np.ndarray:
    soft = np.asarray(soft_labels, dtype=np.float64)
    if soft.shape[0] != n:
        raise ValueError(f"soft labels have {soft.shape[0]} rows but the graph has {n} nodes")
    bad = np.argwhere(~((soft >= 0) & (soft < np.inf)))  # NaN fails both
    if bad.size:
        raise ValueError(f"soft labels must be finite and non-negative, got {soft[tuple(bad[0])]} "
                         f"at node {bad[0][0]}")
    norms = np.linalg.norm(soft, axis=1)
    zero = np.nonzero(norms == 0)[0]
    if zero.size:
        raise ValueError(f"soft-label row for node {int(zero[0])} has zero norm")
    return soft / norms[:, None]


def estimate_node_homophily(soft_labels, graph: Graph, node: int) -> float:
    """Mean cosine similarity between a node's soft label and its neighbors'.

    Non-negative vectors keep the result in [0, 1]; isolated nodes are 0 by
    convention.
    """
    unit = _normalized_rows(soft_labels, graph.n)
    node = int(_ids("node", node, graph.n))
    nb = graph.adj.indices[graph.adj.indptr[node]:graph.adj.indptr[node + 1]]
    if nb.size == 0:
        return 0.0
    # summed as the profile sums: neighbour rows in CSR order, then the dot product
    return float(np.clip((unit[nb].sum(axis=0) * unit[node]).sum() / nb.size, 0.0, 1.0))


def estimate_homophily_profile(soft_labels, graph: Graph, label_override=None) -> np.ndarray:
    """Estimated homophily ratio for every node in one pass.

    ``label_override`` maps node id -> class id; those rows are replaced by
    one-hot vectors before estimation, both as sources and as neighbors. Used
    to pin (pseudo-)labeled nodes to their known labels. Every row of
    ``soft_labels`` is checked, including those an override replaces.
    """
    unit = _normalized_rows(soft_labels, graph.n)
    if label_override:
        nodes = _ids("override node", np.fromiter(label_override.keys(), dtype=np.int64), graph.n)
        labs = _ids("override label", np.fromiter(label_override.values(), dtype=np.int64),  # keys' order
                    unit.shape[1])
        unit[nodes] = 0.0
        unit[nodes, labs] = 1.0  # a one-hot row is its own unit vector
    return np.clip(_neighbour_agreement(graph, unit), 0.0, 1.0)


def target_distribution(global_counts, local_counts, k: int) -> np.ndarray:
    """Per-bin number of new pseudo-nodes needed to pull the local distribution
    toward the global one after adding k nodes, as a float64 array.

    target_i = max(ceil(fr_i * (k + |local|) - local_i), 0) with fr_i the
    global bin frequency.
    """
    if not k >= 1:
        raise ValueError(f"k must be >= 1, got {k}")
    g = np.asarray(global_counts, dtype=np.float64)
    local = np.asarray(local_counts, dtype=np.float64)
    if g.shape != local.shape:
        raise ValueError(f"global and local bin counts differ in length: {g.shape} vs {local.shape}")
    total_g = g.sum()
    if total_g <= 0:
        raise ValueError("global distribution has zero total count")
    fr = g / total_g
    budget = k + local.sum()
    raw = np.ceil(fr * budget - local)
    return np.maximum(raw, 0.0)
