"""Pseudo-label assignment through the multi-hop routing rule."""

from __future__ import annotations

import numpy as np

from .graph import _ids


def assign_pseudo_labels(one_hop_logits, multi_hop_logits, est_homophily, delta_h: float, nodes):
    """Argmax label of each node in ``nodes``, read from the multi-hop output
    where its estimated homophily is below delta_h and from the one-hop output
    otherwise; ties take the lowest class.

    Returns (labels, from_multi_hop), both co-indexed with ``nodes``.
    """
    z1 = np.asarray(one_hop_logits, dtype=np.float64)
    hk = np.asarray(multi_hop_logits, dtype=np.float64)
    hh = np.asarray(est_homophily, dtype=np.float64)
    if z1.shape != hk.shape:
        raise ValueError(f"output shape mismatch: {z1.shape} vs {hk.shape}")
    if hh.shape[0] != z1.shape[0]:
        raise ValueError("homophily estimates must be co-indexed with output rows")
    nodes = _ids("pseudo node", nodes, z1.shape[0])
    routed = hh[nodes] < delta_h
    rows = np.where(routed[:, None], hk[nodes], z1[nodes])
    return np.argmax(rows, axis=1).astype(np.int64), routed
