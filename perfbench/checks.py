"""Output checks. Each returns a list of failure messages; empty means pass.

The checks compare hcgst with itself (its own scalar functions, its own
partition builder, a repeat of the same run), never with numbers stored from
another commit, so floating-point reassociation is not a failure.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

LABEL_RATE = 0.02
VAL_FRACTION = 0.05
N_BINS = 10
BIAS_MODE = "heterophily_biased"


def run_json_digest(path: Path) -> str:
    """sha256 of a run JSON with its ``generated_at`` timestamp removed."""
    doc = json.loads(Path(path).read_text())
    doc.pop("generated_at", None)
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def array_digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def check_run_report(doc: dict, graph, partition_builder) -> list:
    """One run JSON against the partition it must have started from."""
    fails = []
    seed = doc["seed"]
    part = partition_builder(graph, LABEL_RATE, BIAS_MODE, N_BINS, seed, VAL_FRACTION)
    labeled = set(part.labeled.tolist())
    validation = set(part.validation.tolist())
    k = doc["config"]["k_per_stage"] or len(labeled)
    pseudo = []
    for stage in doc["stages"]:
        if len(stage["selected"]) > k:
            fails.append(f"stage {stage['stage']} selected {len(stage['selected'])} > K={k}")
        pseudo.extend(stage["selected"])
    if len(set(pseudo)) != len(pseudo):
        fails.append("a node was pseudo-labeled twice")
    if any(not 0 <= v < graph.n for v in pseudo):
        fails.append("pseudo node id outside [0, n)")
    if labeled & set(pseudo):
        fails.append("pseudo nodes overlap the labeled set")
    if validation & set(pseudo):
        fails.append("pseudo nodes overlap the validation set")
    if doc["final_pseudo_count"] != len(pseudo):
        fails.append(f"final_pseudo_count {doc['final_pseudo_count']} != {len(pseudo)} selected")
    acc = doc["test_acc"]
    if not isinstance(acc, (int, float)) or not 0.0 <= acc <= 1.0:
        fails.append(f"test_acc {acc!r} outside [0, 1]")
    kl = doc["final_kl_true"]
    if not isinstance(kl, (int, float)) or not math.isfinite(kl):
        fails.append(f"final_kl_true {kl!r} is not finite")
    return fails


def check_profiles(est, true, soft, override, graph, sample, estimate_node, true_node) -> list:
    fails = []
    for name, prof in (("estimated", est), ("true", true)):
        if prof.shape != (graph.n,) or prof.min() < 0.0 or prof.max() > 1.0:
            fails.append(f"{name} homophily profile outside [0, 1] or misshapen")
    pinned = np.array(soft, dtype=np.float64, copy=True)
    nodes = np.fromiter(override.keys(), dtype=np.int64)
    pinned[nodes] = 0.0
    pinned[nodes, np.fromiter(override.values(), dtype=np.int64)] = 1.0
    for v in sample:
        v = int(v)
        if abs(estimate_node(pinned, graph, v) - est[v]) > 1e-12:
            fails.append(f"estimated profile disagrees with estimate_node_homophily at node {v}")
            break
    for v in sample:
        v = int(v)
        if abs(true_node(graph, v) - true[v]) > 1e-12:
            fails.append(f"true profile disagrees with true_node_homophily at node {v}")
            break
    return fails


def check_two_hop(view) -> list:
    b = view.binary_matrix()
    fails = []
    if (b != b.T).nnz:
        fails.append("2-hop view is not symmetric")
    if np.any(b.diagonal() != 0):
        fails.append("2-hop view has a non-zero diagonal")
    return fails


def check_training_set(nodes, n: int, mode: str) -> list:
    want = int(np.floor(LABEL_RATE * n))
    nodes = np.asarray(nodes)
    fails = []
    if nodes.size != want:
        fails.append(f"{mode} training set has {nodes.size} nodes, expected floor(0.02 n) = {want}")
    if np.unique(nodes).size != nodes.size or (nodes.size and (nodes.min() < 0 or nodes.max() >= n)):
        fails.append(f"{mode} training set has repeated or out-of-range nodes")
    return fails
