#!/usr/bin/env python3
"""Estimating node homophily ratios from soft labels.

Generates a mixed-homophily synthetic graph, then compares the soft-label
cosine estimator against the ground-truth ratios: first with one-hot labels
(where the estimator is exact), then with the noisy soft labels of a weakly
trained classifier.
"""

import numpy as np

from hcgst import (SynthConfig, TrainConfig, bin_distribution,
                   estimate_homophily_profile, forward, generate_graph,
                   graph_homophily, init_params, k_hop_adjacency,
                   sample_training_set, train_dual, true_homophily_profile)

graph = generate_graph(SynthConfig(
    n=400, classes=4, feature_dim=12, mean_degree=8,
    target_histogram=np.array([2, 2, 1.5, 1.5, 1, 1, 0.7, 0.7, 0.5, 0.5]),
    separation=1.5, cross_structure=0.85, seed=1))
truth = true_homophily_profile(graph)
print(f"graph: {graph.n} nodes, {graph.n_edges} edges, "
      f"graph homophily {graph_homophily(graph):.3f}")
print("true ratio histogram (10 bins):", bin_distribution(truth, 10).astype(int))

# one-hot soft labels: the cosine estimator reduces to the label definition
one_hot = np.zeros((graph.n, graph.c))
one_hot[np.arange(graph.n), graph.labels] = 1.0
est_exact = estimate_homophily_profile(one_hot, graph)
print(f"\nwith one-hot labels the estimate is exact: "
      f"max |error| = {np.max(np.abs(est_exact - truth)):.2e}")

# soft labels from a model trained on 5% of nodes
labeled = sample_training_set(graph, 0.05, "representative", 10, seed=0)
empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
view = k_hop_adjacency(graph, 1)
params = train_dual(init_params(graph.d, 32, graph.c, 0), graph, view,
                    (labeled, graph.labels[labeled]), empty, empty,
                    TrainConfig(epochs=200), lambda_dual=0.09)
soft = forward(params, view, graph.features).soft

# labeled nodes are pinned to their known labels before estimating
override = {int(v): int(graph.labels[v]) for v in labeled}
est_soft = estimate_homophily_profile(soft, graph, override)
corr = np.corrcoef(est_soft, truth)[0, 1]
print(f"with model soft labels: mean |error| = {np.mean(np.abs(est_soft - truth)):.3f}, "
      f"correlation with truth = {corr:.3f}")
print("estimated histogram:", bin_distribution(est_soft, 10).astype(int))
