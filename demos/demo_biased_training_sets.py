#!/usr/bin/env python3
"""Training-set bias and its effect on a plain message-passing backbone.

Builds training sets biased toward homophily, representative of the global
distribution, and biased toward heterophily, then trains the same backbone on
each and reports test accuracy plus per-homophily-bin accuracy.
"""

import numpy as np

from hcgst import (SynthConfig, TrainConfig, bin_distribution, forward,
                   generate_graph, init_params, k_hop_adjacency, kl_divergence,
                   make_partition, per_bin_accuracy, sample_training_set,
                   train_dual, true_homophily_profile)

graph = generate_graph(SynthConfig(
    n=500, classes=4, feature_dim=16, mean_degree=8,
    target_histogram=np.array([2, 2, 1.5, 1.5, 1, 1, 0.7, 0.7, 0.5, 0.5]),
    separation=1.2, cross_structure=0.85, seed=7))
truth = true_homophily_profile(graph)
global_bins = bin_distribution(truth, 10)
view = k_hop_adjacency(graph, 1)
empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))

print(f"{'mode':20s} {'KL(local||global)':>18s} {'test acc':>9s}  per-bin accuracy")
for mode in ("homophily_biased", "representative", "heterophily_biased"):
    accs, kls, bin_table = [], [], []
    for seed in range(3):
        labeled = sample_training_set(graph, 0.02, mode, 10, seed=seed)
        rest = np.setdiff1d(np.arange(graph.n), labeled)
        rng = np.random.default_rng([seed, 1])
        val = np.sort(rng.choice(rest, 50, replace=False))
        part = make_partition(graph.n, labeled, val)

        kls.append(kl_divergence(bin_distribution(truth[labeled], 10), global_bins))
        params = train_dual(init_params(graph.d, 32, graph.c, seed), graph, view,
                            (labeled, graph.labels[labeled]), empty, empty,
                            TrainConfig(), lambda_dual=0.09, validation=(val, graph.labels[val]))
        preds = np.argmax(forward(params, view, graph.features).logits, axis=1)
        accs.append(np.mean(preds[part.unlabeled] == graph.labels[part.unlabeled]))
        bin_table.append(per_bin_accuracy(preds, graph.labels, truth, 10, part.unlabeled))
    bins = np.nanmean(bin_table, axis=0)
    pretty = " ".join("  . " if np.isnan(b) else f"{b:.2f}" for b in bins)
    print(f"{mode:20s} {np.mean(kls):18.3f} {np.mean(accs):9.3f}  {pretty}")

print("\nthe representative mode tracks the global histogram (lowest KL);"
      "\nbiased sets concentrate their per-bin strengths where they sampled.")
