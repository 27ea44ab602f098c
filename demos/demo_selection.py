#!/usr/bin/env python3
"""Distribution-consistent pseudo-node selection, step by step.

Trains a backbone on a heterophily-biased labeled set, forms the
high-confidence candidate set, computes the per-bin target quotas, optimizes
the selection vector against CMD + KL within the budget |q|_1 <= K, and
compares the chosen pseudo-nodes' homophily bins against a pure confidence
top-K.
"""

import numpy as np

from hcgst import (SelectionProblem, SynthConfig, TrainConfig, bin_distribution,
                   candidate_set, estimate_homophily_profile, forward, generate_graph,
                   init_params, k_hop_adjacency, optimize_selection, sample_training_set,
                   selection_bin_mass, selection_loss_and_grad, softmax_rows, target_distribution,
                   top_k, train_dual)

graph = generate_graph(SynthConfig(
    n=500, classes=4, feature_dim=16, mean_degree=8,
    target_histogram=np.array([2, 2, 1.5, 1.5, 1, 1, 0.7, 0.7, 0.5, 0.5]),
    separation=1.2, cross_structure=0.85, seed=7))
labeled = sample_training_set(graph, 0.02, "heterophily_biased", 10, seed=1)
rest = np.setdiff1d(np.arange(graph.n), labeled)
val = np.sort(np.random.default_rng([1, 1]).choice(rest, 50, replace=False))

view = k_hop_adjacency(graph, 1)
empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
params = train_dual(init_params(graph.d, 32, graph.c, 1), graph, view,
                    (labeled, graph.labels[labeled]), empty, empty,
                    TrainConfig(), lambda_dual=0.09, validation=(val, graph.labels[val]))
logits = forward(params, view, graph.features)
soft = softmax_rows(logits)
conf = soft.max(axis=1)

override = {int(v): int(graph.labels[v]) for v in labeled}
est_h = estimate_homophily_profile(soft, graph, override)
cands = candidate_set(soft, [], labeled, val, delta_c=0.65)
print(f"{cands.size} candidates exceed the 0.65 confidence threshold")

k = labeled.size
global_est = bin_distribution(est_h, 10)
local_est = bin_distribution(est_h[labeled], 10)
target = target_distribution(global_est, local_est, k)
print("local bins :", local_est.astype(int))
print("target     :", target.astype(int))

problem = SelectionProblem(candidates=cands, cand_repr=logits[cands],
                           global_repr=logits, cand_homophily=est_h[cands],
                           target=target, k=k, lambda_s=2.0, n_bins=10)
q0 = np.full(cands.size, min(k / cands.size, 1.0))
loss0 = selection_loss_and_grad(problem, q0)[0]
qvec = optimize_selection(problem)
loss1, _, terms = selection_loss_and_grad(problem, qvec.q)
print(f"\nselection loss: {loss0:.3f} at init -> {loss1:.3f} after optimization "
      f"(cmd {terms['cmd']:.3f}, kl {terms['kl']:.3f}; |q|_1 {qvec.q.sum():.2f} <= K = {k})")

mass = selection_bin_mass(qvec.q, est_h[cands], 10)
scaled = mass / mass.sum() * target.sum()
print("q mass per bin (scaled to target total):", np.round(scaled, 1))

chosen = top_k(qvec.q, k, cands, conf[cands])
by_conf = top_k(np.zeros(cands.size), k, cands, conf[cands])  # constant q: confidence order
print("\nselected bins (optimized):", bin_distribution(est_h[chosen], 10).astype(int))
print("selected bins (top conf) :", bin_distribution(est_h[by_conf], 10).astype(int))
print("the relaxed q matches the target shape; top-K then extracts the heaviest",
      "entries, while pure confidence ranking drifts to the homophilic end.", sep="\n")
