#!/usr/bin/env python3
"""End-to-end self-training: stage trajectory and training-bias metrics.

Runs the full framework and the confidence-only baseline from the same
heterophily-biased labeled set, prints the per-stage trajectory, and compares
final accuracy, local/global KL, and the per-bin bias metrics.
"""

import numpy as np

from hcgst import (RunConfig, SynthConfig, generate_graph, make_partition,
                   run_self_training, sample_training_set)

graph = generate_graph(SynthConfig(
    n=500, classes=4, feature_dim=16, mean_degree=8,
    target_histogram=np.array([2, 2, 1.5, 1.5, 1, 1, 0.7, 0.7, 0.5, 0.5]),
    separation=1.2, cross_structure=0.85, seed=7))


def fresh_partition(seed=0):
    labeled = sample_training_set(graph, 0.02, "heterophily_biased", 10, seed)
    rest = np.setdiff1d(np.arange(graph.n), labeled)
    val = np.sort(np.random.default_rng([seed, 1]).choice(rest, 50, replace=False))
    return make_partition(graph.n, labeled, val)


SEED = 5
reports = {}
for variant in ("backbone_only", "st_confidence", "hcgst"):
    cfg = RunConfig(variant=variant, seed=SEED)
    reports[variant] = run_self_training(graph, fresh_partition(SEED), cfg)

print("hcgst stage trajectory:")
print(f"{'stage':>5} {'selected':>8} {'multi-hop':>9} {'pseudo mean h':>13} "
      f"{'KL(L||G)':>9} {'val acc':>8} {'test acc':>8}")
for s in reports["hcgst"].stage_reports:
    print(f"{s.stage:5d} {len(s.selected):8d} {s.n_multi_hop:9d} "
          f"{s.pseudo_mean_est_h:13.3f} {s.kl_local_global_est:9.3f} "
          f"{s.val_acc:8.3f} {s.test_acc:8.3f}")

print(f"\n{'variant':15s} {'ACC':>6} {'TPV':>7} {'NPV':>7} {'PPV':>7} {'final KL':>9}")
for variant, rep in reports.items():
    br = rep.bin_report
    kl = rep.final_kl_est if np.isfinite(rep.final_kl_est) else float("nan")
    print(f"{variant:15s} {br.acc_st:6.3f} {br.tpv:+7.3f} {br.npv:+7.3f} "
          f"{br.ppv:+7.3f} {kl:9.3f}")

print("\nper-bin accuracy delta vs backbone (self-trained minus backbone):")
for variant in ("st_confidence", "hcgst"):
    br = reports[variant].bin_report
    deltas = " ".join(f"{d:+.2f}" for d in br.deltas)
    print(f"  {variant:15s} {deltas}")
