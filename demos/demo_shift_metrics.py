#!/usr/bin/env python3
"""Central moment discrepancy and smoothed KL divergence.

Shows CMD separating sample sets that share a mean but differ in higher
moments, the weighted variant with its analytic gradient, and KL between
binned homophily distributions.
"""

import numpy as np

from hcgst import CmdConfig, bin_distribution, cmd, cmd_weighted_with_grad, kl_divergence

rng = np.random.default_rng(0)

# same mean, different spread: the first-moment term is blind, CMD is not
tight = rng.normal(0.0, 0.2, size=(400, 3))
wide = rng.normal(0.0, 1.0, size=(400, 3))
cfg = CmdConfig(max_order=5)
print(f"cmd(tight, tight shuffled) = {cmd(tight, tight[rng.permutation(400)], cfg):.4f}")
print(f"cmd(tight, wide)           = {cmd(tight, wide, cfg):.4f}")

# weighting lets a soft selection reshape the compared set
base = np.concatenate([rng.normal(-2, 0.3, size=(50, 2)), rng.normal(2, 0.3, size=(50, 2))])
target = rng.normal(2, 0.3, size=(80, 2))
uniform = np.full(100, 0.5)
skewed = np.concatenate([np.full(50, 0.02), np.full(50, 0.98)])
print(f"\ncmd_weighted(base, uniform, target) = {cmd_weighted_with_grad(base, uniform, target)[0]:.4f}")
print(f"cmd_weighted(base, skewed,  target) = {cmd_weighted_with_grad(base, skewed, target)[0]:.4f}")

# the gradient says which weights to move to shrink the discrepancy
val, grad = cmd_weighted_with_grad(base, uniform, target)
print(f"gradient: mean over left-cluster rows {grad[:50].mean():+.4f}, "
      f"right-cluster rows {grad[50:].mean():+.4f}  (negative = increase weight)")

# KL over binned homophily distributions, smoothed so empty bins stay finite
global_bins = bin_distribution(rng.random(300), 10)
skew_bins = bin_distribution(rng.random(40) ** 3, 10)
print(f"\nKL(skewed local || global) = {kl_divergence(skew_bins, global_bins):.4f}")
print(f"KL(global || global)       = {kl_divergence(global_bins, global_bins):.4f}")
