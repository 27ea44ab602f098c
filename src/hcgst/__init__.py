"""Homophily-consistent graph self-training.

Distribution-aware pseudo-node selection for self-training on heterophilic
graphs: soft-label homophily estimation, CMD/KL shift metrics, a constrained
selection-vector optimizer, multi-hop pseudo-labeling, and a dual-head
message-passing classifier, plus synthetic fixtures and bias metrics.
"""

from .graph import (AdjacencyView, Graph, NodePartition, build_graph, graph_homophily,
                    k_hop_adjacency, load_graph_dir, make_partition, save_graph_dir,
                    true_homophily_profile, true_node_homophily)
from .homophily import (bin_distribution, estimate_homophily_profile, estimate_node_homophily,
                        target_distribution)
from .metrics import (CmdConfig, cmd, cmd_weighted, cmd_weighted_with_grad,
                      kl_divergence, kl_divergence_with_grad)
from .model import (ModelParams, TrainConfig, forward, gradient_check, init_params, predict,
                    softmax_rows, train_dual)
from .orchestrator import (BinReport, RunConfig, RunReport, StageReport, VARIANTS,
                           bias_metrics, per_bin_accuracy, run_self_training)
from .pseudolabel import assign_pseudo_labels
from .selection import (SelectionProblem, SelectionVector, candidate_set, optimize_selection,
                        selection_bin_mass, selection_loss_and_grad, top_k)
from .synth import BIAS_MODES, SynthConfig, generate_graph, sample_training_set

__version__ = "0.1.0"
