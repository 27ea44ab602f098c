import logging
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hcgst import selection
from hcgst.homophily import bin_distribution, bin_index, target_distribution
from hcgst.metrics import cmd_weighted_with_grad, kl_divergence_with_grad
from hcgst.selection import (SelectionProblem, candidate_set, optimize_selection,
                             project_capped_simplex, selection_bin_mass,
                             selection_loss_and_grad, top_k)


def _random_problem(seed, m=8, k=3, r=3, lambda_s=1.0, n_bins=5):
    rng = np.random.default_rng(seed)
    cand_repr = rng.standard_normal((m, r))
    global_repr = rng.standard_normal((4 * m, r))
    hh = rng.random(m)
    target = rng.integers(0, k + 1, size=n_bins).astype(float)
    return SelectionProblem(candidates=np.arange(m, dtype=np.int64), cand_repr=cand_repr,
                            global_repr=global_repr, cand_homophily=hh, target=target,
                            k=k, lambda_s=lambda_s, n_bins=n_bins)


def test_problem_rejects_target_of_wrong_length():
    with pytest.raises(ValueError, match="shape"):
        replace(_random_problem(0), target=np.ones(4))


def test_problem_rejects_negative_target_entry():
    with pytest.raises(ValueError, match="non-negative"):
        replace(_random_problem(0), target=np.array([1.0, 0.0, -1.0, 2.0, 0.0]))


@pytest.mark.parametrize("change, message", [({"cand_repr": np.full((8, 3), np.nan)}, "non-finite"),
                                             ({"global_repr": np.zeros((32, 2))}, "dimension mismatch")])
def test_problem_rejects_invalid_cmd_inputs_when_constructed(change, message):
    with pytest.raises(ValueError, match=message):
        replace(_random_problem(0), **change)


def test_single_bin_end_to_end():
    rng = np.random.default_rng(11)
    hh = rng.random(30)
    target = target_distribution(bin_distribution(hh, 1), bin_distribution(hh[:5], 1), k=4)
    assert target.tolist() == [4.0]
    cands = np.arange(10, 30)
    problem = SelectionProblem(candidates=cands, cand_repr=rng.standard_normal((20, 3)),
                               global_repr=rng.standard_normal((30, 3)), cand_homophily=hh[10:],
                               target=target, k=4, lambda_s=2.0, n_bins=1)
    q = optimize_selection(problem).q
    assert np.all((q >= 0.0) & (q <= 1.0))
    assert selection_loss_and_grad(problem, q)[2]["kl"] == 0.0  # one bin: P and target agree
    chosen = top_k(q, 4, cands, np.full(20, 0.9))
    assert chosen.size == 4 and np.all(np.isin(chosen, cands))


def test_candidate_set_uniform_soft_is_empty():
    soft = np.full((6, 4), 0.25)
    out = candidate_set(soft, [], [], [], delta_c=0.65)
    assert out.size == 0


def test_candidate_set_single_confident_node():
    soft = np.full((5, 2), 0.5)
    soft[3] = [0.9, 0.1]
    out = candidate_set(soft, [], [], [], delta_c=0.65)
    assert out.tolist() == [3]


def test_candidate_set_excludes_prior_pseudo_labeled_validation():
    soft = np.tile([0.9, 0.1], (6, 1))
    out = candidate_set(soft, prior_pseudo=[1], labeled=[2], validation=[3], delta_c=0.65)
    assert out.tolist() == [0, 4, 5]


@pytest.mark.parametrize("bad", [-1, 6])
def test_candidate_set_rejects_excluded_node_outside_the_graph(bad):
    soft = np.tile([0.9, 0.1], (6, 1))
    for excluded in ([[bad], [], []], [[], [bad], []], [[], [], [bad]]):
        with pytest.raises(ValueError, match=f"excluded node {bad} outside"):
            candidate_set(soft, *excluded, delta_c=0.65)


def test_candidate_set_rejects_bad_threshold():
    with pytest.raises(ValueError):
        candidate_set(np.ones((2, 2)), [], [], [], delta_c=1.5)


def test_bin_mass_all_ones_matches_integer_binning():
    rng = np.random.default_rng(2)
    hh = rng.random(40)
    mass = selection_bin_mass(np.ones(40), hh, 10)
    assert mass.tolist() == bin_distribution(hh, 10).tolist()


def test_bin_mass_zeros():
    assert selection_bin_mass(np.zeros(5), np.linspace(0, 1, 5), 10).sum() == 0.0


def test_bin_mass_hand_fixture():
    mass = selection_bin_mass([0.3, 0.7], [0.05, 0.95], 10)
    expected = [0.3, 0, 0, 0, 0, 0, 0, 0, 0, 0.7]
    assert mass.tolist() == expected


def test_bin_mass_linear_in_q():
    rng = np.random.default_rng(6)
    hh = rng.random(20)
    q = rng.random(20)
    base = selection_bin_mass(q, hh, 8)
    scaled = selection_bin_mass(0.25 * q, hh, 8)
    assert np.allclose(scaled, 0.25 * base, atol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_loss_gradient_matches_finite_differences(seed):
    problem = _random_problem(seed)
    rng = np.random.default_rng(100 + seed)
    q = rng.uniform(0.05, 0.95, size=8)
    _, grad, _ = selection_loss_and_grad(problem, q)
    fd = np.zeros_like(q)
    h = 1e-5
    for i in range(q.size):
        up, down = q.copy(), q.copy()
        up[i] += h
        down[i] -= h
        fd[i] = (selection_loss_and_grad(problem, up)[0] -
                 selection_loss_and_grad(problem, down)[0]) / (2 * h)
    denom = np.maximum(np.maximum(np.abs(grad), np.abs(fd)), 1e-8)
    assert np.max(np.abs(grad - fd) / denom) <= 1e-4


def test_optimize_full_selection_when_target_consistent():
    # |C| = K, target equal to the candidates' own bins, global sample equal to
    # the candidate rows: the all-ones q zeroes every term
    rng = np.random.default_rng(3)
    cand_repr = rng.standard_normal((5, 2))
    hh = rng.random(5)
    target = bin_distribution(hh, 5)
    problem = SelectionProblem(candidates=np.arange(5), cand_repr=cand_repr,
                               global_repr=cand_repr, cand_homophily=hh,
                               target=target, k=5, lambda_s=2.0, n_bins=5)
    q = optimize_selection(problem).q
    assert q.sum() >= 0.9 * 5


def test_lambda_zero_removes_kl_gradient():
    base = _random_problem(4, lambda_s=0.0)
    other_target = np.arange(5, dtype=float)
    swapped = SelectionProblem(candidates=base.candidates, cand_repr=base.cand_repr,
                               global_repr=base.global_repr, cand_homophily=base.cand_homophily,
                               target=other_target, k=base.k, lambda_s=0.0, n_bins=5)
    q = np.full(8, 0.4)
    _, g1, _ = selection_loss_and_grad(base, q)
    _, g2, _ = selection_loss_and_grad(swapped, q)
    assert np.array_equal(g1, g2)


def test_single_candidate_stays_in_box_and_budget():
    problem = _random_problem(5, m=1, k=1)
    q = optimize_selection(problem).q
    assert 0.0 <= q[0] <= 1.0


def test_budget_at_least_candidate_count():
    # K >= |C|: the whole box is feasible, so projection only clips and top-K
    # returns every candidate
    problem = _random_problem(7, m=5, k=7)
    v = np.array([0.0, 0.3, 1.0, 0.7, 0.2])
    assert np.array_equal(project_capped_simplex(v, problem.k), v)
    assert project_capped_simplex(np.array([-0.5, 2.0, 0.5, 1.5, 1.0]), 7).tolist() == [0, 1, 0.5, 1, 1]
    q = optimize_selection(problem).q
    assert np.all((q >= 0.0) & (q <= 1.0))
    chosen = top_k(q, problem.k, problem.candidates, np.full(5, 0.9))
    assert sorted(chosen.tolist()) == problem.candidates.tolist()


def test_many_candidates_per_pick_do_not_collapse_to_uniform_start():
    # |C| >= 30 K, and the uniform start K/|C| sums to K plus round-off: the
    # optimizer must still leave the start and cut L_q
    m, k = 613, 20
    problem = _random_problem(0, m=m, k=k)
    q0 = np.full(m, k / m)
    assert q0.sum() > k
    q = optimize_selection(problem).q
    loss, loss0 = selection_loss_and_grad(problem, q)[0], selection_loss_and_grad(problem, q0)[0]
    assert loss <= 0.1 * loss0
    assert not np.all(q == q[0])
    assert q.sum() <= k * (1 + 1e-9)


@pytest.mark.parametrize("seed", range(8))
def test_optimizer_box_and_descent_invariants(seed):
    problem = _random_problem(seed, m=10, k=4)
    q = optimize_selection(problem).q
    assert np.all(q >= 0.0) and np.all(q <= 1.0)
    q0 = np.full(10, min(4 / 10, 1.0))
    loss_q, _, _ = selection_loss_and_grad(problem, q)
    loss_q0, _, _ = selection_loss_and_grad(problem, q0)
    assert loss_q <= loss_q0 + 1e-12


def test_optimizer_deterministic():
    problem = _random_problem(9)
    a = optimize_selection(problem).q
    b = optimize_selection(problem).q
    assert np.array_equal(a, b)


def _pgd_recomputing_every_term(problem):
    """optimize_selection's iterates with nothing computed once per call: each
    iteration calls the CMD and KL gradients on the raw problem. Returns the
    lowest-loss iterate and whether any projection had to enforce the budget."""
    m = len(problem.candidates)
    q = best_q = np.full(m, min(problem.k / m, 1.0))
    best_loss, budget_active = np.inf, False
    for it in range(selection._ITERATIONS + 1):
        cmd_val, cmd_grad = cmd_weighted_with_grad(problem.cand_repr, q, problem.global_repr)
        idx = bin_index(problem.cand_homophily, problem.n_bins)
        kl_val, kl_grad = kl_divergence_with_grad(
            np.bincount(idx, weights=q, minlength=problem.n_bins), problem.target)
        loss = cmd_val + problem.lambda_s * kl_val
        grad = cmd_grad + problem.lambda_s * kl_grad[idx]
        if loss < best_loss:
            best_loss, best_q = loss, q
        scale = np.max(np.abs(grad))
        if it == selection._ITERATIONS or scale == 0.0:
            break
        v = q - selection._STEP_SIZE / np.sqrt(it + 1.0) * grad / scale
        budget_active |= bool(np.clip(v, 0.0, 1.0).sum() > problem.k)
        q = project_capped_simplex(v, problem.k)
        if q.sum() == 0.0:
            break
    return best_q, budget_active


@pytest.mark.parametrize("seed, m, k, active", [(1, 8, 3, True), (2, 12, 3, False),
                                                (6, 5, 5, False)])
def test_optimizer_fixed_terms_change_no_bit(seed, m, k, active):
    problem = _random_problem(seed, m=m, k=k)
    ref, budget_active = _pgd_recomputing_every_term(problem)
    assert budget_active == active
    assert np.array_equal(optimize_selection(problem).q, ref)


def test_optimizer_trace_csv(tmp_path, monkeypatch):
    problem = _random_problem(1, m=4, k=2)
    path = tmp_path / "trace.csv"
    monkeypatch.setattr(selection, "_ITERATIONS", 10)
    optimize_selection(problem, trace_path=path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iteration,loss,cmd,kl,q_l1"
    assert len(lines) == 12  # header + 10 iterates + final point


@pytest.mark.parametrize("cap", [0, 10])
def test_optimizer_logs_iterations_and_stop_reason(caplog, monkeypatch, cap):
    problem = _random_problem(2, m=12, k=3)
    monkeypatch.setattr(selection, "_ITERATIONS", cap)
    with caplog.at_level(logging.INFO, logger="hcgst.selection"):
        optimize_selection(problem)
    line = caplog.records[0].getMessage()
    assert line.startswith(f"selection: {cap} iterations, stop cap, L_q ")
    assert line.endswith("of K = 3")


def test_optimizer_vanishing_gradient_stops_converged(caplog):
    # identical representations give CMD 0 with zero gradient; lambda_s = 0
    # drops the KL term, so the start is stationary
    problem = replace(_random_problem(3, m=6, k=2, lambda_s=0.0),
                      cand_repr=np.ones((6, 3)), global_repr=np.ones((24, 3)))
    with caplog.at_level(logging.INFO, logger="hcgst.selection"):
        q = optimize_selection(problem).q
    assert np.all(q == 2 / 6)
    messages = [(r.levelno, r.getMessage()) for r in caplog.records]
    assert messages[0][1].startswith("selection: 0 iterations, stop converged")
    assert messages[1][0] == logging.WARNING and "uniform start" in messages[1][1]


def test_optimizer_zero_mass_step_stops_stalled(caplog, monkeypatch):
    problem = _random_problem(4, m=10, k=4)
    monkeypatch.setattr(selection, "project_capped_simplex", lambda v, k: np.zeros_like(v))
    with caplog.at_level(logging.INFO, logger="hcgst.selection"):
        q = optimize_selection(problem).q
    assert np.all(q == 0.4)
    assert caplog.records[0].getMessage().startswith("selection: 0 iterations, stop stalled")
    assert caplog.records[1].levelno == logging.WARNING


def _sorted_breakpoint_projection(v, k):
    """Exact projection onto {q in [0,1]^m : sum q <= k}: sum(clip(v - t, 0, 1))
    is piecewise linear in t with kinks at v_i and v_i - 1, so the threshold is
    interpolated between the two sorted kinks that bracket k."""
    q = np.clip(v, 0.0, 1.0)
    if q.sum() <= k:
        return q
    kinks = np.unique(np.concatenate([v, v - 1.0, [0.0]]))
    kinks = kinks[kinks >= 0.0]
    mass = np.array([np.clip(v - t, 0.0, 1.0).sum() for t in kinks])  # non-increasing
    j = int(np.searchsorted(-mass, -k))  # first kink with mass <= k
    t0, t1 = kinks[j - 1], kinks[j]
    tau = t0 + (mass[j - 1] - k) * (t1 - t0) / (mass[j - 1] - mass[j])
    return np.clip(v - tau, 0.0, 1.0)


_VECTORS = st.integers(1, 40).flatmap(
    lambda m: arrays(np.float64, m, elements=st.floats(-2.0, 3.0, allow_nan=False)))


@settings(max_examples=200, deadline=None)
@given(v=_VECTORS, k=st.floats(0.1, 50.0))
def test_projection_matches_sorted_breakpoint_projection(v, k):
    q = project_capped_simplex(v, k)
    assert np.all((q >= 0.0) & (q <= 1.0))
    assert q.sum() <= k * (1 + 1e-9)
    assert np.max(np.abs(q - _sorted_breakpoint_projection(v, k))) <= 1e-9


@st.composite
def _tied_vectors_and_tight_budgets(draw):
    """v drawn from a few values (exact 0 and 1 among the choices), so most
    entries tie, and a budget k just below sum(clip(v, 0, 1))."""
    pool = draw(st.lists(st.sampled_from([0.0, 1.0, 0.5, -0.5, 1.5, 2.0]) |
                         st.floats(-2.0, 3.0, allow_nan=False), min_size=1, max_size=4))
    v = np.array(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=200)))
    total = np.clip(v, 0.0, 1.0).sum()
    assume(total > 0.0)
    if draw(st.booleans()):
        k = total
        for _ in range(draw(st.integers(1, 4))):  # a few ulps below
            k = np.nextafter(k, 0.0)
    else:
        k = total * (1.0 - 10.0 ** -draw(st.integers(1, 16)))
    return v, float(k)


@settings(max_examples=300, deadline=None)
@given(_tied_vectors_and_tight_budgets())
def test_projection_budget_holds_without_slack(problem):
    v, k = problem
    q = project_capped_simplex(v, k)
    assert np.all((q >= 0.0) & (q <= 1.0))
    assert q.sum() <= k
    assert np.max(np.abs(q - _sorted_breakpoint_projection(v, k))) <= 1e-9


def test_projection_rejects_negative_budget():
    with pytest.raises(ValueError, match="budget"):
        project_capped_simplex(np.array([0.5, 0.2]), -1.0)


@settings(max_examples=100, deadline=None)
@given(v=st.integers(1, 40).flatmap(lambda m: arrays(np.float64, m, elements=st.floats(0.0, 1.0))),
       slack=st.floats(0.0, 5.0))
def test_projection_keeps_feasible_points(v, slack):
    k = v.sum() + slack
    assert np.array_equal(project_capped_simplex(v, k), v)


def test_top_k_ranks_by_q():
    out = top_k([0.9, 0.1, 0.5], 2, [10, 20, 30], [0.8, 0.8, 0.8])
    assert out.tolist() == [10, 30]


def test_top_k_tie_breaks_by_confidence():
    out = top_k([0.5, 0.5, 0.5], 1, [10, 20, 30], [0.7, 0.9, 0.8])
    assert out.tolist() == [20]


def test_top_k_tie_breaks_by_node_id_last():
    out = top_k([0.5, 0.5], 1, [42, 7], [0.9, 0.9])
    assert out.tolist() == [7]


def test_top_k_more_than_available_returns_all():
    out = top_k([0.2, 0.8], 5, [1, 2], [0.5, 0.5])
    assert sorted(out.tolist()) == [1, 2]


def test_top_k_empty_candidates():
    assert top_k([], 3, [], []).size == 0


_CONFIDENCES = st.one_of(st.sampled_from([0.7, 0.8, 0.9]), st.floats(0.5, 1.0))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_top_k_with_constant_q_ranks_by_confidence_then_id(data):
    m = data.draw(st.integers(0, 30))
    cands = data.draw(arrays(np.int64, m, elements=st.integers(0, 10_000), unique=True))
    conf = data.draw(arrays(np.float64, m, elements=_CONFIDENCES))  # ties are common
    k = data.draw(st.integers(1, m + 5))  # k > |C| included
    expected = cands[np.lexsort((cands, -conf))[:k]]
    assert np.array_equal(top_k(np.zeros(m), k, cands, conf), expected)


@pytest.mark.parametrize("seed", range(10))
def test_binary_top_k_beats_random_subsets(seed):
    # small-instance oracle: exhaustively score random K-subsets
    m, k = 10, 3
    problem = _random_problem(seed, m=m, k=k, lambda_s=1.5)
    qv = optimize_selection(problem).q
    conf = np.full(m, 0.5)
    chosen = top_k(qv, k, problem.candidates, conf)
    binary = np.zeros(m)
    binary[np.isin(problem.candidates, chosen)] = 1.0
    loss_sel, _, _ = selection_loss_and_grad(problem, binary)

    rng = np.random.default_rng(1000 + seed)
    losses = []
    for _ in range(100):
        subset = rng.choice(m, size=k, replace=False)
        ind = np.zeros(m)
        ind[subset] = 1.0
        losses.append(selection_loss_and_grad(problem, ind)[0])
    assert loss_sel <= np.median(losses)
