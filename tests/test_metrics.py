import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from hcgst.metrics import (CmdConfig, cmd, cmd_weighted_with_grad,
                           kl_divergence, kl_divergence_with_grad)


def test_cmd_identical_sets_is_zero():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((20, 4))
    assert cmd(x, x) == 0.0


@pytest.mark.parametrize("seed", range(5))
def test_cmd_symmetry(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((15, 3))
    y = rng.standard_normal((9, 3))
    assert cmd(x, y) == pytest.approx(cmd(y, x), abs=1e-12)


@st.composite
def _integer_sample_pair(draw):
    d = draw(st.integers(1, 5))
    row = st.lists(st.integers(-10, 10), min_size=d, max_size=d)
    x, y = (np.array(draw(st.lists(row, min_size=1, max_size=30)), dtype=np.float64)
            for _ in range(2))
    return x, y


@settings(max_examples=200, deadline=None)
@given(_integer_sample_pair(), st.floats(0.1, 10.0), st.floats(-10.0, 10.0))
def test_cmd_affine_invariant_and_symmetric(pair, a, b):
    # the data-driven support scales by a and the central moments ignore b, so
    # CMD is unchanged; abs covers rounding where the discrepancy is zero
    x, y = pair
    base = cmd(x, y)
    assert cmd(a * x + b, a * y + b) == pytest.approx(base, rel=1e-9, abs=1e-12)
    assert cmd(y, x) == base


@st.composite
def _weighted_sample_pair(draw):
    """An affinely mapped integer pair, weights in [0, 1] with a positive total, and K."""
    x, y = draw(_integer_sample_pair())
    a, b = draw(st.floats(0.1, 10.0)), draw(st.floats(-10.0, 10.0))
    w = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=len(x), max_size=len(x))))
    assume(w.sum() > 0)
    return a * x + b, w, a * y + b, draw(st.integers(1, 6))


@settings(max_examples=200, deadline=None)
@given(_weighted_sample_pair())
def test_cmd_scale_bounds(case):
    # after dividing by |b - a| the mean term is at most sqrt(d) and each of the
    # K - 1 central-moment terms at most 2 sqrt(d); the factor allows rounding
    x, w, y, max_order = case
    cfg = CmdConfig(max_order=max_order)
    bound = (2 * max_order - 1) * np.sqrt(x.shape[1]) * (1 + 1e-9)
    assert 0.0 <= cmd(x, y, cfg) <= bound
    try:
        weighted = cmd_weighted_with_grad(x, w, y, cfg)[0]
    except ValueError as err:  # raised for a non-finite gradient, so only near the float minimum
        assert "weight total" in str(err) and w.sum() < 1e-300
        return
    assert 0.0 <= weighted <= bound


@pytest.mark.parametrize("x, y", [([[1e-70], [0.0]], [[0.0]]), ([[1e-200]], [[0.0]]),
                                  ([[0.0, 3e-90], [2e-90, 0.0]], [[1e-90, 1e-90]])])
def test_cmd_finite_when_support_width_power_underflows(x, y):
    # width**5 is 0 here; CMD of the samples divided by the width is the same value
    x, y = np.array(x), np.array(y)
    width = max(x.max(), y.max()) - min(x.min(), y.min())
    bound = (2 * 5 - 1) * np.sqrt(x.shape[1])
    w = np.linspace(1.0, 0.5, len(x))
    with np.errstate(all="raise"):
        value = cmd(x, y)
        weighted, grad = cmd_weighted_with_grad(x, w, y)
    assert 0.0 <= value <= bound and value == cmd(x / width, y / width)
    assert 0.0 <= weighted <= bound and np.all(np.isfinite(grad))
    assert weighted == cmd_weighted_with_grad(x / width, w, y / width)[0]


def test_cmd_finite_when_support_width_power_overflows():
    # 1e70**5 overflows a float; CMD of the samples divided by the width is the same value
    x, y, w = [[1e70], [0.0]], [[0.0]], [1.0, 1.0]
    value = cmd(x, y)
    weighted, grad = cmd_weighted_with_grad(x, w, y)
    assert value == cmd([[1.0], [0.0]], [[0.0]]) == 0.8125
    assert np.isfinite(weighted) and np.all(np.isfinite(grad))
    ref_value, ref_grad = cmd_weighted_with_grad([[1.0], [0.0]], w, [[0.0]])
    assert weighted == ref_value and np.array_equal(grad, ref_grad)


def test_cmd_first_moment_fixture():
    # ||0 - 1|| / |1 - 0| with only the first moment
    cfg = CmdConfig(max_order=1, support_lo=0.0, support_hi=1.0)
    assert cmd([[0.0]], [[1.0]], cfg) == pytest.approx(1.0, abs=1e-10)


def test_cmd_second_moment_fixture():
    # equal means, variances 1 vs 0, scale 1/(b-a)^2 = 1/4
    cfg = CmdConfig(max_order=2, support_lo=0.0, support_hi=2.0)
    assert cmd([[0.0], [2.0]], [[1.0], [1.0]], cfg) == pytest.approx(0.25, abs=1e-10)


def test_cmd_row_permutation_invariant():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((12, 3))
    y = rng.standard_normal((8, 3))
    xp = x[rng.permutation(12)]
    assert cmd(x, y) == pytest.approx(cmd(xp, y), abs=1e-12)


def test_cmd_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        cmd(np.zeros((3, 2)), np.zeros((3, 4)))


def test_cmd_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        cmd(np.array([[np.nan]]), np.array([[1.0]]))


def test_cmd_weighted_uniform_matches_unweighted():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((25, 5))
    y = rng.standard_normal((10, 5))
    w = np.full(25, 0.37)
    assert cmd_weighted_with_grad(x, w, y)[0] == pytest.approx(cmd(x, y), abs=1e-10)


def test_cmd_weighted_one_hot_degenerates_to_single_row():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((6, 3))
    y = rng.standard_normal((5, 3))
    w = np.zeros(6)
    w[2] = 1.0
    lo = min(x.min(), y.min())
    hi = max(x.max(), y.max())
    cfg = CmdConfig(support_lo=lo, support_hi=hi)  # pin support so both calls agree
    assert cmd_weighted_with_grad(x, w, y, cfg)[0] == pytest.approx(cmd(x[2:3], y, cfg), abs=1e-10)


def test_cmd_weighted_mean_fixture():
    # weighted mean 0.75*0 + 0.25*2 = 0.5 equals the target mean
    cfg = CmdConfig(max_order=1, support_lo=0.0, support_hi=2.0)
    val = cmd_weighted_with_grad([[0.0], [2.0]], [0.75, 0.25], [[0.5]], cfg)[0]
    assert val == pytest.approx(0.0, abs=1e-12)


def test_cmd_weighted_rejects_zero_total():
    with pytest.raises(ValueError, match="positive total"):
        cmd_weighted_with_grad(np.zeros((3, 2)), np.zeros(3), np.zeros((2, 2)))


@pytest.mark.parametrize("w", [[5e-324, 0.0], [1e-310, 1e-310]])
def test_cmd_weighted_rejects_weight_total_too_small_for_a_finite_gradient(w):
    # 1 / W overflows; the value would be finite, the gradient NaN. The error is the one signal.
    total = repr(float(np.sum(w)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"weight total {total} "):
            cmd_weighted_with_grad([[0.0], [1.0]], w, [[0.5], [0.2]])


def test_cmd_weighted_gradient_finite_at_a_tiny_normal_weight_total():
    value, grad = cmd_weighted_with_grad([[0.0], [1.0]], [1e-300, 0.0], [[0.5], [0.2]])
    assert value == cmd([[0.0]], [[0.5], [0.2]], CmdConfig(support_lo=0.0, support_hi=1.0))
    assert grad[0] == 0.0 and np.isfinite(grad[1]) and grad[1] < -1e300


@pytest.mark.parametrize("bound", [{"support_lo": -100.0}, {"support_hi": 100.0}])
def test_cmd_config_rejects_a_single_support_bound(bound):
    with pytest.raises(ValueError, match="both support_lo and support_hi"):
        CmdConfig(**bound)


@pytest.mark.parametrize("settings, message", [
    ({"max_order": 0}, "max_order must be >= 1, got 0"),
    ({"support_lo": 1.0, "support_hi": 1.0}, "support_hi must exceed support_lo"),
    ({"support_lo": 1.0, "support_hi": -1.0}, "support_hi must exceed support_lo"),
])
def test_cmd_config_rejects_bad_settings(settings, message):
    with pytest.raises(ValueError, match=message):
        CmdConfig(**settings)


@pytest.mark.parametrize("x, y, name", [
    (np.zeros((2, 2, 2)), np.zeros((3, 2)), "X"),
    (np.zeros((0, 2)), np.zeros((3, 2)), "X"),
    (np.zeros((3, 2)), np.empty(0), "Y"),
])
def test_cmd_rejects_samples_that_are_not_a_non_empty_matrix(x, y, name):
    with pytest.raises(ValueError, match=f"{name} must be a non-empty 2-d sample matrix"):
        cmd(x, y)


def test_cmd_weighted_rejects_weights_of_another_length():
    with pytest.raises(ValueError, match=r"weights must have length 3, got \(2,\)"):
        cmd_weighted_with_grad(np.zeros((3, 2)), [0.5, 0.5], np.zeros((2, 2)))


def test_cmd_weighted_rejects_out_of_box_weights():
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        cmd_weighted_with_grad(np.zeros((2, 2)), [0.5, 1.5], np.zeros((2, 2)))


def test_kl_identical_is_zero():
    p = np.array([3.0, 1.0, 2.0])
    assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-15)


def test_kl_disjoint_is_large_but_finite():
    val = kl_divergence(np.array([1.0, 0.0]), np.array([0.0, 1.0]), eps=1e-8)
    assert np.isfinite(val)
    assert val > 10.0


def test_kl_hand_fixture():
    # KL((0.75, 0.25) || (0.5, 0.5)) = 0.75 ln 1.5 + 0.25 ln 0.5
    val = kl_divergence(np.array([3.0, 1.0]), np.array([1.0, 1.0]), eps=1e-10)
    assert val == pytest.approx(0.75 * np.log(1.5) + 0.25 * np.log(0.5), abs=1e-6)


def _bins(n, lo=0.0, hi=1.0):
    return st.lists(st.floats(lo, hi), min_size=n, max_size=n).map(np.array)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10).flatmap(lambda n: st.tuples(_bins(n), _bins(n))))
def test_kl_non_negative(pq):
    p, q = pq
    assert kl_divergence(p, q) >= 0.0


@pytest.mark.parametrize("p, q, message", [
    ([-1.0, 2.0], [1.0, 1.0], "P bin count -1.0 "),
    ([np.inf, 2.0], [1.0, 1.0], "P bin count inf "),
    ([1.0, 2.0], [np.nan, 1.0], "Q bin count nan "),
    ([1.0, 2.0], [1.0, -np.inf], "Q bin count -inf "),
])
@pytest.mark.parametrize("kl", [kl_divergence, kl_divergence_with_grad])
def test_kl_rejects_negative_and_non_finite_counts(kl, p, q, message):
    # they used to read as nan with RuntimeWarnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message + "is not finite and non-negative"):
            kl(p, q)


@pytest.mark.parametrize("eps", [0.0, -1e-8, float("nan")])
def test_kl_rejects_non_positive_eps(eps):
    with pytest.raises(ValueError, match=f"smoothing eps must be positive, got {eps}"):
        kl_divergence([1.0, 2.0], [1.0, 1.0], eps=eps)


def test_kl_rejects_bin_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        kl_divergence(np.ones(3), np.ones(4))


def _fd_grad(fn, w, h=1e-5):
    grad = np.zeros_like(w)
    for i in range(w.size):
        up, down = w.copy(), w.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (fn(up) - fn(down)) / (2 * h)
    return grad


def _rel_err(a, b):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return np.max(np.abs(a - b) / denom)


# The finite-difference properties draw continuous samples from a seed: on
# lattice draws the exact gradient can be 0 where the difference quotient's
# rounding (~1e-11) already exceeds the 1e-8 floor of _rel_err.
_SEEDS = st.integers(0, 2**32 - 1)


@pytest.mark.parametrize("n_central", range(5))  # central-moment terms, max_order - 1
@settings(max_examples=30, deadline=None)
@given(st.integers(2, 12), st.integers(1, 4), _SEEDS)
def test_cmd_weighted_grad_matches_finite_differences(n_central, rows, d, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((rows, d))
    y = rng.standard_normal((14, d))
    w = rng.uniform(0.1, 0.9, size=rows)
    cfg = CmdConfig(max_order=n_central + 1, support_lo=float(min(x.min(), y.min())),
                    support_hi=float(max(x.max(), y.max())))
    _, grad = cmd_weighted_with_grad(x, w, y, cfg)
    fd = _fd_grad(lambda ww: cmd_weighted_with_grad(x, ww, y, cfg)[0], w)
    assert _rel_err(grad, fd) <= 1e-4


@pytest.mark.parametrize("n_empty", range(5))  # bins of Q that hold no count
@settings(max_examples=30, deadline=None)
@given(st.integers(1, 10), _SEEDS)
def test_kl_grad_matches_finite_differences(n_empty, n_bins, seed):
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.5, 5.0, size=n_bins)
    q = rng.uniform(0.0, 5.0, size=n_bins)
    q[:n_empty] = 0.0
    _, grad = kl_divergence_with_grad(p, q)
    fd = _fd_grad(lambda pp: kl_divergence(pp, q), p)
    assert _rel_err(grad, fd) <= 1e-4


def _cmd_power_reference(x, w, y, max_order):
    """Weighted CMD and its weight gradient, with every moment from np.power."""
    total_w = w.sum()
    p = w / total_w
    scale = max(x.max(), y.max()) - min(x.min(), y.min())
    ux = x - p @ x
    uy = y - y.mean(axis=0)
    diff = p @ x - y.mean(axis=0)
    value = np.linalg.norm(diff) / scale
    grad = ux @ (diff / np.linalg.norm(diff)) / (scale * total_w)
    c_prev = np.zeros(x.shape[1])
    for k in range(2, max_order + 1):
        c_k = p @ np.power(ux, k)
        diff = c_k - np.mean(np.power(uy, k), axis=0)
        value += np.linalg.norm(diff) / scale**k
        v = diff / (np.linalg.norm(diff) * scale**k * total_w)
        grad += (np.power(ux, k) - c_k) @ v - k * (ux * c_prev) @ v
        c_prev = c_k
    return value, grad


@pytest.mark.parametrize("seed", range(3))
def test_cmd_moments_match_power_reference(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((300, 4)) + 0.3
    y = 1.5 * rng.standard_normal((500, 4))
    w = rng.uniform(0.05, 1.0, size=300)
    cfg = CmdConfig(max_order=5)
    ref_value, ref_grad = _cmd_power_reference(x, w, y, 5)
    value, grad = cmd_weighted_with_grad(x, w, y, cfg)
    assert value == pytest.approx(ref_value, rel=1e-12)
    assert np.max(np.abs(grad - ref_grad)) <= 1e-12 * np.max(np.abs(ref_grad))
    assert cmd(x, y, cfg) == pytest.approx(_cmd_power_reference(x, np.ones(300), y, 5)[0], rel=1e-12)
