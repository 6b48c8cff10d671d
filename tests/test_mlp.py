import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qwtrain import mlp

FIXTURE_SOLUTION = np.array([0.5, 0.5, 1.0, -1.5, -1.5, 1.0, -1.0, -1.5, -1.0])


def test_forward_zero_weights():
    # hidden sigmoids at 0.5, linear output 0
    y1, y2, y3 = mlp.forward(np.zeros(9), 0, 0)
    assert (y1, y2, y3) == (0.5, 0.5, 0.0)


def test_forward_uses_subtracted_biases():
    w = np.array([1.0, 2.0, 0.5, 0.0, 0.0, 0.0, 1.0, 0.0, 0.25])
    y1, y2, y3 = mlp.forward(w, 1, 1)
    assert y1 == pytest.approx(1 / (1 + math.exp(-(1 + 2 - 0.5))))
    assert y2 == 0.5
    assert y3 == pytest.approx(y1 * 1.0 + 0.5 * 0.0 - 0.25)


def test_sigmoid_is_stable_for_huge_inputs():
    w = np.array([800.0, 800.0, -800.0, -900.0, -900.0, 900.0, 1.0, 1.0, 0.0])
    y1, y2, _ = mlp.forward(w, 1, 1)
    assert y1 == pytest.approx(1.0)
    assert y2 == pytest.approx(0.0)


def test_classify_threshold():
    w = np.zeros(9)
    w[8] = -0.5  # output bias -0.5 -> y3 = 0.5 exactly
    assert mlp.classify(w, 0, 0) == 1
    w[8] = -0.4999
    assert mlp.classify(w, 0, 0) == 0


def test_classification_error_counts_misses():
    assert mlp.classification_error(np.zeros(9)) == 2  # constant 0 misses the two 1s
    assert mlp.classification_error(FIXTURE_SOLUTION) == 0


def test_mse_is_the_mean_over_patterns():
    # zero weights: y3 = 0 for every pattern, errors (0, -1, -1, 0)
    assert mlp.mse(np.zeros(9)) == pytest.approx(0.5)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    for _ in range(10):
        w = rng.uniform(-1, 1, 9)
        g = mlp.mse_gradient(w)
        num = np.empty(9)
        for j in range(9):
            wp, wm = w.copy(), w.copy()
            wp[j] += 1e-6
            wm[j] -= 1e-6
            num[j] = (mlp.mse(wp) - mlp.mse(wm)) / 2e-6
        assert np.linalg.norm(g - num) <= 1e-6 * max(np.linalg.norm(num), 1e-12)


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=50, deadline=None)
def test_gradient_descends(seed):
    rng = np.random.default_rng(seed)
    w = rng.uniform(-1, 1, 9)
    g = mlp.mse_gradient(w)
    if np.linalg.norm(g) > 1e-9:
        assert mlp.mse(w - 1e-4 * g) < mlp.mse(w)


def test_config_validation():
    with pytest.raises(ValueError):
        mlp.BackpropConfig(learning_rate=0.0)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="learning_rate must be finite and positive"):
            mlp.BackpropConfig(learning_rate=bad)
    with pytest.raises(ValueError):
        mlp.BackpropConfig(max_epochs=0)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        mlp.BackpropConfig(seed=-1)
    for bad in (0, -5):
        with pytest.raises(ValueError, match="stagnation_window must be at least 1"):
            mlp.BackpropConfig(stagnation_window=bad)
    for field in ("max_epochs", "stagnation_window", "seed"):
        for bad in (1.5, 2.0, True, np.float64(3.0), "3", None):
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                mlp.BackpropConfig(**{field: bad})
    cfg = mlp.BackpropConfig(max_epochs=np.int64(5), stagnation_window=np.int32(2),
                             seed=np.uint8(3))
    assert mlp.backprop_train(cfg).epochs_used <= 5


def test_init_weights_deterministic_and_in_range():
    cfg = mlp.BackpropConfig(seed=11)
    a = mlp.init_weights(cfg)
    b = mlp.init_weights(cfg)
    assert np.array_equal(a, b)
    assert a.shape == (9,)
    assert (np.abs(a) <= mlp.INIT_RANGE).all()
    assert not np.array_equal(a, mlp.init_weights(mlp.BackpropConfig(seed=12)))


def test_backprop_seed_500_frozen_trajectory():
    res = mlp.backprop_train(mlp.BackpropConfig(seed=500))
    assert res.outcome == "success"
    assert res.epochs_used == 1063
    assert res.final_mse == pytest.approx(0.18207351920057852, abs=1e-15)
    assert mlp.classification_error(res.final_weights) == 0


def test_backprop_is_deterministic():
    a = mlp.backprop_train(mlp.BackpropConfig(seed=77))
    b = mlp.backprop_train(mlp.BackpropConfig(seed=77))
    assert a.outcome == b.outcome
    assert a.epochs_used == b.epochs_used
    assert np.array_equal(a.final_weights, b.final_weights)


def test_backprop_epoch_limit_at_tiny_learning_rate():
    res = mlp.backprop_train(mlp.BackpropConfig(learning_rate=1e-4, seed=500,
                                                max_epochs=2000))
    assert res.outcome == "epoch_limit"
    assert res.epochs_used == 2000


def test_backprop_stagnation_label():
    # freeze the weights entirely: zero learning makes the MSE flatline, which
    # must be reported as stagnation, not success
    res = mlp.backprop_train(mlp.BackpropConfig(learning_rate=1e-300, seed=500,
                                                stagnation_window=50,
                                                max_epochs=10000))
    assert res.outcome == "stagnation"
    assert res.epochs_used < 10000


def test_export_format(tmp_path):
    path = tmp_path / "bp.csv"
    res = mlp.backprop_train(mlp.BackpropConfig(seed=500))
    mlp.export_train_results([(0.5, 500, res)], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "lr,seed,outcome,epochs,final_mse"
    assert lines[1] == "0.5,500,success,1063,0.18207351920057852"


# The per-pattern loops that the one forward pass replaced, kept as the
# reference that mlp's helpers and trainer must match bit for bit.

def _ref_classification_error(weights):
    wrong = 0
    for (x0, x1), t in zip(mlp.XOR_INPUTS, mlp.XOR_TARGETS):
        if mlp.classify(weights, x0, x1) != int(t):
            wrong += 1
    return wrong


def _ref_mse(weights):
    s = 0.0
    for (x0, x1), t in zip(mlp.XOR_INPUTS, mlp.XOR_TARGETS):
        e = mlp.forward(weights, x0, x1)[2] - t
        s += e * e
    return s / 4.0


def _ref_mse_gradient(weights):
    w00, w01, th1, w10, w11, th2, w20, w21, th3 = weights
    g = np.zeros(9)
    for (x0, x1), t in zip(mlp.XOR_INPUTS, mlp.XOR_TARGETS):
        h1 = mlp.sigmoid(w00 * x0 + w01 * x1 - th1)
        h2 = mlp.sigmoid(w10 * x0 + w11 * x1 - th2)
        y = w20 * h1 + w21 * h2 - th3
        d = 0.5 * (y - t)
        dh1 = d * w20 * h1 * (1.0 - h1)
        dh2 = d * w21 * h2 * (1.0 - h2)
        g[0] += dh1 * x0
        g[1] += dh1 * x1
        g[2] -= dh1
        g[3] += dh2 * x0
        g[4] += dh2 * x1
        g[5] -= dh2
        g[6] += d * h1
        g[7] += d * h2
        g[8] -= d
    return g


def _ref_classifies_xor(w0, w1, t1, w2, w3, t2, a, b, c):
    for (x0, x1), t in zip(mlp.XOR_INPUTS, mlp.XOR_TARGETS):
        y = a * mlp.sigmoid(w0 * x0 + w1 * x1 - t1) + b * mlp.sigmoid(w2 * x0 + w3 * x1 - t2) - c
        if (y >= 0.5) != (t == 1.0):
            return False
    return True


def _ref_backprop_train(config):
    w0, w1, t1, w2, w3, t2, a, b, c = (float(v) for v in mlp.init_weights(config))
    if _ref_classifies_xor(w0, w1, t1, w2, w3, t2, a, b, c):
        weights = np.array([w0, w1, t1, w2, w3, t2, a, b, c])
        return "success", 0, weights, _ref_mse(weights)
    lr = config.learning_rate
    best = math.inf
    flat_epochs = 0
    outcome, epochs = "epoch_limit", config.max_epochs
    for ep in range(1, config.max_epochs + 1):
        g = [0.0] * 9
        sq = 0.0
        for (x0, x1), t in zip(mlp.XOR_INPUTS, mlp.XOR_TARGETS):
            h1 = mlp.sigmoid(w0 * x0 + w1 * x1 - t1)
            h2 = mlp.sigmoid(w2 * x0 + w3 * x1 - t2)
            y = a * h1 + b * h2 - c
            e = y - t
            sq += e * e
            d = 0.5 * e
            dh1 = d * a * h1 * (1.0 - h1)
            dh2 = d * b * h2 * (1.0 - h2)
            g[0] += dh1 * x0
            g[1] += dh1 * x1
            g[2] -= dh1
            g[3] += dh2 * x0
            g[4] += dh2 * x1
            g[5] -= dh2
            g[6] += d * h1
            g[7] += d * h2
            g[8] -= d
        w0 -= lr * g[0]
        w1 -= lr * g[1]
        t1 -= lr * g[2]
        w2 -= lr * g[3]
        w3 -= lr * g[4]
        t2 -= lr * g[5]
        a -= lr * g[6]
        b -= lr * g[7]
        c -= lr * g[8]
        if _ref_classifies_xor(w0, w1, t1, w2, w3, t2, a, b, c):
            outcome, epochs = "success", ep
            break
        cur = 0.25 * sq
        if cur < best - mlp.STAGNATION_EPS:
            best = cur
            flat_epochs = 0
        else:
            flat_epochs += 1
            if flat_epochs >= config.stagnation_window:
                outcome, epochs = "stagnation", ep
                break
    weights = np.array([w0, w1, t1, w2, w3, t2, a, b, c])
    return outcome, epochs, weights, _ref_mse(weights)


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


@pytest.mark.parametrize("config", [
    *(mlp.BackpropConfig(seed=s) for s in range(500, 550)),
    mlp.BackpropConfig(learning_rate=1e-4, seed=500, max_epochs=2000),
    mlp.BackpropConfig(learning_rate=1e-300, seed=500, stagnation_window=50,
                       max_epochs=10000),
    # at lr >= 2 the weights diverge to inf/NaN and the run stagnates, so the
    # bytes compared include NaN payloads
    *(mlp.BackpropConfig(learning_rate=lr, seed=s, max_epochs=5000)
      for lr in (2.0, 30.0) for s in range(5)),
], ids=lambda c: f"lr{c.learning_rate}-seed{c.seed}")
def test_backprop_matches_the_per_pattern_reference(config):
    res = mlp.backprop_train(config)
    outcome, epochs, weights, final_mse = _ref_backprop_train(config)
    assert (res.outcome, res.epochs_used) == (outcome, epochs)
    assert res.final_weights.tobytes() == weights.tobytes()
    assert _bits(res.final_mse) == _bits(final_mse)


_WEIGHTS = st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9)
# Signed zeros, near-overflow values, infinities and NaNs of either sign: in
# numpy scalars, as the helpers receive them, these set the sign bits of the
# NaNs an output or a gradient component carries.
_SPECIAL = st.sampled_from([0.0, -0.0, 1e308, -1e308, math.inf, -math.inf,
                            math.nan, -math.nan])


@given(st.one_of(
    _WEIGHTS,
    _WEIGHTS.map(lambda w: [300.0 * v for v in w]),
    # multiples of 0.5 in [-1, 1] put y3 exactly on the 0.5 threshold often
    st.lists(st.integers(-2, 2).map(lambda k: 0.5 * k), min_size=9, max_size=9),
    st.just([0.0] * 9),
    st.lists(st.one_of(_SPECIAL, st.floats(-2.0, 2.0)), min_size=9, max_size=9),
))
@example([0.0] * 8 + [-0.5])  # y3 = 0.5 on every pattern
# an exact fit: h1 = OR and h2 = AND saturate to 0.0 and 1.0, so every error is +0.0
@example([1600.0, 1600.0, 800.0, 1600.0, 1600.0, 2400.0, 1.0, -1.0, 0.0])
@settings(max_examples=300, deadline=None)
def test_helpers_match_the_per_pattern_reference(weights):
    w = np.array(weights)
    with np.errstate(all="ignore"):
        assert mlp.classification_error(w) == _ref_classification_error(w)
        assert _bits(mlp.mse(w)) == _bits(_ref_mse(w))
        assert mlp.mse_gradient(w).tobytes() == _ref_mse_gradient(w).tobytes()


# Special values reach the fused loop's edge cases: the sign of a zero, an
# infinite weight times a 0.0 input (NaN in some patterns only), NaN outputs
# in the success test and outputs exactly on the 0.5 threshold.
_EDGE = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 800.0, -800.0,
                         1e308, -1e308, math.inf, -math.inf])


@given(st.lists(st.one_of(_EDGE, st.floats(-2.0, 2.0)), min_size=9, max_size=9),
       st.sampled_from([0.5, 2.0, 1e-300]))
@settings(max_examples=300, deadline=None)
def test_backprop_from_edge_weights_matches_the_reference(weights, lr):
    config = mlp.BackpropConfig(learning_rate=lr, max_epochs=20, stagnation_window=3)
    init = np.array(weights)
    with mock.patch.object(mlp, "init_weights", lambda _: init.copy()), \
            np.errstate(all="ignore"):
        res = mlp.backprop_train(config)
        outcome, epochs, final_weights, final_mse = _ref_backprop_train(config)
    assert (res.outcome, res.epochs_used) == (outcome, epochs)
    assert res.final_weights.tobytes() == final_weights.tobytes()
    assert _bits(res.final_mse) == _bits(final_mse)
