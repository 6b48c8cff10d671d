import math

import numpy as np
import pytest
from hypothesis import given, settings
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


def test_init_weights_deterministic_and_in_range():
    cfg = mlp.BackpropConfig(seed=11)
    a = mlp.init_weights(cfg)
    b = mlp.init_weights(cfg)
    assert np.array_equal(a, b)
    assert a.shape == (9,)
    assert (np.abs(a) <= cfg.init_range).all()
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
