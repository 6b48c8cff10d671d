"""The 2-2-1 perceptron for XOR and its backpropagation baseline.

Nine weights, laid out as (w00, w01, th1, w10, w11, th2, w20, w21, th3):
two sigmoid hidden neurons h_i = f(w_i0*x0 + w_i1*x1 - th_i) with
f(x) = 1/(1+e^-x), and a linear output y3 = w20*h1 + w21*h2 - th3. Biases are
subtracted. An input classifies as 1 when y3 >= 0.5.

The baseline trainer is plain full-batch gradient descent on the mean squared
error over the four XOR patterns, stopping at zero classification error, at
the epoch limit, or when the error stops improving (stagnation).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .seeding import substream

XOR_INPUTS = ((0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0))
XOR_TARGETS = (0.0, 1.0, 1.0, 0.0)

N_WEIGHTS = 9

STAGNATION_EPS = 1e-12


def sigmoid(x: float) -> float:
    """Logistic function, stable for large |x|."""
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


def forward(weights, x0: float, x1: float) -> tuple[float, float, float]:
    """Hidden outputs (y1, y2) and linear output y3."""
    w00, w01, th1, w10, w11, th2, w20, w21, th3 = weights
    y1 = sigmoid(w00 * x0 + w01 * x1 - th1)
    y2 = sigmoid(w10 * x0 + w11 * x1 - th2)
    y3 = w20 * y1 + w21 * y2 - th3
    return y1, y2, y3


def classify(weights, x0: float, x1: float) -> int:
    return 1 if forward(weights, x0, x1)[2] >= 0.5 else 0


def classification_error(weights) -> int:
    """How many of the four XOR patterns the net gets wrong (0..4)."""
    wrong = 0
    for (x0, x1), t in zip(XOR_INPUTS, XOR_TARGETS):
        if classify(weights, x0, x1) != int(t):
            wrong += 1
    return wrong


def mse(weights) -> float:
    """Mean over the four patterns of (y3 - target)^2."""
    s = 0.0
    for (x0, x1), t in zip(XOR_INPUTS, XOR_TARGETS):
        e = forward(weights, x0, x1)[2] - t
        s += e * e
    return s / 4.0


def mse_gradient(weights) -> np.ndarray:
    """Analytic gradient of mse() with respect to the nine weights."""
    w00, w01, th1, w10, w11, th2, w20, w21, th3 = weights
    g = np.zeros(N_WEIGHTS)
    for (x0, x1), t in zip(XOR_INPUTS, XOR_TARGETS):
        h1 = sigmoid(w00 * x0 + w01 * x1 - th1)
        h2 = sigmoid(w10 * x0 + w11 * x1 - th2)
        y = w20 * h1 + w21 * h2 - th3
        d = 0.5 * (y - t)  # dE/dy with E = mean of squared errors
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


@dataclass(frozen=True)
class BackpropConfig:
    learning_rate: float = 0.5
    max_epochs: int = 150000
    stagnation_window: int = 1000
    init_range: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be finite and positive")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class TrainResult:
    outcome: str  # success | epoch_limit | stagnation
    epochs_used: int
    final_weights: np.ndarray
    final_mse: float


def init_weights(config: BackpropConfig) -> np.ndarray:
    """Uniform init on [-init_range, init_range] from the backprop substream."""
    rng = substream(config.seed, "backprop-init")
    return rng.uniform(-config.init_range, config.init_range, N_WEIGHTS)


def _classifies_xor(w0, w1, t1, w2, w3, t2, a, b, c) -> bool:
    for (x0, x1), t in zip(XOR_INPUTS, XOR_TARGETS):
        y = a * sigmoid(w0 * x0 + w1 * x1 - t1) + b * sigmoid(w2 * x0 + w3 * x1 - t2) - c
        if (y >= 0.5) != (t == 1.0):
            return False
    return True


def backprop_train(config: BackpropConfig) -> TrainResult:
    """Full-batch gradient descent on the XOR task.

    One epoch is one gradient update over all four patterns. Returns after
    the first update that yields zero classification error (success), after
    max_epochs updates (epoch_limit), or once the pre-update MSE has failed
    to improve on its best by more than 1e-12 for stagnation_window epochs in
    a row (stagnation). An init that already classifies correctly counts as
    success with zero epochs. Bit-reproducible for a given config.
    """
    w = init_weights(config)
    w0, w1, t1, w2, w3, t2, a, b, c = (float(v) for v in w)
    if _classifies_xor(w0, w1, t1, w2, w3, t2, a, b, c):
        weights = np.array([w0, w1, t1, w2, w3, t2, a, b, c])
        return TrainResult("success", 0, weights, mse(weights))

    lr = config.learning_rate
    best = math.inf
    flat_epochs = 0
    outcome = "epoch_limit"
    epochs = config.max_epochs
    for ep in range(1, config.max_epochs + 1):
        g = [0.0] * N_WEIGHTS
        sq = 0.0
        for (x0, x1), t in zip(XOR_INPUTS, XOR_TARGETS):
            h1 = sigmoid(w0 * x0 + w1 * x1 - t1)
            h2 = sigmoid(w2 * x0 + w3 * x1 - t2)
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
        if _classifies_xor(w0, w1, t1, w2, w3, t2, a, b, c):
            outcome, epochs = "success", ep
            break
        cur = 0.25 * sq
        if cur < best - STAGNATION_EPS:
            best = cur
            flat_epochs = 0
        else:
            flat_epochs += 1
            if flat_epochs >= config.stagnation_window:
                outcome, epochs = "stagnation", ep
                break

    weights = np.array([w0, w1, t1, w2, w3, t2, a, b, c])
    return TrainResult(outcome, epochs, weights, mse(weights))


def export_train_results(rows, path) -> None:
    """CSV `lr,seed,outcome,epochs,final_mse`; rows are (lr, seed, TrainResult)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lr", "seed", "outcome", "epochs", "final_mse"])
        for lr, seed, res in rows:
            writer.writerow([repr(float(lr)), seed, res.outcome,
                             res.epochs_used, repr(float(res.final_mse))])
