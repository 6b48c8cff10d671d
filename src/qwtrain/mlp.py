"""The 2-2-1 perceptron for XOR and its backpropagation baseline.

Nine weights, laid out as (w00, w01, th1, w10, w11, th2, w20, w21, th3):
two sigmoid hidden neurons h_i = f(w_i0*x0 + w_i1*x1 - th_i) with
f(x) = 1/(1+e^-x), and a linear output y3 = w20*h1 + w21*h2 - th3. Biases are
subtracted. An input classifies as 1 when y3 >= 0.5.

The baseline trainer is plain full-batch gradient descent on the mean squared
error over the four XOR patterns, stopping at zero classification error, at
the epoch limit, or when the error stops improving (stagnation).

`_descend`, the trainer's epoch loop, is the one code that runs the network
on the four patterns and writes the error sum and the gradient. The
classification error, the MSE and the gradient are read off its pass at zero
epochs. `forward` writes the same expressions for one pattern; it serves
`classify` and the per-pattern reference tests, which pin `_descend` to it
bit for bit.
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

INIT_RANGE = 1.0  # initial weights are uniform on [-INIT_RANGE, INIT_RANGE]

STAGNATION_EPS = 1e-12


def sigmoid(x: float) -> float:
    """Logistic function, stable for large |x|. The package's one logistic:
    the oracle's hidden-unit tables take their values from it too."""
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


def _descend(weights, lr, max_epochs: int, window: int) -> tuple:
    """Gradient descent from `weights`; the one code that runs all four patterns.

    Returns (outcome, epochs, weights, sq, grad, (y0, y1, y2, y3)): the nine
    weights as a tuple and, of the last pass, the error sum over the four
    patterns, the nine-component gradient and the four outputs. With
    max_epochs=0 it makes one pass at `weights` and returns. The weights are
    used as given, without conversion: numpy scalars and Python floats can
    differ in the sign bit of a NaN they produce.

    An epoch keeps the nine weights in locals and writes the four patterns
    out inline, calling nothing but `sigmoid`. The pass repeats `forward`'s
    expressions with x0, x1 in {0.0, 1.0} (`w * 1.0` is `w` and `y - 0.0` is
    `y`, bit for bit) and sums the error and gradient over the patterns in
    order from 0.0, as a per-pattern `+=` loop would; that order keeps the
    signs of zeros, and the `* 0.0` terms stay because they carry a NaN from
    a non-finite weight. Tests pin it bit for bit to a per-pattern reference
    built on `forward`.
    """
    w00, w01, th1, w10, w11, th2, a, b, c = weights
    best = math.inf
    flat_epochs = 0
    outcome = "epoch_limit"
    ep = 0
    while True:
        h10 = sigmoid(w00 * 0.0 + w01 * 0.0 - th1)
        h20 = sigmoid(w10 * 0.0 + w11 * 0.0 - th2)
        h11 = sigmoid(w00 * 0.0 + w01 - th1)
        h21 = sigmoid(w10 * 0.0 + w11 - th2)
        h12 = sigmoid(w00 + w01 * 0.0 - th1)
        h22 = sigmoid(w10 + w11 * 0.0 - th2)
        h13 = sigmoid(w00 + w01 - th1)
        h23 = sigmoid(w10 + w11 - th2)
        y0 = a * h10 + b * h20 - c
        y1 = a * h11 + b * h21 - c
        y2 = a * h12 + b * h22 - c
        y3 = a * h13 + b * h23 - c
        e1 = y1 - 1.0
        e2 = y2 - 1.0
        sq = 0.0 + y0 * y0 + e1 * e1 + e2 * e2 + y3 * y3
        d0 = 0.5 * y0
        d1 = 0.5 * e1
        d2 = 0.5 * e2
        d3 = 0.5 * y3
        p0 = d0 * a * h10 * (1.0 - h10)
        p1 = d1 * a * h11 * (1.0 - h11)
        p2 = d2 * a * h12 * (1.0 - h12)
        p3 = d3 * a * h13 * (1.0 - h13)
        q0 = d0 * b * h20 * (1.0 - h20)
        q1 = d1 * b * h21 * (1.0 - h21)
        q2 = d2 * b * h22 * (1.0 - h22)
        q3 = d3 * b * h23 * (1.0 - h23)
        g0 = 0.0 + p0 * 0.0 + p1 * 0.0 + p2 + p3
        g1 = 0.0 + p0 * 0.0 + p1 + p2 * 0.0 + p3
        g2 = 0.0 - p0 - p1 - p2 - p3
        g3 = 0.0 + q0 * 0.0 + q1 * 0.0 + q2 + q3
        g4 = 0.0 + q0 * 0.0 + q1 + q2 * 0.0 + q3
        g5 = 0.0 - q0 - q1 - q2 - q3
        g6 = 0.0 + d0 * h10 + d1 * h11 + d2 * h12 + d3 * h13
        g7 = 0.0 + d0 * h20 + d1 * h21 + d2 * h22 + d3 * h23
        g8 = 0.0 - d0 - d1 - d2 - d3
        if not y0 >= 0.5 and y1 >= 0.5 and y2 >= 0.5 and not y3 >= 0.5:
            outcome = "success"
            break
        if ep:  # epoch ep's stagnation test reads its pre-update MSE
            if cur < best - STAGNATION_EPS:
                best = cur
                flat_epochs = 0
            else:
                flat_epochs += 1
                if flat_epochs >= window:
                    outcome = "stagnation"
                    break
        if ep == max_epochs:
            break
        ep += 1
        cur = 0.25 * sq
        w00 -= lr * g0
        w01 -= lr * g1
        th1 -= lr * g2
        w10 -= lr * g3
        w11 -= lr * g4
        th2 -= lr * g5
        a -= lr * g6
        b -= lr * g7
        c -= lr * g8
    return (outcome, ep, (w00, w01, th1, w10, w11, th2, a, b, c), sq,
            (g0, g1, g2, g3, g4, g5, g6, g7, g8), (y0, y1, y2, y3))


def classification_error(weights) -> int:
    """How many of the four XOR patterns the net gets wrong (0..4).

    `not y >= 0.5` is `classify`'s test for a 0 target; unlike `y < 0.5`, it
    counts a NaN output as 0.
    """
    y0, y1, y2, y3 = _descend(weights, 1.0, 0, 1)[5]
    return [not y0 >= 0.5, y1 >= 0.5, y2 >= 0.5, not y3 >= 0.5].count(False)


def mse(weights) -> float:
    """Mean over the four patterns of (y3 - target)^2."""
    return _descend(weights, 1.0, 0, 1)[3] / 4.0


def mse_gradient(weights) -> np.ndarray:
    """Analytic gradient of mse() with respect to the nine weights."""
    return np.array(_descend(weights, 1.0, 0, 1)[4])


@dataclass(frozen=True)
class BackpropConfig:
    learning_rate: float = 0.5
    max_epochs: int = 150000
    stagnation_window: int = 1000
    seed: int = 0

    def __post_init__(self):
        for name in ("max_epochs", "stagnation_window", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be finite and positive")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be at least 1")
        if self.stagnation_window < 1:
            raise ValueError("stagnation_window must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class TrainResult:
    outcome: str  # success | epoch_limit | stagnation
    epochs_used: int
    final_weights: np.ndarray
    final_mse: float


def init_weights(config: BackpropConfig) -> np.ndarray:
    """Uniform init on [-INIT_RANGE, INIT_RANGE] from the backprop substream."""
    rng = substream(config.seed, "backprop-init")
    return rng.uniform(-INIT_RANGE, INIT_RANGE, N_WEIGHTS)


def backprop_train(config: BackpropConfig) -> TrainResult:
    """Full-batch gradient descent on the XOR task.

    One epoch is one gradient update over all four patterns. Returns after
    the first update that yields zero classification error (success), after
    max_epochs updates (epoch_limit), or once the pre-update MSE has failed
    to improve on its best by more than 1e-12 for stagnation_window epochs in
    a row (stagnation). An init that already classifies correctly counts as
    success with zero epochs. Bit-reproducible for a given config.

    Each epoch makes one pass (`_descend`): the pass that tests an update
    for success also gives the next epoch's gradient and its pre-update MSE.
    final_mse is the last pass's error sum over 4, which equals
    `mse(final_weights)`.
    """
    outcome, epochs, weights, sq, _, _ = _descend(
        init_weights(config).tolist(), config.learning_rate, config.max_epochs,
        config.stagnation_window)
    return TrainResult(outcome, epochs, np.array(weights), sq / 4.0)


def export_train_results(rows, path) -> None:
    """CSV `lr,seed,outcome,epochs,final_mse`; rows are (lr, seed, TrainResult)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lr", "seed", "outcome", "epochs", "final_mse"])
        for lr, seed, res in rows:
            writer.writerow([repr(float(lr)), seed, res.outcome,
                             res.epochs_used, repr(float(res.final_mse))])
