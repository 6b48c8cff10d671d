"""Hadamard-coined discrete-time quantum walks on the line and on Z^d.

The 1D walker carries a two-state coin; its amplitudes (alpha_n, beta_n) obey

    alpha'_n = (alpha_{n-1} + beta_{n-1}) / sqrt(2)
    beta'_n  = (alpha_{n+1} - beta_{n+1}) / sqrt(2)

so coin component 0 moves right and component 1 moves left each step. The nD
walker generalizes this with a 2^d x 2^d coin (tensor-power Hadamard by
default); coin bit m controls the displacement along dimension m, bit 0
meaning +1. Amplitudes are stored sparsely, keyed by position, because the nD
support grows like t^d.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

SQRT2 = math.sqrt(2.0)

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / SQRT2


@dataclass
class CoinedWalkState1D:
    """Walker on the line: step count and position -> (alpha, beta) map."""
    t: int
    amplitudes: dict[int, tuple[complex, complex]]


@dataclass
class CoinedWalkStateND:
    """Walker on Z^dims: (coin bit tuple, position tuple) -> amplitude."""
    t: int
    dims: int
    amplitudes: dict[tuple[tuple[int, ...], tuple[int, ...]], complex]


def init_1d_asymmetric() -> CoinedWalkState1D:
    """Walker at the origin with coin state |0>."""
    return CoinedWalkState1D(t=0, amplitudes={0: (1.0 + 0.0j, 0.0j)})


def init_1d_symmetric() -> CoinedWalkState1D:
    """Walker at the origin with coin state (|0> - i|1>)/sqrt(2).

    The imaginary unit keeps the two directions from interfering with each
    other, which is what makes the evolved distribution mirror-symmetric.
    """
    return CoinedWalkState1D(t=0, amplitudes={0: (1.0 / SQRT2 + 0.0j, -1.0j / SQRT2)})


def step_1d(state: CoinedWalkState1D) -> CoinedWalkState1D:
    """One coin-then-shift step of the 1D Hadamard walk."""
    new: dict[int, list[complex]] = {}
    for n, (alpha, beta) in state.amplitudes.items():
        # coin 0 part of site n lands on n+1, coin 1 part on n-1
        a = (alpha + beta) / SQRT2
        b = (alpha - beta) / SQRT2
        if a != 0:
            new.setdefault(n + 1, [0.0j, 0.0j])[0] += a
        if b != 0:
            new.setdefault(n - 1, [0.0j, 0.0j])[1] += b
    amps = {n: (ab[0], ab[1]) for n, ab in new.items() if ab[0] != 0 or ab[1] != 0}
    return CoinedWalkState1D(t=state.t + 1, amplitudes=amps)


def walk_1d(steps: int, init: str = "asymmetric") -> CoinedWalkState1D:
    """Run `steps` steps from the named initial condition."""
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    if init == "asymmetric":
        state = init_1d_asymmetric()
    elif init == "symmetric":
        state = init_1d_symmetric()
    else:
        raise ValueError(f"init must be 'asymmetric' or 'symmetric', got {init!r}")
    for _ in range(steps):
        state = step_1d(state)
    return state


def distribution_1d(state: CoinedWalkState1D) -> dict[int, float]:
    """Position -> probability, zero-probability positions omitted."""
    dist = {}
    for n, (alpha, beta) in state.amplitudes.items():
        p = abs(alpha) ** 2 + abs(beta) ** 2
        if p > 0.0:
            dist[n] = p
    return dist


def norm_1d(state: CoinedWalkState1D) -> float:
    return math.sqrt(sum(abs(a) ** 2 + abs(b) ** 2 for a, b in state.amplitudes.values()))


def classical_walk_probability(t: int, n: int) -> float:
    """Gaussian envelope of the classical random walk, for contrast tests.

    p(t, n) ~ 2/sqrt(2 pi t) * exp(-n^2 / 2t), the diffusive baseline the
    quantum walk's flat-topped spread does not follow.
    """
    return 2.0 / math.sqrt(2.0 * math.pi * t) * math.exp(-n * n / (2.0 * t))


def hadamard_coin(dims: int) -> np.ndarray:
    """d-fold tensor power of the 2x2 Hadamard coin."""
    return reduce(np.kron, [HADAMARD] * dims)


def init_nd(dims: int, coin_index: tuple[int, ...] | None = None,
            position: tuple[int, ...] | None = None) -> CoinedWalkStateND:
    """Walker localized at `position` with the given coin basis state."""
    if coin_index is None:
        coin_index = (0,) * dims
    if position is None:
        position = (0,) * dims
    if len(coin_index) != dims or len(position) != dims:
        raise ValueError("coin_index and position must have length dims")
    if any(b not in (0, 1) for b in coin_index):
        raise ValueError("coin_index components must be bits")
    return CoinedWalkStateND(t=0, dims=dims,
                             amplitudes={(tuple(coin_index), tuple(position)): 1.0 + 0.0j})


def _coin_rows(dims: int):
    """All coin bit tuples in row order of the 2^d coin matrix (bit 0 of the
    tuple is the most significant, matching the tensor-product convention)."""
    size = 1 << dims
    rows = []
    for r in range(size):
        rows.append(tuple((r >> (dims - 1 - m)) & 1 for m in range(dims)))
    return rows


def _displacement(bits: tuple[int, ...]) -> tuple[int, ...]:
    # bit 0 moves +1 along its dimension, bit 1 moves -1
    return tuple(1 if b == 0 else -1 for b in bits)


def step_nd(state: CoinedWalkStateND, coin: np.ndarray) -> CoinedWalkStateND:
    """One step of the nD walk: apply the coin, then shift each coin sector.

    The new amplitude at (i, x) gathers the coin-mixed amplitude that sector i
    carries out of site x - s(i), where s(i) flips sign per coin bit.
    """
    d = state.dims
    size = 1 << d
    coin = np.asarray(coin, dtype=complex)
    if coin.shape != (size, size):
        raise ValueError(f"coin must be {size}x{size} for dims={d}, got {coin.shape}")
    if not np.allclose(coin @ coin.conj().T, np.eye(size), atol=1e-12):
        raise ValueError("coin matrix is not unitary")

    rows = _coin_rows(d)
    row_of = {bits: r for r, bits in enumerate(rows)}
    disp = {bits: _displacement(bits) for bits in rows}

    new: dict[tuple[tuple[int, ...], tuple[int, ...]], complex] = {}
    for (jbits, x), amp in state.amplitudes.items():
        j = row_of[jbits]
        for i, ibits in enumerate(rows):
            c = coin[i, j]
            if c == 0:
                continue
            s = disp[ibits]
            target = tuple(xm + sm for xm, sm in zip(x, s))
            key = (ibits, target)
            new[key] = new.get(key, 0.0j) + c * amp
    amps = {k: v for k, v in new.items() if v != 0}
    return CoinedWalkStateND(t=state.t + 1, dims=d, amplitudes=amps)


def walk_nd(dims: int, steps: int, coin: np.ndarray | None = None) -> CoinedWalkStateND:
    if dims < 1:
        raise ValueError(f"dims must be at least 1, got {dims}")
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    if coin is None:
        coin = hadamard_coin(dims)
    state = init_nd(dims)
    for _ in range(steps):
        state = step_nd(state, coin)
    return state


def distribution_nd(state: CoinedWalkStateND) -> dict[tuple[int, ...], float]:
    """Position -> probability, summed over the 2^d coin indices."""
    dist: dict[tuple[int, ...], float] = {}
    for (_, x), amp in state.amplitudes.items():
        dist[x] = dist.get(x, 0.0) + abs(amp) ** 2
    return {x: p for x, p in dist.items() if p > 0.0}


def norm_nd(state: CoinedWalkStateND) -> float:
    return math.sqrt(sum(abs(a) ** 2 for a in state.amplitudes.values()))


def export_distribution_1d(dist: dict[int, float], path) -> None:
    """CSV `n,probability`, one row per nonzero position, sorted by n."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "probability"])
        for n in sorted(dist):
            writer.writerow([n, repr(float(dist[n]))])


def export_distribution_nd(dist: dict[tuple[int, ...], float], dims: int, path) -> None:
    """CSV `x1,...,xd,probability`, sorted by position tuple."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{m + 1}" for m in range(dims)] + ["probability"])
        for x in sorted(dist):
            writer.writerow(list(x) + [repr(float(dist[x]))])
