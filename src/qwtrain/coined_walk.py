"""Hadamard-coined discrete-time quantum walks on Z^d, the line being d = 1.

The walker carries a d-bit coin; coin bit m controls the displacement along
dimension m, bit 0 meaning +1 and bit 1 meaning -1. One step applies the
Hadamard coin to every bit and shifts each coin sector, so along dimension m
the amplitudes (alpha, beta) of bit m's two values obey the line walk's

    alpha'_n = (alpha_{n-1} + beta_{n-1}) / sqrt(2)
    beta'_n  = (alpha_{n+1} - beta_{n+1}) / sqrt(2)

and the tensor-power coin is applied one bit at a time. After t steps every
coordinate has t's parity and lies in [-t, t], so the amplitudes are stored
densely over that sublattice: d coin axes of size 2, then d position axes of
size t+1, index i on a position axis being x = 2i - t.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import product

import numpy as np

SQRT2 = math.sqrt(2.0)

MAX_DIMS = 8  # a state holds 2^d coin states per site; at d=8 the work cap allows 2 steps
MAX_WALK_WORK = 10 ** 7  # walk_work of one walk, at most

# the line walk's starting coin states at the origin, (alpha_0, beta_0); the
# symmetric start's imaginary unit keeps the two directions from interfering,
# which is what makes its evolved distribution mirror-symmetric
INITS = {"asymmetric": (1.0 + 0.0j, 0.0j),
         "symmetric": (1.0 / SQRT2 + 0.0j, -1.0j / SQRT2)}


def walk_work(dims: int, steps: int) -> int:
    """A proxy for the cost of a walk: steps times the amplitudes a state can
    hold after them, (steps+1)^d positions times 2^d coin states. A step
    costs a few array passes per coin bit over the state, and the last
    state's amplitudes bound the memory a walk needs: the largest walks under
    MAX_WALK_WORK hold at most 2.1M complex amplitudes (d=7, 3 steps). On a
    2-vCPU Xeon they took 0.05 s at d=1 (2235 steps) and at most 0.6 s for
    any d up to 8, at 29-90 MiB peak RSS."""
    return steps * (steps + 1) ** dims * 2 ** dims


def _require_walk_size(dims: int, steps: int) -> None:
    """ValueError for negative steps or a walk_work above MAX_WALK_WORK."""
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    if walk_work(dims, steps) > MAX_WALK_WORK:
        raise ValueError(f"{steps} steps in {dims} dimensions are above the cap: "
                         f"steps x (steps+1)^d x 2^d must be at most {MAX_WALK_WORK}")


@dataclass
class CoinedWalkState:
    """Walker on Z^d after t steps: amplitudes[bits..., i...], d coin axes
    then d position axes of size t+1, index i standing for x = 2i - t."""
    t: int
    amplitudes: np.ndarray


def _at(d: int, m: int, bit: int, positions: slice) -> tuple:
    """Index of coin bit m's value `bit` at `positions` along dimension m."""
    index = [slice(None)] * (2 * d)
    index[m], index[d + m] = bit, positions
    return tuple(index)


def _step(amps: np.ndarray) -> np.ndarray:
    """One coin-then-shift step, one coin bit at a time: bit m's sum moves
    +1 along dimension m (index i+1) and its difference -1 (index i)."""
    d = amps.ndim // 2
    for m in range(d):
        shape = list(amps.shape)
        shape[d + m] += 1
        new = np.zeros(shape, dtype=complex)
        a, b = amps[_at(d, m, 0, slice(None))], amps[_at(d, m, 1, slice(None))]
        np.add(a, b, out=new[_at(d, m, 0, slice(1, None))])
        np.subtract(a, b, out=new[_at(d, m, 1, slice(None, -1))])
        # float division keeps the line walk's bits: numpy's complex-by-real
        # division multiplies by a reciprocal
        new.real /= SQRT2
        new.imag /= SQRT2
        amps = new
    return amps


def _walk(amplitudes: np.ndarray, steps: int) -> CoinedWalkState:
    for _ in range(steps):
        amplitudes = _step(amplitudes)
    return CoinedWalkState(t=steps, amplitudes=amplitudes)


def walk_1d(steps: int, init: str = "asymmetric") -> CoinedWalkState:
    """Run `steps` steps from the named start in INITS; ValueError, before
    any work, for negative steps or a walk_work above MAX_WALK_WORK."""
    _require_walk_size(1, steps)
    if init not in INITS:
        raise ValueError(f"init must be one of {tuple(INITS)}, got {init!r}")
    return _walk(np.array(INITS[init]).reshape(2, 1), steps)


def walk_nd(dims: int, steps: int) -> CoinedWalkState:
    """Walk `steps` steps from the origin with coin state |0...0>; ValueError,
    before any work, for dims outside 1..MAX_DIMS, negative steps or a
    walk_work above MAX_WALK_WORK."""
    if dims < 1:
        raise ValueError(f"dims must be at least 1, got {dims}")
    if dims > MAX_DIMS:
        raise ValueError(f"dims {dims} asks for 2^d coin states per site, above the "
                         f"cap of dims {MAX_DIMS}")
    _require_walk_size(dims, steps)
    amplitudes = np.zeros((2,) * dims + (1,) * dims, dtype=complex)
    amplitudes[(0,) * 2 * dims] = 1.0
    return _walk(amplitudes, steps)


def _probabilities(state: CoinedWalkState):
    """(position tuple, probability) of every site of the sublattice, in
    ascending order. Each |c|^2 is Python's abs(c) ** 2 (libm hypot and pow,
    which numpy's abs and square do not match bit for bit), summed over the
    coin states in order."""
    d, t = state.amplitudes.ndim // 2, state.t
    by_site = state.amplitudes.reshape(2 ** d, -1).T
    for x, coins in zip(product(range(-t, t + 1, 2), repeat=d), by_site):
        yield x, sum(abs(c) ** 2 for c in coins.tolist())


def distribution_1d(state: CoinedWalkState) -> dict[int, float]:
    """Position -> probability, zero-probability positions omitted."""
    return {x: p for (x,), p in _probabilities(state) if p > 0.0}


def distribution_nd(state: CoinedWalkState) -> dict[tuple[int, ...], float]:
    """Position -> probability, summed over the 2^d coin indices."""
    return {x: p for x, p in _probabilities(state) if p > 0.0}


def norm(state: CoinedWalkState) -> float:
    return math.sqrt(sum(p for _, p in _probabilities(state)))


def classical_walk_probability(t: int, n: int) -> float:
    """Gaussian envelope of the classical random walk, for contrast tests.

    p(t, n) ~ 2/sqrt(2 pi t) * exp(-n^2 / 2t), the diffusive baseline the
    quantum walk's flat-topped spread does not follow.
    """
    return 2.0 / math.sqrt(2.0 * math.pi * t) * math.exp(-n * n / (2.0 * t))


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
