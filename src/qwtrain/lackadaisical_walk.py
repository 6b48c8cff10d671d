"""Lackadaisical quantum walk on the complete graph, in its 4D invariant subspace.

With k marked vertices out of N and l self-loops per vertex, the search
dynamics never leave the span of four uniform-superposition states, labelled
by (vertex class, edge class):

    AA  marked vertex, edge to a marked vertex (self-loops included)
    AB  marked vertex, edge to an unmarked vertex
    BA  unmarked vertex, edge to a marked vertex
    BB  unmarked vertex, edge to an unmarked vertex

Everything here works on real 4-vectors in that fixed basis order. The
evolution operator depends on two angles set by (N, k, l); the walker starts
in the uniform superposition over all N(N+l-1) directed edge states, and the
marked-state probability peaks after about pi*sqrt(N)/sqrt(2(2k+l-1)) steps.
"""

from __future__ import annotations

import csv
import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

OUTCOME_LABELS = ("AA", "AB", "BA", "BB")

ROUNDING_MODES = ("floor", "ceiling", "nearest")

MAX_TRACE_STEPS = 10 ** 6  # rows of a probability trace, at most


@dataclass(frozen=True)
class WalkParams:
    N: int   # vertex count
    k: int   # marked vertices, 1 <= k < N
    l: int = 1  # self-loops per vertex

    def __post_init__(self):
        if self.N < 2:
            raise ValueError(f"N must be at least 2, got {self.N}")
        if not 1 <= self.k < self.N:
            raise ValueError(f"k must satisfy 1 <= k < N, got k={self.k}, N={self.N}")
        if self.l < 1:
            raise ValueError(f"l must be >= 1, got {self.l}")
        # N(N+l-1) bounds every count the angles and amplitudes take a
        # float square root of
        if self.N * (self.N + self.l - 1) > sys.float_info.max:
            raise ValueError("N(N+l-1) edge states exceed the float range")


@dataclass(frozen=True)
class Angles:
    cos_theta: float
    sin_theta: float
    cos_phi: float
    sin_phi: float


def angles(params: WalkParams) -> Angles:
    """Closed-form walk angles; no arccos round-trips, so they stay exact at
    large N. At l=1 theta and phi coincide."""
    N, k, l = params.N, params.k, params.l
    d = N + l - 1
    return Angles(
        cos_theta=(N - 2 * k - l + 1) / d,
        sin_theta=2.0 * math.sqrt((N - k) * (k + l - 1)) / d,
        cos_phi=(N - 2 * k + l - 1) / d,
        sin_phi=2.0 * math.sqrt(k * (N - k + l - 1)) / d,
    )


def build_operator(a: Angles) -> np.ndarray:
    """The 4x4 one-step operator over (AA, AB, BA, BB).

    Orthogonal by construction when the angles satisfy the trig identities;
    rejects angles that do not.
    """
    for c, s, name in ((a.cos_theta, a.sin_theta, "theta"), (a.cos_phi, a.sin_phi, "phi")):
        if abs(c * c + s * s - 1.0) > 1e-12:
            raise ValueError(f"cos/sin of {name} violate the unit identity")
    ct, st, cp, sp = a.cos_theta, a.sin_theta, a.cos_phi, a.sin_phi
    return np.array([
        [ct, -st, 0.0, 0.0],
        [0.0, 0.0, -cp, sp],
        [-st, -ct, 0.0, 0.0],
        [0.0, 0.0, sp, cp],
    ])


def initial_state(params: WalkParams) -> np.ndarray:
    """Uniform superposition over the N(N+l-1) directed edge states, grouped
    into the four classes. Each amplitude is sqrt(edge count in class) over
    sqrt(N(N+l-1)); exactly normalized."""
    N, k, l = params.N, params.k, params.l
    total = N * (N + l - 1)
    v = np.array([
        math.sqrt(k * (k + l - 1)),
        math.sqrt(k * (N - k)),
        math.sqrt(k * (N - k)),
        math.sqrt((N - k) * (N - k + l - 1)),
    ])
    return v / math.sqrt(total)


def steps_to_max(params: WalkParams, rounding: str = "ceiling") -> tuple[float, int]:
    """Step count where the marked-state probability peaks.

    Returns (t_real, t_int). t_real = pi*sqrt(N)/sqrt(2(2k+l-1)); t_int rounds
    it per `rounding` (floor, ceiling, or nearest), ceiling by default.
    """
    if rounding not in ROUNDING_MODES:
        raise ValueError(f"rounding must be one of {ROUNDING_MODES}, got {rounding!r}")
    N, k, l = params.N, params.k, params.l
    t_real = math.pi * math.sqrt(N) / math.sqrt(2.0 * (2 * k + l - 1))
    if rounding == "floor":
        t_int = math.floor(t_real)
    elif rounding == "ceiling":
        t_int = math.ceil(t_real)
    else:
        t_int = math.floor(t_real + 0.5)
    return t_real, t_int


def evolve(state: np.ndarray, op: np.ndarray, steps: int) -> np.ndarray:
    """Apply `op` exactly `steps` times. No early exit: the step count is
    decided up front, that being the point of the method."""
    if steps < 0:
        raise ValueError("steps must be non-negative")
    out = np.array(state, dtype=float, copy=True)
    for _ in range(steps):
        out = op @ out
    return out


def outcome_probabilities(state: np.ndarray) -> tuple[float, float, float, float]:
    """(p_AA, p_AB, p_BA, p_BB) = squared amplitudes."""
    p = np.asarray(state, dtype=float) ** 2
    return (float(p[0]), float(p[1]), float(p[2]), float(p[3]))


def sample_outcome(state: np.ndarray, rng: np.random.Generator) -> str:
    """Draw one of the four labels with its squared-amplitude probability."""
    p = np.asarray(state, dtype=float) ** 2
    total = p.sum()
    if not math.isclose(total, 1.0, abs_tol=1e-10):
        raise ValueError(f"state norm^2 = {total}, not a unit state")
    return OUTCOME_LABELS[rng.choice(4, p=p / total)]


def iter_probability_trace(params: WalkParams, t_max: int
                           ) -> Iterator[tuple[int, float, float, float, float]]:
    """(t, p_AA, p_AB, p_BA, p_BB) rows for t = 0..t_max, one at a time;
    ValueError, before any work, for a t_max above MAX_TRACE_STEPS."""
    if t_max > MAX_TRACE_STEPS:
        raise ValueError(f"a trace of {t_max} steps is above the cap of "
                         f"{MAX_TRACE_STEPS} steps")
    return _trace_rows(build_operator(angles(params)), initial_state(params), t_max)


def _trace_rows(op: np.ndarray, state: np.ndarray, t_max: int):
    yield (0, *outcome_probabilities(state))
    for t in range(1, t_max + 1):
        state = op @ state
        yield (t, *outcome_probabilities(state))


def probability_trace(params: WalkParams, t_max: int) -> list[tuple[int, float, float, float, float]]:
    """The rows of iter_probability_trace as a list."""
    return list(iter_probability_trace(params, t_max))


def export_trace(rows, path):
    """CSV `t,p_AA,p_AB,p_BA,p_BB` of rows, any iterable of them, written as
    they come; returns the last row (None for no rows)."""
    row = None
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "p_AA", "p_AB", "p_BA", "p_BB"])
        for row in rows:
            t, paa, pab, pba, pbb = row
            writer.writerow([t, repr(paa), repr(pab), repr(pba), repr(pbb)])
    return row
