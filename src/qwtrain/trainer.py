"""End-to-end weight search: window placement, oracle, walk, measurement.

One training run:

1. place a random window near the lattice origin (seeded),
2. search the shift enumeration, the start window first, for the first
   window that holds a solution (bounded by max_window_shifts), and take
   its solution set from the same search,
3. compute the optimal step count from (N, k, l),
4. evolve the 4-state walk exactly that many steps,
5. measure; a marked-class outcome (AA or AB) picks a solution vertex
   uniformly, the other outcomes pick a non-solution uniformly,
6. convert the vertex to weights and record its classification error.

The walk itself never sees vertex identities; it runs entirely in the
4-dimensional subspace, and the vertex is recovered from the measured class.

The shift search walks the ring enumeration in blocks of counter positions
whose low digits are free (_ring_blocks). Ring 1's position 0 is the zero
displacement, so its first block holds the start window as well. Such a
block is a product: the a side (weights 0-2 and 6), the b side (3-5 and 7)
and the output bias (8) each depend on their own digits, so the oracle
bounds the block from per-key tables and returns its first solvable window
with that window's solution indices (first_solvable_position), from the same
exact kernel that enumerates windows. The trainer then takes that
position's shift index and window from weight_space's shift codec
(shift_index_at, ring_window); no other window is decoded or enumerated.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from itertools import count

import numpy as np

from .lackadaisical_walk import (OUTCOME_LABELS, WalkParams, angles,
                                 build_operator, evolve, initial_state,
                                 outcome_probabilities, sample_outcome,
                                 steps_to_max)
from .oracle import (KEY_DIMS, SolutionSet, enumerate_solutions,
                     first_solvable_position, require_enumerable)
from .seeding import substream
from .weight_space import (WeightWindow, index_to_weights, random_window,
                           require_finite_weights, ring_block_keys,
                           ring_of_shift, ring_window, shift_index_at,
                           to_descriptor, window_size)
from . import mlp


@dataclass(frozen=True)
class TrainerConfig:
    delta_p: float = 0.5
    z: int = 2
    l: int = 1
    seed: int = 0
    max_window_shifts: int = 10000

    def __post_init__(self):
        for name in ("z", "l", "seed", "max_window_shifts"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer")
        if not (math.isfinite(self.delta_p) and self.delta_p > 0):
            raise ValueError("delta_p must be finite and positive")
        if self.z < 2:
            raise ValueError("z must be at least 2")
        if self.l < 1:
            raise ValueError("l must be >= 1")
        if self.max_window_shifts < 0:
            raise ValueError("max_window_shifts must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class ExperimentResult:
    window: WeightWindow
    k: int
    N: int
    t_real: float
    t_int: int
    final_state: np.ndarray
    outcome: str
    vertex_index: int
    weights: np.ndarray
    classification_error: int
    shifts_performed: int


class NoSolutionError(RuntimeError):
    """No solvable window within the shift budget.

    windows_scanned counts the shifted windows searched, shifts 1 to
    shifts_tried, and ring_radius is the ring of the last one (0 when none
    was searched).
    """

    def __init__(self, start_window: WeightWindow, shifts_tried: int, seed: int,
                 windows_scanned: int, ring_radius: int):
        super().__init__(
            f"no window with solutions within {shifts_tried} shifts "
            f"of origin {start_window.origin} (seed {seed}; "
            f"{windows_scanned} windows scanned, out to ring {ring_radius})")
        self.start_window = start_window
        self.shifts_tried = shifts_tried
        self.seed = seed
        self.windows_scanned = windows_scanned
        self.ring_radius = ring_radius


_BLOCK_VERTICES = 1 << 23  # vertices in a block of the search, at most


def _ring_blocks(w: int, z: int, cap: int):
    """The blocks that cover the shift enumeration up to shift index cap, in
    order: (ring r, counter position of the block's start, free low digits
    m). Ring 1's first block, which holds the start window (shift 0), comes
    at any cap.

    The largest block of ring r has the most free digits, at least one, whose
    b^m windows (b = 2r+1) hold at most _BLOCK_VERTICES vertices. A ring's
    first block has two digits fewer (one at least), as early hits are
    common. Later blocks take the largest power of b that divides their
    start, so they grow by powers of b up to the largest. A block that would
    run past the cap shrinks, down to the first block's size.
    """
    for r in count(1):
        base = 2 * r + 1
        most = 1
        while most < w and base ** (most + 1) * z ** 8 <= _BLOCK_VERTICES:
            most += 1
        first_m = max(1, most - 2)
        position = 0
        while position < base ** w:
            if shift_index_at(w, r, position) > cap:
                return
            m = first_m
            if position:
                m = 0
                while position % base ** (m + 1) == 0:
                    m += 1
                m = min(m, most)
            while m > first_m and shift_index_at(w, r, position + base ** m) > cap + 1:
                m -= 1
            yield r, position, m
            position += base ** m


def _block_keys(origin: np.ndarray, z: int, r: int, position: int, m: int):
    """The ring-r block of b^m counter positions from position as keys of a
    product block: ([a-side, b-side, output-bias coordinates], their
    position offsets), the first_solvable_position arguments."""
    keys = [ring_block_keys(z, r, position, m, dims) for dims in KEY_DIMS]
    return ([origin[list(dims)] + disp for dims, (disp, _) in zip(KEY_DIMS, keys)],
            [offsets for _, offsets in keys])


def find_solvable_window(start: WeightWindow, config: TrainerConfig
                         ) -> tuple[WeightWindow, SolutionSet, int]:
    """First window along the shift enumeration with at least one solution:
    (window, its solution set, shift index), the start window being shift 0.
    Every window of the search has the start's size, so a start above the
    oracle's vertex cap is refused (WindowTooLarge) before any search work.
    """
    require_enumerable(start)
    w, z, cap, delta_p = start.w, start.z, config.max_window_shifts, start.delta_p
    origin = np.asarray(start.origin, dtype=np.int64)
    for r, position, m in _ring_blocks(w, z, cap):
        coords, offsets = _block_keys(origin, z, r, position, m)
        try:
            require_finite_weights(delta_p, [int(f(x)) for x in coords
                                             for f in (np.max, np.min)], z)
        except ValueError:
            if (r, position) != (1, 0):
                raise
            # ring 1's weights overflow but the start's do not, and the start
            # comes first: it is searched alone
            solutions = enumerate_solutions(start)
            if not solutions.k:
                raise
            return start, solutions, 0
        found = first_solvable_position(*coords, offsets, z, delta_p)
        if found is None:
            continue
        # inner-cube positions past ring 1's first are windows of earlier
        # rings, all barren, so the first solvable one is on ring r
        first = position + found[0]
        shift = shift_index_at(w, r, first)
        if shift > cap:
            break
        window = start if shift == 0 else ring_window(start, r, first)
        return window, SolutionSet(window=window, indices=found[1]), shift
    raise NoSolutionError(start, cap, config.seed, cap, ring_of_shift(w, cap))


def sample_vertex(outcome: str, solutions: SolutionSet, window: WeightWindow,
                  rng: np.random.Generator) -> int:
    """Vertex consistent with the measured class.

    AA/AB collapse onto the marked class: uniform over the k solutions.
    BA/BB: uniform over the N-k non-solutions, found by rank without
    materializing the complement.
    """
    n = window_size(window)
    k = solutions.k
    if outcome in ("AA", "AB"):
        if k == 0:
            raise AssertionError("marked outcome with an empty solution set")
        return int(solutions.indices[rng.integers(0, k)])
    if k >= n:
        raise AssertionError("non-marked outcome but every vertex solves")
    r = int(rng.integers(0, n - k))
    # the r-th non-solution is r positions past the solutions at or below it
    offsets = solutions.indices - np.arange(k)
    j = int(np.searchsorted(offsets, r, side="right"))
    return r + j


def train(config: TrainerConfig) -> ExperimentResult:
    """One full Algorithm run; deterministic for a given config."""
    rng = substream(config.seed, "measurement")
    start = random_window(mlp.N_WEIGHTS, config.z, config.delta_p, config.seed)
    window, solutions, shifts = find_solvable_window(start, config)

    n = window_size(window)
    k = solutions.k
    params = WalkParams(N=n, k=k, l=config.l)
    t_real, t_int = steps_to_max(params)
    state = evolve(initial_state(params), build_operator(angles(params)), t_int)
    outcome = sample_outcome(state, rng)
    vertex = sample_vertex(outcome, solutions, window, rng)
    weights = index_to_weights(vertex, window)

    return ExperimentResult(
        window=window, k=k, N=n, t_real=t_real, t_int=t_int,
        final_state=state, outcome=outcome, vertex_index=vertex,
        weights=weights, classification_error=mlp.classification_error(weights),
        shifts_performed=shifts,
    )


def result_to_json(result: ExperimentResult) -> str:
    p = outcome_probabilities(result.final_state)
    return json.dumps({
        "window": to_descriptor(result.window),
        "k": result.k,
        "N": result.N,
        "t_real": result.t_real,
        "t_int": result.t_int,
        "final_state": [float(v) for v in result.final_state],
        "outcome_probabilities": dict(zip(OUTCOME_LABELS, p)),
        "outcome": result.outcome,
        "vertex_index": result.vertex_index,
        "weights": [float(v) for v in result.weights],
        "classification_error": result.classification_error,
        "shifts_performed": result.shifts_performed,
    }, indent=2)


def export_steps_csv(results, path) -> None:
    """CSV `experiment,k,N,t_theoretical,t_simulated`, one row per run."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["experiment", "k", "N", "t_theoretical", "t_simulated"])
        for i, r in enumerate(results, start=1):
            writer.writerow([i, r.k, r.N, f"{r.t_real:.2f}", r.t_int])


def export_probabilities_csv(results, path) -> None:
    """CSV `experiment,p_AA,p_AB,p_BA,p_BB`, one row per run."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["experiment", "p_AA", "p_AB", "p_BA", "p_BB"])
        for i, r in enumerate(results, start=1):
            p = outcome_probabilities(r.final_state)
            writer.writerow([i] + [repr(float(v)) for v in p])
