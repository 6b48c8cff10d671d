"""End-to-end weight search: window placement, oracle, walk, measurement.

One training run:

1. place a random window near the lattice origin (seeded),
2. enumerate its solutions; while empty, shift the window along the ring
   enumeration until a solvable window appears (bounded by max_window_shifts),
3. compute the optimal step count from (N, k, l),
4. evolve the 4-state walk exactly that many steps,
5. measure; a marked-class outcome (AA or AB) picks a solution vertex
   uniformly, the other outcomes pick a non-solution uniformly,
6. convert the vertex to weights and record its classification error.

The walk itself never sees vertex identities; it runs entirely in the
4-dimensional subspace, and the vertex is recovered from the measured class.

For the shift search the trainer scans candidate origins in batches with the
oracle's float32 counting fast path and confirms any hit with the exact
enumerator, so a shift loop over thousands of windows stays cheap without
changing which window is chosen.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace

import numpy as np

from .lackadaisical_walk import (OUTCOME_LABELS, ROUNDING_MODES, WalkParams,
                                 angles, build_operator, evolve, initial_state,
                                 outcome_probabilities, sample_outcome,
                                 steps_to_max)
from .oracle import SolutionSet, enumerate_solutions, scan_window_counts
from .seeding import substream
from .weight_space import (WeightWindow, index_to_weights, iter_displacements,
                           random_window, to_descriptor, window_size)
from . import mlp

_SCAN_RAMP = (1024, 2048, 4096, 8192, 16384)


@dataclass(frozen=True)
class TrainerConfig:
    delta_p: float = 0.5
    z: int = 2
    l: int = 1
    seed: int = 0
    rounding: str = "ceiling"
    max_window_shifts: int = 10000
    count_noise: float = 0.0  # stddev of relative noise on the counted k

    def __post_init__(self):
        if not self.delta_p > 0:
            raise ValueError("delta_p must be positive")
        if self.z < 2:
            raise ValueError("z must be at least 2")
        if self.l < 1:
            raise ValueError("l must be >= 1")
        if self.rounding not in ROUNDING_MODES:
            raise ValueError(f"rounding must be one of {ROUNDING_MODES}")
        if self.count_noise < 0:
            raise ValueError("count_noise must be >= 0")
        if self.max_window_shifts < 0:
            raise ValueError("max_window_shifts must be >= 0")


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
    """No solvable window within the shift budget."""

    def __init__(self, start_window: WeightWindow, shifts_tried: int, seed: int):
        super().__init__(
            f"no window with solutions within {shifts_tried} shifts "
            f"of origin {start_window.origin} (seed {seed})")
        self.start_window = start_window
        self.shifts_tried = shifts_tried
        self.seed = seed


def find_solvable_window(start: WeightWindow, config: TrainerConfig
                         ) -> tuple[WeightWindow, SolutionSet, int]:
    """First window along the shift enumeration with at least one solution."""
    sols = enumerate_solutions(start)
    if sols.k > 0:
        return start, sols, 0

    # Counting scan batches: ramp up so the common early hit costs little,
    # capped so the float32 scan's working set stays modest for larger z.
    cap = max(4, (1 << 21) // (start.z ** 8))
    schedule = [min(b, cap) for b in _SCAN_RAMP]
    use_scan = start.z <= 4
    origin = np.asarray(start.origin, dtype=np.int64)

    for first_index, rows in iter_displacements(start.w, start.z, batch=schedule):
        if first_index > config.max_window_shifts:
            break
        keep = min(rows.shape[0], config.max_window_shifts - first_index + 1)
        rows = rows[:keep]
        if use_scan:
            counts = scan_window_counts(origin + rows, start.z, start.delta_p)
            hits = np.nonzero(counts)[0]
        else:
            hits = np.arange(rows.shape[0])
        for h in hits:
            cand = replace(start, origin=tuple(int(v) for v in origin + rows[h]))
            sols = enumerate_solutions(cand)
            if sols.k > 0:
                return cand, sols, first_index + int(h)
    raise NoSolutionError(start, config.max_window_shifts, config.seed)


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
    k_for_steps = k
    if config.count_noise > 0.0:
        # emulate an approximate quantum count: the noisy estimate only feeds
        # the step formula, the walk itself still has k marked vertices
        noisy = k * (1.0 + config.count_noise * rng.standard_normal())
        k_for_steps = int(min(max(round(noisy), 1), n - 1))

    params = WalkParams(N=n, k=k, l=config.l)
    t_real, t_int = steps_to_max(WalkParams(N=n, k=k_for_steps, l=config.l),
                                 config.rounding)
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
