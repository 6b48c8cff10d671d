"""The benchmark's workloads: item inputs from a seed, one call into the
package's public API per item, the fields that must stay bit-identical, and
the output checks.

Every function of the package is looked up through its module at call time
(``trainer.train``, not a name imported here), so the tracer's wrappers see
the calls. The package receives only configs and windows made here.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from qwtrain import lackadaisical_walk as walk
from qwtrain import mlp, oracle, seeding, trainer, weight_space

# Item seeds of consecutive workload seeds never overlap: no run reaches a
# million items.
SEED_STRIDE = 1_000_000
MAX_WINDOW_SHIFTS = 100_000
MARKED = ("AA", "AB")
NONSOLUTION_SAMPLE = 64
Z6_VERTICES = 6 ** 9


@dataclass
class Item:
    seed: int
    fields: tuple  # the result, as the digest sees it
    work: int  # result-defined work units, see Workload.work_unit
    success: bool
    no_solution: bool = False
    shifts: int | None = None  # train items only: shifts_performed or shifts_tried
    result: object = None

    def digest(self) -> str:
        return hashlib.sha256(repr(self.fields).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class Workload:
    name: str
    first_seed: int  # item seed of item 0 at workload seed 0
    warmup_seed: int  # fixed, so set-up does the same work at every seed
    work_unit: str
    run: Callable[[int], Item]
    check: Callable[[Item], list]

    def item_seed(self, workload_seed: int, i: int) -> int:
        return self.first_seed + workload_seed * SEED_STRIDE + i


def _run_train(z: int, delta_p: float):
    def run(seed: int) -> Item:
        config = trainer.TrainerConfig(z=z, delta_p=delta_p, l=1, seed=seed,
                                       max_window_shifts=MAX_WINDOW_SHIFTS)
        try:
            r = trainer.train(config)
        except trainer.NoSolutionError as exc:
            return Item(seed, ("no_solution", exc.start_window.origin, exc.shifts_tried),
                        work=exc.shifts_tried + 1, success=False, no_solution=True,
                        shifts=exc.shifts_tried)
        return Item(seed, (r.window.origin, r.k, r.t_int, r.outcome, r.vertex_index,
                           r.weights.tobytes()),
                    work=r.shifts_performed + 1,
                    success=r.outcome in MARKED and r.classification_error == 0,
                    shifts=r.shifts_performed, result=r)
    return run


def _check_train(exact_reference: bool):
    def check(item: Item) -> list:
        if item.no_solution:
            return []
        r, errors = item.result, []
        if r.k < 1:
            errors.append("the chosen window has no solution")
        if not np.array_equal(r.weights, weight_space.index_to_weights(r.vertex_index, r.window)):
            errors.append("the weights are not those of the sampled vertex")
        if walk.steps_to_max(walk.WalkParams(N=r.N, k=r.k, l=1))[1] != r.t_int:
            errors.append("t_int differs from the step formula")
        if r.outcome in MARKED:
            if mlp.classification_error(r.weights) != 0:
                errors.append("a marked outcome gave weights that misclassify XOR")
        elif oracle.evaluate_vertex(r.vertex_index, r.window):
            errors.append("an unmarked outcome gave a solution vertex")
        if exact_reference:
            k_ref = len(oracle.reference_enumerate(r.window).indices)
            if k_ref != r.k:
                errors.append(f"k = {r.k}, the reference enumerator finds {k_ref}")
        return errors
    return check


def _z6_window(seed: int) -> weight_space.WeightWindow:
    # origins next to the lattice origin, like criterion 9's window: those
    # windows hold solutions, so the walk runs on every item
    rng = np.random.default_rng(seed)
    origin = tuple(int(v) for v in rng.integers(-1, 2, size=9))
    return weight_space.WeightWindow(w=9, z=6, origin=origin, delta_p=0.5)


def _run_enumerate(seed: int) -> Item:
    window = _z6_window(seed)
    sols = oracle.enumerate_solutions(window)
    t_int, outcome = 0, "none"
    if sols.k >= 1:
        params = walk.WalkParams(N=Z6_VERTICES, k=sols.k, l=1)
        t_int = walk.steps_to_max(params)[1]
        state = walk.evolve(walk.initial_state(params),
                            walk.build_operator(walk.angles(params)), t_int)
        outcome = walk.sample_outcome(state, seeding.substream(seed, "measurement"))
    indices_digest = hashlib.sha256(sols.indices.astype("<i8").tobytes()).hexdigest()
    return Item(seed, (window.origin, sols.k, indices_digest, t_int, outcome),
                work=Z6_VERTICES, success=outcome in MARKED, result=sols)


def _check_enumerate(item: Item) -> list:
    sols, errors = item.result, []
    idx, window = sols.indices, sols.window
    if idx.size and (np.any(np.diff(idx) <= 0) or idx[0] < 0 or idx[-1] >= Z6_VERTICES):
        errors.append("solution indices are not sorted, distinct and in range")
    wrong = sum(not oracle.evaluate_vertex(int(i), window) for i in idx)
    if wrong:
        errors.append(f"{wrong} returned indices are not solutions")
    probe = np.random.default_rng([item.seed, 1]).integers(0, Z6_VERTICES, NONSOLUTION_SAMPLE)
    missed = sum(oracle.evaluate_vertex(int(i), window) for i in probe[~np.isin(probe, idx)])
    if missed:
        errors.append(f"{missed} sampled indices outside the set are solutions")
    return errors


def _run_backprop(seed: int) -> Item:
    r = mlp.backprop_train(mlp.BackpropConfig(learning_rate=0.5, seed=seed))
    return Item(seed, (r.outcome, r.epochs_used, r.final_weights.tobytes()),
                work=r.epochs_used + 1, success=r.outcome == "success", result=r)


def _check_backprop(item: Item) -> list:
    r = item.result
    wrong = mlp.classification_error(r.final_weights)
    if r.outcome == "success" and wrong != 0:
        return ["a success outcome gave weights that misclassify XOR"]
    if r.outcome != "success" and wrong == 0:
        return [f"outcome {r.outcome} but the final weights classify XOR"]
    return []


WORKLOADS = {w.name: w for w in (
    Workload("train-z2", 0, 3, "search position",
             _run_train(2, 0.5), _check_train(exact_reference=True)),
    Workload("train-z4", 0, 1, "search position",
             _run_train(4, 1.0), _check_train(exact_reference=False)),
    Workload("enumerate-z6", 0, 0, "vertex",
             _run_enumerate, _check_enumerate),
    Workload("backprop-lr0.5", 500, 500, "epoch",
             _run_backprop, _check_backprop),
)}


def check_frozen_contracts() -> list:
    """The frozen runs: train seed 3 takes 2950 shifts, backprop seed 500
    takes 1063 epochs."""
    errors = []
    shifts = trainer.train(trainer.TrainerConfig(seed=3)).shifts_performed
    if shifts != 2950:
        errors.append(f"train seed 3 took {shifts} shifts, the contract is 2950")
    epochs = mlp.backprop_train(mlp.BackpropConfig(learning_rate=0.5, seed=500)).epochs_used
    if epochs != 1063:
        errors.append(f"backprop seed 500 took {epochs} epochs, the contract is 1063")
    return errors
