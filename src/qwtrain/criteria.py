"""The acceptance criteria that check the procedure against the published
numbers, each computed and judged in one function.

Each function returns a `Criterion`: named checks with a verdict and a
detail line, the measured values, the wall time of the span its acceptance
test gates, and a writer per output file. `qwtrain reproduce` renders
`CRITERIA` into its report, `criteria.json` and output files, and the
acceptance tests assert on that same run. Reference values, thresholds and
run sizes come from `qwtrain.reference`.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import coined_walk as cw
from . import mlp, oracle, reference, trainer
from .lackadaisical_walk import (WalkParams, angles, build_operator, evolve,
                                 export_trace, initial_state,
                                 outcome_probabilities, probability_trace,
                                 steps_to_max)
from .weight_space import WeightWindow, window_size


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


@dataclass
class Criterion:
    number: int
    title: str
    checks: list[Check]
    values: dict
    wall_s: float  # the span its acceptance test gates; criterion 3: the slowest walk
    files: dict[str, Callable[[str], object]]  # output file name -> writer(path)

    def to_json(self) -> dict:
        checks = [{**vars(c), "ok": bool(c.ok)} for c in self.checks]  # numpy bools too
        return {"number": self.number, "title": self.title, "wall_s": self.wall_s,
                "checks": checks, "values": self.values}


def _evolved(N: int, k: int, steps: int) -> np.ndarray:
    """State of the one-self-loop walk on (N, k) after `steps` steps."""
    params = WalkParams(N=N, k=k, l=1)
    return evolve(initial_state(params), build_operator(angles(params)), steps)


def _csv(header: str, rows) -> Callable[[str], None]:
    def write(path):
        with open(path, "w") as fh:
            fh.write(header + "\n")
            fh.writelines(",".join(map(str, row)) + "\n" for row in rows)
    return write


def toy_walk() -> Criterion:
    steps = reference.TOY_STEPS
    t0 = time.perf_counter()
    state = _evolved(8, 2, steps)
    wall = time.perf_counter() - t0
    p_aa = float(outcome_probabilities(state)[0])
    params = WalkParams(N=8, k=2, l=1)
    init = initial_state(params)
    expect = np.array([2.0, math.sqrt(12), math.sqrt(12), 6.0]) / 8.0
    trace = probability_trace(params, steps)
    return Criterion(1, "Toy walk (N=8, k=2, l=1) collapses onto AA", [
        Check("initial state", bool(np.allclose(init, expect, atol=1e-15)),
              f"{init.tolist()}, expected (2, sqrt 12, sqrt 12, 6)/8"),
        Check(f"p_AA({steps}) = 1", abs(p_aa - 1.0) < 1e-9, f"{p_aa:.12f}"),
    ], {"p_aa": p_aa, "initial_state": init.tolist()}, wall,
        {"toy_trace.csv": lambda path: export_trace(trace, path)})


def step_counts() -> Criterion:
    t0 = time.perf_counter()
    checks, rows = [], []
    for ref in reference.STEPS:
        t_real, t_int = steps_to_max(WalkParams(N=ref.N, k=ref.k, l=1))
        ok = abs(t_real - ref.t_real) <= ref.tol and t_int == ref.t_int
        checks.append(Check(f"t({ref.N}, {ref.k})", ok,
                            f"{t_real:.2f} against {ref.t_real} within {ref.tol}; "
                            f"ceiling {t_int} against {ref.t_int}"))
        if ref.t_formula is not None:
            checks.append(Check(f"t({ref.N}, {ref.k}) formula",
                                abs(t_real - ref.t_formula) <= 0.01,
                                f"{t_real:.2f} against {ref.t_formula}: {ref.note}"))
        rows.append((ref.N, ref.k, f"{t_real:.4f}", t_int, ref.t_real, ref.t_int,
                     "pass" if ok else "FAIL"))
    wall = time.perf_counter() - t0
    return Criterion(2, "Optimal step counts", checks,
                     {"t_real": [float(r[2]) for r in rows]}, wall,
                     {"steps_table.csv": _csv(
                         "N,k,t_computed,t_int,t_reference,t_simulated_reference,status",
                         rows)})


def final_probabilities() -> Criterion:
    checks, rows, walls = [], [], []
    for ref in reference.PROBABILITIES:
        t0 = time.perf_counter()
        state = _evolved(ref.N, ref.k, ref.steps)
        walls.append(time.perf_counter() - t0)
        p = [float(x) for x in outcome_probabilities(state)]
        ok = ref.passes(p)
        checks.append(Check(f"p({ref.N}, {ref.k})", ok,
                            f"t = {ref.steps}: p_AA {p[0]:.6f} against {ref.p_aa}, "
                            f"p_AA + p_AB {p[0] + p[1]:.6f}"))
        rows.append((ref.N, ref.k, ref.steps, *p, "pass" if ok else "FAIL"))
    return Criterion(3, "Final-state probabilities",
                     checks, {"p": [list(r[3:7]) for r in rows], "walk_s": walls},
                     max(walls), {"probabilities_table.csv": _csv(
                         "N,k,t,p_AA,p_AB,p_BA,p_BB,status", rows)})


def line_walk() -> Criterion:
    s2 = math.sqrt(2.0)
    # coin x position after 3 steps, positions -3, -1, 1, 3
    expect = [[0.0, -1 / (2 * s2), 1 / s2, 1 / (2 * s2)],
              [1 / (2 * s2), 0.0, 1 / (2 * s2), 0.0]]
    t0 = time.perf_counter()
    amps = cw.walk_1d(3, "asymmetric").amplitudes
    exact = amps.shape == (2, 4) and bool(np.abs(amps - expect).max() < 1e-12)
    asym = cw.walk_1d(reference.LINE_STEPS, "asymmetric")
    sym = cw.walk_1d(reference.LINE_STEPS, "symmetric")
    norms = (cw.norm(asym), cw.norm(sym))
    asym_dist, sym_dist = cw.distribution_1d(asym), cw.distribution_1d(sym)
    mirror = max(abs(p - sym_dist[-n]) for n, p in sym_dist.items())
    # the two mirror maxima are equal: the tie goes to +n
    peak = max(sym_dist, key=lambda n: (sym_dist[n], n))
    quantum = asym_dist.get(0, 0.0)
    classical = cw.classical_walk_probability(reference.LINE_STEPS, 0)
    wall = time.perf_counter() - t0
    return Criterion(4, f"Line walk after {reference.LINE_STEPS} steps", [
        Check("exact t=3 amplitudes", exact, "asymmetric start, positions -3, -1, 1, 3"),
        Check("norms 1", all(abs(v - 1.0) < 1e-10 for v in norms),
              f"asymmetric {norms[0]!r}, symmetric {norms[1]!r}"),
        Check("mirror symmetry", mirror == 0.0, f"symmetric start, max asymmetry {mirror}"),
        Check("peak", reference.LINE_PEAK_MIN <= abs(peak) <= reference.LINE_PEAK_MAX,
              f"symmetric peak at n={peak}, |n| in [{reference.LINE_PEAK_MIN}, "
              f"{reference.LINE_PEAK_MAX}]"),
        Check("quantum below classical", quantum < classical,
              f"origin probability {quantum:.6f} < envelope {classical:.6f}"),
    ], {"norms": list(norms), "mirror": mirror, "peak": peak,
        "origin_quantum": quantum, "origin_classical": classical}, wall,
        {"walk1d_asymmetric.csv": lambda path: cw.export_distribution_1d(asym_dist, path),
         "walk1d_symmetric.csv": lambda path: cw.export_distribution_1d(sym_dist, path)})


def weight_search() -> Criterion:
    config = trainer.TrainerConfig(max_window_shifts=reference.TRAIN_MAX_SHIFTS)
    t0 = time.perf_counter()
    results, failures = [], 0
    for seed in range(reference.TRAIN_SEEDS):
        try:
            results.append(trainer.train(replace(config, seed=seed)))
        except trainer.NoSolutionError:
            failures += 1
    wall = time.perf_counter() - t0
    marked = [r for r in results if r.outcome in ("AA", "AB")]
    fraction = len(marked) / reference.TRAIN_SEEDS
    errors = sum(r.classification_error != 0 for r in marked)
    return Criterion(5, f"End-to-end weight search (z=2, seeds 0-{reference.TRAIN_SEEDS - 1})", [
        Check("marked fraction", fraction >= reference.TRAIN_MIN_FRACTION,
              f"{fraction:.4f} >= {reference.TRAIN_MIN_FRACTION} (reference mean 0.9944); "
              f"{failures} seeds found no window within {reference.TRAIN_MAX_SHIFTS} shifts"),
        Check("zero error", errors == 0,
              f"{errors} of {len(marked)} marked outcomes misclassify"),
    ], {"fraction": fraction, "no_window": failures, "marked": len(marked),
        "k_seen": sorted({r.k for r in results})}, wall,
        {"train_steps.csv": lambda path: trainer.export_steps_csv(results, path),
         "train_probabilities.csv": lambda path: trainer.export_probabilities_csv(results, path)})


def backprop_baseline() -> Criterion:
    fast_lr, slow_lr = reference.BACKPROP_FAST_LR, reference.BACKPROP_SLOW_LR
    t0 = time.perf_counter()
    rows = {lr: [(lr, s, mlp.backprop_train(mlp.BackpropConfig(learning_rate=lr, seed=s)))
                 for s in range(reference.BACKPROP_SEED, reference.BACKPROP_SEED + n)]
            for lr, n in ((fast_lr, reference.BACKPROP_FAST_RUNS),
                          (slow_lr, reference.BACKPROP_SLOW_RUNS))}
    fast = [r for _, _, r in rows[fast_lr]]
    slow = [r for _, _, r in rows[slow_lr]]
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):  # central differences against the analytic gradient
        w = rng.uniform(-1, 1, 9)
        num = np.empty(9)
        for j in range(9):
            wp, wm = w.copy(), w.copy()
            wp[j] += 1e-6
            wm[j] -= 1e-6
            num[j] = (mlp.mse(wp) - mlp.mse(wm)) / 2e-6
        worst = max(worst, np.linalg.norm(mlp.mse_gradient(w) - num)
                    / max(np.linalg.norm(num), 1e-12))
    wall = time.perf_counter() - t0
    successes = [r.epochs_used for r in fast if r.outcome == "success"]
    mean_success = statistics.fmean(successes) if successes else math.inf
    mean_all = statistics.fmean(r.epochs_used for r in fast)
    limit_hits = sum(r.outcome == "epoch_limit" for r in slow)
    mean_slow = statistics.fmean(r.epochs_used for r in slow)
    max_mean = reference.BACKPROP_MAX_MEAN_EPOCHS
    return Criterion(7, "Backprop baseline", [
        Check(f"lr {fast_lr} successes", len(successes) >= reference.BACKPROP_MIN_SUCCESSES,
              f"{len(successes)} of {len(fast)}, at least {reference.BACKPROP_MIN_SUCCESSES}"),
        Check(f"lr {fast_lr} mean epochs", mean_success < max_mean and mean_all < max_mean,
              f"{mean_success:.2f} over successes, {mean_all:.2f} over all runs, "
              f"below {max_mean} (reference 33.60)"),
        Check(f"lr {slow_lr} slower",
              limit_hits > 0 or mean_slow >= reference.BACKPROP_SLOWDOWN * mean_all,
              f"{limit_hits} of {len(slow)} hit the epoch limit, mean {mean_slow:.2f} epochs "
              f"(reference 46987.00)"),
        Check("analytic gradient", worst <= 1e-6,
              f"worst relative error {worst:.2e} over 100 draws, at most 1e-6"),
    ], {"successes": len(successes), "mean_success": mean_success, "mean_all": mean_all,
        "limit_hits": limit_hits, "mean_slow": mean_slow, "gradient_rel_err": float(worst)},
        wall, {f"backprop_lr_{lr}.csv": (lambda path, r=r: mlp.export_train_results(r, path))
               for lr, r in rows.items()})


def large_window() -> Criterion:
    window = WeightWindow(w=9, z=8, origin=(0,) * 9, delta_p=0.5)
    t0 = time.perf_counter()
    n = window_size(window)
    sols = oracle.enumerate_solutions(window)
    digest = hashlib.sha256(sols.indices.astype("<i8").tobytes()).hexdigest()
    t_int, marked = 0, 0.0
    if sols.k:  # a walk needs a marked vertex
        t_int = steps_to_max(WalkParams(N=n, k=sols.k, l=1))[1]
        p = outcome_probabilities(_evolved(n, sols.k, t_int))
        marked = float(p[0] + p[1])
    wall = time.perf_counter() - t0
    return Criterion(9, "Large window (z=8 at the origin)", [
        Check("N", n == reference.Z8_N, f"{n} vertices"),
        Check("k", sols.k == reference.Z8_ORIGIN_K,
              f"k = {sols.k} against {reference.Z8_ORIGIN_K} for this window "
              "(the reference run reported 80295 for its own)"),
        Check("solution indices", digest.startswith(reference.Z8_ORIGIN_INDEX_SHA256),
              f"sha256 {digest[:16]} against {reference.Z8_ORIGIN_INDEX_SHA256}"),
        Check("marked probability", marked >= reference.Z8_MARKED_MIN,
              f"t = {t_int}: p_AA + p_AB = {marked:.6f}, at least {reference.Z8_MARKED_MIN}"),
    ], {"N": n, "k": sols.k, "sha256": digest, "t": t_int, "p_marked": marked}, wall,
        {"solutions_z8.bin": lambda path: oracle.write_binary(sols, path)})


CRITERIA = (toy_walk, step_counts, final_probabilities, line_walk, weight_search,
            backprop_baseline, large_window)
