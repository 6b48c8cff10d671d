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
import struct
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
from .weight_space import (WeightWindow, coords_to_index, index_to_coords,
                           index_to_weights, window_size)


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
    runs = []  # per seed, its result or None for a seed that found no window
    for seed in range(reference.TRAIN_SEEDS):
        try:
            runs.append(trainer.train(replace(config, seed=seed)))
        except trainer.NoSolutionError:
            runs.append(None)
    wall = time.perf_counter() - t0
    results = [r for r in runs if r is not None]
    failures = len(runs) - len(results)
    marked = [r for r in results if r.outcome in ("AA", "AB")]
    fraction = len(marked) / reference.TRAIN_SEEDS
    errors = sum(r.classification_error != 0 for r in marked)
    digest = hashlib.sha256()
    for r in runs:
        if r is None:
            digest.update(b"no window;")
            continue
        origin = ",".join(map(str, r.window.origin))
        digest.update(f"{origin},{r.k},{r.shifts_performed},{r.outcome},"
                      f"{r.vertex_index},".encode())
        digest.update(r.weights.astype("<f8").tobytes())
    digest = digest.hexdigest()
    return Criterion(5, f"End-to-end weight search (z=2, seeds 0-{reference.TRAIN_SEEDS - 1})", [
        Check("marked fraction", fraction >= reference.TRAIN_MIN_FRACTION,
              f"{fraction:.4f} >= {reference.TRAIN_MIN_FRACTION} (reference mean 0.9944); "
              f"{failures} seeds found no window within {reference.TRAIN_MAX_SHIFTS} shifts"),
        Check("zero error", errors == 0,
              f"{errors} of {len(marked)} marked outcomes misclassify"),
        Check("sweep digest", digest.startswith(reference.TRAIN_SWEEP_SHA256),
              f"sha256 {digest[:16]} against {reference.TRAIN_SWEEP_SHA256} over "
              f"{len(runs)} seeds"),
    ], {"fraction": fraction, "no_window": failures, "marked": len(marked),
        "k_seen": sorted({r.k for r in results}), "sha256": digest}, wall,
        {"train_steps.csv": lambda path: trainer.export_steps_csv(results, path),
         "train_probabilities.csv": lambda path: trainer.export_probabilities_csv(results, path)})


def factored_oracle() -> Criterion:
    window, *edges = (WeightWindow(w=9, z=2, origin=origin, delta_p=reference.ORACLE_DELTA_P)
                      for origin in (reference.ORACLE_ORIGIN, *reference.ORACLE_EDGE_ORIGINS))
    t0 = time.perf_counter()
    serial = oracle.reference_enumerate(window)
    sols = oracle.enumerate_solutions(window)
    errors = sum(mlp.classification_error(index_to_weights(int(i), window)) != 0
                 for i in sols.indices)
    edge_sets = [(oracle.enumerate_solutions(w).indices.tolist(),
                  oracle.reference_enumerate(w).indices.tolist()) for w in edges]
    wall = time.perf_counter() - t0
    return Criterion(6, "Factored oracle equals the serial reference", [
        Check("serial reference", np.array_equal(serial.indices, sols.indices),
              f"{sols.k} solutions against {serial.k} from reference_enumerate"),
        Check("solutions found", sols.k > 0, f"k = {sols.k} at origin {window.origin}"),
        Check("re-verified", errors == 0, f"{errors} of {sols.k} solutions misclassify"),
        *(Check(f"half-edge window {i}", fast == slow,
                f"{fast} against {slow} from reference_enumerate at origin {w.origin}")
          for i, (w, (fast, slow)) in enumerate(zip(edges, edge_sets), start=1)),
    ], {"k": sols.k, "indices": sols.indices.tolist(),
        "half_edge": [fast for fast, _ in edge_sets]}, wall, {})


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
    digest = hashlib.sha256()
    for _, _, r in (*rows[fast_lr], *rows[slow_lr]):
        digest.update(f"{r.outcome},{r.epochs_used},".encode())
        digest.update(r.final_weights.astype("<f8").tobytes())
        digest.update(struct.pack("<d", r.final_mse))
    digest = digest.hexdigest()
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
        Check("sweep digest", digest.startswith(reference.BACKPROP_SWEEP_SHA256),
              f"sha256 {digest[:16]} against {reference.BACKPROP_SWEEP_SHA256} over "
              f"{len(fast) + len(slow)} runs"),
    ], {"successes": len(successes), "mean_success": mean_success, "mean_all": mean_all,
        "limit_hits": limit_hits, "mean_slow": mean_slow, "gradient_rel_err": float(worst),
        "sha256": digest},
        wall, {f"backprop_lr_{lr}.csv": (lambda path, r=r: mlp.export_train_results(r, path))
               for lr, r in rows.items()})


def invariants() -> Criterion:
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    unitarity = 0.0
    for _ in range(reference.INVARIANT_DRAWS):  # random valid (N, k, l)
        N = int(10 ** rng.uniform(0.4, 8.0)) + 2
        k = int(rng.integers(1, N))
        l = int(rng.integers(1, 100))
        op = build_operator(angles(WalkParams(N=N, k=k, l=l)))
        unitarity = max(unitarity, float(np.abs(op @ op.T - np.eye(4)).max()))
    state = _evolved(262144, 20, reference.INVARIANT_STEPS)
    norm = float(np.dot(state, state))
    pairs = ((8, 2), (512, 12), (262144, 17), (10 ** 6, 345))
    identity = all(a.cos_theta == a.cos_phi and a.sin_theta == a.sin_phi
                   for a in (angles(WalkParams(N=n, k=k, l=1)) for n, k in pairs))
    # k = 1 reduction to the single-solution closed forms (the phi column
    # signs in the operator match the general 4x4 form)
    closed = 0.0
    for n, l in ((64, 1), (4096, 5)):
        a = angles(WalkParams(N=n, k=1, l=l))
        d = n + l - 1
        closed = max(closed, abs(a.cos_theta - (n - l - 1) / d),
                     abs(a.sin_theta - 2 * math.sqrt((n - 1) * l) / d),
                     abs(a.cos_phi - (n + l - 3) / d),
                     abs(a.sin_phi - 2 * math.sqrt(n + l - 2) / d))
    round_trips = 0
    for z, w in ((2, 9), (4, 5), (3, 4)):
        win = WeightWindow(w=w, z=z, origin=tuple(int(v) for v in rng.integers(-5, 6, size=w)),
                           delta_p=0.5)
        round_trips += sum(coords_to_index(index_to_coords(int(i), win), win) != i
                           for i in rng.integers(0, window_size(win), size=200))
    off_lattice = 0.0  # distance of weight / delta_p from an integer
    for delta_p in (0.5, 0.25, 0.1):
        win = WeightWindow(w=9, z=4, origin=tuple(int(v) for v in rng.integers(-8, 9, size=9)),
                           delta_p=delta_p)
        for i in rng.integers(0, window_size(win), size=100):
            steps = index_to_weights(int(i), win) / delta_p
            off_lattice = max(off_lattice, float(np.abs(steps - np.round(steps)).max()))
    wall = time.perf_counter() - t0
    return Criterion(8, "Invariant suite", [
        Check("unitarity", unitarity < 1e-12,
              f"max |U U^T - I| {unitarity:.1e} over {reference.INVARIANT_DRAWS} "
              "random (N, k, l), below 1e-12"),
        Check("norm", abs(norm - 1.0) < 1e-10,
              f"{norm!r} after {reference.INVARIANT_STEPS} steps of (262144, 20, 1)"),
        Check("theta = phi at l = 1", identity, f"cos and sin equal at (N, k) in {pairs}"),
        Check("k = 1 closed forms", closed < 1e-15,
              f"worst error {closed:.1e} at (N, l) = (64, 1), (4096, 5), below 1e-15"),
        Check("index round-trip", round_trips == 0,
              f"{round_trips} of 600 indices changed at (z, w) = (2, 9), (4, 5), (3, 4)"),
        Check("delta_p multiples", off_lattice < 1e-9,
              f"weights within {off_lattice:.1e} of a multiple of delta_p 0.5, 0.25, 0.1"),
    ], {"unitarity": unitarity, "norm": norm, "closed_forms": closed,
        "round_trips": int(round_trips), "off_lattice": off_lattice}, wall, {})


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
            factored_oracle, backprop_baseline, invariants, large_window)
