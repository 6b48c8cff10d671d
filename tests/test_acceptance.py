"""Acceptance gate: one test per acceptance criterion.

Each test name carries the criterion number, so a `pytest -v` run prints one
pass/fail line per criterion. Reference values are the published ones;
criteria 2, 3, 7 and 9 read them, with their tolerances, from
`qwtrain.reference`, the table `qwtrain reproduce` also checks. Criterion 9
enumerates the 134M-vertex z=8 window exactly, which takes about 0.2 s.
"""

import hashlib
import math
import statistics
import time

import numpy as np

import qwtrain as qw
from qwtrain import coined_walk as cw
from qwtrain import mlp, oracle, reference, trainer
from qwtrain.lackadaisical_walk import (WalkParams, angles, build_operator,
                                        evolve, initial_state,
                                        outcome_probabilities, steps_to_max)
from qwtrain.weight_space import (WeightWindow, coords_to_index,
                                  index_to_coords, index_to_weights,
                                  window_size)

S2 = math.sqrt(2.0)


def test_criterion_1_toy_walk_collapses_to_aa_exactly():
    t0 = time.perf_counter()
    params = WalkParams(N=8, k=2, l=1)
    state = initial_state(params)
    state = evolve(state, build_operator(angles(params)), 3)
    elapsed = time.perf_counter() - t0
    expect_init = np.array([2.0, math.sqrt(12), math.sqrt(12), 6.0]) / 8.0
    assert np.allclose(initial_state(params), expect_init, atol=1e-15)
    p_aa = outcome_probabilities(state)[0]
    assert abs(p_aa - 1.0) < 1e-9
    assert elapsed < 1e-3
    print(f"criterion 1 PASS: p_AA(3) = {p_aa:.12f}, {elapsed * 1e6:.0f} us")


def test_criterion_2_step_formula_matches_reference_table():
    # each row carries its tolerance; (262144, 17) is the documented
    # discrepancy: the formula gives 195.06, the reference table lists
    # 195.83, and ceiling rounding still lands on 196
    for row in reference.STEPS:
        t_real, t_int = steps_to_max(WalkParams(N=row.N, k=row.k, l=1), "ceiling")
        assert abs(t_real - row.t_real) <= row.tol, (row, t_real)
        assert t_int == row.t_int, (row, t_int)
    t_disc = steps_to_max(WalkParams(N=262144, k=17, l=1))[0]
    assert abs(t_disc - 195.06) <= 0.01
    print("criterion 2 PASS: 10.26/179.83/64.22 within 0.01; "
          f"(262144,17) computed {t_disc:.2f} vs reference 195.83 "
          "(documented discrepancy); ceiling t = 11/180/65/196")


def test_criterion_3_final_probabilities_match_reference_table():
    def simulate(N, k, steps):
        t0 = time.perf_counter()
        params = WalkParams(N=N, k=k, l=1)
        state = evolve(initial_state(params), build_operator(angles(params)),
                       steps)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0
        return outcome_probabilities(state)

    measured = []
    for row in reference.PROBABILITIES:
        p = simulate(row.N, row.k, row.steps)
        assert row.passes(p), (row, p)
        measured.append(f"{p[0]:.6f} ({row.N},{row.k})")
    print("criterion 3 PASS: p_AA = " + ", ".join(measured))


def test_criterion_4_line_walk_structure():
    t0 = time.perf_counter()
    state3 = cw.walk_1d(3, "asymmetric")
    expect = {3: (1 / (2 * S2), 0.0), 1: (1 / S2, 1 / (2 * S2)),
              -1: (-1 / (2 * S2), 0.0), -3: (0.0, 1 / (2 * S2))}
    assert set(state3.amplitudes) == set(expect)
    for n, (ea, eb) in expect.items():
        a, b = state3.amplitudes[n]
        assert abs(a - ea) < 1e-12 and abs(b - eb) < 1e-12

    asym = cw.walk_1d(100, "asymmetric")
    sym = cw.walk_1d(100, "symmetric")
    assert abs(cw.norm_1d(asym) - 1.0) < 1e-10
    assert abs(cw.norm_1d(sym) - 1.0) < 1e-10

    dist = cw.distribution_1d(sym)
    assert all(dist[-n] == p for n, p in dist.items())
    peak = max(dist, key=dist.get)
    assert 60 <= abs(peak) <= 80
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"criterion 4 PASS: exact t=3 amplitudes, norms 1, "
          f"symmetric peak |n| = {abs(peak)}, {elapsed:.2f} s")


def test_criterion_5_end_to_end_search_over_1000_seeds():
    t0 = time.perf_counter()
    outcomes = []
    zero_error = True
    failures = 0
    for seed in range(1000):
        cfg = trainer.TrainerConfig(seed=seed, max_window_shifts=100000)
        try:
            r = trainer.train(cfg)
        except trainer.NoSolutionError:
            failures += 1
            continue
        outcomes.append(r.outcome)
        if r.outcome in ("AA", "AB") and r.classification_error != 0:
            zero_error = False
    elapsed = time.perf_counter() - t0
    fraction = sum(o in ("AA", "AB") for o in outcomes) / 1000.0
    assert zero_error, "a marked outcome produced weights that misclassify"
    assert fraction >= 0.95, fraction
    assert elapsed < 60.0, elapsed
    print(f"criterion 5 PASS: fraction {fraction:.4f} (reference mean 0.9944), "
          f"{failures} runs without a window, zero error everywhere, "
          f"{elapsed:.1f} s")


def test_criterion_6_parallel_oracle_equals_serial_reference():
    t0 = time.perf_counter()
    window = WeightWindow(w=9, z=2, origin=(1, 1, 2, -3, -3, 2, -2, -3, -2),
                          delta_p=0.5)
    ref = oracle.reference_enumerate(window)
    fast = oracle.enumerate_solutions(window)
    assert np.array_equal(ref.indices, fast.indices)
    assert fast.k > 0
    for idx in fast.indices:
        assert mlp.classification_error(index_to_weights(int(idx), window)) == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"criterion 6 PASS: {fast.k} solutions, factored == serial reference, "
          f"all re-verified, {elapsed:.2f} s")


def test_criterion_7_backprop_baseline_trends():
    t0 = time.perf_counter()
    fast = [mlp.backprop_train(mlp.BackpropConfig(
                learning_rate=reference.BACKPROP_FAST_LR, seed=s))
            for s in range(500, 500 + reference.BACKPROP_FAST_RUNS)]
    successes = [r for r in fast if r.outcome == "success"]
    mean_success = statistics.fmean(r.epochs_used for r in successes)
    mean_all = statistics.fmean(r.epochs_used for r in fast)
    assert len(successes) >= reference.BACKPROP_MIN_SUCCESSES
    assert mean_success < reference.BACKPROP_MAX_MEAN_EPOCHS
    assert mean_all < reference.BACKPROP_MAX_MEAN_EPOCHS

    slow = [mlp.backprop_train(mlp.BackpropConfig(
                learning_rate=reference.BACKPROP_SLOW_LR, seed=s))
            for s in range(500, 500 + reference.BACKPROP_SLOW_RUNS)]
    limit_hits = sum(r.outcome == "epoch_limit" for r in slow)
    mean_slow = statistics.fmean(r.epochs_used for r in slow)
    assert limit_hits > 0 or mean_slow >= reference.BACKPROP_SLOWDOWN * mean_all

    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        w = rng.uniform(-1, 1, 9)
        g = mlp.mse_gradient(w)
        num = np.empty(9)
        for j in range(9):
            wp, wm = w.copy(), w.copy()
            wp[j] += 1e-6
            wm[j] -= 1e-6
            num[j] = (mlp.mse(wp) - mlp.mse(wm)) / 2e-6
        rel = np.linalg.norm(g - num) / max(np.linalg.norm(num), 1e-12)
        worst = max(worst, rel)
    assert worst <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(f"criterion 7 PASS: {len(successes)}/100 success, mean epochs "
          f"{mean_success:.1f} (successes) / {mean_all:.1f} (all) "
          f"(references 33.60 at lr 0.5; 46987.00 at lr 1e-4), "
          f"{limit_hits}/20 slow runs hit the epoch limit, "
          f"gradient rel err {worst:.2e}, {elapsed:.0f} s")


def test_criterion_8_invariant_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)

    # unitarity across 10^4 random valid parameter triples
    for _ in range(10 ** 4):
        N = int(10 ** rng.uniform(0.4, 8.0)) + 2
        k = int(rng.integers(1, N))
        l = int(rng.integers(1, 100))
        op = build_operator(angles(WalkParams(N=N, k=k, l=l)))
        assert np.abs(op @ op.T - np.eye(4)).max() < 1e-12

    # norm conservation over 10^4 steps
    params = WalkParams(N=262144, k=20, l=1)
    state = evolve(initial_state(params), build_operator(angles(params)),
                   10 ** 4)
    assert abs(np.dot(state, state) - 1.0) < 1e-10

    # theta = phi identity at l = 1
    for n, k in ((8, 2), (512, 12), (262144, 17), (10 ** 6, 345)):
        a = angles(WalkParams(N=n, k=k, l=1))
        assert a.cos_theta == a.cos_phi and a.sin_theta == a.sin_phi

    # k = 1 reduction to the single-solution closed forms (note the phi
    # column signs in the operator match the general 4x4 form)
    for n, l in ((64, 1), (4096, 5)):
        a = angles(WalkParams(N=n, k=1, l=l))
        d = n + l - 1
        assert abs(a.cos_theta - (n - l - 1) / d) < 1e-15
        assert abs(a.sin_theta - 2 * math.sqrt((n - 1) * l) / d) < 1e-15
        assert abs(a.cos_phi - (n + l - 3) / d) < 1e-15
        assert abs(a.sin_phi - 2 * math.sqrt(n + l - 2) / d) < 1e-15

    # index/coords round-trip
    for z, w in ((2, 9), (4, 5), (3, 4)):
        win = WeightWindow(w=w, z=z, origin=tuple(int(v) for v in
                           rng.integers(-5, 6, size=w)), delta_p=0.5)
        for idx in rng.integers(0, window_size(win), size=200):
            coords = index_to_coords(int(idx), win)
            assert coords_to_index(coords, win) == idx

    # every emitted weight is an integer multiple of delta_p
    for delta_p in (0.5, 0.25, 0.1):
        win = WeightWindow(w=9, z=4, origin=tuple(int(v) for v in
                           rng.integers(-8, 9, size=9)), delta_p=delta_p)
        for idx in rng.integers(0, window_size(win), size=100):
            wts = index_to_weights(int(idx), win)
            steps = wts / delta_p
            assert np.abs(steps - np.round(steps)).max() < 1e-9

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"criterion 8 PASS: unitarity x 10^4, norm over 10^4 steps, "
          f"angle identities, round-trips, delta_p multiples, {elapsed:.1f} s")


def test_criterion_9_heavy_window_enumeration_and_walk():
    t0 = time.perf_counter()
    window = WeightWindow(w=9, z=8, origin=(0,) * 9, delta_p=0.5)
    n = window_size(window)
    assert n == 134217728
    sols = oracle.enumerate_solutions(window)
    k = sols.k
    assert k == reference.Z8_ORIGIN_K
    digest = hashlib.sha256(sols.indices.astype("<i8").tobytes()).hexdigest()
    assert digest.startswith(reference.Z8_ORIGIN_INDEX_SHA256)
    params = WalkParams(N=n, k=k, l=1)
    t_real, t_int = steps_to_max(params, "ceiling")
    state = evolve(initial_state(params), build_operator(angles(params)), t_int)
    p = outcome_probabilities(state)
    assert p[0] + p[1] >= reference.Z8_MARKED_MIN
    elapsed = time.perf_counter() - t0
    print(f"criterion 9 PASS: k = {k} (window-dependent; reference run "
          f"reported 80295), t = {t_int}, p_AA + p_AB = {p[0] + p[1]:.6f}, "
          f"{elapsed:.1f} s")
