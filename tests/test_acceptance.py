"""Acceptance gate: one test per acceptance criterion.

Each test name carries the criterion number, so a `pytest -v` run prints one
pass/fail line per criterion. Criteria 1-5, 7 and 9 are computed and judged
once, in `qwtrain.criteria`, from the reference values in `qwtrain.reference`;
their tests read the verdicts of one `qwtrain reproduce` run (the
`reproduce_run` fixture in conftest.py), so each test names the checks it
needs to pass and gates the wall time its criterion measured. Criteria 6 and
8, which the report does not cover, are computed here.
"""

import math
import time

import numpy as np

from qwtrain import mlp, oracle, reference
from qwtrain.lackadaisical_walk import (WalkParams, angles, build_operator,
                                        evolve, initial_state)
from qwtrain.weight_space import (WeightWindow, coords_to_index,
                                  index_to_coords, index_to_weights,
                                  window_size)


def passes(run, number, *names):
    """The criterion's record, after asserting its checks are exactly `names`
    and all pass."""
    criterion = run.criteria[number]
    checks = {c["name"]: c["ok"] for c in criterion["checks"]}
    assert checks == dict.fromkeys(names, True), criterion["checks"]
    print(f"criterion {number} PASS: " + "; ".join(c["detail"] for c in criterion["checks"]))
    return criterion


def test_criterion_1_toy_walk_collapses_to_aa_exactly(reproduce_run):
    assert passes(reproduce_run, 1, "initial state", "p_AA(3) = 1")["wall_s"] < 1e-3


def test_criterion_2_step_formula_matches_reference_table(reproduce_run):
    # (262144, 17) is the documented discrepancy: the formula gives 195.06,
    # the table lists 195.83, and ceiling rounding still lands on 196
    passes(reproduce_run, 2, *(f"t({r.N}, {r.k})" for r in reference.STEPS),
           "t(262144, 17) formula")


def test_criterion_3_final_probabilities_match_reference_table(reproduce_run):
    names = (f"p({r.N}, {r.k})" for r in reference.PROBABILITIES)
    assert passes(reproduce_run, 3, *names)["wall_s"] < 1.0  # the slowest walk


def test_criterion_4_line_walk_structure(reproduce_run):
    assert passes(reproduce_run, 4, "exact t=3 amplitudes", "norms 1", "mirror symmetry",
                  "peak", "quantum below classical")["wall_s"] < 1.0


def test_criterion_5_end_to_end_search_over_1000_seeds(reproduce_run):
    assert passes(reproduce_run, 5, "marked fraction", "zero error")["wall_s"] < 60.0


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


def test_criterion_7_backprop_baseline_trends(reproduce_run):
    assert passes(reproduce_run, 7, "lr 0.5 successes", "lr 0.5 mean epochs",
                  "lr 0.0001 slower", "analytic gradient")["wall_s"] < 300.0


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


def test_criterion_9_heavy_window_enumeration_and_walk(reproduce_run):
    passes(reproduce_run, 9, "N", "k", "solution indices", "marked probability")
