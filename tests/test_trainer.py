import json
import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import interval_counts, shift_displacements
from qwtrain import oracle, trainer
from qwtrain.mlp import classification_error
from qwtrain.seeding import substream
from qwtrain.weight_space import (WeightWindow, index_to_weights,
                                  shift_window, window_size)


def test_config_validation():
    with pytest.raises(ValueError):
        trainer.TrainerConfig(delta_p=0.0)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="delta_p must be finite and positive"):
            trainer.TrainerConfig(delta_p=bad)
    with pytest.raises(ValueError):
        trainer.TrainerConfig(z=1)
    with pytest.raises(ValueError):
        trainer.TrainerConfig(l=0)
    with pytest.raises(ValueError, match="max_window_shifts"):
        trainer.TrainerConfig(max_window_shifts=-1)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        trainer.TrainerConfig(seed=-1)
    for field in ("z", "l", "seed", "max_window_shifts"):
        for bad in (1.5, 2.5, 3.0, False, np.float64(3.0), "3", None):
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                trainer.TrainerConfig(**{field: bad})
    cfg = trainer.TrainerConfig(z=np.int64(2), l=np.int32(1), seed=np.uint8(3),
                                max_window_shifts=np.int64(3000))
    assert trainer.train(cfg).shifts_performed == 2950


def test_defaults_match_the_reference_setup():
    cfg = trainer.TrainerConfig()
    assert (cfg.delta_p, cfg.z, cfg.l) == (0.5, 2, 1)
    assert cfg.max_window_shifts == 10000


def test_train_seed_3_frozen_run():
    r = trainer.train(trainer.TrainerConfig(seed=3))
    assert r.window.origin == (3, -2, -2, 1, -1, 2, 0, 3, 0)
    assert (r.k, r.N, r.t_int) == (2, 512, 26)
    assert r.outcome == "AA"
    assert r.vertex_index == 25
    assert r.shifts_performed == 2950
    assert r.classification_error == 0
    assert classification_error(r.weights) == 0


def test_train_is_deterministic():
    a = trainer.train(trainer.TrainerConfig(seed=6))
    b = trainer.train(trainer.TrainerConfig(seed=6))
    assert a.window == b.window
    assert a.vertex_index == b.vertex_index
    assert a.outcome == b.outcome
    assert np.array_equal(a.final_state, b.final_state)


def test_marked_outcome_vertices_solve():
    for seed in (1, 2, 3, 4):
        r = trainer.train(trainer.TrainerConfig(seed=seed))
        assert r.outcome in ("AA", "AB", "BA", "BB")
        wts = index_to_weights(r.vertex_index, r.window)
        assert np.array_equal(wts, r.weights)
        if r.outcome in ("AA", "AB"):
            assert classification_error(wts) == 0


def test_no_solution_error_carries_context():
    cfg = trainer.TrainerConfig(seed=0, max_window_shifts=5)
    with pytest.raises(trainer.NoSolutionError) as exc_info:
        trainer.train(cfg)
    err = exc_info.value
    assert err.shifts_tried == 5
    assert err.seed == 0
    assert err.start_window.origin == (2, 2, -2, -1, 1, 1, -1, -2, 2)
    # the start is barren, so shifts 1..5 are scanned, all on ring 1
    assert (err.windows_scanned, err.ring_radius) == (5, 1)
    assert "5 windows scanned, out to ring 1" in str(err)
    with pytest.raises(trainer.NoSolutionError) as exc_info:
        trainer.train(trainer.TrainerConfig(seed=0, max_window_shifts=0))
    assert (exc_info.value.windows_scanned, exc_info.value.ring_radius) == (0, 0)


@pytest.mark.parametrize("cap,context", [(19682, (19682, 1)), (19683, (19683, 2))])
def test_no_solution_error_context_at_the_ring_boundary(cap, context):
    # delta_p 0.01 leaves seed 0 barren far out; ring 1 holds shifts
    # 1..19682, so a cap one past it scans the first window of ring 2 and
    # the search stops inside a block
    with pytest.raises(trainer.NoSolutionError) as exc_info:
        trainer.train(trainer.TrainerConfig(seed=0, delta_p=0.01, max_window_shifts=cap))
    err = exc_info.value
    assert (err.windows_scanned, err.ring_radius) == context
    assert err.shifts_tried == cap


def test_shift_search_refuses_windows_whose_weights_overflow():
    # the start's weights are finite, ring 1's reach 1e307 * 19: the search
    # stops with the window validation's error instead of scanning infinities
    # (the start's own sums overflow, as the float64 forward pass's do)
    start = WeightWindow(w=9, z=2, origin=(15,) * 9, delta_p=1e307)
    with pytest.raises(ValueError, match="window weights must be finite"), \
            np.errstate(over="ignore"):
        trainer.find_solvable_window(start, trainer.TrainerConfig(z=2, delta_p=1e307))


def test_find_solvable_window_respects_the_shift_cap():
    # seed 3 needs 2950 shifts; a cap just below must fail, just above must not
    start = trainer.random_window(9, 2, 0.5, seed=3)
    with pytest.raises(trainer.NoSolutionError):
        trainer.find_solvable_window(start, trainer.TrainerConfig(
            seed=3, max_window_shifts=2949))
    _, sols, shifts = trainer.find_solvable_window(start, trainer.TrainerConfig(
        seed=3, max_window_shifts=2950))
    assert shifts == 2950
    assert sols.k == 2


def _first_solvable_by_enumeration(start, max_shifts):
    for i in range(max_shifts + 1):
        window = shift_window(start, i)
        sols = oracle.enumerate_solutions(window)
        if sols.k > 0:
            return window, sols, i
    return None


@pytest.mark.parametrize("z,seeds,max_shifts", [
    (2, (2, 0), 120), (3, (1, 2, 3), 60), (5, (1, 3, 4, 6), 30)],
    ids=("z2", "z3", "z5"))
def test_find_solvable_window_matches_exhaustive_enumeration(z, seeds, max_shifts):
    # each case has a window found after some shifts and a start with none
    # within the cap; the search must pick the first window enumeration finds
    outcomes = set()
    for seed in seeds:
        start = trainer.random_window(9, z, 0.5, seed)
        config = trainer.TrainerConfig(z=z, seed=seed, max_window_shifts=max_shifts)
        expected = _first_solvable_by_enumeration(start, max_shifts)
        if expected is None:
            with pytest.raises(trainer.NoSolutionError):
                trainer.find_solvable_window(start, config)
            outcomes.add("none")
            continue
        window, sols, shifts = trainer.find_solvable_window(start, config)
        assert (window, shifts) == (expected[0], expected[2])
        assert np.array_equal(sols.indices, expected[1].indices)
        outcomes.add("shifted" if shifts else "start")
    assert {"shifted", "none"} <= outcomes


def _first_solvable_by_scan(start, max_shifts):
    """Naive reference search: the first nonzero brute-force count
    (interval_counts) over the shift_displacements rows, in shift order, up
    to max_shifts, counted 64 rows at a time."""
    sols = oracle.enumerate_solutions(start)
    if sols.k:
        return start, sols, 0
    origin = np.asarray(start.origin, dtype=np.int64)
    for first, rows in shift_displacements(start.w, start.z, batch=4096):
        if first > max_shifts:
            return None
        rows = rows[:max_shifts - first + 1]
        for j in range(0, rows.shape[0], 64):
            hits = np.flatnonzero(interval_counts(origin + rows[j:j + 64], start.z,
                                                  start.delta_p))
            if hits.size:
                window = replace(start, origin=tuple(
                    int(v) for v in origin + rows[j + hits[0]]))
                return window, oracle.enumerate_solutions(window), first + j + int(hits[0])


@pytest.mark.parametrize("z,delta_p,cases,survivor_block", [
    # seed 5's first hit is shift 69346, past ring 1's 19,682 windows; seed
    # 24 has none within 100,000; seed 3's hit (2950) and the caps around it
    # fall inside one ring-1 block
    (2, 0.5, ((0, 100000), (1, 100000), (5, 70000), (24, 30000), (3, 2949),
              (3, 2950), (3, 3000), (102, 19682)), None),
    (3, 0.5, ((1, 2000), (3, 2000), (9, 2000), (16, 2000), (0, 2000), (11, 3)), None),
    (3, 1.0, ((0, 3000), (8, 1477), (8, 1478), (10, 2000)), None),
    # the train-z4 config: seed 1's start solves; seed 12's hit (18) and
    # seed 17's (263) lie past ring 1's first block of 9 windows; seed 0's
    # first hit is 2951
    (4, 1.0, ((1, 100), (12, 100), (17, 300), (0, 50)), None),
    # with 16 survivors per pass over the output biases, the first pass that
    # finds solutions of seed 6's hit (24, k = 176) finds 23 of them, inside
    # the window's live blocks, and they are held until its run ends; seed
    # 22's first hit is 28
    (4, 1.0, ((6, 100), (22, 20)), 16)],
    ids=("z2", "z3-0.5", "z3-1.0", "z4", "z4-survivor-flush"))
def test_find_solvable_window_matches_the_naive_scan(monkeypatch, z, delta_p, cases,
                                                     survivor_block):
    if survivor_block is not None:
        monkeypatch.setattr(oracle, "_SURVIVOR_BLOCK", survivor_block)
    outcomes = set()
    for seed, max_shifts in cases:
        start = trainer.random_window(9, z, delta_p, seed)
        config = trainer.TrainerConfig(z=z, delta_p=delta_p, seed=seed,
                                       max_window_shifts=max_shifts)
        expected = _first_solvable_by_scan(start, max_shifts)
        if expected is None:
            with pytest.raises(trainer.NoSolutionError) as exc_info:
                trainer.find_solvable_window(start, config)
            assert exc_info.value.windows_scanned == max_shifts
            outcomes.add("none")
            continue
        window, sols, shifts = trainer.find_solvable_window(start, config)
        assert (window, shifts) == (expected[0], expected[2])
        assert sols.indices.tobytes() == expected[1].indices.tobytes()
        assert window == shift_window(start, shifts)
        outcomes.add("ring 2" if shifts > 19682 else "shifted" if shifts else "start")
    assert {"shifted", "none"} <= outcomes


@pytest.mark.parametrize("cap", (0, 1))
def test_the_start_window_is_searched_at_any_shift_cap(cap):
    # z=4 seed 1's start solves; z=2 seed 0's is barren, and so is its shift
    # 1 (its first hit is shift 14134)
    start = trainer.random_window(9, 4, 1.0, seed=1)
    window, sols, shifts = trainer.find_solvable_window(start, trainer.TrainerConfig(
        z=4, delta_p=1.0, seed=1, max_window_shifts=cap))
    assert (window, shifts) == (start, 0)
    assert sols.indices.tobytes() == oracle.enumerate_solutions(start).indices.tobytes()
    assert sols.k == 72
    barren = trainer.random_window(9, 2, 0.5, seed=0)
    with pytest.raises(trainer.NoSolutionError) as exc_info:
        trainer.find_solvable_window(barren, trainer.TrainerConfig(
            seed=0, max_window_shifts=cap))
    err = exc_info.value
    assert (err.shifts_tried, err.windows_scanned, err.ring_radius) == (cap, cap, cap)


def test_a_start_above_the_vertex_cap_is_refused_before_any_search(monkeypatch):
    def no_search(*args):
        raise AssertionError("searched a window above the vertex cap")

    monkeypatch.setattr(trainer, "first_solvable_position", no_search)
    start = trainer.random_window(9, 11, 0.5, 0)  # 11^9 vertices > 2^30
    with pytest.raises(oracle.WindowTooLarge, match="above the cap"):
        trainer.find_solvable_window(start, trainer.TrainerConfig(z=11))


def test_a_solvable_start_comes_before_an_overflowing_ring():
    # the start's weights reach 1.7e308, ring 1's 1.9e308, which overflows;
    # the start solves, so the search returns it rather than refusing ring 1
    start = WeightWindow(w=9, z=2, origin=(15, 3, 1, 4, 2, 3, 4, -1, 1), delta_p=1e307)
    config = trainer.TrainerConfig(z=2, delta_p=1e307)
    with np.errstate(over="ignore"):
        window, sols, shifts = trainer.find_solvable_window(start, config)
        expected = oracle.enumerate_solutions(start)
    assert (window, shifts) == (start, 0)
    assert sols.indices.tobytes() == expected.indices.tobytes()
    assert sols.k == 8
    # one step further out, the barren start's ring is refused as before
    with pytest.raises(ValueError, match="window weights must be finite"), \
            np.errstate(over="ignore"):
        trainer.find_solvable_window(replace(start, origin=(15,) * 9), config)


def test_sample_vertex_marked_draws_from_solutions():
    win = WeightWindow(w=9, z=2, origin=(1, 1, 2, -3, -3, 2, -2, -3, -2),
                       delta_p=0.5)
    sols = oracle.enumerate_solutions(win)
    rng = substream(0, "measurement")
    draws = {trainer.sample_vertex("AA", sols, win, rng) for _ in range(200)}
    assert draws <= set(int(i) for i in sols.indices)
    assert len(draws) == sols.k  # all 6 seen in 200 draws


def test_sample_vertex_unmarked_avoids_solutions():
    win = WeightWindow(w=9, z=2, origin=(1, 1, 2, -3, -3, 2, -2, -3, -2),
                       delta_p=0.5)
    sols = oracle.enumerate_solutions(win)
    solset = set(int(i) for i in sols.indices)
    rng = substream(1, "measurement")
    n = window_size(win)
    draws = [trainer.sample_vertex("BB", sols, win, rng) for _ in range(500)]
    assert all(0 <= v < n and v not in solset for v in draws)


class _FixedRng:
    def __init__(self, value):
        self.value = value

    def integers(self, low, high):
        assert low <= self.value < high
        return self.value


def test_sample_vertex_rank_walks_the_complement():
    # tiny window with a hand-built solution set: complement of {1, 2} in
    # 0..3 is (0, 3); rank r must map 0 -> 0 and 1 -> 3
    win = WeightWindow(w=2, z=2, origin=(0, 0), delta_p=0.5)
    sols = oracle.SolutionSet(window=win, indices=np.array([1, 2], dtype=np.int64))
    assert trainer.sample_vertex("BA", sols, win, _FixedRng(0)) == 0
    assert trainer.sample_vertex("BB", sols, win, _FixedRng(1)) == 3
    marked = {trainer.sample_vertex("AA", sols, win, _FixedRng(i)) for i in (0, 1)}
    assert marked == {1, 2}


def test_result_json_fields():
    r = trainer.train(trainer.TrainerConfig(seed=3))
    d = json.loads(trainer.result_to_json(r))
    assert d["k"] == 2 and d["N"] == 512
    assert d["outcome"] == "AA"
    assert d["window"]["origin"] == [3, -2, -2, 1, -1, 2, 0, 3, 0]
    assert len(d["final_state"]) == 4
    assert set(d["outcome_probabilities"]) == {"AA", "AB", "BA", "BB"}
    assert d["classification_error"] == 0


def test_steps_csv_format(tmp_path):
    r = trainer.train(trainer.TrainerConfig(seed=3))
    path = tmp_path / "steps.csv"
    trainer.export_steps_csv([r], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "experiment,k,N,t_theoretical,t_simulated"
    assert lines[1] == "1,2,512,25.13,26"


def test_probabilities_csv_format(tmp_path):
    r = trainer.train(trainer.TrainerConfig(seed=3))
    path = tmp_path / "probs.csv"
    trainer.export_probabilities_csv([r], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "experiment,p_AA,p_AB,p_BA,p_BB"
    first = lines[1].split(",")
    assert first[0] == "1"
    assert sum(float(x) for x in first[1:]) == pytest.approx(1.0, abs=1e-9)
