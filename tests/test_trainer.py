import json

import numpy as np
import pytest

from qwtrain import oracle, trainer
from qwtrain.mlp import classification_error
from qwtrain.seeding import substream
from qwtrain.weight_space import WeightWindow, index_to_weights, window_size


def test_config_validation():
    with pytest.raises(ValueError):
        trainer.TrainerConfig(delta_p=0.0)
    with pytest.raises(ValueError):
        trainer.TrainerConfig(z=1)
    with pytest.raises(ValueError):
        trainer.TrainerConfig(l=0)
    with pytest.raises(ValueError):
        trainer.TrainerConfig(rounding="up")
    with pytest.raises(ValueError):
        trainer.TrainerConfig(count_noise=-0.1)
    with pytest.raises(ValueError, match="max_window_shifts"):
        trainer.TrainerConfig(max_window_shifts=-1)


def test_defaults_match_the_reference_setup():
    cfg = trainer.TrainerConfig()
    assert (cfg.delta_p, cfg.z, cfg.l) == (0.5, 2, 1)
    assert cfg.rounding == "ceiling"
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


def test_count_noise_changes_steps_not_validity():
    calm = trainer.train(trainer.TrainerConfig(seed=3))
    noisy = trainer.train(trainer.TrainerConfig(seed=3, count_noise=3.0))
    assert noisy.window == calm.window  # the search is untouched by the noise
    assert noisy.k == calm.k            # reported k is the true count
    assert noisy.t_int != calm.t_int    # but the step estimate moved
    if noisy.outcome in ("AA", "AB"):
        assert classification_error(noisy.weights) == 0


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
