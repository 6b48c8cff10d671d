import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwtrain import lackadaisical_walk as lw


def _params(draw_n, draw_k, draw_l):
    return lw.WalkParams(N=draw_n, k=draw_k, l=draw_l)


valid_params = st.integers(min_value=2, max_value=10 ** 6).flatmap(
    lambda n: st.tuples(st.just(n),
                        st.integers(min_value=1, max_value=n - 1),
                        st.integers(min_value=1, max_value=64))
).map(lambda t: lw.WalkParams(N=t[0], k=t[1], l=t[2]))


def test_params_validation():
    with pytest.raises(ValueError):
        lw.WalkParams(N=4, k=0, l=1)
    with pytest.raises(ValueError):
        lw.WalkParams(N=4, k=4, l=1)
    with pytest.raises(ValueError):
        lw.WalkParams(N=4, k=1, l=0)
    with pytest.raises(ValueError):
        lw.WalkParams(N=1, k=1, l=1)


@given(valid_params)
@settings(max_examples=200, deadline=None)
def test_angle_identities(params):
    a = lw.angles(params)
    assert a.cos_theta ** 2 + a.sin_theta ** 2 == pytest.approx(1.0, abs=1e-12)
    assert a.cos_phi ** 2 + a.sin_phi ** 2 == pytest.approx(1.0, abs=1e-12)
    assert a.sin_theta >= 0 and a.sin_phi >= 0


@given(valid_params)
@settings(max_examples=200, deadline=None)
def test_operator_is_orthogonal(params):
    op = lw.build_operator(lw.angles(params))
    assert op.shape == (4, 4)
    assert np.allclose(op @ op.T, np.eye(4), atol=1e-12)


def test_theta_equals_phi_when_one_self_loop():
    for n, k in ((8, 2), (512, 12), (262144, 20)):
        a = lw.angles(lw.WalkParams(N=n, k=k, l=1))
        assert a.cos_theta == a.cos_phi
        assert a.sin_theta == a.sin_phi


def test_single_solution_angle_forms():
    # k=1 closed forms: cos(theta) = (N-l-1)/(N+l-1), sin(theta) = 2 sqrt((N-1) l)/(N+l-1),
    # cos(phi) = (N+l-3)/(N+l-1), sin(phi) = 2 sqrt(N+l-2)/(N+l-1)
    for n, l in ((16, 1), (512, 1), (1000, 3), (4096, 7)):
        a = lw.angles(lw.WalkParams(N=n, k=1, l=l))
        d = n + l - 1
        assert a.cos_theta == pytest.approx((n - l - 1) / d, abs=1e-15)
        assert a.sin_theta == pytest.approx(2 * math.sqrt((n - 1) * l) / d, abs=1e-15)
        assert a.cos_phi == pytest.approx((n + l - 3) / d, abs=1e-15)
        assert a.sin_phi == pytest.approx(2 * math.sqrt(n + l - 2) / d, abs=1e-15)


def test_toy_initial_state_exact():
    state = lw.initial_state(lw.WalkParams(N=8, k=2, l=1))
    expect = np.array([2.0, math.sqrt(12), math.sqrt(12), 6.0]) / 8.0
    assert np.allclose(state, expect, atol=1e-15)


@given(valid_params)
@settings(max_examples=100, deadline=None)
def test_initial_state_is_normalized(params):
    state = lw.initial_state(params)
    assert np.dot(state, state) == pytest.approx(1.0, abs=1e-12)
    assert (state >= 0).all()


def test_steps_to_max_values_and_rounding():
    t_real, t_int = lw.steps_to_max(lw.WalkParams(N=512, k=12, l=1))
    assert t_real == pytest.approx(math.pi * math.sqrt(512.0 / 48.0), abs=1e-12)
    assert t_real == pytest.approx(10.2604, abs=5e-4)
    assert t_int == 11
    # the step count is the ceiling: x = 3.1416 for the toy -> 4
    assert lw.steps_to_max(lw.WalkParams(N=8, k=2, l=1))[1] == 4


def test_evolve_applies_exact_step_count():
    params = lw.WalkParams(N=8, k=2, l=1)
    op = lw.build_operator(lw.angles(params))
    s0 = lw.initial_state(params)
    s3 = lw.evolve(s0, op, 3)
    assert np.allclose(s3, op @ op @ op @ s0, atol=1e-15)
    assert lw.evolve(s0, op, 0) == pytest.approx(s0)


@given(valid_params, st.integers(min_value=0, max_value=400))
@settings(max_examples=100, deadline=None)
def test_evolve_equals_repeated_matrix_products_bit_for_bit(params, steps):
    op = lw.build_operator(lw.angles(params))
    state = lw.initial_state(params)
    expect = state.copy()
    for _ in range(steps):
        expect = op @ expect
    assert lw.evolve(state, op, steps).tobytes() == expect.tobytes()


@pytest.mark.parametrize("row,col", [(0, 2), (1, 0), (2, 3), (3, 1)])
def test_evolve_refuses_an_op_with_a_structural_zero_filled(row, col):
    op = lw.build_operator(lw.angles(lw.WalkParams(N=8, k=2, l=1)))
    op[row, col] = 1e-300
    state = lw.initial_state(lw.WalkParams(N=8, k=2, l=1))
    with pytest.raises(ValueError, match="structural"):
        lw.evolve(state, op, 3)
    with pytest.raises(ValueError, match="structural"):
        next(lw._trace_rows(op, state, 3))


def test_outcome_probabilities_sum_to_one():
    params = lw.WalkParams(N=512, k=12, l=1)
    state = lw.evolve(lw.initial_state(params),
                      lw.build_operator(lw.angles(params)), 7)
    p = lw.outcome_probabilities(state)
    assert all(isinstance(x, float) for x in p)
    assert sum(p) == pytest.approx(1.0, abs=1e-12)


def test_sample_outcome_distribution_and_validation():
    rng = np.random.default_rng(5)
    state = np.array([1.0, 0.0, 0.0, 0.0])
    assert all(lw.sample_outcome(state, rng) == "AA" for _ in range(20))
    half = np.array([0.0, math.sqrt(0.5), math.sqrt(0.5), 0.0])
    draws = [lw.sample_outcome(half, rng) for _ in range(400)]
    assert set(draws) == {"AB", "BA"}
    with pytest.raises(ValueError):
        lw.sample_outcome(np.array([1.0, 1.0, 0.0, 0.0]), rng)


def test_probability_trace_rows():
    rows = lw.probability_trace(lw.WalkParams(N=8, k=2, l=1), 3)
    assert [r[0] for r in rows] == [0, 1, 2, 3]
    assert rows[3][1] == pytest.approx(1.0, abs=1e-9)
    for r in rows:
        assert sum(r[1:]) == pytest.approx(1.0, abs=1e-12)


def test_export_trace_format(tmp_path):
    path = tmp_path / "trace.csv"
    last = lw.export_trace(iter([(0, 0.25, 0.25, 0.25, 0.25), (1, 0.5, 0.5, 0.0, 0.0)]), path)
    assert last == (1, 0.5, 0.5, 0.0, 0.0)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,p_AA,p_AB,p_BA,p_BB"
    assert lines[1:] == ["0,0.25,0.25,0.25,0.25", "1,0.5,0.5,0.0,0.0"]
    assert lw.export_trace([], path) is None


def test_outcome_labels_order():
    assert lw.OUTCOME_LABELS == ("AA", "AB", "BA", "BB")


def test_probability_trace_refuses_steps_above_the_cap(monkeypatch):
    # N = 10^20 is a valid walk whose peak is 15,707,963,268 steps away: the
    # trace is refused before the operator is built
    params = lw.WalkParams(N=10 ** 20, k=1)
    t_int = lw.steps_to_max(params)[1]
    assert t_int == 15_707_963_268
    monkeypatch.setattr(lw, "build_operator", None)  # any work would fail
    for steps in (t_int, lw.MAX_TRACE_STEPS + 1):
        for trace in (lw.probability_trace, lw.iter_probability_trace):
            with pytest.raises(ValueError, match="above the cap of 1000000 steps"):
                trace(params, steps)
