import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwtrain import coined_walk as cw

S2 = math.sqrt(2.0)


def test_asymmetric_amplitudes_after_three_steps():
    # hand recursion from alpha_0 = 1:
    #   t=3:  n=3 (1/(2 sqrt 2), 0); n=1 (1/sqrt 2, 1/(2 sqrt 2));
    #         n=-1 (-1/(2 sqrt 2), 0); n=-3 (0, 1/(2 sqrt 2))
    state = cw.walk_1d(3, "asymmetric")
    assert state.t == 3
    # coin x position, index i standing for n = 2i - 3
    expect = np.array([[0.0, -1 / (2 * S2), 1 / S2, 1 / (2 * S2)],
                       [1 / (2 * S2), 0.0, 1 / (2 * S2), 0.0]])
    assert state.amplitudes.shape == expect.shape
    assert np.abs(state.amplitudes - expect).max() < 1e-12


def _pair_recursion(steps, alpha0, beta0):
    # the line walk in Python complex arithmetic, site by site
    amps = {0: (alpha0, beta0)}
    for _ in range(steps):
        new = {}
        for n, (alpha, beta) in amps.items():
            new[n + 1] = ((alpha + beta) / S2, new.get(n + 1, (0j, 0j))[1])
            new[n - 1] = (new.get(n - 1, (0j, 0j))[0], (alpha - beta) / S2)
        amps = new
    return {n: p for n, (a, b) in amps.items() if (p := abs(a) ** 2 + abs(b) ** 2) > 0.0}


@pytest.mark.parametrize("init", sorted(cw.INITS))
def test_line_walk_matches_the_pair_recursion_bit_for_bit(init):
    for t in (0, 1, 2, 3, 17, 40, 300):
        assert cw.distribution_1d(cw.walk_1d(t, init)) == _pair_recursion(t, *cw.INITS[init])


def test_asymmetric_distribution_after_three_steps():
    dist = cw.distribution_1d(cw.walk_1d(3, "asymmetric"))
    assert dist == pytest.approx({3: 1 / 8, 1: 5 / 8, -1: 1 / 8, -3: 1 / 8})


def test_zero_steps_is_the_initial_point():
    dist = cw.distribution_1d(cw.walk_1d(0, "asymmetric"))
    assert dist == {0: 1.0}


@given(st.integers(min_value=0, max_value=40),
       st.sampled_from(["asymmetric", "symmetric"]))
@settings(max_examples=25, deadline=None)
def test_norm_is_conserved(steps, init):
    state = cw.walk_1d(steps, init)
    assert cw.norm(state) == pytest.approx(1.0, abs=1e-12)


def test_parity_of_support():
    # after t steps only positions with n + t even are reachable
    for t in (4, 7):
        dist = cw.distribution_1d(cw.walk_1d(t, "asymmetric"))
        assert all((n + t) % 2 == 0 for n in dist)
        assert max(abs(n) for n in dist) == t


def test_symmetric_init_mirror_exact():
    dist = cw.distribution_1d(cw.walk_1d(100, "symmetric"))
    for n, p in dist.items():
        assert dist[-n] == p


def test_symmetric_peaks_sit_near_t_over_sqrt2():
    dist = cw.distribution_1d(cw.walk_1d(100, "symmetric"))
    peak = max(dist, key=dist.get)
    assert 60 <= abs(peak) <= 80


def test_asymmetric_beats_classical_spread():
    dist = cw.distribution_1d(cw.walk_1d(100, "asymmetric"))
    assert dist[0] < cw.classical_walk_probability(100, 0)


def test_classical_envelope_value():
    assert cw.classical_walk_probability(100, 0) == pytest.approx(
        2 / math.sqrt(200 * math.pi))


def test_bad_init_label():
    with pytest.raises(ValueError):
        cw.walk_1d(1, "sideways")


def test_nd_with_one_dimension_matches_the_line_walk():
    for t in (0, 1, 5, 12, 100):
        line = cw.distribution_1d(cw.walk_1d(t, "asymmetric"))
        assert cw.distribution_nd(cw.walk_nd(1, t)) == {(n,): p for n, p in line.items()}


def test_nd_two_dimensions_factorizes_for_product_coin():
    # Hadamard x Hadamard with product init: the 2D distribution is the
    # product of two independent line walks
    t = 6
    line = cw.distribution_1d(cw.walk_1d(t, "asymmetric"))
    d2 = cw.distribution_nd(cw.walk_nd(2, t))
    assert sum(d2.values()) == pytest.approx(1.0, abs=1e-12)
    for (x, y), p in d2.items():
        assert p == pytest.approx(line[x] * line[y], abs=1e-12)


def test_nd_norm_conserved():
    state = cw.walk_nd(2, 10)
    assert cw.norm(state) == pytest.approx(1.0, abs=1e-12)


def test_export_1d_format(tmp_path):
    path = tmp_path / "d.csv"
    cw.export_distribution_1d({1: 0.25, -1: 0.75}, path)
    lines = path.read_text().splitlines()
    assert lines == ["n,probability", "-1,0.75", "1,0.25"]


def test_export_nd_format(tmp_path):
    path = tmp_path / "d.csv"
    cw.export_distribution_nd({(0, 1): 1.0}, 2, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x1,x2,probability"
    assert lines[1] == "0,1,1.0"


@pytest.mark.parametrize("dims", (cw.MAX_DIMS + 1, 16, 10 ** 9))
def test_walk_nd_refuses_dims_above_the_cap(monkeypatch, dims):
    # one step at d=16 would hold 2^16 x 2^16 complex amplitudes, 64 GiB:
    # refused before any is allocated
    monkeypatch.setattr(cw, "_step", None)  # any work would fail
    with pytest.raises(ValueError, match="coin above the cap of dims 8"):
        cw.walk_nd(dims, 1)


FIRST_REFUSED_STEPS = {1: 2236, 2: 136, 4: 14, 8: 3}  # by dims


def test_the_work_cap_refuses_the_first_step_past_it():
    for dims, steps in FIRST_REFUSED_STEPS.items():
        assert cw.walk_work(dims, steps - 1) <= cw.MAX_WALK_WORK < cw.walk_work(dims, steps)


@pytest.mark.parametrize("dims,steps", [*FIRST_REFUSED_STEPS.items(), (2, 10 ** 30)])
def test_walks_refuse_steps_above_the_work_cap(monkeypatch, dims, steps):
    monkeypatch.setattr(cw, "_step", None)  # any work would fail
    with pytest.raises(ValueError, match="above the cap"):
        cw.walk_nd(dims, steps)
    if dims == 1:
        with pytest.raises(ValueError, match="above the cap"):
            cw.walk_1d(steps)
