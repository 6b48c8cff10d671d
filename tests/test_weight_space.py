import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwtrain import weight_space as ws


def _win(w=9, z=2, origin=None, delta_p=0.5):
    return ws.WeightWindow(w=w, z=z, origin=origin or (0,) * w, delta_p=delta_p)


def test_window_validation():
    with pytest.raises(ValueError):
        ws.WeightWindow(w=0, z=2, origin=(), delta_p=0.5)
    with pytest.raises(ValueError):
        ws.WeightWindow(w=2, z=0, origin=(0, 0), delta_p=0.5)
    # z=1 is a degenerate but legal single-point-per-dim window
    assert ws.window_size(ws.WeightWindow(w=2, z=1, origin=(0, 0),
                                          delta_p=0.5)) == 1
    with pytest.raises(ValueError):
        ws.WeightWindow(w=2, z=2, origin=(0,), delta_p=0.5)
    with pytest.raises(ValueError):
        ws.WeightWindow(w=2, z=2, origin=(0, 0), delta_p=0.0)
    # no field is coerced: a float or bool w, z or origin entry and a bool
    # delta_p are refused, where they would build a float-sized or truncated window
    for w, z, origin, delta_p in ((2, 2.0, (0, 0), 0.5), (2, True, (0, 0), 0.5),
                                  (2, 2, (1.5, 0), 0.5), (2, 2, (True, 0), 0.5),
                                  (2.0, 2, (0, 0), 0.5), (True, 2, (0,), 0.5),
                                  (2, 2, (0, 0), True)):
        with pytest.raises(ValueError, match="integers|delta_p"):
            ws.WeightWindow(w=w, z=z, origin=origin, delta_p=delta_p)
    assert ws.window_size(ws.WeightWindow(w=2, z=np.int64(2), origin=(np.int64(1), 0),
                                          delta_p=0.5)) == 4


@pytest.mark.parametrize("origin,z,delta_p", [
    ((0,) * 9, 2, math.inf),
    ((0,) * 9, 2, -math.inf),
    ((0,) * 9, 2, math.nan),
    ((0,) * 9, 2, 1e308),                # 1e308 * (0 + 2) overflows
    ((0,) * 8 + (10 ** 10,), 2, 1e300),  # one far origin coordinate
    ((0,) * 8 + (-10 ** 400,), 2, 0.5),  # an origin no float can hold
], ids=("inf", "-inf", "nan", "huge-delta_p", "far-origin", "origin-past-float"))
def test_window_rejects_non_finite_weights(origin, z, delta_p):
    with pytest.raises(ValueError, match="finite"):
        ws.WeightWindow(w=9, z=z, origin=origin, delta_p=delta_p)


def test_window_accepts_large_finite_weights():
    win = ws.WeightWindow(w=9, z=2, origin=(0,) * 8 + (10 ** 10,), delta_p=1e290)
    assert all(math.isfinite(v) for v in ws.index_to_weights(511, win))


def test_window_size():
    assert ws.window_size(_win()) == 512
    assert ws.window_size(_win(w=2, z=4, origin=(0, 0))) == 16


def test_index_coords_low_dim_first():
    win = _win(w=3, z=4, origin=(0, 0, 0))
    assert ws.index_to_coords(0, win) == (0, 0, 0)
    assert ws.index_to_coords(1, win) == (1, 0, 0)
    assert ws.index_to_coords(4, win) == (0, 1, 0)
    assert ws.index_to_coords(16, win) == (0, 0, 1)
    assert ws.index_to_coords(63, win) == (3, 3, 3)


@given(st.integers(min_value=2, max_value=5), st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=150, deadline=None)
def test_index_coords_round_trip(z, w, raw):
    win = ws.WeightWindow(w=w, z=z, origin=(0,) * w, delta_p=0.25)
    idx = raw % ws.window_size(win)
    coords = ws.index_to_coords(idx, win)
    assert all(0 <= c < z for c in coords)
    assert ws.coords_to_index(coords, win) == idx


def test_weights_formula():
    # weight_j = delta_p * (origin_j + coord_j - floor(z/2))
    win = ws.WeightWindow(w=2, z=4, origin=(3, -1), delta_p=0.5)
    assert ws.coords_to_weights((0, 0), win) == pytest.approx([0.5, -1.5])
    assert ws.coords_to_weights((3, 2), win) == pytest.approx([2.0, -0.5])
    assert ws.index_to_weights(0, win) == pytest.approx([0.5, -1.5])


@given(st.integers(min_value=0, max_value=511))
@settings(max_examples=60, deadline=None)
def test_all_weights_are_delta_p_multiples(idx):
    win = _win(origin=(2, -3, 0, 1, -1, 4, 0, -2, 3), delta_p=0.5)
    wts = ws.index_to_weights(idx, win)
    steps = wts / win.delta_p
    assert np.allclose(steps, np.round(steps), atol=1e-9)


def test_ring_size_formula_vs_brute_force():
    # ring r holds the displacement vectors with Chebyshev norm exactly r*z
    z = 3
    for w in (1, 2, 3):
        for r in (1, 2):
            brute = [d for d in itertools.product(
                range(-r * z, r * z + 1, z), repeat=w)
                if max(abs(c) for c in d) == r * z]
            assert ws.ring_size(w, r) == len(brute) == (2 * r + 1) ** w - (2 * r - 1) ** w


def test_first_ring_enumeration_order():
    # per-dimension digit order 0, +z, -z, +2z, ...; dim 0 advances fastest;
    # keep rows whose largest magnitude hits the ring radius
    got = []
    for first, rows in ws.iter_displacements(2, 4, batch=64):
        assert first == 1
        got = [tuple(int(v) for v in r) for r in rows[:8]]
        break
    assert got == [(4, 0), (-4, 0), (0, 4), (4, 4), (-4, 4),
                   (0, -4), (4, -4), (-4, -4)]


def test_displacements_cover_each_ring_once():
    seen = set()
    count = 0
    for first, rows in ws.iter_displacements(3, 2, batch=128):
        assert first == count + 1
        for r in rows:
            seen.add(tuple(int(v) for v in r))
        count += len(rows)
        if count >= ws.ring_size(3, 1) + ws.ring_size(3, 2):
            break
    assert len(seen) == count
    ring1 = {d for d in itertools.product((-2, 0, 2), repeat=3) if any(d)}
    assert ring1 <= seen


def test_batch_schedule_matches_flat_batches():
    flat = []
    for first, rows in ws.iter_displacements(2, 3, batch=16):
        flat.extend(tuple(int(v) for v in r) for r in rows)
        if len(flat) >= 100:
            break
    numpy_batch = []
    for first, rows in ws.iter_displacements(2, 3, batch=np.int64(16)):
        assert first == len(numpy_batch) + 1
        numpy_batch.extend(tuple(int(v) for v in r) for r in rows)
        if len(numpy_batch) >= 100:
            break
    assert flat[:100] == numpy_batch[:100]


def test_shift_window_matches_enumeration():
    win = _win(w=2, z=4, origin=(5, -2))
    disp = []
    for first, rows in ws.iter_displacements(2, 4, batch=64):
        disp.extend(tuple(int(v) for v in r) for r in rows)
        if len(disp) >= 90:
            break
    for i in (1, 2, 8, 9, 40, 80):
        shifted = ws.shift_window(win, i)
        assert shifted.origin == (5 + disp[i - 1][0], -2 + disp[i - 1][1])
        assert (shifted.z, shifted.w, shifted.delta_p) == (win.z, win.w, win.delta_p)


def test_shift_window_zero_is_identity():
    win = _win(w=2, z=4, origin=(5, -2))
    assert ws.shift_window(win, 0) == win


def test_random_window_is_seed_deterministic():
    a = ws.random_window(9, 2, 0.5, seed=42)
    b = ws.random_window(9, 2, 0.5, seed=42)
    c = ws.random_window(9, 2, 0.5, seed=43)
    assert a == b
    assert a != c
    assert all(-2 <= o <= 2 for o in a.origin)
    assert (a.w, a.z, a.delta_p) == (9, 2, 0.5)


def test_descriptor_round_trip():
    win = _win(w=3, z=4, origin=(1, -5, 2), delta_p=0.25)
    assert ws.from_descriptor(ws.to_descriptor(win)) == win


@pytest.mark.parametrize("groups,r,start,m", [
    (((0, 3), (1,), (2,)), 1, 0, 4), (((0, 3), (1,), (2,)), 1, 27, 3),
    (((0, 3), (1,), (2,)), 2, 125, 2), (((0,), (2, 1), (3, 4)), 1, 0, 2),
    (((0,), (1,), (2,)), 2, 0, 3)])
def test_ring_block_keys_span_the_counter_block(groups, r, start, m):
    # keys over a partition of the dims: each triple is one counter position
    # of the block, with its digits' displacements
    w, z, base = sum(map(len, groups)), 3, 2 * r + 1
    keys = [ws.ring_block_keys(z, r, start, m, dims) for dims in groups]
    seen = {}
    for triple in itertools.product(*(range(k[1].size) for k in keys)):
        disp = np.zeros(w, dtype=np.int64)
        q = 0
        for (values, offsets), dims, i in zip(keys, groups, triple):
            disp[list(dims)] = values[i]
            q += int(offsets[i])
        seen[start + q] = tuple(int(v) for v in disp)
    assert sorted(seen) == list(range(start, start + base ** m))
    with pytest.raises(ValueError, match="not a multiple"):
        ws.ring_block_keys(z, r, start + 1, m, groups[0])
    for p, disp in seen.items():
        digits = [p // base ** j % base for j in range(w)]
        assert disp == tuple((d + 1) // 2 * z * (1 if d % 2 else -1) for d in digits)


@pytest.mark.parametrize("w,r", [(2, 1), (3, 1), (3, 2), (4, 2)])
def test_ring_rank_and_displacement_follow_the_enumeration(w, r):
    # shift index = the ring's first index + rank; displacement = the row
    # iter_displacements gives that index; inner-cube positions are refused
    z, base = 2, 2 * r + 1
    win = _win(w=w, z=z, origin=tuple(range(w)))
    first = 1 + sum(ws.ring_size(w, q) for q in range(1, r))
    rows = {}
    for index, batch in ws.iter_displacements(w, z, batch=64):
        rows.update((index + i, tuple(int(v) for v in row)) for i, row in enumerate(batch))
        if index > first + ws.ring_size(w, r):
            break
    inner = 0
    for p in range(base ** w):
        digits = [p // base ** j % base for j in range(w)]
        if max(digits) < 2 * r - 1:
            inner += 1
            with pytest.raises(ValueError, match="not on ring"):
                ws.ring_displacement(w, z, r, p)
            continue
        assert ws.ring_rank(w, r, p) == p - inner
        assert tuple(int(v) for v in ws.ring_displacement(w, z, r, p)) == rows[first + p - inner]
        index = ws.shift_index_at(w, r, p)
        assert index == first + p - inner
        assert ws.ring_of_shift(w, index) == r
        assert ws.shift_window(win, index).origin == tuple(
            o + d for o, d in zip(win.origin, rows[index]))
    assert ws.ring_rank(w, r, base ** w) == ws.ring_size(w, r)


def test_shift_window_follows_the_enumeration_at_w9():
    # ring 1 ends at shift 3^9 - 1 = 19682 and ring 2 at 5^9 - 1 = 1953124
    win = _win(origin=(1, -2, 0, 3, -1, 2, 0, -3, 1))
    shifts = (1, 2, 19682, 19683, 19684, 100000, 1953124)
    rows = {}
    for index, batch in ws.iter_displacements(9, 2, batch=1 << 16):
        rows.update((i, batch[i - index]) for i in shifts if index <= i < index + len(batch))
        if len(rows) == len(shifts):
            break
    for i in shifts:
        assert ws.shift_window(win, i).origin == tuple(
            int(o + d) for o, d in zip(win.origin, rows[i]))
    assert [ws.ring_of_shift(9, i) for i in (0, *shifts)] == [0, 1, 1, 1, 2, 2, 2, 2]


@given(st.data(), st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=3),
       st.integers(min_value=2, max_value=4))
@settings(max_examples=100, deadline=None)
def test_shift_window_inverts_the_shift_index(data, w, r, z):
    # an accepted position has a digit of 2r-1 or 2r somewhere
    base = 2 * r + 1
    digits = data.draw(st.lists(st.integers(0, 2 * r), min_size=w, max_size=w))
    digits[data.draw(st.integers(0, w - 1))] = data.draw(st.sampled_from((2 * r - 1, 2 * r)))
    position = sum(d * base ** j for j, d in enumerate(digits))
    win = _win(w=w, z=z, origin=tuple(data.draw(st.lists(
        st.integers(-5, 5), min_size=w, max_size=w))))
    index = ws.shift_index_at(w, r, position)
    assert ws.ring_of_shift(w, index) == r
    assert ws.shift_window(win, index) == ws.ring_window(win, r, position)
