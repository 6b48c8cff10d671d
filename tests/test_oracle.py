import itertools
import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import interval_counts, shift_displacements
from qwtrain import mlp, oracle
from qwtrain.weight_space import (WeightWindow, index_to_weights, random_window,
                                  ring_block_keys, to_descriptor, window_size)

# z=2 window built around a known zero-error weight vector; 6 solutions
SOLVABLE = WeightWindow(w=9, z=2, origin=(1, 1, 2, -3, -3, 2, -2, -3, -2),
                        delta_p=0.5)


def test_evaluate_vertex_agrees_with_the_mlp():
    for idx in (0, 17, 200, 511):
        wts = index_to_weights(idx, SOLVABLE)
        assert oracle.evaluate_vertex(idx, SOLVABLE) == (
            mlp.classification_error(wts) == 0)


def test_enumerate_matches_reference_and_reverifies():
    ref = oracle.reference_enumerate(SOLVABLE)
    fast = oracle.enumerate_solutions(SOLVABLE)
    assert np.array_equal(ref.indices, fast.indices)
    assert fast.k == 6
    for idx in fast.indices:
        assert mlp.classification_error(index_to_weights(int(idx), SOLVABLE)) == 0


@pytest.mark.parametrize("z", (2, 3))
@pytest.mark.parametrize("delta_p", (0.25, 0.5, 1.0))
def test_enumerate_matches_reference_across_windows(z, delta_p):
    # seeded origins with weights within about +-3; the first two solvable
    # windows among them are checked, and the first drawn one rides along
    rng = np.random.default_rng([z, int(delta_p * 100)])
    r = round(3 / delta_p)
    origins = rng.integers(-r, r + 1, size=(4096, 9))
    solvable = _first_solvable(origins, z, delta_p)
    assert solvable.size == 2
    total = 0
    for o in origins[[0, *solvable]]:
        window = WeightWindow(w=9, z=z, origin=tuple(int(v) for v in o),
                              delta_p=delta_p)
        fast = oracle.enumerate_solutions(window)
        assert fast.indices.dtype == np.int64
        assert np.array_equal(fast.indices, oracle.reference_enumerate(window).indices)
        total += fast.k
    assert total > 0


def _first_solvable(origins, z, delta_p, count=2):
    """Indices of the first `count` origins whose windows hold a solution,
    enumerated in order until they are found."""
    found = []
    for i, o in enumerate(origins):
        window = WeightWindow(w=9, z=z, origin=tuple(int(v) for v in o), delta_p=delta_p)
        if oracle.enumerate_solutions(window).k:
            found.append(i)
            if len(found) == count:
                break
    return np.array(found, dtype=np.int64)


def _four_pattern_solutions(window):
    """The slab test the interval kernel replaced: for each (b, c), all four
    patterns must satisfy (s_p - c >= 0.5) == target_p, with
    s_p = a*h1 + b*h2 in float64 over one z^7 slab in vertex index order."""
    z = window.z
    zc, z7 = z ** 3, z ** 7
    vals = oracle._weight_values(np.asarray([window.origin], dtype=np.int64), z,
                                 window.delta_p)
    h1 = oracle._hidden(vals, 0, np.empty((4, z, z, z, 1)))[:, :, 0]
    h2 = oracle._hidden(vals, 3, np.empty((4, z, z, z, 1)))[:, :, 0]
    a, b, c = vals[6, :, 0], vals[7, :, 0], vals[8, :, 0]
    ah1 = a[None, :, None] * h1[:, None, :]
    targets = np.array([t == 1.0 for t in mlp.XOR_TARGETS])[:, None]
    parts = [[None] * z for _ in range(z)]  # [c][b]
    for bi in range(z):
        s = (ah1[:, :, None, :] + (b[bi] * h2)[:, None, :, None]).reshape(4, z7)
        for ci in range(z):
            ok = ((s - c[ci] >= 0.5) == targets).all(axis=0)
            parts[ci][bi] = np.flatnonzero(ok) + (bi * z7 + ci * z * z7)
    return np.concatenate([p for row in parts for p in row])


def _differential_origins(z, delta_p):
    """Seeded origins: four near SOLVABLE's weights, where solutions are
    common at z >= 3, two drawn with weights within about +-6, where they are
    rarer, and the first two solvable ones among 2048 / 4^(z-2) more."""
    rng = np.random.default_rng([z, round(delta_p * 100)])
    near = np.rint(np.multiply(SOLVABLE.origin, SOLVABLE.delta_p) / delta_p)
    r = round(6 / delta_p)
    wide = rng.integers(-r, r + 1, size=(2 + 2048 // 4 ** (z - 2), 9))
    hits = _first_solvable(wide[2:], z, delta_p)
    return np.vstack([near.astype(np.int64) + rng.integers(-1, 2, size=(4, 9)),
                      wide[:2], wide[2 + hits]])


@pytest.mark.parametrize("delta_p,z", [
    *itertools.product((0.1, 0.25, 0.5, 1.0, 1.3), (2, 3, 4, 5)), (0.5, 6), (1.0, 6)])
def test_enumerate_matches_the_four_pattern_test(z, delta_p):
    # z=6 is where the pair stage's row tables and per-block s_00 pay most
    ks = []
    for o in _differential_origins(z, delta_p):
        window = WeightWindow(w=9, z=z, origin=tuple(int(v) for v in o),
                              delta_p=delta_p)
        fast = oracle.enumerate_solutions(window)
        assert fast.indices.dtype == np.int64
        assert np.array_equal(fast.indices, _four_pattern_solutions(window))
        ks.append(fast.k)
    assert max(ks) > 0 and min(ks) == 0


@given(st.sampled_from((2, 3, 4)),
       st.floats(0.1, 1.5),
       st.lists(st.integers(-6, 6), min_size=9, max_size=9))
@settings(max_examples=100, deadline=None)
def test_enumerate_equals_the_four_pattern_test(z, delta_p, origin):
    window = WeightWindow(w=9, z=z, origin=tuple(origin), delta_p=delta_p)
    fast = oracle.enumerate_solutions(window)
    assert fast.indices.dtype == np.int64
    assert np.array_equal(fast.indices, _four_pattern_solutions(window))


@pytest.mark.parametrize("z,budget", [(6, 8 * 6 ** 7), (8, 16 * 2 ** 20)],
                         ids=("z=6", "z=8"))
def test_enumerate_scratch_stays_bounded(z, budget):
    # scratch follows the pair test's chunks and the lo < hi survivors, not
    # the window: lo and hi over a whole z^7 slab would take about 25 z^7
    # bytes (50 MiB at z=8), its four patterns 32 z^7
    window = WeightWindow(w=9, z=z, origin=(0,) * 9, delta_p=0.5)
    tracemalloc.start()
    try:
        sols = oracle.enumerate_solutions(window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sols.k > 0
    assert peak < budget


@pytest.mark.parametrize("z", (2, 3, 4, 5, 6))
@pytest.mark.parametrize("delta_p", (0.1, 0.3, 0.7, 1.0, 1.5))
def test_pattern_00_is_one_value_per_row(z, delta_p):
    # pattern 00's hidden input is -bias alone, so every row of a side's
    # row table holds one 00 product at all its z^2 settings, bit for bit,
    # and the pair stage's s_00 is one sum per block. Keys around the
    # lattice origin give zero and negative biases and output weights
    rng = np.random.default_rng([z, round(delta_p * 10)])
    keys = np.vstack([np.zeros((1, 4), np.int64), rng.integers(-6, 7, size=(7, 4))])
    vals = oracle._weight_values(keys, z, delta_p)
    assert (vals[[2, 3]] == 0).any() and (vals[[2, 3]] < 0).any()
    h, w, _ = oracle._side(vals, 0, 3)
    rows = oracle._row_table(w, h)
    bits = rows[:, 0].view(np.uint64)
    assert np.array_equal(bits, np.broadcast_to(bits[:, :1], bits.shape))
    # so the pair test gives _interval's lo and hi on (a row, b row) blocks
    ia, ib = rng.integers(0, len(rows), size=(2, 64))
    a, b = rows[ia], rows[ib]
    shape = (ia.size, z * z, z * z)
    lo, hi, tmp = np.empty(shape), np.empty(shape), np.empty(shape)
    oracle._interval(a.transpose(1, 0, 2)[..., None], b.transpose(1, 0, 2)[:, :, None],
                     lo, hi, tmp)
    pair_lo, pair_hi = np.empty(shape), np.empty(shape)
    oracle._pair_interval(a, b, pair_lo, pair_hi)
    assert pair_lo.tobytes() == lo.tobytes() and pair_hi.tobytes() == hi.tobytes()


def _block(z, delta_p, seed, r, start, m):
    """A ring block of a seed's start window: the first_solvable_position
    arguments and the origin of each of its b^m counter positions, inner
    cube included (digit d moves by 0, +z, -z, +2z, -2z, ...)."""
    origin = np.asarray(random_window(9, z, delta_p, seed).origin)
    keys = [ring_block_keys(z, r, start, m, dims) for dims in oracle.KEY_DIMS]
    args = ([origin[list(dims)] + disp for dims, (disp, _) in zip(oracle.KEY_DIMS, keys)]
            + [[offsets for _, offsets in keys], z, delta_p])
    base = 2 * r + 1
    digits = (start + np.arange(base ** m))[:, None] // base ** np.arange(9) % base
    return args, origin + (digits + 1) // 2 * z * np.where(digits % 2, 1, -1)


@pytest.mark.parametrize("z,delta_p,seed,m", [(2, 0.5, 7, 9), (3, 0.5, 1, 5),
                                              (4, 1.0, 1, 3)], ids=("z2", "z3", "z4"))
def test_bound_rows_are_the_row_tables_rows(monkeypatch, z, delta_p, seed, m):
    # the bound stage and the pair stage number a side's rows the same way:
    # the bound row _product_blocks tests as row i is the extremes of the
    # row table's row i over its z^2 settings (the minimum for 00 and 11,
    # the maximum for 01 and 10), bit for bit, and its live blocks are
    # live on those extremes
    (a_keys, b_keys, c_keys, positions, _, _), _ = _block(z, delta_p, seed, 1, 0, m)
    sides = [oracle._side(oracle._weight_values(keys, z, delta_p), 0, 3)
             for keys in (a_keys, b_keys)]
    c = oracle._weight_values(c_keys, z, delta_p)[0]
    real, tested = oracle._live_rows, []

    def recording(x, y, c):
        tested.append(x)
        return real(x, y, c)

    monkeypatch.setattr(oracle, "_live_rows", recording)
    ra, rb, kc, _ = oracle._product_blocks(sides[0][2], sides[1][2], c, positions)
    extremes = []
    for (h, w, _), bounds in zip(sides, tested):
        rows = oracle._row_table(w, h)
        ext = np.stack([rows[:, 0].min(1), rows[:, 1].max(1),
                        rows[:, 2].max(1), rows[:, 3].min(1)])
        assert ext.tobytes() == bounds.tobytes()
        extremes.append(ext)
    assert ra.size
    lo, hi = (np.empty(ra.size) for _ in range(2))
    oracle._interval(extremes[0][:, ra], extremes[1][:, rb], lo, hi, np.empty(ra.size))
    assert oracle._solves(lo, hi, c[:, kc]).any(axis=0).all()


def _product_pass(a_keys, b_keys, c_keys, positions, z, delta_p):
    """The shared kernel over the whole of a product block's live blocks:
    the window position of each live block, and the kernel's yields."""
    a_side, b_side = (oracle._side(oracle._weight_values(keys, z, delta_p), 0, 3)
                      for keys in (a_keys, b_keys))
    c = oracle._weight_values(c_keys, z, delta_p)[0]
    blocks = oracle._product_blocks(a_side[2], b_side[2], c, positions)
    return blocks[3], oracle._solutions(a_side, b_side, c, blocks)


def _product_solution_positions(*args):
    """Window position of every solution of a product block, and the
    yielded windows."""
    windows = list(_product_pass(*args)[1])
    return np.array([p for p, found in windows for _ in found], np.int64), windows


@pytest.mark.parametrize("z,delta_p,seed,r,start,m", [
    (2, 0.5, 7, 1, 0, 9), (2, 0.5, 11, 1, 0, 9), (2, 0.5, 5, 2, 3 * 5 ** 6, 6),
    (4, 1.0, 1, 1, 0, 2), (4, 1.0, 13, 1, 0, 3), (3, 0.5, 1, 1, 0, 5)],
    ids=("z2-ring1-seed7", "z2-ring1-seed11", "z2-ring2", "z4-first", "z4-27",
         "z3-243"))
def test_block_solutions_match_interval_counts(z, delta_p, seed, r, start, m):
    # the bound stage drops no solution a brute-force count finds, and the
    # kernel yields each solvable window once, in strictly increasing
    # position, with the solution indices enumerate_solutions gives it; so
    # its first yield is what first_solvable_position returns
    args, origins = _block(z, delta_p, seed, r, start, m)
    positions, windows = _product_solution_positions(*args)
    counts = np.bincount(positions, minlength=origins.shape[0])
    assert np.array_equal(counts, interval_counts(origins, z, delta_p))
    assert counts.any()
    assert all(p < q for (p, _), (q, _) in zip(windows, windows[1:]))
    for position, indices in windows:
        window = WeightWindow(w=9, z=z, origin=tuple(int(v) for v in origins[position]),
                              delta_p=delta_p)
        assert indices.tobytes() == oracle.enumerate_solutions(window).indices.tobytes()
    first, indices = oracle.first_solvable_position(*args)
    assert first == np.flatnonzero(counts)[0]
    assert indices.tobytes() == windows[0][1].tobytes()


def test_block_solutions_of_a_barren_block_yield_nothing():
    # seed 5's first solvable window is shift 69346, at ring-2 position 51850
    args, origins = _block(2, 0.5, 5, 2, 0, 6)
    assert _product_solution_positions(*args)[0].size == 0
    assert oracle.first_solvable_position(*args) is None
    assert not interval_counts(origins, 2, 0.5).any()


@pytest.mark.parametrize("z,delta_p,seed,r,start,m", [
    (2, 0.5, 11, 1, 0, 9), (2, 0.5, 11, 1, 3 ** 8, 8), (2, 0.5, 5, 2, 3 * 5 ** 6, 6),
    (4, 1.0, 13, 1, 0, 4), (4, 1.0, 34, 1, 0, 4)],
    ids=("z2-ring1", "z2-ring1-8", "z2-ring2", "z4-seed13", "z4-seed34"))
def test_block_scratch_stays_bounded(z, delta_p, seed, r, start, m):
    # the largest blocks the trainer forms (z=2: 3^8 in ring 1, 5^6 in ring
    # 2; z=4: 81 windows) and the whole of z=2 ring 1: the bound stage goes
    # in chunks of about _TABLE_BLOCK elements and the pair stage in chunks
    # of about _PAIR_BLOCK, so scratch does not grow with the block. The z=4
    # blocks of seeds 13 and 34 hold many pairs with lo < hi
    args, _ = _block(z, delta_p, seed, r, start, m)
    tracemalloc.start()
    try:
        first = oracle.first_solvable_position(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first is not None
    assert peak < 2.25 * 2 ** 20


@pytest.mark.parametrize("survivor_block", (None, 16))
def test_the_search_pairs_no_live_block_twice(monkeypatch, survivor_block):
    # z=4 first blocks (9 windows) of seeds that hit at position 0-2. The
    # search stops in the pair chunk where the hit window's run of live
    # blocks ends: no more blocks than the run's end, rounded up to a pair
    # chunk, are paired. With 16 survivors per flush, the survivors of seeds
    # 11, 13 and 23 are flushed inside the run, and the hits found there are
    # held until the run ends, so the solution set is still whole
    if survivor_block is not None:
        monkeypatch.setattr(oracle, "_SURVIVOR_BLOCK", survivor_block)
    real, paired = oracle._pair_interval, []

    def counting(a, b, lo, hi):
        paired.append(lo.shape[0])
        real(a, b, lo, hi)

    monkeypatch.setattr(oracle, "_pair_interval", counting)
    per = oracle._PAIR_BLOCK // 4 ** 4
    for seed in (1, 2, 9, 11, 13, 14, 23):
        args, origins = _block(4, 1.0, seed, 1, 0, 2)
        position, _ = _product_pass(*args)
        paired.clear()
        hit, indices = oracle.first_solvable_position(*args)
        run_end = np.searchsorted(position, hit, side="right")
        assert hit <= 2
        assert 0 < sum(paired) <= -(-run_end // per) * per
        window = WeightWindow(w=9, z=4, origin=tuple(int(v) for v in origins[hit]),
                              delta_p=1.0)
        assert indices.tobytes() == oracle.enumerate_solutions(window).indices.tobytes()


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_enumerate_marks_what_the_network_classifies_on_the_half_edge():
    # outputs at 0.5 exactly in real arithmetic, where rounding decides: the
    # oracle's hidden tables are not mlp.sigmoid's, so it misses vertex 0 of
    # the first window and marks vertex 0 of the second
    for origin in ((-4, 0, -2, 6, 2, 4, 6, 6, 5), (-3, -1, 6, 5, 3, -4, -4, -4, -5)):
        window = WeightWindow(w=9, z=2, origin=origin, delta_p=0.5)
        assert np.array_equal(oracle.enumerate_solutions(window).indices,
                              oracle.reference_enumerate(window).indices)


def test_empty_window_yields_empty_set():
    barren = WeightWindow(w=9, z=2, origin=(0,) * 9, delta_p=0.5)
    s = oracle.enumerate_solutions(barren)
    assert s.k == 0
    assert s.indices.size == 0


def test_vertex_cap():
    huge = WeightWindow(w=9, z=11, origin=(0,) * 9, delta_p=0.5)
    with pytest.raises(oracle.WindowTooLarge, match="above the cap"):
        oracle.enumerate_solutions(huge)


def test_oracle_rejects_non_mlp_windows():
    narrow = WeightWindow(w=2, z=3, origin=(0, 0), delta_p=0.5)
    with pytest.raises(ValueError, match="9-weight"):
        oracle.enumerate_solutions(narrow)
    with pytest.raises(ValueError, match="9-weight"):
        oracle.evaluate_vertex(0, narrow)
    with pytest.raises(ValueError, match="9-weight"):
        oracle.reference_enumerate(narrow)


def _ring_batches(z, delta_p, seeds, rows_per_seed):
    """Trainer-shaped windows: each seed's random start window plus the
    first rows of its shift enumeration."""
    parts = []
    for seed in seeds:
        start = random_window(9, z, delta_p, seed)
        _, rows = next(shift_displacements(9, z, batch=2 * rows_per_seed))
        parts.append(np.vstack([start.origin, start.origin + rows[:rows_per_seed - 1]]))
    return np.vstack(parts)


def _exact_counts(origins, z, delta_p):
    return np.array([oracle.enumerate_solutions(
        WeightWindow(w=9, z=z, origin=tuple(int(x) for x in o), delta_p=delta_p)).k
        for o in origins])


def test_interval_counts_match_enumeration():
    rng = np.random.default_rng(20)
    base = np.array(SOLVABLE.origin)
    origins = np.vstack([base + rng.integers(-1, 2, size=(60, 9)),
                         rng.integers(-2, 3, size=(20, 9))])
    counts = interval_counts(origins, 2, 0.5)
    assert np.array_equal(counts, _exact_counts(origins, 2, 0.5))
    assert (counts > 0).any()


# z=3, delta_p 0.5: 2 solutions, which a float32 interval count misses
FLOAT32_MISS = (-2, 2, 6, 1, -2, -5, -3, -3, -2)


@pytest.mark.parametrize("z,rows_per_seed", [(2, 1024), (3, 128), (4, 16)])
@pytest.mark.parametrize("delta_p,pair_blocks", [
    *(pytest.param(d, None, id=str(d)) for d in (0.5, 1.0, 1.3)),
    *(pytest.param(d, 3, id=f"{d}-pair3") for d in (0.5, 1.0, 1.3))])
def test_interval_counts_match_enumeration_on_ring_batches(monkeypatch, z, rows_per_seed,
                                                            delta_p, pair_blocks):
    # the bound test drops most windows; the solvable ones must survive it.
    # With 3 live blocks per pair chunk, a window's run of live blocks spans
    # many pair chunks and ends inside one, where the pair stage flushes its
    # survivors
    origins = np.vstack([_ring_batches(z, delta_p, range(4), rows_per_seed),
                         FLOAT32_MISS])
    if pair_blocks is not None:
        monkeypatch.setattr(oracle, "_PAIR_BLOCK", pair_blocks * z ** 4)
    counts = _exact_counts(origins, z, delta_p)
    assert np.array_equal(counts, interval_counts(origins, z, delta_p))
    assert np.count_nonzero(counts) >= 2


def _float32_interval_counts(origins, z, delta_p):
    """The old float32 kernel's counts, as a brute-force reference: per
    window, the (a-side, b-side, c) triples with max(s0, s3) < c + 0.5 <=
    min(s1, s2), s_p = A_p + B_p in float32, over every pair and with no
    bound test."""
    vals = oracle._weight_values(np.asarray(origins, dtype=np.int64), z,
                                 delta_p).astype(np.float32)
    n = vals.shape[2]
    h1 = oracle._hidden(vals, 0, np.empty((4, z, z, z, n), np.float32))
    h2 = oracle._hidden(vals, 3, np.empty((4, z, z, z, n), np.float32))
    counts = []
    for w in range(n):
        A = (h1[:, :, None, w] * vals[6, :, w]).reshape(4, -1)
        B = (h2[:, :, None, w] * vals[7, :, w]).reshape(4, -1)
        s = A[:, :, None] + B[:, None, :]
        lo, hi = np.maximum(s[0], s[3]), np.minimum(s[1], s[2])
        counts.append(sum(int(np.count_nonzero((c > lo) & (c <= hi)))
                          for c in vals[8, :, w] + np.float32(0.5)))
    return np.array(counts)


@pytest.mark.parametrize("z,rows_per_seed", [(2, 1024), (3, 128), (4, 16)])
@pytest.mark.parametrize("delta_p", (0.5, 1.0, 1.3))
def test_interval_counts_equal_float32_counts(z, rows_per_seed, delta_p):
    # float64 moved no count that float32 got right: on every ring-batch
    # window the float64 count equals a float32 count over every pair, and
    # where it departs from it (the float32-miss row at delta_p 0.5) it
    # counts more, the enumerator's k
    origins = np.vstack([_ring_batches(z, delta_p, range(4), rows_per_seed),
                         FLOAT32_MISS])
    counts = interval_counts(origins, z, delta_p)
    f32 = _float32_interval_counts(origins, z, delta_p)
    assert np.array_equal(counts[:-1], f32[:-1])
    differ = counts != f32
    assert (counts[differ] > f32[differ]).all()
    assert np.array_equal(counts[differ], _exact_counts(origins[differ], z, delta_p))
    assert np.count_nonzero(counts) >= 2


def test_enumeration_counts_the_float32_miss():
    window = WeightWindow(w=9, z=3, origin=FLOAT32_MISS, delta_p=0.5)
    assert oracle.enumerate_solutions(window).k == 2
    assert interval_counts(np.array([FLOAT32_MISS]), 3, 0.5)[0] == 2


@given(st.sampled_from((2, 3, 4)),
       st.sampled_from((0.25, 0.5, 0.7, 1.0, 1.3)),
       st.lists(st.integers(-2, 2), min_size=9, max_size=9))
@settings(max_examples=100, deadline=None)
def test_interval_count_equals_enumerated_k(z, delta_p, offsets):
    # offsets around a solvable origin, so solvable windows are common
    origin = np.add(SOLVABLE.origin, offsets)
    window = WeightWindow(w=9, z=z, origin=tuple(int(x) for x in origin),
                          delta_p=delta_p)
    count = interval_counts(origin[None, :], z, delta_p)
    assert count.dtype == np.int64
    assert count[0] == oracle.enumerate_solutions(window).k


@given(st.sampled_from((2, 3)),
       st.floats(0.1, 1.5),
       st.lists(st.lists(st.integers(-6, 6), min_size=9, max_size=9),
                min_size=1, max_size=40))
@settings(max_examples=50, deadline=None)
def test_interval_counts_equal_exact_counts(z, delta_p, origins):
    origins = np.array(origins)
    assert np.array_equal(interval_counts(origins, z, delta_p),
                          _exact_counts(origins, z, delta_p))


def test_binary_round_trip_and_header(tmp_path):
    path = tmp_path / "sols.bin"
    s = oracle.enumerate_solutions(SOLVABLE)
    oracle.write_binary(s, path)
    raw = path.read_bytes()
    assert raw.startswith(b"QWSOLSET")
    t = oracle.read_binary(path)
    assert t.window == s.window
    assert np.array_equal(t.indices, s.indices)


def test_binary_round_trip_empty(tmp_path):
    path = tmp_path / "empty.bin"
    barren = WeightWindow(w=9, z=2, origin=(0,) * 9, delta_p=0.5)
    s = oracle.enumerate_solutions(barren)
    oracle.write_binary(s, path)
    t = oracle.read_binary(path)
    assert t.k == 0
    assert t.window == barren


def test_binary_rejects_foreign_files(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTASOLS" + b"\x00" * 32)
    with pytest.raises(ValueError):
        oracle.read_binary(path)


# ---------------------------------------------------------------- malformed input

U64 = 2 ** 64 - 1


def _descriptor(**fields):
    """SOLVABLE's descriptor with the given fields replaced."""
    return json.dumps({**to_descriptor(SOLVABLE), **fields}, sort_keys=True).encode()


GOOD_DESC = _descriptor()


def _solset_bytes(desc=GOOD_DESC, deltas=(3, 4), desc_len=None, k=None):
    """A binary solution-set file with each field settable on its own."""
    return (b"QWSOLSET" + struct.pack("<Q", len(desc) if desc_len is None else desc_len)
            + desc + struct.pack("<Q", len(deltas) if k is None else k)
            + b"".join(struct.pack("<Q", d) for d in deltas))


def _assert_well_formed(s):
    idx = s.indices
    assert idx.dtype == np.int64
    assert np.all(np.diff(idx) > 0)
    assert idx.size == 0 or 0 <= idx[0] <= idx[-1] < window_size(s.window)


def _read_bytes(path, data):
    path.write_bytes(data)
    return oracle.read_binary(path)


def test_binary_reader_accepts_the_reference_encoding(tmp_path):
    s = _read_bytes(tmp_path / "ok.bin", _solset_bytes())
    assert s.window == SOLVABLE
    assert s.indices.tolist() == [3, 7]


@pytest.mark.parametrize("data", [
    pytest.param(b"QWSOLSET\x01\x02", id="short-header"),
    pytest.param(_solset_bytes(desc_len=2 ** 62), id="descriptor-past-end"),
    pytest.param(_solset_bytes(desc=b"\xff\xfe{}"), id="descriptor-not-utf8"),
    pytest.param(_solset_bytes(desc=b"{not json"), id="descriptor-not-json"),
    pytest.param(_solset_bytes(desc=b'{"w": 9}'), id="descriptor-missing-keys"),
    pytest.param(_solset_bytes(desc=b"[1, 2]"), id="descriptor-a-list"),
    pytest.param(_solset_bytes(desc=b'{"w": 9, "z": 2, "delta_p": 0.5, "origin": [0]}'),
                 id="origin-length"),
    pytest.param(_solset_bytes(desc=b'{"w": Infinity, "z": 2, "delta_p": 0.5, "origin": []}'),
                 id="w-infinite"),
    pytest.param(_solset_bytes(desc=b"[" * 100000), id="descriptor-nested-deep"),
    # a descriptor field of the wrong type is refused, not coerced
    pytest.param(_solset_bytes(desc=_descriptor(w=9.7)), id="w-float"),
    pytest.param(_solset_bytes(desc=_descriptor(origin=[1.5] + [1] * 8)), id="origin-float"),
    pytest.param(_solset_bytes(desc=_descriptor(delta_p="0.5")), id="delta_p-string"),
    pytest.param(_solset_bytes(desc=_descriptor(z=True), deltas=()), id="z-bool"),
    pytest.param(_solset_bytes(k=2 ** 63), id="count-past-end"),
    pytest.param(_solset_bytes(k=1), id="trailing-bytes"),
    pytest.param(_solset_bytes()[:-1], id="truncated-index"),
    pytest.param(_solset_bytes(deltas=(U64,)), id="negative"),
    pytest.param(_solset_bytes(deltas=(5, 0)), id="duplicate"),
    pytest.param(_solset_bytes(deltas=(5, U64)), id="unsorted"),
    pytest.param(_solset_bytes(deltas=(511, 1)), id="past-the-window"),
])
def test_binary_reader_rejects_malformed_files(tmp_path, data):
    with pytest.raises(ValueError):
        _read_bytes(tmp_path / "bad.bin", data)


_FUZZ = settings(max_examples=200, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["w", "z", "delta_p", "origin", "x"]), inner,
                      max_size=5),
    max_leaves=12)
_DESCRIPTOR = st.fixed_dictionaries({
    "w": st.integers(-2, 12) | _JSON, "z": st.integers(-2, 5) | _JSON,
    "delta_p": st.floats() | _JSON,
    "origin": st.lists(st.integers(-9, 9), max_size=12) | _JSON})


@_FUZZ
@given(desc=_DESCRIPTOR.map(lambda d: json.dumps(d).encode()) | st.binary(max_size=40),
       desc_len=st.none() | st.integers(0, U64), k=st.none() | st.integers(0, U64),
       deltas=st.lists(st.integers(0, U64), max_size=6))
def test_binary_reader_fuzz_raises_only_value_error(tmp_path, desc, desc_len, k, deltas):
    try:
        s = _read_bytes(tmp_path / "fuzz.bin",
                        _solset_bytes(desc=desc, deltas=deltas, desc_len=desc_len, k=k))
    except ValueError:
        return
    _assert_well_formed(s)


@_FUZZ
@given(pos=st.integers(0, len(_solset_bytes()) - 1), byte=st.integers(0, 255),
       cut=st.booleans())
def test_binary_reader_fuzz_corrupted_files(tmp_path, pos, byte, cut):
    data = bytearray(_solset_bytes())
    data[pos] = byte
    try:
        s = _read_bytes(tmp_path / "fuzz.bin", bytes(data[:pos] if cut else data))
    except ValueError:
        return
    assert not cut
    _assert_well_formed(s)
