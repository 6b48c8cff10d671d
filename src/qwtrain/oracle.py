"""Classical oracle: which window vertices solve XOR.

A vertex solves when its weight vector classifies all four XOR patterns
correctly. The oracle enumerates a window exhaustively and keeps the sorted
list of solution indices; that list (not a dense 0/1 array, which would be
wasteful at 134M vertices) is the marked set the walk searches for.

The 2-2-1 network factors: hidden unit h1 depends only on weights 0-2, h2
only on weights 3-5, and the output is y = a*h1 + b*h2 - c. One kernel
(_solutions) finds the solutions of many windows at once in float64: it
builds the hidden-unit tables (_hidden), skips blocks of vertices whose
bounds show they hold no solution, and reduces the four pattern sums
s_p = a*h1 + b*h2 of the rest to one interval, lo = max(s_00, s_11) and
hi = min(s_01, s_10), where an output bias c solves when
lo - c < 0.5 <= hi - c (_solves). The hidden tables hold mlp.sigmoid's
values, taken once per distinct hidden input, so that test is the
four-pattern test of mlp.classification_error bit for bit, on the 0.5 edge
too: the logistic has one definition, in mlp.

The kernel works on three levels: rows, then sub-blocks, then pairs. Its
input is a product of a-side keys (weights 0-2 and 6) and b-side keys (3-5
and 7) with one output bias (8), every (a key, b key) pair being a window,
such as a block of the trainer's ring enumeration. The tables are built
once per key. The bound stage (_product_blocks) bounds each (a row, b row)
block, a row being the z^2 settings of one side that share an output
weight and a hidden bias: the outer sum of the two sides' per-key row
bounds, broadcast with no per-window gather, tested against the window's z
output biases one at a time (_any_solves). It is the one place that
numbers rows and places windows: each live block leaves it as (a row,
b row, window position), a side's rows numbered key-minor, sorted by
position so that each window's blocks are one run.
The pair stage (_solutions) forms each side's row products once
(_row_tables). A row splits by weight j+1's digit v into z sub-rows, and a
live block into z^2 sub-blocks (an a sub-row with a b sub-row) of z^2
pairs. Pattern 00's hidden input is the hidden bias alone and 01's has no
weight-j term, so s_00 is one sum per block and s_01 one sum per
sub-block; each sub-block's bounds (_live_sub_blocks) drop the ones that
hold no solution, about three in four at z=6-8. The live sub-blocks are
paired in chunks laid out (z, z, sub-blocks), the sub-blocks innermost, so
every op runs over a long contiguous axis (_sub_block_pairs). The pair
stage yields whole windows, as (position, sorted solution indices), in
increasing position, each once its run has ended. first_solvable_position
is its first yield: it stops within one pair chunk of the end of the first
solvable window's run, pairing no sub-block twice.
A single window is a product of one a-side and one b-side key, so
enumerate_solutions is first_solvable_position on it, and the trainer's
solution set of a window is the one enumerate_solutions gives.
Two unfactored routes are kept as independent references: a scalar
per-vertex predicate (evaluate_vertex) and a plain double loop
(reference_enumerate).
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from . import mlp
from .weight_space import (WeightWindow, from_descriptor, index_to_weights,
                           to_descriptor, window_size)

DEFAULT_VERTEX_CAP = 2 ** 30
_TABLE_BLOCK = 1 << 15  # float64 elements per chunk of block bounds

_MAGIC = b"QWSOLSET"


class WindowTooLarge(ValueError):
    """Enumeration refused: the window has more than DEFAULT_VERTEX_CAP vertices."""


@dataclass(slots=True)
class SolutionSet:
    window: WeightWindow
    indices: np.ndarray  # sorted int64 vertex indices

    @property
    def k(self) -> int:
        return int(self.indices.size)


def _require_mlp_window(window: WeightWindow) -> None:
    if window.w != mlp.N_WEIGHTS:
        raise ValueError(
            f"oracle needs a {mlp.N_WEIGHTS}-weight window, got w={window.w}")


def require_enumerable(window: WeightWindow) -> None:
    """ValueError for a window the oracle does not take: not a 9-weight
    window, or (WindowTooLarge) one above DEFAULT_VERTEX_CAP vertices."""
    _require_mlp_window(window)
    n = window_size(window)
    if n > DEFAULT_VERTEX_CAP:
        raise WindowTooLarge(
            f"window has {n} vertices, above the cap {DEFAULT_VERTEX_CAP}")


def evaluate_vertex(idx: int, window: WeightWindow) -> bool:
    """Does this vertex's weight vector classify XOR perfectly?"""
    _require_mlp_window(window)
    weights = index_to_weights(idx, window)
    return mlp.classification_error(weights) == 0


def reference_enumerate(window: WeightWindow) -> SolutionSet:
    """Deliberately naive double loop over vertices and patterns.

    Kept as the independent reference the optimized enumerator is checked
    against; do not optimize. Each vertex's weights are taken as Python
    floats, so classify runs on plain floats: for the finite weights of a
    window these are the same IEEE double operations as on numpy scalars,
    at about half the cost.
    """
    _require_mlp_window(window)
    hits = []
    for idx in range(window_size(window)):
        weights = index_to_weights(idx, window).tolist()
        wrong = 0
        for (x0, x1), t in zip(mlp.XOR_INPUTS, mlp.XOR_TARGETS):
            if mlp.classify(weights, x0, x1) != int(t):
                wrong += 1
        if wrong == 0:
            hits.append(idx)
    return SolutionSet(window=window, indices=np.array(hits, dtype=np.int64))


def _hidden(vals: np.ndarray, j: int, out: np.ndarray) -> np.ndarray:
    """Hidden-unit table mlp.sigmoid(x0*w_j + x1*w_{j+1} - w_{j+2}).

    vals is (k, z, n) weight values per dimension and window (or key), the
    window axis last; out is (4, z, z, z, n) scratch. Returns out as (4 patterns, z^3
    settings, n). Weight j sits on the last setting axis, so the flat setting
    index is c_j + z*c_{j+1} + z^2*c_{j+2}: the vertex index's own digit order.

    Each pattern's input is formed, with mlp.forward's operations, at the
    shape it varies over: -t for pattern 00 (fl(0*u + 0*v) - t, up to the
    sign of a zero, which sigmoid does not see), v - t for 01, u - t for 10
    and u + v - t for 11, for weights u = w_j, v = w_{j+1} and bias
    t = w_{j+2}. mlp.sigmoid runs once per distinct input, and its values are
    broadcast into the table, so the kernel's hidden outputs are the
    network's bit for bit.
    """
    z, n = vals.shape[1], vals.shape[2]
    u, v, t = vals[j, None, None], vals[j + 1, None, :, None], vals[j + 2, :, None, None]
    inputs = (-t, v - t, u - t, u + v - t)
    distinct, inverse = np.unique(np.concatenate([x.ravel() for x in inputs]),
                                  return_inverse=True)
    h = np.array([mlp.sigmoid(x) for x in distinct.tolist()])[inverse]
    for p, x in enumerate(inputs):
        out[p] = h[:x.size].reshape(x.shape)
        h = h[x.size:]
    return out.reshape(4, z ** 3, n)


def _weight_values(origins: np.ndarray, z: int, delta_p: float) -> np.ndarray:
    """(k, z, n) float64 weight values of n rows of k lattice coordinates:
    window origins (k = 9) or one side's keys."""
    return delta_p * (origins.T[:, None, :] + np.arange(z)[None, :, None] - z // 2)


def _interval(a: np.ndarray, b: np.ndarray, lo: np.ndarray, hi: np.ndarray,
              tmp: np.ndarray) -> None:
    """Fill lo = max(s_00, s_11) and hi = min(s_01, s_10), s_p = a_p + b_p:
    the bound stage's block bounds.

    a and b are per-pattern tables (pattern first) that broadcast to the
    buffers' shape; each sum is formed a first.
    """
    np.add(a[0], b[0], out=lo)
    np.add(a[3], b[3], out=tmp)
    np.maximum(lo, tmp, out=lo)
    np.add(a[1], b[1], out=hi)
    np.add(a[2], b[2], out=tmp)
    np.minimum(hi, tmp, out=hi)


def _solves(lo: np.ndarray, hi: np.ndarray, c) -> np.ndarray:
    """Where output bias c classifies XOR given lo = max(s_00, s_11) and
    hi = min(s_01, s_10): hi - c >= 0.5 and lo - c < 0.5."""
    return (hi - c >= 0.5) & (lo - c < 0.5)


_PAIR_BLOCK = 1 << 13  # float64 elements per working array of the pair test
_SURVIVOR_BLOCK = 1 << 11  # lo < hi pairs gathered per pass over the output biases


def _row_bounds(w: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Extremes of each row of the table w*h: (4 patterns, z^2 rows, n).

    w is (z, n) output-weight values and h a (4, z, z^2, n) hidden table,
    its settings grouped by the hidden bias. Row r = (w value r // z, bias
    value r % z) holds z^2 products; the bound is their minimum for patterns
    00 and 11 and their maximum for 01 and 10. fl(w*h) is monotone in h, so
    these are w times an extreme of h, and equal the computed products'
    extremes exactly.
    """
    z, n = w.shape
    ends = [w[:, None] * e[:, None] for e in (h.min(axis=2), h.max(axis=2))]
    ext = np.minimum(*ends)
    np.maximum(ends[0][1:3], ends[1][1:3], out=ext[1:3])
    return ext.reshape(4, z * z, n)


# Lattice dimensions of the two key kinds: the a side (h1's weights 0-2 and
# its output weight 6) and the b side (h2's weights 3-5 and output weight 7).
# The output bias (weight 8) is one coordinate per product block.
KEY_DIMS = ((0, 1, 2, 6), (3, 4, 5, 7))
BIAS_DIM = 8


def _side(vals: np.ndarray):
    """Tables of one side from (4, z, n) weight values in KEY_DIMS order: the
    hidden table (4, z, z^2, n) of weights 0-2 (_hidden) grouped by the
    hidden bias, the output weights vals[3] (z, n) and their row bounds
    (_row_bounds)."""
    z, n = vals.shape[1:]
    h = _hidden(vals, 0, np.empty((4, z, z, z, n))).reshape(4, z, z * z, n)
    return h, vals[3], _row_bounds(vals[3], h)


def _any_solves(lo: np.ndarray, hi: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Where some output bias of the window's c (z,) solves (_solves), one
    bias at a time, so that scratch stays at lo's size."""
    live = _solves(lo, hi, c[0])
    for ci in c[1:]:
        live |= _solves(lo, hi, ci)
    return live


def _live_rows(x: np.ndarray, y: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Rows of one side's row bounds x (4, rows) that can be in a live block:
    those whose bound test passes for some c against the other side's
    extremes over all its rows y (4, rows). Every block of row i has a lo at
    least max(fl(x_i,00 + min y_00), fl(x_i,11 + min y_11)) and a hi at most
    the like sum of maxima, since fl(x + y) is monotone, so a row dropped
    here is in no live block."""
    lo = np.maximum(x[0] + y[0].min(), x[3] + y[3].min())
    hi = np.minimum(x[1] + y[1].max(), x[2] + y[2].max())
    return np.flatnonzero(_solves(lo[:, None], hi[:, None], c).any(axis=1))


def _product_blocks(a_bounds: np.ndarray, b_bounds: np.ndarray, c: np.ndarray,
                    positions):
    """Bound stage of a product of keys with output biases c (z,): every
    (a key, b key) pair is a window, at position positions[0][a key] +
    positions[1][b key].

    A side's rows are numbered key-minor, row r * n + key being bound row r
    of that key (n keys), as in _row_tables. The rows that cannot be in a
    live block go first (_live_rows); the block bounds of the rest are the outer sum of
    the two sides' row bounds, formed by broadcasting in chunks of about
    _TABLE_BLOCK elements over the a rows, with no per-window gather. Returns
    the live blocks as (a row, b row, window position), equal-length arrays
    sorted by position; a window's blocks keep their (a row, b row) order."""
    a_all, b_all = (x.reshape(4, -1) for x in (a_bounds, b_bounds))
    ia, ib = _live_rows(a_all, b_all, c), _live_rows(b_all, a_all, c)
    b = b_all[:, None, ib]
    step = max(1, _TABLE_BLOCK // max(1, ib.size))
    bufs = [np.empty(min(step, ia.size) * ib.size) for _ in range(3)]
    chunks = [(ia[:0],) * 2]  # an empty first chunk, for a block with none live
    for i in range(0, ia.size, step):
        a = a_all[:, ia[i:i + step], None]
        lo, hi, tmp = (buf[:a.shape[1] * ib.size].reshape(a.shape[1], ib.size)
                       for buf in bufs)
        _interval(a, b, lo, hi, tmp)
        ja, jb = np.unravel_index(np.flatnonzero(_any_solves(lo, hi, c)), lo.shape)
        chunks.append((ia[i + ja], ib[jb]))
    ja, jb = (np.concatenate(col) for col in zip(*chunks))
    pa, pb = positions
    position = pa[ja % a_bounds.shape[2]] + pb[jb % b_bounds.shape[2]]
    order = np.argsort(position, kind="stable")
    return ja[order], jb[order], position[order]


def _row_tables(w: np.ndarray, h: np.ndarray):
    """One side's row products by pattern, rows numbered key-minor as the
    bound stage numbers them: row r * n + key holds w[r // z, key] *
    h[:, r % z, :, key], the products that _row_bounds' row r of that key
    bounds.

    w is (z, n) output-weight values and h a (4, z, z^2, n) hidden table
    grouped by the hidden bias, as _side gives them. A row's settings
    s = u + z*v (u weight j's digit, v weight j+1's) split by v into z
    sub-rows of z settings. The hidden input is -bias for pattern 00,
    v - bias for 01 and u - bias for 10 (_hidden), so a row's 00 products
    are one value, a sub-row's 01 products are one value, and every sub-row
    of a row holds the same z 10 products, bit for bit. Returns each pattern
    at the settings it varies over, the row axis last: 00 (rows,), 01
    (z v, rows), 10 (z u, rows) and 11 (z u, z v * rows), sub-row v of row
    i at column v * rows + i; then the sub-block stage's bounds, a row's
    largest 10 product (rows,) and a sub-row's least 11 product (z v, rows).
    """
    z, n = w.shape
    # (pattern, u, v, output weight, bias, key): the keys innermost, so the
    # product runs over n contiguous elements at a time, not over z
    h = h.reshape(4, z, z, z, n).transpose(0, 3, 2, 1, 4)
    rows = np.empty((4, z, z, z, z, n))
    np.multiply(w[:, None], h[:, :, :, None], out=rows)
    rows = rows.reshape(4, z, z, -1)
    return (rows[0, 0, 0], rows[1, 0], rows[2, :, 0], rows[3].reshape(z, -1),
            rows[2, :, 0].max(axis=0), rows[3].min(axis=0))


def _live_sub_blocks(a_rows, b_rows, c: np.ndarray, live_blocks):
    """Yield the live sub-blocks of the live blocks, one chunk of
    _PAIR_BLOCK // z^2 blocks at a time, as (block, a sub-row v1, b sub-row
    v2, s_00, s_01) arrays in block order.

    a_rows and b_rows are _row_tables, c is the window's z output-bias
    values and live_blocks are _product_blocks' (a row, b row, position)
    blocks. Sub-block (v1, v2) of a block pairs a sub-row v1 with b sub-row
    v2: its s_00 and s_01 are single sums, the same floats at all its z^2
    pairs. Its bounds are lo = max(s_00, fl(min a_11 over the a sub-row +
    min b_11 over the b sub-row)) and hi = min(s_01, fl(max a_10 over the a
    row + max b_10 over the b row)); fl(x + y) is monotone, so every pair's
    lo is at least lo and its hi at most hi, and a sub-block whose bounds
    fail _solves for every c holds no solution (_any_solves). The bounds
    are laid out (v1, v2, blocks), so each op runs over the long block axis.
    """
    a00, a01, _, _, a10_max, a11_min = a_rows
    b00, b01, _, _, b10_max, b11_min = b_rows
    ia, ib = live_blocks[:2]
    z = c.size
    step = max(1, _PAIR_BLOCK // (z * z))
    for i in range(0, ia.size, step):
        ja, jb = ia[i:i + step], ib[i:i + step]
        s00 = a00[ja] + b00[jb]
        s01 = a01.take(ja, axis=1)[:, None] + b01.take(jb, axis=1)[None]
        hi = np.minimum(s01, a10_max[ja] + b10_max[jb])
        lo = np.maximum(s00, a11_min.take(ja, axis=1)[:, None]
                        + b11_min.take(jb, axis=1)[None])
        blk, v1, v2 = np.nonzero(_any_solves(lo, hi, c).transpose(2, 0, 1))
        yield i + blk, v1, v2, s00[blk], s01[v1, v2, blk]


def _pair_chunks(parts, per: int, end: int):
    """Cut a stream of column arrays, the first column a block, into chunks
    of per rows. Yield each chunk with the block of the row after it (end
    after the last row), so a chunk is only cut once that row is known."""
    rest = None
    for part in parts:
        rest = part if rest is None else tuple(map(np.concatenate, zip(rest, part)))
        while rest[0].size > per:
            yield tuple(col[:per] for col in rest), int(rest[0][per])
            rest = tuple(col[per:] for col in rest)
    if rest is not None and rest[0].size:
        yield rest, end


def _sub_block_pairs(a_rows, b_rows, sub_blocks, lo: np.ndarray,
                     hi: np.ndarray) -> None:
    """Fill lo = max(s_00, s_11) and hi = min(s_01, s_10) over the pairs of
    sub-blocks, s_p = a_p + b_p formed a first.

    a_rows and b_rows are _row_tables; sub_blocks are (a row, a sub-row v1,
    b row, b sub-row v2, s_00, s_01) arrays, one entry per sub-block, and lo
    and hi (z u1, z u2, sub-blocks) buffers: pair (u1, u2) of a sub-block
    pairs a setting u1 + z*v1 with b setting u2 + z*v2."""
    ja, v1, jb, v2, s00, s01 = sub_blocks
    a10, a11, b10, b11 = a_rows[2], a_rows[3], b_rows[2], b_rows[3]
    np.add(a10.take(ja, axis=1)[:, None], b10.take(jb, axis=1)[None], out=hi)
    np.minimum(s01, hi, out=hi)
    np.add(a11.take(v1 * a10.shape[1] + ja, axis=1)[:, None],
           b11.take(v2 * b10.shape[1] + jb, axis=1)[None], out=lo)
    np.maximum(s00, lo, out=lo)


def _solutions(a_side, b_side, c: np.ndarray, live_blocks):
    """Yield the solvable windows of the live blocks of the bound stage, as
    (position, sorted int64 solution indices in that window), in increasing
    position.

    a_side and b_side are _side tables per key and c is the z output-bias
    values every window shares. live_blocks are the (a row, b row, window
    position) blocks _product_blocks returns, sorted by position, so each
    window's blocks are one run. A window is yielded with all of its
    solutions once its run has ended, so the first yield is the whole
    solution set of the first solvable window.

    The network factors: h1 depends on weights 0-2 only, h2 on 3-5, and
    y = a*h1 + b*h2 - c. A vertex solves XOR when s_p - c >= 0.5 holds
    exactly for the patterns with target 1, s_p = a*h1 + b*h2 in float64.
    With lo = max(s_00, s_11) and hi = min(s_01, s_10) (a*h1 first) that is
    hi - c >= 0.5 and lo - c < 0.5 (_solves), the four-pattern test bit for
    bit on these h values: for a fixed c, s -> fl(s - c) is monotone, so
    min(fl(s_01 - c), fl(s_10 - c)) = fl(hi - c), and likewise for the max.
    The h values are mlp.sigmoid's (_hidden), so this is the test
    mlp.classification_error makes, on the 0.5 edge too. Finite weights
    (WeightWindow, the trainer's check on its keys) keep NaN out of it.

    There are three levels: rows, sub-blocks, pairs. Each side's table is
    split into rows of z^2 products that share an output weight and a
    hidden bias (_row_bounds), and the bound stage tests each (a row, b row)
    block before any pair is formed: through _interval its lo
    is at least the bound's lo and its hi at most the bound's hi, since a
    rounded sum fl(x + y) is monotone in x and y. A block whose bounds fail
    _solves for every c of its window holds no solution.

    Each side's row products are formed once (_row_tables), numbered as the
    bound stage numbers its rows, so gathering a block's products from them
    changes no value. Each live block's z^2 sub-blocks are bounded in turn
    (_live_sub_blocks), one chunk of live blocks at a time, and only the
    live sub-blocks are paired, in chunks of _PAIR_BLOCK // z^2 sub-blocks
    (_pair_chunks) laid out (z u1, z u2, sub-blocks), the sub-blocks
    innermost: hi = min(s_01, A_10 + B_10) and lo = max(s_00, A_11 + B_11),
    the same operands in the same order as at every pair of the full test,
    so the same floats. No c passes where lo >= hi, so only the pairs with
    lo < hi are kept, coded block * z^4 + s1 * z^2 + s2 for a setting s1 of
    the a row and s2 of the b row. One pass over the output biases tests
    each c on those alone: once the pair chunks have kept about
    _SURVIVOR_BLOCK of them, and after each pair chunk that makes a window
    whole. A window is whole once every block before the next unpaired
    sub-block's block has been paired. The windows whose runs have ended
    are yielded there; the hits of a run that goes on are held for the next
    run end. So the first yield comes within one pair chunk of the end of
    the first solvable window's run, and no sub-block is paired twice.
    Keeping a whole window's survivors instead costs megabytes at z=4, where
    many pairs have lo < hi.
    """
    (h1, a), (h2, b) = a_side[:2], b_side[:2]
    ia, ib, position = live_blocks
    if not ia.size:
        return
    z = a.shape[0]
    z2, z4 = z * z, z ** 4
    a_rows, b_rows = _row_tables(a, h1), _row_tables(b, h2)
    per = max(1, _PAIR_BLOCK // z2)  # sub-blocks per pair chunk
    lo_buf, hi_buf = np.empty(per * z2), np.empty(per * z2)
    live_buf = np.empty(per * z2, dtype=bool)
    whole_before, kept, n_kept, held = 0, [], 0, []
    chunks = _pair_chunks(_live_sub_blocks(a_rows, b_rows, c, live_blocks), per, ia.size)
    for (blk, v1, v2, s00, s01), after in chunks:
        m = blk.size
        lo, hi, live = lo_buf[:m * z2], hi_buf[:m * z2], live_buf[:m * z2]
        _sub_block_pairs(a_rows, b_rows, (ia[blk], v1, ib[blk], v2, s00, s01),
                         lo.reshape(z, z, m), hi.reshape(z, z, m))
        np.less(lo, hi, out=live)
        flat = live.nonzero()[0]
        u, sb = np.divmod(flat, m)
        u1, u2 = np.divmod(u, z)
        kept.append((blk[sb] * z4 + (u1 + z * v1[sb]) * z2 + u2 + z * v2[sb],
                     lo[flat], hi[flat]))
        n_kept += flat.size
        # the blocks of the windows whole once this chunk is paired
        whole = ia.size if after == ia.size else np.searchsorted(position, position[after])
        ended, whole_before = whole > whole_before, whole
        if n_kept < _SURVIVOR_BLOCK and not ended:
            continue
        flat, lo_v, hi_v = (np.concatenate(col) for col in zip(*kept))
        kept, n_kept = [], 0
        blk, off = np.divmod(flat, z4)
        ci, hit = np.divmod(np.flatnonzero(_solves(lo_v, hi_v, c[:, None])), flat.size)
        held.append((blk[hit], off[hit], ci))
        if not ended:
            continue
        blk, off, ci = (np.concatenate(col) for col in zip(*held))
        mine = blk < whole
        held = [(blk[~mine], off[~mine], ci[~mine])]
        if mine.any():
            blk = blk[mine]
            found = _vertex_indices(ia[blk] // a.shape[1], ib[blk] // b.shape[1],
                                    off[mine], ci[mine], z)
            order = np.lexsort((found, position[blk]))
            windows, first = np.unique(position[blk[order]], return_index=True)
            # a copy per window, so a kept solution set pins no flush's hits
            yield from zip(windows.tolist(), map(np.copy, np.split(found[order], first[1:])))


def _vertex_indices(ra: np.ndarray, rb: np.ndarray, off: np.ndarray,
                    ci: np.ndarray, z: int) -> np.ndarray:
    """Vertex indices, each in its own window, of solutions in the live
    blocks of bound rows ra and rb (0 to z^2 - 1, as _row_bounds numbers
    them) at offset off with output bias c index ci: vertex
    (s1, s2) = divmod(off, z^2) has index s1 + z^2 (ra % z)
    + z^3 (s2 + z^2 (rb % z)) + z^6 (ra // z) + z^7 (rb // z) + z^8 ci."""
    z2, z3 = z * z, z ** 3
    s1, s2 = np.divmod(off, z2)
    return (s1 + z2 * (ra % z) + z3 * (s2 + z2 * (rb % z))
            + z ** 6 * (ra // z) + z ** 7 * (rb // z) + z ** 8 * ci)


def first_solvable_position(a_keys: np.ndarray, b_keys: np.ndarray, c_key: int,
                            positions, z: int, delta_p: float
                            ) -> tuple[int, np.ndarray] | None:
    """The first window of a product block that holds a solution, as
    (position, sorted int64 solution indices in that window), or None.

    The block's windows are the key pairs (i, j): a-side coordinates
    a_keys[i] and b-side ones b_keys[j] (KEY_DIMS order, (n, 4) integers),
    all with the output-bias coordinate c_key (BIAS_DIM). Window (i, j) sits
    at position positions[0][i] + positions[1][j]. The tables are built
    once per key, not once per window, both sides' in one call, and the z
    output biases are shared; the bound stage (_product_blocks) leaves the
    live blocks in increasing position, and the first window the kernel
    (_solutions) yields is the answer. The kernel bounds the live blocks'
    sub-blocks one chunk of blocks at a time and pairs only the live
    sub-blocks, so no sub-block after the pair chunk in which the answer's
    run of live sub-blocks ends is paired. The caller checks that the
    weights are finite.
    """
    na = len(a_keys)
    both = _side(_weight_values(np.concatenate([a_keys, b_keys]), z, delta_p))
    a_side, b_side = (tuple(t[..., s] for t in both)
                      for s in (slice(None, na), slice(na, None)))
    c = _weight_values(np.array([[c_key]]), z, delta_p).ravel()
    live_blocks = _product_blocks(a_side[2], b_side[2], c, positions)
    return next(_solutions(a_side, b_side, c, live_blocks), None)


def enumerate_solutions(window: WeightWindow) -> SolutionSet:
    """Exact solution set of a window, in increasing index order.

    The window is a product of one a-side and one b-side key at position 0,
    with its output bias, so its solutions are those first_solvable_position
    finds. Scratch is the kernel's chunks and the solutions, not the window.
    Refuses windows above DEFAULT_VERTEX_CAP vertices.
    """
    require_enumerable(window)
    origin = np.asarray(window.origin, dtype=np.int64)
    found = first_solvable_position(*(origin[None, list(dims)] for dims in KEY_DIMS),
                                    origin[BIAS_DIM], [np.zeros(1, dtype=np.int64)] * 2,
                                    window.z, window.delta_p)
    return SolutionSet(window=window, indices=np.empty(0, dtype=np.int64)
                       if found is None else found[1])


def _loads(text):
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise ValueError("JSON nested too deeply") from exc


def _window_from(desc) -> WeightWindow:
    """The window of a decoded descriptor; ValueError for a malformed one."""
    try:
        return from_descriptor(desc)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"bad window descriptor: {exc!r}") from exc


def _checked_indices(idx: np.ndarray, window: WeightWindow) -> np.ndarray:
    """idx as int64 vertex indices; ValueError unless they are strictly
    increasing and within [0, window size)."""
    limit = min(window_size(window), 2 ** 63)
    if idx.size and (np.any(idx[1:] <= idx[:-1])
                     or int(idx[0]) < 0 or int(idx[-1]) >= limit):
        raise ValueError("solution indices must be strictly increasing "
                         "and within [0, window size)")
    return idx.astype(np.int64)


def write_binary(s: SolutionSet, path) -> None:
    """Compact form: magic, u64 descriptor length, descriptor JSON, u64 count,
    then the indices delta-encoded as u64 little-endian (first delta is the
    first index)."""
    desc = json.dumps(to_descriptor(s.window), sort_keys=True).encode()
    deltas = np.diff(s.indices, prepend=np.int64(0)).astype("<u8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<Q", len(desc)))
        fh.write(desc)
        fh.write(struct.pack("<Q", s.k))
        fh.write(deltas.tobytes())


def read_binary(path) -> SolutionSet:
    """Inverse of write_binary; ValueError for any malformed or truncated
    file. Every length field is checked against the file size before use."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:8] != _MAGIC:
        raise ValueError("not a solution-set file")
    if len(data) < 16:
        raise ValueError("truncated solution-set file")
    (desc_len,) = struct.unpack_from("<Q", data, 8)
    body = 16 + desc_len
    if len(data) < body + 8:
        raise ValueError("truncated solution-set file")
    window = _window_from(_loads(data[16:body].decode()))
    (k,) = struct.unpack_from("<Q", data, body)
    if len(data) - body - 8 != 8 * k:
        raise ValueError(f"solution-set file does not hold the {k} indices it declares")
    deltas = np.frombuffer(data, dtype="<u8", offset=body + 8)
    # a u64 running sum that wraps shows up as a decrease
    return SolutionSet(window=window,
                       indices=_checked_indices(np.cumsum(deltas, dtype=np.uint64), window))
