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
hi = min(s_01, s_10) (_pair_interval), where an output bias c solves when
lo - c < 0.5 <= hi - c (_solves). On _hidden's own values that test is the
four-pattern test bit for bit, but those values are not mlp.sigmoid's:
_hidden takes 1/(1 + np.exp(-x)) at every x, where mlp.sigmoid takes
exp(x)/(1 + exp(x)) below 0, with math.exp. So on a vertex whose outputs sit
on the 0.5 edge the kernel can disagree with mlp.classification_error. At
z=2 and delta_p 0.5, origin (-4, 0, -2, 6, 2, 4, 6, 6, 5) gives no solution
here against reference_enumerate's [0], and origin
(-3, -1, 6, 5, 3, -4, -4, -4, -5) gives [0] against []. The fix is ROADMAP
item 1, "make the oracle mark what the network classifies".

The kernel has one bound stage (_product_blocks) and one pair stage
(_solutions). Its input is a product of keys: an a-side key (weights 0-2
and 6), a b-side key (3-5 and 7) and an output bias key (8), every (a key,
b key, c key) triple being a window, such as a block of the trainer's ring
enumeration. The tables are built once per key, and a block's bounds are
the outer sum of the two sides' per-key row bounds, broadcast with no
per-window gather. The bound stage is the one place that numbers rows and
places windows: each live block leaves it as (a row, b row, c key, window
position), a side's rows numbered key-major as in the pair stage's tables,
sorted by position so that each window's blocks are one run. The pair
stage forms each side's row products once, as one table per side
(_row_table), and each pair chunk gathers its blocks' rows from it. Pattern
00's hidden input is the hidden bias alone, so a row's 00 products are one
value and s_00 is one sum per block. The pair stage yields whole windows,
as (position, sorted solution indices), in increasing position, each once
its run has ended. first_solvable_position is its first yield: it stops
within one pair chunk of the end of the first solvable window's run,
pairing no live block twice.
A single window is a product of one key of each kind, so
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

_X = np.array(mlp.XOR_INPUTS)


class WindowTooLarge(ValueError):
    """Enumeration refused: the window has more than DEFAULT_VERTEX_CAP vertices."""


@dataclass
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
    """Hidden-unit table sigmoid(x0*w_j + x1*w_{j+1} - w_{j+2}) in float64.

    vals is (k, z, n) weight values per dimension and window (or key), the
    window axis last; out is (4, z, z, z, n) scratch. Returns out as (4 patterns, z^3
    settings, n). Weight j sits on the last setting axis, so the flat setting
    index is c_j + z*c_{j+1} + z^2*c_{j+2}: the vertex index's own digit order.
    """
    z, n = vals.shape[1], vals.shape[2]
    out[:] = _X[:, 0, None, None, None, None] * vals[j]
    out += _X[:, 1, None, None, None, None] * vals[j + 1, :, None, :]
    out -= vals[j + 2, :, None, None, :]
    np.negative(out, out=out)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    np.reciprocal(out, out=out)
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


# Lattice dimensions of the three key kinds: the a side (h1's weights 0-2 and
# its output weight 6), the b side (h2's weights 3-5 and output weight 7) and
# the output bias (weight 8).
KEY_DIMS = ((0, 1, 2, 6), (3, 4, 5, 7), (8,))


def _side(vals: np.ndarray, j: int, o: int):
    """Tables of one side from (k, z, n) weight values: the hidden table
    (4, z, z^2, n) of weights j..j+2 (_hidden) grouped by the hidden bias,
    the output weights vals[o] (z, n) and their row bounds (_row_bounds)."""
    z, n = vals.shape[1:]
    h = _hidden(vals, j, np.empty((4, z, z, z, n))).reshape(4, z, z * z, n)
    return h, vals[o], _row_bounds(vals[o], h)


def _live_rows(x: np.ndarray, y: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Rows of one side's row bounds x (4, rows) that can be in a live block:
    those whose bound test passes for some c against the other side's
    extremes over all its rows y (4, rows). Every block of row i has a lo at
    least max(fl(x_i,00 + min y_00), fl(x_i,11 + min y_11)) and a hi at most
    the like sum of maxima, since fl(x + y) is monotone, so a row dropped
    here is in no live block."""
    lo = np.maximum(x[0] + y[0].min(), x[3] + y[3].min())
    hi = np.minimum(x[1] + y[1].max(), x[2] + y[2].max())
    return np.flatnonzero(_solves(lo[:, None], hi[:, None], c.ravel()).any(axis=1))


def _product_blocks(a_bounds: np.ndarray, b_bounds: np.ndarray, c: np.ndarray,
                    positions):
    """Bound stage of a product of keys: every (a key, b key, c key) triple
    is a window, at position positions[0][a key] + positions[1][b key] +
    positions[2][c key].

    A side's rows are numbered key-major, row key * z^2 + r being bound row r
    of that key, as in _row_table. The rows that cannot be in a live block
    go first (_live_rows); the block bounds of the rest are the outer sum of
    the two sides' row bounds, formed by broadcasting in chunks of about
    _TABLE_BLOCK elements over the a rows, with no per-window gather. Returns
    the live blocks as (a row, b row, c key, window position), equal-length
    arrays sorted by position; a window's blocks keep their (a row, b row)
    order."""
    z, nc = c.shape
    a_all, b_all = (x.transpose(0, 2, 1).reshape(4, -1) for x in (a_bounds, b_bounds))
    ia, ib = _live_rows(a_all, b_all, c), _live_rows(b_all, a_all, c)
    b = b_all[:, None, ib]
    step = max(1, _TABLE_BLOCK // max(1, ib.size))
    bufs = [np.empty(min(step, ia.size) * ib.size) for _ in range(3)]
    chunks = [(ia[:0],) * 3]  # an empty first chunk, for a block with none live
    for i in range(0, ia.size, step):
        a = a_all[:, ia[i:i + step], None]
        lo, hi, tmp = (buf[:a.shape[1] * ib.size].reshape(a.shape[1], ib.size)
                       for buf in bufs)
        _interval(a, b, lo, hi, tmp)
        live = np.zeros((nc,) + lo.shape, dtype=bool)
        for kc in range(nc):
            for ci in range(z):
                live[kc] |= _solves(lo, hi, c[ci, kc])
        kc, ja, jb = np.unravel_index(np.flatnonzero(live), live.shape)
        chunks.append((ia[i + ja], ib[jb], kc))
    ja, jb, kc = (np.concatenate(col) for col in zip(*chunks))
    pa, pb, pc = positions
    position = pa[ja // (z * z)] + pb[jb // (z * z)] + pc[kc]
    order = np.argsort(position, kind="stable")
    return ja[order], jb[order], kc[order], position[order]


def _row_table(w: np.ndarray, h: np.ndarray) -> np.ndarray:
    """One side's row products, (keys * z^2 rows, 4 patterns, z^2 settings).

    w is (z, n) output-weight values and h a (4, z, z^2, n) hidden table
    grouped by the hidden bias, as _side gives them. Row key * z^2 + r holds
    w[r // z, key] * h[:, r % z, :, key]: the products of _row_bounds' row r
    of that key."""
    z, n = w.shape
    rows = w.T[:, :, None, None, None] * h.transpose(3, 1, 0, 2)[:, None]
    return rows.reshape(n * z * z, 4, z * z)


def _pair_interval(a: np.ndarray, b: np.ndarray, lo: np.ndarray,
                   hi: np.ndarray) -> None:
    """Fill lo = max(s_00, s_11) and hi = min(s_01, s_10) over the
    (a row, b row) blocks, s_p = a_p + b_p formed a first.

    a and b are the blocks' (blocks, 4 patterns, z^2) row products and lo
    and hi (blocks, z^2, z^2) buffers. Pattern 00's hidden input is -bias
    alone, so a row's 00 products are one value, bit for bit, at all its z^2
    settings: s_00 is one sum per block, taken at setting 0."""
    np.add(a[:, 1, :, None], b[:, 1, None, :], out=hi)
    np.add(a[:, 2, :, None], b[:, 2, None, :], out=lo)
    np.minimum(hi, lo, out=hi)
    np.add(a[:, 3, :, None], b[:, 3, None, :], out=lo)
    np.maximum((a[:, 0, 0] + b[:, 0, 0])[:, None, None], lo, out=lo)


def _solutions(a_side, b_side, c: np.ndarray, live_blocks):
    """Yield the solvable windows of the live blocks of the bound stage, as
    (position, sorted int64 solution indices in that window), in increasing
    position.

    a_side and b_side are _side tables per key and c is (z, nc) output-bias
    values per key. live_blocks are the (a row, b row, c key, window
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
    The h values are _hidden's, not mlp.sigmoid's, so on the 0.5 edge the
    kernel can mark a vertex that mlp.classification_error rejects, or miss
    one it accepts (see the module docstring; the fix is ROADMAP item 1).
    Finite weights (WeightWindow, the trainer's check on its keys) keep NaN
    out of it.

    Each side's table is split into rows of z^2 products that share an output
    weight and a hidden bias (_row_bounds). The bound stage tests each
    (a row, b row, key triple) block before any pair is formed: through
    _interval its lo is at least the bound's lo and its hi at most the
    bound's hi, since a rounded sum fl(x + y) is monotone in x and y. A block
    whose bounds fail _solves for every c of its window holds no solution.

    The pair stage builds each side's rows once, as a (keys * z^2, 4, z^2)
    table (_row_table) whose row key * z^2 + r holds the same products
    fl(w * h) that bound row r of that key, and the bound stage numbers its
    rows the same way, so gathering a block's rows from it changes no value.
    The live blocks get the pairwise interval in chunks of about _PAIR_BLOCK
    elements (_pair_interval), each chunk taking its rows from the tables by
    one row index per side. Pattern 00's hidden input is
    fl(fl(0*u + 0*v) - t) for weights u, v and hidden bias t, which is -t
    exactly for every finite u and v (up to the sign of a zero, which exp
    does not see), so a row's 00 products are one value, bit for bit, at all
    its z^2 settings. So s_00 is one sum per block, and max(s_00, s_11)
    takes it as the same float it is at every pair. No c passes where
    lo >= hi, so only the pairs with lo < hi are kept. One pass over the
    output biases tests each c on those alone: once the pair chunks have
    kept about _SURVIVOR_BLOCK of them, and at the end of each pair chunk in
    which a window's run ends. The windows whose runs have ended are yielded
    there; the hits of a run that goes on past the chunk are held for the
    next run end. So the first yield comes within one pair chunk of the end
    of the first solvable window's run, and no live block is paired twice.
    Keeping a whole window's survivors instead costs megabytes at z=4, where
    many pairs have lo < hi.
    """
    (h1, a), (h2, b) = a_side[:2], b_side[:2]
    ia, ib, kc, position = live_blocks
    if not ia.size:
        return
    z = a.shape[0]
    z2, z4 = z * z, z ** 4
    a_rows, b_rows = _row_table(a, h1), _row_table(b, h2)
    per = max(1, _PAIR_BLOCK // z4)  # blocks per pair chunk
    lo_buf, hi_buf = np.empty(per * z4), np.empty(per * z4)
    live_buf = np.empty(per * z4, dtype=bool)
    # per pair chunk: the live blocks of the windows whole by its end; no
    # run ends in the chunk when this is at most the chunk's start
    whole = np.append(np.searchsorted(position, position[per::per]), ia.size)
    kept, n_kept, held = [], 0, []
    for j in range(0, ia.size, per):
        ia_j, ib_j = ia[j:j + per], ib[j:j + per]
        size = ia_j.size * z4
        lo, hi, live = lo_buf[:size], hi_buf[:size], live_buf[:size]
        _pair_interval(a_rows.take(ia_j, axis=0), b_rows.take(ib_j, axis=0),
                       lo.reshape(-1, z2, z2), hi.reshape(-1, z2, z2))
        np.less(lo, hi, out=live)
        flat = live.nonzero()[0]
        kept.append((flat + j * z4, lo[flat], hi[flat]))
        n_kept += flat.size
        ended = whole[j // per] > j
        if n_kept < _SURVIVOR_BLOCK and not ended:
            continue
        flat, lo_v, hi_v = (np.concatenate(col) for col in zip(*kept))
        kept, n_kept = [], 0
        blk, off = np.divmod(flat, z4)
        ci, hit = np.divmod(np.flatnonzero(_solves(lo_v, hi_v, c[:, kc[blk]])),
                            flat.size)
        held.append((blk[hit], off[hit], ci))
        if not ended:
            continue
        blk, off, ci = (np.concatenate(col) for col in zip(*held))
        mine = blk < whole[j // per]
        held = [(blk[~mine], off[~mine], ci[~mine])]
        if mine.any():
            blk = blk[mine]
            found = _vertex_indices(ia[blk], ib[blk], off[mine], ci[mine], z)
            order = np.lexsort((found, position[blk]))
            windows, first = np.unique(position[blk[order]], return_index=True)
            yield from zip(windows.tolist(), np.split(found[order], first[1:]))


def _vertex_indices(ia: np.ndarray, ib: np.ndarray, off: np.ndarray,
                    ci: np.ndarray, z: int) -> np.ndarray:
    """Vertex indices, each in its own window, of solutions in the live
    blocks (a row ia, b row ib) at offset off with output bias c index ci:
    vertex (s1, s2) = divmod(off, z^2) of bound rows ra = ia % z^2 and
    rb = ib % z^2 has index s1 + z^2 (ra % z) + z^3 (s2 + z^2 (rb % z))
    + z^6 (ra // z) + z^7 (rb // z) + z^8 ci."""
    z2, z3 = z * z, z ** 3
    ra, rb = ia % z2, ib % z2
    s1, s2 = np.divmod(off, z2)
    return (s1 + z2 * (ra % z) + z3 * (s2 + z2 * (rb % z))
            + z ** 6 * (ra // z) + z ** 7 * (rb // z) + z ** 8 * ci)


def first_solvable_position(a_keys: np.ndarray, b_keys: np.ndarray,
                            c_keys: np.ndarray, positions, z: int, delta_p: float
                            ) -> tuple[int, np.ndarray] | None:
    """The first window of a product block that holds a solution, as
    (position, sorted int64 solution indices in that window), or None.

    The block's windows are the key triples (i, j, l): a-side coordinates
    a_keys[i], b-side ones b_keys[j] and output bias c_keys[l] (KEY_DIMS
    order; a_keys and b_keys are (n, 4) integers, c_keys (n, 1)). Window
    (i, j, l) sits at position positions[0][i] + positions[1][j] +
    positions[2][l]. The tables are built once per key, not once per window,
    both sides' in one call; the bound stage (_product_blocks) leaves the
    live blocks in increasing position, and the first window the kernel
    (_solutions) yields is the answer. The windows after the pair chunk in
    which its run of live blocks ends are not paired. The caller checks
    that the weights are finite.
    """
    na = len(a_keys)
    both = _side(_weight_values(np.concatenate([a_keys, b_keys]), z, delta_p), 0, 3)
    a_side, b_side = (tuple(t[..., s] for t in both)
                      for s in (slice(None, na), slice(na, None)))
    c = _weight_values(c_keys, z, delta_p)[0]
    live_blocks = _product_blocks(a_side[2], b_side[2], c, positions)
    return next(_solutions(a_side, b_side, c, live_blocks), None)


def enumerate_solutions(window: WeightWindow) -> SolutionSet:
    """Exact solution set of a window, in increasing index order.

    The window is a product of one key of each kind at position 0, so its
    solutions are those first_solvable_position finds. Scratch is the
    kernel's chunks and the solutions, not the window. Refuses windows above
    DEFAULT_VERTEX_CAP vertices.
    """
    require_enumerable(window)
    origin = np.asarray(window.origin, dtype=np.int64)
    found = first_solvable_position(*(origin[None, list(dims)] for dims in KEY_DIMS),
                                    [np.zeros(1, dtype=np.int64)] * 3,
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
