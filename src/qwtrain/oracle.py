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
hi = min(s_01, s_10) (_interval), where an output bias c solves when
lo - c < 0.5 <= hi - c (_solves). On _hidden's own values that test is the
four-pattern test bit for bit, but those values are not mlp.sigmoid's:
_hidden takes 1/(1 + np.exp(-x)) at every x, where mlp.sigmoid takes
exp(x)/(1 + exp(x)) below 0, with math.exp. So on a vertex whose outputs sit
on the 0.5 edge the kernel can disagree with mlp.classification_error. At
z=2 and delta_p 0.5, origin (-4, 0, -2, 6, 2, 4, 6, 6, 5) gives no solution
here against reference_enumerate's [0], and origin
(-3, -1, 6, 5, 3, -4, -4, -4, -5) gives [0] against []. The fix is ROADMAP
item 1, "make the oracle mark what the network classifies".

The kernel has one bound stage (_product_blocks). Its input is a product
of keys: an a-side key (weights 0-2 and 6), a b-side key (3-5 and 7) and an
output bias key (8), every (a key, b key, c key) triple being a window, such
as a block of the trainer's ring enumeration. The tables are built once per
key, a block's bounds are the outer sum of the two sides' per-key row
bounds, broadcast with no per-window gather, and the live blocks reach the
pair stage in window order, each window's as one run. The pair stage yields
the solutions of a window once its run has ended, so first_solvable_position
stops within one pair chunk of the end of the first solvable window's run
and takes that window's solution indices from the same pass, pairing no
live block twice. A single window is a product of one key of each kind, so
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
    """Fill lo = max(s_00, s_11) and hi = min(s_01, s_10), s_p = a_p + b_p.

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

    A row of a side is an (output weight and hidden bias row, key) pair. The
    rows that cannot be in a live block go first (_live_rows); the block
    bounds of the rest are the outer sum of the two sides' row bounds,
    formed by broadcasting in chunks of about _TABLE_BLOCK elements over the
    a rows, with no per-window gather. Returns the live (a row, b row, a key,
    b key, c key) blocks, equal-length arrays in increasing window position."""
    na, nb, (z, nc) = a_bounds.shape[2], b_bounds.shape[2], c.shape
    a_all, b_all = a_bounds.reshape(4, -1), b_bounds.reshape(4, -1)
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
    (ra, ka), (rb, kb) = np.divmod(ja, na), np.divmod(jb, nb)
    pa, pb, pc = positions
    order = np.argsort(pa[ka] + pb[kb] + pc[kc], kind="stable")
    return ra[order], rb[order], ka[order], kb[order], kc[order]


def _solutions(a_side, b_side, c: np.ndarray, live_blocks):
    """Yield the solution vertices of the live blocks of the bound stage,
    window by window.

    a_side and b_side are _side tables per key and c is (z, nc) output-bias
    values per key. live_blocks are the (a row, b row, a key, b key, c key)
    blocks _product_blocks returns, each window's blocks one run. Each yield
    is (block, offset, c index), equal-length arrays with one entry per
    solution, the block indexing live_blocks; _vertex_indices turns them into
    vertex indices, each in the window of its key triple. A yield holds every
    solution of the windows whose runs ended since the previous one, and no
    other, so the first yield holds the whole solution set of the first
    solvable window.

    The network factors: h1 depends on weights 0-2 only, h2 on 3-5, and
    y = a*h1 + b*h2 - c. A vertex solves XOR when s_p - c >= 0.5 holds
    exactly for the patterns with target 1, s_p = a*h1 + b*h2 in float64.
    With lo = max(s_00, s_11) and hi = min(s_01, s_10) (_interval, a*h1
    first) that is hi - c >= 0.5 and lo - c < 0.5 (_solves), the four-pattern
    test bit for bit on these h values: for a fixed c, s -> fl(s - c) is
    monotone, so min(fl(s_01 - c), fl(s_10 - c)) = fl(hi - c), and likewise
    for the max. The h values are _hidden's, not mlp.sigmoid's, so on the
    0.5 edge the kernel can mark a vertex that mlp.classification_error
    rejects, or miss one it accepts (see the module docstring; the fix is
    ROADMAP item 1).
    Finite weights (WeightWindow, the trainer's check on its keys) keep NaN
    out of it.

    Each side's table is split into rows of z^2 products that share an output
    weight and a hidden bias (_row_bounds). The bound stage tests each
    (a row, b row, key triple) block before any pair is formed: through
    _interval its lo is at least the bound's lo and its hi at most the
    bound's hi, since a rounded sum fl(x + y) is monotone in x and y. A block
    whose bounds fail _solves for every c of its window holds no solution.
    The live blocks get the pairwise interval in chunks of about _PAIR_BLOCK
    elements; no c passes where lo >= hi, so only the pairs with lo < hi are
    kept. One pass over the output biases tests each c on those alone: once
    the pair chunks have kept about _SURVIVOR_BLOCK of them, and at the end
    of each pair chunk in which a window's run ends. The hits of windows
    whose runs have ended are yielded there; those of a run that goes on
    past the chunk are held for the next run end. So the first yield comes
    within one pair chunk of the end of the first solvable window's run, and
    no live block is paired twice. Keeping a whole window's survivors
    instead costs megabytes at z=4, where many pairs have lo < hi.
    """
    (h1, a), (h2, b) = a_side[:2], b_side[:2]
    ra, rb, ka, kb, kc = live_blocks
    if not ra.size:
        return
    z = a.shape[0]
    z2, z4 = z * z, z ** 4
    per = max(1, _PAIR_BLOCK // z4)  # blocks per pair chunk
    lo_buf, hi_buf, tmp_buf = (np.empty(per * z4) for _ in range(3))
    live_buf = np.empty(per * z4, dtype=bool)
    keys = np.stack((ka, kb, kc))
    last = np.append(np.flatnonzero((keys[:, 1:] != keys[:, :-1]).any(axis=0)),
                     ra.size - 1)  # the last live block of each window's run
    # per pair chunk: the live blocks of the runs ended by its end (the
    # windows whole so far), 0 if no run ends in it
    ended = np.zeros(-(-ra.size // per), dtype=np.int64)
    np.maximum.at(ended, last // per, last + 1)
    kept, n_kept, held = [], 0, []
    for j in range(0, ra.size, per):
        s = slice(j, j + per)
        ra_j, rb_j, ka_j, kb_j = ra[s], rb[s], ka[s], kb[s]
        a_rows = (a[ra_j // z, ka_j, None, None] * h1[:, ra_j % z, :, ka_j]).transpose(1, 0, 2)
        b_rows = (b[rb_j // z, kb_j, None, None] * h2[:, rb_j % z, :, kb_j]).transpose(1, 0, 2)
        lo, hi, tmp, live = (buf[:ra_j.size * z4].reshape(ra_j.size, z2, z2)
                             for buf in (lo_buf, hi_buf, tmp_buf, live_buf))
        _interval(a_rows[:, :, :, None], b_rows[:, :, None, :], lo, hi, tmp)
        np.less(lo, hi, out=live)
        flat = np.flatnonzero(live)
        kept.append((flat + j * z4, lo.ravel()[flat], hi.ravel()[flat]))
        n_kept += flat.size
        whole = ended[j // per]
        if n_kept < _SURVIVOR_BLOCK and not whole:
            continue
        flat, lo_v, hi_v = (np.concatenate(col) for col in zip(*kept))
        kept, n_kept = [], 0
        blk, off = np.divmod(flat, z4)
        ci, hit = np.divmod(np.flatnonzero(_solves(lo_v, hi_v, c[:, kc[blk]])),
                            flat.size)
        held.append((blk[hit], off[hit], ci))
        if not whole:
            continue
        blk, off, ci = (np.concatenate(col) for col in zip(*held))
        mine = blk < whole
        held = [(blk[~mine], off[~mine], ci[~mine])]
        if mine.any():
            yield blk[mine], off[mine], ci[mine]


def _vertex_indices(ra: np.ndarray, rb: np.ndarray, off: np.ndarray,
                    ci: np.ndarray, z: int) -> np.ndarray:
    """Vertex indices, each in the window of its key triple, of solutions
    as _solutions gives them: vertex (s1, s2) = divmod(offset, z^2) of block
    (a row, b row) with output bias c index ci has index
    s1 + z^2 (ra % z) + z^3 (s2 + z^2 (rb % z)) + z^6 (ra // z) + z^7 (rb // z)
    + z^8 ci."""
    z2, z3 = z * z, z ** 3
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
    both sides' in one call, and the kernel (_solutions) pairs the blocks
    the bound stage (_product_blocks) leaves live, in increasing position.
    Its first yield holds the whole solution sets of the windows whose runs
    of live blocks ended within one pair chunk, so the smallest position
    among them is the first solvable window, and its solutions there are
    all of its solutions. The windows after that pair chunk are not paired.
    The caller checks that the weights are finite.
    """
    na = len(a_keys)
    both = _side(_weight_values(np.concatenate([a_keys, b_keys]), z, delta_p), 0, 3)
    a_side, b_side = (tuple(t[..., s] for t in both)
                      for s in (slice(None, na), slice(na, None)))
    c = _weight_values(c_keys, z, delta_p)[0]
    live_blocks = _product_blocks(a_side[2], b_side[2], c, positions)
    first = next(_solutions(a_side, b_side, c, live_blocks), None)
    if first is None:
        return None
    blk, off, ci = first
    ra, rb, ka, kb, kc = (col[blk] for col in live_blocks)
    pa, pb, pc = positions
    position = pa[ka] + pb[kb] + pc[kc]
    hit = position.min()
    mine = position == hit
    return int(hit), np.sort(_vertex_indices(ra[mine], rb[mine], off[mine], ci[mine], z))


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
