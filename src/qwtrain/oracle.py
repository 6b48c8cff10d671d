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
lo - c < 0.5 <= hi - c (_solves). That test is the four-pattern test bit for
bit. enumerate_solutions lists the kernel's solutions of one window as vertex
indices; scan_window_counts counts them per window, so a window's count is
its k.
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
                           require_finite_weights, to_descriptor, window_size)

DEFAULT_VERTEX_CAP = 2 ** 30
_TABLE_BLOCK = 1 << 15  # float64 elements per scan table chunk

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


def evaluate_vertex(idx: int, window: WeightWindow) -> bool:
    """Does this vertex's weight vector classify XOR perfectly?"""
    _require_mlp_window(window)
    weights = index_to_weights(idx, window)
    return mlp.classification_error(weights) == 0


def reference_enumerate(window: WeightWindow) -> SolutionSet:
    """Deliberately naive double loop over vertices and patterns.

    Kept as the independent reference the optimized enumerator is checked
    against; do not optimize.
    """
    _require_mlp_window(window)
    hits = []
    for idx in range(window_size(window)):
        weights = index_to_weights(idx, window)
        wrong = 0
        for (x0, x1), t in zip(mlp.XOR_INPUTS, mlp.XOR_TARGETS):
            if mlp.classify(weights, x0, x1) != int(t):
                wrong += 1
        if wrong == 0:
            hits.append(idx)
    return SolutionSet(window=window, indices=np.array(hits, dtype=np.int64))


def _hidden(vals: np.ndarray, j: int, out: np.ndarray) -> np.ndarray:
    """Hidden-unit table sigmoid(x0*w_j + x1*w_{j+1} - w_{j+2}) in float64.

    vals is (9, z, n) weight values per dimension and window, the window axis
    last; out is (4, z, z, z, n) scratch. Returns out as (4 patterns, z^3
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
    """(9, z, n) float64 weight values of each window's dimensions."""
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


def _solutions(origins: np.ndarray, z: int, delta_p: float):
    """Yield the solution vertices of many windows, in blocks.

    origins is (B, 9) int64. Each yield is (window, a row, b row, offset, c
    index): equal-length arrays but for the c index, an int. Vertex
    (s1, s2) = divmod(offset, z^2) of block (a row, b row) has index
    s1 + z^2 (ra % z) + z^3 (s2 + z^2 (rb % z)) + z^6 (ra // z) + z^7 (rb // z)
    + z^8 c index.

    The network factors: h1 depends on weights 0-2 only, h2 on 3-5, and
    y = a*h1 + b*h2 - c. A vertex solves XOR when s_p - c >= 0.5 holds
    exactly for the patterns with target 1, s_p = a*h1 + b*h2 in float64.
    With lo = max(s_00, s_11) and hi = min(s_01, s_10) (_interval, a*h1
    first) that is hi - c >= 0.5 and lo - c < 0.5 (_solves), the four-pattern
    test bit for bit: for a fixed c, s -> fl(s - c) is monotone, so
    min(fl(s_01 - c), fl(s_10 - c)) = fl(hi - c), and likewise for the max.
    Finite weights (WeightWindow, scan_window_counts) keep NaN out of it.

    Windows are taken in chunks of about _TABLE_BLOCK hidden-table elements.
    Each side's table is split into rows of z^2 products that share an output
    weight and a hidden bias (_row_bounds). Each (a row, b row, window) block
    is bounded before any pair is formed: through _interval its lo is at
    least the bound's lo and its hi at most the bound's hi, since a rounded
    sum fl(x + y) is monotone in x and y. A block whose bounds fail _solves
    for every c of its window holds no solution. The surviving blocks get the
    pairwise interval in chunks of about _PAIR_BLOCK elements; no c passes
    where lo >= hi, so only the pairs with lo < hi are kept. Once a table
    chunk's pair chunks have kept about _SURVIVOR_BLOCK of them, or at its
    end, one pass over the output biases tests each c on those alone. Keeping
    a whole table chunk's survivors instead costs megabytes at z=4, where
    many pairs have lo < hi.
    """
    n_all, z2, z4 = origins.shape[0], z * z, z ** 4
    step = max(1, _TABLE_BLOCK // (4 * z4))  # windows per table chunk
    per = max(1, _PAIR_BLOCK // z4)  # blocks per pair chunk
    lo_buf, hi_buf, tmp_buf = (np.empty(per * z4) for _ in range(3))
    live_buf = np.empty(per * z4, dtype=bool)
    for i in range(0, n_all, step):
        vals = _weight_values(origins[i:i + step], z, delta_p)
        n = vals.shape[2]
        h1, h2 = (_hidden(vals, j, np.empty((4, z, z, z, n))).reshape(4, z, z2, n)
                  for j in (0, 3))
        a, b, c = vals[6], vals[7], vals[8]
        lo, hi, tmp = (np.empty((z2, z2, n)) for _ in range(3))
        _interval(_row_bounds(a, h1)[:, :, None], _row_bounds(b, h2)[:, None],
                  lo, hi, tmp)
        ra, rb, w = np.nonzero(_solves(lo, hi, c[:, None, None]).any(axis=0))
        kept, n_kept = [], 0
        for j in range(0, w.size, per):
            wj, ra_j, rb_j = w[j:j + per], ra[j:j + per], rb[j:j + per]
            a_rows = (a[ra_j // z, wj, None, None] * h1[:, ra_j % z, :, wj]).transpose(1, 0, 2)
            b_rows = (b[rb_j // z, wj, None, None] * h2[:, rb_j % z, :, wj]).transpose(1, 0, 2)
            lo, hi, tmp, live = (buf[:wj.size * z4].reshape(wj.size, z2, z2)
                                 for buf in (lo_buf, hi_buf, tmp_buf, live_buf))
            _interval(a_rows[:, :, :, None], b_rows[:, :, None, :], lo, hi, tmp)
            np.less(lo, hi, out=live)
            flat = np.flatnonzero(live)
            kept.append((flat + j * z4, lo.ravel()[flat], hi.ravel()[flat]))
            n_kept += flat.size
            if n_kept < _SURVIVOR_BLOCK and j + per < w.size:
                continue
            flat, lo_v, hi_v = (np.concatenate(col) for col in zip(*kept))
            kept, n_kept = [], 0
            blk, off = np.divmod(flat, z4)
            win = w[blk]
            for ci in range(z):
                hit = np.flatnonzero(_solves(lo_v, hi_v, c[ci, win]))
                if hit.size:
                    bh = blk[hit]
                    yield i + win[hit], ra[bh], rb[bh], off[hit], ci


def enumerate_solutions(window: WeightWindow) -> SolutionSet:
    """Exact solution set of a window, in increasing index order.

    The solutions are those the shared kernel (_solutions) finds, turned into
    vertex indices. Scratch is the kernel's chunks and the solutions, not the
    window. Refuses windows above DEFAULT_VERTEX_CAP vertices.
    """
    _require_mlp_window(window)
    n = window_size(window)
    if n > DEFAULT_VERTEX_CAP:
        raise WindowTooLarge(
            f"window has {n} vertices, above the cap {DEFAULT_VERTEX_CAP}")
    z = window.z
    z2, z3 = z * z, z ** 3
    parts = [np.empty(0, dtype=np.int64)]
    for _, ra, rb, off, ci in _solutions(
            np.asarray([window.origin], dtype=np.int64), z, window.delta_p):
        s1, s2 = np.divmod(off, z2)
        parts.append(s1 + z2 * (ra % z) + z3 * (s2 + z2 * (rb % z))
                     + z ** 6 * (ra // z) + z ** 7 * (rb // z) + z ** 8 * ci)
    return SolutionSet(window=window, indices=np.sort(np.concatenate(parts)))


def scan_window_counts(origins: np.ndarray, z: int, delta_p: float) -> np.ndarray:
    """Solution count per candidate window, many windows at once.

    origins is (B, 9) integers; returns (B,) int64 counts. Count i is the
    number of solutions the shared kernel (_solutions) finds in window i, so
    it equals enumerate_solutions(window i).k.
    """
    origins = np.asarray(origins)
    if origins.ndim != 2 or origins.shape[1] != 9:
        raise ValueError("origins must be (B, 9)")
    if not np.issubdtype(origins.dtype, np.integer):
        raise ValueError(f"origins must be integers, got {origins.dtype}")
    if z < 1:
        raise ValueError(f"z must be positive, got {z}")
    if not (np.isfinite(delta_p) and delta_p > 0):
        raise ValueError(f"delta_p must be finite and positive, got {delta_p}")
    if origins.size:
        require_finite_weights(delta_p, (origins.max(), origins.min()), z)
    origins = origins.astype(np.int64, copy=False)
    counts = np.zeros(origins.shape[0], dtype=np.int64)
    for win, *_ in _solutions(origins, z, delta_p):
        np.add.at(counts, win, 1)
    return counts


def to_json(s: SolutionSet) -> str:
    return json.dumps({"window": to_descriptor(s.window), "k": s.k,
                       "indices": [int(i) for i in s.indices]})


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


def from_json(text: str) -> SolutionSet:
    """Inverse of to_json; ValueError for any malformed document."""
    d = _loads(text)
    if not isinstance(d, dict) or not {"window", "indices"} <= d.keys():
        raise ValueError("a solution set needs 'window' and 'indices'")
    raw = d["indices"]
    if not isinstance(raw, list) or any(type(i) is not int for i in raw):
        raise ValueError("indices must be a list of integers")
    if "k" in d and d["k"] != len(raw):
        raise ValueError("k does not match the index list")
    window = _window_from(d["window"])
    return SolutionSet(window=window,
                       indices=_checked_indices(np.array(raw, dtype=object), window))


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
