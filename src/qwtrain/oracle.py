"""Classical oracle: which window vertices solve XOR.

A vertex solves when its weight vector classifies all four XOR patterns
correctly. The oracle enumerates a window exhaustively and keeps the sorted
list of solution indices; that list (not a dense 0/1 array, which would be
wasteful at 134M vertices) is the marked set the walk searches for.

The 2-2-1 network factors: hidden unit h1 depends only on weights 0-2, h2
only on weights 3-5, and the output is y = a*h1 + b*h2 - c. Both fast routes
build the same hidden-unit tables (_hidden) and reduce the four pattern sums
s_p = a*h1 + b*h2 to one interval, lo = max(s_00, s_11) and
hi = min(s_01, s_10) (_interval); in exact arithmetic an output bias c
classifies XOR correctly where lo - c < 0.5 <= hi - c. enumerate_solutions
lists the exact solution set of one window in float64, and there the interval
test is the four-pattern test bit for bit: for a fixed c, s -> fl(s - c) is
monotone and so commutes with min and max (weights are finite, so no NaN
appears). scan_window_counts counts the solutions of many candidate windows
at once from the same float64 values by the same operations and the same
output-bias test (_solves), so the count it returns for a window is that
window's k. Its bound tests only skip blocks of vertices that hold no
solution, because rounded sums and differences are monotone.
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
_ENUM_BLOCK = 1 << 15  # float64 elements per enumerator tile array and scan table chunk

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


def enumerate_solutions(window: WeightWindow) -> SolutionSet:
    """Exact solution set of a window, in increasing index order.

    Uses the 2-2-1 factoring: h1 depends on weights 0-2 only, h2 on 3-5, and
    y = a*h1 + b*h2 - c. For each output weight b, the sums
    s_p = a*h1 + b*h2 over (a, h2 setting, h1 setting) are laid out in vertex
    index order and reduced in float64 to lo = max(s_00, s_11) and
    hi = min(s_01, s_10) (_interval). A vertex with output bias c solves XOR
    when s_p - c >= 0.5 holds exactly for the patterns with target 1, that is
    when hi - c >= 0.5 and lo - c < 0.5. This is the four-pattern test, bit
    for bit: for a fixed c, s -> fl(s - c) is monotone, so
    min(fl(s_01 - c), fl(s_10 - c)) = fl(hi - c), and likewise for the max.
    Where lo >= hi no c passes, so only the flat offsets with lo < hi are kept
    and each c is tested on those alone. WeightWindow admits finite weights
    only, so no NaN breaks the monotone argument. The slab is formed in tiles
    of whole a values, about _ENUM_BLOCK elements (at least one a value, z^6
    vertices), in reused buffers of 25 bytes per element; memory is O(z^7),
    never the whole window. Refuses windows above DEFAULT_VERTEX_CAP vertices.
    """
    _require_mlp_window(window)
    n = window_size(window)
    if n > DEFAULT_VERTEX_CAP:
        raise WindowTooLarge(
            f"window has {n} vertices, above the cap {DEFAULT_VERTEX_CAP}")
    z = window.z
    zc, z6, z7 = z ** 3, z ** 6, z ** 7
    vals = _weight_values(np.asarray([window.origin], dtype=np.int64), z,
                          window.delta_p)
    h1 = _hidden(vals, 0, np.empty((4, z, z, z, 1)))[:, :, 0]
    h2 = _hidden(vals, 3, np.empty((4, z, z, z, 1)))[:, :, 0]
    a, b, c = vals[6, :, 0], vals[7, :, 0], vals[8, :, 0]
    ah1 = (a[None, :, None] * h1[:, None, :])[:, :, None, :]  # (pattern, a, 1, h1)
    na = min(z, max(1, _ENUM_BLOCK // z6))  # a values per tile
    lo_buf, hi_buf, tmp_buf = (np.empty((na, zc, zc)) for _ in range(3))
    live_buf = np.empty((na, zc, zc), dtype=bool)
    parts = [[None] * z for _ in range(z)]  # [c][b], so c-major order is sorted
    for bi in range(z):
        bh2 = (b[bi] * h2)[:, None, :, None]
        tiles = []
        for ai in range(0, z, na):
            m = min(na, z - ai)
            lo, hi, tmp, live = (buf[:m] for buf in (lo_buf, hi_buf, tmp_buf, live_buf))
            _interval(ah1[:, ai:ai + m], bh2, lo, hi, tmp)
            np.less(lo, hi, out=live)
            flat = np.flatnonzero(live)
            tiles.append((flat + ai * z6, lo.ravel()[flat], hi.ravel()[flat]))
        flat, lo_v, hi_v = (np.concatenate(col) for col in zip(*tiles))
        for ci in range(z):
            hit = _solves(lo_v, hi_v, c[ci])
            parts[ci][bi] = flat[hit] + (bi * z7 + ci * z * z7)
    indices = np.concatenate([p for row in parts for p in row])
    return SolutionSet(window=window, indices=indices)


_PAIR_BLOCK = 1 << 13  # float64 elements per working array of the pair test


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


def scan_window_counts(origins: np.ndarray, z: int, delta_p: float) -> np.ndarray:
    """Solution count per candidate window, many windows at once.

    origins is (B, 9) integers; returns (B,) int64 counts. Count i equals
    enumerate_solutions(window i).k: the scan forms every pattern sum the
    enumerator forms from the same float64 values by the same operations.
    The hidden tables come from _hidden, the products a*h1 and b*h2 from the
    same operands, the sums from _interval (a*h1 first), and the output-bias
    test is _solves.

    Windows are taken in chunks of about _ENUM_BLOCK table elements. Each
    side's table is split into rows of z^2 products that share an output
    weight and a hidden bias (_row_bounds); for h1 the pattern-00 value is
    then constant along a row. Each (a row, b row, window) block is bounded
    before any pair is formed: through _interval its lo is at least the
    bound's lo and its hi at most the bound's hi, since a rounded sum
    fl(x + y) is monotone in x and y. fl(x - c) is monotone too, so a block
    whose bounds fail _solves for every c of its window holds no solution,
    and dropping it never changes a count. The surviving blocks get the
    pairwise interval in chunks of about _PAIR_BLOCK elements, and each c is
    tested where lo < hi.
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
    origins = origins.astype(np.int64, copy=False)
    n_all, z2, z4 = origins.shape[0], z * z, z ** 4
    step = max(1, _ENUM_BLOCK // (4 * z4))  # windows per table chunk
    per = max(1, _PAIR_BLOCK // z4)  # blocks per pair chunk
    lo_buf, hi_buf, tmp_buf = (np.empty(per * z4) for _ in range(3))
    live_buf = np.empty(per * z4, dtype=bool)
    counts = np.zeros(n_all, dtype=np.int64)
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
        for j in range(0, w.size, per):
            wj, ra_j, rb_j = w[j:j + per], ra[j:j + per], rb[j:j + per]
            a_rows = (a[ra_j // z, wj, None, None] * h1[:, ra_j % z, :, wj]).transpose(1, 0, 2)
            b_rows = (b[rb_j // z, wj, None, None] * h2[:, rb_j % z, :, wj]).transpose(1, 0, 2)
            lo, hi, tmp, live = (buf[:wj.size * z4].reshape(wj.size, z2, z2)
                                 for buf in (lo_buf, hi_buf, tmp_buf, live_buf))
            _interval(a_rows[:, :, :, None], b_rows[:, :, None, :], lo, hi, tmp)
            np.less(lo, hi, out=live)
            flat = np.flatnonzero(live)
            win = wj[flat // z4]
            lo_v, hi_v = lo.ravel()[flat], hi.ravel()[flat]
            for cv in c[:, win]:
                np.add.at(counts, i + win[_solves(lo_v, hi_v, cv)], 1)
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
