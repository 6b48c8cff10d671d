"""Classical oracle: which window vertices solve XOR.

A vertex solves when its weight vector classifies all four XOR patterns
correctly. The oracle enumerates a window exhaustively and keeps the sorted
list of solution indices; that list (not a dense 0/1 array, which would be
wasteful at 134M vertices) is the marked set the walk searches for.

The 2-2-1 network factors: hidden unit h1 depends only on weights 0-2, h2
only on weights 3-5, and the output is y = a*h1 + b*h2 - c. Both fast routes
build the same hidden-unit tables (_hidden) and combine them per (a, b):
enumerate_solutions lists the exact solution set of one window in float64,
and scan_window_counts is a float32 path that only counts solutions across
many candidate windows at once; the trainer uses the scan to locate a
promising window and then confirms with enumerate_solutions, so its reduced
precision can never leak into results. Two unfactored routes are kept as
independent references: a scalar per-vertex predicate (evaluate_vertex) and
a plain double loop (reference_enumerate).
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

_MAGIC = b"QWSOLSET"

_X = np.array(mlp.XOR_INPUTS)
_TARGETS_TRUE = np.array([t == 1.0 for t in mlp.XOR_TARGETS])


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
    """Hidden-unit table sigmoid(x0*w_j + x1*w_{j+1} - w_{j+2}), in out's dtype.

    vals is (n, 9, z) weight values per window and dimension; out is
    (n, 4, z, z, z) scratch. Returns out as (n, 4 patterns, z^3 settings).
    Weight j sits on the last axis, so the flat setting index is
    c_j + z*c_{j+1} + z^2*c_{j+2}: the vertex index's own digit order.
    """
    n, z = vals.shape[0], vals.shape[2]
    x = _X.astype(out.dtype)
    out[:] = x[None, :, 0, None, None, None] * vals[:, None, j, None, None, :]
    out += x[None, :, 1, None, None, None] * vals[:, None, j + 1, None, :, None]
    out -= vals[:, None, j + 2, :, None, None]
    np.negative(out, out=out)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    np.reciprocal(out, out=out)
    return out.reshape(n, 4, z ** 3)


def _weight_values(origins: np.ndarray, z: int, delta_p: float) -> np.ndarray:
    """(n, 9, z) float64 weight values of each window's dimensions."""
    return delta_p * (origins[:, :, None] + np.arange(z)[None, None, :] - z // 2)


def enumerate_solutions(window: WeightWindow) -> SolutionSet:
    """Exact solution set of a window, in increasing index order.

    Uses the 2-2-1 factoring: h1 depends on weights 0-2 only, h2 on 3-5, and
    y = a*h1 + b*h2 - c. For each output weight b one slab
    s_p = a*h1 + b*h2 over (pattern, a, h2 setting, h1 setting) is formed in
    float64; it is laid out in vertex index order, so for each output bias c
    the hits of (s_p - c >= 0.5) == target_p over all four patterns are flat
    offsets into the z^7 vertices with that (b, c). Memory is O(z^7), never
    the whole window. Refuses windows above DEFAULT_VERTEX_CAP vertices.
    """
    _require_mlp_window(window)
    n = window_size(window)
    if n > DEFAULT_VERTEX_CAP:
        raise WindowTooLarge(
            f"window has {n} vertices, above the cap {DEFAULT_VERTEX_CAP}")
    z = window.z
    zc, z7 = z ** 3, z ** 7
    vals = _weight_values(np.asarray([window.origin], dtype=np.int64), z,
                          window.delta_p)
    h1 = _hidden(vals, 0, np.empty((1, 4, z, z, z)))[0]
    h2 = _hidden(vals, 3, np.empty((1, 4, z, z, z)))[0]
    a, b, c = vals[0, 6], vals[0, 7], vals[0, 8]
    ah1 = a[None, :, None] * h1[:, None, :]  # (pattern, a, h1 setting)
    s = np.empty((4, z, zc, zc))
    y = np.empty((4, z7))
    ok = np.empty((4, z7), dtype=bool)
    parts = [[None] * z for _ in range(z)]  # [c][b], so c-major order is sorted
    for bi in range(z):
        np.add(ah1[:, :, None, :], (b[bi] * h2)[:, None, :, None], out=s)
        for ci in range(z):
            np.subtract(s.reshape(4, z7), c[ci], out=y)
            np.greater_equal(y, 0.5, out=ok)
            np.equal(ok, _TARGETS_TRUE[:, None], out=ok)
            parts[ci][bi] = np.flatnonzero(ok.all(axis=0)) + (bi * z7 + ci * z * z7)
    indices = np.concatenate([p for row in parts for p in row])
    return SolutionSet(window=window, indices=indices)


# Workspace buffers for scan_window_counts, keyed by (padded block size, z).
# Padding to powers of two keeps the cache bounded while the trainer feeds
# batches of arbitrary truncated sizes.
_SCAN_WS: dict = {}


def _scan_workspace(n: int, z: int) -> dict:
    cap = 1 << max(5, (n - 1).bit_length())
    key = (cap, z)
    if key not in _SCAN_WS:
        zc = z ** 3
        _SCAN_WS[key] = {
            "u1": np.empty((cap, 4, z, z, z), np.float32),
            "u2": np.empty((cap, 4, z, z, z), np.float32),
            "A": np.empty((cap, 4, zc, z), np.float32),
            "Bm": np.empty((cap, 4, zc, z), np.float32),
            "lo": np.empty((cap, zc, z, zc, z), np.float32),
            "hi": np.empty((cap, zc, z, zc, z), np.float32),
            "tmp": np.empty((cap, zc, z, zc, z), np.float32),
            "m1": np.empty((cap, zc, z, zc, z), bool),
            "m2": np.empty((cap, zc, z, zc, z), bool),
        }
    return {name: arr[:n] for name, arr in _SCAN_WS[key].items()}


def _scan_block(origins: np.ndarray, z: int, delta_p: float) -> np.ndarray:
    n = origins.shape[0]
    w = _scan_workspace(n, z)
    vals = _weight_values(origins, z, delta_p).astype(np.float32)
    h1 = _hidden(vals, 0, w["u1"])
    h2 = _hidden(vals, 3, w["u2"])
    A, Bm = w["A"], w["Bm"]
    np.multiply(h1[:, :, :, None], vals[:, 6, None, None, :], out=A)
    np.multiply(h2[:, :, :, None], vals[:, 7, None, None, :], out=Bm)

    # s_p = a*h1 + b*h2 over (n, h1 choice, a, h2 choice, b); the c interval
    # is (max(s_00, s_11) - 0.5, min(s_01, s_10) - 0.5], folded into c + 0.5
    lo, hi, tmp = w["lo"], w["hi"], w["tmp"]
    np.add(A[:, 0, :, :, None, None], Bm[:, 0, None, None, :, :], out=lo)
    np.add(A[:, 3, :, :, None, None], Bm[:, 3, None, None, :, :], out=tmp)
    np.maximum(lo, tmp, out=lo)
    np.add(A[:, 1, :, :, None, None], Bm[:, 1, None, None, :, :], out=hi)
    np.add(A[:, 2, :, :, None, None], Bm[:, 2, None, None, :, :], out=tmp)
    np.minimum(hi, tmp, out=hi)

    cshift = vals[:, 8] + np.float32(0.5)
    counts = np.zeros(n, dtype=np.int64)
    m1, m2 = w["m1"], w["m2"]
    for ci in range(z):
        cv = cshift[:, ci][:, None, None, None, None]
        np.greater(cv, lo, out=m1)
        np.less_equal(cv, hi, out=m2)
        np.logical_and(m1, m2, out=m1)
        counts += m1.reshape(n, -1).sum(axis=1)
    return counts


def scan_window_counts(origins: np.ndarray, z: int, delta_p: float) -> np.ndarray:
    """Solution count per candidate window, float32, many windows at once.

    origins is (B, 9); returns (B,) int64 counts. Exploits the 2-2-1 shape:
    for fixed hidden choices and output weights a, b, the output bias c enters
    y = s - c monotonically, so XOR-correctness is an interval test on c
    instead of a test per vertex. Counts are float32-accurate; callers that
    need the exact set confirm hits with enumerate_solutions. Work happens in
    cache-sized blocks on reused buffers; results are block-size independent.
    """
    origins = np.asarray(origins, dtype=np.int64)
    if origins.ndim != 2 or origins.shape[1] != 9:
        raise ValueError("origins must be (B, 9)")
    B = origins.shape[0]
    block = max(32, (1 << 20) // max(z ** 8, 1))
    block = 1 << (block.bit_length() - 1)
    counts = np.empty(B, dtype=np.int64)
    for i in range(0, B, block):
        j = min(i + block, B)
        counts[i:j] = _scan_block(origins[i:j], z, delta_p)
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
