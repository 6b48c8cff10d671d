"""Finite windows over the infinite integer weight lattice.

A window is a z^w hypercube of lattice points. Vertex index <-> coordinate
conversion uses base-z digits with dimension 0 least significant, and weights
come from scaling the (origin-shifted, center-adjusted) lattice index by the
granularity delta_p:

    weight_j = delta_p * (origin_j + coord_j - floor(z/2))

For even z the window spans indices {-z/2, ..., z/2 - 1} around the origin;
a symmetric span does not exist, so the half-open convention is fixed here.

Windows that contain no solutions get shifted. Shifts displace the origin by
multiples of z per dimension, enumerated ring by ring in Chebyshev distance:
within a ring, a mixed-radix counter runs with dimension 0 fastest and the
per-dimension displacement values ordered 0, +z, -z, +2z, -2z, ...; tuples
whose Chebyshev norm is below the ring radius are skipped (they belong to an
earlier ring). shift_index 0 is the unshifted window, shift_index 1 displaces
by (z, 0, ..., 0), and distinct indices give disjoint windows.

Rings 1..r-1 hold (2r-1)^w - 1 shifts, so ring r's first shift index is
(2r-1)^w: shift_index_at, ring_of_shift and shift_window convert between a
shift index and a (ring, counter position) pair from that closed form.
ring_block_keys is the one decoder of counter positions into displacements:
the trainer takes each block's keys from it, and ring_window takes the row
of one position (a block with no free digits).
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .seeding import substream


@dataclass(frozen=True, slots=True)
class WeightWindow:
    w: int
    z: int
    origin: tuple[int, ...]
    delta_p: float

    def __post_init__(self):
        for v in (self.w, self.z, *self.origin):
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise ValueError(f"w, z and the origin entries must be integers, got {v!r}")
        if self.w < 1:
            raise ValueError(f"w must be positive, got {self.w}")
        if self.z < 1:
            raise ValueError(f"z must be positive, got {self.z}")
        if len(self.origin) != self.w:
            raise ValueError(f"origin must have length w={self.w}, got {len(self.origin)}")
        if isinstance(self.delta_p, bool) or not (
                math.isfinite(self.delta_p) and self.delta_p > 0):
            raise ValueError(
                f"delta_p must be finite and positive, got {self.delta_p!r}")
        require_finite_weights(self.delta_p, self.origin, self.z)


def require_finite_weights(delta_p: float, origin, z: int) -> None:
    """ValueError unless delta_p * (max|origin_j| + z), a bound on every
    weight's magnitude in a window of side z, is a finite float. origin may
    be any integers with the origin's largest magnitude, such as its extremes."""
    try:
        extreme = delta_p * (max(abs(int(o)) for o in origin) + z)
    except OverflowError:
        extreme = math.inf
    if not math.isfinite(extreme):
        raise ValueError("window weights must be finite: delta_p * "
                         "(max|origin_j| + z) overflows a float")


def window_size(window: WeightWindow) -> int:
    """Vertex count z^w (exact, arbitrary precision)."""
    return window.z ** window.w


def index_to_coords(idx: int, window: WeightWindow) -> tuple[int, ...]:
    """Base-z digits of idx, dimension 0 least significant."""
    n = window_size(window)
    if not 0 <= idx < n:
        raise ValueError(f"index {idx} out of range [0, {n})")
    coords = []
    for _ in range(window.w):
        coords.append(idx % window.z)
        idx //= window.z
    return tuple(coords)


def coords_to_index(coords, window: WeightWindow) -> int:
    """Inverse of index_to_coords."""
    if len(coords) != window.w:
        raise ValueError(f"expected {window.w} coordinates, got {len(coords)}")
    idx = 0
    for j in reversed(range(window.w)):
        c = coords[j]
        if not 0 <= c < window.z:
            raise ValueError(f"coordinate {c} out of range [0, {window.z})")
        idx = idx * window.z + c
    return idx


def coords_to_weights(coords, window: WeightWindow) -> np.ndarray:
    """Real synaptic weights for a coordinate tuple."""
    c = np.asarray(coords, dtype=np.int64)
    center = window.z // 2
    return window.delta_p * (np.asarray(window.origin, dtype=np.int64) + c - center)


def index_to_weights(idx: int, window: WeightWindow) -> np.ndarray:
    return coords_to_weights(index_to_coords(idx, window), window)


@functools.lru_cache(maxsize=64)
def _digit_values(r: int, z: int) -> np.ndarray:
    """Displacement value of each ring-r digit, read-only: 0, +z, -z, ...,
    +rz, -rz."""
    d = np.arange(2 * r + 1, dtype=np.int64)
    values = (d + 1) // 2 * z * np.where(d % 2, 1, -1)
    values.flags.writeable = False
    return values


def ring_size(w: int, r: int) -> int:
    """Number of displacement tuples at Chebyshev radius exactly r (in units of z)."""
    return (2 * r + 1) ** w - (2 * r - 1) ** w


@functools.lru_cache(maxsize=64)
def _free_digits(base: int, m: int, dims: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The free-digit part of a block's keys over dims, read-only: each
    setting's digits on dims (0 on the fixed ones) and its offset."""
    free = [j for j in dims if j < m]
    grid = np.indices((base,) * len(free)).reshape(len(free), base ** len(free))[::-1]
    digits = np.zeros((grid.shape[1], len(dims)), dtype=np.int64)
    for col, j in enumerate(dims):
        if j < m:
            digits[:, col] = grid[free.index(j)]
    offsets = (base ** np.array(free, dtype=np.int64)) @ grid
    digits.flags.writeable = offsets.flags.writeable = False
    return digits, offsets


def ring_block_keys(z: int, r: int, start: int, m: int, dims):
    """One side's keys of a ring block: (displacements, offsets).

    The block is counter positions [start, start + b^m) of ring r, b = 2r+1,
    start a multiple of b^m: its m low digits are free and the others are
    start's. Over the dimensions dims, each setting of the free digits among
    them is one key: its row of displacement values on dims (fixed digits
    from start) and its offset sum(digit_j * b^j) over those free digits.
    When groups of dims partition range(w), the block is the product of their
    keys: the position start + the sum of one key offset per group.
    Positions of the inner cube (every digit below 2r-1) are not skipped.
    The free digits and offsets are built once per (b, m, dims), and the
    digit values once per (r, z); the offsets returned are read-only.
    ValueError if start is not a multiple of b^m.
    """
    base = 2 * r + 1
    if start % base ** m:
        raise ValueError(f"block start {start} is not a multiple of {base}^{m}")
    dims = tuple(dims)
    free, offsets = _free_digits(base, m, dims)
    fixed = np.array([0 if j < m else start // base ** j % base for j in dims],
                     dtype=np.int64)
    return _digit_values(r, z)[free + fixed], offsets


def ring_rank(w: int, r: int, position: int) -> int:
    """Accepted counter positions of ring r below position (0 <= position <=
    (2r+1)^w): the rank of an accepted position among them, counted from 0."""
    base, inner_base = 2 * r + 1, 2 * r - 1
    if position >= base ** w:
        return ring_size(w, r)
    inner = 0  # inner-cube positions below position
    for j in reversed(range(w)):
        digit = position // base ** j % base
        if digit >= inner_base:
            inner += inner_base ** (j + 1)
            break
        inner += digit * inner_base ** j
    return position - inner


def shift_index_at(w: int, r: int, position: int) -> int:
    """Shift index of a counter position of ring r, or of the first accepted
    one after it for an inner-cube position. Ring 1's position 0, the zero
    displacement, is the unshifted window: shift 0."""
    if (r, position) == (1, 0):
        return 0
    return (2 * r - 1) ** w + ring_rank(w, r, position)


def ring_of_shift(w: int, shift_index: int) -> int:
    """Ring of a shift index: the smallest r with (2r+1)^w > shift_index, so
    0 for the unshifted window."""
    r = 0
    while (2 * r + 1) ** w <= shift_index:
        r += 1
    return r


def ring_window(window: WeightWindow, r: int, position: int) -> WeightWindow:
    """The window displaced by counter position `position` of ring r;
    ValueError if the position lies in the inner cube."""
    disp = ring_block_keys(window.z, r, position, 0, range(window.w))[0][0]
    if np.abs(disp).max() < r * window.z:
        raise ValueError(f"position {position} is not on ring {r}")
    return replace(window, origin=tuple(int(o + d) for o, d in zip(window.origin, disp)))


def shift_window(window: WeightWindow, shift_index: int) -> WeightWindow:
    """The window at position `shift_index` of the ring enumeration."""
    if shift_index < 0:
        raise ValueError("shift_index must be non-negative")
    if shift_index == 0:
        return window
    w = window.w
    r = ring_of_shift(w, shift_index)
    # the accepted position of this rank is the last one with no more below it
    rank = shift_index - (2 * r - 1) ** w
    position = bisect.bisect_right(range((2 * r + 1) ** w), rank,
                                   key=lambda p: ring_rank(w, r, p)) - 1
    return ring_window(window, r, position)


def random_window(w: int, z: int, delta_p: float, seed: int) -> WeightWindow:
    """Window with origin drawn uniformly from [-z, z]^w (seeded)."""
    rng = substream(seed, "window")
    origin = tuple(int(v) for v in rng.integers(-z, z + 1, size=w))
    return WeightWindow(w=w, z=z, origin=origin, delta_p=delta_p)


def to_descriptor(window: WeightWindow) -> dict:
    return {"w": window.w, "z": window.z, "delta_p": window.delta_p,
            "origin": list(window.origin)}


def from_descriptor(d: dict) -> WeightWindow:
    """Inverse of to_descriptor. ValueError unless w, z and every origin entry
    are ints (WeightWindow checks them) and delta_p is an int or a float: no
    field is coerced, so a descriptor reads back as the window it was written
    from or not at all."""
    origin = tuple(d["origin"])
    if type(d["delta_p"]) not in (int, float):
        raise ValueError(f"delta_p must be a number, got {d['delta_p']!r}")
    return WeightWindow(w=d["w"], z=d["z"], origin=origin, delta_p=float(d["delta_p"]))
