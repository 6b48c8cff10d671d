import contextlib
import io
import json
from types import SimpleNamespace

import numpy as np
import pytest

from qwtrain import cli, oracle


@pytest.fixture(scope="session")
def reproduce_run(tmp_path_factory):
    """One `qwtrain reproduce` run, shared by the tests that ask for it: its
    output directory, its stdout, and its `criteria.json` keyed by criterion
    number. Requested lazily, so a run of other test files never starts it."""
    out_dir = tmp_path_factory.mktemp("reproduce")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(["reproduce", "--out-dir", str(out_dir)])
        except SystemExit as exc:
            code = exc.code
    report = out_dir / "report.md"
    if code != 0 or not (out_dir / "criteria.json").exists():
        pytest.fail(f"reproduce exited {code}\nstderr:\n{stderr.getvalue()}\nreport:\n"
                    + (report.read_text() if report.exists() else "(none)"))
    records = json.loads((out_dir / "criteria.json").read_text())
    return SimpleNamespace(out_dir=out_dir, stdout=stdout.getvalue(),
                           criteria={c["number"]: c for c in records})


def interval_counts(origins, z, delta_p):
    """Solution count per window of origins (B, 9 integers), by brute force
    in float64: every (a-side, b-side) pair of settings and every output bias.

    A side's products are fl(a*h1) (weights 0-2, output weight 6) and
    fl(b*h2) (weights 3-5, output weight 7); s_p = fl(a*h1 + b*h2) per XOR
    pattern, and a vertex counts when max(s_00, s_11) - c < 0.5 and
    min(s_01, s_10) - c >= 0.5. Only the hidden tables (oracle._hidden) and
    weight values (oracle._weight_values) are the kernel's. The one pruning
    is a whole-window screen on each side's extremes: fl(x + y) and
    fl(x - c) are monotone, so a window whose extremes admit no c holds no
    solution.
    """
    origins = np.asarray(origins, dtype=np.int64).reshape(-1, 9)
    n = origins.shape[0]
    vals = oracle._weight_values(origins, z, delta_p)
    a, b = ((oracle._hidden(vals, j, np.empty((4, z, z, z, n)))[:, :, None]
             * vals[o]).reshape(4, z ** 4, n) for j, o in ((0, 6), (3, 7)))
    c = vals[8]
    lo = np.maximum(a[0].min(0) + b[0].min(0), a[3].min(0) + b[3].min(0))
    hi = np.minimum(a[1].max(0) + b[1].max(0), a[2].max(0) + b[2].max(0))
    counts = np.zeros(n, dtype=np.int64)
    for w in np.flatnonzero(((hi - c >= 0.5) & (lo - c < 0.5)).any(axis=0)):
        s = a[:, :, None, w] + b[:, None, :, w]
        lo_w, hi_w = np.maximum(s[0], s[3]), np.minimum(s[1], s[2])
        counts[w] = sum(np.count_nonzero((hi_w - cw >= 0.5) & (lo_w - cw < 0.5))
                        for cw in c[:, w])
    return counts


def shift_displacements(w, z, batch):
    """Yield (first shift index, displacement rows) in shift order, forever,
    decoding `batch` counter positions per step (steps that keep no row yield
    nothing). Written from weight_space's definition of the order, as a
    reference independent of its decoder: ring r's counter runs with
    dimension 0 fastest over the values 0, +z, -z, ..., +rz, -rz, and a row
    is kept when its largest magnitude is r*z."""
    index, r = 1, 1
    while True:
        values = np.array([0, *(s * q * z for q in range(1, r + 1) for s in (1, -1))])
        base, radius = values.size, r * z
        for lo in range(0, base ** w, batch):
            positions = np.arange(lo, min(lo + batch, base ** w))
            rows = values[positions[:, None] // base ** np.arange(w) % base]
            rows = rows[np.abs(rows).max(axis=1) == radius]
            if rows.size:
                yield index, rows
                index += rows.shape[0]
        r += 1
