"""Seeded results do not depend on numpy's CPU dispatch.

numpy picks SIMD kernels at run time from the CPU's features, and
NPY_DISABLE_CPU_FEATURES switches groups of them off in one process. A child
process with the AVX-512 groups off must give the digests this process
gives: the first seeds of criterion 5's sweep, the z=8 origin window's
solution indices, and the oracle's float tables (hidden units and row
bounds) over a spread of keys, which would show a logistic whose bits
follow the dispatch. np.exp's bits on a grid show that the child's dispatch
really changed, since the seeded path itself no longer calls np.exp.

    PYTHONPATH=src python tests/test_dispatch.py

prints this process's digests as JSON.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_features__

import qwtrain
from qwtrain import criteria, oracle, reference
from qwtrain.weight_space import WeightWindow

# the groups numpy dispatches AVX-512 kernels under; without X86_V4 the
# list leaves np.exp's kernel as it is
REDUCED_DISPATCH = "X86_V4 AVX512_SKX AVX512_CLX AVX512_CNL AVX512_ICL AVX512_SPR"
SEEDS = 300


def _digests() -> dict:
    """sha256 hex digests of the first SEEDS runs of criterion 5's sweep, of
    the z=8 origin window's solution indices, of one side's tables for keys
    -10..10 on every dimension at delta_p 0.5 and 0.1, and of np.exp on the
    grid 0.01 * [-4000, 4000]."""
    window = WeightWindow(w=9, z=8, origin=(0,) * 9, delta_p=0.5)
    indices = oracle.enumerate_solutions(window).indices
    keys = np.repeat(np.arange(-10, 11)[:, None], 4, axis=1)
    tables = hashlib.sha256()
    for delta_p in (0.5, 0.1):
        for table in oracle._side(oracle._weight_values(keys, 8, delta_p)):
            tables.update(table.tobytes())
    grid = np.exp(0.01 * np.arange(-4000, 4001))
    return {"train": criteria._sweep_digest(criteria._train_sweep(range(SEEDS))),
            "z8": hashlib.sha256(indices.astype("<i8").tobytes()).hexdigest(),
            "tables": tables.hexdigest(),
            "exp": hashlib.sha256(grid.tobytes()).hexdigest()}


@pytest.mark.skipif(not __cpu_features__.get("AVX512F"),
                    reason="CPU without AVX512F: no AVX-512 dispatch to switch off")
def test_seeded_results_do_not_depend_on_cpu_dispatch():
    src = str(Path(qwtrain.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": REDUCED_DISPATCH,
           "PYTHONPATH": os.pathsep.join(path)}
    child = subprocess.Popen([sys.executable, __file__], env=env, stdout=subprocess.PIPE,
                             text=True)
    try:
        here = _digests()  # while the child runs
    finally:
        out, _ = child.communicate(timeout=120)
    assert child.returncode == 0
    there = json.loads(out)
    assert there["exp"] != here["exp"]
    assert here["train"] == there["train"]
    assert here["z8"] == there["z8"]
    assert here["tables"] == there["tables"]
    assert here["z8"].startswith(reference.Z8_ORIGIN_INDEX_SHA256)


if __name__ == "__main__":
    print(json.dumps(_digests()))
