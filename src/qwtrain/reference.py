"""Published reference values, the tolerance each one is checked with, and
the run sizes of the acceptance criteria.

`qwtrain.criteria` is the one reader: it computes and judges each criterion
from these values, and both `qwtrain reproduce` and the acceptance tests
take their verdicts from it. Tolerances of exact identities (a norm of 1,
p_AA = 1 on the toy walk) are floating-point slack, not reference values;
they stay with their checks there. Probabilities are fractions, not
percentages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class StepsRow:
    """Optimal step count of the walk on (N, k) with one self-loop."""

    N: int
    k: int
    t_real: float  # reference optimal step count
    tol: float     # allowed |computed - reference|
    t_int: int     # reference simulated step count, the ceiling of t
    note: str = ""  # why the tolerance is wider than the table's 0.01
    t_formula: float | None = None  # the formula's own value where it departs
                                    # from t_real, pinned to the table's 0.01


@dataclass(frozen=True)
class ProbabilityRow:
    """Final outcome probabilities of the walk on (N, k) after `steps` steps."""

    N: int
    k: int
    steps: int
    p_aa: float                    # reference p_AA
    p_aa_tol: float = math.inf     # allowed |p_AA - reference|
    p_aa_min: float = 0.0          # lower bound on p_AA
    p_marked_min: float = 0.0      # lower bound on p_AA + p_AB

    def passes(self, p) -> bool:
        """Whether outcome probabilities (p_AA, p_AB, p_BA, p_BB) meet the row."""
        return (abs(p[0] - self.p_aa) <= self.p_aa_tol and p[0] >= self.p_aa_min
                and p[0] + p[1] >= self.p_marked_min)


STEPS = (
    StepsRow(512, 12, 10.26, 0.01, 11),
    StepsRow(262144, 17, 195.83, 1.0, 196, note=(
        "for (N=262144, k=17) the step formula gives 195.06 while the "
        "reference table lists 195.83; the computed value is reported and the "
        "reference treated as a documented discrepancy. The ceiling of 195.06 "
        "still gives the simulated step count 196."), t_formula=195.06),
    StepsRow(262144, 20, 179.83, 0.01, 180),
    StepsRow(134217728, 80295, 64.22, 0.01, 65),
)

PROBABILITIES = (
    # reference 95.48% AA and 3.07% AB
    ProbabilityRow(512, 12, 11, 0.9548, p_aa_tol=0.02, p_marked_min=0.98),
    ProbabilityRow(262144, 20, 180, 0.9999, p_aa_min=0.999),
    ProbabilityRow(134217728, 80295, 65, 0.9988, p_aa_min=0.99),
)

# The toy walk (N=8, k=2, l=1) collapses onto AA exactly after 3 steps.
TOY_STEPS = 3

# Hadamard walk on the line: the symmetric start's peaks after 100 steps.
LINE_STEPS = 100
LINE_PEAK_MIN, LINE_PEAK_MAX = 60, 80  # bounds on the peak's |n|

# End-to-end weight search at z=2: seeds 0..999, each with a shift budget;
# the share of seeds measuring a marked outcome (reference mean 0.9944).
TRAIN_SEEDS = 1000
TRAIN_MAX_SHIFTS = 100000
TRAIN_MIN_FRACTION = 0.95
# Prefix of the sha256 over the runs in seed order: per run, its window
# origin, k, shifts, outcome and vertex index as comma-terminated ASCII,
# then its weights as little-endian float64; a seed that finds no window
# adds "no window;". Any changed run fails, not only a moved fraction.
TRAIN_SWEEP_SHA256 = "85b490d407a86817"

# The factored oracle against the serial reference: a z=2 window built
# around a known zero-error weight vector.
ORACLE_ORIGIN = (1, 1, 2, -3, -3, 2, -2, -3, -2)
ORACLE_DELTA_P = 0.5
# Two z=2 windows (same delta_p) whose vertex 0 has outputs at 0.5 exactly
# in real arithmetic, where rounding decides: vertex 0 of the first solves,
# and vertex 0 of the second misclassifies one pattern. An oracle whose
# hidden unit is not mlp.sigmoid's, bit for bit, misses the one and marks
# the other.
ORACLE_EDGE_ORIGINS = ((-4, 0, -2, 6, 2, 4, 6, 6, 5), (-3, -1, 6, 5, 3, -4, -4, -4, -5))

# Invariant suite: random (N, k, l) triples checked for unitarity, and the
# steps over which the norm is checked.
INVARIANT_DRAWS = 10 ** 4
INVARIANT_STEPS = 10 ** 4

# Exact solution count of the z=8, delta_p=0.5 window at the lattice origin
# (134217728 vertices); the reference run reported 80295 for its own window.
Z8_ORIGIN_K = 3240
# Prefix of the sha256 of that window's sorted solution indices as
# little-endian int64, so a shifted or reordered set fails, not only a new k.
Z8_ORIGIN_INDEX_SHA256 = "5489055a61beb1db"
Z8_N = 134217728  # 8^9 vertices
Z8_MARKED_MIN = 0.99  # lower bound on p_AA + p_AB after the optimal step count

# Backprop baseline: 100 seeded runs at lr 0.5 and 20 at lr 1e-4, seeds
# from BACKPROP_SEED up.
BACKPROP_SEED = 500
BACKPROP_FAST_LR, BACKPROP_FAST_RUNS = 0.5, 100
BACKPROP_SLOW_LR, BACKPROP_SLOW_RUNS = 0.0001, 20
BACKPROP_MIN_SUCCESSES = 95     # of the lr 0.5 runs
BACKPROP_MAX_MEAN_EPOCHS = 5000  # bounds the lr 0.5 means over successes and over all runs
BACKPROP_SLOWDOWN = 50  # lr 1e-4 mean epochs over the lr 0.5 mean, unless a run hits the limit

# Prefix of the sha256 over the 120 runs in sweep order (the lr 0.5 runs,
# then the lr 1e-4 runs): per run, "outcome,epochs," in ASCII, then the final
# weights and the final MSE as little-endian float64, so any changed run
# fails, not only a moved mean.
BACKPROP_SWEEP_SHA256 = "0ae5c0ff5b451518"
