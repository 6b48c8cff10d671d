"""Published reference values and the tolerance each one is checked with.

The reproduction report (`qwtrain reproduce`) and the acceptance tests both
read this module, so a reference value or its tolerance lives in one place.
Probabilities are fractions, not percentages.
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
    t_int: int     # reference simulated step count, ceiling rounding
    note: str = ""  # why the tolerance is wider than the table's rounding


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
        "reference treated as a documented discrepancy. Ceiling rounding still "
        "reproduces the simulated step count 196.")),
    StepsRow(262144, 20, 179.83, 0.01, 180),
    StepsRow(134217728, 80295, 64.22, 0.01, 65),
)

PROBABILITIES = (
    # reference 95.48% AA and 3.07% AB
    ProbabilityRow(512, 12, 11, 0.9548, p_aa_tol=0.02, p_marked_min=0.98),
    ProbabilityRow(262144, 20, 180, 0.9999, p_aa_min=0.999),
    ProbabilityRow(134217728, 80295, 65, 0.9988, p_aa_min=0.99),
)

# Exact solution count of the z=8, delta_p=0.5 window at the lattice origin
# (134217728 vertices); the reference run reported 80295 for its own window.
Z8_ORIGIN_K = 3240
Z8_MARKED_MIN = 0.99  # lower bound on p_AA + p_AB after the optimal step count

# Backprop baseline: 100 seeded runs at lr 0.5 and 20 at lr 1e-4.
BACKPROP_FAST_LR, BACKPROP_FAST_RUNS = 0.5, 100
BACKPROP_SLOW_LR, BACKPROP_SLOW_RUNS = 0.0001, 20
BACKPROP_MIN_SUCCESSES = 95     # of the lr 0.5 runs
BACKPROP_MAX_MEAN_EPOCHS = 5000  # bounds the lr 0.5 means over successes and over all runs
BACKPROP_SLOWDOWN = 50  # lr 1e-4 mean epochs over the lr 0.5 mean, unless a run hits the limit
