"""Neural-network weight search by lackadaisical quantum walk.

The searched object is the weight vector of a tiny 2-2-1 XOR network,
discretized onto a lattice window. A classical oracle enumerates the window's
zero-error vertices, and a four-component collapsed description of the
lackadaisical walk on the complete graph over the window delivers a marked
vertex with near-certain probability after ~ pi/2 * sqrt(N / (2k + l - 1))
coin flips. Coined line walks and a gradient-descent baseline round out the
toolkit.
"""

from .coined_walk import (
    classical_walk_probability,
    distribution_1d,
    distribution_nd,
    walk_1d,
    walk_nd,
)
from .lackadaisical_walk import (
    OUTCOME_LABELS,
    Angles,
    WalkParams,
    angles,
    build_operator,
    evolve,
    initial_state,
    outcome_probabilities,
    probability_trace,
    sample_outcome,
    steps_to_max,
)
from .mlp import (
    BackpropConfig,
    TrainResult,
    backprop_train,
    classification_error,
    classify,
    forward,
    init_weights,
    mse,
    mse_gradient,
)
from .oracle import (
    SolutionSet,
    WindowTooLarge,
    enumerate_solutions,
    evaluate_vertex,
)
from .trainer import (
    ExperimentResult,
    NoSolutionError,
    TrainerConfig,
    train,
)
from .weight_space import (
    WeightWindow,
    coords_to_index,
    coords_to_weights,
    index_to_coords,
    index_to_weights,
    random_window,
    ring_size,
    shift_window,
    window_size,
)

__version__ = "0.1.0"

__all__ = [
    "Angles",
    "BackpropConfig",
    "ExperimentResult",
    "NoSolutionError",
    "OUTCOME_LABELS",
    "SolutionSet",
    "TrainResult",
    "TrainerConfig",
    "WalkParams",
    "WeightWindow",
    "WindowTooLarge",
    "angles",
    "backprop_train",
    "build_operator",
    "classical_walk_probability",
    "classification_error",
    "classify",
    "coords_to_index",
    "coords_to_weights",
    "distribution_1d",
    "distribution_nd",
    "enumerate_solutions",
    "evaluate_vertex",
    "evolve",
    "forward",
    "init_weights",
    "initial_state",
    "index_to_coords",
    "index_to_weights",
    "mse",
    "mse_gradient",
    "outcome_probabilities",
    "probability_trace",
    "random_window",
    "ring_size",
    "sample_outcome",
    "shift_window",
    "steps_to_max",
    "train",
    "walk_1d",
    "walk_nd",
    "window_size",
]
