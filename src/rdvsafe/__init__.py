"""Safety verification of a two-phase autonomous spacecraft rendezvous.

The package builds linear and nonlinear hybrid models of a chaser approaching
an orbiting target under a switched LQR controller, computes reachable sets
with generalized star sets, and proves or refutes the mission's geometric and
physical safety requirements, including collision avoidance along passive
abort trajectories.
"""

__version__ = "0.1.0"

from .hybrid import (
    HybridAutomaton,
    SafetyProperty,
    build_rendezvous_automaton,
    initial_thrust_box,
    los_halfspaces,
    octagon_halfspaces,
    separation_property,
    thrust_properties,
    velocity_polytope,
)
from .lqr import GainMatrix, Weights, bryson_weights, design_mode_gains, solve_care
from .numsim import (
    Trajectory,
    matrix_exp,
    simulate_nonlinear,
)
from .orbital import (
    LinearModel,
    OrbitalParams,
    closed_loop_matrix,
    cwh_matrices,
    nonlinear_field,
)
from .starset import Box, hull_boxes, supports
from .verifier import (
    FlowpipeSegment,
    Scenario,
    VerificationReport,
    default_scenario,
    falsify,
    monte_carlo_containment,
    partition_window,
    sweep_passive_time,
    verify,
    verify_windowed,
)

__all__ = [
    "Box",
    "FlowpipeSegment",
    "GainMatrix",
    "HybridAutomaton",
    "LinearModel",
    "OrbitalParams",
    "SafetyProperty",
    "Scenario",
    "Trajectory",
    "VerificationReport",
    "Weights",
    "bryson_weights",
    "build_rendezvous_automaton",
    "closed_loop_matrix",
    "cwh_matrices",
    "default_scenario",
    "design_mode_gains",
    "falsify",
    "hull_boxes",
    "initial_thrust_box",
    "los_halfspaces",
    "matrix_exp",
    "monte_carlo_containment",
    "nonlinear_field",
    "octagon_halfspaces",
    "partition_window",
    "separation_property",
    "simulate_nonlinear",
    "solve_care",
    "supports",
    "sweep_passive_time",
    "thrust_properties",
    "velocity_polytope",
    "verify",
    "verify_windowed",
]
