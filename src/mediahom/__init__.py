"""Repeated-interaction simulation of spin networks coupled to ancilla baths.

A network of qudits evolves by colliding, one step at a time, with freshly
prepared bath ancillas attached at chosen sites.  The package builds the
network and interaction Hamiltonians, derives the collision channel in
Kraus and superoperator form, decides whether the dynamics relaxes to a
unique stationary state, and drives parameter-sweep experiments from
declarative JSON configs.
"""

__version__ = "0.1.0"

from ._kernels import backend_name
from .collision import (
    CollisionChannel,
    ControllerSequence,
    Superoperator,
    apply_sequence,
    build_channel,
    build_two_bath_channel,
    direct_apply,
    imperfect_controller_sequence,
    joint_unitary,
    unvectorize,
    vectorize,
)
from .config import ScenarioConfig, load_config, parse_config
from .convergence import (
    ConvergenceReport,
    check_invariance,
    entropy_ratio,
    factorized_eigenvector_count,
    forgetting_metric,
    haag_mixture_check,
    is_relaxing,
    iterative_fixed_point,
    spectral_fixed_point,
)
from .errors import (
    CapacityError,
    ConfigError,
    ConvergenceError,
    DegenerateFixedPointError,
    FixedPointNumericalError,
    ShapeError,
    UndefinedRatioError,
)
from .qmath import (
    concurrence,
    ensure_density,
    partial_trace,
    tensor,
    trace_distance,
    trace_norm,
    validate_density,
    von_neumann_entropy,
)
from .network import (
    CouplingGraph,
    NetworkSpec,
    chain_graph,
    excitation_observable,
    interaction_hamiltonian,
    swap_network_hamiltonian,
    swap_operator,
    system_hamiltonian,
    xxz_hamiltonian,
)
from .scenario import ResultTable, emit_csv, run_scenario, sweep

__all__ = [
    "__version__",
    "backend_name",
    "CollisionChannel",
    "ControllerSequence",
    "Superoperator",
    "apply_sequence",
    "build_channel",
    "build_two_bath_channel",
    "direct_apply",
    "imperfect_controller_sequence",
    "joint_unitary",
    "vectorize",
    "unvectorize",
    "ScenarioConfig",
    "load_config",
    "parse_config",
    "ConvergenceReport",
    "check_invariance",
    "entropy_ratio",
    "factorized_eigenvector_count",
    "forgetting_metric",
    "haag_mixture_check",
    "is_relaxing",
    "iterative_fixed_point",
    "spectral_fixed_point",
    "CapacityError",
    "ConfigError",
    "ConvergenceError",
    "DegenerateFixedPointError",
    "FixedPointNumericalError",
    "ShapeError",
    "UndefinedRatioError",
    "concurrence",
    "ensure_density",
    "partial_trace",
    "tensor",
    "trace_distance",
    "trace_norm",
    "validate_density",
    "von_neumann_entropy",
    "CouplingGraph",
    "NetworkSpec",
    "chain_graph",
    "excitation_observable",
    "interaction_hamiltonian",
    "swap_network_hamiltonian",
    "swap_operator",
    "system_hamiltonian",
    "xxz_hamiltonian",
    "ResultTable",
    "emit_csv",
    "run_scenario",
    "sweep",
]
