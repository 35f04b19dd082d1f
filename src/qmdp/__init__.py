"""Simulator and experiment harness for quantum-accelerated solving of
tabular discounted MDPs: two sampled solvers with pluggable quantum
subroutine backends and a query ledger, classical baselines, exact
ground-truth solvers, and a hard-instance family with closed-form optima.
"""

from .errors import (
    ConfigError,
    InternalError,
    PreconditionError,
    QmdpError,
)
from .estimators import EstimatorConfig
from .hard_instances import (
    HardInstanceSpec,
    multi_arm_instance,
    tiled_instance,
    two_state_chain,
    value_gap,
)
from .mdp import (
    Mdp,
    bellman_backup,
    exact_value_iteration,
    expected_next_value,
    greedy,
    load_mdp_json,
    policy_backup,
    policy_value_exact,
    save_mdp_json,
    successor_variance,
    total_variance_norm,
)
from .oracle import (
    DyadicMdp,
    DyadicRow,
    QueryLedger,
    SampleOracle,
    quantize_mdp,
    quantize_row,
    reversible_successor_map,
)
from .qsim import (
    amplitude_estimation_sample,
    outcome_distribution,
    simulate_argmax,
)
from .solvers import (
    MaxFindingParams,
    Plan,
    SampledParams,
    SolveReport,
    VarianceReducedParams,
    max_finding_vi,
    sampled_vi,
    variance_reduced_vi,
)

__version__ = "0.1.0"
