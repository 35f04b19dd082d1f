"""Names and units of everything the benchmark reports.

Kept free of numpy and qmdp imports so that ``run.py`` can parse its
arguments and check the checkout before any program code is loaded.
``BENCHMARK.json`` names the same metrics with the same units; the
benchmark's tests hold the two in step.
"""

WORKLOADS = ("hard-sweep", "dense-mock", "statevector")
DELTA = 0.1  # the failure probability every workload solves at

# Reported with --trace 0, measured with tracing off.
END_TO_END = {
    "solves_per_s": "1/s",
    "solve_ms_p50": "ms",
    "solve_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "sandwich_ok_frac": "frac",
    "verified_frac": "frac",
    "quantum_queries": "count",
    "ledger_total_queries": "count",
}

# Reported with --trace 1, from a separate traced pass.
PER_LAYER = {
    "rng.derived_rng.calls": "count",
    "rng.derived_rng.us_per_call": "us",
    "rng.self_frac": "frac",
    "oracle.sample_counts.calls": "count",
    "oracle.sample_counts.us_per_call": "us",
    "oracle.ledger.charges": "count",
    "oracle.ledger.phase_keys": "count",
    "oracle.self_frac": "frac",
    "estimators.batch_bounded.calls": "count",
    "estimators.batch_bounded.us_per_call": "us",
    "estimators.batch_variance.calls": "count",
    "estimators.batch_variance.us_per_call": "us",
    "estimators.rows_estimated": "count",
    "estimators.us_per_row": "us",
    "estimators.self_frac": "frac",
    "qsim.ae_sample.calls": "count",
    "qsim.ae_sample.us_per_call": "us",
    "qsim.ae_grid_cells": "count",
    "qsim.ae_grid_bytes_max": "B",
    "qsim.argmax.calls": "count",
    "qsim.argmax.us_per_call": "us",
    "qsim.self_frac": "frac",
    "mdp.expected_next_value.calls": "count",
    "mdp.expected_next_value.us_per_call": "us",
    "mdp.successor_variance.calls": "count",
    "mdp.successor_variance.us_per_call": "us",
    "mdp.exact_value_iteration.calls": "count",
    "mdp.exact_value_iteration.ms_per_call": "ms",
    "mdp.exact_value_iteration.sweeps": "count",
    "mdp.total_variance_norm.calls": "count",
    "mdp.total_variance_norm.ms_per_call": "ms",
    "mdp.policy_value_exact.ms_per_call": "ms",
    "mdp.bytes_computed": "B",
    "mdp.self_frac": "frac",
    "solvers.variance_reduced_vi.ms_per_call": "ms",
    "solvers.max_finding_vi.ms_per_call": "ms",
    "solvers.sampled_vi.ms_per_call": "ms",
    "solvers.inner_iterations": "count",
    "solvers.self_frac": "frac",
    "cli.run_solver.ms_per_call": "ms",
    "cli.sandwich_success.ms_per_call": "ms",
    "cli.self_frac": "frac",
    "hard_instances.build_ms": "ms",
    "trace.overhead_frac": "frac",
}
