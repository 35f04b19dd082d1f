"""Where the traced run wraps qmdp, and the per-layer metrics it derives.

A layer is a module of the package.  Work counts marked "computed" below
are derived from argument shapes, not measured, and repeat exactly for a
given workload seed and run length.
"""

from __future__ import annotations

import importlib
import sys

import catalog


def _rows(args, kwargs, result, counts):
    mdp = args[0].mdp
    counts["estimators.rows_estimated"] += mdp.num_states * mdp.num_actions


def _grid(args, kwargs, result, counts):
    cells = len(result)  # one outcome grid of 2^t cells
    counts["qsim.ae_grid_cells"] += cells
    # computed: one float64 array over the grid
    counts["qsim.ae_grid_bytes_max"] = max(counts["qsim.ae_grid_bytes_max"], 8 * cells)


def _operator_bytes(args, kwargs, result, counts):
    # computed: one pass over the float64 (S, A, S) transition tensor
    mdp = args[0]
    counts["mdp.bytes_computed"] += 8 * mdp.num_states**2 * mdp.num_actions


def _total_variance_bytes(args, kwargs, result, counts):
    # computed: the dense (SA) x (SA) system it solves
    mdp = args[0]
    counts["mdp.bytes_computed"] += 8 * (mdp.num_states * mdp.num_actions) ** 2


def _inner_iterations(args, kwargs, result, counts):
    p = result.params
    n = p["num_epochs"] * p["iters_per_epoch"] if "num_epochs" in p else p["iters"]
    counts["solvers.inner_iterations"] += n


def _phase_keys(args, kwargs, result, counts):
    counts["oracle.ledger.phase_keys"] += len(result.ledger.phases)


# (module, attribute, metric prefix for calls and time per call, unit, count)
TARGETS = (
    ("rng", "derived_rng", "rng.derived_rng", "us", None),
    ("oracle", "SampleOracle.__init__", None, None, None),
    ("oracle", "SampleOracle.derive_rng", None, None, None),
    ("oracle", "SampleOracle.sample_counts", "oracle.sample_counts", "us", None),
    ("oracle", "QueryLedger.charge_quantum", None, None, None),
    ("oracle", "QueryLedger.charge_classical", None, None, None),
    ("estimators", "batch_bounded_mock", "estimators.batch_bounded", "us", _rows),
    ("estimators", "batch_variance_mock", "estimators.batch_variance", "us", _rows),
    ("qsim", "amplitude_estimation_sample", "qsim.ae_sample", "us", None),
    ("qsim", "outcome_distribution", None, None, _grid),
    ("qsim", "simulate_argmax", "qsim.argmax", "us", None),
    ("mdp", "expected_next_value", "mdp.expected_next_value", "us", _operator_bytes),
    ("mdp", "successor_variance", "mdp.successor_variance", "us", _operator_bytes),
    ("mdp", "bellman_backup", None, None, None),
    ("mdp", "exact_value_iteration", "mdp.exact_value_iteration", "ms", None),
    ("mdp", "policy_value_exact", "mdp.policy_value_exact", "ms", None),
    ("mdp", "total_variance_norm", "mdp.total_variance_norm", "ms", _total_variance_bytes),
    ("solvers", "variance_reduced_vi", "solvers.variance_reduced_vi", "ms", _inner_iterations),
    ("solvers", "max_finding_vi", "solvers.max_finding_vi", "ms", _inner_iterations),
    ("solvers", "sampled_vi", "solvers.sampled_vi", "ms", _inner_iterations),
    ("cli", "run_solver", "cli.run_solver", "ms", _phase_keys),
    ("cli", "sandwich_success", "cli.sandwich_success", "ms", None),
    ("hard_instances", "multi_arm_instance", None, None, None),
    ("hard_instances", "tiled_instance", None, None, None),
)
LAYERS = tuple(dict.fromkeys(module for module, *_ in TARGETS))
_NS_PER = {"us": 1e3, "ms": 1e6}


def install(tracer) -> None:
    """Wrap every target wherever qmdp binds it."""
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "qmdp" or n.startswith("qmdp."))]
    for module, attr, _, _, count in TARGETS:
        home = importlib.import_module(f"qmdp.{module}")
        if "." in attr:
            cls_name, attr_name = attr.split(".")
            owners = [getattr(home, cls_name)]
        else:
            attr_name = attr
            owners = [home] + [m for m in modules if m is not home]
        if not tracer.wrap(owners, attr_name, f"{module}.{attr}", module, count):
            raise RuntimeError(f"qmdp.{module}.{attr} is bound nowhere")


def metrics(tracer, first: int, traced_s: float, overhead_frac: float) -> dict:
    """Per-layer metrics over spans[first:] (one traced pass whose rounds
    took traced_s); spans before `first` only feed hard_instances.build_ms.
    overhead_frac is the traced pass's host-speed-scaled wall over the
    untraced pass's, minus 1."""
    names = tracer.names
    calls = [0] * len(names)
    total_ns = [0] * len(names)
    layer_self_ns = dict.fromkeys(LAYERS, 0)
    own = tracer.self_ns(first)
    spans = tracer.spans[first:]
    for (name_id, start, end, _), self_ns in zip(spans, own):
        calls[name_id] += 1
        total_ns[name_id] += end - start
        layer_self_ns[tracer.layers[name_id]] += self_ns
    by_name = {n: i for i, n in enumerate(names)}

    def n_calls(span_name):
        return calls[by_name[span_name]]

    out = {}
    for module, attr, prefix, unit, _ in TARGETS:
        if prefix is None:
            continue
        i = by_name[f"{module}.{attr}"]
        out[f"{prefix}.calls"] = calls[i]
        out[f"{prefix}.{unit}_per_call"] = total_ns[i] / _NS_PER[unit] / calls[i] if calls[i] else 0.0
    for layer in LAYERS:
        out[f"{layer}.self_frac"] = layer_self_ns[layer] / 1e9 / traced_s
    out.update(tracer.counts)
    for key in ("estimators.rows_estimated", "qsim.ae_grid_cells", "qsim.ae_grid_bytes_max",
                "mdp.bytes_computed", "solvers.inner_iterations", "oracle.ledger.phase_keys"):
        out.setdefault(key, 0)
    out["oracle.ledger.charges"] = (n_calls("oracle.QueryLedger.charge_quantum")
                                    + n_calls("oracle.QueryLedger.charge_classical"))
    rows = out["estimators.rows_estimated"]
    batch_ns = (total_ns[by_name["estimators.batch_bounded_mock"]]
                + total_ns[by_name["estimators.batch_variance_mock"]])
    out["estimators.us_per_row"] = batch_ns / 1e3 / rows if rows else 0.0
    evi, backup = by_name["mdp.exact_value_iteration"], by_name["mdp.bellman_backup"]
    out["mdp.exact_value_iteration.sweeps"] = sum(
        1 for name_id, _, _, parent in spans
        if name_id == backup and parent >= 0 and tracer.spans[parent][0] == evi)
    out["hard_instances.build_ms"] = sum(
        end - start for name_id, start, end, _ in tracer.spans
        if tracer.layers[name_id] == "hard_instances") / 1e6
    out["trace.overhead_frac"] = overhead_frac
    missing = set(catalog.PER_LAYER) - set(out)
    if missing:
        raise RuntimeError(f"per-layer metrics not derived: {sorted(missing)}")
    return {k: out[k] for k in catalog.PER_LAYER}
