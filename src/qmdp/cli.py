"""Config-driven command-line harness.

Subcommands: ``solve`` runs one solver and writes a report JSON; ``sweep``
runs a solver across a parameter axis and writes per-run CSV rows plus a
fitted log-log scaling exponent; ``verify`` runs a named invariant suite;
``oracle-build`` quantizes an MDP file into dyadic form.

Reports are deterministic for a fixed config and seed: rerunning ``solve``
reproduces the output byte for byte except for the single timestamp field.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import math
import os
import sys
import traceback

import numpy as np

from .errors import ConfigError, PreconditionError, QmdpError
from .estimators import EstimatorConfig
from .hard_instances import (
    DEFAULT_GAP_CONSTANT,
    HardInstanceSpec,
    multi_arm_instance,
    tiled_instance,
    two_state_chain,
    value_gap,
)
from .mdp import (
    Mdp,
    _read_json,
    _write_json,
    bellman_backup,
    expected_next_value,
    load_mdp_json,
    mdp_from_dict,
    policy_backup,
    policy_value_exact,
    total_variance_norm,
)
from .oracle import SampleOracle, quantize_mdp
from .rng import derived_rng
from .solvers import (
    MaxFindingParams,
    SolveReport,
    VarianceReducedParams,
    max_finding_vi,
    sampled_vi,
    variance_reduced_vi,
)

__all__ = [
    "load_config",
    "build_instance",
    "run_solver",
    "sandwich_success",
    "fit_power_law",
    "run_sweep",
    "run_suite",
    "main",
]

SOLVER_NAMES = ("variance-reduced", "max-finding", "sampled")
_INSTANCE_SOURCES = ("path", "mdp", "two_state", "hard_instance")
# the entries each config block may give; MDP documents stay open, because
# oracle-build output carries m, counts and max_distortion beside the MDP
_CONFIG_KEYS = ("instance", "solver", "estimator", "seed", "diagnostics", "snapshots_csv")
_SOLVER_KEYS = ("name", "eps", "delta", "b", "c", "c_max", "mode")
_TWO_STATE_KEYS = ("gamma", "p")
_HARD_INSTANCE_KEYS = ("gamma", "num_actions", "eps", "c_alpha", "copies", "large_arms")
INTEGER_AXES = ("num_actions", "copies")
# sweep axis -> (fit variable, its x at an axis value): the fit is against the
# variable the scaling laws are stated in
_SWEEP_FIT = {
    "eps": ("1/eps", lambda eps: 1.0 / eps),
    "gamma": ("horizon", lambda gamma: 1.0 / (1.0 - gamma)),
    **{axis: (axis, float) for axis in INTEGER_AXES},
}
SWEEP_AXES = tuple(_SWEEP_FIT)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def load_config(path) -> dict:
    doc = _read_json(path)
    validate_config(doc, source=str(path))
    return doc


def _check_number(doc: dict, key: str, where: str, integer: bool = False,
                  required: bool = True, finite: bool = True) -> None:
    """Raise ConfigError unless doc[key] is a number (an integer when asked),
    and a finite one unless ``finite`` is false; JSON booleans are not numbers
    here, and JSON's NaN and Infinity are not finite.  ``where`` prefixes the
    entry's path."""
    if key not in doc:
        if required:
            raise ConfigError(f"{where}{key} is required")
        return
    value = doc[key]
    kinds = (int, np.integer) if integer else (int, float, np.integer, np.floating)
    if isinstance(value, bool) or not isinstance(value, kinds):
        kind = "an integer" if integer else "a number"
        raise ConfigError(f"{where}{key} must be {kind}, got {value!r}")
    if finite and isinstance(value, (float, np.floating)) and not math.isfinite(value):
        raise ConfigError(f"{where}{key} must be finite, got {value!r}")


def _check_string(doc: dict, key: str, where: str) -> None:
    """Raise ConfigError if doc has a non-string entry ``key``."""
    if not isinstance(doc.get(key, ""), str):
        raise ConfigError(f"{where}{key} must be a string, got {doc[key]!r}")


def _check_keys(block: dict, allowed, where: str) -> None:
    """Raise ConfigError naming the first entry of block that no code reads."""
    unknown = [key for key in block if key not in allowed]
    if unknown:
        raise ConfigError(f"{where}{unknown[0]} is not a known entry; expected one of {allowed}")


def _check_block(doc: dict, key: str, where: str) -> dict:
    block = doc[key]
    if not isinstance(block, dict):
        raise ConfigError(f"{where}{key} must be an object, got {block!r}")
    return block


def validate_config(doc: dict, source: str = "<config>") -> None:
    if not isinstance(doc, dict):
        raise ConfigError(f"{source}: config must be a JSON object")
    _check_keys(doc, _CONFIG_KEYS, f"{source}: ")
    instance = doc.get("instance")
    if not isinstance(instance, dict):
        raise ConfigError(f"{source}: missing 'instance' object")
    _check_keys(instance, _INSTANCE_SOURCES, f"{source}: instance.")
    sources = [k for k in _INSTANCE_SOURCES if k in instance]
    if len(sources) != 1:
        raise ConfigError(
            f"{source}: instance must name exactly one source of {_INSTANCE_SOURCES}, "
            f"found {sources}")
    solver = doc.get("solver")
    if not isinstance(solver, dict) or "name" not in solver:
        raise ConfigError(f"{source}: missing 'solver' object with a 'name'")
    if solver["name"] not in SOLVER_NAMES:
        raise ConfigError(f"{source}: solver.name must be one of {SOLVER_NAMES}")
    _check_keys(solver, _SOLVER_KEYS, f"{source}: solver.")
    for key in ("eps", "delta", "b", "c", "c_max"):
        _check_number(solver, key, f"{source}: solver.", required=key in ("eps", "delta"))
    _check_string(solver, "mode", f"{source}: solver.")
    if "seed" not in doc:
        raise ConfigError(f"{source}: top-level 'seed' is required")
    _check_number(doc, "seed", f"{source}: ", integer=True)
    estimator = doc.get("estimator") or {}
    if not isinstance(estimator, dict):
        raise ConfigError(f"{source}: estimator must be an object, got {doc['estimator']!r}")
    # ranges (finiteness included) are EstimatorConfig's to check and report
    for key in ("c1", "c2", "adversarial_scale"):
        _check_number(estimator, key, f"{source}: estimator.", required=False, finite=False)
    for key in ("mock_failure_mode", "backend"):
        _check_string(estimator, key, f"{source}: estimator.")
    if not isinstance(doc.get("diagnostics", False), bool):
        raise ConfigError(f"{source}: diagnostics must be a boolean, got {doc['diagnostics']!r}")
    _check_string(doc, "snapshots_csv", f"{source}: ")


def _given(block: dict, keys, cast=float) -> dict:
    """The entries of ``keys`` that a config block gives, cast; the library
    owns the defaults of the rest."""
    return {key: cast(block[key]) for key in keys if key in block}


def build_instance(instance: dict, source: str = "<config>") -> tuple[Mdp, dict | None]:
    """Materialize the MDP named by an instance block; returns provenance for
    generated instances.  Missing or mistyped entries raise ConfigError, and
    a generator's range errors are PreconditionErrors naming the entry."""
    where = f"{source}: instance."
    name = next((key for key in _INSTANCE_SOURCES if key in instance), "hard_instance")
    if name == "path":
        if not isinstance(instance["path"], str):
            raise ConfigError(f"{where}path must be a string, got {instance['path']!r}")
        return load_mdp_json(instance["path"]), None
    doc = _check_block(instance, name, where)
    if name == "mdp":
        return mdp_from_dict(doc, source=f"{source}:instance.mdp"), None
    where += f"{name}."
    try:
        if name == "two_state":
            _check_keys(doc, _TWO_STATE_KEYS, where)
            for key in _TWO_STATE_KEYS:
                _check_number(doc, key, where)
            return two_state_chain(doc["gamma"], doc["p"]), {"two_state": doc}
        _check_keys(doc, _HARD_INSTANCE_KEYS, where)
        keys = _HARD_INSTANCE_KEYS[:-1]  # the numbers; large_arms is a list
        for key in keys:
            _check_number(doc, key, where, integer=key in INTEGER_AXES, required=key in keys[:3])
        arms = doc.get("large_arms", [])
        if not isinstance(arms, list) or any(
                isinstance(a, bool) or not isinstance(a, (int, np.integer)) for a in arms):
            raise ConfigError(f"{where}large_arms must be a list of integers, got {arms!r}")
        given = {key: doc[key] for key in keys if key in doc}
        spec = HardInstanceSpec(large_arms=frozenset(arms), **given)
    except PreconditionError as exc:
        raise PreconditionError(f"{where}{exc}") from exc
    return tiled_instance(spec), {"hard_instance": spec.provenance()}


def estimator_config(doc: dict | None) -> EstimatorConfig:
    if not doc:
        return EstimatorConfig()
    try:
        return EstimatorConfig(**doc)
    except TypeError as exc:
        raise ConfigError(f"estimator config: {exc}") from exc


def run_solver(mdp: Mdp, solver: dict, cfg: EstimatorConfig, seed: int,
               diagnostics: bool = False) -> SolveReport:
    oracle = SampleOracle(mdp, seed)
    name = solver["name"]
    eps, delta = float(solver["eps"]), float(solver["delta"])
    if name == "variance-reduced":
        params = VarianceReducedParams.for_mdp(mdp, eps, delta, **_given(solver, ("b", "c")))
        return variance_reduced_vi(oracle, params, cfg, diagnostics=diagnostics)
    if name == "max-finding":
        params = MaxFindingParams.for_mdp(mdp, eps, delta, **_given(solver, ("c_max",)))
        return max_finding_vi(oracle, params, cfg, diagnostics=diagnostics)
    return sampled_vi(oracle, eps, delta, cfg=cfg, diagnostics=diagnostics,
                      **_given(solver, ("mode",), cast=str))


def sandwich_success(mdp: Mdp, report: SolveReport, eps: float) -> bool:
    """Ground-truth success check against the exact solver.

    Monotone solvers: the full sandwich (value, and Q when reported).  The
    plain sampled baseline only claims |v_hat - v*| <= eps.  The optimum is
    computed once per instance (``Mdp.optimum``) and shared by every seed.
    """
    v_star, _, q_star = mdp.optimum
    if report.solver.startswith("sampled"):
        return bool(np.abs(report.v_hat - v_star).max() <= eps)
    v_pi = policy_value_exact(mdp, report.pi_hat)
    ok = _sandwiched(v_star, report.v_hat, v_pi, eps)
    if report.q_hat is not None:
        q_pi = mdp.rewards + mdp.discount * expected_next_value(mdp, v_pi)
        ok = _sandwiched(q_star, report.q_hat, q_pi, eps) and ok
    return ok


def _sandwiched(star, hat, exact, eps: float) -> bool:
    """star - eps <= hat <= exact <= star everywhere, to rounding."""
    return (bool(np.all(star - eps <= hat + 1e-9)) and bool(np.all(hat <= exact + 1e-9))
            and bool(np.all(exact <= star + 1e-8)))


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def _report_doc(config: dict, report: SolveReport, provenance: dict | None) -> dict:
    doc = report.to_dict()
    doc["config"] = config
    if provenance:
        doc["instance_provenance"] = provenance
    # the one nondeterministic field; determinism tests exclude it
    doc["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return doc


def _write_snapshots_csv(report: SolveReport, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["epoch", "iteration", "state", "v", "pi"])
        for epoch, it, v, pi in report.snapshots:
            for s in range(len(v)):
                writer.writerow([epoch, it, s, repr(float(v[s])), int(pi[s])])


def cmd_solve(args) -> int:
    config = load_config(args.config)
    mdp, provenance = build_instance(config["instance"], source=args.config)
    cfg = estimator_config(config.get("estimator"))
    diagnostics = config.get("diagnostics", False) or bool(config.get("snapshots_csv"))
    report = run_solver(mdp, config["solver"], cfg, int(config["seed"]), diagnostics)
    csv_path = config.get("snapshots_csv")
    if csv_path:  # first, so that a bad path leaves no report
        _write_snapshots_csv(report, csv_path)
    try:
        _write_json(_report_doc(config, report, provenance), args.out)
    except OSError:
        if csv_path:  # and a bad --out leaves no CSV
            os.remove(csv_path)
        raise
    print(f"wrote {args.out}: solver={report.solver} "
          f"quantum={report.ledger.quantum_oracle_calls} "
          f"classical={report.ledger.classical_samples}")
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def fit_power_law(xs, ys) -> tuple[float, float]:
    """Least-squares slope and R^2 of log(y) against log(x)."""
    lx, ly = np.log(np.asarray(xs, dtype=float)), np.log(np.asarray(ys, dtype=float))
    if lx.size < 3:
        raise PreconditionError("power-law fit needs at least 3 points")
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), r_squared


def _apply_axis(config: dict, axis: str, value: float) -> dict:
    doc = json.loads(json.dumps(config))  # deep copy
    if axis == "eps":
        doc["solver"]["eps"] = value
        return doc
    instance = doc["instance"]
    if "hard_instance" in instance:
        block = instance["hard_instance"]
    elif "two_state" in instance and axis == "gamma":
        block = instance["two_state"]
    else:
        raise ConfigError(f"axis {axis!r} requires a generated instance block")
    block[axis] = int(value) if axis in INTEGER_AXES else value
    return doc


def run_sweep(config: dict, axis: str, values, seeds: int):
    """Run the configured solver across an axis; returns (rows, fit_doc).

    Rows are (axis_value, seed, classical_samples, quantum_oracle_calls,
    success); the fit is on the per-point median of total queries, against
    the axis's variable in ``_SWEEP_FIT``.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"sweep axis must be one of {SWEEP_AXES}, got {axis!r}")
    values = list(values)
    if len(values) < 3:
        raise PreconditionError("sweep needs at least 3 axis values")
    if seeds < 1:
        raise PreconditionError("sweep needs at least 1 seed per point")
    cfg = estimator_config(config.get("estimator"))
    base_seed = int(config["seed"])
    x_variable, x_of = _SWEEP_FIT[axis]
    rows, points = [], []
    for value in values:
        doc = _apply_axis(config, axis, value)
        mdp, _ = build_instance(doc["instance"])
        totals = []
        for i in range(seeds):
            seed = base_seed + i
            report = run_solver(mdp, doc["solver"], cfg, seed)
            success = sandwich_success(mdp, report, float(doc["solver"]["eps"]))
            rows.append((value, seed, report.ledger.classical_samples,
                         report.ledger.quantum_oracle_calls, int(success)))
            totals.append(report.ledger.total)
        points.append((x_of(value), float(np.median(totals))))
    slope, r_squared = fit_power_law([p[0] for p in points], [p[1] for p in points])
    return rows, {
        "axis": axis,
        "x_variable": x_variable,
        "points": [[x, med] for x, med in points],
        "slope": slope,
        "r_squared": r_squared,
    }


def _parse_values(text: str, axis: str) -> list[float]:
    """The finite numbers of a comma-separated --values list (blank entries
    skipped), integers on the num_actions and copies axes."""
    values = []
    for i, entry in enumerate(text.split(",")):
        if not entry.strip():
            continue
        try:
            value = float(entry)
        except ValueError:
            raise ConfigError(f"--values[{i}] = {entry.strip()!r} is not a number") from None
        if not math.isfinite(value):
            raise ConfigError(f"--values[{i}] = {value!r} is not finite")
        if axis in INTEGER_AXES and not value.is_integer():
            raise ConfigError(f"--values[{i}] = {value!r} is not an integer for axis {axis}")
        values.append(value)
    return values


def cmd_sweep(args) -> int:
    config = load_config(args.config)
    values = _parse_values(args.values, args.axis)
    rows, fit = run_sweep(config, args.axis, values, args.seeds)
    with open(args.out_csv, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["axis_value", "seed", "classical_samples",
                         "quantum_oracle_calls", "success"])
        writer.writerows(rows)
    _write_json(fit, args.out_fit)
    print(f"wrote {args.out_csv} ({len(rows)} rows) and {args.out_fit}: "
          f"slope={fit['slope']:.4f} r2={fit['r_squared']:.4f}")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _random_mdp(rng: np.random.Generator, max_states: int = 8, max_actions: int = 8,
                gammas=(0.9, 0.95, 0.99)) -> Mdp:
    s = int(rng.integers(1, max_states + 1))
    a = int(rng.integers(1, max_actions + 1))
    transitions = rng.dirichlet(np.ones(s), size=(s, a))
    rewards = rng.random((s, a))
    return Mdp(transitions=transitions, rewards=rewards,
               discount=float(gammas[rng.integers(len(gammas))]))


def _random_suite(tag: str, check, max_states: int = 8, max_actions: int = 8):
    """A suite of ``check(mdp, rng)`` on a random MDP from stream (seed, tag, trial)."""
    def suite(trials: int, seed: int):
        passed = 0
        for i in range(trials):
            rng = derived_rng(seed, tag, i)
            passed += bool(check(_random_mdp(rng, max_states, max_actions), rng))
        return passed, trials
    return suite


def _total_variance_bounded(mdp: Mdp, rng) -> bool:
    pi = rng.integers(mdp.num_actions, size=mdp.num_states)
    return total_variance_norm(mdp, pi) <= math.sqrt(2.0) * mdp.effective_horizon**1.5


def _oracle_normalized(mdp: Mdp, rng) -> bool:
    dyadic = quantize_mdp(mdp, m=10)
    states = range(mdp.num_states)
    return all(sum(dyadic.probability_exact(s, a, t) for t in states) == 1
               for s in states for a in range(mdp.num_actions))


def _contracts(mdp: Mdp, rng) -> bool:
    pi = rng.integers(mdp.num_actions, size=mdp.num_states)
    u = rng.uniform(0, mdp.effective_horizon, mdp.num_states)
    w = rng.uniform(0, mdp.effective_horizon, mdp.num_states)
    lhs = np.abs(policy_backup(mdp, pi, u) - policy_backup(mdp, pi, w)).max()
    ok = lhs <= mdp.discount * np.abs(u - w).max() + 1e-12
    lo = np.minimum(u, w)
    ok &= bool(np.all(policy_backup(mdp, pi, lo) <= policy_backup(mdp, pi, u) + 1e-12))
    ok &= bool(np.all(bellman_backup(mdp, lo) <= bellman_backup(mdp, u) + 1e-12))
    return ok


def _arm_solves(trials: int, seed: int, names):
    """(mdp, report) per trial i (seed + i) and named solver on one hard instance."""
    spec = HardInstanceSpec(gamma=0.9, num_actions=4, eps=1.0, large_arms=frozenset({1}))
    mdp = multi_arm_instance(spec)
    for i in range(trials):
        for name in names:
            solver = {"name": name, "eps": 1.0, "delta": 0.1}
            yield mdp, run_solver(mdp, solver, EstimatorConfig(), seed + i)


def _suite_monotone(trials: int, seed: int):
    reports = _arm_solves(trials, seed, ("variance-reduced",))
    return sum(bool(report.monotone_iterates_ok) for _, report in reports), trials


def _suite_sandwich(trials: int, seed: int):
    solves = _arm_solves(trials, seed, ("variance-reduced", "max-finding"))
    return sum(sandwich_success(mdp, report, 1.0) for mdp, report in solves), 2 * trials


def _suite_gap(trials: int, seed: int):
    checks = [value_gap(gamma, eps) >= 2.0 * eps for gamma in (0.9, 0.95, 0.99)
              for eps in (0.1, 0.5, 1.0) if eps < 1.0 / (1.0 - gamma) / DEFAULT_GAP_CONSTANT]
    return sum(checks), len(checks)


# suite -> (its function, default trials, fraction of checks that must pass);
# every function returns (passed, total)
_SUITES = {
    "total-variance": (_random_suite("tv", _total_variance_bounded), 1000, 1.0),
    "oracle-normalization": (_random_suite("oracle", _oracle_normalized, 6, 4), 100, 1.0),
    "monotone-iterates": (_suite_monotone, 50, 1.0),
    # probabilistic guarantee: pass at the 1-delta rate, not at 100%
    "sandwich": (_suite_sandwich, 100, 0.9),
    "gap": (_suite_gap, 1, 1.0),
    "contraction": (_random_suite("contract", _contracts, 6, 4), 500, 1.0),
}
SUITES = tuple(_SUITES)


def run_suite(suite: str, trials: int | None = None, seed: int = 0):
    """Run a named suite; returns (passed, total, suite_ok)."""
    if suite not in _SUITES:
        raise ConfigError(f"unknown suite {suite!r}; choose from {SUITES}")
    if trials is not None and trials < 0:
        raise ConfigError(f"--trials must be at least 0, got {trials}")
    impl, default_trials, pass_fraction = _SUITES[suite]
    passed, total = impl(default_trials if trials is None else trials, seed)
    return passed, total, passed >= math.floor(pass_fraction * total)


def cmd_verify(args) -> int:
    passed, total, ok = run_suite(args.suite, args.trials, args.seed)
    print(f"suite {args.suite}: {passed}/{total} pass")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# oracle-build
# ---------------------------------------------------------------------------


def cmd_oracle_build(args) -> int:
    mdp = load_mdp_json(args.mdp)
    dyadic = quantize_mdp(mdp, m=args.m)  # DyadicMdp validates exactness
    _write_json(dyadic.to_dict(), args.out)
    print(f"wrote {args.out}: m={args.m} max_distortion={dyadic.max_distortion:.3e}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qmdp",
                                     description="sampled-MDP solver harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one solver from a config")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--out", required=True)
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = sub.add_parser("sweep", help="sweep a parameter axis")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p_sweep.add_argument("--values", required=True, help="comma-separated axis values")
    p_sweep.add_argument("--seeds", type=int, default=20,
                         help="seeds per point (20 or more for stable medians)")
    p_sweep.add_argument("--out-csv", required=True)
    p_sweep.add_argument("--out-fit", required=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run a named invariant suite")
    p_verify.add_argument("--suite", required=True)
    p_verify.add_argument("--trials", type=int, default=None)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=cmd_verify)

    p_oracle = sub.add_parser("oracle-build", help="quantize an MDP to dyadic form")
    p_oracle.add_argument("--mdp", required=True)
    p_oracle.add_argument("--m", type=int, default=20)
    p_oracle.add_argument("--out", required=True)
    p_oracle.set_defaults(func=cmd_oracle_build)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, PreconditionError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QmdpError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
