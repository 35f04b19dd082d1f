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
from functools import partial
from types import SimpleNamespace

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
    _frozen,
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
from .rng import key_digests, keyed_rng
from .solvers import (
    SAMPLED_MODES,
    MaxFindingParams,
    Plan,
    SampledParams,
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

# solver name -> (its params class, the other block entries its for_mdp takes, with
# their _SCHEMA kinds, the solver's name here: looked up at each solve, wrappers included)
_SOLVERS = {
    "variance-reduced": (VarianceReducedParams, {"b": "finite", "c": "finite"}, "variance_reduced_vi"),
    "max-finding": (MaxFindingParams, {"c_max": "finite"}, "max_finding_vi"),
    "sampled": (SampledParams, {"mode": SAMPLED_MODES}, "sampled_vi"),
}
SOLVER_NAMES = tuple(_SOLVERS)
_EXACTLY_ONE = "exactly one"
# each config block by path: (its entries' kinds, the entries it must give, or
# _EXACTLY_ONE); a tuple kind lists the values an entry may take. MDP documents
# stay open, as oracle-build output carries more; EstimatorConfig checks the
# estimator's ranges (finiteness included) and its phase_bits
_SCHEMA = {
    "": ({"instance": "object", "solver": "object", "estimator": "object", "seed": "integer",
          "diagnostics": "boolean", "snapshots_csv": "string"}, ("instance", "solver", "seed")),
    "instance.": ({"path": "string", "mdp": "object", "two_state": "object",
                   "hard_instance": "object"}, _EXACTLY_ONE),
    "instance.two_state.": ({"gamma": "finite", "p": "finite"}, ("gamma", "p")),
    "instance.hard_instance.": ({"gamma": "finite", "num_actions": "integer", "eps": "finite",
                                 "c_alpha": "finite", "copies": "integer",
                                 "large_arms": "integers"}, ("gamma", "num_actions", "eps")),
    "solver.": ({"name": SOLVER_NAMES, "eps": "finite", "delta": "finite",
                 **{k: v for _, entries, _ in _SOLVERS.values() for k, v in entries.items()}},
                ("name", "eps", "delta")),
    "estimator.": ({"c1": "number", "c2": "number", "adversarial_scale": "number",
                    "mock_failure_mode": "string", "backend": "string", "phase_bits": "any"}, ()),
}
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


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_integer(value) or isinstance(value, (float, np.floating))


# kind -> (what an entry of that kind must be, its test); JSON booleans are
# not numbers here, and a "finite" number is not JSON's NaN or Infinity
_KINDS = {
    "number": ("a number", _is_number),
    "finite": ("a number", _is_number),
    "integer": ("an integer", _is_integer),
    "integers": ("a list of integers", lambda v: isinstance(v, list) and all(map(_is_integer, v))),
    "string": ("a string", lambda v: isinstance(v, str)),
    "boolean": ("a boolean", lambda v: isinstance(v, bool)),
    "object": ("an object", lambda v: isinstance(v, dict)),
    "any": (None, lambda v: True),
}


def _check_block(block: dict, path: str, source: str) -> None:
    """Raise ConfigError, as ``<source>: <path><entry> ...``, at an entry of
    the block at ``path`` that _SCHEMA does not list, a required one left
    out, or one of the wrong kind; then check the blocks it holds."""
    kinds, required = _SCHEMA[path]
    where = f"{source}: {path}"
    for key in block:
        if key not in kinds:
            raise ConfigError(f"{where}{key} is not a known entry; expected one of {tuple(kinds)}")
    if required == _EXACTLY_ONE:
        if len(block) != 1:
            raise ConfigError(f"{where[:-1]} must name exactly one source of {tuple(kinds)}, "
                              f"found {list(block)}")
        required = ()
    for key in required:
        if key not in block:
            raise ConfigError(f"{where}{key} is required")
    for key, value in block.items():
        kind = kinds[key]
        what, test = _KINDS.get(kind) or (f"one of {kind}", kind.__contains__)
        if not test(value):
            raise ConfigError(f"{where}{key} must be {what}, got {value!r}")
        if kind == "finite" and not math.isfinite(value):
            raise ConfigError(f"{where}{key} must be finite, got {value!r}")
        if f"{path}{key}." in _SCHEMA:
            _check_block(value, f"{path}{key}.", source)


def load_config(path) -> dict:
    doc = _read_json(path)
    validate_config(doc, source=str(path))
    return doc


def validate_config(doc: dict, source: str = "<config>") -> None:
    """_SCHEMA's check of every block."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{source}: config must be a JSON object")
    _check_block(doc, "", source)


def _instance_plan(instance: dict, source: str):
    """Check an instance block, a generator's ranges included (as
    PreconditionErrors naming the entry), and return (build, provenance,
    shape): ``build()`` makes the MDP, provenance describes a generated one,
    and shape, a generated one's (num_states, num_actions, discount,
    effective_horizon), is all a solve's plan reads of it."""
    _check_block(instance, "instance.", source)
    (name, block), = instance.items()
    if name == "path":
        return partial(load_mdp_json, block), None, None
    if name == "mdp":
        return partial(mdp_from_dict, block, source=f"{source}:instance.mdp"), None, None
    try:
        if name == "two_state":
            mdp = two_state_chain(block["gamma"], block["p"])  # two states: built to check
            return (lambda: mdp), {"two_state": block}, mdp
        spec = HardInstanceSpec(**block)
    except PreconditionError as exc:
        raise PreconditionError(f"{source}: instance.{name}.{exc}") from exc
    gamma = float(spec.gamma)  # as the built Mdp holds it
    shape = SimpleNamespace(num_states=2 * spec.copies, num_actions=spec.num_actions,
                            discount=gamma, effective_horizon=1.0 / (1.0 - gamma))
    return partial(tiled_instance, spec), {"hard_instance": spec.provenance()}, shape


def build_instance(instance: dict, source: str = "<config>") -> tuple[Mdp, dict | None]:
    """Materialize the MDP named by an instance block; returns provenance for
    generated instances.  Missing or mistyped entries raise ConfigError, and
    a generator's range errors are PreconditionErrors naming the entry."""
    build, provenance, _ = _instance_plan(instance, source)
    return build(), provenance


def estimator_config(doc: dict | None, source: str = "<config>") -> EstimatorConfig:
    try:
        return EstimatorConfig(**(doc or {}))
    except PreconditionError as exc:
        raise PreconditionError(f"{source}: estimator: {exc}") from exc


def _solver_call(mdp: Mdp, solver: dict, cfg: EstimatorConfig, source: str = "<config>"):
    """A solver block's solve, ``solve(oracle, diagnostics=False)``, on one
    plan for mdp (or its shape) built before any draw: a range error reads
    ``<source>: solver.<entry> ...`` and a refusal of the schedule ``<source>:
    solver: ...``.  Entries the block leaves out take the library's defaults, and
    another solver's entries are refused."""
    params_class, entries, solve = _SOLVERS[solver["name"]]
    if other := [key for key in solver if key not in entries and key not in ("name", "eps", "delta")]:
        raise ConfigError(f"{source}: solver.{other[0]} is not an entry of {solver['name']}; "
                          f"expected one of {tuple(entries)}")
    given = {key: float(solver[key]) if kind == "finite" else solver[key]
             for key, kind in entries.items() if key in solver}
    try:
        params = params_class.for_mdp(mdp, float(solver["eps"]), float(solver["delta"]), **given)
    except PreconditionError as exc:
        raise PreconditionError(f"{source}: solver.{exc}") from exc
    try:
        plan = Plan.of(mdp, params, cfg)
    except PreconditionError as exc:
        raise PreconditionError(f"{source}: solver: {exc}") from exc
    return lambda oracle, diagnostics=False: globals()[solve](
        oracle, plan, diagnostics=diagnostics)


def run_solver(mdp: Mdp, solver: dict, cfg: EstimatorConfig, seed: int,
               diagnostics: bool = False) -> SolveReport:
    return _solver_call(mdp, solver, cfg)(SampleOracle(mdp, seed), diagnostics=diagnostics)


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
    cfg = estimator_config(config.get("estimator"), args.config)
    diagnostics = config.get("diagnostics", False) or bool(config.get("snapshots_csv"))
    solve = _solver_call(mdp, config["solver"], cfg, args.config)  # a refusal names the file
    report = solve(SampleOracle(mdp, int(config["seed"])), diagnostics)
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


def _apply_axis(config: dict, axis: str, value: float, source: str = "<config>") -> dict:
    """A copy of a checked config with the axis set in the solver block, when
    _SCHEMA lists it there, or else in the config's one instance block."""
    doc = json.loads(json.dumps(config))  # deep copy
    (name, block), = doc["instance"].items()
    if axis in _SCHEMA["solver."][0]:
        block = doc["solver"]
    elif axis not in _SCHEMA.get(f"instance.{name}.", ({},))[0]:
        raise ConfigError(f"{source}: instance.{name} has no entry {axis!r} to sweep")
    block[axis] = int(value) if axis in INTEGER_AXES else value
    return doc


def run_sweep(config: dict, axis: str, values, seeds: int, source: str = "<config>"):
    """Run the configured solver across an axis; returns (rows, fit_doc).

    Rows are (axis_value, seed, classical_samples, quantum_oracle_calls,
    success); the fit is on the per-point median of total queries, against
    the axis's variable in ``_SWEEP_FIT``.  Every point is planned before
    the first solve: its config and instance ranges checked, and its solver
    plan built once, on a generated instance's shape, for all of its seeds.
    A point builds its MDP only when its instance block differs from the
    previous point's.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"sweep axis must be one of {SWEEP_AXES}, got {axis!r}")
    values = list(values)
    if len(values) < 3:
        raise PreconditionError("sweep needs at least 3 axis values")
    if seeds < 1:
        raise PreconditionError("sweep needs at least 1 seed per point")
    validate_config(config, source)
    docs = [_apply_axis(config, axis, value, source) for value in values]
    cfg = estimator_config(config.get("estimator"), source)
    plans, instance, mdp = [], None, None
    for doc in docs:
        validate_config(doc, source)
        build, _, shape = _instance_plan(doc["instance"], source)
        if shape is None and doc["instance"] != instance:  # read once: no axis changes it
            instance, mdp = doc["instance"], build()
        plans.append((build, _solver_call(shape or mdp, doc["solver"], cfg, source)))
    base_seed = int(config["seed"])
    x_variable, x_of = _SWEEP_FIT[axis]
    rows, points = [], []
    for value, doc, (build, solve) in zip(values, docs, plans):
        if doc["instance"] != instance:
            instance, mdp = doc["instance"], None  # one MDP alive at a time
            mdp = build()
        totals = []
        for i in range(seeds):
            seed = base_seed + i
            report = solve(SampleOracle(mdp, seed))
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
    rows, fit = run_sweep(config, args.axis, values, args.seeds, args.config)
    with open(args.out_csv, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["axis_value", "seed", "classical_samples",
                         "quantum_oracle_calls", "success"])
        writer.writerows(rows)
    try:
        _write_json(fit, args.out_fit)
    except OSError:  # a bad --out-fit leaves no CSV
        os.remove(args.out_csv)
        raise
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
    return Mdp(transitions=_frozen(transitions), rewards=_frozen(rewards),
               discount=float(gammas[rng.integers(len(gammas))]))


def _random_suite(tag: str, check, max_states: int = 8, max_actions: int = 8):
    """A suite of ``check(mdp, rng)`` on a random MDP from stream (seed, tag, trial)."""
    def suite(trials: int, seed: int):
        rngs = map(keyed_rng, key_digests((seed, tag, range(trials))))
        return sum(bool(check(_random_mdp(rng, max_states, max_actions), rng))
                   for rng in rngs), trials
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
    _write_json(dyadic.to_dict(), args.out, default=np.ndarray.tolist)
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
    except (ConfigError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # on a file the command names, else internal
        if exc.filename is not None:
            print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
            return 2
        traceback.print_exc()
        return 3
    except QmdpError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
