"""The benchmark's workloads and the checks every solve must pass.

Each workload is a closed loop: one caller, and the next solve starts when
the previous one and its checks have returned.  Work is grouped in rounds
(one solve per solver and parameter point), so every solver is equally
represented.  A run does a fixed number of rounds, sized from its length in
seconds and the nominal time of one round, so the solves a run makes, their
ledger totals and the rank of every reported percentile repeat exactly for
a given seed and length.  Inputs are a pure function of the workload seed;
the program only ever sees the generated instances.  Round times are
bracketed by the host-speed kernel of hostspeed.py.

Program functions are looked up through their modules at call time
(``cli.run_solver``), so a traced run sees the wrapped versions.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import sys
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from qmdp import cli
from qmdp import mdp as mdp_mod
from qmdp.estimators import EstimatorConfig

import hostspeed
from catalog import DELTA
MOCK = EstimatorConfig()
STATEVECTOR = EstimatorConfig(backend="statevector")
MONOTONE_SOLVERS = ("variance-reduced", "max-finding")


@dataclass(frozen=True)
class Solve:
    instance: str
    solver: dict
    cfg: EstimatorConfig
    seed: int
    total_variance: bool = False  # follow with total_variance_norm(mdp, pi_hat)


@dataclass(frozen=True)
class Workload:
    instances: object  # seed -> {instance name: config block}
    plan: object  # (seed, round) -> tuple of Solve
    min_rounds: int  # floor for timed runs, so the median and tail rest on enough solves
    round_s: float  # nominal wall of one round on a 2-core x86 machine
    cli_check: Solve  # run twice through `qmdp solve`, on round 0's solve seed

    def rounds(self, seconds: float) -> int:
        return max(1, round(seconds / self.round_s))


def _solve_seed(seed: int, rnd: int) -> int:
    return seed * 1_000_003 + rnd + 1


def _hard_block(seed: int, eps: float) -> dict:
    large_arm = int(np.random.default_rng([seed, 8]).integers(8))
    return {"hard_instance": {"gamma": 0.9, "num_actions": 8, "eps": eps,
                              "large_arms": [large_arm]}}


# hard-sweep: the shape of `qmdp sweep` along eps and of the acceptance
# fixture; many tiny (S=2) solves whose time is per-call overhead.
SWEEP_EPS = (1.0, 0.6, 0.4, 0.3)
SWEEP_SOLVERS = ({"name": "variance-reduced"}, {"name": "max-finding"},
                 {"name": "sampled", "mode": "classical"})


def _sweep_plan(seed: int, rnd: int):
    s = _solve_seed(seed, rnd)
    return tuple(Solve("hard", dict(solver, eps=eps, delta=DELTA), MOCK, s)
                 for solver in SWEEP_SOLVERS for eps in SWEEP_EPS)


# dense-mock: few solves on a random dense MDP, where O(S^2 A) operator work
# and the (SA)^2 total-variance solve dominate.
DENSE_S, DENSE_A = 128, 16


def _dense_plan(seed: int, rnd: int):
    s = _solve_seed(seed, rnd)
    return tuple(Solve("dense", {"name": name, "eps": 0.5, "delta": DELTA}, MOCK, s,
                       total_variance=True)
                 for name in MONOTONE_SOLVERS)


# statevector: measured amplitude-estimation charges instead of formula
# charges; the only workload in which qsim does the work.
def _statevector_plan(seed: int, rnd: int):
    s = _solve_seed(seed, rnd)
    return tuple(Solve("hard", dict(solver, eps=1.0, delta=DELTA), STATEVECTOR, s)
                 for solver in ({"name": "variance-reduced"}, {"name": "max-finding"},
                                {"name": "sampled", "mode": "quantum_mean"}))


WORKLOADS = {
    "hard-sweep": Workload(
        lambda seed: {"hard": _hard_block(seed, 0.5)}, _sweep_plan,
        min_rounds=1, round_s=0.25,
        cli_check=Solve("hard", {"name": "variance-reduced", "eps": 0.3, "delta": DELTA},
                        MOCK, 0)),
    "dense-mock": Workload(
        lambda seed: {"dense": {"dense": {"S": DENSE_S, "A": DENSE_A, "gamma": 0.9,
                                          "seed": seed}}},
        _dense_plan, min_rounds=6, round_s=0.85,
        cli_check=Solve("dense", {"name": "variance-reduced", "eps": 0.5, "delta": DELTA},
                        MOCK, 0)),
    "statevector": Workload(
        lambda seed: {"hard": _hard_block(seed, 1.0)}, _statevector_plan,
        # a round takes about 2.4 s, so a run does at least 20 rounds
        # (about 48 s): the tail of 60 solves (p83) then falls near the
        # median variance-reduced solve, not on one of its fastest few
        min_rounds=20, round_s=2.4,
        cli_check=Solve("hard", {"name": "max-finding", "eps": 1.0, "delta": DELTA},
                        STATEVECTOR, 0)),
}


def _dense_mdp(doc: dict):
    rng = np.random.default_rng([doc["seed"], doc["S"], doc["A"]])
    s_n, a_n = doc["S"], doc["A"]
    return mdp_mod.Mdp(transitions=rng.dirichlet(np.ones(s_n), size=(s_n, a_n)),
                       rewards=rng.random((s_n, a_n)), discount=doc["gamma"])


def build_instances(wl: Workload, seed: int) -> dict:
    out = {}
    for name, block in wl.instances(seed).items():
        out[name] = _dense_mdp(block["dense"]) if "dense" in block else \
            cli.build_instance(block)[0]
    return out


def warmup_plan(wl: Workload, seed: int):
    """One solve per solver and backend, on seeds the timed rounds never use."""
    seen, out = set(), []
    for solve in wl.plan(seed, -1):
        key = (solve.solver["name"], solve.solver.get("mode"), solve.cfg.backend)
        if key not in seen:
            seen.add(key)
            out.append(solve)
    return out


@dataclass
class Outcome:
    seconds: float
    sandwich_ok: bool
    broken: list  # deterministic checks that failed, or the exception raised
    quantum: int = 0
    classical: int = 0
    digest: str | None = None


def checked_solve(mdp, solve: Solve, digest: bool = False) -> Outcome:
    """Solve, then run every check; a solve that raises is a failed solve."""
    start = perf_counter()
    try:
        report = cli.run_solver(mdp, solve.solver, solve.cfg, solve.seed)
        sandwich_ok = bool(cli.sandwich_success(mdp, report, float(solve.solver["eps"])))
        broken = []
        ledger = report.ledger
        if ledger.classical_samples + ledger.quantum_oracle_calls != sum(ledger.phases.values()):
            broken.append("ledger conservation")
        if report.solver in MONOTONE_SOLVERS and not (
                report.monotone_iterates_ok and report.greedy_dominance_ok):
            broken.append("monotone iterates / greedy dominance")
        if solve.total_variance:
            tv = mdp_mod.total_variance_norm(mdp, report.pi_hat)
            if not tv <= math.sqrt(2.0) * mdp.effective_horizon**1.5:
                broken.append(f"total variance norm {tv} above sqrt(2) horizon^1.5")
    except Exception as exc:  # counted as a failed solve, never skipped
        traceback.print_exc(file=sys.stderr)
        return Outcome(perf_counter() - start, False, [f"raised {exc!r}"])
    seconds = perf_counter() - start
    out = Outcome(seconds, sandwich_ok, broken, ledger.quantum_oracle_calls,
                  ledger.classical_samples)
    if digest:
        text = json.dumps(report.to_dict(), sort_keys=True)
        out.digest = hashlib.sha256(text.encode()).hexdigest()
    if broken:
        print(f"solve {solve} broke: {broken}", file=sys.stderr)
    return out


# The host-speed kernel is timed before a solve once this long has passed
# since it was last timed, and after the last solve: about once per round on
# hard-sweep, before every solve on dense-mock and statevector.
KERNEL_EVERY_S = 0.2


@dataclass
class Batch:
    outcomes: list
    solve_scales: list  # host-speed factor of each outcome (hostspeed.scales)
    rounds: int

    @property
    def wall(self) -> float:
        """Seconds spent in solves and their checks, kernel timings excluded."""
        return sum(o.seconds for o in self.outcomes)

    @property
    def scaled_wall(self) -> float:
        return sum(o.seconds * f for o, f in zip(self.outcomes, self.solve_scales))

    def scaled_round_rates(self) -> list:
        """Verified solves per scaled second, one entry per round."""
        per_round = len(self.outcomes) // self.rounds
        rates = []
        for i in range(0, len(self.outcomes), per_round):
            done = self.outcomes[i:i + per_round]
            scaled = sum(o.seconds * f for o, f in zip(done, self.solve_scales[i:i + per_round]))
            rates.append(sum(1 for o in done if not o.broken) / scaled)
        return rates


def run_rounds(wl: Workload, mdps: dict, seed: int, rounds: int,
               digest: bool = False) -> Batch:
    """Closed loop over rounds 0 .. rounds-1.  Each solve is scaled by the
    kernel timings just before and just after the stretch it falls in."""
    outcomes, stretch, kernel_s = [], [], [hostspeed.measure()]
    last_kernel = perf_counter()
    for rnd in range(rounds):
        for solve in wl.plan(seed, rnd):
            if perf_counter() - last_kernel >= KERNEL_EVERY_S:
                kernel_s.append(hostspeed.measure())
                last_kernel = perf_counter()
            stretch.append(len(kernel_s) - 1)
            outcomes.append(checked_solve(mdps[solve.instance], solve, digest))
    kernel_s.append(hostspeed.measure())
    scales = hostspeed.scales(kernel_s)
    return Batch(outcomes, [scales[i] for i in stretch], rounds)


_TIMESTAMP = re.compile(rb'\n *"timestamp": "[^"]*",?')


def cli_determinism(wl: Workload, seed: int, workdir: Path) -> bool:
    """Run one config twice through `qmdp solve`; the reports must match byte
    for byte once the timestamp line is dropped."""
    solve = wl.cli_check
    block = wl.instances(seed)[solve.instance]
    if "dense" in block:
        path = workdir / "dense_mdp.json"
        mdp_mod.save_mdp_json(_dense_mdp(block["dense"]), path)
        block = {"path": str(path)}
    config = {"instance": block, "solver": solve.solver, "estimator": solve.cfg.to_dict(),
              "seed": _solve_seed(seed, 0)}
    config_path = workdir / "cli_config.json"
    config_path.write_text(json.dumps(config))
    reports = []
    for i in range(2):
        out = workdir / f"cli_report_{i}.json"
        with redirect_stdout(sys.stderr):
            code = cli.main(["solve", "--config", str(config_path), "--out", str(out)])
        if code != 0:
            return False
        reports.append(_TIMESTAMP.sub(b"", out.read_bytes()))
    return reports[0] == reports[1] and b'"timestamp"' not in reports[0]
