"""Time the solves of the benchmark's ``hard-sweep`` round shape, slot by slot, in one process.

Solves through the ``qmdp`` API alone: on the hard instance (gamma 0.9, 8 actions, eps 0.5, its
large arm picked from the seed), one ``variance-reduced``, one ``max-finding`` and one ``sampled``
``classical`` solve at each eps in ``EPS``, delta 0.1, on the contract mock: 12 slots a round,
round r on solve seed ``seed * 1_000_003 + r + 1``.  Prints the median milliseconds per solve of
each slot over ``ROUNDS`` rounds and how often a slot's step reused its previous step's
expectation over as many rounds (memo hits: a step whose key, the line's upper bound, the
promise slack and the value map's bytes, was its previous step's).  Then, per solver, in how
many rounds its solves took less time in this checkout than in the other, and each checkout's
Philox passes per solve: its ``rng._philox_words`` calls, counted by wrapping the function
over one solve of each slot.

``--against <checkout>/src`` loads that checkout's whole ``qmdp`` package beside this one, as
``qmdp_against``, checks that every solve reports the same bytes in both, and alternates the two
in this one process, so that both are timed on the same solves under the same load:

    PYTHONPATH=src python tools/time_slots.py --seed 7801 --against ../parent/src
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import pathlib
import statistics
import sys
import time

import numpy as np

import qmdp
import qmdp.cli  # noqa: F401  (qmdp.cli and qmdp.estimators, as the other package loads them)
import qmdp.solvers as solvers

SOLVERS = ({"name": "variance-reduced"}, {"name": "max-finding"},
           {"name": "sampled", "mode": "classical"})
EPS = (1.0, 0.6, 0.4, 0.3)
DELTA = 0.1
ROUNDS = 30  # timed rounds of 12 solves


def load_package(src: str):
    """The qmdp package of another checkout's source directory, loaded as qmdp_against."""
    root = pathlib.Path(src) / "qmdp"
    spec = importlib.util.spec_from_file_location("qmdp_against", root / "__init__.py",
                                                  submodule_search_locations=[str(root)])
    package = importlib.util.module_from_spec(spec)
    sys.modules["qmdp_against"] = package
    spec.loader.exec_module(package)
    importlib.import_module("qmdp_against.cli")
    return package


def slots(package, seed: int) -> list:
    """(name, mdp, solver) per slot of a round, the instance built by ``package``."""
    large_arm = int(np.random.default_rng([seed, 8]).integers(8))
    mdp = package.cli.build_instance({"hard_instance": {"gamma": 0.9, "num_actions": 8, "eps": 0.5,
                                                        "large_arms": [large_arm]}})[0]
    return [(f"{s.get('mode', s['name'])} eps={eps}", mdp, dict(s, eps=eps, delta=DELTA))
            for s in SOLVERS for eps in EPS]


def solve(package, mdp, solver: dict, solve_seed: int):
    return package.cli.run_solver(mdp, solver, package.estimators.EstimatorConfig(), solve_seed)


def digest(report) -> str:
    return hashlib.sha256(json.dumps(report.to_dict(), sort_keys=True).encode()).hexdigest()


def memo_hits(seed: int) -> list:
    """Per slot, the steps that reused the expectation, over ROUNDS rounds of this package."""
    hits, real = [0], solvers._Iterate.estimate

    def counted(self, stream, *args, **kwargs):
        mu = self._mu
        est = real(self, stream, *args, **kwargs)
        hits[0] += self._mu is mu  # a new key computes a new expectation
        return est

    out = []
    solvers._Iterate.estimate = counted
    try:
        for _, mdp, solver in slots(qmdp, seed):
            hits[0] = 0
            for rnd in range(ROUNDS):
                solve(qmdp, mdp, solver, seed * 1_000_003 + rnd + 1)
            out.append(hits[0])
    finally:
        solvers._Iterate.estimate = real
    return out


def philox_passes(package, seed: int) -> list:
    """Per slot, the ``rng._philox_words`` calls (Philox passes) of one solve of ``package``."""
    calls, real = [0], package.rng._philox_words

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    out = []
    package.rng._philox_words = counted
    try:
        for _, mdp, solver in slots(package, seed):
            calls[0] = 0
            solve(package, mdp, solver, seed * 1_000_003)
            out.append(calls[0])
    finally:
        package.rng._philox_words = real
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=7801, help="workload seed of the solves")
    ap.add_argument("--against", help="another checkout's src directory, timed beside this one")
    args = ap.parse_args(argv)
    packages = {"this": qmdp} | ({"against": load_package(args.against)} if args.against else {})
    plans = {name: slots(package, args.seed) for name, package in packages.items()}
    names = [name for name, _, _ in plans["this"]]
    ms = {name: [[] for _ in names] for name in packages}
    for rnd in range(-1, ROUNDS):  # round -1 warms both up and is not timed
        order = list(packages) if rnd % 2 else list(reversed(packages))  # alternated
        for i in range(len(names)):
            reports = {}
            for name in order:
                _, mdp, solver = plans[name][i]
                start = time.perf_counter()
                reports[name] = solve(packages[name], mdp, solver, args.seed * 1_000_003 + rnd + 1)
                if rnd >= 0:
                    ms[name][i].append((time.perf_counter() - start) * 1e3)
            if len({digest(r) for r in reports.values()}) > 1:
                raise SystemExit(f"{names[i]}, round {rnd}: the reports differ")
    hits = memo_hits(args.seed)
    passes = {name: philox_passes(package, args.seed) for name, package in packages.items()}
    print(f"{len(names)} slots x {ROUNDS} rounds, seed {args.seed}: "
          f"{'all reports equal' if args.against else 'one checkout'}")
    print(f"{'slot':<26}" + "".join(f"{name + ' ms':>12}" for name in packages)
          + ("  this/against" if args.against else "") + f"{'memo hits':>11}")
    for i, name in enumerate(names):
        med = {p: statistics.median(ms[p][i]) for p in packages}
        ratio = f"{med['this'] / med['against']:>14.3f}" if args.against else ""
        print(f"{name:<26}" + "".join(f"{med[p]:>12.3f}" for p in packages) + ratio
              + f"{hits[i]:>11}")
    for s in SOLVERS:  # each solver's slots summed: ms per solve over a round's eps
        label = s.get("mode", s["name"])
        rows = [i for i, name in enumerate(names) if name.startswith(label + " ")]
        med = {p: sum(statistics.median(ms[p][i]) for i in rows) / len(rows) for p in packages}
        ratio = f"{med['this'] / med['against']:>14.3f}" if args.against else ""
        print(f"{label + ' mean':<26}" + "".join(f"{med[p]:>12.3f}" for p in packages) + ratio
              + f"{sum(hits[i] for i in rows):>11}")
    print(f"{'solver':<26}" + (f"{'this wins':>12}" if args.against else "")
          + "".join(f"{name + ' passes':>16}" for name in packages))
    for s in SOLVERS:  # rounds whose solves of this solver took less time here; passes per solve
        label = s.get("mode", s["name"])
        rows = [i for i, name in enumerate(names) if name.startswith(label + " ")]
        wins = ""
        if args.against:
            won = sum(sum(ms["this"][i][r] for i in rows) < sum(ms["against"][i][r] for i in rows)
                      for r in range(ROUNDS))
            wins = f"{f'{won}/{ROUNDS}':>12}"
        print(f"{label:<26}" + wins + "".join(
            f"{sum(passes[p][i] for i in rows) / len(rows):>16.2f}" for p in packages))
    return 0


if __name__ == "__main__":
    sys.exit(main())
