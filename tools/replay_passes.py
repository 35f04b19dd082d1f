"""Capture the statevector median draws of seeded solves and replay them, timed.

Solves the shape of the benchmark's ``statevector`` rounds through the ``qmdp`` API alone: on
the hard instance (gamma 0.9, 8 actions, eps 1.0, its large arm picked from the seed), one
``variance-reduced``, one ``max-finding`` and one ``sampled`` ``quantum_mean`` solve in each of
``ROUNDS`` rounds at eps 1.0 and delta 0.1, round r on solve seed ``seed * 1_000_003 + r + 1``.
Every ``qsim._estimate_draws(a, t, w)`` call the solves make is recorded with what it returned.

The replay calls ``_estimate_draws`` again on each recorded input, checks that it returns the
same bytes, and prints the fastest of ``REPLAYS`` replays in microseconds per call, with the
number of amplitudes whose pass built their whole run after its first table (full-run
rebuilds).  ``--against <checkout>/src`` loads that checkout's whole ``qmdp`` package beside
this one, as ``qmdp_against`` (with ``time_slots.load_package``), checks that its ``qsim`` draws
the same bytes, and alternates the two replays in this one process, so that both are timed on
the same calls under the same load:

    PYTHONPATH=src python tools/replay_passes.py --seed 7801 --against ../parent/src
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

import qmdp.qsim as qsim
from qmdp.cli import build_instance, run_solver
from qmdp.estimators import EstimatorConfig
from time_slots import load_package

SOLVERS = ({"name": "variance-reduced"}, {"name": "max-finding"},
           {"name": "sampled", "mode": "quantum_mean"})
ROUNDS = 4  # rounds of three solves captured
REPLAYS = 9  # timed replays of the captured calls; the fastest is printed


def capture(seed: int) -> list:
    """(a, t, w, draws) of every _estimate_draws call of ROUNDS rounds of solves."""
    large_arm = int(np.random.default_rng([seed, 8]).integers(8))
    mdp = build_instance({"hard_instance": {"gamma": 0.9, "num_actions": 8, "eps": 1.0,
                                            "large_arms": [large_arm]}})[0]
    calls, real = [], qsim._estimate_draws

    def record(a, t, w):
        out = real(a, t, w)
        calls.append((a.copy(), t, w.copy(), out.copy()))
        return out

    qsim._estimate_draws = record
    try:
        for rnd in range(ROUNDS):
            for solver in SOLVERS:
                run_solver(mdp, dict(solver, eps=1.0, delta=0.1),
                           EstimatorConfig(backend="statevector"), seed * 1_000_003 + rnd + 1)
    finally:
        qsim._estimate_draws = real
    return calls


def rebuilt_amplitudes(calls: list) -> int:
    """Amplitudes whose pass built them a longer row after its first table, over one replay."""
    passes, real_draws, real_cdf = [], qsim._closed_form_draws, qsim._closed_cdf

    def draws(omega, t, w, size):
        if len(omega) <= qsim._GROUPS:  # a larger call is split into passes that come back here
            passes.append([])
        return real_draws(omega, t, w, size)

    def cdf(m, c, scale, r0, em_r0, n):
        passes[-1].append(n)
        return real_cdf(m, c, scale, r0, em_r0, n)

    qsim._closed_form_draws, qsim._closed_cdf = draws, cdf
    try:
        for a, t, w, _ in calls:
            qsim._estimate_draws(a, t, w)
    finally:
        qsim._closed_form_draws, qsim._closed_cdf = real_draws, real_cdf
    # a pass with a point mass hands the others to a pass of their own, and builds nothing itself
    return sum(sum(x != y for x, y in zip(built[0], built[-1])) for built in passes if built)


def check(module, calls: list, name: str) -> None:
    for i, (a, t, w, want) in enumerate(calls):
        if module._estimate_draws(a, t, w).tobytes() != want.tobytes():
            raise SystemExit(f"{name}: call {i} (t = {t}, {a.size} entries) drew other estimates")


def replay(module, calls: list) -> float:
    start = time.perf_counter()
    for a, t, w, _ in calls:
        module._estimate_draws(a, t, w)
    return time.perf_counter() - start


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=7801, help="workload seed of the solves")
    ap.add_argument("--against", help="another checkout's src directory, timed beside this one")
    args = ap.parse_args(argv)
    calls = capture(args.seed)
    modules = {"this": qsim} | ({"against": load_package(args.against).qsim} if args.against else {})
    for name, module in modules.items():
        check(module, calls, name)
    best = dict.fromkeys(modules, float("inf"))
    for _ in range(REPLAYS):  # alternated, so that both see the same load
        for name, module in modules.items():
            best[name] = min(best[name], replay(module, calls))
    print(f"{len(calls)} calls, {sum(a.size for a, _, _, _ in calls)} estimates, t in "
          f"{sorted({t for _, t, _, _ in calls})}: all draws equal")
    for name, seconds in best.items():
        print(f"{name}: {seconds / len(calls) * 1e6:.1f} us per call (fastest of {REPLAYS} replays)")
    if args.against:
        print(f"this / against: {best['this'] / best['against']:.3f}")
    print(f"full-run rebuilds: {rebuilt_amplitudes(calls)} amplitudes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
