"""Exact failure certificates for the statevector subroutines: the max-finding half.

``simulate_argmax`` misses, returning an item other than the top one, with the mass
that its law puts on ranks above 0.  ``plain_argmax_law`` computes that law exactly, with
no cut, so each max-finding budget c_max sqrt(n) log2(1/delta) is certified by checking
that this miss probability is at most the delta that the budget is sized for."""

import inspect
import math
import time

import pytest

from qmdp.cli import build_instance
from qmdp.qsim import DEFAULT_C_MAX, argmax_query_budget
from qmdp.solvers import MaxFindingParams
from test_golden import GOLDEN, SOLVE_PINS
from test_qsim import plain_argmax_law


def argmax_miss(n, delta, c_max):
    """The chance that simulate_argmax over n items at (delta, c_max) misses the top item."""
    budget = math.floor(argmax_query_budget(n, delta, c_max))
    if n == 1:
        return 0.0
    if budget < 1:  # a uniform guess
        return 1.0 - 1.0 / n
    return float(plain_argmax_law(n, budget)[1:].sum())


def _max_finding_lines():
    """(case, actions, f, c_max) of the argmax line of every max-finding golden and
    SOLVE_PINS schedule: the max findings that its statevector solve runs."""
    for name, instance, solver, *_ in GOLDEN:
        if solver["name"] == "max-finding":
            mdp, _ = build_instance(instance)
            params = MaxFindingParams.for_mdp(mdp, solver["eps"], solver["delta"],
                                              solver.get("c_max", DEFAULT_C_MAX))
            yield name, mdp.num_actions, params.est_failure_prob, params.c_max
    for name, (mdp, solve, *_) in SOLVE_PINS.items():
        plan = inspect.getclosurevars(solve).nonlocals.get("plan")
        if plan is not None and isinstance(plan.params, MaxFindingParams):
            yield name, mdp.num_actions, plan.params.est_failure_prob, plan.params.c_max


LINES = list(_max_finding_lines())


def test_every_pinned_max_finding_line_is_certified():
    assert len(LINES) == 9  # five golden schedules and four SOLVE_PINS ones
    for name, n, f, c_max in LINES:
        assert argmax_miss(n, f, c_max) <= f, name


def test_default_budget_is_certified_on_a_grid():
    # at c_max = 4 the worst miss / delta on this grid is 0.33, at n = 64 and delta = 0.5
    start, worst = time.perf_counter(), 0.0
    for n in (2, 3, 5, 8, 16, 33, 64):
        for delta in (0.5, 0.1, 1e-3, 1e-6, 1e-12):
            miss = argmax_miss(n, delta, DEFAULT_C_MAX)
            assert miss <= delta, (n, delta, miss)
            worst = max(worst, miss / delta)
    assert worst > 0.1  # the certificate is not vacuous
    assert time.perf_counter() - start < 3.0


@pytest.mark.parametrize("n,delta,c_max", [(16, 0.5, 1.0), (64, 0.1, 0.25), (8, 0.5, 0.5),
                                           (3, 0.5, 0.3)])
def test_small_budgets_are_not_certified(n, delta, c_max):
    # the check can fail: with a budget of a few probes (4, 6 and 1) the search misses more
    # often than delta allows, and under one probe it guesses
    assert argmax_miss(n, delta, c_max) > delta
