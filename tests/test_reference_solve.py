"""Whole-solve reference: the three solvers transcribed plainly from their
algorithm lines (variance-reduced lines 8, 9 and 13, max-finding line 10,
and the sampled baseline), one stream, one estimate and one ledger charge
at a time, composed from the per-layer references: ``reference_rng`` (the
key format), ``reference_estimate`` (the estimator core), ``row_loop_means``
(the classical sweep) and ``law_argmax`` (statevector max finding, one uniform
inverted on the tests' own dynamic program for its law),
with the literal mock argmax loop.  Every solve must equal it byte for byte,
report and snapshot rows, on instances on both sides of the bulk thresholds:
2*S*A words at BULK_STREAM_WORDS = 128 (Dirichlet S*A of 63, 64 and 65), and
Philox passes that split an epoch's line-13 streams (hard instances with A = 8)."""

import dataclasses
import json

import numpy as np
import pytest

from qmdp.estimators import EstimatorConfig, bounded_mean_charge, hoeffding_sample_count
from qmdp.hard_instances import HardInstanceSpec, multi_arm_instance
from qmdp.mdp import Mdp, expected_next_value, greedy, successor_variance
from qmdp.oracle import QueryLedger, SampleOracle
from qmdp.qsim import DEFAULT_C_MAX, argmax_query_budget
from qmdp.rng import derived_rng
from qmdp.solvers import (
    MaxFindingParams,
    Plan,
    SampledParams,
    SolveReport,
    VarianceReducedParams,
    max_finding_vi,
    sampled_vi,
    variance_reduced_vi,
)
from test_estimators import reference_estimate
from test_oracle import row_loop_means
from test_qsim import law_argmax
from test_rng import reference_rng
from test_solvers import loop_mock_argmax


def violated(values, upper, slack=0.0):
    tol = slack + 1e-9 * max(1.0, upper)
    return bool((values < -tol).any() or (values > upper + tol).any())


class Run:
    """One reference solve's iterate, flags, failure count, ledger and snapshots."""

    def __init__(self, mdp, seed, cfg, f, monotone=True):
        self.mdp, self.seed, self.cfg, self.f = mdp, seed, cfg, f
        self.v = np.zeros(mdp.num_states)
        self.pi = np.zeros(mdp.num_states, dtype=np.int64)
        self.monotone_ok = self.dominance_ok = self.one_sided_ok = True if monotone else None
        self.failures = 0
        self.ledger = QueryLedger()
        self.snapshots = []

    def estimate(self, parts, phase, values, upper, err, slack=0.0):
        """One range-bounded estimate of P values on the stream of the key ``parts``."""
        est, failed, charge = reference_estimate(
            expected_next_value(self.mdp, values), upper, err, self.f, self.cfg,
            reference_rng(*parts), violated(values, upper, slack))
        self.ledger.charge_quantum(charge, phase)
        self.failures += int(failed.sum())
        return est

    def mock_argmax(self, q, parts, phase, charge):
        """The literal per-state mock argmax, each state charged ``charge``."""
        index = np.empty(len(q), dtype=np.int64)
        for s in range(len(q)):
            index[s], failed = loop_mock_argmax(q[s], self.f, reference_rng(*parts, s, "argmax"))
            self.failures += failed
            self.ledger.charge_quantum(charge, phase)
        return index

    def keep_better(self, v_new, pi_new):
        take = v_new >= self.v
        v_next = np.where(take, v_new, self.v)
        self.pi = np.where(take, pi_new, self.pi)
        self.monotone_ok &= bool((v_next >= self.v).all())
        self.dominance_ok &= bool((v_next >= v_new).all())
        self.v = v_next

    def check_one_sided(self, mean):
        self.one_sided_ok &= bool((mean <= expected_next_value(self.mdp, self.v) + 1e-9).all())

    def report(self, solver, params, q_hat=None, **extra):
        return SolveReport(solver, self.seed, self.v, self.pi, q_hat, self.ledger,
                           dataclasses.asdict(params), self.monotone_ok, self.dominance_ok,
                           self.one_sided_ok, self.failures, snapshots=self.snapshots, **extra)


def reference_vr(mdp, p, cfg, seed):
    gamma, h, r = mdp.discount, mdp.effective_horizon, mdp.rewards
    run = Run(mdp, seed, cfg, p.est_failure_prob)
    q = np.zeros((mdp.num_states, mdp.num_actions))
    var_breaches = slack_breaches = 0
    for k in range(1, p.num_epochs + 1):
        v0 = run.v.copy()
        # line 8: second and first moments of the anchor
        sq = run.estimate((seed, "vr", k, "line8-sq"), f"epoch-{k}-line-8", v0**2, h**2, p.b)
        mean = run.estimate((seed, "vr", k, "line8-mean"), f"epoch-{k}-line-8", v0, h,
                            (1.0 - gamma) * p.b)
        y = np.maximum(sq - mean**2, 0.0)
        true_var = successor_variance(mdp, v0)
        slack_breaches += int(np.sum(np.abs(y - true_var) > 3.0 * p.b + 1e-9))
        # line 9: the anchor to a per-row error proportional to its deviation
        sigma = np.sqrt(y + p.b)
        err_x = p.c * (1.0 - gamma) ** 1.5 * p.eps * sigma
        est_x, failed, charge = reference_estimate(
            expected_next_value(mdp, v0), None, err_x, p.est_failure_prob, cfg,
            reference_rng(seed, "vr", k, "line9"), sigma=sigma)
        run.ledger.charge_quantum(charge, f"epoch-{k}-line-9")
        run.failures += int(failed.sum())
        var_breaches += int(np.sum(true_var > sigma**2 + 1e-9 * np.maximum(1.0, sigma**2)))
        x = est_x - err_x
        # line 13: the increment over the anchor, one-sided
        eps_k = h / 2.0**k
        upper, err = 2.0 * eps_k, p.c * (1.0 - gamma) * eps_k
        for l in range(1, p.iters_per_epoch + 1):
            run.keep_better(q.max(axis=1), q.argmax(axis=1))
            delta_kl = run.estimate((seed, "vr", k, l, "line13"), f"epoch-{k}-line-13",
                                    run.v - v0, upper, err) - err
            q = np.maximum(r + gamma * (x + delta_kl), 0.0)
            run.check_one_sided(x + delta_kl)
            run.snapshots.append((k, l, run.v.copy(), run.pi.copy()))
    return run.report("variance-reduced", p, q, variance_promise_breaches=var_breaches,
                      anchor_slack_breaches=slack_breaches)


def reference_mf(mdp, p, cfg, seed):
    gamma, h, r = mdp.discount, mdp.effective_horizon, mdp.rewards
    s_n, f = mdp.num_states, p.est_failure_prob
    err = (1.0 - gamma) * p.eps / 4.0
    probe = bounded_mean_charge(h, err, f, cfg)
    run = Run(mdp, seed, cfg, f)
    q_mem = np.zeros((s_n, mdp.num_actions))
    for l in range(1, p.iters + 1):
        phase = f"iter-{l}-argmax"
        if cfg.backend == "statevector":
            a_star = np.array([
                law_argmax(q_mem[s], f, reference_rng(seed, "mf", l, s, "argmax"), p.c_max,
                           ledger=run.ledger, phase=phase, probe_cost=probe)
                for s in range(s_n)], dtype=np.int64)
        else:
            budget = argmax_query_budget(mdp.num_actions, f, p.c_max)
            a_star = run.mock_argmax(q_mem, (seed, "mf", l), phase, int(budget) * probe)
        run.keep_better(q_mem[np.arange(s_n), a_star], a_star)
        # line 10: the next sweep's Q rows, one estimate per entry, one-sided
        z = run.estimate((seed, "mf", l, "line10"), f"iter-{l}-line-10", run.v, h, err) - err
        q_mem = np.maximum(r + gamma * z, 0.0)
        run.check_one_sided(z)
        run.snapshots.append((1, l, run.v.copy(), run.pi.copy()))
    return run.report("max-finding", p)


def reference_sampled(mdp, p, cfg, seed):
    gamma, h, r = mdp.discount, mdp.effective_horizon, mdp.rewards
    s_n, a_n = mdp.num_states, mdp.num_actions
    err, f = (1.0 - gamma) * p.eps / 4.0, p.delta / (p.iters * s_n * a_n)
    run = Run(mdp, seed, cfg, f, monotone=False)
    for i in range(1, p.iters + 1):
        if p.mode == "classical":
            n = hoeffding_sample_count(h, err, f)
            # one call stream per sweep
            est = row_loop_means(mdp.transitions, run.v, n, reference_rng(seed, "call", i - 1))
            run.ledger.charge_classical(n * s_n * a_n, f"iter-{i}")
        else:
            est = run.estimate((seed, "svi", i), f"iter-{i}", run.v, h, err, slack=p.eps / 4.0)
        q_est = r + gamma * est
        if p.mode == "quantum_mean_and_max":
            budget = argmax_query_budget(a_n, f, DEFAULT_C_MAX)
            best = run.mock_argmax(q_est, (seed, "svi", i), f"iter-{i}-argmax",
                                   int(budget) * bounded_mean_charge(h, err, f, cfg))
            run.v = q_est[np.arange(s_n), best]
        else:
            run.v = q_est.max(axis=1)
        run.snapshots.append((1, i, run.v.copy(), q_est.argmax(axis=1)))
    run.pi = greedy(q_est)[1]
    return run.report(f"sampled-{p.mode}", p)


def hard(a_n):
    return multi_arm_instance(HardInstanceSpec(gamma=0.9, num_actions=a_n, eps=1.0,
                                               large_arms=frozenset({a_n // 2})))


def dirichlet(s_n, a_n):
    g = derived_rng(140, "reference-solve", s_n, a_n)
    return Mdp(g.dirichlet(np.ones(s_n), size=(s_n, a_n)), g.random((s_n, a_n)), 0.5)


INSTANCES = {"hard-A1": hard(1), "hard-A2": hard(2), "hard-A8": hard(8),
             "dirichlet-63": dirichlet(9, 7), "dirichlet-64": dirichlet(8, 8),
             "dirichlet-65": dirichlet(13, 5)}
# name -> (solver, its reference, params for (mdp, eps)); a high failure rate
# reaches the replays of failed bulk rows and the planted failures
SOLVES = {
    "variance-reduced": (variance_reduced_vi, reference_vr,
                         lambda m, eps: VarianceReducedParams.for_mdp(m, eps, 0.1)),
    "variance-reduced-failing": (variance_reduced_vi, reference_vr,
                                 lambda m, eps: dataclasses.replace(
                                     VarianceReducedParams.for_mdp(m, eps, 0.1),
                                     est_failure_prob=0.02)),
    "max-finding": (max_finding_vi, reference_mf,
                    lambda m, eps: MaxFindingParams.for_mdp(m, eps, 0.1)),
    "max-finding-failing": (max_finding_vi, reference_mf,
                            lambda m, eps: dataclasses.replace(
                                MaxFindingParams.for_mdp(m, eps, 0.1), est_failure_prob=0.05)),
    **{f"sampled-{mode}": (sampled_vi, reference_sampled,
                           lambda m, eps, mode=mode: SampledParams.for_mdp(m, eps, 0.99, mode))
       for mode in ("classical", "quantum_mean", "quantum_mean_and_max")},
}
# eps per instance: 0.3 gives the hard A=8 instance 306 line-13 streams of 32
# words, more than one 8,192-word pass holds.  The statevector backend draws
# every estimate on its own stream, whatever S*A, so it runs coarser solves,
# one seed each, on three of the instances.
MOCK_EPS = {"hard-A1": 1.0, "hard-A2": 1.0, "hard-A8": 0.3,
            "dirichlet-63": 0.5, "dirichlet-64": 0.5, "dirichlet-65": 0.5}
STATEVECTOR_EPS = {"hard-A1": 2.0, "hard-A8": 2.0, "dirichlet-65": 1.0}


def _outputs(report):
    return (json.dumps(report.to_dict(), sort_keys=True),
            [(e, i, v.tobytes(), pi.tobytes()) for e, i, v, pi in report.snapshots])


CASES = ([(name, solve, "contract_mock", MOCK_EPS[name], (3, 4)) for name in INSTANCES
          for solve in SOLVES]
         + [(name, solve, "statevector", STATEVECTOR_EPS[name], (3,)) for name in STATEVECTOR_EPS
            for solve in SOLVES if solve != "sampled-classical"])


@pytest.mark.parametrize("instance,solve,backend,eps,seeds", CASES)
def test_solve_equals_reference(instance, solve, backend, eps, seeds):
    mdp, cfg = INSTANCES[instance], EstimatorConfig(backend=backend)
    solver, reference, make_params = SOLVES[solve]
    params = make_params(mdp, eps)
    for seed in seeds:
        got = solver(SampleOracle(mdp, seed), Plan.of(mdp, params, cfg), diagnostics=True)
        assert _outputs(got) == _outputs(reference(mdp, params, cfg, seed))
