"""Tests for the sampled solvers: schedules, guarantees, and diagnostics."""

import dataclasses
import hashlib
import itertools
import json
import re
import tracemalloc

import numpy as np
import pytest

import qmdp.estimators
import qmdp.oracle
import qmdp.qsim
import qmdp.rng
import qmdp.solvers as solvers
from qmdp.errors import PreconditionError
from qmdp.estimators import EstimatorConfig
from qmdp.hard_instances import HardInstanceSpec, multi_arm_instance, two_state_chain
from qmdp.mdp import Mdp, exact_value_iteration, policy_value_exact
from qmdp.oracle import SampleOracle
from qmdp.rng import derived_rng
from qmdp.solvers import (
    MaxFindingParams,
    Plan,
    SampledParams,
    VarianceReducedParams,
    max_finding_vi,
    mock_argmax_rows,
    sampled_vi,
    variance_reduced_vi,
)

CFG = EstimatorConfig()


def key_digest(*parts):
    """The key format, written out: the 16-byte blake2b digest of the key's
    parts, the seed first, as text joined by "\x1f"."""
    text = "\x1f".join(p if isinstance(p, str) else str(int(p)) for p in parts)
    return hashlib.blake2b(text.encode(), digest_size=16).digest()


def argmax_keys(seed, sweeps, s_n):
    return (seed, "mf", range(1, sweeps + 1), range(s_n), "argmax")


def fig_two(num_actions, eps, large_arms, gamma=0.9):
    return multi_arm_instance(
        HardInstanceSpec(gamma=gamma, num_actions=num_actions, eps=eps,
                         large_arms=frozenset(large_arms))
    )


def zero_reward_mdp(s=2, a=2, gamma=0.9):
    return Mdp(transitions=np.full((s, a, s), 1.0 / s),
               rewards=np.zeros((s, a)), discount=gamma)


class TestVarianceReducedParams:
    def test_schedule_example(self):
        # horizon 10, eps 0.1, S = A = 2, delta 0.1
        mdp = fig_two(2, 0.1, {1})
        p = VarianceReducedParams.for_mdp(mdp, 0.1, 0.1)
        assert p.num_epochs == 7
        assert p.iters_per_epoch == 61
        assert p.est_failure_prob == pytest.approx(0.1 / (4 * 7 * 61 * 4), rel=1e-12)

    def test_eps_range(self):
        mdp = fig_two(2, 0.5, {1})
        with pytest.raises(PreconditionError):
            VarianceReducedParams.for_mdp(mdp, np.sqrt(10.0) + 0.1, 0.1)
        # the boundary itself is allowed
        VarianceReducedParams.for_mdp(mdp, np.sqrt(10.0), 0.1)

    def test_delta_range(self):
        mdp = fig_two(2, 0.5, {1})
        with pytest.raises(PreconditionError):
            VarianceReducedParams.for_mdp(mdp, 0.5, 0.0)

    @pytest.mark.parametrize("b,c,message", [
        (float("nan"), 0.01, r"b must be positive and finite, got nan"),
        (float("inf"), 0.01, r"b must be positive and finite, got inf"),
        (0.0, 0.01, r"b must be positive"),
        (1.0, 0.0, r"c must satisfy 0 < c\*\(1-gamma\)\^1\.5\*eps < 4"),
        (1.0, float("nan"), r"c must satisfy"),
        (1.0, float("inf"), r"c must satisfy"),
        # c * (1-gamma)^1.5 * eps = 1000 * 10^-1.5 * 0.5 > 4 at horizon 10
        (1.0, 1000.0, r"c must satisfy .*got c = 1000\.0"),
    ])
    def test_b_and_c_ranges(self, b, c, message):
        mdp = fig_two(2, 0.5, {1})
        with pytest.raises(PreconditionError, match=message):
            VarianceReducedParams.for_mdp(mdp, 0.5, 0.1, b=b, c=c)

    # NaN used to surface as a derived failure probability of nan
    @pytest.mark.parametrize("c_max", [float("nan"), float("inf"), 0.0, -4.0])
    def test_c_max_range(self, c_max):
        mdp = fig_two(2, 0.5, {1})
        message = f"c_max must be positive and finite, got {c_max}"
        with pytest.raises(PreconditionError, match=message):
            MaxFindingParams.for_mdp(mdp, 0.5, 0.1, c_max=c_max)

    def test_failure_prob_denominator_underflow(self):
        # 4*c_max*L*S*A^1.5*log2(1/delta) underflows to 0 at c_max = 5e-324 and
        # delta = 1 - 2^-53: no probability is left per estimate
        with pytest.raises(PreconditionError, match=r"^delta or c_max gives a per-estimate "
                                                    r"failure probability inf not in \(0, 1\)$"):
            MaxFindingParams.for_mdp(fig_two(2, 0.5, {1}), 0.5, 0.9999999999999999,
                                     c_max=5e-324)

    def test_largest_c_inside_the_window_solves(self):
        # c * (1-gamma)^1.5 * eps just below 4: every anchor estimate stays
        # inside the variance-bounded estimator's (0, 4*sigma) window
        mdp = fig_two(2, 0.5, {1})
        c = 3.99 / (0.1**1.5 * 0.5)
        params = VarianceReducedParams.for_mdp(mdp, 0.5, 0.1, c=c)
        report = variance_reduced_vi(SampleOracle(mdp, 1), Plan.of(mdp, params))
        assert report.ledger.quantum_oracle_calls > 0


class TestMockArgmax:
    def test_success_is_lowest_index_argmax(self):
        rng = derived_rng(1, "argmax")
        q = np.tile([0.2, 0.9, 0.9, 0.1], (50, 1))
        index, failed = mock_argmax_rows(q, 0.0, rng.random(50), rng.integers(3, size=50))
        assert index.tolist() == [1] * 50 and not failed.any()

    def test_failure_is_uniform_over_other_indices(self):
        rng = derived_rng(2, "argmax")
        q = np.tile([0.0, 0.0, 1.0, 0.0], (3000, 1))
        index, failed = mock_argmax_rows(q, 1.0, rng.random(3000), rng.integers(3, size=3000))
        assert failed.all()
        counts = np.bincount(index, minlength=4)
        assert counts[2] == 0
        assert np.all(np.abs(counts[[0, 1, 3]] - 1000) < 120)

    def test_single_action_never_fails(self):
        rng = derived_rng(3, "argmax")
        index, failed = mock_argmax_rows(np.full((20, 1), 0.4), 1.0, rng.random(20),
                                         rng.integers(1, size=20))
        assert index.tolist() == [0] * 20 and not failed.any()


def loop_mock_argmax(q_row, f, rng):
    """The per-state mock argmax the solvers ran before their draws were
    vectorized, copied literally: the reference the vectorized path must equal."""
    best = int(np.argmax(q_row))
    fail = rng.random() < f
    wrong = int(rng.integers(max(q_row.size - 1, 1)))
    if fail and q_row.size > 1:
        return (wrong if wrong < best else wrong + 1), True
    return best, False


def tied_rows(s_n, a_n, seed):
    # three distinct values per row, so most rows tie on their maximum
    return derived_rng(seed, "tied").integers(0, 3, (s_n, a_n)).astype(float)


class TestVectorizedMockArgmax:
    @pytest.mark.parametrize("chunk", [qmdp.rng.PASS_WORDS // 2, 7])
    @pytest.mark.parametrize("a_n", [1, 2, 3, 8, 16])
    @pytest.mark.parametrize("f", [0.0, 0.3, 1.0])
    def test_rows_core_equals_per_state_loop(self, monkeypatch, chunk, a_n, f):
        # two words per stream: with passes of 7 streams' words, 40 states
        # take one sweep per pass and 3 states two sweeps per pass, with a
        # shorter last pass
        monkeypatch.setattr(qmdp.rng, "PASS_WORDS", 2 * chunk)
        oracle = SampleOracle(zero_reward_mdp(), 11)
        for s_n, sweeps in ((40, 3), (3, 5)):
            q = tied_rows(s_n, a_n, a_n)
            draws = list(solvers._mock_argmax_draws(oracle, argmax_keys(11, sweeps, s_n), s_n, a_n))
            assert len(draws) == sweeps
            for l, (u, wrong) in enumerate(draws, start=1):
                index, failed = mock_argmax_rows(q, f, u, wrong)
                want = [loop_mock_argmax(q[s], f, derived_rng(11, "mf", l, s, "argmax"))
                        for s in range(s_n)]
                assert list(zip(index.tolist(), failed.tolist())) == want

    @pytest.mark.parametrize("a_n", [1, 2, 3, 8, 16])
    @pytest.mark.parametrize("f", [0.0, 0.3, 1.0])
    def test_solvers_equal_per_state_loop(self, monkeypatch, a_n, f):
        # both solvers on tied rows (two equal large arms, and all-zero rows
        # on the first sweep), with the argmax failure rate forced to f so the
        # failure branch and the index shift are reached
        mdp = fig_two(a_n, 1.0, {0, a_n - 1})
        real = solvers.mock_argmax_rows
        for label, solve in (
                ("mf", lambda o: max_finding_vi(
                    o, Plan.of(mdp, MaxFindingParams.for_mdp(mdp, 1.0, 0.1)))),
                ("svi", lambda o: sampled_vi(o, Plan.of(
                    mdp, SampledParams.for_mdp(mdp, 1.0, 0.1, mode="quantum_mean_and_max"))))):
            calls = []

            def spy(q, f_solver, u, wrong):
                index, failed = real(q, f, u, wrong)
                calls.append((q.copy(), index, failed))
                return index, failed

            monkeypatch.setattr(solvers, "mock_argmax_rows", spy)
            report = solve(SampleOracle(mdp, 5))
            assert len(calls) == report.params["iters"]
            argmax_failures = 0
            for l, (q, index, failed) in enumerate(calls, start=1):
                want = [loop_mock_argmax(q[s], f, derived_rng(5, label, l, s, "argmax"))
                        for s in range(mdp.num_states)]
                assert list(zip(index.tolist(), failed.tolist())) == want, (label, l)
                argmax_failures += sum(failed_s for _, failed_s in want)
            assert report.estimator_failures >= argmax_failures
            if f == 1.0 and a_n > 1:
                assert argmax_failures == len(calls) * mdp.num_states

    def test_lemire_replays_rekey_the_oracle(self, monkeypatch):
        # k = 2^31+1 makes numpy's Lemire step reject on about half of the
        # streams: each is replayed on the oracle's one Generator, re-keyed
        # from its digest, and draws what its own stream draws
        k, s_n, sweeps = 2**31 + 1, 5, 8
        oracle = SampleOracle(zero_reward_mdp(), 12)
        rekeyed = []
        real = SampleOracle.keyed_rng
        monkeypatch.setattr(SampleOracle, "keyed_rng",
                            lambda self, digest: rekeyed.append(digest) or real(self, digest))
        draws = list(solvers._mock_argmax_draws(oracle, argmax_keys(12, sweeps, s_n), s_n, k + 1))
        assert len(draws) == sweeps
        for l, (u, wrong) in enumerate(draws, start=1):
            for s in range(s_n):
                ref = derived_rng(12, "mf", l, s, "argmax")
                assert (u[s], wrong[s]) == (ref.random(), ref.integers(k)), (l, s)
        keys = itertools.product([12], ["mf"], range(1, sweeps + 1), range(s_n), ["argmax"])
        assert set(rekeyed) <= {key_digest(*key) for key in keys}
        assert 5 < len(rekeyed) < 35 and oracle._rng is not None

    def test_chunked_draws_memory_does_not_grow_with_sweeps(self):
        # 2^18 (sweep, state) pairs; holding all their draws at once would
        # take 4 MiB for the arrays alone
        oracle = SampleOracle(zero_reward_mdp(), 0)
        tracemalloc.start()
        try:
            n = sum(1 for _ in solvers._mock_argmax_draws(oracle, argmax_keys(0, 4096, 64), 64, 16))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert n == 4096
        assert peak < 2 * 2**20, peak


class TestBulkMockRows:
    def test_vr_memory_does_not_grow_with_streams(self, monkeypatch):
        # eps 0.01 and 0.001 solve with K*L = 910 and 1,554 line-13 streams
        # of 32 words each, 256 streams per Philox pass: the peak is a
        # multiple of one pass's words, however many passes a solve makes
        mdp = fig_two(8, 0.5, {3})
        passes = []
        real = qmdp.estimators.bulk_passes

        def counting(*args):
            for digests, words in real(*args):
                passes.append(len(words))
                yield digests, words

        monkeypatch.setattr(qmdp.estimators, "bulk_passes", counting)
        for eps, streams in ((0.01, 910), (0.001, 1554)):
            params = VarianceReducedParams.for_mdp(mdp, eps, 0.1)
            assert params.num_epochs * params.iters_per_epoch == streams
            passes.clear()
            tracemalloc.start()
            try:
                variance_reduced_vi(SampleOracle(mdp, 1), Plan.of(mdp, params))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert sum(passes) == streams and max(passes) == qmdp.rng.PASS_WORDS // 32
            assert len(passes) >= 4
            assert peak < 64 * qmdp.rng.PASS_WORDS, (eps, peak)

    @pytest.mark.parametrize("backend", ["contract_mock", "statevector"])
    def test_every_line_of_a_plan_shares_one_f(self, backend):
        # mock_rows draws the flags of every line it serves at one f
        mdp, cfg = fig_two(8, 0.5, {3}), EstimatorConfig(backend=backend)
        plans = [Plan.of(mdp, VarianceReducedParams.for_mdp(mdp, 0.5, 0.1), cfg),
                 Plan.of(mdp, MaxFindingParams.for_mdp(mdp, 1.0, 0.1, c_max=0.5), cfg)]
        plans += [Plan.of(mdp, SampledParams.for_mdp(mdp, 0.5, 0.1, mode=mode), cfg)
                  for mode in ("classical", "quantum_mean", "quantum_mean_and_max")]
        for plan in plans:
            assert len({line.f for line in plan.lines.values()}) == 1, plan.params

    @pytest.mark.parametrize("pass_words", [32, 96, 1000, qmdp.rng.PASS_WORDS])
    @pytest.mark.parametrize("a_n", [1, 3, 8, 32])
    def test_reports_equal_native_streams(self, monkeypatch, pass_words, a_n):
        """Reports are byte-identical whether the estimates draw from bulk
        rows, with passes of one, three or more streams that split epochs,
        or from their own streams, including solves with failed entries."""
        mdp = fig_two(a_n, 1.0, {0})
        vr = Plan.of(mdp, dataclasses.replace(VarianceReducedParams.for_mdp(mdp, 1.0, 0.1),
                                              est_failure_prob=0.01))
        mf = Plan.of(mdp, dataclasses.replace(MaxFindingParams.for_mdp(mdp, 1.0, 0.1),
                                              est_failure_prob=0.01))
        mean = Plan.of(mdp, SampledParams.for_mdp(mdp, 2.0, 0.9, mode="quantum_mean"))
        mean_and_max = Plan.of(mdp, SampledParams.for_mdp(mdp, 2.0, 0.9,
                                                          mode="quantum_mean_and_max"))
        solves = (lambda o: variance_reduced_vi(o, vr, diagnostics=True),
                  lambda o: max_finding_vi(o, mf, diagnostics=True),
                  lambda o: sampled_vi(o, mean, diagnostics=True),
                  lambda o: sampled_vi(o, mean_and_max))
        monkeypatch.setattr(qmdp.rng, "PASS_WORDS", pass_words)
        failures = 0
        for solve in solves:
            reports = []
            for words in (solvers.BULK_STREAM_WORDS, 0):
                monkeypatch.setattr(solvers, "BULK_STREAM_WORDS", words)
                reports.append(solve(SampleOracle(mdp, 6)))
            bulk, native = [(json.dumps(r.to_dict(), sort_keys=True),
                             [(e, i, v.tobytes(), pi.tobytes()) for e, i, v, pi in r.snapshots])
                            for r in reports]
            assert bulk == native
            failures += reports[0].estimator_failures
        assert failures > 0


class TestMaxFindingParams:
    def test_eps_range(self):
        mdp = fig_two(2, 0.5, {1})
        with pytest.raises(PreconditionError):
            MaxFindingParams.for_mdp(mdp, 10.5, 0.1)
        MaxFindingParams.for_mdp(mdp, 10.0, 0.1)

    def test_derived_failure_prob(self):
        mdp = fig_two(8, 0.5, {3})
        p = MaxFindingParams.for_mdp(mdp, 0.5, 0.1)
        expected = 0.1 / (4 * 4.0 * p.iters * 2 * 8**1.5 * np.log2(10.0))
        assert p.est_failure_prob == pytest.approx(expected, rel=1e-12)


class TestVarianceReducedSolver:
    def test_zero_rewards_exactly_zero(self):
        mdp = zero_reward_mdp()
        for seed in range(5):
            report = variance_reduced_vi(
                SampleOracle(mdp, seed), Plan.of(mdp, VarianceReducedParams.for_mdp(mdp, 0.5, 0.1)))
            assert np.all(report.v_hat == 0.0)
            assert np.all(report.q_hat == 0.0)

    def test_two_state_sandwich_frequency(self):
        # v* at the source is 1/(1 - 0.45); with eps 0.3 the estimate must
        # land in [v* - 0.3, v*] and be dominated by its own policy's value
        mdp = two_state_chain(0.9, 0.5)
        v_star = 1.0 / (1.0 - 0.45)
        plan = Plan.of(mdp, VarianceReducedParams.for_mdp(mdp, 0.3, 0.1))
        ok = 0
        for seed in range(200):
            report = variance_reduced_vi(SampleOracle(mdp, seed), plan)
            v_pi = policy_value_exact(mdp, report.pi_hat)
            ok += (v_star - 0.3 <= report.v_hat[0] <= v_star + 1e-9
                   and report.v_hat[0] <= v_pi[0] + 1e-9)
        assert ok / 200 >= 0.90

    def test_monotone_and_dominance_always(self):
        mdp = fig_two(4, 1.0, {2})
        plan = Plan.of(mdp, VarianceReducedParams.for_mdp(mdp, 1.0, 0.1))
        saw_failure_run = False
        for seed in range(150):
            report = variance_reduced_vi(SampleOracle(mdp, seed), plan)
            assert report.monotone_iterates_ok
            assert report.greedy_dominance_ok
            saw_failure_run |= report.estimator_failures > 0
        assert saw_failure_run  # the property was exercised on failure runs too

    def test_snapshots_nondecreasing(self):
        mdp = fig_two(4, 0.5, {1})
        report = variance_reduced_vi(
            SampleOracle(mdp, 11), Plan.of(mdp, VarianceReducedParams.for_mdp(mdp, 0.5, 0.1)),
            diagnostics=True)
        vs = [v for _, _, v, _ in report.snapshots]
        assert len(vs) == report.params["num_epochs"] * report.params["iters_per_epoch"]
        for prev, cur in zip(vs, vs[1:]):
            assert np.all(cur >= prev)

    def test_one_sided_anchor_plus_increment(self):
        # with no estimator failures, the shifted estimates stay below the
        # exact one-step expectation
        mdp = fig_two(4, 0.5, {1})
        plan = Plan.of(mdp, VarianceReducedParams.for_mdp(mdp, 0.5, 0.1))
        checked = 0
        for seed in range(40):
            report = variance_reduced_vi(SampleOracle(mdp, seed), plan, diagnostics=True)
            if report.estimator_failures == 0:
                assert report.one_sided_ok
                checked += 1
        assert checked >= 30

    def test_determinism(self):
        mdp = fig_two(4, 0.5, {1})
        plan = Plan.of(mdp, VarianceReducedParams.for_mdp(mdp, 0.5, 0.1))
        r1 = variance_reduced_vi(SampleOracle(mdp, 123), plan)
        r2 = variance_reduced_vi(SampleOracle(mdp, 123), plan)
        np.testing.assert_array_equal(r1.v_hat, r2.v_hat)
        np.testing.assert_array_equal(r1.pi_hat, r2.pi_hat)
        np.testing.assert_array_equal(r1.q_hat, r2.q_hat)
        assert r1.ledger.to_dict() == r2.ledger.to_dict()

    def test_query_charges_deterministic_across_seeds(self):
        # mock charges are formula-level: they depend on the schedule, not
        # on the noise realization
        mdp = fig_two(4, 0.5, {1})
        plan = Plan.of(mdp, VarianceReducedParams.for_mdp(mdp, 0.5, 0.1))
        totals = {variance_reduced_vi(SampleOracle(mdp, s), plan).ledger.total
                  for s in range(5)}
        assert len(totals) == 1

    def test_per_epoch_convergence(self):
        # at the end of epoch k the iterate is within horizon/2^k of v*, at
        # the contract's confidence level
        mdp = fig_two(4, 1.0, {2})
        params = VarianceReducedParams.for_mdp(mdp, 1.0, 0.1)
        plan = Plan.of(mdp, params)
        v_star, _, _ = exact_value_iteration(mdp, 1e-10)
        horizon = mdp.effective_horizon
        per_iter = params.iters_per_epoch
        good = 0
        runs = 60
        for seed in range(runs):
            report = variance_reduced_vi(SampleOracle(mdp, seed), plan, diagnostics=True)
            ok = True
            for k in range(1, params.num_epochs + 1):
                _, _, v_end, _ = report.snapshots[k * per_iter - 1]
                ok &= bool(np.all(v_star - horizon / 2.0**k <= v_end + 1e-9))
            good += ok
        assert good / runs >= 0.9

    def test_statevector_backend_end_to_end(self):
        # amplitude-estimation-backed runs keep the sandwich at their own
        # confidence level and charge measured (not formula) counts
        mdp = fig_two(2, 1.0, {1})
        params = VarianceReducedParams.for_mdp(mdp, 1.0, 0.2)
        plan = Plan.of(mdp, params, EstimatorConfig(backend="statevector"))
        v_star, _, _ = exact_value_iteration(mdp, 1e-10)
        hits = 0
        charges = set()
        for seed in range(5):
            report = variance_reduced_vi(SampleOracle(mdp, seed), plan)
            hits += bool(np.all(v_star - 1.0 <= report.v_hat + 1e-9)
                         and np.all(report.v_hat <= v_star + 1e-9))
            assert report.monotone_iterates_ok
            charges.add(report.ledger.quantum_oracle_calls)
        assert hits >= 4
        mock_total = variance_reduced_vi(
            SampleOracle(mdp, 0), Plan.of(mdp, params)).ledger.quantum_oracle_calls
        assert all(c != mock_total for c in charges)

    def test_variance_promise_breaches_are_surfaced(self):
        # the deviation proxy sits below the true variance on a healthy run
        # with roughly coin-flip odds per row, so breaches must be counted,
        # not raised
        mdp = fig_two(8, 0.5, {3})
        plan = Plan.of(mdp, VarianceReducedParams.for_mdp(mdp, 0.5, 0.1))
        breaches = [variance_reduced_vi(SampleOracle(mdp, s), plan)
                    .variance_promise_breaches for s in range(10)]
        assert max(breaches) > 0


class TestMaxFindingSolver:
    def test_zero_rewards_exactly_zero(self):
        mdp = zero_reward_mdp()
        report = max_finding_vi(
            SampleOracle(mdp, 3), Plan.of(mdp, MaxFindingParams.for_mdp(mdp, 0.5, 0.1)))
        assert np.all(report.v_hat == 0.0)

    def test_single_action_reduces_to_shifted_vi(self):
        mdp = two_state_chain(0.9, 0.5)
        plan = Plan.of(mdp, MaxFindingParams.for_mdp(mdp, 0.5, 0.1))
        report = max_finding_vi(SampleOracle(mdp, 5), plan)
        assert np.all(report.pi_hat == 0)
        v_star = 1.0 / (1.0 - 0.45)
        assert v_star - 0.5 <= report.v_hat[0] <= v_star + 1e-9

    def test_identifies_large_arm(self):
        # the value gap makes any eps-optimal policy pick the large arm
        mdp = fig_two(8, 1.0, {5})
        plan = Plan.of(mdp, MaxFindingParams.for_mdp(mdp, 1.0, 0.1))
        hits = 0
        for seed in range(200):
            report = max_finding_vi(SampleOracle(mdp, seed), plan)
            hits += int(report.pi_hat[0]) == 5
        assert hits / 200 >= 0.90

    def test_monotone_always(self):
        mdp = fig_two(4, 1.0, {1})
        plan = Plan.of(mdp, MaxFindingParams.for_mdp(mdp, 1.0, 0.1))
        for seed in range(100):
            report = max_finding_vi(SampleOracle(mdp, seed), plan)
            assert report.monotone_iterates_ok
            assert report.greedy_dominance_ok

    def test_statevector_argmax_backend(self):
        mdp = fig_two(4, 1.0, {2})
        plan = Plan.of(mdp, MaxFindingParams.for_mdp(mdp, 1.0, 0.2),
                       EstimatorConfig(backend="statevector"))
        report = max_finding_vi(SampleOracle(mdp, 7), plan)
        v_star, _, _ = exact_value_iteration(mdp, 1e-10)
        assert np.all(report.v_hat <= v_star + 1e-8)
        assert np.all(report.v_hat >= v_star - 1.0 - 1e-9)

    def test_statevector_argmax_action_cap(self):
        spec = HardInstanceSpec(gamma=0.9, num_actions=128, eps=0.5,
                                large_arms=frozenset({1}))
        mdp = multi_arm_instance(spec)
        params = MaxFindingParams.for_mdp(mdp, 0.5, 0.1)
        with pytest.raises(PreconditionError):
            max_finding_vi(SampleOracle(mdp, 0),
                           Plan.of(mdp, params, EstimatorConfig(backend="statevector")))

    @pytest.mark.parametrize("backend", ["contract_mock", "statevector"])
    def test_argmax_budget_above_max_probes(self, monkeypatch, backend):
        # c_max = 1e9 at A = 8: the statevector solve is refused before its
        # first stream; the mock charges the budget without simulating it
        mdp = fig_two(8, 1.0, {3})
        params = MaxFindingParams.for_mdp(mdp, 1.0, 0.1, c_max=1e9)
        keyed = []
        real = SampleOracle.keyed_rng
        monkeypatch.setattr(SampleOracle, "keyed_rng",
                            lambda self, digest: keyed.append(digest) or real(self, digest))
        oracle = SampleOracle(mdp, 4)
        if backend == "statevector":
            with pytest.raises(PreconditionError, match="exceeds MAX_ARGMAX_PROBES"):
                max_finding_vi(oracle, Plan.of(mdp, params, EstimatorConfig(backend=backend)))
            assert keyed == [] and oracle.ledger.total == 0
        else:
            report = max_finding_vi(oracle, Plan.of(mdp, params, EstimatorConfig(backend=backend)))
            budget = qmdp.qsim.argmax_query_budget(8, params.est_failure_prob, 1e9)
            assert budget > qmdp.qsim.MAX_ARGMAX_PROBES
            assert report.ledger.phases["iter-1-argmax"] > mdp.num_states * int(budget)

    def test_no_q_output(self):
        mdp = fig_two(2, 1.0, {1})
        report = max_finding_vi(
            SampleOracle(mdp, 1), Plan.of(mdp, MaxFindingParams.for_mdp(mdp, 1.0, 0.1)))
        assert report.q_hat is None


class TestSampledBaseline:
    def test_gamma_zero_one_step(self):
        rng = np.random.default_rng(0)
        r = rng.random((3, 2))
        mdp = Mdp(transitions=rng.dirichlet(np.ones(3), size=(3, 2)), rewards=r,
                  discount=0.0)
        report = sampled_vi(SampleOracle(mdp, 2), Plan.of(
            mdp, SampledParams.for_mdp(mdp, eps=0.1, delta=0.1, mode="classical")))
        np.testing.assert_allclose(report.v_hat, r.max(axis=1), atol=0.1)

    def test_value_accuracy_all_modes(self):
        mdp = fig_two(4, 0.5, {1})
        v_star, _, _ = exact_value_iteration(mdp, 1e-10)
        for mode in ("classical", "quantum_mean", "quantum_mean_and_max"):
            report = sampled_vi(SampleOracle(mdp, 4), Plan.of(
                mdp, SampledParams.for_mdp(mdp, eps=0.5, delta=0.1, mode=mode)))
            assert np.abs(report.v_hat - v_star).max() <= 0.5, mode

    def test_classical_quartering_at_fixed_iteration_count(self):
        # with gamma = 0 the sweep count is the same for eps = 0.06 and 0.03,
        # so halving eps scales total samples by exactly the Hoeffding factor
        mdp = Mdp(transitions=np.full((2, 2, 2), 0.5),
                  rewards=np.array([[0.2, 0.8], [0.5, 0.1]]), discount=0.0)
        t1 = sampled_vi(SampleOracle(mdp, 0), Plan.of(
            mdp, SampledParams.for_mdp(mdp, 0.06, 0.2))).ledger.classical_samples
        t2 = sampled_vi(SampleOracle(mdp, 0), Plan.of(
            mdp, SampledParams.for_mdp(mdp, 0.03, 0.2))).ledger.classical_samples
        assert t2 / t1 == pytest.approx(4.0, rel=0.05)

    def test_quantum_mean_doubling(self):
        mdp = Mdp(transitions=np.full((2, 2, 2), 0.5),
                  rewards=np.array([[0.2, 0.8], [0.5, 0.1]]), discount=0.0)
        t1 = sampled_vi(SampleOracle(mdp, 0), Plan.of(mdp, SampledParams.for_mdp(
            mdp, 0.06, 0.2, mode="quantum_mean"))).ledger.quantum_oracle_calls
        t2 = sampled_vi(SampleOracle(mdp, 0), Plan.of(mdp, SampledParams.for_mdp(
            mdp, 0.03, 0.2, mode="quantum_mean"))).ledger.quantum_oracle_calls
        assert t2 / t1 == pytest.approx(2.0, rel=0.10)

    def test_mode_validation(self):
        mdp = fig_two(2, 1.0, {1})
        with pytest.raises(PreconditionError):
            sampled_vi(SampleOracle(mdp, 0),
                       Plan.of(mdp, SampledParams.for_mdp(mdp, 0.5, 0.1, mode="bogus")))

    def test_argmax_mode_charges_more(self):
        mdp = fig_two(8, 1.0, {3})
        q_mean = sampled_vi(SampleOracle(mdp, 1), Plan.of(mdp, SampledParams.for_mdp(
            mdp, 1.0, 0.1, mode="quantum_mean"))).ledger.quantum_oracle_calls
        q_max = sampled_vi(SampleOracle(mdp, 1), Plan.of(mdp, SampledParams.for_mdp(
            mdp, 1.0, 0.1, mode="quantum_mean_and_max"))).ledger.quantum_oracle_calls
        assert q_max > q_mean

    def test_classical_call_keys_hashed_in_runs(self, monkeypatch):
        # a classical solve hashes the call key of each sweep it takes, and
        # no key ahead of them: one encoded call index per sweep
        encoded = []
        real = qmdp.rng._encode_part
        monkeypatch.setattr(qmdp.rng, "_encode_part", lambda p: encoded.append(p) or real(p))
        mdp = fig_two(8, 0.5, {3})
        oracle = SampleOracle(mdp, 6)
        sampled_vi(oracle, Plan.of(mdp, SampledParams.for_mdp(mdp, 0.3, 0.1)))
        assert oracle._calls == 50  # one call stream per sweep
        assert encoded == [6, "call", *range(50)]


def dense_mdp(s_n, a_n, seed):
    g = derived_rng(seed, "dense-mdp", s_n, a_n)
    return Mdp(g.dirichlet(np.ones(s_n), size=(s_n, a_n)), g.random((s_n, a_n)), 0.9)


class TestBatchedInvariantChecks:
    """keep_better checks its flags once per block of CHECK_CELLS // S steps.
    A NaN offer at the first step, on either side of a block boundary or at
    the last step gives the flags and iterates the per-step formula gives."""

    SOLVES = {"variance-reduced": (variance_reduced_vi, VarianceReducedParams),
              "max-finding": (max_finding_vi, MaxFindingParams)}

    @staticmethod
    def offers(monkeypatch, nan_at=None):
        """Spy on keep_better: every (v_new, pi_new) offered and the check
        buffers' bytes, with a NaN put into state 0's offer at step nan_at."""
        offered, buffers = [], set()
        real = solvers._Iterate.keep_better

        def spy(it, v_new, pi_new):
            if len(offered) + 1 == nan_at:
                v_new = v_new.copy()
                v_new[0] = np.nan
            offered.append((v_new, pi_new))
            buffers.add(it._iterates.nbytes + it._offers.nbytes)
            real(it, v_new, pi_new)

        monkeypatch.setattr(solvers._Iterate, "keep_better", spy)
        return offered, buffers

    @pytest.mark.parametrize("solve", sorted(SOLVES))
    @pytest.mark.parametrize("where", ["first", "block-end", "block-start", "last"])
    def test_nan_offer_flags_equal_per_step_formula(self, monkeypatch, solve, where):
        from test_reference_solve import Run

        mdp = dense_mdp(100, 2, 7)
        block = solvers.CHECK_CELLS // 100  # 40 steps
        solver, params_class = self.SOLVES[solve]
        params = params_class.for_mdp(mdp, 0.6, 0.1)
        steps = params.num_epochs * params.iters_per_epoch if solve == "variance-reduced" \
            else params.iters
        assert steps > block + 1
        step = {"first": 1, "block-end": block, "block-start": block + 1, "last": steps}[where]
        offered, _ = self.offers(monkeypatch, step)
        report = solver(SampleOracle(mdp, 8), Plan.of(mdp, params))
        run = Run(mdp, 8, CFG, params.est_failure_prob)
        for v_new, pi_new in offered:
            run.keep_better(v_new, pi_new)
        assert len(offered) == steps
        assert (report.monotone_iterates_ok, report.greedy_dominance_ok) == \
            (run.monotone_ok, run.dominance_ok) == (True, False)
        assert report.v_hat.tobytes() == run.v.tobytes()
        assert report.pi_hat.tobytes() == run.pi.tobytes()

    def test_check_buffers_do_not_grow_with_steps(self, monkeypatch):
        mdp = fig_two(8, 0.5, {3})
        _, buffers = self.offers(monkeypatch)
        for eps in (1.0, 0.3):  # 164 and 306 steps
            variance_reduced_vi(SampleOracle(mdp, 9),
                                Plan.of(mdp, VarianceReducedParams.for_mdp(mdp, eps, 0.1)))
        assert len(buffers) == 1 and buffers.pop() <= 8 * (2 * solvers.CHECK_CELLS + 2)


class TestReportShape:
    def test_report_dict_round_trip_fields(self):
        mdp = fig_two(2, 1.0, {1})
        report = variance_reduced_vi(
            SampleOracle(mdp, 9), Plan.of(mdp, VarianceReducedParams.for_mdp(mdp, 1.0, 0.1)))
        doc = report.to_dict()
        assert set(doc) >= {"solver", "seed", "v_hat", "pi_hat", "q_hat", "ledger",
                            "params", "diagnostics"}
        assert doc["diagnostics"]["monotone_iterates_ok"] is True

    def test_phase_breakdown_labels(self):
        mdp = fig_two(2, 1.0, {1})
        report = variance_reduced_vi(
            SampleOracle(mdp, 9), Plan.of(mdp, VarianceReducedParams.for_mdp(mdp, 1.0, 0.1)))
        labels = set(report.ledger.phases)
        assert any(lbl.endswith("line-8") for lbl in labels)
        assert any(lbl.endswith("line-9") for lbl in labels)
        assert any(lbl.endswith("line-13") for lbl in labels)
        assert sum(report.ledger.phases.values()) == report.ledger.total


GUARD_SOLVES = {
    "variance-reduced": lambda o: variance_reduced_vi(
        o, Plan.of(o.mdp, VarianceReducedParams.for_mdp(o.mdp, 1.0, 0.1))),
    "max-finding": lambda o: max_finding_vi(
        o, Plan.of(o.mdp, MaxFindingParams.for_mdp(o.mdp, 1.0, 0.1))),
    "max-finding-statevector": lambda o: max_finding_vi(o, Plan.of(
        o.mdp, MaxFindingParams.for_mdp(o.mdp, 1.0, 0.1), EstimatorConfig(backend="statevector"))),
    "variance-reduced-statevector": lambda o: variance_reduced_vi(o, Plan.of(
        o.mdp, VarianceReducedParams.for_mdp(o.mdp, 1.0, 0.1),
        EstimatorConfig(backend="statevector"))),
    **{f"sampled-{mode}": (lambda o, mode=mode: sampled_vi(
        o, Plan.of(o.mdp, SampledParams.for_mdp(o.mdp, 1.0, 0.1, mode=mode))))
       for mode in solvers.SAMPLED_MODES},
}


# the solves that draw every range-bounded estimate and argmax in bulk on
# the S*A = 8 test instance: each derives a stream only to replay a batch
BULK_ONLY = {"max-finding", "sampled-quantum_mean", "sampled-quantum_mean_and_max"}


@pytest.mark.parametrize("name", sorted(GUARD_SOLVES))
def test_one_generator_per_oracle(monkeypatch, name):
    """A solve builds at most one Generator, its oracle's, the first time
    the oracle hands out a stream, and re-keys it for every later stream;
    every stream, replays included, is that Generator.  A solve in
    BULK_ONLY derives a stream only to replay a batch with a failed entry or
    a voided promise, and these solves have none, so they build no
    Generator at all; every other solve builds one per oracle."""
    real_keyed = qmdp.rng.keyed_rng
    built, streams, replayed_batches = [], [], []

    def keyed_spy(digest, reuse=None):  # every Generator is built or re-keyed here
        streams.append(real_keyed(digest, reuse))
        if reuse is None:
            built.append(streams[-1])
        return streams[-1]

    real_batch = solvers.batch_bounded_mock

    def batch_spy(*args, **kwargs):
        est, failed, violated = real_batch(*args, **kwargs)
        replayed_batches.append(bool(failed.any()) or violated)
        return est, failed, violated

    monkeypatch.setattr(qmdp.rng, "keyed_rng", keyed_spy)
    monkeypatch.setattr(qmdp.oracle, "keyed_rng", keyed_spy)
    monkeypatch.setattr(solvers, "batch_bounded_mock", batch_spy)
    mdp = fig_two(4, 1.0, {1})
    oracles = [SampleOracle(mdp, seed) for seed in (3, 4)]
    for oracle in oracles:
        GUARD_SOLVES[name](oracle)
    owned = {id(o._rng) for o in oracles if o._rng is not None}
    assert {id(g) for g in built} == {id(g) for g in streams} == owned
    assert len(built) == len(owned)
    if name in BULK_ONLY:
        assert len(replayed_batches) > 20 and not any(replayed_batches)
        assert built == [] and streams == []
    else:
        assert len(built) == 2 and len(streams) > 20


@pytest.mark.parametrize("name", ["variance-reduced", "max-finding", "sampled-quantum_mean"])
def test_bulk_streams_keyed_only_to_replay(monkeypatch, name):
    """With failures common, a bulk-drawn solve re-keys the oracle to the
    stream of each batch with a failed entry, in order, from the key's
    digest, and to no other stream besides the anchors' (lines 8 and 9),
    each epoch's three before its line-13 replays; it derives none."""
    mdp = fig_two(8, 0.5, {3})
    epochs = range(1, 2)  # one "epoch" for the solvers without anchors
    if name == "variance-reduced":
        params = dataclasses.replace(VarianceReducedParams.for_mdp(mdp, 0.5, 0.1),
                                     est_failure_prob=0.02)
        solve = lambda o: variance_reduced_vi(o, Plan.of(mdp, params))  # noqa: E731
        keys = list(itertools.product([2], ["vr"], range(1, params.num_epochs + 1),
                                      range(1, params.iters_per_epoch + 1), ["line13"]))
        epochs = range(1, params.num_epochs + 1)
    elif name == "max-finding":
        params = dataclasses.replace(MaxFindingParams.for_mdp(mdp, 0.5, 0.1),
                                     est_failure_prob=0.02)
        solve = lambda o: max_finding_vi(o, Plan.of(mdp, params))  # noqa: E731
        keys = list(itertools.product([2], ["mf"], range(1, params.iters + 1), ["line10"]))
    else:
        solve = lambda o: sampled_vi(  # noqa: E731
            o, Plan.of(o.mdp, SampledParams.for_mdp(o.mdp, 5.0, 0.99, mode="quantum_mean")))
        keys = list(itertools.product([2], ["svi"], range(1, 23)))
    derived, rekeyed, replayed = [], [], []
    real_keyed = SampleOracle.keyed_rng
    real_batch = solvers.batch_bounded_mock

    def keyed_spy(self, digest):
        rekeyed.append(digest)
        return real_keyed(self, digest)

    def batch_spy(*args, **kwargs):
        est, failed, violated = real_batch(*args, **kwargs)
        if not args[-1].endswith("line-8"):
            replayed.append(bool(failed.any()) or violated)
        return est, failed, violated

    monkeypatch.setattr(SampleOracle, "derive_rng", lambda self, *parts: derived.append(parts))
    monkeypatch.setattr(SampleOracle, "keyed_rng", keyed_spy)
    monkeypatch.setattr(solvers, "batch_bounded_mock", batch_spy)
    solve(SampleOracle(mdp, 2))
    assert len(replayed) == len(keys) and 0 < sum(replayed) < len(keys) / 2
    assert derived == []
    want = []
    for k in epochs:  # each epoch's anchors, then its line-13 replays
        if name == "variance-reduced":
            want += [key_digest(2, "vr", k, line) for line in ("line8-sq", "line8-mean", "line9")]
        want += [key_digest(*key) for key, replay in zip(keys, replayed)
                 if replay and (name != "variance-reduced" or key[2] == k)]
    assert rekeyed == want


# S*A = 2*40 = 80 > 64: no estimate is drawn in bulk, and a failed one is
# drawn on the stream it was keyed to
KEYED_ONCE = {
    "variance-reduced": lambda o, cfg: variance_reduced_vi(o, Plan.of(o.mdp, dataclasses.replace(
        VarianceReducedParams.for_mdp(o.mdp, 1.0, 0.1), est_failure_prob=0.3), cfg)),
    "max-finding": lambda o, cfg: max_finding_vi(o, Plan.of(o.mdp, dataclasses.replace(
        MaxFindingParams.for_mdp(o.mdp, 1.0, 0.1), est_failure_prob=0.3), cfg)),
    **{f"sampled-{mode}": (lambda o, cfg, mode=mode: sampled_vi(
        o, Plan.of(o.mdp, SampledParams.for_mdp(o.mdp, 1.0, 0.99, mode), cfg)))
       for mode in solvers.SAMPLED_MODES},
}


@pytest.mark.parametrize("backend", ["contract_mock", "statevector"])
@pytest.mark.parametrize("name", sorted(KEYED_ONCE))
def test_every_stream_keyed_once(monkeypatch, name, backend):
    """Every stream a solve reads is keyed from its digest exactly once, on
    S*A > 64 and with failures forced, and no stream is derived from a key
    tuple."""
    digests, derived = [], []
    real_keyed = qmdp.rng.keyed_rng

    def keyed_spy(digest, reuse=None):
        digests.append(digest)
        return real_keyed(digest, reuse)

    monkeypatch.setattr(qmdp.rng, "keyed_rng", keyed_spy)
    monkeypatch.setattr(qmdp.oracle, "keyed_rng", keyed_spy)
    monkeypatch.setattr(SampleOracle, "derive_rng", lambda self, *parts: derived.append(parts))
    report = KEYED_ONCE[name](SampleOracle(fig_two(40, 1.0, {3}), 6),
                              EstimatorConfig(backend=backend))
    assert len(digests) > 10 and len(set(digests)) == len(digests)
    assert derived == []
    if backend == "contract_mock" and not name.startswith("sampled"):
        assert report.estimator_failures > 0


PHASE_LABEL = re.compile(r"^(epoch|iter)-\d+(-line-\d+|-argmax)?$")


@pytest.mark.parametrize("name", sorted(GUARD_SOLVES))
def test_phase_labels_follow_one_grammar(name):
    """Every ledger phase key of a solve is epoch-k or iter-l, optionally
    followed by an algorithm line or the argmax sweep."""
    report = GUARD_SOLVES[name](SampleOracle(fig_two(4, 1.0, {1}), 3))
    labels = set(report.ledger.phases)
    assert labels and all(PHASE_LABEL.match(label) for label in labels), sorted(labels)


SV = EstimatorConfig(backend="statevector")
# name -> (instance, its params, estimator config, solver, the refusal): each
# depends only on (mdp, params, cfg), so the schedule raises it before any draw
REFUSALS = {
    "statevector-actions": (fig_two(128, 0.5, {1}), lambda m: MaxFindingParams.for_mdp(m, 0.5, 0.1),
                            SV, max_finding_vi, r"^statevector max finding supports at most 64"),
    "argmax-probes": (fig_two(8, 1.0, {3}),
                      lambda m: MaxFindingParams.for_mdp(m, 1.0, 0.1, c_max=1e9), SV,
                      max_finding_vi, r"^max-finding budget of \S+ probes exceeds MAX_ARGMAX"),
    "hoeffding-not-finite": (two_state_chain(0.9, 0.5),
                             lambda m: SampledParams.for_mdp(m, 1e-155, 0.1), CFG, sampled_vi,
                             r"^Hoeffding sample count for accuracy \S+ is not finite$"),
    "hoeffding-int64": (two_state_chain(0.999, 0.5),
                        lambda m: SampledParams.for_mdp(m, 0.001, 0.1), CFG, sampled_vi,
                        r"^classical sample count \d{21} per estimate exceeds 2\^63-1$"),
    "phase-bits-max-finding": (fig_two(4, 1.0, {1}),
                               lambda m: MaxFindingParams.for_mdp(m, 1e-5, 0.1), SV,
                               max_finding_vi, r"^statevector backend cannot reach relative"),
    "phase-bits-variance-reduced": (fig_two(4, 1.0, {1}),
                                    lambda m: VarianceReducedParams.for_mdp(m, 1.0, 0.1, c=1e-6),
                                    SV, variance_reduced_vi, r"^statevector backend cannot reach"),
    "phase-bits-sampled": (fig_two(4, 1.0, {1}),
                           lambda m: SampledParams.for_mdp(m, 1e-6, 0.1, mode="quantum_mean"), SV,
                           sampled_vi, r"^statevector backend cannot reach relative accuracy"),
    "c1-not-finite": (fig_two(8, 0.3, {3}), lambda m: MaxFindingParams.for_mdp(m, 0.3, 0.1),
                      EstimatorConfig(c1=1e308), max_finding_vi,
                      r"^range-bounded charge is not finite at c1 = 1e\+308$"),
    "c2-not-finite": (fig_two(8, 0.3, {3}), lambda m: VarianceReducedParams.for_mdp(m, 0.3, 0.1),
                      EstimatorConfig(c2=1e308), variance_reduced_vi,
                      r"^variance-bounded charge is not finite at c2 = 1e\+308$"),
    # params a library caller builds with an f that for_mdp refuses: amplification_reps refuses it
    "amplify-variance-reduced": (
        fig_two(2, 0.5, {1}), lambda m: dataclasses.replace(
            VarianceReducedParams.for_mdp(m, 0.5, 0.1), delta=1e-310, est_failure_prob=1e-314),
        CFG, variance_reduced_vi, r"^delta must be in \(0, 1\) with 3/delta finite, got 1e-314$"),
    "amplify-max-finding": (
        fig_two(2, 0.5, {1}), lambda m: dataclasses.replace(
            MaxFindingParams.for_mdp(m, 0.5, 0.1), delta=1e-310, est_failure_prob=1e-317),
        SV, max_finding_vi, r"^delta must be in \(0, 1\) with 3/delta finite, got 1e-317$"),
    "amplify-sampled": (
        two_state_chain(0.9, 0.5), lambda m: dataclasses.replace(
            SampledParams.for_mdp(m, 0.5, 0.1, mode="quantum_mean_and_max"), delta=1e-310),
        CFG, sampled_vi, r"^delta must be in \(0, 1\) with 3/delta finite, got \S+$"),
    # finite for one line-9 row, not summed over the S*A = 16 rows a solve charges
    "c2-1e301": (fig_two(8, 0.3, {3}), lambda m: VarianceReducedParams.for_mdp(m, 0.3, 0.1),
                 EstimatorConfig(c2=1e301), variance_reduced_vi,
                 r"^variance-bounded charge is not finite at c2 = 1e\+301$"),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_refusals_come_before_the_first_stream(monkeypatch, name):
    mdp, make_params, cfg, solve, message = REFUSALS[name]
    params = make_params(mdp)
    with pytest.raises(PreconditionError, match=message):
        params.schedule(mdp, cfg)
    keyed = []
    monkeypatch.setattr(SampleOracle, "keyed_rng", lambda self, digest: keyed.append(digest))
    oracle = SampleOracle(mdp, 1)
    with pytest.raises(PreconditionError, match=message):
        solve(oracle, Plan.of(mdp, params, cfg))
    assert keyed == [] and oracle.ledger.total == 0


@pytest.mark.parametrize("name,mode,delta", [("variance-reduced", None, 1e-310),
                                             ("max-finding", None, 1e-303),
                                             ("sampled", "quantum_mean", 1e-310),
                                             ("sampled", "quantum_mean_and_max", 1e-310)])
def test_delta_too_small_to_amplify_is_refused_by_name(name, mode, delta):
    # f = delta / (the schedule's estimates) is a subnormal whose 3/f overflows
    # (max finding's larger denominator takes f to 0 at 1e-310)
    make = {"variance-reduced": VarianceReducedParams.for_mdp, "max-finding": MaxFindingParams.for_mdp,
            "sampled": lambda m, eps, delta: SampledParams.for_mdp(m, eps, delta, mode=mode)}[name]
    with pytest.raises(PreconditionError, match=r"^delta (or c_max )?gives a per-estimate failure "
                                                r"probability \S+ too small to amplify: 3/f overflows$"):
        make(fig_two(2, 0.5, {1}), 0.5, delta)


def test_classical_baseline_keeps_its_hoeffding_refusal():
    # no amplification: a Hoeffding count refuses the same tiny delta in the schedule
    mdp = fig_two(2, 0.5, {1})
    params = SampledParams.for_mdp(mdp, 0.5, 1e-310)
    with pytest.raises(PreconditionError, match=r"^Hoeffding sample count for accuracy \S+ is not finite$"):
        params.schedule(mdp, CFG)


PARAMS_FOR_MDP = {  # (mdp, eps, delta) -> params; eps_max is sqrt(horizon) or horizon
    "variance-reduced": VarianceReducedParams.for_mdp,
    "max-finding": MaxFindingParams.for_mdp,
    "sampled": SampledParams.for_mdp,
}


@pytest.mark.parametrize("name", sorted(PARAMS_FOR_MDP))
@pytest.mark.parametrize("eps,delta,message", [
    (0.5, 0.0, r"^delta must be in \(0, 1\), got 0\.0$"),
    (0.5, 1.0, r"^delta must be in \(0, 1\), got 1\.0$"),
    (0.5, 3.0, r"^delta must be in \(0, 1\), got 3\.0$"),
    (0.5, float("nan"), r"^delta must be in \(0, 1\), got nan$"),
    (float("nan"), 0.1, r"^eps must lie in \(0, \S+\] = \(0, \S+\], got nan$"),
    (float("inf"), 0.1, r"^eps must lie in \(0, \S+\] = \(0, \S+\], got inf$"),
    (-0.1, 0.1, r"^eps must lie in \(0, \S+\] = \(0, \S+\], got -0\.1$"),
    # 4*horizon/eps is inf: every iteration count would take the log of it
    (1e-310, 0.1, r"^eps = 1e-310 overflows 4\*horizon/eps at horizon 10$"),
], ids=["delta-0", "delta-1", "delta-3", "delta-nan", "eps-nan", "eps-inf", "eps-negative",
        "eps-overflows"])
def test_eps_and_delta_rejected_with_name(name, eps, delta, message):
    # the estimators read eps and delta only through the schedule, so each
    # solver's parameters refuse them by name, NaN outside every range
    with pytest.raises(PreconditionError, match=message):
        PARAMS_FOR_MDP[name](fig_two(2, 0.5, {1}), eps, delta)
