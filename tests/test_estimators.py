"""Tests for the mean-estimation layer: contracts, charges, and backends."""

import math

import numpy as np
import pytest

from qmdp.errors import PreconditionError, PromiseViolationError
from qmdp.estimators import (
    EstimatorConfig,
    amplification_reps,
    bernstein_mean,
    bernstein_sample_count,
    bounded_mean,
    bounded_mean_charge,
    hoeffding_mean,
    hoeffding_sample_count,
    statevector_phase_bits,
    variance_bounded_mean,
    variance_mean_charge,
)
from qmdp.mdp import Mdp
from qmdp.oracle import SampleOracle
from qmdp.rng import derived_rng

CFG = EstimatorConfig()


def bernoulli_mdp(p):
    """Two states; action 0 from state 0 lands in state 1 w.p. p."""
    trans = np.array([[[1.0 - p, p]], [[0.0, 1.0]]])
    return Mdp(transitions=trans, rewards=np.zeros((2, 1)), discount=0.9)


def fresh_oracle(p=0.5, seed=0):
    return SampleOracle(bernoulli_mdp(p), seed)


def fit_slope(xs, ys):
    return np.polyfit(np.log(xs), np.log(ys), 1)[0]


class TestChargeFormulas:
    def test_bounded_base_example(self):
        # u=1, eps=0.01: ceil(100 + 10) = 110 base queries before amplification
        reps = amplification_reps(1 / 3)
        assert bounded_mean_charge(1.0, 0.01, 1 / 3, CFG) == 110 * reps

    def test_amplification_is_odd_and_grows(self):
        assert amplification_reps(1 / 3) % 2 == 1
        assert amplification_reps(0.01) > amplification_reps(0.3)

    def test_variance_charge_at_unit_ratio(self):
        # sigma/eps = 1 floors the log factor: base charge = ceil(c2)
        reps = amplification_reps(0.1)
        assert variance_mean_charge(1.0, 1.0, 0.1, CFG) == 1 * reps
        cfg = EstimatorConfig(c2=2.5)
        assert variance_mean_charge(1.0, 1.0, 0.1, cfg) == 3 * reps

    def test_hoeffding_example(self):
        # u=1, eps=0.1, delta=0.05: ceil(ln(40)/0.02) = 185
        assert hoeffding_sample_count(1.0, 0.1, 0.05) == 185

    def test_hoeffding_quartering(self):
        # halving eps quadruples the count, up to the ceilings on both sides
        n1 = hoeffding_sample_count(1.0, 0.2, 0.1)
        n2 = hoeffding_sample_count(1.0, 0.1, 0.1)
        assert 4 * (n1 - 1) <= n2 <= 4 * n1

    def test_bernstein_zero_variance_term(self):
        # sigma = 0 leaves the range term: ceil(2u ln(3/delta) / (3 eps))
        u, eps, delta = 2.0, 0.1, 0.1
        expected = math.ceil(2 * u * math.log(3 / delta) / (3 * eps))
        assert bernstein_sample_count(u, 0.0, eps, delta) == expected

    def test_bernstein_variance_dominated(self):
        # sigma/eps = 10 with negligible range term: about 200 ln(3/delta)
        n = bernstein_sample_count(1e-6, 1.0, 0.1, 0.1)
        assert n == pytest.approx(200 * math.log(30), rel=0.01)

    def test_bernstein_matches_hoeffding_order_when_sigma_is_u(self):
        u = eps_u = 1.0
        n_h = hoeffding_sample_count(u, 0.05, 0.1)
        n_b = bernstein_sample_count(u, u, 0.05, 0.1)
        assert 0.2 <= n_b / n_h <= 5.0

    def test_query_monotonicity(self):
        base = bounded_mean_charge(1.0, 0.1, 0.1, CFG)
        assert bounded_mean_charge(1.0, 0.05, 0.1, CFG) >= base  # smaller eps
        assert bounded_mean_charge(2.0, 0.1, 0.1, CFG) >= base  # larger range
        assert bounded_mean_charge(1.0, 0.1, 0.01, CFG) >= base  # smaller delta
        vbase = variance_mean_charge(1.0, 0.1, 0.1, CFG)
        assert variance_mean_charge(2.0, 0.1, 0.1, CFG) >= vbase
        assert variance_mean_charge(1.0, 0.05, 0.1, CFG) >= vbase
        assert variance_mean_charge(1.0, 0.1, 0.02, CFG) >= vbase

    def test_quantum_charge_slope(self):
        # formula-level scaling in 1/eps of the leading term.  The charge is
        # ceil(c1 (u/eps + sqrt(u/eps))) * reps(delta); the sqrt(u/eps) term
        # is the amplitude-estimation radius's pi^2/M^2 part (pinned by
        # test_bounded_base_example), 11-24% of the charge at u/eps in
        # [10, 80], and it drags the raw fitted exponent to 0.89.  Dividing
        # out reps(delta) * (1 + sqrt(eps/u)) leaves the 1/eps term.
        u, delta = 1.0, 0.1
        eps_grid = [0.1, 0.05, 0.025, 0.0125]
        charges = [bounded_mean_charge(u, e, delta, CFG) for e in eps_grid]
        divided = [q / (amplification_reps(delta) * (1.0 + math.sqrt(e / u)))
                   for q, e in zip(charges, eps_grid)]
        raw = fit_slope([1 / e for e in eps_grid], charges)
        slope = fit_slope([1 / e for e in eps_grid], divided)
        assert 0.9 <= slope <= 1.1, (
            f"bounded-mean charge slope {slope:.4f} (raw {raw:.4f})")

    def test_classical_charge_slope(self):
        eps_grid = [0.1, 0.05, 0.025, 0.0125]
        counts = [hoeffding_sample_count(1.0, e, 0.1) for e in eps_grid]
        slope = fit_slope([1 / e for e in eps_grid], counts)
        assert 1.9 <= slope <= 2.1, f"hoeffding count slope {slope:.4f}"


class TestBoundedMeanMock:
    def test_constant_map_within_eps(self):
        oracle = fresh_oracle(0.3, seed=1)
        for _ in range(200):
            est = bounded_mean(oracle, 0, 0, np.array([0.7, 0.7]), 1.0, 0.05, 0.5, CFG)
            if not est.mock_failed:
                assert abs(est.value - 0.7) < 0.05

    def test_point_mass_row(self):
        oracle = SampleOracle(bernoulli_mdp(1.0), 2)  # always lands in state 1
        est = bounded_mean(oracle, 0, 0, np.array([0.2, 0.9]), 1.0, 0.03, 0.1, CFG)
        assert abs(est.value - 0.9) < 0.03 or est.mock_failed

    def test_ledger_charges(self):
        oracle = fresh_oracle(0.5, seed=3)
        est = bounded_mean(oracle, 0, 0, np.zeros(2), 1.0, 0.1, 0.1, CFG, phase="ph")
        assert oracle.ledger.quantum_oracle_calls == est.queries_charged
        assert oracle.ledger.phases["ph"] == est.queries_charged

    def test_mock_soundness_uniform_noise(self):
        # empirical in-radius fraction tracks 1 - delta up to binomial noise
        delta = 0.2
        cfg = EstimatorConfig(mock_failure_mode="uniform_noise")
        oracle = fresh_oracle(0.4, seed=4)
        v = np.array([0.1, 0.9])
        mu = 0.6 * 0.1 + 0.4 * 0.9
        hits = 0
        trials = 10000
        for _ in range(trials):
            est = bounded_mean(oracle, 0, 0, v, 1.0, 0.02, delta, cfg)
            hits += abs(est.value - mu) < 0.02
        freq = hits / trials
        sigma = math.sqrt(delta * (1 - delta) / trials)
        assert freq >= 1.0 - delta - 4 * sigma

    def test_mock_soundness_adversarial(self):
        # adversarial failures always land outside the radius, so the hit
        # rate is a clean Binomial(1 - delta)
        delta = 0.25
        oracle = fresh_oracle(0.4, seed=5)
        v = np.array([0.1, 0.9])
        mu = 0.6 * 0.1 + 0.4 * 0.9
        hits = 0
        trials = 10000
        for _ in range(trials):
            est = bounded_mean(oracle, 0, 0, v, 1.0, 0.02, delta, CFG)
            hits += abs(est.value - mu) < 0.02
        freq = hits / trials
        sigma = math.sqrt(delta * (1 - delta) / trials)
        assert abs(freq - (1 - delta)) <= 4 * sigma

    @pytest.mark.parametrize("field,value", [("c1", 0.0), ("c1", math.nan), ("c2", math.inf),
                                             ("c2", -1.0)])
    def test_cost_constants_positive_and_finite(self, field, value):
        with pytest.raises(PreconditionError, match="c1, c2"):
            EstimatorConfig(**{field: value})

    @pytest.mark.parametrize("scale", [1.0, 0.5, 0.0, -2.0, math.inf, math.nan])
    def test_adversarial_scale_must_exceed_one(self, scale):
        # at scale <= 1 a planted failure lands inside the promised radius
        with pytest.raises(PreconditionError, match="adversarial_scale"):
            EstimatorConfig(adversarial_scale=scale)

    def test_promise_violation_strict_raises(self):
        oracle = fresh_oracle(0.5, seed=6)
        with pytest.raises(PromiseViolationError):
            bounded_mean(oracle, 0, 0, np.array([0.5, 1.5]), 1.0, 0.1, 0.1, CFG)

    def test_promise_violation_flagged_when_not_strict(self):
        oracle = fresh_oracle(0.5, seed=7)
        est = bounded_mean(oracle, 0, 0, np.array([0.5, 1.5]), 1.0, 0.1, 0.1, CFG,
                           strict=False)
        assert est.promise_violated and est.mock_failed

    def test_eps_validation(self):
        oracle = fresh_oracle()
        with pytest.raises(PreconditionError):
            bounded_mean(oracle, 0, 0, np.zeros(2), 1.0, 0.0, 0.1, CFG)


class TestVarianceBoundedMean:
    def test_eps_window_rejected_at_boundary(self):
        oracle = fresh_oracle(0.5, seed=8)
        with pytest.raises(PreconditionError):
            variance_bounded_mean(oracle, 0, 0, np.zeros(2), sigma=0.5, eps=2.0,
                                  delta=0.1, cfg=CFG)

    def test_constant_map_any_sigma(self):
        oracle = fresh_oracle(0.5, seed=9)
        for _ in range(100):
            est = variance_bounded_mean(oracle, 0, 0, np.full(2, 0.4), sigma=1.0,
                                        eps=0.05, delta=0.3, cfg=CFG)
            if not est.mock_failed:
                assert abs(est.value - 0.4) < 0.05
            assert not est.promise_violated  # zero variance within any bound

    def test_variance_breach_is_surfaced_not_raised(self):
        oracle = fresh_oracle(0.5, seed=10)
        # fair coin over values {0, 1}: variance 0.25 > sigma^2 = 0.01
        est = variance_bounded_mean(oracle, 0, 0, np.array([0.0, 1.0]), sigma=0.1,
                                    eps=0.05, delta=0.1, cfg=CFG)
        assert est.promise_violated

    def test_charge_uses_ratio(self):
        oracle = fresh_oracle(0.5, seed=11)
        est = variance_bounded_mean(oracle, 0, 0, np.array([0.0, 1.0]), sigma=2.0,
                                    eps=0.25, delta=0.1, cfg=CFG)
        assert est.queries_charged == variance_mean_charge(2.0, 0.25, 0.1, CFG)


class TestStatevectorBackend:
    def test_phase_bit_selection(self):
        t = statevector_phase_bits(0.01)
        assert math.pi / 2**t + math.pi**2 / 4**t <= 0.01
        assert math.pi / 2 ** (t - 1) + math.pi**2 / 4 ** (t - 1) > 0.01

    def test_accuracy_too_fine_rejected(self):
        with pytest.raises(PreconditionError):
            statevector_phase_bits(1e-9)

    def test_config_override(self):
        assert statevector_phase_bits(0.01, EstimatorConfig(phase_bits=10)) == 10

    @pytest.mark.parametrize("bits", [0, -3, 25, True, 10.0, "10"])
    def test_phase_bits_checked_at_construction(self, bits):
        with pytest.raises(PreconditionError, match="phase_bits"):
            EstimatorConfig(phase_bits=bits)

    @pytest.mark.parametrize("bits", [1, 24, np.int64(12)])
    def test_phase_bits_range_accepted(self, bits):
        assert EstimatorConfig(phase_bits=bits).phase_bits == bits

    def test_bernoulli_soundness(self):
        # estimate E[v] on Bernoulli rows via amplitude estimation: the
        # contract radius holds in at least 1 - delta of trials
        cfg = EstimatorConfig(backend="statevector", phase_bits=10)
        delta = 0.1
        for p in (0.1, 0.7):
            oracle = SampleOracle(bernoulli_mdp(p), 12)
            v = np.array([0.0, 1.0])
            hits = 0
            trials = 2000
            eps = 0.01  # within reach of t=10: pi/1024 + pi^2/2^20 < 0.0031 < eps
            for _ in range(trials):
                est = bounded_mean(oracle, 0, 0, v, 1.0, eps, delta, cfg)
                hits += abs(est.value - p) < eps
            assert hits / trials >= 1.0 - delta

    def test_measured_charges(self):
        cfg = EstimatorConfig(backend="statevector", phase_bits=8)
        oracle = fresh_oracle(0.5, seed=13)
        est = bounded_mean(oracle, 0, 0, np.array([0.0, 1.0]), 1.0, 0.05, 0.2, cfg)
        assert est.backend == "statevector"
        assert est.queries_charged == (2**8 - 1) * amplification_reps(0.2)
        assert oracle.ledger.quantum_oracle_calls == est.queries_charged

    def test_mock_charge_calibrated_against_measurement(self):
        # the honest backend's measured counts anchor the mock's cost
        # constant: at matched (u, eps, delta) the two charges stay within
        # one order of magnitude at default c1
        cfg_sv = EstimatorConfig(backend="statevector")
        for eps in (0.05, 0.02, 0.01, 0.005):
            oracle = fresh_oracle(0.5, seed=18)
            measured = bounded_mean(oracle, 0, 0, np.array([0.0, 1.0]), 1.0, eps,
                                    0.1, cfg_sv).queries_charged
            formula = bounded_mean_charge(1.0, eps, 0.1, CFG)
            assert 1.0 <= measured / formula <= 10.0


class TestClassicalEstimators:
    def test_hoeffding_charges_and_accuracy(self):
        oracle = fresh_oracle(0.3, seed=14)
        v = np.array([0.0, 1.0])
        est = hoeffding_mean(oracle, 0, 0, v, 1.0, 0.02, 0.05)
        assert est.queries_charged == hoeffding_sample_count(1.0, 0.02, 0.05)
        assert oracle.ledger.classical_samples == est.queries_charged
        assert abs(est.value - 0.3) < 0.02  # wide margin at this n

    def test_hoeffding_deterministic_row_is_exact(self):
        oracle = SampleOracle(bernoulli_mdp(1.0), 15)
        est = hoeffding_mean(oracle, 0, 0, np.array([0.25, 0.75]), 1.0, 0.1, 0.1)
        assert est.value == 0.75

    def test_bernstein_accuracy(self):
        oracle = fresh_oracle(0.5, seed=16)
        v = np.array([0.0, 1.0])
        est = bernstein_mean(oracle, 0, 0, v, upper=1.0, sigma=0.5, eps=0.02, delta=0.05)
        assert est.backend == "classical_bernstein"
        assert abs(est.value - 0.5) < 0.02

    def test_reproducible_sequences(self):
        a, b = fresh_oracle(0.4, seed=17), fresh_oracle(0.4, seed=17)
        va = [hoeffding_mean(a, 0, 0, np.array([0.0, 1.0]), 1.0, 0.1, 0.2).value
              for _ in range(5)]
        vb = [hoeffding_mean(b, 0, 0, np.array([0.0, 1.0]), 1.0, 0.1, 0.2).value
              for _ in range(5)]
        assert va == vb
