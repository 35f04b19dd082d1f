"""Tests for the mean-estimation layer: contracts, charges, and backends."""

import hashlib
import itertools
import math

import numpy as np
import pytest

import qmdp.estimators as est_mod
import qmdp.rng
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
from qmdp.qsim import median_amplitude_estimates
from qmdp.rng import KeyTemplate, derived_rng

CFG = EstimatorConfig()


def key_digest(*parts):
    """The key format, written out: the 16-byte blake2b digest of the key's
    parts, the seed first, as text joined by "\x1f"."""
    text = "\x1f".join(p if isinstance(p, str) else str(int(p)) for p in parts)
    return hashlib.blake2b(text.encode(), digest_size=16).digest()


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

    @pytest.mark.parametrize("eps", [1e-155, 1e-170])
    def test_counts_past_float_range_raise(self, eps):
        # 1e-155: the count overflows to inf; 1e-170: eps**2 underflows to 0
        with pytest.raises(PreconditionError, match="Hoeffding sample count for accuracy"):
            hoeffding_sample_count(10.0, eps, 0.1)
        with pytest.raises(PreconditionError, match="Bernstein sample count for accuracy"):
            bernstein_sample_count(10.0, 1.0, eps, 0.1)

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


# Recorded scalar estimates: any change that moves a scalar estimator's draw,
# charge or flags shows up here.  Values are float.hex of MeanEstimate.value.
PIN_MDP = Mdp(
    transitions=np.array([[[0.5, 0.25, 0.25], [0.125, 0.375, 0.5]],
                          [[0.0, 1.0, 0.0], [0.75, 0.0, 0.25]],
                          [[0.25, 0.25, 0.5], [0.0, 0.5, 0.5]]]),
    rewards=np.zeros((3, 2)), discount=0.9)
PIN_V = np.array([0.2, 0.9, 0.55])
PIN_WIDE = np.array([0.0, 1.0, 0.3])
PIN_ROWS = ((0, 0), (1, 1), (2, 0), (0, 1))
SV = EstimatorConfig(backend="statevector")

PINNED_CALLS = {
    "bounded-adversarial": lambda o, s, a: bounded_mean(o, s, a, PIN_V, 1.0, 0.05, 0.4),
    "bounded-uniform-noise": lambda o, s, a: bounded_mean(
        o, s, a, PIN_V, 1.0, 0.05, 0.4, EstimatorConfig(mock_failure_mode="uniform_noise")),
    "bounded-statevector": lambda o, s, a: bounded_mean(o, s, a, PIN_V, 1.0, 0.05, 0.2, SV),
    "bounded-not-strict": lambda o, s, a: bounded_mean(
        o, s, a, PIN_V + 0.5, 1.0, 0.05, 0.4, strict=False),
    "bounded-statevector-not-strict": lambda o, s, a: bounded_mean(
        o, s, a, PIN_V + 0.5, 1.0, 0.05, 0.2, SV, strict=False),
    "variance-bounded": lambda o, s, a: variance_bounded_mean(
        o, s, a, PIN_WIDE, 0.3, 0.05, 0.4),
    "hoeffding": lambda o, s, a: hoeffding_mean(o, s, a, PIN_V, 1.0, 0.05, 0.1),
    "bernstein": lambda o, s, a: bernstein_mean(o, s, a, PIN_WIDE, 1.0, 0.3, 0.05, 0.1),
}

# (value hex, error_radius, confidence, queries_charged, backend, mock_failed,
#  promise_violated) per row of PIN_ROWS, from one oracle with seed 7
PINNED = {
    "bounded-adversarial": (
        ("0x1.ecccccccccccdp-1", 0.05, 0.6, 175, "contract_mock", True, False),
        ("-0x1.b333333333332p-3", 0.05, 0.6, 175, "contract_mock", True, False),
        ("0x1.0cccccccccccdp+0", 0.05, 0.6, 175, "contract_mock", True, False),
        ("0x1.38e2a2b04f106p-1", 0.05, 0.6, 175, "contract_mock", False, False),
    ),
    "bounded-uniform-noise": (
        ("0x1.8d6d03689474cp-3", 0.05, 0.6, 175, "contract_mock", True, False),
        ("-0x1.2d75be94df1aap-3", 0.05, 0.6, 175, "contract_mock", True, False),
        ("0x1.53632df930bfap-1", 0.05, 0.6, 175, "contract_mock", True, False),
        ("0x1.38e2a2b04f106p-1", 0.05, 0.6, 175, "contract_mock", False, False),
    ),
    "bounded-statevector": (
        ("0x1.cdd0b287ac979p-2", 0.05, 0.8, 1143, "statevector", False, False),
        ("0x1.25177fb0f519fp-2", 0.05, 0.8, 1143, "statevector", False, False),
        ("0x1.1917a6bc29b41p-1", 0.05, 0.8, 1143, "statevector", False, False),
        ("0x1.4a5018bb567c0p-1", 0.05, 0.8, 1143, "statevector", False, False),
    ),
    "bounded-not-strict": (
        ("0x1.7666666666666p+0", 0.05, 0.6, 175, "contract_mock", True, True),
        ("0x1.2666666666664p-2", 0.05, 0.6, 175, "contract_mock", True, True),
        ("0x1.8ccccccccccccp+0", 0.05, 0.6, 175, "contract_mock", True, True),
        ("0x1.4666666666666p-1", 0.05, 0.6, 175, "contract_mock", True, True),
    ),
    "bounded-statevector-not-strict": (
        ("0x1.ec835e79946a3p-1", 0.05, 0.8, 1143, "statevector", False, True),
        ("0x1.8e39d9cd73465p-1", 0.05, 0.8, 1143, "statevector", False, True),
        ("0x1.0000000000000p+0", 0.05, 0.8, 1143, "statevector", False, True),
        ("0x1.0000000000000p+0", 0.05, 0.8, 1143, "statevector", False, True),
    ),
    "variance-bounded": (
        ("0x1.a666666666666p-1", 0.05, 0.6, 287, "contract_mock", True, True),
        ("-0x1.b333333333333p-2", 0.05, 0.6, 287, "contract_mock", True, False),
        ("0x1.ccccccccccccdp-1", 0.05, 0.6, 287, "contract_mock", True, True),
        ("0x1.fe92122d6aedap-2", 0.05, 0.6, 287, "contract_mock", False, True),
    ),
    "hoeffding": (
        ("0x1.e02bb0cf87d9dp-2", 0.05, 0.9, 600, "classical_hoeffding", False, False),
        ("0x1.1e098ead65b7bp-2", 0.05, 0.9, 600, "classical_hoeffding", False, False),
        ("0x1.1e147ae147ae1p-1", 0.05, 0.9, 600, "classical_hoeffding", False, False),
        ("0x1.3e5604189374cp-1", 0.05, 0.9, 600, "classical_hoeffding", False, False),
    ),
    "bernstein": (
        ("0x1.5e7b836e51496p-2", 0.05, 0.9, 291, "classical_bernstein", False, True),
        ("0x1.0e40655826011p-4", 0.05, 0.9, 291, "classical_bernstein", False, False),
        ("0x1.acf43630e9a7ap-2", 0.05, 0.9, 291, "classical_bernstein", False, True),
        ("0x1.05ce622d64d11p-1", 0.05, 0.9, 291, "classical_bernstein", False, True),
    ),
}


class TestPinnedScalarEstimates:
    @pytest.mark.parametrize("name", sorted(PINNED_CALLS))
    def test_recorded_fields(self, name):
        oracle = SampleOracle(PIN_MDP, 7)
        got = []
        for s, a in PIN_ROWS:
            est = PINNED_CALLS[name](oracle, s, a)
            got.append((est.value.hex(), est.error_radius, est.confidence,
                        est.queries_charged, est.backend, est.mock_failed,
                        est.promise_violated))
        assert tuple(got) == PINNED[name]

    @pytest.mark.parametrize("c2", [1.0, 2.5])
    def test_variance_charge_matches_array_formula(self, c2):
        # the scalar charge, entry by entry and summed, equals the
        # batched formula ceil(c2 r log2^2(max(r, 2))) * reps(delta)
        cfg = EstimatorConfig(c2=c2)
        sigma, eps = np.meshgrid([0.01, 0.3, 0.7071067811865476, 1.0, 2.5, 3.0, 10.0, 100.0],
                                 [0.001, 0.05, 0.123, 0.3, 1.0, 4.0], indexing="ij")
        ratio = sigma / eps
        base = np.ceil(c2 * ratio * np.log2(np.maximum(ratio, 2.0)) ** 2)
        for delta in (1e-6, 0.01, 0.1, 0.5):
            reps = amplification_reps(delta)
            scalar = [variance_mean_charge(float(s), float(e), delta, cfg)
                      for s, e in zip(sigma.ravel(), eps.ravel())]
            assert scalar == [int(b) * reps for b in base.ravel()]
            assert sum(scalar) == int(base.sum()) * reps


ZERO = np.zeros(2)
SCALAR_ESTIMATORS = {  # (oracle, upper or sigma, eps, delta) -> MeanEstimate
    "bounded": lambda o, u, eps, delta: bounded_mean(o, 0, 0, ZERO, u, eps, delta),
    "variance-bounded": lambda o, u, eps, delta: variance_bounded_mean(
        o, 0, 0, ZERO, u, eps, delta),
    "hoeffding": lambda o, u, eps, delta: hoeffding_mean(o, 0, 0, ZERO, u, eps, delta),
    "bernstein": lambda o, u, eps, delta: bernstein_mean(o, 0, 0, ZERO, u, 0.5, eps, delta),
}


class TestScalarArguments:
    """Every scalar estimator rejects out-of-range arguments with a
    PreconditionError naming the argument (upper doubles as sigma for the
    variance-bounded estimator)."""

    @pytest.mark.parametrize("name", sorted(SCALAR_ESTIMATORS))
    @pytest.mark.parametrize("upper,eps,delta,message", [
        (1.0, 0.1, 0.0, r"delta must be in \(0, 1\), got 0\.0"),
        (1.0, 0.1, 1.0, r"delta must be in \(0, 1\), got 1\.0"),
        (1.0, 0.1, 3.0, r"delta must be in \(0, 1\), got 3\.0"),
        (1.0, 0.1, math.nan, r"delta must be in \(0, 1\), got nan"),
        (1.0, math.nan, 0.1, r"eps must be positive and finite, got nan"),
        (1.0, math.inf, 0.1, r"eps must be positive and finite, got inf"),
        (1.0, -0.1, 0.1, r"eps must be positive and finite, got -0\.1"),
        (math.nan, 0.1, 0.1, r"(upper|sigma) must be (positive|non-negative) and finite, got nan"),
        (math.inf, 0.1, 0.1, r"(upper|sigma) must be (positive|non-negative) and finite, got inf"),
    ])
    def test_rejected_with_name(self, name, upper, eps, delta, message):
        oracle = fresh_oracle(0.5, seed=19)
        with pytest.raises(PreconditionError, match=message):
            SCALAR_ESTIMATORS[name](oracle, upper, eps, delta)
        assert oracle.ledger.total == 0

    @pytest.mark.parametrize("name", ["bounded", "hoeffding", "bernstein"])
    def test_zero_upper_rejected(self, name):
        with pytest.raises(PreconditionError, match=r"upper must be positive and finite"):
            SCALAR_ESTIMATORS[name](fresh_oracle(), 0.0, 0.1, 0.1)

    def test_bernstein_sigma_nan_rejected(self):
        with pytest.raises(PreconditionError, match=r"sigma must be non-negative and finite"):
            bernstein_mean(fresh_oracle(), 0, 0, np.zeros(2), 1.0, math.nan, 0.1, 0.1)


NONFINITE_MAP_CALLS = {  # (oracle, values) -> MeanEstimate
    "bounded": lambda o, v: bounded_mean(o, 0, 0, v, 1.0, 0.1, 0.1),
    "bounded-not-strict": lambda o, v: bounded_mean(o, 0, 0, v, 1.0, 0.1, 0.1, strict=False),
    "variance-bounded": lambda o, v: variance_bounded_mean(o, 0, 0, v, 1.0, 0.1, 0.1),
    "hoeffding": lambda o, v: hoeffding_mean(o, 0, 0, v, 1.0, 0.1, 0.1),
    "bernstein": lambda o, v: bernstein_mean(o, 0, 0, v, 1.0, 0.5, 0.1, 0.1),
}


class TestNonFiniteValueMap:
    """A NaN or infinite value map entry is rejected by name, before the
    scalar estimator draws from its stream or charges the ledger."""

    @pytest.mark.parametrize("name", sorted(NONFINITE_MAP_CALLS))
    @pytest.mark.parametrize("values,message", [
        ([math.nan, 1.0], r"value map\[0\] = nan is not finite"),
        ([0.5, math.inf], r"value map\[1\] = inf is not finite"),
        ([-math.inf, math.nan], r"value map\[0\] = -inf is not finite"),
    ])
    def test_rejected_before_draw_or_charge(self, name, values, message):
        oracle = fresh_oracle(0.5, seed=23)
        with pytest.raises(PreconditionError, match=message):
            NONFINITE_MAP_CALLS[name](oracle, values)
        assert oracle.ledger.total == 0 and oracle.ledger.phases == {}
        # the stream counter did not move: the next call draws as a fresh oracle's
        assert NONFINITE_MAP_CALLS[name](oracle, [0.25, 1.0]) == \
            NONFINITE_MAP_CALLS[name](fresh_oracle(0.5, seed=23), [0.25, 1.0])


def reference_estimate(mu, upper, eps, delta, cfg, rng, forced=False, sigma=None):
    """The estimator core as it drew before the unread planted-failure draws
    were skipped, kept verbatim: every draw it returns is pinned to it."""
    if sigma is None and cfg.backend == est_mod.BACKEND_STATEVECTOR:
        t = statevector_phase_bits(float(np.min(eps)) / upper, cfg)
        reps = amplification_reps(delta)
        a = np.clip(mu / upper, 0.0, 1.0)
        est = upper * median_amplitude_estimates(a, t, reps, rng).reshape(a.shape)
        return est, np.full(est.shape, forced), ((1 << t) - 1) * reps * est.size
    if sigma is not None and (np.any(eps <= 0.0) or np.any(eps >= 4.0 * sigma)):
        raise PreconditionError("variance-bounded estimator needs eps in (0, 4*sigma) per row")
    shape = np.shape(mu)
    fail = (rng.random(shape) < delta) | forced
    noise = rng.uniform(-1.0, 1.0, shape) * eps
    sign = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    spread = rng.uniform(-1.0, 1.0, shape)
    planted = sign if cfg.mock_failure_mode == "adversarial_edge" else spread
    est = mu + np.where(fail, cfg.adversarial_scale * eps * planted, noise)
    if sigma is not None:
        return est, fail, est_mod.variance_mean_charge(sigma, eps, delta, cfg)
    return est, fail, est_mod.bounded_mean_charge(upper, float(np.min(eps)), delta, cfg) * est.size


def _outcome(est, failed, charge):
    return (est.dtype, est.shape, est.tobytes(), failed.dtype, failed.tobytes(),
            type(charge), charge)


class TestSameDraws:
    """``_estimate`` returns byte for byte what the verbatim core returns,
    on the same stream key, over every input kind its callers pass."""

    @pytest.fixture(autouse=True)
    def _reps_at_any_delta(self, monkeypatch):
        # delta 0 and 1 have no repetition count; the charge is not under
        # test here, so give them one and keep the draws comparable
        reps = amplification_reps
        monkeypatch.setattr(est_mod, "amplification_reps",
                            lambda d: reps(d) if 0.0 < d < 1.0 else 1)

    @pytest.mark.parametrize("shape", [(1,), (2, 8), (128, 16)])
    @pytest.mark.parametrize("delta", [0.0, 1e-6, 0.3, 1.0])
    @pytest.mark.parametrize("forced", [False, True])
    @pytest.mark.parametrize("mode", ["adversarial_edge", "uniform_noise"])
    @pytest.mark.parametrize("kind", ["bounded-scalar-eps", "bounded-row-eps", "variance"])
    def test_mock_matches_verbatim_core(self, shape, delta, forced, mode, kind):
        cfg = EstimatorConfig(mock_failure_mode=mode)
        keys = derived_rng(31, "same-draws", *shape)
        mu = keys.random(shape) * 5.0
        upper, sigma = 5.0, None
        if kind == "bounded-scalar-eps":
            eps = 0.25
        else:
            eps = 0.05 + keys.random(shape) * 0.5
        if kind == "variance":
            upper, forced, sigma = None, False, 0.2 + keys.random(shape)
        label = (kind, mode, int(forced), str(delta), *shape)
        got = est_mod._estimate(mu, upper, eps, delta, cfg, derived_rng(32, *label),
                                forced, sigma)
        want = reference_estimate(mu, upper, eps, delta, cfg, derived_rng(32, *label),
                                  forced, sigma)
        assert _outcome(*got) == _outcome(*want)

    @pytest.mark.parametrize("shape", [(1,), (2, 8), (16, 4)])
    @pytest.mark.parametrize("delta", [1e-6, 0.3])
    @pytest.mark.parametrize("forced", [False, True])
    def test_statevector_matches_verbatim_core(self, shape, delta, forced):
        cfg = EstimatorConfig(backend="statevector")
        keys = derived_rng(33, "same-draws", *shape)
        # exact zeros and repeats exercise the grid-free and shared-grid groups
        mu = np.where(keys.random(shape) < 0.3, 0.0, np.round(keys.random(shape), 1))
        for eps in (0.1, 0.1 + keys.random(shape) * 0.2):
            label = ("sv", int(forced), str(delta), *shape)
            got = est_mod._estimate(mu, 1.0, eps, delta, cfg, derived_rng(34, *label), forced)
            want = reference_estimate(mu, 1.0, eps, delta, cfg, derived_rng(34, *label), forced)
            assert _outcome(*got) == _outcome(*want)

    def test_no_failure_skips_planted_draws(self):
        # with nothing failing the planted arrays are never drawn: the stream
        # stops after the flags and the noise
        rng = derived_rng(35, "skip")
        est_mod._estimate(np.zeros((2, 8)), 1.0, 0.1, 0.0, CFG, rng)
        ref = derived_rng(35, "skip")
        ref.random((2, 8))
        ref.uniform(-1.0, 1.0, (2, 8))
        np.testing.assert_array_equal(rng.random(4), ref.random(4))


class TestMockRows:
    """``mock_rows`` draws each stream's flags and noise ahead; ``_estimate``
    on a row returns byte for byte what it returns on the row's stream."""

    @pytest.mark.parametrize("delta", [1e-6, 0.05, 0.3, 0.9])
    @pytest.mark.parametrize("forced", [False, True])
    @pytest.mark.parametrize("mode", ["adversarial_edge", "uniform_noise"])
    @pytest.mark.parametrize("per_pass", [1, 4, 100])
    def test_rows_equal_their_streams(self, monkeypatch, delta, forced, mode, per_pass):
        monkeypatch.setattr(qmdp.rng, "PASS_WORDS", 24 * per_pass)  # 2*S*A = 24 words a stream
        cfg = EstimatorConfig(mock_failure_mode=mode)
        keys = derived_rng(36, "rows")
        mdp = Mdp(keys.dirichlet(np.ones(3), size=(3, 4)), np.zeros((3, 4)), 0.9)
        oracle = SampleOracle(mdp, 37)
        template = KeyTemplate((37, "t", range(1, 4), range(5), "rows"))
        upper, eps = [1.0, 2.0, 4.0], [0.1, 0.05, 0.2]
        rows = list(est_mod.mock_rows(oracle, template, upper, eps, delta, cfg))
        assert len(rows) == len(template) == 15
        for key, row in zip(itertools.product([37], ["t"], range(1, 4), range(5), ["rows"]),
                            rows, strict=True):
            k = key[2] - 1
            mu = keys.random((3, 4)) * upper[k]
            got = est_mod._estimate(mu, upper[k], eps[k], delta, cfg, row, forced)
            want = est_mod._estimate(mu, upper[k], eps[k], delta, cfg, derived_rng(*key), forced)
            assert _outcome(*got) == _outcome(*want)
            assert row.failed == bool((derived_rng(*key).random((3, 4)) < delta).any())

    def test_scalar_bounds_and_replays_through_the_oracle(self, monkeypatch):
        # scalar upper and eps serve every key, 7 streams of 8 words per
        # pass; only a failed row re-keys the oracle, from its key's digest
        monkeypatch.setattr(qmdp.rng, "PASS_WORDS", 56)
        oracle = SampleOracle(Mdp(np.full((2, 2, 2), 0.5), np.zeros((2, 2)), 0.9), 38)
        rekeyed = []
        real = SampleOracle.keyed_rng
        monkeypatch.setattr(SampleOracle, "keyed_rng",
                            lambda self, digest: rekeyed.append(digest) or real(self, digest))
        template = KeyTemplate((38, "svi", range(1, 41)))
        mu = np.full((2, 2), 0.5)
        failed = []
        for key, row in zip(itertools.product([38], ["svi"], range(1, 41)),
                            est_mod.mock_rows(oracle, template, 1.0, 0.1, 0.1, CFG), strict=True):
            want = est_mod._estimate(mu, 1.0, 0.1, 0.1, CFG, derived_rng(*key))
            assert _outcome(*est_mod._estimate(mu, 1.0, 0.1, 0.1, CFG, row)) == _outcome(*want)
            if row.failed:
                failed.append(key_digest(*key))
            assert row.charge == est_mod.bounded_mean_charge(1.0, 0.1, 0.1, CFG) * 4
        assert rekeyed == failed and 0 < len(failed) < 40


class TestRangeCheck:
    @pytest.mark.parametrize("v", [
        [0.5, math.nan], [math.nan, -1.0], [2.0, math.nan], [math.nan, math.nan],
        [-1.0, 2.0], [0.0, 1.0], [1.0 + 1e-10, 0.0], [[0.5, -0.5], [math.nan, 0.2]],
    ])
    @pytest.mark.parametrize("slack", [0.0, 0.6])
    def test_same_as_elementwise_comparisons(self, v, slack):
        v = np.array(v)
        tol = slack + 1e-9
        want = bool((v < -tol).any() or (v > 1.0 + tol).any())
        assert est_mod._range_violated(v, 1.0, slack) is want
