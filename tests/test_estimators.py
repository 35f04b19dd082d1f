"""Tests for the mean-estimation layer: contracts, charges, and backends."""

import hashlib
import itertools
import math

import numpy as np
import pytest

import qmdp.estimators as est_mod
import qmdp.rng
from qmdp.errors import PreconditionError
from qmdp.estimators import (
    EstimatorConfig,
    amplification_reps,
    bounded_mean_charge,
    hoeffding_sample_count,
    statevector_phase_bits,
    variance_mean_charge,
)
from qmdp.mdp import Mdp
from qmdp.oracle import SampleOracle
from qmdp.qsim import median_amplitude_estimates
from qmdp.rng import derived_rng
from qmdp.solvers import Line

CFG = EstimatorConfig()


def key_digest(*parts):
    """The key format, written out: the 16-byte blake2b digest of the key's
    parts, the seed first, as text joined by "\x1f"."""
    text = "\x1f".join(p if isinstance(p, str) else str(int(p)) for p in parts)
    return hashlib.blake2b(text.encode(), digest_size=16).digest()


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

    @pytest.mark.parametrize("delta", [0.0, 1.0, math.nan, 1e-308, 5e-324])
    def test_amplification_refuses_delta_whose_3_over_delta_overflows(self, delta):
        # 3/1e-308 is inf: ceil(log2(inf)) was an OverflowError
        with pytest.raises(PreconditionError, match=r"^delta must be in \(0, 1\) with 3/delta finite"):
            amplification_reps(delta)
        assert amplification_reps(2e-308) == 2 * 1024 + 1  # log2(1.5e308) = 1023.4

    def test_variance_charge_at_unit_ratio(self):
        # sigma/eps = 1 floors the log factor: base charge = ceil(c2)
        reps = amplification_reps(0.1)
        assert variance_mean_charge(1.0, 1.0, 0.1, CFG) == 1 * reps
        cfg = EstimatorConfig(c2=2.5)
        assert variance_mean_charge(1.0, 1.0, 0.1, cfg) == 3 * reps

    @pytest.mark.parametrize("sigma,got", [(math.nan, "nan"), (math.inf, "inf"), (0.0, "0.0"),
                                           (np.array([[1.0, 2.0], [-1.0, math.nan]]), "-1.0")])
    def test_variance_charge_refuses_sigma_by_name(self, sigma, got):
        # the one sigma check of the variance-bounded estimator: the first bad entry, named
        with pytest.raises(PreconditionError, match=f"sigma must be positive and finite, got {got}$"):
            variance_mean_charge(sigma, 0.1, 0.1, CFG)

    def test_hoeffding_example(self):
        # u=1, eps=0.1, delta=0.05: ceil(ln(40)/0.02) = 185
        assert hoeffding_sample_count(1.0, 0.1, 0.05) == 185

    def test_hoeffding_quartering(self):
        # halving eps quadruples the count, up to the ceilings on both sides
        n1 = hoeffding_sample_count(1.0, 0.2, 0.1)
        n2 = hoeffding_sample_count(1.0, 0.1, 0.1)
        assert 4 * (n1 - 1) <= n2 <= 4 * n1

    @pytest.mark.parametrize("eps", [1e-155, 1e-170])
    def test_counts_past_float_range_raise(self, eps):
        # 1e-155: the count overflows to inf; 1e-170: eps**2 underflows to 0
        with pytest.raises(PreconditionError, match="Hoeffding sample count for accuracy"):
            hoeffding_sample_count(10.0, eps, 0.1)

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


class TestEstimatorConfig:
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


def core_line(mu, upper, eps, delta, cfg, sigma=None):
    """The ``Line`` the core reads for these arguments, with t, reps and the
    charge derived as the core derived them per call before it read the
    schedule (from the smallest eps); a variance line's err is eps / sigma."""
    if sigma is not None:
        return Line(np.size(mu), None, eps / sigma, delta, 0)
    eps_min = float(np.min(eps))
    if cfg.backend == est_mod.BACKEND_STATEVECTOR:
        t, reps = statevector_phase_bits(eps_min / upper, cfg), est_mod.amplification_reps(delta)
        return Line(np.size(mu), upper, eps, delta, ((1 << t) - 1) * reps, t, reps)
    return Line(np.size(mu), upper, eps, delta, est_mod.bounded_mean_charge(upper, eps_min, delta, cfg))


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
        line = core_line(mu, upper, eps, delta, cfg, sigma)
        label = (kind, mode, int(forced), str(delta), *shape)
        got = est_mod._estimate(mu, line, cfg, derived_rng(32, *label), forced, sigma,
                                eps if kind == "variance" else None)
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
            got = est_mod._estimate(mu, core_line(mu, 1.0, eps, delta, cfg), cfg,
                                    derived_rng(34, *label), forced)
            want = reference_estimate(mu, 1.0, eps, delta, cfg, derived_rng(34, *label), forced)
            assert _outcome(*got) == _outcome(*want)

    def test_no_failure_skips_planted_draws(self):
        # with nothing failing the planted arrays are never drawn: the stream
        # stops after the flags and the noise
        rng = derived_rng(35, "skip")
        est_mod._estimate(np.zeros((2, 8)), core_line(np.zeros((2, 8)), 1.0, 0.1, 0.0, CFG), CFG,
                          rng)
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
        # one f for every line, each line's err scaling its rows' noise
        upper, eps = [1.0, 2.0, 4.0], [0.1, 0.05, 0.2]
        lines = [core_line(np.zeros((3, 4)), u, e, delta, cfg) for u, e in zip(upper, eps)]
        rows = list(est_mod.mock_rows(oracle, (37, "t", range(1, 4), range(5), "rows"), delta))
        assert len(rows) == 15
        for key, row in zip(itertools.product([37], ["t"], range(1, 4), range(5), ["rows"]),
                            rows, strict=True):
            k = key[2] - 1
            mu = keys.random((3, 4)) * upper[k]
            got = est_mod._estimate(mu, lines[k], cfg, row, forced)
            want = est_mod._estimate(mu, lines[k], cfg, derived_rng(*key), forced)
            assert _outcome(*got) == _outcome(*want)
            assert row.failed == bool((derived_rng(*key).random((3, 4)) < delta).any())

    def test_scalar_bounds_and_replays_through_the_oracle(self, monkeypatch):
        # scalar upper and eps serve every key, 7 streams of 8 words per
        # pass; through batch_bounded_mock only a failed row re-keys the
        # oracle, from its key's digest
        monkeypatch.setattr(qmdp.rng, "PASS_WORDS", 56)
        oracle = SampleOracle(Mdp(np.full((2, 2, 2), 0.5), np.zeros((2, 2)), 0.9), 38)
        rekeyed = []
        real = SampleOracle.keyed_rng
        monkeypatch.setattr(SampleOracle, "keyed_rng",
                            lambda self, digest: rekeyed.append(digest) or real(self, digest))
        mu = np.full((2, 2), 0.5)
        line = core_line(mu, 1.0, 0.1, 0.1, CFG)
        failed = []
        for key, row in zip(itertools.product([38], ["svi"], range(1, 41)),
                            est_mod.mock_rows(oracle, (38, "svi", range(1, 41)), 0.1),
                            strict=True):
            want = est_mod._estimate(mu, line, CFG, derived_rng(*key))
            before = oracle.ledger.quantum_oracle_calls
            est, fail, violated = est_mod.batch_bounded_mock(oracle, np.full(2, 0.5), line, CFG, row, "svi")
            charge = oracle.ledger.quantum_oracle_calls - before
            assert _outcome(est, fail, charge) == _outcome(*want) and not violated
            if row.failed:
                failed.append(key_digest(*key))
            assert charge == est_mod.bounded_mean_charge(1.0, 0.1, 0.1, CFG) * 4
        assert rekeyed == failed and 0 < len(failed) < 40


def arms_mdp(p, a_n):
    """Two states; every action from state 0 lands in state 1 w.p. p."""
    trans = np.zeros((2, a_n, 2))
    trans[0, :] = [1.0 - p, p]
    trans[1, :, 1] = 1.0
    return Mdp(transitions=trans, rewards=np.zeros((2, a_n)), discount=0.9)


def bounded_batch(oracle, values, upper, eps, delta, cfg, rng, phase="ph"):
    """batch_bounded_mock on [0, upper] to error eps at failure probability delta."""
    shape = (oracle.mdp.num_states, oracle.mdp.num_actions)
    return est_mod.batch_bounded_mock(oracle, np.asarray(values, dtype=float),
                                      core_line(np.zeros(shape), upper, eps, delta, cfg), cfg,
                                      rng, phase)


def variance_batch(oracle, values, sigma, eps, delta, rng, phase="ph"):
    """batch_variance_mock with the per-row sigma and error eps at failure probability delta."""
    shape = (oracle.mdp.num_states, oracle.mdp.num_actions)
    return est_mod.batch_variance_mock(oracle, np.asarray(values, dtype=float),
                                       np.full(shape, sigma),
                                       core_line(np.zeros(shape), None, eps, delta, CFG, sigma),
                                       CFG, rng, phase)


class TestBatchEstimates:
    """The estimator core's contract, checked on whole batches."""

    @pytest.mark.parametrize("mode", ["adversarial_edge", "uniform_noise"])
    def test_mock_soundness_at_rate_delta(self, mode):
        # 10,000 entries: the failed ones form a Binomial(delta) count, every
        # other one lies within eps of its mean, and an adversarial failure
        # always lands outside
        delta, eps = 0.2, 0.02
        cfg = EstimatorConfig(mock_failure_mode=mode)
        oracle = SampleOracle(arms_mdp(0.4, 500), 4)
        v = np.array([0.1, 0.9])
        mu = np.array([[0.6 * 0.1 + 0.4 * 0.9], [0.9]])
        failed = hits = 0
        for i in range(10):
            est, fail, violated = bounded_batch(oracle, v, 1.0, eps, delta, cfg,
                                                derived_rng(4, "soundness", mode, i))
            inside = np.abs(est - mu) < eps
            assert not violated and inside[~fail].all()
            if mode == "adversarial_edge":
                assert not inside[fail].any()
            failed += int(fail.sum())
            hits += int(inside.sum())
        sigma = math.sqrt(delta * (1 - delta) / 10000)
        assert abs(failed / 10000 - delta) <= 4 * sigma
        assert hits / 10000 >= 1.0 - delta - 4 * sigma

    def test_constant_map_within_eps(self):
        # a constant map's rows all have mean 0.7, at f = 0.5
        oracle = SampleOracle(arms_mdp(0.3, 10), 1)
        failed = 0
        for i in range(20):
            est, fail, violated = bounded_batch(oracle, [0.7, 0.7], 1.0, 0.05, 0.5, CFG,
                                                derived_rng(1, "constant", i))
            assert not violated and (np.abs(est - 0.7)[~fail] < 0.05).all()
            failed += int(fail.sum())
        assert 0 < failed < 400

    def test_point_mass_row(self):
        # every row of arms_mdp(1.0, .) lands in state 1: each mean is 0.9
        oracle = SampleOracle(arms_mdp(1.0, 3), 2)
        est, fail, violated = bounded_batch(oracle, [0.2, 0.9], 1.0, 0.03, 0.1, CFG,
                                            derived_rng(2, "point-mass"))
        assert not violated and (np.abs(est - 0.9)[~fail] < 0.03).all()

    @pytest.mark.parametrize("sigma", [0.1, 1.0, 10.0])
    def test_constant_map_any_sigma(self, sigma):
        # zero variance lies within any sigma: no breach, and each estimate
        # that does not fail is within eps = sigma / 4 of its mean 0.4
        oracle = SampleOracle(arms_mdp(0.5, 50), 9)
        est, err, fail, breaches = variance_batch(oracle, [0.4, 0.4], sigma, sigma / 4, 0.3,
                                                  derived_rng(9, "any-sigma", str(sigma)))
        np.testing.assert_allclose(err, sigma / 4, rtol=1e-15)
        assert breaches == 0 and 0 < fail.sum() < 100
        assert (np.abs(est - 0.4)[~fail] < sigma / 4).all()

    def test_mock_charge_per_entry(self):
        oracle = SampleOracle(arms_mdp(0.5, 3), 3)
        bounded_batch(oracle, np.zeros(2), 1.0, 0.1, 0.1, CFG, derived_rng(3, "charge"))
        charge = bounded_mean_charge(1.0, 0.1, 0.1, CFG) * 6
        assert oracle.ledger.quantum_oracle_calls == oracle.ledger.phases["ph"] == charge

    def test_statevector_charge_per_entry(self):
        cfg = EstimatorConfig(backend="statevector", phase_bits=8)
        oracle = SampleOracle(arms_mdp(0.5, 3), 13)
        est, failed, violated = bounded_batch(oracle, [0.0, 1.0], 1.0, 0.05, 0.2, cfg,
                                              derived_rng(13, "sv-charge"))
        assert not (violated or failed.any())
        charge = (2**8 - 1) * amplification_reps(0.2) * 6
        assert oracle.ledger.quantum_oracle_calls == oracle.ledger.phases["ph"] == charge

    @pytest.mark.parametrize("p", [0.1, 0.7])
    def test_statevector_soundness(self, p):
        # 2,000 Bernoulli entries at t = 10: the radius holds in at least
        # 1 - delta of them
        cfg = EstimatorConfig(backend="statevector", phase_bits=10)
        oracle = SampleOracle(arms_mdp(p, 200), 12)
        eps = 0.01  # within reach of t=10: pi/1024 + pi^2/2^20 < 0.0031 < eps
        hits = sum(int((np.abs(bounded_batch(oracle, [0.0, 1.0], 1.0, eps, 0.1, cfg,
                                                derived_rng(12, "sv", int(p * 10), i))[0][0] - p)
                        < eps).sum()) for i in range(10))
        assert hits / 2000 >= 0.9

    def test_statevector_charge_calibrates_the_mock(self):
        # the measured counts anchor the mock's cost constant: at matched
        # (u, eps, delta) the two charges stay within one order of magnitude
        cfg = EstimatorConfig(backend="statevector")
        for i, eps in enumerate((0.05, 0.02, 0.01, 0.005)):
            oracle = SampleOracle(arms_mdp(0.5, 1), 18)
            bounded_batch(oracle, [0.0, 1.0], 1.0, eps, 0.1, cfg, derived_rng(18, "cal", i))
            measured = oracle.ledger.quantum_oracle_calls / 2
            assert 1.0 <= measured / bounded_mean_charge(1.0, eps, 0.1, CFG) <= 10.0

    @pytest.mark.parametrize("backend", ["contract_mock", "statevector"])
    def test_voided_promise_flags_every_entry(self, backend):
        cfg = EstimatorConfig(backend=backend)
        oracle = SampleOracle(arms_mdp(0.5, 4), 7)
        est, failed, violated = bounded_batch(oracle, [0.5, 1.5], 1.0, 0.1, 0.1, cfg,
                                              derived_rng(7, "void", backend))
        assert violated and failed.shape == (2, 4) and failed.all()

    @pytest.mark.parametrize("backend", ["contract_mock", "statevector"])
    def test_nan_value_map_refused_before_draw_or_charge(self, backend):
        # a NaN entry lies inside no range: the batch is refused by name,
        # not voided into NaN estimates that no flag marks
        cfg = EstimatorConfig(backend=backend)
        oracle, rng = SampleOracle(arms_mdp(0.5, 2), 8), derived_rng(8, "nan", backend)
        with pytest.raises(PreconditionError, match=r"value map\[0\] is NaN"):
            bounded_batch(oracle, [math.nan, 1.0], 1.0, 0.1, 0.1, cfg, rng)
        assert oracle.ledger.total == 0 and oracle.ledger.phases == {}
        assert rng.random() == derived_rng(8, "nan", backend).random()

    def test_variance_breach_surfaced_not_raised(self):
        # a fair coin over values {0, 1} from state 0 has variance 0.25 >
        # sigma^2 = 0.01; state 1's rows are point masses, within any bound
        oracle = SampleOracle(arms_mdp(0.5, 3), 10)
        est, err, failed, breaches = variance_batch(oracle, [0.0, 1.0], 0.1, 0.05, 0.1,
                                                    derived_rng(10, "breach"))
        assert breaches == 3
        assert variance_batch(oracle, [0.4, 0.4], 0.1, 0.05, 0.1,
                              derived_rng(10, "constant"))[3] == 0

    @pytest.mark.parametrize("scale", [0.1, 1.0, 10.0])
    def test_variance_errors_are_the_drawn_radius(self, scale):
        # the returned errors are line.err * sigma per row, byte for byte,
        # and bound every estimate that does not fail: the array the epoch
        # solver subtracts is the one the estimates were drawn to
        oracle = SampleOracle(arms_mdp(0.5, 8), 12)
        sigma = scale * (0.5 + derived_rng(12, "sigma", str(scale)).random((2, 8)))
        line = Line(16, None, 0.2, 0.3, 0)
        est, err, failed, _ = est_mod.batch_variance_mock(
            oracle, np.array([0.0, 1.0]), sigma, line, CFG, derived_rng(12, "radius", str(scale)),
            "ph")
        assert err.tobytes() == (line.err * sigma).tobytes()
        mu = np.array([[0.5] * 8, [1.0] * 8])
        assert 0 < failed.sum() < 16 and (np.abs(est - mu)[~failed] <= err[~failed]).all()

    def test_variance_charge_uses_ratio(self):
        oracle = SampleOracle(arms_mdp(0.5, 3), 11)
        variance_batch(oracle, [0.0, 1.0], 2.0, 0.25, 0.1, derived_rng(11, "ratio"))
        assert oracle.ledger.phases["ph"] == 6 * variance_mean_charge(2.0, 0.25, 0.1, CFG)

    @pytest.mark.parametrize("value_map,sigma,message", [
        ([math.nan, 1.0], 1.0, r"value map\[0\] is NaN"),
        ([0.0, math.nan], np.ones((2, 2)), r"value map\[1\] is NaN"),
        ([0.0, 1.0], math.nan, "sigma must be positive and finite, got nan"),
        ([0.0, 1.0], np.array([[1.0, math.inf], [1.0, 1.0]]), "sigma must be positive and finite, got inf"),
        ([0.0, 1.0], np.array([[1.0, 1.0], [0.0, 1.0]]), "sigma must be positive and finite, got 0.0"),
        ([0.0, 1.0], -1.0, "sigma must be positive and finite, got -1.0"),
    ])
    def test_variance_nan_map_and_bad_sigma_refused_before_drawing(self, value_map, sigma, message):
        # without the checks a NaN map came back as unflagged NaN estimates,
        # charged in full, and a NaN sigma was refused only after the draws
        oracle, rng = SampleOracle(arms_mdp(0.5, 2), 8), derived_rng(8, "variance-nan")
        with pytest.raises(PreconditionError, match=message):
            est_mod.batch_variance_mock(oracle, np.array(value_map), sigma, Line(4, None, 0.2, 0.1, 0),
                                        CFG, rng, "ph")
        assert oracle.ledger.total == 0
        assert rng.random() == derived_rng(8, "variance-nan").random()

    @pytest.mark.parametrize("eps", [0.0, 2.0, 3.0])
    def test_variance_window_refused_before_drawing(self, eps):
        # sigma = 0.5: eps must lie in (0, 2)
        oracle, rng = SampleOracle(arms_mdp(0.5, 2), 8), derived_rng(8, "window")
        with pytest.raises(PreconditionError, match=r"eps in \(0, 4\*sigma\)"):
            variance_batch(oracle, [0.0, 1.0], 0.5, eps, 0.1, rng)
        assert oracle.ledger.total == 0
        assert rng.random() == derived_rng(8, "window").random()


class TestClassicalEstimates:
    """The sampled baseline's classical row means: ``empirical_means`` at
    the Hoeffding count for the error and failure probability."""

    def test_hoeffding_charges_and_accuracy(self):
        # 200 rows with mean 0.3 at eps 0.02, delta 0.05: at most a
        # Binomial(200, 0.05) count of them may miss, and none does at this n
        oracle = SampleOracle(arms_mdp(0.3, 100), 14)
        n = hoeffding_sample_count(1.0, 0.02, 0.05)
        means = oracle.empirical_means(np.array([0.0, 1.0]), n, "ph")
        assert oracle.ledger.classical_samples == oracle.ledger.phases["ph"] == 200 * n
        assert (np.abs(means[0] - 0.3) < 0.02).all() and (means[1] == 1.0).all()

    def test_hoeffding_deterministic_row_is_exact(self):
        oracle = SampleOracle(arms_mdp(1.0, 2), 15)
        means = oracle.empirical_means(np.array([0.25, 0.75]),
                                       hoeffding_sample_count(1.0, 0.1, 0.1))
        assert (means == 0.75).all()

    def test_reproducible_sequences(self):
        a, b = SampleOracle(arms_mdp(0.4, 3), 17), SampleOracle(arms_mdp(0.4, 3), 17)
        va = [a.empirical_means(np.array([0.0, 1.0]), 150).tobytes() for _ in range(5)]
        vb = [b.empirical_means(np.array([0.0, 1.0]), 150).tobytes() for _ in range(5)]
        assert va == vb and len(set(va)) == 5


class TestRangeCheck:
    """The batch estimates' range check: the elementwise comparisons on a map
    without NaN; a NaN entry, inside no range, is refused by its index."""

    @pytest.mark.parametrize("v", [
        [0.5, math.nan], [math.nan, -1.0], [2.0, math.nan], [math.nan, math.nan],
        [-1.0, 2.0], [0.0, 1.0], [1.0 + 1e-10, 0.0], [[0.5, -0.5], [math.nan, 0.2]],
    ])
    @pytest.mark.parametrize("slack", [0.0, 0.6])
    def test_same_as_elementwise_comparisons(self, v, slack):
        v = np.array(v)
        if np.isnan(v).any():
            with pytest.raises(PreconditionError,
                               match=rf"value map\[{np.flatnonzero(np.isnan(v))[0]}\] is NaN"):
                est_mod._range_violated(v, 1.0, slack)
            return
        tol = slack + 1e-9
        want = bool((v < -tol).any() or (v > 1.0 + tol).any())
        assert est_mod._range_violated(v, 1.0, slack) is want
