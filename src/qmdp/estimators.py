"""Mean-estimation layer shared by both solvers.

Two quantum estimators with explicit cost contracts (range-bounded and
variance-bounded), classical Hoeffding/Bernstein baselines, and a
contract-mock backend that returns estimates satisfying exactly the stated
error/confidence contract while charging the stated query count to the
ledger.  The statevector backend for the range-bounded estimator goes
through simulated amplitude estimation and charges its measured counts,
which is what keeps the mock's accounting honest.

Estimate failures in the mock are drawn independently with the requested
failure probability; the default failure mode plants the estimate a factor
``adversarial_scale`` outside the promised radius, exercising the solvers'
union-bound robustness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, PromiseViolationError
from .mdp import Mdp, expected_next_value, successor_variance
from .oracle import SampleOracle
from .qsim import (
    MAX_PHASE_BITS,
    AmplitudeEstimationConfig,
    amplitude_estimation_sample,
)

__all__ = [
    "EstimatorConfig",
    "MeanEstimate",
    "amplification_reps",
    "bounded_mean_charge",
    "variance_mean_charge",
    "hoeffding_sample_count",
    "bernstein_sample_count",
    "bounded_mean",
    "variance_bounded_mean",
    "hoeffding_mean",
    "bernstein_mean",
    "statevector_phase_bits",
]

BACKEND_MOCK = "contract_mock"
BACKEND_STATEVECTOR = "statevector"
_PROMISE_TOL = 1e-9


@dataclass(frozen=True)
class EstimatorConfig:
    """Constants hidden in the estimators' cost expressions plus the mock's
    failure-injection behavior."""

    c1: float = 1.0
    c2: float = 1.0
    mock_failure_mode: str = "adversarial_edge"  # or "uniform_noise"
    adversarial_scale: float = 10.0
    backend: str = BACKEND_MOCK
    phase_bits: int | None = None  # statevector override; None = derived from accuracy

    def __post_init__(self):
        if not (0.0 < self.c1 < math.inf and 0.0 < self.c2 < math.inf):
            raise PreconditionError("cost constants c1, c2 must be positive and finite")
        if self.mock_failure_mode not in ("adversarial_edge", "uniform_noise"):
            raise PreconditionError(f"unknown failure mode {self.mock_failure_mode!r}")
        if self.backend not in (BACKEND_MOCK, BACKEND_STATEVECTOR):
            raise PreconditionError(f"unknown backend {self.backend!r}")
        # a planted failure at scale <= 1 would land inside the promised radius
        if not (1.0 < self.adversarial_scale < math.inf):
            raise PreconditionError(
                f"adversarial_scale must be finite and above 1, got {self.adversarial_scale!r}"
            )
        if self.phase_bits is not None and not (
            isinstance(self.phase_bits, (int, np.integer))
            and not isinstance(self.phase_bits, bool)
            and 1 <= self.phase_bits <= MAX_PHASE_BITS
        ):
            raise PreconditionError(
                f"phase_bits must be None or an integer in [1, {MAX_PHASE_BITS}], "
                f"got {self.phase_bits!r}"
            )

    def to_dict(self) -> dict:
        return {
            "c1": self.c1,
            "c2": self.c2,
            "mock_failure_mode": self.mock_failure_mode,
            "adversarial_scale": self.adversarial_scale,
            "backend": self.backend,
            "phase_bits": self.phase_bits,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "EstimatorConfig":
        return cls(**{k: doc[k] for k in doc})


DEFAULT_CONFIG = EstimatorConfig()


@dataclass(frozen=True)
class MeanEstimate:
    """An estimate with its guaranteed radius, confidence, and charged cost."""

    value: float
    error_radius: float
    confidence: float
    queries_charged: int
    backend: str
    mock_failed: bool = False
    promise_violated: bool = False

    def __post_init__(self):
        if self.error_radius <= 0:
            raise PreconditionError("error_radius must be positive")
        if not (0.0 < self.confidence < 1.0):
            raise PreconditionError("confidence must be in (0, 1)")
        if self.queries_charged < 1:
            raise PreconditionError("queries_charged must be at least 1")


def amplification_reps(delta: float) -> int:
    """Median repetitions boosting a 1/3-failure estimator to failure delta.

    Odd by construction so a true median element exists.
    """
    if not (0.0 < delta < 1.0):
        raise PreconditionError(f"delta must be in (0, 1), got {delta}")
    return 2 * math.ceil(math.log2(3.0 / delta)) + 1


def bounded_mean_charge(upper: float, eps: float, delta: float, cfg: EstimatorConfig = DEFAULT_CONFIG) -> int:
    """Query charge of the range-bounded quantum estimator."""
    if eps <= 0:
        raise PreconditionError(f"eps must be positive, got {eps}")
    if upper <= 0:
        raise PreconditionError(f"upper bound must be positive, got {upper}")
    ratio = upper / eps
    base = math.ceil(cfg.c1 * (ratio + math.sqrt(ratio)))
    return base * amplification_reps(delta)


def variance_mean_charge(sigma: float, eps: float, delta: float, cfg: EstimatorConfig = DEFAULT_CONFIG) -> int:
    """Query charge of the variance-bounded quantum estimator.

    The log factor is floored at log2(2) = 1 so the charge never vanishes
    when sigma/eps <= 2.
    """
    if eps <= 0:
        raise PreconditionError(f"eps must be positive, got {eps}")
    if sigma <= 0:
        raise PreconditionError(f"sigma must be positive, got {sigma}")
    ratio = sigma / eps
    base = math.ceil(cfg.c2 * ratio * math.log2(max(ratio, 2.0)) ** 2)
    return base * amplification_reps(delta)


def hoeffding_sample_count(upper: float, eps: float, delta: float) -> int:
    if eps <= 0:
        raise PreconditionError(f"eps must be positive, got {eps}")
    return math.ceil(upper**2 * math.log(2.0 / delta) / (2.0 * eps**2))


def bernstein_sample_count(upper: float, sigma: float, eps: float, delta: float) -> int:
    if eps <= 0:
        raise PreconditionError(f"eps must be positive, got {eps}")
    return math.ceil(2.0 * (sigma**2 / eps**2 + upper / (3.0 * eps)) * math.log(3.0 / delta))


def statevector_phase_bits(accuracy: float, cfg: EstimatorConfig = DEFAULT_CONFIG) -> int:
    """Smallest phase-bit count whose worst-case radius meets ``accuracy``
    (relative to a unit range)."""
    if cfg.phase_bits is not None:
        return cfg.phase_bits
    for t in range(1, MAX_PHASE_BITS + 1):
        if math.pi / 2**t + math.pi**2 / 4**t <= accuracy:
            return t
    raise PreconditionError(
        f"statevector backend cannot reach relative accuracy {accuracy} with "
        f"{MAX_PHASE_BITS} phase bits"
    )


def _mock_draws(mu, eps, delta, cfg, rng, forced_fail=None):
    """Contract-mock draw for an array of means (fixed draw order for
    reproducibility across failure modes)."""
    shape = np.shape(mu)
    fail = rng.random(shape) < delta
    noise = rng.uniform(-1.0, 1.0, shape) * eps
    sign = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    spread = rng.uniform(-1.0, 1.0, shape)
    if forced_fail is not None:
        fail = fail | forced_fail
    if cfg.mock_failure_mode == "adversarial_edge":
        bad = cfg.adversarial_scale * eps * sign
    else:
        bad = cfg.adversarial_scale * eps * spread
    return mu + np.where(fail, bad, noise), fail


def _row(oracle: SampleOracle, s: int, a: int) -> np.ndarray:
    oracle._check_indices(s, a)
    return oracle.mdp.transitions[s, a]


def _check_value_map(mdp: Mdp, values) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    if v.shape != (mdp.num_states,):
        raise ValueError(f"value map must have shape ({mdp.num_states},), got {v.shape}")
    return v


def bounded_mean(
    oracle: SampleOracle,
    s: int,
    a: int,
    values,
    upper: float,
    eps: float,
    delta: float,
    cfg: EstimatorConfig = DEFAULT_CONFIG,
    phase: str | None = None,
    strict: bool = True,
) -> MeanEstimate:
    """Quantum mean estimate under the promise 0 <= values <= upper.

    Mock backend: returns the true mean plus contract noise and charges the
    stated cost formula.  Statevector backend: simulated amplitude
    estimation with a median wrapper, charging measured counts.
    """
    v = _check_value_map(oracle.mdp, values)
    if eps <= 0:
        raise PreconditionError(f"eps must be positive, got {eps}")
    if not (0.0 < delta < 1.0):
        raise PreconditionError(f"delta must be in (0, 1), got {delta}")
    tol = _PROMISE_TOL * max(1.0, upper)
    violated = bool(np.any(v < -tol) or np.any(v > upper + tol))
    if violated and strict:
        raise PromiseViolationError(
            f"value map outside [0, {upper}]: range [{v.min()}, {v.max()}]"
        )
    mu = float(_row(oracle, s, a) @ v)
    if cfg.backend == BACKEND_STATEVECTOR:
        t = statevector_phase_bits(eps / upper, cfg)
        reps = amplification_reps(delta)
        ae = AmplitudeEstimationConfig(t, min(max(mu / upper, 0.0), 1.0))
        draws = amplitude_estimation_sample(ae, oracle._next_rng(), size=reps)
        value = upper * float(np.median(draws))
        charged = ae.queries_per_run * reps
        oracle.ledger.charge_quantum(charged, phase)
        return MeanEstimate(value, eps, 1.0 - delta, charged, BACKEND_STATEVECTOR,
                            promise_violated=violated)
    est, failed = _mock_draws(mu, eps, delta, cfg, oracle._next_rng(),
                              forced_fail=violated)
    charged = bounded_mean_charge(upper, eps, delta, cfg)
    oracle.ledger.charge_quantum(charged, phase)
    return MeanEstimate(float(est), eps, 1.0 - delta, charged, BACKEND_MOCK,
                        mock_failed=bool(failed), promise_violated=violated)


def variance_bounded_mean(
    oracle: SampleOracle,
    s: int,
    a: int,
    values,
    sigma: float,
    eps: float,
    delta: float,
    cfg: EstimatorConfig = DEFAULT_CONFIG,
    phase: str | None = None,
) -> MeanEstimate:
    """Quantum mean estimate under the promise Var[values(s')] <= sigma^2.

    Hard precondition eps in (0, 4*sigma); a variance-promise breach is
    surfaced on the result rather than raised, because the variance bound fed
    in by the epoch solver is itself estimated and can sit slightly below the
    truth on perfectly healthy runs.  Always contract-mock: the variance-
    bounded estimator's internals are out of simulation scope.
    """
    v = _check_value_map(oracle.mdp, values)
    if not (0.0 < eps < 4.0 * sigma):
        raise PreconditionError(f"eps must lie in (0, 4*sigma) = (0, {4.0 * sigma}), got {eps}")
    if not (0.0 < delta < 1.0):
        raise PreconditionError(f"delta must be in (0, 1), got {delta}")
    true_var = float(successor_variance(oracle.mdp, v)[s, a])
    violated = true_var > sigma**2 + _PROMISE_TOL * max(1.0, sigma**2)
    est, failed = _mock_draws(float(_row(oracle, s, a) @ v), eps, delta, cfg,
                              oracle._next_rng())
    charged = variance_mean_charge(sigma, eps, delta, cfg)
    oracle.ledger.charge_quantum(charged, phase)
    return MeanEstimate(float(est), eps, 1.0 - delta, charged, BACKEND_MOCK,
                        mock_failed=bool(failed), promise_violated=violated)


def hoeffding_mean(
    oracle: SampleOracle,
    s: int,
    a: int,
    values,
    upper: float,
    eps: float,
    delta: float,
    phase: str | None = None,
) -> MeanEstimate:
    """Empirical mean from the Hoeffding sample count; draws real samples."""
    v = _check_value_map(oracle.mdp, values)
    n = hoeffding_sample_count(upper, eps, delta)
    counts = oracle.sample_counts(s, a, n, phase)
    tol = _PROMISE_TOL * max(1.0, upper)
    violated = bool(np.any(v < -tol) or np.any(v > upper + tol))
    return MeanEstimate(float(counts @ v / n), eps, 1.0 - delta, n,
                        "classical_hoeffding", promise_violated=violated)


def bernstein_mean(
    oracle: SampleOracle,
    s: int,
    a: int,
    values,
    upper: float,
    sigma: float,
    eps: float,
    delta: float,
    phase: str | None = None,
) -> MeanEstimate:
    """Empirical mean from the Bernstein sample count; draws real samples."""
    v = _check_value_map(oracle.mdp, values)
    n = bernstein_sample_count(upper, sigma, eps, delta)
    counts = oracle.sample_counts(s, a, n, phase)
    true_var = float(successor_variance(oracle.mdp, v)[s, a])
    violated = true_var > sigma**2 + _PROMISE_TOL * max(1.0, sigma**2)
    return MeanEstimate(float(counts @ v / n), eps, 1.0 - delta, n,
                        "classical_bernstein", promise_violated=violated)


# ---------------------------------------------------------------------------
# Batched internals used by the solvers.  One call estimates (P v)[s, a] for
# every (s, a) at once from a single derived stream, drawing entries in
# row-major order; the scalar APIs above share the same draw core.
# ---------------------------------------------------------------------------


def batch_bounded_mock(
    oracle: SampleOracle,
    value_map: np.ndarray,
    upper: float,
    eps,
    delta: float,
    cfg: EstimatorConfig,
    rng: np.random.Generator,
    phase: str,
    promise_slack: float = 0.0,
):
    """Mock range-bounded estimates of (P value_map)[s, a] for all rows.

    A value map outside [0, upper] (beyond promise_slack) voids the contract
    of every estimate in the batch; those estimates are flagged and drawn
    from the failure distribution.  Returns (estimates, failed, violated).
    """
    mdp = oracle.mdp
    mu = expected_next_value(mdp, value_map)
    tol = promise_slack + _PROMISE_TOL * max(1.0, upper)
    violated = bool(value_map.min() < -tol or value_map.max() > upper + tol)
    forced = np.full(mu.shape, violated)
    if cfg.backend == BACKEND_STATEVECTOR:
        eps_scalar = float(np.min(eps))
        t = statevector_phase_bits(eps_scalar / upper, cfg)
        reps = amplification_reps(delta)
        est = np.empty_like(mu)
        a_clip = np.clip(mu / upper, 0.0, 1.0)
        for s in range(mdp.num_states):
            for a in range(mdp.num_actions):
                ae = AmplitudeEstimationConfig(t, float(a_clip[s, a]))
                est[s, a] = upper * float(np.median(
                    amplitude_estimation_sample(ae, rng, size=reps)))
        charged = ((1 << t) - 1) * reps * mu.size
        oracle.ledger.charge_quantum(charged, phase)
        return est, forced.copy(), violated
    est, failed = _mock_draws(mu, eps, delta, cfg, rng, forced_fail=forced)
    charged = bounded_mean_charge(upper, float(np.min(eps)), delta, cfg) * mu.size
    oracle.ledger.charge_quantum(charged, phase)
    return est, failed, violated


def batch_variance_mock(
    oracle: SampleOracle,
    value_map: np.ndarray,
    sigma: np.ndarray,
    eps: np.ndarray,
    delta: float,
    cfg: EstimatorConfig,
    rng: np.random.Generator,
    phase: str,
):
    """Mock variance-bounded estimates for all rows at once.

    Returns (estimates, failed, n_variance_promise_breaches); breaches are
    diagnostics, not failures (see variance_bounded_mean).
    """
    mdp = oracle.mdp
    if np.any(eps <= 0.0) or np.any(eps >= 4.0 * sigma):
        raise PreconditionError("variance-bounded estimator needs eps in (0, 4*sigma) per row")
    mu = expected_next_value(mdp, value_map)
    true_var = successor_variance(mdp, value_map)
    breaches = int(np.sum(true_var > sigma**2 + _PROMISE_TOL * np.maximum(1.0, sigma**2)))
    est, failed = _mock_draws(mu, eps, delta, cfg, rng)
    ratio = sigma / eps
    base = np.ceil(cfg.c2 * ratio * np.log2(np.maximum(ratio, 2.0)) ** 2)
    charged = int(base.sum()) * amplification_reps(delta)
    oracle.ledger.charge_quantum(charged, phase)
    return est, failed, breaches
