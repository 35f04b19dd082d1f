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
from collections.abc import Callable
from dataclasses import asdict, dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import PreconditionError, PromiseViolationError
from .mdp import _check_value_vec, expected_next_value, successor_variance
from .oracle import SampleOracle
from .qsim import MAX_PHASE_BITS, median_amplitude_estimates
from .rng import KeyTemplate, bulk_passes, uniforms

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
        return asdict(self)


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


def variance_mean_charge(sigma, eps, delta: float, cfg: EstimatorConfig = DEFAULT_CONFIG) -> int:
    """Query charge of the variance-bounded quantum estimator, summed over the
    entries when sigma and eps are per-row arrays.

    The log factor is floored at log2(2) = 1 so the charge never vanishes
    when sigma/eps <= 2.
    """
    if not np.all(eps > 0):
        raise PreconditionError(f"eps must be positive, got {eps}")
    if not np.all(sigma > 0):
        raise PreconditionError(f"sigma must be positive, got {sigma}")
    ratio = np.divide(sigma, eps)
    base = np.ceil(cfg.c2 * ratio * np.log2(np.maximum(ratio, 2.0)) ** 2)
    return int(np.sum(base)) * amplification_reps(delta)


def _finite_count(count: float, rule: str, eps: float) -> int:
    """ceil(count); an eps so small that the count overflows, or that eps**2
    underflows to 0, raises PreconditionError."""
    if not math.isfinite(count):
        raise PreconditionError(f"{rule} sample count for accuracy {eps} is not finite")
    return math.ceil(count)


def hoeffding_sample_count(upper: float, eps: float, delta: float) -> int:
    if eps <= 0:
        raise PreconditionError(f"eps must be positive, got {eps}")
    eps_sq = eps**2
    count = upper**2 * math.log(2.0 / delta) / (2.0 * eps_sq) if eps_sq else math.inf
    return _finite_count(count, "Hoeffding", eps)


def bernstein_sample_count(upper: float, sigma: float, eps: float, delta: float) -> int:
    if eps <= 0:
        raise PreconditionError(f"eps must be positive, got {eps}")
    eps_sq = eps**2
    count = (2.0 * (sigma**2 / eps_sq + upper / (3.0 * eps)) * math.log(3.0 / delta)
             if eps_sq else math.inf)
    return _finite_count(count, "Bernstein", eps)


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


def _value_map(oracle: SampleOracle, values) -> np.ndarray:
    """A scalar estimator's value map as a checked (S,) vector; a NaN or
    infinite entry raises PreconditionError naming the first one."""
    v = _check_value_vec(oracle.mdp, values, "value map")
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:
        raise PreconditionError(f"value map[{bad[0]}] = {v[bad[0]]} is not finite")
    return v


def _check_args(eps, delta, upper=None, sigma=None) -> None:
    """Raise PreconditionError naming the first scalar-estimator argument out
    of its range; NaN lies outside every range."""
    if not 0.0 < eps < math.inf:
        raise PreconditionError(f"eps must be positive and finite, got {eps}")
    if not 0.0 < delta < 1.0:
        raise PreconditionError(f"delta must be in (0, 1), got {delta}")
    if upper is not None and not 0.0 < upper < math.inf:
        raise PreconditionError(f"upper must be positive and finite, got {upper}")
    if sigma is not None and not 0.0 <= sigma < math.inf:
        raise PreconditionError(f"sigma must be non-negative and finite, got {sigma}")


def _range_violated(v: np.ndarray, upper: float, slack: float = 0.0) -> bool:
    """True when the value map leaves [0, upper] by more than slack plus float fuzz."""
    tol = slack + _PROMISE_TOL * max(1.0, upper)
    # fmin/fmax skip NaN entries, as elementwise comparisons would
    lo, hi = np.fmin.reduce(v, axis=None), np.fmax.reduce(v, axis=None)
    return bool(lo < -tol or hi > upper + tol)


def _variance_breached(var, sigma):
    """Entries whose successor variance exceeds the promised sigma^2 beyond float fuzz."""
    return var > sigma**2 + _PROMISE_TOL * np.maximum(1.0, sigma**2)


class MockRow(NamedTuple):
    """One stream's range-bounded mock draws, taken before its estimate:
    whether a failure flag is set, the noise already scaled by eps, the
    batch's charge, and the stream itself, for a replay."""

    failed: bool
    noise: np.ndarray
    charge: int
    stream: Callable[[], np.random.Generator]


def mock_rows(oracle: SampleOracle, keys: KeyTemplate, upper, eps, delta: float,
              cfg: EstimatorConfig):
    """Yield a ``MockRow`` per stream of ``keys``, in order, for mock
    range-bounded estimates of every (s, a) to error eps on [0, upper].

    ``upper`` and ``eps`` are scalars, or sequences with one value per
    value of the first slot of ``keys``.  A batch draws its failure flags,
    ``random(shape)``, then its noise, ``uniform(-1, 1, shape)``: the first
    2*S*A uniforms of its stream, taken here from ``rng.bulk_passes``, so
    every value equals the stream's own draw.  A row with a failed entry is
    replayed by ``_estimate`` on its stream, re-keyed from its digest.
    """
    shape = (oracle.mdp.num_states, oracle.mdp.num_actions)
    size = shape[0] * shape[1]
    upper, eps = np.broadcast_arrays(np.atleast_1d(upper), np.atleast_1d(eps))
    charges = [bounded_mean_charge(u, e, delta, cfg) * size
               for u, e in zip(upper.tolist(), eps.tolist())]
    for chunk, digests, words in bulk_passes(oracle.seed, keys, 2 * size):
        at = chunk.first_slot() if len(eps) > 1 else np.zeros(len(chunk), dtype=np.intp)
        u = uniforms(words)
        failed = (u[:, :size] < delta).any(axis=1).tolist()
        noise = (-1.0 + 2.0 * u[:, size:]) * eps[at, None]
        for i, j in enumerate(at.tolist()):
            yield MockRow(failed[i], noise[i].reshape(shape), charges[j],
                          partial(oracle.keyed_rng, digests[16 * i:16 * i + 16]))


def _estimate(mu, upper, eps, delta, cfg, rng, forced=False, sigma=None):
    """Estimates of an array of means from one stream, drawn entry by entry
    in row-major order.  Returns (estimates, failed, charge).

    Range-bounded on [0, upper] unless ``sigma`` is given, which selects the
    variance-bounded estimator (always contract mock, eps in (0, 4*sigma)).
    Statevector backend: per entry, the median of amplification-reps
    amplitude-estimation runs at the phase bits of the smallest eps, all
    drawn in one pass with one outcome grid per distinct mean, charged by
    measured counts.  Contract mock: the true mean plus noise within eps,
    or with probability delta a planted failure, charged by the stated
    formula; the draw order is fixed across failure modes.  ``forced`` (a
    voided promise) fails every entry.

    ``rng`` must start a stream this call alone reads; an oracle re-keys
    one Generator per stream, so take no other until the call returns.
    The mock draws the failure flags and the noise, then the planted-failure
    draws only when some entry fails: they come last, so skipping them
    changes no value this call returns.  A range-bounded mock ``rng`` may
    instead be a ``MockRow``, the flags and noise already drawn: without a
    failure the estimates are the means plus its noise, and otherwise its
    stream is replayed from the start.
    """
    if sigma is None:
        eps_min = float(np.min(eps)) if isinstance(eps, np.ndarray) else eps
        if cfg.backend == BACKEND_STATEVECTOR:
            t = statevector_phase_bits(eps_min / upper, cfg)
            reps = amplification_reps(delta)
            a = np.clip(mu / upper, 0.0, 1.0)
            est = upper * median_amplitude_estimates(a, t, reps, rng).reshape(a.shape)
            return est, np.full(est.shape, forced), ((1 << t) - 1) * reps * est.size
        if type(rng) is MockRow:
            if not (forced or rng.failed):
                return mu + rng.noise, np.zeros(rng.noise.shape, dtype=bool), rng.charge
            rng = rng.stream()
    elif np.any(eps <= 0.0) or np.any(eps >= 4.0 * sigma):
        raise PreconditionError("variance-bounded estimator needs eps in (0, 4*sigma) per row")
    shape = np.shape(mu)
    fail = rng.random(shape) < delta
    noise = rng.uniform(-1.0, 1.0, shape) * eps
    if forced or fail.any():
        fail |= forced
        sign = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
        spread = rng.uniform(-1.0, 1.0, shape)
        planted = sign if cfg.mock_failure_mode == "adversarial_edge" else spread
        est = mu + np.where(fail, cfg.adversarial_scale * eps * planted, noise)
    else:
        est = mu + noise
    if sigma is not None:
        return est, fail, variance_mean_charge(sigma, eps, delta, cfg)
    return est, fail, bounded_mean_charge(upper, eps_min, delta, cfg) * est.size


def _row_mean(oracle: SampleOracle, s: int, a: int, v: np.ndarray) -> np.ndarray:
    """The one-entry means array (p_{s,a} . v) a scalar estimator estimates."""
    oracle._check_indices(s, a)
    return np.array([oracle.mdp.transitions[s, a] @ v])


# ---------------------------------------------------------------------------
# Scalar APIs: one-row views of the core above, each drawing from the
# oracle's call-counter stream.
# ---------------------------------------------------------------------------


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
    v = _value_map(oracle, values)
    _check_args(eps, delta, upper=upper)
    violated = _range_violated(v, upper)
    if violated and strict:
        raise PromiseViolationError(
            f"value map outside [0, {upper}]: range [{v.min()}, {v.max()}]"
        )
    est, failed, charged = _estimate(
        _row_mean(oracle, s, a, v), upper, eps, delta, cfg, oracle._next_rng(), violated)
    oracle.ledger.charge_quantum(charged, phase)
    return MeanEstimate(float(est[0]), eps, 1.0 - delta, charged, cfg.backend,
                        mock_failed=bool(failed[0]) and cfg.backend == BACKEND_MOCK,
                        promise_violated=violated)


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
    v = _value_map(oracle, values)
    _check_args(eps, delta, sigma=sigma)
    est, failed, charged = _estimate(_row_mean(oracle, s, a, v), None, eps, delta, cfg,
                                     oracle._next_rng(), sigma=sigma)
    oracle.ledger.charge_quantum(charged, phase)
    breached = _variance_breached(successor_variance(oracle.mdp, v, (s, a)), sigma)
    return MeanEstimate(float(est[0]), eps, 1.0 - delta, charged, BACKEND_MOCK,
                        mock_failed=bool(failed[0]), promise_violated=bool(breached))


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
    v = _value_map(oracle, values)
    _check_args(eps, delta, upper=upper)
    n = hoeffding_sample_count(upper, eps, delta)
    counts = oracle.sample_counts(s, a, n, phase)
    return MeanEstimate(float(counts @ v / n), eps, 1.0 - delta, n, "classical_hoeffding",
                        promise_violated=_range_violated(v, upper))


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
    v = _value_map(oracle, values)
    _check_args(eps, delta, upper=upper, sigma=sigma)
    n = bernstein_sample_count(upper, sigma, eps, delta)
    counts = oracle.sample_counts(s, a, n, phase)
    breached = _variance_breached(successor_variance(oracle.mdp, v, (s, a)), sigma)
    return MeanEstimate(float(counts @ v / n), eps, 1.0 - delta, n, "classical_bernstein",
                        promise_violated=bool(breached))


# ---------------------------------------------------------------------------
# Batched internals used by the solvers.  One call estimates (P v)[s, a] for
# every (s, a) at once from a single derived stream, drawing entries in
# row-major order through the same core as the scalar APIs.
# ---------------------------------------------------------------------------


def batch_bounded_mock(
    oracle: SampleOracle,
    value_map: np.ndarray,
    upper: float,
    eps,
    delta: float,
    cfg: EstimatorConfig,
    rng: np.random.Generator | MockRow,
    phase: str,
    promise_slack: float = 0.0,
):
    """Mock range-bounded estimates of (P value_map)[s, a] for all rows, on
    a stream or on its ``MockRow`` (see ``mock_rows``).

    A value map outside [0, upper] (beyond promise_slack) voids the contract
    of every estimate in the batch; those estimates are flagged and drawn
    from the failure distribution.  Returns (estimates, failed, violated).
    """
    violated = _range_violated(value_map, upper, promise_slack)
    est, failed, charged = _estimate(
        expected_next_value(oracle.mdp, value_map), upper, eps, delta, cfg, rng, violated)
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
    est, failed, charged = _estimate(
        expected_next_value(oracle.mdp, value_map), None, eps, delta, cfg, rng, sigma=sigma)
    oracle.ledger.charge_quantum(charged, phase)
    breached = _variance_breached(successor_variance(oracle.mdp, value_map), sigma)
    return est, failed, int(breached.sum())
