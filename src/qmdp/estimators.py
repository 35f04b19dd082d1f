"""Mean-estimation layer shared by the solvers.

Two quantum estimators with explicit cost contracts (range-bounded and
variance-bounded), the classical Hoeffding sample count, and a
contract-mock backend that returns estimates satisfying exactly the stated
error/confidence contract while charging the stated query count to the
ledger.  The statevector backend for the range-bounded estimator goes
through simulated amplitude estimation and charges its measured counts,
which is what keeps the mock's accounting honest.

The cost rules here are the schedule's: ``solvers.Line`` fixes each
estimate's accuracy, failure probability, phase bits, repetitions and
charge before a solve's first draw, and the batch estimates read them.

Estimate failures in the mock are drawn independently with the requested
failure probability; the default failure mode plants the estimate a factor
``adversarial_scale`` outside the promised radius, exercising the solvers'
union-bound robustness.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .errors import PreconditionError
from .mdp import expected_next_value, successor_variance
from .oracle import SampleOracle
from .qsim import MAX_PHASE_BITS, check_phase_bits, median_amplitude_estimates
from .rng import uniforms

__all__ = [
    "EstimatorConfig",
    "amplification_reps",
    "bounded_mean_charge",
    "variance_mean_charge",
    "hoeffding_sample_count",
    "statevector_phase_bits",
]

BACKEND_MOCK = "contract_mock"
BACKEND_STATEVECTOR = "statevector"
_PROMISE_TOL = 1e-9
_SHORT_MAP = 16  # entries up to which a scan in Python beats two numpy reductions


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
        if self.phase_bits is not None:  # None: derived from each line's accuracy
            check_phase_bits(self.phase_bits)

    def to_dict(self) -> dict:
        return asdict(self)


DEFAULT_CONFIG = EstimatorConfig()


def amplification_reps(delta: float) -> int:
    """Odd n = 2 ceil(log2(3 / delta)) + 1 runs; their median misses only when (n + 1) / 2 of
    them miss on one side, each such binomial tail below delta / 4 at a per-side miss <= 0.1033
    (a grid search, ROADMAP 15, not yet certified: 8/pi^2 leaves 0.19 for both sides)."""
    if not (0.0 < delta < 1.0 and 3.0 / delta < math.inf):
        raise PreconditionError(f"delta must be in (0, 1) with 3/delta finite, got {delta}")
    return 2 * math.ceil(math.log2(3.0 / delta)) + 1


def bounded_mean_charge(upper: float, eps: float, delta: float, cfg: EstimatorConfig = DEFAULT_CONFIG) -> int:
    """Query charge of the range-bounded quantum estimator."""
    if eps <= 0:
        raise PreconditionError(f"eps must be positive, got {eps}")
    if upper <= 0:
        raise PreconditionError(f"upper bound must be positive, got {upper}")
    ratio = upper / eps
    base = cfg.c1 * (ratio + math.sqrt(ratio))
    if not math.isfinite(base):
        raise PreconditionError(f"range-bounded charge is not finite at c1 = {cfg.c1}")
    return math.ceil(base) * amplification_reps(delta)


def variance_mean_charge(sigma, eps, delta: float, cfg: EstimatorConfig = DEFAULT_CONFIG) -> int:
    """Query charge of the variance-bounded quantum estimator, summed over the
    entries when sigma and eps are per-row arrays.

    The log factor is floored at log2(2) = 1 so the charge never vanishes
    when sigma/eps <= 2.
    """
    if not (fine := np.logical_and(sigma > 0.0, sigma < math.inf)).all():  # NaN fails both
        raise PreconditionError(f"sigma must be positive and finite, got {np.ravel(sigma)[fine.argmin()]}")
    if not np.all(eps > 0):
        raise PreconditionError(f"eps must be positive, got {eps}")
    ratio = np.divide(sigma, eps)
    with np.errstate(over="ignore"):  # an overflow is refused below
        base = np.sum(np.ceil(cfg.c2 * ratio * np.log2(np.maximum(ratio, 2.0)) ** 2))
    if not math.isfinite(base):
        raise PreconditionError(f"variance-bounded charge is not finite at c2 = {cfg.c2}")
    return int(base) * amplification_reps(delta)


def hoeffding_sample_count(upper: float, eps: float, delta: float) -> int:
    """ceil(upper^2 ln(2/delta) / (2 eps^2)); an eps so small that the count
    overflows, or that eps**2 underflows to 0, raises PreconditionError."""
    if eps <= 0:
        raise PreconditionError(f"eps must be positive, got {eps}")
    eps_sq = eps**2
    count = upper**2 * math.log(2.0 / delta) / (2.0 * eps_sq) if eps_sq else math.inf
    if not math.isfinite(count):
        raise PreconditionError(f"Hoeffding sample count for accuracy {eps} is not finite")
    return math.ceil(count)


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


def _range_violated(v: np.ndarray, upper: float, slack: float = 0.0) -> bool:
    """True when the value map leaves [0, upper] by more than slack plus float
    fuzz; a NaN entry, inside no range, raises PreconditionError.  A map of up to
    _SHORT_MAP entries that a scan in Python finds in range is not reduced."""
    tol = slack + _PROMISE_TOL * max(1.0, upper)
    if v.size <= _SHORT_MAP and all(-tol <= x <= upper + tol for x in v.ravel().tolist()):
        return False  # a NaN entry fails the scan, like an entry out of range
    lo, hi = np.minimum.reduce(v, axis=None), np.maximum.reduce(v, axis=None)  # a 2-D map too
    if lo != lo:  # a NaN entry makes both NaN
        _refuse_nan(v)
    return bool(lo < -tol or hi > upper + tol)


def _refuse_nan(v: np.ndarray) -> None:
    """Raise PreconditionError, naming its flat index, if an entry of the value map is NaN."""
    nan = np.isnan(v)
    if nan.any():
        raise PreconditionError(f"value map[{int(nan.argmax())}] is NaN")


def _variance_breached(var, sigma):
    """Entries whose successor variance exceeds the promised sigma^2 beyond float fuzz."""
    return var > sigma**2 + _PROMISE_TOL * np.maximum(1.0, sigma**2)


class MockRow(NamedTuple):
    """One stream's range-bounded mock draws, taken before its estimate:
    whether a failure flag is set, the noise in [-1, 1), unscaled until an
    estimate scales it by its line's err, and the stream's 16-byte key digest
    on its oracle, which ``stream`` re-keys to replay the stream from the start.
    ``_estimate`` reads the noise alone when no flag is set on a batch not
    voided, and replays the stream otherwise."""

    failed: bool
    noise: np.ndarray
    digest: bytes
    oracle: SampleOracle

    def stream(self) -> np.random.Generator:
        return self.oracle.keyed_rng(self.digest)


def mock_rows(oracle: SampleOracle, passes, f: float):
    """Yield a ``MockRow`` per stream of ``passes``, one family's iterator of
    ``rng.bulk_passes`` with n = 2*S*A, in order, for mock range-bounded
    estimates of every (s, a) at failure probability f.

    A batch draws its failure flags, ``random(shape) < f``, then its noise,
    ``uniform(-1, 1, shape)``, which its estimate scales by its line's err:
    the first 2*S*A uniforms of its stream, as the pass computed them, so
    every value equals the stream's own draw.  A row
    with a failed entry, or on a voided batch, is replayed by ``_estimate``
    on its stream, re-keyed from its digest; any other row needs only its noise.
    """
    shape = (oracle.mdp.num_states, oracle.mdp.num_actions)
    size = shape[0] * shape[1]
    for digests, words in passes:  # no uniforms of a pass outlive it: the next is computed here
        failed = (uniforms(words[:, :size]) < f).any(axis=1).tolist()
        noise = (-1.0 + 2.0 * uniforms(words[:, size:])).reshape(-1, *shape)
        for i, row in enumerate(noise):
            yield MockRow(failed[i], row, digests[16 * i:16 * i + 16], oracle)


def _estimate(mu, line, cfg, rng, forced=False, sigma=None, err=None):
    """Estimates of an array of means on ``line`` (a ``solvers.Line``) from
    one stream, drawn entry by entry in row-major order.  Returns
    (estimates, failed, charge), charging nothing itself: ``solvers._Iterate.estimate``,
    ``batch_bounded_mock`` and ``batch_variance_mock`` charge the ledger.

    Range-bounded on [0, line.upper] to error line.err, each entry charged
    line.charge, unless ``sigma`` is given, which selects the
    variance-bounded estimator: always contract mock, to the per-entry error
    ``err`` in (0, 4*sigma), charged by ``variance_mean_charge``.
    Statevector backend: per entry, the median of line.reps runs of
    line.t-bit amplitude estimation, drawn as one order statistic and
    inverted for all distinct means together.  Contract mock: the true mean plus
    noise within the error, or with probability line.f a planted failure;
    the draw order is fixed across failure modes.  ``forced`` (a voided
    promise) fails every entry.

    ``rng`` must start a stream this call alone reads; an oracle re-keys
    one Generator per stream, so take no other until the call returns.
    The mock draws the failure flags and the noise, then the planted-failure
    draws only when some entry fails: they come last, so skipping them
    changes no value this call returns.  A range-bounded mock ``rng`` may
    instead be a ``MockRow``: with no flag set on a batch not voided, the means plus its noise
    times line.err, else its stream replayed from the start, the same draws as its flags and noise.
    """
    if sigma is None:
        charge = line.charge * mu.size
        if cfg.backend == BACKEND_STATEVECTOR:
            a = np.minimum(np.maximum(mu / line.upper, 0.0), 1.0)  # np.clip's wrapper costs more than both
            est = line.upper * median_amplitude_estimates(a, line.t, line.reps, rng).reshape(a.shape)
            return est, np.full(est.shape, forced), charge
        if type(rng) is MockRow and not (forced or rng.failed):  # the bits its stream draws
            return mu + rng.noise * line.err, np.zeros(mu.shape, dtype=bool), charge
        rng = rng.stream() if type(rng) is MockRow else rng
        eps = line.err
    else:
        eps, charge = err, variance_mean_charge(sigma, err, line.f, cfg)  # checks sigma before any draw
    shape = np.shape(mu)
    fail = rng.random(shape) < line.f
    noise = rng.uniform(-1.0, 1.0, shape) * eps
    if forced or fail.any():
        fail |= forced
        sign = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
        spread = rng.uniform(-1.0, 1.0, shape)
        planted = sign if cfg.mock_failure_mode == "adversarial_edge" else spread
        est = mu + np.where(fail, cfg.adversarial_scale * eps * planted, noise)
    else:
        est = mu + noise
    return est, fail, charge


# ---------------------------------------------------------------------------
# Batched estimates.  One call estimates (P v)[s, a] for
# every (s, a) at once from a single derived stream, drawing entries in
# row-major order, on the schedule's line for that estimate.
# ---------------------------------------------------------------------------


def batch_bounded_mock(
    oracle: SampleOracle,
    value_map: np.ndarray,
    line,
    cfg: EstimatorConfig,
    rng: np.random.Generator | MockRow,
    phase: str,
    promise_slack: float = 0.0,
):
    """Range-bounded estimates of (P value_map)[s, a] for all rows on
    ``line``, on a stream or on its ``MockRow`` (see ``mock_rows``).

    A value map outside [0, line.upper] (beyond promise_slack) voids the
    contract of every estimate in the batch; those estimates are flagged and
    drawn from the failure distribution; a NaN entry is refused before any
    draw or charge.  Returns (estimates, failed, violated).  This is the unmemoized
    reference form of ``solvers._Iterate.estimate``, which keeps P value_map and the
    verdict between steps: the same estimates, failures and charge on the same stream.
    """
    violated = _range_violated(value_map, line.upper, promise_slack)
    est, failed, charged = _estimate(expected_next_value(oracle.mdp, value_map), line, cfg, rng, violated)
    oracle.ledger.charge_quantum(charged, phase)
    return est, failed, violated


def batch_variance_mock(
    oracle: SampleOracle,
    value_map: np.ndarray,
    sigma: np.ndarray,
    line,
    cfg: EstimatorConfig,
    rng: np.random.Generator,
    phase: str,
):
    """Mock variance-bounded estimates for all rows at once, each to error
    line.err * sigma under the promise Var[value_map(s')] <= sigma^2.

    Returns (estimates, errors, failed, n_variance_promise_breaches), the
    errors being the per-row array the estimates were drawn to.  A breach is
    surfaced, not raised: the sigma the epoch solver feeds in is itself estimated, and on
    the acceptance fixture's solves with no estimator failure Var reached 1.83 sigma^2.  It is
    harmless there: line 9's error window, c (1 - gamma)^1.5 eps, is so narrow that widening
    each anchor error by max(1, sd / sigma) moved no sandwich verdict.  A value map with a NaN
    entry, or a sigma that is NaN, infinite or not positive, is refused before any draw or charge."""
    _refuse_nan(value_map)
    if not 0.0 < line.err < 4.0:
        raise PreconditionError("variance-bounded estimator needs eps in (0, 4*sigma) per row")
    err = line.err * sigma
    est, failed, charged = _estimate(
        expected_next_value(oracle.mdp, value_map), line, cfg, rng, sigma=sigma, err=err)
    oracle.ledger.charge_quantum(charged, phase)
    breached = _variance_breached(successor_variance(oracle.mdp, value_map), sigma)
    return est, err, failed, int(breached.sum())
