"""Exact-distribution simulation of the two quantum subroutines.

Canonical amplitude estimation is simulated by sampling its closed-form
measurement distribution (phase estimation applied to the Grover operator of
the state being measured), not by evolving a statevector: only measurement
statistics are observable, and the closed form is exact and fast.  Maximum
finding is simulated as the threshold-improvement loop with exact Grover
success probabilities derived from the count of items beating the current
threshold.

These "honest" backends exist to validate the contract-mock backend's
query/error model; they expose measured query counts so the mock's constants
can be calibrated instead of guessed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .oracle import QueryLedger

__all__ = [
    "AmplitudeEstimationConfig",
    "outcome_distribution",
    "single_run_error_radius",
    "amplitude_estimation_sample",
    "median_amplitude_estimate",
    "median_amplitude_estimates",
    "simulate_argmax",
    "DEFAULT_C_MAX",
]

MAX_PHASE_BITS = 24  # simulation tractability bound: 2^24 outcome grid
DEFAULT_C_MAX = 4.0
MEDIAN_REPS_FACTOR = 18  # Chernoff margin on the 8/pi^2 single-run success


@dataclass(frozen=True)
class AmplitudeEstimationConfig:
    """Phase-estimation resolution and the true squared amplitude."""

    phase_bits: int
    target_amplitude: float

    def __post_init__(self):
        if not (1 <= self.phase_bits <= MAX_PHASE_BITS):
            raise PreconditionError(
                f"phase_bits must be in [1, {MAX_PHASE_BITS}], got {self.phase_bits}"
            )
        if not (0.0 <= self.target_amplitude <= 1.0):
            raise PreconditionError(
                f"target_amplitude must be in [0, 1], got {self.target_amplitude}"
            )

    @property
    def grid_size(self) -> int:
        return 1 << self.phase_bits

    @property
    def queries_per_run(self) -> int:
        return self.grid_size - 1


def _dirichlet_kernel_sq(x: np.ndarray, m: int) -> np.ndarray:
    # |sin(pi m x) / (m sin(pi x))|^2, periodic in x with period 1;
    # equals (sinc(m xw)/sinc(xw))^2 after wrapping xw to [-1/2, 1/2].
    xw = x - np.round(x)
    return (np.sinc(m * xw) / np.sinc(xw)) ** 2


def outcome_distribution(a: float, t: int) -> np.ndarray:
    """Exact measurement distribution of t-bit amplitude estimation on a."""
    cfg = AmplitudeEstimationConfig(phase_bits=t, target_amplitude=a)
    m = cfg.grid_size
    omega = math.asin(math.sqrt(cfg.target_amplitude)) / math.pi  # in [0, 1/2]
    y = np.arange(m) / m
    return 0.5 * (_dirichlet_kernel_sq(y - omega, m) + _dirichlet_kernel_sq(y + omega, m))


def single_run_error_radius(a: float, t: int) -> float:
    """Accuracy radius holding with probability >= 8/pi^2 for a single run."""
    m = float(1 << t)
    return 2.0 * math.pi * math.sqrt(a * (1.0 - a)) / m + math.pi**2 / m**2


def _estimate_draws(a: np.ndarray, t: int, u: np.ndarray) -> np.ndarray:
    """Estimates sin^2(pi y / 2^t), y drawn for row i of the uniforms u by
    inverting the outcome CDF of amplitude a[i].  Builds one grid per distinct
    non-zero amplitude, and only one is alive at a time.  Amplitude 0 needs no
    grid: its CDF is exactly 1.0 from y = 0 on (both kernel terms there are
    sinc(0)/sinc(0) = 1), so every u in [0, 1) inverts to y = 0."""
    groups = {}  # -0.0 joins 0.0
    for i, value in enumerate(a.tolist()):
        groups.setdefault(value, []).append(i)
    y = np.empty(u.shape, dtype=np.int64)
    for value, rows in groups.items():
        if value == 0.0:
            y[rows] = 0
            continue
        cdf = np.cumsum(outcome_distribution(value, t))
        cdf[-1] = 1.0  # absorb float round-off in the last bin
        y[rows] = np.searchsorted(cdf, u[rows], side="right")
        del cdf
    return np.sin(np.pi * y / (1 << t)) ** 2


def median_amplitude_estimates(
    amplitudes, t: int, reps: int, rng: np.random.Generator
) -> np.ndarray:
    """Median of ``reps`` t-bit amplitude-estimation runs for each amplitude.

    Draws rng.random((n, reps)) in one call, so entry i uses the i-th block of
    reps uniforms: the same draws as n successive median_amplitude_estimate
    calls.  Charges nothing; each estimate costs reps * (2^t - 1) queries.
    """
    a = np.asarray(amplitudes, dtype=float).ravel()
    AmplitudeEstimationConfig(t, 0.0)  # checks t, also for an empty batch
    outside = ~((a >= 0.0) & (a <= 1.0))  # NaN is outside too
    if outside.any():
        raise PreconditionError(f"amplitudes must be in [0, 1], got {a[outside][0]}")
    return np.median(_estimate_draws(a, t, rng.random((a.size, reps))), axis=1)


def amplitude_estimation_sample(
    cfg: AmplitudeEstimationConfig,
    rng: np.random.Generator,
    size: int | None = None,
    ledger: QueryLedger | None = None,
    phase: str | None = None,
):
    """Draw estimate(s) sin^2(pi y / 2^t) from the exact outcome distribution.

    Charges 2^t - 1 quantum oracle calls per run when a ledger is given.
    """
    n = 1 if size is None else int(size)
    est = _estimate_draws(np.array([cfg.target_amplitude]), cfg.phase_bits, rng.random((1, n)))[0]
    if ledger is not None:
        ledger.charge_quantum(n * cfg.queries_per_run, phase)
    return float(est[0]) if size is None else est


def median_amplitude_estimate(
    cfg: AmplitudeEstimationConfig,
    delta: float,
    rng: np.random.Generator,
    reps: int | None = None,
    ledger: QueryLedger | None = None,
    phase: str | None = None,
) -> float:
    """Median of repeated runs: boosts the 8/pi^2 single-run success to 1-delta."""
    if not (0.0 < delta < 1.0):
        raise PreconditionError(f"delta must be in (0, 1), got {delta}")
    if reps is None:
        reps = max(1, MEDIAN_REPS_FACTOR * math.ceil(math.log2(1.0 / delta)))
    est = median_amplitude_estimates([cfg.target_amplitude], cfg.phase_bits, reps, rng)
    if ledger is not None:
        ledger.charge_quantum(reps * cfg.queries_per_run, phase)
    return float(est[0])


def argmax_query_budget(n: int, delta: float, c_max: float = DEFAULT_C_MAX) -> float:
    return c_max * math.sqrt(n) * math.log2(1.0 / delta)


def simulate_argmax(
    values,
    delta: float,
    rng: np.random.Generator,
    c_max: float = DEFAULT_C_MAX,
    ledger: QueryLedger | None = None,
    phase: str | None = None,
    probe_cost: int = 1,
) -> int:
    """Threshold-improvement maximum finding with exact Grover statistics.

    Items are ordered lexicographically by (value, -index), so the unique top
    element is the lowest-index argmax; the loop marks items beating the
    current threshold and runs Grover with the iteration count drawn from the
    standard geometrically-growing schedule for an unknown number of marked
    items.  Runs until the query budget c_max * sqrt(n) * log2(1/delta) is
    exhausted (the real algorithm has no stopping certificate), so charged
    queries never exceed the budget.  Each probe charges ``probe_cost`` oracle
    calls, which is how nested value-oracle costs are passed through.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise PreconditionError("values must be a non-empty vector")
    if not (0.0 < delta < 1.0):
        raise PreconditionError(f"delta must be in (0, 1), got {delta}")
    n = v.size
    # initial threshold: a uniform index (nothing to search when n == 1)
    j = int(rng.integers(n)) if n > 1 else 0
    budget = argmax_query_budget(n, delta, c_max)
    if n == 1 or budget < 1.0:
        # no oracle use needed, or not even one affordable: the guess stands
        return j

    idx = np.arange(n)
    probes = 1  # one query reads the initial threshold's value
    grow = 6.0 / 5.0
    m_cap = math.ceil(math.sqrt(n))
    m_max = 1.0

    def beating(j):
        marked = (v > v[j]) | ((v == v[j]) & (idx < j))
        return marked, int(marked.sum())

    marked, k = beating(j)
    while True:
        m_iter = int(rng.integers(0, math.ceil(m_max)))
        cost = m_iter + 1  # Grover iterations plus the verifying measurement
        if probes + cost > budget:
            break
        probes += cost
        if k > 0:
            theta = math.asin(math.sqrt(k / n))
            p_success = math.sin((2 * m_iter + 1) * theta) ** 2
            if rng.random() < p_success:
                # measurement collapses uniformly onto the marked set
                j = int(idx[marked][rng.integers(k)])
                marked, k = beating(j)
                m_max = 1.0
                continue
        # failed round (or nothing marked): keep threshold, widen the schedule
        m_max = min(grow * m_max, m_cap)

    if ledger is not None:
        ledger.charge_quantum(probes * probe_cost, phase)
    return j
