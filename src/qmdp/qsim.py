"""Exact-distribution simulation of the two quantum subroutines.

Canonical amplitude estimation is simulated by sampling its closed-form
measurement distribution (phase estimation applied to the Grover operator of
the state being measured), not by evolving a statevector.  Each draw inverts
that distribution's 2^t-cell float CDF; from t = 11 on the CDF is summed in
closed form instead (tabulated around its peaks, in the gaps between them by
one Euler-Maclaurin run from the nearest tabulated end), and a bound on the
grid's round-off certifies each draw as the grid's own (the uniforms it
refuses go to the grid, built in fixed chunks).  Maximum finding
is the threshold-improvement loop with exact Grover success probabilities,
on draws replayed from the stream's raw words; the rounds left once the
maximum is found are resolved in bulk.

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
from .rng import WordReader, lemire

__all__ = [
    "AmplitudeEstimationConfig",
    "outcome_distribution",
    "single_run_error_radius",
    "amplitude_estimation_sample",
    "median_amplitude_estimates",
    "simulate_argmax",
    "DEFAULT_C_MAX",
    "MAX_ARGMAX_PROBES",
]

MAX_PHASE_BITS = 24  # simulation tractability bound: 2^24 outcome grid
DEFAULT_C_MAX = 4.0
# simulate_argmax's largest budget: its time is linear in the budget, and a
# budget of 2^24 probes takes 0.4-1.0 s a call on a 2-vCPU Xeon (n = 64 and 8)
MAX_ARGMAX_PROBES = 2**24
FAST_MIN_BITS = 11  # from here on the closed-form CDF beats one outcome grid
_CHUNK = 1 << 16  # cells per grid chunk: a grid's memory does not grow with t
_W = 32  # pole distance _cdf_bound takes for each Euler-Maclaurin end (_WIDE or more)
_WIDE = 192  # cells on either side of each peak whose CDF is tabulated


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


def outcome_distribution(a: float, t: int, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Exact measurement distribution of t-bit amplitude estimation on a (cells [start, stop))."""
    cfg = AmplitudeEstimationConfig(phase_bits=t, target_amplitude=a)
    m = cfg.grid_size
    omega = math.asin(math.sqrt(cfg.target_amplitude)) / math.pi  # in [0, 1/2]
    y = np.arange(start, m if stop is None else min(stop, m)) / m
    return 0.5 * (_dirichlet_kernel_sq(y - omega, m) + _dirichlet_kernel_sq(y + omega, m))


def single_run_error_radius(a: float, t: int) -> float:
    """Accuracy radius holding with probability >= 8/pi^2 for a single run."""
    m = float(1 << t)
    return 2.0 * math.pi * math.sqrt(a * (1.0 - a)) / m + math.pi**2 / m**2


def _grid_draws(a: float, t: int, u: np.ndarray) -> np.ndarray:
    """searchsorted(cumsum(outcome_distribution(a, t)), u, side="right"), last
    cell set to 1.0, counted over chunks of _CHUNK cells.  A chunk's cumsum
    starts from the previous chunk's last value, which is the full cumsum bit
    for bit, and no chunk is built after one that ends above every uniform."""
    m = 1 << t
    y = np.zeros(u.shape, dtype=np.int64)
    carry = 0.0
    for lo in range(0, m, _CHUNK):
        cdf = outcome_distribution(a, t, lo, lo + _CHUNK)
        cdf[0] += carry
        np.cumsum(cdf, out=cdf)
        if lo + _CHUNK >= m:
            cdf[-1] = 1.0  # absorb float round-off in the last bin
        y += np.searchsorted(cdf, u, side="right")
        carry = cdf[-1]
        if carry > u.max(initial=0.0):
            break
    return y


def _fold(k: np.ndarray, c: float, m: int) -> np.ndarray:
    # k -/+ c moved into [-m/2, m/2] by whole periods m: only the last step rounds
    pm = np.array([[c], [-c]])
    return (k - m * np.rint((k - pm) / m)) - pm


def _em(k, c: float, m: int):
    """S(k) with sum_{j=a+1}^{b} csc2(j) = S(b) - S(a) + R when no pole lies in
    [a, b], where csc2(j) = csc^2(h (j - c)) + csc^2(h (j + c)), h = pi / m:
    Euler-Maclaurin with the integral -cot / h, half the end value and three
    Bernoulli terms, each a polynomial in C = cot(h y).  The sixth derivative
    of csc^2 keeps one sign, so |R| is at most the change of the last term.
    k is one cell, an int evaluated in scalar math, or an array of cells."""
    h = math.pi / m
    a1 = -1.0 / h - h / 6 + h**3 / 45 - 17 * h**5 / 1890
    a3, a5, a7 = -h / 6 + h**3 / 18 - 11 * h**5 / 270, h**3 / 30 - h**5 / 18, -h**5 / 42

    def term(x):
        return 0.5 + x * (a1 + x * (0.5 + x * (a3 + x * x * (a5 + x * x * a7))))

    if isinstance(k, int):  # _fold in scalar math
        return sum(term(1.0 / math.tan(h * ((k - m * round((k - pm) / m)) - pm))) for pm in (c, -c))
    y = h * _fold(k, c, m)
    s = term(np.cos(y) / np.sin(y))  # sin and cos only: numpy's tan maps 256 KiB more
    return s[0] + s[1]


def _closed_cdf(c: float, m: int, s: float):
    """(table, f_table, gap): F(k) = sum_{j<=k} p_j, p_j = s^2 / (2 m^2) csc2(j),
    tabulated at the cells ``table`` over the first run [r0, r1] (the cells
    within _WIDE of the first peak) and its mirror onto the second (p_j =
    p_{m-j}, so F(k) = 1 + p_0 - F(m - 1 - k)), and gap(k) = F(k) at cells
    between them, all _WIDE or more from every pole, by one Euler-Maclaurin
    run from the nearest tabulated end: -1 (F = 0) left of the first run, r1
    between the runs, and right of the mirrored run the left gap mirrored."""
    h, scale = math.pi / m, 0.5 * (s / m) ** 2
    r0, r1 = max(math.floor(c) - _WIDE, 0), math.floor(c) + _WIDE + 1  # the first run
    m0 = max(m - 1 - r1, r1 + 1)  # mirrored cells past the first run, short of m - 1
    table = np.concatenate(([-1], np.arange(r0, r1 + 1), np.arange(m0, m - 1 - r0), [m - 1]))
    csc2 = 1.0 / np.sin(h * _fold(np.maximum(table[:r1 - r0 + 2], 0), c, m)) ** 2  # cell 0, the run
    p = scale * (csc2[0] + csc2[1])
    em_left = _em(-1, c, m) if r0 > 0 else 0.0  # the left gap [0, r0 - 1] in one run
    p[1] += scale * (_em(r0 - 1, c, m) - em_left) if r0 > 0 else 0.0
    f = np.cumsum(p[1:])
    f_table = np.concatenate(([0.0], f, (1.0 + p[0]) - f[1:max(m - r0 - m0, 1)][::-1], [1.0]))

    def gap(k):
        right = k >= m - 1 - r0  # right of the mirrored run: the left gap mirrored
        j = np.where(right, m - 1 - k, k)
        mid = j > r0  # between the runs, where r1 lies _WIDE from every pole
        em_0 = np.where(mid, _em(r1, c, m) if mid.any() else 0.0, em_left)
        f_j = np.where(mid, f[-1], 0.0) + scale * (_em(j, c, m) - em_0)
        return np.where(right, (1.0 + p[0]) - f_j, f_j)

    return table, f_table, gap


def _cdf_bound(f: np.ndarray, k: np.ndarray, m: int, s: float) -> np.ndarray:
    """Bound on |the grid's float cdf[k] - F(k)| given F(k) as evaluated, f."""
    # With u = 2^-53, q = m u / s <= 2^-10 and t >= 11, term by term:
    # - a kernel's sinc numerator: y -/+ omega rounds by 1.5 u (4.71 m u times
    #   pi m), float pi is 1.1 u off (0.55 m u on |m xw| <= m / 2), pi * (m xw)
    #   rounds by 1.57 m u: argument off by 6.83 m u, |sin| = s, relative 6.83 q;
    # - its sinc(xw): argument off by <= 6.83 u against |sin(pi xw)| >=
    #   2 dist(j -/+ c, mZ) / m >= (2 / pi) s / m, relative 10.7 q; so each
    #   K^2 and cell is within 35.7 q, the cells up to k within 35.7 q F(k);
    # - cumsum: k additions, each rounding by u a partial sum <= 1.01 F(k);
    # - F as evaluated (_closed_cdf, a gap cell by one run from its tabulated end):
    #   387 tabulated terms summed, s^2, the mirror (where F >= 0.49) and <= 4
    #   Euler-Maclaurin values, each <= 0.0033 s^2 and within 20 u: well inside
    #   2^11 u F + 1.5 u, and 2^11 u F <= q F as m / s >= 2^11; F -/+ bound rounds by 0.5 u;
    # - Euler-Maclaurin: <= 2 runs, each within (s/m)^2 (2/30240) h^5 p5 (the bound's 10
    #   covers 5), as |h5| <= 2 h^5 p5(cot(h W)) at >= W cells from every pole.
    h, cw = math.pi / m, 1.0 / math.tan(math.pi * _W / m)
    p5 = cw * (272.0 + cw**2 * (1232.0 + cw**2 * (1680.0 + 720.0 * cw**2)))
    bound = 2.0**-53 * ((37.0 * m / s + 1.01 * (k + 1)) * f + 2.0) + (s / m) ** 2 * 10 / 30240 * h**5 * p5
    bound[(k < 0) | (k == m - 1)] = 0.0  # F(-1) = 0 and the last cell's 1.0 are exact
    return bound


def _certified_draws(omega: float, t: int, u: np.ndarray) -> np.ndarray | None:
    """_grid_draws for one amplitude from the exact CDF F at the grid's own
    omega (_closed_cdf; m = 2^t, c = m omega, s = |sin(pi c)|), without the
    grid: each draw _cdf_bound certifies bit for bit, -1 for each it refuses,
    or None for all when s is too small for it."""
    m = 1 << t
    c = m * omega  # exact: m is a power of two
    s = math.sin(math.pi * min(c % 1.0, 1.0 - c % 1.0))
    if s < m * 2.0**-43:  # a = 1 (s = 0) included; _cdf_bound needs q = m u / s <= 2^-10
        return None
    table, f_table, gap = _closed_cdf(c, m, s)
    # in [1, size - 1]: F(-1) = 0 <= u < 1.0, the grid's last cell
    i = np.searchsorted(f_table, u, side="right")
    lo, hi, f_lo, f_hi = table[i - 1], table[i], f_table[i - 1], f_table[i]
    while (open_ := np.flatnonzero(hi - lo > 1)).size:  # 128-section in the gaps
        lo_o, hi_o = lo[open_, None], hi[open_, None]
        k = lo_o + (hi_o - lo_o) * np.arange(129) // 128
        f = np.where(k == lo_o, f_lo[open_, None], f_hi[open_, None])
        f[inner] = gap(k[inner := (k > lo_o) & (k < hi_o)])
        n, row = np.clip((f <= u[open_, None]).sum(axis=1), 1, 128), np.arange(open_.size)
        lo[open_], f_lo[open_], hi[open_], f_hi[open_] = k[row, n - 1], f[row, n - 1], k[row, n], f[row, n]
    bound = _cdf_bound(np.concatenate((f_lo, f_hi)), np.concatenate((lo, hi)), m, s)
    ok = (hi - lo == 1) & (f_lo + bound[:u.size] <= u) & (u < f_hi - bound[u.size:])
    return np.where(ok, hi, -1)


def _estimate_draws(a: np.ndarray, t: int, u: np.ndarray) -> np.ndarray:
    """Estimates sin^2(pi y / 2^t), y drawn for row i of the uniforms u by
    inverting the outcome CDF of amplitude a[i], once per distinct amplitude:
    by _certified_draws from t = FAST_MIN_BITS on, else or where it refuses
    by _grid_draws.  Amplitude 0 needs neither: its CDF is exactly 1.0 from
    y = 0 on (sinc(0)/sinc(0) = 1), so every u in [0, 1) inverts to y = 0."""
    groups = {}  # -0.0 joins 0.0
    for i, value in enumerate(a.tolist()):
        groups.setdefault(value, []).append(i)
    y = np.empty(u.shape, dtype=np.int64)
    for value, rows in groups.items():
        if value == 0.0:
            y[rows] = 0
            continue
        ur = u[rows].ravel()
        omega = math.asin(math.sqrt(value)) / math.pi
        yr = _certified_draws(omega, t, ur) if t >= FAST_MIN_BITS else None
        yr = _grid_draws(value, t, ur) if yr is None else yr
        if (refused := yr < 0).any():  # only these go to the grid, which stops above them
            yr[refused] = _grid_draws(value, t, ur[refused])
        y[rows] = yr.reshape(len(rows), -1)
    return np.sin(np.pi * y / (1 << t)) ** 2


def _check_count(name: str, value, least: int) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise PreconditionError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def median_amplitude_estimates(
    amplitudes, t: int, reps: int, rng: np.random.Generator
) -> np.ndarray:
    """Median of ``reps`` t-bit amplitude-estimation runs for each amplitude.

    Draws rng.random((n, reps)) in one call, so entry i uses the i-th block of
    reps uniforms: the same draws as n successive one-amplitude calls on the
    stream.  Charges nothing; each estimate costs reps * (2^t - 1) queries.
    """
    a = np.asarray(amplitudes, dtype=float).ravel()
    AmplitudeEstimationConfig(t, 0.0)  # checks t, also for an empty batch
    _check_count("reps", reps, 1)
    outside = ~((a >= 0.0) & (a <= 1.0))  # NaN is outside too
    if outside.any():
        raise PreconditionError(f"amplitudes must be in [0, 1], got {a[outside][0]}")
    lo, hi = (reps - 1) // 2, reps // 2  # np.median: the middle pair's mean, (x + x) / 2 = x
    est = np.partition(_estimate_draws(a, t, rng.random((a.size, reps))), [lo, hi], axis=1)
    return (est[:, lo] + est[:, hi]) / 2


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
    n = 1 if size is None else _check_count("size", size, 0)
    est = _estimate_draws(np.array([cfg.target_amplitude]), cfg.phase_bits, rng.random((1, n)))[0]
    if ledger is not None:
        ledger.charge_quantum(n * cfg.queries_per_run, phase)
    return float(est[0]) if size is None else est


def argmax_query_budget(n: int, delta: float, c_max: float = DEFAULT_C_MAX) -> float:
    return c_max * math.sqrt(n) * math.log2(1.0 / delta)


def _argmax_tail(draws: WordReader, k: int, probes: int, limit: int) -> tuple[int, bool]:
    """simulate_argmax's loop once nothing is marked and ceil(m_max) = k for
    good, one cumsum per window of ``draws.halves()``: (probes, True) at the
    break, or (probes, False) before a draw Lemire's step rejects."""
    while True:
        index, rejected = lemire(draws.halves(), k)
        r = int(np.argmax(rejected)) if rejected.any() else index.size
        spent = np.cumsum(index[:r] + 1)  # Grover iterations plus one
        b = int(np.searchsorted(spent, limit - probes, side="right"))
        draws.skip(min(b + 1, r))
        probes += int(spent[b - 1]) if b else 0
        if b < r or r < index.size:
            return probes, b < r


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
    queries never exceed the budget, itself at most MAX_ARGMAX_PROBES.  Each
    probe charges ``probe_cost`` oracle calls, which is how nested
    value-oracle costs are passed through.
    Draws are rng's own, replayed from its raw words; once nothing is marked
    and the schedule is capped, they are resolved in bulk (``_argmax_tail``).
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise PreconditionError("values must be a non-empty vector")
    if np.isnan(v).any():
        raise PreconditionError("values must not be NaN")
    if not (0.0 < delta < 1.0):
        raise PreconditionError(f"delta must be in (0, 1), got {delta}")
    n = v.size
    budget = argmax_query_budget(n, delta, c_max)
    if not (0.0 < c_max < math.inf and budget < math.inf):
        raise PreconditionError(f"c_max must be positive and finite, got {c_max}")
    if budget > MAX_ARGMAX_PROBES:
        raise PreconditionError(f"max-finding budget of {budget:.6g} probes exceeds "
                                f"MAX_ARGMAX_PROBES = {MAX_ARGMAX_PROBES}; lower c_max")
    # initial threshold: a uniform index (nothing to search when n == 1)
    j = int(rng.integers(n)) if n > 1 else 0
    if n == 1 or budget < 1.0:
        # no oracle use needed, or not even one affordable: the guess stands
        return j

    probes = 1  # one query reads the initial threshold's value
    grow = 6.0 / 5.0
    m_cap = math.ceil(math.sqrt(n))
    m_max = 1.0
    draws = WordReader(rng)
    vl = v.tolist()

    def beating(j, among):  # the items of among that beat item j, in index order
        return [i for i in among if vl[i] > vl[j] or (vl[i] == vl[j] and i < j)]

    marked = beating(j, range(n))
    k = len(marked)
    while True:
        if k == 0 and m_max == m_cap:
            probes, done = _argmax_tail(draws, m_cap, probes, math.floor(budget))
            if done:
                break
        m_iter = draws.integers(math.ceil(m_max))
        cost = m_iter + 1  # Grover iterations plus the verifying measurement
        if probes + cost > budget:
            break
        probes += cost
        if k > 0:
            theta = math.asin(math.sqrt(k / n))
            p_success = math.sin((2 * m_iter + 1) * theta) ** 2
            if draws.random() < p_success:
                # measurement collapses uniformly onto the marked set
                j = marked[draws.integers(k)]
                marked = beating(j, marked)  # what beats j beat the old threshold
                k = len(marked)
                m_max = 1.0
                continue
        # failed round (or nothing marked): keep threshold, widen the schedule
        m_max = min(grow * m_max, m_cap)

    draws.close()
    if ledger is not None:
        ledger.charge_quantum(probes * probe_cost, phase)
    return j
