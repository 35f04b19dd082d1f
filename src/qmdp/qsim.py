"""Exact-distribution simulation of the two quantum subroutines.

Canonical amplitude estimation is simulated by sampling its closed-form measurement
distribution (phase estimation applied to the Grover operator of the state being
measured), not by evolving a statevector.  Its CDF F is summed in closed form over cells 0
to 2^t / 2, and the median of an odd number of runs is one order statistic: a Beta variate
inverted on the CDF of min(y, 2^t - y), searched in rows of F that a pass tabulates only to a
few cells past the peak, where medians fall.  Maximum finding is the threshold-improvement search
with exact Grover success probabilities, drawn with one uniform from the exact joint law of the
rank it returns and the probes it runs, tabulated once per (items, budget).

These "honest" backends exist to validate the contract-mock backend's
query/error model; they expose measured query counts so the mock's constants
can be calibrated instead of guessed.
"""

from __future__ import annotations

import functools
import math
from itertools import accumulate, compress

import numpy as np

from .errors import PreconditionError
from .oracle import QueryLedger

__all__ = [
    "check_phase_bits",
    "outcome_distribution",
    "single_run_error_radius",
    "amplitude_estimation_sample",
    "median_amplitude_estimates",
    "simulate_argmax",
    "DEFAULT_C_MAX",
    "MAX_ARGMAX_ITEMS",
    "MAX_ARGMAX_PROBES",
]

MAX_PHASE_BITS = 24  # largest t accepted: outcome_distribution's 2^t-cell grid is 128 MiB there
DEFAULT_C_MAX = 4.0
MAX_ARGMAX_ITEMS = 64  # simulate_argmax's largest n: its law's ring holds 8 x 13 x 64 cells there
# simulate_argmax's largest budget: a law takes the same time and memory to build at any budget,
# about 30 ms and 116 KiB at n = 64 on a 2-vCPU Xeon
MAX_ARGMAX_PROBES = 2**24
_LAW_CUT = 2.0**-64  # mass _argmax_law drops once all of it is below this
_CHUNK_CELLS = 2**10  # cells of (counts, levels, ranks) an _argmax_law step takes at once
_WIDE = 192  # cells on either side of the peak at c in an amplitude's run
_REACH = 9  # cells past floor(c) a pass tabulates first: medians of 31 or more runs fall within it
_GROUPS = 64  # amplitudes per closed-form pass: its (2, groups, 387) arrays stay under 2^16 cells


def check_phase_bits(t) -> int:
    """t as an int when it is an integer, not a bool, in [1, MAX_PHASE_BITS]: the one
    phase-bits rule, which raises PreconditionError naming phase_bits otherwise."""
    if isinstance(t, bool) or not isinstance(t, (int, np.integer)) or not 1 <= t <= MAX_PHASE_BITS:
        raise PreconditionError(f"phase_bits must be an integer in [1, {MAX_PHASE_BITS}], got {t!r}")
    return int(t)


def _dirichlet_kernel_sq(x: np.ndarray, m: int) -> np.ndarray:
    # |sin(pi m x) / (m sin(pi x))|^2, periodic in x with period 1;
    # equals (sinc(m xw)/sinc(xw))^2 after wrapping xw to [-1/2, 1/2].
    xw = x - np.round(x)
    return (np.sinc(m * xw) / np.sinc(xw)) ** 2


def outcome_distribution(a: float, t: int) -> np.ndarray:
    """Exact measurement distribution of t-bit amplitude estimation on a."""
    m = 1 << check_phase_bits(t)
    if not 0.0 <= a <= 1.0:
        raise PreconditionError(f"amplitude must be in [0, 1], got {a}")
    omega = math.asin(math.sqrt(a)) / math.pi  # in [0, 1/2]
    y = np.arange(m) / m
    return 0.5 * (_dirichlet_kernel_sq(y - omega, m) + _dirichlet_kernel_sq(y + omega, m))


def single_run_error_radius(a: float, t: int) -> float:
    """Radius holding with probability >= 8/pi^2 for one run; a and t as outcome_distribution takes them."""
    m = float(1 << check_phase_bits(t))
    if not 0.0 <= a <= 1.0:
        raise PreconditionError(f"amplitude must be in [0, 1], got {a}")
    return 2.0 * math.pi * math.sqrt(a * (1.0 - a)) / m + math.pi**2 / m**2


@functools.cache  # one entry per t
def _em_coefficients(m: int) -> tuple:
    h = math.pi / m
    return (h, -1.0 / h - h / 6 + h**3 / 45 - 17 * h**5 / 1890, -h / 6 + h**3 / 18 - 11 * h**5 / 270,
            h**3 / 30 - h**5 / 18, -h**5 / 42)


def _em(k, c, m: int):
    """S(k) with sum_{j=a+1}^{b} csc2(j) = S(b) - S(a) + R when no pole lies in
    [a, b], where csc2(j) = csc^2(h (j - c)) + csc^2(h (j + c)), h = pi / m:
    Euler-Maclaurin with the integral -cot / h, half the end value and three
    Bernoulli terms, each a polynomial in C = cot(h y) (its coefficients kept per m).  The sixth
    derivative of csc^2 keeps one sign, so |R| is at most the change of the last term.
    k is one cell, an int in scalar math, or an array of cells (c one or one per cell)."""
    h, a1, a3, a5, a7 = _em_coefficients(m)
    # k -+ c moved into [-m/2, m/2] by whole periods m (only the last step rounds), and cot
    if isinstance(k, int):  # in scalar math, as the array branch takes them
        y0, y1 = h * ((k - m * round((k - c) / m)) - c), h * ((k - m * round((k + c) / m)) + c)
        x, z = math.cos(y0) / math.sin(y0), math.cos(y1) / math.sin(y1)
    else:
        c = np.array((c, -c)).reshape(2, -1)  # both kernels in one pass
        y = h * ((k - m * np.rint((k - c) / m)) - c)
        x, z = np.cos(y) / np.sin(y)  # sin and cos only: numpy's tan maps 256 KiB more
    x2, z2 = x * x, z * z  # each square computed once: the same bits as twice
    return (0.5 + x * (a1 + x * (0.5 + x * (a3 + x2 * (a5 + x2 * a7))))
            + (0.5 + z * (a1 + z * (0.5 + z * (a3 + z2 * (a5 + z2 * a7))))))


def _closed_cdf(m: int, c, scale, r0, em_r0, n):
    """(f, p0): F(k) = sum_{j<=k} p_j, p_j = scale[g] csc2(j), of amplitude g (c[g] <= m/2) at
    f[g, k - r0[g]] for its n[g] cells from r0[g], up to m/2 - 1, the mass em_r0[g] of cells
    0..r0[g] - 1 added at r0[g]; p0[g] = F(0).  A cell takes the same steps in any row, and F is one
    cumsum from r0: a row is, bit for bit, the start of any longer one, and is not read past n[g]."""
    col = np.array((r0, scale, em_r0))[:, :, None]  # one column per amplitude
    k = np.arange(-1.0, max(n)) + col[0]
    k[:, 0], c_ = 0.0, np.array(([-x for x in c], c))[:, :, None]  # cell 0, then the cells from r0
    # both kernels folded as _em folds them: on cells 0..m/2, k - c needs no shift, and k + c
    # is taken m back where it passes m/2 (rint's half rounds to 0), as (k - m) + c
    y = k + c_
    if max(r0) + max(n) + max(c) > m / 2 + 1:  # some row's k + c may pass m/2
        np.add(k - m, c_[1], out=y[1], where=y[1] > m / 2)
    y *= math.pi / m
    csc2 = np.divide(1.0, np.square(np.sin(y, out=y), out=y), out=y)
    p = np.multiply(col[1], np.add(csc2[0], csc2[1], out=csc2[0]), out=csc2[0])
    p[:, 1] += col[2, :, 0]
    return p[:, 1:].cumsum(axis=1), p[:, 0]


def _closed_form_draws(omega: list, t: int, w: np.ndarray, size: list) -> np.ndarray:
    """j = min(k, m - k) for each amplitude g at its next size[g] variates w: G's inverse at w, the cell
    j <= m/2 with F(j - 1) <= u < F(j) at u = (w + F(0)) / 2, F the outcome CDF at omega[g] (m = 2^t,
    c = m omega, s = |sin(pi c)|), F(-1) = 0 and F(m/2) = 1.0; up to _GROUPS amplitudes a pass.  F is
    tabulated (_closed_cdf) from r0 = floor(c) - _WIDE to floor(c) + _REACH, and on to the end of its run
    r1 = floor(c) + _WIDE + 1 (r0, r1 in 0..m/2 - 1) for a u at or past that.  Off the run, u is placed
    by 128-section on Euler-Maclaurin sums from -1 or r1.  An amplitude F does not fit draws round(c)."""
    m, ends, g = 1 << t, list(accumulate(size, initial=0)), _GROUPS
    if len(size) > g:  # a pass's arrays grow with its amplitudes
        return np.concatenate((_closed_form_draws(omega[:g], t, w[:ends[g]], size[:g]),
                               _closed_form_draws(omega[g:], t, w[ends[g]:], size[g:])))
    runs = []
    for c in omega:
        c *= m  # exact: m is a power of two
        s = math.sin(math.pi * min(c % 1.0, 1.0 - c % 1.0))
        # F has a pole at a cell when s = 0 (a = 1), and near an integer c, j - c loses its digits:
        # such amplitudes are drawn from their point masses and get no row: the others get a pass
        if s < m * 2.0**-43:  # of their own, or none if there are none
            fit = [math.sin(math.pi * min(x * m % 1.0, 1.0 - x * m % 1.0)) >= m * 2.0**-43 for x in omega]
            j, rows = np.repeat([round(x * m) for x in omega], size), np.repeat(fit, size)
            if any(fit):
                j[rows] = _closed_form_draws([*compress(omega, fit)], t, w[rows], [*compress(size, fit)])
            return j
        peak, scale = math.floor(c), 0.5 * (s / m) ** 2
        r0, r1 = max(peak - _WIDE, 0), min(peak + _WIDE + 1, m // 2 - 1)
        left = _em(-1, c, m) if r0 else 0.0  # S(-1), from which cells 0..r0 - 1 are summed
        runs.append((c, scale, r0, scale * (_em(r0 - 1, c, m) - left) if r0 else 0.0,
                     min(peak + _REACH, r1) - r0 + 1, r1 - r0 + 1, left))
    c, scale, r0, em_r0, n, n_run, left = zip(*runs)  # n: cells in each row, n_run in the run
    f, p0 = _closed_cdf(m, c, scale, r0, em_r0, n)
    u = np.minimum((w + p0.repeat(size)) / 2, 1.0 - 2.0**-53)  # < 1.0 even where w and F(0) round to 1.0
    while True:  # twice at most; i: the count of F <= u in a row of n cells
        i = np.concatenate([f[g, :x].searchsorted(u[e:e_], side="right")
                            for g, (x, e, e_) in enumerate(zip(n, ends, ends[1:]))])
        hi, n_u = np.array((r0, n)).repeat(size, axis=1)
        hi += i  # in the row, hi = r0 + i and lo = hi - 1
        if inside := (i % n_u).all():
            break
        rows = np.arange(len(c)).repeat(size)
        if not (past := {g for g in rows[i == n_u].tolist() if n[g] < n_run[g]}):
            break  # i = 0: u < F(r0), so (lo, hi) = (-1, r0); i = n: u >= F(r1), so (r1, m/2)
        n = [b if g in past else x for g, (x, b) in enumerate(zip(n, n_run))]  # u past a row: its run
        f = _closed_cdf(m, c, scale, r0, em_r0, n)[0]
    if not inside:  # F in a gap from a run's end: F(-1) = 0 and S(-1) left of it, F(r1) and S(r1) right
        lo, hi[i == n_u] = np.where(i == 0, -1, hi - 1), m // 2
        c_u, scale_u, f_end, em_end = np.array((c, scale, f[range(len(c)), np.subtract(n, 1)],
                                                left))[:, rows]
        f_end[i == 0] = 0.0
        if (right := (i > 0) & (hi - lo > 1)).any():  # at lo = r1, _WIDE or more from every pole
            em_end[right] = _em(lo[right], c_u[right], m)
        while (open_ := (hi - lo > 1).nonzero()[0]).size:  # 128-section to one cell: F(lo) <= u < F(hi)
            lo_o, hi_o = lo[open_, None], hi[open_, None]
            k = lo_o + (hi_o - lo_o) * np.arange(129) // 128
            above, inner = k >= hi_o, (k > lo_o) & (k < hi_o)
            x = open_[inner.nonzero()[0]]  # the u of each inner point
            above[inner] = f_end[x] + scale_u[x] * (_em(k[inner], c_u[x], m) - em_end[x]) > u[x]
            j, row = above.argmax(axis=1), np.arange(open_.size)  # the first point above u
            lo[open_], hi[open_] = k[row, j - 1], k[row, j]
    return hi


def _estimate_draws(a: np.ndarray, t: int, w: np.ndarray) -> np.ndarray:
    """Estimates sin^2(pi j / 2^t), j drawn for entry i at variate w[i] by _closed_form_draws on
    amplitude a[i], every distinct amplitude of the batch in one pass.  Amplitude 0 takes no pass:
    its CDF is exactly 1.0 from y = 0 on (sinc(0)/sinc(0) = 1), so every w inverts to 0."""
    groups = {}  # -0.0 joins 0.0
    for i, value in enumerate(a.tolist()):
        groups.setdefault(value, []).append(i)
    groups.pop(0.0, None)
    est = np.zeros(a.size)
    if groups:
        rows = np.array([i for r in groups.values() for i in r])  # the variates amplitude by amplitude
        y = _closed_form_draws([math.asin(math.sqrt(x)) / math.pi for x in groups], t, w[rows],
                               [len(r) for r in groups.values()])
        est[rows] = np.square(np.sin(y * (np.pi / (1 << t))))  # (pi y) / 2^t, as pi / 2^t is exact
    return est


def _check_count(name: str, value, least: int, odd=False) -> int:
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least
            or odd and value % 2 == 0):
        raise PreconditionError(f"{name} must be an {'odd ' * odd}integer >= {least}, got {value!r}")
    return int(value)


def median_amplitude_estimates(amplitudes, t: int, reps: int, rng: np.random.Generator) -> np.ndarray:
    """Median of ``reps`` (odd) t-bit amplitude-estimation runs for each amplitude, as one
    order statistic: an estimate rises with its folded index j = min(y, 2^t - y) alone, and the
    run at the h-th smallest of reps uniforms, h = (reps + 1) / 2, is at w ~ Beta(h, h), so each
    j is drawn at one w (``_closed_form_draws``).  Draws rng.beta(h, h, n) in one call:
    the same draws as n successive one-amplitude calls, inverted for every distinct amplitude
    at once (``_estimate_draws``).  Charges nothing; each estimate costs reps * (2^t - 1) queries."""
    a = np.asarray(amplitudes, dtype=float).ravel()
    t = check_phase_bits(t)  # also for an empty batch
    h = (_check_count("reps", reps, 1, odd=True) + 1) // 2
    outside = ~((a >= 0.0) & (a <= 1.0))  # NaN is outside too
    if outside.any():
        raise PreconditionError(f"amplitudes must be in [0, 1], got {a[outside][0]}")
    return _estimate_draws(a, t, rng.beta(h, h, a.size))


def amplitude_estimation_sample(a: float, t: int, rng: np.random.Generator, size: int | None = None,
                                ledger: QueryLedger | None = None, phase: str | None = None):
    """Estimate(s) sin^2(pi y / 2^t) of amplitude a: median_amplitude_estimates of
    single runs (reps = 1, so w ~ Beta(1, 1)), the same draws.  Charges 2^t - 1
    quantum oracle calls per run when a ledger is given."""
    n = 1 if size is None else _check_count("size", size, 0)
    est = median_amplitude_estimates(np.full(n, a), t, 1, rng)
    if ledger is not None:
        ledger.charge_quantum(n * ((1 << t) - 1), phase)
    return float(est[0]) if size is None else est


def argmax_query_budget(n: int, delta: float, c_max: float = DEFAULT_C_MAX) -> float:
    """c_max sqrt(n) log2(1 / delta) probes: simulate_argmax then misses with probability at most delta,
    certified at c_max = 4 for n in [2, 64] and delta in [1e-12, 0.5] by an exact dynamic program
    (tests/test_certificates.py); at delta = 1e-6 it misses with probability 2.5e-21 at n = 8."""
    return c_max * math.sqrt(n) * math.log2(1.0 / delta)


@functools.lru_cache(maxsize=1)  # a solve's max findings share one (n, budget)
def _argmax_law(n: int, b: int) -> np.ndarray:
    """The exact law of simulate_argmax's search on n >= 2 items and b = floor(budget) >= 1 probes: a
    read-only CDF, rank-major over cells r * c + j, c = ceil(sqrt(n)), of returning the item of rank r
    (r items beat it) after b - c + 1 + j probes.  The search reads a uniform first threshold with one
    probe; a round at level x (1.0 at first) draws a Grover count i uniform below ceil(x) for i + 1
    probes, unless that passes b, which ends it (so in the last c probe counts).  With k items above the
    threshold it succeeds with probability sin^2((2i + 1) asin sqrt(k / n)), moving the threshold to one
    of them uniformly and x to 1.0, or else x to min(6/5 x, c).  A forward dynamic program over probe
    counts on (level, rank), pending mass in a ring of c slots: once the mass above rank 0 or below the
    top level falls under 2^-64 (the uniform drawn on the law has a 2^-53 grid) it is dropped, and the
    renewal left, costs uniform on 1..c, is carried to probe b - c + 1 by a power of its c x c step,
    rescaled to its total.  A build takes the same time and memory at any b."""
    c, levels = math.ceil(math.sqrt(n)), [1.0]
    while levels[-1] < c:  # the level sequence as floats, as the search grows it
        levels.append(min(6.0 / 5.0 * levels[-1], c))
    top, size = len(levels) - 1, len(levels)
    draws = np.array([math.ceil(x) for x in levels])
    w = (np.arange(c)[:, None] < draws).astype(float)  # w[i, l] = 1: level l draws count i
    a = np.zeros((c, size, size))  # count i's failed rounds, level l to min(l + 1, top)
    a[:, np.minimum(np.arange(1, size + 1), top), np.arange(size)] = w
    a = a.reshape(c * size, size)
    hit = np.array([[math.sin((2 * i + 1) * math.asin(math.sqrt(k / n))) ** 2 for k in range(n)]
                    for i in range(c)])
    miss, hit_k = 1.0 - hit, hit / np.maximum(np.arange(n), 1)  # hit_k: to each rank below k
    per_draw = np.repeat(draws[:, None].astype(float), n, axis=1)
    chunk = max(1, _CHUNK_CELLS // (size * n))  # Grover counts a step takes at once
    ring, law = np.zeros((c, size, n)), np.zeros((n, c))
    ring[1 % c, 0] = 1.0 / n  # probe 1 read the uniform first threshold
    first, p = b - c + 1, 1
    while p <= b:
        if (p < first and p % c == 0
                and ring[:, :top].sum(axis=(1, 2)).sum() + ring[:, top, 1:].sum() < _LAW_CUT):
            r = ring[(p + np.arange(c)) % c, top, 0]  # pending at probes p..p + c - 1
            step = np.eye(c, k=1)
            step[:, 0] += 1.0 / c
            r_b = np.linalg.matrix_power(step, first - p) @ r
            ring[:] = 0.0
            ring[(first + np.arange(c)) % c, top, 0] = r_b * (r.sum() / r_b.sum())
            p = first
        y = ring[p % c]
        np.divide(y, per_draw, out=y)  # the mass drawing each of its level's counts
        d = w @ y
        if p >= first:  # counts i >= b - p stop the search here
            law[:, p - first] = d[b - p:].sum(axis=0)
        x = d * hit_k
        for i0 in range(0, c, chunk):
            i1 = min(i0 + chunk, c)
            f = (a[i0 * size:i1 * size] @ y).reshape(i1 - i0, size, n)
            f *= miss[i0:i1, None, :]
            np.add.accumulate(x[i0:i1, :0:-1], axis=1, out=f[:, 0, -2::-1])  # a hit lands on level 0
            if i1 == c:  # slot p % c now holds probe p + c
                y.fill(0.0)
            lo, hi = (p + 1 + i0) % c, (p + i1) % c + 1  # the slots of probes p + 1 + i0..p + i1
            if lo < hi:
                ring[lo:hi] += f
            else:
                ring[lo:] += f[:c - lo]
                ring[:hi] += f[c - lo:]
        p += 1
    cdf = law.ravel().cumsum()
    cdf[-1] = 1.0
    cdf.flags.writeable = False
    return cdf


def simulate_argmax(
    values,
    delta: float,
    rng: np.random.Generator,
    c_max: float = DEFAULT_C_MAX,
    ledger: QueryLedger | None = None,
    phase: str | None = None,
    probe_cost: int = 1,
) -> int:
    """Dürr-Høyer maximum finding with exact Grover statistics: the index of the top item of values,
    ordered by (value, -index), at failure probability delta.  The search runs until its budget of
    c_max * sqrt(n) * log2(1/delta) probes is spent (the real algorithm has no stopping certificate);
    its result depends only on ranks and its charge only on probes, so one rng.random() draws both
    from their exact joint law (``_argmax_law``), the rank is mapped to its item, and each probe
    charges ``probe_cost`` oracle calls, which passes nested value-oracle costs through.  n = 1 draws
    and charges nothing; a budget under one probe returns rng.integers(n), uncharged.  NaN values,
    more than MAX_ARGMAX_ITEMS items and a budget above MAX_ARGMAX_PROBES are refused before any draw.
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
    if n > MAX_ARGMAX_ITEMS:
        raise PreconditionError(f"statevector max finding supports at most {MAX_ARGMAX_ITEMS} "
                                f"items, got {n}")
    if n == 1:
        return 0
    if budget < 1.0:  # not even one probe affordable: a uniform guess stands
        return int(rng.integers(n))
    b, c = math.floor(budget), math.ceil(math.sqrt(n))
    rank, j = divmod(int(_argmax_law(n, b).searchsorted(rng.random(), side="right")), c)
    if ledger is not None:
        ledger.charge_quantum((b - c + 1 + j) * probe_cost, phase)
    return int(v.argmax()) if rank == 0 else int(np.argsort(-v, kind="stable")[rank])
