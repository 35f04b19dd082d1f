"""Tests for the simulated quantum subroutines."""

import functools
import importlib
import math
import re
import time
import tracemalloc
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qmdp.qsim as qsim_mod
from qmdp.errors import PreconditionError
from qmdp.estimators import EstimatorConfig, amplification_reps
from qmdp.oracle import QueryLedger
from qmdp.qsim import (
    MAX_ARGMAX_PROBES,
    amplitude_estimation_sample,
    argmax_query_budget,
    check_phase_bits,
    median_amplitude_estimates,
    outcome_distribution,
    simulate_argmax,
    single_run_error_radius,
)
from qmdp.rng import derived_rng


class TestPhaseBitsRule:
    @pytest.mark.parametrize("t", [0, 25, -1, True, 1.5, "x", None])
    def test_one_rule_refuses_before_any_draw(self, t):
        rng = derived_rng(36, "t")
        calls = [lambda: check_phase_bits(t), lambda: outcome_distribution(0.5, t),
                 lambda: single_run_error_radius(0.5, t),
                 lambda: median_amplitude_estimates([0.2], t, 5, rng),
                 lambda: amplitude_estimation_sample(0.2, t, rng, size=3)]
        if t is not None:  # EstimatorConfig's None derives t from each accuracy
            calls.append(lambda: EstimatorConfig(phase_bits=t))
        for call in calls:
            with pytest.raises(PreconditionError,
                               match=r"^phase_bits must be an integer in \[1, 24\], got "):
                call()
        assert rng.random() == derived_rng(36, "t").random()

    @pytest.mark.parametrize("t", [1, 24, np.int64(12)])
    def test_accepted_as_an_int(self, t):
        assert check_phase_bits(t) == t and type(check_phase_bits(t)) is int

    @pytest.mark.parametrize("a", [-1e-12, 1.2, math.nan])
    def test_amplitude_bounds(self, a):
        for call in (outcome_distribution, single_run_error_radius):
            with pytest.raises(PreconditionError, match=r"^amplitude must be in \[0, 1\], got "):
                call(a, 4)

    @pytest.mark.parametrize("a,t", [(math.nan, 10), (1.5, 10), (0.3, 10.5), (0.3, 0), (0.3, True),
                                     (0.3, 40)])
    def test_radius_refuses_what_the_distribution_refuses(self, a, t):
        # the radius returned nan at a = nan, raised a bare math domain error at 1.5 and a
        # TypeError at t = 10.5, and took t = 0, True and 40
        for call in (outcome_distribution, single_run_error_radius):
            with pytest.raises(PreconditionError, match="^(amplitude|phase_bits) must be "):
                call(a, t)


class TestOutcomeDistribution:
    def test_normalization(self):
        for a in (0.0, 1e-4, 0.123, 0.3, 0.5, 0.77, 1.0):
            for t in (1, 4, 8, 12):
                d = outcome_distribution(a, t)
                assert abs(d.sum() - 1.0) < 1e-10
                assert d.min() >= -1e-15

    def test_zero_amplitude_is_eigenstate(self):
        draws = median_amplitude_estimates([0.0] * 500, 6, 1, derived_rng(0, "ae0"))
        np.testing.assert_array_equal(draws, 0.0)

    def test_unit_amplitude_is_eigenstate(self):
        draws = median_amplitude_estimates([1.0] * 500, 6, 1, derived_rng(0, "ae1"))
        np.testing.assert_array_equal(draws, 1.0)

    def test_mirror_symmetry(self):
        # swapping a <-> 1-a mirrors outcomes through the half-grid point
        t, m = 9, 512
        for a in (0.2, 0.37, 0.5):
            d = outcome_distribution(a, t)
            d_flip = outcome_distribution(1.0 - a, t)
            mirrored = d[(m // 2 - np.arange(m)) % m]
            np.testing.assert_allclose(d_flip, mirrored, atol=1e-12)

    def test_single_run_success_bound(self):
        # canonical guarantee: radius holds with probability >= 8/pi^2
        draws = median_amplitude_estimates([0.3] * 20000, 10, 1, derived_rng(1, "ae-succ"))
        radius = single_run_error_radius(0.3, 10)
        assert np.mean(np.abs(draws - 0.3) <= radius) >= 0.81

    def test_query_charging(self):
        led = QueryLedger()
        amplitude_estimation_sample(0.4, 5, derived_rng(2, "ae-q"), size=7, ledger=led, phase="ae")
        assert led.quantum_oracle_calls == 7 * (2**5 - 1)
        assert led.phases["ae"] == 7 * (2**5 - 1)


class TestMedianAmplification:
    def test_median_within_single_run_radius(self):
        # median of 73 = 18*ceil(log2(1/delta)) + 1 runs (an odd count: an even
        # one is refused) stays inside the single-run radius with empirical
        # frequency >= 1-delta
        delta = 0.1
        a, t = 0.3, 10
        radius = single_run_error_radius(a, t)
        hits = 0
        trials = 5000
        for i in range(trials):
            rng = derived_rng(3, "median", i)
            est = median_amplitude_estimates([a], t, 73, rng)[0]
            hits += abs(est - a) <= radius
        assert hits / trials >= 1.0 - delta


def grid_inverse(a, t, u):
    """u inverted through the cumsum of the whole float outcome grid of a, its last cell
    set to 1.0: an independent evaluation, equal to a draw but for uniforms within the
    grid's round-off of a CDF step."""
    cdf = np.cumsum(outcome_distribution(float(a), t))
    cdf[-1] = 1.0
    return np.searchsorted(cdf, u, side="right")


def grid_estimates(a, t, u):
    return np.sin(np.pi * grid_inverse(a, t, u) / (1 << t)) ** 2


def folded_grid_inverse(a, t, w):
    """w inverted through the CDF of the folded index j = min(y, m - y) built from the whole
    float outcome grid of a: G(j) = 2F(j) - F(0) below m/2, F the grid's cumsum, and G(m/2) = 1."""
    m, d = 1 << t, outcome_distribution(float(a), t)
    g = 2.0 * np.cumsum(d[:m // 2 + 1]) - d[0]
    g[-1] = 1.0
    return np.searchsorted(g, w, side="right")


def per_entry_medians(amplitudes, t, reps, rng):
    """The draw entry by entry, kept as a reference on random variates: one rng.beta(h, h),
    h = (reps + 1) / 2, and one full outcome grid per entry, in order."""
    h, est = (reps + 1) // 2, np.empty(np.shape(amplitudes))
    for i, a in enumerate(np.asarray(amplitudes, dtype=float).flat):
        est.flat[i] = (np.sin(np.pi * folded_grid_inverse(a, t, [rng.beta(h, h)]) / (1 << t)) ** 2)[0]
    return est


def reference_medians(amplitudes, t, reps, rng):
    """The sampler the one-order-statistic draw replaced, kept as an independent reference for
    its law: rng.random((n, reps)) in one call, every uniform inverted through the float grid's
    CDF (grid_inverse), and the median of each row's estimates, the mean of its middle pair."""
    a = np.asarray(amplitudes, dtype=float).ravel()
    lo, hi = (reps - 1) // 2, reps // 2
    u, est = rng.random((a.size, reps)), np.empty((a.size, reps))
    for x in set(a.tolist()):
        est[a == x] = grid_estimates(x, t, u[a == x])
    est.partition([lo, hi], axis=1)
    return (est[:, lo] + est[:, hi]) / 2


def traced_peak(fn):
    """Peak bytes traced while fn runs, above what was allocated before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestVectorizedMedians:
    AMPLITUDES = {
        "edges": [0.0, 1.0, -0.0, 0.0, 1.0, -0.0],
        "repeats": [0.3, 0.7, 0.3, 0.0, 0.3, 1.0, -0.0, 0.7, 0.5, 0.5],
        "random": np.round(derived_rng(30, "amps").random(40), 2),
        "single": [0.123],
    }

    @pytest.mark.parametrize("t", [1, 6, 13])
    @pytest.mark.parametrize("delta", [0.5, 0.1, 1e-3, 1e-9])
    @pytest.mark.parametrize("case", sorted(AMPLITUDES))
    def test_draw_for_draw_equal_to_per_entry_loop(self, case, delta, t):
        amplitudes = np.asarray(self.AMPLITUDES[case], dtype=float)
        reps = amplification_reps(delta)
        rng_old = derived_rng(31, "equiv", case, t, reps)
        rng_new = derived_rng(31, "equiv", case, t, reps)
        old = per_entry_medians(amplitudes, t, reps, rng_old)
        new = median_amplitude_estimates(amplitudes, t, reps, rng_new)
        assert new.shape == old.shape
        assert new.tobytes() == old.tobytes()
        # both consumed exactly n Beta variates
        assert rng_new.random() == rng_old.random()

    @pytest.mark.parametrize("t", [1, 6, 13, 16, 20])
    def test_one_amplitude_views_equal_per_entry_loop(self, t):
        for i, a in enumerate((0.0, 0.3, 1.0)):
            old = per_entry_medians([a], t, 73, derived_rng(32, "view", t, i))
            new = median_amplitude_estimates([a], t, 73, derived_rng(32, "view", t, i))
            assert new.tobytes() == old.tobytes()
            w = derived_rng(33, "sample", t, i).beta(1, 1, 50)
            expected = np.sin(np.pi * folded_grid_inverse(a, t, w) / (1 << t)) ** 2
            draws = median_amplitude_estimates([a] * 50, t, 1, derived_rng(33, "sample", t, i))
            assert draws.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("reps", [1, 3, 45, 85])
    @pytest.mark.parametrize("t", [6, 13])
    def test_median_is_np_median_of_folded_runs(self, t, reps):
        # the folded draw rises with w, so the run at the h-th smallest of reps uniforms is
        # their median run: Beta(h, h) is that order statistic's law
        a = np.array([0.0, -0.0, 1.0, 0.3, 0.3, 0.77, 1e-7, 0.5])
        u = derived_rng(58, "median", t, reps).random((a.size, reps))
        runs = qsim_mod._estimate_draws(a.repeat(reps), t, u.ravel()).reshape(u.shape)

        class Stream:  # hands the h-th smallest uniform of each row over as its w
            def beta(self, p, q, size):
                assert p == q and size == a.size
                return np.sort(u, axis=1)[:, p - 1]

        got = median_amplitude_estimates(a, t, reps, Stream())
        assert got.tobytes() == np.median(runs, axis=1).tobytes()

    def test_empty_batch_draws_nothing(self):
        rng = derived_rng(34, "empty")
        out = median_amplitude_estimates(np.array([]), 6, 5, rng)
        assert out.shape == (0,)
        assert rng.random() == derived_rng(34, "empty").random()

    @pytest.mark.parametrize("bad", [math.nan, -1e-12, 1.0 + 1e-12, math.inf, -math.inf])
    def test_bad_amplitude_raises_before_drawing(self, bad):
        rng = derived_rng(35, "bad")
        with pytest.raises(PreconditionError, match="amplitudes must be in"):
            median_amplitude_estimates([0.2, bad, 0.4], 6, 5, rng)
        assert rng.random() == derived_rng(35, "bad").random()

    @pytest.mark.parametrize("t", [0, 25])
    def test_bad_phase_bits_raise(self, t):
        with pytest.raises(PreconditionError, match="phase_bits"):
            median_amplitude_estimates([0.2], t, 5, derived_rng(36, "t"))

    def test_one_grid_alive_at_a_time(self):
        # a stacked (n_unique, 2^t) array would peak near 64x one grid call
        t = 16
        amplitudes = (np.arange(64) + 0.5) / 64
        one_grid = traced_peak(lambda: outcome_distribution(0.3, t))
        batch = traced_peak(lambda: median_amplitude_estimates(
            amplitudes, t, amplification_reps(0.01), derived_rng(37, "mem")))
        assert one_grid >= 8 << t
        assert batch <= 1.5 * one_grid, (batch, one_grid)


def no_grid(a, t):
    raise AssertionError(f"grid built for amplitude {a}")


class TestZeroAmplitudeWithoutGrid:
    AMPLITUDES = [0.0, 0.3, -0.0, 1.0, 0.0, 0.5, -0.0, 1e-7, 0.3]
    EDGE_VARIATES = [0.0, 1.0 - 2.0**-53, 0.5, 2.0**-53, 1.0]

    @pytest.mark.parametrize("t", [1, 6, 13, 16])
    def test_equal_to_reference_inverse(self, t, monkeypatch):
        monkeypatch.setattr(qsim_mod, "outcome_distribution", no_grid)
        a = np.repeat(self.AMPLITUDES, 13)
        w = derived_rng(38, "zero-group", t).random((len(self.AMPLITUDES), 13))
        w[:, :len(self.EDGE_VARIATES)] = self.EDGE_VARIATES
        got = qsim_mod._estimate_draws(a, t, w.ravel())
        assert got.tobytes() == reference_folded(a, t, w.ravel()).tobytes()
        assert not got[a == 0.0].any()

    def test_all_zero_batch_builds_no_grid(self, monkeypatch):
        monkeypatch.setattr(qsim_mod, "outcome_distribution", no_grid)
        est = median_amplitude_estimates([0.0, -0.0, 0.0], 16, 9, derived_rng(39, "zeros"))
        assert est.tobytes() == np.zeros(3).tobytes()


def run_args(c, m, s):
    """(scale, r0, r1, em_r0) of peaks c with sines s, as a pass hands them to _closed_cdf: each run
    r0..r1 within _WIDE of the peak and below m/2, and the mass of cells 0..r0 - 1 added at r0."""
    wide, em = qsim_mod._WIDE, qsim_mod._em
    scale = [0.5 * (x / m) ** 2 for x in s]
    r0 = [max(math.floor(x) - wide, 0) for x in c]
    r1 = [min(math.floor(x) + wide + 1, m // 2 - 1) for x in c]
    em_r0 = [sc * (em(a - 1, x, m) - em(-1, x, m)) if a > 0 else 0.0 for x, a, sc in zip(c, r0, scale)]
    return scale, r0, r1, em_r0


def closed_rows(c, m, s, last=None):
    """(f, r0, n, p0): the rows _closed_cdf builds for peaks c with sines s, row g over the n[g] cells
    r0[g]..last[g] (its whole run to r1 when last is None), and F(0) of each."""
    scale, r0, r1, em_r0 = run_args(c, m, s)
    n = [b - a + 1 for a, b in zip(r0, r1 if last is None else last)]
    f, p0 = qsim_mod._closed_cdf(m, c, scale, r0, em_r0, n)
    return f, r0, n, p0


def closed_form_f(a, t, k):
    """(F(k), c, s, F(0)): F at cells k in 0..m/2 as the closed-form draws read it (1.0 at m/2): the
    rows of _closed_cdf in the run, and the reference's Euler-Maclaurin sums in its gaps."""
    m = 1 << t
    c = m * math.asin(math.sqrt(a)) / math.pi
    frac = c - math.floor(c)
    s = math.sin(math.pi * min(frac, 1.0 - frac))
    f_run, (r0,), (n,), p0 = closed_rows([c], m, [s])
    k = np.atleast_1d(k)
    run, top = (k >= r0) & (k < r0 + n), k == m // 2  # in the run, at m/2, else in a gap
    f = np.where(top, 1.0, f_run[0, np.clip(k - r0, 0, n - 1)])
    if (gap := ~run & ~top).any():
        f[gap] = reference_cdf([c], m, [s])[3](k[gap], 0)
    return f, c, s, p0[0]


def reference_cdf(c, m, s):
    """The closed-form CDF as the draws tabulated it before they searched _closed_cdf's own rows,
    kept as the reference for its bits: (table, f_table, start, gap, p0), amplitude g's cells at
    table[start[g]:start[g + 1]], -1 (F = 0), its run r0..r1, and m/2 (read as 1.0), in one
    concatenated pair of arrays, both kernels folded as k - m rint((k -+ c) / m) -+ c."""
    h, scale, wide, em = math.pi / m, [0.5 * (x / m) ** 2 for x in s], qsim_mod._WIDE, qsim_mod._em
    r0 = [max(math.floor(x) - wide, 0) for x in c]
    r1 = [min(math.floor(x) + wide + 1, m // 2 - 1) for x in c]
    n = [b - a + 1 for a, b in zip(r0, r1)]
    em_left = [em(-1, x, m) if a > 0 else 0.0 for x, a in zip(c, r0)]
    k = np.add.outer(r0, np.arange(-1, max(n)))
    k[:, 0] = 0
    both = np.array((c, [-x for x in c]))[:, :, None]
    y = h * ((k - m * np.rint((k - both) / m)) - both)
    csc2 = 1.0 / np.sin(y, out=y) ** 2
    p = np.array(scale)[:, None] * (csc2[0] + csc2[1])
    p[:, 1] += [sc * (em(a - 1, x, m) - e) if a > 0 else 0.0 for x, a, sc, e in zip(c, r0, scale, em_left)]
    f = p[:, 1:].cumsum(axis=1)
    table = np.concatenate([x for g, j in enumerate(n) for x in ([-1], k[g, 1:j + 1], [m // 2])])
    f_table = np.concatenate([x for g, j in enumerate(n) for x in ([0.0], f[g, :j], [1.0])])

    def gap(k, g):
        r0_g, c_g, sc_g, left_g, f_r1 = np.array(
            (r0, c, scale, em_left, f[range(len(c)), np.subtract(n, 1)]))[:, g]
        mid = k > r0_g
        em_r1 = np.array([em(b, x, m) for x, b in zip(c, r1)])[g] if mid.any() else 0.0
        return np.where(mid, f_r1, 0.0) + sc_g * (em(k, c_g, m) - np.where(mid, em_r1, left_g))

    return table, f_table, list(accumulate((j + 2 for j in n), initial=0)), gap, p[:, 0]


def pass_args(omega, t):
    """(c, s, fit) as a pass hands them to its table: an amplitude F does not fit at c = 1/2, s = 1."""
    m = 1 << t
    c = [m * x for x in omega]
    s = [math.sin(math.pi * min(x % 1.0, 1.0 - x % 1.0)) for x in c]
    fit = [x >= m * 2.0**-43 for x in s]
    return [x if y else 0.5 for x, y in zip(c, fit)], [x if y else 1.0 for x, y in zip(s, fit)], fit


def reference_pass(omega, t, w, size):
    """The folded draws of one pass as they were made before they searched _closed_cdf's own rows:
    u = (w + F(0)) / 2 searched in each amplitude's slice of reference_cdf's concatenated table,
    then 128-sections in its gaps; kept as the reference the draws must equal bit for bit."""
    m, ends, g = 1 << t, list(accumulate(size, initial=0)), qsim_mod._GROUPS
    if len(size) > g:
        return np.concatenate((reference_pass(omega[:g], t, w[:ends[g]], size[:g]),
                               reference_pass(omega[g:], t, w[ends[g]:], size[g:])))
    c, s, fit = pass_args(omega, t)
    j0 = [round(m * x) for x in omega]
    table, f_table, start, gap, p0 = reference_cdf(c, m, s)
    u = np.minimum((w + p0.repeat(size)) / 2, 1.0 - 2.0**-53)
    i = np.concatenate([f_table[a:b].searchsorted(u[e:e_], side="right") + a
                        for a, b, e, e_ in zip(start, start[1:], ends, ends[1:])])
    lo, hi = table[i - 1], table[i]
    f_lo, f_hi = f_table[i - 1], f_table[i]
    open_ = (hi - lo > 1).nonzero()[0]
    while open_.size:
        lo_o, hi_o = lo[open_, None], hi[open_, None]
        k = lo_o + (hi_o - lo_o) * np.arange(129) // 128
        f = np.where(k == lo_o, f_lo[open_, None], f_hi[open_, None])
        inner = (k > lo_o) & (k < hi_o)
        f[inner] = gap(k[inner], np.arange(len(s)).repeat(size)[open_[inner.nonzero()[0]]])
        n, row = (f > u[open_, None]).argmax(axis=1), np.arange(open_.size)
        lo[open_], f_lo[open_], hi[open_], f_hi[open_] = k[row, n - 1], f[row, n - 1], k[row, n], f[row, n]
        open_ = (hi - lo > 1).nonzero()[0]
    return hi if all(fit) else np.where(np.repeat(fit, size), hi, np.repeat(j0, size))


def fits(a, t):
    """Whether the closed form fits amplitude a at t bits: unless c = 2^t omega lies within
    2^t 2^-43 / pi of an integer (a = 1 and 0 included)."""
    c = (1 << t) * math.asin(math.sqrt(a)) / math.pi
    s = math.sin(math.pi * min(c % 1.0, 1.0 - c % 1.0))
    return s >= (1 << t) * 2.0**-43


def g_inverse(a, t, w):
    """The folded index at each variate w by the definition of a draw: F over cells 0..m/2
    inverted at (w + F(0)) / 2, kept below the 1.0 read at m/2, or the point mass
    j0 = round(c) of an amplitude F does not fit."""
    m = 1 << t
    if not fits(a, t):
        return np.full(np.shape(w), round(m * math.asin(math.sqrt(a)) / math.pi))
    f, _, _, p0 = closed_form_f(a, t, np.arange(m // 2 + 1))
    return np.searchsorted(f, np.minimum((np.asarray(w) + p0) / 2, 1.0 - 2.0**-53), side="right")


def reference_folded(amplitudes, t, w):
    """Each entry's estimate sin^2(pi j / m) by the definition of a median draw at its w,
    j = g_inverse; -0.0 joins 0.0, whose point mass is cell 0."""
    a, w = np.asarray(amplitudes, dtype=float), np.asarray(w, dtype=float)
    j = np.zeros(a.size, dtype=int)
    for x in set(a.tolist()):
        j[a == x] = g_inverse(x, t, w[a == x])
    return np.sin(np.pi * j / (1 << t)) ** 2


class TestClosedFormDraws:
    """At every t a draw inverts the closed-form CDF F on cells 0..m/2, and an amplitude F
    does not fit is its point mass; no draw builds the outcome grid."""

    @pytest.mark.parametrize("t", range(1, 17))
    def test_equal_to_reference_inverse(self, t, monkeypatch):
        m = 1 << t
        rng = derived_rng(50, "certified", t)
        k = max(1, m // 3)
        near = [math.sin(math.pi * (k + off) / m) ** 2 for off in (1e-9, -1e-9)]
        random = rng.random(18) ** rng.choice([1, 2, 4, 8], 18)
        amplitudes = np.concatenate(([0.0, -0.0, 1.0, 1e-7], near, random))
        w = rng.random((amplitudes.size, 270))
        w[:6, :3] = w[6::3, :3] = [0.0, 1.0 - 2.0**-53, 1.0]
        for row in range(6, amplitudes.size, 3):  # and on or one ulp beside the grid's G and the draws'
            d = outcome_distribution(amplitudes[row], t)
            g = (2.0 * np.cumsum(d[:m // 2]) - d[0])[rng.integers(0, m // 2, 4)]
            if fits(amplitudes[row], t):
                c = closed_form_f(amplitudes[row], t, 0)[1]
                cells = [min(math.floor(c), m // 2 - 1), min(math.floor(c) + 1, m // 2 - 1), m // 2 - 1]
                f, _, _, p0 = closed_form_f(amplitudes[row], t, np.array(cells))
                g = np.concatenate((g, 2.0 * f - p0))
            w[row, 3:3 + 3 * g.size] = np.concatenate((g, np.nextafter(g, 0), np.nextafter(g, 1)))
        a, w = np.repeat(amplitudes, 270), np.clip(w, 0.0, 1.0).ravel()
        monkeypatch.setattr(qsim_mod, "outcome_distribution", no_grid)
        got = qsim_mod._estimate_draws(a, t, w)
        assert got.tobytes() == reference_folded(a, t, w).tobytes()

    @pytest.mark.parametrize("a", [0.003, 0.3, 0.77])
    def test_equal_to_full_grid_inverse_at_t20(self, a):
        w = derived_rng(51, "t20", str(a)).random(64)
        got = qsim_mod._estimate_draws(np.full(64, a), 20, w)
        assert got.tobytes() == (np.sin(np.pi * folded_grid_inverse(a, 20, w) / (1 << 20)) ** 2).tobytes()

    @pytest.mark.parametrize("t", [11, 13, 16, 20])
    def test_gaps_placed_from_a_tabulated_end_away_from_every_pole(self, t, monkeypatch):
        m, wide = 1 << t, qsim_mod._WIDE
        points, real_em = [], qsim_mod._em
        monkeypatch.setattr(qsim_mod, "_em",
                            lambda k, c, m: points.append((np.ravel(k), c)) or real_em(k, c, m))
        # a run apart from both ends, a run from cell 0 (r0 = 0), and a run that ends at m/2 - 1
        for c in (m / 3 + 0.29, 57.61, m / 2 - 100.37):
            a = math.sin(math.pi * c / m) ** 2
            omega = math.asin(math.sqrt(a)) / math.pi
            c = m * omega
            r0, r1 = max(math.floor(c) - wide, 0), min(math.floor(c) + wide + 1, m // 2 - 1)
            # each run end, the end cell m/2, and cells in each gap: left of r0 and right of r1,
            # near their ends and (up to t = 13) deep inside
            cells = [r0, r1, m // 2, r0 - 1, r0 - 9, r1 + 1, r1 + 9, m // 2 - 1, m // 2 - 9]
            if t <= 13:
                cells += [r0 // 2, (r1 + m // 2) // 2]
            cells = np.array(sorted({k for k in cells if 0 <= k <= m // 2}))
            d = outcome_distribution(a, t)
            g = np.concatenate(([0.0], 2.0 * np.cumsum(d[:m // 2]) - d[0], [1.0]))
            w = 0.5 * (g[cells] + g[cells + 1])  # the middle of each cell's step of G
            j = qsim_mod._closed_form_draws([omega], t, w, [w.size])
            assert j.tobytes() == folded_grid_inverse(a, t, w).tobytes() == cells.tobytes()
            assert points and all(np.all(oc == c) for _, oc in points)
            for k, _ in points:
                distance = np.abs((np.concatenate((k - c, k + c)) + m / 2) % m - m / 2)
                assert distance.min() >= wide, (c, k)
            points.clear()

    def test_no_fit_amplitude_reaches_the_grid_at_t24(self, monkeypatch):
        # 200 random amplitudes with 64 variates each, where a grid has 2^24 cells; each draw
        # j is the cell with F(j - 1) <= u < F(j) at u = (w + F(0)) / 2, F read as 1.0 at m/2
        monkeypatch.setattr(qsim_mod, "outcome_distribution", no_grid)
        rng = derived_rng(60, "refuse", 24)
        a, w = rng.random(200), rng.random((200, 64))
        assert all(fits(x, 24) for x in a)
        est = qsim_mod._estimate_draws(a.repeat(64), 24, w.ravel())
        j = qsim_mod._closed_form_draws((np.arcsin(np.sqrt(a)) / np.pi).tolist(), 24, w.ravel(), [64] * 200)
        assert est.tobytes() == (np.sin(np.pi * j / (1 << 24)) ** 2).tobytes()
        assert (j <= 1 << 23).all()
        for x, row, j_row in zip(a, w, j.reshape(w.shape)):
            f, _, _, p0 = closed_form_f(x, 24, np.concatenate((j_row - 1, j_row)))
            u = np.minimum((row + p0) / 2, 1.0 - 2.0**-53)
            assert np.all((f[:64] <= u) & (u < f[64:])), x

    @pytest.mark.parametrize("t", [22, 24])
    def test_memory_does_not_grow_with_t(self, t):
        amplitudes = (np.arange(64) + 0.5) / 64
        chunk = traced_peak(lambda: outcome_distribution(0.3, 16))  # 2^16 cells
        batch = traced_peak(lambda: median_amplitude_estimates(
            amplitudes, t, amplification_reps(0.01), derived_rng(40, "mem", t)))
        assert batch <= 1.5 * chunk, (batch, chunk)

    @pytest.mark.parametrize("t", [1, 2, 8, 9, 10, 13, 24])
    def test_table_ends_at_half(self, t):
        # each amplitude's row: its run r0..r1 of at most 2 _WIDE + 2 cells in a row, below m/2,
        # between the implied F(-1) = 0 and F(m/2) = 1.0; no cell above m/2 and none twice
        m, wide = 1 << t, qsim_mod._WIDE
        peaks = (0.5, 0.3, 57.61, m / 3 + 0.29, m / 2 - 100.37, m / 2 - 0.7, m / 2 - 2.5)
        c = [x for x in peaks if 0 < x <= m / 2]
        s = [math.sin(math.pi * min(x % 1.0, 1.0 - x % 1.0)) for x in c]
        f_run, r0, n, p0 = closed_rows(c, m, s)
        assert f_run.shape == (len(c), max(n)) and len(r0) == len(n) == p0.size == len(c)
        for g, x in enumerate(c):
            f = f_run[g, :n[g]]
            assert 1 <= n[g] <= 2 * wide + 2, (x, n[g])
            assert r0[g] == max(math.floor(x) - wide, 0), x
            assert r0[g] + n[g] - 1 == min(math.floor(x) + wide + 1, m // 2 - 1) < m // 2, x
            assert 0.0 <= f[0] and f[-1] <= 1.0 and (np.diff(f) >= 0).all(), x

    @pytest.mark.parametrize("t", [10, 13, 16, 24])
    def test_gap_meets_the_run_at_both_ends(self, t):
        # F in a gap is summed from -1 up to r0 and from r1 on: at r0 it is the tabulated F to
        # within the round-off of both sums, and at r1 the tabulated F itself
        m = 1 << t
        for c in (m / 3 + 0.29, m / 2 - 300.37, 400.5):
            s = math.sin(math.pi * min(c % 1.0, 1.0 - c % 1.0))
            f_run, (r0,), (n,), _ = closed_rows([c], m, [s])
            gap = reference_cdf([c], m, [s])[3]
            assert r0 > 0 and abs(gap(np.array([r0]), 0)[0] - f_run[0, 0]) <= 4e-15, c
            assert gap(np.array([r0 + n - 1]), 0)[0] == f_run[0, n - 1], c


class TestPointMasses:
    """An amplitude F does not fit (c = 2^t omega on or within 2^t 2^-43 / pi of an integer)
    is its point mass j0 = round(c) <= m/2 at every variate."""

    @pytest.mark.parametrize("t", [6, 13, 24])
    def test_unit_amplitude_draws_one_on_every_uniform(self, t):
        # the float grid's off-peak cells were about 1e-33, not 0, so it drew 0 below that
        w = np.array([0.0, 1e-300, 1e-40, 0.5, 1.0])
        assert qsim_mod._estimate_draws(np.ones(5), t, w).tolist() == [1.0] * 5

    def test_cost_does_not_grow_with_t(self, monkeypatch):
        # 1.0 (c = m/2), 0.5 (c = m/4 + 2^-30) and c = k + 1e-9 build no grid, where one of
        # 2^24 cells from cell 0 took 0.6-0.8 s a call
        t, m = 24, 1 << 24
        k = m // 3
        amplitudes = np.array([1.0, 0.5, math.sin(math.pi * (k + 1e-9) / m) ** 2])
        assert not any(fits(x, t) for x in amplitudes)
        w = derived_rng(62, "point-masses").random((amplitudes.size, 64))
        w[:, :5] = [0.0, np.nextafter(0.5, 0), 0.5, 1.0 - 2.0**-53, 1.0]
        a, w = amplitudes.repeat(64), w.ravel()
        chunk = traced_peak(lambda: outcome_distribution(0.3, 16))  # 2^16 cells
        monkeypatch.setattr(qsim_mod, "outcome_distribution", no_grid)
        start = time.perf_counter()
        got = qsim_mod._estimate_draws(a, t, w)
        assert time.perf_counter() - start < 0.1
        assert got.tobytes() == reference_folded(a, t, w).tobytes()
        omega = (np.arcsin(np.sqrt(amplitudes)) / np.pi).tolist()
        j = qsim_mod._closed_form_draws(omega, t, w, [64] * 3)
        assert j.tolist() == [m // 2] * 64 + [m // 4] * 64 + [k] * 64  # folded: never m - j0
        batch = traced_peak(lambda: median_amplitude_estimates(
            amplitudes, t, amplification_reps(0.01), derived_rng(63, "point-masses")))
        assert batch <= 1.5 * chunk, (batch, chunk)


@functools.cache
def exact_trig(t):
    """(cos, sin)(pi j / 2^t) at every cell j, to 40 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        return [(mpmath.cospi(mpmath.mpf(j) / (1 << t)), mpmath.sinpi(mpmath.mpf(j) / (1 << t)))
                for j in range(1 << t)]


def exact_cdf(a, t):
    """F at every cell, a running sum of the cells to 40 digits at the sampler's float omega:
    p_j = sin^2(pi c) / (2 m^2) (csc^2(pi (j - c) / m) + csc^2(pi (j + c) / m)), c = m omega."""
    mpmath = pytest.importorskip("mpmath")
    m = 1 << t
    with mpmath.workdps(40):
        c = m * mpmath.mpf(math.asin(math.sqrt(a)) / math.pi)  # exact: m is a power of two
        cos_c, sin_c = mpmath.cospi(c / m), mpmath.sinpi(c / m)
        csc2 = [1 / (sin_j * cos_c - cos_j * sin_c) ** 2 for cos_j, sin_j in exact_trig(t)]  # at j - c
        scale = mpmath.sinpi(c) ** 2 / (2 * m * m)  # csc2[-j] is csc^2 at j + c, one period on
        return np.array([float(x) for x in accumulate(scale * (csc2[j] + csc2[-j]) for j in range(m))])


class TestClosedFormAccuracy:
    """The accuracy of the sampler at every t: F as evaluated is within 4e-15 of the
    exact CDF at every cell below m/2, where the float grid's cumsum is off by up to
    2.6e-13 at t = 13 on the same amplitudes."""

    @pytest.mark.parametrize("a", [1e-6, 0.003, 0.05, 0.3, 0.77, 0.95])
    @pytest.mark.parametrize("t", [1, 4, 8, 9, 10, 11, 13])
    def test_f_within_4e_15_of_the_exact_sum(self, t, a):
        half = (1 << t) // 2  # the draws read 1.0 at m/2 and never F above it
        f = closed_form_f(a, t, np.arange(half))[0]
        assert np.abs(f - exact_cdf(a, t)[:half]).max() <= 4e-15

    @pytest.mark.parametrize("t", [*range(1, 11), 24])
    def test_every_draw_is_a_cell(self, t):
        # on 0.0, 1 - 2^-53, 1.0, and each value of G = 2F - F(0) with its two float
        # neighbours: G at every cell below m/2 up to t = 10, at t = 24 at its run cells and
        # its gap cells; every draw is a cell in 0..m/2
        m = 1 << t
        for a in (1e-6, 0.003, 0.05, 0.3, 0.77, 0.95, 1.0 - 1e-9, 0.5, 1.0):
            omega = math.asin(math.sqrt(a)) / math.pi
            if not fits(a, t):
                g = np.array([0.5])
            else:
                if t <= 10:
                    cells = np.arange(m // 2)
                else:
                    _, (r0,), (n,), _ = closed_rows([m * omega], m, [closed_form_f(a, t, 0)[2]])
                    cells = np.concatenate((np.arange(r0, r0 + n), gap_cells(a, t)))
                f, _, _, p0 = closed_form_f(a, t, cells)
                g = 2.0 * f - p0
            w = np.concatenate(([0.0, 1.0 - 2.0**-53, 1.0], g, np.nextafter(g, 0), np.nextafter(g, 1)))
            w = w[(w >= 0.0) & (w <= 1.0)]
            j = qsim_mod._closed_form_draws([omega], t, w, [w.size])
            assert ((j >= 0) & (j <= m // 2)).all(), (a, w[(j < 0) | (j > m // 2)])
            if t <= 10:
                assert j.tobytes() == g_inverse(a, t, w).tobytes(), a

    @pytest.mark.parametrize("t", [11, 13])
    def test_euler_maclaurin_run_near_a_pole(self, t):
        # a run from 24 cells right of a pole: its last Bernoulli term (h^5 / 42) moves the
        # sum by 1.4e-10 to 1.7e-10 of itself, and the first term left out by about 4e-13
        mpmath = pytest.importorskip("mpmath")
        m = 1 << t
        for c in (100.37, m / 3 + 0.29):
            a, b = math.floor(c) + 24, math.floor(c) + 400
            with mpmath.workdps(40):
                exact = float(mpmath.fsum(mpmath.csc(mpmath.pi * (j - x) / m) ** 2
                                          for j in range(a + 1, b + 1) for x in (c, -c)))
            got = qsim_mod._em(b, c, m) - qsim_mod._em(a, c, m)
            assert abs(got - exact) <= 1e-11 * exact, (c, got, exact)

    def test_euler_maclaurin_scalar_cell_is_the_array_cell(self):
        # F's anchors (the left end, the r0 correction, r1) take S(k) at an int k, and the gap
        # cells they are subtracted from take it on arrays: both must be the same bits
        g = np.random.default_rng(34)
        for _ in range(3000):
            t = int(g.integers(1, 25))
            m = 1 << t
            c = float(g.uniform(0.0, m / 2))
            r0 = max(math.floor(c) - qsim_mod._WIDE, 0)
            r1 = min(math.floor(c) + qsim_mod._WIDE + 1, m // 2 - 1)
            for k in (-1, r0 - 1, r1, int(g.integers(-1, m))):
                if min(abs(k - c), abs(k + c), abs(k + c - m)) >= 0.5:  # off the poles
                    want = qsim_mod._em(np.array([k]), c, m)[0]
                    assert qsim_mod._em(k, c, m) == want, (k, c, m)


def gap_cells(a, t):
    """Cells in each gap of the closed-form CDF of a (left of the run, and right of it up to
    m/2 - 1), near their ends and, below t = 16, deep inside; [] when c is too close to an
    integer to tabulate."""
    m, wide = 1 << t, qsim_mod._WIDE
    c = m * math.asin(math.sqrt(a)) / math.pi
    r0, r1 = max(math.floor(c) - wide, 0), min(math.floor(c) + wide + 1, m // 2 - 1)
    cells = [r0 - 1, r0 - 9, r1 + 1, r1 + 9, m // 2 - 1, m // 2 - 9]
    if t < 16:
        cells += [r0 // 2, (r1 + m // 2) // 2]
    return sorted({k for k in cells if 0 <= k < m // 2 and (k < r0 or k > r1)})


class TestBatchedPass:
    """Every distinct non-zero amplitude of a batch (up to _GROUPS of them) is inverted
    in one closed-form pass."""

    @pytest.mark.parametrize("t", [11, 13, 16])
    def test_many_amplitudes_equal_reference_inverse(self, t, monkeypatch):
        # 62 distinct amplitudes with 0.0, -0.0, 1.0 and 0.5: variates in the
        # middle of a step of G in each gap, and one on the grid's G
        m, rng = 1 << t, derived_rng(59, "many", t)
        amplitudes = np.concatenate((rng.random(62) ** rng.choice([1, 2, 4], 62), [0.0, -0.0, 1.0, 0.5]))
        w = rng.random((amplitudes.size, 16))
        for row in range(62):
            d = outcome_distribution(amplitudes[row], t)
            g = np.concatenate(([0.0], 2.0 * np.cumsum(d[:m // 2]) - d[0]))
            cells = np.array(gap_cells(amplitudes[row], t), dtype=int)
            w[row, :cells.size] = 0.5 * (g[cells] + g[cells + 1])  # the middle of each cell's step
            w[row, -1] = g[rng.integers(1, m // 2 + 1)]
        monkeypatch.setattr(qsim_mod, "outcome_distribution", no_grid)
        a, w = amplitudes.repeat(16), w.ravel()
        got = qsim_mod._estimate_draws(a, t, w)
        assert got.tobytes() == reference_folded(a, t, w).tobytes()

    @pytest.mark.parametrize("t", [11, 16])
    @pytest.mark.parametrize("n", [1, 2, 7, 64, 130])
    def test_one_table_build_per_pass(self, t, n, monkeypatch):
        builds, real = [], qsim_mod._closed_cdf
        monkeypatch.setattr(qsim_mod, "_closed_cdf",
                            lambda m, c, *rest: builds.append(len(c)) or real(m, c, *rest))
        a = np.repeat((np.arange(n) + 0.5) / n, 2)
        median_amplitude_estimates(a, t, 5, derived_rng(60, "builds", t, n))
        # at odd n, a = 1/2 is a point mass: its pass builds rows for the others alone
        fit = ((np.arange(n) + 0.5) / n != 0.5).tolist()
        want = [sum(fit[g:g + qsim_mod._GROUPS]) for g in range(0, n, qsim_mod._GROUPS)]
        assert builds == [x for x in want if x]

    @pytest.mark.parametrize("t", [11, 13, 16])
    def test_batch_equals_each_amplitude_alone(self, t):
        # draws and the point masses of 1.0 and 0.5 alike, with one uniform per amplitude on the grid's CDF
        rng = derived_rng(61, "alone", t)
        a = np.concatenate((rng.random(9), [1.0, 0.5, 1e-7]))
        omega = (np.arcsin(np.sqrt(a)) / np.pi).tolist()
        size = rng.integers(1, 40, a.size).tolist()
        u = [rng.random(n) for n in size]
        for x, ug in zip(a, u):
            ug[0] = min(np.cumsum(outcome_distribution(x, t))[rng.integers(0, (1 << t) - 1)], 1.0 - 2.0**-53)
        batch = qsim_mod._closed_form_draws(omega, t, np.concatenate(u), size)
        alone = [qsim_mod._closed_form_draws([w], t, ug, [ug.size]) for w, ug in zip(omega, u)]
        assert batch.tobytes() == np.concatenate(alone).tobytes()
        assert (alone[9] == (1 << t) // 2).all() and (alone[10] == 1 << t - 2).all()

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(t=st.sampled_from([8, 9]), n=st.integers(1, 2 * qsim_mod._GROUPS + 3),
           distinct=st.integers(1, 2 * qsim_mod._GROUPS + 3), h=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_medians_invert_f_with_point_masses(self, t, n, distinct, h, seed):
        # n amplitudes drawn from a pool of distinct ones, 0.0, 1.0 and 0.5 among them,
        # so a batch's passes split across _GROUPS
        rng = derived_rng(64, "property", seed)
        pool = np.concatenate(([0.0, 1.0, 0.5], rng.random(distinct) ** rng.choice([1, 2, 4, 8], distinct)))
        a = rng.choice(pool, n)
        got = median_amplitude_estimates(a, t, 2 * h - 1, derived_rng(65, "property", seed))
        want = reference_folded(a, t, derived_rng(65, "property", seed).beta(h, h, n))
        assert got.tobytes() == want.tobytes()


class TestPassEqualsReference:
    """A pass searches F in the rows _closed_cdf built, F(-1) = 0 and F(m/2) = 1.0 implied at the
    ends, with both kernels folded in order and no division: draw for draw, and its F rows bit
    for bit, the pass that searched one concatenated table (reference_pass).  A row built to any
    last cell, the first rows of a pass to floor(c) + _REACH among them, is the start of the whole
    run's row, bit for bit."""

    @staticmethod
    def peak(kind, m, rng):
        """c = m omega near cell 0, anywhere, near m/2, or within m 2^-43 / pi of a cell (or on it)."""
        half, near = m / 2, min(m / 2, 2 * qsim_mod._WIDE + 8)
        if kind == "point":
            return min(max(int(rng.integers(0, m // 2 + 1)) + rng.uniform(-0.9, 0.9) * m * 2.0**-43 / math.pi
                           * rng.integers(0, 2), 0.0), half)
        x = near * rng.random() ** rng.choice([1, 4, 16])
        return {"low": x, "any": half * rng.random(), "high": half - x}[kind]

    def test_draws_and_rows_equal_reference_pass(self):
        reached = {"left": 0, "right": 0}

        @settings(derandomize=True, database=None, deadline=None, max_examples=100)
        @given(t=st.sampled_from(range(1, 25)), n=st.integers(1, 2 * qsim_mod._GROUPS + 2),
               seed=st.integers(0, 2**32 - 1))
        def check(t, n, seed):
            m, rng, wide = 1 << t, np.random.default_rng(seed), qsim_mod._WIDE
            omega = [self.peak(k, m, rng) / m for k in rng.choice(["low", "any", "high", "point"], n)]
            size, w = rng.integers(1, 7, n).tolist(), []
            for lo in range(0, n, qsim_mod._GROUPS):  # one pass each
                group = omega[lo:lo + qsim_mod._GROUPS]
                c, s, fit = pass_args(group, t)
                table, f_table, start, gap, p0 = reference_cdf(c, m, s)
                f_run, r0, n_run, p0_run = closed_rows(c, m, s)
                # and the rows a pass builds first, to floor(c) + _REACH, and rows to random ends
                last = [min(math.floor(x) + qsim_mod._REACH, a + n - 1) for x, a, n in zip(c, r0, n_run)]
                f_pre, _, n_pre, p0_pre = closed_rows(c, m, s, last)
                ends = np.random.default_rng([seed, lo])  # its own stream: w is drawn from rng
                last = [int(ends.integers(a, a + n)) for a, n in zip(r0, n_run)]
                f_any, _, n_any, _ = closed_rows(c, m, s, last)
                assert p0_run.tobytes() == p0.tobytes() == p0_pre.tobytes()
                for g, x in enumerate(c):
                    cells, f = table[start[g]:start[g + 1]], f_table[start[g]:start[g + 1]]
                    assert (r0[g], n_run[g]) == (cells[1], cells.size - 2)
                    assert f_run[g, :n_run[g]].tobytes() == f[1:-1].tobytes()
                    assert f_pre[g, :n_pre[g]].tobytes() == f[1:1 + n_pre[g]].tobytes()
                    assert f_any[g, :n_any[g]].tobytes() == f[1:1 + n_any[g]].tobytes()
                    edges = [0.0, 1.0 - 2.0**-53, 1.0, rng.random()]
                    if fit[g]:  # w on G = 2F - F(0) and one ulp either side at the run's ends and in its gaps
                        k = {r0[g] - 1, r0[g], math.floor(x), math.floor(x) + 1, cells[-2], cells[-2] + 1,
                             m // 2 - 1}  # cells[-2] = r1
                        k = np.array(sorted(j for j in k if 0 <= j < m // 2))
                        i = np.minimum(np.searchsorted(cells, k), cells.size - 1)
                        f_k = np.where(cells[i] == k, f[i], 0.0)
                        f_k[cells[i] != k] = gap(k[cells[i] != k], g)
                        g_k = 2.0 * f_k - p0[g]
                        edges += np.clip([*g_k, *np.nextafter(g_k, 0), *np.nextafter(g_k, 2)], 0, 1).tolist()
                    w += rng.choice(edges, size[lo + g]).tolist()
            w = np.array(w)
            got, want = qsim_mod._closed_form_draws(omega, t, w, size), reference_pass(omega, t, w, size)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            c, _, fit = pass_args(omega, t)
            on_f = np.repeat(fit, size)
            for x, j in zip(np.repeat(c, size)[on_f], got[on_f]):  # the gaps 128-sections searched
                r0, r1 = max(math.floor(x) - wide, 0), min(math.floor(x) + wide + 1, m // 2 - 1)
                reached["left"] += int(j < r0)
                reached["right"] += int(r1 < j < m // 2)

        check()
        assert reached["left"] and reached["right"], reached

    @pytest.mark.parametrize("t", [9, 13, 18, 24])
    def test_rows_at_the_fold_tie_equal_reference(self, t):
        # c a few ulps from m/2 - k, where k + c may round to m/2 itself (a pass would draw such a c
        # from its point mass; this is the table alone): rint's half goes to 0, and shifted or not,
        # sin^2(h (k + c)) at +-pi/2 reads 1.0 alike
        m, rng, ties = 1 << t, derived_rng(73, "tie", t), 0
        for k in rng.integers(1, 2 * qsim_mod._WIDE, 40).tolist():
            for ulps in (-3, -2, -1, 1, 2, 3):  # c = m/2 - k, a pole, is a point mass
                c = m / 2 - k + ulps * math.ulp(m / 2 - k)
                ties += k + c == m / 2
                s = abs(math.sin(math.pi * c))
                f_run, (r0,), (n,), p0 = closed_rows([c], m, [s])
                table, f_table, _, _, p0_ref = reference_cdf([c], m, [s])
                assert f_run[0, :n].tobytes() == f_table[1:-1].tobytes() and p0.tobytes() == p0_ref.tobytes()
        assert ties, t


class TestPrefixBuild:
    """A pass tabulates each amplitude's F from r0 to floor(c) + _REACH, where medians of the
    solvers' reps fall, builds the whole run r0..r1 of an amplitude only for a u at or past that
    last F, and keeps nothing once it returns."""

    @staticmethod
    def spy(monkeypatch):
        """The cells of each row of each table the passes build, in build order."""
        builds, real = [], qsim_mod._closed_cdf

        def spy(m, c, scale, r0, em_r0, n):
            builds.append(list(n))
            return real(m, c, scale, r0, em_r0, n)

        monkeypatch.setattr(qsim_mod, "_closed_cdf", spy)
        return builds

    @pytest.mark.parametrize("t", [9, 11, 13])
    @pytest.mark.parametrize("reps", [31, 45])
    def test_medians_build_one_short_table_a_pass(self, t, reps, monkeypatch):
        # the statevector solves' passes: two amplitudes of 8 entries, away from both ends of 0..m/2
        m, rng, row = 1 << t, derived_rng(74, "prefix", t, reps), qsim_mod._WIDE + qsim_mod._REACH + 1
        builds = self.spy(monkeypatch)
        for _ in range(60):
            c = rng.uniform(qsim_mod._WIDE, m / 2 - qsim_mod._REACH - 1, 2)
            median_amplitude_estimates(np.repeat(np.sin(np.pi * c / m) ** 2, 8), t, reps, rng)
        assert builds == [[row, row]] * 60

    @pytest.mark.parametrize("t", [11, 13, 20])
    def test_a_u_past_its_row_builds_that_amplitude_whole_run(self, t, monkeypatch):
        # u at or past F(floor(c) + _REACH): in the run past it, past r1, and at w = 1.0
        m, wide, reach = 1 << t, qsim_mod._WIDE, qsim_mod._REACH
        omega = [(m / 3 + 0.29) / m, 700.61 / m]
        c = m * omega[0]
        cells = np.array([math.floor(c) + reach + 1, math.floor(c) + wide, math.floor(c) + wide + 2])
        a = math.sin(math.pi * omega[0]) ** 2
        f, _, _, p0 = closed_form_f(a, t, np.concatenate((cells - 1, cells)))
        g = 2.0 * f - p0
        w = np.array([*(g[:3] + g[3:]) / 2, 1.0, 0.5, 0.5, 0.3])  # the middle of each cell's step of G
        size = [5, 2]
        builds = self.spy(monkeypatch)
        got = qsim_mod._closed_form_draws(omega, t, w, size)
        assert got.tobytes() == reference_pass(omega, t, w, size).tobytes()
        assert got[:3].tolist() == cells.tolist() and got[3] == m // 2
        row = wide + reach + 1
        assert builds == [[row, row], [2 * wide + 2, row]]

    def test_a_pass_keeps_nothing(self):
        # no memo: a repeated 64-amplitude pass at t = 24 holds none of its rows (64 x 387 cells,
        # 198 KB) once it returns, only numpy's cache of small freed buffers
        omega, w = ((np.arange(64) + 0.37) / 129).tolist(), derived_rng(72, "memo").random(64)
        first = qsim_mod._closed_form_draws(omega, 24, w, [1] * 64)  # numpy's buffer cache warmed
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            again = qsim_mod._closed_form_draws(omega, 24, w, [1] * 64)
            held = tracemalloc.get_traced_memory()[0] - before - again.nbytes
        finally:
            tracemalloc.stop()
        assert first.tobytes() == again.tobytes() == reference_pass(omega, 24, w, [1] * 64).tobytes()
        assert held <= 2**15, held

    def test_replay_tool_counts_rebuilds_of_a_split_call(self, monkeypatch):
        # 65 distinct amplitudes: two passes of 64 and 1, the last amplitude read past its row
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "tools"))
        replay = importlib.import_module("replay_passes")
        t, c = 13, 300.37 + 50 * np.arange(qsim_mod._GROUPS + 1)
        a, w = np.sin(np.pi * c / (1 << t)) ** 2, np.full(c.size, 0.5)
        assert replay.rebuilt_amplitudes([(a, t, w, None)]) == 0
        w[-1] = 1.0
        assert replay.rebuilt_amplitudes([(a, t, w, None)]) == 1


class TestCountChecks:
    @pytest.mark.parametrize("reps", [0, -1, 2.5, True])
    def test_bad_reps_raise_before_drawing(self, reps):
        rng = derived_rng(53, "reps")
        with pytest.raises(PreconditionError, match="^reps must be an odd integer >= 1, got "):
            median_amplitude_estimates([0.1, 0.2], 6, reps, rng)
        assert rng.random() == derived_rng(53, "reps").random()

    @pytest.mark.parametrize("reps", [2, 90, np.int64(4)])
    def test_even_reps_refused_before_drawing(self, reps):
        # the median of an even count is the mean of two runs, not one order statistic
        rng = derived_rng(54, "reps")
        message = f"^reps must be an odd integer >= 1, got {re.escape(repr(reps))}$"
        with pytest.raises(PreconditionError, match=message):
            median_amplitude_estimates([0.1, 0.0, 0.2], 6, reps, rng)
        assert rng.random() == derived_rng(54, "reps").random()

    @pytest.mark.parametrize("size", [-2, 1.5, True])
    def test_bad_size_raises_before_drawing(self, size):
        rng = derived_rng(55, "size")
        with pytest.raises(PreconditionError, match="size must be an integer >= 0"):
            amplitude_estimation_sample(0.1, 6, rng, size=size)
        assert rng.random() == derived_rng(55, "size").random()

    def test_zero_size_draws_nothing(self):
        rng, led = derived_rng(56, "size"), QueryLedger()
        assert amplitude_estimation_sample(0.1, 13, rng, size=0, ledger=led).shape == (0,)
        assert led.quantum_oracle_calls == 0
        assert rng.random() == derived_rng(56, "size").random()


@pytest.mark.parametrize("n", [0, 1, 50])
@pytest.mark.parametrize("t", [1, 6, 10, 11, 13, 16])
def test_sampler_is_single_run_medians(t, n):
    # the sampler is kept only as a name: its draws are the one-run medians',
    # and both equal folded draws at Beta(1, 1) variates
    for i, a in enumerate((0.0, 1e-9, 0.1, 0.3, 0.5, 0.77, 1.0)):
        got = amplitude_estimation_sample(a, t, derived_rng(57, t, n, i), size=n)
        want = median_amplitude_estimates([a] * n, t, 1, derived_rng(57, t, n, i))
        w = derived_rng(57, t, n, i).beta(1, 1, n)
        row = qsim_mod._estimate_draws(np.full(n, a), t, w)
        assert got.tobytes() == want.tobytes() == row.tobytes()
    single = amplitude_estimation_sample(0.3, t, derived_rng(57, t))
    assert single == float(median_amplitude_estimates([0.3], t, 1, derived_rng(57, t))[0])


def median_law(a, t, reps):
    """The exact law of the median's folded index over cells 0 to m/2: the binomial tail
    P(at least h of reps runs fold to j or below), h = (reps + 1) / 2, at the folded CDF G."""
    m, d = 1 << t, outcome_distribution(a, t)
    g = np.minimum(2.0 * np.cumsum(d[:m // 2 + 1]) - d[0], 1.0)
    g[-1] = 1.0
    return np.array([sum(math.comb(reps, k) * x**k * (1.0 - x) ** (reps - k)
                         for k in range((reps + 1) // 2, reps + 1)) for x in g])


def folded_cells(est, t):
    """The folded index j = min(y, m - y) of each estimate sin^2(pi y / m)."""
    m = 1 << t
    y = np.rint(np.arcsin(np.sqrt(est)) * m / np.pi).astype(int)
    return np.minimum(y, m - y)


class TestOneOrderStatistic:
    """A median of an odd number of runs is drawn as one order statistic: w ~ Beta(h, h)
    inverted on the folded CDF G = 2F - F(0), one variate and one inversion an estimate."""

    # G as the grid sums it and G as the draw inverts it, 2F - F(0) with F from _closed_cdf,
    # differ by at most 1.5e-15 on these amplitudes at t <= 10
    ROUND_OFF = 4e-15

    @pytest.mark.parametrize("t", range(1, 11))
    def test_draw_is_the_inverse_of_the_folded_cdf(self, t):
        # w on each value of G, one ulp either side, and midway between successive values:
        # the draw is G's inverse wherever G has no step within its round-off of w, and on a
        # step one of the cells the round-off spans
        m = 1 << t
        for a in (1e-9, 0.07, 0.3, 0.5, 0.55, 1.0):
            d = outcome_distribution(a, t)
            g = 2.0 * np.cumsum(d[:m // 2 + 1]) - d[0]
            g[-1] = 1.0
            w = np.concatenate(([0.0, 1.0], g, np.nextafter(g, 0), np.nextafter(g, 1), (g[1:] + g[:-1]) / 2))
            w = w[(w >= 0.0) & (w <= 1.0)]
            j = qsim_mod._closed_form_draws([math.asin(math.sqrt(a)) / math.pi], t, w, [w.size])
            lo, hi = (np.minimum(np.searchsorted(g, w + x, side="right"), m // 2)
                      for x in (-self.ROUND_OFF, self.ROUND_OFF))
            assert ((lo <= j) & (j <= hi)).all(), (a, w[(j < lo) | (j > hi)])
            assert (j[lo == hi] == lo[lo == hi]).all(), a
            assert (lo == hi).sum() >= min(m // 4, 20) or not fits(a, t), a  # a point mass has one step

    @pytest.mark.parametrize("a,t,reps", [(0.3, 6, 5), (0.07, 8, 9), (0.55, 7, 15), (0.2, 9, 45)])
    @pytest.mark.parametrize("sampler", [median_amplitude_estimates, reference_medians],
                             ids=["one-order-statistic", "reference"])
    def test_medians_follow_the_exact_median_law(self, sampler, a, t, reps):
        # Kolmogorov-Smirnov at 1%: the new draw and the sampler it replaced alike
        n = 200_000
        law = median_law(a, t, reps)
        cells = folded_cells(sampler([a] * n, t, reps, derived_rng(66, "law", str(a), t, reps)), t)
        empirical = np.bincount(cells, minlength=law.size).cumsum() / n
        assert np.abs(empirical - law).max() < 1.63 / math.sqrt(n)

    @pytest.mark.parametrize("t", [1, 6, 10])
    def test_w_of_one_draws_the_top_cell(self, t):
        # G reaches 1 only at m/2; at 1e-20, F(0) rounds to 1 - 2^-53 or 1.0 and F saturates
        # below m/2 in floats, and (w + F(0)) / 2 must still read inside the amplitude's table
        for a in (1e-20, 1e-9, 0.3, 0.77):
            j = qsim_mod._closed_form_draws([math.asin(math.sqrt(a)) / math.pi], t, np.ones(1), [1])
            assert j.tolist() == [1 << t - 1], a

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(t=st.sampled_from(range(10, 17)), seed=st.integers(0, 2**32 - 1),
           peaks=st.lists(st.tuples(st.sampled_from(["left", "any", "right"]), st.floats(0.0, 1.0)),
                          min_size=1, max_size=3),
           picks=st.lists(st.integers(0, 13), min_size=1, max_size=12))
    def test_medians_invert_f_where_run_gaps_and_top_meet(self, t, seed, peaks, picks):
        # w on G = 2F - F(0) and one ulp either side at r0, r1, r1 + 1 and m/2 - 1, at
        # 1 - 2^-53 and at 1.0: where the run, the sections of the gap past it and the end
        # cell m/2 meet, for peaks near cell 0, anywhere, and near m/2
        m, wide = 1 << t, qsim_mod._WIDE
        a, w, rng = [], [], derived_rng(70, "meet", seed)
        for where, x in peaks:
            c = {"left": 400 * x, "any": m / 2 * x, "right": m / 2 - 400 * x}[where]
            amplitude, edges = math.sin(math.pi * c / m) ** 2, [1.0, 1.0 - 2.0**-53, rng.random()]
            if fits(amplitude, t):
                c, p0 = closed_form_f(amplitude, t, 0)[1::2]
                r0, r1 = max(math.floor(c) - wide, 0), min(math.floor(c) + wide + 1, m // 2 - 1)
                g = 2.0 * closed_form_f(amplitude, t, np.unique(np.minimum([r0, r1, r1 + 1, m // 2 - 1],
                                                                           m // 2 - 1)))[0] - p0
                edges += [*g, *np.nextafter(g, 0), *np.nextafter(g, 2)]
            a += [amplitude] * len(picks)
            w += [min(max(edges[i % len(edges)], 0.0), 1.0) for i in picks]

        class Stream:  # hands the chosen variates over as single-run medians
            def beta(self, p, q, size):
                assert p == q == 1 and size == len(w)
                return np.array(w)

        got = median_amplitude_estimates(a, t, 1, Stream())
        assert got.tobytes() == reference_folded(a, t, w).tobytes()

    def test_memory_does_not_grow_with_reps(self):
        # reps = 10^7 + 1 is one Beta(5 000 001, 5 000 001) variate an entry, where the
        # (n, reps) block of uniforms it replaced held 16 x 10^7 floats (1.2 GiB)
        amplitudes = (np.arange(16) + 0.5) / 16
        peak = traced_peak(lambda: median_amplitude_estimates(amplitudes, 13, 10**7 + 1,
                                                              derived_rng(67, "reps")))
        assert peak < 2**20, peak

    def test_zero_amplitudes_take_no_pass(self, monkeypatch):
        monkeypatch.setattr(qsim_mod, "_closed_cdf", lambda m, c, *_: pytest.fail(f"pass built for {c}"))
        est = median_amplitude_estimates([0.0, -0.0, 0.0, -0.0], 9, 45, derived_rng(68, "zeros"))
        assert est.tobytes() == np.zeros(4).tobytes()


@pytest.mark.parametrize("h", [1, 23, 33, 43])
def test_numpy_beta_is_its_scalar_loop(h):
    # the definition the median draw rests on: one beta(h, h, n) call is n successive
    # beta(h, h) calls on the same Generator (h = 1 takes numpy's Johnk branch, a larger h
    # its gamma ratio), and leaves it in the same state
    whole, loop = derived_rng(69, "beta", h), derived_rng(69, "beta", h)
    got = whole.beta(h, h, 1000)
    want = np.array([loop.beta(h, h) for _ in range(1000)])
    assert got.tobytes() == want.tobytes()
    np.testing.assert_equal(whole.bit_generator.state, loop.bit_generator.state)


class TestSimulateArgmax:
    def test_single_item(self):
        led = QueryLedger()
        idx = simulate_argmax([7.0], 0.5, derived_rng(5, "n1"), ledger=led)
        assert idx == 0
        assert led.quantum_oracle_calls <= argmax_query_budget(1, 0.5)

    def test_all_equal_ties_to_lowest(self):
        # the tie rule makes index 0 the unique top element; the search finds
        # it at the contract's own confidence level
        hits = 0
        for i in range(200):
            idx = simulate_argmax(np.ones(8), 0.2, derived_rng(6, "ties", i))
            hits += idx == 0
        assert hits / 200 >= 1.0 - 0.2

    def test_sixteen_values_contract(self):
        # correct index in >= 90% of runs at delta = 0.1, within budget
        values = np.arange(16.0)
        budget = argmax_query_budget(16, 0.1)
        ok = 0
        for i in range(2000):
            led = QueryLedger()
            idx = simulate_argmax(values, 0.1, derived_rng(7, "dh", i), ledger=led)
            ok += idx == 15
            assert led.quantum_oracle_calls <= budget
        assert ok / 2000 >= 0.90

    def test_budget_never_exceeded_random_cases(self):
        for i in range(100):
            rng = derived_rng(8, "budget", i)
            n = int(rng.integers(1, 65))
            delta = float(rng.uniform(0.01, 0.9))
            values = rng.random(n)
            led = QueryLedger()
            simulate_argmax(values, delta, rng, ledger=led)
            assert led.quantum_oracle_calls <= argmax_query_budget(n, delta)

    def test_sub_unit_budget_charges_nothing(self):
        # at delta near 1 the budget can be below one query; the search must
        # degrade to an uninformed guess rather than overcharge
        led = QueryLedger()
        idx = simulate_argmax(np.arange(2.0), 0.99, derived_rng(13, "tiny"),
                              ledger=led)
        assert idx in (0, 1)
        assert led.quantum_oracle_calls == 0

    def test_probe_cost_multiplies_charges(self):
        led_unit = QueryLedger()
        led_cost = QueryLedger()
        simulate_argmax(np.arange(8.0), 0.2, derived_rng(10, "pc"), ledger=led_unit)
        simulate_argmax(np.arange(8.0), 0.2, derived_rng(10, "pc"), ledger=led_cost,
                        probe_cost=13)
        assert led_cost.quantum_oracle_calls == 13 * led_unit.quantum_oracle_calls

    def test_empty_rejected(self):
        with pytest.raises(PreconditionError):
            simulate_argmax([], 0.1, derived_rng(11, "empty"))

    @pytest.mark.parametrize("c_max", [math.inf, -math.inf, math.nan, 0.0, -1.0, 1e308])
    def test_bad_c_max_raises_before_drawing(self, c_max):
        # inf looped forever, as does 1e308, whose budget overflows
        rng = derived_rng(14, "c_max")
        with pytest.raises(PreconditionError, match="c_max must be positive and finite"):
            simulate_argmax(np.arange(8.0), 1e-3, rng, c_max)
        assert rng.random() == derived_rng(14, "c_max").random()

    @pytest.mark.parametrize("n", [1, 8])
    def test_budget_above_max_probes_raises_before_drawing(self, n):
        # c_max = 1e9 at n = 8 is 9.4e9 probes, which ran past a 10 s timeout
        rng = derived_rng(17, "max-probes", n)
        with pytest.raises(PreconditionError, match="exceeds MAX_ARGMAX_PROBES = 16777216"):
            simulate_argmax(np.arange(float(n)), 0.1, rng, 1e9)
        assert rng.random() == derived_rng(17, "max-probes", n).random()

    def test_budget_at_max_probes_runs(self, monkeypatch):
        # the bound itself is a budget simulate_argmax runs to the end
        monkeypatch.setattr(qsim_mod, "MAX_ARGMAX_PROBES", 1000)
        c_max = 1000 / (math.sqrt(8) * math.log2(1 / 0.1))
        led = QueryLedger()
        simulate_argmax(np.arange(8.0), 0.1, derived_rng(18, "at-max"), c_max, ledger=led)
        assert 990 <= led.quantum_oracle_calls <= 1000
        with pytest.raises(PreconditionError, match="MAX_ARGMAX_PROBES = 1000;"):
            simulate_argmax(np.arange(8.0), 0.1, derived_rng(18, "at-max"), c_max * 1.001)

    @pytest.mark.parametrize("n", [65, 1000])
    def test_more_than_64_items_raise_before_drawing(self, n):
        rng = derived_rng(20, "items", n)
        with pytest.raises(PreconditionError,
                           match=f"statevector max finding supports at most 64 items, got {n}"):
            simulate_argmax(np.arange(float(n)), 0.1, rng)
        assert rng.random() == derived_rng(20, "items", n).random()
        assert qsim_mod.MAX_ARGMAX_ITEMS == 64
        simulate_argmax(np.arange(64.0), 0.1, derived_rng(20, "items", 64))

    @pytest.mark.parametrize("values", [[np.nan], [1.0, np.nan, 2.0], [np.nan] * 8])
    def test_nan_values_raise_before_drawing(self, values):
        rng = derived_rng(15, "nan")
        with pytest.raises(PreconditionError, match="values must not be NaN"):
            simulate_argmax(values, 0.1, rng)
        assert rng.random() == derived_rng(15, "nan").random()

    def test_memory_does_not_grow_with_the_budget(self):
        # c_max = 1e4: about 5.3e5 probes, drawn from a law whose build holds a ring of
        # 8 x 13 x 64 cells (52 KiB) at any budget; each call builds it afresh
        led = QueryLedger()

        def call(c_max):
            qsim_mod._argmax_law.cache_clear()
            return simulate_argmax(np.arange(64.0), 0.01, derived_rng(16, "mem"), c_max, ledger=led)

        per_probe = argmax_query_budget(64, 0.01, 1.0)
        c_maxes = (1e4 / per_probe, 1e4, (MAX_ARGMAX_PROBES - 0.5) / per_probe)
        traced_peak(lambda: call(1e4))  # warms numpy's caches
        peaks = [traced_peak(lambda: call(c_max)) for c_max in c_maxes]
        assert led.quantum_oracle_calls > 2**24 - 100
        led = QueryLedger()
        call(1e4)
        assert led.quantum_oracle_calls > 5e5 - 100
        assert max(peaks) - min(peaks) <= 1024, peaks
        assert max(peaks) < 128 * 1024, peaks


def reference_argmax(values, delta, rng, c_max=4.0, ledger=None, phase=None, probe_cost=1):
    """simulate_argmax's threshold-improvement loop as it ran probe by probe before it was drawn
    from its law, kept as the reference: one Generator call per draw."""
    v = np.asarray(values, dtype=float)
    n = v.size
    j = int(rng.integers(n)) if n > 1 else 0
    budget = argmax_query_budget(n, delta, c_max)
    if n == 1 or budget < 1.0:
        return j
    idx = np.arange(n)
    probes = 1
    grow = 6.0 / 5.0
    m_cap = math.ceil(math.sqrt(n))
    m_max = 1.0

    def beating(j):
        marked = (v > v[j]) | ((v == v[j]) & (idx < j))
        return marked, int(marked.sum())

    marked, k = beating(j)
    while True:
        m_iter = int(rng.integers(0, math.ceil(m_max)))
        cost = m_iter + 1
        if probes + cost > budget:
            break
        probes += cost
        if k > 0:
            theta = math.asin(math.sqrt(k / n))
            p_success = math.sin((2 * m_iter + 1) * theta) ** 2
            if rng.random() < p_success:
                j = int(idx[marked][rng.integers(k)])
                marked, k = beating(j)
                m_max = 1.0
                continue
        m_max = min(grow * m_max, m_cap)

    if ledger is not None:
        ledger.charge_quantum(probes * probe_cost, phase)
    return j


@functools.cache
def plain_argmax_law(n, b):
    """The law of reference_argmax's loop on n >= 2 items and floor(budget) = b >= 1 probes, as an
    (n, c) table, c = ceil(sqrt(n)): cell [r, j] is the chance that it returns the item of rank r
    (r items beat it) after b - c + 1 + j probes.  A forward dynamic program over the whole
    (probes, level, rank of the threshold) array, one Grover count at a time, with no cut: the
    independent reference for qsim._argmax_law."""
    c, levels = math.ceil(math.sqrt(n)), [1.0]
    while levels[-1] < c:
        levels.append(min(6.0 / 5.0 * levels[-1], c))
    top = len(levels) - 1
    draws = np.array([[math.ceil(x)] for x in levels], dtype=float)
    hits = [np.array([math.sin((2 * i + 1) * math.asin(math.sqrt(k / n))) ** 2 for k in range(n)])
            for i in range(c)]
    mass = np.zeros((b + c + 1, top + 1, n))  # pending, not yet stopped
    mass[1, 0] = 1.0 / n  # a uniform first threshold, read by one probe
    law = np.zeros((n, c))
    for p in range(1, b + 1):
        y = mass[p] / draws
        for i in range(c):  # Grover count i, at the levels that draw it, costs i + 1 probes
            y_i = np.where(draws > i, y, 0.0)
            if p + i + 1 > b:
                law[:, p - (b - c + 1)] += y_i.sum(axis=0)
                continue
            hit = y_i * hits[i]
            fail, after = y_i - hit, mass[p + i + 1]
            after[1:] += fail[:-1]
            after[top] += fail[top]
            lands = hit.sum(axis=0) / np.maximum(np.arange(n), 1)  # on each rank below
            after[0, :-1] += np.cumsum(lands[:0:-1])[::-1]
    return law


def law_argmax(values, delta, rng, c_max=4.0, ledger=None, phase=None, probe_cost=1):
    """simulate_argmax as its law defines it, from plain_argmax_law: one rng.random() inverted
    on the rank-major CDF of (rank, probes), the rank mapped to its item by sorting."""
    v = [float(x) for x in values]
    n, budget = len(v), argmax_query_budget(len(values), delta, c_max)
    if n == 1:
        return 0
    if budget < 1.0:
        return int(rng.integers(n))
    b, c = math.floor(budget), math.ceil(math.sqrt(n))
    cdf = plain_argmax_law(n, b).ravel().cumsum()
    cdf[-1] = 1.0
    rank, j = divmod(int(np.argmax(cdf > rng.random())), c)
    if ledger is not None:
        ledger.charge_quantum((b - c + 1 + j) * probe_cost, phase)
    return sorted(range(n), key=lambda i: (-v[i], i))[rank]


@pytest.mark.parametrize("n,budget", [(2, 18.9), (3, 20.2), (8, 6.0), (8, 37.6), (8, 225.7),
                                      (16, 40.0), (33, 300.0), (64, 633.5), (64, 2.5), (5, 1.0)])
def test_argmax_law_equals_plain_dynamic_program(n, budget):
    b = math.floor(budget)
    qsim_mod._argmax_law.cache_clear()
    cdf, want = qsim_mod._argmax_law(n, b), plain_argmax_law(n, b)
    assert not cdf.flags.writeable and cdf.shape == (want.size,) and cdf[-1] == 1.0
    got = np.diff(cdf, prepend=0.0)
    # every cell but the last, which reads what is left of 1.0
    assert np.abs(got[:-1] - want.ravel()[:-1]).max() <= 1e-15
    assert abs(got[-1] - want[-1, -1]) <= 1e-14 and abs(want.sum() - 1.0) <= 1e-14


@pytest.mark.parametrize("n", [2, 3, 8, 33, 64])
def test_argmax_law_sums_to_one_at_every_budget(n):
    # by 10^4 probes the mass above rank 0 is under 2^-64 and dropped: the rows of rank > 0 are
    # 0 and rank 0's cells hold the whole law, carried by the renewal's matrix power
    c = math.ceil(math.sqrt(n))
    for b in [1, 2, c, c + 1, 10, 97, 1000, 10**4, 10**5 + 3, 2**20, MAX_ARGMAX_PROBES - 1,
              MAX_ARGMAX_PROBES]:
        qsim_mod._argmax_law.cache_clear()
        start = time.perf_counter()
        cdf = qsim_mod._argmax_law(n, b)
        assert time.perf_counter() - start < 0.5, (n, b)
        cells = np.diff(cdf[:-1], prepend=0.0)  # the last reads what is left of 1.0
        assert (cells >= 0.0).all() and cells.size == n * c - 1 and cdf[-1] == 1.0
        if b < c:  # probe counts below 1 take nothing
            assert not np.append(cells, 0.0).reshape(n, c)[:, :c - b].any()
        if b >= 10**4:
            assert not cells[c:].any() and abs(cdf[-2] - 1.0) <= 1e-14, (n, b)
        else:
            assert abs(cdf[-2] + plain_argmax_law(n, b)[-1, -1] - 1.0) <= 1e-14, (n, b)


def chi_square_bound(dof, z=3.719):
    """The chi-square quantile at 1 - 1e-4 (z its normal quantile), by Wilson and Hilferty."""
    return dof * (1.0 - 2.0 / (9 * dof) + z * math.sqrt(2.0 / (9 * dof))) ** 3


@pytest.mark.parametrize("n,budget", [(3, 20.2), (8, 6.0), (8, 37.6), (16, 40.0)])
def test_argmax_law_matches_the_reference_loop(n, budget):
    # budgets small enough that the ranks above 0 carry mass
    runs, b, c = 4000, math.floor(budget), math.ceil(math.sqrt(n))
    c_max = (budget + 1e-9) / math.sqrt(n)
    assert math.floor(argmax_query_budget(n, 0.5, c_max)) == b
    law = np.diff(qsim_mod._argmax_law(n, b), prepend=0.0).reshape(n, c)
    seen = np.zeros((n, c))
    for i in range(runs):
        values = derived_rng(21, "law-values", n, i).permutation(n).astype(float)
        led = QueryLedger()
        j = reference_argmax(values, 0.5, derived_rng(21, "law", n, i), c_max, ledger=led)
        seen[int((values > values[j]).sum()), led.quantum_oracle_calls - (b - c + 1)] += 1
    assert law[1:].sum() > 5e-5
    want = runs * law.ravel()
    assert not seen.ravel()[want == 0.0].any()  # nothing the law rules out
    big = want >= 5.0  # cells expected five times or more, and the rest pooled
    got = np.append(seen.ravel()[big], seen.ravel()[~big].sum())
    want = np.append(want[big], want[~big].sum())
    stat = ((got - want)[want > 0] ** 2 / want[want > 0]).sum()
    assert stat <= chi_square_bound((want > 0).sum() - 1), stat


def rng_state(rng):
    st = rng.bit_generator.state
    return (tuple(st["state"]["counter"]), tuple(st["state"]["key"]), tuple(st["buffer"]),
            st["buffer_pos"], st["has_uint32"], st["uinteger"])


# (n, delta, c_max): budgets from under one probe to 1,914, with few distinct (n, budget)
ARGMAX_CASES = [(1, 0.1, 4.0), (2, 0.98, 0.5), (2, 1e-3, 4.0), (3, 0.2, 16.0), (5, 1e-8, 0.5),
                (8, 0.1, 4.0), (8, 1e-6, 4.0), (16, 0.01, 1.0), (33, 0.3, 4.0), (64, 1e-6, 4.0)]


def argmax_case(i):
    """Seeded inputs on ARGMAX_CASES: values random, tied, coarse (partly tied) or ordered, and a
    stream entered fresh, mid block, holding a 32-bit half, or past a taken one."""
    n, delta, c_max = ARGMAX_CASES[i % len(ARGMAX_CASES)]
    g = derived_rng(17, "argmax-case", i)
    values = [g.random(n), np.ones(n), np.round(g.random(n), 1), np.arange(float(n))][i // 10 % 4]
    probe_cost = int(g.integers(1, 20))
    entry = [lambda r: None, lambda r: r.random(int(g.integers(1, 7))),
             lambda r: r.integers(5), lambda r: (r.integers(5), r.integers(5))][i // 40 % 4]
    rng = derived_rng(18, "argmax-case", i)
    entry(rng)
    return values, delta, rng, c_max, probe_cost


def test_argmax_draws_its_law():
    # the same index, charge and stream left behind as law_argmax, draw for draw; cases in
    # (n, budget) order, so that each law is built once
    for i in sorted(range(800), key=lambda i: i % len(ARGMAX_CASES)):
        values, delta, rng, c_max, probe_cost = argmax_case(i)
        ref = np.random.Generator(np.random.Philox())
        ref.bit_generator.state = rng.bit_generator.state
        led, ref_led = QueryLedger(), QueryLedger()
        got = simulate_argmax(values, delta, rng, c_max, ledger=led, probe_cost=probe_cost)
        want = law_argmax(values, delta, ref, c_max, ledger=ref_led, probe_cost=probe_cost)
        assert (got, led.quantum_oracle_calls) == (want, ref_led.quantum_oracle_calls), i
        assert rng_state(rng) == rng_state(ref), i


# simulate_argmax on seeded streams, recorded when it was first drawn from its law:
# (n, values, delta, c_max, probe_cost, entered holding a 32-bit half, index, charge,
# the rng's next integers(2**31), its next random())
ARGMAX_PINS = [
    (1, 'random', 0.1, 4.0, 1, False, 0, 0, 78471993, 0.846402601461167),
    (1, 'random', 0.1, 4.0, 1, True, 0, 0, 996800181, 0.7317510316587488),
    (2, 'random', 0.1, 4.0, 1, False, 0, 18, 1139488192, 0.85187385058006),
    (2, 'ties', 0.3, 4.0, 1, False, 0, 8, 1439800504, 0.2069827427399995),
    (2, 'random', 0.99, 4.0, 1, False, 1, 0, 715008634, 0.40012498184338086),
    (2, 'ramp', 0.001, 16.0, 1, True, 1, 224, 870241239, 0.4921585335176162),
    (3, 'random', 0.05, 0.5, 1, False, 2, 3, 1714824070, 0.4048531428128962),
    (3, 'coarse', 0.2, 16.0, 1, True, 2, 64, 453915139, 0.061249930386730655),
    (3, 'ties', 0.0001, 4.0, 5, False, 0, 460, 1414217110, 0.6536343619312566),
    (8, 'random', 0.1, 4.0, 1, False, 5, 36, 600571266, 0.3796643339424689),
    (8, 'random', 0.01, 16.0, 13, False, 6, 3900, 249783049, 0.38489692603064796),
    (8, 'ties', 0.2, 4.0, 1, False, 0, 25, 2016544901, 0.7569521462609373),
    (8, 'coarse', 0.05, 0.5, 1, True, 0, 6, 1901797019, 0.8611102874374775),
    (8, 'ramp', 0.1, 4.0, 1, False, 7, 37, 1422956393, 0.16363195861388324),
    (8, 'random', 0.9, 0.5, 1, False, 4, 0, 1846491091, 0.07578619559763466),
    (8, 'random', 1e-06, 4.0, 1, True, 7, 224, 584825333, 0.8237057971539301),
    (8, 'coarse', 4e-05, 4.0, 2417, False, 4, 398805, 1148721919, 0.6890683379546307),
    (16, 'random', 0.001, 4.0, 1, False, 7, 159, 623985709, 0.6204595392891159),
    (16, 'ramp', 0.1, 16.0, 1, True, 15, 209, 330550410, 0.30363124441148603),
    (16, 'ties', 0.01, 0.5, 7, False, 1, 84, 990986751, 0.14434126720891194),
    (16, 'coarse', 0.0001, 4.0, 1, False, 14, 211, 363660099, 0.7189223154586857),
    (16, 'random', 0.5, 0.5, 1, True, 1, 2, 954763954, 0.7873669474394166),
    (64, 'random', 1e-06, 4.0, 1, False, 35, 633, 1272551886, 0.0918491246394385),
    (64, 'random', 0.1, 16.0, 3, True, 12, 1272, 654712139, 0.09200225481679969),
    (64, 'ties', 0.05, 4.0, 1, False, 0, 133, 1501813493, 0.7991788381861469),
    (64, 'coarse', 0.01, 0.5, 1, False, 38, 26, 1005804666, 0.3442065253740545),
    (64, 'ramp', 0.001, 4.0, 1, True, 63, 316, 441671718, 0.6962221006922112),
    (64, 'coarse', 0.3, 16.0, 1, True, 2, 220, 1495237220, 0.976761225396676),
    (64, 'random', 0.999, 0.5, 1, False, 48, 0, 1108300301, 0.3672432397615748),
    (16, 'coarse', 1e-09, 16.0, 1, True, 0, 1913, 1734455905, 0.15168439613984463),
]


def argmax_values(i, n, kind):
    if kind == "ties":
        return np.ones(n)
    if kind == "ramp":
        return np.arange(float(n))
    values = derived_rng(1801, "argmax-values", i).random(n)
    return np.round(values, 1) if kind == "coarse" else values


@pytest.mark.parametrize("i", range(len(ARGMAX_PINS)))
def test_argmax_pins(i):
    n, kind, delta, c_max, probe_cost, held, *pinned = ARGMAX_PINS[i]
    rng = derived_rng(1800, "argmax-pin", i)
    if held:
        rng.integers(5)  # leaves the high half of a word held for the next integers()
    led = QueryLedger()
    idx = simulate_argmax(argmax_values(i, n, kind), delta, rng, c_max, ledger=led,
                          probe_cost=probe_cost)
    assert [idx, led.quantum_oracle_calls, int(rng.integers(2**31)), rng.random()] == pinned
