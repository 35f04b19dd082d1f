"""Tests for query accounting, sampling, and the dyadic amplitude oracle."""

import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmdp.errors import ConfigError
from qmdp.mdp import VARIANCE_BLOCK_CELLS, Mdp
from qmdp.oracle import (
    DyadicRow,
    QueryLedger,
    SampleOracle,
    DyadicMdp,
    quantize_mdp,
    quantize_row,
    reversible_successor_map,
)
from qmdp.rng import DIGEST_KEYS, derived_rng
from test_rng import reference_rng


def uniform_mdp(s=2, a=2, gamma=0.9):
    return Mdp(
        transitions=np.full((s, a, s), 1.0 / s),
        rewards=np.zeros((s, a)),
        discount=gamma,
    )


def point_mass_mdp(target=1, s=3, a=2):
    p = np.zeros((s, a, s))
    p[:, :, target] = 1.0
    return Mdp(transitions=p, rewards=np.zeros((s, a)), discount=0.9)


def random_dyadic_counts(rng, s, m):
    """Random composition of 2^m into s non-negative parts."""
    total = 1 << m
    cuts = np.sort(rng.integers(0, total + 1, size=s - 1)) if s > 1 else np.array([], dtype=int)
    parts = np.diff(np.concatenate(([0], cuts, [total])))
    return parts.astype(np.int64)


class TestQueryLedger:
    def test_conservation(self):
        led = QueryLedger()
        led.charge_classical(3, "a")
        led.charge_quantum(10, "b")
        led.charge_quantum(5)
        assert led.total == 18
        assert sum(led.phases.values()) == led.total

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            QueryLedger().charge_classical(-1)


class TestSampling:
    def test_deterministic_row_always_hits_successor(self):
        oracle = SampleOracle(point_mass_mdp(target=2), seed=1)
        assert oracle.sample_counts(0, 1, 20).tolist() == [0, 0, 20]
        assert oracle.ledger.classical_samples == 20

    def test_fair_coin_frequency(self):
        oracle = SampleOracle(uniform_mdp(), seed=11)
        draws = np.concatenate([np.repeat([0, 1], oracle.sample_counts(0, 0, 1))
                                for _ in range(10000)])
        freq = np.mean(draws == 0)
        assert abs(freq - 0.5) <= 0.02
        assert oracle.ledger.classical_samples == 10000

    def test_equal_seeds_identical_sequences(self):
        a = SampleOracle(uniform_mdp(3, 2), seed=42)
        b = SampleOracle(uniform_mdp(3, 2), seed=42)
        seq_a = [a.sample_counts(i % 3, i % 2, 1 + i % 5).tolist() for i in range(1000)]
        seq_b = [b.sample_counts(i % 3, i % 2, 1 + i % 5).tolist() for i in range(1000)]
        assert seq_a == seq_b

    def test_sample_counts_matches_charge_and_determinism(self):
        a = SampleOracle(uniform_mdp(4, 1), seed=3)
        b = SampleOracle(uniform_mdp(4, 1), seed=3)
        ca = a.sample_counts(0, 0, 100000, phase="bulk")
        cb = b.sample_counts(0, 0, 100000, phase="bulk")
        np.testing.assert_array_equal(ca, cb)
        assert ca.sum() == 100000
        assert a.ledger.classical_samples == 100000
        assert a.ledger.phases["bulk"] == 100000

    def test_counts_distribution(self):
        oracle = SampleOracle(uniform_mdp(2, 1), seed=8)
        counts = oracle.sample_counts(0, 0, 1_000_000)
        assert abs(counts[0] / 1e6 - 0.5) < 0.002

    def test_index_errors(self):
        oracle = SampleOracle(uniform_mdp(), seed=0)
        with pytest.raises(IndexError):
            oracle.sample_counts(2, 0, 1)
        with pytest.raises(IndexError):
            oracle.sample_counts(0, 5, 1)


def dirichlet_mdp(s_n, a_n, seed):
    rng = derived_rng(seed, "dirichlet-mdp", s_n, a_n)
    return Mdp(transitions=rng.dirichlet(np.ones(s_n), size=(s_n, a_n)),
               rewards=np.zeros((s_n, a_n)), discount=0.9)


def row_loop_means(transitions, v, n, rng):
    """empirical_means' draws as a row loop on one stream: a multinomial per
    (s, a) in row-major order, each summed over s' in einsum's order."""
    s_n, a_n, _ = transitions.shape
    est = np.empty((s_n, a_n))
    for s, a in np.ndindex(s_n, a_n):
        est[s, a] = np.einsum("j,j->", rng.multinomial(n, transitions[s, a]), v) / n
    return est


def loop_empirical_means(oracle, v, n, phase):
    """empirical_means written out on the one call stream (seed, "call", c) it takes."""
    rng = reference_rng(oracle.seed, "call", oracle._calls)
    oracle._next_rng()  # the counter moves past that stream
    oracle.ledger.charge_classical(n * oracle.mdp.num_states * oracle.mdp.num_actions, phase)
    return row_loop_means(oracle.mdp.transitions, v, n, rng)


@st.composite
def straddling_shapes(draw):
    """(S, A) with S*A near 64, or with S*A rows near one block of
    VARIANCE_BLOCK_CELLS // S rows, on either side of it."""
    if draw(st.booleans()):
        s_n = draw(st.integers(1, 16))
        return s_n, max(1, 64 // s_n + draw(st.integers(-1, 1)))
    s_n = draw(st.integers(24, 200))
    return s_n, max(1, VARIANCE_BLOCK_CELLS // s_n**2 + draw(st.integers(-1, 1)))


def _oracle_record(oracle):
    return oracle._calls, oracle.ledger.to_dict()


class TestEmpiricalMeans:
    @pytest.mark.parametrize("s_n", [1, 2, 4, 64])
    @pytest.mark.parametrize("a_n", [1, 3, 8])
    @pytest.mark.parametrize("n", [0, 1, 7, 10**6])
    def test_equals_sample_counts_loop(self, s_n, a_n, n):
        mdp = dirichlet_mdp(s_n, a_n, 1)
        v = derived_rng(2, "v", s_n).uniform(0.0, 10.0, s_n)
        loop, method = SampleOracle(mdp, 17), SampleOracle(mdp, 17)
        for oracle in (loop, method):  # start both mid-counter, with a phase charged
            oracle.sample_counts(0, 0, 5, phase="earlier")
        with np.errstate(invalid="ignore"):  # n = 0 gives 0/0 means, as the loop does
            for i in (1, 2):
                want = loop_empirical_means(loop, v, n, f"iter-{i}")
                got = method.empirical_means(v, n, f"iter-{i}")
                assert got.shape == (s_n, a_n) and got.dtype == np.float64
                assert got.tobytes() == want.tobytes()
                assert _oracle_record(method) == _oracle_record(loop)
        assert method._calls == 1 + 2

    def test_digest_runs_cross_mid_call(self):
        # one stream a call: the sample_counts calls before the third advance
        # the counter past the first DIGEST_KEYS run of hashed keys, so that
        # call's stream comes from the next run
        mdp = dirichlet_mdp(64, 8, 5)
        v = derived_rng(5, "v").uniform(0.0, 10.0, 64)
        loop, method = SampleOracle(mdp, 21), SampleOracle(mdp, 21)
        for i, advance in enumerate((1, 1, DIGEST_KEYS + 1)):
            for oracle in (loop, method):
                for j in range(advance):
                    oracle.sample_counts(j % 64, i, 9, phase="between")
            want = loop_empirical_means(loop, v, 1000, f"iter-{i}")
            assert method.empirical_means(v, 1000, f"iter-{i}").tobytes() == want.tobytes()
            assert _oracle_record(method) == _oracle_record(loop)
        assert method._calls == 3 + DIGEST_KEYS + 3

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(shape=straddling_shapes(), n=st.sampled_from([0, 1, 7, 10**6]),
           seed=st.integers(0, 2**32))
    def test_equals_row_loop_on_one_stream(self, shape, n, seed):
        s_n, a_n = shape
        g = np.random.default_rng(seed)
        mdp = Mdp(g.dirichlet(np.ones(s_n), size=(s_n, a_n)), np.zeros((s_n, a_n)), 0.9)
        v = g.uniform(0.0, 10.0, s_n)
        oracle = SampleOracle(mdp, seed)
        oracle.sample_counts(0, 0, 3)  # so the call takes stream 1, not 0
        rng = reference_rng(seed, "call", 1)
        with np.errstate(invalid="ignore"):
            got, want = oracle.empirical_means(v, n), row_loop_means(mdp.transitions, v, n, rng)
        assert got.tobytes() == want.tobytes()
        np.testing.assert_equal(oracle._rng.bit_generator.state, rng.bit_generator.state)

    @pytest.mark.parametrize("s_n,rows", [(1, 1), (2, 16), (7, 9), (64, 512), (299, 3)])
    def test_numpy_2d_multinomial_is_its_row_loop(self, s_n, rows):
        # the definition empirical_means draws by: a 2-D multinomial is one
        # 1-D draw per row, in order, on the same Generator
        p = derived_rng(s_n, "rows", rows).dirichlet(np.ones(s_n), size=rows)
        whole, loop = reference_rng(3, "call", 0), reference_rng(3, "call", 0)
        got = whole.multinomial(10**6, p)
        want = np.array([loop.multinomial(10**6, row) for row in p])
        assert got.tobytes() == want.tobytes()
        np.testing.assert_equal(whole.bit_generator.state, loop.bit_generator.state)

    def test_memory_bounded_at_s512(self):
        # counts are drawn a block of rows at a time: one (S*A, S) draw would
        # hold 16 MiB here, as many bytes as the tensor itself
        mdp = Mdp(np.full((512, 8, 512), 1.0 / 512), np.zeros((512, 8)), 0.9)
        oracle, v = SampleOracle(mdp, 0), np.arange(512.0)
        tracemalloc.start()
        try:
            oracle.empirical_means(v, 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, f"peak {peak / 2**20:.2f} MiB"

    def test_interleaved_oracles_equal_sequential(self):
        def steps(oracle, v):
            yield oracle.empirical_means(v, 1000, "a")
            yield oracle.sample_counts(1, 2, 50, "b")
            yield oracle.derive_rng("aux", 3).random(4)
            yield oracle.sample_counts(0, 1, 1, "c")
            yield oracle.empirical_means(v + 1.0, 10**6, "d")

        mdp_x, mdp_y = dirichlet_mdp(4, 3, 3), dirichlet_mdp(4, 3, 4)
        v = np.arange(4.0)
        alone = []
        for mdp, seed in ((mdp_x, 5), (mdp_y, 6)):
            oracle = SampleOracle(mdp, seed)
            alone.append([out.tobytes() for out in steps(oracle, v)] + [_oracle_record(oracle)])
        x, y = SampleOracle(mdp_x, 5), SampleOracle(mdp_y, 6)
        together = [[], []]
        for out_x, out_y in zip(steps(x, v), steps(y, v)):
            together[0].append(out_x.tobytes())
            together[1].append(out_y.tobytes())
        together[0].append(_oracle_record(x))
        together[1].append(_oracle_record(y))
        assert together == alone


class TestSampleArguments:
    """Ill-typed arguments are refused, naming the argument, before any
    draw, charge or call-counter advance."""

    @pytest.mark.parametrize("n", [2.5, 3.0, True, False, np.float64(4.0), float("nan"),
                                   None, "7", np.bool_(True)])
    def test_sample_count_must_be_an_integer(self, n):
        oracle = SampleOracle(uniform_mdp(3, 2), seed=0)
        for call in (lambda: oracle.sample_counts(0, 0, n),
                     lambda: oracle.empirical_means(np.ones(3), n)):
            with pytest.raises(TypeError, match="sample count n must be an integer"):
                call()
        assert _oracle_record(oracle) == (0, QueryLedger().to_dict())

    @pytest.mark.parametrize("s,a,name", [(True, 0, "state index s"), (0, True, "action index a"),
                                          (False, 1, "state index s"), (0.0, 0, "state index s"),
                                          (1, 1.5, "action index a"),
                                          (np.float64(1.0), 0, "state index s"),
                                          (None, 0, "state index s")])
    def test_indices_must_be_integers(self, s, a, name):
        oracle = SampleOracle(uniform_mdp(3, 2), seed=0)
        with pytest.raises(TypeError, match=f"{name} must be an integer"):
            oracle.sample_counts(s, a, 3)
        assert _oracle_record(oracle) == (0, QueryLedger().to_dict())

    def test_negative_count_refused_before_drawing(self):
        oracle = SampleOracle(uniform_mdp(3, 2), seed=0)
        for call in (lambda: oracle.sample_counts(0, 0, -1),
                     lambda: oracle.empirical_means(np.ones(3), -1)):
            with pytest.raises(ValueError, match="sample count must be non-negative"):
                call()
        assert _oracle_record(oracle) == (0, QueryLedger().to_dict())

    @pytest.mark.parametrize("v", [np.ones(2), np.ones(4), np.ones((3, 1)), [[1.0, 2.0, 3.0]]])
    def test_value_map_shape_checked_before_drawing(self, v):
        oracle = SampleOracle(uniform_mdp(3, 2), seed=0)
        with pytest.raises(ValueError, match=r"value map must have shape \(3,\)"):
            oracle.empirical_means(v, 5)
        assert _oracle_record(oracle) == (0, QueryLedger().to_dict())

    def test_numpy_integers_accepted(self):
        a, b = SampleOracle(uniform_mdp(3, 2), seed=9), SampleOracle(uniform_mdp(3, 2), seed=9)
        got = a.sample_counts(np.int64(2), np.uint8(1), np.int32(40))
        np.testing.assert_array_equal(got, b.sample_counts(2, 1, 40))
        assert _oracle_record(a) == _oracle_record(b)


class TestReversibleMap:
    def test_single_bit(self):
        row = DyadicRow(1, (1, 1))
        np.testing.assert_array_equal(reversible_successor_map(row), [0, 1])

    def test_three_one_blocks(self):
        row = DyadicRow(2, (3, 1))
        np.testing.assert_array_equal(reversible_successor_map(row), [0, 0, 0, 1])

    def test_point_mass_zero_bits(self):
        row = DyadicRow(0, (1,))
        np.testing.assert_array_equal(reversible_successor_map(row), [0])

    def test_preimage_count_identity_random_rows(self):
        # |{x : map(x) = s'}| = 2^m * p(s'), exactly, for random dyadic rows
        for i in range(100):
            rng = derived_rng(20, "preimage", i)
            m = int(rng.integers(0, 11))
            s = int(rng.integers(1, 7))
            counts = random_dyadic_counts(rng, s, m)
            row = DyadicRow(m, tuple(counts))
            mapping = reversible_successor_map(row)
            assert mapping.shape == (1 << m,)
            np.testing.assert_array_equal(np.bincount(mapping, minlength=s), counts)

    def test_bad_counts_rejected(self):
        with pytest.raises(ConfigError):
            DyadicRow(2, (3, 2))


class TestQuantizeRow:
    def test_half_half(self):
        assert quantize_row([0.5, 0.5], 1).counts == (1, 1)

    def test_thirds_largest_remainder(self):
        # 16 * [1/3, 2/3] = [5.33, 10.67]; the one leftover slot goes to the
        # larger remainder, giving (5, 11)
        assert quantize_row([1 / 3, 2 / 3], 4).counts == (5, 11)

    def test_point_mass(self):
        for m in (0, 1, 5, 12):
            assert quantize_row([1.0, 0.0], m).counts == (1 << m, 0)

    def test_m_too_small(self):
        with pytest.raises(ConfigError, match="too small"):
            quantize_row([0.25, 0.25, 0.25, 0.25], 1)

    @pytest.mark.parametrize("m", [-1, 63, 70, 2**40, True, 2.0, "8", None])
    def test_m_outside_range_rejected(self, m):
        with pytest.raises(ConfigError, match=r"m must be an integer in \[0, 62\]"):
            quantize_row([0.5, 0.5], m)

    def test_largest_m(self):
        for p in ([1.0, 0.0], [0.75, 0.25], [0.5, 0.125, 0.375]):
            counts = quantize_row(p, 62).counts
            assert counts == tuple(int(x * 2**62) for x in p)

    DIRICHLET_ROWS = derived_rng(24, "dirichlet").dirichlet(np.ones(5), size=200)

    @staticmethod
    def unchecked_counts(p, m):
        """Largest-remainder rounding as it read before out-of-range deficits
        were caught: the counts wherever that code succeeded."""
        scaled = np.asarray(p, dtype=float) * (1 << m)
        base = np.floor(scaled).astype(np.int64)
        deficit = (1 << m) - int(base.sum())
        base[np.argsort(-(scaled - base), kind="stable")[:deficit]] += 1
        return tuple(int(k) for k in base)

    @pytest.mark.parametrize("m", [3, 8, 20, 40, 52])
    def test_counts_unchanged_up_to_52_bits(self, m):
        for p in self.DIRICHLET_ROWS:
            assert quantize_row(p, m).counts == self.unchecked_counts(p, m)

    @pytest.mark.parametrize("m", [53, 55, 62])
    def test_fine_grid_rounds_or_names_the_sum_error(self, m):
        rejected = 0
        for p in self.DIRICHLET_ROWS:
            try:
                counts = quantize_row(p, m).counts
            except ConfigError as exc:
                assert re.fullmatch(
                    rf"m={m} too large for this row: its sum error -?[0-9.e+-]+ leaves "
                    rf"-?\d+ units of 2\^-{m} to round up, outside \[0, 5\]", str(exc)), exc
                rejected += 1
            else:
                assert sum(counts) == 1 << m
                assert counts == self.unchecked_counts(p, m)
        assert rejected > 0

    def test_zero_entry_never_takes_a_unit(self):
        # the row sums to 1 - 3*2^-45, inside the 1e-12 tolerance, so 3 units
        # of 2^-45 are left over for its 2 reachable successors
        p = [0.5 - 3 * 2**-45, 0.5, 0.0]
        with pytest.raises(ConfigError, match=re.escape(
                "m=45 too large for this row: its sum error -8.53e-14 leaves 3 units of "
                "2^-45 to round up, outside [0, 2]")):
            quantize_row(p, 45)
        assert quantize_row(p, 44).counts == (2**43 - 1, 2**43 + 1, 0)

    @pytest.mark.parametrize("m", [3, 8, 20, 40, 45, 52, 53, 55, 62])
    def test_rows_with_zeros(self, m):
        """Where the old rounding gave no zero entry a unit the counts are
        unchanged.  Elsewhere the units go to reachable entries, or, when
        they are too few to take them, the row is refused."""
        outcomes = set()
        for i, p in enumerate(self.DIRICHLET_ROWS):
            p = p.copy()
            p[[i % 5, (2 * i + 1) % 5]] = 0.0
            p /= p.sum()
            old = self.unchecked_counts(p, m)
            old_ok = sum(old) == 1 << m and min(old) >= 0 and all(
                k == 0 for k, x in zip(old, p) if x == 0.0)
            try:
                counts = quantize_row(p, m).counts
            except ConfigError as exc:
                assert "too large for this row" in str(exc)
                assert not old_ok
                outcomes.add("refused")
            else:
                floor = np.floor(p * (1 << m)).astype(np.int64)
                assert sum(counts) == 1 << m
                assert all(k - f in (0, 1) for k, f in zip(counts, floor))
                assert all(k == 0 for k, x in zip(counts, p) if x == 0.0)
                assert counts == old or not old_ok
                outcomes.add("rounded")
        assert "rounded" in outcomes

    def test_non_normalized_rejected(self):
        with pytest.raises(ConfigError):
            quantize_row([0.5, 0.4], 4)

    def test_distortion_bound(self):
        for i in range(100):
            rng = derived_rng(21, "distort", i)
            s = int(rng.integers(2, 9))
            m = int(rng.integers(4, 14))
            p = rng.dirichlet(np.ones(s))
            row = quantize_row(p, m)
            q = np.asarray(row.counts) / (1 << m)
            assert np.abs(q - p).max() <= s * 2.0**-m

    def test_extra_bits_reduce_distortion(self):
        # eight more bits shrink the distortion by at least 2^6; a single row
        # can get lucky at the coarse grid, so the guarantee is about the
        # batch: compare worst-case distortion across a sample of rows
        m = 10
        coarse, fine, ratios = [], [], []
        for i in range(30):
            rng = derived_rng(22, "distort8", i)
            s = int(rng.integers(3, 8))
            p = rng.dirichlet(np.ones(s))
            d1 = np.abs(np.asarray(quantize_row(p, m).counts) / 2**m - p).max()
            d2 = np.abs(np.asarray(quantize_row(p, m + 8).counts) / 2 ** (m + 8) - p).max()
            coarse.append(d1)
            fine.append(d2)
            ratios.append(d1 / d2)
        assert max(coarse) >= 2**6 * max(fine)
        assert np.median(ratios) >= 2**6


class TestAmplitudeOracle:
    def test_point_mass_amplitudes(self):
        dyadic = quantize_mdp(point_mass_mdp(target=1), m=4)
        assert dyadic.amplitudes[0, 0, 1] == 1.0
        assert dyadic.amplitudes[0, 0, 0] == 0.0

    def test_three_quarters_amplitudes(self):
        p = np.zeros((2, 1, 2))
        p[0, 0] = [0.75, 0.25]
        p[1, 0] = [0.0, 1.0]
        mdp = Mdp(transitions=p, rewards=np.zeros((2, 1)), discount=0.9)
        dyadic = quantize_mdp(mdp, m=2)
        assert dyadic.amplitudes[0, 0, 0] == pytest.approx(np.sqrt(0.75), abs=1e-15)
        assert dyadic.amplitudes[0, 0, 1] == pytest.approx(0.5, abs=1e-15)

    def test_squared_amplitudes_resum_exactly(self):
        for i in range(50):
            rng = derived_rng(23, "amp", i)
            s = int(rng.integers(1, 6))
            a = int(rng.integers(1, 4))
            counts = np.stack(
                [
                    np.stack([random_dyadic_counts(rng, s, 10) for _ in range(a)])
                    for _ in range(s)
                ]
            )
            mdp = Mdp(
                transitions=counts / 1024.0, rewards=np.zeros((s, a)), discount=0.9
            )
            dyadic = quantize_mdp(mdp, m=10)
            np.testing.assert_array_equal(dyadic.counts, counts)
            for si in range(s):
                for ai in range(a):
                    total = sum(
                        dyadic.probability_exact(si, ai, t) for t in range(s)
                    )
                    assert total == Fraction(1)
                    for t in range(s):
                        assert dyadic.probability_exact(si, ai, t) == Fraction(
                            int(counts[si, ai, t]), 1024
                        )

    def test_counts_must_sum_to_two_to_the_m(self):
        dyadic = quantize_mdp(uniform_mdp(), m=3)
        counts = dyadic.counts.copy()
        counts[1, 0] = [3, 4]
        with pytest.raises(ConfigError, match=r"row \(1, 0\) is not dyadic: counts sum to 7"):
            DyadicMdp(dyadic.mdp, 3, counts, dyadic.max_distortion)

    def test_counts_are_read_only(self):
        dyadic = quantize_mdp(uniform_mdp(), m=3)
        amplitudes = dyadic.amplitudes
        with pytest.raises(ValueError, match="read-only"):
            dyadic.counts[1, 0] = [3, 4]
        np.testing.assert_array_equal(dyadic.counts.sum(axis=2), 8)
        np.testing.assert_array_equal(dyadic.amplitudes, amplitudes)
        assert dyadic.probability_exact(1, 0, 0) == Fraction(1, 2)

    def test_counts_do_not_alias_the_callers_array(self):
        for dtype in (np.int64, np.int32):
            counts = np.full((2, 2, 2), 4, dtype=dtype)
            dyadic = DyadicMdp(uniform_mdp(), 3, counts, 0.0)
            counts[1, 0] = [3, 4]
            assert counts.flags.writeable
            assert dyadic.counts.dtype == np.int64
            assert not np.shares_memory(dyadic.counts, counts)
            np.testing.assert_array_equal(dyadic.counts, 4)
            assert dyadic.probability_exact(1, 0, 0) == Fraction(1, 2)

    def test_read_only_int64_counts_are_kept(self):
        counts = np.full((2, 2, 2), 4, dtype=np.int64)
        counts.setflags(write=False)
        assert DyadicMdp(uniform_mdp(), 3, counts, 0.0).counts is counts
        view = np.full((2, 2, 2), 4, dtype=np.int64)[:]  # over a writable array: copied
        view.setflags(write=False)
        assert not np.shares_memory(DyadicMdp(uniform_mdp(), 3, view, 0.0).counts, view)
        dyadic = quantize_mdp(uniform_mdp(), m=3)  # its fresh tensors are handed over
        for arr in (dyadic.counts, dyadic.mdp.transitions):
            assert arr.base is None and not arr.flags.writeable

    def test_quantize_mdp_surfaces_distortion(self):
        rng = derived_rng(24, "qmdp")
        mdp = Mdp(
            transitions=rng.dirichlet(np.ones(3), size=(3, 2)),
            rewards=rng.random((3, 2)),
            discount=0.9,
        )
        dyadic = quantize_mdp(mdp, m=12)
        assert 0.0 <= dyadic.max_distortion <= 3 * 2.0**-12
        doc = dyadic.to_dict()
        assert doc["m"] == 12 and "counts" in doc and "max_distortion" in doc
