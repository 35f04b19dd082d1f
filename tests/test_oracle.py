"""Tests for query accounting, sampling, and the dyadic amplitude oracle."""

from fractions import Fraction

import numpy as np
import pytest

from qmdp.errors import ConfigError
from qmdp.mdp import Mdp
from qmdp.oracle import (
    DyadicRow,
    QueryLedger,
    SampleOracle,
    DyadicMdp,
    quantize_mdp,
    quantize_row,
    reversible_successor_map,
)
from qmdp.rng import derived_rng


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

    def test_merge_is_entrywise_sum_and_commutes(self):
        a, b, c = QueryLedger(), QueryLedger(), QueryLedger()
        a.charge_classical(1, "x")
        b.charge_quantum(2, "x")
        b.charge_classical(4, "y")
        c.charge_quantum(8, "z")
        ab = a.merge(b)
        assert ab.classical_samples == 5 and ab.quantum_oracle_calls == 2
        assert ab.phases == {"x": 3, "y": 4}
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        assert left.to_dict() == right.to_dict()
        assert a.merge(b).to_dict() == b.merge(a).to_dict()

    def test_json_round_trip(self):
        led = QueryLedger()
        led.charge_quantum(7, "phase-1")
        led.charge_classical(2)
        doc = led.to_dict()
        led2 = QueryLedger.from_dict(doc)
        assert led2.to_dict() == doc


class TestSampling:
    def test_deterministic_row_always_hits_successor(self):
        oracle = SampleOracle(point_mass_mdp(target=2), seed=1)
        for _ in range(20):
            assert oracle.sample(0, 1) == 2
        assert oracle.ledger.classical_samples == 20

    def test_fair_coin_frequency(self):
        oracle = SampleOracle(uniform_mdp(), seed=11)
        draws = np.array([oracle.sample(0, 0) for _ in range(10000)])
        freq = np.mean(draws == 0)
        assert abs(freq - 0.5) <= 0.02
        assert oracle.ledger.classical_samples == 10000

    def test_equal_seeds_identical_sequences(self):
        a = SampleOracle(uniform_mdp(3, 2), seed=42)
        b = SampleOracle(uniform_mdp(3, 2), seed=42)
        seq_a = [a.sample(i % 3, i % 2) for i in range(1000)]
        seq_b = [b.sample(i % 3, i % 2) for i in range(1000)]
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
            oracle.sample(2, 0)
        with pytest.raises(IndexError):
            oracle.sample(0, 5)

    def test_split_streams_differ_but_replay(self):
        base = SampleOracle(uniform_mdp(), seed=5)
        c1 = base.split("worker", 0)
        c2 = base.split("worker", 1)
        c1b = base.split("worker", 0)
        s1 = [c1.sample(0, 0) for _ in range(50)]
        s2 = [c2.sample(0, 0) for _ in range(50)]
        s1b = [c1b.sample(0, 0) for _ in range(50)]
        assert s1 == s1b
        assert s1 != s2  # astronomically unlikely to collide


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
