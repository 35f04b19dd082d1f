"""Tests for the exact tabular-MDP layer."""

import hashlib
import itertools
import json
import re
import tracemalloc

import numpy as np
import pytest

import qmdp.mdp as mdp_mod
from qmdp.errors import ConfigError, InternalError
from qmdp.mdp import (
    Mdp,
    bellman_backup,
    exact_value_iteration,
    expected_next_value,
    greedy,
    load_mdp_json,
    mdp_from_dict,
    mdp_to_dict,
    policy_backup,
    policy_value_exact,
    save_mdp_json,
    successor_variance,
    total_variance_norm,
)
from qmdp.hard_instances import two_state_chain
from qmdp.rng import derived_rng


def random_mdp(rng, max_states=8, max_actions=8, gammas=(0.9, 0.95, 0.99)):
    s = int(rng.integers(1, max_states + 1))
    a = int(rng.integers(1, max_actions + 1))
    return Mdp(
        transitions=rng.dirichlet(np.ones(s), size=(s, a)),
        rewards=rng.random((s, a)),
        discount=float(gammas[rng.integers(len(gammas))]),
    )


def brute_force_optimal_value(mdp):
    """Independent oracle: v* as the pointwise max over all deterministic
    policies, each evaluated by the linear solver."""
    best = np.full(mdp.num_states, -np.inf)
    for assignment in itertools.product(range(mdp.num_actions), repeat=mdp.num_states):
        v = policy_value_exact(mdp, np.array(assignment, dtype=np.int64))
        best = np.maximum(best, v)
    return best


def uniform_two_state(u_independent_reward=0.0):
    p = np.full((2, 2, 2), 0.5)
    r = np.full((2, 2), u_independent_reward)
    return Mdp(transitions=p, rewards=r, discount=0.9)


class TestMdpValidation:
    def test_row_sum_message_names_the_row(self):
        p = np.full((2, 2, 2), 0.5)
        p[1, 0] = [0.5, 0.4]
        with pytest.raises(ConfigError, match=r"transitions\[1\]\[0\]"):
            Mdp(transitions=p, rewards=np.zeros((2, 2)), discount=0.9)

    def test_probability_range(self):
        p = np.full((2, 1, 2), 0.5)
        p[0, 0] = [1.5, -0.5]
        with pytest.raises(ConfigError):
            Mdp(transitions=p, rewards=np.zeros((2, 1)), discount=0.9)

    def test_reward_range(self):
        p = np.full((2, 1, 2), 0.5)
        r = np.array([[1.2], [0.0]])
        with pytest.raises(ConfigError, match=r"rewards\[0\]\[0\]"):
            Mdp(transitions=p, rewards=r, discount=0.9)

    def test_discount_range(self):
        with pytest.raises(ConfigError):
            uniform = np.full((1, 1, 1), 1.0)
            Mdp(transitions=uniform, rewards=np.zeros((1, 1)), discount=1.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_transition_names_the_index(self, value):
        p = np.full((2, 2, 2), 0.5)
        p[1, 0, 1] = value
        with pytest.raises(ConfigError, match=r"transitions\[1\]\[0\]\[1\] = .*not finite"):
            Mdp(transitions=p, rewards=np.zeros((2, 2)), discount=0.9)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_reward_names_the_index(self, value):
        r = np.zeros((2, 2))
        r[0, 1] = value
        with pytest.raises(ConfigError, match=r"rewards\[0\]\[1\] = .*not finite"):
            Mdp(transitions=np.full((2, 2, 2), 0.5), rewards=r, discount=0.9)

    def test_nan_transition_message(self):
        p = np.full((1, 1, 1), np.nan)
        with pytest.raises(ConfigError, match=r"^transitions\[0\]\[0\]\[0\] = nan is not finite$"):
            Mdp(transitions=p, rewards=np.zeros((1, 1)), discount=0.9)

    def test_effective_horizon(self):
        m = uniform_two_state()
        assert m.effective_horizon == pytest.approx(10.0)


class TestOwnership:
    """An Mdp keeps a read-only, C-contiguous float64 array as given when no
    writable array lies under it, and copies anything else."""

    @staticmethod
    def build(p):
        return Mdp(transitions=p, rewards=np.zeros(p.shape[:2]), discount=0.9)

    @pytest.mark.parametrize("view", [False, True], ids=["writable", "read-only-view"])
    def test_callers_writable_array_is_copied(self, view):
        p = np.full((2, 1, 2), 0.5)
        given = p[:] if view else p
        given.setflags(write=not view)
        mdp = self.build(given)
        p[0, 0] = [1.0, 0.0]  # the caller's array stays writable
        assert not np.shares_memory(p, mdp.transitions) and not mdp.transitions.flags.writeable
        np.testing.assert_array_equal(mdp.transitions, 0.5)

    def test_handed_over_array_is_kept(self):
        p = np.full((2, 1, 2), 0.5)
        p.setflags(write=False)
        mdp = self.build(p)
        assert mdp.transitions is p
        again = Mdp(mdp.transitions, mdp.rewards, 0.5)  # instances share read-only arrays
        assert again.transitions is p and again.rewards is mdp.rewards
        view = p[:]  # a read-only view over a read-only owner is kept too
        assert self.build(view).transitions is view

    @pytest.mark.parametrize("make", [
        lambda p: p.astype(np.float32),
        lambda p: np.asfortranarray(np.full((2, 2, 2), 0.5)),
        lambda p: np.frombuffer(p.tobytes(), dtype=float).reshape(p.shape),
    ], ids=["float32", "fortran-order", "over-bytes"])
    def test_other_read_only_arrays_are_copied(self, make):
        x = make(np.full((2, 2, 2), 0.5))
        x.setflags(write=False)
        mdp = self.build(x)
        assert mdp.transitions is not x and mdp.transitions.flags.c_contiguous
        assert mdp.transitions.dtype == np.float64 and not mdp.transitions.flags.writeable

    def test_builders_hand_their_tensors_over(self):
        from qmdp.cli import _random_mdp
        from qmdp.hard_instances import HardInstanceSpec, tiled_instance

        for mdp in (two_state_chain(0.9, 0.5), _random_mdp(np.random.default_rng(3)),
                    tiled_instance(HardInstanceSpec(gamma=0.9, num_actions=2, eps=0.5, copies=2))):
            for arr in (mdp.transitions, mdp.rewards):
                assert arr.base is None and arr.flags.owndata and not arr.flags.writeable


class TestExpectedNextValue:
    def test_uniform_rows_give_mean(self):
        m = uniform_two_state()
        out = expected_next_value(m, np.array([0.0, 2.0]))
        np.testing.assert_allclose(out, 1.0)

    def test_point_mass_rows(self):
        p = np.zeros((3, 2, 3))
        p[:, :, 0] = 1.0  # every row jumps to state 0
        m = Mdp(transitions=p, rewards=np.zeros((3, 2)), discount=0.5)
        u = np.array([0.7, 0.1, 0.4])
        np.testing.assert_allclose(expected_next_value(m, u), 0.7)

    def test_hand_dot_product(self):
        p = np.zeros((2, 1, 2))
        p[0, 0] = [0.3, 0.7]
        p[1, 0] = [0.0, 1.0]
        m = Mdp(transitions=p, rewards=np.zeros((2, 1)), discount=0.9)
        out = expected_next_value(m, np.array([1.0, 3.0]))
        # 0.3*1 + 0.7*3 = 2.4, computed by hand
        assert out[0, 0] == pytest.approx(2.4, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            expected_next_value(uniform_two_state(), np.zeros(3))


class TestSuccessorVariance:
    def test_deterministic_rows_have_zero_variance(self):
        p = np.zeros((2, 2, 2))
        p[:, :, 1] = 1.0
        m = Mdp(transitions=p, rewards=np.zeros((2, 2)), discount=0.9)
        np.testing.assert_array_equal(successor_variance(m, np.array([3.0, 8.0])), 0.0)

    def test_fair_shift(self):
        # Var of a fair +-1 shift around 1 for u = [0, 2]
        m = uniform_two_state()
        out = successor_variance(m, np.array([0.0, 2.0]))
        np.testing.assert_allclose(out, 1.0)

    def test_constant_map_zero(self):
        rng = derived_rng(0, "var-const")
        m = random_mdp(rng)
        out = successor_variance(m, np.full(m.num_states, 4.2))
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_nonnegative_on_random_inputs(self):
        for i in range(200):
            rng = derived_rng(1, "var-nonneg", i)
            m = random_mdp(rng)
            u = rng.uniform(0, m.effective_horizon, m.num_states)
            assert successor_variance(m, u).min() >= 0.0


def full_tensor_variance(mdp, v):
    """successor_variance as it read before it was blocked: the deviations
    of every row at once, in (S, A, S) temporaries."""
    v = mdp_mod._check_value_vec(mdp, v)
    mean = expected_next_value(mdp, v)
    dev = v[np.newaxis, np.newaxis, :] - mean[:, :, np.newaxis]
    var = np.einsum("sat,sat->sa", mdp.transitions, dev * dev)
    if np.any(var < mdp_mod._VARIANCE_CLAMP):
        raise InternalError(f"variance computed below {mdp_mod._VARIANCE_CLAMP}: min {var.min()}")
    return np.maximum(var, 0.0)


def dirichlet_mdp(s_n, a_n, seed=0):
    rng = np.random.default_rng([seed, s_n, a_n])
    return Mdp(rng.dirichlet(np.ones(s_n), size=(s_n, a_n)), rng.random((s_n, a_n)), 0.9)


def value_maps(s_n):
    rng = np.random.default_rng([7, s_n])
    return {
        "uniform": rng.uniform(0.0, 10.0, s_n),
        "signed": rng.standard_normal(s_n),
        "constant": np.full(s_n, 4.2),
        "zero": np.zeros(s_n),
        "large": rng.standard_normal(s_n) * 1e150,
    }


class TestBlockedSuccessorVariance:
    """The blocked form is byte-identical to the full-tensor one and holds
    no (S, A, S) temporary.  At the default block of 2^15 cells, S=128 with
    A=3 splits into a full and a partial block, S=300 with A=3 into nine
    (the last partial), S=300 with A=16 into 50 of six states."""

    @pytest.mark.parametrize("cells", [None, 1], ids=["default-blocks", "one-state-blocks"])
    @pytest.mark.parametrize("a_n", [1, 3, 16])
    @pytest.mark.parametrize("s_n", [1, 2, 4, 128, 300])
    def test_byte_equal_to_full_tensor(self, monkeypatch, s_n, a_n, cells):
        if cells is not None:
            monkeypatch.setattr(mdp_mod, "VARIANCE_BLOCK_CELLS", cells)
        m = dirichlet_mdp(s_n, a_n)
        for name, v in value_maps(s_n).items():
            got, want = successor_variance(m, v), full_tensor_variance(m, v)
            assert got.dtype == want.dtype and got.shape == want.shape == (s_n, a_n)
            assert got.tobytes() == want.tobytes(), name

    @staticmethod
    def peak_bytes(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_bounded_at_s512(self):
        # the (S, A, S) tensor is 32 MiB here; the full-tensor form adds two
        # temporaries of that size, the blocked form one 256 KiB buffer plus
        # (S, A) arrays of 64 KiB
        m = dirichlet_mdp(512, 16)
        v = np.random.default_rng(512).uniform(0.0, 10.0, 512)
        assert self.peak_bytes(successor_variance, m, v) < 1 << 20
        assert self.peak_bytes(full_tensor_variance, m, v) > 60 << 20


class TestBellmanBackup:
    def test_zero_rewards_zero_values(self):
        m = uniform_two_state()
        np.testing.assert_array_equal(bellman_backup(m, np.zeros(2)), 0.0)

    def test_gamma_zero_is_reward_max(self):
        rng = derived_rng(2, "bellman")
        p = rng.dirichlet(np.ones(3), size=(3, 4))
        r = rng.random((3, 4))
        m = Mdp(transitions=p, rewards=r, discount=0.0)
        v = rng.random(3)
        np.testing.assert_allclose(bellman_backup(m, v), r.max(axis=1))

    def test_two_state_chain_by_hand(self):
        # source: r=1, then 0.9 * (0.5*v[src] + 0.5*v[sink]) with v=[1,0]
        m = two_state_chain(0.9, 0.5)
        out = bellman_backup(m, np.array([1.0, 0.0]))
        assert out[0] == pytest.approx(1.45, abs=1e-15)


class TestPolicyBackup:
    def test_zero_map_gives_policy_rewards(self):
        rng = derived_rng(3, "pb")
        m = random_mdp(rng, max_states=4, max_actions=3)
        pi = rng.integers(m.num_actions, size=m.num_states)
        out = policy_backup(m, pi, np.zeros(m.num_states))
        np.testing.assert_allclose(out, m.rewards[np.arange(m.num_states), pi])

    def test_fixed_point(self):
        for i in range(25):
            rng = derived_rng(4, "pb-fix", i)
            m = random_mdp(rng, max_states=5, max_actions=4)
            pi = rng.integers(m.num_actions, size=m.num_states)
            v = policy_value_exact(m, pi)
            np.testing.assert_allclose(policy_backup(m, pi, v), v, atol=1e-9)

    def test_gamma_zero(self):
        rng = derived_rng(5, "pb-g0")
        p = rng.dirichlet(np.ones(3), size=(3, 2))
        r = rng.random((3, 2))
        m = Mdp(transitions=p, rewards=r, discount=0.0)
        pi = np.array([1, 0, 1])
        u = rng.random(3)
        np.testing.assert_allclose(policy_backup(m, pi, u), r[np.arange(3), pi])

    def test_contraction_and_monotone(self):
        for i in range(200):
            rng = derived_rng(6, "pb-contract", i)
            m = random_mdp(rng, max_states=6, max_actions=4)
            pi = rng.integers(m.num_actions, size=m.num_states)
            u = rng.uniform(0, m.effective_horizon, m.num_states)
            w = rng.uniform(0, m.effective_horizon, m.num_states)
            gap = np.abs(policy_backup(m, pi, u) - policy_backup(m, pi, w)).max()
            assert gap <= m.discount * np.abs(u - w).max() + 1e-12
            lo = np.minimum(u, w)
            hi = np.maximum(u, w)
            assert np.all(policy_backup(m, pi, lo) <= policy_backup(m, pi, hi) + 1e-12)


class TestPolicyValueExact:
    def test_self_loop_geometric_series(self):
        m = Mdp(transitions=np.ones((1, 1, 1)), rewards=np.ones((1, 1)), discount=0.9)
        np.testing.assert_allclose(policy_value_exact(m, np.array([0])), [10.0])

    def test_zero_rewards(self):
        rng = derived_rng(7, "pv0")
        m = Mdp(
            transitions=rng.dirichlet(np.ones(3), size=(3, 2)),
            rewards=np.zeros((3, 2)),
            discount=0.95,
        )
        np.testing.assert_allclose(policy_value_exact(m, np.array([0, 1, 0])), 0.0)

    def test_two_state_closed_form(self):
        m = two_state_chain(0.9, 0.5)
        v = policy_value_exact(m, np.array([0, 0]))
        assert v[0] == pytest.approx(1.0 / (1.0 - 0.45), abs=1e-12)
        assert v[1] == pytest.approx(0.0, abs=1e-12)

    def test_invalid_policy_rejected(self):
        m = uniform_two_state()
        with pytest.raises(ValueError):
            policy_value_exact(m, np.array([0, 5]))


class TestExactValueIteration:
    def test_zero_rewards(self):
        m = uniform_two_state()
        v, _, q = exact_value_iteration(m, 1e-9)
        np.testing.assert_array_equal(v, 0.0)
        np.testing.assert_array_equal(q, 0.0)

    def test_chain_without_return(self):
        v, _, _ = exact_value_iteration(two_state_chain(0.9, 0.0), 1e-10)
        np.testing.assert_allclose(v, [1.0, 0.0], atol=1e-9)

    def test_chain_closed_form(self):
        v, _, _ = exact_value_iteration(two_state_chain(0.9, 0.5), 1e-9)
        assert v[0] == pytest.approx(1.0 / (1.0 - 0.45), abs=1e-9)

    def test_matches_brute_force_policy_enumeration(self):
        for i in range(40):
            rng = derived_rng(8, "bf", i)
            m = random_mdp(rng, max_states=3, max_actions=3, gammas=(0.8, 0.9))
            v, _, _ = exact_value_iteration(m, 1e-10)
            np.testing.assert_allclose(v, brute_force_optimal_value(m), atol=1e-8)

    def test_greedy_policy_is_optimal(self):
        for i in range(20):
            rng = derived_rng(9, "greedy-opt", i)
            m = random_mdp(rng, max_states=4, max_actions=3, gammas=(0.9,))
            v, pi, _ = exact_value_iteration(m, 1e-10)
            np.testing.assert_allclose(policy_value_exact(m, pi), v, atol=1e-8)

    def test_bad_tol(self):
        from qmdp.errors import PreconditionError

        with pytest.raises(PreconditionError):
            exact_value_iteration(uniform_two_state(), 0.0)


class TestGreedy:
    def test_example_rows(self):
        v, pi = greedy(np.array([[1.0, 2.0], [3.0, 0.0]]))
        np.testing.assert_array_equal(v, [2.0, 3.0])
        np.testing.assert_array_equal(pi, [1, 0])

    def test_tie_breaks_to_lowest_index(self):
        _, pi = greedy(np.array([[5.0, 5.0, 5.0]]))
        assert pi[0] == 0

    def test_consistent_with_exact_solver(self):
        rng = derived_rng(10, "greedy")
        m = random_mdp(rng, max_states=5, max_actions=4, gammas=(0.9,))
        v, _, q = exact_value_iteration(m, 1e-9)
        vq, _ = greedy(q)
        np.testing.assert_allclose(vq, v, atol=1e-8)


class TestTotalVarianceNorm:
    def test_deterministic_mdp_is_zero(self):
        p = np.zeros((3, 2, 3))
        p[:, :, 2] = 1.0
        rng = derived_rng(11, "tv-det")
        m = Mdp(transitions=p, rewards=rng.random((3, 2)), discount=0.9)
        assert total_variance_norm(m, np.array([0, 1, 0])) == pytest.approx(0.0, abs=1e-9)

    def test_single_state_is_zero(self):
        m = Mdp(transitions=np.ones((1, 2, 1)), rewards=np.array([[0.3, 0.9]]), discount=0.95)
        assert total_variance_norm(m, np.array([1])) == pytest.approx(0.0, abs=1e-9)

    def test_three_state_within_bound(self):
        rng = derived_rng(12, "tv3")
        m = Mdp(
            transitions=rng.dirichlet(np.ones(3), size=(3, 2)),
            rewards=rng.random((3, 2)),
            discount=0.9,
        )
        pi = rng.integers(2, size=3)
        assert total_variance_norm(m, pi) <= np.sqrt(2.0) * 10.0**1.5 + 1e-9

    def test_bound_on_random_mdps(self):
        # multiplicative-form bound sqrt(2) * horizon^1.5 across the gamma grid
        for i in range(200):
            rng = derived_rng(13, "tv-prop", i)
            m = random_mdp(rng)
            pi = rng.integers(m.num_actions, size=m.num_states)
            bound = np.sqrt(2.0) * m.effective_horizon**1.5
            assert total_variance_norm(m, pi) <= bound + 1e-9

    def test_equals_definition(self):
        # the literal (SA) x (SA) system: P^pi[(s,a), (s',a')] = p(s'|s,a)
        # when a' = pi[s'], zero otherwise
        for i in range(50):
            rng = derived_rng(14, "tv-def", i)
            m = random_mdp(rng, max_states=12, max_actions=6, gammas=(0.9, 0.99))
            s, a = m.num_states, m.num_actions
            pi = rng.integers(a, size=s)
            sigma = np.sqrt(successor_variance(m, policy_value_exact(m, pi))).ravel()
            p_big = np.zeros((s * a, s * a))
            for row in range(s * a):
                for t in range(s):
                    p_big[row, t * a + pi[t]] = m.transitions[row // a, row % a, t]
            z = np.linalg.solve(np.eye(s * a) - m.discount * p_big, sigma)
            want = float(np.abs(z).max())
            assert total_variance_norm(m, pi) == pytest.approx(want, rel=1e-12, abs=1e-300)


class TestOptimalityInvariant:
    def test_exact_vstar_dominates_random_policies(self):
        # 500 random MDPs x 50 random policies each
        for i in range(500):
            rng = derived_rng(14, "opt", i)
            m = random_mdp(rng, max_states=6, max_actions=6, gammas=(0.9, 0.95))
            v, _, _ = exact_value_iteration(m, 1e-8)
            pis = rng.integers(m.num_actions, size=(50, m.num_states))
            for pi in pis:
                assert np.all(v >= policy_value_exact(m, pi) - 1e-7)


def pinned_mdp():
    """Three states, two actions: a non-trivial float in every row, exact
    0.0 and 1.0 entries, and entries of 1e-300 and 2^-40."""
    return Mdp(transitions=[[[0.1, 0.2, 0.7], [1 / 3, 1 / 3, 1 / 3]],
                            [[0.0, 0.6180339887498949, 0.3819660112501051],
                             [2**-40, 0.5, 0.5 - 2**-40]],
                            [[0.123456789, 0.0, 0.876543211], [0.25, 0.75, 1e-300]]],
               rewards=[[1.0, 1 / 7], [0.0, 0.3141592653589793], [2 / 3, 1e-5]],
               discount=0.95)


class TestJsonRoundTrip:
    def test_saved_bytes_are_pinned(self, tmp_path):
        # recorded before the writer streamed its rows: the layout (sorted
        # keys, two-space indents, one float a line, final newline) is fixed
        path = tmp_path / "m.json"
        save_mdp_json(pinned_mdp(), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "b3b32262efd98412f1a96096d30122ecbaae8fbab1405164b49a843f99835684")

    def test_oracle_build_bytes_are_pinned(self, tmp_path, capsys):
        # recorded while the dyadic document was written as nested lists: its
        # counts, quantized rows and distortion keep this layout
        from qmdp.cli import main

        path, out = tmp_path / "m.json", tmp_path / "o.json"
        save_mdp_json(pinned_mdp(), path)
        assert main(["oracle-build", "--mdp", str(path), "--m", "12", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "ba656b9cb4dd6c16a1bce5618f5039306c17b5089c7107ce5edb9bcdae3c6d9b")

    def test_round_trip(self, tmp_path):
        rng = derived_rng(15, "json")
        m = random_mdp(rng, max_states=4, max_actions=3)
        path = tmp_path / "m.json"
        save_mdp_json(m, path)
        m2 = load_mdp_json(path)
        np.testing.assert_array_equal(m.transitions, m2.transitions)
        np.testing.assert_array_equal(m.rewards, m2.rewards)
        assert m.discount == m2.discount

    def test_missing_key_message(self):
        with pytest.raises(ConfigError, match="missing required key 'p'"):
            mdp_from_dict({"S": 1, "A": 1, "gamma": 0.9, "r": [[0.0]]})

    def test_bad_row_is_reported_with_path(self, tmp_path):
        doc = mdp_to_dict(uniform_two_state())
        doc["p"][0][1] = [0.9, 0.2]
        path = tmp_path / "bad.json"
        import json

        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=r"bad\.json.*transitions\[0\]\[1\]"):
            load_mdp_json(path)

    def test_wrong_shape_reported(self):
        with pytest.raises(ConfigError, match="expected"):
            mdp_from_dict(
                {"S": 2, "A": 1, "gamma": 0.9, "r": [[0.0], [0.0]], "p": [[[1.0]]]}
            )

    def test_dense_bound_refused_before_array_conversion(self, monkeypatch):
        class Unconvertible:
            def __array__(self, *args, **kwargs):
                raise AssertionError("converted")

        doc = {"S": 2, "A": 3, "gamma": 0.9, "r": Unconvertible(), "p": Unconvertible()}
        monkeypatch.setattr(mdp_mod, "MAX_DENSE_BYTES", 8 * 2 * 2 * 3 - 1)
        with pytest.raises(ConfigError, match=r"^<mdp>: S = 2 and A = 3 need a dense transition "
                           r"tensor of 8\*S\^2\*A = 96 bytes, above 95$"):
            mdp_from_dict(doc)
        monkeypatch.setattr(mdp_mod, "MAX_DENSE_BYTES", 96)  # at the bound: converted
        with pytest.raises(AssertionError, match="converted"):
            mdp_from_dict(doc)

    def test_one_dense_bound_for_documents_and_generators(self):
        from qmdp import hard_instances

        assert hard_instances.MAX_DENSE_BYTES is mdp_mod.MAX_DENSE_BYTES == 2**30

    @pytest.mark.parametrize("doc,shown", [
        (5, "5"), ("m", '"m"'), (None, "null"), ([1, 2], "an array"),
    ], ids=["int", "string", "null", "array"])
    def test_document_that_is_not_an_object_is_refused(self, tmp_path, doc, shown):
        with pytest.raises(ConfigError, match=rf"^<mdp>: MDP document must be a JSON object, "
                                              rf"got {re.escape(shown)}$"):
            mdp_from_dict(doc)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}: MDP document must be "
                                              rf"a JSON object, got {re.escape(shown)}$"):
            load_mdp_json(path)

    @pytest.mark.parametrize("key,index,value,shown", [
        ("p", (0, 0, 0), True, "true"),
        ("p", (1, 1, 1), False, "false"),
        ("p", (1, 0, 1), None, "null"),
        ("r", (0, 0), "0.5", '"0.5"'),
        ("r", (1, 1), {"a": 1}, "an object"),
        ("p", (0, 1), "[0.5, 0.5]", '"[0.5, 0.5]"'),
    ], ids=["true", "false", "null", "numeric-string", "object", "row-as-string"])
    def test_entry_that_is_not_a_number_is_refused(self, tmp_path, key, index, value, shown):
        # np.asarray(..., dtype=float) would take true as 1.0, "0.5" as 0.5
        # and null as NaN; files, inline blocks and oracle-build share this check
        doc = mdp_to_dict(uniform_two_state())
        *outer, last = index
        target = doc[key]
        for i in outer:
            target = target[i]
        target[last] = value
        at = "".join(f"[{i}]" for i in index)
        message = rf"{re.escape(key + at)} must be a number, got {re.escape(shown)}$"
        with pytest.raises(ConfigError, match=r"^<mdp>: " + message):
            mdp_from_dict(doc)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc, indent=2))
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}: " + message):
            load_mdp_json(path)

    def test_numpy_scalars_from_python_callers_are_numbers(self):
        doc = mdp_to_dict(uniform_two_state())
        doc["r"][0] = [np.float64(0.25), np.int64(1)]
        assert mdp_from_dict(doc).rewards[0].tolist() == [0.25, 1.0]

    def test_int_beyond_float_range_is_refused(self, tmp_path):
        doc = mdp_to_dict(uniform_two_state())
        doc["r"][1][0] = 10**400
        with pytest.raises(ConfigError, match=r"^<mdp>: r/p are not numeric arrays: int too large"):
            mdp_from_dict(doc)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))  # a file's int entries are read as floats
        with pytest.raises(ConfigError, match=r"m\.json: rewards\[1\]\[0\] = inf is not finite$"):
            load_mdp_json(path)


# Documents crossing every kind of cut a chunk of the reader can make: in a
# string, in an escape, in a row and in a number outside the rows.  Integer
# entries, strings holding brackets, braces, quotes and escapes, and nested
# extra keys, in one-line, indent-2 and compact layouts; exponents, -0 and
# -0.0 in a handwritten one.
_MATRIX_DOC = {
    "S": 2, "A": 2, "gamma": 0.9,
    "name": 'a "quoted" [1, 2] {row} \\ back\\"slash é\n',
    "meta": {"tags": ["x", "[0.5]", ""], "nested": [[1, 2], [{"k": [3.5e-7]}], []],
             "n": -12.5e-3, "ok": True, "none": None},
    "r": [[0.5, 1], [0, 0.3333333333333333]],
    "p": [[[0.5, 0.5], [1, 0]], [[0.25, 0.75], [0.1, 0.9]]],
}
_MATRIX = {
    "one-line": json.dumps(_MATRIX_DOC),
    "indent-2": json.dumps(_MATRIX_DOC, indent=2, ensure_ascii=False),
    "compact": json.dumps(_MATRIX_DOC, separators=(",", ":")),
    "handwritten": '{"A": 2, "S": 2, "gamma": 9e-1, "r": [[0.5,1], [-0, 25E-2]],\n'
                   ' "p": [[[ 0.5 ,5e-1 ], [1,-0]], [[-0.0, 1.0], [0.1,0.9 ]]]}',  # "-0" is 0.0
    "saved": None,  # as save_mdp_json writes the pinned MDP
    # runs of escaped backslashes before quotes, brackets and a row-like text inside strings
    "escapes": json.dumps(dict(_MATRIX_DOC, name="\\" * 9 + '"[0.5]"' + "\\" * 4,
                               **{"x]": ['"', "\\", "[1, 2"]})),
    "r-before-p": '{"r": [[0.5, 1], [0, 0.25]], "gamma": 0.9, "S": 2, "A": 2,'
                  ' "p": [[[0.5, 0.5], [1, 0]], [[0.25, 0.75], [0.1, 0.9]]]}',
    # a first p and other arrays before the p json.load keeps (its last)
    "p-twice": '{"p": [[[1, 0]]], "S": 2, "A": 2, "x": [[7, 8, 9]], "gamma": 0.9,'
               ' "r": [[0.5, 1], [0, 0.25]], "p": [[[0.5, 0.5], [1, 0]], [[0.25, 0.75], [0.1, 0.9]]]}',
    # refused as json.load's document is: p's rows split by another array,
    # rows of unequal length, and entries that are not numbers
    "p-split": '{"S": 2, "A": 2, "gamma": 0.9, "r": [[0.5, 1], [0, 0.25]],'
               ' "p": [[[0.5, 0.5], [[1, 0]]], [[0.25, 0.75], [0.1, 0.9]]]}',
    "unequal-rows": '{"S": 2, "A": 2, "gamma": 0.9, "r": [[0.5, 1], [0, 0.25]],'
                    ' "p": [[[0.5, 0.5], [1, 0]], [[0.25, 0.75], [0.1, 0.2, 0.7]]]}',
    "bool-in-p": '{"S": 2, "A": 2, "gamma": 0.9, "r": [[0.5, 1], [0, 0.25]],'
                 ' "p": [[[0.5, 0.5], [1, 0]], [[0.25, 0.75], [0.1, true]]]}',
    "string-in-p": '{"S": 2, "A": 2, "gamma": 0.9, "r": [[0.5, 1], [0, 0.25]],'
                   ' "p": [[[0.5, 0.5], [1, 0]], [[0.25, 0.75], "[0.1, 0.9]"]]}',
}


def _loaded(load):
    """An instance's bytes and discount, or the ConfigError that refused it."""
    try:
        m = load()
    except ConfigError as exc:
        return str(exc)
    return m.transitions.tobytes(), m.rewards.tobytes(), m.discount


class TestBoundedFileIo:
    """load_mdp_json holds one row of a file at a time as text or Python
    floats, and save_mdp_json one row as Python floats."""

    @pytest.mark.parametrize("chunk", [1, 7, 64, None], ids=["chunk-1", "chunk-7", "chunk-64",
                                                             "chunk-default"])
    @pytest.mark.parametrize("layout", sorted(_MATRIX))
    def test_reader_equals_json_load(self, tmp_path, monkeypatch, layout, chunk):
        path = tmp_path / "m.json"
        if _MATRIX[layout] is None:
            save_mdp_json(pinned_mdp(), path)
        else:
            path.write_text(_MATRIX[layout], encoding="utf-8")
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        want = _loaded(lambda: mdp_from_dict(doc, source=str(path)))
        if chunk is not None:
            monkeypatch.setattr(mdp_mod, "READ_CHUNK_CHARS", chunk)
        monkeypatch.setattr(mdp_mod, "_read_json", None)  # a file that parses is read once
        assert _loaded(lambda: load_mdp_json(path)) == want
        assert isinstance(want, tuple) == (layout not in {"p-split", "unequal-rows", "bool-in-p",
                                                          "string-in-p"})

    @pytest.mark.parametrize("chunk", [1, 7, None], ids=["chunk-1", "chunk-7", "chunk-default"])
    @pytest.mark.parametrize("text", [
        '{"S": 1, "A": 1, "gamma": 0.9, "r": [[0.5]], "p": [[[1.0]]], "name": "open',
        '{"S": 1, "A": 1, "gamma": 0.9, "r": [[0.5,]], "p": [[[1.0]]]}',
        '{"S": 1, "A": 1, "gamma": 0.9, "r": [[0.5]], "p": [[[1.0]]',
    ], ids=["unterminated-string", "trailing-comma-in-row", "truncated"])
    def test_invalid_json_keeps_json_message(self, tmp_path, monkeypatch, text, chunk):
        path = tmp_path / "m.json"
        path.write_text(text)
        with pytest.raises(json.JSONDecodeError) as want:
            json.loads(text)
        if chunk is not None:
            monkeypatch.setattr(mdp_mod, "READ_CHUNK_CHARS", chunk)
        with pytest.raises(ConfigError) as got:
            load_mdp_json(path)
        assert str(got.value) == f"{path}: not valid JSON ({want.value})"

    def test_rows_past_the_dense_bound_stop_the_reader(self, tmp_path, monkeypatch):
        # r and p of an MDP within the bound hold 8*S*A*(S+1) <= 2*MAX_DENSE_BYTES
        # bytes; the reader stops at the chunk that passes that, before the
        # invalid rest of this file is read
        path = tmp_path / "m.json"
        path.write_text('{"p": [' + ", ".join(["[0.5, 0.5]"] * 8) + "] not json")
        monkeypatch.setattr(mdp_mod, "MAX_DENSE_BYTES", 8 * 2 * 2 * 1)
        monkeypatch.setattr(mdp_mod, "READ_CHUNK_CHARS", 64)
        with pytest.raises(ConfigError, match=r"m\.json: arrays of more than 64 bytes as float64"):
            load_mdp_json(path)

    def test_long_row_is_counted_before_it_is_converted(self, tmp_path, monkeypatch):
        # the row's entries pass the bound before its invalid end is parsed
        path = tmp_path / "m.json"
        path.write_text('{"p": [[' + "0.5, " * 8 + "x]]}")
        monkeypatch.setattr(mdp_mod, "MAX_DENSE_BYTES", 16)
        with pytest.raises(ConfigError, match=r"m\.json: arrays of more than 32 bytes as float64"):
            load_mdp_json(path)

    def test_memory_bounded_at_s128(self, tmp_path):
        # the (S, A, S) tensor is 1 MiB; json.load held its text and one
        # Python float per entry (about 8x), the nested-list writer about 4x;
        # an array per row, stacked and then copied by Mdp, about 3.35x, and
        # the rows read into the one buffer the instance keeps, about 1.6x
        m = dirichlet_mdp(128, 8)
        path = tmp_path / "m.json"
        tensor = m.transitions.nbytes
        assert TestBlockedSuccessorVariance.peak_bytes(save_mdp_json, m, path) < 0.25 * tensor
        assert TestBlockedSuccessorVariance.peak_bytes(load_mdp_json, path) < 1.75 * tensor
        assert load_mdp_json(path).transitions.tobytes() == m.transitions.tobytes()

    def test_oracle_build_memory_bounded_at_s128(self, tmp_path, capsys):
        # reading, quantizing and writing the 1 MiB tensor peaked at 12.4x it
        # while the dyadic document went out as nested lists; row by row, 5.3x.
        # With the loaded, quantized and count tensors kept as made and the
        # distortion taken in place it measures 4.36x (the loaded tensor, the
        # counts, the quantized tensor and one difference); 4.75x leaves 9%
        from qmdp.cli import main

        m = dirichlet_mdp(128, 8)
        path, out = tmp_path / "m.json", tmp_path / "o.json"
        save_mdp_json(m, path)
        argv = ["oracle-build", "--mdp", str(path), "--out", str(out)]
        assert TestBlockedSuccessorVariance.peak_bytes(main, argv) < 4.75 * m.transitions.nbytes
        assert (np.array(json.loads(out.read_text())["counts"]).sum(axis=2) == 1 << 20).all()

    def test_long_string_costs_memory_in_proportion(self, tmp_path):
        # a 1.5 MB string with an escape every third char, carried across many
        # chunks: a regex that kept backtracking state per char took about
        # 100 bytes a char here
        path = tmp_path / "m.json"
        text = json.dumps({"note": "x\n" * (1 << 19)})
        path.write_text(text)

        def load():
            with pytest.raises(ConfigError, match="missing required key 'S'"):
                load_mdp_json(path)

        assert TestBlockedSuccessorVariance.peak_bytes(load) < 8 * len(text)

    def test_loaded_tensor_is_the_readers_buffer(self, tmp_path):
        m = dirichlet_mdp(16, 4)
        path = tmp_path / "m.json"
        save_mdp_json(m, path)
        doc = mdp_mod._read_rows(path)
        got = mdp_from_dict(doc, source=str(path))
        assert got.transitions is doc["p"] and got.rewards is doc["r"]  # kept, not copied
        buf = got.transitions.base  # one buffer under both
        assert got.rewards.base is buf and np.shares_memory(got.transitions, buf)
        assert buf.base is None and not buf.flags.writeable and buf.size == 16 * 4 * 17
        assert got.transitions.tobytes() == m.transitions.tobytes()

    @pytest.mark.parametrize("chunk", [7, None], ids=["chunk-7", "chunk-default"])
    def test_long_string_outside_the_rows_is_refused(self, tmp_path, monkeypatch, chunk):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"S": 1, "A": 1, "gamma": 0.9, "r": [[0.5]], "p": [[[1.0]]],
                                    "note": "x" * 80}))
        monkeypatch.setattr(mdp_mod, "MAX_DENSE_BYTES", 64)
        if chunk is not None:
            monkeypatch.setattr(mdp_mod, "READ_CHUNK_CHARS", chunk)
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}: more than 64 characters "
                                              r"of text outside the rows, or in one string or row$"):
            load_mdp_json(path)

    def test_long_row_cut_across_chunks_is_refused_before_it_ends(self, tmp_path, monkeypatch):
        # three long entries (24 bytes as float64, within the arrays' bound of
        # 128) whose text passes 64 chars; the row never ends, so a reader
        # that carried it whole would stop with json's message instead
        path = tmp_path / "m.json"
        path.write_text('{"p": [[' + ", ".join(["0." + "5" * 40] * 3))
        monkeypatch.setattr(mdp_mod, "MAX_DENSE_BYTES", 64)
        monkeypatch.setattr(mdp_mod, "READ_CHUNK_CHARS", 16)
        with pytest.raises(ConfigError, match=r"m\.json: more than 64 characters of text outside "
                                              r"the rows, or in one string or row$"):
            load_mdp_json(path)

    def test_solve_on_a_loaded_file_matches_the_instance_in_memory(self, tmp_path):
        from qmdp.cli import estimator_config, run_solver

        m = dirichlet_mdp(12, 3)
        path = tmp_path / "m.json"
        save_mdp_json(m, path)
        loaded = load_mdp_json(path)
        for solver in ({"name": "variance-reduced", "eps": 0.5, "delta": 0.1},
                       {"name": "max-finding", "eps": 1.0, "delta": 0.1}):
            reports = [json.dumps(run_solver(x, solver, estimator_config(None), 7).to_dict(),
                                  sort_keys=True).encode() for x in (m, loaded)]
            assert reports[0] == reports[1]
