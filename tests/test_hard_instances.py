"""Tests for the source/sink hard-instance generators."""

import tracemalloc

import numpy as np
import pytest

from qmdp.errors import PreconditionError
from qmdp.hard_instances import (
    HardInstanceSpec,
    closed_form_arm_value,
    multi_arm_instance,
    tiled_instance,
    two_state_chain,
    value_gap,
)
from qmdp.mdp import exact_value_iteration


class TestTwoStateChain:
    def test_no_return_single_reward(self):
        v, _, _ = exact_value_iteration(two_state_chain(0.9, 0.0), 1e-10)
        assert v[0] == pytest.approx(1.0, abs=1e-9)
        assert v[1] == pytest.approx(0.0, abs=1e-12)

    def test_sure_return_geometric(self):
        v, _, _ = exact_value_iteration(two_state_chain(0.9, 1.0), 1e-10)
        assert v[0] == pytest.approx(10.0, abs=1e-8)

    def test_half_return_closed_form(self):
        v, _, _ = exact_value_iteration(two_state_chain(0.9, 0.5), 1e-10)
        assert v[0] == pytest.approx(1.0 / (1.0 - 0.45), abs=1e-9)

    def test_parameter_validation(self):
        with pytest.raises(PreconditionError):
            two_state_chain(0.9, 1.5)
        with pytest.raises(PreconditionError):
            two_state_chain(1.0, 0.5)


class TestSpecValidation:
    def test_gamma_floor(self):
        with pytest.raises(PreconditionError):
            HardInstanceSpec(gamma=0.8, num_actions=2, eps=0.5)

    def test_eps_ceiling_keeps_probabilities_valid(self):
        # eps >= horizon / c_alpha would push p0 + alpha to 1 or beyond
        with pytest.raises(PreconditionError, match="p0"):
            HardInstanceSpec(gamma=0.9, num_actions=2, eps=1.2)
        spec = HardInstanceSpec(gamma=0.9, num_actions=2, eps=1.1)
        assert spec.p_large < 1.0

    @pytest.mark.parametrize("copies,num_actions", [(4097, 2), (2048, 9), (1, 2**25 + 1),
                                                    (10**9, 1), (np.int64(2**31), np.int64(8))])
    def test_dense_tensor_bound(self, copies, num_actions):
        # 8*(2*copies)^2*A bytes above 2^30 is refused before any allocation,
        # also where the product would wrap to 0 in int64 (2^70 at the last case)
        with pytest.raises(PreconditionError, match=r"copies must keep .* within 2\^30 bytes"):
            HardInstanceSpec(gamma=0.9, num_actions=num_actions, eps=0.5, copies=copies)
        for copies, num_actions in ((4096, 2), (2048, 8), (1, 2**25)):  # exactly 2^30
            HardInstanceSpec(gamma=0.9, num_actions=num_actions, eps=0.5, copies=copies)

    def test_large_arm_indices(self):
        with pytest.raises(PreconditionError):
            HardInstanceSpec(gamma=0.9, num_actions=2, eps=0.5, large_arms=frozenset({5}))


class TestMultiArmInstance:
    def test_no_large_arms_all_identical(self):
        spec = HardInstanceSpec(gamma=0.9, num_actions=3, eps=0.5)
        mdp = multi_arm_instance(spec)
        v, _, q = exact_value_iteration(mdp, 1e-10)
        np.testing.assert_allclose(q[0], q[0, 0], atol=1e-9)
        assert v[0] == pytest.approx(closed_form_arm_value(0.9, spec.p_small), abs=1e-8)

    def test_two_arm_values_by_hand(self):
        # gamma 0.9, eps 0.5: p0 = 0.9, alpha = 9*0.5/100 = 0.045
        spec = HardInstanceSpec(gamma=0.9, num_actions=2, eps=0.5,
                                large_arms=frozenset({1}))
        assert spec.p_small == pytest.approx(0.9, abs=1e-12)
        assert spec.alpha == pytest.approx(0.045, rel=1e-9)
        small = closed_form_arm_value(0.9, spec.p_small)
        large = closed_form_arm_value(0.9, spec.p_large)
        assert small == pytest.approx(5.263158, abs=1e-5)
        assert large == pytest.approx(6.688963, abs=1e-5)

    def test_optimal_action_is_a_large_arm(self):
        spec = HardInstanceSpec(gamma=0.9, num_actions=6, eps=0.5,
                                large_arms=frozenset({2, 4}))
        _, pi, _ = exact_value_iteration(multi_arm_instance(spec), 1e-10)
        assert int(pi[0]) in {2, 4}

    def test_closed_form_agreement_grid(self):
        # committing to arm a forever is worth 1/(1 - gamma p_a) at the
        # source, and the optimal value is the best arm's closed form
        from qmdp.mdp import policy_value_exact

        for gamma in (0.9, 0.95, 0.99):
            horizon = 1.0 / (1.0 - gamma)
            for eps in (0.1, 0.5, 1.0):
                if eps >= horizon / 9.0:
                    continue
                spec = HardInstanceSpec(gamma=gamma, num_actions=4, eps=eps,
                                        large_arms=frozenset({1}))
                mdp = multi_arm_instance(spec)
                v, _, _ = exact_value_iteration(mdp, 1e-10)
                assert v[0] == pytest.approx(
                    closed_form_arm_value(gamma, spec.p_large), abs=1e-8)
                for a in range(4):
                    v_arm = policy_value_exact(mdp, np.full(2, a, dtype=np.int64))
                    expected = closed_form_arm_value(gamma, spec.arm_probability(a))
                    assert v_arm[0] == pytest.approx(expected, abs=1e-8)


class TestTiledInstance:
    def test_single_copy_equals_multi_arm(self):
        spec = HardInstanceSpec(gamma=0.9, num_actions=3, eps=0.5,
                                large_arms=frozenset({1}))
        a = multi_arm_instance(spec)
        b = tiled_instance(spec)
        np.testing.assert_array_equal(a.transitions, b.transitions)
        np.testing.assert_array_equal(a.rewards, b.rewards)

    @pytest.mark.parametrize("num_actions,arm_sets", [
        (1, [set(), {0}]),
        (4, [set(), {0}, {3}, {1, 2}, {0, 1, 2, 3}]),
        (8, [set(), {7}, {0, 5}, set(range(8))]),
    ])
    def test_multi_arm_is_single_copy_tiling(self, num_actions, arm_sets):
        for arms in arm_sets:
            for copies in (1, 3):  # multi_arm_instance ignores copies
                spec = HardInstanceSpec(gamma=0.95, num_actions=num_actions, eps=0.5,
                                        large_arms=frozenset(arms), copies=copies)
                one = HardInstanceSpec(gamma=0.95, num_actions=num_actions, eps=0.5,
                                       large_arms=frozenset(arms))
                a, b = multi_arm_instance(spec), tiled_instance(one)
                np.testing.assert_array_equal(a.transitions, b.transitions)
                np.testing.assert_array_equal(a.rewards, b.rewards)
                assert a.discount == b.discount

    def test_no_cross_copy_transitions(self):
        spec = HardInstanceSpec(gamma=0.9, num_actions=2, eps=0.5, copies=3)
        mdp = tiled_instance(spec)
        for j in range(3):
            block = slice(2 * j, 2 * j + 2)
            outside = np.delete(mdp.transitions[block], [2 * j, 2 * j + 1], axis=2)
            assert np.all(outside == 0.0)

    def test_build_memory_bounded_at_copies_512(self):
        # the (1024, 8, 1024) tensor is 64 MiB; building it and copying it into
        # the Mdp peaked at 2.13x, handing it over at 1.13x (the tensor and one
        # boolean check of its entries)
        spec = HardInstanceSpec(gamma=0.9, num_actions=8, eps=0.5, copies=512)
        tracemalloc.start()
        try:
            mdp = tiled_instance(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mdp.transitions.nbytes == 64 * 2**20
        assert peak < 1.25 * mdp.transitions.nbytes


class TestValueGap:
    def test_reference_point(self):
        assert value_gap(0.9, 0.5, 9.0) == pytest.approx(1.4258, abs=2e-4)

    def test_vanishes_with_the_gap_constant(self):
        assert value_gap(0.9, 0.5, 1e-9) == pytest.approx(0.0, abs=1e-6)

    def test_monotone_in_gap_constant(self):
        gaps = [value_gap(0.9, 0.5, c) for c in (1.0, 3.0, 6.0, 9.0)]
        assert all(g2 > g1 for g1, g2 in zip(gaps, gaps[1:]))

    def test_distinguishability_grid(self):
        # gap >= 2 eps across the supported grid at the default constant
        for gamma in (0.9, 0.95, 0.99):
            horizon = 1.0 / (1.0 - gamma)
            for eps in (0.1, 0.5, 1.0):
                if eps < horizon / 9.0:
                    assert value_gap(gamma, eps, 9.0) >= 2.0 * eps

    def test_small_constant_fails_distinguishability(self):
        # regression pin: constant 3 at gamma 0.9, eps 1 leaves the gap at
        # 0.8718, below the 2*eps needed to tell the arms apart
        gap = value_gap(0.9, 1.0, 3.0)
        assert gap == pytest.approx(0.8718, abs=1e-3)
        assert gap < 2.0
