"""The mock solver step's fast paths give the bits of the general forms they skip.

Each property draws its cases from a derandomized ``hypothesis`` search:
``expected_next_value`` on the kept (S*A, S) view against the product on
the reshaped tensor, ``_Iterate.keep_better`` against its two-``np.where``
form, the ``MockRow`` early return of ``batch_bounded_mock`` against
``_estimate`` on the same row, and ``mock_argmax_rows`` against its
``np.where`` form.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

import qmdp.solvers as solvers
from qmdp.estimators import EstimatorConfig, _estimate, batch_bounded_mock, mock_rows
from qmdp.mdp import Mdp, expected_next_value
from qmdp.oracle import SampleOracle
from qmdp.solvers import MaxFindingParams, Plan, mock_argmax_rows

FAST = settings(derandomize=True, database=None, deadline=None)
# few distinct values, so ties, +-0.0 and steps that take no state are common
TIED = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0])


def random_mdp(s_n: int, a_n: int, seed: int) -> Mdp:
    g = np.random.default_rng(seed)
    return Mdp(g.dirichlet(np.ones(s_n), size=(s_n, a_n)), g.random((s_n, a_n)), 0.9)


@FAST
@given(s_n=st.integers(1, 300), a_n=st.integers(1, 16), seed=st.integers(0, 2**32 - 1))
def test_expected_next_value_on_the_kept_view_is_the_reshaped_product(s_n, a_n, seed):
    mdp = random_mdp(s_n, a_n, seed)
    v = np.random.default_rng(seed + 1).uniform(-10.0, 10.0, s_n)
    want = (mdp.transitions.reshape(s_n * a_n, s_n) @ v).reshape(s_n, a_n)
    got = expected_next_value(mdp, v)
    assert got.shape == (s_n, a_n) and got.tobytes() == want.tobytes()
    # a view of the instance's tensor, not a copy, that no caller can write
    assert mdp.rows.base is mdp.transitions and not mdp.rows.flags.writeable


def two_where_keep_better(it, v_new, pi_new):
    """keep_better as both np.where calls wrote it on every step."""
    take = v_new >= it.v
    it.pi = np.where(take, pi_new, it.pi)
    it._offers[it._steps] = v_new
    it._iterates[it._steps + 1] = it.v = np.where(take, v_new, it.v)
    it._steps += 1
    if it._steps == len(it._offers):
        it._check_steps()


def _iterate_state(it):
    return (it.v.tobytes(), it.pi.tobytes(), it._iterates[:it._steps + 1].tobytes(),
            it._offers[:it._steps].tobytes(), it._steps, it.monotone_ok, it.dominance_ok)


@FAST
@given(data=st.data(), s_n=st.integers(1, 4), cells=st.integers(1, 9))
def test_keep_better_is_its_two_where_form(data, s_n, cells):
    mdp = random_mdp(s_n, 3, s_n)
    plan = Plan.of(mdp, MaxFindingParams.for_mdp(mdp, 1.0, 0.1))
    steps = data.draw(st.lists(st.tuples(st.lists(TIED, min_size=s_n, max_size=s_n),
                                         st.lists(st.integers(0, 2), min_size=s_n, max_size=s_n)),
                               min_size=1, max_size=12))
    with mock.patch.object(solvers, "CHECK_CELLS", cells):  # the flags are checked in blocks
        fast, ref = (solvers._Iterate(SampleOracle(mdp, 0), plan, False) for _ in range(2))
    for v_new, pi_new in steps:
        v_new, pi_new = np.array(v_new), np.array(pi_new, dtype=np.int64)
        fast.keep_better(v_new, pi_new)
        two_where_keep_better(ref, v_new, pi_new)
        assert _iterate_state(fast) == _iterate_state(ref)
    fast.report("max-finding", {}), ref.report("max-finding", {})
    assert _iterate_state(fast) == _iterate_state(ref)


@FAST
@given(s_n=st.integers(1, 3), a_n=st.integers(1, 8), f=st.sampled_from([1e-6, 0.05, 0.5]),
       mode=st.sampled_from(["adversarial_edge", "uniform_noise"]),
       scale=st.sampled_from([0.5, 1.0, 1.5]), seed=st.integers(0, 2**32 - 1))
def test_batch_bounded_mock_early_return_is_estimate(s_n, a_n, f, mode, scale, seed):
    # value maps at scale 1.5 leave [0, upper] and void their batch
    mdp, cfg = random_mdp(s_n, a_n, seed), EstimatorConfig(mock_failure_mode=mode)
    oracle = SampleOracle(mdp, seed)
    line = solvers._bounded(mdp, cfg, 1, 2.0, 0.1, f)
    g = np.random.default_rng(seed + 1)
    for row in mock_rows(oracle, (seed, "fast", range(6)), f):
        value_map = g.uniform(0.0, 2.0 * scale, s_n)
        before = oracle.ledger.quantum_oracle_calls
        est, failed, violated = batch_bounded_mock(oracle, value_map, line, cfg, row, "p")
        charged = oracle.ledger.quantum_oracle_calls - before
        want = _estimate(expected_next_value(mdp, value_map), line, cfg, row, violated)
        assert (est.tobytes(), failed.tobytes(), charged) == (
            want[0].tobytes(), want[1].tobytes(), want[2])
        assert violated == bool(value_map.max() > 2.0 + 2e-9)


@FAST
@given(data=st.data(), s_n=st.integers(1, 6), a_n=st.integers(1, 8),
       f=st.sampled_from([0.0, 0.2, 1.0]))
def test_mock_argmax_rows_is_its_where_form(data, s_n, a_n, f):
    q = np.array(data.draw(st.lists(TIED, min_size=s_n * a_n, max_size=s_n * a_n))).reshape(s_n, a_n)
    u = np.array(data.draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=s_n,
                                    max_size=s_n)))
    wrong = np.array(data.draw(st.lists(st.integers(0, max(a_n - 2, 0)), min_size=s_n,
                                        max_size=s_n)), dtype=np.int64)
    index, failed = mock_argmax_rows(q, f, u, wrong)
    best = np.argmax(q, axis=1)
    want = (u < f) & (a_n > 1)
    assert failed.tolist() == want.tolist()
    assert index.tolist() == np.where(want, wrong + (wrong >= best), best).tolist()
    if not want.any():  # no flag set: the row argmax itself
        assert index.tolist() == q.argmax(axis=1).tolist() and index.dtype == np.int64
