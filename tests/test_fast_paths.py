"""The mock solver step's fast paths give the bits of the general forms they skip.

Each property draws its cases from a derandomized ``hypothesis`` search:
``expected_next_value`` on the kept (S*A, S) view against the product on
the reshaped tensor, ``_Iterate.keep_better`` against its two-``np.where``
form, ``_Iterate.estimate`` on a ``MockRow`` against ``_estimate`` on
the row's replayed stream, and ``mock_argmax_rows`` against its
``np.where`` form.  A scripted test runs ``_Iterate.estimate``, which
reuses an unchanged map's expectation and range verdict on every stream,
against ``batch_bounded_mock``, its unmemoized form, on each step's
replayed stream: a ``MockRow``, a keyed Generator, and a statevector
stream.  ``tools/time_slots.py``, which times those steps, runs once.
"""

import importlib
import re
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qmdp.solvers as solvers
from qmdp.errors import PreconditionError
from qmdp.estimators import EstimatorConfig, _estimate, batch_bounded_mock
from qmdp.mdp import Mdp, expected_next_value
from qmdp.oracle import SampleOracle
from qmdp.rng import key_digests
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
def test_iterate_estimate_on_a_mock_row_is_estimate_on_its_stream(s_n, a_n, f, mode, scale, seed):
    # value maps at scale 1.5 leave [0, upper] and void their batch; each map is offered twice
    mdp, cfg = random_mdp(s_n, a_n, seed), EstimatorConfig(mock_failure_mode=mode)
    it = solvers._Iterate(SampleOracle(mdp, seed), Plan.of(mdp, MaxFindingParams.for_mdp(mdp, 1.0, 0.1),
                                                          cfg), False)
    ref = SampleOracle(mdp, seed)
    line = solvers._bounded(mdp, cfg, 1, 2.0, 0.1, f)
    g, failures = np.random.default_rng(seed + 1), 0
    for k, row in enumerate(it.streams((seed, "fast", range(6)), f)[0]):
        value_map = g.uniform(0.0, 2.0 * scale, s_n) if k % 2 == 0 else value_map
        before = it.oracle.ledger.quantum_oracle_calls
        est = it.estimate(row, "p", value_map, line)
        charged = it.oracle.ledger.quantum_oracle_calls - before
        violated = bool(value_map.max() > 2.0 + 2e-9)
        want = _estimate(expected_next_value(mdp, value_map), line, cfg, ref.keyed_rng(row.digest), violated)
        failures += np.count_nonzero(want[1])
        assert (est.tobytes(), charged, it.failures) == (want[0].tobytes(), want[2], failures)


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


# value maps on S = 2, every one with its own bytes: 0.0 and -0.0 apart, a NaN first and last,
# and maps that one line or slack voids and another does not
MAPS = ([0.25, 0.75], [0.5, 1.5], [0.0, 0.0], [-0.0, -0.0], [np.nan, 0.5], [2.5, 0.0],
        [-0.5, 1.0], [0.5, np.nan])
SLACKS = (0.0, 0.6)
# (map, line, slack) per step: repeats, the same bytes under another line or slack, -0.0
# after 0.0, a NaN, and maps voided at one slack and not at the other
SCRIPT = [(0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 1, 0), (0, 1, 1), (0, 0, 1),
          (1, 0, 0), (1, 1, 1), (1, 1, 0), (1, 1, 1), (1, 1, 0),
          (2, 0, 0), (3, 0, 0), (3, 0, 0), (2, 0, 0), (4, 0, 0), (0, 0, 0), (7, 0, 0),
          (5, 0, 0), (5, 0, 1), (5, 0, 1), (5, 0, 0), (6, 0, 1), (6, 0, 0), (1, 0, 0), (1, 0, 0)] * 3


@pytest.mark.parametrize("kind", ["mock rows", "keyed", "statevector"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_iterate_estimate_is_batch_bounded_mock_on_the_replayed_stream(seed, kind):
    # each step's stream: a MockRow, or a keyed Generator on the contract mock or on statevector
    mdp = random_mdp(2, 3, seed)
    cfg = EstimatorConfig(backend="statevector" if kind == "statevector" else "contract_mock")
    it = solvers._Iterate(SampleOracle(mdp, seed),
                          Plan.of(mdp, MaxFindingParams.for_mdp(mdp, 1.0, 0.1), cfg), False)
    ref = SampleOracle(mdp, seed)
    lines = [solvers._bounded(mdp, cfg, 1, upper, 0.1, 0.05) for upper in (2.0, 1.0)]
    value_map = np.empty(2)  # one buffer, written in place before every step
    failures, last, hits, seen = 0, None, 0, set()
    keys = (seed, "differential", range(len(SCRIPT)))
    streams = it.streams(keys, 0.05)[0] if kind == "mock rows" else it.keyed(keys)
    for stream, digest, (m, l, s) in zip(streams, key_digests(keys), SCRIPT, strict=True):
        value_map[:] = MAPS[m]
        line, slack, phase, before = lines[l], SLACKS[s], f"line-{l}", it._mu
        try:
            want, failed, violated = batch_bounded_mock(ref, value_map, line, cfg,
                                                        ref.keyed_rng(digest), phase, slack)
        except PreconditionError as exc:  # refused before any draw or charge, either way
            with pytest.raises(PreconditionError, match=f"^{re.escape(str(exc))}$"):
                it.estimate(stream, phase, value_map, line, slack)
            assert it._mu is before  # and its key is not kept
            seen.add("nan")
        else:
            failures += np.count_nonzero(failed)
            assert it.estimate(stream, phase, value_map, line, slack).tobytes() == want.tobytes()
            seen.add("voided" if violated else "flagged" if failed.any() else "no-flag")
            # the expectation is reused exactly when the key repeats, whatever the row
            assert (it._mu is before) == ((m, l, s) == last)
            assert it._mu.tobytes() == expected_next_value(mdp, value_map).tobytes()
            hits, last = hits + (it._mu is before), (m, l, s)
        assert it.failures == failures
        assert it.oracle.ledger.to_dict() == ref.ledger.to_dict()
    # statevector flags no entry of a batch it does not void
    assert seen == {"nan", "voided", "no-flag"} | ({"flagged"} if kind != "statevector" else set())
    assert hits > 0


def test_time_slots_tool_runs_against_a_checkout(monkeypatch, capsys):
    # this checkout against itself: every slot's reports equal, variance-reduced steps
    # reuse their expectation, each solver's rounds won are counted, and a max-finding solve
    # of the hard instance makes one Philox pass in either package
    root = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root / "tools"))
    time_slots = importlib.import_module("time_slots")
    try:
        monkeypatch.setattr(time_slots, "ROUNDS", 1)
        assert time_slots.main(["--seed", "3", "--against", str(root / "src")]) == 0
    finally:
        for name in [n for n in sys.modules if n.split(".")[0] == "qmdp_against"]:
            del sys.modules[name]
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "12 slots x 1 rounds, seed 3: all reports equal"
    rows = {line.split()[0] + " " + line.split()[1]: line.split() for line in out[2:17]}
    assert len(out) == 2 + 12 + 3 + 1 + 3 and int(rows["variance-reduced mean"][-1]) > 0
    assert out[17].split() == ["solver", "this", "wins", "this", "passes", "against", "passes"]
    per_solver = {line.split()[0]: line.split()[1:] for line in out[18:]}
    assert all(re.fullmatch(r"[01]/1", wins) for wins, _, _ in per_solver.values())
    assert per_solver["max-finding"][1:] == ["1.00", "1.00"]
    assert per_solver["classical"][1:] == ["0.00", "0.00"]
    assert float(per_solver["variance-reduced"][1]) >= 1.0
