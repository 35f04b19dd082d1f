"""Golden solve reports and the per-instance ground truth.

The golden hashes pin `qmdp solve` output for a few (config, seed) pairs:
any change to the program that moves a seeded draw, a ledger count or a
float in a report shows up here.  They are the sha256 of the report file
with its one nondeterministic line (``timestamp``) removed.
"""

import dataclasses
import hashlib
import json
import re

import numpy as np
import pytest

import qmdp.mdp as mdp_mod
from qmdp.cli import build_instance, main, run_solver, sandwich_success
from qmdp.estimators import EstimatorConfig
from qmdp.mdp import Mdp, exact_value_iteration

_TIMESTAMP = re.compile(rb'\n *"timestamp": "[^"]*",?')

HARD = {"hard_instance": {"gamma": 0.9, "num_actions": 8, "eps": 0.5, "large_arms": [3]}}

# dyadic rows (sixteenths), so every row sums to 1 exactly
_ROWS = ((8, 4, 2, 2), (1, 5, 5, 5), (4, 4, 4, 4), (2, 2, 2, 10), (3, 6, 1, 6))
DENSE = {"mdp": {
    "S": 4, "A": 3, "gamma": 0.8,
    "p": [[[k / 16 for k in np.roll(_ROWS[(3 * s + a) % len(_ROWS)], s)] for a in range(3)]
          for s in range(4)],
    "r": [[((5 * s + 3 * a) % 8) / 8 for a in range(3)] for s in range(4)],
}}

# seeded Dirichlet(1) rows at S=64, A=16: 65,536 transition cells, so every
# (S, A, S) pass over them (mdp.successor_variance) covers more than one block
_DIRICHLET = np.random.default_rng([64, 16])
DIRICHLET = {"mdp": {
    "S": 64, "A": 16, "gamma": 0.9,
    "p": _DIRICHLET.dirichlet(np.ones(64), size=(64, 16)).tolist(),
    "r": _DIRICHLET.random((64, 16)).tolist(),
}}

# (name, instance, solver, estimator, seed, sha256 of the report without timestamp)
GOLDEN = (
    ("hard-variance-reduced", HARD, {"name": "variance-reduced", "eps": 0.5, "delta": 0.1},
     None, 11, "35ec30cade0ca5dea9f7a707cf57c35a521273dac5143e5b0c08ddfdc98af967"),
    ("hard-max-finding", HARD, {"name": "max-finding", "eps": 0.5, "delta": 0.1},
     None, 12, "1f5529d5e7eed416a1e4c605667c289ce7f1af4c1b464b46c6b2656c5fa8bef9"),
    ("hard-sampled-classical", HARD,
     {"name": "sampled", "mode": "classical", "eps": 0.5, "delta": 0.1}, None, 13,
     "e2d190b7c6d0d00801e54885c118c3ee185b26189c6c47c077c0ecbdf0ea1d9f"),
    ("dense-variance-reduced", DENSE, {"name": "variance-reduced", "eps": 0.5, "delta": 0.1},
     None, 21, "7e8cded5996e3c4c40c0c79030607a7e70472c0fba16eff7364e6c522ccdb4e4"),
    ("dense-max-finding", DENSE, {"name": "max-finding", "eps": 0.5, "delta": 0.1},
     None, 22, "c4663b378079be56c4e22431c77d7c0ec98a91aa95ded003c5027d0c15b3d7da"),
    ("hard-statevector-max-finding", {"hard_instance": dict(HARD["hard_instance"], eps=1.0)},
     {"name": "max-finding", "eps": 1.0, "delta": 0.1}, {"backend": "statevector"}, 31,
     "c319296c9a0070f2db7f843ab5d44ef25038467e37d1481a0a9f8105977d1800"),
    ("hard-sampled-quantum-mean-and-max", HARD,
     {"name": "sampled", "mode": "quantum_mean_and_max", "eps": 0.5, "delta": 0.1}, None, 14,
     "ccf965a7527dc4f2636bf553775baf6e0b71a2d0bb3eeae10b94ee9c4e0d42eb"),
    ("hard-statevector-sampled-quantum-mean",
     {"hard_instance": dict(HARD["hard_instance"], eps=1.0)},
     {"name": "sampled", "mode": "quantum_mean", "eps": 1.0, "delta": 0.1},
     {"backend": "statevector"}, 32,
     "1d0a76feb05370336fcecff6af4cbc9f30dd4225197fa45f368569e0e80df060"),
    ("hard-statevector-variance-reduced",
     {"hard_instance": dict(HARD["hard_instance"], eps=1.0)},
     {"name": "variance-reduced", "eps": 1.0, "delta": 0.1}, {"backend": "statevector"}, 33,
     "d79d153117fcb873e99ba85770f2e4fbed9bb756af461ad802b7b425d8ccb92f"),
    ("dense-sampled-classical", DENSE,
     {"name": "sampled", "mode": "classical", "eps": 0.5, "delta": 0.1}, None, 23,
     "9df461fc595717f986fe96ff16d3d7f8de2662746ed25be21ffdc18aaaa8e58b"),
    ("dirichlet-variance-reduced", DIRICHLET,
     {"name": "variance-reduced", "eps": 0.5, "delta": 0.1}, None, 41,
     "bd5dd628d4c6311834761947e0a1146e1e4cd02555c5a6b8090576c4d321f081"),
    ("dirichlet-max-finding", DIRICHLET,
     {"name": "max-finding", "eps": 0.5, "delta": 0.1}, None, 42,
     "f7947ad0c24d1a27f540eed9e7777e9e9ab61baedcd236eddd720cebeab7c5d4"),
)


def _report_sha256(tmp_path, instance, solver, estimator, seed) -> str:
    config = {"instance": instance, "solver": solver, "seed": seed}
    if estimator is not None:
        config["estimator"] = estimator
    path, out = tmp_path / "config.json", tmp_path / "report.json"
    path.write_text(json.dumps(config))
    assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
    text = _TIMESTAMP.sub(b"", out.read_bytes())
    assert b'"timestamp"' not in text
    return hashlib.sha256(text).hexdigest()


@pytest.mark.parametrize("name,instance,solver,estimator,seed,digest", GOLDEN,
                         ids=[g[0] for g in GOLDEN])
def test_golden_report(tmp_path, name, instance, solver, estimator, seed, digest):
    assert _report_sha256(tmp_path, instance, solver, estimator, seed) == digest


SOLVERS = (
    {"name": "variance-reduced", "eps": 0.5, "delta": 0.1},
    {"name": "max-finding", "eps": 0.5, "delta": 0.1},
    {"name": "sampled", "mode": "classical", "eps": 0.5, "delta": 0.1},
    {"name": "sampled", "mode": "quantum_mean", "eps": 0.5, "delta": 0.1},
)


class TestGroundTruth:
    def test_memoized_matches_fresh(self):
        """sandwich_success on a warm instance equals the verdict on a fresh
        copy of it, for every solver and for radii that pass and that fail."""
        verdicts = set()
        for instance in (HARD, DENSE):
            mdp, _ = build_instance(instance)
            for i, solver in enumerate(SOLVERS):
                report = run_solver(mdp, solver, EstimatorConfig(), 100 + i)
                for eps in (solver["eps"], 1e-4):
                    fresh = Mdp(mdp.transitions.copy(), mdp.rewards.copy(), mdp.discount)
                    warm = sandwich_success(mdp, report, eps)
                    assert warm == sandwich_success(fresh, report, eps)
                    verdicts.add(warm)
        assert verdicts == {True, False}

    def test_optimum_is_exact_value_iteration(self):
        mdp, _ = build_instance(DENSE)
        for got, want in zip(mdp.optimum, exact_value_iteration(mdp, tol=1e-10)):
            np.testing.assert_array_equal(got, want)

    def test_computed_once_per_instance(self, monkeypatch):
        calls = []
        real = mdp_mod.exact_value_iteration

        def counting(mdp, tol=1e-9):
            calls.append(tol)
            return real(mdp, tol)

        monkeypatch.setattr(mdp_mod, "exact_value_iteration", counting)
        mdp, _ = build_instance(HARD)
        for seed in range(3):
            report = run_solver(mdp, SOLVERS[0], EstimatorConfig(), seed)
            sandwich_success(mdp, report, 0.5)
        assert calls == [1e-10]

    def test_cached_arrays_read_only(self):
        mdp, _ = build_instance(HARD)
        for arr in mdp.optimum:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_outside_views_cannot_change_an_instance(self):
        p, r = np.full((2, 1, 2), 0.5), np.zeros((2, 1))
        mdp = Mdp(p[:], r, 0.9)
        v_star = mdp.optimum[0].copy()
        p[0, 0] = [1.0, 0.0]
        r[:] = 1.0
        np.testing.assert_array_equal(mdp.transitions, np.full((2, 1, 2), 0.5))
        np.testing.assert_array_equal(mdp.optimum[0], v_star)
        np.testing.assert_array_equal(v_star, exact_value_iteration(mdp, tol=1e-10)[0])

    def test_instances_never_share_a_cache(self):
        a, _ = build_instance(DENSE)
        b = dataclasses.replace(a, discount=0.5)
        c = Mdp(a.transitions, a.rewards[::-1].copy(), a.discount)
        v_a, v_b, v_c = a.optimum[0], b.optimum[0], c.optimum[0]
        assert not np.array_equal(v_a, v_b) and not np.array_equal(v_a, v_c)
        np.testing.assert_array_equal(v_b, exact_value_iteration(b, tol=1e-10)[0])
        np.testing.assert_array_equal(v_c, exact_value_iteration(c, tol=1e-10)[0])
