"""Golden solve reports and the per-instance ground truth.

The golden hashes pin `qmdp solve` output for a few (config, seed) pairs:
any change to the program that moves a seeded draw, a ledger count or a
float in a report shows up here.  They are the sha256 of the report file
with its one nondeterministic line (``timestamp``) removed.  Each case is
pinned a second time with diagnostics on, which adds the one-sided and
breach diagnostics to the report and writes the snapshots CSV.
"""

import ctypes
import dataclasses
import functools
import math
import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import qmdp.mdp as mdp_mod
import qmdp.qsim as qsim
import qmdp.solvers as solvers
from qmdp.cli import build_instance, main, run_solver, sandwich_success
from qmdp.estimators import EstimatorConfig, variance_mean_charge
from qmdp.hard_instances import HardInstanceSpec, multi_arm_instance
from qmdp.mdp import Mdp, exact_value_iteration
from qmdp.oracle import SampleOracle
from qmdp.solvers import (
    MaxFindingParams,
    Plan,
    SampledParams,
    VarianceReducedParams,
    max_finding_vi,
    sampled_vi,
    variance_reduced_vi,
)

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
     "e8b7c5cd9b15e28ef4a35d3d8d5529d72d9e5764a84b7bff199581374ca188f0"),
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
     "333dfc2dc0379c9c913355ea882d0869787a2f1f338a5123659c752601b28985"),
    ("dirichlet-variance-reduced", DIRICHLET,
     {"name": "variance-reduced", "eps": 0.5, "delta": 0.1}, None, 41,
     "bd5dd628d4c6311834761947e0a1146e1e4cd02555c5a6b8090576c4d321f081"),
    ("dirichlet-max-finding", DIRICHLET,
     {"name": "max-finding", "eps": 0.5, "delta": 0.1}, None, 42,
     "f7947ad0c24d1a27f540eed9e7777e9e9ab61baedcd236eddd720cebeab7c5d4"),
    ("hard-sampled-quantum-mean", HARD,
     {"name": "sampled", "mode": "quantum_mean", "eps": 0.5, "delta": 0.1}, None, 15,
     "f334cc8479bf8928da0aafb92fcfb6ee44577780f7b14da3137c62ecae247e9b"),
)

# name -> (sha256 of the report without timestamp, sha256 of the snapshots
# CSV) of the GOLDEN case solved with "diagnostics": true and a snapshots_csv
DIAGNOSTICS = {
    "hard-variance-reduced": (
        "f1f4837d667fd5dc831100b4f89f85d3d021823715d2e2e1f59e259c95946339",
        "6a947e3dff189fb5136f0a0d28552dfbc95d5ac54d7488f4ee38386db9ca389f"),
    "hard-max-finding": (
        "115089476da66bae7ab72db49cde56d7770e13a7fe663f39d8e1ecfff5e6882c",
        "60b5d979c389eb8ade336fcbf6a966627d8dfa2a0fb2d8050775c00db9da8bea"),
    "hard-sampled-classical": (
        "c91c53e764f15f0f77b80b6c6b9892c761445edc463cf6ad44782e293c27dc3b",
        "ec93d95db078478afcbf0afc6e13cd355024bb9d20e1dcbe3298623a12f083a7"),
    "dense-variance-reduced": (
        "5d76b6106cae231dd3308651065fc883c14714f3e1154ed0f9268e35b0f093cc",
        "506ea9bf0922abb8f2281693559ef9dac425fc6ae4406f5dbc0d8a8279e652e6"),
    "dense-max-finding": (
        "90c24922e4e8b98cbd977e6fb16586f256c201e45dda8228001ca635e0e571f2",
        "5b9e20eba950a7422b5ea673ec9602d230df3adfcccc34ddb187cb5830f5be32"),
    "hard-statevector-max-finding": (
        "9fce0c7b1bf5a2566966780300db72281e0838768bd8b3eaea43a7eeeabe4772",
        "f5df6ef2712deb37cc855bb8813fff70acbd18cd676ff35efca279c269bc739e"),
    "hard-sampled-quantum-mean-and-max": (
        "e8c407813b013b58d2da1c4326779e9007900946ace287866aca8b3f61c18667",
        "fada5e43f1126988b66ec4f885542f78bbae6ef225dfea73387c63850b6d38a2"),
    "hard-statevector-sampled-quantum-mean": (
        "2b273e35b7c4f5eae10aeeecd8f7337eb6b6d416f9090f141c65e8afcf60d13f",
        "b878e0b99f7b623473ab190b515f7f02071bb9bae1c68a88124228544282e8b2"),
    "hard-statevector-variance-reduced": (
        "e3a4016b725913cb902dc0658bf26d77dc0bbc68c7e7788245e5d2463fe8f54a",
        "f1b04baefd7769089189342005b7932262d7145155ef6a11d7dc220418a8491d"),
    "dense-sampled-classical": (
        "d814d0ca74a33ac55aaaecdb91b7971ac5279ceb937dd71b6f064d03b94e5494",
        "965a8c034b69fd340bbaa5bf29a78767eca5482d6edd74bdaa08111dc22ffe95"),
    "dirichlet-variance-reduced": (
        "588c0dab179b586c8a0556be0d7e0e48f138f3ed3cb9518976a5a0f4d8613574",
        "75b9259390c87dd36235299195f22aeb8ec04bcd375849c984c9cb2ec163d034"),
    "dirichlet-max-finding": (
        "d0d7c6b0402599b7bf6b8a1db47002a1e12dd56cfdbd89b7b23f837d20427e2e",
        "0ebb126b89a76546fbdc06a928d1610bc90e3fc8f05769dd9e99c823b48488f6"),
    "hard-sampled-quantum-mean": (
        "6f83aead0ed4c70e94047474267e0f9f5e5ee6d400def431141aee97fcb9f284",
        "b6cecc530dde28df33400b5bbd4ded4b764e7a201c8b98c1f1b8bca8c79a3129"),
}


@functools.cache
def openblas_core() -> str:
    """The OpenBLAS kernel numpy runs on, read from its bundled
    libscipy_openblas64_; the digests hold for one kernel, so a failure names it."""
    libs = pathlib.Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown (no libscipy_openblas64_ beside numpy)"


def _report_sha256(tmp_path, instance, solver, estimator, seed, **extra) -> str:
    config = {"instance": instance, "solver": solver, "seed": seed, **extra}
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
    assert _report_sha256(tmp_path, instance, solver, estimator, seed) == digest, (
        f"OpenBLAS core {openblas_core()}")


@pytest.mark.parametrize("name,instance,solver,estimator,seed", [g[:5] for g in GOLDEN],
                         ids=[g[0] for g in GOLDEN])
def test_golden_diagnostics(tmp_path, monkeypatch, name, instance, solver, estimator, seed):
    # a relative CSV path keeps the report, which embeds its config, the same
    # in every directory
    monkeypatch.chdir(tmp_path)
    report = _report_sha256(tmp_path, instance, solver, estimator, seed,
                            diagnostics=True, snapshots_csv="snapshots.csv")
    snapshots = hashlib.sha256((tmp_path / "snapshots.csv").read_bytes()).hexdigest()
    assert (report, snapshots) == DIAGNOSTICS[name], f"OpenBLAS core {openblas_core()}"


STATEVECTOR = [g for g in GOLDEN if g[0].startswith("hard-statevector-")]


@pytest.mark.parametrize("name,instance,solver,estimator,seed,digest", STATEVECTOR,
                         ids=[g[0] for g in STATEVECTOR])
def test_statevector_golden_through_grid_fallback(tmp_path, monkeypatch, name, instance,
                                                  solver, estimator, seed, digest):
    # every closed-form draw refused: the chunked grids give the same digests
    refused = []
    monkeypatch.setattr(qsim, "_certified_draws", lambda omega, t, u, size: refused.append(t) or np.full(u.size, -1))
    assert _report_sha256(tmp_path, instance, solver, estimator, seed) == digest
    monkeypatch.chdir(tmp_path)
    report = _report_sha256(tmp_path, instance, solver, estimator, seed,
                            diagnostics=True, snapshots_csv="snapshots.csv")
    snapshots = hashlib.sha256((tmp_path / "snapshots.csv").read_bytes()).hexdigest()
    assert (report, snapshots) == DIAGNOSTICS[name]
    assert min(refused) >= qsim.FAST_MIN_BITS  # every solve reached it, at t = 11 or 13


def test_statevector_golden_rarely_falls_back(monkeypatch):
    verdicts = []
    real = qsim._certified_draws
    monkeypatch.setattr(qsim, "_certified_draws",  # one verdict per amplitude of a batch
                        lambda omega, t, u, size: verdicts.extend(
                            np.split(y := real(omega, t, u, size), np.cumsum(size)[:-1])) or y)
    name, instance, solver, estimator, seed, _ = next(
        g for g in STATEVECTOR if g[0] == "hard-statevector-variance-reduced")
    run_solver(build_instance(instance)[0], solver, EstimatorConfig(**estimator), seed)
    fallbacks = sum(v is None or (v < 0).any() for v in verdicts)  # whole or in part
    assert len(verdicts) > 300 and fallbacks <= 0.005 * len(verdicts), (name, fallbacks)


CLASSICAL = [g for g in GOLDEN if g[0].endswith("-sampled-classical")]

# solves the CLASSICAL cases in the working directory; writes the OpenBLAS
# kernel and each case's (report, diagnostics report, snapshots) digests
_KERNEL_RUN = """\
import hashlib, json, pathlib
import test_golden as g
here = pathlib.Path.cwd()
digests = {name: (g._report_sha256(here, *case),
                  g._report_sha256(here, *case, diagnostics=True, snapshots_csv="snapshots.csv"),
                  hashlib.sha256((here / "snapshots.csv").read_bytes()).hexdigest())
           for name, *case, _ in g.CLASSICAL}
(here / "digests.json").write_text(json.dumps([g.openblas_core(), digests]))
"""


@pytest.mark.skipif(openblas_core().startswith("unknown"),
                    reason="numpy has no bundled OpenBLAS whose kernel could be chosen")
@pytest.mark.parametrize("kernel", ["Haswell", "Sandybridge"])
def test_classical_goldens_under_other_blas_kernels(tmp_path, kernel):
    # the classical baseline sums its counts with einsum, which calls no BLAS,
    # so its goldens hold under every OpenBLAS kernel, not only this host's
    path = os.pathsep.join([str(pathlib.Path(mdp_mod.__file__).parents[1]),
                            str(pathlib.Path(__file__).parent), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, OPENBLAS_CORETYPE=kernel, PYTHONPATH=path)
    subprocess.run([sys.executable, "-c", _KERNEL_RUN], cwd=tmp_path, env=env, check=True,
                   stdout=subprocess.DEVNULL, timeout=60)
    core, digests = json.loads((tmp_path / "digests.json").read_text())
    assert core == kernel  # the kernel asked for is the one that ran
    assert {name: tuple(d) for name, d in digests.items()} == {
        name: (digest, *DIAGNOSTICS[name]) for name, *_, digest in CLASSICAL}


def test_openblas_core_is_named():
    # the failure messages above call it, so it must not raise on any install
    assert isinstance(openblas_core(), str) and openblas_core()


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


# Solves that reach the estimators' rarer paths: failure rates forced high, so
# that most mock batches have a failed entry and draw their planted failures;
# an all-ones reward instance at v* = horizon, on which failed estimates push
# the iterate out of the value range and void later batches' promises; and
# A = 64, where a batch has 128 entries.  Solved in process, pinned by the
# sha256 of the report dict (sorted JSON) followed by its snapshots.
_ONES = Mdp(np.array([[[0.5, 0.5], [0.25, 0.75]], [[1.0, 0.0], [0.5, 0.5]]]),
            np.ones((2, 2)), 0.9)


def _hard(num_actions, arm):
    return multi_arm_instance(HardInstanceSpec(gamma=0.9, num_actions=num_actions, eps=0.5,
                                               large_arms=frozenset({arm})))


def _vr(mdp, eps, f=None):
    params = VarianceReducedParams.for_mdp(mdp, eps, 0.1)
    params = params if f is None else dataclasses.replace(params, est_failure_prob=f)
    plan = Plan.of(mdp, params)
    return lambda oracle: variance_reduced_vi(oracle, plan, diagnostics=True)


def _mf(mdp, eps, f=None):
    params = MaxFindingParams.for_mdp(mdp, eps, 0.1)
    params = params if f is None else dataclasses.replace(params, est_failure_prob=f)
    plan = Plan.of(mdp, params)
    return lambda oracle: max_finding_vi(oracle, plan, diagnostics=True)


def _svi(eps, delta, mode):
    return lambda oracle: sampled_vi(
        oracle, Plan.of(oracle.mdp, SampledParams.for_mdp(oracle.mdp, eps, delta, mode)),
        diagnostics=True)


# name -> (instance, solve, seed, whether some batch has a failed entry, whether
# some batch's promise is void, sha256)
SOLVE_PINS = {
    "hard-vr-f0.3": (
        _hard(8, 3), _vr(_hard(8, 3), 0.5, 0.3), 1, True, False,
        "955b9d9f7e0f3d582683fe6fa6a106e4db2df280a0dcd50fe183a29b81650a53"),
    "hard-vr-f0.02": (
        _hard(8, 3), _vr(_hard(8, 3), 0.5, 0.02), 2, True, False,
        "fb480bbe07bdb3cd97bc73c330064ceb186a828dc68015d5fbb4a7eca3992053"),
    "hard-mf-f0.3": (
        _hard(8, 3), _mf(_hard(8, 3), 0.5, 0.3), 3, True, False,
        "bcb4aac2fe594a46b0a9f2a58da724c4b31a20d780d024587cae8eb423b67e49"),
    "hard-mf-f0.02": (
        _hard(8, 3), _mf(_hard(8, 3), 0.5, 0.02), 4, True, False,
        "4aacfded601eb180dd6c2fe76c0aa2f027a48e5ada4499ff02e4c5ea0765e814"),
    # delta near 1 gives a few failed estimates per solve on these seeds
    "hard-svi-quantum-mean": (
        _hard(8, 3), _svi(5.0, 0.99, "quantum_mean"), 3, True, False,
        "28a1bd210cb9fed81552b49128920c6d1668fe83249af1a5fa95e328db0ce7be"),
    "hard-svi-quantum-mean-and-max": (
        _hard(8, 3), _svi(5.0, 0.99, "quantum_mean_and_max"), 4, True, False,
        "cb3ce1eeb34e3ab3b6fd656181f217cc7c298ccc332851cd90cf2d90d58ab34f"),
    "ones-vr-voided": (
        _ONES, _vr(_ONES, 0.5, 0.3), 1, True, True,
        "19317071ceec25eb241139bd25a18a13f133f55c9174f847a80a1feb048e8113"),
    "ones-mf-voided": (
        _ONES, _mf(_ONES, 0.5, 0.3), 1, True, True,
        "4907a82124f4fc6f22fb486eaf127da5f02c5b5bd800d1d04bfddbde575f01aa"),
    "a64-vr": (
        _hard(64, 5), _vr(_hard(64, 5), 1.0), 7, False, False,
        "1c57276f9ef145bfac9718dffdb6d0a8a3758d672fa598f9bb41774330535400"),
    "a64-mf": (
        _hard(64, 5), _mf(_hard(64, 5), 1.0), 8, False, False,
        "5173e26b186779ecddfdb86760e11a3157ffcce787cc6664b361d03b1d7293e0"),
    "a64-svi-quantum-mean": (
        _hard(64, 5), _svi(1.0, 0.1, "quantum_mean"), 9, False, False,
        "29ec326e4fc31480dab2dc45a0125e542d45f491f047a7bc99029d5b1f1212ad"),
}


def _solve_sha256(report) -> str:
    snapshots = [(e, i, v.tolist(), pi.tolist()) for e, i, v, pi in report.snapshots]
    text = json.dumps(report.to_dict(), sort_keys=True) + repr(snapshots)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(SOLVE_PINS))
def test_solve_pin(monkeypatch, name):
    mdp, solve, seed, failures, voided, digest = SOLVE_PINS[name]
    failed, void = [], []
    real = solvers.batch_bounded_mock

    def spy(*args, **kwargs):
        est, fail, violated = real(*args, **kwargs)
        failed.append(bool(fail.any()))
        void.append(violated)
        return est, fail, violated

    monkeypatch.setattr(solvers, "batch_bounded_mock", spy)
    report = solve(SampleOracle(mdp, seed))
    assert (any(failed), any(void)) == (failures, voided)
    assert _solve_sha256(report) == digest, f"OpenBLAS core {openblas_core()}"


def _predicted_phases(mdp, report, cfg):
    """Ledger phase -> the schedule's charge for it, as (least, most): equal
    bounds, except on VR line 9, whose sigma the line-8 estimates set, and on
    statevector argmax sweeps, which run at most their budget of probes."""
    params_class = {"variance-reduced": solvers.VarianceReducedParams,
                    "max-finding": solvers.MaxFindingParams}.get(report.solver,
                                                                 solvers.SampledParams)
    params = params_class(**report.params)
    lines = params.schedule(mdp, cfg)
    want = {}
    if report.solver == "variance-reduced":
        h, b = mdp.effective_horizon, params.b
        for k in range(1, params.num_epochs + 1):
            sq, mean, l9, l13 = (lines[name, k] for name in
                                 ("line8-sq", "line8-mean", "line9", "line13"))
            line8 = sq.estimates * sq.charge + mean.estimates * mean.charge
            want[f"epoch-{k}-line-8"] = (line8, line8)
            # sigma = sqrt(y + b) with y = max(est_sq - est_mean^2, 0) between 0 and
            # the second moment's range plus a planted failure's offset
            sigmas = (math.sqrt(b), math.sqrt(h**2 + cfg.adversarial_scale * b + b))
            charges = [variance_mean_charge(np.full(l9.estimates, sigma), l9.err * sigma, l9.f, cfg)
                       for sigma in sigmas]
            want[f"epoch-{k}-line-9"] = (min(charges), max(charges))
            want[f"epoch-{k}-line-13"] = (l13.estimates * l13.charge,) * 2
        return want
    sweeps = params.iters
    simulated_argmax = cfg.backend == "statevector" and report.solver == "max-finding"
    for (name, _), line in lines.items():
        charge = line.estimates // sweeps * line.charge  # per sweep
        least = 0 if name == "argmax" and simulated_argmax else charge
        suffix = {"line10": "-line-10", "argmax": "-argmax", "mean": ""}[name]
        want.update({f"iter-{i}{suffix}": (least, charge) for i in range(1, sweeps + 1)})
    return want


def _check_schedule(mdp, report, cfg):
    want, got = _predicted_phases(mdp, report, cfg), report.ledger.phases
    assert set(got) <= set(want), sorted(set(got) - set(want))
    for phase, (least, most) in want.items():
        if phase not in got:  # only a simulated max finding under one probe charges nothing
            assert most == 0, phase
        else:
            assert least <= got[phase] <= most, (phase, got[phase], least, most)


@pytest.mark.parametrize("name,instance,solver,estimator,seed", [g[:5] for g in GOLDEN],
                         ids=[g[0] for g in GOLDEN])
def test_schedule_predicts_golden_ledger(name, instance, solver, estimator, seed):
    mdp, _ = build_instance(instance)
    cfg = EstimatorConfig(**(estimator or {}))
    _check_schedule(mdp, run_solver(mdp, solver, cfg, seed), cfg)


@pytest.mark.parametrize("name", sorted(SOLVE_PINS))
def test_schedule_predicts_pinned_ledger(name):
    mdp, solve, seed, *_ = SOLVE_PINS[name]
    _check_schedule(mdp, solve(SampleOracle(mdp, seed)), EstimatorConfig())
