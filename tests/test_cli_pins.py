"""Pins of the CLI's sweep, verify and default-handling paths.

The sweep pins are the sha256 of the CSV and fit JSON a `qmdp sweep` writes
on each axis; the suite pins are each suite's (passed, total, ok) together
with a digest of the inputs its checks saw, so a moved stream or draw shows
up even when every trial passes.
"""

import dataclasses
import hashlib
import inspect
import json

import numpy as np
import pytest

import qmdp.cli as cli
from qmdp.hard_instances import HardInstanceSpec
from qmdp.mdp import Mdp
from qmdp.solvers import MaxFindingParams, SampledParams, SolveReport, VarianceReducedParams

INSTANCE = {"hard_instance": {"gamma": 0.9, "num_actions": 2, "eps": 1.0, "large_arms": [1]}}

# axis -> (solver, --values, sha256 of the CSV bytes followed by the fit JSON bytes)
SWEEPS = {
    "eps": ({"name": "variance-reduced", "eps": 1.0, "delta": 0.1}, "1.0,0.5,0.25",
            "64fdc585325e7a8038ca9a853d7c87ad753d45900bbe6cd036386917f4144a0e"),
    "gamma": ({"name": "max-finding", "eps": 1.0, "delta": 0.1}, "0.9,0.92,0.95",
              "26a1311ef59160ed56918cdf1c7f4dcf198e8c818732faf4518e6169fa50b95e"),
    "num_actions": ({"name": "sampled", "mode": "quantum_mean_and_max", "eps": 1.0,
                     "delta": 0.1}, "2,3,4",
                    "7749a3ec380a9ec3ef21461265c6d275ae8517762119bfb2a4a052201b8807fd"),
    "copies": ({"name": "sampled", "mode": "classical", "eps": 1.0, "delta": 0.1}, "1,2,3",
               "5edff8f8c7368f3a031fae14d5a2cd2812a352758a12e0b37bcb3618cfe04b46"),
}


@pytest.mark.parametrize("axis", list(SWEEPS))
def test_sweep_outputs(tmp_path, axis):
    solver, values, digest = SWEEPS[axis]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"instance": INSTANCE, "solver": solver, "seed": 5}))
    out_csv, out_fit = tmp_path / "sweep.csv", tmp_path / "fit.json"
    assert cli.main(["sweep", "--config", str(config), "--axis", axis, "--values", values,
                     "--seeds", "2", "--out-csv", str(out_csv), "--out-fit", str(out_fit)]) == 0
    got = hashlib.sha256(out_csv.read_bytes() + out_fit.read_bytes()).hexdigest()
    assert got == digest


def _feed(sink, obj) -> None:
    """Add the numbers an MDP, a solve report or an array-like holds to sink."""
    if isinstance(obj, Mdp):
        parts = (obj.transitions, obj.rewards, obj.discount)
    elif isinstance(obj, SolveReport):
        parts = (obj.v_hat, obj.pi_hat, obj.ledger.total, bool(obj.monotone_iterates_ok))
    elif isinstance(obj, (np.ndarray, np.generic, float, int)):
        parts = (obj,)
    else:
        parts = ()
    for part in parts:
        sink.update(np.ascontiguousarray(part).tobytes())


def _digest_calls(monkeypatch, name, sink) -> None:
    """Wrap cli.<name> so that each call feeds its positional arguments and
    its result to sink."""
    real = getattr(cli, name)

    def wrapper(*args, **kwargs):
        result = real(*args, **kwargs)
        for obj in (*args, result):
            _feed(sink, obj)
        return result

    monkeypatch.setattr(cli, name, wrapper)


# suite -> (trials, the cli functions whose calls are digested,
#           (passed, total, ok), sha256 of those calls)
SUITE_PINS = {
    "total-variance": (20, ("total_variance_norm",), (20, 20, True),
        "706aca16ffddb06b62384ae8d4c9401343a5d6289fa0a79eea179b5de49be95f"),
    "oracle-normalization": (5, ("quantize_mdp",), (5, 5, True),
        "7c9cc28e132dbc50c601768cc7c942c892c9636d172247edf0bea47839e53bdd"),
    "monotone-iterates": (3, ("variance_reduced_vi",), (3, 3, True),
        "82d0d843d552f425fc5581df68343900eee4738fa5b08435df61e764d4d16ef5"),
    "sandwich": (3, ("sandwich_success",), (6, 6, True),
        "a669c7061ca4dfc751fd8d3b7e7730e6eb0325f6de4c65b23918bc2d5f8c28cd"),
    "gap": (None, (), (9, 9, True), hashlib.sha256().hexdigest()),  # nothing drawn
    "contraction": (20, ("policy_backup", "bellman_backup"), (20, 20, True),
        "4983b5b7603b177f74eb05c709608c984506aa4a81930bc5fc6708f37b483805"),
}


@pytest.mark.parametrize("suite", list(SUITE_PINS))
def test_suite_counts_and_draws(monkeypatch, suite):
    trials, wrapped, counts, digest = SUITE_PINS[suite]
    sink = hashlib.sha256()
    for name in wrapped:
        _digest_calls(monkeypatch, name, sink)
    passed, total, ok = cli.run_suite(suite, trials, seed=7)
    assert (passed, total, bool(ok)) == counts
    assert sink.hexdigest() == digest


@pytest.mark.parametrize("failures,ok", [(1, True), (2, False)])
def test_sandwich_suite_passes_at_ninety_percent(monkeypatch, failures, ok):
    calls = []

    def failing(mdp, report, eps):
        calls.append(eps)
        return len(calls) > failures

    monkeypatch.setattr(cli, "sandwich_success", failing)
    assert cli.run_suite("sandwich", 5, seed=3) == (10 - failures, 10, ok)
    assert len(calls) == 10


def _default(func, name):
    return inspect.signature(func).parameters[name].default


LIBRARY_DEFAULTS = {
    "b": _default(VarianceReducedParams.for_mdp, "b"),
    "c": _default(VarianceReducedParams.for_mdp, "c"),
    "c_max": _default(MaxFindingParams.for_mdp, "c_max"),
    "mode": _default(SampledParams.for_mdp, "mode"),
}
INSTANCE_DEFAULTS = {f.name: f.default for f in dataclasses.fields(HardInstanceSpec)
                     if f.name in ("c_alpha", "copies")}
assert len(INSTANCE_DEFAULTS) == 2


@pytest.mark.parametrize("name", ["variance-reduced", "max-finding", "sampled"])
def test_omitted_constants_take_library_defaults(tmp_path, name):
    """A config without the optional solver and instance constants writes the
    report of one that spells out the library's defaults, config aside."""
    reports = []
    for spelled in (False, True):
        solver = {"name": name, "eps": 1.0, "delta": 0.1}
        instance = {"hard_instance": dict(INSTANCE["hard_instance"])}
        if spelled:
            solver.update((k, v) for k, v in LIBRARY_DEFAULTS.items() if k in cli._SOLVERS[name][1])
            instance["hard_instance"].update(INSTANCE_DEFAULTS)
        config, out = tmp_path / f"config{spelled}.json", tmp_path / f"report{spelled}.json"
        config.write_text(json.dumps({"instance": instance, "solver": solver, "seed": 9,
                                      "diagnostics": True}))
        assert cli.main(["solve", "--config", str(config), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        del doc["config"], doc["timestamp"]
        reports.append(json.dumps(doc, sort_keys=True, indent=2).encode())
    assert reports[0] == reports[1]
