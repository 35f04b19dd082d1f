"""Tests for the command-line harness: configs, reports, sweeps, suites."""

import csv
import importlib
import json
import pkgutil
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import qmdp
import qmdp.oracle
import qmdp.rng
from qmdp.cli import (
    _SCHEMA,
    _SOLVERS,
    SOLVER_NAMES,
    SUITES,
    build_instance,
    fit_power_law,
    load_config,
    main,
    run_solver,
    run_suite,
    run_sweep,
    sandwich_success,
    validate_config,
)
from qmdp.errors import ConfigError, InternalError
from qmdp.estimators import EstimatorConfig
from qmdp.mdp import mdp_to_dict
from qmdp.oracle import SampleOracle
from qmdp.rng import derived_rng
from qmdp.solvers import MaxFindingParams, SampledParams, VarianceReducedParams


EPS_OVERFLOWS = r"eps = \S+ overflows 4\*horizon/eps at horizon \S+"
TOO_SMALL_TO_AMPLIFY = (r"delta gives a per-estimate failure probability \S+ too small to "
                        r"amplify: 3/f overflows")


def fig_two_config(eps=0.5, solver="variance-reduced", seed=42, A=2, arms=(1,)):
    return {
        "instance": {
            "hard_instance": {
                "gamma": 0.9,
                "num_actions": A,
                "eps": eps,
                "large_arms": list(arms),
            }
        },
        "solver": {"name": solver, "eps": eps, "delta": 0.1},
        "seed": seed,
    }


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestConfigValidation:
    def test_exactly_one_instance_source(self):
        doc = fig_two_config()
        doc["instance"]["two_state"] = {"gamma": 0.9, "p": 0.5}
        with pytest.raises(ConfigError, match="exactly one"):
            validate_config(doc)

    def test_missing_seed(self):
        doc = fig_two_config()
        del doc["seed"]
        with pytest.raises(ConfigError, match="seed"):
            validate_config(doc)

    def test_unknown_solver(self):
        doc = fig_two_config()
        doc["solver"]["name"] = "magic"
        with pytest.raises(ConfigError, match="solver.name"):
            validate_config(doc)

    def test_malformed_json_reports_path(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="broken.json"):
            load_config(path)

    # an entry no code reads would silently take the default it misspells
    @pytest.mark.parametrize("edit,path", [
        (lambda d: d.update(estimatr={"backend": "statevector"}), r": estimatr"),
        (lambda d: d["instance"].update(hard_instanc={}), r": instance\.hard_instanc"),
        (lambda d: d["solver"].update(cmax=8.0), r": solver\.cmax"),
        (lambda d: d.update(instance={"two_state": {"gamma": 0.9, "p": 0.5, "q": 0.1}}),
         r": instance\.two_state\.q"),
        (lambda d: d["instance"]["hard_instance"].update(copy=3),
         r": instance\.hard_instance\.copy"),
        (lambda d: d.update(estimator={"bakend": "statevector"}), r": estimator\.bakend"),
    ], ids=["top-level", "instance", "solver", "two_state", "hard_instance", "estimator"])
    def test_unknown_entry_exit_code(self, tmp_path, capsys, edit, path):
        doc = fig_two_config()
        edit(doc)
        out = tmp_path / "r.json"
        assert main(["solve", "--config", str(write_config(tmp_path, doc)),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert re.search(r"^error: .*config\.json" + path + " is not a known entry", err), err
        assert not out.exists()

    def test_every_known_entry_is_accepted(self):
        doc = fig_two_config(solver="sampled")
        doc["solver"].update(b=1.0, c=0.01, c_max=4.0, mode="classical")
        doc["instance"]["hard_instance"].update(c_alpha=9.0, copies=2)
        doc.update(estimator={}, diagnostics=False, snapshots_csv="")
        validate_config(doc)
        assert build_instance(doc["instance"])[0].num_states == 4
        assert build_instance({"two_state": {"gamma": 0.9, "p": 0.5}})[0].num_states == 2

    @pytest.mark.parametrize("instance,found", [
        ({}, r"\[\]"),
        ({"two_state": {"gamma": 0.9, "p": 0.5}, "path": "m.json"}, r"\['two_state', 'path'\]"),
    ], ids=["none", "two"])
    def test_build_instance_needs_exactly_one_source(self, instance, found):
        with pytest.raises(ConfigError, match=r"^<config>: instance must name exactly one "
                                              r"source of .*, found " + found + "$"):
            build_instance(instance)

    def test_build_instance_variants(self, tmp_path):
        mdp, prov = build_instance({"two_state": {"gamma": 0.9, "p": 0.5}})
        assert mdp.num_states == 2 and prov is not None
        mdp2, prov2 = build_instance({"mdp": mdp_to_dict(mdp)})
        np.testing.assert_array_equal(mdp.transitions, mdp2.transitions)
        assert prov2 is None


class TestSolveCommand:
    def test_zero_reward_instance_reports_zero(self, tmp_path):
        zero = {
            "S": 2, "A": 2, "gamma": 0.9,
            "r": [[0.0, 0.0], [0.0, 0.0]],
            "p": [[[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]]],
        }
        doc = fig_two_config()
        doc["instance"] = {"mdp": zero}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "report.json"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["v_hat"] == [0.0, 0.0]

    def test_determinism_modulo_timestamp(self, tmp_path):
        cfg = write_config(tmp_path, fig_two_config())
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["solve", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["solve", "--config", str(cfg), "--out", str(out2)]) == 0
        d1 = json.loads(out1.read_text())
        d2 = json.loads(out2.read_text())
        d1.pop("timestamp")
        d2.pop("timestamp")
        assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)

    def test_sandwich_versus_closed_form(self, tmp_path):
        doc = fig_two_config(eps=0.3)
        doc["instance"] = {"two_state": {"gamma": 0.9, "p": 0.5}}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "report.json"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        v_star = 1.0 / (1.0 - 0.45)
        assert v_star - 0.3 <= report["v_hat"][0] <= v_star + 1e-9

    def test_snapshots_csv(self, tmp_path):
        doc = fig_two_config(eps=1.0)
        doc["snapshots_csv"] = str(tmp_path / "snaps.csv")
        cfg = write_config(tmp_path, doc)
        assert main(["solve", "--config", str(cfg), "--out",
                     str(tmp_path / "r.json")]) == 0
        with open(doc["snapshots_csv"], newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "iteration", "state", "v", "pi"]
        assert len(rows) > 1

    def test_bad_config_exit_code(self, tmp_path):
        doc = fig_two_config()
        del doc["solver"]["eps"]
        cfg = write_config(tmp_path, doc)
        assert main(["solve", "--config", str(cfg), "--out",
                     str(tmp_path / "r.json")]) == 2

    def test_precondition_exit_code(self, tmp_path):
        doc = fig_two_config()
        doc["solver"]["eps"] = 9.0  # above sqrt(horizon) for variance-reduced
        cfg = write_config(tmp_path, doc)
        assert main(["solve", "--config", str(cfg), "--out",
                     str(tmp_path / "r.json")]) == 2

    def test_solver_range_error_names_file_and_block(self, tmp_path, capsys):
        doc = fig_two_config()
        doc["solver"]["eps"] = 9.0  # above sqrt(horizon) for variance-reduced
        cfg = write_config(tmp_path, doc)
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: \S*config\.json: solver\.eps must lie in "
                            r"\(0, sqrt\(horizon\)\] = \(0, 3\.16228\], got 9\.0\n", err), err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_statevector_argmax_budget_exit_code(self, tmp_path, capsys):
        # c_max = 1e9 at A = 8 is about 1.4e11 probes per simulated max finding
        doc = fig_two_config(eps=1.0, solver="max-finding", A=8, arms=(3,))
        doc["solver"]["c_max"] = 1e9
        doc["estimator"] = {"backend": "statevector"}
        cfg = write_config(tmp_path, doc)
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: \S*config\.json: solver: max-finding budget of \S+ probes "
                            r"exceeds MAX_ARGMAX_PROBES = 16777216; lower c_max\n", err), err

    def test_classical_sample_count_overflow_exit_code(self, tmp_path, capsys):
        # gamma 0.999 and eps 0.001 derive a Hoeffding count near 1e20 per
        # estimate, past the int64 count numpy's multinomial takes
        doc = {"instance": {"two_state": {"gamma": 0.999, "p": 0.5}},
               "solver": {"name": "sampled", "mode": "classical", "eps": 0.001, "delta": 0.1},
               "seed": 1, "snapshots_csv": str(tmp_path / "snaps.csv")}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "r.json"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert re.search(r"^error: \S*config\.json: solver: classical sample count \d{21} per "
                         r"estimate exceeds 2\^63-1$", captured.err.strip()), captured.err
        assert captured.out == ""
        assert not out.exists() and not (tmp_path / "snaps.csv").exists()

    @pytest.mark.parametrize("eps", [1e-155, 1e-170])
    def test_classical_sample_count_not_finite_exit_code(self, tmp_path, capsys, eps):
        # 1e-155 overflows the Hoeffding count to inf; at 1e-170 eps**2 is 0
        doc = {"instance": {"two_state": {"gamma": 0.9, "p": 0.5}},
               "solver": {"name": "sampled", "mode": "classical", "eps": eps, "delta": 0.1},
               "seed": 1}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "r.json"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: \S*config\.json: solver: Hoeffding sample count for "
                            r"accuracy \S+ is not finite\n", err), err
        assert not out.exists()

    @pytest.mark.parametrize("instance,solver,message", [
        ({"two_state": {"gamma": 0.9, "p": 0.5}},
         {"name": "sampled", "eps": 1e-310, "delta": 0.1}, EPS_OVERFLOWS),
        ({"hard_instance": {"gamma": 0.9, "num_actions": 2, "eps": 0.5, "large_arms": [1]}},
         {"name": "max-finding", "eps": 1e-310, "delta": 0.1}, EPS_OVERFLOWS),
        ({"two_state": {"gamma": 0.9, "p": 0.5}},
         {"name": "variance-reduced", "eps": 1e-310, "delta": 0.1, "c": 1e300}, EPS_OVERFLOWS),
        ({"two_state": {"gamma": 1.0 - 1e-12, "p": 0.5}},
         {"name": "max-finding", "eps": 1e-300, "delta": 0.1}, EPS_OVERFLOWS),
        ({"two_state": {"gamma": 0.9, "p": 0.5}},
         {"name": "max-finding", "eps": 0.5, "delta": 0.9999999999999999, "c_max": 5e-324},
         r"delta or c_max gives a per-estimate failure probability inf not in \(0, 1\)"),
        ({"two_state": {"gamma": 0.9, "p": 0.5}},
         {"name": "variance-reduced", "eps": 0.5, "delta": 1e-310}, TOO_SMALL_TO_AMPLIFY),
        ({"two_state": {"gamma": 0.9, "p": 0.5}},
         {"name": "sampled", "mode": "quantum_mean", "eps": 0.5, "delta": 1e-315},
         TOO_SMALL_TO_AMPLIFY),
        ({"two_state": {"gamma": 0.9, "p": 0.5}},
         {"name": "sampled", "mode": "quantum_mean_and_max", "eps": 0.5, "delta": 1e-310},
         TOO_SMALL_TO_AMPLIFY),
    ], ids=["sampled", "max-finding", "variance-reduced", "long-horizon", "c_max-underflow",
            "amplify-variance-reduced", "amplify-quantum-mean", "amplify-quantum-mean-and-max"])
    def test_derived_count_overflow_exits_2_naming_the_entry(self, tmp_path, capsys, monkeypatch,
                                                             instance, solver, message):
        # the iteration count takes log(4*horizon/eps), and max finding's f
        # divides delta by a product that can underflow: refused, not crashed
        keyed = []
        monkeypatch.setattr(SampleOracle, "keyed_rng", lambda self, digest: keyed.append(digest))
        cfg = write_config(tmp_path, {"instance": instance, "solver": solver, "seed": 1})
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: \S*config\.json: solver\." + message + r"\n", err), err
        assert keyed == [] and sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("instance,solver,estimator,message", [
        ({"hard_instance": {"gamma": 0.9, "num_actions": 128, "eps": 0.5, "large_arms": [1]}},
         {"name": "max-finding", "eps": 0.5, "delta": 0.1}, {"backend": "statevector"},
         r"statevector max finding supports at most 64 actions"),
        ({"hard_instance": {"gamma": 0.9, "num_actions": 8, "eps": 1.0, "large_arms": [3]}},
         {"name": "max-finding", "eps": 1.0, "delta": 0.1, "c_max": 1e9},
         {"backend": "statevector"}, r"max-finding budget of \S+ probes exceeds MAX_ARGMAX_PROBES"),
        ({"two_state": {"gamma": 0.9, "p": 0.5}},
         {"name": "sampled", "mode": "classical", "eps": 1e-155, "delta": 0.1}, None,
         r"Hoeffding sample count for accuracy \S+ is not finite"),
        ({"two_state": {"gamma": 0.999, "p": 0.5}},
         {"name": "sampled", "mode": "classical", "eps": 0.001, "delta": 0.1}, None,
         r"classical sample count \d{21} per estimate exceeds 2\^63-1"),
        ({"hard_instance": {"gamma": 0.9, "num_actions": 4, "eps": 1.0, "large_arms": [1]}},
         {"name": "sampled", "mode": "quantum_mean", "eps": 1e-6, "delta": 0.1},
         {"backend": "statevector"}, r"statevector backend cannot reach relative accuracy \S+"),
        ({"hard_instance": {"gamma": 0.9, "num_actions": 8, "eps": 0.3, "large_arms": [3]}},
         {"name": "max-finding", "eps": 0.3, "delta": 0.1}, {"c1": 1e308},
         r"range-bounded charge is not finite at c1 = 1e\+308"),
        ({"hard_instance": {"gamma": 0.9, "num_actions": 8, "eps": 0.3, "large_arms": [3]}},
         {"name": "variance-reduced", "eps": 0.3, "delta": 0.1}, {"c2": 1e308},
         r"variance-bounded charge is not finite at c2 = 1e\+308"),
        # one row's charge is finite here, the sum over the S*A = 16 rows a solve charges is not
        ({"hard_instance": {"gamma": 0.9, "num_actions": 8, "eps": 0.3, "large_arms": [3]}},
         {"name": "variance-reduced", "eps": 0.3, "delta": 0.1}, {"c2": 1e301},
         r"variance-bounded charge is not finite at c2 = 1e\+301"),
    ], ids=["actions", "probes", "hoeffding-inf", "hoeffding-int64", "phase-bits", "c1", "c2",
            "c2-1e301"])
    def test_schedule_refusal_exits_2_before_any_stream(self, tmp_path, capsys, monkeypatch,
                                                        instance, solver, estimator, message):
        # each refusal depends only on (mdp, params, cfg): the plan raises it
        keyed = []
        monkeypatch.setattr(SampleOracle, "keyed_rng", lambda self, digest: keyed.append(digest))
        doc = {"instance": instance, "solver": solver, "seed": 1,
               "snapshots_csv": str(tmp_path / "s.csv")}
        if estimator:
            doc["estimator"] = estimator
        cfg = write_config(tmp_path, doc)
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: \S*config\.json: solver: " + message + r"[^\n]*\n", err), err
        assert keyed == [] and sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_unknown_sampled_mode_is_refused_at_validation(self, tmp_path, capsys):
        doc = fig_two_config(solver="sampled")
        doc["solver"]["mode"] = "quantum"
        cfg = write_config(tmp_path, doc)
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: \S*config\.json: solver\.mode must be one of \('classical', "
                            r"'quantum_mean', 'quantum_mean_and_max'\), got 'quantum'\n", err), err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("bad", ["csv", "out"])
    def test_bad_destination_writes_neither_file(self, tmp_path, capsys, bad):
        # the CSV is written first, so a bad --out must take it back
        doc = fig_two_config(eps=1.0)
        good_csv, good_out = tmp_path / "s.csv", tmp_path / "r.json"
        missing = tmp_path / "missing"
        doc["snapshots_csv"] = str(missing / "s.csv" if bad == "csv" else good_csv)
        out = missing / "r.json" if bad == "out" else good_out
        cfg = write_config(tmp_path, doc)
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("bad", ["csv", "out"])
    def test_directory_as_destination_exits_2_naming_it(self, tmp_path, capsys, bad):
        # an existing directory is a file that cannot be written, not an
        # internal error, and the both-or-neither rule holds
        doc = fig_two_config(eps=1.0)
        folder = tmp_path / "folder"
        folder.mkdir()
        doc["snapshots_csv"] = str(folder if bad == "csv" else tmp_path / "s.csv")
        out = folder if bad == "out" else tmp_path / "r.json"
        cfg = write_config(tmp_path, doc)
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(rf"error: {re.escape(str(folder))}: [^\n]+\n", err), err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "folder"]
        assert not any(folder.iterdir())

    def test_snapshots_csv_in_missing_directory_writes_no_report(self, tmp_path, capsys):
        doc = fig_two_config(eps=1.0)
        doc["snapshots_csv"] = str(tmp_path / "missing" / "s.csv")
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "r.json"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("instance,message", [
        ({"hard_instance": {"gamma": 0.5, "num_actions": 2, "eps": 0.5}},
         r"config\.json: instance\.hard_instance\.gamma must be in \[0\.9, 1\)"),
        ({"hard_instance": {"gamma": 0.9, "num_actions": 2, "eps": 0.5, "large_arms": [2]}},
         r"config\.json: instance\.hard_instance\.large_arms must be valid action indices"),
        ({"two_state": {"gamma": 1.0, "p": 0.5}},
         r"config\.json: instance\.two_state\.gamma must be in \[0, 1\)"),
    ])
    def test_instance_range_error_names_entry(self, tmp_path, capsys, instance, message):
        doc = fig_two_config()
        doc["instance"] = instance
        cfg = write_config(tmp_path, doc)
        assert main(["solve", "--config", str(cfg), "--out",
                     str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and re.search(message, err), err

    @pytest.mark.parametrize("edit,message", [
        (lambda d: d["solver"].update(eps="abc"), r"solver\.eps must be a number, got 'abc'"),
        (lambda d: d.update(seed="x"), r"seed must be an integer, got 'x'"),
        (lambda d: d["instance"]["hard_instance"].pop("num_actions"),
         r"instance\.hard_instance\.num_actions is required"),
        (lambda d: d.update(seed=True), r"seed must be an integer, got True"),
        (lambda d: d.update(seed=1.5), r"seed must be an integer, got 1\.5"),
        (lambda d: d["solver"].update(delta=False), r"solver\.delta must be a number"),
        (lambda d: d["solver"].update(c_max="4"), r"solver\.c_max must be a number"),
        (lambda d: d["instance"]["hard_instance"].update(gamma="0.9"),
         r"instance\.hard_instance\.gamma must be a number"),
        (lambda d: d["instance"]["hard_instance"].update(num_actions=2.0),
         r"instance\.hard_instance\.num_actions must be an integer"),
        (lambda d: d["instance"]["hard_instance"].update(large_arms=["a"]),
         r"instance\.hard_instance\.large_arms must be a list of integers"),
        (lambda d: d.update(instance={"two_state": {"gamma": 0.9}}),
         r"instance\.two_state\.p is required"),
        (lambda d: d.update(instance={"hard_instance": [0.9]}),
         r"instance\.hard_instance must be an object"),
        (lambda d: d.update(estimator=[1]), r"estimator must be an object"),
        (lambda d: d.update(estimator={"adversarial_scale": 1.0}), r"adversarial_scale"),
        (lambda d: d.update(estimator={"phase_bits": 0}), r"phase_bits"),
        (lambda d: d.update(estimator={"c1": float("nan")}), r"c1, c2 must be positive and finite"),
        (lambda d: d["solver"].update(c=1000), r"c must satisfy 0 < c\*\(1-gamma\)\^1\.5\*eps < 4"),
        (lambda d: d["solver"].update(c=float("nan")), r"solver\.c must be finite, got nan"),
        (lambda d: d["solver"].update(c=float("inf")), r"solver\.c must be finite, got inf"),
        (lambda d: d["solver"].update(b=float("nan")), r"solver\.b must be finite, got nan"),
        (lambda d: d["solver"].update(eps=float("-inf")), r"solver\.eps must be finite, got -inf"),
        (lambda d: d["instance"]["hard_instance"].update(gamma=float("nan")),
         r"instance\.hard_instance\.gamma must be finite, got nan"),
        (lambda d: d.update(estimator={"c1": True}), r"estimator\.c1 must be a number, got True"),
        (lambda d: d.update(estimator={"c2": "2"}), r"estimator\.c2 must be a number, got '2'"),
        (lambda d: d.update(estimator={"adversarial_scale": "10"}),
         r"estimator\.adversarial_scale must be a number, got '10'"),
        (lambda d: d.update(estimator={"mock_failure_mode": 3}),
         r"estimator\.mock_failure_mode must be a string, got 3"),
        (lambda d: d.update(estimator={"backend": None}),
         r"estimator\.backend must be a string, got None"),
        (lambda d: d["solver"].update(mode=2),
         r"solver\.mode must be one of \('classical', 'quantum_mean', 'quantum_mean_and_max'\), "
         r"got 2"),
        (lambda d: d.update(snapshots_csv=True), r": snapshots_csv must be a string, got True"),
        (lambda d: d.update(snapshots_csv=1), r": snapshots_csv must be a string, got 1"),
        (lambda d: d.update(diagnostics="no"), r": diagnostics must be a boolean, got 'no'"),
        # a falsy block is not an empty one
        (lambda d: d.update(estimator=0), r"config\.json: estimator must be an object, got 0$"),
        (lambda d: d.update(estimator=False),
         r"config\.json: estimator must be an object, got False$"),
        (lambda d: d.update(estimator=""), r"config\.json: estimator must be an object, got ''$"),
        (lambda d: d.update(estimator=[]), r"config\.json: estimator must be an object, got \[\]$"),
        (lambda d: d.update(estimator=None),
         r"config\.json: estimator must be an object, got None$"),
    ])
    def test_malformed_config_exit_code(self, tmp_path, capsys, edit, message):
        doc = fig_two_config()
        edit(doc)
        cfg = write_config(tmp_path, doc)
        assert main(["solve", "--config", str(cfg), "--out",
                     str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and re.search(message, err), err

    @pytest.mark.parametrize("mdp_edit,message", [
        (lambda m: m.update(gamma="x"), r"instance\.mdp: gamma must be a number, got 'x'"),
        (lambda m: m.update(S=True), r"instance\.mdp: S and A must be positive integers"),
        (lambda m: m["p"][0][0].__setitem__(0, float("nan")),
         r"instance\.mdp: transitions\[0\]\[0\]\[0\] = nan is not finite"),
        (lambda m: m["r"][1].__setitem__(1, float("nan")),
         r"instance\.mdp: rewards\[1\]\[1\] = nan is not finite"),
    ])
    def test_malformed_inline_mdp_exit_code(self, tmp_path, capsys, mdp_edit, message):
        doc = fig_two_config()
        inline = {"S": 2, "A": 2, "gamma": 0.9, "r": [[0.5, 0.5], [0.5, 0.5]],
                  "p": [[[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]]]}
        mdp_edit(inline)
        doc["instance"] = {"mdp": inline}
        cfg = write_config(tmp_path, doc)
        assert main(["solve", "--config", str(cfg), "--out",
                     str(tmp_path / "r.json")]) == 2
        assert re.search(message, capsys.readouterr().err)

    @pytest.mark.parametrize("text,message", [
        ("5", r"MDP document must be a JSON object, got 5"),
        ('{"S": 2, "A": 1, "gamma": 0.9, "r": [[0.5], [0.0]], "p": [[[true, false]], [[0.0, 1.0]]]}',
         r"p\[0\]\[0\]\[0\] must be a number, got true"),
    ], ids=["int-document", "bool-entry"])
    def test_ill_typed_path_file_exit_code(self, tmp_path, capsys, text, message):
        (tmp_path / "m.json").write_text(text)
        doc = fig_two_config()
        doc["instance"] = {"path": str(tmp_path / "m.json")}
        cfg = write_config(tmp_path, doc)
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: \S*m\.json: " + message + r"\n", err), err

    @pytest.mark.parametrize("source", ["solve-inline", "solve-path", "oracle-build"])
    def test_document_over_the_dense_bound_exit_code(self, tmp_path, capsys, monkeypatch,
                                                      source):
        import qmdp.mdp as mdp_mod

        monkeypatch.setattr(mdp_mod, "MAX_DENSE_BYTES", 8 * 2 * 2 * 2 - 1)
        mdp, _ = build_instance({"two_state": {"gamma": 0.9, "p": 0.5}})
        path = tmp_path / "m.json"
        path.write_text(json.dumps(dict(mdp_to_dict(mdp), A=2)))  # checked before p's shape
        out = tmp_path / "out.json"
        if source == "oracle-build":
            argv = ["oracle-build", "--mdp", str(path), "--out", str(out)]
        else:
            doc = fig_two_config()
            doc["instance"] = ({"path": str(path)} if source == "solve-path"
                               else {"mdp": json.loads(path.read_text())})
            argv = ["solve", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: \S*(m\.json|config\.json:instance\.mdp): S = 2 and A = 2 "
                            r"need a dense transition tensor of 8\*S\^2\*A = 64 bytes, above 63\n",
                            err), err
        assert not out.exists()

    def test_internal_error_exit_code(self, tmp_path, monkeypatch):
        import qmdp.cli as cli_mod

        def boom(*args, **kwargs):
            raise InternalError("synthetic")

        monkeypatch.setattr(cli_mod, "variance_reduced_vi", boom)
        cfg = write_config(tmp_path, fig_two_config())
        assert main(["solve", "--config", str(cfg), "--out",
                     str(tmp_path / "r.json")]) == 3


class TestSweepCommand:
    def test_eps_sweep_csv_and_fit(self, tmp_path):
        cfg = write_config(tmp_path, fig_two_config(solver="max-finding"))
        out_csv = tmp_path / "sweep.csv"
        out_fit = tmp_path / "fit.json"
        rc = main([
            "sweep", "--config", str(cfg), "--axis", "eps",
            "--values", "0.8,0.4,0.2", "--seeds", "3",
            "--out-csv", str(out_csv), "--out-fit", str(out_fit),
        ])
        assert rc == 0
        with open(out_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["axis_value", "seed", "classical_samples",
                           "quantum_oracle_calls", "success"]
        assert len(rows) == 1 + 3 * 3
        # round-trip: parsed rows match the in-memory sweep
        mem_rows, fit = run_sweep(json.loads(cfg.read_text()), "eps",
                                  [0.8, 0.4, 0.2], 3)
        parsed = [(float(r[0]), int(r[1]), int(r[2]), int(r[3]), int(r[4]))
                  for r in rows[1:]]
        assert parsed == [tuple(r) for r in mem_rows]
        fit_doc = json.loads(out_fit.read_text())
        assert fit_doc["axis"] == "eps"
        assert fit_doc["slope"] == pytest.approx(fit["slope"])
        assert len(fit_doc["points"]) == 3

    def test_requires_three_values(self, tmp_path):
        cfg = write_config(tmp_path, fig_two_config())
        rc = main([
            "sweep", "--config", str(cfg), "--axis", "eps", "--values", "0.5,0.4",
            "--seeds", "3", "--out-csv", str(tmp_path / "s.csv"),
            "--out-fit", str(tmp_path / "f.json"),
        ])
        assert rc == 2

    @pytest.mark.parametrize("axis,values,message", [
        ("eps", "0.5,abc,0.2", r"--values\[1\] = 'abc' is not a number"),
        ("num_actions", "4,abc,8", r"--values\[1\] = 'abc' is not a number"),
        ("num_actions", "4,nan,8", r"--values\[1\] = nan is not finite"),
        ("copies", "1,2,inf", r"--values\[2\] = inf is not finite"),
        ("eps", "0.5,0.4,NaN", r"--values\[2\] = nan is not finite"),
        ("num_actions", "4,2.5,8", r"--values\[1\] = 2\.5 is not an integer for axis num_actions"),
        ("copies", "1,,2,3.25", r"--values\[3\] = 3\.25 is not an integer for axis copies"),
    ])
    def test_bad_values_exit_code(self, tmp_path, capsys, axis, values, message):
        cfg = write_config(tmp_path, fig_two_config(solver="max-finding"))
        out_csv = tmp_path / "s.csv"
        rc = main([
            "sweep", "--config", str(cfg), "--axis", axis, "--values", values,
            "--seeds", "1", "--out-csv", str(out_csv), "--out-fit", str(tmp_path / "f.json"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and re.search(message, err), err
        assert not out_csv.exists()

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    def test_copies_beyond_the_dense_bound_exit_code(self, tmp_path, capsys, monkeypatch,
                                                      command):
        # refused from the spec, before tiled_instance could allocate the
        # 8*(2*copies)^2*A-byte tensor; the guard fails a regression instead
        import qmdp.cli as cli_mod

        real = cli_mod.tiled_instance

        def guarded(spec):
            assert spec.copies <= 4096, spec
            return real(spec)

        monkeypatch.setattr(cli_mod, "tiled_instance", guarded)
        doc = fig_two_config(solver="max-finding")
        out = tmp_path / "out"
        if command == "solve":
            doc["instance"]["hard_instance"]["copies"] = 10**6
            argv = ["solve", "--out", str(out)]
        else:
            argv = ["sweep", "--axis", "copies", "--values", "1,2,100000", "--seeds", "1",
                    "--out-csv", str(out), "--out-fit", str(tmp_path / "f.json")]
        assert main(argv + ["--config", str(write_config(tmp_path, doc))]) == 2
        err = capsys.readouterr().err
        assert re.search(r"^error: .*instance\.hard_instance\.copies must keep the dense "
                         r"transition tensor within 2\^30 bytes; 8\*\(2\*copies\)\^2\*num_actions = 6400+$",
                         err), err
        assert not out.exists()

    @pytest.mark.parametrize("axis,values,message", [
        ("copies", "1,2,100000", r"copies must keep the dense transition tensor within 2\^30"),
        ("gamma", "0.9,0.95,1.0", r"gamma must be in \[0\.9, 1\) \(horizon >= 10\), got 1\.0"),
    ])
    def test_bad_last_point_is_refused_before_any_solve(self, tmp_path, capsys, monkeypatch,
                                                        axis, values, message):
        import qmdp.cli as cli_mod

        calls = []
        for name in ("variance_reduced_vi", "max_finding_vi", "sampled_vi"):
            monkeypatch.setattr(cli_mod, name, lambda *args, **kwargs: calls.append(args))
        cfg = write_config(tmp_path, fig_two_config(solver="max-finding"))
        out_csv, out_fit = tmp_path / "s.csv", tmp_path / "f.json"
        assert main(["sweep", "--config", str(cfg), "--axis", axis, "--values", values,
                     "--seeds", "1", "--out-csv", str(out_csv), "--out-fit", str(out_fit)]) == 2
        err = capsys.readouterr().err
        where = r"error: \S*config\.json: instance\.hard_instance\."
        assert re.fullmatch(where + message + r".*\n", err), err
        assert calls == [] and not out_csv.exists() and not out_fit.exists()

    ABOVE_HORIZON = r"eps must lie in \(0, horizon\] = \(0, 10\], got 40\.0"

    @pytest.mark.parametrize("solver,values,message", [
        ("max-finding", "0.5,0.3,40", ABOVE_HORIZON),
        ("sampled", "0.5,0.3,40", ABOVE_HORIZON),
        ("variance-reduced", "0.5,0.3,4",
         r"eps must lie in \(0, sqrt\(horizon\)\] = \(0, 3\.16228\], got 4\.0"),
    ])
    def test_bad_last_eps_is_refused_before_any_solve(self, tmp_path, capsys, monkeypatch,
                                                      solver, values, message):
        # each point's solver parameters are derived on the one MDP first
        import qmdp.cli as cli_mod

        calls = []
        for name in ("variance_reduced_vi", "max_finding_vi", "sampled_vi"):
            monkeypatch.setattr(cli_mod, name, lambda *args, **kwargs: calls.append(args))
        cfg = write_config(tmp_path, fig_two_config(solver=solver))
        out_csv, out_fit = tmp_path / "s.csv", tmp_path / "f.json"
        assert main(["sweep", "--config", str(cfg), "--axis", "eps", "--values", values,
                     "--seeds", "1", "--out-csv", str(out_csv), "--out-fit", str(out_fit)]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: \S*config\.json: solver\." + message + r"\n", err), err
        assert calls == [] and not out_csv.exists() and not out_fit.exists()

    def test_overflowing_first_eps_is_refused_before_any_solve(self, tmp_path, capsys):
        cfg = write_config(tmp_path, fig_two_config(solver="max-finding"))
        out_csv, out_fit = tmp_path / "s.csv", tmp_path / "f.json"
        assert main(["sweep", "--config", str(cfg), "--axis", "eps", "--values",
                     "1e-310,0.5,0.3", "--seeds", "1", "--out-csv", str(out_csv),
                     "--out-fit", str(out_fit)]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: \S*config\.json: solver\." + EPS_OVERFLOWS + r"\n",
                            err), err
        assert not out_csv.exists() and not out_fit.exists()

    @pytest.mark.parametrize("solver,eps,message", [
        ("max-finding", 15.0, r"solver\.eps must lie in \(0, horizon\] = \(0, 10\], got 15\.0"),
        ("sampled", 15.0, r"solver\.eps must lie in \(0, horizon\] = \(0, 10\], got 15\.0"),
        ("variance-reduced", 4.0,
         r"solver\.eps must lie in \(0, sqrt\(horizon\)\] = \(0, 3\.16228\], got 4\.0"),
    ])
    def test_last_gamma_below_eps_is_refused_before_any_solve(self, tmp_path, capsys,
                                                              monkeypatch, solver, eps, message):
        # an instance axis plans every point's solver params too, on its shape
        import qmdp.cli as cli_mod

        calls = []
        for name in ("variance_reduced_vi", "max_finding_vi", "sampled_vi"):
            monkeypatch.setattr(cli_mod, name, lambda *args, **kwargs: calls.append(args))
        doc = fig_two_config(solver=solver)
        doc["solver"]["eps"] = eps
        cfg = write_config(tmp_path, doc)
        out_csv, out_fit = tmp_path / "s.csv", tmp_path / "f.json"
        assert main(["sweep", "--config", str(cfg), "--axis", "gamma", "--values",
                     "0.95,0.99,0.9", "--seeds", "1", "--out-csv", str(out_csv),
                     "--out-fit", str(out_fit)]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: \S*config\.json: " + message + r"\n", err), err
        assert calls == [] and not out_csv.exists() and not out_fit.exists()

    def test_unknown_sampled_mode_is_refused_at_validation(self, tmp_path, capsys):
        doc = fig_two_config(solver="sampled")
        doc["solver"]["mode"] = "quantum"
        cfg = write_config(tmp_path, doc)
        assert main(["sweep", "--config", str(cfg), "--axis", "gamma", "--values", "0.9,0.95,0.99",
                     "--seeds", "1", "--out-csv", str(tmp_path / "s.csv"),
                     "--out-fit", str(tmp_path / "f.json")]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: \S*config\.json: solver\.mode must be one of \('classical', "
                            r"'quantum_mean', 'quantum_mean_and_max'\), got 'quantum'\n", err), err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("axis,values,instance", [
        ("copies", "1,2,3", {"two_state": {"gamma": 0.9, "p": 0.5}}),
        ("gamma", "0.9,0.95,0.99", {"path": "m.json"}),
    ])
    def test_axis_the_instance_block_lacks_exit_code(self, tmp_path, capsys, axis, values,
                                                     instance):
        doc = fig_two_config(solver="max-finding")
        doc["instance"] = instance
        cfg = write_config(tmp_path, doc)
        assert main(["sweep", "--config", str(cfg), "--axis", axis, "--values", values,
                     "--seeds", "1", "--out-csv", str(tmp_path / "s.csv"),
                     "--out-fit", str(tmp_path / "f.json")]) == 2
        err = capsys.readouterr().err
        block, = instance
        assert re.fullmatch(rf"error: \S*config\.json: instance\.{block} has no entry "
                            rf"'{axis}' to sweep\n", err), err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("bad", ["csv", "fit"])
    def test_bad_destination_writes_neither_file(self, tmp_path, capsys, bad):
        # the CSV is written first, so a bad --out-fit must take it back
        cfg = write_config(tmp_path, fig_two_config(solver="max-finding", eps=1.0))
        missing = tmp_path / "missing"
        out_csv = (missing if bad == "csv" else tmp_path) / "s.csv"
        out_fit = (missing if bad == "fit" else tmp_path) / "f.json"
        assert main(["sweep", "--config", str(cfg), "--axis", "eps", "--values", "1.0,0.5,0.25",
                     "--seeds", "1", "--out-csv", str(out_csv), "--out-fit", str(out_fit)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("bad", ["csv", "fit"])
    def test_directory_as_destination_exits_2_naming_it(self, tmp_path, capsys, bad):
        cfg = write_config(tmp_path, fig_two_config(solver="max-finding", eps=1.0))
        folder = tmp_path / "folder"
        folder.mkdir()
        out_csv = folder if bad == "csv" else tmp_path / "s.csv"
        out_fit = folder if bad == "fit" else tmp_path / "f.json"
        assert main(["sweep", "--config", str(cfg), "--axis", "eps", "--values", "1.0,0.5,0.25",
                     "--seeds", "1", "--out-csv", str(out_csv), "--out-fit", str(out_fit)]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(rf"error: {re.escape(str(folder))}: [^\n]+\n", err), err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "folder"]
        assert not any(folder.iterdir())

    def test_estimator_range_error_names_file_and_block(self, tmp_path, capsys):
        doc = fig_two_config(solver="max-finding")
        doc["estimator"] = {"c1": -1}
        cfg = write_config(tmp_path, doc)
        assert main(["sweep", "--config", str(cfg), "--axis", "eps", "--values", "1.0,0.5,0.25",
                     "--seeds", "1", "--out-csv", str(tmp_path / "s.csv"),
                     "--out-fit", str(tmp_path / "f.json")]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: \S*config\.json: estimator: cost constants c1, c2 must be "
                            r"positive and finite\n", err), err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("axis,values,builds", [
        ("eps", [1.0, 0.5, 0.25], 1),
        ("gamma", [0.9, 0.92, 0.95], 3),
    ])
    def test_instance_built_once_per_distinct_block(self, monkeypatch, axis, values, builds):
        import qmdp.cli as cli_mod
        import qmdp.mdp as mdp_mod

        built, solved = [], []
        tiled, optimum = cli_mod.tiled_instance, mdp_mod.exact_value_iteration
        monkeypatch.setattr(cli_mod, "tiled_instance",
                            lambda spec: built.append(spec) or tiled(spec))
        monkeypatch.setattr(mdp_mod, "exact_value_iteration",
                            lambda *args, **kwargs: solved.append(args) or optimum(*args, **kwargs))
        rows, _ = run_sweep(fig_two_config(solver="max-finding", eps=1.0), axis, values, 2)
        assert len(rows) == 6
        assert len(built) == len(solved) == builds

    def test_integer_values_with_blank_entries(self, tmp_path):
        cfg = write_config(tmp_path, fig_two_config(solver="max-finding"))
        out_csv = tmp_path / "s.csv"
        assert main([
            "sweep", "--config", str(cfg), "--axis", "num_actions", "--values", "2, 4.0,,8,",
            "--seeds", "1", "--out-csv", str(out_csv), "--out-fit", str(tmp_path / "f.json"),
        ]) == 0
        with open(out_csv, newline="") as fh:
            assert [r[0] for r in list(csv.reader(fh))[1:]] == ["2.0", "4.0", "8.0"]

    def test_num_actions_axis(self, tmp_path):
        doc = fig_two_config(solver="max-finding", A=2, arms=(1,))
        rows, fit = run_sweep(doc, "num_actions", [2, 4, 8], 2)
        assert fit["axis"] == "num_actions"
        assert {r[0] for r in rows} == {2, 4, 8}

    def test_success_column_uses_exact_oracle(self):
        doc = fig_two_config(eps=1.0)
        rows, _ = run_sweep(doc, "eps", [1.0, 0.5, 0.25], 2)
        # estimates on these instances succeed essentially always
        assert np.mean([r[4] for r in rows]) >= 0.8


@pytest.mark.parametrize("solver", ["variance-reduced", "max-finding", "sampled"])
def test_one_schedule_per_solve_and_per_sweep_point(tmp_path, monkeypatch, solver):
    # a solve derives its schedule once, before its first draw, and a sweep
    # point's one plan serves every seed
    calls = []
    for params_class in (VarianceReducedParams, MaxFindingParams, SampledParams):
        real = params_class.schedule
        monkeypatch.setattr(params_class, "schedule", lambda self, *args, real=real, **kwargs:
                            calls.append(self) or real(self, *args, **kwargs))
    doc = fig_two_config(eps=0.3, solver=solver, A=8, arms=(3,))
    cfg = write_config(tmp_path, doc)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 0
    assert len(calls) == 1
    calls.clear()
    assert main(["sweep", "--config", str(cfg), "--axis", "eps", "--values", "0.5,0.4,0.3",
                 "--seeds", "5", "--out-csv", str(tmp_path / "s.csv"),
                 "--out-fit", str(tmp_path / "f.json")]) == 0
    assert len(calls) == 3
    calls.clear()
    mdp, _ = build_instance(doc["instance"])
    for seed in (1, 2):
        run_solver(mdp, doc["solver"], EstimatorConfig(), seed)
    assert len(calls) == 2


# each (solver, entry) pair whose entry belongs to another solver, at a value that solver takes
OTHER_SOLVERS_ENTRIES = [
    (name, key, value) for name in SOLVER_NAMES
    for key, value in {"b": 2.0, "c": 0.02, "c_max": 5.0, "mode": "quantum_mean"}.items()
    if key not in _SOLVERS[name][1]]
assert len(OTHER_SOLVERS_ENTRIES) == 8


@pytest.mark.parametrize("name,key,value", OTHER_SOLVERS_ENTRIES)
def test_another_solvers_entry_is_refused_before_any_stream(tmp_path, capsys, monkeypatch,
                                                            name, key, value):
    # an entry of another solver used to be dropped without a word
    keyed = []
    monkeypatch.setattr(SampleOracle, "keyed_rng", lambda self, digest: keyed.append(digest))
    doc = fig_two_config(solver=name)
    doc["solver"][key] = value
    message = (rf"solver\.{key} is not an entry of {name}; expected one of "
               + re.escape(str(tuple(_SOLVERS[name][1]))))
    cfg = write_config(tmp_path, doc)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: \S*config\.json: " + message + r"\n", err), err
    assert main(["sweep", "--config", str(cfg), "--axis", "eps", "--values", "0.5,0.4,0.3",
                 "--seeds", "1", "--out-csv", str(tmp_path / "s.csv"),
                 "--out-fit", str(tmp_path / "f.json")]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: \S*config\.json: " + message + r"\n", err), err
    mdp, _ = build_instance(doc["instance"])
    with pytest.raises(ConfigError, match=r"^<config>: " + message + "$"):
        run_solver(mdp, doc["solver"], EstimatorConfig(), 1)
    assert keyed == [] and sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_every_command_reads_its_streams_in_bulk(tmp_path, monkeypatch):
    # every stream the program reads comes through rng.key_digests or
    # rng.bulk_passes; rng.derived_rng, one key at a time, stays for callers
    # outside the program, so every binding of it refuses here
    def one_key(*args, **kwargs):
        raise AssertionError(f"derived_rng{args} called")

    real = qmdp.rng.derived_rng
    bindings = [module for name, module in sys.modules.items()
                if (name == "qmdp" or name.startswith("qmdp."))
                and getattr(module, "derived_rng", None) is real]
    assert qmdp.rng in bindings and qmdp.oracle in bindings
    for module in bindings:
        monkeypatch.setattr(module, "derived_rng", one_key)
    solvers = [{"name": "variance-reduced"}, {"name": "max-finding"}] + [
        {"name": "sampled", "mode": mode} for mode in
        ("classical", "quantum_mean", "quantum_mean_and_max")]
    for backend in ("contract_mock", "statevector"):
        for solver in solvers:
            doc = fig_two_config(eps=1.0, seed=3)
            doc["solver"].update(solver)
            doc["estimator"] = {"backend": backend}
            cfg = write_config(tmp_path, doc)
            assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 0
    cfg = write_config(tmp_path, fig_two_config(eps=1.0, solver="max-finding"))
    assert main(["sweep", "--config", str(cfg), "--axis", "eps", "--values", "1.0,0.8,0.6",
                 "--seeds", "1", "--out-csv", str(tmp_path / "s.csv"),
                 "--out-fit", str(tmp_path / "f.json")]) == 0
    for suite in SUITES:
        assert main(["verify", "--suite", suite, "--trials", "2"]) == 0
    mdp, _ = build_instance({"two_state": {"gamma": 0.9, "p": 0.375}})
    src = tmp_path / "m.json"
    src.write_text(json.dumps(mdp_to_dict(mdp)))
    assert main(["oracle-build", "--mdp", str(src), "--out", str(tmp_path / "o.json")]) == 0
    assert SampleOracle(mdp, 3).sample_counts(1, 0, 5).sum() == 5


class TestFitPowerLaw:
    def test_known_exponents_with_noise(self):
        for beta in (0.5, 1.0, 2.0):
            rng = derived_rng(31, "fit", int(beta * 10))
            xs = np.array([2.0, 4.0, 8.0, 16.0, 32.0])
            ys = 3.0 * xs**beta * np.exp(rng.normal(0.0, 0.01, xs.size))
            slope, r2 = fit_power_law(xs, ys)
            assert slope == pytest.approx(beta, abs=0.02)
            assert r2 > 0.99

    def test_constant_data_gives_zero_slope(self):
        # degenerate sweep: fixed query charge at every point
        slope, _ = fit_power_law([1.0, 2.0, 4.0], [10.0, 10.0, 10.0])
        assert slope == pytest.approx(0.0, abs=1e-12)

    def test_needs_three_points(self):
        from qmdp.errors import PreconditionError

        with pytest.raises(PreconditionError):
            fit_power_law([1.0, 2.0], [1.0, 2.0])


class TestVerifyCommand:
    def test_gap_suite(self, capsys):
        assert main(["verify", "--suite", "gap"]) == 0
        assert "pass" in capsys.readouterr().out

    def test_total_variance_suite_small(self):
        assert main(["verify", "--suite", "total-variance", "--trials", "40"]) == 0

    def test_oracle_normalization_suite_small(self):
        assert main(["verify", "--suite", "oracle-normalization", "--trials", "10"]) == 0

    def test_monotone_suite_small(self):
        assert main(["verify", "--suite", "monotone-iterates", "--trials", "5"]) == 0

    def test_contraction_suite_small(self):
        assert main(["verify", "--suite", "contraction", "--trials", "50"]) == 0

    def test_sandwich_suite_small(self):
        assert main(["verify", "--suite", "sandwich", "--trials", "10"]) == 0

    def test_unknown_suite(self):
        assert main(["verify", "--suite", "nope"]) == 2

    def test_negative_trials(self, capsys):
        assert main(["verify", "--suite", "total-variance", "--trials", "-1"]) == 2
        assert capsys.readouterr().err == "error: --trials must be at least 0, got -1\n"

    def test_run_suite_counts(self):
        passed, total, ok = run_suite("gap")
        assert ok and passed == total > 0


class TestOracleBuildCommand:
    def test_round_trip(self, tmp_path):
        mdp, _ = build_instance({"two_state": {"gamma": 0.9, "p": 0.375}})
        src = tmp_path / "m.json"
        src.write_text(json.dumps(mdp_to_dict(mdp)))
        out = tmp_path / "dyadic.json"
        assert main(["oracle-build", "--mdp", str(src), "--m", "8",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["m"] == 8
        counts = np.asarray(doc["counts"])
        assert counts.shape == (2, 1, 2)
        assert counts.sum(axis=2).tolist() == [[256], [256]]
        # 0.375 = 96/256 is exactly dyadic at m = 8
        assert doc["max_distortion"] == 0.0
        assert counts[0, 0].tolist() == [96, 160]


    def test_directory_as_destination_exits_2_naming_it(self, tmp_path, capsys):
        mdp, _ = build_instance({"two_state": {"gamma": 0.9, "p": 0.375}})
        src = tmp_path / "m.json"
        src.write_text(json.dumps(mdp_to_dict(mdp)))
        folder = tmp_path / "folder"
        folder.mkdir()
        assert main(["oracle-build", "--mdp", str(src), "--out", str(folder)]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(rf"error: {re.escape(str(folder))}: [^\n]+\n", err), err
        assert not any(folder.iterdir())

    @pytest.mark.parametrize("m", ["63", "70", "-1"])
    def test_m_outside_range_exit_code(self, tmp_path, capsys, m):
        mdp, _ = build_instance({"two_state": {"gamma": 0.9, "p": 0.375}})
        src = tmp_path / "m.json"
        src.write_text(json.dumps(mdp_to_dict(mdp)))
        out = tmp_path / "dyadic.json"
        assert main(["oracle-build", "--mdp", str(src), "--m", m, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: m must be an integer in [0, 62], got {m}\n"
        assert not out.exists()


# values each kind refuses; a tuple kind lists the values it allows
_REFUSED = {
    "number": ["1", True, None, [1], {}],
    "finite": ["1", True, None, [1], {}, float("nan"), float("inf"), float("-inf")],
    "integer": ["1", True, None, [1], {}, 1.5, 2.0],
    "integers": ["1", True, None, {}, [1.5], [True], [None]],
    "string": [1, True, None, [1], {}],
    "boolean": ["true", 1, None, [1], {}],
    "object": ["x", True, None, [1], 0],
    "any": [],
}
# values the estimator's kinds let through and EstimatorConfig's ranges refuse
_ESTIMATOR_RANGES = {
    "c1": [float("nan"), float("inf"), 0, -1],
    "c2": [float("nan"), float("-inf"), 0.0],
    "adversarial_scale": [float("nan"), float("inf"), 1],
    "mock_failure_mode": ["x"],
    "backend": ["x"],
    "phase_bits": ["x", True, [1], {}, 0, 1.5],
}
_REFUSALS = [
    (path + key, value, path + key + " must be ")
    for path, (kinds, _) in _SCHEMA.items() for key, kind in kinds.items()
    for value in (["magic", 3, True, None, [kind[0]], {}] if isinstance(kind, tuple)
                  else _REFUSED[kind])
] + [("estimator." + key, value, "estimator: ")
     for key in _SCHEMA["estimator."][0] for value in _ESTIMATOR_RANGES[key]]


def _with_entry(entry: str, value) -> dict:
    """fig_two_config with ``entry`` set to ``value``, in a block of its own
    when the entry is an instance source or belongs to one."""
    doc = fig_two_config()
    *blocks, key = entry.split(".")
    if blocks == ["instance"]:
        doc["instance"] = {}
    elif blocks[1:2] == ["two_state"]:
        doc["instance"] = {"two_state": {"gamma": 0.9, "p": 0.5}}
    target = doc
    for block in blocks:
        target = target.setdefault(block, {})
    target[key] = value
    return doc


class TestSchemaRefusals:
    def test_grid_covers_every_entry(self):
        entries = {path + key for path, (kinds, _) in _SCHEMA.items() for key in kinds}
        assert {entry for entry, _, _ in _REFUSALS} == entries

    @pytest.mark.parametrize("entry,value,message", _REFUSALS,
                             ids=[f"{e}={v!r}" for e, v, _ in _REFUSALS])
    def test_refused_value_exit_code(self, tmp_path, capsys, entry, value, message):
        cfg = write_config(tmp_path, _with_entry(entry, value))
        out = tmp_path / "r.json"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and re.search(re.escape("config.json: " + message),
                                                        err), err
        assert not out.exists()


def _generated(report):
    return report["instance_provenance"]["hard_instance"]


class TestConfigSchema:
    # every optional entry the schema accepts, at a value other than its
    # default, and how the run shows that it arrived
    OPTIONAL = {
        "solver.b": ("variance-reduced", 2.0, lambda r, cfg: r["params"]["b"] == 2.0),
        "solver.c": ("variance-reduced", 0.02, lambda r, cfg: r["params"]["c"] == 0.02),
        "solver.c_max": ("max-finding", 5.0, lambda r, cfg: r["params"]["c_max"] == 5.0),
        "solver.mode": ("sampled", "quantum_mean",
                        lambda r, cfg: r["params"]["mode"] == "quantum_mean"),
        "instance.hard_instance.c_alpha": ("max-finding", 8.0,
                                           lambda r, cfg: _generated(r)["c_alpha"] == 8.0),
        "instance.hard_instance.copies": ("max-finding", 2,
                                          lambda r, cfg: _generated(r)["copies"] == 2),
        "instance.hard_instance.large_arms": ("max-finding", [0],
                                              lambda r, cfg: _generated(r)["large_arms"] == [0]),
        "estimator.c1": ("max-finding", 2.0, lambda r, cfg: cfg.c1 == 2.0),
        "estimator.c2": ("max-finding", 3.0, lambda r, cfg: cfg.c2 == 3.0),
        "estimator.adversarial_scale": ("max-finding", 5.0,
                                        lambda r, cfg: cfg.adversarial_scale == 5.0),
        "estimator.mock_failure_mode": ("max-finding", "uniform_noise",
                                        lambda r, cfg: cfg.mock_failure_mode == "uniform_noise"),
        "estimator.backend": ("max-finding", "statevector",
                              lambda r, cfg: cfg.backend == "statevector"),
        "estimator.phase_bits": ("max-finding", 6, lambda r, cfg: cfg.phase_bits == 6),
        "diagnostics": ("variance-reduced", True,
                        lambda r, cfg: r["diagnostics"]["one_sided_ok"] is not None),
        "snapshots_csv": ("max-finding", "snaps.csv",
                          lambda r, cfg: Path("snaps.csv").read_text().startswith("epoch,")),
    }

    def test_every_optional_entry_is_covered(self):
        from qmdp.cli import _SCHEMA

        optional = {path + key for path, (kinds, required) in _SCHEMA.items()
                    for key in kinds
                    if key not in required and path != "instance."
                    and path + key + "." not in _SCHEMA}
        assert optional == set(self.OPTIONAL)

    @pytest.mark.parametrize("entry", sorted(OPTIONAL))
    def test_optional_entry_reaches_the_run(self, tmp_path, monkeypatch, entry):
        import qmdp.cli as cli_mod

        solver, value, arrived = self.OPTIONAL[entry]
        monkeypatch.chdir(tmp_path)
        doc = fig_two_config(eps=1.0, solver=solver)
        *blocks, key = entry.split(".")
        target = doc
        for block in blocks:
            target = target.setdefault(block, {})
        target[key] = value
        seen = []
        function = cli_mod._SOLVERS[solver][2]
        real = getattr(cli_mod, function)

        def spy(oracle, plan, diagnostics=False):
            seen.append(plan)
            return real(oracle, plan, diagnostics=diagnostics)

        monkeypatch.setattr(cli_mod, function, spy)
        out = tmp_path / "r.json"
        assert main(["solve", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 0
        assert len(seen) == 1 and arrived(json.loads(out.read_text()), seen[0].cfg)


class TestReadmeExamples:
    def test_every_json_config_in_the_readme_is_accepted(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        examples = re.findall(r"^```json\n(.*?)^```$", readme, flags=re.M | re.S)
        assert len(examples) >= 2
        for text in examples:
            doc = json.loads(text)
            validate_config(doc, source="README.md")
            build_instance(doc["instance"], source="README.md")


    def test_every_module_name_in_the_readme_resolves(self):
        # a backticked `module.name` of a qmdp module names something it defines;
        # a call such as `rng.random((n, reps))` is not such a name
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        modules = [info.name for info in pkgutil.iter_modules(qmdp.__path__)]
        assert len(modules) == 9
        names = set(re.findall(rf"`((?:{'|'.join(modules)})\.\w+(?:\.\w+)*)`", readme))
        missing = []
        for name in sorted(names):
            module, *attrs = name.split(".")
            owner = importlib.import_module(f"qmdp.{module}")
            for attr in attrs:
                owner = getattr(owner, attr, None)
            if owner is None:
                missing.append(name)
        assert len(names) >= 29 and not missing, missing


class TestSandwichSuccessHelper:
    def test_accepts_good_report_and_rejects_bad(self):
        doc = fig_two_config(eps=0.5)
        mdp, _ = build_instance(doc["instance"])
        from qmdp.cli import estimator_config, run_solver

        report = run_solver(mdp, doc["solver"], estimator_config(None), seed=3)
        assert sandwich_success(mdp, report, 0.5)
        report.v_hat = report.v_hat + 1.0  # above v*: must fail
        assert not sandwich_success(mdp, report, 0.5)
