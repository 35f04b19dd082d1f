"""Tests for the command-line harness: configs, reports, sweeps, suites."""

import csv
import json
import re

import numpy as np
import pytest

from qmdp.cli import (
    build_instance,
    fit_power_law,
    load_config,
    main,
    run_suite,
    run_sweep,
    sandwich_success,
    validate_config,
)
from qmdp.errors import ConfigError, InternalError
from qmdp.mdp import mdp_to_dict
from qmdp.rng import derived_rng


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
    ], ids=["top-level", "instance", "solver", "two_state", "hard_instance"])
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
        assert re.search(r"^error: classical sample count \d{21} per estimate exceeds 2\^63-1$",
                         captured.err.strip()), captured.err
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
        assert re.fullmatch(r"error: Hoeffding sample count for accuracy \S+ is not finite\n",
                            err), err
        assert not out.exists()

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
        (lambda d: d["solver"].update(mode=2), r"solver\.mode must be a string, got 2"),
        (lambda d: d.update(snapshots_csv=True), r": snapshots_csv must be a string, got True"),
        (lambda d: d.update(snapshots_csv=1), r": snapshots_csv must be a string, got 1"),
        (lambda d: d.update(diagnostics="no"), r": diagnostics must be a boolean, got 'no'"),
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

    def test_internal_error_exit_code(self, tmp_path, monkeypatch):
        import qmdp.cli as cli_mod

        def boom(*args, **kwargs):
            raise InternalError("synthetic")

        monkeypatch.setattr(cli_mod, "run_solver", boom)
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


    @pytest.mark.parametrize("m", ["63", "70", "-1"])
    def test_m_outside_range_exit_code(self, tmp_path, capsys, m):
        mdp, _ = build_instance({"two_state": {"gamma": 0.9, "p": 0.375}})
        src = tmp_path / "m.json"
        src.write_text(json.dumps(mdp_to_dict(mdp)))
        out = tmp_path / "dyadic.json"
        assert main(["oracle-build", "--mdp", str(src), "--m", m, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: m must be an integer in [0, 62], got {m}\n"
        assert not out.exists()


class TestSandwichSuccessHelper:
    def test_accepts_good_report_and_rejects_bad(self):
        doc = fig_two_config(eps=0.5)
        mdp, _ = build_instance(doc["instance"])
        from qmdp.cli import estimator_config, run_solver

        report = run_solver(mdp, doc["solver"], estimator_config(None), seed=3)
        assert sandwich_success(mdp, report, 0.5)
        report.v_hat = report.v_hat + 1.0  # above v*: must fail
        assert not sandwich_success(mdp, report, 0.5)
