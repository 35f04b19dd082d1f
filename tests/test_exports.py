"""Every name a qmdp module lists in ``__all__`` resolves on that module,
every qmdp module parses under the oldest Python it supports, every qmdp
attribute the traced benchmark wraps still exists, and a traced solve counts
the calls the benchmark's per-layer metrics assume."""

import ast
import importlib
import json
import pkgutil
from functools import reduce
from pathlib import Path

import pytest

import qmdp
from qmdp import cli
from qmdp.estimators import EstimatorConfig

MODULES = sorted(info.name for info in pkgutil.iter_modules(qmdp.__path__, "qmdp."))


def test_every_module_is_listed():
    assert "qmdp.solvers" in MODULES and "qmdp.qsim" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names {missing}, which {name} does not define"


@pytest.mark.parametrize("path", sorted(Path(qmdp.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_parses_as_python_3_11(path):
    # pyproject.toml declares requires-python >= 3.11.  This checks grammar
    # only: a library feature newer than 3.11 (say, a regex construct the
    # 3.11 re module refuses) fails at run time and passes here.
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 11))


def _perfbench(monkeypatch, name):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    return importlib.import_module(name)


def test_perfbench_targets_resolve(monkeypatch):
    # a rename of a wrapped function fails here, not only in the traced run
    layers = _perfbench(monkeypatch, "layers")
    missing = [f"qmdp.{module}.{attr}" for module, attr, *_ in layers.TARGETS
               if reduce(lambda owner, name: getattr(owner, name, None), attr.split("."),
                         importlib.import_module(f"qmdp.{module}")) is None]
    assert len(layers.TARGETS) > 20 and not missing, missing


def test_traced_statevector_argmax_calls(monkeypatch):
    # qsim.argmax.us_per_call is per (sweep, state): max_finding_vi must call
    # simulate_argmax once for each, and tracing must not change the report
    layers, tracer = _perfbench(monkeypatch, "layers"), _perfbench(monkeypatch, "tracer")
    mdp, _ = cli.build_instance({"hard_instance": {"gamma": 0.9, "num_actions": 8, "eps": 1.0,
                                                   "large_arms": [3]}})
    solve = ({"name": "max-finding", "eps": 1.0, "delta": 0.1},
             EstimatorConfig(backend="statevector"), 1)
    untraced = cli.run_solver(mdp, *solve)
    with tracer.Tracer() as t:
        layers.install(t)
        traced = cli.run_solver(mdp, *solve)
    argmax = t.names.index("qsim.simulate_argmax")
    calls = sum(name_id == argmax for name_id, *_ in t.spans)
    assert calls == mdp.num_states * traced.params["iters"] > 0
    assert json.dumps(traced.to_dict()) == json.dumps(untraced.to_dict())


@pytest.mark.parametrize("name,function", [("variance-reduced", "variance_reduced_vi"),
                                           ("max-finding", "max_finding_vi"),
                                           ("sampled", "sampled_vi")])
def test_traced_solve_calls_its_solver_once(monkeypatch, name, function):
    # the CLI must look its solvers up at each solve: one bound at import
    # would run the unwrapped function and leave no span
    layers, tracer = _perfbench(monkeypatch, "layers"), _perfbench(monkeypatch, "tracer")
    mdp, _ = cli.build_instance({"hard_instance": {"gamma": 0.9, "num_actions": 2, "eps": 1.0,
                                                   "large_arms": [1]}})
    with tracer.Tracer() as t:
        layers.install(t)
        cli.run_solver(mdp, {"name": name, "eps": 1.0, "delta": 0.1}, EstimatorConfig(), 1)
    spans = [t.names[name_id] for name_id, *_ in t.spans]
    assert [s for s in spans if s.startswith("solvers.")] == [f"solvers.{function}"]
    assert spans.count("cli.run_solver") == 1
