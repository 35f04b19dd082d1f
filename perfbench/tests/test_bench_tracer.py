"""The tracer records nested spans and puts every wrapped function back."""

import sys
import types

import layers
from tracer import Tracer


def _module():
    mod = types.ModuleType("fake")
    exec(
        "def inner(x):\n"
        "    return x + 1\n"
        "def outer(x):\n"
        "    return inner(x) * 2\n",
        mod.__dict__,
    )
    return mod


def test_spans_nest_and_self_time_excludes_children():
    mod = _module()
    alias = types.ModuleType("alias")
    alias.inner = mod.inner  # bound under the same name elsewhere
    counted = []
    with Tracer() as tracer:
        assert tracer.wrap([mod, alias], "inner", "fake.inner", "fake") == 2
        tracer.wrap([mod], "outer", "fake.outer", "fake",
                    count=lambda a, k, r, c: counted.append(r))
        assert mod.outer(1) == 4
        assert alias.inner(1) == 2
    names = [tracer.names[s[0]] for s in tracer.spans]
    assert names == ["fake.outer", "fake.inner", "fake.inner"]
    outer, inner, top_inner = tracer.spans
    assert outer[3] == -1 and inner[3] == 0 and top_inner[3] == -1
    own = tracer.self_ns()
    assert own[0] == (outer[2] - outer[1]) - (inner[2] - inner[1])
    assert own[1] == inner[2] - inner[1]
    assert counted == [4]


def test_restore_puts_originals_back_after_error():
    mod = _module()
    original = mod.inner
    tracer = Tracer()
    try:
        with tracer:
            tracer.wrap([mod], "inner", "fake.inner", "fake")
            assert mod.inner is not original
            raise KeyError("boom")
    except KeyError:
        pass
    assert mod.inner is original


def _qmdp_bindings():
    import qmdp  # noqa: F401
    from qmdp.oracle import QueryLedger, SampleOracle

    out = {}
    for name, mod in sys.modules.items():
        if mod is not None and (name == "qmdp" or name.startswith("qmdp.")):
            out.update({(name, k): v for k, v in vars(mod).items() if callable(v)})
    for cls in (SampleOracle, QueryLedger):
        out.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return out


def test_qmdp_targets_are_wrapped_then_restored():
    from qmdp import cli, mdp, oracle, solvers
    from qmdp.estimators import EstimatorConfig
    from qmdp.hard_instances import HardInstanceSpec, multi_arm_instance

    before = _qmdp_bindings()
    instance = multi_arm_instance(HardInstanceSpec(gamma=0.9, num_actions=4, eps=0.5,
                                                   large_arms=frozenset({1})))
    with Tracer() as tracer:
        layers.install(tracer)
        assert solvers.batch_bounded_mock.__wrapped__ is not None
        assert oracle.derived_rng.__wrapped__ is not None
        assert mdp.bellman_backup.__wrapped__ is not None
        report = cli.run_solver(instance, {"name": "max-finding", "eps": 1.0, "delta": 0.1},
                                EstimatorConfig(), 3)
        assert cli.sandwich_success(instance, report, 1.0) in (True, False)
    after = _qmdp_bindings()
    assert before.keys() == after.keys()
    assert all(before[k] is after[k] for k in before)
    called = {tracer.names[s[0]] for s in tracer.spans}
    assert {"cli.run_solver", "solvers.max_finding_vi", "estimators.batch_bounded_mock",
            "rng.derived_rng", "mdp.exact_value_iteration", "mdp.bellman_backup"} <= called
    metrics = layers.metrics(tracer, 0, 1.0, 1.0)
    assert metrics["solvers.inner_iterations"] == report.params["iters"]
    assert metrics["oracle.ledger.phase_keys"] == len(report.ledger.phases)
    assert metrics["qsim.ae_sample.calls"] == 0
