"""Acceptance suite.

One test per numbered criterion; each prints a single PASS/FAIL line with
the measured quantities.  Criteria 6, 7 and 8 pin scaling-exponent windows
on the polynomial part of the query totals.  The paper's bounds are O~
bounds, and the charge formulas carry the hidden polylog factors openly
(the variance-bounded estimator's log2^2(sigma/eps), the epoch count, the
median-amplification repetitions, the max-finding probe budget's
log2(1/f)); on four-point sweeps a power law fitted to raw totals absorbs
them into its slope (+0.07 to +0.55).  These criteria therefore divide each
point's total by the explicit non-polynomial factors of its own cost
formula (``_explicit_factors``) before fitting, assert the stated windows on
that divided slope, and print the raw slope next to it.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from qmdp.cli import (
    _apply_axis,
    build_instance,
    fit_power_law,
    main,
    run_solver,
    run_sweep,
    sandwich_success,
)
from qmdp.estimators import EstimatorConfig, batch_bounded_mock
from qmdp.hard_instances import (
    HardInstanceSpec,
    closed_form_arm_value,
    multi_arm_instance,
    two_state_chain,
    value_gap,
)
from qmdp.mdp import Mdp, exact_value_iteration, total_variance_norm
from qmdp.oracle import SampleOracle, quantize_mdp
from qmdp.qsim import (
    median_amplitude_estimates,
    single_run_error_radius,
)
from qmdp.rng import derived_rng
from qmdp.solvers import (
    MaxFindingParams,
    Plan,
    SampledParams,
    VarianceReducedParams,
    _bounded,
    max_finding_vi,
    sampled_vi,
    variance_reduced_vi,
)

RUNS_PER_SETTING = 200
SETTINGS = [(2, frozenset({1}), 0.3), (2, frozenset({1}), 1.0),
            (8, frozenset({3}), 0.3), (8, frozenset({3}), 1.0)]


def _report_line(num, name, ok, detail):
    print(f"ACCEPTANCE {num:>2} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def fig_two(num_actions, arms, eps):
    return multi_arm_instance(
        HardInstanceSpec(gamma=0.9, num_actions=num_actions, eps=eps, large_arms=arms))


@pytest.fixture(scope="module")
def solver_runs():
    """200 seeded runs per solver per setting, shared by criteria 3-5."""
    results = {}
    for a_n, arms, eps in SETTINGS:
        mdp = fig_two(a_n, arms, eps)
        vr_plan = Plan.of(mdp, VarianceReducedParams.for_mdp(mdp, eps, 0.1))
        mf_plan = Plan.of(mdp, MaxFindingParams.for_mdp(mdp, eps, 0.1))
        vr, mf = [], []
        for seed in range(RUNS_PER_SETTING):
            r1 = variance_reduced_vi(SampleOracle(mdp, seed), vr_plan)
            r2 = max_finding_vi(SampleOracle(mdp, 10_000 + seed), mf_plan)
            vr.append((sandwich_success(mdp, r1, eps), r1.monotone_iterates_ok))
            mf.append((sandwich_success(mdp, r2, eps), r2.monotone_iterates_ok))
        results[(a_n, eps)] = {"vr": vr, "mf": mf}
    return results


def test_criterion_01_closed_form_ground_truth():
    """200 hard instances match v*(source) = 1/(1 - gamma p) within 1e-8."""
    checked = 0
    worst = 0.0
    for gamma in (0.9, 0.95, 0.99):
        horizon = 1.0 / (1.0 - gamma)
        p0 = 1.0 - 1.0 / horizon
        ps = [0.0, 0.25, 0.5, 0.75, p0]
        for eps in (0.1, 0.5, 1.0):
            if eps < horizon / 9.0:
                ps.append(p0 + 9.0 * eps / horizon**2)
        for p in ps:
            v, _, _ = exact_value_iteration(two_state_chain(gamma, p), tol=1e-9)
            worst = max(worst, abs(v[0] - closed_form_arm_value(gamma, p)),
                        abs(v[1]))
            checked += 1
    # top up to 200 instances with random return probabilities
    i = 0
    while checked < 200:
        rng = derived_rng(101, "cf", i)
        gamma = float(rng.choice([0.9, 0.95, 0.99]))
        p = float(rng.random())
        v, _, _ = exact_value_iteration(two_state_chain(gamma, p), tol=1e-9)
        worst = max(worst, abs(v[0] - closed_form_arm_value(gamma, p)))
        checked += 1
        i += 1
    ok = worst <= 1e-8
    _report_line(1, "closed-form ground truth", ok,
                 f"{checked} instances, worst |error| {worst:.2e}")
    assert ok


def test_criterion_02_total_variance_bound():
    """1000 random MDPs x 5 policies satisfy the sqrt(2) * horizon^1.5 bound."""
    violations = 0
    worst_margin = np.inf
    for i in range(1000):
        rng = derived_rng(102, "tv", i)
        s = int(rng.integers(1, 9))
        a = int(rng.integers(1, 9))
        mdp = Mdp(transitions=rng.dirichlet(np.ones(s), size=(s, a)),
                  rewards=rng.random((s, a)),
                  discount=float(rng.choice([0.9, 0.95, 0.99])))
        bound = math.sqrt(2.0) * mdp.effective_horizon**1.5
        for _ in range(5):
            pi = rng.integers(a, size=s)
            norm = total_variance_norm(mdp, pi)
            worst_margin = min(worst_margin, bound - norm)
            violations += norm > bound + 1e-9
    ok = violations == 0
    _report_line(2, "total-variance bound", ok,
                 f"5000 checks, violations {violations}, "
                 f"tightest margin {worst_margin:.3g}")
    assert ok


def test_criterion_03_sandwich_variance_reduced(solver_runs):
    """Sandwich (v and q) holds in >= 90% of 200 runs per setting."""
    fractions = {}
    for (a_n, eps), runs in solver_runs.items():
        fractions[(a_n, eps)] = np.mean([ok for ok, _ in runs["vr"]])
    ok = all(f >= 0.9 for f in fractions.values())
    _report_line(3, "sandwich, variance-reduced", ok,
                 ", ".join(f"A={a} eps={e}: {f:.3f}" for (a, e), f in fractions.items()))
    assert ok, fractions


def test_criterion_04_sandwich_max_finding(solver_runs):
    """Value sandwich holds in >= 90% of 200 runs per setting."""
    fractions = {}
    for (a_n, eps), runs in solver_runs.items():
        fractions[(a_n, eps)] = np.mean([ok for ok, _ in runs["mf"]])
    ok = all(f >= 0.9 for f in fractions.values())
    _report_line(4, "sandwich, max-finding", ok,
                 ", ".join(f"A={a} eps={e}: {f:.3f}" for (a, e), f in fractions.items()))
    assert ok, fractions


def test_criterion_05_monotone_iterates(solver_runs):
    """Iterates are nondecreasing on 100% of runs, zero tolerance."""
    total = 0
    good = 0
    for runs in solver_runs.values():
        for key in ("vr", "mf"):
            for _, monotone in runs[key]:
                total += 1
                good += bool(monotone)
    # spot-check stored snapshot sequences as well
    mdp = fig_two(4, frozenset({2}), 0.5)
    plan = Plan.of(mdp, VarianceReducedParams.for_mdp(mdp, 0.5, 0.1))
    for seed in range(10):
        report = variance_reduced_vi(SampleOracle(mdp, seed), plan, diagnostics=True)
        vs = [v for _, _, v, _ in report.snapshots]
        assert all(np.all(b >= a) for a, b in zip(vs, vs[1:]))
    ok = good == total
    _report_line(5, "monotone iterates", ok, f"{good}/{total} runs monotone")
    assert ok


def _sweep_config(solver, instance_eps=0.5, a_n=8, arms=(3,), mode=None):
    doc = {
        "instance": {"hard_instance": {"gamma": 0.9, "num_actions": a_n,
                                       "eps": instance_eps, "large_arms": list(arms)}},
        "solver": {"name": solver, "eps": 0.5, "delta": 0.1},
        "seed": 7000,
    }
    if mode:
        doc["solver"]["mode"] = mode
    return doc


SWEEP_HORIZON = 10.0  # 1 / (1 - gamma) at the sweep configs' gamma 0.9


def _reps(f):
    # median-amplification repetitions boosting a 1/3-failure estimate to f
    return 2 * math.ceil(math.log2(3.0 / f)) + 1


def _explicit_factors(report, horizon, eps, delta, mdp):
    """Product of the explicit non-polynomial factors in a solve's query total.

    Closed forms of (horizon, eps, delta, S, A) and the solver constants c
    and c_max.  The schedule they imply (K, L, f, iters) is first asserted
    equal to the report's params and to the params' ``schedule`` on mdp, so
    a schedule that grows in a way the closed forms do not predict fails
    here instead of being divided out.

    - variance-reduced: line 9 carries most queries, K * reps(f) * ratio *
      log2^2(ratio) per row with ratio = sigma/err = horizon^1.5 / (c eps);
      divisor K * reps(f) * log2^2(ratio).
    - max-finding: the argmax probes carry most queries, L * S * c_max *
      sqrt(A) * log2(1/f) * reps(f) * 4 horizon^2 / eps with
      L ~ horizon * ceil(ln(4 horizon / eps)); divisor
      ceil(ln(4 horizon / eps)) * reps(f) * log2(1/f).
    - classical: iters * S * A * 8 horizon^4 ln(2/delta_i) / eps^2 with
      iters ~ horizon * ln(4 horizon / eps); divisor
      ln(4 horizon / eps) * ln(2/delta_i).
    """
    p = report.params
    s_n, a_n = mdp.num_states, mdp.num_actions
    log_term = math.log(4.0 * horizon / eps)
    l = math.ceil(horizon * math.ceil(log_term) + 1.0)
    params_class = {"variance-reduced": VarianceReducedParams,
                    "max-finding": MaxFindingParams}.get(report.solver, SampledParams)
    lines = params_class(**p).schedule(mdp)

    def sweeps(line):  # the sweeps (or a VR epoch's steps) a line's estimates cover
        return line.estimates // (s_n * a_n)

    if report.solver == "variance-reduced":
        k = max(1, math.ceil(math.log2(horizon / eps)))
        f = delta / (4.0 * k * l * s_n * a_n)
        assert (p["num_epochs"], p["iters_per_epoch"]) == (k, l), p
        assert math.isclose(p["est_failure_prob"], f, rel_tol=1e-12), (p, f)
        assert max(epoch for _, epoch in lines) == k, sorted(lines)
        assert all(sweeps(lines["line13", epoch]) == l for epoch in range(1, k + 1))
        assert all(math.isclose(line.f, f, rel_tol=1e-12) for line in lines.values())
        ratio = horizon**1.5 / (p["c"] * eps)
        return k * _reps(f) * math.log2(ratio) ** 2
    if report.solver == "max-finding":
        f = delta / (4.0 * p["c_max"] * l * s_n * a_n**1.5 * math.log2(1.0 / delta))
        assert p["iters"] == l, p
        assert math.isclose(p["est_failure_prob"], f, rel_tol=1e-12), (p, f)
        assert sweeps(lines["line10", 1]) == l and lines["argmax", 1].estimates == l * s_n
        assert all(math.isclose(line.f, f, rel_tol=1e-12) for line in lines.values())
        return math.ceil(log_term) * _reps(f) * math.log2(1.0 / f)
    assert report.solver == "sampled-classical", report.solver
    iters = math.ceil(horizon * log_term) + 1
    assert p["iters"] == iters, p
    assert sweeps(lines["mean", 1]) == iters, lines
    assert math.isclose(lines["mean", 1].f, delta / (iters * s_n * a_n), rel_tol=1e-12), lines
    return log_term * math.log(2.0 * iters * s_n * a_n / delta)


def _sweep_slopes(config, axis, values, seeds):
    """(raw, divided) fitted slopes of ``run_sweep`` over eps or num_actions.

    The divided fit takes each point's median total over the factors of
    ``_explicit_factors``, checked against one solve at the sweep's first
    seed; the divisor depends only on the point, not on the seed.
    """
    _, fit = run_sweep(config, axis, values, seeds)
    xs, divided = [], []
    for value, (x, median) in zip(values, fit["points"]):
        doc = _apply_axis(config, axis, value)
        mdp, _ = build_instance(doc["instance"])
        solver = doc["solver"]
        report = run_solver(mdp, solver, EstimatorConfig(), doc["seed"])
        xs.append(x)
        divided.append(median / _explicit_factors(
            report, SWEEP_HORIZON, solver["eps"], solver["delta"], mdp))
    slope, _ = fit_power_law(xs, divided)
    return fit["slope"], slope


def _slope_detail(name, slopes, want):
    raw, divided = slopes
    return f"{name} {divided:.3f} (raw {raw:.3f}; want {want})"


def test_criterion_06_eps_scaling_separation():
    """eps sweep {0.4, 0.2, 0.1, 0.05}, 20 seeds: quantum solvers ~1/eps,
    classical baseline ~1/eps^2.

    Asserted on the slopes after dividing out the explicit log factors
    (``_explicit_factors``): the variance-bounded charge's log2^2(sigma/eps),
    the epoch count ceil(log2(horizon/eps)) and the reps(f) amplification
    for variance-reduced; ceil(ln(4 horizon/eps)), reps(f) and the probe
    budget's log2(1/f) for max-finding; ln(4 horizon/eps) ln(2/delta_i) for
    the classical baseline.  The raw slopes (~1.44, ~1.16, ~2.19) carry
    those factors and are printed alongside.
    """
    eps_values = [0.4, 0.2, 0.1, 0.05]
    vr = _sweep_slopes(_sweep_config("variance-reduced"), "eps", eps_values, 20)
    mf = _sweep_slopes(_sweep_config("max-finding"), "eps", eps_values, 20)
    cl = _sweep_slopes(_sweep_config("sampled", mode="classical"), "eps",
                       eps_values, 20)
    ok_vr = 0.85 <= vr[1] <= 1.15
    ok_mf = 0.85 <= mf[1] <= 1.15
    ok_cl = 1.8 <= cl[1] <= 2.2
    ok = ok_vr and ok_mf and ok_cl
    detail = ", ".join([_slope_detail("variance-reduced", vr, "1.0+/-0.15"),
                        _slope_detail("max-finding", mf, "1.0+/-0.15"),
                        _slope_detail("classical", cl, "2.0+/-0.2")])
    _report_line(6, "eps-scaling separation", ok, detail)
    assert ok, detail


def test_criterion_07_action_scaling_separation():
    """A sweep {4, 16, 64, 256} at gamma 0.9, eps 0.5: max-finding ~sqrt(A),
    variance-reduced ~A.

    Asserted on the slopes after dividing out the explicit log factors
    (``_explicit_factors``): f shrinks with A, so reps(f) and the probe
    budget's log2(1/f) grow with A and lift the raw slopes (~1.07 and
    ~0.71, printed alongside).  The max-finding divided slope still
    includes line 10, one estimate per (s, a) per sweep, whose share of the
    total grows linearly in A.  Charges are formula-level and identical
    across seeds, so 5 seeds per point suffice.
    """
    a_values = [4, 16, 64, 256]
    cfg_vr = _sweep_config("variance-reduced", a_n=4, arms=(1,))
    cfg_mf = _sweep_config("max-finding", a_n=4, arms=(1,))
    vr = _sweep_slopes(cfg_vr, "num_actions", a_values, 5)
    mf = _sweep_slopes(cfg_mf, "num_actions", a_values, 5)
    ok_vr = 0.9 <= vr[1] <= 1.1
    ok_mf = 0.4 <= mf[1] <= 0.65
    ok = ok_vr and ok_mf
    detail = ", ".join([_slope_detail("variance-reduced", vr, "[0.9, 1.1]"),
                        _slope_detail("max-finding", mf, "[0.4, 0.65]")])
    _report_line(7, "action-scaling separation", ok, detail)
    assert ok, detail


def test_criterion_08_horizon_scaling():
    """Horizon sweep 10..80 with eps = 0.05/sqrt(horizon): variance-reduced
    in [1.8, 2.3]; classical baseline >= 3.5; quantum at least 1.3 below.

    Asserted on the slopes after dividing out the explicit log factors
    (``_explicit_factors``, the same divisors as criterion 6); the
    variance-bounded charge's log2^2 factor and the epoch and amplification
    growth put the raw variance-reduced slope at ~2.55, printed alongside.
    Charges are formula-level, so 5 seeds per point suffice.
    """
    horizons = [10.0, 20.0, 40.0, 80.0]
    delta = 0.1
    raw = {"quantum": [], "classical": []}
    divided = {"quantum": [], "classical": []}
    for horizon in horizons:
        gamma = 1.0 - 1.0 / horizon
        eps = 0.05 / math.sqrt(horizon)
        mdp = multi_arm_instance(HardInstanceSpec(
            gamma=gamma, num_actions=2, eps=eps, large_arms=frozenset({1})))
        quantum = Plan.of(mdp, VarianceReducedParams.for_mdp(mdp, eps, delta))
        classical = Plan.of(mdp, SampledParams.for_mdp(mdp, eps, delta, mode="classical"))
        reports = {
            "quantum": [variance_reduced_vi(SampleOracle(mdp, 200 + i), quantum)
                        for i in range(5)],
            "classical": [sampled_vi(SampleOracle(mdp, 300 + i), classical) for i in range(5)],
        }
        for key, runs in reports.items():
            median = np.median([r.ledger.total for r in runs])
            raw[key].append(median)
            divided[key].append(median / _explicit_factors(runs[0], horizon, eps, delta, mdp))
    q = (fit_power_law(horizons, raw["quantum"])[0],
         fit_power_law(horizons, divided["quantum"])[0])
    c = (fit_power_law(horizons, raw["classical"])[0],
         fit_power_law(horizons, divided["classical"])[0])
    ok_q = 1.8 <= q[1] <= 2.3
    ok_c = c[1] >= 3.5
    ok_sep = q[1] <= c[1] - 1.3
    ok = ok_q and ok_c and ok_sep
    detail = ", ".join([
        _slope_detail("variance-reduced", q, "[1.8, 2.3]"),
        _slope_detail("classical", c, ">= 3.5"),
        f"separation {c[1] - q[1]:.2f} (raw {c[0] - q[0]:.2f}; want >= 1.3)"])
    _report_line(8, "horizon scaling", ok, detail)
    assert ok, detail


def test_criterion_09_statevector_soundness():
    """Amplitude-estimation backend: single-run radius holds with frequency
    >= 0.81 at t=10, and the median wrapper at delta 0.05 succeeds in >= 95%
    of trials."""
    single_ok = {}
    for p in (0.1, 0.3, 0.7):
        rng = derived_rng(109, "single", int(p * 10))
        draws = median_amplitude_estimates([p] * 2000, 10, 1, rng)  # single runs
        radius = single_run_error_radius(p, 10)
        single_ok[p] = float(np.mean(np.abs(draws - p) <= radius))

    # powering wrapper through batch range-bounded estimates of Bernoulli rows,
    # each on its own call stream, whose entry (0, 0) draws first
    delta = 0.05
    est_cfg = EstimatorConfig(backend="statevector", phase_bits=10)
    eps = 0.005  # above the worst-case t=10 radius of ~0.0031
    wrapper_ok = {}
    for p in (0.1, 0.3, 0.7):
        trans = np.array([[[1.0 - p, p]], [[0.0, 1.0]]])
        mdp = Mdp(transitions=trans, rewards=np.zeros((2, 1)), discount=0.9)
        oracle = SampleOracle(mdp, 110)
        line = _bounded(mdp, est_cfg, 1, 1.0, eps, delta)
        hits = 0
        for i in range(2000):
            est, _, _ = batch_bounded_mock(oracle, np.array([0.0, 1.0]), line, est_cfg,
                                           derived_rng(110, "call", i), "wrapper")
            hits += bool(abs(est[0, 0] - p) < eps)
        wrapper_ok[p] = hits / 2000
    # and the bare median wrapper from the simulator layer: 91 runs, 18 per
    # halving of delta = 0.05 and one more, as a median takes an odd count
    radius = single_run_error_radius(0.3, 10)
    med_hits = 0
    for i in range(2000):
        rng = derived_rng(109, "median", i)
        med_hits += abs(median_amplitude_estimates([0.3], 10, 91, rng)[0] - 0.3) <= radius
    med_rate = med_hits / 2000

    ok = (all(v >= 0.81 for v in single_ok.values())
          and all(v >= 0.95 for v in wrapper_ok.values())
          and med_rate >= 0.95)
    _report_line(9, "statevector soundness", ok,
                 f"single-run {single_ok}, wrapper {wrapper_ok}, median {med_rate:.3f}")
    assert ok


def test_criterion_10_dyadic_oracle_exactness():
    """100 random dyadic MDPs at m=10: amplitudes square back to the exact
    probabilities and the preimage-count identity holds exactly."""
    from qmdp.oracle import reversible_successor_map

    for i in range(100):
        rng = derived_rng(110, "dyadic", i)
        s = int(rng.integers(1, 6))
        a = int(rng.integers(1, 4))
        total = 1 << 10
        counts = np.zeros((s, a, s), dtype=np.int64)
        for si in range(s):
            for ai in range(a):
                cuts = np.sort(rng.integers(0, total + 1, size=s - 1))
                counts[si, ai] = np.diff(np.concatenate(([0], cuts, [total])))
        mdp = Mdp(transitions=counts / total, rewards=np.zeros((s, a)), discount=0.9)
        dyadic = quantize_mdp(mdp, m=10)
        assert dyadic.max_distortion == 0.0
        for si in range(s):
            for ai in range(a):
                assert sum(dyadic.probability_exact(si, ai, t) for t in range(s)) == \
                    Fraction(1)
                for t in range(s):
                    assert dyadic.probability_exact(si, ai, t) == \
                        Fraction(int(counts[si, ai, t]), total)
                mapping = reversible_successor_map(dyadic.row(si, ai))
                np.testing.assert_array_equal(
                    np.bincount(mapping, minlength=s), counts[si, ai])
    _report_line(10, "dyadic oracle exactness", True, "100 MDPs exact")


def test_criterion_11_gap_construction():
    """Gap >= 2 eps across the grid at the default constant; the smaller
    constant's shortfall is pinned at 0.8718."""
    grid_ok = True
    for gamma in (0.9, 0.95, 0.99):
        horizon = 1.0 / (1.0 - gamma)
        for eps in (0.1, 0.5, 1.0):
            if eps < horizon / 9.0:
                grid_ok &= value_gap(gamma, eps, 9.0) >= 2.0 * eps
    small = value_gap(0.9, 1.0, 3.0)
    pin_ok = abs(small - 0.8718) <= 1e-3 and small < 2.0
    ok = grid_ok and pin_ok
    _report_line(11, "gap construction", ok,
                 f"grid ok {grid_ok}, constant-3 gap {small:.4f} < 2 eps")
    assert ok


def test_criterion_12_report_determinism(tmp_path):
    """Rerunning solve with the same config and seed is byte-identical
    modulo the timestamp field."""
    config = {
        "instance": {"hard_instance": {"gamma": 0.9, "num_actions": 4, "eps": 0.5,
                                       "large_arms": [2]}},
        "solver": {"name": "variance-reduced", "eps": 0.5, "delta": 0.1},
        "seed": 987,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(["solve", "--config", str(cfg_path), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        doc.pop("timestamp")
        outs.append(json.dumps(doc, sort_keys=True))
    ok = outs[0] == outs[1]
    _report_line(12, "report determinism", ok, "byte-identical modulo timestamp")
    assert ok
