"""Sampled MDP solvers over the estimator layer.

``variance_reduced_vi`` is the epoch solver: per epoch it anchors the
expensive mean estimates once (variance reduction), lets the per-step error
scale with an estimated per-row standard deviation (total variance), and
keeps iterates monotone with one-sided (down-shifted) estimates plus
keep-the-better-iterate updates, which is what upgrades an accurate value
function into an equally accurate policy.

``max_finding_vi`` trades the variance machinery for quantum maximum finding
over a lazily-estimated Q row per state, buying a sqrt(A) query dependence at
the cost of re-estimating every row entry each sweep (nested query charging:
every max-finding probe pays the full per-entry estimation cost, because the
value oracle must be presented as a fixed unitary during the search).

``sampled_vi`` is the plain sampled Bellman recursion used as the classical
(or naively quantized) baseline; it reproduces only the value-accuracy
guarantee, not the policy guarantee.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import PreconditionError
from .estimators import (
    DEFAULT_CONFIG,
    BACKEND_STATEVECTOR,
    EstimatorConfig,
    batch_bounded_mock,
    batch_variance_mock,
    bounded_mean_charge,
    hoeffding_sample_count,
    mock_rows,
)
from .mdp import Mdp, expected_next_value, greedy, successor_variance
from .oracle import QueryLedger, SampleOracle
from .qsim import DEFAULT_C_MAX, argmax_query_budget, simulate_argmax
from .rng import KeyTemplate, bulk_passes, first_draws

__all__ = [
    "VarianceReducedParams",
    "MaxFindingParams",
    "SolveReport",
    "variance_reduced_vi",
    "max_finding_vi",
    "sampled_vi",
    "mock_argmax_rows",
]

_FUZZ = 1e-9
# A mock estimate's flags and noise take 2*S*A words of its stream.  Up to
# BULK_STREAM_WORDS they are drawn ahead in bulk Philox passes; a longer
# stream costs more in a pass than its own Generator does.
BULK_STREAM_WORDS = 128


def _ceil_fuzz(x: float) -> int:
    # absorbs float fuzz in quantities like 1/(1-0.9) before taking ceilings
    return int(math.ceil(x - _FUZZ))


def _derived_iterations(horizon: float, eps: float) -> int:
    # horizon * ceil(ln(4*horizon/eps)) + 1, rounded up to an integer count
    return _ceil_fuzz(horizon * _ceil_fuzz(math.log(4.0 * horizon / eps)) + 1.0)


def _check_eps_delta(eps: float, delta: float, eps_max: float, bound: str) -> None:
    if not 0.0 < eps <= eps_max + _FUZZ:
        raise PreconditionError(f"eps must lie in (0, {bound}] = (0, {eps_max:.6g}], got {eps}")
    if not 0.0 < delta < 1.0:
        raise PreconditionError(f"delta must be in (0, 1), got {delta}")


def _failure_prob(f: float) -> float:
    if not 0.0 < f < 1.0:
        raise PreconditionError(f"derived per-estimate failure probability {f} not in (0, 1)")
    return f


def mock_argmax_rows(q: np.ndarray, f: float, u: np.ndarray,
                     wrong: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Contract-mock quantum maximum finding over each row of q (S, A): the
    row argmax (lowest index on ties), or, where the row's uniform u < f and
    A > 1, its index ``wrong`` (drawn below A-1) mapped onto the other A-1
    entries.  Returns (index, failed) arrays."""
    best = np.argmax(q, axis=1)
    failed = (u < f) & (q.shape[1] > 1)
    return np.where(failed, wrong + (wrong >= best), best), failed


def _mock_argmax_draws(oracle: SampleOracle, label: str, sweeps: int, s_n: int, a_n: int):
    """Yield the mock-argmax draws (u, wrong), one (S,) pair per sweep
    l = 1..sweeps, of the streams (label, l, s, "argmax"): each stream's
    ``random()`` and then ``integers(max(A-1, 1))``, whatever the outcome.
    Whole sweeps are drawn per ``rng.bulk_passes`` pass, and a stream that
    ``first_draws`` replays is re-keyed on the oracle from its digest."""
    keys = KeyTemplate((label, range(1, sweeps + 1), range(s_n), "argmax"))
    for _, digests, words in bulk_passes(oracle.seed, keys, 2, group=s_n):
        u, wrong = first_draws(words, max(a_n - 1, 1),
                               lambda i: oracle.keyed_rng(digests[16 * i:16 * i + 16]))
        yield from zip(u.reshape(-1, s_n), wrong.reshape(-1, s_n))


@dataclass(frozen=True)
class VarianceReducedParams:
    """Inputs and derived schedule of the epoch solver."""

    eps: float
    delta: float
    b: float = 1.0
    c: float = 0.01
    num_epochs: int = 0  # K, derived
    iters_per_epoch: int = 0  # L, derived
    est_failure_prob: float = 0.0  # f, derived

    @classmethod
    def for_mdp(cls, mdp: Mdp, eps: float, delta: float, b: float = 1.0,
                c: float = 0.01) -> "VarianceReducedParams":
        horizon = mdp.effective_horizon
        _check_eps_delta(eps, delta, math.sqrt(horizon), "sqrt(horizon)")
        if not 0.0 < b < math.inf:
            raise PreconditionError(f"b must be positive and finite, got {b}")
        # keeps every anchor estimate inside the variance-bounded estimator's
        # (0, 4*sigma) window: err_x / sigma_bound = c * (1-gamma)^1.5 * eps
        window = c * (1.0 - mdp.discount) ** 1.5 * eps
        if not 0.0 < window < 4.0:
            raise PreconditionError(
                f"c must satisfy 0 < c*(1-gamma)^1.5*eps < 4, got c = {c} "
                f"(c*(1-gamma)^1.5*eps = {window})")
        k = max(1, _ceil_fuzz(math.log2(horizon / eps)))
        l = _derived_iterations(horizon, eps)
        f = _failure_prob(delta / (4.0 * k * l * mdp.num_states * mdp.num_actions))
        return cls(eps=eps, delta=delta, b=b, c=c, num_epochs=k,
                   iters_per_epoch=l, est_failure_prob=f)


@dataclass(frozen=True)
class MaxFindingParams:
    """Inputs and derived schedule of the max-finding solver."""

    eps: float
    delta: float
    c_max: float = DEFAULT_C_MAX
    iters: int = 0  # L, derived
    est_failure_prob: float = 0.0  # f, derived

    @classmethod
    def for_mdp(cls, mdp: Mdp, eps: float, delta: float,
                c_max: float = DEFAULT_C_MAX) -> "MaxFindingParams":
        horizon = mdp.effective_horizon
        _check_eps_delta(eps, delta, horizon, "horizon")
        if c_max <= 0:
            raise PreconditionError("c_max must be positive")
        l = _derived_iterations(horizon, eps)
        f = _failure_prob(delta / (4.0 * c_max * l * mdp.num_states * mdp.num_actions**1.5
                                   * math.log2(1.0 / delta)))
        return cls(eps=eps, delta=delta, c_max=c_max, iters=l, est_failure_prob=f)


@dataclass
class SolveReport:
    """Solver outputs plus the diagnostics the guarantees are tested against."""

    solver: str
    seed: int
    v_hat: np.ndarray
    pi_hat: np.ndarray
    q_hat: np.ndarray | None
    ledger: QueryLedger
    params: dict
    monotone_iterates_ok: bool | None = None
    greedy_dominance_ok: bool | None = None
    one_sided_ok: bool | None = None  # shifted estimates below exact means (diagnostics)
    estimator_failures: int = 0
    variance_promise_breaches: int = 0
    anchor_slack_breaches: int = 0
    snapshots: list = field(default_factory=list)  # (epoch, iter, v, pi) when enabled

    def to_dict(self) -> dict:
        return {
            "solver": self.solver,
            "seed": self.seed,
            "v_hat": [float(x) for x in self.v_hat],
            "pi_hat": [int(x) for x in self.pi_hat],
            "q_hat": None if self.q_hat is None else [[float(x) for x in row] for row in self.q_hat],
            "ledger": self.ledger.to_dict(),
            "params": self.params,
            "diagnostics": {
                "monotone_iterates_ok": self.monotone_iterates_ok,
                "greedy_dominance_ok": self.greedy_dominance_ok,
                "one_sided_ok": self.one_sided_ok,
                "estimator_failures": self.estimator_failures,
                "variance_promise_breaches": self.variance_promise_breaches,
                "anchor_slack_breaches": self.anchor_slack_breaches,
            },
        }


def _phase(scope: str, n: int, line=None) -> str:
    """Ledger label ``{scope}-{n}``, then ``-line-{line}`` or ``-argmax``."""
    suffix = "" if line is None else "-argmax" if line == "argmax" else f"-line-{line}"
    return f"{scope}-{n}{suffix}"


class _Iterate:
    """The iterate (v, pi) of one solve with its flags, failure count and
    snapshots.  Every estimate and mock argmax of the solve has failure
    probability f.  A solver with no monotone claim reports its flags as None."""

    def __init__(self, oracle, cfg, f, diagnostics, monotone=True):
        self.oracle, self.cfg, self.f = oracle, cfg, f
        self.v = np.zeros(oracle.mdp.num_states)
        self.pi = np.zeros(oracle.mdp.num_states, dtype=np.int64)
        self.monotone_ok = self.dominance_ok = True if monotone else None
        self.one_sided_ok = True if monotone and diagnostics else None
        self.failures = 0
        self.snapshots: list = []

    def streams(self, keys: KeyTemplate, upper, err):
        """The streams of ``keys``, in order, for ``estimate`` to error err on
        [0, upper]: their ``MockRow``s drawn in bulk (see ``mock_rows``; upper
        and err may vary with the first slot), or, on the statevector backend
        and for streams longer than BULK_STREAM_WORDS, the keys themselves."""
        words = 2 * self.oracle.mdp.num_states * self.oracle.mdp.num_actions
        if self.cfg.backend == BACKEND_STATEVECTOR or words > BULK_STREAM_WORDS:
            return iter(keys)
        return mock_rows(self.oracle, keys, upper, err, self.f, self.cfg)

    def estimate(self, stream, phase, value_map, upper, err, promise_slack=0.0) -> np.ndarray:
        """Mock range-bounded estimates of P value_map on ``stream``: a key,
        or the next item of ``streams``."""
        if type(stream) is tuple:
            stream = self.oracle.derive_rng(*stream)
        est, failed, _ = batch_bounded_mock(
            self.oracle, value_map, upper, err, self.f, self.cfg, stream, phase,
            promise_slack=promise_slack)
        self.failures += int(failed.sum())
        return est

    def keep_better(self, v_new: np.ndarray, pi_new: np.ndarray) -> None:
        # dominance in its unconditional form: the kept value is at least v_new
        take = v_new >= self.v
        v_next = np.where(take, v_new, self.v)
        self.pi = np.where(take, pi_new, self.pi)
        self.monotone_ok &= bool((v_next >= self.v).all())
        self.dominance_ok &= bool((v_next >= v_new).all())
        self.v = v_next

    def mock_argmax(self, q: np.ndarray, draws, charge: int, phase: str) -> np.ndarray:
        """Contract-mock max finding over the rows of q on the next ``draws``."""
        index, failed = mock_argmax_rows(q, self.f, *next(draws))
        self.failures += int(failed.sum())
        self.oracle.ledger.charge_quantum(charge, phase)
        return index

    def check_one_sided(self, mean: np.ndarray) -> None:
        # meaningful when no estimate failed: a one-sided mean stays below P v
        exact = expected_next_value(self.oracle.mdp, self.v)
        self.one_sided_ok &= bool((mean <= exact + 1e-9).all())

    def snapshot(self, epoch: int, step: int, pi: np.ndarray | None = None) -> None:
        self.snapshots.append((epoch, step, self.v.copy(), self.pi.copy() if pi is None else pi))

    def report(self, solver, params, q_hat=None, **extra) -> SolveReport:
        return SolveReport(solver, self.oracle.seed, self.v, self.pi, q_hat, self.oracle.ledger,
                           params, self.monotone_ok, self.dominance_ok, self.one_sided_ok,
                           self.failures, snapshots=self.snapshots, **extra)


def variance_reduced_vi(
    oracle: SampleOracle,
    params: VarianceReducedParams,
    cfg: EstimatorConfig = DEFAULT_CONFIG,
    diagnostics: bool = False,
) -> SolveReport:
    """Epoch solver returning (v_hat, pi_hat, q_hat) with the two-sided
    guarantee v* - eps <= v_hat <= v^{pi_hat} <= v* (and the q analogue) at
    confidence 1 - delta.

    Per epoch k with target error horizon/2^k: the anchor mean (P v_{k,0})
    and its second moment are estimated once, the per-row error budget for
    the anchor scales with the estimated standard deviation sqrt(y_k + b),
    and each inner step estimates only the increment P(v_{k,l} - v_{k,0}),
    whose range halves every epoch.  Every estimate is shifted down by its
    own error radius, making errors one-sided, and the keep-the-better
    update makes iterates monotone unconditionally, even on runs where some
    estimates failed.
    """
    mdp = oracle.mdp
    p = params
    gamma = mdp.discount
    horizon = mdp.effective_horizon
    r = mdp.rewards

    it = _Iterate(oracle, cfg, p.est_failure_prob, diagnostics)
    q = np.zeros((mdp.num_states, mdp.num_actions))
    var_breaches = slack_breaches = 0
    epochs = range(1, p.num_epochs + 1)
    eps_ks = [horizon / 2.0**k for k in epochs]
    errs_d = [p.c * (1.0 - gamma) * eps_k for eps_k in eps_ks]
    line13 = it.streams(KeyTemplate(("vr", epochs, range(1, p.iters_per_epoch + 1), "line13")),
                        [2.0 * eps_k for eps_k in eps_ks], errs_d)

    for k, eps_k, err_d in zip(epochs, eps_ks, errs_d):
        v_anchor = it.v.copy()

        # second-moment / first-moment estimates feeding the deviation proxy
        phase8 = _phase("epoch", k, 8)
        est_sq = it.estimate(("vr", k, "line8-sq"), phase8, v_anchor**2, horizon**2, p.b)
        est_mean = it.estimate(("vr", k, "line8-mean"), phase8, v_anchor, horizon,
                               (1.0 - gamma) * p.b)
        y = np.maximum(est_sq - est_mean**2, 0.0)
        if diagnostics:
            # the deviation proxy should track the true variance within 3b
            true_var = successor_variance(mdp, v_anchor)
            slack_breaches += int(np.sum(np.abs(y - true_var) > 3.0 * p.b + 1e-9))

        # anchor estimate with per-row deviation-proportional error, one-sided
        sigma_bound = np.sqrt(y + p.b)
        err_x = p.c * (1.0 - gamma) ** 1.5 * p.eps * sigma_bound
        est_x, fail_x, breaches = batch_variance_mock(
            oracle, v_anchor, sigma_bound, err_x, p.est_failure_prob, cfg,
            oracle.derive_rng("vr", k, "line9"), _phase("epoch", k, 9))
        x = est_x - err_x
        it.failures += int(fail_x.sum())
        var_breaches += breaches

        phase13 = _phase("epoch", k, 13)
        for l in range(1, p.iters_per_epoch + 1):
            it.keep_better(*greedy(q))
            delta_kl = it.estimate(next(line13), phase13, it.v - v_anchor,
                                   2.0 * eps_k, err_d) - err_d
            q = np.maximum(r + gamma * (x + delta_kl), 0.0)
            if diagnostics:
                it.check_one_sided(x + delta_kl)
                it.snapshot(k, l)

    return it.report("variance-reduced", asdict(p), q, variance_promise_breaches=var_breaches,
                     anchor_slack_breaches=slack_breaches)


def max_finding_vi(
    oracle: SampleOracle,
    params: MaxFindingParams,
    cfg: EstimatorConfig = DEFAULT_CONFIG,
    diagnostics: bool = False,
) -> SolveReport:
    """Max-finding solver returning (v_hat, pi_hat) with the guarantee
    v* - eps <= v_hat <= v^{pi_hat} <= v* at confidence 1 - delta.

    Per sweep l and state s, quantum maximum finding locates the best entry
    of the previous sweep's estimated Q row.  Row entries are memoized so
    repeat probes see a fixed value (a fixed unitary), but every probe
    charges the full per-entry estimation cost: search queries multiply the
    nested estimation queries rather than amortizing them.
    """
    mdp = oracle.mdp
    p = params
    gamma = mdp.discount
    horizon = mdp.effective_horizon
    s_n, a_n = mdp.num_states, mdp.num_actions
    r = mdp.rewards

    use_statevector_argmax = cfg.backend == BACKEND_STATEVECTOR
    if use_statevector_argmax and a_n > 64:
        raise PreconditionError("statevector max finding supports at most 64 actions")

    err_z = (1.0 - gamma) * p.eps / 4.0
    probe_cost = bounded_mean_charge(horizon, err_z, p.est_failure_prob, cfg)
    argmax_charge = s_n * int(argmax_query_budget(a_n, p.est_failure_prob, p.c_max)) * probe_cost

    it = _Iterate(oracle, cfg, p.est_failure_prob, diagnostics)
    q_mem = np.zeros((s_n, a_n))  # memoized estimated Q row per state
    argmax_draws = _mock_argmax_draws(oracle, "mf", p.iters, s_n, a_n)  # drawn lazily
    line10 = it.streams(KeyTemplate(("mf", range(1, p.iters + 1), "line10")), horizon, err_z)

    for l in range(1, p.iters + 1):
        phase_max = _phase("iter", l, "argmax")
        if use_statevector_argmax:
            # simulate_argmax makes a data-dependent number of draws per state
            a_star = np.array([
                simulate_argmax(q_mem[s], p.est_failure_prob,
                                oracle.derive_rng("mf", l, s, "argmax"), p.c_max,
                                ledger=oracle.ledger, phase=phase_max, probe_cost=probe_cost)
                for s in range(s_n)], dtype=np.int64)
        else:
            a_star = it.mock_argmax(q_mem, argmax_draws, argmax_charge, phase_max)
        it.keep_better(q_mem[np.arange(s_n), a_star], a_star)

        # next sweep's Q row oracles: one estimate per entry, memoized
        z = it.estimate(next(line10), _phase("iter", l, 10), it.v, horizon, err_z) - err_z
        q_mem = np.maximum(r + gamma * z, 0.0)
        if diagnostics:
            it.check_one_sided(z)
            it.snapshot(1, l)

    return it.report("max-finding", asdict(p))


SAMPLED_MODES = ("classical", "quantum_mean", "quantum_mean_and_max")


def sampled_vi(
    oracle: SampleOracle,
    eps: float,
    delta: float,
    mode: str = "classical",
    cfg: EstimatorConfig = DEFAULT_CONFIG,
    diagnostics: bool = False,
) -> SolveReport:
    """Plain sampled value iteration: estimate every row mean to error
    (1-gamma)*eps/4 per sweep and take the row maximum.

    No monotonicity shift is applied, so this baseline carries only the
    value guarantee |v_hat - v*| <= eps, not the policy guarantee: a greedy
    policy extracted from an eps-accurate value function can be off by
    ~2*gamma*horizon*eps.
    """
    mdp = oracle.mdp
    gamma = mdp.discount
    horizon = mdp.effective_horizon
    s_n, a_n = mdp.num_states, mdp.num_actions
    r = mdp.rewards
    if mode not in SAMPLED_MODES:
        raise PreconditionError(f"mode must be one of {SAMPLED_MODES}, got {mode!r}")
    _check_eps_delta(eps, delta, horizon, "horizon")

    iters = _ceil_fuzz(horizon * math.log(4.0 * horizon / eps)) + 1
    err = (1.0 - gamma) * eps / 4.0
    delta_i = delta / (iters * s_n * a_n)  # union bound over all estimates

    it = _Iterate(oracle, cfg, delta_i, diagnostics, monotone=False)
    q_est = np.zeros((s_n, a_n))
    if mode == "classical":
        n = hoeffding_sample_count(horizon, err, delta_i)
        if n > 2**63 - 1:  # numpy's multinomial takes n as a C int64
            raise PreconditionError(f"classical sample count {n} per estimate exceeds 2^63-1")
    else:
        means = it.streams(KeyTemplate(("svi", range(1, iters + 1))), horizon, err)
    if mode == "quantum_mean_and_max":
        argmax_draws = _mock_argmax_draws(oracle, "svi", iters, s_n, a_n)
        argmax_charge = (s_n * int(argmax_query_budget(a_n, delta_i, DEFAULT_C_MAX))
                         * bounded_mean_charge(horizon, err, delta_i, cfg))

    for i in range(1, iters + 1):
        phase = _phase("iter", i)
        if mode == "classical":
            est = oracle.empirical_means(it.v, n, phase)
        else:
            # iterates may drift up to ~gamma*eps/4 above the horizon without a shift
            est = it.estimate(next(means), phase, it.v, horizon, err, promise_slack=eps / 4.0)
        q_est = r + gamma * est
        if mode == "quantum_mean_and_max":
            best = it.mock_argmax(q_est, argmax_draws, argmax_charge, _phase("iter", i, "argmax"))
            it.v = q_est[np.arange(s_n), best]
        else:
            it.v = q_est.max(axis=1)
        if diagnostics:
            it.snapshot(1, i, q_est.argmax(axis=1))

    _, it.pi = greedy(q_est)
    return it.report(f"sampled-{mode}", {"eps": eps, "delta": delta, "mode": mode, "iters": iters})
