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
)
from .mdp import Mdp, expected_next_value, greedy, successor_variance
from .oracle import QueryLedger, SampleOracle
from .qsim import DEFAULT_C_MAX, argmax_query_budget, simulate_argmax
from .rng import first_draws

__all__ = [
    "VarianceReducedParams",
    "MaxFindingParams",
    "SolveReport",
    "variance_reduced_vi",
    "max_finding_vi",
    "sampled_vi",
    "mock_argmax",
    "mock_argmax_rows",
]

_FUZZ = 1e-9
ARGMAX_CHUNK = 4096  # streams per vectorized mock-argmax draw


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


def mock_argmax(q_row: np.ndarray, f: float, rng: np.random.Generator) -> tuple[int, bool]:
    """One-row view of ``mock_argmax_rows``.  Draws a uniform, then an index
    below max(A-1, 1), whatever the outcome.  Returns (index, failed)."""
    u = rng.random()
    wrong = rng.integers(max(q_row.size - 1, 1))
    index, failed = mock_argmax_rows(q_row[None], f, np.array([u]), np.array([wrong]))
    return int(index[0]), bool(failed[0])


def _mock_argmax_draws(seed: int, label: str, sweeps: int, s_n: int, a_n: int):
    """Yield the mock-argmax draws (u, wrong), one (S,) pair per sweep
    l = 1..sweeps, of the streams (label, l, s, "argmax"): each stream's
    ``random()`` and ``integers(max(A-1, 1))``, as ``mock_argmax`` draws
    them.  Streams are drawn ARGMAX_CHUNK at a time (one sweep when S is
    larger), so memory stays bounded for any number of sweeps."""
    per_chunk = max(1, ARGMAX_CHUNK // s_n)
    k = max(a_n - 1, 1)
    for first in range(1, sweeps + 1, per_chunk):
        chunk = range(first, min(first + per_chunk, sweeps + 1))
        u, wrong = first_draws(
            seed, [(label, l, s, "argmax") for l in chunk for s in range(s_n)], k)
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
    s_n, a_n = mdp.num_states, mdp.num_actions
    r = mdp.rewards

    v = np.zeros(s_n)
    pi = np.zeros(s_n, dtype=np.int64)
    q = np.zeros((s_n, a_n))

    monotone_ok = True
    dominance_ok = True
    one_sided_ok = True if diagnostics else None
    failures = 0
    var_breaches = 0
    slack_breaches = 0
    snapshots: list = []

    for k in range(1, p.num_epochs + 1):
        eps_k = horizon / 2.0**k
        v_anchor = v.copy()

        # second-moment / first-moment estimates feeding the deviation proxy
        phase8 = f"epoch-{k}-line-8"
        rng = oracle.derive_rng("vr", k, "line8-sq")
        est_sq, fail_sq, _ = batch_bounded_mock(
            oracle, v_anchor**2, horizon**2, p.b, p.est_failure_prob, cfg, rng, phase8)
        rng = oracle.derive_rng("vr", k, "line8-mean")
        est_mean, fail_mean, _ = batch_bounded_mock(
            oracle, v_anchor, horizon, (1.0 - gamma) * p.b, p.est_failure_prob, cfg, rng, phase8)
        y = np.maximum(est_sq - est_mean**2, 0.0)
        failures += int(fail_sq.sum() + fail_mean.sum())
        if diagnostics:
            # the deviation proxy should track the true variance within 3b
            true_var = successor_variance(mdp, v_anchor)
            slack_breaches += int(np.sum(np.abs(y - true_var) > 3.0 * p.b + 1e-9))

        # anchor estimate with per-row deviation-proportional error, one-sided
        sigma_bound = np.sqrt(y + p.b)
        err_x = p.c * (1.0 - gamma) ** 1.5 * p.eps * sigma_bound
        rng = oracle.derive_rng("vr", k, "line9")
        est_x, fail_x, breaches = batch_variance_mock(
            oracle, v_anchor, sigma_bound, err_x, p.est_failure_prob, cfg, rng,
            f"epoch-{k}-line-9")
        x = est_x - err_x
        failures += int(fail_x.sum())
        var_breaches += breaches

        for l in range(1, p.iters_per_epoch + 1):
            vq, piq = greedy(q)
            take = vq >= v
            v_next = np.where(take, vq, v)
            pi = np.where(take, piq, pi)
            monotone_ok &= bool(np.all(v_next >= v))
            dominance_ok &= bool(np.all(v_next >= vq))
            v = v_next

            err_d = p.c * (1.0 - gamma) * eps_k
            rng = oracle.derive_rng("vr", k, l, "line13")
            est_d, fail_d, _ = batch_bounded_mock(
                oracle, v - v_anchor, 2.0 * eps_k, err_d, p.est_failure_prob, cfg, rng,
                f"epoch-{k}-line-13")
            delta_kl = est_d - err_d
            failures += int(fail_d.sum())

            q = np.maximum(r + gamma * (x + delta_kl), 0.0)
            if diagnostics:
                # one-sidedness of the combined estimate (meaningful when no
                # estimate failed): x + delta <= P v_{k,l} exactly
                exact_mean = expected_next_value(mdp, v)
                one_sided_ok &= bool(np.all(x + delta_kl <= exact_mean + 1e-9))
                snapshots.append((k, l, v.copy(), pi.copy()))

    return SolveReport(
        solver="variance-reduced",
        seed=oracle.seed,
        v_hat=v,
        pi_hat=pi,
        q_hat=q,
        ledger=oracle.ledger,
        params=asdict(p),
        monotone_iterates_ok=monotone_ok,
        greedy_dominance_ok=dominance_ok,
        one_sided_ok=one_sided_ok,
        estimator_failures=failures,
        variance_promise_breaches=var_breaches,
        anchor_slack_breaches=slack_breaches,
        snapshots=snapshots,
    )


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
    mock_probes = int(argmax_query_budget(a_n, p.est_failure_prob, p.c_max))

    v = np.zeros(s_n)
    pi = np.zeros(s_n, dtype=np.int64)
    q_mem = np.zeros((s_n, a_n))  # memoized estimated Q row per state

    monotone_ok = True
    dominance_ok = True
    one_sided_ok = True if diagnostics else None
    failures = 0
    snapshots: list = []

    if not use_statevector_argmax:
        argmax_draws = _mock_argmax_draws(oracle.seed, "mf", p.iters, s_n, a_n)

    for l in range(1, p.iters + 1):
        phase_max = f"iter-{l}-argmax"
        if use_statevector_argmax:
            # simulate_argmax makes a data-dependent number of draws per state
            a_star = np.array([
                simulate_argmax(q_mem[s], p.est_failure_prob,
                                oracle.derive_rng("mf", l, s, "argmax"), p.c_max,
                                ledger=oracle.ledger, phase=phase_max, probe_cost=probe_cost)
                for s in range(s_n)], dtype=np.int64)
        else:
            a_star, failed = mock_argmax_rows(q_mem, p.est_failure_prob, *next(argmax_draws))
            failures += int(failed.sum())
            oracle.ledger.charge_quantum(s_n * mock_probes * probe_cost, phase_max)

        v_tilde = q_mem[np.arange(s_n), a_star]
        take = v_tilde >= v
        v_next = np.where(take, v_tilde, v)
        pi = np.where(take, a_star, pi)
        monotone_ok &= bool(np.all(v_next >= v))
        # unconditional form of the dominance guarantee: the kept iterate is
        # at least the probed row value (equals the row max when the argmax
        # call succeeded)
        dominance_ok &= bool(np.all(v_next >= v_tilde))
        v = v_next

        # next sweep's Q row oracles: one estimate per entry, memoized
        rng = oracle.derive_rng("mf", l, "line10")
        est_z, fail_z, _ = batch_bounded_mock(
            oracle, v, horizon, err_z, p.est_failure_prob, cfg, rng, f"iter-{l}-line-10")
        z = est_z - err_z
        failures += int(fail_z.sum())
        q_mem = np.maximum(r + gamma * z, 0.0)
        if diagnostics:
            one_sided_ok &= bool(np.all(z <= expected_next_value(mdp, v) + 1e-9))
            snapshots.append((1, l, v.copy(), pi.copy()))

    return SolveReport(
        solver="max-finding",
        seed=oracle.seed,
        v_hat=v,
        pi_hat=pi,
        q_hat=None,
        ledger=oracle.ledger,
        params=asdict(p),
        monotone_iterates_ok=monotone_ok,
        greedy_dominance_ok=dominance_ok,
        one_sided_ok=one_sided_ok,
        estimator_failures=failures,
        snapshots=snapshots,
    )


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
    # iterates may drift up to ~gamma*eps/4 above the horizon without a shift
    slack = eps / 4.0

    v = np.zeros(s_n)
    q_est = np.zeros((s_n, a_n))
    failures = 0
    snapshots: list = []
    if mode == "quantum_mean_and_max":
        argmax_draws = _mock_argmax_draws(oracle.seed, "svi", iters, s_n, a_n)

    for i in range(1, iters + 1):
        phase = f"iter-{i}"
        if mode == "classical":
            n = hoeffding_sample_count(horizon, err, delta_i)
            est = np.empty((s_n, a_n))
            for s in range(s_n):
                for a in range(a_n):
                    counts = oracle.sample_counts(s, a, n, phase)
                    est[s, a] = counts @ v / n
        else:
            rng = oracle.derive_rng("svi", i)
            est, fail, _ = batch_bounded_mock(
                oracle, v, horizon, err, delta_i, cfg, rng, phase, promise_slack=slack)
            failures += int(fail.sum())
        q_est = r + gamma * est

        if mode == "quantum_mean_and_max":
            probe_cost = bounded_mean_charge(horizon, err, delta_i, cfg)
            probes = int(argmax_query_budget(a_n, delta_i, DEFAULT_C_MAX))
            best, failed = mock_argmax_rows(q_est, delta_i, *next(argmax_draws))
            failures += int(failed.sum())
            oracle.ledger.charge_quantum(s_n * probes * probe_cost, f"iter-{i}-argmax")
            v = q_est[np.arange(s_n), best]
        else:
            v = q_est.max(axis=1)
        if diagnostics:
            snapshots.append((1, i, v.copy(), q_est.argmax(axis=1)))

    _, pi = greedy(q_est)
    return SolveReport(
        solver=f"sampled-{mode}",
        seed=oracle.seed,
        v_hat=v,
        pi_hat=pi,
        q_hat=None,
        ledger=oracle.ledger,
        params={"eps": eps, "delta": delta, "mode": mode, "iters": iters},
        monotone_iterates_ok=None,
        greedy_dominance_ok=None,
        estimator_failures=failures,
        snapshots=snapshots,
    )
