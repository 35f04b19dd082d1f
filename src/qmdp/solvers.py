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
from typing import NamedTuple

import numpy as np

from .errors import PreconditionError
from .estimators import (
    DEFAULT_CONFIG,
    BACKEND_STATEVECTOR,
    EstimatorConfig,
    MockRow,
    _estimate,
    _range_violated,
    amplification_reps,
    batch_variance_mock,
    bounded_mean_charge,
    hoeffding_sample_count,
    mock_rows,
    statevector_phase_bits,
    variance_mean_charge,
)
from .mdp import Mdp, expected_next_value, greedy, successor_variance
from .oracle import QueryLedger, SampleOracle
from .qsim import (DEFAULT_C_MAX, MAX_ARGMAX_ITEMS, MAX_ARGMAX_PROBES, argmax_query_budget,
                   simulate_argmax)
from .rng import bulk_passes, first_draws, key_digests

__all__ = [
    "VarianceReducedParams",
    "MaxFindingParams",
    "SampledParams",
    "Line",
    "Plan",
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
# float64 cells of each buffer in which keep_better logs its steps: the
# flags are checked once per CHECK_CELLS // S steps, not after every step
CHECK_CELLS = 2**12


def _ceil_fuzz(x: float) -> int:
    # absorbs float fuzz in quantities like 1/(1-0.9) before taking ceilings
    return int(math.ceil(x - _FUZZ))


def _derived_iterations(horizon: float, eps: float) -> int:
    # horizon * ceil(ln(4*horizon/eps)) + 1, rounded up to an integer count
    return _ceil_fuzz(horizon * _ceil_fuzz(math.log(4.0 * horizon / eps)) + 1.0)


def _check_eps_delta(eps: float, delta: float, horizon: float, eps_max: float, bound: str) -> None:
    if not 0.0 < eps <= eps_max + _FUZZ:
        raise PreconditionError(f"eps must lie in (0, {bound}] = (0, {eps_max:.6g}], got {eps}")
    if 4.0 * horizon / eps == math.inf:  # every iteration count takes its log
        raise PreconditionError(f"eps = {eps} overflows 4*horizon/eps at horizon {horizon:.6g}")
    if not 0.0 < delta < 1.0:
        raise PreconditionError(f"delta must be in (0, 1), got {delta}")


def _failure_prob(delta: float, denominator: float, entries: str = "delta") -> float:
    """delta / denominator, refused outside (0, 1) or below what amplification_reps takes."""
    f = delta / denominator if denominator > 0.0 else math.inf  # it can underflow to 0
    if not 0.0 < f < 1.0:
        raise PreconditionError(f"{entries} gives a per-estimate failure probability {f} not in (0, 1)")
    if 3.0 / f == math.inf:
        raise PreconditionError(f"{entries} gives a per-estimate failure probability {f} "
                                "too small to amplify: 3/f overflows")
    return f


def mock_argmax_rows(q: np.ndarray, f: float, u: np.ndarray,
                     wrong: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Contract-mock quantum maximum finding over each row of q (S, A): the
    row argmax (lowest index on ties), or, where the row's uniform u < f and
    A > 1, its index ``wrong`` (drawn below A-1) mapped onto the other A-1
    entries.  Returns (index, failed) arrays; with no flag set, the argmax as it is."""
    best = q.argmax(axis=1)
    failed = (u < f) & (q.shape[1] > 1)
    if not np.count_nonzero(failed):
        return best, failed
    return np.where(failed, wrong + (wrong >= best), best), failed


def _argmax_draws(oracle: SampleOracle, passes, s_n: int, a_n: int):
    """Yield the argmax draws (u, wrong, digests) of each sweep of ``passes``, the family of
    ``rng.bulk_passes`` with n = 2 and group = S on the keys (seed, label, sweeps, range(S),
    "argmax"): each stream's ``random()`` and then ``integers(max(A-1, 1))``, whatever the
    outcome, as (S,) arrays, and the sweep's S 16-byte key digests laid end to end.  A stream
    that ``first_draws`` replays is re-keyed on the oracle from its digest."""
    for digests, words in passes:
        u, wrong = first_draws(words, max(a_n - 1, 1),
                               lambda i: oracle.keyed_rng(digests[16 * i:16 * i + 16]))
        for j in range(0, len(u), s_n):
            yield u[j:j + s_n], wrong[j:j + s_n], digests[16 * j:16 * (j + s_n)]


class _FirstUniform(NamedTuple):
    """A statevector argmax stream, which ``simulate_argmax`` draws on once: ``random()`` is its
    first uniform, a ``u`` of ``_argmax_draws``, and ``integers(n)`` (a budget under one probe)
    is numpy's own, drawn on the stream re-keyed on the oracle from its digest."""

    u: float
    digest: bytes
    oracle: SampleOracle

    def random(self) -> float:
        return self.u

    def integers(self, n: int) -> int:
        return self.oracle.keyed_rng(self.digest).integers(n)


class Line(NamedTuple):
    """One line of a solve in one epoch, fixed before its first draw: its
    ``estimates`` on [0, upper] to error err (on line 9, relative to each
    row's sigma) at failure probability f, each charged ``charge``, from t
    phase bits and reps runs on the statevector backend.  An argmax line's
    estimates are its max findings, each floor(argmax_query_budget) probes of ``probe``."""

    estimates: int
    upper: float | None
    err: float
    f: float
    charge: int
    t: int | None = None
    reps: int | None = None
    probe: int | None = None


def _bounded(mdp: Mdp, cfg: EstimatorConfig, batches: int, upper, err, f) -> Line:
    """``batches`` batches of S*A range-bounded estimates, as ``estimators._estimate`` reads them."""
    n = batches * mdp.num_states * mdp.num_actions
    if cfg.backend != BACKEND_STATEVECTOR:
        return Line(n, upper, err, f, bounded_mean_charge(upper, err, f, cfg))
    t, reps = statevector_phase_bits(err / upper, cfg), amplification_reps(f)
    return Line(n, upper, err, f, ((1 << t) - 1) * reps, t, reps)


def _argmax(mdp: Mdp, cfg: EstimatorConfig, line: Line, c_max: float, statevector=False) -> Line:
    """A max finding per state and sweep of ``line``, each probe charged the
    mock charge of one of its estimates; a statevector one is refused above
    MAX_ARGMAX_ITEMS actions or MAX_ARGMAX_PROBES probes."""
    budget = argmax_query_budget(mdp.num_actions, line.f, c_max)
    if statevector and mdp.num_actions > MAX_ARGMAX_ITEMS:
        raise PreconditionError(f"statevector max finding supports at most {MAX_ARGMAX_ITEMS} actions")
    if statevector and budget > MAX_ARGMAX_PROBES:
        raise PreconditionError(f"max-finding budget of {budget:.6g} probes exceeds "
                                f"MAX_ARGMAX_PROBES = {MAX_ARGMAX_PROBES}; lower c_max")
    probe = bounded_mean_charge(line.upper, line.err, line.f, cfg)
    return Line(line.estimates // mdp.num_actions, line.upper, line.err, line.f,
                int(budget) * probe, probe=probe)


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
        _check_eps_delta(eps, delta, horizon, math.sqrt(horizon), "sqrt(horizon)")
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
        f = _failure_prob(delta, 4.0 * k * l * mdp.num_states * mdp.num_actions)
        return cls(eps=eps, delta=delta, b=b, c=c, num_epochs=k,
                   iters_per_epoch=l, est_failure_prob=f)

    def schedule(self, mdp: Mdp, cfg: EstimatorConfig = DEFAULT_CONFIG) -> dict:
        """``(line, k) -> Line`` for lines 8 (its two estimates), 9 and 13 of every epoch k."""
        h, gamma, f = mdp.effective_horizon, mdp.discount, self.est_failure_prob
        window = self.c * (1.0 - gamma) ** 1.5 * self.eps
        rows = mdp.num_states * mdp.num_actions
        # a solve sums the charge over all S*A rows at sigma/err = 1/window,
        # whatever sigma: refuse here the sum it would refuse
        variance_mean_charge(np.broadcast_to(1.0, rows), np.broadcast_to(window, rows), f, cfg)
        line9 = Line(rows, None, window, f, variance_mean_charge(1.0, window, f, cfg))
        lines = {}
        for k in range(1, self.num_epochs + 1):
            lines["line8-sq", k] = _bounded(mdp, cfg, 1, h**2, self.b, f)
            lines["line8-mean", k] = _bounded(mdp, cfg, 1, h, (1.0 - gamma) * self.b, f)
            lines["line9", k] = line9
            eps_k = h / 2.0**k
            lines["line13", k] = _bounded(mdp, cfg, self.iters_per_epoch, 2.0 * eps_k,
                                          self.c * (1.0 - gamma) * eps_k, f)
        return lines


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
        _check_eps_delta(eps, delta, horizon, horizon, "horizon")
        if not 0.0 < c_max < math.inf:
            raise PreconditionError(f"c_max must be positive and finite, got {c_max}")
        l = _derived_iterations(horizon, eps)
        f = _failure_prob(delta, 4.0 * c_max * l * mdp.num_states * mdp.num_actions**1.5
                          * math.log2(1.0 / delta), "delta or c_max")
        return cls(eps=eps, delta=delta, c_max=c_max, iters=l, est_failure_prob=f)

    def schedule(self, mdp: Mdp, cfg: EstimatorConfig = DEFAULT_CONFIG) -> dict:
        """``(line, 1) -> Line`` for line 10 and the argmax over all L sweeps."""
        line10 = _bounded(mdp, cfg, self.iters, mdp.effective_horizon,
                          (1.0 - mdp.discount) * self.eps / 4.0, self.est_failure_prob)
        return {("argmax", 1): _argmax(mdp, cfg, line10, self.c_max,
                                       cfg.backend == BACKEND_STATEVECTOR),
                ("line10", 1): line10}


SAMPLED_MODES = ("classical", "quantum_mean", "quantum_mean_and_max")


@dataclass(frozen=True)
class SampledParams:
    """Inputs and derived sweep count of the sampled baseline."""

    eps: float
    delta: float
    mode: str = "classical"
    iters: int = 0  # derived

    @classmethod
    def for_mdp(cls, mdp: Mdp, eps: float, delta: float,
                mode: str = "classical") -> "SampledParams":
        if mode not in SAMPLED_MODES:
            raise PreconditionError(f"mode must be one of {SAMPLED_MODES}, got {mode!r}")
        horizon = mdp.effective_horizon
        _check_eps_delta(eps, delta, horizon, horizon, "horizon")
        iters = _ceil_fuzz(horizon * math.log(4.0 * horizon / eps)) + 1
        if mode != "classical":  # schedule's f, which a quantum mean amplifies
            _failure_prob(delta, iters * mdp.num_states * mdp.num_actions)
        return cls(eps=eps, delta=delta, mode=mode, iters=iters)

    def schedule(self, mdp: Mdp, cfg: EstimatorConfig = DEFAULT_CONFIG) -> dict:
        """``(line, 1) -> Line`` for the row means and, with the quantum max,
        the mock argmax over all sweeps; f is delta over every estimate."""
        h, s_a = mdp.effective_horizon, mdp.num_states * mdp.num_actions
        err, f = (1.0 - mdp.discount) * self.eps / 4.0, self.delta / (self.iters * s_a)
        if self.mode == "classical":
            n = hoeffding_sample_count(h, err, f)
            if n > 2**63 - 1:  # numpy's multinomial takes n as a C int64
                raise PreconditionError(f"classical sample count {n} per estimate exceeds 2^63-1")
            return {("mean", 1): Line(self.iters * s_a, h, err, f, n)}
        lines = {("mean", 1): _bounded(mdp, cfg, self.iters, h, err, f)}
        if self.mode == "quantum_mean_and_max":
            lines["argmax", 1] = _argmax(mdp, cfg, lines["mean", 1], DEFAULT_C_MAX)
        return lines


class Plan(NamedTuple):
    """A solve's params, estimator config and the schedule they fix before its
    first draw: ``Plan.of`` derives it once, raising each of its refusals."""

    params: VarianceReducedParams | MaxFindingParams | SampledParams
    cfg: EstimatorConfig
    lines: dict

    @classmethod
    def of(cls, mdp: Mdp, params, cfg: EstimatorConfig = DEFAULT_CONFIG) -> "Plan":
        return cls(params, cfg, params.schedule(mdp, cfg))


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
    snapshots, and the plan's config and lines it follows.  A solver with no
    monotone claim reports its flags as None.  It owns v and pi, which steps write
    in place: a past iterate, such as an anchor, is a copy, and so is a report's."""

    def __init__(self, oracle, plan: Plan, diagnostics, monotone=True):
        self.oracle, self.cfg, self.lines = oracle, plan.cfg, plan.lines
        self.v = np.zeros(oracle.mdp.num_states)
        self.pi = np.zeros(oracle.mdp.num_states, dtype=np.int64)
        self.monotone_ok = self.dominance_ok = True if monotone else None
        self.one_sided_ok = True if monotone and diagnostics else None
        self.failures = 0
        self.snapshots: list = []
        # keep_better's unchecked steps: row j + 1 of _iterates is the iterate
        # after the step that was offered row j of _offers, row 0 the one before
        s_n, steps = len(self.v), max(1, CHECK_CELLS // len(self.v))
        self._iterates, self._offers = np.empty((steps + 1, s_n)), np.empty((steps, s_n))
        self._iterates[0], self._steps = self.v, 0
        # estimate's last key, its P value_map and its range verdict
        self._key, self._mu, self._violated = None, None, False

    def keyed(self, keys: tuple) -> map:
        """The streams of the keys that the parts ``keys`` spell out (see
        ``rng.key_digests``), in order, each re-keying the oracle as it is taken."""
        return map(self.oracle.keyed_rng, key_digests(keys))

    def streams(self, keys: tuple, f: float, argmax: tuple | None = None):
        """(streams, draws): the streams of ``keys``, in order, for ``estimate`` at the
        solve's failure probability f, which every line of a plan shares: their ``MockRow``s
        drawn in bulk (see ``mock_rows``), or, on the statevector backend and for streams
        longer than BULK_STREAM_WORDS, ``keyed(keys)``; and the ``_argmax_draws`` of the
        keys ``argmax`` (seed, label, sweeps, range(S), "argmax") from the same passes."""
        s_n, a_n = self.oracle.mdp.num_states, self.oracle.mdp.num_actions
        bulk = self.cfg.backend != BACKEND_STATEVECTOR and 2 * s_n * a_n <= BULK_STREAM_WORDS
        families = ([(keys, 2 * s_n * a_n, 1)] if bulk else []) + ([(argmax, 2, s_n)] if argmax else [])
        passes = bulk_passes(*families) if families else ()
        rows = mock_rows(self.oracle, passes[0], f) if bulk else self.keyed(keys)
        return rows, _argmax_draws(self.oracle, passes[-1], s_n, a_n) if argmax else None

    def estimate(self, stream, phase, value_map, line: Line, promise_slack=0.0) -> np.ndarray:
        """Range-bounded estimates of P value_map on ``stream``, the next item of ``keyed`` or
        ``streams``, to ``line``'s error on [0, upper]: the estimates, failures and charge of
        ``batch_bounded_mock`` on any stream.  P value_map and the range verdict are kept under
        the key (line.upper, promise_slack, the map's bytes) and reused unchecked under an equal
        key; a map with a NaN entry is refused before its key is kept, any draw or charge."""
        key = (line.upper, promise_slack, value_map.tobytes())  # -0.0 and 0.0 differ here
        if key != self._key:
            self._violated = _range_violated(value_map, line.upper, promise_slack)
            self._key, self._mu = key, self.oracle.mdp.rows.dot(value_map).reshape(len(self.v), -1)
        est, failed, charge = _estimate(self._mu, line, self.cfg, stream, self._violated)
        self.oracle.ledger.charge_quantum(charge, phase)
        if self._violated or type(stream) is not MockRow or stream.failed:  # rows that can fail
            self.failures += np.count_nonzero(failed)
        return est

    def keep_better(self, v_new: np.ndarray, pi_new: np.ndarray) -> None:
        """Keep, per state, the better of v and v_new, written into v and pi in place
        (no iterate allocated).  On a monotone solve v changes only here; the step is
        logged and the flags checked per block."""
        take = v_new >= self.v
        np.copyto(self.pi, pi_new, where=take)
        np.copyto(self.v, v_new, where=take)
        self._offers[self._steps] = v_new
        self._iterates[self._steps + 1] = self.v
        self._steps += 1
        if self._steps == len(self._offers):
            self._check_steps()

    def _check_steps(self) -> None:
        # dominance in its unconditional form: the kept value is at least v_new
        n, kept = self._steps, self._iterates[1:self._steps + 1]
        self.monotone_ok &= bool((kept >= self._iterates[:n]).all())
        self.dominance_ok &= bool((kept >= self._offers[:n]).all())
        self._iterates[0], self._steps = self._iterates[n], 0

    def mock_argmax(self, q: np.ndarray, draws, phase: str) -> np.ndarray:
        """Contract-mock max finding over the rows of q on the next ``draws``,
        charged as the schedule's argmax line."""
        line = self.lines["argmax", 1]
        u, wrong, _ = next(draws)
        index, failed = mock_argmax_rows(q, line.f, u, wrong)
        self.failures += np.count_nonzero(failed)
        self.oracle.ledger.charge_quantum(len(q) * line.charge, phase)
        return index

    def check_one_sided(self, mean: np.ndarray) -> None:
        # meaningful when no estimate failed: a one-sided mean stays below P v
        exact = expected_next_value(self.oracle.mdp, self.v)
        self.one_sided_ok &= bool((mean <= exact + 1e-9).all())

    def snapshot(self, epoch: int, step: int, pi: np.ndarray | None = None) -> None:
        self.snapshots.append((epoch, step, self.v.copy(), self.pi.copy() if pi is None else pi))

    def report(self, solver, params, q_hat=None, **extra) -> SolveReport:
        if self._steps:
            self._check_steps()
        return SolveReport(solver, self.oracle.seed, self.v.copy(), self.pi.copy(), q_hat,
                           self.oracle.ledger, params, self.monotone_ok, self.dominance_ok,
                           self.one_sided_ok, int(self.failures), snapshots=self.snapshots, **extra)


def variance_reduced_vi(oracle: SampleOracle, plan: Plan, diagnostics: bool = False) -> SolveReport:
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
    p = plan.params
    gamma = mdp.discount
    r = mdp.rewards

    it = _Iterate(oracle, plan, diagnostics)
    q = np.zeros((mdp.num_states, mdp.num_actions))
    var_breaches = slack_breaches = 0
    epochs = range(1, p.num_epochs + 1)
    line13, _ = it.streams((oracle.seed, "vr", epochs, range(1, p.iters_per_epoch + 1), "line13"),
                           p.est_failure_prob)
    anchors = it.keyed((oracle.seed, "vr", epochs, ("line8-sq", "line8-mean", "line9")))

    for k in epochs:
        v_anchor = it.v.copy()

        # second-moment / first-moment estimates feeding the deviation proxy
        phase8 = _phase("epoch", k, 8)
        est_sq = it.estimate(next(anchors), phase8, v_anchor**2, plan.lines["line8-sq", k])
        est_mean = it.estimate(next(anchors), phase8, v_anchor, plan.lines["line8-mean", k])
        y = np.maximum(est_sq - est_mean**2, 0.0)
        if diagnostics:
            # the deviation proxy should track the true variance within 3b
            true_var = successor_variance(mdp, v_anchor)
            slack_breaches += int(np.sum(np.abs(y - true_var) > 3.0 * p.b + 1e-9))

        # anchor estimate with per-row deviation-proportional error, one-sided
        sigma_bound = np.sqrt(y + p.b)
        est_x, err_x, fail_x, breaches = batch_variance_mock(
            oracle, v_anchor, sigma_bound, plan.lines["line9", k], plan.cfg, next(anchors),
            _phase("epoch", k, 9))
        x = est_x - err_x
        it.failures += np.count_nonzero(fail_x)
        var_breaches += breaches

        phase13, line = _phase("epoch", k, 13), plan.lines["line13", k]
        for l in range(1, p.iters_per_epoch + 1):
            it.keep_better(*greedy(q))
            delta_kl = it.estimate(next(line13), phase13, it.v - v_anchor, line) - line.err
            q = np.maximum(r + gamma * (x + delta_kl), 0.0)
            if diagnostics:
                it.check_one_sided(x + delta_kl)
                it.snapshot(k, l)

    return it.report("variance-reduced", asdict(p), q, variance_promise_breaches=var_breaches,
                     anchor_slack_breaches=slack_breaches)


def max_finding_vi(oracle: SampleOracle, plan: Plan, diagnostics: bool = False) -> SolveReport:
    """Max-finding solver returning (v_hat, pi_hat) with the guarantee
    v* - eps <= v_hat <= v^{pi_hat} <= v* at confidence 1 - delta.

    Per sweep l and state s, quantum maximum finding locates the best entry
    of the previous sweep's estimated Q row.  Row entries are memoized so
    repeat probes see a fixed value (a fixed unitary), but every probe
    charges the full per-entry estimation cost: search queries multiply the
    nested estimation queries rather than amortizing them.
    """
    mdp = oracle.mdp
    p = plan.params
    gamma = mdp.discount
    s_n, a_n = mdp.num_states, mdp.num_actions
    r = mdp.rewards
    use_statevector_argmax = plan.cfg.backend == BACKEND_STATEVECTOR

    it = _Iterate(oracle, plan, diagnostics)
    states = np.arange(s_n)
    mean, probe_cost = plan.lines["line10", 1], plan.lines["argmax", 1].probe
    q_mem = np.zeros((s_n, a_n))  # memoized estimated Q row per state
    sweeps = range(1, p.iters + 1)
    line10, argmax_draws = it.streams((oracle.seed, "mf", sweeps, "line10"), mean.f,
                                      (oracle.seed, "mf", sweeps, range(s_n), "argmax"))

    for l in sweeps:
        phase_max = _phase("iter", l, "argmax")
        if use_statevector_argmax:
            # simulate_argmax draws once on each state's own stream
            u, _, digests = next(argmax_draws)
            a_star = np.array([
                simulate_argmax(q_mem[s], p.est_failure_prob,
                                _FirstUniform(u_s, digests[16 * s:16 * s + 16], oracle), p.c_max,
                                ledger=oracle.ledger, phase=phase_max, probe_cost=probe_cost)
                for s, u_s in enumerate(u.tolist())], dtype=np.int64)
        else:
            a_star = it.mock_argmax(q_mem, argmax_draws, phase_max)
        it.keep_better(q_mem[states, a_star], a_star)

        # next sweep's Q row oracles: one estimate per entry, memoized
        z = it.estimate(next(line10), _phase("iter", l, 10), it.v, mean) - mean.err
        q_mem = np.maximum(r + gamma * z, 0.0)
        if diagnostics:
            it.check_one_sided(z)
            it.snapshot(1, l)

    return it.report("max-finding", asdict(p))


def sampled_vi(oracle: SampleOracle, plan: Plan, diagnostics: bool = False) -> SolveReport:
    """Plain sampled value iteration: estimate every row mean to error
    (1-gamma)*eps/4 per sweep and take the row maximum.

    No monotonicity shift is applied, so this baseline carries only the
    value guarantee |v_hat - v*| <= eps, not the policy guarantee: a greedy
    policy extracted from an eps-accurate value function can be off by
    ~2*gamma*horizon*eps.
    """
    mdp = oracle.mdp
    p = plan.params
    gamma = mdp.discount
    s_n, a_n = mdp.num_states, mdp.num_actions
    r = mdp.rewards
    sweeps = range(1, p.iters + 1)

    it = _Iterate(oracle, plan, diagnostics, monotone=False)
    mean = plan.lines["mean", 1]
    q_est = np.zeros((s_n, a_n))
    if p.mode != "classical":
        argmax = (oracle.seed, "svi", sweeps, range(s_n), "argmax")
        means, argmax_draws = it.streams((oracle.seed, "svi", sweeps), mean.f,
                                         argmax if p.mode == "quantum_mean_and_max" else None)

    for i in sweeps:
        phase = _phase("iter", i)
        if p.mode == "classical":
            est = oracle.empirical_means(it.v, mean.charge, phase)
        else:
            # iterates may drift up to ~gamma*eps/4 above the horizon without a shift
            est = it.estimate(next(means), phase, it.v, mean, promise_slack=p.eps / 4.0)
        q_est = r + gamma * est
        if p.mode == "quantum_mean_and_max":
            best = it.mock_argmax(q_est, argmax_draws, _phase("iter", i, "argmax"))
            it.v[:] = q_est[np.arange(s_n), best]
        else:
            np.maximum.reduce(q_est, axis=1, out=it.v)  # what q_est.max(axis=1) calls
        if diagnostics:
            it.snapshot(1, i, q_est.argmax(axis=1))

    _, it.pi[:] = greedy(q_est)
    return it.report(f"sampled-{p.mode}", asdict(p))
