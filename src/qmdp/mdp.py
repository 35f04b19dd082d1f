"""Exact tabular-MDP mathematics.

Everything in this module is deterministic and side-effect free: operators,
the Bellman recursion, direct linear-algebra solvers used as ground-truth
oracles by the test harness, and the total-variance quantity that controls
how much per-step estimation error a sampled solver can absorb.

Conventions: a value vector ``v`` has shape (S,), a Q table has shape
(S, A), transitions have shape (S, A, S) indexed ``p[s, a, s']``.  When a
Q table is tied, ``greedy`` breaks ties toward the lowest action index so
runs are reproducible.
"""

from __future__ import annotations

import json
import math
import re
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, InternalError, PreconditionError

__all__ = [
    "Mdp",
    "expected_next_value",
    "successor_variance",
    "bellman_backup",
    "policy_backup",
    "policy_value_exact",
    "exact_value_iteration",
    "greedy",
    "total_variance_norm",
    "mdp_from_dict",
    "mdp_to_dict",
    "load_mdp_json",
    "save_mdp_json",
    "MAX_DENSE_BYTES",
]

_ROW_SUM_TOL = 1e-12
_VARIANCE_CLAMP = -1e-12
OPTIMUM_TOL = 1e-10  # max-norm certificate of the ground truth held by Mdp.optimum
# cells of one block: successor_variance's deviation buffer (whole states, or one
# state's A*S cells when that is more) and empirical_means' counts (whole rows)
VARIANCE_BLOCK_CELLS = 2**15
MAX_DENSE_BYTES = 2**30  # largest float64 transition tensor an instance may ask for
READ_CHUNK_CHARS = 2**16  # text load_mdp_json reads at a time
_OPEN = re.compile(r'["\[]')  # where a string or a row may start


def _kept(x, dtype) -> np.ndarray:
    """x itself if it is a read-only, aligned, C-contiguous array of dtype with no writable array
    under it (a fresh array handed over, or one an instance keeps), else a read-only copy."""
    base = x
    while isinstance(base, np.ndarray) and not base.flags.writeable:
        base = base.base  # None only below a chain of read-only arrays down to their owner
    if base is not None or not (isinstance(x, np.ndarray) and x.dtype == dtype
                                and x.flags.c_contiguous and x.flags.aligned):
        x = _frozen(np.array(x, dtype=dtype, order="C"))
    return x


def _frozen(x: np.ndarray) -> np.ndarray:
    """x marked read-only: a fresh array an instance may keep without a copy."""
    x.setflags(write=False)
    return x


@dataclass(frozen=True)
class Mdp:
    """Tabular discounted MDP: transitions ``p[s,a,s']``, rewards ``r[s,a]``
    in [0, 1], and discount ``gamma`` in [0, 1)."""

    transitions: np.ndarray
    rewards: np.ndarray
    discount: float

    def __post_init__(self):
        # a caller's writable array, or a view of one, is copied: it cannot change the instance
        p, r = _kept(self.transitions, np.float64), _kept(self.rewards, np.float64)
        if p.ndim != 3 or p.shape[0] != p.shape[2]:
            raise ConfigError(f"transitions must have shape (S, A, S), got {p.shape}")
        if r.shape != p.shape[:2]:
            raise ConfigError(
                f"rewards shape {r.shape} does not match transitions {p.shape[:2]}"
            )
        if p.shape[0] < 1 or p.shape[1] < 1:
            raise ConfigError("need at least one state and one action")
        for name, arr in (("transitions", p), ("rewards", r)):
            if not np.all(np.isfinite(arr)):
                idx = tuple(int(i) for i in np.argwhere(~np.isfinite(arr))[0])
                path = "".join(f"[{i}]" for i in idx)
                raise ConfigError(f"{name}{path} = {arr[idx]} is not finite")
        if not (0.0 <= self.discount < 1.0):
            raise ConfigError(f"discount must be in [0, 1), got {self.discount}")
        if np.any(p < 0.0) or np.any(p > 1.0):
            s, a, t = np.unravel_index(int(np.argmin(np.minimum(p, 1.0 - p))), p.shape)
            raise ConfigError(f"transitions[{s}][{a}][{t}] = {p[s, a, t]} outside [0, 1]")
        sums = p.sum(axis=2)
        bad = np.abs(sums - 1.0) > _ROW_SUM_TOL
        if np.any(bad):
            s, a = np.argwhere(bad)[0]
            raise ConfigError(
                f"transitions[{s}][{a}] sums to {sums[s, a]!r} (must be 1 within {_ROW_SUM_TOL})"
            )
        if np.any(r < 0.0) or np.any(r > 1.0):
            s, a = np.unravel_index(int(np.argmin(np.minimum(r, 1.0 - r))), r.shape)
            raise ConfigError(f"rewards[{s}][{a}] = {r[s, a]} outside [0, 1]")
        object.__setattr__(self, "transitions", p)
        object.__setattr__(self, "rewards", r)
        object.__setattr__(self, "discount", float(self.discount))

    @property
    def num_states(self) -> int:
        return self.transitions.shape[0]

    @property
    def num_actions(self) -> int:
        return self.transitions.shape[1]

    @property
    def effective_horizon(self) -> float:
        """Gamma-horizon 1 / (1 - gamma); also the value-scale upper bound."""
        return 1.0 / (1.0 - self.discount)

    @cached_property
    def optimum(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(v*, pi*, q*) of :func:`exact_value_iteration` at ``OPTIMUM_TOL``.

        Computed on first use and kept, read-only, on this instance: the
        instance is frozen and its arrays are read-only, so every solve
        checked against it shares one ground truth.
        """
        return tuple(map(_frozen, exact_value_iteration(self, tol=OPTIMUM_TOL)))


def _check_value_vec(mdp: Mdp, v: np.ndarray, name: str = "v") -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (mdp.num_states,):
        raise ValueError(f"{name} must have shape ({mdp.num_states},), got {v.shape}")
    return v


def _check_policy(mdp: Mdp, pi: np.ndarray) -> np.ndarray:
    pi = np.asarray(pi)
    if pi.shape != (mdp.num_states,):
        raise ValueError(f"policy must have shape ({mdp.num_states},), got {pi.shape}")
    if not np.issubdtype(pi.dtype, np.integer):
        raise ValueError("policy entries must be integers")
    if np.any(pi < 0) or np.any(pi >= mdp.num_actions):
        raise ValueError(f"policy entries must lie in [0, {mdp.num_actions})")
    return pi.astype(np.int64)


def _policy_rows(mdp: Mdp, pi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P_pi, r_pi): the (S, S) transition rows and the rewards pi selects."""
    idx = np.arange(mdp.num_states)
    pi = _check_policy(mdp, pi)
    return mdp.transitions[idx, pi, :], mdp.rewards[idx, pi]


def expected_next_value(mdp: Mdp, v: np.ndarray) -> np.ndarray:
    """One-step expectation of v under every row: out[s, a] = p_{s,a} . v."""
    v = _check_value_vec(mdp, v)
    s_n, a_n = mdp.num_states, mdp.num_actions
    return (mdp.transitions.reshape(s_n * a_n, s_n) @ v).reshape(s_n, a_n)


def successor_variance(mdp: Mdp, v: np.ndarray) -> np.ndarray:
    """Variance of v[s'] under each row's successor distribution, as an
    (S, A) table.

    Computed as sum_s' p * (v - mean)^2, which is algebraically the same as
    the difference-of-moments form but cannot go negative from cancellation;
    the clamp below only guards the documented contract.

    Memory: the deviations are written block by block, over whole states,
    into one reused buffer of at most max(VARIANCE_BLOCK_CELLS, A*S) float64
    cells (256 KiB while A*S <= 2^15).  Besides it a call holds only (S, A)
    tables, never an (S, A, S) temporary.  Every entry is byte-identical to
    the full-tensor form ``einsum("sat,sat->sa", p, (v - mean)**2)``: each
    is the same contraction over s' of the same deviations, and the means
    are the one (S*A, S) product ``expected_next_value`` makes.
    """
    v = _check_value_vec(mdp, v)
    mean = expected_next_value(mdp, v)
    p = mdp.transitions
    n, a_n, s_n = p.shape
    per_block = max(1, VARIANCE_BLOCK_CELLS // (a_n * s_n))
    buf = np.empty(min(n, per_block) * a_n * s_n)
    var = np.empty((n, a_n))
    for lo in range(0, n, per_block):
        hi = min(lo + per_block, n)
        dev = buf[:(hi - lo) * a_n * s_n].reshape(hi - lo, a_n, s_n)
        np.subtract(v, mean[lo:hi, :, np.newaxis], out=dev)
        np.multiply(dev, dev, out=dev)
        np.einsum("sat,sat->sa", p[lo:hi], dev, out=var[lo:hi])
    if np.any(var < _VARIANCE_CLAMP):
        raise InternalError(f"variance computed below {_VARIANCE_CLAMP}: min {var.min()}")
    return np.maximum(var, 0.0)


def bellman_backup(mdp: Mdp, v: np.ndarray) -> np.ndarray:
    """Optimal one-step backup: out[s] = max_a r[s,a] + gamma * (Pv)[s,a]."""
    return (mdp.rewards + mdp.discount * expected_next_value(mdp, v)).max(axis=1)


def policy_backup(mdp: Mdp, pi: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Backup under a fixed policy; a gamma-contraction with fixed point v^pi."""
    p_pi, r_pi = _policy_rows(mdp, pi)
    v = _check_value_vec(mdp, v)
    return r_pi + mdp.discount * (p_pi @ v)


def policy_value_exact(mdp: Mdp, pi: np.ndarray) -> np.ndarray:
    """Exact v^pi via the linear system (I - gamma P_pi) v = r_pi."""
    p_pi, r_pi = _policy_rows(mdp, pi)
    a = np.eye(mdp.num_states) - mdp.discount * p_pi
    try:
        v = np.linalg.solve(a, r_pi)
    except np.linalg.LinAlgError as exc:  # unreachable for gamma < 1
        raise InternalError(f"policy evaluation system singular: {exc}") from exc
    residual = np.abs(a @ v - r_pi).max()
    if residual > 1e-10 * mdp.effective_horizon:
        raise InternalError(f"policy evaluation residual {residual} too large")
    return v


def greedy(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-max value and row-argmax policy of a Q table (lowest index wins ties)."""
    q = np.asarray(q, dtype=float)
    if q.ndim != 2:
        raise ValueError(f"q must be a (S, A) table, got shape {q.shape}")
    return q.max(axis=1), q.argmax(axis=1).astype(np.int64)


def exact_value_iteration(
    mdp: Mdp, tol: float = 1e-9
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Iterate the Bellman backup from zero until the fixed point is certified
    to within ``tol`` in max-norm.  Returns (v*, pi*, q*).

    The stopping rule converts the iterate gap into fixed-point error through
    the standard contraction bound: gap <= tol*(1-gamma)/(2*gamma) certifies
    |v - v*| <= tol.
    """
    if tol <= 0:
        raise PreconditionError(f"tol must be positive, got {tol}")
    gamma = mdp.discount
    horizon = mdp.effective_horizon
    threshold = tol * (1.0 - gamma) / (2.0 * gamma) if gamma > 0 else tol
    # generous safety cap; convergence is hit well before it in practice
    max_iter = int(math.ceil(horizon * (math.log(horizon / tol) + 2.0))) + 2
    v = np.zeros(mdp.num_states)
    for _ in range(max_iter):
        v_next = bellman_backup(mdp, v)
        gap = np.abs(v_next - v).max()
        v = v_next
        if gap <= threshold:
            break
    q = mdp.rewards + gamma * expected_next_value(mdp, v)
    _, pi = greedy(q)
    return v, pi, q


def total_variance_norm(mdp: Mdp, pi: np.ndarray) -> float:
    """Max-norm of z = (I - gamma P^pi)^{-1} sigma(v^pi) over (s, a).

    P^pi is the (S*A) x (S*A) matrix with entry p(s'|s,a) at column
    (s', pi[s']) and zero elsewhere.  Its system reduces to an S x S one:
    z = sigma + gamma P w, where w (the entries z[s', pi[s']]) solves
    (I - gamma P_pi) w = sigma_pi.  The quantity is bounded by
    sqrt(2) * horizon^1.5 for every policy (the divisive form of that bound
    occasionally quoted elsewhere does not survive the algebra; the harness
    checks the multiplicative one numerically).
    """
    p_pi, _ = _policy_rows(mdp, pi)
    sigma = np.sqrt(successor_variance(mdp, policy_value_exact(mdp, pi)))
    sigma_pi = sigma[np.arange(mdp.num_states), np.asarray(pi)]
    w = np.linalg.solve(np.eye(mdp.num_states) - mdp.discount * p_pi, sigma_pi)
    z = sigma + mdp.discount * expected_next_value(mdp, w)
    return float(np.abs(z).max())


def _shown(x) -> str:
    """A document or entry as a message shows it: JSON text for a scalar."""
    return ("an object" if isinstance(x, dict) else "an array" if isinstance(x, (list, np.ndarray))
            else json.dumps(x, default=repr))


def _non_number(x, at=""):
    """(index path, entry) of the first entry of the nested lists x that is
    not a number, or None; an array (a row load_mdp_json checked) counts."""
    for i, e in enumerate(x if isinstance(x, list) else ()):
        if isinstance(e, list):
            if found := _non_number(e, f"{at}[{i}]"):
                return found
        elif isinstance(e, bool) or not isinstance(e, (int, float, np.number, np.ndarray)):
            return f"{at}[{i}]", e
    return None


def mdp_from_dict(doc: dict, source: str = "<mdp>") -> Mdp:
    """Build an Mdp from the JSON document format, with path-specific errors."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{source}: MDP document must be a JSON object, got {_shown(doc)}")
    for key in ("S", "A", "gamma", "r", "p"):
        if key not in doc:
            raise ConfigError(f"{source}: missing required key '{key}'")
    s, a = doc["S"], doc["A"]
    if not all(isinstance(n, int) and not isinstance(n, bool) and n >= 1 for n in (s, a)):
        raise ConfigError(f"{source}: S and A must be positive integers")
    size = 8 * s * s * a
    if size > MAX_DENSE_BYTES:  # before r or p is converted
        raise ConfigError(f"{source}: S = {s} and A = {a} need a dense transition tensor of "
                          f"8*S^2*A = {size} bytes, above {MAX_DENSE_BYTES}")
    for key in ("r", "p"):  # np.asarray would take true as 1.0 and "0.5" as 0.5
        if bad := _non_number(doc[key]):
            raise ConfigError(f"{source}: {key}{bad[0]} must be a number, got {_shown(bad[1])}")
    try:
        p = np.asarray(doc["p"], dtype=float)
        r = np.asarray(doc["r"], dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{source}: r/p are not numeric arrays: {exc}") from exc
    if p.shape != (s, a, s):
        raise ConfigError(f"{source}: p has shape {p.shape}, expected ({s}, {a}, {s})")
    if r.shape != (s, a):
        raise ConfigError(f"{source}: r has shape {r.shape}, expected ({s}, {a})")
    gamma = doc["gamma"]
    if isinstance(gamma, bool) or not isinstance(gamma, (int, float)):
        raise ConfigError(f"{source}: gamma must be a number, got {gamma!r}")
    try:
        return Mdp(transitions=p, rewards=r, discount=float(gamma))
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def _doc(mdp: Mdp, r, p) -> dict:
    return {"S": mdp.num_states, "A": mdp.num_actions, "gamma": mdp.discount, "r": r, "p": p}


def mdp_to_dict(mdp: Mdp) -> dict:
    return _doc(mdp, mdp.rewards.tolist(), mdp.transitions.tolist())


def _read_json(path):
    """The JSON document at path; a decode error is a ConfigError naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from exc


def _write_json(doc, path, default=None) -> None:
    """Write doc with sorted keys, two-space indents and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2, default=default)
        fh.write("\n")


def _put_back(x, rows, buf):
    """Skeleton x with each [i] replaced by rows[i] (every array of scalars was a row); a row of floats,
    or rows of one shape laid end to end in buf, as (offset, shape) until _view makes it a view."""
    if isinstance(x, dict):
        return {k: _view(_put_back(v, rows, buf), buf) for k, v in x.items()}
    if not isinstance(x, list):
        return x
    if len(x) == 1 and type(x[0]) is int:
        return rows[x[0]]
    x = [_put_back(v, rows, buf) for v in x]
    lo, shape = x[0] if x and type(x[0]) is tuple else (0, ())
    if shape and x == [(lo + j * math.prod(shape), shape) for j in range(len(x))]:
        return lo, (len(x), *shape)  # p's rows: one (S, A, S) view, no copy
    return [_view(v, buf) for v in x]


def _view(x, buf):  # (offset, shape) as a read-only view of buf
    return buf[x[0]:x[0] + math.prod(x[1])].reshape(x[1]) if type(x) is tuple else x


def _read_rows(path):
    """The JSON document at path, read READ_CHUNK_CHARS at a time or more: each row (an array with
    no bracket, brace or quote inside) alone into one float64 buffer, the rest with row i as [i];
    raises where json.load would."""
    rows, skeleton, carry, cells, held, buf, n = [], [], "", 0, 0, np.empty(0), 0
    with open(path, "r", encoding="utf-8") as fh:
        while chunk := fh.read(max(READ_CHUNK_CHARS, len(carry))):  # a long piece stays linear
            text, start, pos, stop, carry = carry + chunk, 0, 0, 0, ""
            while m := _OPEN.search(text, pos):
                i, pos = m.span()
                if text[i] == '"':
                    with suppress(json.JSONDecodeError):  # else cut by the text's end (or not valid): carried
                        pos = json.decoder.scanstring(text, pos)[1]
                        continue
                elif stop <= i and (stop := text.find("]", i)) < 0:
                    stop = len(text)  # no array ends in this text
                if text[i] == "[" and any(text.find(c, pos, stop) >= 0 for c in '[{"'):
                    continue  # an array with an array, object or string inside
                if text[i] == '"' or stop == len(text):
                    carry = text[i:]  # a string or a row cut by the text's end
                    break
                if 8 * (cells := cells + text.count(",", i, stop) + 1) > 2 * MAX_DENSE_BYTES:
                    raise ConfigError(f"{path}: arrays of more than {2 * MAX_DENSE_BYTES} bytes as float64")
                # an int entry becomes float(int(t)) ("-0" too), or inf past float range
                row = json.loads(text[i:stop + 1], parse_int=lambda t: float(t) + 0.0)
                skeleton += (text[start:i], f"[{len(rows)}]")
                held += i - start
                if set(map(type, row)) <= {float}:
                    if n + len(row) > len(buf):  # realloc, an eighth more each time
                        buf.resize(n + len(row) + n // 8, refcheck=False)
                    buf[n:n + len(row)] = row
                    row, n = (n, (len(row),)), n + len(row)
                rows.append(row)
                start = pos = stop + 1
            skeleton.append(text[start:len(text) - len(carry)])
            if max(held := held + len(skeleton[-1]), len(carry)) > MAX_DENSE_BYTES:
                raise ConfigError(f"{path}: more than {MAX_DENSE_BYTES} characters of text outside "
                                  "the rows, or in one string or row")
    buf.resize(n, refcheck=False)
    return _view(_put_back(json.loads("".join(skeleton) + carry), rows, _frozen(buf)), buf)


def load_mdp_json(path) -> Mdp:
    try:
        doc = _read_rows(path)
    except json.JSONDecodeError:
        doc = _read_json(path)  # raises with json's own message
    return mdp_from_dict(doc, source=str(path))


def save_mdp_json(mdp: Mdp, path) -> None:
    # rows go to the encoder as arrays, each made Python floats as it is written
    _write_json(_doc(mdp, list(mdp.rewards), [list(x) for x in mdp.transitions]), path,
                default=np.ndarray.tolist)
