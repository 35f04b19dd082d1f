"""Generative-model access with query accounting, plus the construction of
the quantum generative model as an exact amplitude table on dyadic
probability rows (:class:`DyadicMdp`).

The ledger is the artifact's central measurable: every classical sample and
every charged quantum oracle call lands in it, broken down by caller-supplied
phase labels.  Sampling is replayable: each call derives its own Philox
stream from (seed, call index), so two oracles with equal seeds produce
identical sample sequences.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ConfigError
from .mdp import VARIANCE_BLOCK_CELLS, Mdp, _check_value_vec, _doc, _frozen, _kept
from .rng import KeyTemplate, derived_rng, key_digests, keyed_rng

__all__ = [
    "QueryLedger",
    "SampleOracle",
    "DyadicRow",
    "DyadicMdp",
    "reversible_successor_map",
    "quantize_row",
    "quantize_mdp",
]

_UNLABELED = "(unlabeled)"


@dataclass
class QueryLedger:
    """Monotone counters of generative-oracle invocations.

    Conservation invariant: classical_samples + quantum_oracle_calls equals
    the sum over phases, because every charge lands in some phase bucket
    (``(unlabeled)`` when the caller gave none).
    """

    classical_samples: int = 0
    quantum_oracle_calls: int = 0
    phases: dict = field(default_factory=dict)

    def charge_classical(self, n: int, phase: str | None = None) -> None:
        self._charge(n, phase, classical=True)

    def charge_quantum(self, n: int, phase: str | None = None) -> None:
        self._charge(n, phase, classical=False)

    def _charge(self, n, phase, classical):
        n = int(n)
        if n < 0:
            raise ValueError("ledger charges must be non-negative")
        if classical:
            self.classical_samples += n
        else:
            self.quantum_oracle_calls += n
        label = phase if phase is not None else _UNLABELED
        self.phases[label] = self.phases.get(label, 0) + n

    @property
    def total(self) -> int:
        return self.classical_samples + self.quantum_oracle_calls

    def to_dict(self) -> dict:
        return {
            "classical_samples": self.classical_samples,
            "quantum_oracle_calls": self.quantum_oracle_calls,
            "phases": dict(sorted(self.phases.items())),
        }


class SampleOracle:
    """Classical generative model: draw s' ~ p(.|s, a) for any chosen (s, a).

    An instance advances a call counter and charges its ledger, so it must
    not be shared mutably across threads.  Each stream it hands out re-keys
    its one Philox Generator, so a stream is valid until it hands out the next.
    """

    def __init__(self, mdp: Mdp, seed: int, ledger: QueryLedger | None = None):
        self.mdp = mdp
        self.seed = int(seed)
        self.ledger = ledger if ledger is not None else QueryLedger()
        self._calls = 0
        # the call streams' key digests, hashed a chunk at a time as calls reach them
        self._call_keys = key_digests(KeyTemplate((self.seed, "call", range(sys.maxsize))))
        self._rng = None  # built by the first stream, re-keyed by every later one

    def _next_rng(self) -> np.random.Generator:
        self._calls += 1
        return self.keyed_rng(next(self._call_keys))

    def _check_indices(self, s: int, a: int) -> None:
        for name, arg, i, size in (("state", "s", s, self.mdp.num_states),
                                   ("action", "a", a, self.mdp.num_actions)):
            _check_int(f"{name} index {arg}", i)
            if not 0 <= i < size:
                raise IndexError(f"{name} index {i} out of range [0, {size})")

    def sample_counts(self, s: int, a: int, n: int, phase: str | None = None) -> np.ndarray:
        """Counts of n iid successor draws, one multinomial on the next call stream; charges n."""
        self._check_indices(s, a)
        _check_count(n)
        counts = self._next_rng().multinomial(n, self.mdp.transitions[s, a])
        self.ledger.charge_classical(n, phase)
        return counts

    def empirical_means(self, v: np.ndarray, n: int, phase: str | None = None) -> np.ndarray:
        """(S, A) means ``counts @ v / n`` of n successor draws per (s, a); charges n*S*A.
        Multinomial counts cost O(S) a row, not O(n), which makes the classical baseline
        runnable at its true sample sizes.  All rows come from the next call stream, in
        row-major order as a row loop on it draws them, VARIANCE_BLOCK_CELLS // S at a time."""
        _check_count(n)
        v = _check_value_vec(self.mdp, v, "value map")
        p, rng = self.mdp.transitions, self._next_rng()
        rows, step = p.reshape(-1, p.shape[2]), max(1, VARIANCE_BLOCK_CELLS // p.shape[2])
        sums = np.empty(len(rows))
        for lo in range(0, len(rows), step):
            np.einsum("ij,j->i", rng.multinomial(n, rows[lo:lo + step]), v, out=sums[lo:lo + step])
        self.ledger.charge_classical(n * len(rows), phase)
        return sums.reshape(p.shape[:2]) / n

    def derive_rng(self, *parts) -> np.random.Generator:
        """Named auxiliary stream, independent of the call counter; valid until the next stream."""
        self._rng = derived_rng(self.seed, *parts, reuse=self._rng)
        return self._rng

    def keyed_rng(self, digest: bytes) -> np.random.Generator:
        """The stream with a 16-byte key digest, as ``KeyTemplate.digests``,
        ``rng.key_digests`` and ``rng.bulk_passes`` give it; valid until the
        next stream.  Every stream a solver reads comes here."""
        self._rng = keyed_rng(digest, reuse=self._rng)
        return self._rng


def _check_int(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")


def _check_count(n) -> None:
    _check_int("sample count n", n)
    if n < 0:
        raise ValueError("sample count must be non-negative")


@dataclass(frozen=True)
class DyadicRow:
    """A successor distribution whose probabilities are k / 2^m exactly."""

    denominator_bits: int
    counts: tuple

    def __post_init__(self):
        m = self.denominator_bits
        counts = tuple(int(k) for k in self.counts)
        if m < 0:
            raise ConfigError("denominator_bits must be non-negative")
        if any(k < 0 for k in counts):
            raise ConfigError("dyadic counts must be non-negative")
        if sum(counts) != (1 << m):
            raise ConfigError(
                f"dyadic counts sum to {sum(counts)}, expected 2^{m} = {1 << m}"
            )
        object.__setattr__(self, "counts", counts)


def reversible_successor_map(row: DyadicRow) -> np.ndarray:
    """Map x in {0,1}^m -> s', assigning consecutive lexicographic blocks of
    x-values to successors in increasing order; block sizes are the counts,
    so each preimage has exactly 2^m * p(s') elements."""
    return np.repeat(
        np.arange(len(row.counts), dtype=np.int64), np.asarray(row.counts, dtype=np.int64)
    )


def quantize_row(probabilities, m: int) -> DyadicRow:
    """Largest-remainder rounding of a probability row onto denominator 2^m,
    0 <= m <= 62 (a count of 2^m must fit in int64)."""
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or not 0 <= m <= 62:
        raise ConfigError(f"m must be an integer in [0, 62], got {m!r}")
    p = np.asarray(probabilities, dtype=float)
    if p.ndim != 1:
        raise ConfigError("probability row must be one-dimensional")
    if np.any(p < 0):
        raise ConfigError("probabilities must be non-negative")
    if abs(p.sum() - 1.0) > 1e-12:
        raise ConfigError(f"probability row sums to {p.sum()!r}, expected 1 within 1e-12")
    total = 1 << m
    if int(np.count_nonzero(p)) > total:
        raise ConfigError(
            f"m={m} too small: 2^m={total} slots for {np.count_nonzero(p)} nonzero entries"
        )
    scaled = p * total
    base = np.floor(scaled).astype(np.int64)
    deficit = total - int(base.sum())
    # only a successor the row can reach may take a unit: a count on a zero
    # entry would let the amplitude oracle reach it
    support = np.flatnonzero(p)
    if not 0 <= deficit <= len(support):
        # rounding up at most one unit per entry cannot absorb the row's sum
        # error once 2^m scales it past a unit (from m = 53, one float ulp,
        # or earlier when zero entries leave fewer entries to round up)
        sum_error = float(sum(map(Fraction, p.tolist())) - 1)
        raise ConfigError(
            f"m={m} too large for this row: its sum error {sum_error:.3g} leaves "
            f"{deficit} units of 2^-{m} to round up, outside [0, {len(support)}]"
        )
    if deficit:
        remainders = scaled[support] - base[support]
        # stable sort => ties go to the lowest index, keeping runs reproducible
        order = support[np.argsort(-remainders, kind="stable")]
        base[order[:deficit]] += 1
    return DyadicRow(denominator_bits=m, counts=tuple(int(k) for k in base))


@dataclass(frozen=True)
class DyadicMdp:
    """An Mdp whose rows have been replaced by dyadic counts (shared m), and
    the amplitude table of its quantum generative model.

    For each (s, a) the unitary prepares sum_s' sqrt(p(s'|s,a)) |s'> (tensored
    with a garbage register that no consumer interferes on).  Every row's
    counts must sum to 2^m, so the amplitudes are exact square roots of
    dyadic rationals: squared and re-summed in rational arithmetic they give
    back exactly 1.
    """

    mdp: Mdp  # the quantized Mdp (rows are counts / 2^m)
    denominator_bits: int
    counts: np.ndarray  # (S, A, S) int64
    max_distortion: float  # max entrywise |quantized - original|

    def __post_init__(self):
        # kept read-only, as Mdp keeps its arrays: no later edit can un-normalise the amplitudes
        counts = _kept(self.counts, np.int64)
        object.__setattr__(self, "counts", counts)
        total = 1 << self.denominator_bits
        sums = counts.sum(axis=2)
        if np.any(sums != total):
            s, a = np.argwhere(sums != total)[0]
            raise ConfigError(
                f"row ({s}, {a}) is not dyadic: counts sum to {sums[s, a]}, expected {total}"
            )

    @property
    def amplitudes(self) -> np.ndarray:
        """(S, A, S) amplitudes sqrt(k / 2^m) of the reversible successor map
        applied to the uniform superposition over the m auxiliary bits."""
        return np.sqrt(self.counts / float(1 << self.denominator_bits))

    def probability_exact(self, s: int, a: int, successor: int) -> Fraction:
        return Fraction(int(self.counts[s, a, successor]), 1 << self.denominator_bits)

    def row(self, s: int, a: int) -> DyadicRow:
        return DyadicRow(self.denominator_bits, tuple(int(k) for k in self.counts[s, a]))

    def to_dict(self) -> dict:
        """The quantized MDP's document with m, counts and max_distortion, each array a
        list of numpy rows: write it with default=np.ndarray.tolist, a row at a time."""
        mdp = self.mdp
        return dict(_doc(mdp, list(mdp.rewards), [list(x) for x in mdp.transitions]),
                    m=self.denominator_bits, counts=[list(x) for x in self.counts],
                    max_distortion=self.max_distortion)


def quantize_mdp(mdp: Mdp, m: int = 20) -> DyadicMdp:
    """Quantize every transition row to denominator 2^m.

    Quantization distortion interacts with downstream accuracy guarantees,
    so it is carried on the result instead of being absorbed silently.
    """
    s_n, a_n = mdp.num_states, mdp.num_actions
    counts = np.zeros((s_n, a_n, s_n), dtype=np.int64)
    for s, a in np.ndindex(s_n, a_n):
        counts[s, a] = quantize_row(mdp.transitions[s, a], m).counts
    quantized = counts / float(1 << m)
    error = quantized - mdp.transitions
    distortion = float(np.abs(error, out=error).max())
    new_mdp = Mdp(transitions=_frozen(quantized), rewards=mdp.rewards, discount=mdp.discount)
    return DyadicMdp(new_mdp, m, _frozen(counts), distortion)
