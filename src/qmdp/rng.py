"""Deterministic stream derivation on top of the Philox counter-based PRNG.

Every random draw in the package comes from a stream derived from a base
seed plus a structured key (call index, epoch/iteration labels, ...).  Two
processes that derive the same key from the same seed see the same stream,
which is what makes solver reports bit-identical across reruns and lets
concurrent callers split independent child streams without coordination.
"""

from __future__ import annotations

import hashlib

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_SEP = "\x1f"  # never appears in the short labels used as key parts
_UINT64 = np.dtype(np.uint64)


def _encode_part(p) -> str:
    if isinstance(p, (int, np.integer)) and not isinstance(p, bool):
        return str(int(p))
    if isinstance(p, str):
        return p
    raise TypeError(f"stream key parts must be ints or strings, got {p!r}")


def _encode_parts(seed: int, parts: tuple) -> bytes:
    pieces = [str(int(seed))]
    for p in parts:
        # exact-type fast paths for the common labels; bool is not int here
        t = type(p)
        if t is str:
            pieces.append(p)
        elif t is int:
            pieces.append(str(p))
        else:
            pieces.append(_encode_part(p))
    return _SEP.join(pieces).encode()


class _PhiloxKey(ISeedSequence):
    """Hands a precomputed key to ``np.random.Philox``.

    Passing ``key=`` instead makes numpy build, and then discard, an
    OS-entropy SeedSequence on every construction.  The resulting bit
    generator state is the same either way.  Any request other than
    Philox's key (two uint64 words) is refused: this is a key, not a
    source of further entropy.
    """

    __slots__ = ("_key",)

    def __init__(self, key: np.ndarray):
        self._key = key

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != _UINT64:
            raise ValueError(
                f"a derived stream only provides a Philox key (2 x uint64), "
                f"not {n_words} x {np.dtype(dtype)}"
            )
        return self._key


def derived_rng(seed: int, *parts) -> np.random.Generator:
    """Return a fresh Generator whose stream is a pure function of (seed, *parts)."""
    digest = hashlib.blake2b(_encode_parts(seed, parts), digest_size=16).digest()
    key = np.frombuffer(digest, dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_PhiloxKey(key)))


def child_seed(seed: int, *parts) -> int:
    """Derive a 63-bit child seed; used when splitting oracles."""
    digest = hashlib.blake2b(_encode_parts(seed, parts), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1
