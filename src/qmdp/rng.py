"""Deterministic stream derivation on top of the Philox counter-based PRNG.

Every random draw in the package comes from a stream derived from a base
seed plus a structured key (call index, epoch/iteration labels, ...).  Two
processes that derive the same key from the same seed see the same stream,
which is what makes solver reports bit-identical across reruns and lets
concurrent callers split independent child streams without coordination.
``first_draws`` computes the first draws of many derived streams in one
vectorized Philox pass, with the values those streams' Generators give.
"""

from __future__ import annotations

import hashlib

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_SEP = "\x1f"  # never appears in the short labels used as key parts
_UINT64 = np.dtype(np.uint64)
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
# Philox4x64 round multipliers and Weyl key increments (Salmon et al., SC 2011)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_PHILOX_ROUNDS = 10


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


def _key_digest(seed: int, parts: tuple) -> bytes:
    return hashlib.blake2b(_encode_parts(seed, parts), digest_size=16).digest()


def derived_rng(seed: int, *parts) -> np.random.Generator:
    """Return a fresh Generator whose stream is a pure function of (seed, *parts)."""
    key = np.frombuffer(_key_digest(seed, parts), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_PhiloxKey(key)))


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products m * x, from 32-bit halves."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi = x & _LOW32, x >> _SHIFT32
    lh, hl = x_lo * m_hi, x_hi * m_lo
    mid = ((x_lo * m_lo) >> _SHIFT32) + (lh & _LOW32) + (hl & _LOW32)
    hi = x_hi * m_hi + (lh >> _SHIFT32) + (hl >> _SHIFT32) + (mid >> _SHIFT32)
    return hi, x * np.uint64(m)


def _philox_first_words(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Words 0 and 1 of Philox4x64-10's first output block (counter (1, 0, 0, 0))
    under each of the (n, 2) keys: the first two uint64 a fresh
    ``np.random.Philox`` with that key produces."""
    k0, k1 = key[:, 0], key[:, 1]
    c0 = np.ones(len(key), dtype=np.uint64)
    c1 = c2 = c3 = np.zeros(len(key), dtype=np.uint64)
    for r in range(_PHILOX_ROUNDS):
        if r:
            k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return c0, c1


def first_draws(seed: int, keys, k: int) -> tuple[np.ndarray, np.ndarray]:
    """For each parts tuple in ``keys``, the uniform and the index that
    ``g = derived_rng(seed, *parts); g.random(); g.integers(k)`` draw, for all
    streams in one numpy pass over their first Philox output block (w0, w1).

    ``random()`` is (w0 >> 11) * 2^-53.  ``integers(k)`` draws nothing for
    k = 1, and otherwise is numpy's Lemire step on the low 32 bits of w1; a
    stream whose step would reject and draw again (probability below k/2^32)
    is replayed through ``derived_rng`` itself.  Returns (uniforms float64,
    indices int64).
    """
    if not 1 <= k < 2**32:
        raise ValueError(f"k must lie in [1, 2^32), got {k}")
    keys = list(keys)
    digests = b"".join([_key_digest(seed, parts) for parts in keys])
    w0, w1 = _philox_first_words(np.frombuffer(digests, dtype=np.uint64).reshape(-1, 2))
    uniforms = (w0 >> np.uint64(11)).astype(np.float64) * 2.0**-53
    if k == 1:
        return uniforms, np.zeros(len(keys), dtype=np.int64)
    scaled = (w1 & _LOW32) * np.uint64(k)
    indices = (scaled >> _SHIFT32).astype(np.int64)
    threshold = (2**32 - k) % k
    for i in np.flatnonzero((scaled & _LOW32) < threshold):
        g = derived_rng(seed, *keys[i])
        g.random()
        indices[i] = g.integers(k)
    return uniforms, indices


def child_seed(seed: int, *parts) -> int:
    """Derive a 63-bit child seed; used when splitting oracles."""
    digest = hashlib.blake2b(_encode_parts(seed, parts), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1
