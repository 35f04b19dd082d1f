"""Deterministic stream derivation on top of the Philox counter-based PRNG.

Every random draw in the package comes from a stream derived from a base
seed plus a structured key (call index, epoch/iteration labels, ...).  Two
processes that derive the same key from the same seed see the same stream,
which is what makes solver reports bit-identical across reruns.
``KeyTemplate`` encodes the keys of a family of streams, such as a solve's
argmax or line-13 streams, in bulk; ``bulk_passes`` computes the first words
of many of them in vectorized Philox passes under one word budget, and
``uniforms`` and ``first_draws`` turn those words into the values the
streams' Generators draw.
"""

from __future__ import annotations

import hashlib
import math
import struct
from collections.abc import Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_SEP = "\x1f"  # never appears in the short labels used as key parts
_UINT64 = np.dtype(np.uint64)
# 0-d arrays: numpy broadcasts them faster than it converts uint64 scalars
_LOW32 = np.array(0xFFFFFFFF, dtype=np.uint64)
_SHIFT32 = np.array(32, dtype=np.uint64)
# Philox4x64 round multipliers, each with its 32-bit halves, and Weyl key
# increments (Salmon et al., SC 2011)
_PHILOX_M = tuple(tuple(np.array(v, dtype=np.uint64) for v in (m, m & 0xFFFFFFFF, m >> 32))
                  for m in (0xD2E7470EE14C6C93, 0xCA5A826395121157))
_PHILOX_W = tuple(np.array(w, dtype=np.uint64) for w in (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B))
_PHILOX_ROUNDS = 10
PASS_WORDS = 2**13  # Philox words per bulk pass, over all of its streams
_ZERO_WORDS = (0, 0, 0, 0)
_KEY_WORDS = struct.Struct("=2Q").unpack  # the two key words, native order like np.frombuffer


def _encode_part(p) -> str:
    if isinstance(p, (int, np.integer)) and not isinstance(p, bool):
        return str(int(p))
    if isinstance(p, str):
        return p
    raise TypeError(f"stream key parts must be ints or strings, got {p!r}")


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
    text = _SEP.join([str(int(seed)), *map(_encode_part, parts)])
    return hashlib.blake2b(text.encode(), digest_size=16).digest()


def derived_rng(seed: int, *parts, reuse=None) -> np.random.Generator:
    """A Generator at the start of the stream that is a pure function of
    (seed, *parts): a new one, or ``reuse`` (a Philox Generator) re-keyed in
    place at a third of the cost, which ends the stream it was on."""
    return keyed_rng(_key_digest(seed, parts), reuse)


def keyed_rng(digest: bytes, reuse=None) -> np.random.Generator:
    """``derived_rng`` from the stream's 16-byte key digest, as
    ``KeyTemplate.digests`` gives it."""
    if reuse is None:
        key = np.frombuffer(digest, dtype=np.uint64)
        return np.random.Generator(np.random.Philox(_PhiloxKey(key)))
    if not (isinstance(reuse, np.random.Generator)
            and type(reuse.bit_generator) is np.random.Philox):
        raise TypeError(f"reuse must be a Philox Generator, got {reuse!r}")
    # counter 0, the four-word output buffer spent and no 32-bit half held
    reuse.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZERO_WORDS, "key": _KEY_WORDS(digest)},
        "buffer": _ZERO_WORDS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return reuse


def _mulhilo(m: tuple, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products m * x, from 32-bit
    halves (``m`` is a multiplier with its low and high halves); no partial
    sum can overflow 64 bits."""
    m, m_lo, m_hi = m
    x_lo, x_hi = x & _LOW32, x >> _SHIFT32
    t = x_hi * m_lo + ((x_lo * m_lo) >> _SHIFT32)
    mid = x_lo * m_hi + (t & _LOW32)
    return x_hi * m_hi + (t >> _SHIFT32) + (mid >> _SHIFT32), x * m


def _philox_words(digests: bytes, n: int) -> np.ndarray:
    """(m, n) uint64: the first n words of each stream whose 16-byte key
    digest is in ``digests``, as a fresh ``np.random.Philox`` under that key
    produces them.  Output block j, words 4j to 4j+3, is Philox4x64-10 at
    counter (j+1, 0, 0, 0); one numpy pass covers every block of every key."""
    key = np.frombuffer(digests, dtype=np.uint64).reshape(-1, 2)
    blocks = -(-n // 4)
    k0, k1 = key[:, :1], key[:, 1:]
    # (1, blocks) counters and (1, 1) zeros broadcast against the (m, 1)
    # keys; by the third round every word is (m, blocks)
    c0 = np.arange(1, blocks + 1, dtype=np.uint64)[None, :]
    c1 = c2 = c3 = np.zeros((1, 1), dtype=np.uint64)
    for r in range(_PHILOX_ROUNDS):
        if r:
            k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return np.stack((c0, c1, c2, c3), axis=2).reshape(len(key), 4 * blocks)[:, :n]


def uniforms(words: np.ndarray) -> np.ndarray:
    """``random()`` of each word: (w >> 11) * 2^-53.  On a stream's first n
    words, as ``bulk_passes`` gives them, that is ``g.random(n)``; and
    ``g.uniform(-1, 1)`` is -1 + 2u on the next one, as numpy computes it."""
    return (words >> np.uint64(11)).astype(np.float64) * 2.0**-53


class KeyTemplate(Sequence):
    """The stream keys a template such as ("vr", range(1, 4), range(1, 11),
    "line13") spells out.  Each part is fixed (an int or a string) or a slot:
    a range, list, tuple or array of int values.  Keys run over every
    combination of slot values, the first slot outermost, as a sequence that
    builds a key tuple only when indexed.  A slice (step 1) is the same
    template over part of that run."""

    __slots__ = ("parts", "_slots", "_sizes", "_start", "_stop")

    def __init__(self, parts: tuple, start: int = 0, stop: int | None = None):
        self.parts = tuple(parts)
        self._slots = [i for i, p in enumerate(self.parts)
                       if isinstance(p, (range, list, tuple, np.ndarray))]
        self._sizes = [len(self.parts[i]) for i in self._slots]
        self._start, self._stop = start, math.prod(self._sizes) if stop is None else stop

    def __len__(self) -> int:
        return self._stop - self._start

    def _positions(self, flat: int) -> list:
        """Each slot's position in the key at ``flat`` in the full run."""
        pos = []
        for size in reversed(self._sizes):
            flat, j = divmod(flat, size)
            pos.append(j)
        return pos[::-1]

    def __getitem__(self, i):
        run = range(self._start, self._stop)[i]
        if isinstance(i, slice):
            if run.step != 1:
                raise ValueError("a KeyTemplate slice must have step 1")
            return KeyTemplate(self.parts, run.start, run.stop)
        key = list(self.parts)
        for slot, j in zip(self._slots, self._positions(run)):
            key[slot] = self.parts[slot][j]
        return tuple(key)

    def first_slot(self) -> np.ndarray:
        """The first slot's position in each key (all 0 without slots)."""
        inner = math.prod(self._sizes[1:]) or 1
        return np.arange(self._start, self._stop) // inner

    def digests(self, seed: int) -> bytes:
        """Every key's 16-byte digest, in order: byte for byte
        ``b"".join(_key_digest(seed, key) for key in self)``.

        Each key's bytes are those ``_key_digest`` hashes, fixed text with the
        slot values between.  Keys run over the last slot in runs that share
        everything before its value: blake2b hashes that prefix once per run
        and each key copies the state and adds its tail, instead of encoding
        and hashing every key from scratch."""
        if not len(self):
            return b""
        texts, text = [], str(int(seed))  # the fixed text before, between and after slots
        for i, p in enumerate(self.parts):
            if i in self._slots:
                texts.append((text + _SEP).encode())
                text = ""
            else:
                text += _SEP + _encode_part(p)
        texts.append(text.encode())
        root = hashlib.blake2b(texts[0], digest_size=16)
        if not self._slots:
            return root.digest()
        *outer, inner = [self.parts[i] for i in self._slots]

        def tails(lo, hi):  # the last slot's values with the closing text
            return [_encode_part(v).encode() + texts[-1] for v in inner[lo:hi]]

        every = tails(0, len(inner)) if len(self) > len(inner) else None  # for every run
        out, flat = [], self._start
        while flat < self._stop:  # one run over the last slot per pass
            *at, lo = self._positions(flat)
            prefix = root
            for d, (values, j) in enumerate(zip(outer, at)):
                prefix = prefix.copy()
                prefix.update(_encode_part(values[j]).encode() + texts[d + 1])
            hi = min(len(inner), lo + self._stop - flat)
            copy = prefix.copy
            for tail in (tails(lo, hi) if every is None else every[lo:hi]):
                h = copy()
                h.update(tail)
                out.append(h.digest())
            flat += hi - lo
        return b"".join(out)


def bulk_passes(seed: int, keys: KeyTemplate, n: int, group: int = 1):
    """Yield (chunk, digests, words) for consecutive chunks of ``keys``: the
    chunk's ``KeyTemplate``, its streams' concatenated key digests, and
    their first n words, (m, n) uint64 from ``_philox_words``.

    A chunk holds ``max(1, PASS_WORDS // (n * group)) * group`` streams, so
    memory stays bounded for any number of keys, and whole groups of
    ``group`` consecutive keys (a sweep's states, say) are never split.
    """
    per_pass = max(1, PASS_WORDS // (n * group)) * group
    for first in range(0, len(keys), per_pass):
        chunk = keys[first:first + per_pass]
        digests = chunk.digests(seed)
        yield chunk, digests, _philox_words(digests, n)


def first_draws(words: np.ndarray, k: int, stream) -> tuple[np.ndarray, np.ndarray]:
    """The uniform and the index that ``g.random(); g.integers(k)`` draw on
    each stream, from the (m, 2) array of its first two Philox words (w0, w1).

    ``random()`` is ``uniforms(w0)``.  ``integers(k)`` draws nothing for
    k = 1, and otherwise is numpy's Lemire step on the low 32 bits of w1; a
    stream whose step would reject and draw again (probability below k/2^32)
    is replayed on ``stream(i)``, the i-th stream's Generator at its start.
    Returns (uniforms float64, indices int64).
    """
    if not 1 <= k < 2**32:
        raise ValueError(f"k must lie in [1, 2^32), got {k}")
    u = uniforms(words[:, 0])
    if k == 1:
        return u, np.zeros(len(u), dtype=np.int64)
    scaled = (words[:, 1] & _LOW32) * np.uint64(k)
    indices = (scaled >> _SHIFT32).astype(np.int64)
    threshold = (2**32 - k) % k
    for i in np.flatnonzero((scaled & _LOW32) < threshold):
        g = stream(i)
        g.random()
        indices[i] = g.integers(k)
    return u, indices
