"""Deterministic stream derivation on top of the Philox counter-based PRNG.

Every random draw in the package comes from a stream derived from a base
seed plus a structured key (call index, epoch/iteration labels, ...).  Two
processes that derive the same key from the same seed see the same stream,
which is what makes solver reports bit-identical across reruns.
``first_draws`` computes the first draws of many derived streams in one
vectorized Philox pass, with the values those streams' Generators give;
``ArgmaxKeys`` encodes the keys of a solve's argmax streams in bulk.
"""

from __future__ import annotations

import hashlib
import struct
from collections.abc import Sequence

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
# Every derived stream starts at counter 0.  Passing Philox this array (it
# copies it) skips numpy's int -> array conversion of its default counter; a
# view of immutable bytes, it can never be made writable.
_ZERO_COUNTER = np.frombuffer(bytes(32), dtype=np.uint64)
_ZERO_WORDS = (0, 0, 0, 0)
_KEY_WORDS = struct.Struct("=2Q").unpack  # the two key words, native order like np.frombuffer


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


def derived_rng(seed: int, *parts, reuse=None) -> np.random.Generator:
    """A Generator at the start of the stream that is a pure function of
    (seed, *parts): a new one, or ``reuse`` (a Philox Generator) re-keyed in
    place at a third of the cost, which ends the stream it was on."""
    digest = _key_digest(seed, parts)
    if reuse is None:
        key = np.frombuffer(digest, dtype=np.uint64)
        return np.random.Generator(np.random.Philox(_PhiloxKey(key), counter=_ZERO_COUNTER))
    if not (isinstance(reuse, np.random.Generator)
            and type(reuse.bit_generator) is np.random.Philox):
        raise TypeError(f"reuse must be a Philox Generator, got {reuse!r}")
    # counter 0, the four-word output buffer spent and no 32-bit half held
    reuse.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZERO_WORDS, "key": _KEY_WORDS(digest)},
        "buffer": _ZERO_WORDS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return reuse


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


class ArgmaxKeys(Sequence):
    """The stream keys (label, l, s, "argmax"), l over ``sweeps`` (outer) and
    s over ``states`` (inner), as a sequence that builds a key tuple only
    when indexed."""

    __slots__ = ("label", "sweeps", "states")

    def __init__(self, label: str, sweeps, states):
        self.label, self.sweeps, self.states = label, sweeps, states

    def __len__(self) -> int:
        return len(self.sweeps) * len(self.states)

    def __getitem__(self, i: int) -> tuple:
        l, s = divmod(range(len(self))[i], len(self.states))
        return (self.label, self.sweeps[l], self.states[s], "argmax")

    def digests(self, seed: int) -> bytes:
        """Every key's 16-byte digest, in order: byte for byte
        ``b"".join(_key_digest(seed, key) for key in self)``.

        Each key's bytes follow one template, ``_encode_parts``' output
        with the sweep and the state left open.  blake2b runs on the
        template's sweep prefix once per sweep, and that state is copied
        for each state's tail, instead of encoding and hashing every key
        from scratch.
        """
        template = _encode_parts(seed, (self.label.replace("%", "%%"), "%s", "%s", "argmax"))
        cut = template.rindex(b"%s")  # the state's slot; the sweep's comes before it
        head, tail = template[:cut], template[cut:]
        tails = [tail % _encode_part(s).encode() for s in self.states]
        out = []
        for l in self.sweeps:
            copy = hashlib.blake2b(head % _encode_part(l).encode(), digest_size=16).copy
            for t in tails:
                h = copy()
                h.update(t)
                out.append(h.digest())
        return b"".join(out)


def first_draws(seed: int, keys, k: int,
                digests: bytes | None = None) -> tuple[np.ndarray, np.ndarray]:
    """For each parts tuple in ``keys``, the uniform and the index that
    ``g = derived_rng(seed, *parts); g.random(); g.integers(k)`` draw, for all
    streams in one numpy pass over their first Philox output block (w0, w1).

    ``random()`` is (w0 >> 11) * 2^-53.  ``integers(k)`` draws nothing for
    k = 1, and otherwise is numpy's Lemire step on the low 32 bits of w1; a
    stream whose step would reject and draw again (probability below k/2^32)
    is replayed through ``derived_rng`` itself.  ``digests``, when given, are
    the keys' concatenated 16-byte digests (``ArgmaxKeys.digests``); ``keys``
    is then indexed only for replayed streams.  Returns (uniforms float64,
    indices int64).
    """
    if not 1 <= k < 2**32:
        raise ValueError(f"k must lie in [1, 2^32), got {k}")
    if digests is None:
        keys = list(keys)
        digests = b"".join([_key_digest(seed, parts) for parts in keys])
    elif len(digests) != 16 * len(keys):
        raise ValueError(f"{len(digests)} digest bytes for {len(keys)} keys")
    w0, w1 = _philox_first_words(np.frombuffer(digests, dtype=np.uint64).reshape(-1, 2))
    uniforms = (w0 >> np.uint64(11)).astype(np.float64) * 2.0**-53
    if k == 1:
        return uniforms, np.zeros(len(uniforms), dtype=np.int64)
    scaled = (w1 & _LOW32) * np.uint64(k)
    indices = (scaled >> _SHIFT32).astype(np.int64)
    threshold = (2**32 - k) % k
    for i in np.flatnonzero((scaled & _LOW32) < threshold):
        g = derived_rng(seed, *keys[i])
        g.random()
        indices[i] = g.integers(k)
    return uniforms, indices
