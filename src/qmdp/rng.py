"""Deterministic stream derivation on top of the Philox counter-based PRNG.

Every random draw in the package comes from a stream derived from a base
seed plus a structured key (call index, epoch/iteration labels, ...).  Two
processes that derive the same key from the same seed see the same stream,
which is what makes solver reports bit-identical across reruns.
A key is its parts, the seed first, and its stream is Philox keyed by the
16-byte blake2b digest of their text joined by "\x1f".  ``key_digests``
reads the digests of a family of keys, such as a solve's line-13 streams,
lazily and in order from a tuple of parts that spells them out;
``bulk_passes`` computes the first words of one or several families'
streams in shared vectorized Philox passes under one word budget, and
``uniforms``, ``lemire`` and ``first_draws`` turn them into their draws.
"""

from __future__ import annotations

import collections
import hashlib
import itertools
import struct

import numpy as np

__all__ = [
    "derived_rng",
    "keyed_rng",
    "key_digests",
    "bulk_passes",
    "uniforms",
    "lemire",
    "first_draws",
    "PASS_WORDS",
]

_SEP = "\x1f"  # never appears in the short labels used as key parts
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


def derived_rng(seed: int, *parts, reuse=None) -> np.random.Generator:
    """A Generator at the start of the stream of the one key (seed, *parts):
    a new one, or ``reuse`` (a Philox Generator) re-keyed in place at a third
    of the cost, which ends the stream it was on."""
    key = (seed, *parts)
    for p in key:  # a slot would spell out a family of keys: refused as a part
        _encode_part(p)
    return keyed_rng(next(key_digests(key)), reuse)


def keyed_rng(digest: bytes, reuse=None) -> np.random.Generator:
    """``derived_rng`` from the stream's 16-byte key digest, as
    ``key_digests`` gives it."""
    if reuse is None:
        return np.random.Generator(np.random.Philox(key=np.frombuffer(digest, dtype=np.uint64)))
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
    t = x_hi * m_lo
    t += (x_lo * m_lo) >> _SHIFT32
    x_lo *= m_hi  # the middle partial sum, in place of the low half
    x_lo += t & _LOW32
    x_hi *= m_hi
    x_hi += (t >> _SHIFT32) + (x_lo >> _SHIFT32)
    return x_hi, x * m


def _philox_words(families) -> list:
    """For each (digests, n) of ``families``, (m, n) uint64: the first n words
    of each stream whose 16-byte key digest is in ``digests``, as a fresh
    ``np.random.Philox`` under that key produces them.  Output block j, words
    4j to 4j+3, is Philox4x64-10 at counter (j+1, 0, 0, 0); one numpy pass
    covers every (key, block) cell of every family."""
    keys = [len(digests) // 16 for digests, _ in families]
    blocks = [-(-n // 4) for _, n in families]
    key = np.frombuffer(b"".join(digests for digests, _ in families), dtype=np.uint64)
    per_key = np.repeat(blocks, keys)  # each key's blocks, one cell each
    k0, k1 = np.repeat(key[0::2], per_key), np.repeat(key[1::2], per_key)
    c0 = np.concatenate([np.tile(np.arange(1, b + 1, dtype=np.uint64), m)
                         for m, b in zip(keys, blocks)])
    c1 = c2 = c3 = np.zeros(1, dtype=np.uint64)  # broadcast against the cells
    for r in range(_PHILOX_ROUNDS):
        if r:  # in place: no second cell array of keys is held
            k0 += _PHILOX_W[0]
            k1 += _PHILOX_W[1]
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    words, ends = np.stack((c0, c1, c2, c3), axis=1), itertools.accumulate(np.multiply(keys, blocks))
    return [words[end - m * b:end].reshape(m, 4 * b)[:, :n]
            for end, m, b, (_, n) in zip(ends, keys, blocks, families)]


def uniforms(words: np.ndarray) -> np.ndarray:
    """``random()`` of each word: (w >> 11) * 2^-53.  On a stream's first n
    words, as ``bulk_passes`` gives them, that is ``g.random(n)``; and
    ``g.uniform(-1, 1)`` is -1 + 2u on the next one, as numpy computes it."""
    return (words >> np.uint64(11)).astype(np.float64) * 2.0**-53


def key_digests(parts: tuple):
    """Yield, in order, the 16-byte digest of each key that ``parts`` such as
    (seed, "vr", range(1, 4), range(1, 11), "line13") spells out: blake2b of
    the key's parts' text joined by "\x1f", the seed first.  Each part is
    fixed (an int or a string) or a slot: a range, list, tuple or array of
    such values.  Keys run over every combination of slot values, the first
    slot outermost.

    Keys run over the last slot in runs that share everything before its
    value: blake2b hashes that prefix once per run, and each key copies the
    state and adds its tail when it is read.  Memory holds the outer slots'
    values and, with outer slots, the last slot's tails, never the keys read."""
    texts, text, slots = [], "", []  # the fixed text before, between and after slots
    for i, p in enumerate(parts):
        sep = _SEP if i else ""
        if isinstance(p, (range, list, tuple, np.ndarray)):
            texts.append((text + sep).encode())
            text = ""
            slots.append(p)
        else:
            text += sep + _encode_part(p)
    texts.append(text.encode())
    root = hashlib.blake2b(texts[0], digest_size=16)
    if not slots:
        yield root.digest()
        return
    *outer, inner = slots
    if len(inner) == 0:  # no keys, whatever the outer slots hold: no run over them
        return
    tails = (_encode_part(v).encode() + texts[-1] for v in inner)  # the last slot's values
    if outer:  # every run takes the same tails: encode them once
        tails = list(tails)
    for values in itertools.product(*outer):  # one run over the last slot each
        prefix = root.copy()
        prefix.update(b"".join(_encode_part(v).encode() + t for v, t in zip(values, texts[1:])))
        copy = prefix.copy
        for tail in tails:
            h = copy()
            h.update(tail)
            yield h.digest()


def bulk_passes(*families) -> tuple:
    """One iterator per family ``(parts, n, group)``, each yielding (digests,
    words) for consecutive chunks of the keys of ``parts``: the chunk's key
    digests laid end to end and its streams' first n words, (m, n) uint64.

    A family runs in sweeps of ``group`` keys (a sweep's states, say).  A pass
    holds ``max(1, PASS_WORDS // sum(n * group))`` whole sweeps of every family,
    so memory stays bounded, and one ``_philox_words`` call computes them all.
    The iterators share each pass until all have read it: read them in step, as
    a solve reads its sweeps.  A family out of keys gets empty chunks."""
    sweeps = max(1, PASS_WORDS // sum(n * group for _, n, group in families))
    keys = [(key_digests(parts), sweeps * group, n) for parts, n, group in families]
    queues = [collections.deque() for _ in families]

    def next_pass() -> bool:  # into every family's queue; False once no keys are left
        chunks = [(b"".join(itertools.islice(k, per_pass)), n) for k, per_pass, n in keys]
        words = _philox_words(chunks) if any(digests for digests, _ in chunks) else []
        for queue, (digests, _), family_words in zip(queues, chunks, words):
            queue.append((digests, family_words))
        return bool(words)

    def family(queue):
        while queue or next_pass():
            yield queue.popleft()

    return tuple(map(family, queues))


def lemire(halves: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's ``integers(k)`` step, 1 <= k < 2^32, on each 32-bit x in ``halves``
    (uint64): its index x * k >> 32, and whether x * k mod 2^32 < (2^32 - k) mod k
    rejects x and draws again."""
    x = halves * np.uint64(k)
    return x >> _SHIFT32, (x & _LOW32) < (2**32 - k) % k


def first_draws(words: np.ndarray, k: int, stream) -> tuple[np.ndarray, np.ndarray]:
    """The uniform and the index that ``g.random(); g.integers(k)`` draw on
    each stream, from the (m, 2) array of its first two Philox words (w0, w1).

    ``random()`` is ``uniforms(w0)``, and ``integers(k)`` is ``lemire`` on
    the low 32 bits of w1 (0 for k = 1, which draws nothing); a stream whose
    step would reject and draw again (probability below k/2^32) is replayed
    on ``stream(i)``, the i-th stream's Generator at its start.  Returns
    (uniforms float64, indices int64).
    """
    if not 1 <= k < 2**32:
        raise ValueError(f"k must lie in [1, 2^32), got {k}")
    u = uniforms(words[:, 0])
    index, rejected = lemire(words[:, 1] & _LOW32, k)
    indices = index.astype(np.int64)
    for i in np.flatnonzero(rejected):
        g = stream(i)
        g.random()
        indices[i] = g.integers(k)
    return u, indices
