"""Stream contract of qmdp.rng: a derived stream is Philox keyed by the
blake2b digest of its (seed, *parts) key, and nothing else; key_digests
reads a family of streams' keys, spelled out by a tuple of parts, lazily to
the same digests; bulk_passes computes many streams' first words in one
pass, and uniforms, lemire and first_draws turn them into each stream's
first draws."""

import hashlib
import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmdp.rng
from qmdp.rng import (
    _philox_words,
    bulk_passes,
    derived_rng,
    first_draws,
    key_digests,
    keyed_rng,
    lemire,
    uniforms,
)


def key_digest(*parts):
    """The key format, written out: the 16-byte blake2b digest of the key's
    parts, the seed first, as text joined by "\x1f"."""
    text = "\x1f".join(p if isinstance(p, str) else str(int(p)) for p in parts)
    return hashlib.blake2b(text.encode(), digest_size=16).digest()


def reference_rng(seed, *parts):
    """The stream definition, written out: Philox constructed with key=."""
    digest = key_digest(seed, *parts)
    return np.random.Generator(np.random.Philox(key=np.frombuffer(digest, dtype=np.uint64)))


def _key_tuples():
    seeds = (0, 1, 42, 12345, 2**31 - 1, 2**62 + 7)
    labels = ("call", "vr", "mf", "svi", "line9", "argmax", "tv", "")
    for seed, label, i in itertools.product(seeds, labels, range(7)):
        yield seed, (label, i)
        yield seed, (label, i, 3 * i + 1, "line13")
        yield seed, (i, label)
    for seed in seeds:
        yield seed, ()
        yield seed, (np.int64(5), "call", np.uint32(9))


KEYS = list(_key_tuples())


def _state(rng):
    st = rng.bit_generator.state
    return (st["bit_generator"], tuple(st["state"]["counter"]), tuple(st["state"]["key"]),
            tuple(st["buffer"]), st["buffer_pos"], st["has_uint32"], st["uinteger"])


def test_enough_keys():
    assert len(set(KEYS)) >= 1000


def test_state_matches_reference():
    for seed, parts in KEYS:
        assert _state(derived_rng(seed, *parts)) == _state(reference_rng(seed, *parts)), parts


def test_draws_match_reference():
    for seed, parts in KEYS[::7]:
        got, want = derived_rng(seed, *parts), reference_rng(seed, *parts)
        np.testing.assert_array_equal(got.random(5), want.random(5))
        np.testing.assert_array_equal(got.integers(0, 2**40, 5), want.integers(0, 2**40, 5))
        np.testing.assert_array_equal(got.multinomial(10**6, [0.2, 0.3, 0.5]),
                                      want.multinomial(10**6, [0.2, 0.3, 0.5]))
        np.testing.assert_array_equal(got.uniform(-1.0, 1.0, 5), want.uniform(-1.0, 1.0, 5))


# First draws of three streams, recorded when streams were built with
# Philox(key=...); they pin the streams themselves, not just the equivalence
# of two constructions, across numpy upgrades.
RECORDED = (
    (0, ("call", 0), [0.14900854118620332, 0.9755137020002416, 0.7153808564222939],
     [340, 336, 896, 395], [20, 26, 54]),
    (12345, ("vr", 3, "line9"), [0.6282419630721146, 0.34117594567511567, 0.3377342387396085],
     [704, 765, 613, 308], [20, 31, 49]),
    (2**62 + 7, ("mf", 1, 0, "argmax"),
     [0.26408499949950526, 0.5133524703871835, 0.3036045076257444],
     [737, 776, 259, 892], [22, 35, 43]),
)


# sha256 of every KEYS stream's first n uniforms, derived_rng(...).random(n),
# concatenated in KEYS order; recorded before any bulk path drew them
FIRST_UNIFORMS = {
    1: "1024895722f342fba8cf089a93f6af2daef66f0e0eff43d0fa1eed931e8faa34",
    3: "2817da0f0c14137763d3fcec06ab62bfb919211a5c1a247b302bd6ba51cb32c3",
    4: "8dd1708b6681e6e231be50b1249ef36b7cfee81c6be4c060c8e8d6110eabe3be",
    5: "25bfd3920e385de84f520062ccff62022e6017191a48a7aa96ea74c22bc65e16",
    8: "360038dddf6463b556d8d0ce60df1d8489b842832f88846a250a51a6bd7d422d",
    9: "73738ba52047e63d31fe0efdf686f13f7d4c6f01358a4e66ea249f2c1a653d55",
    32: "5e9411fb059eaf026b33627c9c8dab86d1beb9ae7f3b2e6cc4c6f2daf856bf6d",
    128: "11a754923ffa62a7b499675a8e7e7b16604efd9634ff31a9559b47cf7f34d063",
}


@pytest.mark.parametrize("n", sorted(FIRST_UNIFORMS))
def test_recorded_first_uniforms(n):
    digest = hashlib.sha256()
    for seed, parts in KEYS:
        digest.update(derived_rng(seed, *parts).random(n).tobytes())
    assert digest.hexdigest() == FIRST_UNIFORMS[n]


@pytest.mark.parametrize("seed,parts,randoms,ints,counts", RECORDED)
def test_recorded_first_draws(seed, parts, randoms, ints, counts):
    rng = derived_rng(seed, *parts)
    assert rng.random(3).tolist() == randoms
    assert rng.integers(0, 1000, 4).tolist() == ints
    assert rng.multinomial(100, [0.2, 0.3, 0.5]).tolist() == counts



def test_fresh_generator_per_call():
    a, b = derived_rng(7, "call", 1), derived_rng(7, "call", 1)
    assert a is not b and a.bit_generator is not b.bit_generator
    first = a.random(4)
    np.testing.assert_array_equal(b.random(4), first)  # drawing from a left b untouched


def test_derived_stream_cannot_spawn():
    with pytest.raises(TypeError):
        derived_rng(3, "call", 0).spawn(1)


@pytest.mark.parametrize("bad", [True, False, 1.0, 0.5, None, b"x", (1,), [2], range(1)])
def test_key_parts_must_be_ints_or_strings(bad):
    with pytest.raises(TypeError, match="ints or strings"):
        derived_rng(0, "call", bad)


@pytest.mark.parametrize("bad", [True, False, 1.0, 0.5, None])
def test_seed_must_be_an_int(bad):
    # the seed is the key's first part, encoded as every other part is
    with pytest.raises(TypeError, match="ints or strings"):
        derived_rng(bad, "call", 0)


def _keys_by_seed():
    by_seed = {}
    for seed, parts in KEYS:
        by_seed.setdefault(seed, []).append(parts)
    return by_seed


def _digests(seed, keys):
    return b"".join(key_digest(seed, *parts) for parts in keys)


# numpy's Lemire step rejects with probability (2^32 mod k) / 2^32: about a
# half for k = 2^31+1 and a quarter for k = 3*2^30, so the replay on the
# stream callback runs on real keys; below 2^-24 for the small k
@pytest.mark.parametrize("k,replay_rate", [(1, 0.0), (2, 0.0), (3, 0.0), (7, 0.0), (15, 0.0),
                                           (63, 0.0), (255, 0.0), (2**31 + 1, 0.5),
                                           (3 * 2**30, 0.25)])
def test_first_draws_match_generator(k, replay_rate):
    replays = []
    for seed, keys in _keys_by_seed().items():
        def stream(i):
            replays.append(keys[i])
            return derived_rng(seed, *keys[i])

        u, indices = first_draws(_philox_words(_digests(seed, keys), 2), k, stream)
        assert u.dtype == np.float64 and indices.dtype == np.int64
        for parts, u_i, i in zip(keys, u.tolist(), indices.tolist()):
            ref = reference_rng(seed, *parts)
            assert (u_i, i) == (ref.random(), int(ref.integers(k))), (seed, parts)
    assert abs(len(replays) / len(KEYS) - replay_rate) < 0.1


def test_first_draws_of_no_keys():
    u, indices = first_draws(np.zeros((0, 2), dtype=np.uint64), 5, None)
    assert u.shape == indices.shape == (0,)


@pytest.mark.parametrize("k", [0, -1, 2**32, 2**40])
def test_first_draws_range_of_k(k):
    with pytest.raises(ValueError, match="k must lie in"):
        first_draws(_philox_words(key_digest(3, "call", 0), 2), k, None)


ARGMAX_LABELS = sorted({"mf", "svi", "50%", "%s%%d"}
                       | {parts[0] for _, parts in KEYS if parts and isinstance(parts[0], str)})
ARGMAX_GRIDS = (
    (range(1, 4), range(5)),
    (range(1, 2), range(1)),
    (np.arange(7, 10, dtype=np.int64), np.arange(0, 130, 13, dtype=np.int64)),
    ([np.int64(2**40), 0, -3], [np.int64(9), 10**12]),
)


@pytest.mark.parametrize("seed", [0, -5, 2**62, 2**62 + 7, np.int64(12345)])
def test_argmax_digests_match_key_format(seed):
    for label, (sweeps, states) in itertools.product(ARGMAX_LABELS, ARGMAX_GRIDS):
        digests = list(key_digests((seed, label, sweeps, states, "argmax")))
        tuples = list(itertools.product([seed], [label], sweeps, states, ["argmax"]))
        assert digests == [key_digest(*parts) for parts in tuples]


@pytest.mark.parametrize("bad", [True, 1.0, None])
def test_argmax_digests_refuse_what_keys_refuse(bad):
    for parts in ((0, "mf", [bad], range(2), "argmax"),
                  (0, "mf", range(2), [0, bad], "argmax"),
                  (bad, "mf", range(2), "argmax")):
        with pytest.raises(TypeError, match="ints or strings"):
            list(key_digests(parts))


@pytest.mark.parametrize("n,group,pass_words", [
    (2, 1, 14), (2, 3, 14), (2, 40, 14), (5, 1, 32), (5, 4, 96), (7, 5, 1000),
    (32, 1, 2**13), (2, 64, 2**13), (3, 1, 1)])
def test_bulk_passes_cover_the_keys_in_whole_groups(monkeypatch, n, group, pass_words):
    """Chunks run over the keys in order, each of ``max(1, PASS_WORDS //
    (n * group)) * group`` streams but the last, with their digests and
    first n words."""
    monkeypatch.setattr(qmdp.rng, "PASS_WORDS", pass_words)
    per_pass = max(1, pass_words // (n * group)) * group
    for seed in (0, -5, 2**62):
        parts = (seed, "mf", range(1, 6), range(group), "argmax")
        digests = b"".join(key_digest(*key) for key in _spelled_out(parts))
        chunks = list(bulk_passes(parts, n, group))
        sizes = [len(d) // 16 for d, _ in chunks]
        assert sizes[:-1] == [per_pass] * (len(chunks) - 1)
        assert sum(sizes) == 5 * group and all(m % group == 0 for m in sizes)
        assert all(w.shape == (m, n) for m, (_, w) in zip(sizes, chunks))
        assert b"".join(d for d, _ in chunks) == digests
        words = np.concatenate([w for _, w in chunks])
        assert words.dtype == np.uint64 and words.shape == (5 * group, n)
        assert words.tobytes() == _philox_words(digests, n).tobytes()


def test_bulk_passes_of_no_keys():
    assert list(bulk_passes((3, "empty", range(0)), 4)) == []


@pytest.mark.parametrize("parts", [(0, "x", range(10**6), range(0)),
                                   (0, range(3), "x", [], "y"),
                                   (0, ("a", "b"), range(10**6), np.arange(0), "z")])
def test_empty_last_slot_walks_no_outer_combination(monkeypatch, parts):
    # a family whose last slot is empty has no keys, however many the outer
    # slots' combinations: it ends before it would run over them
    def product(*slots):
        raise AssertionError("walked the outer slots of a family with no keys")

    monkeypatch.setattr(qmdp.rng, "itertools", mock.Mock(product=product, islice=itertools.islice))
    assert list(key_digests(parts)) == []
    assert list(bulk_passes(parts, 4)) == []


def _all_digests():
    return b"".join(key_digest(seed, *parts) for seed, parts in KEYS)


@pytest.mark.parametrize("n", sorted(FIRST_UNIFORMS))
def test_first_uniforms_match_generator(n):
    u = uniforms(_philox_words(_all_digests(), n))
    assert u.dtype == np.float64 and u.shape == (len(KEYS), n)
    for (seed, parts), row in zip(KEYS, u):
        assert row.tobytes() == derived_rng(seed, *parts).random(n).tobytes(), (seed, parts)
    assert hashlib.sha256(u.tobytes()).hexdigest() == FIRST_UNIFORMS[n]


@pytest.mark.parametrize("n", [1, 3, 16, 64])
def test_first_uniforms_give_uniform_draws(n):
    # uniform(-1, 1) is numpy's -1 + 2u on the next uniforms of the stream
    u = uniforms(_philox_words(_all_digests(), 2 * n))
    for (seed, parts), row in zip(KEYS[::3], u[::3]):
        g = derived_rng(seed, *parts)
        g.random(n)
        assert (-1.0 + 2.0 * row[n:]).tobytes() == g.uniform(-1.0, 1.0, n).tobytes()


def test_first_uniforms_of_no_streams():
    assert uniforms(_philox_words(b"", 5)).shape == (0, 5)


def test_keyed_rng_is_derived_rng():
    g = derived_rng(1, "scratch")
    for seed, parts in KEYS[::11]:
        digest = key_digest(seed, *parts)
        assert _state(keyed_rng(digest)) == _state(derived_rng(seed, *parts))
        assert keyed_rng(digest, reuse=g) is g
        assert _state(g) == _state(derived_rng(seed, *parts))


TEMPLATES = (
    ("vr", range(1, 4), range(1, 11), "line13"),
    ("vr", range(1, 4), ("line8-sq", "line8-mean", "line9")),
    ("svi", range(1, 7)),
    ("mf", range(2, 5), "line10"),
    ("call", range(5, 40)),
    ("fixed", 3),
    (range(3), "a", [7, np.int64(8)], np.arange(2), "z"),
    ("empty", range(0), "z"),
    ("%s", [0, -1, 2**40], "%%d"),
)
SEEDS = (0, -3, 2**62, np.int64(7))


def _spelled_out(parts):
    slots = [p for p in parts if isinstance(p, (range, list, tuple, np.ndarray))]
    keys = []
    for values in itertools.product(*slots):
        it = iter(values)
        keys.append(tuple(next(it) if isinstance(p, (range, list, tuple, np.ndarray)) else p
                          for p in parts))
    return keys


@pytest.mark.parametrize("parts", TEMPLATES, ids=range(len(TEMPLATES)))
@pytest.mark.parametrize("seed", [*SEEDS, SEEDS], ids=[*map(str, range(len(SEEDS))), "slot"])
def test_key_digests_spell_out_their_keys(parts, seed):
    # each seed alone, and all four as the first slot
    keys = _spelled_out((seed, *parts))
    digests = [key_digest(*key) for key in keys]
    assert list(key_digests((seed, *parts))) == digests
    for stop in range(0, len(keys) + 2, 4):  # a partial read is the same keys' digests
        assert list(itertools.islice(key_digests((seed, *parts)), stop)) == digests[:stop]


@pytest.mark.parametrize("n", [0, 1, 1023, 1024, 2053])
def test_key_digests_read_every_key_in_order(n):
    digests = list(key_digests((5, "mf", range(n), "argmax")))
    assert all(type(d) is bytes and len(d) == 16 for d in digests)
    assert digests == [key_digest(5, "mf", i, "argmax") for i in range(n)]
    assert list(key_digests((5, "mf", range(3, n - 2), "argmax"))) == digests[3:n - 2]


def test_key_digests_memory_does_not_grow_with_keys():
    # 2^18 keys: holding their digests at once would take 4 MiB for the
    # bytes alone; the reader hashes each key as it is read
    parts = (1, "mf", range(2**12), range(2**6), "argmax")
    tracemalloc.start()
    try:
        n = sum(1 for _ in key_digests(parts))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert n == 2**18
    assert peak < 2**19, peak


# Key parts drawn at random: ints (np.int64 among them) and strings, with up
# to three slots of any kind (ranges, lists, tuples of strings, int64 arrays),
# empty ones included, anywhere, the seed's position too.
_INTS = st.integers(-2**63, 2**63 - 1)
_TEXTS = st.text("ab%\x1f-1", max_size=3)
_FIXED = st.one_of(_INTS, _INTS.map(np.int64), _TEXTS)
_SLOTS = st.one_of(
    st.builds(range, st.integers(-3, 3), st.integers(-3, 4)),
    st.lists(_FIXED, max_size=3),
    st.lists(_TEXTS, max_size=3).map(tuple),
    st.lists(_INTS, max_size=3).map(lambda v: np.array(v, dtype=np.int64)))


@st.composite
def key_parts(draw):
    parts = draw(st.lists(_FIXED, min_size=1, max_size=4))
    for _ in range(draw(st.integers(0, 3))):
        parts.insert(draw(st.integers(0, len(parts))), draw(_SLOTS))
    return tuple(parts)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(parts=key_parts())
def test_key_digests_are_the_product_of_their_slots(parts):
    assert list(key_digests(parts)) == [key_digest(*key) for key in _spelled_out(parts)]


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(parts=key_parts(), n=st.integers(1, 9), group=st.integers(1, 5),
       pass_words=st.integers(1, 64))
def test_bulk_passes_are_the_keys_in_whole_groups(parts, n, group, pass_words):
    # every pass but the last holds whole groups, per_pass keys; together
    # they are every key's digest and first n words, in order
    digests = b"".join(key_digest(*key) for key in _spelled_out(parts))
    per_pass = max(1, pass_words // (n * group)) * group
    with mock.patch.object(qmdp.rng, "PASS_WORDS", pass_words):
        passes = list(bulk_passes(parts, n, group))
    assert b"".join(d for d, _ in passes) == digests
    assert [len(d) for d, _ in passes[:-1]] == [16 * per_pass] * (len(passes) - 1)
    assert all(0 < len(d) <= 16 * per_pass for d, _ in passes)
    for d, words in passes:
        assert words.tobytes() == _philox_words(d, n).tobytes()


# Re-keying: derived_rng(..., reuse=g) puts g at the start of the stream a
# new Generator would have, whatever g drew before.
REUSE_KEYS = KEYS + [(seed, parts) for seed in (-5, np.int64(-5), np.int64(2**62 + 7))
                     for _, parts in KEYS[::17]]


def _mixed_draws(g, i):
    return [g.random(), g.random(i % 9), g.uniform(-1.0, 1.0, 5), g.integers(7),
            g.integers(2**31 + 1), g.integers(2**31 + 1, size=3)]


def _assert_same_draws(got, want):
    for a, b in zip(got, want):
        a, b = np.asarray(a), np.asarray(b)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_reuse_matches_fresh_stream():
    g = derived_rng(1, "scratch")
    g.random(3)
    for i, (seed, parts) in enumerate(REUSE_KEYS):
        assert derived_rng(seed, *parts, reuse=g) is g
        assert _state(g) == _state(derived_rng(seed, *parts)), (seed, parts)
        _assert_same_draws(_mixed_draws(g, i), _mixed_draws(derived_rng(seed, *parts), i))


def test_reuse_multinomial_alternating_binomial_regimes():
    # n*p <= 30 takes numpy's inversion sampler and larger n*p its BTPE
    # sampler, each caching its setup on the Generator; alternating them on
    # one Generator across streams must not change a count
    p = [0.2, 0.3, 0.5]
    g = derived_rng(2, "scratch")
    for i, (seed, parts) in enumerate(REUSE_KEYS):
        fresh = derived_rng(seed, *parts)
        derived_rng(seed, *parts, reuse=g)
        for n in ((20, 10**6, 7, 5000) if i % 2 else (10**6, 25, 5000, 3)):
            _assert_same_draws([g.multinomial(n, p)], [fresh.multinomial(n, p)])


@pytest.mark.parametrize("leave", [
    lambda g: g.random(1),  # one word of a four-word block used
    lambda g: g.random(6),  # two blocks in, mid-block
    lambda g: g.integers(0, 10, dtype=np.uint32),  # a 32-bit half buffered
    lambda g: g.random(dtype=np.float32, size=3),  # a 32-bit half buffered, mid-block
])
def test_reuse_after_a_stream_left_mid_block(leave):
    g = derived_rng(3, "scratch")
    leave(g)
    st = g.bit_generator.state
    assert st["buffer_pos"] != 4 or st["has_uint32"] == 1
    for i, (seed, parts) in enumerate(KEYS[::29]):
        derived_rng(seed, *parts, reuse=g)
        assert _state(g) == _state(derived_rng(seed, *parts))
        _assert_same_draws(_mixed_draws(g, i), _mixed_draws(derived_rng(seed, *parts), i))
        leave(g)


@pytest.mark.parametrize("seed,parts,randoms,ints,counts", RECORDED)
def test_recorded_first_draws_on_reused_generator(seed, parts, randoms, ints, counts):
    g = derived_rng(4, "scratch")
    g.random(5)
    rng = derived_rng(seed, *parts, reuse=g)
    assert rng.random(3).tolist() == randoms
    assert rng.integers(0, 1000, 4).tolist() == ints
    assert rng.multinomial(100, [0.2, 0.3, 0.5]).tolist() == counts


@pytest.mark.parametrize("bad", [
    lambda: np.random.default_rng(0),  # a PCG64 Generator
    lambda: np.random.Generator(np.random.MT19937(0)),
    lambda: np.random.Philox(0),  # a bit generator, not a Generator
    lambda: np.random.RandomState(np.random.Philox(0)),
    lambda: "call",
])
def test_reuse_must_be_a_philox_generator(bad):
    reuse = bad()
    with pytest.raises(TypeError, match="reuse must be a Philox Generator"):
        derived_rng(0, "call", 0, reuse=reuse)


# integers(k) bounds for lemire: the large k reject a quarter and half of their steps
LEMIRE_KS = [1, 2, 3, 9, 64, 1000, 2**31 + 1, 3 * 2**30, 2**32 - 1]


@pytest.mark.parametrize("k", LEMIRE_KS)
def test_lemire_is_numpys_step(k):
    # the smallest and largest halves, where rejections lie, and random ones
    edges = np.arange(64, dtype=np.uint64)
    drawn = derived_rng(14, "lemire", k).integers(0, 2**32, 512, dtype=np.uint64)
    halves = np.concatenate((edges, 2**32 - 1 - edges, drawn))
    index, rejected = lemire(halves, k)
    assert index.dtype == np.uint64 and rejected.dtype == bool
    want = [(x * k >> 32, x * k % 2**32 < (2**32 - k) % k) for x in halves.tolist()]
    assert list(zip(index.tolist(), rejected.tolist())) == want
