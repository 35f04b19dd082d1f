"""Stream contract of qmdp.rng: a derived stream is Philox keyed by the
blake2b digest of its (seed, *parts) key, and nothing else; bulk_passes
computes many streams' first words in one pass, uniforms and first_draws
turn them into each stream's first draws, and KeyTemplate encodes a family
of streams' keys in bulk to the same digests."""

import hashlib
import itertools

import numpy as np
import pytest

import qmdp.rng
from qmdp.mdp import Mdp
from qmdp.oracle import SampleOracle
from qmdp.rng import (
    KeyTemplate,
    _key_digest,
    _philox_words,
    bulk_passes,
    derived_rng,
    first_draws,
    keyed_rng,
    uniforms,
)


def reference_rng(seed, *parts):
    """The stream definition, written out: Philox constructed with key=."""
    text = "\x1f".join([str(int(seed))] + [p if isinstance(p, str) else str(int(p))
                                           for p in parts])
    digest = hashlib.blake2b(text.encode(), digest_size=16).digest()
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


def test_recorded_scalar_samples():
    p = np.array([[[0.5, 0.25, 0.25], [0.125, 0.125, 0.75]],
                  [[1 / 3, 1 / 3, 1 / 3], [0.1, 0.6, 0.3]],
                  [[0.0, 0.0, 1.0], [0.7, 0.2, 0.1]]])
    oracle = SampleOracle(Mdp(p, np.zeros((3, 2)), 0.9), 99)
    assert [oracle.sample(i % 3, i % 2) for i in range(12)] == [1, 2, 2, 1, 0, 0, 2, 1, 2, 1, 1, 0]
    assert oracle.ledger.classical_samples == 12


def test_fresh_generator_per_call():
    a, b = derived_rng(7, "call", 1), derived_rng(7, "call", 1)
    assert a is not b and a.bit_generator is not b.bit_generator
    first = a.random(4)
    np.testing.assert_array_equal(b.random(4), first)  # drawing from a left b untouched


@pytest.mark.parametrize("n_words,dtype", [(2, np.uint32), (4, np.uint32), (1, np.uint64),
                                           (3, np.uint64), (4, np.uint64)])
def test_key_adapter_refuses_other_requests(n_words, dtype):
    seed_seq = derived_rng(3, "call", 0).bit_generator.seed_seq
    with pytest.raises(ValueError, match="Philox key"):
        seed_seq.generate_state(n_words, dtype)
    assert seed_seq.generate_state(2, np.uint64).tolist() == \
        reference_rng(3, "call", 0).bit_generator.state["state"]["key"].tolist()


def test_derived_stream_cannot_spawn():
    with pytest.raises(TypeError):
        derived_rng(3, "call", 0).spawn(1)


@pytest.mark.parametrize("bad", [True, False, 1.0, 0.5, None, b"x", (1,)])
def test_key_parts_must_be_ints_or_strings(bad):
    with pytest.raises(TypeError, match="ints or strings"):
        derived_rng(0, "call", bad)


def _keys_by_seed():
    by_seed = {}
    for seed, parts in KEYS:
        by_seed.setdefault(seed, []).append(parts)
    return by_seed


def _digests(seed, keys):
    return b"".join(_key_digest(seed, parts) for parts in keys)


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
        first_draws(_philox_words(_key_digest(3, ("call", 0)), 2), k, None)


ARGMAX_LABELS = sorted({"mf", "svi", "50%", "%s%%d"}
                       | {parts[0] for _, parts in KEYS if parts and isinstance(parts[0], str)})
ARGMAX_GRIDS = (
    (range(1, 4), range(5)),
    (range(1, 2), range(1)),
    (np.arange(7, 10, dtype=np.int64), np.arange(0, 130, 13, dtype=np.int64)),
    ([np.int64(2**40), 0, -3], [np.int64(9), 10**12]),
)


@pytest.mark.parametrize("seed", [0, -5, 2**62, 2**62 + 7, np.int64(12345)])
def test_argmax_digests_match_key_digest(seed):
    for label, (sweeps, states) in itertools.product(ARGMAX_LABELS, ARGMAX_GRIDS):
        keys = KeyTemplate((label, sweeps, states, "argmax"))
        tuples = [(label, l, s, "argmax") for l in sweeps for s in states]
        assert list(keys) == tuples and len(keys) == len(tuples)
        assert keys.digests(seed) == b"".join(_key_digest(seed, parts) for parts in tuples)


def test_argmax_keys_index_like_a_list():
    keys = KeyTemplate(("mf", range(3, 6), range(4), "argmax"))
    tuples = list(keys)
    for i in (0, 5, 11, -1, -12):
        assert keys[i] == tuples[i]
    for i in (12, -13):
        with pytest.raises(IndexError):
            keys[i]


@pytest.mark.parametrize("bad", [True, 1.0, None])
def test_argmax_digests_refuse_what_keys_refuse(bad):
    for keys in (KeyTemplate(("mf", [bad], range(2), "argmax")),
                 KeyTemplate(("mf", range(2), [0, bad], "argmax"))):
        with pytest.raises(TypeError, match="ints or strings"):
            keys.digests(0)


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
        keys = KeyTemplate(("mf", range(1, 6), range(group), "argmax"))
        digests = keys.digests(seed)
        chunks = list(bulk_passes(seed, keys, n, group))
        assert [len(c) for c, _, _ in chunks[:-1]] == [per_pass] * (len(chunks) - 1)
        assert sum(len(c) for c, _, _ in chunks) == len(keys)
        assert all(len(c) % group == 0 for c, _, _ in chunks)
        assert [key for c, _, _ in chunks for key in c] == list(keys)
        assert b"".join(d for _, d, _ in chunks) == digests
        words = np.concatenate([w for _, _, w in chunks])
        assert words.dtype == np.uint64 and words.shape == (len(keys), n)
        assert words.tobytes() == _philox_words(digests, n).tobytes()


def test_bulk_passes_of_no_keys():
    assert list(bulk_passes(3, KeyTemplate(("empty", range(0))), 4)) == []


def _all_digests():
    return b"".join(_key_digest(seed, parts) for seed, parts in KEYS)


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
        digest = _key_digest(seed, parts)
        assert _state(keyed_rng(digest)) == _state(derived_rng(seed, *parts))
        assert keyed_rng(digest, reuse=g) is g
        assert _state(g) == _state(derived_rng(seed, *parts))


TEMPLATES = (
    ("vr", range(1, 4), range(1, 11), "line13"),
    ("svi", range(1, 7)),
    ("mf", range(2, 5), "line10"),
    ("call", range(5, 40)),
    ("fixed", 3),
    (range(3), "a", [7, np.int64(8)], np.arange(2), "z"),
    ("empty", range(0), "z"),
    ("%s", [0, -1, 2**40], "%%d"),
)


def _spelled_out(parts):
    slots = [p for p in parts if isinstance(p, (range, list, tuple, np.ndarray))]
    keys = []
    for values in itertools.product(*slots):
        it = iter(values)
        keys.append(tuple(next(it) if isinstance(p, (range, list, tuple, np.ndarray)) else p
                          for p in parts))
    return keys


@pytest.mark.parametrize("parts", TEMPLATES, ids=range(len(TEMPLATES)))
def test_key_template_spells_out_its_keys(parts):
    template, keys = KeyTemplate(parts), _spelled_out(parts)
    assert list(template) == keys and len(template) == len(keys)
    for seed in (0, -3, 2**62, np.int64(7)):
        digests = b"".join(_key_digest(seed, key) for key in keys)
        assert template.digests(seed) == digests
        for start in range(0, len(keys) + 1, 3):
            for stop in range(start, len(keys) + 2, 4):
                part = template[start:stop]
                assert list(part) == keys[start:stop]
                assert part.digests(seed) == digests[16 * start:16 * stop]
                assert part[1:].digests(seed) == digests[16 * (start + 1):16 * stop]


def test_key_template_first_slot():
    template = KeyTemplate(("vr", range(1, 4), range(1, 6), "line13"))
    assert template.first_slot().tolist() == [0] * 5 + [1] * 5 + [2] * 5
    assert template[4:12].first_slot().tolist() == [0] + [1] * 5 + [2] * 2
    assert KeyTemplate(("svi", range(3, 6))).first_slot().tolist() == [0, 1, 2]
    assert KeyTemplate(("x", 1)).first_slot().tolist() == [0]


def test_key_template_indexing():
    template = KeyTemplate(("mf", range(3, 6), "line10"))
    assert template[-1] == ("mf", 5, "line10") and template[1:][0] == ("mf", 4, "line10")
    for i in (3, -4):
        with pytest.raises(IndexError):
            template[i]
    with pytest.raises(ValueError, match="step 1"):
        template[::2]


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
