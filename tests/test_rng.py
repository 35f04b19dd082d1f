"""Stream contract of qmdp.rng: a derived stream is Philox keyed by the
blake2b digest of its (seed, *parts) key, and nothing else; first_draws
reproduces each stream's first random() and integers(k) in one pass."""

import hashlib
import itertools

import numpy as np
import pytest

import qmdp.rng
from qmdp.mdp import Mdp
from qmdp.oracle import SampleOracle
from qmdp.rng import child_seed, derived_rng, first_draws


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
     [340, 336, 896, 395], [20, 26, 54], 4468748239900055047),
    (12345, ("vr", 3, "line9"), [0.6282419630721146, 0.34117594567511567, 0.3377342387396085],
     [704, 765, 613, 308], [20, 31, 49], 7396376642054809662),
    (2**62 + 7, ("mf", 1, 0, "argmax"),
     [0.26408499949950526, 0.5133524703871835, 0.3036045076257444],
     [737, 776, 259, 892], [22, 35, 43], 5507508125124655468),
)


@pytest.mark.parametrize("seed,parts,randoms,ints,counts,child", RECORDED)
def test_recorded_first_draws(seed, parts, randoms, ints, counts, child):
    rng = derived_rng(seed, *parts)
    assert rng.random(3).tolist() == randoms
    assert rng.integers(0, 1000, 4).tolist() == ints
    assert rng.multinomial(100, [0.2, 0.3, 0.5]).tolist() == counts
    assert child_seed(seed, *parts) == child


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
    with pytest.raises(TypeError, match="ints or strings"):
        child_seed(0, bad)


def _keys_by_seed():
    by_seed = {}
    for seed, parts in KEYS:
        by_seed.setdefault(seed, []).append(parts)
    return by_seed


# numpy's Lemire step rejects with probability (2^32 mod k) / 2^32: about a
# half for k = 2^31+1 and a quarter for k = 3*2^30, so the replay through
# derived_rng runs on real keys; below 2^-24 for the small k
@pytest.mark.parametrize("k,replay_rate", [(1, 0.0), (2, 0.0), (3, 0.0), (7, 0.0), (15, 0.0),
                                           (63, 0.0), (255, 0.0), (2**31 + 1, 0.5),
                                           (3 * 2**30, 0.25)])
def test_first_draws_match_generator(monkeypatch, k, replay_rate):
    replays = []
    real = qmdp.rng.derived_rng
    monkeypatch.setattr(qmdp.rng, "derived_rng",
                        lambda seed, *parts: replays.append(parts) or real(seed, *parts))
    for seed, keys in _keys_by_seed().items():
        uniforms, indices = first_draws(seed, keys, k)
        assert uniforms.dtype == np.float64 and indices.dtype == np.int64
        for parts, u, i in zip(keys, uniforms.tolist(), indices.tolist()):
            ref = reference_rng(seed, *parts)
            assert (u, i) == (ref.random(), int(ref.integers(k))), (seed, parts)
    assert abs(len(replays) / len(KEYS) - replay_rate) < 0.1


def test_first_draws_of_no_keys():
    uniforms, indices = first_draws(3, [], 5)
    assert uniforms.shape == indices.shape == (0,)


@pytest.mark.parametrize("k", [0, -1, 2**32, 2**40])
def test_first_draws_range_of_k(k):
    with pytest.raises(ValueError, match="k must lie in"):
        first_draws(3, [("call", 0)], k)
