import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spidersim.rng import derive_seed, gaussians, philox4x32, uniforms

_MASK = 0xFFFFFFFF


def _philox_reference(c0, c1, c2, c3, k0, k1):
    """Philox4x32-10 on Python ints, one block (Salmon et al., SC'11)."""
    for _ in range(10):
        p0, p1 = 0xD2511F53 * c0, 0xCD9E8D57 * c2
        c0, c1, c2, c3 = (p1 >> 32) ^ c1 ^ k0, p1 & _MASK, (p0 >> 32) ^ c3 ^ k1, p0 & _MASK
        k0, k1 = (k0 + 0x9E3779B9) & _MASK, (k1 + 0xBB67AE85) & _MASK
    return c0, c1, c2, c3


def _reference_words(seed, stream, ctr):
    """The two 64-bit words (w0 w1, w2 w3) of each (stream, ctr) pair,
    as uint64 arrays of the broadcast shape."""
    stream, ctr = np.broadcast_arrays(np.asarray(stream, dtype=np.uint64),
                                      np.asarray(ctr, dtype=np.uint64))
    blocks = [_philox_reference(c & _MASK, c >> 32, s & _MASK, s >> 32, seed & _MASK, seed >> 32)
              for s, c in zip(map(int, stream.ravel()), map(int, ctr.ravel()))]
    a = np.array([(w0 << 32) | w1 for w0, w1, _, _ in blocks], dtype=np.uint64)
    b = np.array([(w2 << 32) | w3 for _, _, w2, w3 in blocks], dtype=np.uint64)
    return a.reshape(stream.shape), b.reshape(stream.shape)


def _reference_uniforms(seed, stream, ctr):
    a, _ = _reference_words(seed, stream, ctr)
    return a.astype(np.float64) * 2.0**-64


def _reference_gaussians(seed, stream, ctr):
    a, b = _reference_words(seed, stream, ctr)
    u1 = (a.astype(np.float64) + 1.0) * 2.0**-64
    u2 = b.astype(np.float64) * 2.0**-64
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def _same_bits(got, want):
    got = np.asarray(got)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# stream and counter words on both sides of 2**32, where the high word starts
_WORDS = st.one_of(st.integers(0, 2**33), st.integers(2**32 - 2, 2**64 - 1))
# (stream shape, counter shape): 0-d, empty, scalar broadcast and 2-d inputs
_SHAPES = st.sampled_from([((), ()), ((0,), ()), ((5,), ()), ((), (4,)), ((3,), (3,)),
                           ((2, 3), (2, 3)), ((2, 1), (1, 3)), ((0, 3), (1, 3))])


def _array(draw, shape, words):
    return np.array(draw(st.lists(words, min_size=math.prod(shape), max_size=math.prod(shape))),
                    dtype=np.uint64).reshape(shape)


def test_philox_known_answers():
    # Random123 reference vectors for the 10-round 4x32 variant
    out = philox4x32(0, 0, 0, 0, 0, 0)
    assert [hex(int(w)) for w in out] == ["0x6627e8d5", "0xe169c58d", "0xbc57ac4c", "0x9b00dbd8"]
    ones = 0xFFFFFFFF
    out = philox4x32(ones, ones, ones, ones, ones, ones)
    assert [hex(int(w)) for w in out] == ["0x408f276d", "0x41c83b0e", "0xa20bc7c6", "0x6d5451fd"]
    out = philox4x32(0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344, 0xA4093822, 0x299F31D0)
    assert [hex(int(w)) for w in out] == ["0xd16cfe09", "0x94fdcceb", "0x5001e420", "0x24126ea1"]


def test_streams_are_pure_functions():
    ids = np.arange(100, dtype=np.uint64)
    a = gaussians(42, ids, np.uint64(7))
    b = gaussians(42, ids, np.uint64(7))
    assert np.array_equal(a, b)
    # a different seed, stream or counter changes the draw
    assert not np.array_equal(a, gaussians(43, ids, np.uint64(7)))
    assert not np.array_equal(a, gaussians(42, ids + np.uint64(1), np.uint64(7)))
    assert not np.array_equal(a, gaussians(42, ids, np.uint64(8)))


def test_subset_draws_match_full_batch():
    ids = np.arange(1000, dtype=np.uint64)
    full = uniforms(5, ids, np.uint64(3))
    sub = uniforms(5, ids[200:300], np.uint64(3))
    assert np.array_equal(full[200:300], sub)


def test_gaussian_moments():
    ids = np.arange(200_000, dtype=np.uint64)
    g = gaussians(1, ids, np.uint64(0))
    assert abs(g.mean()) < 0.01
    assert abs(g.std() - 1.0) < 0.01
    assert abs(np.mean(g**3)) < 0.03
    assert abs(np.mean(g**4) - 3.0) < 0.05


def test_uniform_range_and_mean():
    ids = np.arange(100_000, dtype=np.uint64)
    u = uniforms(9, ids, np.uint64(1))
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.005


def test_derive_seed_stable_and_distinct():
    s = derive_seed(123, "markov-restart")
    assert s == derive_seed(123, "markov-restart")
    assert s != derive_seed(123, "other")
    assert s != derive_seed(124, "markov-restart")
    assert 0 <= s < 2**64



@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(0, 2**64 - 1), _SHAPES, st.booleans())
def test_streams_match_a_pure_python_philox(data, seed, shapes, scalar_ctr):
    stream = _array(data.draw, shapes[0], _WORDS)
    ctr = _array(data.draw, shapes[1], _WORDS)
    if scalar_ctr and shapes[1] == ():
        ctr = int(ctr)  # a Python int counter, as a caller may pass
    want_u = _reference_uniforms(seed, stream, ctr)
    want_g = _reference_gaussians(seed, stream, ctr)
    _same_bits(uniforms(seed, stream, ctr), want_u)
    _same_bits(gaussians(seed, stream, ctr), want_g)
    assert np.isscalar(uniforms(seed, stream, ctr)) == (want_u.ndim == 0)


_SHAPE_SETS = st.sampled_from([
    ((),) * 6, ((4,),) * 6, ((0,),) * 6, ((2, 3), (3,), (1, 3), (2, 1), (), (3,)),
    ((3,), (3,), (3,), (3,), (3,), ()), ((), (), (), (), (2, 2), (2, 2))])


@settings(max_examples=60, deadline=None)
@given(st.data(), _SHAPE_SETS)
def test_block_function_matches_a_pure_python_philox_with_array_keys(data, shapes):
    words = [_array(data.draw, shape, st.integers(0, _MASK)) for shape in shapes]
    got = philox4x32(*words)
    cols = np.broadcast_arrays(*words)
    want = [_philox_reference(*map(int, w)) for w in zip(*(c.ravel() for c in cols))]
    for i in range(4):
        _same_bits(got[i], np.array([w[i] for w in want], dtype=np.uint64).reshape(cols[0].shape))
