"""Counter-based random streams (Philox4x32-10), vectorized with numpy.

Every draw is a pure function of (seed, stream, counter), so batches can be
split across any number of workers, or replayed path by path, and still
produce bit-identical numbers.  Streams are keyed by the 64-bit seed, the
counter encodes (draw index, stream index).

The block function runs on two stacked uint32 lanes, A = (c0, c2) and
B = (c1, c3), each of shape (2, n).  One round is one uint64 product of A
with (M0, M1), whose high and low words are read through a uint32 view with
the lanes swapped by a reversed view, and two XORs: A' = hi[::-1] ^ B ^ key,
B' = lo[::-1].
"""

from __future__ import annotations

import functools
import hashlib
import sys

import numpy as np

_ROUNDS = 10
_MUL = np.array([[0xD2511F53], [0xCD9E8D57]], dtype=np.uint32)  # (M0, M1)
_WEYL = np.array([[0x9E3779B9], [0xBB67AE85]], dtype=np.uint64)  # (W0, W1)
_BUMPS = np.arange(_ROUNDS, dtype=np.uint64)[:, None, None] * _WEYL  # r * (W0, W1)
_MASK32 = np.uint64(0xFFFFFFFF)
_INV64 = 1.0 / 18446744073709551616.0  # 2**-64
_TWO_PI_INV64 = 2.0 * np.pi * _INV64  # 2 pi scaled by a power of two, so exact
# index of the low and the high 32-bit word inside a uint64
_LO, _HI = (0, 1) if sys.byteorder == "little" else (1, 0)

__all__ = ["philox4x32", "uniforms", "gaussians", "derive_seed"]


def _round_keys(key: np.ndarray) -> tuple[np.ndarray, ...]:
    """The ten (2, m) uint32 round keys from the (2, m) uint64 key words (k0, k1)."""
    return tuple(((key + _BUMPS) & _MASK32).astype(np.uint32))


@functools.lru_cache(maxsize=64)
def _seed_keys(seed: int) -> tuple[np.ndarray, ...]:
    """The round keys of a 64-bit seed, each (2, 1) and read-only (shared by callers)."""
    seed = int(np.uint64(seed))  # OverflowError outside [0, 2**64)
    keys = _round_keys(np.array([[seed & 0xFFFFFFFF], [seed >> 32]], dtype=np.uint64))
    for key in keys:
        key.flags.writeable = False
    return keys


def _rounds(a: np.ndarray, b: np.ndarray, keys) -> np.ndarray:
    """Ten Philox rounds on the lanes A = (c0, c2), B = (c1, c3), each (2, n).

    Each round's product lands in one of two buffers, in turn, so the views
    of their high and low words are made once.  The last round writes A over
    the high words of its own product, so the result comes out packed: a
    (2, n) uint64 array of (c0 * 2**32 + c1, c2 * 2**32 + c3).
    """
    prods = np.empty((2, 2, a.shape[1]), dtype=np.uint64)
    words = prods.view(np.uint32)  # (2, 2, 2n): low and high word of each product
    his = words[:, ::-1, _HI::2]
    los = words[:, ::-1, _LO::2]
    lanes = np.empty(a.shape, dtype=np.uint32)
    last = len(keys) - 1
    for r, key in enumerate(keys):
        j = r & 1
        np.multiply(a, _MUL, out=prods[j], dtype=np.uint64)
        a = his[j] if r == last else lanes
        np.bitwise_xor(his[j], b, out=a)
        a ^= key
        b = los[j]
    return prods[last & 1, ::-1]


def philox4x32(c0, c1, c2, c3, k0, k1):
    """Philox4x32-10 block function.

    Inputs are uint64 arrays holding 32-bit words; returns four uint64 arrays
    holding the 32-bit output words.  All arguments broadcast together.
    """
    words = np.broadcast_arrays(*(np.asarray(w, dtype=np.uint64)
                                  for w in (c0, c1, c2, c3, k0, k1)))
    shape = words[0].shape
    c0, c1, c2, c3, k0, k1 = (w.reshape(-1) for w in words)
    out = _rounds(np.array([c0, c2], dtype=np.uint32), np.array([c1, c3], dtype=np.uint32),
                  _round_keys(np.array([k0, k1])))
    half = out.view(np.uint32)  # (2, 2n)
    return tuple(half[i, j::2].astype(np.uint64).reshape(shape)[()]
                 for i, j in ((0, _HI), (0, _LO), (1, _HI), (1, _LO)))


def _block(seed: int, stream, ctr):
    """Philox blocks of the counters (ctr, stream) under the key seed, packed
    as _rounds returns them, and the broadcast shape of stream and ctr."""
    ctr = np.asarray(ctr, dtype=np.uint64)
    stream = np.asarray(stream, dtype=np.uint64)
    shape = np.broadcast(ctr, stream).shape
    words = np.empty((2,) + shape, dtype=np.uint64)
    words[0] = ctr
    words[1] = stream
    halves = words.reshape(2, -1).view(np.uint32)  # (2, 2n): the 32-bit halves
    return _rounds(halves[:, _LO::2], halves[:, _HI::2], _seed_keys(int(seed))), shape


def uniforms(seed: int, stream, ctr):
    """One double in [0, 1) per (stream, counter) pair."""
    out, shape = _block(seed, stream, ctr)
    return (out[0].astype(np.float64) * _INV64).reshape(shape)[()]


def gaussians(seed: int, stream, ctr):
    """One standard normal per (stream, counter) pair (Box-Muller, cosine leg)."""
    out, shape = _block(seed, stream, ctr)
    u = out.astype(np.float64)
    # u1 in (0, 1] so the log is finite
    radius = np.log((u[0] + 1.0) * _INV64)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    radius *= np.cos(u[1] * _TWO_PI_INV64)
    return radius.reshape(shape)[()]


def derive_seed(seed: int, *tags) -> int:
    """Stable 64-bit child seed from a parent seed and string/int tags."""
    payload = repr((int(seed),) + tuple(str(t) for t in tags)).encode()
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "little")
