"""Counter-based random streams (Philox4x32-10), vectorized with numpy.

Every draw is a pure function of (seed, stream, counter), so batches can be
split across any number of workers, or replayed path by path, and still
produce bit-identical numbers.  Streams are keyed by the 64-bit seed, the
counter encodes (draw index, stream index).
"""

from __future__ import annotations

import hashlib

import numpy as np

_M0 = np.uint64(0xD2511F53)
_M1 = np.uint64(0xCD9E8D57)
_W0 = np.uint64(0x9E3779B9)
_W1 = np.uint64(0xBB67AE85)
_MASK32 = np.uint64(0xFFFFFFFF)
_INV64 = 1.0 / 18446744073709551616.0  # 2**-64

__all__ = ["philox4x32", "uniforms", "gaussians", "derive_seed"]


def philox4x32(c0, c1, c2, c3, k0, k1):
    """Philox4x32-10 block function.

    Inputs are uint64 arrays holding 32-bit words; returns four uint64 arrays
    holding the 32-bit output words.  All arguments broadcast together.
    """
    c0 = np.asarray(c0, dtype=np.uint64)
    c1 = np.asarray(c1, dtype=np.uint64)
    c2 = np.asarray(c2, dtype=np.uint64)
    c3 = np.asarray(c3, dtype=np.uint64)
    k0 = np.asarray(k0, dtype=np.uint64)
    k1 = np.asarray(k1, dtype=np.uint64)
    shift = np.uint64(32)
    for _ in range(10):
        p0 = _M0 * c0
        p1 = _M1 * c2
        hi0 = p0 >> shift
        lo0 = p0 & _MASK32
        hi1 = p1 >> shift
        lo1 = p1 & _MASK32
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
        k0 = (k0 + _W0) & _MASK32
        k1 = (k1 + _W1) & _MASK32
    return c0, c1, c2, c3


def _block(seed: int, stream, ctr):
    seed = np.uint64(seed)
    stream = np.asarray(stream, dtype=np.uint64)
    ctr = np.asarray(ctr, dtype=np.uint64)
    shift = np.uint64(32)
    return philox4x32(
        ctr & _MASK32,
        ctr >> shift,
        stream & _MASK32,
        stream >> shift,
        seed & _MASK32,
        seed >> shift,
    )


def uniforms(seed: int, stream, ctr):
    """One double in [0, 1) per (stream, counter) pair."""
    w0, w1, _, _ = _block(seed, stream, ctr)
    return ((w0 << np.uint64(32)) | w1).astype(np.float64) * _INV64


def gaussians(seed: int, stream, ctr):
    """One standard normal per (stream, counter) pair (Box-Muller, cosine leg)."""
    w0, w1, w2, w3 = _block(seed, stream, ctr)
    a = (w0 << np.uint64(32)) | w1
    b = (w2 << np.uint64(32)) | w3
    # u1 in (0, 1] so the log is finite
    u1 = (a.astype(np.float64) + 1.0) * _INV64
    u2 = b.astype(np.float64) * _INV64
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def derive_seed(seed: int, *tags) -> int:
    """Stable 64-bit child seed from a parent seed and string/int tags."""
    payload = repr((int(seed),) + tuple(str(t) for t in tags)).encode()
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "little")

