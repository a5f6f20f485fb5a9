"""Deterministic randomness for table filling, trial seeding and key sampling.

Every random bit in this library comes out of one counter-mode construction
built on the splitmix64 finalizer, so that two builds with the same seed are
bit-identical on any platform and a table dump can be reproduced from the
seed alone.

Fixed constants (do not change without bumping the dump format version):

* ``GAMMA = 0x9E3779B97F4A7C15`` (2^64 / golden ratio), splitmix64 increment
* ``MIX1 = 0xBF58476D1CE4E5B9``, ``MIX2 = 0x94D049BB133111EB``, finalizer
  multipliers
* domain tags ``TABLE_TAG``, ``TRIAL_TAG``, ``KEYS_TAG``, ``ORACLE_TAG``
  separating the table-fill stream, the per-trial seed stream, the key
  sampling stream and the fully-random-baseline stream.

A logical table field is addressed by ``(seed, kind, major, minor, slot)``
and its value is five chained mix rounds; see :func:`field_value`. Its
array form, :func:`field_value_vec`, serves every table fill and every
level entry hashed from its address: four rounds on the small broadcast of
(seed, kind, major, minor), then the last round in place over the one
full-size array, ``MIX_BLOCK`` entries at a time so each pass stays in L2.
A key set is the first n distinct values of a seed's key stream, and a
``(B,)`` seed array gives B key sets at once (:func:`sample_distinct_keys`).
"""

from __future__ import annotations

import numpy as np

M64 = (1 << 64) - 1

GAMMA = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB

TABLE_TAG = 0xA0761D6478BD642F
TRIAL_TAG = 0xE7037ED1A0B428DB
KEYS_TAG = 0x8EBC6AF09C88C6E3
ORACLE_TAG = 0x589965CC75374CC3

KIND_LEVEL = 0
KIND_TOP = 1

_U = np.uint64
_GAMMA_U = _U(GAMMA)
_MIX1_U = _U(MIX1)
_MIX2_U = _U(MIX2)

# entries per in-place pass of field_value_vec's last round: 256 KiB of
# uint64, so the block and its scratch stay inside a 2 MiB L2
MIX_BLOCK = 1 << 15


def mix64(x: int) -> int:
    """splitmix64 step: increment by GAMMA, then finalize. Returns 64 bits."""
    x = (x + GAMMA) & M64
    x = ((x ^ (x >> 30)) * MIX1) & M64
    x = ((x ^ (x >> 27)) * MIX2) & M64
    return x ^ (x >> 31)


def mix64_vec(x: np.ndarray) -> np.ndarray:
    """Vectorized :func:`mix64` over a uint64 array (wraparound intended)."""
    with np.errstate(over="ignore"):
        x = x + _GAMMA_U
        x = (x ^ (x >> _U(30))) * _MIX1_U
        x = (x ^ (x >> _U(27))) * _MIX2_U
        return x ^ (x >> _U(31))


def field_value(seed: int, kind: int, major: int, minor: int, slot: int) -> int:
    """Canonical 64-bit value of one logical table field.

    ``kind`` is KIND_LEVEL or KIND_TOP, ``major`` the level index (0 for the
    top table), ``minor`` the position index and ``slot`` the character.
    """
    v = mix64(seed ^ TABLE_TAG)
    v = mix64(v ^ kind)
    v = mix64(v ^ major)
    v = mix64(v ^ minor)
    return mix64(v ^ slot)


def field_value_vec(seed, kind, major, minor, slot) -> np.ndarray:
    """Vectorized :func:`field_value`; any argument may be an integer array.

    The four prefix rounds run on the broadcast of (seed, kind, major,
    minor), which is small. The result's full shape is allocated once, as
    ``v ^ slot``, and the last round runs on it in place, MIX_BLOCK entries
    at a time with one scratch block.
    """
    v = mix64_vec(np.asarray(seed, dtype=np.uint64) ^ _U(TABLE_TAG))
    v = mix64_vec(v ^ np.asarray(kind, dtype=np.uint64))
    v = mix64_vec(v ^ np.asarray(major, dtype=np.uint64))
    v = mix64_vec(v ^ np.asarray(minor, dtype=np.uint64))
    slot = np.asarray(slot)
    if slot.dtype.kind not in "iu":  # a float or a bool slot is no table address
        raise ValueError(f"slots must be integers, got dtype {slot.dtype}")
    # 64-bit integers, such as the engine's intp characters, are viewed, not copied
    slot = slot.view(np.uint64) if slot.itemsize == 8 else slot.astype(np.uint64)
    out = np.empty(np.broadcast_shapes(v.shape, slot.shape), dtype=np.uint64)
    np.bitwise_xor(v, slot, out=out)
    flat = out.reshape(-1)
    tmp = np.empty(min(flat.size, MIX_BLOCK), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for lo in range(0, flat.size, MIX_BLOCK):
            x = flat[lo:lo + MIX_BLOCK]
            t = tmp[:len(x)]
            x += _GAMMA_U
            x ^= np.right_shift(x, _U(30), out=t)
            x *= _MIX1_U
            x ^= np.right_shift(x, _U(27), out=t)
            x *= _MIX2_U
            x ^= np.right_shift(x, _U(31), out=t)
    return out if out.ndim else out[()]  # all-scalar arguments give a scalar


def trial_seed(master_seed: int, trial: int) -> int:
    """Hash seed used by Monte Carlo trial ``trial`` under ``master_seed``."""
    return mix64(mix64(master_seed ^ TRIAL_TAG) ^ trial)


def trial_seed_vec(master_seed: int, trials: np.ndarray) -> np.ndarray:
    base = _U(mix64(master_seed ^ TRIAL_TAG))
    return mix64_vec(base ^ trials.astype(np.uint64))


def mixer_hash(seed: int, x: int, bits: int) -> int:
    """Seeded strong mixer standing in for a fully-random hash oracle."""
    return mix64(mix64(seed ^ ORACLE_TAG) ^ x) & ((1 << bits) - 1)


def mixer_hash_vec(seed: int, xs: np.ndarray, bits: int) -> np.ndarray:
    base = _U(mix64(seed ^ ORACLE_TAG))
    return mix64_vec(base ^ xs.astype(np.uint64)) & _U((1 << bits) - 1)


def raw_key_stream(seed: int | np.ndarray, count: int, bits: int) -> np.ndarray:
    """Counter-mode stream of ``count`` values of ``bits`` bits (may repeat);
    one row of them per seed when ``seed`` is an array."""
    base = mix64_vec(np.asarray(seed, dtype=np.uint64)[..., None] ^ _U(KEYS_TAG))
    return mix64_vec(base ^ np.arange(count, dtype=np.uint64)) & _U((1 << bits) - 1)


def _first_occurrences(vals: np.ndarray, bits: int) -> np.ndarray:
    """Mask of the entries of each row of ``vals`` (``bits``-bit values) whose
    value appears nowhere earlier in that row."""
    count = vals.shape[1]
    index_bits = (count - 1).bit_length()
    if bits + index_bits <= 64:
        # words ordered by value, then by index: each value's first index leads its run
        words = np.sort((vals << _U(index_bits)) | np.arange(count, dtype=np.uint64), axis=1)
        order = (words & _U((1 << index_bits) - 1)).astype(np.intp)
        runs = words >> _U(index_bits)
    else:
        order = np.argsort(vals, axis=1, kind="stable")
        runs = np.take_along_axis(vals, order, axis=1)
    head = np.ones(vals.shape, dtype=bool)
    head[:, 1:] = runs[:, 1:] != runs[:, :-1]
    first = np.empty(vals.shape, dtype=bool)
    np.put_along_axis(first, order, head, axis=1)
    return first


def sample_distinct_keys(seed: int | np.ndarray, n: int, bits: int) -> np.ndarray:
    """First ``n`` distinct stream values, in stream order.

    A ``(B,)`` array of seeds gives a ``(B, n)`` block whose row b is the
    keys of ``seed[b]`` alone. The keys are defined by the stream, not by how
    much of it is drawn: a row draws ``n + max(64, n // 4)`` values, and one
    left short (a nearly full universe) is drawn again with twice as many.

    Taking the first n distinct values of an iid-uniform stream yields a
    uniformly random n-subset of the universe, which is what the experiments
    need for "a random key set".
    """
    universe = 1 << bits
    if not 0 <= n <= universe:
        raise ValueError(f"cannot sample {n} distinct keys from {universe}")
    seeds = np.asarray(seed, dtype=np.uint64)
    rows = seeds.reshape(-1)
    out = np.empty((len(rows), n), dtype=np.uint64)
    todo = np.arange(len(rows))
    count = n + max(64, n // 4)
    while len(todo):
        vals = raw_key_stream(rows[todo], count, bits)
        keep = _first_occurrences(vals, bits)
        rank = np.cumsum(keep, axis=1, dtype=np.int32)
        full = rank[:, -1] >= n
        done = todo[full]
        out[done] = vals[full][(keep & (rank <= n))[full]].reshape(len(done), n)
        todo = todo[~full]
        count *= 2
    return out.reshape(seeds.shape + (n,))
