"""Generalized keys as F2 vectors over position characters.

A key over ``b`` positions is the set of its (position, character) pairs; a
generalized key is an arbitrary such set, stored as one contiguous bitset
(position-major, then character value). The symmetric difference of two keys
is bitset XOR, a set of keys is a zero-set when every position character
appears an even number of times across it, and a set is linearly dependent
iff it contains a zero-set — equivalently iff Gaussian elimination over F2
finds a dependency. The incremental basis below records, for every inserted
vector, which earlier vectors reduce it, so a dependent insertion yields an
explicit zero-set witness. Characters, bitsets and keys are integers by
:mod:`tornadotab.core`'s rule (``_is_int``; a key by ``check_ints``).
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import ConfigError, _is_int, check_ints

MAX_DIMENSION = 1 << 22


def offsets(sizes: Sequence[int]) -> list[int]:
    """Start bit of each position's block in a bitset, then the total width."""
    return list(itertools.accumulate(sizes, initial=0))


@dataclass(frozen=True)
class GenKey:
    """Immutable generalized key: alphabet sizes per position plus a bitset."""

    sizes: tuple[int, ...]
    bits: int

    def __post_init__(self) -> None:
        dim = sum(self.sizes)
        if dim > MAX_DIMENSION:
            raise ValueError(f"dimension {dim} exceeds {MAX_DIMENSION}")
        if not _is_int(self.bits):
            raise ValueError(f"bitset {self.bits!r} is not an integer")
        object.__setattr__(self, "bits", int(self.bits))  # a NumPy integer has no bit_length
        if self.bits < 0 or self.bits >> dim:
            raise ValueError("bitset out of range for the declared dimension")

    @classmethod
    def from_chars(cls, chars: Sequence[int], sizes: Sequence[int]) -> "GenKey":
        """Regular key: one position character per position, an integer (not
        a bool or a float) below the position's alphabet size."""
        sizes = tuple(sizes)
        if len(chars) != len(sizes):
            raise ValueError("one character per position required")
        off = offsets(sizes)
        bits = 0
        for i, a in enumerate(chars):
            if type(a) is not int:  # a bool is an int subclass, a NumPy integer is not
                if not _is_int(a):
                    raise ValueError(f"character {a!r} at position {i} is not an integer")
                a = int(a)
            if not 0 <= a < sizes[i]:
                raise ValueError(f"character {a} out of range at position {i}")
            bits |= 1 << (off[i] + a)
        return cls(sizes, bits)

    @property
    def popcount(self) -> int:
        return self.bits.bit_count()

    @property
    def is_empty(self) -> bool:
        return self.bits == 0

    def position_chars(self) -> list[tuple[int, int]]:
        """The (position, character) pairs present, ascending."""
        off = offsets(self.sizes)
        out = []
        b = self.bits
        while b:
            low = (b & -b).bit_length() - 1
            pos = bisect.bisect_right(off, low) - 1  # the last block starting at or below low
            out.append((pos, low - off[pos]))
            b &= b - 1
        return out

    def __xor__(self, other: "GenKey") -> "GenKey":
        if self.sizes != other.sizes:
            raise ValueError("dimension mismatch")
        return GenKey(self.sizes, self.bits ^ other.bits)

    def prefix(self, i: int) -> "GenKey":
        """Restriction to positions 1..i (1-based; i=0 gives the empty key)."""
        if not 0 <= i <= len(self.sizes):
            raise ValueError(f"prefix {i} out of range")
        return GenKey(self.sizes, self.bits & ((1 << offsets(self.sizes)[i]) - 1))


def genkey_from_key(x: int, b: int, char_bits: int) -> GenKey:
    """Generalized-key view of a regular key, an integer in [0, 2**(b * char_bits))."""
    x = int(check_ints([x], 1 << b * char_bits, "key", lambda v: ConfigError(
        f"key {v} outside the {b * char_bits}-bit key universe"))[0])
    mask = (1 << char_bits) - 1
    chars = [(x >> (i * char_bits)) & mask for i in range(b)]
    return GenKey.from_chars(chars, (1 << char_bits,) * b)


def diff_key(x: GenKey, y: GenKey, prefix: int) -> GenKey:
    """Symmetric difference of two generalized keys on positions <= prefix."""
    return (x ^ y).prefix(prefix)


def is_zero_set(keys: Iterable[GenKey]) -> bool:
    """True iff every position character occurs an even number of times.

    The empty collection is rejected: dependence requires a non-empty
    zero subset.
    """
    acc = None
    for k in keys:
        acc = k if acc is None else acc ^ k
    if acc is None:
        raise ValueError("is_zero_set is undefined for the empty set")
    return acc.is_empty


class GF2Basis:
    """Incremental F2 basis with combination bookkeeping.

    ``insert`` returns None when the vector extends the basis, or a bitmask
    of insertion indices (including the current one) whose XOR is zero.
    """

    def __init__(self) -> None:
        self._pivots: dict[int, tuple[int, int]] = {}
        self._inserted = 0

    @property
    def rank(self) -> int:
        return len(self._pivots)

    @property
    def inserted(self) -> int:
        return self._inserted

    def insert(self, vec: int) -> int | None:
        combo = 1 << self._inserted
        self._inserted += 1
        v = vec
        while v:
            high = v.bit_length() - 1
            row = self._pivots.get(high)
            if row is None:
                self._pivots[high] = (v, combo)
                return None
            v ^= row[0]
            combo ^= row[1]
        return combo


def rank(keys: Iterable[GenKey]) -> int:
    basis = GF2Basis()
    for k in keys:
        basis.insert(k.bits)
    return basis.rank


def is_linearly_independent(keys: Iterable[GenKey]) -> bool:
    """True iff no non-empty subset is a zero-set (empty input is independent)."""
    basis = GF2Basis()
    for k in keys:
        if basis.insert(k.bits) is not None:
            return False
    return True


def find_zero_subset(keys: Sequence[GenKey]) -> list[GenKey]:
    """A zero-set witness from a dependent sequence.

    Returns the first vector (in insertion order) that reduces to zero
    together with its recorded combination; raises if independent.
    """
    basis = GF2Basis()
    for k in keys:
        combo = basis.insert(k.bits)
        if combo is not None:
            return [keys[j] for j in range(len(keys)) if (combo >> j) & 1]
    raise ValueError("set is linearly independent, no zero subset exists")
