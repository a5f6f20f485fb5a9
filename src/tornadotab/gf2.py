"""Generalized keys as F2 vectors over position characters.

A key over ``b`` positions is the set of its (position, character) pairs; a
generalized key is an arbitrary such set, stored as one contiguous bitset
(position-major, then character value). The symmetric difference of two keys
is bitset XOR, a set of keys is a zero-set when every position character
appears an even number of times across it, and a set is linearly dependent
iff it contains a zero-set — equivalently iff Gaussian elimination over F2
finds a dependency. The incremental basis below records, for every inserted
vector, which earlier vectors reduce it, so a dependent insertion yields an
explicit zero-set witness.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Iterable, Sequence

MAX_DIMENSION = 1 << 22


def offsets(sizes: Sequence[int]) -> list[int]:
    """Start bit of each position's block in a bitset, then the total width."""
    off = [0]
    for s in sizes:
        off.append(off[-1] + s)
    return off


@dataclass(frozen=True)
class GenKey:
    """Immutable generalized key: alphabet sizes per position plus a bitset."""

    sizes: tuple[int, ...]
    bits: int

    def __post_init__(self) -> None:
        dim = sum(self.sizes)
        if dim > MAX_DIMENSION:
            raise ValueError(f"dimension {dim} exceeds {MAX_DIMENSION}")
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
                if isinstance(a, bool) or not isinstance(a, numbers.Integral):
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
            pos = 0
            while off[pos + 1] <= low:
                pos += 1
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
        off = offsets(self.sizes)
        return GenKey(self.sizes, self.bits & ((1 << off[i]) - 1))


def genkey_from_key(x: int, b: int, char_bits: int) -> GenKey:
    """Generalized-key view of a regular key over a uniform alphabet."""
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
