"""Tornado tabulation hash families: parameterization, build, evaluation.

A hash function here maps ``c`` input characters of ``char_bits`` bits each to
``out_bits`` output bits. The input key is extended with ``d`` derived
characters, each produced by a simple tabulation function of all preceding
characters of the (partially built) derived key, and a top simple tabulation
over all ``c + d`` positions produces the hash. Four variants:

* ``SIMPLE_TABULATION``: d = 0, plain per-position lookup XOR.
* ``SIMPLE_TORNADO``: input characters kept verbatim, d chained derived
  characters.
* ``TORNADO``: as above, plus the last input character is twisted by a
  tabulation of the preceding ones (a bijection on keys).
* ``TORNADO_MIX``: the last two derived characters come from a wider
  alphabet of ``psi_bits`` bits and both depend only on the first
  ``c + d - 2`` characters, so they can be looked up in parallel.

Character order: ``x_1`` is the least significant ``char_bits`` bits of the
key word, and tables are filled by the canonical PRG of :mod:`tornadotab.rng`
in the documented order (levels ascending, positions ascending, slots
ascending, then the top table).

One batched engine builds, derives and evaluates. Each table entry is
hashed from its address by one reader, ``rng.field_value_vec``:
:func:`level_stacks` and :func:`top_stacks` fill the tables of B hash
functions at once, the level tables position-major. One lane walk,
:func:`eval_folded_stack`, derives and evaluates. It reads its entries from
64-bit lanes (:func:`_lanes`: the levels in order at fixed bit offsets, then
the top entry) with one gather per (lane, position) read, so a key costs
c + d lookups when every entry fits one lane; or from a :class:`Hashed`
source, hashing them from the B trial seeds at the characters it reads.
:func:`fold_stacks` packs the lanes of B trials from their seeds (only at
the slots shared keys read at the untwisted input positions, and with no top
entry for a chunk that does not evaluate). A :class:`TornadoHash` is a stack
of one: ``build`` fills the stacks for its seed, and ``derive_batch`` and
``eval_batch`` (also named ``eval_folded_batch``, perfbench's name for it)
walk its lanes, packed on first use, with B = 1, while
:mod:`tornadotab.experiments` runs the same walk on chunks of trials. The scalar folded word is one more lane, with no width
limit, and one loop, :func:`_pack`, packs it and every other word, so
``eval_folded`` costs c + d lookups: w64 in 64 bits, w128mix in 128. The
scalar ``derive``/``eval`` are an independent transcription that the tests
hold the engine and ``eval_folded`` against.

Integers at the API boundary are read here: a count or spec field by
:func:`check_count`, and every integer array in [0, limit) by :func:`check_ints`
(keys, hand-built table entries, probing hash cells, selector keys, gf2 keys).
"""

from __future__ import annotations

import enum
import itertools
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import rng

_U = np.uint64


class ConfigError(ValueError):
    """Invalid hash-family parameterization or unsupported profile."""


class Variant(enum.Enum):
    SIMPLE_TABULATION = "simpletab"
    SIMPLE_TORNADO = "simpletornado"
    TORNADO = "tornado"
    TORNADO_MIX = "tornadomix"


def _is_int(x) -> bool:
    """Whether ``x`` is an integer: a Python or NumPy integer, not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


@dataclass(frozen=True)
class TornadoSpec:
    """Full parameterization of one hash family."""

    char_bits: int
    c: int
    d: int
    out_bits: int
    variant: Variant
    psi_bits: int | None = None
    # 2**key_bits, stored for the scalar eval paths' key checks
    key_limit: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name, least in (("char_bits", 1), ("c", 1), ("d", 0), ("out_bits", 1)):
            object.__setattr__(self, name, check_count(name, getattr(self, name), least))
        if self.psi_bits is not None:
            object.__setattr__(self, "psi_bits", check_count("psi_bits", self.psi_bits))
        if self.char_bits > 16:
            raise ConfigError(f"char_bits must be in 1..16, got {self.char_bits}")
        if self.char_bits * self.c > 64:
            raise ConfigError("key does not fit a 64-bit word")
        if self.out_bits > 64:
            raise ConfigError(f"out_bits must be in 1..64, got {self.out_bits}")
        if self.variant is Variant.TORNADO_MIX:
            if self.d < 2:
                raise ConfigError("tornado-mix needs d >= 2")
            if self.psi_bits is None or self.psi_bits < self.char_bits:
                raise ConfigError("tornado-mix needs psi_bits >= char_bits")
            if self.psi_bits > 20:
                raise ConfigError("psi_bits > 20 not supported (table memory)")
        elif self.psi_bits is not None:
            raise ConfigError("psi_bits only applies to tornado-mix")
        elif self.variant is Variant.SIMPLE_TABULATION and self.d != 0:
            raise ConfigError("simple tabulation requires d = 0")
        object.__setattr__(self, "key_limit", 1 << self.key_bits)

    @property
    def sigma(self) -> int:
        return 1 << self.char_bits

    @property
    def psi(self) -> int:
        if self.psi_bits is None:
            raise ConfigError("psi is only defined for tornado-mix")
        return 1 << self.psi_bits

    @property
    def key_bits(self) -> int:
        return self.char_bits * self.c

    @property
    def positions(self) -> int:
        """Number of derived-key positions, c + d."""
        return self.c + self.d

    def position_bits(self, i: int) -> int:
        """Alphabet width of derived-key position ``i`` (0-based)."""
        if self.variant is Variant.TORNADO_MIX and i >= self.c + self.d - 2:
            return self.psi_bits  # type: ignore[return-value]
        return self.char_bits

    def levels(self) -> tuple[int, ...]:
        """Level indices that own a lookup table, in canonical order."""
        if self.variant is Variant.SIMPLE_TABULATION:
            return ()
        if self.variant is Variant.SIMPLE_TORNADO:
            return tuple(range(1, self.d + 1))
        return tuple(range(0, self.d + 1))

    def level_input_positions(self, level: int) -> int:
        """How many prefix characters feed the level's tabulation."""
        if self.variant is Variant.TORNADO_MIX and level >= self.d - 1:
            return self.c + self.d - 2
        return self.c + level - 1

    def level_output_bits(self, level: int) -> int:
        """Alphabet width of the position level ``level`` writes, c + level - 1."""
        return self.position_bits(self.c + level - 1)

    def spec_string(self) -> str:
        s = f"{self.variant.value},cb={self.char_bits},c={self.c},d={self.d},r={self.out_bits}"
        if self.psi_bits is not None:
            s += f",psi={self.psi_bits}"
        return s


def parse_spec_string(text: str) -> TornadoSpec:
    """Inverse of :meth:`TornadoSpec.spec_string`."""
    parts = text.strip().split(",")
    try:
        variant = Variant(parts[0])
        fields = dict(p.split("=", 1) for p in parts[1:])
        if len(fields) < len(parts) - 1 or fields.keys() - {"cb", "c", "d", "r", "psi"}:
            raise ConfigError(f"bad spec string {text!r}: unknown or repeated field")
        return TornadoSpec(
            char_bits=int(fields["cb"]),
            c=int(fields["c"]),
            d=int(fields["d"]),
            out_bits=int(fields["r"]),
            variant=variant,
            psi_bits=int(fields["psi"]) if "psi" in fields else None,
        )
    except (KeyError, ValueError, IndexError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"bad spec string {text!r}") from exc


def _outside_universe(spec: TornadoSpec, x) -> ConfigError:
    return ConfigError(f"key {x} outside the {spec.key_bits}-bit key universe of "
                       f"{spec.spec_string()}")


def check_key(spec: TornadoSpec, x) -> int:
    """``x`` as the Python int the scalar loops use; ConfigError unless it is
    an integer (not a bool or a float) with ``0 <= x < 2**key_bits``."""
    if type(x) is not int:
        if not _is_int(x):
            raise ConfigError(f"key {x!r} is not an integer")
        x = int(x)
    if not 0 <= x < spec.key_limit:
        raise _outside_universe(spec, x)
    return x


def check_seed(seed: int) -> None:
    """ConfigError unless ``seed`` is an integer (not a bool) in [0, 2**64),
    so no two seeds alias."""
    if not _is_int(seed):
        raise ConfigError(f"seed {seed!r} is not an integer")
    if not 0 <= seed < 1 << 64:
        raise ConfigError(f"seed {seed} is outside [0, 2^64)")


def check_count(name: str, value, least: int = 1) -> int:
    """``value`` as a plain int, so a report holding it can be written out as
    JSON. ConfigError unless it is an integer (not a bool or a float) of at
    least ``least``; no estimate can rest on fewer than 1 trial."""
    if not _is_int(value):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ConfigError(f"{name} must be >= {least}, got {value}")
    return int(value)


def check_real(name: str, value, lo: float, hi: float) -> float:
    """``value`` as a plain float, as :func:`check_count` gives a plain int.
    ConfigError unless it is a real number (not a bool, a string, NaN or an
    int too large for a float) in the open interval (lo, hi)."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    # NaN fails the first test; a Python int may be too large for a float
    if not lo < value < hi or isinstance(value, int) and abs(value) > sys.float_info.max:
        raise ConfigError(f"{name} must be in ({lo}, {hi}), got {value}")
    return float(value)


def check_ints(xs, limit: int, what: str, outside) -> np.ndarray:
    """The integer-array rule: ``xs``, one 1-D array or sequence of integers
    (not bools or floats), as an integer array (of objects, if NumPy reads it
    so). ConfigError naming ``what`` otherwise; the exception ``outside(x)``
    for an x outside [0, limit).
    NumPy reads a list of ints on both sides of 2**63 as float64, so it is
    read again as objects, and a list of ints and bools as int64, so it is
    refused by the types of its items. A uint64 array costs one max pass
    and no copy."""
    arr = np.asarray(xs)
    if arr.ndim != 1:
        raise ConfigError(f"{what} must be one 1-D array or sequence, got shape {arr.shape}")
    if not isinstance(xs, np.ndarray):
        if arr.dtype.kind == "f":
            arr = np.array(xs, dtype=object)
        elif arr.dtype.kind in "iu" and {bool, np.bool_} & set(map(type, xs)):
            raise ConfigError(f"{what} must be integers, not bools")
    if arr.size:
        if not (arr.dtype.kind in "ui" or arr.dtype.kind == "O" and all(map(_is_int, arr))):
            raise ConfigError(f"{what} must be integers, got dtype {np.asarray(xs).dtype}")
        if arr.dtype.kind != "u" and (lo := int(arr.min())) < 0:
            raise outside(lo)
        if (hi := int(arr.max())) >= limit:
            raise outside(hi)
    return arr


def check_keys(spec: TornadoSpec, xs) -> np.ndarray:
    """Array form of :func:`check_key`, the keys as uint64 (:func:`check_ints`)."""
    return check_ints(xs, spec.key_limit, "keys",
                      lambda x: _outside_universe(spec, x)).astype(np.uint64, copy=False)


# -- the batched engine -------------------------------------------------------
#
# Every table is a contiguous stack over B hash functions (trials). A level
# stack is position-major, (npos, B, sigma), a top table is (B, alphabet_i),
# and so are a lane's words at a position, so trial ``b`` reads character
# ``ch`` of a position at flat offset ``b * alphabet + ch``: one gather index
# per position serves every lane that reads it, and one ``np.take`` into a
# preallocated buffer reads a block of keys. Derived characters are
# ``intp``, stored position by position, so each position is a contiguous
# block of indices that needs no cast. Every character is below its
# alphabet, so ``mode="wrap"`` reads the same entries as the default
# "raise", which would copy through a temporary for ``out=``.
#
# Every entry that reads a position reads it at the same index, so filled
# tables are packed into lanes (``_lanes``), each entry at a fixed bit
# offset of a 64-bit word: one gather of a lane's word then reads all its
# entries there. The w64 spec is one lane, c + d gathers per key; the mix
# spec is a lane of its levels and one of its top entries, 24 gathers per
# key for 69 entry reads. A walk over hashed entries makes each level its
# own lane at offset 0: packing them would add a mask, a shift and an XOR
# per read.

FOLD_BLOCK = 1 << 14  # keys per pass of the lane walk; its buffers stay in L2
# keys per pass over hashed entries: each field_value_vec call has a fixed
# cost, and with FOLD_BLOCK the hashed chunks of the dependence, survival and
# probing benchmark shapes took up to 10% longer (best of 21, 2-core VM)
HASH_BLOCK = 1 << 15
# The walk's buffers start at staggered offsets modulo the page size, counted
# from the input keys: a step that reads one buffer while writing another at
# the same or a slightly higher offset mod 4096 stalls on 4K aliasing. Left to
# the allocator, whose placement follows the process's allocation history,
# the buffers made the walk up to 1.6x slower in some processes: the mix
# spec's eval_batch over 2^18 keys 60 against 38 ns/key, the benchmark's
# Chernoff chunk 24 against 16 ms (2-core VM). STAGGER apart, 16 buffers get
# distinct offsets.
PAGE = 4096
STAGGER = PAGE // 16


def _placed(n: int, dtype, at: int) -> np.ndarray:
    """An uninitialised (n,) array whose data starts at ``at`` modulo PAGE
    (``at`` a multiple of 16)."""
    dtype = np.dtype(dtype)
    raw = np.empty(n * dtype.itemsize + PAGE, dtype=np.uint8)
    skip = (at - raw.ctypes.data) % PAGE
    return raw[skip:skip + n * dtype.itemsize].view(dtype)


def _hashed(spec: TornadoSpec, seeds: np.ndarray, level: int | None, pos, slots) -> np.ndarray:
    """The level's entries (the top table's for ``level=None``) at ``pos`` and
    ``slots``, hashed from the (B,) seeds and masked to their width; (B, 1)
    broadcast against pos and slots."""
    kind, major = (rng.KIND_TOP, 0) if level is None else (rng.KIND_LEVEL, level)
    out = rng.field_value_vec(seeds[:, None], kind, major, pos, slots)
    out &= _U((1 << _bits(spec, level)) - 1)
    return out


def level_stacks(spec: TornadoSpec, seeds: np.ndarray) -> dict[int, np.ndarray]:
    """Level tables for many seeds at once: level -> (npos, B, sigma) uint32,
    position-major, so a level table of trial b is ``stack[:, b]``."""
    out: dict[int, np.ndarray] = {}
    for level in spec.levels():
        pos = np.arange(spec.level_input_positions(level), dtype=np.uint64)[:, None, None]
        out[level] = _hashed(spec, seeds, level, pos, np.arange(spec.sigma)).astype(np.uint32)
    return out


def top_stacks(spec: TornadoSpec, seeds: np.ndarray) -> list[np.ndarray]:
    """Top tables for many seeds at once, one (B, alphabet_i) uint64 per position."""
    return [_hashed(spec, seeds, None, i, np.arange(1 << spec.position_bits(i)))
            for i in range(spec.positions)]


def _reads(spec: TornadoSpec, level: int | None) -> int:
    """How many positions, from 0 on, a level (the top entry for None) reads."""
    return spec.positions if level is None else spec.level_input_positions(level)


def _bits(spec: TornadoSpec, level: int | None) -> int:
    """Entry width of a level (the top entry for None)."""
    return spec.out_bits if level is None else spec.level_output_bits(level)


def _lanes(spec: TornadoSpec, width: int | None = 64,
           top: bool = True) -> list[list[tuple[int | None, int]]]:
    """Where packed words hold each entry: lanes of (level, bit offset), the
    levels in order and then, if ``top``, the top entry (level None), each
    at the offset the entries before it in its lane leave. A new lane starts
    before an entry would cross bit ``width``; with no width, every entry is
    in one lane, the scalar folded word."""
    lanes: list[list[tuple[int | None, int]]] = []
    off = 0
    for level in spec.levels() + ((None,) if top else ()):
        if not lanes or width and off + _bits(spec, level) > width:
            lanes.append([])
            off = 0
        lanes[-1].append((level, off))
        off += _bits(spec, level)
    return lanes


class Lane(NamedTuple):
    """One lane of packed words: its :func:`_lanes` entries, and for each
    position p from 0 to the last one an entry reads, the (B, alphabet_p)
    words of the B trials."""

    entries: list[tuple[int | None, int]]
    words: list[np.ndarray]


def _pack(spec: TornadoSpec, lanes: list[list[tuple[int | None, int]]], entry,
          slots: list[np.ndarray | None] | None = None) -> list[Lane]:
    """Pack ``lanes``: at each position p and (trial, slot), a lane's word
    holds the entry of each of its levels that reads p, and the top entry, at
    its offset; the other levels hold 0. ``entry(level, p, s)`` gives the (B,
    len(s)) entries at the slots ``s = slots[p]``, or (B, alphabet_p) at
    every slot for s None; with slots, the other slots hold 0.

    The one loop that packs words: a hash's lanes, a chunk's, survival's
    exact fillings and the scalar folded word. The words are uint32 when the
    lane fits 32 bits, so a lane of one entry keeps a uint32 source array
    itself, not a copy; uint64 when it fits 64, else Python ints (the
    w128mix folded word). A lane that reads no position (level 0 at c = 1)
    is left out."""
    packed = []
    for lane in lanes:
        last, end = lane[-1]
        end += _bits(spec, last)
        dtype = np.uint32 if end <= 32 else np.uint64 if end <= 64 else object
        words = []
        for p in range(max(_reads(spec, level) for level, _ in lane)):
            s = None if slots is None else slots[p]
            word = None
            # highest offset first: an entry at offset 0 comes last, so it starts
            # the word only as the one entry that reads p, and no source is written
            for level, off in reversed(lane):
                if p < _reads(spec, level):
                    e = entry(level, p, s)
                    if off:
                        e = np.left_shift(e, off, dtype=dtype)
                    if word is None:
                        word = e.astype(dtype, copy=False)
                    else:
                        word ^= e
            if s is not None:
                full = np.zeros((len(word), 1 << spec.position_bits(p)), dtype=dtype)
                full[:, s] = word
                word = full
            words.append(word)
        if words:
            packed.append(Lane(lane, words))
    return packed


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _checked_table(t, shape: tuple[int, ...], bits: int, dtype, what: str) -> np.ndarray:
    """``t`` as a read-only contiguous array of ``dtype``, copied unless it
    already is one; ConfigError unless it has ``shape`` and every entry is an
    integer in [0, 2**bits). The engine gathers with ``mode="wrap"``, so an
    entry out of range would alias another entry instead of failing."""
    a = np.asarray(t)
    if a.shape != shape:
        raise ConfigError(f"{what} has shape {a.shape}, expected {shape}")
    # a sequence is read as objects, so that each entry keeps its type
    flat = a.ravel() if isinstance(t, np.ndarray) else np.array(t, dtype=object).ravel()
    entries = check_ints(flat, 1 << bits, f"{what} entries", lambda x: ConfigError(
        f"{what} entries must be integers in [0, 2**{bits}), got {x}"))
    if a.dtype != dtype or a.flags.writeable or not a.flags.c_contiguous:
        a = _read_only(np.array(entries.reshape(shape), dtype=dtype))
    return a


class TornadoHash:
    """An instantiated tornado tabulation hash function.

    Immutable after construction; safe to share across threads. Normally
    created through :meth:`build`; the direct constructor exists for tests
    that need hand-crafted tables, in build's shapes: ``level_tables`` maps
    each level of the spec to a (positions, sigma) array of entries below
    2**level_output_bits, ``top_table`` holds one array of 2**position_bits
    entries below 2**out_bits per derived-key position. Other tables raise
    ConfigError. The tables are kept read-only, as uint32 and uint64; a
    writable table is copied.
    """

    __slots__ = ("spec", "seed", "level_tables", "top_table", "_packed", "_folded")

    def __init__(
        self,
        spec: TornadoSpec,
        seed: int,
        level_tables: dict[int, np.ndarray],
        top_table: list[np.ndarray],
    ):
        if sorted(level_tables) != list(spec.levels()):
            raise ConfigError(f"level tables {sorted(level_tables)} do not match the levels "
                              f"{list(spec.levels())} of {spec.spec_string()}")
        if len(top_table) != spec.positions:
            raise ConfigError(f"{len(top_table)} top tables for {spec.positions} positions")
        check_seed(seed)
        self.spec = spec
        self.seed = seed
        self.level_tables = {
            lv: _checked_table(t, (spec.level_input_positions(lv), spec.sigma),
                               spec.level_output_bits(lv), np.uint32, f"level {lv} table")
            for lv, t in level_tables.items()}
        self.top_table = [
            _checked_table(t, (1 << spec.position_bits(i),), spec.out_bits, np.uint64,
                           f"top table {i}")
            for i, t in enumerate(top_table)]
        self._packed: list[Lane] | None = None
        self._folded: FoldedTables | None = None

    @classmethod
    def build(cls, spec: TornadoSpec, seed: int) -> "TornadoHash":
        """Fill the engine's stacks for the one seed and keep read-only views:
        level -> (positions, sigma), the trial's column of each position-major
        stack, and one 1-D top table per position."""
        check_seed(seed)
        seeds = np.array([seed], dtype=np.uint64)
        levels = {lv: _read_only(t[:, 0]) for lv, t in level_stacks(spec, seeds).items()}
        return cls(spec, seed, levels, [_read_only(t[0]) for t in top_stacks(spec, seeds)])

    # -- reference (scalar) paths -------------------------------------------

    def derive(self, x: int) -> tuple[int, ...]:
        """Derived key of ``x`` as a tuple of c + d characters."""
        spec = self.spec
        x = check_key(spec, x)
        cb, cmask = spec.char_bits, (1 << spec.char_bits) - 1
        chars = [(x >> (i * cb)) & cmask for i in range(spec.c)]
        if spec.variant in (Variant.TORNADO, Variant.TORNADO_MIX):
            t0 = self.level_tables[0]
            acc = 0
            for j in range(spec.c - 1):
                acc ^= t0.item(j, chars[j])
            chars[spec.c - 1] ^= acc
        for level in range(1, spec.d + 1):
            tbl = self.level_tables[level]
            val = 0
            for j in range(spec.level_input_positions(level)):
                val ^= tbl.item(j, chars[j])
            chars.append(val)
        return tuple(chars)

    def eval(self, x: int) -> int:
        chars = self.derive(x)
        h = 0
        for i, ch in enumerate(chars):
            h ^= self.top_table[i].item(ch)
        return h

    def select_bits(self, x: int, s: int) -> int:
        """High ``s`` output bits (the selection bits)."""
        if (s := check_count("s", s, 0)) > self.spec.out_bits:
            raise ConfigError(f"s must be in 0..{self.spec.out_bits}")
        return self.eval(x) >> (self.spec.out_bits - s)

    def free_bits(self, x: int, t: int) -> int:
        """Low ``t`` output bits (the free bits)."""
        if (t := check_count("t", t, 0)) > self.spec.out_bits:
            raise ConfigError(f"t must be in 0..{self.spec.out_bits}")
        return self.eval(x) & ((1 << t) - 1)

    # -- batch paths: the lane walk with B = 1 --------------------------------

    def _walk(self, xs, keep_chars: bool) -> tuple[np.ndarray | None, np.ndarray]:
        """:func:`eval_folded_stack` over the hash's lanes, packed from its own
        tables on first use (a lane of one entry keeps that table, not a copy)."""
        spec = self.spec
        xs = check_keys(spec, xs)
        if self._packed is None:
            self._packed = _pack(spec, _lanes(spec), self._entry)
        return eval_folded_stack(spec, self._packed, xs, keep_chars)

    def _entry(self, level: int | None, p: int, s: None) -> np.ndarray:
        """:func:`_pack`'s reader: a level's (1, alphabet_p) entries at p, the top's for None."""
        return (self.top_table[p] if level is None else self.level_tables[level][p])[None]

    def derive_batch(self, xs: np.ndarray) -> np.ndarray:
        """Derived keys of a key array, an intp ``(len(xs), c + d)`` view."""
        return self._walk(xs, True)[0][0]

    def eval_batch(self, xs: np.ndarray) -> np.ndarray:
        """Hashes of a key array, uint64."""
        return self._walk(xs, False)[1][0]

    # -- folded fast path ----------------------------------------------------

    @property
    def folded(self) -> "FoldedTables":
        if self._folded is None:
            self._folded = fold_tables(self)
        return self._folded

    def eval_folded(self, x: int) -> int:
        """Shift/xor evaluation over the folded tables; equals ``eval(x)``."""
        spec = self.spec
        x = check_key(spec, x)
        f = self._folded or self.folded  # the property call only until folded
        acc = 0
        for tab in f.tables[:spec.c - 1]:
            acc ^= tab[x & 255]
            x >>= 8
        acc ^= x  # the remaining bits are the last input character, at level 0's offset 0
        for tab, off, mask in f.steps:
            acc ^= tab[(acc >> off) & mask]
        return acc >> f.top_off


@dataclass
class FoldedTables:
    """Packed single-pass tables of the w64 and w128mix profiles, one per
    position, packed by :func:`_pack` as one :func:`_lanes` lane of no width limit.
    ``steps`` holds (table, offset, mask) for each position from c - 1 on,
    whose character is ``(acc >> offset) & mask``."""

    tables: list[list[int]]
    steps: list[tuple[list[int], int, int]]
    top_off: int


def _read_slots(spec: TornadoSpec, p: int, xs: np.ndarray) -> np.ndarray | None:
    """The slots of position ``p`` that :func:`fold_stacks` packs: the
    characters shared (n,) keys hold at an untwisted input position, else
    None, every slot."""
    if xs.ndim != 1 or p >= spec.c - 1:
        return None
    chars = ((xs >> _U(p * spec.char_bits)) & _U(spec.sigma - 1)).astype(np.intp)
    return np.flatnonzero(np.bincount(chars, minlength=spec.sigma))


def fold_stacks(spec: TornadoSpec, seeds: np.ndarray, xs: np.ndarray,
                top: bool = True) -> list[Lane]:
    """The :func:`_lanes` of B trials for the keys ``xs``, their entries
    hashed from their addresses under the (B,) trial seeds; with no top
    entry unless ``top``, for a walk that only derives.

    Slot rule: with shared (n,) keys ``xs``, an untwisted input position
    (0..c-2) packs only the characters the keys hold there, and its other
    slots are 0; every other position, and every position for per-trial
    (B, n) keys, packs every slot. An entry no key reads cannot change a
    hash, so the lanes evaluate the keys of ``xs`` as full lanes do, and they
    are a function of the seeds and the keys only.
    """
    xs = np.asarray(xs, dtype=np.uint64)

    def entry(level: int | None, p: int, s: np.ndarray | None) -> np.ndarray:
        slots = np.arange(1 << spec.position_bits(p)) if s is None else s
        return _hashed(spec, seeds, level, p, slots)

    return _pack(spec, _lanes(spec, top=top), entry,
                 [_read_slots(spec, p, xs) for p in range(spec.positions)])


def fold_tables(h: TornadoHash) -> FoldedTables:
    """Pack the logical tables of ``h`` into its profile's folded layout.

    :func:`_pack` packs both profiles from the hash's own entries as one
    lane of :func:`_lanes` with no width limit: the levels in order, the top
    entry at ``top_off`` above them. A spec folds if its top entry fits the
    word: ``top_off + out_bits`` at most 64 for plain tornado (w64), at most
    128 for tornado-mix with psi = 16 (w128mix), both with 8-bit characters.
    The entries are Python ints, as w128mix entries do not fit 64 bits.
    """
    spec = h.spec
    (lane,) = _lanes(spec, None)
    offs = dict(lane)
    top_off = offs.pop(None)
    word = 64 if spec.variant is Variant.TORNADO else 128 if spec.psi_bits == 16 else 0
    if spec.char_bits != 8 or top_off + spec.out_bits > word:
        raise ConfigError(f"no folded layout for {spec.spec_string()}")
    (packed,) = _pack(spec, [lane], h._entry)
    tables = [w[0].tolist() for w in packed.words]
    steps = [(tables[p], offs[p - spec.c + 1], (1 << spec.position_bits(p)) - 1)
             for p in range(spec.c - 1, spec.positions)]
    return FoldedTables(tables, steps, top_off)


class Hashed(NamedTuple):
    """Entries hashed from their addresses under the (B,) trial seeds at the
    characters the walk reads, the top entry only if ``top``."""

    seeds: np.ndarray
    top: bool = True


def eval_folded_stack(spec: TornadoSpec, source: list[Lane] | Hashed, xs: np.ndarray,
                      keep_chars: bool = True) -> tuple[np.ndarray | None, np.ndarray | None]:
    """The lane walk over B trials: (derived keys, (B, n) hashes). xs is (n,)
    shared or (B, n) per trial. The entries come from packed lanes
    (:func:`fold_stacks`, or a hash's own tables) or from :class:`Hashed`
    trial seeds. With no top entry the hashes are None.

    The derived keys are a (B, n, c + d) intp view of position-major storage,
    or None unless ``keep_chars``. Position p, in order, is made final: a key
    character, or ``(acc >> off) & mask`` of its level's lane accumulator
    (level 0's lane starts at the last input character, so at c - 1 that is
    the twisted character). Then each lane that reads p XORs its entries at
    p into its accumulator: one gather of a packed lane's words (over a
    psi-wide alphabet at a tornado-mix position only the top entry reads).
    The hash is the top entry's bits. A hashed source makes each level its
    own lane at offset 0, hashes the entries of the levels that read p in
    one call at the block's characters, and the block's top entries at
    every position in one call after the last, XORed and masked once.

    The walk runs over blocks of about FOLD_BLOCK keys (HASH_BLOCK hashed):
    whole trial rows when n is smaller, else part of one row, so a block is
    a contiguous run of the flat (trial, key) order and every step works on
    flat 1-D buffers. A block gathers with one flat take at ch + alphabet *
    (its trial row); one trial row needs no offset. Every buffer, the
    outputs included, starts at a fixed offset modulo PAGE from the keys
    (``STAGGER``).
    """
    xs = np.asarray(xs, dtype=np.uint64)
    hashed = isinstance(source, Hashed)
    if hashed:  # each level its own lane at offset 0, but none that reads no position
        lanes = [lane for lane in _lanes(spec, 1, False) if _reads(spec, lane[0][0])]
        n_trials, block, dtypes = len(source.seeds), HASH_BLOCK, [np.dtype(_U)] * len(lanes)
    else:
        lanes = [lane.entries for lane in source]
        n_trials, block = len(source[0].words[0]), FOLD_BLOCK
        dtypes = [lane.words[0].dtype for lane in source]
    n = xs.shape[-1]
    where = {level: (i, off) for i, lane in enumerate(lanes) for level, off in lane}
    top = where.get(None)
    cols = max(1, min(n, block))
    rows = max(1, min(n_trials, block // cols))
    offsets = itertools.count((xs.ctypes.data & -16) + STAGGER, STAGGER)  # see STAGGER

    def place(size, dtype):
        return _placed(size, dtype, next(offsets))

    evals = place(n_trials * n, np.uint64) if top or hashed and source.top else None
    # kept characters are stored for the whole chunk; hashed top entries read
    # every position's characters of a block at once, so a hashed walk that
    # keeps none stores one block's
    width = n_trials * n if keep_chars else rows * cols
    store = (place(spec.positions * width, np.intp).reshape(spec.positions, width)
             if keep_chars or hashed else None)
    alphas = [1 << spec.position_bits(p) for p in range(spec.positions)]
    bases = {}
    if rows > 1 and not hashed:
        for a in sorted(set(alphas)):
            bases[a] = place(rows * cols, np.intp)
            bases[a][:] = np.repeat(np.arange(rows, dtype=np.intp) * a, cols)
    key_buf, idx_buf = place(rows * cols, np.uint64), place(rows * cols, np.intp)
    acc_bufs = [place(rows * cols, dt) for dt in dtypes]
    col_bufs = {dt: place(rows * cols, dt) for dt in dict.fromkeys(dtypes)}
    twist = 0 in where  # level 0 is the first entry of lane 0, at offset 0
    reads = [max(_reads(spec, level) for level, _ in lane) for lane in lanes]
    all_positions = np.arange(spec.positions, dtype=_U)[:, None, None]
    # per position: (lane and offset of its character's bits, None for a key
    # character; the character mask; the lanes that read it and, for a hashed
    # source, their (L, 1, 1) levels)
    steps = []
    for p in range(spec.positions):
        readers = [i for i in range(len(lanes)) if p < reads[i]]
        levels = [lanes[i][0][0] for i in readers] if hashed else []
        steps.append((where.get(p - spec.c + 1), alphas[p] - 1, readers,
                      np.array(levels, dtype=_U)[:, None, None]))
    for r0 in range(0, n_trials, rows):
        r1 = min(r0 + rows, n_trials)
        if hashed:
            seeds = source.seeds[r0:r1, None]
        else:
            tabs = [[w[r0:r1].reshape(-1) for w in lane.words] for lane in source]
        for c0 in range(0, n, cols):
            c1 = min(c0 + cols, n)
            lo = r0 * n + c0
            m = (r1 - r0) * (c1 - c0)
            at = lo if keep_chars else 0  # the block's first column in store
            key, idx = key_buf[:m], idx_buf[:m]
            acc = [a[:m] for a in acc_bufs]
            if top and not hashed and dtypes[top[0]] == np.uint64:  # accumulate in place
                acc[top[0]] = evals[lo:lo + m]
            key.reshape(r1 - r0, c1 - c0)[...] = xs[r0:r1, c0:c1] if xs.ndim == 2 else xs[c0:c1]
            if twist:
                np.right_shift(key, _U(spec.char_bits * (spec.c - 1)), out=acc[0])
            for p, (bits, mask, readers, levels) in enumerate(steps):
                ch = idx if store is None else store[p, at:at + m]
                word, off = (key, spec.char_bits * p) if bits is None else (acc[bits[0]], bits[1])
                out = ch.view(np.uint64)
                np.bitwise_and(np.right_shift(word, off, out=out) if off else word, mask, out=out)
                if hashed and readers:  # one call, its kind a scalar that wrappers may test
                    vals = rng.field_value_vec(seeds, rng.KIND_LEVEL, levels, p,
                                               ch.reshape(r1 - r0, c1 - c0)).reshape(-1, m)
                elif bases:
                    ch = np.add(ch, bases[alphas[p]][:m], out=idx)
                for k, i in enumerate(readers):
                    first = not p and not (twist and i == 0)
                    # characters are below their alphabet, so "wrap" reads the same
                    # entries as the default "raise", which would copy for out=
                    e = vals[k] if hashed else np.take(tabs[i][p], ch, mode="wrap", out=(
                        acc[i] if first else col_bufs[dtypes[i]][:m]))
                    if first:
                        acc[i] = e
                    else:
                        acc[i] ^= e
            if hashed and evals is not None:  # every top entry of the block in one call
                block_chars = store[:, at:at + m].reshape(-1, r1 - r0, c1 - c0)
                vals = rng.field_value_vec(seeds, rng.KIND_TOP, 0, all_positions, block_chars)
                np.bitwise_xor.reduce(vals.reshape(-1, m), axis=0, out=evals[lo:lo + m])
                evals[lo:lo + m] &= _U((1 << spec.out_bits) - 1)
            elif top and (top[1] or dtypes[top[0]] != np.uint64):
                np.right_shift(acc[top[0]], top[1], out=evals[lo:lo + m])
    chars = None if not keep_chars else (
        store.reshape(spec.positions, n_trials, n).transpose(1, 2, 0))
    return chars, None if evals is None else evals.reshape(n_trials, n)


# perfbench's name for the batch walk, which it times as its own row
eval_folded_batch = TornadoHash.eval_batch


def derived_injectivity_check(h: TornadoHash, keys) -> bool:
    """True iff the derived keys of the given keys are distinct; ValueError if a key repeats."""
    keys = check_keys(h.spec, keys)
    if len(np.unique(keys)) != len(keys):
        raise ValueError("derived_injectivity_check needs distinct keys")
    chars = h.derive_batch(keys)
    return len(np.unique(chars, axis=0)) == len(keys)


def dump_tables(h: TornadoHash) -> str:
    """Bit-exact text dump of all logical table entries in canonical order.

    Format: header ``tornado-tables v1 <spec-string> seed=<hex>``, then one
    lowercase-hex word per entry (zero-padded to the entry's bit width),
    levels ascending / positions ascending / slots ascending, then the top
    table positions ascending / slots ascending.
    """
    spec = h.spec
    lines = [f"tornado-tables v1 {spec.spec_string()} seed={h.seed:#x}"]
    for level in spec.levels():
        width = (spec.level_output_bits(level) + 3) // 4
        tbl = h.level_tables[level]
        for j in range(spec.level_input_positions(level)):
            lines.extend(f"{int(v):0{width}x}" for v in tbl[j])
    width = (spec.out_bits + 3) // 4
    for i in range(spec.positions):
        lines.extend(f"{int(v):0{width}x}" for v in h.top_table[i])
    return "\n".join(lines) + "\n"
