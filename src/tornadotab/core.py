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

One batched engine builds, derives and evaluates: :func:`level_stacks` and
:func:`top_stacks` fill the tables of B hash functions at once, the level
tables position-major, :func:`derive_stack` computes derived characters,
and :func:`eval_stack` the top tabulation; each table entry is hashed from
its address by one reader, ``_hashed``. Filled level stacks are packed into
64-bit lanes, the levels in order at fixed bit offsets, so a key reads each
position once per lane with one gather; level entries hashed from their
addresses are still read once per (level, position). A folded table packs
the same levels at the same offsets, all in one word, with the top entry
above them (:func:`_fold_layout`), so a key costs c + d lookups: the w64
profile in 64 bits, w128mix in 128. :func:`fold_stacks` packs w64 words
hashed from the trial seeds (only at the slots shared keys read at the
untwisted input positions), and the folded loop :func:`eval_folded_stack`
derives and evaluates with c + d gathers per key.
A :class:`TornadoHash` is a stack of one: ``build`` fills the stacks for its
seed, ``derive_batch``/``eval_batch`` run the engine with B = 1, and
``eval_folded_batch`` runs the folded loop with B = 1, while
:mod:`tornadotab.experiments` runs both on chunks of trials. The scalar
``derive``/``eval`` and ``eval_folded`` are independent transcriptions that
the tests hold against the engine.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class TornadoSpec:
    """Full parameterization of one hash family."""

    char_bits: int
    c: int
    d: int
    out_bits: int
    variant: Variant
    psi_bits: int | None = None
    # 2**key_bits, stored because the scalar eval paths check every key
    # against it
    key_limit: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 1 <= self.char_bits <= 16:
            raise ConfigError(f"char_bits must be in 1..16, got {self.char_bits}")
        if self.c < 1:
            raise ConfigError(f"c must be >= 1, got {self.c}")
        if self.d < 0:
            raise ConfigError(f"d must be >= 0, got {self.d}")
        if self.char_bits * self.c > 64:
            raise ConfigError("key does not fit a 64-bit word")
        if not 1 <= self.out_bits <= 64:
            raise ConfigError(f"out_bits must be in 1..64, got {self.out_bits}")
        if self.variant is Variant.TORNADO_MIX:
            if self.d < 2:
                raise ConfigError("tornado-mix needs d >= 2")
            if self.psi_bits is None or self.psi_bits < self.char_bits:
                raise ConfigError("tornado-mix needs psi_bits >= char_bits")
            if self.psi_bits > 20:
                raise ConfigError("psi_bits > 20 not supported (table memory)")
        else:
            if self.psi_bits is not None:
                raise ConfigError("psi_bits only applies to tornado-mix")
            if self.variant is Variant.SIMPLE_TABULATION and self.d != 0:
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
        if level == 0:
            return self.c - 1
        if self.variant is Variant.TORNADO_MIX and level >= self.d - 1:
            return self.c + self.d - 2
        return self.c + level - 1

    def level_output_bits(self, level: int) -> int:
        if self.variant is Variant.TORNADO_MIX and level >= self.d - 1:
            return self.psi_bits  # type: ignore[return-value]
        return self.char_bits

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


def _is_int(x) -> bool:
    """Whether ``x`` is an integer key: a Python or NumPy integer, not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


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
    """ConfigError unless ``seed`` is an integer in [0, 2**64), so no two seeds alias."""
    if not isinstance(seed, (int, np.integer)):
        raise ConfigError(f"seed {seed!r} is not an integer")
    if not 0 <= seed < 1 << 64:
        raise ConfigError(f"seed {seed} is outside [0, 2^64)")


def check_keys(spec: TornadoSpec, xs) -> np.ndarray:
    """Array form of :func:`check_key`: the keys as uint64, checked with one
    max pass (and one min pass for a signed or object dtype).

    NumPy infers float64 for a list of ints on both sides of 2**63, so such
    a list is read again as objects; an object array must hold integers."""
    arr = np.asarray(xs)
    if arr.dtype.kind == "f" and not isinstance(xs, np.ndarray):
        arr = np.array(xs, dtype=object)
    if arr.size:
        if arr.dtype.kind not in "uiO" or (arr.dtype.kind == "O"
                                           and not all(map(_is_int, arr.flat))):
            raise ConfigError(f"keys must be integers, got dtype {np.asarray(xs).dtype}")
        lo = 0 if arr.dtype.kind == "u" else int(arr.min())
        hi = int(arr.max())
        if lo < 0 or hi >= spec.key_limit:
            raise _outside_universe(spec, lo if lo < 0 else hi)
    return arr.astype(np.uint64, copy=False)


# -- the batched engine -------------------------------------------------------
#
# Every table is a contiguous stack over B hash functions (trials), so a
# TornadoHash is a stack of one and the Monte Carlo experiments evaluate B
# functions with the same code. A level stack is position-major, (npos, B,
# sigma), and a top table is (B, alphabet_i). Either way the entries one
# position reads form one flat row of B blocks, and trial ``b`` reads
# character ``ch`` at flat offset ``b * alphabet + ch``. So one gather index
# per position, ``chars + b * alphabet`` (the characters themselves when
# B = 1), serves every table that reads the position, and one ``np.take``
# into a preallocated buffer reads a whole (B, n) block. Derived characters
# are ``intp``, stored position by position, so each position is a
# contiguous block of indices that needs no cast. Every character is below
# its alphabet, so ``mode="wrap"`` reads the same entries as the default
# "raise", which would copy through a temporary for ``out=``.
#
# Every level that reads a position reads it at the same index, so filled
# level stacks are packed into lanes (``_lanes``): the levels in order, each
# at a fixed bit offset of a 64-bit word, a new lane starting before a level
# would cross bit 64. One gather of a lane's word at a position then reads
# the entries of all its levels there, and a derived character is its
# level's bits of the lane's accumulator. The w64 spec then makes 7 gathers
# per key for its 25 level-entry reads, and the mix spec 11 for 56.
# Chunks whose level entries are hashed from their addresses still read one
# address per (level, position): packing them would add a mask and a shift
# per read.

EVAL_BLOCK = 1 << 15  # keys per engine call in eval_batch; bounds the intp characters
FOLD_BLOCK = 1 << 14  # keys per pass of eval_folded_batch; its four buffers stay in L2


def _hashed(spec: TornadoSpec, seeds: np.ndarray, level: int | None, reads) -> np.ndarray:
    """XOR of the level's entries (the top table's for ``level=None``) that
    each ``(position, slots)`` pair of ``reads`` addresses, hashed from the
    (B,) seeds and masked once to the table's entry width. The result
    broadcasts (B, 1) against each pair's position and slots."""
    kind, major, bits = ((rng.KIND_TOP, 0, spec.out_bits) if level is None else
                         (rng.KIND_LEVEL, level, spec.level_output_bits(level)))
    out = None
    for pos, slots in reads:
        vals = rng.field_value_vec(seeds[:, None], kind, major, pos, slots)
        out = vals if out is None else np.bitwise_xor(out, vals, out=out)
    out &= _U((1 << bits) - 1)
    return out


def level_stacks(spec: TornadoSpec, seeds: np.ndarray) -> dict[int, np.ndarray]:
    """Level tables for many seeds at once: level -> (npos, B, sigma) uint32,
    position-major, so a level table of trial b is ``stack[:, b]``."""
    out: dict[int, np.ndarray] = {}
    for level in spec.levels():
        pos = np.arange(spec.level_input_positions(level), dtype=np.uint64)[:, None, None]
        out[level] = _hashed(spec, seeds, level, [(pos, np.arange(spec.sigma))]).astype(np.uint32)
    return out


def top_stacks(spec: TornadoSpec, seeds: np.ndarray) -> list[np.ndarray]:
    """Top tables for many seeds at once, one (B, alphabet_i) uint64 per position."""
    return [_hashed(spec, seeds, None, [(i, np.arange(1 << spec.position_bits(i)))])
            for i in range(spec.positions)]


def trial_base(n_trials: int, stride: int) -> np.ndarray:
    """(B, 1) flat offset of each trial's block in a table of row size stride."""
    return np.arange(n_trials, dtype=np.intp)[:, None] * stride


def _lanes(spec: TornadoSpec) -> list[list[tuple[int, int]]]:
    """The engine's lanes of packed level entries: the levels in order, each
    as (level, bit offset) at the offset the levels before it in its lane
    leave; a new lane starts before a level would cross bit 64."""
    lanes: list[list[tuple[int, int]]] = []
    off = 64
    for level in spec.levels():
        if off + spec.level_output_bits(level) > 64:
            lanes.append([])
            off = 0
        lanes[-1].append((level, off))
        off += spec.level_output_bits(level)
    return lanes


def _lane_words(spec: TornadoSpec, levels: dict[int, np.ndarray], lane: list[tuple[int, int]],
                row: int) -> np.ndarray:
    """A lane's packed words, (positions read, row): at each position and
    flat (trial, slot) offset, every level of the lane that reads the
    position has its entry at its offset, and the other levels hold 0.

    The words are uint32 when the lane fits 32 bits, so a lane of one level
    gathers from that level's uint32 stack itself, not from a copy."""
    last, top = lane[-1]
    dtype = np.uint32 if top + spec.level_output_bits(last) <= 32 else np.uint64
    words = None
    # the last level reads the most positions, so its entries start the words;
    # at offset 0 it is the lane's only level, so the stack is never written
    for level, off in reversed(lane):
        rows = levels[level].reshape(spec.level_input_positions(level), row)
        if words is not None:
            words[:len(rows)] |= np.left_shift(rows, dtype(off), dtype=dtype)
        elif off:
            words = np.left_shift(rows, dtype(off), dtype=dtype)
        else:
            words = rows.astype(dtype, copy=False)
    return words


def derive_stack(spec: TornadoSpec, levels: dict[int, np.ndarray] | np.ndarray, xs: np.ndarray,
                 n_trials: int) -> np.ndarray:
    """Derived keys for each trial, (B, n, c + d) intp; xs is (n,) shared or
    (B, n) per trial. ``levels`` is a :func:`level_stacks` result, whose
    entries are gathered, or the (B,) trial seeds, whose entries are hashed
    from their addresses as they are read: the same bits.

    The result is a view of position-major storage: each chars[:, :, i] is
    one contiguous (B, n) block. Hashed entries are read level by level, one
    address per (level, position) read. Filled stacks are first packed into
    the :func:`_lanes` words of :func:`_lane_words`, and the positions are
    walked in order. Position p is made final: a key character, the twist
    from level 0's bits, or a derived character ``(acc >> off) & mask`` from
    its level's lane accumulator. Then each lane with a level that reads p
    XORs one gather of its words at p into its accumulator, so a key costs
    one gather per (lane, position) read. With B > 1 the gather index
    ``ch + b * sigma`` of a position goes to a buffer that every lane reads.
    """
    xs = np.asarray(xs, dtype=np.uint64)
    shape = xs.shape if xs.ndim == 2 else (n_trials, len(xs))
    store = np.empty((spec.positions,) + shape, dtype=np.intp)
    cmask = _U(spec.sigma - 1)
    for i in range(spec.c):
        store[i] = (xs >> _U(i * spec.char_bits)) & cmask
    twist = spec.variant in (Variant.TORNADO, Variant.TORNADO_MIX) and spec.c > 1
    if not isinstance(levels, dict):
        def lookup(level: int) -> np.ndarray:
            """XOR of the level's entries at every position it reads."""
            reads = ((j, store[j]) for j in range(spec.level_input_positions(level)))
            return _hashed(spec, levels, level, reads).view(np.intp)  # as chars

        if twist:
            store[spec.c - 1] ^= lookup(0)
        for level in range(1, spec.d + 1):
            store[spec.c + level - 1] = lookup(level)
        return store.transpose(1, 2, 0)

    lanes = _lanes(spec)
    where = {level: (i, off) for i, lane in enumerate(lanes) for level, off in lane}
    words = [_lane_words(spec, levels, lane, shape[0] * spec.sigma) for lane in lanes]
    acc = [np.empty(shape, dtype=w.dtype) for w in words]
    bufs = {w.dtype: np.empty(shape, dtype=w.dtype) for w in words}
    base = trial_base(shape[0], spec.sigma)
    idx = np.empty(shape, dtype=np.intp) if shape[0] > 1 else None
    n_read = max((len(w) for w in words), default=0)

    def bits(level: int, out: np.ndarray | None = None) -> np.ndarray:
        """The level's XOR of entries at every position it reads, from its lane."""
        i, off = where[level]
        word = np.right_shift(acc[i], off, out=out) if off else acc[i]
        return np.bitwise_and(word, (1 << spec.level_output_bits(level)) - 1, out=out)

    for p in range(spec.positions):
        chars = store[p].view(np.uint64)
        if p == spec.c - 1 and twist:
            chars ^= bits(0)
        elif p >= spec.c:
            bits(p - spec.c + 1, chars)
        if p >= n_read:
            continue
        ix = store[p] if idx is None else np.add(store[p], base, out=idx)
        for a, w in zip(acc, words):
            if p < len(w):  # a lane that reads at all reads position 0 first
                buf = bufs[w.dtype]
                np.take(w[p], ix, out=buf if p else a, mode="wrap")
                if p:
                    a ^= buf
    return store.transpose(1, 2, 0)


def eval_stack(spec: TornadoSpec, top: list[np.ndarray], chars: np.ndarray) -> np.ndarray:
    """Top-table hash of each derived key, (B, n) uint64.

    top[i] is a contiguous (B, alphabet_i) table, so position i reads it at
    the one gather index ``chars[:, :, i] + b * alphabet_i``; a tornado-mix
    tail position has a psi-wide alphabet.
    """
    n_trials = chars.shape[0]
    h = np.empty(chars.shape[:2], dtype=np.uint64)
    buf = np.empty_like(h)
    idx = np.empty(h.shape, dtype=np.intp) if n_trials > 1 else None
    for i, tbl in enumerate(top):
        ix = chars[:, :, i]
        if idx is not None:
            ix = np.add(ix, trial_base(n_trials, tbl.shape[1]), out=idx)
        np.take(tbl.reshape(-1), ix, out=buf if i else h, mode="wrap")
        if i:
            h ^= buf
    return h


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
    if a.size and (a.dtype.kind not in "uiO" or (a.dtype.kind != "u" and int(a.min()) < 0)
                   or int(a.max()) >> bits):
        raise ConfigError(f"{what} entries must be integers in [0, 2**{bits})")
    if a.dtype != dtype or a.flags.writeable or not a.flags.c_contiguous:
        a = _read_only(np.array(a, dtype=dtype))
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

    __slots__ = ("spec", "seed", "level_tables", "top_table", "_folded")

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
        if not 0 <= s <= self.spec.out_bits:
            raise ConfigError(f"s must be in 0..{self.spec.out_bits}")
        return self.eval(x) >> (self.spec.out_bits - s)

    def free_bits(self, x: int, t: int) -> int:
        """Low ``t`` output bits (the free bits)."""
        if not 0 <= t <= self.spec.out_bits:
            raise ConfigError(f"t must be in 0..{self.spec.out_bits}")
        return self.eval(x) & ((1 << t) - 1)

    # -- batch paths: the engine with B = 1 ------------------------------------

    def _stacks(self) -> tuple[dict[int, np.ndarray], list[np.ndarray]]:
        return ({lv: t[:, None] for lv, t in self.level_tables.items()},
                [t[None] for t in self.top_table])

    def derive_batch(self, xs: np.ndarray) -> np.ndarray:
        """Derived keys of a key array, an intp ``(len(xs), c + d)`` view."""
        xs = check_keys(self.spec, xs)
        return derive_stack(self.spec, self._stacks()[0], xs, 1)[0]

    def eval_batch(self, xs: np.ndarray) -> np.ndarray:
        """Hashes of a key array, uint64, computed EVAL_BLOCK keys at a time."""
        spec = self.spec
        xs = check_keys(spec, xs)
        levels, top = self._stacks()
        h = np.empty(len(xs), dtype=np.uint64)
        for lo in range(0, len(xs), EVAL_BLOCK):
            chars = derive_stack(spec, levels, xs[lo:lo + EVAL_BLOCK], 1)
            h[lo:lo + EVAL_BLOCK] = eval_stack(spec, top, chars)[0]
        return h

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
    position, packed by :func:`_fold_layout`. ``steps`` holds (table, offset,
    mask) for each position from c - 1 on, whose character is
    ``(acc >> offset) & mask``. The w64 tables are also kept as the
    (c + d, 256) uint64 ``tables_np``."""

    tables: list[list[int]]
    steps: list[tuple[list[int], int, int]]
    top_off: int
    tables_np: np.ndarray | None = None


def is_w64(spec: TornadoSpec) -> bool:
    """Whether a spec has the w64 folded profile: plain tornado with 8-bit
    characters whose level entries and output fit one 64-bit word."""
    return (spec.variant is Variant.TORNADO and spec.char_bits == 8
            and _fold_layout(spec)[1] + spec.out_bits <= 64)


def _fold_layout(spec: TornadoSpec) -> tuple[dict[int, int], int]:
    """Bit offset of each level in a folded word, and ``top_off``, that of
    the top entry: the levels in order, as in :func:`_lanes` but in one
    word, and the top entry above them all. The entry of position p holds
    the entries of the levels that read p, 0 for the others."""
    offs, off = {}, 0
    for level in spec.levels():
        offs[level] = off
        off += spec.level_output_bits(level)
    return offs, off


def _read_slots(spec: TornadoSpec, p: int, xs: np.ndarray) -> np.ndarray:
    """The slots of position ``p`` that :func:`fold_stacks` packs: the
    characters shared (n,) keys hold at an untwisted input position, else all."""
    if xs.ndim != 1 or p >= spec.c - 1:
        return np.arange(spec.sigma)
    chars = ((xs >> _U(p * spec.char_bits)) & _U(spec.sigma - 1)).astype(np.intp)
    return np.flatnonzero(np.bincount(chars, minlength=spec.sigma))


def fold_stacks(spec: TornadoSpec, seeds: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Folded tables of B trials (w64 profile) for the keys ``xs``, a
    contiguous (c + d, B, 256) uint64 stack whose entries are hashed from
    their addresses under the (B,) trial seeds.

    The stack is built one position at a time: at each slot of position p,
    the top entry and the entry of each level that reads p are shifted to
    their :func:`_fold_layout` offsets and XORed. Slot rule: with shared
    (n,) keys ``xs``, an untwisted input position (0..c-2) packs only the
    characters the keys hold there, and its other slots are 0; every other
    position, and every position for per-trial (B, n) keys, packs all 256
    slots. An entry no key reads cannot change a hash, so the stack
    evaluates the keys of ``xs`` as the full stack does, and it is a
    function of the seeds and the keys only.
    """
    xs = np.asarray(xs, dtype=np.uint64)
    folded = np.empty((spec.positions, len(seeds), spec.sigma), dtype=np.uint64)
    offs, top_off = _fold_layout(spec)
    for p, col in enumerate(folded):
        slots = _read_slots(spec, p, xs)
        part = len(slots) < spec.sigma
        acc = np.empty((len(seeds), len(slots)), dtype=np.uint64) if part else col
        # the top entry comes first and starts the position
        np.left_shift(_hashed(spec, seeds, None, [(p, slots)]), _U(top_off), out=acc)
        for level, off in offs.items():
            if p < spec.level_input_positions(level):
                acc ^= _hashed(spec, seeds, level, [(p, slots)]) << _U(off)
        if part:
            col.fill(0)
            col[:, slots] = acc
    return folded


def fold_tables(h: TornadoHash) -> FoldedTables:
    """Pack the logical tables of ``h`` into its profile's folded layout.

    One loop packs both profiles from the hash's own entries, by
    :func:`_fold_layout`, so the folded evaluation is equal to the reference
    path by construction. A spec folds if its top entry fits the word:
    ``top_off + out_bits`` at most 64 for plain tornado (w64), at most 128
    for tornado-mix with psi = 16 (w128mix), both with 8-bit characters. The
    entries are Python ints, as w128mix entries do not fit 64 bits; the w64
    tables are also kept as one uint64 array.
    """
    spec = h.spec
    offs, top_off = _fold_layout(spec)
    word = 64 if spec.variant is Variant.TORNADO else 128 if spec.psi_bits == 16 else 0
    if spec.char_bits != 8 or top_off + spec.out_bits > word:
        raise ConfigError(f"no folded layout for {spec.spec_string()}")
    tables: list[list[int]] = []
    for p in range(spec.positions):
        col = [x << top_off for x in h.top_table[p].tolist()]
        for level, off in offs.items():
            if p < spec.level_input_positions(level):
                col = [v ^ (x << off) for v, x in zip(col, h.level_tables[level][p].tolist())]
        tables.append(col)
    steps = [(tables[p], offs[p - spec.c + 1], (1 << spec.position_bits(p)) - 1)
             for p in range(spec.c - 1, spec.positions)]
    return FoldedTables(tables, steps, top_off,
                        _read_only(np.array(tables, dtype=np.uint64)) if word == 64 else None)


def eval_folded_stack(spec: TornadoSpec, folded: np.ndarray, xs: np.ndarray,
                      keep_chars: bool = True) -> tuple[np.ndarray | None, np.ndarray]:
    """The folded loop over B trials: (derived keys, (B, n) hashes). xs is (n,)
    shared or (B, n) per trial; ``folded`` is a :func:`fold_stacks` result.

    The derived keys are a (B, n, c + d) intp view of position-major storage,
    as :func:`derive_stack` returns them, or None unless ``keep_chars``. For
    i < c - 1 character i is the key byte; from c - 1 on it is
    ``(acc >> off) & 255`` at the :func:`_fold_layout` offset of its level,
    and the hashes are acc shifted down by top_off. The loop runs over
    blocks of about FOLD_BLOCK keys, so its buffers stay in L2: whole trial
    rows when n is smaller, else part of one row. Either way a block is a contiguous run of the flat
    (trial, key) order, and every step works on flat 1-D buffers. A block
    reads each position's table with one flat take at ch + 256 * (its trial
    row); a block of one trial row needs no offset.
    """
    n_trials, width = folded.shape[1:]
    xs = np.asarray(xs, dtype=np.uint64)
    n = xs.shape[-1]
    evals = np.empty(n_trials * n, dtype=np.uint64)
    store = np.empty((spec.positions, n_trials * n), dtype=np.intp) if keep_chars else None
    cols = max(1, min(n, FOLD_BLOCK))
    rows = max(1, min(n_trials, FOLD_BLOCK // cols))
    base = np.repeat(trial_base(rows, width), cols) if rows > 1 else None
    key_buf, col_buf = np.empty(rows * cols, dtype=np.uint64), np.empty(rows * cols, dtype=np.uint64)
    idx_buf = np.empty(rows * cols, dtype=np.intp)
    flat = folded.reshape(spec.positions, -1)
    offs, top_off = _fold_layout(spec)
    m8, c = _U(255), spec.c
    # bit of its word (the key before c - 1, acc from there) where position i's character sits
    shifts = [_U(8 * i) for i in range(c - 1)] + [_U(offs[lv]) for lv in spec.levels()]
    for r0 in range(0, n_trials, rows):
        r1 = min(r0 + rows, n_trials)
        tabs = list(flat[:, r0 * width:r1 * width])
        for c0 in range(0, n, cols):
            c1 = min(c0 + cols, n)
            lo = r0 * n + c0
            hi = lo + (r1 - r0) * (c1 - c0)
            acc, key = evals[lo:hi], key_buf[:hi - lo]
            idx, col = idx_buf[:hi - lo], col_buf[:hi - lo]
            key.reshape(r1 - r0, c1 - c0)[...] = xs[r0:r1, c0:c1] if xs.ndim == 2 else xs[c0:c1]
            np.right_shift(key, _U(8 * (c - 1)), out=acc)  # the last input character
            for i, tab in enumerate(tabs):
                ch = idx if store is None else store[i, lo:hi]
                word = np.right_shift(key if i < c - 1 else acc, shifts[i], out=ch.view(np.uint64))
                word &= m8
                if base is not None:
                    ch = np.add(ch, base[:hi - lo], out=idx)
                # characters are below 256, so "wrap" reads the same entries as
                # the default "raise", which would copy through a temporary for out=
                acc ^= np.take(tab, ch, out=col, mode="wrap")
            acc >>= _U(top_off)
    evals = evals.reshape(n_trials, n)
    if store is None:
        return None, evals
    return store.reshape(spec.positions, n_trials, n).transpose(1, 2, 0), evals


def eval_folded_batch(h: TornadoHash, xs: np.ndarray) -> np.ndarray:
    """Vectorized folded evaluation (w64 profile only): the folded loop with
    one trial."""
    f = h.folded
    if f.tables_np is None:
        raise ConfigError("batch folded evaluation only supports the w64 profile")
    xs = check_keys(h.spec, xs)
    return eval_folded_stack(h.spec, f.tables_np[:, None], xs, keep_chars=False)[1][0]


def derived_injectivity_check(h: TornadoHash, keys) -> bool:
    """True iff the derived keys of the given keys are distinct; ValueError if a key repeats."""
    keys = check_keys(h.spec, list(keys))
    if len(np.unique(keys)) != len(keys):
        raise ValueError("derived_injectivity_check needs distinct keys")
    if len(keys) <= 1:
        return True
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
