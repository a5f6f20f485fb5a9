import itertools

import numpy as np
import pytest

from tornadotab import experiments, rng, selectors
from tornadotab.core import (
    FOLD_BLOCK,
    HASH_BLOCK,
    PAGE,
    STAGGER,
    ConfigError,
    Hashed,
    TornadoHash,
    TornadoSpec,
    Variant,
    _lanes,
    _placed,
    derived_injectivity_check,
    dump_tables,
    eval_folded_batch,
    eval_folded_stack,
    fold_stacks,
    fold_tables,
    level_stacks,
    parse_spec_string,
    top_stacks,
)
from trial_reference import per_trial_reference

# chi2 inverse survival at significance 1e-6 with 255 degrees of freedom
CHI2_255_1E6 = 377.07811549898673

W64_SPECS = [
    TornadoSpec(8, 4, 4, 24, Variant.TORNADO),
    TornadoSpec(8, 4, 3, 32, Variant.TORNADO),
]
MIX_SPECS = [
    TornadoSpec(8, 8, 5, 64, Variant.TORNADO_MIX, psi_bits=16),
    TornadoSpec(8, 4, 3, 64, Variant.TORNADO_MIX, psi_bits=16),
    # d=2: both derived characters are wide, no 8-bit derived levels
    TornadoSpec(8, 2, 2, 32, Variant.TORNADO_MIX, psi_bits=16),
    TornadoSpec(8, 4, 2, 64, Variant.TORNADO_MIX, psi_bits=16),
]


def _assert_lanes_hold(spec: TornadoSpec, lanes, seeds: np.ndarray, read=lambda p: None):
    """Read back at its offset, every entry of every lane word is that
    trial's level or top entry where it reads the position, else 0, with
    Python ints: no code shared with the packing. Lanes hold the entries of
    ``_lanes(spec)``, and slots outside ``read(p)`` (a bool mask, None for
    every slot) are 0 in every word."""
    levels, top = level_stacks(spec, seeds), top_stacks(spec, seeds)
    assert [lane.entries for lane in lanes] == _lanes(spec)
    for lane in lanes:
        assert len(lane.words) == max(spec.positions if lv is None else
                                      spec.level_input_positions(lv) for lv, _ in lane.entries)
        for p, words in enumerate(lane.words):
            alpha = 1 << spec.position_bits(p)
            assert words.shape == (len(seeds), alpha)
            mask = read(p)
            mask = np.ones(alpha, dtype=bool) if mask is None else mask
            rows = words.tolist()
            assert not any(row[ch] for row in rows for ch in np.flatnonzero(~mask))
            for level, off in lane.entries:
                bits = spec.out_bits if level is None else spec.level_output_bits(level)
                if level is None:
                    want = top[p]
                elif p < spec.level_input_positions(level):
                    want = levels[level][p]
                else:
                    want = np.zeros_like(words)
                got = [[(v >> off) & ((1 << bits) - 1) for v in row] for row in rows]
                assert np.array_equal(np.array(got, dtype=np.uint64)[:, mask], want[:, mask]), (
                    p, level)


def _derive_reference(h: TornadoHash, x: int) -> tuple[int, ...]:
    """Second, independent transcription of the derivation recurrence."""
    spec = h.spec
    cb = spec.char_bits
    chars = [(x >> (cb * i)) & (2**cb - 1) for i in range(spec.c)]
    if spec.variant in (Variant.TORNADO, Variant.TORNADO_MIX):
        twist = 0
        for j in range(spec.c - 1):
            twist ^= int(h.level_tables[0][j][chars[j]])
        chars = chars[: spec.c - 1] + [chars[spec.c - 1] ^ twist]
    for level in range(1, spec.d + 1):
        if spec.variant is Variant.TORNADO_MIX and level >= spec.d - 1:
            prefix = chars[: spec.c + spec.d - 2]
        else:
            prefix = chars[: spec.c + level - 1]
        v = 0
        for j, ch in enumerate(prefix):
            v ^= int(h.level_tables[level][j][ch])
        chars = chars + [v]
    return tuple(chars)


class TestSpec:
    def test_valid(self):
        spec = TornadoSpec(8, 4, 4, 24, Variant.TORNADO)
        assert spec.sigma == 256
        assert spec.positions == 8
        assert spec.levels() == (0, 1, 2, 3, 4)

    def test_key_too_wide(self):
        with pytest.raises(ConfigError):
            TornadoSpec(16, 5, 0, 8, Variant.SIMPLE_TABULATION)

    def test_char_bits_range(self):
        with pytest.raises(ConfigError):
            TornadoSpec(0, 2, 0, 8, Variant.SIMPLE_TABULATION)
        with pytest.raises(ConfigError):
            TornadoSpec(17, 2, 0, 8, Variant.SIMPLE_TABULATION)

    def test_mix_needs_d2(self):
        with pytest.raises(ConfigError):
            TornadoSpec(8, 2, 1, 8, Variant.TORNADO_MIX, psi_bits=10)

    def test_mix_needs_psi(self):
        with pytest.raises(ConfigError):
            TornadoSpec(8, 2, 2, 8, Variant.TORNADO_MIX)
        with pytest.raises(ConfigError):
            TornadoSpec(8, 2, 2, 8, Variant.TORNADO_MIX, psi_bits=4)

    def test_simpletab_needs_d0(self):
        with pytest.raises(ConfigError):
            TornadoSpec(8, 2, 1, 8, Variant.SIMPLE_TABULATION)

    def test_out_bits_range(self):
        with pytest.raises(ConfigError):
            TornadoSpec(8, 2, 0, 0, Variant.SIMPLE_TABULATION)
        with pytest.raises(ConfigError):
            TornadoSpec(8, 2, 0, 65, Variant.SIMPLE_TABULATION)

    @pytest.mark.parametrize("args,message", [
        ((8, 0, 0, 8, Variant.SIMPLE_TABULATION), "c must be >= 1"),
        ((8, 2, -1, 8, Variant.SIMPLE_TORNADO), "d must be >= 0"),
        ((8, 2, 2, 8, Variant.TORNADO_MIX, 21), "psi_bits > 20 not supported"),
        ((8, 2, 2, 8, Variant.TORNADO, 10), "psi_bits only applies to tornado-mix"),
    ], ids=["c-zero", "d-negative", "psi-too-wide", "psi-not-mix"])
    def test_field_out_of_range(self, args, message):
        with pytest.raises(ConfigError, match=message):
            TornadoSpec(*args)

    def test_psi_only_for_mix(self):
        with pytest.raises(ConfigError, match="psi is only defined for tornado-mix"):
            TornadoSpec(8, 4, 4, 24, Variant.TORNADO).psi

    def test_mix_positions(self):
        spec = TornadoSpec(8, 2, 3, 16, Variant.TORNADO_MIX, psi_bits=12)
        assert [spec.position_bits(i) for i in range(5)] == [8, 8, 8, 12, 12]
        assert spec.level_input_positions(2) == spec.c + spec.d - 2
        assert spec.level_input_positions(3) == spec.c + spec.d - 2
        assert spec.level_output_bits(3) == 12

    def test_spec_string_roundtrip(self):
        for spec in (
            TornadoSpec(8, 4, 4, 24, Variant.TORNADO),
            TornadoSpec(4, 2, 0, 8, Variant.SIMPLE_TABULATION),
            TornadoSpec(8, 2, 3, 16, Variant.TORNADO_MIX, psi_bits=12),
            TornadoSpec(12, 3, 2, 50, Variant.SIMPLE_TORNADO),
        ):
            assert parse_spec_string(spec.spec_string()) == spec

    @pytest.mark.parametrize("field,value", [
        ("char_bits", True), ("char_bits", 8.0), ("c", 2.0), ("c", True), ("d", True),
        ("out_bits", 8.5), ("out_bits", "8"), ("psi_bits", 10.0), ("psi_bits", True)], ids=repr)
    def test_non_integer_field_rejected(self, field, value):
        """A bool would build a spec that prints ``cb=True``, and a float one
        that prints ``r=8.5`` or fails in a shift with a TypeError."""
        args = {"char_bits": 8, "c": 2, "d": 3, "out_bits": 8, "variant": Variant.TORNADO_MIX,
                "psi_bits": 10, field: value}
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            TornadoSpec(**args)

    def test_numpy_integer_fields_stored_as_int(self):
        spec = TornadoSpec(np.int64(8), np.uint8(2), np.int32(3), np.int64(8), Variant.TORNADO)
        assert all(type(v) is int for v in (spec.char_bits, spec.c, spec.d, spec.out_bits))
        assert spec == TornadoSpec(8, 2, 3, 8, Variant.TORNADO)
        assert spec.spec_string() == "tornado,cb=8,c=2,d=3,r=8"

    def test_parse_rejects_garbage(self):
        with pytest.raises(ConfigError):
            parse_spec_string("nonsense")
        with pytest.raises(ConfigError):
            parse_spec_string("tornado,cb=8")
        for text in ("tornado,cb=8,c=2,d=4,r=8,bogus=1", "tornado,cb=8,c=2,d=4,r=8,cb=4"):
            with pytest.raises(ConfigError, match="unknown or repeated field"):
                parse_spec_string(text)


class TestBuild:
    def test_deterministic(self):
        spec = TornadoSpec(8, 4, 4, 24, Variant.TORNADO)
        a = TornadoHash.build(spec, 0x42)
        b = TornadoHash.build(spec, 0x42)
        for lv in a.level_tables:
            assert np.array_equal(a.level_tables[lv], b.level_tables[lv])
        for i in range(spec.positions):
            assert np.array_equal(a.top_table[i], b.top_table[i])

    def test_distinct_seeds_differ(self):
        spec = TornadoSpec(8, 4, 4, 24, Variant.TORNADO)
        a = TornadoHash.build(spec, 0x42)
        b = TornadoHash.build(spec, 0x43)
        assert any(
            not np.array_equal(a.level_tables[lv], b.level_tables[lv])
            for lv in a.level_tables
        )

    def test_folded_table_count_c4_d4(self):
        # the folded layout uses one table per derived-key position
        spec = TornadoSpec(8, 4, 4, 24, Variant.TORNADO)
        folded = fold_tables(TornadoHash.build(spec, 0x42))
        assert len(folded.tables) == spec.c + spec.d == 8
        assert all(len(col) == 256 for col in folded.tables)

    def test_entry_widths(self):
        spec = TornadoSpec(8, 2, 3, 16, Variant.TORNADO_MIX, psi_bits=12)
        h = TornadoHash.build(spec, 1)
        for lv in spec.levels():
            assert int(h.level_tables[lv].max()) < (1 << spec.level_output_bits(lv))
        for i in range(spec.positions):
            assert int(h.top_table[i].max()) < (1 << spec.out_bits)
            assert len(h.top_table[i]) == 1 << spec.position_bits(i)

    @pytest.mark.parametrize("seed", [-1, 1 << 64, (1 << 65) - 1])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(ConfigError, match=r"outside \[0, 2\^64\)"):
            TornadoHash.build(TornadoSpec(8, 2, 1, 8, Variant.TORNADO), seed)

    def test_non_integer_seed_rejected(self):
        """A float seed would build the tables of its integer part."""
        with pytest.raises(ConfigError, match="seed 1.5 is not an integer"):
            TornadoHash.build(TornadoSpec(8, 2, 1, 8, Variant.TORNADO), 1.5)

    def test_seed_range_ends_accepted(self):
        spec = TornadoSpec(8, 2, 1, 8, Variant.TORNADO)
        assert [TornadoHash.build(spec, s).seed for s in (0, (1 << 64) - 1)] == [0, (1 << 64) - 1]

    def test_tables_immutable(self):
        h = TornadoHash.build(TornadoSpec(8, 2, 1, 8, Variant.TORNADO), 1)
        with pytest.raises(ValueError):
            h.level_tables[0][0, 0] = 1
        with pytest.raises(ValueError):
            h.top_table[0][0] = 1


class TestHandBuiltTables:
    """The constructor rejects tables that build could not have made; the
    engine's wrapped gathers would otherwise alias them silently."""

    SPEC = TornadoSpec(8, 2, 3, 16, Variant.TORNADO_MIX, psi_bits=12)  # levels 2, 3 are wide

    def tables(self):
        h = TornadoHash.build(self.SPEC, 0x7AB)
        return h, {lv: t.copy() for lv, t in h.level_tables.items()}, [t.copy() for t in h.top_table]

    def test_build_tables_accepted_without_copy(self):
        h, levels, top = self.tables()
        hh = TornadoHash(self.SPEC, h.seed, h.level_tables, h.top_table)
        assert all(hh.level_tables[lv] is t for lv, t in h.level_tables.items())
        assert all(a is b for a, b in zip(hh.top_table, h.top_table))
        keys = rng.raw_key_stream(4, 300, self.SPEC.key_bits)
        assert np.array_equal(TornadoHash(self.SPEC, h.seed, levels, top).eval_batch(keys),
                              h.eval_batch(keys))

    @pytest.mark.parametrize("cut", [(slice(None), slice(0, 128)), (slice(0, 1), slice(None))],
                             ids=["128-columns", "one-position-short"])
    def test_level_table_shape(self, cut):
        h, levels, top = self.tables()
        levels[1] = levels[1][cut]
        with pytest.raises(ConfigError, match="level 1 table has shape"):
            TornadoHash(self.SPEC, h.seed, levels, top)

    def test_level_set(self):
        h, levels, top = self.tables()
        del levels[3]
        with pytest.raises(ConfigError, match="do not match the levels"):
            TornadoHash(self.SPEC, h.seed, levels, top)
        with pytest.raises(ConfigError, match="do not match the levels"):
            TornadoHash(self.SPEC, h.seed, {**levels, 3: h.level_tables[3], 4: levels[1]}, top)

    @pytest.mark.parametrize("i,size", [(0, 128), (3, 256), (4, 1 << 13)])
    def test_top_table_length(self, i, size):
        h, levels, top = self.tables()
        top[i] = np.zeros(size, dtype=np.uint64)
        with pytest.raises(ConfigError, match=f"top table {i} has shape"):
            TornadoHash(self.SPEC, h.seed, levels, top)
        with pytest.raises(ConfigError, match="top tables for 5 positions"):
            TornadoHash(self.SPEC, h.seed, levels, top[:-1])

    @pytest.mark.parametrize("level,value,ok", [
        (0, 255, True), (0, 256, False), (1, 256, False),
        (2, (1 << 12) - 1, True), (2, 1 << 12, False), (3, (1 << 32) + 1, False), (3, -1, False),
    ])
    def test_level_entry_width(self, level, value, ok):
        h, levels, top = self.tables()
        levels[level] = levels[level].astype(np.int64)
        levels[level][0, 5] = value
        if ok:
            assert int(TornadoHash(self.SPEC, h.seed, levels, top).level_tables[level][0, 5]) == value
            return
        with pytest.raises(ConfigError, match=f"level {level} table entries must be integers"):
            TornadoHash(self.SPEC, h.seed, levels, top)

    @pytest.mark.parametrize("value,ok", [((1 << 16) - 1, True), (1 << 16, False),
                                          (1 << 63, False)])
    def test_top_entry_width(self, value, ok):
        h, levels, top = self.tables()
        top[4][7] = np.uint64(value)
        if ok:
            assert int(TornadoHash(self.SPEC, h.seed, levels, top).top_table[4][7]) == value
            return
        with pytest.raises(ConfigError, match="top table 4 entries must be integers"):
            TornadoHash(self.SPEC, h.seed, levels, top)

    def test_non_integer_tables(self):
        h, levels, top = self.tables()
        with pytest.raises(ConfigError, match="top table 0 entries must be integers"):
            TornadoHash(self.SPEC, h.seed, levels, [top[0].astype(float)] + top[1:])
        # an object array must hold integers: int() would truncate 1.5 to 1
        # and store True as 1
        for bad in (1.5, True):
            level = levels[1].astype(object)
            level[0, 1] = bad
            with pytest.raises(ConfigError, match="level 1 table entries must be integers"):
                TornadoHash(self.SPEC, h.seed, {**levels, 1: level}, top)
            tab = top[2].astype(object)
            tab[3] = bad
            with pytest.raises(ConfigError, match="top table 2 entries must be integers"):
                TornadoHash(self.SPEC, h.seed, levels, top[:2] + [tab] + top[3:])
        hh = TornadoHash(self.SPEC, h.seed, {**levels, 1: levels[1].astype(object)},
                         top[:2] + [top[2].astype(object)] + top[3:])
        assert hh.level_tables[1].dtype == np.uint32 and hh.top_table[2].dtype == np.uint64
        assert np.array_equal(hh.level_tables[1], levels[1])

    @pytest.mark.parametrize("seed", [-1, 1 << 64])
    def test_seed_outside_64_bits_rejected(self, seed):
        h, levels, top = self.tables()
        with pytest.raises(ConfigError, match=r"outside \[0, 2\^64\)"):
            TornadoHash(self.SPEC, seed, levels, top)

    def test_writable_tables_are_copied(self):
        """A later write to the caller's arrays does not reach the hash."""
        h, levels, top = self.tables()
        hh = TornadoHash(self.SPEC, h.seed, levels, top)
        keys = rng.raw_key_stream(6, 200, self.SPEC.key_bits)
        expected = hh.eval_batch(keys)
        levels[0][:] = 0
        top[0][:] = 1 << 20  # out of range for r=16
        assert np.array_equal(hh.eval_batch(keys), expected)
        assert not hh.level_tables[0].flags.writeable and not hh.top_table[0].flags.writeable


class TestDerive:
    @pytest.mark.parametrize(
        "spec",
        [
            TornadoSpec(2, 2, 1, 4, Variant.TORNADO),
            TornadoSpec(2, 2, 1, 4, Variant.SIMPLE_TORNADO),
            TornadoSpec(2, 3, 2, 4, Variant.TORNADO),
            TornadoSpec(2, 2, 2, 4, Variant.TORNADO_MIX, psi_bits=3),
            TornadoSpec(2, 2, 3, 4, Variant.TORNADO_MIX, psi_bits=2),
        ],
    )
    def test_matches_independent_transcription(self, spec):
        h = TornadoHash.build(spec, 0xBEEF)
        for x in range(1 << spec.key_bits):
            assert h.derive(x) == _derive_reference(h, x), x

    def test_simple_tabulation_identity(self):
        spec = TornadoSpec(4, 3, 0, 8, Variant.SIMPLE_TABULATION)
        h = TornadoHash.build(spec, 7)
        for x in (0, 1, 0xABC, 0xFFF):
            assert h.derive(x) == tuple((x >> (4 * i)) & 15 for i in range(3))

    def test_prefix_identity_all_variants(self):
        for variant, psi in (
            (Variant.TORNADO, None),
            (Variant.SIMPLE_TORNADO, None),
            (Variant.TORNADO_MIX, 10),
        ):
            spec = TornadoSpec(8, 3, 2, 8, variant, psi_bits=psi)
            h = TornadoHash.build(spec, 5)
            for x in (0, 1, 0xABCDEF, 0xFFFFFF):
                der = h.derive(x)
                for i in range(spec.c - 1):
                    assert der[i] == (x >> (8 * i)) & 255

    def test_tornado_c2_keeps_first_char(self):
        spec = TornadoSpec(8, 2, 1, 8, Variant.TORNADO)
        for seed in range(5):
            h = TornadoHash.build(spec, seed)
            for x in (0, 1, 0x1234, 0xFFFF):
                assert h.derive(x)[0] == x & 255

    def test_simple_tornado_keeps_all_input_chars(self):
        spec = TornadoSpec(8, 2, 2, 8, Variant.SIMPLE_TORNADO)
        h = TornadoHash.build(spec, 3)
        for x in (0, 0xABCD, 0xFFFF):
            der = h.derive(x)
            assert der[0] == x & 255 and der[1] == x >> 8

    def test_mix_tail_depends_only_on_prefix(self):
        # last two characters are a function of the first c+d-2 characters
        spec = TornadoSpec(4, 2, 3, 8, Variant.TORNADO_MIX, psi_bits=6)
        h = TornadoHash.build(spec, 11)
        seen: dict[tuple, tuple] = {}
        for x in range(1 << spec.key_bits):
            der = h.derive(x)
            prefix, tail = der[: spec.c + spec.d - 2], der[spec.c + spec.d - 2 :]
            assert seen.setdefault(prefix, tail) == tail

    def test_derive_batch_matches_scalar(self):
        for spec in (
            TornadoSpec(8, 2, 4, 8, Variant.TORNADO),
            TornadoSpec(8, 2, 3, 16, Variant.TORNADO_MIX, psi_bits=12),
            TornadoSpec(5, 3, 2, 10, Variant.SIMPLE_TORNADO),
        ):
            h = TornadoHash.build(spec, 0x77)
            xs = rng.raw_key_stream(1, 500, spec.key_bits)
            batch = h.derive_batch(xs)
            for i in range(0, 500, 37):
                assert tuple(int(v) for v in batch[i]) == h.derive(int(xs[i]))


class TestTwistBijectivity:
    @pytest.mark.parametrize("char_bits,c", [(8, 2), (4, 3), (2, 8), (4, 4)])
    def test_exhaustive(self, char_bits, c):
        spec = TornadoSpec(char_bits, c, 0, 8, Variant.TORNADO)
        h = TornadoHash.build(spec, 0x5A5A)
        keys = np.arange(1 << spec.key_bits, dtype=np.uint64)
        der = h.derive_batch(keys)
        packed = np.zeros(len(keys), dtype=np.uint64)
        for i in range(c):
            packed |= der[:, i].astype(np.uint64) << np.uint64(i * char_bits)
        assert len(np.unique(packed)) == len(keys)


class TestEval:
    def test_pure_function(self):
        spec = TornadoSpec(8, 2, 2, 16, Variant.TORNADO)
        h = TornadoHash.build(spec, 9)
        assert h.eval(0x1234) == h.eval(0x1234)
        h2 = TornadoHash.build(spec, 9)
        assert h.eval(0x1234) == h2.eval(0x1234)

    def test_equals_top_of_derived(self):
        spec = TornadoSpec(8, 2, 2, 16, Variant.TORNADO)
        h = TornadoHash.build(spec, 9)
        for x in (0, 0xFFFF, 0x1234):
            expect = 0
            for i, ch in enumerate(h.derive(x)):
                expect ^= int(h.top_table[i][ch])
            assert h.eval(x) == expect

    def test_single_lookup_c1(self):
        spec = TornadoSpec(8, 1, 0, 32, Variant.SIMPLE_TABULATION)
        h = TornadoHash.build(spec, 4)
        for a in range(256):
            assert h.eval(a) == int(h.top_table[0][a])

    def test_chi_square_full_universe(self):
        # 256 keys into 256 bins, exhaustive; fixed seeds, significance 1e-6.
        # Derived characters are required here: under plain simple tabulation
        # the full-universe bin counts are only 3-wise independent and this
        # degree-4 statistic has visibly inflated variance.
        spec = TornadoSpec(4, 2, 4, 8, Variant.TORNADO)
        keys = np.arange(256, dtype=np.uint64)
        for seed in range(100):
            h = TornadoHash.build(spec, seed)
            counts = np.bincount(h.eval_batch(keys).astype(np.int64), minlength=256)
            chi2 = float(((counts - 1.0) ** 2).sum())
            assert chi2 < CHI2_255_1E6, (seed, chi2)

    def test_eval_batch_matches_scalar(self):
        spec = TornadoSpec(8, 2, 3, 16, Variant.TORNADO_MIX, psi_bits=12)
        h = TornadoHash.build(spec, 0x31)
        xs = rng.raw_key_stream(2, 300, 16)
        batch = h.eval_batch(xs)
        for i in range(0, 300, 23):
            assert int(batch[i]) == h.eval(int(xs[i]))


class TestEngineLayout:
    """The position-major level stacks: trial b's tables are column b, and
    the engine gives each trial the bits a stack of one gives it."""

    SPECS = [
        TornadoSpec(4, 3, 0, 8, Variant.SIMPLE_TABULATION),
        TornadoSpec(4, 3, 2, 8, Variant.SIMPLE_TORNADO),
        TornadoSpec(8, 4, 4, 24, Variant.TORNADO),
        TornadoSpec(8, 1, 2, 24, Variant.TORNADO),  # c = 1: no twist
        TornadoSpec(4, 3, 3, 20, Variant.TORNADO_MIX, psi_bits=6),
        # several lanes of packed level entries
        TornadoSpec(12, 5, 5, 40, Variant.TORNADO),
        TornadoSpec(4, 2, 40, 16, Variant.SIMPLE_TORNADO),
        TornadoSpec(6, 4, 8, 48, Variant.TORNADO_MIX, psi_bits=12),
    ]

    # spec -> the engine's lanes, each a list of (level, bit offset), the top
    # entry as level None after the levels
    LANES = {
        # level 5 would straddle bit 64; the top entry shares its lane
        "tornado,cb=12,c=5,d=5,r=40": [[(0, 0), (1, 12), (2, 24), (3, 36), (4, 48)],
                                       [(5, 0), (None, 12)]],
        "simpletornado,cb=4,c=2,d=40,r=16": [
            [(lv, 4 * ((lv - 1) % 16)) for lv in range(lo, min(lo + 16, 41))]
            for lo in (1, 17, 33)],
        # the two parallel psi-wide levels land in different lanes
        "tornadomix,cb=6,c=4,d=8,r=48,psi=12": [[(lv, 6 * lv) for lv in range(8)],
                                                [(8, 0), (None, 12)]],
        # w64: one lane
        "tornado,cb=8,c=4,d=4,r=24": [[(lv, 8 * lv) for lv in range(5)] + [(None, 40)]],
        # the levels fill 64 bits, so the top entry has its own lane
        "tornadomix,cb=8,c=8,d=5,r=64,psi=16": [
            [(0, 0), (1, 8), (2, 16), (3, 24), (4, 32), (5, 48)], [(None, 0)]],
        "tornado,cb=8,c=4,d=4,r=32": [[(lv, 8 * lv) for lv in range(5)], [(None, 0)]],
        # the top entry shares the lane after a lane break
        "tornado,cb=16,c=2,d=4,r=16": [[(0, 0), (1, 16), (2, 32), (3, 48)], [(4, 0), (None, 16)]],
        "simpletab,cb=8,c=4,d=0,r=32": [[(None, 0)]],
    }
    LANES["simpletornado,cb=4,c=2,d=40,r=16"][-1].append((None, 32))

    @pytest.mark.parametrize("text", LANES)
    def test_lanes(self, text):
        """The lanes, with no top entry the same lanes without it, and with no
        width limit every entry in one lane at its cumulative offset, the
        scalar folded word."""
        spec = parse_spec_string(text)
        assert _lanes(spec) == self.LANES[text]
        no_top = [[e for e in lane if e[0] is not None] for lane in self.LANES[text]]
        assert _lanes(spec, top=False) == [lane for lane in no_top if lane]
        widths = [spec.level_output_bits(lv) for lv in spec.levels()] + [spec.out_bits]
        assert _lanes(spec, None) == [list(zip([*spec.levels(), None],
                                               np.cumsum([0] + widths[:-1]).tolist()))]

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.spec_string())
    def test_stack_column_is_the_built_table(self, spec):
        seeds = rng.trial_seed_vec(0x1A70, np.arange(3, dtype=np.uint64))
        stacks = level_stacks(spec, seeds)
        assert sorted(stacks) == list(spec.levels())
        for b, seed in enumerate(seeds.tolist()):
            h = TornadoHash.build(spec, seed)
            for lv, stack in stacks.items():
                assert stack.shape == (spec.level_input_positions(lv), len(seeds), spec.sigma)
                assert stack.flags.c_contiguous
                assert np.array_equal(stack[:, b], h.level_tables[lv])

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.spec_string())
    @pytest.mark.parametrize("shared", [True, False], ids=["shared-keys", "per-trial-keys"])
    def test_stack_of_b_equals_stacks_of_one(self, spec, shared):
        """The walk over entries hashed from B trial seeds against each
        trial's own hash, and each trial row against a stack of one."""
        n_trials, n = 4, 97
        seeds = rng.trial_seed_vec(0x1A71, np.arange(n_trials, dtype=np.uint64))
        xs = rng.raw_key_stream(5, n if shared else n_trials * n, spec.key_bits)
        xs = xs if shared else xs.reshape(n_trials, n)
        chars, evals = eval_folded_stack(spec, Hashed(seeds), xs)
        want_chars, want_evals = per_trial_reference(spec, seeds, xs)
        assert np.array_equal(chars, want_chars)
        assert np.array_equal(evals, want_evals)
        for b in range(n_trials):
            keys = xs if shared else xs[b]
            chars_b, evals_b = eval_folded_stack(spec, Hashed(seeds[b:b + 1]), keys)
            assert np.array_equal(chars_b[0], chars[b])
            assert np.array_equal(evals_b[0], evals[b])


class TestEvalBatchBlocks:
    """eval_batch at the edges of the lane walk's FOLD_BLOCK blocks, a short
    last block included: every key of the w64 spec against the walk over
    hashed entries (blocks of HASH_BLOCK keys) and a sample against scalar
    eval, and a sample of the mix spec and of a spec with no folded layout
    against scalar eval."""

    SIZES = [0, 1, FOLD_BLOCK - 1, FOLD_BLOCK, FOLD_BLOCK + 1, 2 * FOLD_BLOCK + 5]

    @staticmethod
    def sample(n):
        """First, last, both sides of each block edge, and a spread between."""
        edges = [e + d for e in range(FOLD_BLOCK, n, FOLD_BLOCK) for d in (-1, 0, 1)]
        return sorted({i for i in [0, n - 1, *edges, *range(0, n, 997)] if 0 <= i < n})

    @pytest.mark.parametrize("n", SIZES)
    def test_w64_every_key(self, n):
        spec = parse_spec_string("tornado,cb=8,c=4,d=4,r=24")
        h = TornadoHash.build(spec, 0xE1)
        keys = rng.raw_key_stream(11, n, 32)
        out = h.eval_batch(keys)
        assert out.shape == (n,) and out.dtype == np.uint64
        seeds = np.array([h.seed], dtype=np.uint64)
        chars, evals = eval_folded_stack(spec, Hashed(seeds), keys)
        assert np.array_equal(out, evals[0])
        assert np.array_equal(h.derive_batch(keys), chars[0])
        cols = self.sample(n)
        want_chars, want_evals = per_trial_reference(spec, seeds, keys[cols])
        assert np.array_equal(chars[:, cols], want_chars)
        assert np.array_equal(out[cols], want_evals[0])

    @pytest.mark.parametrize("text", ["tornadomix,cb=8,c=8,d=5,r=64,psi=16",
                                      "simpletornado,cb=16,c=2,d=3,r=20"])
    @pytest.mark.parametrize("n", SIZES)
    def test_sampled_against_scalar(self, text, n):
        h = TornadoHash.build(parse_spec_string(text), 0xE2)
        keys = rng.raw_key_stream(12, n, h.spec.key_bits)
        out = h.eval_batch(keys)
        assert out.shape == (n,) and out.dtype == np.uint64
        for i in self.sample(n):
            assert int(out[i]) == h.eval(int(keys[i])), i


class TestPlacement:
    """The lane walk's buffers start at fixed offsets modulo the page size,
    counted from the input keys, wherever the keys and the allocator put
    them; the output is the first of them."""

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.uint64, np.intp])
    @pytest.mark.parametrize("at", [0, 16, STAGGER, PAGE - 16, PAGE + 48])
    def test_placed_starts_at_offset(self, dtype, at):
        a = _placed(1000, dtype, at)
        assert a.shape == (1000,) and a.dtype == dtype and a.flags.writeable
        assert a.ctypes.data % PAGE == at % PAGE

    @pytest.mark.parametrize("shift", [0, 1, 2, 255, 511])
    def test_walk_output_follows_the_keys(self, shift):
        h = TornadoHash.build(parse_spec_string("tornado,cb=8,c=4,d=4,r=24"), 0xE3)
        keys = rng.raw_key_stream(13, 3000 + shift, 32)[shift:]  # starts 8 * shift bytes on
        out = h.eval_batch(keys)
        assert out.ctypes.data % PAGE == ((keys.ctypes.data & -16) + STAGGER) % PAGE
        assert [int(v) for v in out[::97]] == [h.eval(int(x)) for x in keys[::97]]


class TestHashedWalk:
    """The walk over entries hashed from the trial seeds against each trial's
    own hash: blocks of several trial rows, the last one partial, and blocks
    of one row's columns past HASH_BLOCK, for the w64 spec and a tornado-mix
    spec, whose psi-wide positions only the top entry reads; with and
    without the top entry and the derived keys; and a chunk with no entry to
    read."""

    @pytest.mark.parametrize("spec", [W64_SPECS[0], MIX_SPECS[1]], ids=lambda s: s.spec_string())
    @pytest.mark.parametrize("n_trials,n", [(9, 4097), (2, HASH_BLOCK + 3)],
                             ids=["partial-rows", "column-blocks"])
    @pytest.mark.parametrize("shared", [True, False], ids=["shared-keys", "per-trial-keys"])
    def test_blocks_against_reference(self, spec, n_trials, n, shared):
        seeds = rng.trial_seed_vec(0x4A5E, np.arange(n_trials, dtype=np.uint64))
        xs = rng.raw_key_stream(n, n if shared else n_trials * n, spec.key_bits)
        xs = xs if shared else xs.reshape(n_trials, n)
        chars, evals = eval_folded_stack(spec, Hashed(seeds), xs)
        edges = [e + d for e in range(HASH_BLOCK, n, HASH_BLOCK) for d in (-1, 0, 1)]
        cols = sorted({i for i in [0, n - 1, *edges, *range(0, n, 997)] if 0 <= i < n})
        want_chars, want_evals = per_trial_reference(spec, seeds, xs[..., cols])
        assert np.array_equal(chars[:, cols], want_chars)
        assert np.array_equal(evals[:, cols], want_evals)
        no_chars, only_evals = eval_folded_stack(spec, Hashed(seeds), xs, keep_chars=False)
        assert no_chars is None and np.array_equal(only_evals, evals)
        only_chars, no_evals = eval_folded_stack(spec, Hashed(seeds, top=False), xs)
        assert np.array_equal(only_chars, chars) and no_evals is None

    def test_no_entry_to_read(self):
        """Simple tabulation that only derives reads no entry and has no
        lanes: the walk still yields B trial rows of the key characters."""
        spec = TornadoSpec(8, 3, 0, 16, Variant.SIMPLE_TABULATION)
        seeds = rng.trial_seed_vec(0x4A5F, np.arange(3, dtype=np.uint64))
        xs = rng.raw_key_stream(7, 50, spec.key_bits)
        chars, evals = eval_folded_stack(spec, Hashed(seeds, top=False), xs)
        assert evals is None and chars.shape == (3, 50, 3)
        assert np.array_equal(chars, per_trial_reference(spec, seeds, xs)[0])
        assert eval_folded_stack(spec, Hashed(seeds, top=False), xs, keep_chars=False) == (
            None, None)


class TestInjectivity:
    def test_tornado_exhaustive(self):
        spec = TornadoSpec(8, 2, 1, 8, Variant.TORNADO)
        h = TornadoHash.build(spec, 0xF00)
        assert derived_injectivity_check(h, range(65536))

    def test_simple_tabulation_identity(self):
        spec = TornadoSpec(8, 2, 0, 8, Variant.SIMPLE_TABULATION)
        h = TornadoHash.build(spec, 0)
        assert derived_injectivity_check(h, [1, 2, 3, 500])

    def test_singleton(self):
        h = TornadoHash.build(TornadoSpec(8, 2, 1, 8, Variant.TORNADO), 0)
        assert derived_injectivity_check(h, [42])

    def test_all_variants_injective_exhaustive(self):
        # every variant keeps the input recoverable from the derived prefix,
        # so injectivity must hold for any seed and any key set
        for variant, psi in (
            (Variant.SIMPLE_TORNADO, None),
            (Variant.TORNADO_MIX, 6),
        ):
            spec = TornadoSpec(4, 2, 2, 8, variant, psi_bits=psi)
            h = TornadoHash.build(spec, 0xBEE)
            assert derived_injectivity_check(h, range(256))

    def test_duplicate_keys_rejected(self):
        """A repeated key is no collision of the derivation."""
        h = TornadoHash.build(TornadoSpec(8, 2, 1, 8, Variant.TORNADO), 0)
        for keys in ([7, 7], [1, 2, 3, 2]):
            with pytest.raises(ValueError, match="distinct keys"):
                derived_injectivity_check(h, keys)

    @pytest.mark.parametrize("key", [-1, 1 << 16])
    def test_key_outside_universe_rejected(self, key):
        h = TornadoHash.build(TornadoSpec(8, 2, 1, 8, Variant.TORNADO), 0)
        with pytest.raises(ConfigError, match="outside the 16-bit key universe"):
            derived_injectivity_check(h, [key, 3])


class TestFolded:
    @pytest.mark.parametrize("spec", W64_SPECS)
    def test_w64_profiles_match_reference(self, spec):
        h = TornadoHash.build(spec, 0xACE)
        keys = rng.raw_key_stream(3, 20000, 32)
        assert np.array_equal(h.eval_batch(keys), eval_folded_batch(h, keys))
        for x in (0, 1, 0xFFFFFFFF):
            assert h.eval_folded(x) == h.eval(x)

    @pytest.mark.parametrize("n", [0, 1, FOLD_BLOCK - 1, FOLD_BLOCK, FOLD_BLOCK + 1,
                                   3 * FOLD_BLOCK + 5])
    def test_folded_batch_block_edges(self, n):
        h = TornadoHash.build(W64_SPECS[0], 0xB10C)
        keys = rng.raw_key_stream(n, n, 32)
        before = keys.copy()
        out = eval_folded_batch(h, keys)
        assert out.shape == (n,) and out.dtype == np.uint64
        assert np.array_equal(out, h.eval_batch(keys))
        assert np.array_equal(keys, before)

    @pytest.mark.parametrize("n_trials,n", [(5, 4097), (2, FOLD_BLOCK + 3)],
                             ids=["row-blocks", "column-blocks"])
    @pytest.mark.parametrize("shared", [True, False], ids=["shared-keys", "per-trial-keys"])
    def test_folded_stack_block_edges(self, n_trials, n, shared):
        """Blocks of several trial rows, the last one partial, and blocks of
        one row's columns, the last one partial, against the walk over hashed
        entries and, at a sample of columns, each trial's own hash, for the w64 spec
        (one lane) and the mix spec (a lane of levels and one of top entries,
        whose psi-wide positions have their own alphabet), with and without
        the top entry."""
        for spec in (W64_SPECS[0], MIX_SPECS[1]):
            seeds = rng.trial_seed_vec(0xB10C, np.arange(n_trials, dtype=np.uint64))
            xs = rng.raw_key_stream(n, n if shared else n_trials * n, spec.key_bits)
            xs = xs if shared else xs.reshape(n_trials, n)
            chars, evals = eval_folded_stack(spec, fold_stacks(spec, seeds, xs), xs)
            expected, hashed = eval_folded_stack(spec, Hashed(seeds), xs)
            assert np.array_equal(chars, expected)
            assert np.array_equal(evals, hashed)
            cols = TestEvalBatchBlocks.sample(n)
            want_chars, want_evals = per_trial_reference(spec, seeds, xs[..., cols])
            assert np.array_equal(chars[:, cols], want_chars)
            assert np.array_equal(evals[:, cols], want_evals)
            walked = eval_folded_stack(spec, fold_stacks(spec, seeds, xs, top=False), xs)
            assert np.array_equal(walked[0], expected) and walked[1] is None

    def test_folded_batch_read_only_and_list_input(self):
        h = TornadoHash.build(W64_SPECS[0], 0xB10C)
        keys = rng.raw_key_stream(9, FOLD_BLOCK + 3, 32)
        expect = h.eval_batch(keys)
        frozen = keys.copy()
        frozen.flags.writeable = False
        assert np.array_equal(eval_folded_batch(h, frozen), expect)
        assert np.array_equal(eval_folded_batch(h, keys.tolist()), expect)

    def test_w64_lookup_count_c4_d3(self):
        spec = TornadoSpec(8, 4, 3, 32, Variant.TORNADO)
        folded = fold_tables(TornadoHash.build(spec, 1))
        assert len(folded.tables) == 7

    @pytest.mark.parametrize("spec", MIX_SPECS)
    def test_mix_profile_matches_reference(self, spec):
        h = TornadoHash.build(spec, 0xD00D)
        for x in rng.raw_key_stream(4, 2000, spec.key_bits):
            assert h.eval_folded(int(x)) == h.eval(int(x))

    @pytest.mark.parametrize("spec", W64_SPECS + MIX_SPECS + [
        TornadoSpec(8, 1, 3, 32, Variant.TORNADO),
        TornadoSpec(8, 4, 6, 48, Variant.TORNADO_MIX, psi_bits=16),  # levels past 64 bits
    ], ids=lambda s: s.spec_string())
    def test_every_position_folds_by_one_rule(self, spec):
        """Read at a level's offset, every folded entry gives back that
        level's entry if the level reads the position, else 0, and at top_off
        the top entry. The folded word is the engine's lanes with no width
        limit: the levels in order, then the top entry, so a spec whose
        entries fit 64 bits folds as its one engine lane. The loop reads the
        character of position c - 1 + level at the level's offset."""
        h = TornadoHash.build(spec, 1)
        folded = fold_tables(h)
        (lane,) = _lanes(spec, None)
        offs = dict(lane)
        top_off = offs.pop(None)
        assert list(offs) == list(spec.levels()) == list(range(spec.d + 1))
        assert top_off == sum(spec.level_output_bits(lv) for lv in offs)
        if top_off + spec.out_bits <= 64:
            assert _lanes(spec) == [lane]
        assert len(folded.tables) == spec.positions
        for p, col in enumerate(folded.tables):
            assert [v >> top_off for v in col] == h.top_table[p].tolist()
            for level, off in offs.items():
                reads = p < spec.level_input_positions(level)
                want = h.level_tables[level][p].tolist() if reads else [0] * len(col)
                mask = (1 << spec.level_output_bits(level)) - 1
                assert [(v >> off) & mask for v in col] == want, (p, level)
        assert [(tab, off, mask + 1) for tab, off, mask in folded.steps] == [
            (folded.tables[spec.c - 1 + lv], offs[lv], len(folded.tables[spec.c - 1 + lv]))
            for lv in offs]

    @pytest.mark.parametrize(
        "c,d,out_bits",
        [(1, 0, 56), (1, 4, 24), (2, 1, 48), (3, 2, 16), (4, 0, 32), (5, 2, 40),
         (8, 0, 56), (6, 1, 47)],
    )
    def test_w64_profile_family_matches_reference(self, c, d, out_bits):
        spec = TornadoSpec(8, c, d, out_bits, Variant.TORNADO)
        h = TornadoHash.build(spec, 0xFACE ^ (c << 8) ^ d)
        keys = rng.raw_key_stream(c * 31 + d, 3000, spec.key_bits)
        assert eval_folded_batch(h, keys).tolist() == [h.eval_folded(int(x)) for x in keys]

    def test_zero_tables_hash_zero(self):
        spec = TornadoSpec(8, 4, 4, 24, Variant.TORNADO)
        h = TornadoHash.build(spec, 1)
        zero_levels = {lv: np.zeros_like(t) for lv, t in h.level_tables.items()}
        zero_top = [np.zeros_like(t) for t in h.top_table]
        hz = TornadoHash(spec, 0, zero_levels, zero_top)
        assert hz.eval_folded(0) == 0

    @pytest.mark.parametrize("spec", [W64_SPECS[0], MIX_SPECS[1]], ids=lambda s: s.spec_string())
    def test_hand_built_tables_fold_their_own_entries(self, spec):
        """Tables no seed made, under an unrelated seed: the fold packs the
        hash's own entries, not entries hashed from its seed."""
        h = TornadoHash.build(spec, 0x4A4D)
        levels = {lv: t ^ np.uint32(0x5A & ((1 << spec.level_output_bits(lv)) - 1))
                  for lv, t in h.level_tables.items()}
        top = [t ^ np.uint64(0x3C3C & ((1 << spec.out_bits) - 1)) for t in h.top_table]
        hand = TornadoHash(spec, 0x4A4D + 1, levels, top)
        keys = rng.raw_key_stream(0x4A4E, 500, spec.key_bits)
        expected = hand.eval_batch(keys)
        assert not np.array_equal(expected, h.eval_batch(keys))
        assert not np.array_equal(expected, TornadoHash.build(spec, hand.seed).eval_batch(keys))
        assert [hand.eval_folded(int(x)) for x in keys] == [hand.eval(int(x)) for x in keys]
        assert np.array_equal(eval_folded_batch(hand, keys), expected)

    def test_hand_made_uint64_level_tables(self):
        spec = TornadoSpec(8, 4, 4, 24, Variant.TORNADO)
        h = TornadoHash.build(spec, 1)
        wide = {lv: t.astype(np.uint64) for lv, t in h.level_tables.items()}
        hw = TornadoHash(spec, 1, wide, h.top_table)
        keys = rng.raw_key_stream(5, 500, spec.key_bits)
        assert np.array_equal(hw.eval_batch(keys), h.eval_batch(keys))
        assert hw.eval_folded(77) == h.eval(77)

    def test_unsupported_profile_rejected(self):
        with pytest.raises(ConfigError):
            fold_tables(TornadoHash.build(TornadoSpec(4, 2, 1, 8, Variant.TORNADO), 1))
        with pytest.raises(ConfigError, match="no folded layout"):
            fold_tables(TornadoHash.build(TornadoSpec(8, 4, 8, 24, Variant.TORNADO), 1))  # too wide

    @pytest.mark.parametrize("spec", MIX_SPECS + [
        TornadoSpec(8, 4, 8, 24, Variant.TORNADO),  # no folded layout
        TornadoSpec(16, 2, 4, 16, Variant.TORNADO),
        TornadoSpec(4, 3, 2, 8, Variant.SIMPLE_TORNADO),
    ], ids=lambda s: s.spec_string())
    def test_batch_every_spec(self, spec):
        """The batch folded path walks the lanes of every spec, tornado-mix
        and specs with no scalar folded layout included."""
        h = TornadoHash.build(spec, 1)
        keys = rng.raw_key_stream(0xBA7, 300, spec.key_bits)
        assert eval_folded_batch(h, keys).tolist() == [h.eval(int(x)) for x in keys]


class TestKeyDomain:
    SPEC = TornadoSpec(8, 4, 4, 24, Variant.TORNADO)

    @pytest.mark.parametrize("x", [-1, 2**32, 2**32 + 5, 2**64])
    def test_scalar_paths_reject(self, x):
        h = TornadoHash.build(self.SPEC, 1)
        with pytest.raises(ConfigError, match="outside"):
            h.eval(x)
        with pytest.raises(ConfigError, match="outside"):
            h.eval_folded(x)

    @pytest.mark.parametrize("xs", [
        np.array([0, -1], dtype=np.int64),
        np.array([1, 2**32], dtype=np.uint64),
        [3, 2**32 + 5],
        [5, 2**70],
    ])
    def test_batch_paths_reject(self, xs):
        h = TornadoHash.build(self.SPEC, 1)
        with pytest.raises(ConfigError, match="outside"):
            h.eval_batch(xs)
        with pytest.raises(ConfigError, match="outside"):
            eval_folded_batch(h, xs)

    # key blocks of every shape but 1-D, and selectors that hold one as the
    # tuples of its rows, which NumPy reads back as the block
    BAD_SHAPES = {"2-D": np.array([[1, 2], [3, 4]]), "0-d": np.array(7),
                  "3-D": np.arange(8).reshape(2, 2, 2)}
    BAD_SELECTOR_KEYS = {"2-D": [(1, 2), (3, 4)], "3-D": [((0, 1), (2, 3)), ((4, 5), (6, 7))]}
    BATCH_CALLS = {
        "eval_batch": lambda h, xs: h.eval_batch(xs),
        "derive_batch": lambda h, xs: h.derive_batch(xs),
        "eval_folded_batch": eval_folded_batch,
        "derived_injectivity_check": derived_injectivity_check,
    }
    SELECTOR_CALLS = {
        "candidates": lambda h, sel: selectors.candidates(sel, h.spec),
        "measure_dependence": lambda h, sel: experiments.measure_dependence(sel, h.spec, 2, 0),
    }

    # a 0-d array is not hashable, so no selector holds one
    @pytest.mark.parametrize("call, shape", [*itertools.product(BATCH_CALLS, BAD_SHAPES),
                                             *itertools.product(SELECTOR_CALLS, BAD_SELECTOR_KEYS)])
    def test_keys_of_another_shape_rejected(self, call, shape):
        """A 2-D block would hash its first row and drop the rest."""
        h = TornadoHash.build(parse_spec_string("tornado,cb=8,c=2,d=2,r=16"), 5)
        if call in self.SELECTOR_CALLS:
            call, xs = self.SELECTOR_CALLS[call], selectors.fixed_set(self.BAD_SELECTOR_KEYS[shape])
        else:
            call, xs = self.BATCH_CALLS[call], self.BAD_SHAPES[shape]
        with pytest.raises(ConfigError, match="1-D"):
            call(h, xs)

    def test_non_integer_keys_rejected(self):
        h = TornadoHash.build(self.SPEC, 1)
        with pytest.raises(ConfigError):
            h.eval_batch(np.array([1.5]))
        with pytest.raises(ConfigError):
            h.eval(1.5)

    def test_edges_accepted(self):
        h = TornadoHash.build(self.SPEC, 1)
        top = 2**32 - 1
        batch = h.eval_batch(np.array([0, top], dtype=np.int64))
        assert batch.tolist() == [h.eval(0), h.eval(top)]
        assert eval_folded_batch(h, [0, top]).tolist() == [h.eval_folded(0), h.eval_folded(top)]
        assert h.eval_batch([]).shape == (0,)

    # the 64-bit universe in both folded profiles: w64 and w128mix
    WIDE_SPECS = [TornadoSpec(8, 8, 3, 32, Variant.TORNADO),
                  TornadoSpec(8, 8, 5, 64, Variant.TORNADO_MIX, psi_bits=16)]

    @pytest.mark.parametrize("spec", WIDE_SPECS, ids=lambda s: s.spec_string())
    def test_int_list_across_2_63(self, spec):
        """NumPy infers float64 for Python ints on both sides of 2**63; every
        batch entry point reads such a list exactly and still rejects floats."""
        h = TornadoHash.build(spec, 1)
        keys = [1, 2**63, 2**64 - 1]
        expected = [h.eval(x) for x in keys]
        assert h.eval_batch(keys).tolist() == expected
        assert [tuple(r) for r in h.derive_batch(keys).tolist()] == [h.derive(x) for x in keys]
        assert eval_folded_batch(h, keys).tolist() == expected
        assert derived_injectivity_check(h, keys)
        assert selectors.candidates(selectors.fixed_set(keys), spec).tolist() == keys
        for bad in ([1, 2.0], [2**63, 1.5], [1, None], np.array([1, 2.0], dtype=object)):
            with pytest.raises(ConfigError, match="integers"):
                h.eval_batch(bad)
        with pytest.raises(ConfigError, match="integers"):
            selectors.candidates(selectors.fixed_set([1, 2**63, 2.0]), spec)

    @pytest.mark.parametrize("key", [
        0x89ABCDEF, np.uint64(0x89ABCDEF), np.int64(0x89ABCDEF), np.uint32(0x89ABCDEF),
        np.uint64(2**64 - 1), 2**64 - 1,
    ], ids=lambda k: f"{type(k).__name__}-{int(k):#x}")
    @pytest.mark.parametrize("spec", WIDE_SPECS, ids=lambda s: s.spec_string())
    def test_every_path_one_answer(self, spec, key):
        """A key of any integer type gives every path the answer of its
        Python int, and the scalar paths return Python ints."""
        h = TornadoHash.build(spec, 1)
        x, out = int(key), spec.out_bits
        want = h.eval(x)
        got = [h.eval(key), h.eval_folded(key), h.select_bits(key, 5) << (out - 5)
               | h.free_bits(key, out - 5)]
        assert got == [want] * 3 and all(type(v) is int for v in got)
        assert h.derive(key) == h.derive(x) and all(type(v) is int for v in h.derive(key))
        assert h.eval_batch([key]).tolist() == [want]
        assert h.derive_batch([key]).tolist() == [list(h.derive(x))]
        assert eval_folded_batch(h, [key]).tolist() == [want]

    @pytest.mark.parametrize("key", [True, np.bool_(True), 3.0, np.float64(3.0), "3", None],
                             ids=repr)
    @pytest.mark.parametrize("spec", WIDE_SPECS, ids=lambda s: s.spec_string())
    def test_non_integer_key_rejected_everywhere(self, spec, key):
        h = TornadoHash.build(spec, 1)
        calls = [h.eval, h.eval_folded, h.derive, lambda k: h.select_bits(k, 1),
                 lambda k: h.free_bits(k, 1), lambda k: h.eval_batch([k]),
                 lambda k: h.derive_batch([k]), lambda k: eval_folded_batch(h, [k])]
        for call in calls:
            with pytest.raises(ConfigError):
                call(key)

    @pytest.mark.parametrize("keys", [[1, True], [True, 2], [1, np.bool_(False)],
                                      np.array([1, True], dtype=object)], ids=repr)
    def test_bool_among_int_keys_rejected(self, keys):
        """NumPy reads a list of ints and bools as int64, so a bool would hash
        as the key 0 or 1; every batch path rejects it, as eval(True) does."""
        h = TornadoHash.build(self.SPEC, 1)
        for call in (h.eval_batch, h.derive_batch, lambda k: eval_folded_batch(h, k),
                     lambda k: derived_injectivity_check(h, k)):
            with pytest.raises(ConfigError, match="integers"):
                call(keys)

    def test_full_64_bit_universe(self):
        spec = TornadoSpec(8, 8, 5, 64, Variant.TORNADO_MIX, psi_bits=16)
        h = TornadoHash.build(spec, 1)
        top = 2**64 - 1
        assert int(h.eval_batch(np.array([top], dtype=np.uint64))[0]) == h.eval(top)
        assert h.eval_folded(top) == h.eval(top)
        with pytest.raises(ConfigError):
            h.eval(2**64)


class TestBitSplit:
    def test_reconstruction(self):
        spec = TornadoSpec(8, 2, 2, 16, Variant.TORNADO)
        h = TornadoHash.build(spec, 0x99)
        for s in (0, 5, 16):
            t = 16 - s
            for x in rng.raw_key_stream(6, 100, 16):
                x = int(x)
                sel, free = h.select_bits(x, s), h.free_bits(x, t)
                assert (sel << t) | free == h.eval(x)

    def test_reconstruction_bulk(self):
        spec = TornadoSpec(8, 2, 2, 16, Variant.TORNADO)
        h = TornadoHash.build(spec, 0x99)
        s, t = 6, 10
        evals = h.eval_batch(rng.raw_key_stream(6, 10000, 16))
        recon = ((evals >> np.uint64(t)) << np.uint64(t)) | (evals & np.uint64((1 << t) - 1))
        assert np.array_equal(recon, evals)

    def test_s_zero(self):
        h = TornadoHash.build(TornadoSpec(8, 2, 1, 8, Variant.TORNADO), 3)
        assert h.select_bits(77, 0) == 0
        assert h.free_bits(77, 8) == h.eval(77)

    def test_s_full(self):
        h = TornadoHash.build(TornadoSpec(8, 2, 1, 8, Variant.TORNADO), 3)
        assert h.select_bits(77, 8) == h.eval(77)
        assert h.free_bits(77, 0) == 0

    def test_out_of_range(self):
        h = TornadoHash.build(TornadoSpec(8, 2, 1, 8, Variant.TORNADO), 3)
        for width in (9, -1, True, 2.5, "3"):  # a width is an integer in 0..out_bits
            for name, bits in (("s", h.select_bits), ("t", h.free_bits)):
                with pytest.raises(ConfigError, match=f"{name} must be"):
                    bits(1, width)

    def test_numpy_width_gives_plain_int(self):
        h = TornadoHash.build(TornadoSpec(8, 2, 1, 8, Variant.TORNADO), 3)
        sel, free = h.select_bits(5, np.int64(3)), h.free_bits(5, np.int64(3))
        assert type(sel) is int and type(free) is int
        assert (sel, free) == (h.eval(5) >> 5, h.eval(5) & 7)

    def test_select_bits_are_sliced_simple_tabulation(self):
        # high-s slice of the top table hashes to exactly the selection bits
        spec = TornadoSpec(8, 2, 2, 16, Variant.TORNADO)
        h = TornadoHash.build(spec, 0x21)
        s, t = 6, 10
        sliced_top = []
        for tbl in h.top_table:
            sl = (tbl >> np.uint64(t)).copy()
            sl.flags.writeable = False
            sliced_top.append(sl)
        hs = TornadoHash(spec, h.seed, h.level_tables, sliced_top)
        for x in rng.raw_key_stream(8, 200, 16):
            x = int(x)
            assert hs.eval(x) == h.select_bits(x, s)


class TestDump:
    def test_header_and_count(self):
        spec = TornadoSpec(4, 2, 1, 8, Variant.TORNADO)
        h = TornadoHash.build(spec, 0x42)
        dump = dump_tables(h)
        lines = dump.strip().split("\n")
        assert lines[0] == "tornado-tables v1 tornado,cb=4,c=2,d=1,r=8 seed=0x42"
        # level 0: 1 pos * 16, level 1: 2 pos * 16, top: 3 pos * 16
        assert len(lines) - 1 == 96
        assert all(len(l) in (1, 2) for l in lines[1:])

    def test_deterministic(self):
        spec = TornadoSpec(8, 2, 2, 16, Variant.TORNADO)
        assert dump_tables(TornadoHash.build(spec, 7)) == dump_tables(
            TornadoHash.build(spec, 7)
        )

    def test_entries_fixed_width_hex(self):
        spec = TornadoSpec(8, 1, 0, 24, Variant.SIMPLE_TABULATION)
        lines = dump_tables(TornadoHash.build(spec, 1)).strip().split("\n")
        assert len(lines) - 1 == 256
        assert all(len(l) == 6 for l in lines[1:])


class TestFoldFromSeeds:
    """fold_stacks from the trial seeds against each trial's tables: shared
    keys fold only the characters they hold at each untwisted input
    position, per-trial keys fold every slot. A mix spec packs its top
    entries in a lane of their own, with psi-wide words at its last two
    positions."""

    SPECS = [TornadoSpec(8, 2, 3, 8, Variant.TORNADO), TornadoSpec(8, 3, 2, 8, Variant.TORNADO),
             TornadoSpec(8, 4, 3, 24, Variant.TORNADO),
             TornadoSpec(8, 3, 3, 64, Variant.TORNADO_MIX, psi_bits=10)]

    @staticmethod
    def keys(spec, n_distinct, rows, n, seed):
        """(rows, n) keys whose untwisted input positions each hold
        ``n_distinct`` characters, all of them in every row as n >= 256; the
        twisted position is random."""
        xs = rng.raw_key_stream(seed, rows * n, spec.key_bits).reshape(rows, n)
        for p in range(spec.c - 1):
            palette = np.random.default_rng([seed, p]).choice(256, n_distinct, replace=False)
            chars = palette[(np.arange(n) * (2 * p + 1) + p) % n_distinct].astype(np.uint64)
            xs &= ~np.uint64(255 << (8 * p))
            xs |= chars << np.uint64(8 * p)
        return xs

    @staticmethod
    def assert_walk_is_the_engine(spec, lanes, seeds, xs):
        """The walk over the lanes against the walk over hashed entries and
        each trial's own hash."""
        chars, evals = eval_folded_stack(spec, lanes, xs)
        expected, hashed = eval_folded_stack(spec, Hashed(seeds), xs)
        assert np.array_equal(chars, expected)
        assert np.array_equal(evals, hashed)
        want_chars, want_evals = per_trial_reference(spec, seeds, xs)
        assert np.array_equal(chars, want_chars)
        assert np.array_equal(evals, want_evals)

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.spec_string())
    @pytest.mark.parametrize("n_distinct", [1, 2, 256])
    def test_shared_keys_fold_the_slots_they_read(self, spec, n_distinct):
        seeds = rng.trial_seed_vec(0x5107, np.arange(5, dtype=np.uint64))
        xs = self.keys(spec, n_distinct, 1, 300, 0x5108)[0]
        lanes = fold_stacks(spec, seeds, xs)

        def read(p):
            if p >= spec.c - 1:
                return None
            held = np.zeros(256, dtype=bool)
            held[((xs >> np.uint64(8 * p)) & np.uint64(255)).astype(np.intp)] = True
            assert held.sum() == n_distinct
            return held

        _assert_lanes_hold(spec, lanes, seeds, read)
        self.assert_walk_is_the_engine(spec, lanes, seeds, xs)

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.spec_string())
    @pytest.mark.parametrize("n_distinct", [1, 2])
    def test_per_trial_keys_fold_every_slot(self, spec, n_distinct):
        seeds = rng.trial_seed_vec(0x5109, np.arange(3, dtype=np.uint64))
        xs = self.keys(spec, n_distinct, 3, 300, 0x510A)
        lanes = fold_stacks(spec, seeds, xs)
        _assert_lanes_hold(spec, lanes, seeds)
        self.assert_walk_is_the_engine(spec, lanes, seeds, xs)
