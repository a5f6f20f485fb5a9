import numpy as np
import pytest

from tornadotab import rng
from tornadotab.core import (
    EVAL_BLOCK,
    FOLD_BLOCK,
    ConfigError,
    TornadoHash,
    TornadoSpec,
    Variant,
    derive_stack,
    derived_injectivity_check,
    dump_tables,
    eval_folded_batch,
    eval_folded_stack,
    eval_stack,
    fold_stacks,
    fold_tables,
    level_stacks,
    parse_spec_string,
    top_stacks,
)

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


def _fold_reference(spec: TornadoSpec, seeds: np.ndarray) -> np.ndarray:
    """The (c + d, B, 256) stack of each seed's built tables as fold_tables
    packs them, with Python ints: no code shared with fold_stacks."""
    return np.stack([fold_tables(TornadoHash.build(spec, s)).tables_np for s in seeds.tolist()],
                    axis=1)


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
    ]

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
        n_trials, n = 4, 97
        seeds = rng.trial_seed_vec(0x1A71, np.arange(n_trials, dtype=np.uint64))
        levels, top = level_stacks(spec, seeds), top_stacks(spec, seeds)
        xs = rng.raw_key_stream(5, n if shared else n_trials * n, spec.key_bits)
        xs = xs if shared else xs.reshape(n_trials, n)
        chars = derive_stack(spec, levels, xs, n_trials)
        evals = eval_stack(spec, top, chars)
        assert chars.shape == (n_trials, n, spec.positions)
        assert np.array_equal(derive_stack(spec, seeds, xs, n_trials), chars)
        for b in range(n_trials):
            one = {lv: t[:, b:b + 1] for lv, t in levels.items()}
            keys = xs if shared else xs[b]
            chars_b = derive_stack(spec, one, keys, 1)
            assert np.array_equal(chars_b[0], chars[b])
            assert np.array_equal(eval_stack(spec, [t[b:b + 1] for t in top], chars_b)[0],
                                  evals[b])


class TestEvalBatchBlocks:
    """eval_batch at the edges of its EVAL_BLOCK blocks, a short last block
    included: every key of the w64 spec against the folded loop, and a sample
    of the mix spec and of a spec with no folded layout against scalar eval."""

    SIZES = [0, 1, EVAL_BLOCK - 1, EVAL_BLOCK, EVAL_BLOCK + 1, 2 * EVAL_BLOCK + 5]

    @staticmethod
    def sample(n):
        """First, last, both sides of each block edge, and a spread between."""
        edges = [e + d for e in range(EVAL_BLOCK, n, EVAL_BLOCK) for d in (-1, 0, 1)]
        return sorted({i for i in [0, n - 1, *edges, *range(0, n, 997)] if 0 <= i < n})

    @pytest.mark.parametrize("n", SIZES)
    def test_w64_every_key(self, n):
        h = TornadoHash.build(parse_spec_string("tornado,cb=8,c=4,d=4,r=24"), 0xE1)
        keys = rng.raw_key_stream(11, n, 32)
        out = h.eval_batch(keys)
        assert out.shape == (n,) and out.dtype == np.uint64
        assert np.array_equal(out, eval_folded_batch(h, keys))

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
        one row's columns, the last one partial, against the engine, over the
        seeds' fold and over the reference fold of their built tables."""
        spec = W64_SPECS[0]
        seeds = rng.trial_seed_vec(0xB10C, np.arange(n_trials, dtype=np.uint64))
        levels, top = level_stacks(spec, seeds), top_stacks(spec, seeds)
        xs = rng.raw_key_stream(n, n if shared else n_trials * n, 32)
        xs = xs if shared else xs.reshape(n_trials, n)
        chars, evals = eval_folded_stack(spec, fold_stacks(spec, seeds, xs), xs)
        ref_chars, ref_evals = eval_folded_stack(spec, _fold_reference(spec, seeds), xs)
        assert np.array_equal(chars, ref_chars) and np.array_equal(evals, ref_evals)
        expected = derive_stack(spec, levels, xs, n_trials)
        assert np.array_equal(chars, expected)
        assert np.array_equal(evals, eval_stack(spec, top, expected))

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

    def test_every_position_folds_by_one_rule(self):
        """w64 folds all c + d positions into 8-bit tables; w128mix folds the
        first c + d - 2, then its two 16-bit positions: the first with its top
        entry 16 bits up, above the last character, the second at 0."""
        for spec in W64_SPECS:
            folded = fold_tables(TornadoHash.build(spec, 1))
            assert folded.wide == [] and len(folded.tables) == spec.positions
        for spec in MIX_SPECS:
            h = TornadoHash.build(spec, 1)
            folded = fold_tables(h)
            n8 = spec.positions - 2
            assert len(folded.tables) == n8
            assert [len(t) for t in folded.wide] == [1 << 16, 1 << 16]
            assert folded.wide[0] == [v << 16 for v in h.top_table[n8].tolist()]
            assert folded.wide[1] == h.top_table[n8 + 1].tolist()

    @pytest.mark.parametrize(
        "c,d,out_bits",
        [(1, 0, 56), (1, 4, 24), (2, 1, 48), (3, 2, 16), (4, 0, 32), (5, 2, 40),
         (8, 0, 56), (6, 1, 47)],
    )
    def test_w64_profile_family_matches_reference(self, c, d, out_bits):
        spec = TornadoSpec(8, c, d, out_bits, Variant.TORNADO)
        h = TornadoHash.build(spec, 0xFACE ^ (c << 8) ^ d)
        keys = rng.raw_key_stream(c * 31 + d, 3000, spec.key_bits)
        assert np.array_equal(h.eval_batch(keys), eval_folded_batch(h, keys))

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
        if hand.folded.tables_np is not None:
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

    def test_batch_mix_rejected(self):
        spec = TornadoSpec(8, 8, 5, 64, Variant.TORNADO_MIX, psi_bits=16)
        h = TornadoHash.build(spec, 1)
        with pytest.raises(ConfigError):
            eval_folded_batch(h, np.arange(4, dtype=np.uint64))


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

    def test_non_integer_keys_rejected(self):
        h = TornadoHash.build(self.SPEC, 1)
        with pytest.raises(ConfigError):
            h.eval_batch(np.array([1.5]))
        with pytest.raises(TypeError):
            h.eval(1.5)

    def test_edges_accepted(self):
        h = TornadoHash.build(self.SPEC, 1)
        top = 2**32 - 1
        batch = h.eval_batch(np.array([0, top], dtype=np.int64))
        assert batch.tolist() == [h.eval(0), h.eval(top)]
        assert eval_folded_batch(h, [0, top]).tolist() == [h.eval_folded(0), h.eval_folded(top)]
        assert h.eval_batch([]).shape == (0,)

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
        with pytest.raises(ConfigError):
            h.select_bits(1, 9)
        with pytest.raises(ConfigError):
            h.free_bits(1, -1)

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
    """fold_stacks from the trial seeds against fold_tables of each seed's
    built tables: shared keys fold only the characters they hold at each
    untwisted input position, per-trial keys fold every slot."""

    SPECS = [TornadoSpec(8, 2, 3, 8, Variant.TORNADO), TornadoSpec(8, 3, 2, 8, Variant.TORNADO),
             TornadoSpec(8, 4, 3, 24, Variant.TORNADO)]

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
    def assert_folded_loop_is_the_engine(spec, folded, levels, top, xs, n_trials):
        chars, evals = eval_folded_stack(spec, folded, xs)
        expected = derive_stack(spec, levels, xs, n_trials)
        assert np.array_equal(chars, expected)
        assert np.array_equal(evals, eval_stack(spec, top, expected))

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.spec_string())
    @pytest.mark.parametrize("n_distinct", [1, 2, 256])
    def test_shared_keys_fold_the_slots_they_read(self, spec, n_distinct):
        n_trials = 5
        seeds = rng.trial_seed_vec(0x5107, np.arange(n_trials, dtype=np.uint64))
        levels, top = level_stacks(spec, seeds), top_stacks(spec, seeds)
        xs = self.keys(spec, n_distinct, 1, 300, 0x5108)[0]
        folded = fold_stacks(spec, seeds, xs)
        full = _fold_reference(spec, seeds)
        assert folded.shape == full.shape == (spec.positions, n_trials, 256)
        for p in range(spec.positions):
            read = np.zeros(256, dtype=bool)
            if p < spec.c - 1:
                read[((xs >> np.uint64(8 * p)) & np.uint64(255)).astype(np.intp)] = True
                assert read.sum() == n_distinct
            else:
                read[:] = True
            assert np.array_equal(folded[p][:, read], full[p][:, read])
            assert not folded[p][:, ~read].any()
        self.assert_folded_loop_is_the_engine(spec, folded, levels, top, xs, n_trials)

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.spec_string())
    @pytest.mark.parametrize("n_distinct", [1, 2])
    def test_per_trial_keys_fold_every_slot(self, spec, n_distinct):
        n_trials = 3
        seeds = rng.trial_seed_vec(0x5109, np.arange(n_trials, dtype=np.uint64))
        levels, top = level_stacks(spec, seeds), top_stacks(spec, seeds)
        xs = self.keys(spec, n_distinct, n_trials, 300, 0x510A)
        folded = fold_stacks(spec, seeds, xs)
        assert np.array_equal(folded, _fold_reference(spec, seeds))
        self.assert_folded_loop_is_the_engine(spec, folded, levels, top, xs, n_trials)
