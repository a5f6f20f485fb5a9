import numpy as np
import pytest

from tornadotab import core, rng, selectors
from tornadotab.core import ConfigError, TornadoHash, TornadoSpec, Variant

SPEC = TornadoSpec(8, 2, 2, 8, Variant.TORNADO)


def build(seed=1, spec=SPEC):
    return TornadoHash.build(spec, seed)


class TestMu:
    def test_fixed_set(self):
        assert selectors.mu(selectors.fixed_set(range(128)), 8) == 128.0

    def test_bin_n_keys_n_bins(self):
        sel = selectors.bin_selector(range(256), 0)
        assert selectors.mu(sel, 8) == 1.0

    def test_bin_with_query(self):
        sel = selectors.bin_selector(range(256), None, query_keys=[3])
        # 255 non-query keys at 1/256 plus the query at 1
        assert selectors.mu(sel, 8) == pytest.approx(255 / 256 + 1)

    def test_hard_instance(self):
        sel = selectors.hard_instance(4)
        assert selectors.mu(sel, 8) == 8.0  # sigma/2
        sel256 = selectors.hard_instance(8)
        assert selectors.mu(sel256, 8) == 128.0

    def test_bit_prefix(self):
        sel = selectors.bit_prefix(range(100), 3, {0, 5})
        assert selectors.mu(sel, 8) == pytest.approx(100 * 2 / 8)

    def test_prefix_wider_than_output_rejected(self):
        with pytest.raises(ConfigError, match="wider"):
            selectors.mu(selectors.hard_instance(4), 1)

    @pytest.mark.parametrize("bin_value", [-1, 256, 2**64])
    def test_bin_outside_output_rejected(self, bin_value):
        # a negative bin is refused when the selector is made, a wide one when used
        with pytest.raises(ConfigError, match="outside|>= 0"):
            selectors.mu(selectors.bin_selector(range(256), bin_value), 8)

    def test_dyadic(self):
        sel = selectors.dyadic_interval(range(1000), anchor=5, interval_bits=4)
        # anchor is a query: 999 keys at 3*2^4/2^8 plus 1
        assert selectors.mu(sel, 8) == pytest.approx(999 * 48 / 256 + 1)


class TestSelect:
    def test_fixed_set_ignores_hash(self):
        sel = selectors.fixed_set([1, 2, 3])
        assert selectors.select(sel, build(1)) == frozenset({1, 2, 3})
        assert selectors.select(sel, build(99)) == frozenset({1, 2, 3})

    def test_bit_prefix_s0_selects_all(self):
        sel = selectors.bit_prefix(range(50), 0, {0})
        assert selectors.select(sel, build()) == frozenset(range(50))

    def test_bit_prefix_s0_at_64_output_bits(self):
        # shift-by-64 is invalid on numpy uint64; the empty prefix is special
        spec = TornadoSpec(8, 2, 1, 64, Variant.TORNADO)
        sel = selectors.bit_prefix(range(20), 0, {0})
        assert selectors.select(sel, build(3, spec)) == frozenset(range(20))

    def test_prefix_wider_than_output_rejected(self):
        spec = TornadoSpec(8, 2, 1, 1, Variant.TORNADO)
        with pytest.raises(ConfigError, match="wider"):
            selectors.select(selectors.bit_prefix(range(20), 2, {0}), build(1, spec))

    @pytest.mark.parametrize("bin_value", [-1, 256])
    def test_bin_outside_output_rejected(self, bin_value):
        # a negative bin is refused when the selector is made, a wide one when used
        with pytest.raises(ConfigError, match="outside|>= 0"):
            selectors.select(selectors.bin_selector(range(20), bin_value), build())

    def test_dyadic_full_range_selects_all(self):
        spec = TornadoSpec(8, 2, 1, 8, Variant.TORNADO)
        sel = selectors.dyadic_interval(range(30), anchor=1, interval_bits=8)
        assert selectors.select(sel, build(4, spec)) == frozenset(range(30))

    def test_queries_always_selected(self):
        h = build()
        for sel in (
            selectors.bin_selector(range(100), 0, query_keys=[7]),
            selectors.bit_prefix(range(100), 4, {9}, query_keys=[7]),
            selectors.dyadic_interval(range(100), anchor=7, interval_bits=2),
        ):
            assert 7 in selectors.select(sel, h)

    def test_bin_matches_definition(self):
        h = build()
        sel = selectors.bin_selector(range(200), 3)
        got = selectors.select(sel, h)
        expect = {x for x in range(200) if h.eval(x) == 3}
        assert got == frozenset(expect)

    def test_bin_query_relative(self):
        h = build()
        sel = selectors.bin_selector(range(200), None, query_keys=[11])
        got = selectors.select(sel, h)
        expect = {x for x in range(200) if h.eval(x) == h.eval(11)} | {11}
        assert got == frozenset(expect)

    def test_dyadic_matches_brute(self):
        h = build(5)
        base = [int(k) for k in rng.sample_distinct_keys(3, 300, 16)]
        q = base[0]
        sel = selectors.dyadic_interval(base, anchor=q, interval_bits=3)
        got = selectors.select(sel, h)
        n_iv = 1 << 5
        center = h.eval(q) >> 3
        wanted = {center % n_iv, (center - 1) % n_iv, (center + 1) % n_iv}
        expect = {x for x in base if (h.eval(x) >> 3) in wanted} | {q}
        assert got == frozenset(expect)

    def test_bit_prefix_relative(self):
        h = build(9)
        sel = selectors.bit_prefix(range(300), 4, {0, 1}, query_keys=[5],
                                   relative_to_query=True)
        got = selectors.select(sel, h)
        qp = h.eval(5) >> 4
        expect = {x for x in range(300) if (h.eval(x) >> 4) in {qp, qp ^ 1}} | {5}
        assert got == frozenset(expect)

    def test_bin_mean_matches_mu(self):
        # Monte Carlo mean of |X| vs analytic mu within 3 sigma. Row s of the
        # lane walk over seeds [0, 10000) is build(s); blocks of 2500 seeds
        # keep the lanes and characters near 70 MB.
        n, seeds = 256, 10000
        keys = [int(k) for k in rng.sample_distinct_keys(7, n, 16)]
        sel = selectors.bin_selector(keys, 0)
        mu = selectors.mu(sel, 8)
        xs = selectors.candidates(sel, SPEC)
        sizes = []
        for lo in range(0, seeds, 2500):
            block = np.arange(lo, lo + 2500, dtype=np.uint64)
            _, evals = core.eval_folded_stack(SPEC, core.fold_stacks(SPEC, block, xs), xs, False)
            sizes.append(selectors.selection_mask(sel, xs, evals, SPEC.out_bits).sum(axis=1))
        sizes = np.concatenate(sizes)
        assert sizes[:8].tolist() == [len(selectors.select(sel, build(s))) for s in range(8)]
        stderr = sizes.std() / np.sqrt(seeds)
        assert abs(sizes.mean() - mu) <= 3 * stderr + 1e-9

    def test_fully_random_mean_bounded_by_mu(self):
        # E|X| <= mu under the fully-random stand-in
        keys = [int(k) for k in rng.sample_distinct_keys(11, 512, 16)]
        sel = selectors.bit_prefix(keys, 2, {0})
        mu = selectors.mu(sel, 8)
        sizes = []
        for s in range(1500):
            hv = rng.mixer_hash_vec(s, np.array(keys, dtype=np.uint64), 8)
            sizes.append(int((hv >> 6 == 0).sum()))
        mean = np.mean(sizes)
        stderr = np.std(sizes) / np.sqrt(len(sizes))
        assert mean <= mu + 3 * stderr


class TestSelectionMask:
    def test_rows_are_hash_functions(self):
        keys = np.arange(300, dtype=np.uint64)
        hs = [build(s) for s in (1, 2, 3)]
        evals = np.stack([h.eval_batch(keys) for h in hs])
        for sel in (selectors.bit_prefix(range(300), 3, {1, 6}, [9], True),
                    selectors.dyadic_interval(range(300), anchor=9, interval_bits=4),
                    selectors.bin_selector(range(300), None, [9])):
            mask = selectors.selection_mask(sel, keys, evals, SPEC.out_bits)
            for row, h in zip(mask, hs):
                assert frozenset(keys[row].tolist()) == selectors.select(sel, h)

    def test_dyadic_neighbours_wrap_at_64_output_bits(self):
        keys = np.array([1, 2, 3, 4], dtype=np.uint64)
        sel = selectors.dyadic_interval(keys.tolist(), anchor=1, interval_bits=0)
        evals = np.array([[0, 2**64 - 1, 1, 5], [7, 6, 8, 2**63]], dtype=np.uint64)
        mask = selectors.selection_mask(sel, keys, evals, 64)
        assert mask.tolist() == [[True, True, True, False], [True, True, True, False]]


def _scalar_select(sel, keys, row, out_bits):
    """The selected keys under one hash row, written from the family definitions."""
    h = dict(zip(keys, row))
    kind = sel.kind
    if kind is selectors.SelectorKind.FIXED_SET:
        chosen = set(keys)
    elif kind is selectors.SelectorKind.BIT_PREFIX:
        def pre(x):
            return h[x] >> (out_bits - sel.s_bits)
        shift = pre(min(sel.query_keys)) if sel.relative_to_query else 0
        chosen = {x for x in keys if pre(x) ^ shift in sel.targets}
    elif kind is selectors.SelectorKind.DYADIC_INTERVAL:
        n_iv = 1 << (out_bits - sel.interval_bits)
        center = h[sel.anchor] >> sel.interval_bits
        near = {(center + off) % n_iv for off in (-1, 0, 1)}
        chosen = {x for x in keys if h[x] >> sel.interval_bits in near}
    else:
        target = h[min(sel.query_keys)] if sel.bin_value is None else sel.bin_value
        chosen = {x for x in keys if h[x] == target}
    return frozenset(chosen | sel.query_keys)


def _mask_cases(r):
    keys = list(range(40))
    q = [3, 17]
    yield selectors.bit_prefix(keys, 0, {0})
    yield selectors.bit_prefix(keys, 0, set())
    yield selectors.bit_prefix(keys, 0, set(), q)
    yield selectors.bit_prefix(keys, 1, {1}, q)
    yield selectors.bit_prefix(keys, r, {0, (1 << r) - 1})
    yield selectors.bit_prefix(keys, r, set())
    yield selectors.bit_prefix(keys, 1, {0}, q, relative_to_query=True)
    yield selectors.bit_prefix(keys, r, {0, 1}, q, relative_to_query=True)
    for l in sorted({0, 1, r - 1, r}):
        yield selectors.dyadic_interval(keys, 17, l)
    yield selectors.bin_selector(keys, (1 << r) - 1, q)
    yield selectors.bin_selector(keys, None, q)


class TestOneSelectionRule:
    """Every entry point checks the fit; the one mask matches the definitions."""

    WIDE = [selectors.dyadic_interval(range(100), anchor=5, interval_bits=12),
            selectors.bit_prefix(range(4), 9, {0}),
            selectors.bin_selector(range(4), 256)]

    @pytest.mark.parametrize("sel", WIDE)
    def test_every_entry_point_rejects_a_misfit(self, sel):
        keys = selectors.candidates(sel, SPEC)
        evals = build().eval_batch(keys)[None]
        with pytest.raises(ConfigError, match="wider|outside"):
            selectors.select(sel, build())
        with pytest.raises(ConfigError, match="wider|outside"):
            selectors.selection_mask(sel, keys, evals, 8)
        with pytest.raises(ConfigError, match="wider|outside"):
            selectors.selection_bit_count(sel, 8)
        with pytest.raises(ConfigError, match="wider|outside"):
            selectors.mu(sel, 8)

    @pytest.mark.parametrize("r", [1, 2, 3, 8, 64])
    def test_mask_matches_scalar_definitions(self, r):
        gen = np.random.default_rng(r)
        top = (1 << r) - 1
        # values near the query keys' and the extremes, so neighbors, wraps
        # and bins all get hit at every width
        base = int(gen.integers(0, top, endpoint=True, dtype=np.uint64))
        pool = np.array([0, top, base, (base + 1) & top, (base - 1) & top,
                         base ^ 1, base ^ (1 << (r - 1))], dtype=np.uint64)
        evals = pool[gen.integers(0, len(pool), size=(6, 40))]
        evals[:3] = gen.integers(0, top, size=(3, 40), endpoint=True, dtype=np.uint64)
        keys = np.arange(40, dtype=np.uint64)
        for sel in _mask_cases(r):
            mask = selectors.selection_mask(sel, keys, evals, r)
            for row, bits in zip(evals.tolist(), mask):
                want = _scalar_select(sel, list(range(40)), row, r)
                assert frozenset(np.flatnonzero(bits).tolist()) == want, sel

    def test_mu_equals_the_closed_forms_exactly(self):
        for r in (1, 2, 8, 33, 64):
            for n_free in (0, 1, 7, 1000, 4097):
                free = range(n_free)
                for n_q in (0, 1, 3):
                    q = range(n_free, n_free + n_q)
                    for s in sorted({0, 1, r // 2, r}):
                        for size in (0, 1, 3, 5):
                            sel = selectors.bit_prefix(free, s, range(min(size, 1 << s)), q)
                            assert selectors.mu(sel, r) == \
                                n_free * len(sel.targets) / (1 << s) + n_q
                    sel = selectors.bin_selector(free, 0, q)
                    assert selectors.mu(sel, r) == n_free / (1 << r) + n_q
                for l in sorted({0, 1, r // 2, r}):
                    sel = selectors.dyadic_interval(free, n_free, l)
                    assert selectors.mu(sel, r) == \
                        n_free * min(3.0 * (1 << l) / (1 << r), 1.0) + 1


class TestSSelectorProperty:
    def test_selection_invariant_under_free_bit_reseed(self):
        # replacing the free-bit slice of the top table cannot change selection
        spec = TornadoSpec(8, 2, 2, 8, Variant.TORNADO)
        h = TornadoHash.build(spec, 21)
        other = TornadoHash.build(spec, 22)
        keys = list(range(500))
        for sel in (
            selectors.bit_prefix(keys, 3, {0, 2}),
            selectors.dyadic_interval(keys, anchor=keys[0], interval_bits=5),
        ):
            s = selectors.selection_bit_count(sel, spec.out_bits)
            t = spec.out_bits - s
            mixed_top = []
            for a, b in zip(h.top_table, other.top_table):
                m = ((a >> np.uint64(t)) << np.uint64(t)) | (b & np.uint64((1 << t) - 1))
                m.flags.writeable = False
                mixed_top.append(m)
            h2 = TornadoHash(spec, h.seed, h.level_tables, mixed_top)
            assert selectors.select(sel, h) == selectors.select(sel, h2)


class TestIndependence:
    def test_singleton_independent(self):
        sel = selectors.fixed_set([5])
        assert selectors.selected_derived_independent(sel, build())

    def test_forced_zero_set_detected(self):
        # all-zero derivation tables keep an input zero-set a zero-set
        spec = TornadoSpec(4, 2, 2, 8, Variant.SIMPLE_TORNADO)
        h = TornadoHash.build(spec, 1)
        zero_levels = {lv: np.zeros_like(t) for lv, t in h.level_tables.items()}
        hz = TornadoHash(spec, 0, zero_levels, h.top_table)
        zero_set = [(2 << 4) | 0, (2 << 4) | 1, (7 << 4) | 0, (7 << 4) | 1]
        sel = selectors.fixed_set(zero_set)
        assert not selectors.selected_derived_independent(sel, hz)
        # with real derivation tables the same set is almost surely broken up
        assert selectors.selected_derived_independent(sel, TornadoHash.build(spec, 3))


class TestValidationAndJson:
    def test_bad_constructions(self):
        with pytest.raises(ConfigError):
            selectors.bit_prefix([1], -1, {0})
        with pytest.raises(ConfigError):
            selectors.bit_prefix([1], 2, {4})
        with pytest.raises(ConfigError):
            selectors.bit_prefix([1], 2, {0}, relative_to_query=True)
        with pytest.raises(ConfigError):
            selectors.bin_selector([1], None)
        with pytest.raises(ConfigError):
            selectors.dyadic_interval([1], 0, -1)

    @pytest.mark.parametrize("keys", [[1, None], [1, "2"], [3, 1.5], [0, True]], ids=repr)
    def test_candidates_reject_non_integer_keys(self, keys):
        """A key that is not an integer is a ConfigError before the keys are
        sorted, not a TypeError from comparing it with an int."""
        for sel in (selectors.Selector(selectors.SelectorKind.FIXED_SET, frozenset(keys)),
                    selectors.Selector(selectors.SelectorKind.BIN, frozenset([0]), frozenset(keys),
                                       bin_value=1)):
            with pytest.raises(ConfigError, match="integers"):
                selectors.candidates(sel, SPEC)

    @pytest.mark.parametrize("key", [-1, 2**64], ids=repr)
    def test_key_outside_64_bits_refused_at_construction(self, key):
        """A negative key got past every constructor to ``candidates``."""
        for make in (selectors.fixed_set, lambda ks: selectors.fixed_set([0], ks),
                     lambda ks: selectors.bit_prefix(ks, 1, {0}),
                     lambda ks: selectors.bin_selector([0], None, ks),
                     lambda ks: selectors.dyadic_interval(ks, 0, 2)):
            with pytest.raises(ConfigError, match="outside"):
                make([3, key])

    def test_candidates_sorted(self):
        keys = [2**15, 7, 0, 513, 2**16 - 1]
        assert selectors.candidates(selectors.fixed_set(keys), SPEC).tolist() == sorted(keys)

    def test_mu_rejects_wide_interval(self):
        sel = selectors.dyadic_interval([1], 0, 9)
        with pytest.raises(ConfigError):
            selectors.mu(sel, 8)

    @pytest.mark.parametrize(
        "sel",
        [
            selectors.fixed_set([1, 2, 3], [2]),
            selectors.bit_prefix(range(10), 4, {1, 3}, [5], True),
            selectors.dyadic_interval(range(10), 3, 2),
            selectors.bin_selector(range(10), 7, [1]),
            selectors.bin_selector(range(10), None, [1]),
        ],
    )
    def test_json_roundtrip(self, sel):
        assert selectors.from_json(selectors.to_json(sel)) == sel
