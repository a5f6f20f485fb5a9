import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tornadotab import experiments as ex
from tornadotab import bench, core, linprobe, rng, selectors
from tornadotab.core import ConfigError, TornadoHash, TornadoSpec, Variant
from tornadotab.gf2 import GenKey, genkey_from_key, is_linearly_independent
from trial_reference import per_trial_reference


def frac_dependence_bound(mu: int, d: int, sigma: int) -> Fraction:
    return 7 * Fraction(mu) ** 3 * Fraction(3, sigma) ** (d + 1) + Fraction(1, 2 ** (sigma // 2))


class TestBoundFormulas:
    def test_dependence_bound_exact(self):
        got = ex.dependence_bound(128, 4, 256)
        assert got == pytest.approx(float(frac_dependence_bound(128, 4, 256)), rel=1e-14)
        assert got == pytest.approx(3.2444000244140625e-3, rel=1e-12)

    def test_below_1_over_300_at_half_sigma(self):
        assert ex.dependence_bound(128, 4, 256) < 1 / 300

    def test_d_step_divides_by_sigma_over_3(self):
        for d in range(1, 6):
            a = ex.dependence_bound(50, d, 256) - 2.0**-128
            b = ex.dependence_bound(50, d + 1, 256) - 2.0**-128
            assert a / b == pytest.approx(256 / 3, rel=1e-9)

    def test_monotonicity(self):
        assert ex.dependence_bound(10, 4, 256) < ex.dependence_bound(20, 4, 256)
        assert ex.dependence_bound(10, 5, 256) < ex.dependence_bound(10, 4, 256)
        assert ex.dependence_bound(10, 4, 512) < ex.dependence_bound(10, 4, 256)

    def test_requires_positive_mu(self):
        with pytest.raises(ValueError):
            ex.dependence_bound(0, 4, 256)

    def test_small_sigma_is_silent(self):
        """Below sigma = 256 the report's verdict says the bound is out of its
        regime; the formulas themselves emit nothing."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ex.dependence_bound(8, 3, 16)
            ex.large_mu_bound(16, 0.5, 3, 16, 0)

    def test_mix_psi_equals_sigma_doubles_shifted_term(self):
        # 14 mu^3 (3/S)^2 (3/S)^(d-1) = 2 * 7 mu^3 (3/S)^(d+1)
        for d in range(2, 6):
            mix = ex.dependence_bound_mix(40, d, 256, 256) - 2.0**-128
            plain = ex.dependence_bound(40, d, 256) - 2.0**-128
            assert mix == pytest.approx(2 * plain, rel=1e-12)

    def test_mix_doubling_psi_divides_first_term_by_4(self):
        a = ex.dependence_bound_mix(2**12, 4, 256, 2**13) - 2.0**-128
        b = ex.dependence_bound_mix(2**12, 4, 256, 2**14) - 2.0**-128
        assert a / b == pytest.approx(4.0, rel=1e-12)

    def test_mix_finite_positive(self):
        v = ex.dependence_bound_mix(2**12, 4, 256, 2**13)
        assert 0 < v < 1

    def test_mix_requires_psi_ge_sigma(self):
        with pytest.raises(ValueError):
            ex.dependence_bound_mix(10, 4, 256, 128)

    def test_chernoff_values(self):
        assert ex.chernoff_bound(8, 1.0) == pytest.approx((math.e / 4) ** 8, rel=1e-12)
        assert ex.chernoff_bound(64, 0.5) == pytest.approx(
            (math.exp(0.5) / 1.5**1.5) ** 64, rel=1e-12
        )

    def test_chernoff_limit_vacuous(self):
        assert ex.chernoff_bound(10, 1e-9) == pytest.approx(1.0, abs=1e-6)

    def test_chernoff_monotone(self):
        assert ex.chernoff_bound(10, 0.5) > ex.chernoff_bound(10, 1.0)
        assert ex.chernoff_bound(20, 0.5) < ex.chernoff_bound(10, 0.5)

    def test_chernoff_rejects_nonpositive_delta(self):
        with pytest.raises(ValueError):
            ex.chernoff_bound(10, 0.0)

    def test_chaining_values(self):
        expect4 = math.e**3 / 4**4 + 7 * (3 / 256) ** 5 + 2.0**-128
        assert ex.chaining_bound(4, 4, 256) == pytest.approx(expect4, rel=1e-12)
        assert ex.chaining_bound(1, 4, 256) == pytest.approx(1.0 + 7 * (3 / 256) ** 5, rel=1e-9)

    def test_large_mu_bound(self):
        mu, delta, sigma = 512.0, 0.5, 256
        d0 = ex.large_mu_delta0(mu, delta, sigma, 0)
        assert d0 == pytest.approx(0.5)
        v = ex.large_mu_bound(mu, delta, 4, sigma, 0)
        expect = 4 * ex.chernoff_bound(128, d0) + 4 * ex.dependence_bound(128, 4, 256)
        assert v == pytest.approx(expect, rel=1e-12)
        assert 0 < v < 1

    def test_large_mu_delta0_with_queries(self):
        d0 = ex.large_mu_delta0(512, 0.5, 256, 16)
        assert d0 >= (1 - 16 / 128) * 0.5
        with pytest.raises(ValueError):
            ex.large_mu_bound(100, 0.5, 4, 256, 0)  # mu <= sigma/2
        with pytest.raises(ValueError):
            ex.large_mu_bound(512, 0.5, 4, 256, 200)  # too many queries


ENGINE_SPECS = [
    TornadoSpec(8, 3, 3, 20, Variant.TORNADO_MIX, psi_bits=16),  # psi-wide tail stride
    TornadoSpec(8, 3, 0, 16, Variant.SIMPLE_TABULATION),
    TornadoSpec(16, 1, 2, 16, Variant.TORNADO),  # c=1: no twist
    TornadoSpec(8, 8, 3, 64, Variant.TORNADO),
]


class TestChunkEngine:
    """The chunk engine, one lane walk over two entry sources, against the
    scalar path of one TornadoHash per trial."""

    @pytest.mark.parametrize("spec", ENGINE_SPECS, ids=lambda s: s.spec_string())
    @pytest.mark.parametrize("n_trials", [1, 5])
    @pytest.mark.parametrize("shared", [True, False], ids=["shared-keys", "per-trial-keys"])
    def test_matches_single_hash(self, spec, n_trials, shared):
        n = 200
        seeds = rng.trial_seed_vec(0x5EED, np.arange(n_trials, dtype=np.uint64))
        if shared:
            xs = rng.raw_key_stream(1, n, spec.key_bits)
        else:
            xs = np.stack([rng.raw_key_stream(2 + t, n, spec.key_bits) for t in range(n_trials)])
        want_chars, want_evals = per_trial_reference(spec, seeds, xs)
        for source in (core.Hashed(seeds), core.fold_stacks(spec, seeds, xs)):
            chars, evals = ex._derive_chunk(spec, source, xs)
            assert np.array_equal(chars, want_chars)
            assert np.array_equal(evals, want_evals)

    def test_filled_w64_chunks_fold(self, monkeypatch):
        """Each chunk makes one engine call, the lane walk through
        ``_derive_chunk``. A chunk that fills walks the lanes packed from its
        seeds, with a top entry if it evaluates, for any spec (a cb=16 chunk
        included); a sparse chunk walks entries hashed from its seeds, and so
        does a chunk that reads no entry, with no lanes. No chunk fills level
        or top tables, directly or through the aliases."""
        assert ex._derive_chunk is ex._eval_chunk is core.eval_folded_stack
        calls = []

        def recorded(name, fn):
            def run(*args):
                calls.append(name)
                return fn(*args)
            return run

        walk = ex._derive_chunk

        def walked(spec, source, xs, keep_chars):
            hashed = isinstance(source, core.Hashed)
            calls.append("hashed" if hashed else "packed")
            if not hashed:  # a chunk that fills reads some entry, so it packs some lane
                assert source
            return walk(spec, source, xs, keep_chars)

        monkeypatch.setattr(ex, "_derive_chunk", walked)
        for owner, attr, name in ((core, "eval_folded_stack", "walk outside _derive_chunk"),
                                  (core, "level_stacks", "level"),
                                  (ex, "_chunk_level_tables", "level"),
                                  (core, "top_stacks", "top"), (ex, "_chunk_top_tables", "top")):
            monkeypatch.setattr(owner, attr, recorded(name, getattr(owner, attr)))

        def route(spec, keys, evaluate, read=None):
            calls.clear()
            chunks = 0
            for *_, evals in ex.trial_blocks(spec, keys, evaluate, 5, 0, 3, read):
                assert (evals is None) is not evaluate
                chunks += 1
            assert len(calls) == chunks
            return sorted(set(calls))

        w64 = TornadoSpec(8, 2, 4, 6, Variant.TORNADO)
        assert route(w64, 256, True) == ["packed"]
        assert route(w64, np.arange(300, dtype=np.uint64), True) == ["packed"]
        assert route(w64, 255, True) == ["hashed"]
        assert route(w64, 256, False) == ["packed"]
        assert route(w64, np.arange(300, dtype=np.uint64), False) == ["packed"]
        assert route(w64, 255, False) == ["hashed"]
        assert route(w64, 300, True, np.arange(255)) == ["hashed"]
        assert route(w64, 300, True, np.arange(256)) == ["packed"]
        assert route(TornadoSpec(16, 2, 4, 16, Variant.TORNADO), 1 << 16, True) == ["packed"]
        mix = TornadoSpec(8, 2, 3, 16, Variant.TORNADO_MIX, psi_bits=10)
        assert route(mix, 256, True) == ["packed"]
        assert route(mix, 128, True) == ["hashed"]
        assert route(TornadoSpec(8, 3, 0, 16, Variant.SIMPLE_TABULATION), 256, False) == [
            "hashed"]

    @pytest.mark.parametrize("spec", [TornadoSpec(8, 2, 4, 16, Variant.TORNADO),
                                      TornadoSpec(8, 3, 3, 20, Variant.TORNADO_MIX, psi_bits=16)],
                             ids=lambda s: s.spec_string())
    def test_every_entry_is_read_through_field_value_vec(self, monkeypatch, spec):
        """With ``rng.field_value_vec`` giving zeros, a hashed chunk, a filled
        chunk and ``TornadoHash.build`` read only zero entries: every hash is
        0, and so is every derived position. A reader of table entries that
        bypassed it (acceptance tests 13-16 inject their mutants there) would
        show its own bits here."""
        def zeros(seed, kind, major, minor, slot):
            shapes = (np.shape(a) for a in (seed, kind, major, minor, slot))
            return np.zeros(np.broadcast_shapes(*shapes), dtype=np.uint64)

        monkeypatch.setattr(rng, "field_value_vec", zeros)
        for keys in (100, 300):  # hashed below sigma, filled from sigma on
            for _, _, _, chars, evals in ex.trial_blocks(spec, keys, True, 5, 0, 3):
                assert not evals.any() and not chars[:, :, spec.c:].any()
        h = core.TornadoHash.build(spec, 7)
        xs = rng.raw_key_stream(1, 500, spec.key_bits)
        assert not h.eval_batch(xs).any() and not h.derive_batch(xs)[:, spec.c:].any()
        assert all(h.eval(x) == 0 for x in xs[:20].tolist())

    @pytest.mark.parametrize("shared", [True, False], ids=["shared-keys", "per-trial-keys"])
    @pytest.mark.parametrize("n_read", [40, 300], ids=["hashed", "folded"])
    def test_read_columns(self, shared, n_read):
        """With ``read``, a chunk yields every key column, and the derived keys
        and hashes of the read columns, in their order, as a run over all
        columns gives them."""
        spec = TornadoSpec(8, 2, 4, 12, Variant.TORNADO)
        keys = rng.raw_key_stream(3, 400, spec.key_bits) if shared else 400
        read = np.r_[0:n_read - 10, 390:400]
        full = list(ex.trial_blocks(spec, keys, True, 9, 0, 3))
        part = list(ex.trial_blocks(spec, keys, True, 9, 0, 3, read))
        assert len(full) == len(part)
        for (_, _, xs, chars, evals), (_, _, ys, rchars, revals) in zip(full, part):
            assert np.array_equal(xs, ys)
            assert np.array_equal(chars[:, read], rchars)
            assert np.array_equal(evals[:, read], revals)

    def test_chaining_bin_counts_match_eval_batch(self):
        spec = TornadoSpec(8, 2, 4, 4, Variant.TORNADO)
        n, trials, seed = 16, 150, 0xC4A1
        in_bin0 = []
        for t in range(trials):
            ts = rng.trial_seed(seed, t)
            keys = rng.sample_distinct_keys(ts, n, spec.key_bits)
            in_bin0.append(int((TornadoHash.build(spec, ts).eval_batch(keys) == 0).sum()))
        # one threshold per possible count pins down the count distribution
        ks = range(1, max(in_bin0) + 2)
        for rep, k in zip(ex.chaining_tail(spec, n, ks, trials, seed), ks):
            assert rep.estimate * trials == sum(c >= k for c in in_bin0)


def reference_dependence_count(sel, spec, trials, seed):
    """Straightforward per-trial loop: build, select, derive, eliminate."""
    sizes = tuple(1 << spec.position_bits(i) for i in range(spec.positions))
    count = 0
    for t in range(trials):
        h = TornadoHash.build(spec, rng.trial_seed(seed, t))
        chosen = sorted(selectors.select(sel, h))
        gks = [GenKey.from_chars(h.derive(x), sizes) for x in chosen]
        count += not is_linearly_independent(gks)
    return count


class TestMeasureDependence:
    def test_engine_matches_reference_fixed_set(self):
        spec = TornadoSpec(4, 2, 2, 8, Variant.TORNADO)
        keys = [int(k) for k in rng.sample_distinct_keys(3, 8, 8)]
        sel = selectors.fixed_set(keys)
        trials, seed = 400, 0xFEED
        rep = ex.measure_dependence(sel, spec, trials, seed)
        assert rep.estimate * trials == reference_dependence_count(sel, spec, trials, seed)

    def test_engine_matches_reference_hard_instance(self):
        spec = TornadoSpec(4, 2, 2, 8, Variant.TORNADO)
        sel = selectors.hard_instance(4)
        trials, seed = 400, 0xBEEF
        rep = ex.measure_dependence(sel, spec, trials, seed)
        assert rep.estimate * trials == reference_dependence_count(sel, spec, trials, seed)

    def test_engine_matches_reference_bin_and_dyadic(self):
        spec = TornadoSpec(4, 2, 2, 8, Variant.TORNADO)
        keys = [int(k) for k in rng.sample_distinct_keys(5, 60, 8)]
        for sel in (
            selectors.bin_selector(keys, None, query_keys=keys[:1]),
            selectors.dyadic_interval(keys, anchor=keys[0], interval_bits=2),
        ):
            rep = ex.measure_dependence(sel, spec, 200, 7)
            assert rep.estimate * 200 == reference_dependence_count(sel, spec, 200, 7)

    def test_engine_matches_reference_tornado_mix(self):
        spec = TornadoSpec(4, 2, 2, 10, Variant.TORNADO_MIX, psi_bits=6)
        keys = [int(k) for k in rng.sample_distinct_keys(9, 25, 8)]
        sel = selectors.fixed_set(keys)
        rep = ex.measure_dependence(sel, spec, 300, 3)
        assert rep.estimate * 300 == reference_dependence_count(sel, spec, 300, 3)

    def test_d0_zero_set_certain(self):
        spec = TornadoSpec(4, 2, 0, 8, Variant.SIMPLE_TABULATION)
        zero_set = [(2 << 4) | 0, (2 << 4) | 1, (7 << 4) | 0, (7 << 4) | 1]
        rep = ex.measure_dependence(selectors.fixed_set(zero_set), spec, 50, 1)
        assert rep.estimate == 1.0

    def test_mu_cap_enforced(self):
        spec = TornadoSpec(4, 2, 2, 8, Variant.TORNADO)
        sel = selectors.fixed_set(range(9))  # mu = 9 > sigma/2 = 8
        with pytest.raises(ValueError):
            ex.measure_dependence(sel, spec, 10, 1)

    def test_reproducible(self):
        spec = TornadoSpec(4, 2, 1, 8, Variant.TORNADO)
        sel = selectors.hard_instance(4)
        a = ex.measure_dependence(sel, spec, 300, 42)
        b = ex.measure_dependence(sel, spec, 300, 42)
        assert a == b

    def test_workers_match_serial(self):
        spec = TornadoSpec(4, 2, 1, 8, Variant.TORNADO)
        sel = selectors.hard_instance(4)
        a = ex.measure_dependence(sel, spec, 301, 42, workers=1)
        b = ex.measure_dependence(sel, spec, 301, 42, workers=2)
        assert a == b

    def test_small_sigma_informational(self):
        spec = TornadoSpec(4, 2, 1, 8, Variant.TORNADO)
        rep = ex.measure_dependence(selectors.fixed_set([1, 2]), spec, 20, 1)
        assert rep.verdict is ex.Verdict.INFORMATIONAL

    def test_full_sigma_within_bound(self):
        spec = TornadoSpec(8, 2, 2, 8, Variant.TORNADO)
        rep = ex.measure_dependence(selectors.fixed_set([1, 2, 3]), spec, 50, 1)
        assert rep.verdict is ex.Verdict.WITHIN_BOUND

    def test_level_source_follows_key_count(self, monkeypatch):
        """Fewer keys than characters hash the level entries they read (a
        probing pool of n_star + queries keys included); the 512-key hard
        instance at sigma = 256 fills its tables into the folded stack, from
        the chunk's seeds."""
        def fold(spec, seeds, xs, top):
            assert np.ndim(xs) == 1
            raise RuntimeError("folded stack filled from the seeds")

        monkeypatch.setattr(core, "fold_stacks", fold)
        spec = TornadoSpec(8, 2, 3, 8, Variant.TORNADO)
        keys = [(a << 8) | b for a in range(32) for b in (0, 1)]
        ex.measure_dependence(selectors.fixed_set(keys), spec, 50, 1)
        probing = linprobe.probe_experiment(TornadoSpec(12, 2, 4, 12, Variant.TORNADO),
                                            1024, 4096, 64, 3, 1)
        assert probing.n_star + 64 < 4096
        with pytest.raises(RuntimeError, match="folded stack filled from the seeds"):
            ex.measure_dependence(selectors.hard_instance(8), spec, 50, 1)

    def test_hard_instance_chunk_hashes_only_the_slots_it_reads(self, monkeypatch):
        """The hard instance's position 0 holds two characters, and five
        tables read it: a chunk hashes 2 x 5 + 256 x (4 + 3 + 2 + 1) = 2570
        entries per trial at d = 3, where filling every slot hashes 10 level
        and 5 top tables of 256, 3840. Per-trial keys still fill every slot."""
        entries = []
        field_value_vec = rng.field_value_vec

        def counted(*args):
            out = field_value_vec(*args)
            entries.append(out.size)
            return out

        monkeypatch.setattr(rng, "field_value_vec", counted)
        spec = TornadoSpec(8, 2, 3, 8, Variant.TORNADO)
        keys = np.array(sorted(selectors.hard_instance(8).keys), dtype=np.uint64)
        for source, per_trial in ((keys, 2570), (len(keys), 3840)):
            entries.clear()
            [(_, seeds, *_)] = ex.trial_blocks(spec, source, True, 0x2026, 0, 64)
            assert sum(entries) == per_trial * len(seeds) == per_trial * 64


def peel_reference(chars, sizes, alive):
    """The round loop over the whole (B, n) block: each round counts every
    position's characters with a bincount of length B x alphabet."""
    n_trials, _, b = chars.shape
    alive = alive.copy()
    while True:
        kill = np.zeros_like(alive)
        for i in range(b):
            code = chars[:, :, i] + np.arange(n_trials)[:, None] * sizes[i]
            counts = np.bincount(code[alive], minlength=n_trials * sizes[i])
            kill |= alive & (counts[code] == 1)
        if not kill.any():
            return alive
        alive &= ~kill


def position_major(columns) -> np.ndarray:
    """(B, n, b) intp characters laid out as the engine lays them out, from b
    (B, n) columns."""
    b = len(columns)
    chars = np.empty((b,) + np.shape(columns[0]), dtype=np.intp).transpose(1, 2, 0)
    for i, col in enumerate(columns):
        chars[:, :, i] = col
    return chars


def random_block(seed, n_trials, n_keys, sizes, spread, density):
    """Characters drawn from the first ``spread`` of each alphabet, so that
    shared characters, and several peeling rounds, are common."""
    gen = np.random.default_rng(seed)
    chars = position_major([gen.integers(0, min(spread, s), (n_trials, n_keys)) for s in sizes])
    return chars, gen.random((n_trials, n_keys)) < density


def switching_block(n_trials):
    """Each trial's 16 keys at alphabet 256 peel in four steps, from the last
    position down: position 1 drops nothing; position 0 drops keys 0-11, which
    own their characters there; position 1 then drops key 12, which shared its
    character with key 0 alone; position 0 drops nothing, and keys 13-15 remain."""
    pos0 = np.r_[np.arange(10, 22), [0, 0, 0, 0]]
    pos1 = np.r_[[5], [7] * 11, [5, 6, 6, 6]]
    chars = position_major([np.tile(pos0, (n_trials, 1)), np.tile(pos1, (n_trials, 1))])
    return chars, np.ones((n_trials, 16), dtype=bool)


def cascade_block(n_trials):
    """Each trial's 8 keys peel along a chain that alternates positions: key 0
    alone owns its position-1 character, and each kill leaves the next key's
    character at the other position unique, so the loop comes back to each
    position several times before keys 6 and 7 remain. Trials permute the keys."""
    pos0 = np.array([1, 1, 2, 2, 3, 3, 9, 9])
    pos1 = np.array([50, 51, 51, 52, 52, 53, 53, 53])
    order = np.array([np.random.default_rng(t).permutation(8) for t in range(n_trials)])
    return position_major([pos0[order], pos1[order]]), np.ones((n_trials, 8), dtype=bool), order


class TestPeeling:
    """``_peel_alive`` on its compacted key list against the whole-block
    round loop, and peeling plus elimination against elimination alone."""

    # (sizes, trials, keys, spread, alive density): every case but the empty
    # one peels over several rounds; all leave keys alive except "to-nothing",
    # which turns to sorting once few are left
    CASES = {
        "one-trial": ((256, 256, 256), 1, 40, 16, 1.0),
        "nothing-alive": ((256, 256, 256), 5, 30, 16, 0.0),
        "everything-alive": ((16, 16, 16, 16), 50, 30, 12, 1.0),
        "to-nothing": ((16, 16, 16, 16), 50, 30, 16, 1.0),
        "mixed-alphabets": ((256, 256, 1 << 16, 1 << 16), 30, 64, 16, 0.8),
        "bincount": ((16, 16, 16), 40, 50, 12, 0.7),
        "sort": ((1 << 16,) * 3, 20, 12, 6, 0.9),
    }

    @pytest.mark.parametrize("case", CASES.values(), ids=list(CASES))
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_whole_block_rounds(self, case, seed):
        sizes, n_trials, n_keys, spread, density = case
        chars, alive = random_block(seed, n_trials, n_keys, sizes, spread, density)
        before = alive.copy()
        got = ex._peel_alive(chars, sizes, alive)
        assert got.shape == alive.shape and got.dtype == bool
        assert np.array_equal(got, peel_reference(chars, sizes, alive))
        assert np.array_equal(alive, before)

    @pytest.mark.parametrize("n_trials", [1, 4])
    def test_counting_switches_between_rounds(self, monkeypatch, n_trials):
        """The dense first step and the second count 16 keys a trial with a
        bincount, the two steps after them the few left by sorting; the result
        is the reference's."""
        chars, alive = switching_block(n_trials)
        want = peel_reference(chars, (256, 256), alive)
        assert want[:, 13:].all() and not want[:, :13].any()
        calls = []

        def spy(name):
            real = getattr(np, name)

            def counted(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return counted

        for name in ("bincount", "unique"):
            monkeypatch.setattr(np, name, spy(name))
        got = ex._peel_alive(chars, (256, 256), alive)
        assert calls == ["bincount"] * 2 + ["unique"] * 2
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("n_trials", [1, 5])
    def test_cascade_comes_back_to_each_position(self, monkeypatch, n_trials):
        """The last position drops key 0 first, and every kill after it is found
        by coming back to the other position: steps alternate 1, 0, 1, ... until
        the step after the last kill drops nothing."""
        chars, alive, order = cascade_block(n_trials)
        want = peel_reference(chars, (64, 256), alive)
        assert np.array_equal(want, order >= 6)
        positions = []
        occurs_once = ex._occurs_once

        def step(code, n_codes):
            positions.append({64 * n_trials: 0, 256 * n_trials: 1}[n_codes])
            return occurs_once(code, n_codes)

        monkeypatch.setattr(ex, "_occurs_once", step)
        assert np.array_equal(ex._peel_alive(chars, (64, 256), alive), want)
        assert positions == [1, 0] * 3 + [1]

    def test_alive_as_strided_view(self):
        chars, alive = random_block(7, 12, 40, (256, 256, 256), 5, 0.9)
        wide = np.zeros((12, 80), dtype=bool)
        wide[:, ::2] = alive
        assert np.array_equal(ex._peel_alive(chars, (256,) * 3, wide[:, ::2]),
                              peel_reference(chars, (256,) * 3, alive))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32), n_trials=st.integers(1, 6), n_keys=st.integers(1, 40),
           sizes=st.sampled_from([(4, 4), (16, 16, 16), (256, 256, 1 << 16, 1 << 16),
                                  (2, 1024)]),
           spread=st.integers(1, 8), density=st.sampled_from([0.0, 0.5, 1.0]))
    def test_random_blocks(self, seed, n_trials, n_keys, sizes, spread, density):
        chars, alive = random_block(seed, n_trials, n_keys, sizes, spread, density)
        assert np.array_equal(ex._peel_alive(chars, sizes, alive),
                              peel_reference(chars, sizes, alive))

    @pytest.mark.parametrize("sizes", [(4, 4, 4), (2, 2, 8, 8)])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_dependent_rows_match_elimination_without_peeling(self, sizes, seed):
        chars, alive = random_block(seed, 300, 7, sizes, 8, 0.8)
        want = [not is_linearly_independent(GenKey.from_chars(row.tolist(), sizes)
                                            for row in chars[t][alive[t]])
                for t in range(300)]
        got = ex._dependent_rows(chars, sizes, alive)
        assert got.tolist() == want
        assert 0 < sum(want) < 300


class TestExactUniformity:
    def test_three_independent_keys_equidistributed(self):
        keys = [genkey_from_key(x, 2, 2) for x in (0b0000, 0b0001, 0b0100)]
        assert ex.exact_uniformity_check(2, 2, 2, keys)

    def test_single_key_uniform(self):
        assert ex.exact_uniformity_check(2, 1, 1, [genkey_from_key(0b01, 2, 1)])

    def test_zero_set_fails(self):
        keys = [genkey_from_key(x, 2, 2) for x in (0b0000, 0b0001, 0b0100, 0b0101)]
        assert not ex.exact_uniformity_check(2, 2, 2, keys)

    def test_counts_match_expected_value(self):
        # dual route: tuple counts computed directly
        sigma, b, rbits = 4, 2, 2
        keys = [genkey_from_key(x, b, 2) for x in (0b0000, 0b0001, 0b0100)]
        total = (1 << rbits) ** (b * sigma)
        per_tuple = total // (1 << rbits) ** len(keys)
        assert per_tuple == 1024
        counts = {}
        for filling in range(total):
            entries = [(filling >> (rbits * e)) & 3 for e in range(b * sigma)]
            tup = []
            for k in keys:
                v = 0
                for pos, ch in k.position_chars():
                    v ^= entries[pos * sigma + ch]
                tup.append(v)
            counts[tuple(tup)] = counts.get(tuple(tup), 0) + 1
        assert set(counts.values()) == {1024}
        assert len(counts) == 64

    def test_generalized_keys_accepted(self):
        # a diff-key style generalized key with two chars in one position
        gk = GenKey((4, 4), 0b0011)
        assert ex.exact_uniformity_check(2, 2, 2, [gk])

    def test_state_space_guard(self):
        keys = [genkey_from_key(0, 2, 4)]
        with pytest.raises(ValueError):
            ex.exact_uniformity_check(2, 4, 8, keys)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ex.exact_uniformity_check(2, 2, 2, [])

    def test_key_of_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="does not match the declared shape"):
            ex.exact_uniformity_check(1, 1, 1, [GenKey((2, 2), 1)])

    def test_key_that_is_not_a_genkey_rejected(self):
        with pytest.raises(ValueError, match="not a generalized key"):
            ex.exact_uniformity_check(2, 2, 2, [genkey_from_key(1, 2, 2), 5])

    def test_more_keys_than_entries_not_uniform(self):
        """More keys than table entries are linearly dependent; the check says
        so before it counts, which for 70 keys would take 2^70 counters."""
        assert not ex.exact_uniformity_check(1, 1, 1, [GenKey((2,), v) for v in (1, 2, 3)])
        assert not ex.exact_uniformity_check(1, 1, 1, [GenKey((2,), 1)] * 70)

    def test_at_the_state_space_limit(self):
        # 3 positions x 4 characters x 2 output bits: 2^24 fillings
        keys = [genkey_from_key(x, 3, 2) for x in (0, 1, 4, 16)]
        assert ex.exact_uniformity_check(3, 2, 2, keys)


ZS16 = [(2 << 4) | 0, (2 << 4) | 1, (7 << 4) | 0, (7 << 4) | 1]
ZS4 = [(2 << 2) | 0, (2 << 2) | 1, (3 << 2) | 0, (3 << 2) | 1]


def reference_survival_count(spec, zero_set, trials, seed, rounds):
    """Survival via full table builds and explicit zero-set checks."""
    count = 0
    check_spec = TornadoSpec(spec.char_bits, spec.c, rounds, 1, Variant.SIMPLE_TORNADO)
    sizes = (check_spec.sigma,) * check_spec.positions
    for t in range(trials):
        h = TornadoHash.build(check_spec, rng.trial_seed(seed, t))
        acc = None
        for x in zero_set:
            gk = GenKey.from_chars(h.derive(x), sizes)
            acc = gk if acc is None else acc ^ gk
        count += acc.is_empty
    return count


class TestSurvival:
    def test_formula_targets(self):
        r = ex.survival_rounds(
            TornadoSpec(4, 2, 1, 1, Variant.SIMPLE_TORNADO), ZS16, 1000, 5, 1
        )
        assert r.bound == 0.1796875
        r256 = ex.survival_rounds(
            TornadoSpec(8, 2, 1, 1, Variant.SIMPLE_TORNADO),
            [(9 << 8) | 0, (9 << 8) | 1, (200 << 8) | 0, (200 << 8) | 1],
            10,
            5,
            1,
        )
        assert r256.bound == pytest.approx((3 - 2 / 256) / 256)

    def test_vectorized_matches_build_reference(self):
        spec = TornadoSpec(4, 2, 2, 1, Variant.SIMPLE_TORNADO)
        trials, seed = 3000, 0xAB
        rep = ex.survival_rounds(spec, ZS16, trials, seed, spec.d)
        assert rep.estimate * trials == reference_survival_count(spec, ZS16, trials, seed, 2)

    def test_one_round_is_d_rounds_with_d1(self):
        spec = TornadoSpec(4, 2, 1, 1, Variant.SIMPLE_TORNADO)
        a = ex.survival_rounds(spec, ZS16, 2000, 9, 1)
        b = ex.survival_rounds(spec, ZS16, 2000, 9, spec.d)
        assert a.estimate == b.estimate

    def test_zero_rounds_certain(self):
        spec = TornadoSpec(4, 2, 1, 1, Variant.SIMPLE_TORNADO)
        assert ex.survival_rounds(spec, ZS16, 100, 1, 0).estimate == 1.0

    def test_exact_enumeration_sigma4(self):
        exact = ex.survival_one_round_exact(2, 2, ZS4)
        assert exact == Fraction(5, 8)
        assert float(exact) == (3 - 2 / 4) / 4

    def test_exact_at_the_state_space_limit(self):
        # c = 3 level-1 tables of 4 two-bit entries: 2^24 fillings
        assert ex.survival_one_round_exact(2, 3, ZS4) == Fraction(5, 8)

    def test_exact_shares_the_uniformity_guard(self):
        # uniformity one bit past the limit; survival's state space is
        # cb * c * 2^cb bits, whose first value past the limit is 26
        with pytest.raises(ValueError, match=r"^state space 2\^25 too large to enumerate$"):
            ex.exact_uniformity_check(5, 0, 5, [GenKey.from_chars([0] * 5, (1,) * 5)])
        with pytest.raises(ValueError, match=r"^state space 2\^26 too large to enumerate$"):
            ex.survival_one_round_exact(1, 13, [0, 1, 2, 3])

    def test_exact_matches_scalar_reference_sigma4(self):
        # every level-1 filling, derived one key at a time by the scalar path
        spec = TornadoSpec(2, 2, 1, 1, Variant.SIMPLE_TORNADO)
        top = [np.zeros(4, dtype=np.uint64)] * spec.positions
        survived = 0
        for filling in range(1 << 16):
            entries = [(filling >> (2 * e)) & 3 for e in range(8)]
            table = np.array(entries, dtype=np.uint32).reshape(2, 4)
            h = TornadoHash(spec, 0, {1: table}, top)
            v = sorted(h.derive(x)[2] for x in ZS4)
            survived += v[0] == v[1] and v[2] == v[3]
        exact = ex.survival_one_round_exact(2, 2, ZS4)
        assert Fraction(survived, 1 << 16) == exact == Fraction(5, 8)

    def test_monte_carlo_matches_exact_sigma4(self):
        spec = TornadoSpec(2, 2, 1, 1, Variant.SIMPLE_TORNADO)
        rep = ex.survival_rounds(spec, ZS4, 200000, 3, 1)
        assert abs(rep.estimate - 0.625) <= 4 * rep.stderr

    def test_monte_carlo_sigma256(self):
        spec = TornadoSpec(8, 2, 1, 1, Variant.SIMPLE_TORNADO)
        zs = [(9 << 8) | 0, (9 << 8) | 1, (200 << 8) | 0, (200 << 8) | 1]
        rep = ex.survival_rounds(spec, zs, 400000, 3, 1)
        assert rep.bound == pytest.approx(0.011688232421875)
        assert abs(rep.estimate - rep.bound) <= 4 * rep.stderr

    def test_validation(self):
        spec = TornadoSpec(4, 2, 1, 1, Variant.SIMPLE_TORNADO)
        with pytest.raises(ValueError):
            ex.survival_rounds(spec, [1, 2, 3], 10, 1, 1)
        with pytest.raises(ValueError):
            ex.survival_rounds(spec, [1, 2, 3, 4], 10, 1, 1)  # not a zero-set
        with pytest.raises(ValueError):
            ex.survival_rounds(spec, [0x100, 0x101, 0x1F0, 0x1F1], 10, 1, 1)  # range
        with pytest.raises(ValueError):
            ex.survival_rounds(TornadoSpec(4, 2, 1, 1, Variant.TORNADO), ZS16, 10, 1, 1)
        with pytest.raises(ValueError):
            spec = TornadoSpec(4, 1, 1, 1, Variant.SIMPLE_TORNADO)
            ex.survival_rounds(spec, [0, 1, 2, 3], 10, 1, spec.d)


class TestChaining:
    def test_small_run_monotone_and_bounded(self):
        spec = TornadoSpec(8, 2, 4, 4, Variant.TORNADO)
        reports = ex.chaining_tail(spec, 16, [1, 2, 4], 300, 11)
        ests = [r.estimate for r in reports]
        assert ests == sorted(ests, reverse=True)
        assert reports[0].bound >= 1.0  # k=1 bound is vacuous

    def test_rejects_non_power_of_two(self):
        spec = TornadoSpec(8, 2, 4, 8, Variant.TORNADO)
        with pytest.raises(ValueError):
            ex.chaining_tail(spec, 255, [4], 10, 1)

    def test_rejects_mismatched_out_bits(self):
        spec = TornadoSpec(8, 2, 4, 8, Variant.TORNADO)
        with pytest.raises(ValueError):
            ex.chaining_tail(spec, 128, [4], 10, 1)

    def test_samples_keys_once_per_chunk(self, monkeypatch):
        spec = TornadoSpec(8, 2, 4, 8, Variant.TORNADO)
        chunks = [len(s) for _, s, *_ in ex.trial_blocks(spec, 256, True, 5, 0, 3000)]
        assert len(chunks) > 1
        sample = rng.sample_distinct_keys
        calls = []

        def counted(seed, n, bits):
            calls.append(np.shape(seed))
            return sample(seed, n, bits)

        monkeypatch.setattr(rng, "sample_distinct_keys", counted)
        ex.chaining_tail(spec, 256, [4], 3000, 5)
        assert calls == [(b,) for b in chunks]

    def test_reproducible(self):
        spec = TornadoSpec(8, 2, 4, 4, Variant.TORNADO)
        a = ex.chaining_tail(spec, 16, [2], 200, 5)
        b = ex.chaining_tail(spec, 16, [2], 200, 5)
        assert a == b


class TestChernoffTail:
    def test_counts_against_reference(self):
        spec = TornadoSpec(4, 2, 2, 4, Variant.TORNADO)
        keys = [int(k) for k in rng.sample_distinct_keys(1, 64, 8)]
        sel = selectors.bin_selector(keys, 0)
        mu = selectors.mu(sel, 4)
        delta = 0.5
        rep = ex.chernoff_tail(sel, spec, delta, 300, 17)
        # reference loop
        sizes = tuple(1 << spec.position_bits(i) for i in range(spec.positions))
        count = 0
        for t in range(300):
            h = TornadoHash.build(spec, rng.trial_seed(17, t))
            chosen = sorted(selectors.select(sel, h))
            if len(chosen) >= (1 + delta) * mu:
                gks = [GenKey.from_chars(h.derive(x), sizes) for x in chosen]
                count += is_linearly_independent(gks)
        assert rep.estimate * 300 == count

    def test_rejects_bad_delta(self):
        spec = TornadoSpec(8, 2, 2, 8, Variant.TORNADO)
        with pytest.raises(ValueError):
            ex.chernoff_tail(selectors.fixed_set([1]), spec, 0.0, 10, 1)

    def test_empty_selection_rejected(self):
        # mu = 0 would make the bound exp(0) = 1 and the threshold 0: WithinBound
        spec = TornadoSpec(8, 2, 2, 6, Variant.TORNADO)
        with pytest.raises(ValueError, match="mu must be positive"):
            ex.chernoff_tail(selectors.bin_selector([], 0), spec, 0.5, 10, 1)
        with pytest.raises(ValueError, match="mu must be positive"):
            ex.measure_dependence(selectors.fixed_set([]), spec, 10, 1)


def reference_tail_counts(spec, sel, keys, seed, threshold, trials):
    """``_tail_range``'s (histogram, dependent count) over [0, trials), from
    each trial's own TornadoHash through ``per_trial_reference``."""
    seeds = rng.trial_seed_vec(seed, np.arange(trials, dtype=np.uint64))
    n = keys if isinstance(keys, int) else len(keys)
    xs = rng.sample_distinct_keys(seeds, n, spec.key_bits) if isinstance(keys, int) else keys
    chars, evals = per_trial_reference(spec, seeds, xs)
    mask = selectors.selection_mask(sel, xs, evals, spec.out_bits)
    sizes = tuple(1 << spec.position_bits(i) for i in range(spec.positions))
    dependent = sum(
        not is_linearly_independent(GenKey.from_chars(row, sizes) for row in chars[t][m].tolist())
        for t, m in enumerate(mask) if m.sum() >= threshold)
    return np.bincount(mask.sum(axis=1), minlength=n + 1), dependent


# (spec, selector, keys: the shared candidates or n per trial, threshold, the
# route of the flagged rows' walk); every threshold lies above mu + 1.5 sqrt(mu).
# The 15 shared keys of the hashed shape are a 4 x 4 grid but one, so their
# input characters hold zero-sets.
GRID15 = [(a << 4) | b for a in range(4) for b in range(4)][:15]
TAIL_SHAPES = {
    "shared-hashed": (TornadoSpec(4, 2, 1, 2, Variant.TORNADO),
                      selectors.bin_selector(GRID15, 0), 15, 8, core.Hashed),
    "shared-filled": (TornadoSpec(4, 2, 1, 3, Variant.TORNADO),
                      selectors.bin_selector(range(64), 0), 64, 14, list),
    "per-trial": (TornadoSpec(3, 2, 1, 2, Variant.TORNADO), selectors.bin_selector((), 0), 40,
                  15, list),
}


class TestTailRange:
    """A chunk walked without derived characters, and its flagged trials
    walked again, against each trial's own TornadoHash."""

    @staticmethod
    def recorded_walks(monkeypatch):
        walks, walk = [], ex._derive_chunk

        def recorded(spec, source, xs, keep_chars):
            hashed = isinstance(source, core.Hashed)
            trials = len(source.seeds) if hashed else len(source[0].words[0])
            walks.append((type(source), trials, keep_chars))
            return walk(spec, source, xs, keep_chars)

        monkeypatch.setattr(ex, "_derive_chunk", recorded)
        return walks

    @pytest.mark.parametrize("shape", sorted(TAIL_SHAPES))
    def test_rederived_rows_match_reference(self, monkeypatch, shape):
        spec, sel, n, threshold, route = TAIL_SHAPES[shape]
        keys = n if shape == "per-trial" else selectors.candidates(sel, spec)
        mu = selectors.mu(sel, spec.out_bits)
        assert threshold > mu + 1.5 * math.sqrt(mu)
        walks = self.recorded_walks(monkeypatch)
        trials = 300
        hist, dependent = ex._tail_range((spec, sel, keys, 0x2026, threshold, 0, trials))
        want_hist, want_dependent = reference_tail_counts(spec, sel, keys, 0x2026, threshold,
                                                          trials)
        assert np.array_equal(hist, want_hist)
        assert dependent == want_dependent
        flagged = int(hist[threshold:].sum())
        assert flagged > 0 and dependent > 0
        # one chunk walked with no characters, then its flagged rows with them
        assert walks[0][2] is False and walks[0][1] == trials
        assert walks[1:] == [(route, flagged, True)]

    def test_chunk_with_no_flagged_trial_walks_once(self, monkeypatch):
        spec, sel, n, _, _ = TAIL_SHAPES["shared-filled"]
        walks = self.recorded_walks(monkeypatch)
        hist, dependent = ex._tail_range(
            (spec, sel, selectors.candidates(sel, spec), 0x2026, n + 1, 0, 300))
        assert dependent == 0 and hist.sum() == 300
        assert walks == [(list, 300, False)]

    def test_walk_keeps_characters_when_most_trials_may_flag(self, monkeypatch):
        """At a threshold of at most mu + 1.5 sqrt(mu), and for a fixed set,
        the chunk's one walk keeps the characters the flagged trials read."""
        spec, sel, *_ = TAIL_SHAPES["shared-filled"]
        keys = selectors.candidates(sel, spec)
        walks = self.recorded_walks(monkeypatch)
        mu = selectors.mu(sel, spec.out_bits)
        ex._tail_range((spec, sel, keys, 0x2026, mu + 1.5 * math.sqrt(mu), 0, 300))
        ex._tail_range((spec, selectors.fixed_set(range(64)), keys, 0x2026, 0, 0, 300))
        assert walks == [(list, 300, True)] * 2


class TestLargeMu:
    def test_estimate_zero_when_threshold_exceeds_population(self):
        spec = TornadoSpec(8, 2, 2, 2, Variant.TORNADO)
        keys = [int(k) for k in rng.sample_distinct_keys(2, 600, 16)]
        sel = selectors.bin_selector(keys, 0)  # mu = 150 > sigma/2 = 128
        rep = ex.large_mu_tail(sel, spec, 5.0, 50, 3)
        assert rep.estimate == 0.0

    def test_monotone_in_delta(self):
        spec = TornadoSpec(4, 2, 2, 1, Variant.TORNADO)
        keys = [int(k) for k in rng.sample_distinct_keys(2, 40, 8)]
        sel = selectors.bin_selector(keys, 0)  # mu = 20 > 8
        a = ex.large_mu_tail(sel, spec, 0.1, 400, 3)
        b = ex.large_mu_tail(sel, spec, 0.3, 400, 3)
        assert a.estimate >= b.estimate


SPEC_G = TornadoSpec(4, 2, 2, 4, Variant.TORNADO)
SPEC_S = TornadoSpec(4, 2, 1, 1, Variant.SIMPLE_TORNADO)
SPEC_P = TornadoSpec(8, 2, 2, 10, Variant.TORNADO)
KEYS_G = [1, 2, 3, 40]
COUNTED_ENTRY_POINTS = {
    "dependence": lambda trials, seed=1: ex.measure_dependence(
        selectors.fixed_set(KEYS_G), SPEC_G, trials, seed),
    "chernoff": lambda trials, seed=1: ex.chernoff_tail(
        selectors.bin_selector(KEYS_G, 0), SPEC_G, 0.5, trials, seed),
    "large_mu": lambda trials, seed=1: ex.large_mu_tail(  # mu = 20 > sigma/2
        selectors.bin_selector(range(40), 0), TornadoSpec(4, 2, 2, 1, Variant.TORNADO), 0.5,
        trials, seed),
    "chaining": lambda trials, seed=1: ex.chaining_tail(SPEC_G, 16, [2], trials, seed),
    "survival": lambda trials, seed=1: ex.survival_rounds(SPEC_S, ZS16, trials, seed, 1),
}


# calls with a bool or a float where an entry point takes an integer, or a bool
# or a string for a real: unchecked, each would run with the bool as a number
# or fail inside the engine with a TypeError or IndexError
BAD_PARAMETERS = {
    "probe-n-bool": lambda: linprobe.probe_experiment(SPEC_P, True, 1024, 16, 2, 1),
    "probe-n-float": lambda: linprobe.probe_experiment(SPEC_P, 100.0, 1024, 16, 2, 1),
    "survival-rounds-bool": lambda: ex.survival_rounds(SPEC_S, ZS16, 10, 1, True),
    "survival-rounds-float": lambda: ex.survival_rounds(SPEC_S, ZS16, 10, 1, 1.5),
    "chaining-k-bool": lambda: ex.chaining_tail(SPEC_G, 16, [True], 10, 1),
    "chaining-n-float": lambda: ex.chaining_tail(SPEC_G, 16.0, [2], 10, 1),
    "chernoff-delta-bool": lambda: ex.chernoff_tail(
        selectors.bin_selector(KEYS_G, 0), SPEC_G, True, 10, 1),
    "dependence-seed-bool": lambda: COUNTED_ENTRY_POINTS["dependence"](10, True),
    "probe-m-float": lambda: linprobe.probe_experiment(SPEC_P, 100, 1024.0, 16, 2, 1),
    "probe-table-float": lambda: linprobe.ProbeTable(4.0),
    "chernoff-delta-str": lambda: ex.chernoff_tail(
        selectors.bin_selector(KEYS_G, 0), SPEC_G, "0.5", 10, 1),
    "probe-star-delta-str": lambda: linprobe.probe_experiment(SPEC_P, 100, 1024, 16, 2, 1,
                                                              star_delta="0.1"),
}

# a bad value of each kind; "float" goes where an integer is taken,
# "overflow" is a finite delta whose threshold (1 + delta) * mu is inf, and
# "huge" an int too large for a float
BAD_VALUES = {"bool": True, "float": 2.5, "negative": -1, "nan": math.nan, "inf": math.inf,
              "overflow": 1e308, "huge": 10**400}
LARGE_MU = (selectors.bin_selector(range(40), 0), TornadoSpec(4, 2, 2, 1, Variant.TORNADO))
KEYS3 = [genkey_from_key(x, 2, 2) for x in (0b0000, 0b0001, 0b0100)]
# every numeric parameter of experiments, linprobe, selectors and
# bench.throughput not covered above, with the kinds of bad value that each
# ran with, or failed on with an error other than ValueError
NUMERIC_PARAMETERS = {
    "dependence-workers": (lambda v: ex.measure_dependence(
        selectors.fixed_set(KEYS_G), SPEC_G, 10, 1, workers=v), "bool float negative nan inf"),
    "chernoff-workers": (lambda v: ex.chernoff_tail(
        selectors.bin_selector(KEYS_G, 0), SPEC_G, 0.5, 10, 1, workers=v),
        "bool float negative nan inf"),
    "large-mu-workers": (lambda v: ex.large_mu_tail(*LARGE_MU, 0.5, 10, 1, workers=v),
                         "bool float negative nan inf"),
    "chaining-workers": (lambda v: ex.chaining_tail(SPEC_G, 16, [2], 10, 1, workers=v),
                         "bool float negative nan inf"),
    "chernoff-delta": (lambda v: ex.chernoff_tail(  # mu = 4
        selectors.bin_selector(range(64), 0), SPEC_G, v, 10, 1), "overflow huge"),
    "large-mu-delta": (lambda v: ex.large_mu_tail(*LARGE_MU, v, 10, 1), "overflow huge"),
    "uniformity-b": (lambda v: ex.exact_uniformity_check(v, 2, 2, [genkey_from_key(1, 1, 2)]),
                     "bool float nan inf"),
    "uniformity-alphabet-bits": (lambda v: ex.exact_uniformity_check(2, v, 2, KEYS3),
                                 "float nan inf"),
    "uniformity-out-bits": (lambda v: ex.exact_uniformity_check(2, 2, v, KEYS3),
                            "bool float negative"),
    "dkw-n": (lambda v: linprobe.dkw_tolerance(v, 100), "bool float nan inf"),
    "dkw-confidence": (lambda v: linprobe.dkw_tolerance(100, 100, v), "bool negative nan"),
    "prefix-s": (lambda v: selectors.bit_prefix(range(8), v, {0}), "bool float nan inf"),
    "prefix-target": (lambda v: selectors.bit_prefix(range(8), 2, {v}), "bool float nan inf"),
    "dyadic-interval-bits": (lambda v: selectors.dyadic_interval(range(8), 0, v),
                             "bool float nan inf"),
    "bin-value": (lambda v: selectors.bin_selector(range(8), v), "bool float negative nan inf"),
    "hard-instance-char-bits": (selectors.hard_instance, "bool float nan inf"),
    "mu-out-bits": (lambda v: selectors.mu(selectors.hard_instance(4), v), "float nan inf"),
    "throughput-n-keys": (lambda v: bench.throughput("poly2-mersenne", v, 1), "bool float"),
    "throughput-reps": (lambda v: bench.throughput("poly2-mersenne", 10, v), "bool float nan inf"),
    "throughput-seed": (lambda v: bench.throughput("poly2-mersenne", 10, 1, v),
                        "bool float negative nan inf"),
}
BAD_PARAMETERS.update({f"{name}-{kind}": lambda call=call, kind=kind: call(BAD_VALUES[kind])
                       for name, (call, kinds) in NUMERIC_PARAMETERS.items()
                       for kind in kinds.split()})

# NumPy integer counts: each report must hold plain ints, or it cannot be
# written out as JSON
NUMPY_COUNTS = {
    "chaining-trials": lambda: ex.chaining_tail(SPEC_G, 16, [2], np.int64(5), 1),
    "chaining-k": lambda: ex.chaining_tail(SPEC_G, 16, [np.int64(2)], 5, 1),
    "chaining-n": lambda: ex.chaining_tail(SPEC_G, np.int64(16), [2], 5, 1),
    "survival-rounds": lambda: [ex.survival_rounds(SPEC_S, ZS16, 5, 1, np.int64(2))],
    "survival-trials": lambda: [ex.survival_rounds(SPEC_S, ZS16, np.int64(5), 1, 1)],
    "dependence-trials": lambda: [COUNTED_ENTRY_POINTS["dependence"](np.int64(5))],
    "chernoff-trials": lambda: [COUNTED_ENTRY_POINTS["chernoff"](np.int64(5))],
    "large-mu-trials": lambda: [COUNTED_ENTRY_POINTS["large_mu"](np.int64(5))],
    "probe-counts": lambda: linprobe.probe_experiment(
        SPEC_P, np.int64(100), np.int64(1024), np.int64(16), np.int64(2), 1).to_reports(),
    # and NumPy real parameters, plain floats
    "chernoff-delta": lambda: [ex.chernoff_tail(
        selectors.bin_selector(KEYS_G, 0), SPEC_G, np.float32(0.5), 5, 1)],
    "large-mu-delta": lambda: [ex.large_mu_tail(*LARGE_MU, np.float32(0.5), 5, 1)],
    "probe-star-delta": lambda: linprobe.probe_experiment(
        SPEC_P, 100, 1024, 16, 2, 1, star_delta=np.float32(0.1)).to_reports(),
}


class TestDegenerateRuns:
    @pytest.mark.parametrize("entry", sorted(BAD_PARAMETERS))
    def test_bad_number_rejected_before_any_trial(self, monkeypatch, entry):
        monkeypatch.setattr(ex, "_run_ranges", None)  # the tail experiments' trial run
        monkeypatch.setattr(ex, "trial_blocks", None)  # survival's
        monkeypatch.setattr(linprobe, "trial_blocks", None)  # probing's
        with pytest.raises(ValueError):  # a ConfigError is a ValueError
            BAD_PARAMETERS[entry]()

    @pytest.mark.parametrize("entry", sorted(NUMPY_COUNTS))
    def test_numpy_integer_counts_give_plain_ints(self, entry):
        reports = NUMPY_COUNTS[entry]()
        parsed = json.loads(ex.reports_to_json(reports))
        assert all(type(r["trials"]) is int for r in parsed)

    @pytest.mark.parametrize("entry", sorted(COUNTED_ENTRY_POINTS))
    @pytest.mark.parametrize("trials", [0, -5])
    def test_trial_count_below_one_rejected(self, entry, trials):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            COUNTED_ENTRY_POINTS[entry](trials)

    @pytest.mark.parametrize("entry", sorted(COUNTED_ENTRY_POINTS))
    @pytest.mark.parametrize("trials", [True, 2.5, np.float64(3), "3"], ids=repr)
    def test_trial_count_not_an_integer_rejected(self, monkeypatch, entry, trials):
        """``True`` would run one trial and report ``trials`` as True."""
        monkeypatch.setattr(ex, "_run_ranges", None)  # the tail experiments' trial run
        monkeypatch.setattr(ex, "trial_blocks", None)  # survival's
        with pytest.raises(ValueError, match="trials must be an integer"):
            COUNTED_ENTRY_POINTS[entry](trials)

    @pytest.mark.parametrize("value", [True, 1.0, None])
    def test_check_count_refuses_non_integers(self, value):
        with pytest.raises(ValueError, match="rounds must be an integer"):
            ex.check_count("rounds", value)
        assert type(ex.check_count("rounds", np.int64(1))) is int

    @pytest.mark.parametrize("entry", sorted(COUNTED_ENTRY_POINTS))
    @pytest.mark.parametrize("seed", [-1, 1 << 64], ids=["minus-one", "two-to-64"])
    def test_seed_outside_64_bits_rejected_before_any_trial(self, monkeypatch, entry, seed):
        """A wider seed would fold into 64 bits and rerun another seed's trials."""
        monkeypatch.setattr(ex, "_run_ranges", None)  # the tail experiments' trial run
        monkeypatch.setattr(ex, "trial_blocks", None)  # survival's
        with pytest.raises(ConfigError, match=r"seed .* is outside \[0, 2\^64\)"):
            COUNTED_ENTRY_POINTS[entry](10, seed)

    @pytest.mark.parametrize("entry", sorted(COUNTED_ENTRY_POINTS))
    def test_one_trial_accepted(self, entry):
        reports = COUNTED_ENTRY_POINTS[entry](1)
        for rep in reports if isinstance(reports, list) else [reports]:
            assert rep.trials == 1

    @pytest.mark.parametrize("entry", ["chernoff", "large_mu"])
    @pytest.mark.parametrize("delta", [math.nan, math.inf, 0.0])
    def test_bad_delta_rejected_before_any_trial(self, monkeypatch, entry, delta):
        run = {
            "chernoff": lambda: ex.chernoff_tail(
                selectors.bin_selector(KEYS_G, 0), SPEC_G, delta, 10, 1),
            "large_mu": lambda: ex.large_mu_tail(
                selectors.bin_selector(range(40), 0), TornadoSpec(4, 2, 2, 1, Variant.TORNADO),
                delta, 10, 1),
        }[entry]
        monkeypatch.setattr(ex, "_run_ranges", None)  # a trial run would call it
        with pytest.raises(ValueError, match="delta"):
            run()

    @pytest.mark.parametrize("k_list", [[0], [-1], [], [4, 0], [4.5]], ids=str)
    def test_bad_k_rejected_before_any_trial(self, monkeypatch, k_list):
        monkeypatch.setattr(ex, "_run_ranges", None)  # a trial run would call it
        with pytest.raises(ValueError, match="k"):
            ex.chaining_tail(SPEC_G, 16, k_list, 10, 1)

    def test_negative_rounds_rejected(self):
        spec = TornadoSpec(4, 2, 1, 1, Variant.SIMPLE_TORNADO)
        with pytest.raises(ValueError, match="rounds"):
            ex.survival_rounds(spec, ZS16, 10, 1, -1)

    @pytest.mark.parametrize("entry", ["dependence", "chernoff", "large_mu"])
    def test_candidate_outside_universe_rejected(self, entry):
        spec16 = TornadoSpec(8, 2, 2, 8, Variant.TORNADO)
        sel = {
            "dependence": lambda: selectors.fixed_set([1 << 20]),
            "chernoff": lambda: selectors.bin_selector([1, 1 << 16], 0),
            "large_mu": lambda: selectors.bin_selector([*range(2000), 1 << 16], 0),
        }[entry]()
        run = {
            "dependence": lambda: ex.measure_dependence(sel, spec16, 10, 1),
            "chernoff": lambda: ex.chernoff_tail(sel, spec16, 0.5, 10, 1),
            "large_mu": lambda: ex.large_mu_tail(sel, spec16, 0.5, 10, 1),
        }[entry]
        with pytest.raises(ConfigError, match="outside"):
            run()


class TestReports:
    def test_stderr_invariant(self):
        spec = TornadoSpec(4, 2, 1, 8, Variant.TORNADO)
        rep = ex.measure_dependence(selectors.hard_instance(4), spec, 500, 2)
        assert rep.stderr == pytest.approx(
            math.sqrt(rep.estimate * (1 - rep.estimate) / rep.trials)
        )

    def test_negative_estimate_rejected(self):
        with pytest.raises(ValueError):
            ex.ExperimentReport("x", -0.1, 0.0, 1.0, 1, 0)

    @pytest.mark.parametrize("estimate", [math.nan, math.inf])
    def test_non_finite_estimate_rejected(self, estimate):
        with pytest.raises(ValueError, match="finite"):
            ex.ExperimentReport("x", estimate, 0.0, 1.0, 10, 0)

    @pytest.mark.parametrize("bound", [math.nan, math.inf])
    def test_non_finite_bound_rejected(self, bound):
        with pytest.raises(ValueError, match="bound must be finite"):
            ex.ExperimentReport("x", 0.0, 0.0, bound, 10, 0)

    @pytest.mark.parametrize("trials", [0, -5])
    def test_trials_below_one_rejected(self, trials):
        with pytest.raises(ValueError, match="trials"):
            ex.ExperimentReport("x", 0.0, 0.0, 1.0, trials, 0)

    def test_inconsistent_violation_rejected(self):
        with pytest.raises(ValueError):
            ex.ExperimentReport("x", 0.1, 0.5, 1.0, 10, 0, verdict=ex.Verdict.VIOLATION)

    # (trials, bound, fewest events the exact binomial test flags); the
    # second row is chaining k=8 at 2e4 trials
    VERDICT_EVENTS = [
        (20000, 6.3e-6, 4),
        (20000, 6.5e-5, 9),
        (100000, 6.5e-5, 20),
        (100000, 3.2e-3, 395),
    ]

    @pytest.mark.parametrize("trials,bound,exact", VERDICT_EVENTS)
    def test_fewest_events_flagged(self, trials, bound, exact):
        assert [ex.exact_violation(k, trials, bound) for k in (exact - 1, exact)] == [False, True]
        spec = TornadoSpec(8, 2, 2, 8, Variant.TORNADO)
        verdicts = [ex._upper_report("x", k, trials, 0, bound, spec, {}).verdict
                    for k in (exact - 1, exact)]
        assert verdicts == [ex.Verdict.WITHIN_BOUND, ex.Verdict.VIOLATION]

    def test_bound_that_underflows_to_zero(self):
        """At a bound of 0.0 a single event is a Violation, and no event is not."""
        bound = ex.chernoff_bound(128, 1e6)
        assert bound == 0.0
        assert ex.exact_violation(1, 1000, bound)
        assert not ex.exact_violation(0, 1000, bound)

    def test_exact_test_alone_decides(self):
        """660 of 1000 at bound 0.6 passes the Wald rule but has an exact tail
        above EXACT_TAIL (5.3e-5), so it is within the bound; 4 of 2e4 at 6.3e-6
        is a Violation that the Wald rule would miss, and the report accepts it."""
        spec = TornadoSpec(8, 2, 2, 8, Variant.TORNADO)
        wald = ex._upper_report("x", 660, 1000, 0, 0.6, spec, {})
        assert wald.estimate - 4 * wald.stderr > wald.bound
        assert wald.verdict is ex.Verdict.WITHIN_BOUND
        exact_only = ex._upper_report("x", 4, 20000, 0, 6.3e-6, spec, {})
        assert exact_only.verdict is ex.Verdict.VIOLATION
        assert not exact_only.estimate - 4 * exact_only.stderr > exact_only.bound

    def test_json_and_csv_stable(self):
        rep = ex.ExperimentReport("demo", 0.5, 0.01, 0.9, 100, 0x42, {"k": 1})
        parsed = json.loads(ex.reports_to_json([rep]))
        assert parsed[0]["name"] == "demo"
        assert parsed[0]["seed"] == "0x42"
        csv = ex.reports_to_csv([rep])
        assert csv.splitlines()[0] == ex.CSV_HEADER
        assert csv.splitlines()[1].startswith("demo,0.5,0.01,0.9,100,0x42,Informational")
