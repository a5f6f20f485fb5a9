import numpy as np
import pytest

from tornadotab import experiments, rng
from tornadotab import linprobe as lp
from tornadotab.core import ConfigError, TornadoHash, TornadoSpec, Variant, parse_spec_string


class TestProbeTable:
    def test_insert_empty(self):
        t = lp.ProbeTable(8)
        assert t.insert("a", 3) == 1
        assert t.cells[3] == "a"

    def test_collision_probes(self):
        t = lp.ProbeTable(8)
        assert t.insert("a", 3) == 1
        assert t.insert("b", 3) == 2
        assert t.cells[4] == "b"

    def test_wraparound(self):
        t = lp.ProbeTable(4)
        t.insert("a", 3)
        assert t.insert("b", 3) == 2
        assert t.cells[0] == "b"

    def test_lookup_reproduces_insert_probes(self):
        t = lp.ProbeTable(16)
        rs = np.random.default_rng(0)
        keys = {}
        for i in range(12):
            h = int(rs.integers(0, 16))
            keys[f"k{i}"] = (h, t.insert(f"k{i}", h))
        for k, (h, probes) in keys.items():
            assert t.lookup(k, h) == (True, probes)

    def test_lookup_missing(self):
        t = lp.ProbeTable(8)
        t.insert("a", 1)
        found, probes = t.lookup("zz", 1)
        assert not found and probes == 2

    def test_full_table_rejected(self):
        t = lp.ProbeTable(2)
        t.insert("a", 0)
        t.insert("b", 1)
        with pytest.raises(lp.TableFullError):
            t.insert("c", 0)

    def test_capacity_power_of_two(self):
        with pytest.raises(ValueError):
            lp.ProbeTable(12)

    def test_run_length_empty(self):
        t = lp.ProbeTable(8)
        assert all(t.run_length(i) == 0 for i in range(8))

    def test_run_length_single(self):
        t = lp.ProbeTable(8)
        t.insert("a", 5)
        assert t.run_length(5) == 1
        assert t.run_length(4) == 0

    def test_run_length_interval(self):
        # cells 3..7 occupied, query 5 -> 5
        t = lp.ProbeTable(16)
        for c in range(3, 8):
            t.insert(f"k{c}", c)
        assert t.run_length(5) == 5
        assert t.run_length(3) == 5
        assert t.run_length(8) == 0

    def test_run_length_full_table(self):
        """A full table is one run of m cells, with no empty cell to end a scan."""
        t = lp.ProbeTable(8)
        for i in range(8):
            t.insert(i, 3)
        assert [t.run_length(i) for i in range(8)] == [8] * 8


class TestFastPath:
    def test_occupancy_probe_run_match_reference(self):
        rs = np.random.default_rng(42)
        for _ in range(300):
            m = int(rs.choice([8, 16, 32]))
            n = int(rs.integers(0, m - 1))
            self._check_against_table(m, rs.integers(0, m, n))

    @staticmethod
    def _check_against_table(m, hashes):
        """Occupancy, fresh probe lengths and run lengths at every cell, against
        ``ProbeTable``."""
        table = lp.ProbeTable(m)
        for i, h in enumerate(hashes):
            table.insert(i, int(h))
        occ = lp.occupancy_from_hashes(m, np.asarray(hashes, dtype=np.int64))
        assert np.array_equal(occ, table.occupancy())
        queries = np.arange(m)
        probes = lp.fresh_probe_lengths(occ, queries)
        runs = lp.run_lengths_at(occ, queries)
        for q in range(m):
            clone = lp.ProbeTable(m)
            clone.cells, clone.count = list(table.cells), table.count
            assert clone.insert("probe", q) == probes[q]
            assert table.run_length(q) == runs[q]

    @pytest.mark.parametrize("m", [1, 2, 4, 8, 16, 32, 64])
    def test_edge_loads_match_reference(self, m):
        """No key; a single empty cell left (n = m - 1), at random hashes and
        with every hash in one cell; and runs that wrap past cell m - 1."""
        rs = np.random.default_rng(m)
        cases = [[], list(rs.integers(0, m, m - 1))]
        cases += [[cell] * (m - 1) for cell in {0, m // 2, m - 1}]
        if m >= 4:
            cases += [[m - 1] * (m // 2), [m - 2, m - 1, m - 1],
                      [m - 1] * 2 + [0] * (m // 2 - 1)]
        for hashes in cases:
            self._check_against_table(m, hashes)

    def test_wrapping_runs_match_reference(self):
        rs = np.random.default_rng(3)
        for _ in range(100):
            m = int(rs.choice([8, 16, 32, 64]))
            n = int(rs.integers(m // 2, m))
            # hashes crowd the last cells, so runs cross cell m - 1 into cell 0
            hashes = (m - 1 - rs.integers(0, m // 4, n)) % m
            self._check_against_table(m, hashes)

    def test_hash_cells_outside_the_table_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            lp.occupancy_from_hashes(65536, [70000])
        with pytest.raises(ValueError):
            lp.occupancy_from_hashes(8, [-1])
        occ = lp.occupancy_from_hashes(8, [1, 1, 5])
        for bad in ([9], [8], [-1], [0, 8]):
            with pytest.raises(ValueError, match=r"hash cells must be in \[0, 8\)"):
                lp.fresh_probe_lengths(occ, bad)
            with pytest.raises(ValueError, match=r"hash cells must be in \[0, 8\)"):
                lp.run_lengths_at(occ, bad)

    @pytest.mark.parametrize("m", [4.0, True, "8", 0], ids=repr)
    def test_table_size_must_be_a_positive_integer(self, m):
        """True would read as a table of one cell."""
        with pytest.raises(ConfigError, match="m must be"):
            lp.occupancy_from_hashes(m, [])

    @pytest.mark.parametrize("scan", [lp.fresh_probe_lengths, lp.run_lengths_at])
    def test_occupancy_must_be_a_bool_vector(self, scan):
        """An integer occupancy would index cells instead of masking them."""
        occ = np.array([1, 0, 1, 1, 0, 0, 0, 0])
        for bad in (occ, occ.tolist(), occ.astype(bool)[None], np.array(True)):
            with pytest.raises(ValueError, match="1-D bool array"):
                scan(bad, [0, 2])
        want = {lp.fresh_probe_lengths: [2, 3], lp.run_lengths_at: [1, 2]}[scan]
        assert scan(occ.astype(bool), [0, 2]).tolist() == want

    def test_full_table_guard(self):
        with pytest.raises(lp.TableFullError):
            lp.occupancy_from_hashes(4, np.zeros(4, dtype=np.int64))
        with pytest.raises(lp.TableFullError, match="no empty cells"):
            lp.fresh_probe_lengths(np.ones(8, dtype=bool), [0])

    def test_probe_run_relation(self):
        # fresh insertion probes never exceed run length + 1
        rs = np.random.default_rng(7)
        m = 64
        hashes = rs.integers(0, m, 40)
        occ = lp.occupancy_from_hashes(m, hashes)
        q = np.arange(m)
        probes = lp.fresh_probe_lengths(occ, q)
        runs = lp.run_lengths_at(occ, q)
        assert (probes <= runs + 1).all()


class TestProbeExperiment:
    SPEC = TornadoSpec(8, 2, 4, 10, Variant.TORNADO)

    def test_zero_keys_all_probes_one(self):
        res = lp.probe_experiment(self.SPEC, 0, 1024, 64, 2, 1, star_delta=0.5)
        assert (res.tornado.probe_lengths == 1).all()
        assert (res.baseline.probe_lengths == 1).all()

    def test_load_restriction(self):
        with pytest.raises(ValueError):
            lp.probe_experiment(self.SPEC, 900, 1024, 16, 1, 1)

    def test_out_bits_must_match(self):
        with pytest.raises(ValueError):
            lp.probe_experiment(self.SPEC, 100, 2048, 16, 1, 1)

    @pytest.mark.parametrize("star_delta", [0.0, 1.0, -0.5, float("nan")])
    def test_star_delta_outside_unit_interval_rejected(self, star_delta):
        with pytest.raises(ValueError, match="star_delta"):
            lp.probe_experiment(self.SPEC, 100, 1024, 16, 1, 1, star_delta=star_delta)

    def test_negative_n_rejected(self, monkeypatch):
        monkeypatch.setattr(lp, "trial_blocks", None)  # a trial run would call it
        with pytest.raises(ValueError, match="n must be"):
            lp.probe_experiment(self.SPEC, -5, 1024, 64, 1, 1)

    @pytest.mark.parametrize("seed", [-1, 1 << 64], ids=["minus-one", "two-to-64"])
    def test_seed_outside_64_bits_rejected(self, monkeypatch, seed):
        monkeypatch.setattr(lp, "trial_blocks", None)  # a trial run would call it
        with pytest.raises(ConfigError, match=r"seed .* is outside \[0, 2\^64\)"):
            lp.probe_experiment(self.SPEC, 100, 1024, 16, 1, seed)

    @pytest.mark.parametrize("field", ["trials", "queries"])
    @pytest.mark.parametrize("value", [True, 2.5, 0])
    def test_counts_must_be_positive_integers(self, monkeypatch, field, value):
        monkeypatch.setattr(lp, "trial_blocks", None)  # a trial run would call it
        counts = {"queries": 16, "trials": 1, field: value}
        with pytest.raises(ValueError, match=field):
            lp.probe_experiment(self.SPEC, 100, 1024, counts["queries"], counts["trials"], 1)

    def test_star_overflow_detected(self):
        with pytest.raises(ValueError):
            lp.probe_experiment(self.SPEC, 800, 1024, 16, 1, 1, star_delta=0.01)

    def test_small_run_sane(self):
        res = lp.probe_experiment(self.SPEC, 512, 1024, 128, 4, 9, star_delta=0.5)
        assert res.knuth_ref == 2.5
        assert 1.0 <= res.tornado.mean < 10
        assert res.baseline_star.mean > res.baseline.mean
        assert res.n_star > 512
        assert res.tornado.probe_lengths.shape == (4, 128)
        reports = res.to_reports()
        assert {r.name for r in reports} == {
            "probing_mean_probe_length",
            "probing_cdf_dominance",
        }

    def test_reproducible(self):
        a = lp.probe_experiment(self.SPEC, 256, 1024, 32, 2, 5, star_delta=0.5)
        b = lp.probe_experiment(self.SPEC, 256, 1024, 32, 2, 5, star_delta=0.5)
        assert np.array_equal(a.tornado.probe_lengths, b.tornado.probe_lengths)
        assert a.dominance_margin == b.dominance_margin

    def test_histogram_csv(self):
        res = lp.probe_experiment(self.SPEC, 128, 1024, 16, 2, 3, star_delta=0.5)
        csv = lp.histograms_csv(res)
        lines = csv.strip().split("\n")
        assert lines[0] == "source,seed,probe_length,count"
        parts = [l.split(",") for l in lines[1:]]
        assert {p[0] for p in parts} == {"tornado", "random", "random_star"}
        # counts per (source, seed) sum to the query count
        per = {}
        for src, seed, _, cnt in parts:
            per[(src, seed)] = per.get((src, seed), 0) + int(cnt)
        assert set(per.values()) == {16}

    def test_tornado_lengths_match_single_hash(self, monkeypatch):
        """Across several engine chunks, trial t's tornado probe lengths are
        those of the trial's own TornadoHash over its own key pool."""
        spec = parse_spec_string("tornado,cb=16,c=2,d=4,r=16")
        n, m, queries, trials, seed = 1024, 1 << 16, 64, 20, 0x2026
        derive, chunks = experiments._derive_chunk, []

        def counted(spec, source, xs, keep_chars):  # read columns below sigma hash their entries
            assert not keep_chars  # probing reads no derived characters
            chunks.append(len(source.seeds))
            return derive(spec, source, xs, keep_chars)

        monkeypatch.setattr(experiments, "_derive_chunk", counted)
        res = lp.probe_experiment(spec, n, m, queries, trials, seed)
        assert len(chunks) > 1 and sum(chunks) == trials
        for t in range(trials):
            ts = rng.trial_seed(seed, t)
            pool = rng.sample_distinct_keys(ts, res.n_star + queries, spec.key_bits)
            h = TornadoHash.build(spec, ts)
            occ = lp.occupancy_from_hashes(m, h.eval_batch(pool[:n]))
            cells = h.eval_batch(pool[res.n_star:]).astype(np.int64)
            expected = lp.fresh_probe_lengths(occ, cells)
            assert np.array_equal(res.tornado.probe_lengths[t], expected), t

    def test_cdf_properties(self):
        res = lp.probe_experiment(self.SPEC, 256, 1024, 64, 2, 5, star_delta=0.5)
        cdf = res.tornado.cdf()
        assert cdf[0] == 0.0 or cdf[0] >= 0.0
        assert cdf[-1] == pytest.approx(1.0)
        assert (np.diff(cdf) >= 0).all()


class TestKnuthConvergence:
    def test_baseline_mean_near_knuth_at_large_m(self):
        # fully-random baseline at m = 2^18, load 0.75: within 5% of 8.5
        m, n = 1 << 18, 3 << 16
        samples = []
        for t in range(8):
            ts = rng.trial_seed(0xCAFE, t)
            pool = rng.sample_distinct_keys(ts, n + 8192, 20)
            hv = rng.mixer_hash_vec(ts, pool[:n], 18)
            occ = lp.occupancy_from_hashes(m, hv)
            qv = rng.mixer_hash_vec(ts, pool[n:], 18).astype(np.int64)
            samples.append(lp.fresh_probe_lengths(occ, qv))
        mean = float(np.concatenate(samples).mean())
        knuth = (1 + 1 / 0.25**2) / 2
        assert abs(mean - knuth) <= 0.05 * knuth


class TestDKW:
    def test_tolerance_value(self):
        tol = lp.dkw_tolerance(65536, 65536, 0.99)
        assert tol == pytest.approx(0.013522018614080355, rel=1e-9)

    def test_smaller_samples_larger_tolerance(self):
        assert lp.dkw_tolerance(100, 100) > lp.dkw_tolerance(10000, 10000)
