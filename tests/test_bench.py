import numpy as np
import pytest

from tornadotab import bench, rng


class TestMersenneReduce:
    def test_matches_wide_modulo(self):
        p = bench.MERSENNE_P
        rs = np.random.default_rng(3)
        for _ in range(10000):
            y = int(rs.integers(0, 1 << 62)) << int(rs.integers(0, 128))
            assert bench.mersenne_reduce(y) == y % p

    def test_edges(self):
        p = bench.MERSENNE_P
        assert bench.mersenne_reduce(0) == 0
        assert bench.mersenne_reduce(p) == 0
        assert bench.mersenne_reduce(p - 1) == p - 1
        assert bench.mersenne_reduce(p + 1) == 1
        assert bench.mersenne_reduce(p * p) == 0


class TestPoly2:
    def test_matches_wide_reference(self):
        # arbitrary-precision oracle over random coefficients and keys
        rs = np.random.default_rng(11)
        for seed in range(20):
            poly = bench.Poly2Mersenne(seed, 64)
            assert 0 <= poly.a < bench.MERSENNE_P
            for _ in range(500):
                x = int(rs.integers(0, 1 << 64, dtype=np.uint64))
                expect = (poly.a * x * x + poly.b * x + poly.c) % bench.MERSENNE_P
                assert poly.hash(x) == expect & ((1 << 64) - 1)

    def test_x_zero_gives_c(self):
        poly = bench.Poly2Mersenne(7, 64)
        assert poly.hash(0) == poly.c & ((1 << 64) - 1)

    def test_zero_coefficients_constant(self):
        poly = bench.Poly2Mersenne(7, 32)
        poly.a = 0
        poly.b = 0
        expect = (poly.c % bench.MERSENNE_P) & 0xFFFFFFFF
        assert poly.hash(5) == expect
        assert poly.hash(123456) == expect

    def test_output_bits_truncate(self):
        wide = bench.Poly2Mersenne(3, 64).hash(42)
        assert bench.Poly2Mersenne(3, 32).hash(42) == wide & 0xFFFFFFFF

    def test_deterministic_per_seed(self):
        a = bench.Poly2Mersenne(5, 32)
        b = bench.Poly2Mersenne(5, 32)
        assert (a.a, a.b, a.c) == (b.a, b.b, b.c)
        c = bench.Poly2Mersenne(6, 32)
        assert (a.a, a.b, a.c) != (c.a, c.b, c.c)


class TestSchemes:
    @pytest.mark.parametrize("scheme", bench.SCHEMES)
    def test_hasher_runs(self, scheme):
        fn, bits = bench._make_hasher(scheme, 1)
        for x in (0, 1, (1 << bits) - 1):
            v = fn(x)
            assert v >= 0

    def test_folded_scheme_matches_core(self):
        from tornadotab.core import TornadoHash

        fn, _ = bench._make_hasher("tornado32-folded", 9)
        h = TornadoHash.build(bench.TORNADO32_SPEC, 9)
        for x in rng.raw_key_stream(2, 200, 32):
            assert fn(int(x)) == h.eval(int(x))

    def test_mix_scheme_matches_core(self):
        from tornadotab.core import TornadoHash

        fn, _ = bench._make_hasher("tornado-mix64-folded", 9)
        h = TornadoHash.build(bench.TORNADO_MIX64_SPEC, 9)
        for x in rng.raw_key_stream(2, 200, 64):
            assert fn(int(x)) == h.eval(int(x))

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            bench._make_hasher("md5", 1)


class TestThroughput:
    def test_checksum_deterministic(self):
        a = bench.throughput("simple-tabulation", 2000, reps=3, seed=4)
        b = bench.throughput("simple-tabulation", 2000, reps=3, seed=4)
        assert a.checksum == b.checksum
        assert a.ns_per_key > 0

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            bench.throughput("poly2-mersenne", 0)
        with pytest.raises(ValueError):
            bench.throughput("poly2-mersenne", 10, reps=0)

    def test_varying_checksum_rejected(self, monkeypatch):
        """A hasher that answers differently on each call has no checksum to report."""
        calls = iter(range(1 << 20))
        monkeypatch.setattr(bench, "_make_hasher", lambda scheme, seed: (
            lambda x: next(calls), 8))
        with pytest.raises(RuntimeError, match="checksum varied"):
            bench.throughput("simple-tabulation", 5, reps=3)

    def test_timing_grows_with_n(self):
        # 8x the buffer should scale total time; a 2x floor leaves room for noise
        small = min(bench.throughput("simple-tabulation", 5000, reps=5, seed=1).total_ns
                    for _ in range(2))
        big = min(bench.throughput("simple-tabulation", 40000, reps=5, seed=1).total_ns
                  for _ in range(2))
        assert big >= 2 * small

    def test_csv_row(self):
        r = bench.throughput("poly2-mersenne", 500, reps=3, seed=2)
        row = r.csv_row()
        assert row.startswith("poly2-mersenne,500,")
        assert row.endswith(f"{r.checksum:#x}")
