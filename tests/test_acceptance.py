"""Acceptance suite: every criterion at its stated scale and tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s``). The
master seed is fixed so the whole suite is deterministic; Monte Carlo
tolerances are the stated bounds plus their stated sigma allowances.
"""

import os
from fractions import Fraction

import numpy as np

from tornadotab import bench, cli, linprobe, rng, selectors
from tornadotab import experiments as ex
from tornadotab.core import TornadoHash, TornadoSpec, Variant, eval_folded_batch
from tornadotab.gf2 import (
    find_zero_subset,
    genkey_from_key,
    is_linearly_independent,
    is_zero_set,
)

MASTER_SEED = 2026
WORKERS = min(2, os.cpu_count() or 1)


def _report(name: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


def test_01_twist_bijectivity():
    spec = TornadoSpec(8, 2, 0, 16, Variant.TORNADO)
    keys = np.arange(65536, dtype=np.uint64)
    bad = 0
    for seed in range(100):
        der = TornadoHash.build(spec, rng.trial_seed(MASTER_SEED, seed)).derive_batch(keys)
        packed = der[:, 0].astype(np.uint64) | (der[:, 1].astype(np.uint64) << np.uint64(8))
        bad += len(np.unique(packed)) != 65536
    _report("01-twist-bijectivity", bad == 0, f"seeds with collisions: {bad}/100")


def test_02_folded_equals_reference():
    mismatches = 0
    for spec in (TornadoSpec(8, 4, 3, 32, Variant.TORNADO),
                 TornadoSpec(8, 4, 4, 24, Variant.TORNADO)):
        for s in range(10):
            h = TornadoHash.build(spec, rng.trial_seed(MASTER_SEED, s))
            keys = rng.raw_key_stream(rng.trial_seed(MASTER_SEED ^ 0xF01D, s), 100000, 32)
            mismatches += int((h.eval_batch(keys) != eval_folded_batch(h, keys)).sum())
    _report("02-folded-equals-reference", mismatches == 0,
            f"mismatches: {mismatches} over 2 profiles x 10 seeds x 1e5 keys")


def test_03_exact_uniformity():
    indep = [genkey_from_key(x, 2, 2) for x in (0b0000, 0b0001, 0b0100)]
    zero4 = [genkey_from_key(x, 2, 2) for x in (0b0000, 0b0001, 0b0100, 0b0101)]
    ok_indep = ex.exact_uniformity_check(2, 2, 2, indep)
    ok_dep = not ex.exact_uniformity_check(2, 2, 2, zero4)
    _report("03-exact-uniformity", ok_indep and ok_dep,
            f"independent equidistributed: {ok_indep}, zero-set fails: {ok_dep}")


def test_04_fixed_set_dependence_bound():
    spec = TornadoSpec(8, 2, 4, 8, Variant.TORNADO)
    keys = [int(k) for k in rng.sample_distinct_keys(rng.mix64(MASTER_SEED), 128, 16)]
    rep = ex.measure_dependence(selectors.fixed_set(keys), spec, 100000, MASTER_SEED,
                                workers=WORKERS)
    assert rep.bound <= 3.25e-3
    ok = rep.estimate <= rep.bound + 4 * rep.stderr
    _report("04-fixed-set-dependence", ok,
            f"estimate={rep.estimate:.2e} bound={rep.bound:.4e} (1e5 seeds)")


def test_05_survival_one_round():
    spec = TornadoSpec(4, 2, 1, 1, Variant.SIMPLE_TORNADO)
    zs = [(2 << 4) | 0, (2 << 4) | 1, (7 << 4) | 0, (7 << 4) | 1]
    rep = ex.survival_rounds(spec, zs, 1000000, MASTER_SEED, 1)
    target = 0.1796875
    ok_mc = abs(rep.estimate - target) <= 3 * rep.stderr
    exact = ex.survival_one_round_exact(2, 2, [(2 << 2) | 0, (2 << 2) | 1,
                                               (3 << 2) | 0, (3 << 2) | 1])
    ok_exact = exact == Fraction(5, 8)
    _report("05-survival-one-round", ok_mc and ok_exact,
            f"estimate={rep.estimate:.6f} target={target} (3sig={3*rep.stderr:.2e}); "
            f"exact sigma=4: {exact}")


def test_06_survival_two_rounds():
    spec = TornadoSpec(4, 2, 2, 1, Variant.SIMPLE_TORNADO)
    zs = [(2 << 4) | 0, (2 << 4) | 1, (7 << 4) | 0, (7 << 4) | 1]
    rep = ex.survival_rounds(spec, zs, 1000000, MASTER_SEED, spec.d)
    target = 0.1796875**2
    ok = abs(rep.estimate - target) <= 3 * rep.stderr
    _report("06-survival-two-rounds", ok,
            f"estimate={rep.estimate:.6f} target={target:.6f} (3sig={3*rep.stderr:.2e})")


def test_07_lower_bound_visibility():
    spec = TornadoSpec(4, 2, 3, 8, Variant.TORNADO)
    sel = selectors.hard_instance(4)
    rep = ex.measure_dependence(sel, spec, 1000000, MASTER_SEED, workers=WORKERS)
    floor = 1e-2 * (3 / 16) ** (spec.d - 2)
    ok = rep.estimate > 0 and rep.estimate >= floor
    _report("07-lower-bound-visibility", ok,
            f"estimate={rep.estimate:.5f} floor={floor:.5f} (1e6 trials, informational tier)")


def test_08_chaining_tail():
    spec = TornadoSpec(8, 2, 4, 8, Variant.TORNADO)
    reports = ex.chaining_tail(spec, 256, [4, 8], 100000, MASTER_SEED, workers=WORKERS)
    details = []
    ok = True
    for rep in reports:
        this = rep.estimate <= rep.bound + 4 * rep.stderr
        ok &= this
        details.append(f"k={rep.params['k']}: est={rep.estimate:.5f} bound={rep.bound:.5f}")
    _report("08-chaining-tail", ok, "; ".join(details))


def test_09_chernoff_tail():
    spec = TornadoSpec(8, 2, 4, 6, Variant.TORNADO)
    keys = [int(k) for k in rng.sample_distinct_keys(rng.mix64(MASTER_SEED), 4096, 16)]
    sel = selectors.bin_selector(keys, 0)
    assert selectors.mu(sel, 6) == 64.0
    rep = ex.chernoff_tail(sel, spec, 0.5, 100000, MASTER_SEED, workers=WORKERS)
    ok = rep.estimate <= rep.bound + 4 * rep.stderr
    _report("09-chernoff-tail", ok,
            f"estimate={rep.estimate:.2e} bound={rep.bound:.4e} mu=64 delta=0.5")


def test_10_linear_probing():
    spec = TornadoSpec(16, 2, 4, 16, Variant.TORNADO)
    res = linprobe.probe_experiment(spec, n=3 * (1 << 14), m=1 << 16, queries=1 << 10,
                                    trials=64, seed=MASTER_SEED, star_delta=0.01)
    knuth_ok = abs(res.tornado.mean - 8.5) <= 0.10 * 8.5
    base_ok = abs(res.tornado.mean - res.baseline.mean) <= 0.03 * res.baseline.mean
    ok = knuth_ok and base_ok and res.dominates
    _report("10-linear-probing", ok,
            f"tornado={res.tornado.mean:.3f} baseline={res.baseline.mean:.3f} knuth=8.5 "
            f"dominance margin={res.dominance_margin:.4f} tol={res.dominance_tolerance:.4f}")


def _brute_force_dependent(bits: list[int]) -> bool:
    acc = 0
    for i in range(1, 1 << len(bits)):
        acc ^= bits[(i & -i).bit_length() - 1]  # gray-code walk
        if acc == 0:
            return True
    return False


def test_11_gf2_oracle_equivalence():
    rs = np.random.default_rng(MASTER_SEED)
    mismatches = 0
    bad_witness = 0
    for _ in range(10000):
        b = int(rs.integers(1, 5))
        cb = int(rs.integers(1, 4))
        n = int(rs.integers(1, 13))
        ks = [genkey_from_key(int(rs.integers(0, 1 << (b * cb))), b, cb) for _ in range(n)]
        indep = is_linearly_independent(ks)
        brute = not _brute_force_dependent([k.bits for k in ks])
        mismatches += indep != brute
        if not indep:
            bad_witness += not is_zero_set(find_zero_subset(ks))
    _report("11-gf2-oracle", mismatches == 0 and bad_witness == 0,
            f"verdict mismatches: {mismatches}/10000, bad witnesses: {bad_witness}")


def test_12_benchmark_parity_informational():
    tor = bench.throughput("tornado32-folded", 100000, reps=9, seed=MASTER_SEED)
    tor2 = bench.throughput("tornado32-folded", 100000, reps=9, seed=MASTER_SEED)
    poly = bench.throughput("poly2-mersenne", 100000, reps=9, seed=MASTER_SEED)
    deterministic = tor.checksum == tor2.checksum
    ratio = tor.ns_per_key / poly.ns_per_key
    within_2x = 0.5 <= ratio <= 2.0
    # parity is environment-dependent and informational; only determinism gates
    _report("12-benchmark-parity", deterministic,
            f"tornado={tor.ns_per_key:.0f}ns/key poly2={poly.ns_per_key:.0f}ns/key "
            f"ratio={ratio:.2f} within2x={within_2x} (informational)")


def _two_column_dependence():
    """Keys {0..31} x {0, 1} selected by the 2-bit output prefix (mu = 16)."""
    spec = TornadoSpec(8, 2, 3, 8, Variant.TORNADO)
    keys = [(a << 8) | b for a in range(32) for b in (0, 1)]
    sel = selectors.bit_prefix(keys, 2, {0})
    return ex.measure_dependence(sel, spec, 2000, MASTER_SEED)


def test_13_dependence_gate_sees_zeroed_levels(monkeypatch):
    """The dependence gate fails a hash whose level entries are all zero.

    Zero level entries leave the derived characters constant and the twist
    the identity, which is simple tabulation: then whole columns are selected
    together exactly when the top entries of the two low characters agree in
    their top two bits, and the selected keys are dependent in about 1/4 of
    the trials. The chaining, Chernoff and hard-instance gates cannot see
    this, because simple tabulation meets those bounds too.
    """
    real = _two_column_dependence()
    field_value_vec = rng.field_value_vec

    def zero_levels(seed, kind, major, minor, slot):
        v = field_value_vec(seed, kind, major, minor, slot)
        return v & np.uint64(0) if kind == rng.KIND_LEVEL else v

    monkeypatch.setattr(rng, "field_value_vec", zero_levels)  # both level sources
    mutant = _two_column_dependence()
    ok = (real.verdict is ex.Verdict.WITHIN_BOUND and mutant.verdict is ex.Verdict.VIOLATION)
    _report("13-dependence-gate-can-fail", ok,
            f"real={real.estimate:.2e} ({real.verdict.value}) "
            f"zeroed levels={mutant.estimate:.3f} ({mutant.verdict.value}) bound={real.bound:.2e}")


def _stick_top_low_bit(monkeypatch):
    """Make every top-table entry even, so every hash value is even."""
    field_value_vec = rng.field_value_vec

    def stuck(seed, kind, major, minor, slot):
        v = field_value_vec(seed, kind, major, minor, slot)
        return v & ~np.uint64(1) if kind == rng.KIND_TOP else v

    monkeypatch.setattr(rng, "field_value_vec", stuck)


def test_14_chaining_gate_sees_stuck_top_bit(monkeypatch):
    """The chaining gate fails a hash whose top entries have the low bit stuck at 0.

    Only even bins are then hit, so bin 0 receives about twice its share and
    k=4 occurs far above its bound; the CLI exits 2 on that verdict. This
    gate cannot see zeroed level tables (simple tabulation meets the chaining
    bound); test 13 catches those.
    """
    monkeypatch.delenv("TORNADO_THREADS", raising=False)  # keep the patch in this process
    spec = TornadoSpec(8, 2, 4, 8, Variant.TORNADO)
    real = ex.chaining_tail(spec, 256, [4], 2000, MASTER_SEED)[0]
    _stick_top_low_bit(monkeypatch)
    mutant = ex.chaining_tail(spec, 256, [4], 2000, MASTER_SEED)[0]
    code = cli.main(["chaining", "--n", "256", "--k", "4", "--trials", "2000"])
    ok = (real.verdict is ex.Verdict.WITHIN_BOUND and mutant.verdict is ex.Verdict.VIOLATION
          and code == cli.VIOLATION_EXIT)
    _report("14-chaining-gate-can-fail", ok,
            f"k=4 real={real.estimate:.3f} stuck bit={mutant.estimate:.3f} bound={real.bound:.4f} "
            f"cli exit={code}")


def test_15_chernoff_gate_sees_stuck_top_bit(monkeypatch):
    """The Chernoff gate fails a hash whose top entries have the low bit stuck at 0.

    On the test 09 shape (4096 keys, bin 0 of 64, delta=0.5) bin 0 then gets
    about 2 mu keys in nearly every trial. This gate cannot see zeroed level
    tables (simple tabulation meets the Chernoff bound); test 13 catches those.
    """
    spec = TornadoSpec(8, 2, 4, 6, Variant.TORNADO)
    keys = [int(k) for k in rng.sample_distinct_keys(rng.mix64(MASTER_SEED), 4096, 16)]
    sel = selectors.bin_selector(keys, 0)
    real = ex.chernoff_tail(sel, spec, 0.5, 300, MASTER_SEED)
    _stick_top_low_bit(monkeypatch)
    mutant = ex.chernoff_tail(sel, spec, 0.5, 300, MASTER_SEED)
    ok = real.verdict is ex.Verdict.WITHIN_BOUND and mutant.verdict is ex.Verdict.VIOLATION
    _report("15-chernoff-gate-can-fail", ok,
            f"real={real.estimate:.2e} stuck bit={mutant.estimate:.3f} bound={real.bound:.2e}")


def _probing_dominance():
    """Test 10's shape; the CDF dominance report carries the gate's verdict."""
    spec = TornadoSpec(16, 2, 4, 16, Variant.TORNADO)
    res = linprobe.probe_experiment(spec, n=3 * (1 << 14), m=1 << 16, queries=1 << 10,
                                    trials=64, seed=MASTER_SEED, star_delta=0.01)
    return res.to_reports()[1]


def test_16_probing_gate_sees_stuck_top_bit(monkeypatch):
    """The probing gate fails a hash whose top entries have the low bit stuck at 0.

    Keys then hash only to even cells, so the tornado probe-length CDF falls
    below the mixer's over n_star keys by more than the DKW tolerance (margin
    -0.022 against 0.0135). At 32 trials it clears the wider tolerance (0.019)
    by little and at 16 not at all, so 64 are run. This gate cannot see
    zeroed level tables (simple tabulation meets the linear-probing bound);
    test 13 catches those.
    """
    real = _probing_dominance()
    _stick_top_low_bit(monkeypatch)
    mutant = _probing_dominance()
    ok = real.verdict is ex.Verdict.WITHIN_BOUND and mutant.verdict is ex.Verdict.VIOLATION
    _report("16-probing-gate-can-fail", ok,
            f"real margin={real.params['margin']:.4f} "
            f"stuck bit margin={mutant.params['margin']:.4f} tol={real.bound:.4f}")
