"""Throughput measurement against a degree-2 Mersenne-prime polynomial.

Keys are pre-generated into a buffer so the timed loop measures hashing
only, every scheme folds its outputs into an XOR checksum to defeat
dead-code elimination, and the median of the repetition timings is
reported. The tornado schemes time the library's own scalar entry points
(``eval_folded``, and ``eval`` for simple tabulation). Numbers are
machine-dependent and informational.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

from . import rng
from .core import TornadoHash, TornadoSpec, Variant, check_count, check_seed

MERSENNE_EXP = 89
MERSENNE_P = (1 << MERSENNE_EXP) - 1


def mersenne_reduce(y: int) -> int:
    """y mod 2^89-1 via shift-add folding."""
    while y >> MERSENNE_EXP:
        y = (y & MERSENNE_P) + (y >> MERSENNE_EXP)
    return 0 if y == MERSENNE_P else y


class Poly2Mersenne:
    """Degree-2 polynomial over the 2^89-1 prime field, truncated output."""

    __slots__ = ("a", "b", "c", "out_bits", "_mask")

    def __init__(self, seed: int, out_bits: int = 32):
        coeffs = []
        ctr = 0
        while len(coeffs) < 3:
            lo = rng.field_value(seed, 2, 0, 0, ctr)
            hi = rng.field_value(seed, 2, 0, 1, ctr)
            ctr += 1
            cand = (lo | (hi << 64)) & MERSENNE_P
            if cand < MERSENNE_P:
                coeffs.append(cand)
        self.a, self.b, self.c = coeffs
        self.out_bits = out_bits
        self._mask = (1 << out_bits) - 1

    def hash(self, x: int) -> int:
        return mersenne_reduce(self.a * x * x + self.b * x + self.c) & self._mask


@dataclass(frozen=True)
class BenchResult:
    scheme: str
    n_keys: int
    total_ns: int
    ns_per_key: float
    checksum: int
    reps: int

    def csv_row(self) -> str:
        return f"{self.scheme},{self.n_keys},{self.ns_per_key:.2f},{self.checksum:#x}"


BENCH_CSV_HEADER = "scheme,n_keys,ns_per_key,checksum"

TORNADO32_SPEC = TornadoSpec(8, 4, 4, 24, Variant.TORNADO)
TORNADO_MIX64_SPEC = TornadoSpec(8, 8, 5, 64, Variant.TORNADO_MIX, psi_bits=16)
SIMPLE_TAB_SPEC = TornadoSpec(8, 4, 0, 32, Variant.SIMPLE_TABULATION)

SCHEMES = ("tornado32-folded", "tornado-mix64-folded", "poly2-mersenne", "simple-tabulation")


def _make_hasher(scheme: str, seed: int):
    """Returns (hash callable, key bit width): a library entry point, or the
    poly2 baseline."""
    if scheme == "poly2-mersenne":
        return Poly2Mersenne(seed, 32).hash, 32
    if scheme == "simple-tabulation":
        return TornadoHash.build(SIMPLE_TAB_SPEC, seed).eval, 32
    folded = {"tornado32-folded": TORNADO32_SPEC, "tornado-mix64-folded": TORNADO_MIX64_SPEC}
    if scheme not in folded:
        raise ValueError(f"unknown scheme {scheme!r}")
    h = TornadoHash.build(folded[scheme], seed)
    h.folded  # fold before the timed loop
    return h.eval_folded, folded[scheme].key_bits


def throughput(scheme: str, n_keys: int, reps: int = 9, seed: int = 1) -> BenchResult:
    """Median-of-reps timing over a pre-generated key buffer."""
    n_keys, reps = check_count("n_keys", n_keys), check_count("reps", reps)
    check_seed(seed)
    fn, key_bits = _make_hasher(scheme, seed)
    keys = [int(v) for v in rng.raw_key_stream(seed, n_keys, key_bits)]
    checksums = set()
    timings = []
    for _ in range(reps):
        acc = 0
        t0 = time.perf_counter_ns()
        for x in keys:
            acc ^= fn(x)
        timings.append(time.perf_counter_ns() - t0)
        checksums.add(acc)
    if len(checksums) != 1:
        raise RuntimeError("checksum varied across repetitions")
    total = int(statistics.median(timings))
    return BenchResult(
        scheme=scheme,
        n_keys=n_keys,
        total_ns=total,
        ns_per_key=total / n_keys,
        checksum=checksums.pop(),
        reps=reps,
    )
