"""Linear probing simulator: tornado hashing vs. a fully-random baseline.

The reference `ProbeTable` implements textbook linear probing. The
experiment path never materializes individual insertions: the final
occupancy pattern of a linear probing table is a function of the hash
multiset alone, computable with one prefix scan over one period of the
table, and probe/run lengths for fresh queries only depend on that pattern.
The two paths are required to agree and are tested against each other.
Every scan refuses a hash cell outside the table, and the scans of an
occupancy refuse one that is not a 1-D bool array.

``probe_experiment`` takes each trial's key pool and tornado hashes from
:func:`tornadotab.experiments.trial_blocks`, a chunk of trials at a time,
and scans the occupancy of each trial and each hash source in turn. Tornado
derives and evaluates only the keys it inserts and queries, not the pool's
n_star - n keys in between, which only the mixer baseline's n_star table
hashes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .core import TornadoSpec, check_count, check_real, check_seed
from .experiments import ExperimentReport, Verdict, trial_blocks


class TableFullError(RuntimeError):
    pass


class ProbeTable:
    """Open-addressing table with linear probing, no deletions."""

    __slots__ = ("m", "cells", "count")

    def __init__(self, m: int):
        m = check_count("capacity", m)
        if m & (m - 1):
            raise ValueError("capacity must be a power of two")
        self.m = m
        self.cells: list = [None] * m
        self.count = 0

    def insert(self, key, h: int) -> int:
        """Place key at the first free cell from h onward; returns probes."""
        if self.count >= self.m:
            raise TableFullError("table is full")
        i = h & (self.m - 1)
        probes = 1
        while self.cells[i] is not None:
            i = (i + 1) & (self.m - 1)
            probes += 1
        self.cells[i] = key
        self.count += 1
        return probes

    def lookup(self, key, h: int) -> tuple[bool, int]:
        """Scan from h until the key or an empty cell; (found, probes)."""
        i = h & (self.m - 1)
        probes = 1
        while self.cells[i] is not None:
            if self.cells[i] == key:
                return True, probes
            i = (i + 1) & (self.m - 1)
            probes += 1
        return False, probes

    def run_length(self, h: int) -> int:
        """Length of the maximal occupied interval containing cell h (0 if empty)."""
        i = h & (self.m - 1)
        if self.cells[i] is None:
            return 0
        if self.count >= self.m:
            return self.m
        lo = i
        while self.cells[(lo - 1) & (self.m - 1)] is not None:
            lo = (lo - 1) & (self.m - 1)
        length = 0
        j = lo
        while self.cells[j] is not None:
            length += 1
            j = (j + 1) & (self.m - 1)
        return length

    def occupancy(self) -> np.ndarray:
        return np.array([c is not None for c in self.cells], dtype=bool)


def occupancy_from_hashes(m: int, hashes: np.ndarray) -> np.ndarray:
    """Final occupancy of linear probing with the given hash multiset, by one
    scan over one period of the m cells.

    With s = counts - 1 per cell, the keys that leave cell j are the largest
    sum of s over a cyclic window ending at j, or none. At the cell where the
    prefix sum of s is lowest every such window sums below 0 (the whole table
    sums to n - m < 0), so no key leaves it and no run crosses into the next
    cell. The scan starts there: with b the running sum of s from the start,
    a cell is occupied iff b there is at least the lowest of 0 and the
    earlier values of b. ConfigError unless m is an integer of at least 1,
    ValueError if a hash is outside [0, m).
    """
    m = check_count("m", m)
    if len(hashes) >= m:
        raise TableFullError("table would be full")
    counts = np.bincount(np.asarray(hashes, dtype=np.int64), minlength=m)
    if len(counts) > m:
        raise ValueError(f"hash cell {len(counts) - 1} outside [0, {m})")
    prefix = np.cumsum(counts - 1)
    start = int(prefix.argmin()) + 1
    # the running sum of s from cell ``start`` on, wrapping round to cell start - 1
    b = np.concatenate((prefix[start:], prefix[:start] + prefix[-1])) - prefix[start - 1]
    low = np.minimum(np.minimum.accumulate(b), 0)  # low[j]: lowest of 0 and b[:j + 1]
    occ = np.empty(m, dtype=bool)
    occ[0] = b[0] >= 0
    np.greater_equal(b[1:], low[:-1], out=occ[1:])
    return np.roll(occ, start)


def _scan_inputs(occ: np.ndarray, hashes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The hash cells as int64 and the empty cells of ``occ``. ValueError
    unless ``occ`` is a 1-D bool array (an integer array would read as cell
    indices) and each cell is in [0, len(occ)); TableFullError if no cell is
    empty."""
    if not isinstance(occ, np.ndarray) or occ.dtype != bool or occ.ndim != 1:
        raise ValueError("occupancy must be a 1-D bool array")
    m = len(occ)
    cells = np.asarray(hashes, dtype=np.int64)
    if cells.size and (cells.min() < 0 or cells.max() >= m):
        raise ValueError(f"hash cells must be in [0, {m})")
    empt = np.flatnonzero(~occ)
    if len(empt) == 0:
        raise TableFullError("no empty cells")
    return cells, empt


def fresh_probe_lengths(occ: np.ndarray, hashes: np.ndarray) -> np.ndarray:
    """Probes needed to insert fresh keys at the given hash cells (occupancy
    holds only previously inserted keys): distance to the next empty cell + 1."""
    hashes, empt = _scan_inputs(occ, hashes)
    m = len(occ)
    e2 = np.concatenate([empt, empt + m])
    idx = np.searchsorted(e2, hashes)
    return e2[idx] - hashes + 1


def run_lengths_at(occ: np.ndarray, hashes: np.ndarray) -> np.ndarray:
    """Run length of the occupied interval containing each hash cell."""
    hashes, empt = _scan_inputs(occ, hashes)
    m = len(occ)
    nxt = np.concatenate([empt, empt + m])
    prv = np.concatenate([empt - m, empt])
    next_e = nxt[np.searchsorted(nxt, hashes)]
    prev_e = prv[np.searchsorted(prv, hashes, side="right") - 1]
    out = next_e - prev_e - 1
    out[~occ[hashes]] = 0
    return out


@dataclass
class ProbeStats:
    """Per-query samples from one hash source, one row per trial."""

    source: str
    probe_lengths: np.ndarray

    @property
    def mean(self) -> float:
        return float(self.probe_lengths.mean())

    def cdf(self, upto: int | None = None) -> np.ndarray:
        """Empirical CDF over probe lengths 0..upto (pooled across trials)."""
        flat = self.probe_lengths.ravel()
        hi = int(flat.max()) if upto is None else upto
        counts = np.bincount(np.minimum(flat, hi), minlength=hi + 1)
        return np.cumsum(counts) / flat.size


def dkw_tolerance(n_a: int, n_b: int, confidence: float = 0.99) -> float:
    """Two-sample DKW-style uniform CDF tolerance at the given confidence."""
    n_a, n_b = check_count("n_a", n_a), check_count("n_b", n_b)
    alpha = 1.0 - check_real("confidence", confidence, 0, 1)
    return math.sqrt(math.log(4.0 / alpha) / (2 * n_a)) + math.sqrt(
        math.log(4.0 / alpha) / (2 * n_b)
    )


@dataclass
class ProbeComparison:
    tornado: ProbeStats
    baseline: ProbeStats
    baseline_star: ProbeStats
    knuth_ref: float
    n: int
    n_star: int
    m: int
    trials: int
    seed: int
    dominance_margin: float
    dominance_tolerance: float
    dominates: bool
    params: dict = field(default_factory=dict)

    def to_reports(self) -> list[ExperimentReport]:
        common = dict(self.params, n=self.n, m=self.m, n_star=self.n_star)
        mean_rep = ExperimentReport(
            name="probing_mean_probe_length",
            estimate=self.tornado.mean,
            stderr=0.0,
            bound=self.knuth_ref,
            trials=self.trials,
            seed=self.seed,
            params=dict(common, baseline_mean=self.baseline.mean),
            verdict=Verdict.INFORMATIONAL,
        )
        dom_rep = ExperimentReport(
            name="probing_cdf_dominance",
            estimate=max(0.0, -self.dominance_margin),
            stderr=0.0,
            bound=self.dominance_tolerance,
            trials=self.trials,
            seed=self.seed,
            params=dict(common, margin=self.dominance_margin),
            verdict=Verdict.WITHIN_BOUND if self.dominates else Verdict.VIOLATION,
        )
        return [mean_rep, dom_rep]


def probe_experiment(
    spec: TornadoSpec,
    n: int,
    m: int,
    queries: int,
    trials: int,
    seed: int,
    star_delta: float = 0.01,
) -> ProbeComparison:
    """Paired probe-length measurement: tornado vs. seeded-mixer baseline.

    Each trial inserts a fresh random key set of size n under both hash
    sources and measures insertion probe counts for fresh query keys. A
    third table hashes n_star = (1 + 15*sqrt(log(1/star_delta)/sigma))*n
    keys with the baseline mixer; the tornado probe-length CDF is compared
    against it for stochastic dominance within a DKW-style tolerance. The gate
    sees a stuck low top bit, not zeroed levels (simple tabulation passes too).
    """
    n = check_count("n", n, 0)
    m = check_count("m", m)
    if (1 << spec.out_bits) != m:
        raise ValueError("probing requires out_bits = log2(m)")
    if n / m > 4 / 5:
        raise ValueError("load factor above 4/5 is outside the supported regime")
    queries = check_count("queries", queries)
    trials = check_count("trials", trials)
    # 0 divides by zero, 1 compares the baseline with itself
    star_delta = check_real("star_delta", star_delta, 0, 1)
    check_seed(seed)
    n_star = math.ceil((1.0 + 15.0 * math.sqrt(math.log(1.0 / star_delta) / spec.sigma)) * n)
    if n_star >= m:
        raise ValueError(
            f"n_star {n_star} does not fit the table; lower the load or raise sigma"
        )
    shapes = (trials, queries)
    stats = {name: ProbeStats(name, np.zeros(shapes, np.int64))
             for name in ("tornado", "random", "random_star")}
    # tornado derives and evaluates only the n inserted keys and the queries
    read = np.r_[0:n, n_star:n_star + queries]
    for lo, seeds, pools, _, evals in trial_blocks(spec, n_star + queries, True, seed, 0, trials,
                                                   read, keep_chars=False):
        for b, ts in enumerate(seeds.tolist()):
            # the mixer hashes key by key, so the n-key table's hashes are a prefix
            mixed = rng.mixer_hash_vec(ts, pools[b], spec.out_bits)
            for name, hashes, qhashes in (
                ("tornado", evals[b, :n], evals[b, n:]),
                ("random", mixed[:n], mixed[n_star:]),
                ("random_star", mixed[:n_star], mixed[n_star:]),
            ):
                occ = occupancy_from_hashes(m, hashes)
                stats[name].probe_lengths[lo + b] = fresh_probe_lengths(occ, qhashes)
    eps = 1.0 - n / m
    knuth_ref = (1.0 + 1.0 / eps**2) / 2.0
    tor, base, star = stats["tornado"], stats["random"], stats["random_star"]
    hi = int(max(tor.probe_lengths.max(), star.probe_lengths.max()))
    margin = float((tor.cdf(hi) - star.cdf(hi)).min())
    tol = dkw_tolerance(tor.probe_lengths.size, star.probe_lengths.size)
    return ProbeComparison(
        tornado=tor,
        baseline=base,
        baseline_star=star,
        knuth_ref=knuth_ref,
        n=n,
        n_star=n_star,
        m=m,
        trials=trials,
        seed=seed,
        dominance_margin=margin,
        dominance_tolerance=tol,
        dominates=margin >= -tol,
        params={"spec": spec.spec_string(), "queries": queries, "star_delta": star_delta},
    )


def histograms_csv(comparison: ProbeComparison) -> str:
    """Per-trial probe-length histograms: source, seed, probe_length, count."""
    lines = ["source,seed,probe_length,count"]
    seeds = rng.trial_seed_vec(comparison.seed, np.arange(comparison.trials)).tolist()
    for st in (comparison.tornado, comparison.baseline, comparison.baseline_star):
        for ts, row in zip(seeds, st.probe_lengths):
            lengths, counts = np.unique(row, return_counts=True)
            lines.extend(f"{st.source},{ts:#x},{length},{count}"
                         for length, count in zip(lengths.tolist(), counts.tolist()))
    return "\n".join(lines) + "\n"
