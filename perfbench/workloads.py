"""The benchmark's activities: what each block runs, and how it is checked.

An activity is one end-to-end metric: a block of fixed size (keys or
trials) that calls one public entry point of the library, a check run
outside the timed region, and a digest of the block's output. The three
workload groups build their activities from the workload seed; the library
only ever sees the generated keys, specs, selectors and seeds.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from tornadotab import core, experiments, linprobe, rng, selectors
from tornadotab.cli import default_zero_set
from tornadotab.core import TornadoHash, parse_spec_string
from tornadotab.experiments import Verdict

# Block sizes. "full" is what the benchmark measures; "tiny" keeps every
# code path but shrinks the work so the smoke test runs in seconds.
SCALES = {
    "full": dict(hash_keys=1 << 20, mix_keys=1 << 18, scalar_keys=4096, folded_scalar_keys=32768,
                 mix_scalar_keys=16384, dependence=1536, lowerbound=896, survival=65536,
                 chernoff=150, chaining=384, probing=2),
    "tiny": dict(hash_keys=1 << 12, mix_keys=1 << 10, scalar_keys=64, folded_scalar_keys=256,
                 mix_scalar_keys=256, dependence=32, lowerbound=32, survival=4096,
                 chernoff=4, chaining=32, probing=1),
}
CHECK_TRIALS = 2  # leading trials of each Monte Carlo block re-derived per hash
SURVIVAL_CHECK_TRIALS = 64  # survival is rare (about 1 in 30) and cheap to re-derive
CHERNOFF_CHECK_DELTA = 1e-9  # a threshold near mu flags about half the re-derived trials
MIX_REFERENCE_KEYS = 256  # mix keys also evaluated through the scalar reference path

SPEC_HASH = "tornado,cb=8,c=4,d=4,r=24"
SPEC_MIX = "tornadomix,cb=8,c=8,d=5,r=64,psi=16"
SPEC_DEPENDENCE = "tornado,cb=8,c=2,d=4,r=8"
SPEC_LOWERBOUND = "tornado,cb=8,c=2,d=3,r=8"
SPEC_CHERNOFF = "tornado,cb=8,c=2,d=4,r=6"
SPEC_CHAINING = "tornado,cb=8,c=2,d=4,r=8"
SPEC_PROBING = "tornado,cb=16,c=2,d=4,r=16"
PROBE_N, PROBE_M, PROBE_QUERIES = 49152, 65536, 1024
SURVIVAL_ROUNDS = 2


class CheckFailed(Exception):
    """A block's output disagrees with what the library must compute."""


def derive_seed(seed: int, *labels) -> int:
    """64-bit seed for one named input stream of the benchmark."""
    text = repr((seed,) + labels).encode()
    return int.from_bytes(hashlib.blake2b(text, digest_size=8).digest(), "little")


@dataclass
class Activity:
    """One end-to-end metric and the block that measures it."""

    metric: str
    unit: str  # "ns/key" (lower is better) or "trials/s" (higher is better)
    work: int  # keys or trials per block
    run: Callable[[int], object]  # block index -> output; the only timed call
    check: Callable[[int, object], None]  # raises CheckFailed
    digest: Callable[[object], bytes]
    violations: Callable[[object], int] = lambda out: 0
    control: str = "numpy"  # the machine-speed control this block is scaled by


    def rate(self, seconds: float) -> float:
        if self.unit == "ns/key":
            return seconds * 1e9 / self.work
        return self.work / seconds


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _array_bytes(values) -> bytes:
    return np.asarray(values, dtype=np.uint64).tobytes()


def _report_bytes(reports) -> bytes:
    return repr([(r.name, r.estimate, r.stderr, r.bound, r.trials, r.verdict.value)
                 for r in reports]).encode()


def _check_reports(reports, trials: int) -> None:
    for r in reports:
        _require(all(math.isfinite(v) for v in (r.estimate, r.stderr, r.bound)),
                 f"{r.name}: non-finite report")
        _require(r.trials == trials, f"{r.name}: {r.trials} trials, asked for {trials}")


def _violations(reports) -> int:
    return sum(r.verdict is Verdict.VIOLATION for r in reports)


def _count(report) -> int:
    """Trial count behind a binomial estimate."""
    return round(report.estimate * report.trials)


# -- hash-eval ------------------------------------------------------------------


def hash_eval(seed: int, scale: str) -> list[Activity]:
    """Hash users' work: one hash per spec, evaluated over a key buffer."""
    size = SCALES[scale]
    gen = np.random.default_rng(derive_seed(seed, "hash-eval", "keys"))
    keys = gen.integers(0, 1 << 32, size=size["hash_keys"], dtype=np.uint64)
    mix_keys = gen.integers(0, 1 << 64, size=size["mix_keys"], dtype=np.uint64)
    h = TornadoHash.build(parse_spec_string(SPEC_HASH), derive_seed(seed, "hash-eval", "w64"))
    hm = TornadoHash.build(parse_spec_string(SPEC_MIX), derive_seed(seed, "hash-eval", "mix"))
    h.folded  # the lazy folds belong to set-up
    hm.folded
    expected = core.eval_folded_batch(h, keys)
    mix_expected = hm.eval_batch(mix_keys)
    _require([hm.eval(int(x)) for x in mix_keys[:MIX_REFERENCE_KEYS]]
             == mix_expected[:MIX_REFERENCE_KEYS].tolist(),
             "mix eval_batch differs from scalar eval")
    scalar = [int(x) for x in keys[:size["scalar_keys"]]]
    folded_scalar = [int(x) for x in keys[:size["folded_scalar_keys"]]]
    mix_scalar = [int(x) for x in mix_keys[:size["mix_scalar_keys"]]]

    def equals(reference, what):
        def check(_block, out):
            _require(np.array_equal(np.asarray(out, dtype=np.uint64), reference[:len(out)]), what)
        return check

    return [
        Activity("hash.batch_ns_per_key", "ns/key", len(keys),
                 lambda b: h.eval_batch(keys),
                 equals(expected, "eval_batch differs from eval_folded_batch"), _array_bytes),
        Activity("hash.folded_batch_ns_per_key", "ns/key", len(keys),
                 lambda b: core.eval_folded_batch(h, keys),
                 equals(expected, "eval_folded_batch is not deterministic"), _array_bytes),
        Activity("hash.scalar_ns_per_key", "ns/key", len(scalar),
                 lambda b: [h.eval(x) for x in scalar],
                 equals(expected, "scalar eval differs from the batch paths"), _array_bytes,
                 control="python"),
        Activity("hash.folded_scalar_ns_per_key", "ns/key", len(folded_scalar),
                 lambda b: [h.eval_folded(x) for x in folded_scalar],
                 equals(expected, "scalar eval_folded differs from the batch paths"), _array_bytes,
                 control="python"),
        Activity("hash.mix_folded_scalar_ns_per_key", "ns/key", len(mix_scalar),
                 lambda b: [hm.eval_folded(x) for x in mix_scalar],
                 equals(mix_expected, "mix eval_folded differs from eval"), _array_bytes,
                 control="python"),
        Activity("hash.mix_batch_ns_per_key", "ns/key", len(mix_keys),
                 lambda b: hm.eval_batch(mix_keys),
                 equals(mix_expected, "mix eval_batch is not deterministic"), _array_bytes),
    ]


# -- mc-sparse ------------------------------------------------------------------


def _dependent_per_hash(sel, spec, block_seed: int, trials: int) -> int:
    """Dependent trials among the first ones, one TornadoHash per trial."""
    return sum(
        not selectors.selected_derived_independent(
            sel, TornadoHash.build(spec, rng.trial_seed(block_seed, t)))
        for t in range(trials))


def _dependence_activity(metric, sel, spec, trials, block_seed) -> Activity:
    def run(b):
        return [experiments.measure_dependence(sel, spec, trials, block_seed(b), workers=1)]

    def check(b, reports):
        _check_reports(reports, trials)
        k = min(CHECK_TRIALS, trials)
        engine = experiments.measure_dependence(sel, spec, k, block_seed(b), workers=1)
        _require(_count(engine) == _dependent_per_hash(sel, spec, block_seed(b), k),
                 f"{metric}: chunk engine and single-hash path disagree")

    return Activity(metric, "trials/s", trials, run, check, _report_bytes, _violations)


def mc_sparse(seed: int, scale: str) -> list[Activity]:
    """Few keys per trial relative to the table size."""
    size = SCALES[scale]
    gen = np.random.default_rng(derive_seed(seed, "mc-sparse", "keys"))
    dep_spec = parse_spec_string(SPEC_DEPENDENCE)
    dep_sel = selectors.fixed_set(int(k) for k in gen.choice(1 << dep_spec.key_bits, 128,
                                                             replace=False))
    lb_spec = parse_spec_string(SPEC_LOWERBOUND)
    lb_sel = selectors.hard_instance(lb_spec.char_bits)
    surv_spec = core.TornadoSpec(4, 2, SURVIVAL_ROUNDS, 1, core.Variant.SIMPLE_TORNADO)
    zero_set = default_zero_set(surv_spec.char_bits)
    surv_trials = size["survival"]

    def block_seed(name):
        return lambda b: derive_seed(seed, "mc-sparse", name, b)

    surv_seed = block_seed("survival")

    def survival_run(b):
        return [experiments.survival_rounds(surv_spec, zero_set, surv_trials, surv_seed(b),
                                            SURVIVAL_ROUNDS)]

    def survival_check(b, reports):
        _check_reports(reports, surv_trials)
        k = min(SURVIVAL_CHECK_TRIALS, surv_trials)
        engine = experiments.survival_rounds(surv_spec, zero_set, k, surv_seed(b), SURVIVAL_ROUNDS)
        survived = 0
        for t in range(k):
            h = TornadoHash.build(surv_spec, rng.trial_seed(surv_seed(b), t))
            derived = [h.derive(x) for x in zero_set]
            # the zero-set survives a round when its four derived characters pair up
            for p in range(surv_spec.c, surv_spec.positions):
                chars = sorted(d[p] for d in derived)
                if chars[0::2] != chars[1::2]:
                    break
            else:
                survived += 1
        _require(_count(engine) == survived, "survival: chunk engine and single-hash path disagree")

    return [
        _dependence_activity("dependence.trials_per_s", dep_sel, dep_spec, size["dependence"],
                             block_seed("dependence")),
        _dependence_activity("lowerbound.trials_per_s", lb_sel, lb_spec, size["lowerbound"],
                             block_seed("lowerbound")),
        Activity("survival.trials_per_s", "trials/s", surv_trials, survival_run, survival_check,
                 _report_bytes),
    ]


# -- mc-dense -------------------------------------------------------------------


def mc_dense(seed: int, scale: str) -> list[Activity]:
    """Many keys per trial: gathers, per-trial sampling and per-trial builds."""
    size = SCALES[scale]
    gen = np.random.default_rng(derive_seed(seed, "mc-dense", "keys"))
    ch_spec = parse_spec_string(SPEC_CHERNOFF)
    ch_sel = selectors.bin_selector(
        (int(k) for k in gen.choice(1 << ch_spec.key_bits, 4096, replace=False)), 0)
    delta = 0.5
    cn_spec = parse_spec_string(SPEC_CHAINING)
    n_chain, k_list = 256, (4, 8)
    pr_spec = parse_spec_string(SPEC_PROBING)
    ch_trials, cn_trials, pr_trials = size["chernoff"], size["chaining"], size["probing"]

    def block_seed(name):
        return lambda b: derive_seed(seed, "mc-dense", name, b)

    ch_seed, cn_seed, pr_seed = block_seed("chernoff"), block_seed("chaining"), block_seed("probing")

    def chernoff_check(b, reports):
        _check_reports(reports, ch_trials)
        k = min(CHECK_TRIALS, ch_trials)
        engine = experiments.chernoff_tail(ch_sel, ch_spec, CHERNOFF_CHECK_DELTA, k, ch_seed(b),
                                           workers=1)
        threshold = (1.0 + CHERNOFF_CHECK_DELTA) * selectors.mu(ch_sel, ch_spec.out_bits)
        joint = 0
        for t in range(k):
            h = TornadoHash.build(ch_spec, rng.trial_seed(ch_seed(b), t))
            if len(selectors.select(ch_sel, h)) >= threshold:
                joint += selectors.selected_derived_independent(ch_sel, h)
        _require(_count(engine) == joint, "chernoff: chunk engine and single-hash path disagree")

    def chaining_check(b, reports):
        _check_reports(reports, cn_trials)
        k = min(CHECK_TRIALS, cn_trials)
        in_bin0 = []
        for t in range(k):
            ts = rng.trial_seed(cn_seed(b), t)
            keys = rng.sample_distinct_keys(ts, n_chain, cn_spec.key_bits)
            in_bin0.append(int((TornadoHash.build(cn_spec, ts).eval_batch(keys) == 0).sum()))
        # one threshold per possible count pins down every trial's bin-0 count
        thresholds = range(1, max(in_bin0) + 2)
        engine = experiments.chaining_tail(cn_spec, n_chain, thresholds, k, cn_seed(b), workers=1)
        for rep, kk in zip(engine, thresholds):
            _require(_count(rep) == sum(c >= kk for c in in_bin0),
                     "chaining: chunk engine and eval_batch bin counts disagree")

    def probing_run(b):
        return linprobe.probe_experiment(pr_spec, PROBE_N, PROBE_M, PROBE_QUERIES, pr_trials,
                                         pr_seed(b), 0.01)

    def probing_check(b, comparison):
        _check_reports(comparison.to_reports(), pr_trials)
        ts = rng.trial_seed(pr_seed(b), 0)
        pool = rng.sample_distinct_keys(ts, comparison.n_star + PROBE_QUERIES, pr_spec.key_bits)
        h = TornadoHash.build(pr_spec, ts)
        occ = linprobe.occupancy_from_hashes(PROBE_M, h.eval_batch(pool[:PROBE_N]))
        lengths = linprobe.fresh_probe_lengths(
            occ, h.eval_batch(pool[comparison.n_star:]).astype(np.int64))
        _require(np.array_equal(lengths, comparison.tornado.probe_lengths[0]),
                 "probing: first trial differs when re-derived")

    def probing_bytes(comparison):
        return _report_bytes(comparison.to_reports()) + comparison.tornado.probe_lengths.tobytes()

    return [
        Activity("chernoff.trials_per_s", "trials/s", ch_trials,
                 lambda b: [experiments.chernoff_tail(ch_sel, ch_spec, delta, ch_trials, ch_seed(b),
                                                      workers=1)],
                 chernoff_check, _report_bytes, _violations),
        Activity("chaining.trials_per_s", "trials/s", cn_trials,
                 lambda b: experiments.chaining_tail(cn_spec, n_chain, k_list, cn_trials,
                                                     cn_seed(b), workers=1),
                 chaining_check, _report_bytes, _violations),
        Activity("probing.trials_per_s", "trials/s", pr_trials, probing_run, probing_check,
                 probing_bytes, lambda c: _violations(c.to_reports())),
    ]


WORKLOADS = {"hash-eval": hash_eval, "mc-sparse": mc_sparse, "mc-dense": mc_dense}


def probe_table_reference(seed: int) -> None:
    """Check the probing occupancy scan against textbook linear probing once."""
    spec = parse_spec_string(SPEC_PROBING)
    ts = rng.trial_seed(derive_seed(seed, "mc-dense", "probe-table"), 0)
    pool = rng.sample_distinct_keys(ts, PROBE_N + PROBE_QUERIES, spec.key_bits)
    h = TornadoHash.build(spec, ts)
    hashes, qhashes = h.eval_batch(pool[:PROBE_N]), h.eval_batch(pool[PROBE_N:])
    table = linprobe.ProbeTable(PROBE_M)
    for i, x in enumerate(hashes.tolist()):
        table.insert(i, x)
    reference = [table.lookup(-1, q)[1] for q in qhashes.tolist()]  # -1: never inserted
    occ = linprobe.occupancy_from_hashes(PROBE_M, hashes)
    _require(linprobe.fresh_probe_lengths(occ, qhashes.astype(np.int64)).tolist() == reference,
             "probing: occupancy scan differs from the textbook table")
