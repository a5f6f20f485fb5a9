"""Monte Carlo and exact-enumeration checks of the probability bounds.

Every experiment is a pure function of its parameters and a master seed:
trial ``t`` builds its hash function from ``rng.trial_seed(master_seed, t)``,
so runs are reproducible bit for bit and trials can be processed in chunks
or on worker processes in any order.

Trials are vectorized across a chunk: all lookup tables for a chunk of
trials are generated in one pass, and linear-independence checks first peel
keys containing a position character unique in their trial (such keys cannot
take part in any zero-set), falling back to exact F2 elimination for the
rare survivors.

Derived keys and hashes are computed with flat gathers. Each table of a
chunk is one contiguous (B, ...) array, so the entry trial ``b`` reads at
character ``ch`` lies at flat offset ``b * stride + ch`` (plus ``j * alphabet``
for position ``j`` of a level table), and one ``np.take`` on the raveled
table reads a whole (B, n) block. Derived characters are kept as ``intp``,
stored position by position, so each position is a contiguous block of
offsets that needs no cast.

Every entry point rejects a trial count below 1 and selector candidates
outside the spec's key universe, and a report refuses a non-finite estimate,
so no degenerate run reaches a verdict.
"""

from __future__ import annotations

import enum
import json
import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import rng, selectors
from .core import TornadoSpec, Variant, check_key, check_keys
from .gf2 import GF2Basis, GenKey, is_zero_set

_U = np.uint64


class Verdict(enum.Enum):
    WITHIN_BOUND = "WithinBound"
    VIOLATION = "Violation"
    INFORMATIONAL = "Informational"


@dataclass(frozen=True)
class ExperimentReport:
    """Named estimate vs. theoretical bound, with enough context to rerun."""

    name: str
    estimate: float
    stderr: float
    bound: float
    trials: int
    seed: int
    params: dict = field(default_factory=dict)
    verdict: Verdict = Verdict.INFORMATIONAL

    def __post_init__(self) -> None:
        if not math.isfinite(self.estimate):
            raise ValueError(f"estimate must be finite, got {self.estimate}")
        if self.estimate < 0:
            raise ValueError("estimate must be >= 0")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.verdict is Verdict.VIOLATION and not self.estimate - 4 * self.stderr > self.bound:
            raise ValueError("Violation verdict requires estimate - 4*stderr > bound")

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "estimate": self.estimate,
            "stderr": self.stderr,
            "bound": self.bound,
            "trials": self.trials,
            "seed": f"{self.seed:#x}",
            "verdict": self.verdict.value,
            "params": self.params,
        }


CSV_HEADER = "name,estimate,stderr,bound,trials,seed,verdict,params"


def reports_to_csv(reports) -> str:
    lines = [CSV_HEADER]
    for r in reports:
        params = json.dumps(r.params, sort_keys=True).replace('"', "'")
        lines.append(
            f"{r.name},{r.estimate!r},{r.stderr!r},{r.bound!r},"
            f"{r.trials},{r.seed:#x},{r.verdict.value},\"{params}\""
        )
    return "\n".join(lines) + "\n"


def reports_to_json(reports) -> str:
    return json.dumps([r.to_json_dict() for r in reports], indent=2, sort_keys=True)


def binomial_stderr(estimate: float, trials: int) -> float:
    return math.sqrt(estimate * (1.0 - estimate) / trials) if trials else 0.0


def _upper_verdict(estimate: float, stderr: float, bound: float, informational: bool) -> Verdict:
    """One-sided 4-sigma rule for upper-bound experiments."""
    if informational:
        return Verdict.INFORMATIONAL
    return Verdict.VIOLATION if estimate - 4 * stderr > bound else Verdict.WITHIN_BOUND


def check_count(name: str, value: int) -> None:
    """Reject a trial or round count below 1, which no estimate can rest on."""
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


# -- bound formulas ----------------------------------------------------------


def dependence_bound(mu: float, d: int, sigma_size: int) -> float:
    """Probability bound on derived selected keys being linearly dependent.

    Warns when sigma_size < 256: the bound is stated for byte-or-larger
    alphabets, smaller runs are informational.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    if sigma_size < 256:
        warnings.warn(
            f"sigma {sigma_size} < 256 is outside the bound's stated regime",
            RuntimeWarning,
            stacklevel=2,
        )
    return 7.0 * mu**3 * (3.0 / sigma_size) ** (d + 1) + 2.0 ** (-sigma_size / 2)


def dependence_bound_mix(mu: float, d: int, sigma_size: int, psi_size: int) -> float:
    """Tornado-mix analogue, last two derived characters from an alphabet of
    psi_size."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    if psi_size < sigma_size:
        raise ValueError("psi_size must be >= sigma_size")
    return (
        14.0 * mu**3 * (3.0 / psi_size) ** 2 * (3.0 / sigma_size) ** (d - 1)
        + 2.0 ** (-sigma_size / 2)
    )


def chernoff_bound(mu: float, delta: float) -> float:
    """Classic upper-tail rate (e^d / (1+d)^(1+d))^mu."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    return math.exp(mu * (delta - (1.0 + delta) * math.log1p(delta)))


def chaining_bound(k: int, d: int, sigma_size: int) -> float:
    """Bound on a fixed bin of n receiving >= k of n thrown keys."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return math.exp(k - 1) / float(k) ** k + 7.0 * (3.0 / sigma_size) ** (d + 1) + 2.0 ** (
        -sigma_size / 2
    )


def large_mu_delta0(mu: float, delta: float, sigma_size: int, n_queries: int) -> float:
    half = sigma_size / 2
    return mu / (mu - n_queries) * ((half - n_queries) / half) * delta


def large_mu_bound(mu: float, delta: float, d: int, sigma_size: int, n_queries: int) -> float:
    """Tail bound for selectors whose expected size exceeds sigma/2."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    if not mu > sigma_size / 2:
        raise ValueError("large-mu bound requires mu > sigma/2")
    if not n_queries < sigma_size / 2:
        raise ValueError("requires |Q| < sigma/2")
    d0 = large_mu_delta0(mu, delta, sigma_size, n_queries)
    return 4.0 * chernoff_bound(sigma_size / 2, d0) + 4.0 * dependence_bound(
        sigma_size / 2, d, sigma_size
    )


# -- chunked trial engine ----------------------------------------------------


def _chunk_trials(spec: TornadoSpec, n_keys: int, need_top: bool) -> int:
    entries = sum(spec.level_input_positions(lv) for lv in spec.levels()) * spec.sigma
    if need_top:
        entries += sum(1 << spec.position_bits(i) for i in range(spec.positions))
    per_trial = entries + n_keys * spec.positions * 2
    chunk = (1 << 23) // max(per_trial, 1)
    max_alpha = max(1 << spec.position_bits(i) for i in range(spec.positions))
    chunk = min(chunk, (1 << 24) // max_alpha)
    return int(min(1 << 16, max(16, chunk)))


def _chunk_level_tables(spec: TornadoSpec, seeds: np.ndarray) -> dict[int, np.ndarray]:
    """Level tables for many trials at once: level -> (B, npos, sigma)."""
    out: dict[int, np.ndarray] = {}
    s3 = seeds[:, None, None]
    for level in spec.levels():
        npos = spec.level_input_positions(level)
        mask = _U((1 << spec.level_output_bits(level)) - 1)
        pos = np.arange(npos, dtype=np.uint64)[None, :, None]
        slot = np.arange(spec.sigma, dtype=np.uint64)[None, None, :]
        vals = rng.field_value_vec(s3, rng.KIND_LEVEL, level, pos, slot) & mask
        out[level] = vals.astype(np.uint32)
    return out


def _chunk_top_tables(spec: TornadoSpec, seeds: np.ndarray) -> list[np.ndarray]:
    out = []
    mask = _U(((1 << spec.out_bits) - 1) & rng.M64)
    for i in range(spec.positions):
        size = 1 << spec.position_bits(i)
        slots = np.arange(size, dtype=np.uint64)[None, :]
        out.append(rng.field_value_vec(seeds[:, None], rng.KIND_TOP, 0, i, slots) & mask)
    return out


def _trial_base(n_trials: int, stride: int) -> np.ndarray:
    """(B, 1) flat offset of each trial's block in a table of row size stride."""
    return np.arange(n_trials, dtype=np.intp)[:, None] * stride


def _xor_gather(table: np.ndarray, chars: np.ndarray, n_pos: int) -> np.ndarray:
    """XOR over j < n_pos of table[b, j, chars[b, k, j]], as flat takes.

    table is a contiguous (B, n_pos, alphabet) stack, so that entry sits at
    flat offset b*n_pos*alphabet + j*alphabet + chars[b, k, j].
    """
    flat = table.reshape(-1)
    alphabet = table.shape[-1]
    base = _trial_base(len(table), n_pos * alphabet)
    acc = np.take(flat, chars[:, :, 0] + base)
    for j in range(1, n_pos):
        acc ^= np.take(flat, chars[:, :, j] + (base + j * alphabet))
    return acc


def _derive_chunk(spec: TornadoSpec, level_tables: dict[int, np.ndarray], xs: np.ndarray,
                  n_trials: int) -> np.ndarray:
    """Derived keys for each trial, (B, n, c + d) intp; xs is (n,) shared or
    (B, n) per trial.

    Characters are kept as intp so they index the flat tables directly. The
    result is a view of position-major storage: each chars[:, :, i] that a
    gather or the peeling reads is one contiguous (B, n) block, where
    key-major storage made every gather stride over all c + d positions.
    """
    xs = np.asarray(xs, dtype=np.uint64)
    shape = xs.shape if xs.ndim == 2 else (n_trials, len(xs))
    chars = np.empty((spec.positions,) + shape, dtype=np.intp).transpose(1, 2, 0)
    cmask = _U(spec.sigma - 1)
    for i in range(spec.c):
        chars[:, :, i] = (xs >> _U(i * spec.char_bits)) & cmask
    if spec.variant in (Variant.TORNADO, Variant.TORNADO_MIX) and spec.c > 1:
        chars[:, :, spec.c - 1] ^= _xor_gather(level_tables[0], chars, spec.c - 1)
    for level in range(1, spec.d + 1):
        if level in level_tables:
            chars[:, :, spec.c + level - 1] = _xor_gather(
                level_tables[level], chars, spec.level_input_positions(level))
    return chars


def _eval_chunk(spec: TornadoSpec, top: list[np.ndarray], chars: np.ndarray) -> np.ndarray:
    """Top-table hash of each derived key, (B, n) uint64.

    top[i] is a contiguous (B, alphabet_i) table, so one flat take per
    position reads it; a tornado-mix tail position has a psi-wide alphabet.
    """
    h = np.zeros(chars.shape[:2], dtype=np.uint64)
    for i, tbl in enumerate(top):
        h ^= np.take(tbl.reshape(-1), chars[:, :, i] + _trial_base(len(tbl), tbl.shape[1]))
    return h


def _selection_mask_chunk(
    sel: selectors.Selector,
    keys: np.ndarray,
    evals: np.ndarray | None,
    out_bits: int,
) -> np.ndarray:
    """Per-trial selection masks, (B, n) bool; keys is the sorted candidate set."""
    kind = sel.kind
    if kind is selectors.SelectorKind.FIXED_SET:
        shape = evals.shape if evals is not None else (1, len(keys))
        return np.ones(shape, dtype=bool)
    assert evals is not None
    q_idx = {q: int(np.searchsorted(keys, q)) for q in sel.query_keys}
    if kind is selectors.SelectorKind.BIT_PREFIX:
        targets = sorted(sel.targets)  # type: ignore[arg-type]
        if sel.s_bits == 0:  # empty prefix: numpy cannot shift uint64 by 64
            mask = np.full(evals.shape, 0 in targets, dtype=bool)
        else:
            pref = evals >> _U(out_bits - sel.s_bits)  # type: ignore[operator]
            mask = np.zeros(evals.shape, dtype=bool)
            if sel.relative_to_query:
                qpref = pref[:, q_idx[min(sel.query_keys)]]
                for t in targets:
                    mask |= pref == (qpref[:, None] ^ _U(t))
            else:
                for t in targets:
                    mask |= pref == _U(t)
    elif kind is selectors.SelectorKind.DYADIC_INTERVAL:
        if sel.interval_bits >= out_bits:  # type: ignore[operator]
            mask = np.ones(evals.shape, dtype=bool)
        else:
            n_iv = 1 << (out_bits - sel.interval_bits)  # type: ignore[operator]
            iv = evals >> _U(sel.interval_bits)
            center = iv[:, q_idx[sel.anchor]].astype(np.int64)
            mask = np.zeros(evals.shape, dtype=bool)
            for off in (-1, 0, 1):
                mask |= iv == ((center + off) % n_iv).astype(np.uint64)[:, None]
    else:
        if sel.bin_value is None:
            target = evals[:, q_idx[min(sel.query_keys)]][:, None]
        else:
            target = _U(sel.bin_value)
        mask = evals == target
    if sel.query_keys:
        mask[:, np.isin(keys, np.fromiter(sel.query_keys, dtype=np.uint64))] = True
    return mask


def _peel_alive(chars: np.ndarray, sizes: tuple[int, ...], alive: np.ndarray) -> np.ndarray:
    """Drop keys owning a position character unique within their trial."""
    n_trials, n_keys, b = chars.shape
    alive = alive.copy()
    while True:
        kill = np.zeros_like(alive)
        for i in range(b):
            code = chars[:, :, i] + _trial_base(n_trials, sizes[i])
            counts = np.bincount(code[alive], minlength=n_trials * sizes[i])
            kill |= alive & (counts[code] == 1)
        if not kill.any():
            return alive
        alive &= ~kill


def _dependent_rows(chars: np.ndarray, sizes: tuple[int, ...], alive: np.ndarray) -> np.ndarray:
    """Per-trial linear dependence of the alive derived keys."""
    core = _peel_alive(chars, sizes, alive)
    result = np.zeros(len(chars), dtype=bool)
    offsets = [0]
    for s in sizes:
        offsets.append(offsets[-1] + s)
    for t in np.flatnonzero(core.any(axis=1)):
        basis = GF2Basis()
        for row in chars[t][core[t]]:
            bits = 0
            for i, ch in enumerate(row):
                bits |= 1 << (offsets[i] + int(ch))
            if basis.insert(bits) is not None:
                result[t] = True
                break
    return result


def _candidates(sel: selectors.Selector, spec: TornadoSpec) -> np.ndarray:
    """The selector's sorted candidate keys, checked against the key universe."""
    return check_keys(spec, sorted(sel.keys | sel.query_keys))


def _mu_and_cap(sel: selectors.Selector, spec: TornadoSpec) -> float:
    mu_val = selectors.mu(sel, spec.out_bits)
    cap = (spec.psi if spec.variant is Variant.TORNADO_MIX else spec.sigma) / 2
    if mu_val > cap:
        raise ValueError(f"mu {mu_val} exceeds the bound's validity cap {cap}")
    return mu_val


def _dependence_range(args) -> int:
    """Count trials in [start, stop) whose derived selected keys are dependent."""
    spec, sel, master_seed, start, stop = args
    keys = _candidates(sel, spec)
    sizes = tuple(1 << spec.position_bits(i) for i in range(spec.positions))
    need_top = sel.kind is not selectors.SelectorKind.FIXED_SET
    chunk = _chunk_trials(spec, len(keys), need_top)
    count = 0
    for lo in range(start, stop, chunk):
        hi = min(lo + chunk, stop)
        seeds = rng.trial_seed_vec(master_seed, np.arange(lo, hi, dtype=np.uint64))
        lvl = _chunk_level_tables(spec, seeds)
        chars = _derive_chunk(spec, lvl, keys, len(seeds))
        if need_top:
            evals = _eval_chunk(spec, _chunk_top_tables(spec, seeds), chars)
            mask = _selection_mask_chunk(sel, keys, evals, spec.out_bits)
        else:
            mask = np.ones(chars.shape[:2], dtype=bool)
        count += int(_dependent_rows(chars, sizes, mask).sum())
    return count


def _run_ranges(fn, args_base: tuple, trials: int, workers: int):
    """Run a range worker over [0, trials) in slabs; fold deterministically."""
    if workers <= 1:
        return [fn(args_base + (0, trials))]
    bounds = np.linspace(0, trials, workers + 1, dtype=int)
    jobs = [args_base + (int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if a < b]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs))


def measure_dependence(
    sel: selectors.Selector,
    spec: TornadoSpec,
    trials: int,
    seed: int,
    workers: int = 1,
) -> ExperimentReport:
    """Fraction of seeds whose derived selected keys are linearly dependent."""
    check_count("trials", trials)
    _candidates(sel, spec)
    mu_val = _mu_and_cap(sel, spec)
    count = sum(_run_ranges(_dependence_range, (spec, sel, seed), trials, workers))
    estimate = count / trials
    stderr = binomial_stderr(estimate, trials)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # verdict carries the tag
        if spec.variant is Variant.TORNADO_MIX:
            bound = dependence_bound_mix(mu_val, spec.d, spec.sigma, spec.psi)
        else:
            bound = dependence_bound(mu_val, spec.d, spec.sigma)
    return ExperimentReport(
        name="dependence",
        estimate=estimate,
        stderr=stderr,
        bound=bound,
        trials=trials,
        seed=seed,
        params={"spec": spec.spec_string(), "mu": mu_val,
                "selector": selectors.to_json_dict(sel)},
        verdict=_upper_verdict(estimate, stderr, bound, informational=spec.sigma < 256),
    )


def _count_tail_range(args) -> tuple[int, int]:
    """(trials with |X| >= threshold, those also derived-independent)."""
    spec, sel, master_seed, threshold, joint, start, stop = args
    keys = _candidates(sel, spec)
    sizes = tuple(1 << spec.position_bits(i) for i in range(spec.positions))
    chunk = _chunk_trials(spec, len(keys), True)
    big = 0
    big_indep = 0
    for lo in range(start, stop, chunk):
        hi = min(lo + chunk, stop)
        seeds = rng.trial_seed_vec(master_seed, np.arange(lo, hi, dtype=np.uint64))
        lvl = _chunk_level_tables(spec, seeds)
        chars = _derive_chunk(spec, lvl, keys, len(seeds))
        evals = _eval_chunk(spec, _chunk_top_tables(spec, seeds), chars)
        mask = _selection_mask_chunk(sel, keys, evals, spec.out_bits)
        flag = mask.sum(axis=1) >= threshold
        big += int(flag.sum())
        if joint and flag.any():
            idx = np.flatnonzero(flag)
            dep = _dependent_rows(chars[idx], sizes, mask[idx])
            big_indep += int((~dep).sum())
    return big, big_indep


def chernoff_tail(
    sel: selectors.Selector,
    spec: TornadoSpec,
    delta: float,
    trials: int,
    seed: int,
    workers: int = 1,
) -> ExperimentReport:
    """Joint probability of an oversized selected set with independent derived
    keys, against the upper-tail rate."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    check_count("trials", trials)
    _candidates(sel, spec)
    mu_val = _mu_and_cap(sel, spec)
    threshold = (1.0 + delta) * mu_val
    parts = _run_ranges(_count_tail_range, (spec, sel, seed, threshold, True), trials, workers)
    joint = sum(p[1] for p in parts)
    estimate = joint / trials
    stderr = binomial_stderr(estimate, trials)
    bound = chernoff_bound(mu_val, delta)
    return ExperimentReport(
        name="chernoff_tail",
        estimate=estimate,
        stderr=stderr,
        bound=bound,
        trials=trials,
        seed=seed,
        params={"spec": spec.spec_string(), "mu": mu_val, "delta": delta,
                "threshold": threshold, "selector": selectors.to_json_dict(sel)},
        verdict=_upper_verdict(estimate, stderr, bound, informational=spec.sigma < 256),
    )


def large_mu_tail(
    sel: selectors.Selector,
    spec: TornadoSpec,
    delta: float,
    trials: int,
    seed: int,
    workers: int = 1,
) -> ExperimentReport:
    """Tail of the selected-set size when mu exceeds sigma/2."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    check_count("trials", trials)
    _candidates(sel, spec)
    mu_val = selectors.mu(sel, spec.out_bits)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # verdict carries the tag
        bound = large_mu_bound(mu_val, delta, spec.d, spec.sigma, len(sel.query_keys))
    threshold = (1.0 + delta) * mu_val
    parts = _run_ranges(_count_tail_range, (spec, sel, seed, threshold, False), trials, workers)
    estimate = sum(p[0] for p in parts) / trials
    stderr = binomial_stderr(estimate, trials)
    return ExperimentReport(
        name="large_mu_tail",
        estimate=estimate,
        stderr=stderr,
        bound=bound,
        trials=trials,
        seed=seed,
        params={"spec": spec.spec_string(), "mu": mu_val, "delta": delta,
                "delta0": large_mu_delta0(mu_val, delta, spec.sigma, len(sel.query_keys)),
                "selector": selectors.to_json_dict(sel)},
        verdict=_upper_verdict(estimate, stderr, bound, informational=spec.sigma < 256),
    )


def _chaining_range(args) -> np.ndarray:
    """Bin-0 occupancy counts for trials in [start, stop)."""
    spec, n, master_seed, start, stop = args
    chunk = _chunk_trials(spec, n, True)
    out = np.empty(stop - start, dtype=np.int64)
    for lo in range(start, stop, chunk):
        hi = min(lo + chunk, stop)
        idx = np.arange(lo, hi, dtype=np.uint64)
        seeds = rng.trial_seed_vec(master_seed, idx)
        keys = np.empty((len(seeds), n), dtype=np.uint64)
        for row, t in enumerate(range(lo, hi)):
            keys[row] = rng.sample_distinct_keys(rng.trial_seed(master_seed, t), n,
                                                 spec.key_bits)
        lvl = _chunk_level_tables(spec, seeds)
        chars = _derive_chunk(spec, lvl, keys, len(seeds))
        evals = _eval_chunk(spec, _chunk_top_tables(spec, seeds), chars)
        out[lo - start:hi - start] = (evals == _U(0)).sum(axis=1)
    return out


def chaining_tail(
    spec: TornadoSpec,
    n: int,
    k_list,
    trials: int,
    seed: int,
    workers: int = 1,
) -> list[ExperimentReport]:
    """Probability that a fixed bin receives >= k of n keys thrown into n bins."""
    if n & (n - 1) or n <= 0:
        raise ValueError("n must be a power of two")
    if (1 << spec.out_bits) != n:
        raise ValueError("chaining requires out_bits = log2(n)")
    check_count("trials", trials)
    parts = _run_ranges(_chaining_range, (spec, n, seed), trials, workers)
    counts = np.concatenate(parts)
    reports = []
    for k in k_list:
        estimate = float((counts >= k).mean())
        stderr = binomial_stderr(estimate, trials)
        bound = chaining_bound(k, spec.d, spec.sigma)
        reports.append(ExperimentReport(
            name=f"chaining_tail_k{k}",
            estimate=estimate,
            stderr=stderr,
            bound=bound,
            trials=trials,
            seed=seed,
            params={"spec": spec.spec_string(), "n": n, "k": k},
            verdict=_upper_verdict(estimate, stderr, bound, informational=spec.sigma < 256),
        ))
    return reports


# -- exact uniformity (full table enumeration) -------------------------------


def exact_uniformity_check(b: int, alphabet_bits: int, out_bits: int, keys) -> bool:
    """Enumerate every simple-tabulation table filling and test that the hash
    tuples of the given generalized keys are perfectly equidistributed.

    True exactly when the keys are linearly independent; the caller can feed
    a dependent set to watch equidistribution fail.
    """
    keys = list(keys)
    if not keys:
        raise ValueError("need at least one generalized key")
    sigma = 1 << alphabet_bits
    sizes = (sigma,) * b
    for k in keys:
        if k.sizes != sizes:
            raise ValueError("generalized key does not match the declared shape")
    slots = b * sigma
    total_bits = out_bits * slots
    if total_bits > 24:
        raise ValueError(f"state space 2^{total_bits} too large to enumerate")
    if out_bits * len(keys) > total_bits:
        # more hash tuples than table fillings: equidistribution impossible
        return False
    fillings = np.arange(1 << total_bits, dtype=np.uint64)
    rmask = _U((1 << out_bits) - 1)
    code = np.zeros(len(fillings), dtype=np.uint64)
    for ki, k in enumerate(keys):
        h = np.zeros(len(fillings), dtype=np.uint64)
        for pos, ch in k.position_chars():
            slot = pos * sigma + ch
            h ^= (fillings >> _U(out_bits * slot)) & rmask
        code ^= h << _U(out_bits * ki)
    counts = np.bincount(code.astype(np.int64), minlength=1 << (out_bits * len(keys)))
    expected = len(fillings) >> (out_bits * len(keys))
    return bool(counts.min() == counts.max() == expected)


# -- zero-set survival --------------------------------------------------------


def _check_zero_set4(spec: TornadoSpec, zero_set) -> list[int]:
    keys = list(zero_set)
    if len(keys) != 4 or len(set(keys)) != 4:
        raise ValueError("survival needs a zero-set of 4 distinct keys")
    for k in keys:
        check_key(spec, k)
    if spec.c < 2:
        raise ValueError("survival needs c >= 2")
    if spec.variant is not Variant.SIMPLE_TORNADO:
        raise ValueError("survival is defined for the simple-tornado recurrence")
    gks = [GenKey.from_chars(
        [(k >> (i * spec.char_bits)) & (spec.sigma - 1) for i in range(spec.c)],
        (spec.sigma,) * spec.c) for k in keys]
    if not is_zero_set(gks):
        raise ValueError("the four keys do not form a zero-set")
    return keys


def _even_quad(v0, v1, v2, v3) -> np.ndarray:
    """Whether four character arrays pair up evenly (a zero multiset)."""
    return (
        ((v0 == v1) & (v2 == v3))
        | ((v0 == v2) & (v1 == v3))
        | ((v0 == v3) & (v1 == v2))
    )


def _survival_alive(spec: TornadoSpec, keys: list[int], trials: int, seed: int,
                    rounds: int) -> np.ndarray:
    """Per-trial survival of the zero-set through the given derivation rounds."""
    cmask = spec.sigma - 1
    alive = np.ones(trials, dtype=bool)
    chunk = max(1, (1 << 22) // max(4 * (spec.c + rounds), 1))
    for lo in range(0, trials, chunk):
        hi = min(lo + chunk, trials)
        seeds = rng.trial_seed_vec(seed, np.arange(lo, hi, dtype=np.uint64))
        chars = [[np.full(hi - lo, (k >> (i * spec.char_bits)) & cmask, dtype=np.uint64)
                  for i in range(spec.c)] for k in keys]
        ok = np.ones(hi - lo, dtype=bool)
        for level in range(1, rounds + 1):
            vals = []
            for kk in range(4):
                v = np.zeros(hi - lo, dtype=np.uint64)
                for j in range(spec.c + level - 1):
                    v ^= rng.field_value_vec(seeds, rng.KIND_LEVEL, level, j,
                                             chars[kk][j]) & _U(cmask)
                vals.append(v)
                chars[kk].append(v)
            ok &= _even_quad(*vals)
        alive[lo:hi] = ok
    return alive


def survival_rounds(spec: TornadoSpec, zero_set, trials: int, seed: int,
                    rounds: int) -> ExperimentReport:
    """Zero-set survival through ``rounds`` derivation rounds; zero rounds
    survive with certainty."""
    check_count("trials", trials)
    if rounds < 0:
        raise ValueError(f"rounds must be >= 0, got {rounds}")
    keys = _check_zero_set4(spec, zero_set)
    alive = _survival_alive(spec, keys, trials, seed, rounds)
    estimate = float(alive.mean())
    stderr = binomial_stderr(estimate, trials)
    target = ((3.0 - 2.0 / spec.sigma) / spec.sigma) ** rounds
    return ExperimentReport(
        name=f"survival_{rounds}_rounds",
        estimate=estimate,
        stderr=stderr,
        bound=target,
        trials=trials,
        seed=seed,
        params={"spec": spec.spec_string(), "rounds": rounds,
                "zero_set": [f"{k:#x}" for k in keys],
                "within_3sigma": bool(abs(estimate - target) <= 3 * stderr + 1e-12)},
        verdict=Verdict.INFORMATIONAL,
    )


def survival_one_round(spec: TornadoSpec, zero_set, trials: int, seed: int) -> ExperimentReport:
    return survival_rounds(spec, zero_set, trials, seed, 1)


def survival_d_rounds(spec: TornadoSpec, zero_set, trials: int, seed: int) -> ExperimentReport:
    if spec.d < 1:
        raise ValueError("survival over d rounds needs d >= 1")
    return survival_rounds(spec, zero_set, trials, seed, spec.d)


def survival_one_round_exact(char_bits: int, c: int, zero_set) -> Fraction:
    """Exact one-round survival rate by enumerating all level-1 table fillings."""
    sigma = 1 << char_bits
    spec = TornadoSpec(char_bits, c, 1, 1, Variant.SIMPLE_TORNADO)
    keys = _check_zero_set4(spec, zero_set)
    slots = c * sigma
    total_bits = char_bits * slots
    if total_bits > 24:
        raise ValueError(f"state space 2^{total_bits} too large to enumerate")
    fillings = np.arange(1 << total_bits, dtype=np.uint64)
    cmask = _U(sigma - 1)
    vals = []
    for k in keys:
        v = np.zeros(len(fillings), dtype=np.uint64)
        for j in range(c):
            slot = j * sigma + ((k >> (j * char_bits)) & (sigma - 1))
            v ^= (fillings >> _U(char_bits * slot)) & cmask
        vals.append(v)
    survived = int(_even_quad(*vals).sum())
    return Fraction(survived, len(fillings))
