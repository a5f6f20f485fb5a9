"""Monte Carlo and exact-enumeration checks of the probability bounds.

Every experiment is a pure function of its parameters and a master seed:
trial ``t`` builds its hash function from ``rng.trial_seed(master_seed, t)``,
so runs are reproducible bit for bit and trials can be processed in chunks
or on worker processes in any order.

Trials are vectorized across a chunk: :func:`trial_blocks`, the one trial
pipeline of every Monte Carlo experiment (linear probing's included), draws
a chunk's seeds and keys and runs the batched engine of :mod:`tornadotab.core`
on them (the engine a :class:`~tornadotab.core.TornadoHash` runs with one
trial), and :func:`tornadotab.selectors.selection_mask` selects over the
whole chunk. A chunk makes one call to the engine's lane walk (``_walk``),
and its route picks only where the walk reads the entries. A chunk that
derives fewer keys than sigma, and so reads fewer entries than filling would
write, hashes them from their addresses at the characters it reads
(``core.Hashed``); a caller that reads only some key columns (linear
probing) names them, and only those count and are derived. Otherwise the
walk gathers from lanes packed straight from the seeds, only at the slots
shared keys read at the untwisted input positions and with a top entry only
if it evaluates. Both yield the same derived keys and hashes. The walk keeps
the derived characters only for a caller that reads them: linear probing,
chaining and the large-mu tail read none, and the Chernoff tail reads them
only for its flagged trials, which it walks again by the same route rule
when few trials flag (``_tail_range``).
Linear-independence checks first peel keys containing a position character
unique in their trial (such keys cannot take part in any zero-set), falling
back to exact F2 elimination for the rare survivors. Peeling counts one
position at a time over the keys still alive, until b - 1 steps after the
last kill drop nothing, by sort when few are left (``_peel_alive``).

One range worker serves all four tail experiments, dependence, the Chernoff
joint tail, the large-mu tail and chaining: it returns a histogram of
selected-set sizes and the dependent trials among those with at least a
given size. Chaining is the size tail of the bin-0 selector over n keys
sampled per trial. One builder makes every upper-bound report.

The exact checks walk one blocked enumeration of every table filling at tiny
sigma, ``_table_fillings``; survival's exact rate packs each block of level
fillings into the engine's lanes and walks them.

Every entry point rejects, before any trial, a count (trials, rounds, n, k)
that is not an integer or is below its least value (``check_count``; a bool
is not an integer), a master seed that is not an integer in [0, 2^64), a
delta that is not positive and finite (a bool is not one) and selector
candidates outside the spec's key universe, and a report refuses a
non-finite estimate, so no degenerate run reaches a verdict. Reports hold
the counts as plain ints, NumPy integers included, so they can be written
out as JSON.
"""

from __future__ import annotations

import enum
import json
import math
import numbers
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from . import core, rng, selectors
from .core import TornadoSpec, Variant, check_key, check_seed
# the engine's stages, bound under the stage names that perfbench's tracer wraps:
# every walk of a chunk or of its flagged trials goes through _derive_chunk, and
# no chunk fills level or top tables, so the other three serve the tracer only
from .core import eval_folded_stack as _derive_chunk
from .core import eval_folded_stack as _eval_chunk
from .core import level_stacks as _chunk_level_tables
from .core import top_stacks as _chunk_top_tables
from .gf2 import GenKey, genkey_from_key, is_linearly_independent, is_zero_set


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
        if not math.isfinite(self.bound):
            raise ValueError(f"bound must be finite, got {self.bound}")
        if self.estimate < 0:
            raise ValueError("estimate must be >= 0")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        # binomial reports give Violation by the exact test; the 4-stderr
        # clause is for reports that are not binomial counts, such as the
        # probing dominance report (stderr 0)
        if self.verdict is Verdict.VIOLATION and not (
                self.estimate - 4 * self.stderr > self.bound
                or exact_violation(round(self.estimate * self.trials), self.trials, self.bound)):
            raise ValueError("Violation verdict requires estimate - 4*stderr > bound or "
                             "an exact binomial tail below EXACT_TAIL")

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


EXACT_TAIL = 3.167e-5  # the one-sided normal tail beyond 4 sigma


def exact_violation(count: int, trials: int, bound: float) -> bool:
    """One-sided exact binomial test: whether P(Bin(trials, bound) >= count)
    < EXACT_TAIL, with ``math`` only.

    The tail is summed upward from ``count``. Above the mean the terms only
    shrink, so the sum stops when they vanish or once it reaches EXACT_TAIL.
    At or below the mean the tail is at least 1/2.
    """
    if count <= trials * bound:
        return False
    if bound <= 0:
        return True
    log_p, log_q = math.log(bound), math.log1p(-bound)
    log_n = math.lgamma(trials + 1)
    tail = 0.0
    for k in range(count, trials + 1):
        term = math.exp(log_n - math.lgamma(k + 1) - math.lgamma(trials - k + 1)
                        + k * log_p + (trials - k) * log_q)
        tail += term
        if tail >= EXACT_TAIL or term <= tail * 1e-17:
            break
    return tail < EXACT_TAIL


def _upper_report(name: str, count: int, trials: int, seed: int, bound: float,
                  spec: TornadoSpec, params: dict) -> ExperimentReport:
    """Report of an upper-bound experiment whose event happened in ``count`` of
    ``trials`` trials: binomial stderr and a ``Violation`` when the exact
    binomial test rejects the bound; informational below sigma = 256, where
    the bounds are not stated. The Wald rule (estimate - 4*stderr > bound)
    is not used: it needs more events than the exact test for small bounds,
    and above a bound of about 1/2 its plug-in stderr is below the one under
    the bound, so it flags counts whose exact tail is not small."""
    estimate = count / trials
    stderr = binomial_stderr(estimate, trials)
    if spec.sigma < 256:
        verdict = Verdict.INFORMATIONAL
    elif exact_violation(count, trials, bound):
        verdict = Verdict.VIOLATION
    else:
        verdict = Verdict.WITHIN_BOUND
    return ExperimentReport(name, estimate, stderr, bound, trials, seed,
                            {"spec": spec.spec_string(), **params}, verdict)


def check_count(name: str, value: int, least: int = 1) -> int:
    """``value`` as a plain int, so a report holding it can be written out as
    JSON. Rejects a count that is not an integer (a bool is not one) or is
    below ``least``; no estimate can rest on fewer than 1 trial."""
    if not core._is_int(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return int(value)


# -- bound formulas ----------------------------------------------------------


def dependence_bound(mu: float, d: int, sigma_size: int) -> float:
    """Probability bound on derived selected keys being linearly dependent.

    The bound is stated for sigma_size >= 256, byte-or-larger alphabets;
    smaller runs are informational.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
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


def _check_delta(delta: float) -> None:
    # a real number, so a string cannot reach the comparison; "< inf" is false for nan
    if isinstance(delta, bool) or not isinstance(delta, numbers.Real) or not 0 < delta < math.inf:
        raise ValueError(f"delta must be positive and finite, got {delta}")


def chernoff_bound(mu: float, delta: float) -> float:
    """Classic upper-tail rate (e^d / (1+d)^(1+d))^mu."""
    _check_delta(delta)
    return math.exp(mu * (delta - (1.0 + delta) * math.log1p(delta)))


def chaining_bound(k: int, d: int, sigma_size: int) -> float:
    """Bound on a fixed bin of n receiving >= k of n thrown keys."""
    check_count("k", k)
    return math.exp(k - 1) / float(k) ** k + 7.0 * (3.0 / sigma_size) ** (d + 1) + 2.0 ** (
        -sigma_size / 2
    )


def large_mu_delta0(mu: float, delta: float, sigma_size: int, n_queries: int) -> float:
    half = sigma_size / 2
    return mu / (mu - n_queries) * ((half - n_queries) / half) * delta


def large_mu_bound(mu: float, delta: float, d: int, sigma_size: int, n_queries: int) -> float:
    """Tail bound for selectors whose expected size exceeds sigma/2."""
    _check_delta(delta)
    if not mu > sigma_size / 2:
        raise ValueError("large-mu bound requires mu > sigma/2")
    if not n_queries < sigma_size / 2:
        raise ValueError("requires |Q| < sigma/2")
    d0 = large_mu_delta0(mu, delta, sigma_size, n_queries)
    return 4.0 * chernoff_bound(sigma_size / 2, d0) + 4.0 * dependence_bound(
        sigma_size / 2, d, sigma_size
    )


# -- chunked trial engine ----------------------------------------------------


def _entries(spec: TornadoSpec, evaluate: bool) -> int:
    """Entries one trial's tables hold: its level tables, and its top tables
    if it evaluates."""
    entries = sum(spec.level_input_positions(lv) for lv in spec.levels()) * spec.sigma
    if evaluate:
        entries += sum(1 << spec.position_bits(i) for i in range(spec.positions))
    return entries


def _walk(spec: TornadoSpec, seeds: np.ndarray, ys: np.ndarray, evaluate: bool,
          keep_chars: bool) -> tuple[np.ndarray | None, np.ndarray | None]:
    """One call of the lane walk, through ``_derive_chunk``, over the keys
    ``ys`` ((n,) shared or (B, n) per trial) of the (B,) trials ``seeds``.

    The route rule: the walk hashes the entries as it reads them
    (``core.Hashed``) when the keys read fewer entries than filling writes,
    which for sigma-wide level tables means fewer keys than sigma. Else it
    gathers from lanes packed from the seeds by ``core.fold_stacks`` (shared
    keys fill only the slots they read at the untwisted input positions; the
    top entry only if it evaluates). A walk with no entry to read (no top
    entry, no level reading a position) has no lanes to pack; the hashed
    source walks it with none.
    """
    fill = _entries(spec, evaluate) > 0 and ys.shape[-1] >= spec.sigma
    # no name holds the lanes, so they are freed when the walk returns
    return _derive_chunk(spec, core.fold_stacks(spec, seeds, ys, evaluate) if fill
                         else core.Hashed(seeds, evaluate), ys, keep_chars)


def trial_blocks(spec: TornadoSpec, keys, evaluate: bool, master_seed: int, start: int,
                 stop: int, read=None, keep_chars: bool = True):
    """Run the engine over the trials [start, stop) in chunks; yield (first
    trial, seeds, keys, chars, evals or None) per chunk.

    ``keys`` is the (n,) array every trial hashes, or an int n: each trial
    then samples its own n keys, one ``sample_distinct_keys`` call per chunk.
    ``read`` indexes the key columns each trial derives and evaluates (all of
    them for None): chars and evals cover those columns only, while the
    yielded keys are every column. chars is None unless ``keep_chars``. A
    chunk is sized by all n keys so that its tables and derived characters
    take about 2^23 entries; ``evaluate`` counts the top tables in that size.

    Each chunk is one call of the lane walk (``_walk``), routed by the read
    columns.
    """
    sample = isinstance(keys, (int, np.integer))
    n_keys = int(keys) if sample else len(keys)
    chunk = (1 << 23) // max(_entries(spec, evaluate) + n_keys * spec.positions * 2, 1)
    max_alpha = max(1 << spec.position_bits(i) for i in range(spec.positions))
    chunk = int(min(1 << 16, max(1, min(chunk, (1 << 24) // max_alpha))))
    for lo in range(start, stop, chunk):
        seeds = rng.trial_seed_vec(master_seed,
                                   np.arange(lo, min(lo + chunk, stop), dtype=np.uint64))
        xs = rng.sample_distinct_keys(seeds, n_keys, spec.key_bits) if sample else keys
        ys = xs if read is None else xs[..., read]
        chars, evals = _walk(spec, seeds, ys, evaluate, keep_chars)
        yield lo, seeds, xs, chars, evals


def _occurs_once(code: np.ndarray, n_codes: int) -> np.ndarray:
    """Whether each entry of ``code``, all in [0, n_codes), occurs exactly once.

    A bincount pays for all n_codes bins and a sort for m log m over the m
    codes; measured at 2^16 to 2^24 bins, they break even near n_codes = 32 m.
    """
    if n_codes <= 32 * len(code):
        return np.bincount(code, minlength=n_codes)[code] == 1
    _, inverse, counts = np.unique(code, return_inverse=True, return_counts=True)
    return counts[inverse] == 1


def _peel_alive(chars: np.ndarray, sizes: tuple[int, ...], alive: np.ndarray) -> np.ndarray:
    """Drop keys owning a position character unique within their trial until
    none does; the (B, n) mask of the keys left.

    A step counts position i over the flat indices of the alive keys only, by
    sort once few are left, and drops the keys whose character there is
    unique, which leaves none unique at i. Steps go from the last position
    (derived characters are the hash's draws; structured key sets repeat input
    ones) down and round again, until b - 1 steps after the last kill drop
    nothing. The fixed point does not depend on the order in which keys die,
    so the mask is that of whole-block rounds.
    """
    n_trials, n_keys, b = chars.shape
    i = b - 1
    if alive.all():  # the first step reads the position's flat block, with no gather
        code = (chars[:, :, i] + np.arange(n_trials)[:, None] * sizes[i]).reshape(-1)
        idx, i, clean = np.flatnonzero(~_occurs_once(code, n_trials * sizes[i])), i - 1, 1
    else:
        idx, clean = np.flatnonzero(alive), 0
    while len(idx) and clean < b:  # clean: the positions in a row with no unique character
        # the engine's chars are position-major: each chars[:, :, i] flattens to a view
        code = chars[:, :, i].reshape(-1)[idx] + idx // n_keys * sizes[i]
        once = _occurs_once(code, n_trials * sizes[i])
        idx, clean = (idx[~once], 1) if once.any() else (idx, clean + 1)
        i = (i - 1) % b
    out = np.zeros(alive.shape, dtype=bool)
    out.reshape(-1)[idx] = True
    return out


def _dependent_rows(chars: np.ndarray, sizes: tuple[int, ...], alive: np.ndarray) -> np.ndarray:
    """Per-trial linear dependence of the alive derived keys."""
    left = _peel_alive(chars, sizes, alive)
    result = np.zeros(len(chars), dtype=bool)
    for t in np.flatnonzero(left.any(axis=1)):
        rows = chars[t][left[t]].tolist()
        result[t] = not is_linearly_independent(GenKey.from_chars(row, sizes) for row in rows)
    return result


def _mu_and_cap(sel: selectors.Selector, spec: TornadoSpec) -> float:
    mu_val = selectors.mu(sel, spec.out_bits)
    if not mu_val > 0:  # mu = 0 makes every bound 1 and every threshold 0
        raise ValueError(f"mu must be positive, got {mu_val}")
    cap = (spec.psi if spec.variant is Variant.TORNADO_MIX else spec.sigma) / 2
    if mu_val > cap:
        raise ValueError(f"mu {mu_val} exceeds the bound's validity cap {cap}")
    return mu_val


def _tail_range(args) -> tuple[np.ndarray, int]:
    """(histogram of selected-set sizes in the trials [start, stop), the trials
    of >= dep_threshold selected keys whose derived keys are dependent, none
    at math.inf). ``keys`` is the candidate array, or n to sample per trial.

    Only flagged trials, those of >= dep_threshold selected keys, read derived
    characters. The chunk's walk keeps them for a fixed set, whose walk yields
    nothing else, and when the threshold is at most mu + 1.5 sqrt(mu) (0
    included), where many trials flag. Otherwise it keeps none, and the
    flagged trials are walked again, with no top entry, by the same route
    rule, so with the same bits. The 1.5 is where the second walk stops
    paying at the benchmark's Chernoff shape (4096 shared keys, mu = 64, 150
    trials; medians of 24-30 interleaved calls against keeping every
    character): re-deriving read x0.94 at delta 0.1 (20% of trials flag),
    x0.98 at 0.15 (12%), x1.02 at 0.2 (7%), x1.05 at 0.25 (3%) and x1.11 at
    0.5 (none).
    """
    spec, sel, keys, master_seed, dep_threshold, start, stop = args
    sizes = tuple(1 << spec.position_bits(i) for i in range(spec.positions))
    evaluate = sel.kind is not selectors.SelectorKind.FIXED_SET
    mu_val = selectors.mu(sel, spec.out_bits)
    keep = not evaluate or dep_threshold <= mu_val + 1.5 * math.sqrt(mu_val)
    hist = dependent = 0
    for _, seeds, xs, chars, evals in trial_blocks(spec, keys, evaluate, master_seed, start, stop,
                                                   keep_chars=keep):
        if evaluate:
            mask = selectors.selection_mask(sel, xs, evals, spec.out_bits)
        else:
            mask = np.ones(chars.shape[:2], dtype=bool)
        size = mask.sum(axis=1)
        hist += np.bincount(size, minlength=mask.shape[1] + 1)
        flag = size >= dep_threshold
        if not flag.any():
            continue
        if keep:
            alive = mask & flag[:, None]
        else:
            chars, _ = _walk(spec, seeds[flag], xs[flag] if xs.ndim == 2 else xs, False, True)
            alive = mask[flag]
        dependent += int(_dependent_rows(chars, sizes, alive).sum())
    return hist, dependent


def _run_ranges(fn, args_base: tuple, trials: int, workers: int):
    """Run a range worker over [0, trials) in slabs; fold deterministically."""
    if workers <= 1:
        return [fn(args_base + (0, trials))]
    bounds = np.linspace(0, trials, workers + 1, dtype=int)
    jobs = [args_base + (int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if a < b]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs))


def _tail_counts(sel: selectors.Selector, spec: TornadoSpec, keys, dep_threshold: float,
                 trials: int, seed: int, workers: int) -> tuple[np.ndarray, int]:
    """``_tail_range`` over [0, trials), a count its caller has checked: the
    summed histograms and dependent counts."""
    check_seed(seed)
    parts = _run_ranges(_tail_range, (spec, sel, keys, seed, dep_threshold), trials, workers)
    return sum(p[0] for p in parts), sum(p[1] for p in parts)


def measure_dependence(
    sel: selectors.Selector,
    spec: TornadoSpec,
    trials: int,
    seed: int,
    workers: int = 1,
) -> ExperimentReport:
    """Fraction of seeds whose derived selected keys are linearly dependent."""
    trials = check_count("trials", trials)
    keys = selectors.candidates(sel, spec)
    mu_val = _mu_and_cap(sel, spec)
    if spec.variant is Variant.TORNADO_MIX:
        bound = dependence_bound_mix(mu_val, spec.d, spec.sigma, spec.psi)
    else:
        bound = dependence_bound(mu_val, spec.d, spec.sigma)
    _, dependent = _tail_counts(sel, spec, keys, 0, trials, seed, workers)
    return _upper_report("dependence", dependent, trials, seed, bound, spec,
                         {"mu": mu_val, "selector": selectors.to_json_dict(sel)})


def chernoff_tail(
    sel: selectors.Selector,
    spec: TornadoSpec,
    delta: float,
    trials: int,
    seed: int,
    workers: int = 1,
) -> ExperimentReport:
    """Joint probability of an oversized selected set with independent derived
    keys, against the upper-tail rate. The gate sees a stuck low bit in the top
    entries, not zeroed level tables (simple tabulation meets this bound too)."""
    trials = check_count("trials", trials)
    keys = selectors.candidates(sel, spec)
    mu_val = _mu_and_cap(sel, spec)
    bound = chernoff_bound(mu_val, delta)
    threshold = (1.0 + delta) * mu_val
    hist, dependent = _tail_counts(sel, spec, keys, threshold, trials, seed, workers)
    joint = int(hist[math.ceil(threshold):].sum()) - dependent
    return _upper_report("chernoff_tail", joint, trials, seed, bound, spec,
                         {"mu": mu_val, "delta": delta, "threshold": threshold,
                          "selector": selectors.to_json_dict(sel)})


def large_mu_tail(
    sel: selectors.Selector,
    spec: TornadoSpec,
    delta: float,
    trials: int,
    seed: int,
    workers: int = 1,
) -> ExperimentReport:
    """Tail of the selected-set size when mu exceeds sigma/2."""
    trials = check_count("trials", trials)
    keys = selectors.candidates(sel, spec)
    mu_val = selectors.mu(sel, spec.out_bits)
    bound = large_mu_bound(mu_val, delta, spec.d, spec.sigma, len(sel.query_keys))
    threshold = (1.0 + delta) * mu_val
    hist, _ = _tail_counts(sel, spec, keys, math.inf, trials, seed, workers)
    big = int(hist[math.ceil(threshold):].sum())
    return _upper_report("large_mu_tail", big, trials, seed, bound, spec,
                         {"mu": mu_val, "delta": delta,
                          "delta0": large_mu_delta0(mu_val, delta, spec.sigma,
                                                    len(sel.query_keys)),
                          "selector": selectors.to_json_dict(sel)})


def chaining_tail(
    spec: TornadoSpec,
    n: int,
    k_list,
    trials: int,
    seed: int,
    workers: int = 1,
) -> list[ExperimentReport]:
    """Probability that a fixed bin receives >= k of n keys thrown into n bins,
    each trial with its own key set: the size tail of the bin-0 selector. The
    gate sees a stuck low bit in the top entries, not zeroed level tables
    (simple tabulation meets this bound too)."""
    trials = check_count("trials", trials)
    n = check_count("n", n)
    if n & (n - 1):
        raise ValueError("n must be a power of two")
    if (1 << spec.out_bits) != n:
        raise ValueError("chaining requires out_bits = log2(n)")
    k_list = [check_count("k", k) for k in k_list]
    if not k_list:
        raise ValueError("k_list must name at least one k")
    bounds = [chaining_bound(k, spec.d, spec.sigma) for k in k_list]
    hist, _ = _tail_counts(selectors.bin_selector((), 0), spec, n, math.inf, trials, seed,
                           workers)
    return [_upper_report(f"chaining_tail_k{k}", int(hist[k:].sum()), trials, seed, bound, spec,
                          {"n": n, "k": k})
            for k, bound in zip(k_list, bounds)]


# -- exact checks (full table enumeration) ------------------------------------


def _table_fillings(bits: int, n_slots: int):
    """Every assignment of ``bits``-bit values to ``n_slots`` table entries (slot
    ``pos * sigma + ch``), as (block, n_slots) uint32 arrays of about 2^16 fillings.
    Refuses more than 2^24 fillings when called, not when first iterated."""
    total_bits = bits * n_slots
    if total_bits > 24:
        raise ValueError(f"state space 2^{total_bits} too large to enumerate")
    shifts = np.arange(n_slots, dtype=np.uint32) * np.uint32(bits)
    mask = np.uint32((1 << bits) - 1)
    n, step = 1 << total_bits, 1 << 16
    return ((np.arange(lo, min(lo + step, n), dtype=np.uint32)[:, None] >> shifts) & mask
            for lo in range(0, n, step))


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
    fillings = _table_fillings(out_bits, b * sigma)
    if out_bits * len(keys) > out_bits * b * sigma:
        # more hash tuples than table fillings: equidistribution impossible
        return False
    slots = [[pos * sigma + ch for pos, ch in k.position_chars()] for k in keys]
    counts = np.zeros(1 << (out_bits * len(keys)), dtype=np.int64)
    for block in fillings:
        code = np.zeros(len(block), dtype=np.uint32)
        for ki, cols in enumerate(slots):
            code ^= np.bitwise_xor.reduce(block[:, cols], axis=1) << np.uint32(out_bits * ki)
        counts += np.bincount(code, minlength=len(counts))
    return bool(counts.min() == counts.max())


# -- zero-set survival --------------------------------------------------------


def _check_zero_set4(spec: TornadoSpec, zero_set) -> list[int]:
    if spec.c < 2:
        raise ValueError("survival needs c >= 2")
    if spec.variant is not Variant.SIMPLE_TORNADO:
        raise ValueError("survival is defined for the simple-tornado recurrence")
    keys = list(zero_set)
    if len(keys) != 4 or len(set(keys)) != 4:
        raise ValueError("survival needs a zero-set of 4 distinct keys")
    for k in keys:
        check_key(spec, k)
    if not is_zero_set(genkey_from_key(k, spec.c, spec.char_bits) for k in keys):
        raise ValueError("the four keys do not form a zero-set")
    return keys


def _even_quad(v0, v1, v2, v3) -> np.ndarray:
    """Whether four character arrays pair up evenly (a zero multiset)."""
    return (
        ((v0 == v1) & (v2 == v3))
        | ((v0 == v2) & (v1 == v3))
        | ((v0 == v3) & (v1 == v2))
    )


def survival_rounds(spec: TornadoSpec, zero_set, trials: int, seed: int,
                    rounds: int) -> ExperimentReport:
    """Zero-set survival through ``rounds`` derivation rounds: the trials in
    which the four derived characters pair up at every derived position of
    the spec with d = rounds. Zero rounds survive with certainty."""
    trials = check_count("trials", trials)
    check_seed(seed)
    rounds = check_count("rounds", rounds, 0)
    keys = _check_zero_set4(spec, zero_set)
    run = replace(spec, d=rounds)
    xs = np.array(keys, dtype=np.uint64)
    survived = 0
    for _, _, _, chars, _ in trial_blocks(run, xs, False, seed, 0, trials):
        derived = chars[:, :, run.c:].transpose(1, 0, 2)  # (key, trial, round)
        survived += int(_even_quad(*derived).all(axis=1).sum())
    estimate = survived / trials
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


def survival_one_round_exact(char_bits: int, c: int, zero_set) -> Fraction:
    """Exact one-round survival rate over every level-1 filling, derived by
    the lane walk over each block of fillings, packed as a hash packs its own
    tables."""
    spec = TornadoSpec(char_bits, c, 1, 1, Variant.SIMPLE_TORNADO)
    xs = np.array(_check_zero_set4(spec, zero_set), dtype=np.uint64)
    lanes = core._lanes(spec, top=False)
    survived = 0
    for block in _table_fillings(char_bits, c * spec.sigma):
        # the block's slot order is pos * sigma + ch, so position p's entries are [:, p]
        table = block.reshape(len(block), c, spec.sigma)
        chars, _ = core.eval_folded_stack(
            spec, core._pack(spec, lanes, lambda level, p, s: table[:, p]), xs)
        survived += int(_even_quad(*chars[:, :, c].T).sum())
    return Fraction(survived, 1 << (char_bits * c * spec.sigma))
