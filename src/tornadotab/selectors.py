"""Selector functions: which keys of a base set get selected under a hash.

A selector looks at a key, the selection bits of its hash value, and the
selection bits of the query keys' hash values; query keys are always
selected. The families here are analytic: the expected selected-set size
under a fully random hash (``mu``) has a closed form, which the bound
checks in :mod:`tornadotab.experiments` rely on.

* ``FIXED_SET``: a fixed key set, hash-independent (0 selection bits).
* ``BIT_PREFIX``: keys whose high ``s`` output bits land in a target set,
  optionally relative to the first query key's prefix.
* ``DYADIC_INTERVAL``: keys hashing into the length-``2^l`` dyadic interval
  containing the anchor query's hash or one of its two neighbors
  (``out_bits - l`` selection bits).
* ``BIN``: keys hashing to one fixed (or query-relative) output value; all
  output bits are selection bits.

:func:`selection_mask` is the one implementation of the four families. It
selects under B hash functions at once, so :func:`select` calls it with one
row and the Monte Carlo chunks with one row per trial.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field

import numpy as np

from .core import ConfigError, TornadoHash, TornadoSpec, check_keys

_U = np.uint64


class SelectorKind(enum.Enum):
    FIXED_SET = "fixed_set"
    BIT_PREFIX = "bit_prefix"
    DYADIC_INTERVAL = "dyadic_interval"
    BIN = "bin"


@dataclass(frozen=True)
class Selector:
    kind: SelectorKind
    keys: frozenset[int]
    query_keys: frozenset[int] = field(default_factory=frozenset)
    s_bits: int | None = None
    targets: frozenset[int] | None = None
    relative_to_query: bool = False
    interval_bits: int | None = None
    anchor: int | None = None
    bin_value: int | None = None


def fixed_set(keys, query_keys=()) -> Selector:
    return Selector(SelectorKind.FIXED_SET, frozenset(keys) | frozenset(query_keys),
                    frozenset(query_keys))


def bit_prefix(keys, s: int, targets, query_keys=(), relative_to_query=False) -> Selector:
    if s < 0:
        raise ConfigError("prefix width must be >= 0")
    targets = frozenset(targets)
    if any(t >> s for t in targets):
        raise ConfigError("target exceeds prefix width")
    if relative_to_query and not query_keys:
        raise ConfigError("query-relative prefix selector needs a query key")
    return Selector(SelectorKind.BIT_PREFIX, frozenset(keys), frozenset(query_keys),
                    s_bits=s, targets=targets, relative_to_query=relative_to_query)


def dyadic_interval(keys, anchor: int, interval_bits: int) -> Selector:
    if interval_bits < 0:
        raise ConfigError("interval_bits must be >= 0")
    return Selector(SelectorKind.DYADIC_INTERVAL, frozenset(keys),
                    frozenset({anchor}), interval_bits=interval_bits, anchor=anchor)


def bin_selector(keys, bin_value: int | None = None, query_keys=()) -> Selector:
    if bin_value is None and not query_keys:
        raise ConfigError("query-relative bin selector needs a query key")
    return Selector(SelectorKind.BIN, frozenset(keys), frozenset(query_keys),
                    bin_value=bin_value)


def hard_instance(char_bits: int) -> Selector:
    """The two-column key set with a two-bit prefix selector.

    Base keys are {0,1} x Sigma (first character 0 or 1, second free); a key
    is selected when the two leftmost output bits are zero, so each non-query
    key is chosen with probability 1/4 and mu = sigma/2. Zero-sets of the
    form {0a, 1a, 0b, 1b} make the dependence probability of this instance
    nearly as large as the upper bound allows.
    """
    sigma = 1 << char_bits
    keys = [(a << char_bits) | b for a in range(sigma) for b in (0, 1)]
    return bit_prefix(keys, 2, {0})


def selection_bit_count(sel: Selector, out_bits: int) -> int:
    """How many high output bits the selector reads (its s in R_s x R_t)."""
    if sel.kind is SelectorKind.FIXED_SET:
        return 0
    if sel.kind is SelectorKind.BIT_PREFIX:
        return sel.s_bits  # type: ignore[return-value]
    if sel.kind is SelectorKind.DYADIC_INTERVAL:
        return out_bits - sel.interval_bits  # type: ignore[operator]
    return out_bits


def _check_prefix_width(sel: Selector, out_bits: int) -> None:
    if sel.s_bits > out_bits:  # type: ignore[operator]
        raise ConfigError(f"prefix of {sel.s_bits} bits wider than the {out_bits}-bit output")


def _check_bin(sel: Selector, out_bits: int) -> None:
    if sel.bin_value is not None and not 0 <= sel.bin_value < 1 << out_bits:
        raise ConfigError(f"bin {sel.bin_value} outside the {out_bits}-bit output range")


def mu(sel: Selector, out_bits: int) -> float:
    """Exact expected selected-set size under a fully random hash.

    Query keys contribute probability 1 each, every other base key the
    per-key selection probability of the family.
    """
    n_free = len(sel.keys - sel.query_keys)
    n_q = len(sel.query_keys)
    if sel.kind is SelectorKind.FIXED_SET:
        return float(len(sel.keys | sel.query_keys))
    if sel.kind is SelectorKind.BIT_PREFIX:
        _check_prefix_width(sel, out_bits)
        return n_free * len(sel.targets) / (1 << sel.s_bits) + n_q  # type: ignore[arg-type]
    if sel.kind is SelectorKind.DYADIC_INTERVAL:
        if sel.interval_bits > out_bits:  # type: ignore[operator]
            raise ConfigError("interval wider than the output range")
        return n_free * min(3.0 * (1 << sel.interval_bits) / (1 << out_bits), 1.0) + n_q
    _check_bin(sel, out_bits)
    return n_free / (1 << out_bits) + n_q


def candidates(sel: Selector, spec: TornadoSpec) -> np.ndarray:
    """The selector's sorted candidate keys, checked against the key universe."""
    return check_keys(spec, sorted(sel.keys | sel.query_keys))


def selection_mask(sel: Selector, keys: np.ndarray, evals: np.ndarray,
                   out_bits: int) -> np.ndarray:
    """Selection under B hash functions at once, a (B, n) bool mask.

    ``evals`` holds the hashes (B, n) of n keys under each function;
    ``keys``, the sorted candidates, is read only to find the query keys.
    """
    kind = sel.kind
    if kind is SelectorKind.FIXED_SET:
        return np.ones(evals.shape, dtype=bool)
    q_idx = {q: int(np.searchsorted(keys, q)) for q in sel.query_keys}
    if kind is SelectorKind.BIT_PREFIX:
        _check_prefix_width(sel, out_bits)
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
    elif kind is SelectorKind.DYADIC_INTERVAL:
        if sel.interval_bits >= out_bits:  # type: ignore[operator]
            mask = np.ones(evals.shape, dtype=bool)
        else:
            iv_mask = (1 << (out_bits - sel.interval_bits)) - 1  # type: ignore[operator]
            iv = evals >> _U(sel.interval_bits)
            center = iv[:, q_idx[sel.anchor]][:, None]
            mask = np.zeros(evals.shape, dtype=bool)
            for off in (iv_mask, 0, 1):  # the anchor's interval -1, +0, +1, wrapping
                mask |= iv == ((center + _U(off)) & _U(iv_mask))
    else:
        _check_bin(sel, out_bits)
        if sel.bin_value is None:
            target = evals[:, q_idx[min(sel.query_keys)]][:, None]
        else:
            target = _U(sel.bin_value)
        mask = evals == target
    if sel.query_keys:
        mask[:, np.isin(keys, np.fromiter(sel.query_keys, dtype=np.uint64))] = True
    return mask


def select(sel: Selector, h: TornadoHash) -> frozenset[int]:
    """The exact selected key set under ``h`` (always includes the queries)."""
    keys = candidates(sel, h.spec)
    mask = selection_mask(sel, keys, h.eval_batch(keys)[None], h.spec.out_bits)[0]
    return frozenset(int(k) for k in keys[mask])


def selected_derived_independent(sel: Selector, h: TornadoHash) -> bool:
    """Whether the derived keys of the selected set are linearly independent."""
    from . import gf2

    chosen = np.fromiter(sorted(select(sel, h)), dtype=np.uint64)
    if len(chosen) <= 1:
        return True
    chars = h.derive_batch(chosen)
    sizes = tuple(1 << h.spec.position_bits(i) for i in range(h.spec.positions))
    keys = [gf2.GenKey.from_chars([int(v) for v in row], sizes) for row in chars]
    return gf2.is_linearly_independent(keys)


def to_json_dict(sel: Selector) -> dict:
    """JSON form: kind, parameters, query keys as hex strings."""
    out: dict = {
        "kind": sel.kind.value,
        "keys": [f"{k:#x}" for k in sorted(sel.keys)],
        "query_keys": [f"{k:#x}" for k in sorted(sel.query_keys)],
    }
    if sel.kind is SelectorKind.BIT_PREFIX:
        out["s_bits"] = sel.s_bits
        out["targets"] = sorted(sel.targets)  # type: ignore[arg-type]
        out["relative_to_query"] = sel.relative_to_query
    elif sel.kind is SelectorKind.DYADIC_INTERVAL:
        out["interval_bits"] = sel.interval_bits
        out["anchor"] = f"{sel.anchor:#x}"
    elif sel.kind is SelectorKind.BIN:
        out["bin_value"] = sel.bin_value
    return out


def from_json_dict(data: dict) -> Selector:
    kind = SelectorKind(data["kind"])
    keys = [int(k, 16) for k in data["keys"]]
    query = [int(k, 16) for k in data["query_keys"]]
    if kind is SelectorKind.FIXED_SET:
        return fixed_set(keys, query)
    if kind is SelectorKind.BIT_PREFIX:
        return bit_prefix(keys, data["s_bits"], data["targets"], query,
                          data.get("relative_to_query", False))
    if kind is SelectorKind.DYADIC_INTERVAL:
        return dyadic_interval(keys, int(data["anchor"], 16), data["interval_bits"])
    return bin_selector(keys, data.get("bin_value"), query)


def to_json(sel: Selector) -> str:
    return json.dumps(to_json_dict(sel), sort_keys=True)


def from_json(text: str) -> Selector:
    return from_json_dict(json.loads(text))
