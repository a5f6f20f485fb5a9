"""Selector functions: which keys of a base set get selected under a hash.

Every selector follows one rule. It reads only the high s "select" bits of
each key's hash (the R_s x R_t split, s = :func:`selection_bit_count`) and
selects a key when those bits take one of a short list of wanted values;
query keys are always selected. The wanted values are absolute, or relative
to the reference query key's select bits. The families differ only in s and
the wanted values:

* ``FIXED_SET``: s = 0 and the one value 0, so every key, whatever the hash.
* ``BIT_PREFIX``: s = ``s_bits`` and the targets, each XORed with the
  reference's prefix when ``relative_to_query`` is set.
* ``DYADIC_INTERVAL``: s = ``out_bits - l`` and the anchor's prefix with
  its two neighbors mod 2^s: keys hashing into the length-``2^l`` dyadic
  interval containing the anchor's hash or into one next to it.
* ``BIN``: s = ``out_bits`` and the bin value, or the reference's hash.

So under a fully random hash a non-query key is selected with probability
min(count / 2^s, 1), and ``mu`` is one closed form, which the bound checks
in :mod:`tornadotab.experiments` rely on. :func:`selection_mask` is the one
implementation of the rule. It selects under B hash functions at once, so
:func:`select` calls it with one row and the Monte Carlo chunks with one
row per trial.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field

import numpy as np

from . import gf2
from .core import ConfigError, TornadoHash, TornadoSpec, check_count, check_ints, check_keys

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


def _keys(keys) -> frozenset[int]:
    """``keys`` as Python ints in [0, 2**64); :func:`candidates` checks the spec's universe."""
    arr = check_ints(list(keys), 1 << 64, "selector keys",
                     lambda x: ConfigError(f"selector key {x} is outside [0, 2^64)"))
    return frozenset(map(int, arr.tolist()))


def fixed_set(keys, query_keys=()) -> Selector:
    query_keys = _keys(query_keys)
    return Selector(SelectorKind.FIXED_SET, _keys(keys) | query_keys, query_keys)


def bit_prefix(keys, s: int, targets, query_keys=(), relative_to_query=False) -> Selector:
    s = check_count("prefix width", s, 0)
    targets = frozenset(check_count("target", t, 0) for t in targets)
    if any(t >> s for t in targets):
        raise ConfigError("target exceeds prefix width")
    query_keys = _keys(query_keys)
    if relative_to_query and not query_keys:
        raise ConfigError("query-relative prefix selector needs a query key")
    return Selector(SelectorKind.BIT_PREFIX, _keys(keys), query_keys, s_bits=s,
                    targets=targets, relative_to_query=relative_to_query)


def dyadic_interval(keys, anchor: int, interval_bits: int) -> Selector:
    interval_bits = check_count("interval_bits", interval_bits, 0)
    anchor = check_count("anchor", anchor, 0)
    return Selector(SelectorKind.DYADIC_INTERVAL, _keys(keys), _keys([anchor]),
                    interval_bits=interval_bits, anchor=anchor)


def bin_selector(keys, bin_value: int | None = None, query_keys=()) -> Selector:
    query_keys = _keys(query_keys)
    if bin_value is None and not query_keys:
        raise ConfigError("query-relative bin selector needs a query key")
    if bin_value is not None:
        bin_value = check_count("bin_value", bin_value, 0)
    return Selector(SelectorKind.BIN, _keys(keys), query_keys, bin_value=bin_value)


def hard_instance(char_bits: int) -> Selector:
    """The two-column key set with a two-bit prefix selector.

    Base keys are {0,1} x Sigma (first character 0 or 1, second free); a key
    is selected when the two leftmost output bits are zero, so each non-query
    key is chosen with probability 1/4 and mu = sigma/2. Zero-sets of the
    form {0a, 1a, 0b, 1b} make the dependence probability of this instance
    nearly as large as the upper bound allows.
    """
    sigma = 1 << check_count("char_bits", char_bits)
    keys = [(a << char_bits) | b for a in range(sigma) for b in (0, 1)]
    return bit_prefix(keys, 2, {0})


def selection_bit_count(sel: Selector, out_bits: int) -> int:
    """How many high output bits the selector reads (its s in R_s x R_t),
    after checking that it fits the ``out_bits``-bit output."""
    out_bits = check_count("out_bits", out_bits)
    _check_fit(sel, out_bits)
    if sel.kind is SelectorKind.BIT_PREFIX:
        return sel.s_bits  # type: ignore[return-value]
    if sel.kind is SelectorKind.DYADIC_INTERVAL:
        return out_bits - sel.interval_bits  # type: ignore[operator]
    return 0 if sel.kind is SelectorKind.FIXED_SET else out_bits


def _check_fit(sel: Selector, out_bits: int) -> None:
    width = sel.s_bits if sel.s_bits is not None else sel.interval_bits
    if width is not None and width > out_bits:
        raise ConfigError(f"{sel.kind.value} of {width} bits wider than the {out_bits}-bit output")
    if sel.bin_value is not None and not 0 <= sel.bin_value < 1 << out_bits:
        raise ConfigError(f"bin {sel.bin_value} outside the {out_bits}-bit output range")


def _wanted(sel: Selector, s: int, ref) -> list:
    """The values of the s select bits that select a key. ``ref`` holds the
    reference query key's select bits, a (B, 1) column or a scalar."""
    if sel.kind is SelectorKind.BIT_PREFIX:
        targets = sorted(sel.targets)  # type: ignore[arg-type]
        return [ref ^ _U(t) if sel.relative_to_query else _U(t) for t in targets]
    if sel.kind is SelectorKind.DYADIC_INTERVAL:
        top = (1 << s) - 1  # the anchor's interval -1, +0, +1, wrapping
        return [(ref + _U(off)) & _U(top) for off in (top, 0, 1)]
    if sel.kind is SelectorKind.BIN:
        return [ref if sel.bin_value is None else _U(sel.bin_value)]
    return [_U(0)]


def mu(sel: Selector, out_bits: int) -> float:
    """Exact expected selected-set size under a fully random hash.

    Query keys count 1 each. Every other base key is selected when its s
    select bits take one of the selector's wanted values, with probability
    min(count / 2^s, 1): the dyadic interval's three values cover all 2^s
    when s <= 1. The count does not depend on the reference query key, and
    every 2^-s is exact in a float.
    """
    s = selection_bit_count(sel, out_bits)
    count = len(_wanted(sel, s, _U(0)))
    return len(sel.keys - sel.query_keys) * min(count / (1 << s), 1.0) + len(sel.query_keys)


def candidates(sel: Selector, spec: TornadoSpec) -> np.ndarray:
    """The selector's sorted candidate keys, checked against the key universe
    before they are sorted, so a key that is not an integer is a ConfigError."""
    return np.sort(check_keys(spec, list(sel.keys | sel.query_keys)))


def selection_mask(sel: Selector, keys: np.ndarray, evals: np.ndarray,
                   out_bits: int) -> np.ndarray:
    """Selection under B hash functions at once, a (B, n) bool mask.

    ``evals`` holds the hashes (B, n) of n keys under each function; a key
    is selected when its s select bits equal one of the wanted values, or
    when it is a query key. ``keys``, the sorted candidates, is read only to
    find the query keys; the reference is the least one (a dyadic
    interval's only query key is its anchor).
    """
    s = selection_bit_count(sel, out_bits)
    if s == 0:  # every key reads 0: numpy cannot shift a uint64 by 64
        mask = np.full(evals.shape, 0 in _wanted(sel, 0, _U(0)), dtype=bool)
    else:
        bits = evals if s == out_bits else evals >> _U(out_bits - s)
        ref = None
        if sel.query_keys:
            ref = bits[:, [np.searchsorted(keys, min(sel.query_keys))]]
        wanted = _wanted(sel, s, ref)
        mask = bits == wanted[0] if wanted else np.zeros(evals.shape, dtype=bool)
        for w in wanted[1:]:
            mask |= bits == w
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
    chars = h.derive_batch(sorted(select(sel, h)))
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
