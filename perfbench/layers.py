"""Which library attributes the traced run wraps, and the per-layer metrics.

Each wrap names the attribute a caller looks up at call time, so the span
covers exactly the calls the library makes into that layer. The Monte
Carlo engine has no public stage functions yet; its stages are reached
through the private attributes the engine calls, and the metrics are named
by concept (``experiments.derive_s``), not by function.

A per-layer value is the layer's share of one traced set-up plus one
traced round (one block of each of the workload's activities): set-up work
such as folding shows once, and the figure does not depend on how many
rounds fit in the run.
"""

from __future__ import annotations

from tornadotab import core, experiments, gf2, linprobe, rng, selectors


def _entries(tr, args, kwargs, result):
    tr.add("rng.table_fill.entries", result.size)


def _keys(tr, args, kwargs, result):
    tr.add("core.eval_batch.keys", len(result))


def _chunk(tr, args, kwargs, result):
    tr.add("experiments.level_fill.chunks", 1)
    tr.add("experiments.level_fill.trials", len(args[1]))


def _selected(tr, args, kwargs, result):
    sizes = result.reshape(-1, result.shape[-1]).sum(axis=1)
    tr.add("selectors.mask.keys", int(sizes.sum()))
    tr.add("selectors.mask.rows", len(sizes))
    tr.peak("selectors.mask.max", int(sizes.max(initial=0)))


def _peeled(tr, args, kwargs, result):
    tr.add("experiments.peel.trials", result.shape[0])
    tr.add("experiments.peel.survivors", int(result.any(axis=1).sum()))


def _dependent(tr, args, kwargs, result):
    tr.add("gf2.insert.dependent", result is not None)


def _scanned(tr, args, kwargs, result):
    tr.add("linprobe.probe_lengths.cells", int(result.sum()))


WRAPS = [  # (owner, attribute, span name, counters)
    (rng, "field_value_vec", "rng.table_fill", _entries),
    (rng, "sample_distinct_keys", "rng.sample_keys", None),
    (rng, "trial_seed", "rng.trial_seed", None),
    (rng, "trial_seed_vec", "rng.trial_seed", None),
    (rng, "mixer_hash", "rng.mixer", None),
    (rng, "mixer_hash_vec", "rng.mixer", None),
    (core.TornadoHash, "build", "core.build", None),
    (core, "fold_tables", "core.fold", None),
    (core.TornadoHash, "eval_batch", "core.eval_batch", _keys),
    (core, "eval_folded_batch", "core.eval_folded_batch", None),
    (experiments, "_chunk_level_tables", "experiments.level_fill", _chunk),
    (experiments, "_chunk_top_tables", "experiments.top_fill", None),
    (experiments, "_derive_chunk", "experiments.derive", None),
    (experiments, "_eval_chunk", "experiments.eval", None),
    (experiments, "_selection_mask_chunk", "selectors.mask", _selected),
    (selectors, "selection_mask", "selectors.mask", _selected),
    (experiments, "_peel_alive", "experiments.peel", _peeled),
    (experiments, "_dependent_rows", "experiments.elimination", None),
    (gf2.GF2Basis, "insert", "gf2.insert", _dependent),
    (linprobe, "occupancy_from_hashes", "linprobe.occupancy", None),
    (linprobe, "fresh_probe_lengths", "linprobe.probe_lengths", _scanned),
    (linprobe, "run_lengths_at", "linprobe.run_lengths", None),
]

# (metric, unit, span name, statistic). A statistic is "self_s" or "calls"
# of the span, a counter, ("ratio", numerator, denominator) or ("max", key).
METRICS = [
    ("rng.table_fill_s", "s", "rng.table_fill", "self_s"),
    ("rng.table_fill_entries", "count", "rng.table_fill", "rng.table_fill.entries"),
    ("rng.sample_keys_s", "s", "rng.sample_keys", "self_s"),
    ("rng.sample_keys_calls", "count", "rng.sample_keys", "calls"),
    ("rng.trial_seed_s", "s", "rng.trial_seed", "self_s"),
    ("rng.mixer_s", "s", "rng.mixer", "self_s"),
    ("core.build_s", "s", "core.build", "self_s"),
    ("core.build_calls", "count", "core.build", "calls"),
    ("core.fold_s", "s", "core.fold", "self_s"),
    ("core.eval_batch_s", "s", "core.eval_batch", "self_s"),
    ("core.eval_batch_keys", "count", "core.eval_batch", "core.eval_batch.keys"),
    ("core.eval_folded_batch_s", "s", "core.eval_folded_batch", "self_s"),
    ("experiments.chunks", "count", "experiments.level_fill", "experiments.level_fill.chunks"),
    ("experiments.trials_per_chunk", "trials", "experiments.level_fill",
     ("ratio", "experiments.level_fill.trials", "experiments.level_fill.chunks")),
    ("experiments.level_fill_s", "s", "experiments.level_fill", "self_s"),
    ("experiments.top_fill_s", "s", "experiments.top_fill", "self_s"),
    ("experiments.derive_s", "s", "experiments.derive", "self_s"),
    ("experiments.eval_s", "s", "experiments.eval", "self_s"),
    ("experiments.peel_s", "s", "experiments.peel", "self_s"),
    ("experiments.peel_survivor_trials", "count", "experiments.peel",
     "experiments.peel.survivors"),
    ("experiments.peel_survivor_ratio", "ratio", "experiments.peel",
     ("ratio", "experiments.peel.survivors", "experiments.peel.trials")),
    ("experiments.elimination_s", "s", "experiments.elimination", "self_s"),
    ("selectors.mask_s", "s", "selectors.mask", "self_s"),
    ("selectors.selected_mean", "keys", "selectors.mask",
     ("ratio", "selectors.mask.keys", "selectors.mask.rows")),
    ("selectors.selected_max", "keys", "selectors.mask", ("max", "selectors.mask.max")),
    ("gf2.insert_calls", "count", "gf2.insert", "calls"),
    ("gf2.insert_s", "s", "gf2.insert", "self_s"),
    ("gf2.dependent_found", "count", "gf2.insert", "gf2.insert.dependent"),
    ("linprobe.occupancy_s", "s", "linprobe.occupancy", "self_s"),
    ("linprobe.probe_lengths_s", "s", "linprobe.probe_lengths", "self_s"),
    ("linprobe.run_lengths_s", "s", "linprobe.run_lengths", "self_s"),
    ("linprobe.cells_scanned", "count", "linprobe.probe_lengths", "linprobe.probe_lengths.cells"),
]


def install(tracer) -> None:
    for owner, attr, span, count in WRAPS:
        tracer.wrap(owner, attr, span, count)


def snapshot(tracer) -> dict:
    """Take the spans and counters recorded so far and start afresh."""
    out = {"spans": tracer.self_times(), "counts": dict(tracer.counts)}
    tracer.spans.clear()
    tracer.counts.clear()
    return out


def metrics(tracer, setup: dict, loop: dict, rounds: int):
    """(metrics, absent metric names, per-span table) for the result."""
    def value(part, stat, span):
        if stat in ("self_s", "calls"):
            return part["spans"].get(span, {}).get(stat, 0)
        return part["counts"].get(stat, 0)

    out, absent = {}, []
    for name, unit, span, stat in METRICS:
        if span not in tracer.installed:
            absent.append(name)
            continue
        if isinstance(stat, tuple) and stat[0] == "ratio":
            num = value(setup, stat[1], span) + value(loop, stat[1], span)
            den = value(setup, stat[2], span) + value(loop, stat[2], span)
            v = num / den if den else 0.0
        elif isinstance(stat, tuple):
            v = tracer.maxima.get(stat[1], 0)
        else:
            v = value(setup, stat, span) + value(loop, stat, span) / max(rounds, 1)
        out[name] = {"value": v, "unit": unit}
    table = {}
    for part_name, part in (("setup", setup), ("per_round", loop)):
        for span, row in part["spans"].items():
            scale = 1 if part_name == "setup" else 1 / max(rounds, 1)
            table.setdefault(span, {})[part_name] = {k: v * scale for k, v in row.items()}
    return out, absent, table
