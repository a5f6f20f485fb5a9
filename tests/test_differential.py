"""Every evaluation path agrees on random valid specs and keys.

The scalar ``derive``/``eval`` loops are the reference. Against them run
``derive_batch``/``eval_batch`` (the engine with one trial), the engine
with several trials each checked against its own ``TornadoHash.build``
(its level entries both gathered from filled tables and hashed from their
addresses), the scalar folded path and, for the ``w64`` profile, the batch
folded path and the folded engine over several trials, whose derived keys
and hashes must equal the engine's. Its stack, folded from the trial seeds,
must equal ``fold_tables`` of each trial's built tables at every slot the
keys read.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tornadotab import rng
from tornadotab.core import (
    ConfigError,
    TornadoHash,
    TornadoSpec,
    Variant,
    derive_stack,
    eval_folded_batch,
    eval_folded_stack,
    eval_stack,
    fold_stacks,
    fold_tables,
    is_w64,
    level_stacks,
    top_stacks,
)

ENGINE_TRIALS = 2


@st.composite
def specs(draw):
    variant = draw(st.sampled_from(list(Variant)))
    # 8-bit characters and psi = 16 are the folded profiles, so draw them often
    char_bits = draw(st.one_of(st.just(8), st.integers(1, 16)))
    c = draw(st.integers(1, min(8, 64 // char_bits)))
    out_bits = draw(st.one_of(st.just(64), st.integers(1, 64)))
    psi_bits = None
    if variant is Variant.SIMPLE_TABULATION:
        d = 0
    elif variant is Variant.TORNADO_MIX:
        d = draw(st.integers(2, 5))
        psi_bits = draw(st.one_of(st.just(16), st.integers(char_bits, 20)))
    else:
        d = draw(st.integers(0, 5))
    return TornadoSpec(char_bits, c, d, out_bits, variant, psi_bits)


@st.composite
def cases(draw):
    spec = draw(specs())
    top = spec.key_limit - 1
    keys = draw(st.lists(st.integers(0, top), min_size=1, max_size=24))
    return spec, draw(st.integers(0, rng.M64)), [0, top] + keys


def _case(spec, seed=0x5EED):
    top = spec.key_limit - 1
    return spec, seed, [0, 1, top, top // 3]


@settings(max_examples=40, deadline=None)
@given(cases())
@example(_case(TornadoSpec(8, 1, 0, 64, Variant.TORNADO)))  # c=1, d=0, out_bits=64
@example(_case(TornadoSpec(16, 1, 3, 17, Variant.SIMPLE_TORNADO)))
@example(_case(TornadoSpec(4, 3, 0, 7, Variant.SIMPLE_TABULATION)))
@example(_case(TornadoSpec(8, 2, 2, 64, Variant.TORNADO_MIX, psi_bits=20)))
@example(_case(TornadoSpec(8, 8, 5, 64, Variant.TORNADO_MIX, psi_bits=16)))  # w128mix
@example(_case(TornadoSpec(8, 4, 4, 24, Variant.TORNADO)))  # w64
def test_evaluation_paths_agree(case):
    spec, seed, keys = case
    h = TornadoHash.build(spec, seed)
    xs = np.array(keys, dtype=np.uint64)
    expected = [h.eval(x) for x in keys]

    assert [tuple(row) for row in h.derive_batch(xs).tolist()] == [h.derive(x) for x in keys]
    assert h.eval_batch(xs).tolist() == expected

    seeds = rng.trial_seed_vec(seed, np.arange(ENGINE_TRIALS, dtype=np.uint64))
    levels, top = level_stacks(spec, seeds), top_stacks(spec, seeds)
    chars = derive_stack(spec, levels, xs, ENGINE_TRIALS)
    evals = eval_stack(spec, top, chars)
    for b, trial_seed in enumerate(seeds.tolist()):
        assert evals[b].tolist() == [TornadoHash.build(spec, trial_seed).eval(x) for x in keys]
    # the other level source: every entry hashed from its address as it is read
    hashed = derive_stack(spec, seeds, xs, ENGINE_TRIALS)
    assert np.array_equal(hashed, chars)
    assert np.array_equal(eval_stack(spec, top, hashed), evals)

    try:
        fold_tables(h)
    except ConfigError:
        return
    assert [h.eval_folded(x) for x in keys] == expected
    if not is_w64(spec):
        return
    assert eval_folded_batch(h, xs).tolist() == expected
    reference = np.stack([fold_tables(TornadoHash.build(spec, s)).tables_np
                          for s in seeds.tolist()], axis=1)
    per_trial = np.stack([np.roll(xs, t) for t in range(ENGINE_TRIALS)])
    for keys in (xs, per_trial):
        folded = fold_stacks(spec, seeds, keys)
        for p in range(spec.positions):
            read = np.ones(256, dtype=bool)
            if keys.ndim == 1 and p < spec.c - 1:  # shared keys: only the characters they hold
                read[:] = False
                read[((keys >> np.uint64(8 * p)) & np.uint64(255)).astype(np.intp)] = True
            assert np.array_equal(folded[p][:, read], reference[p][:, read])
            assert not folded[p][:, ~read].any()
        engine_chars = derive_stack(spec, levels, keys, ENGINE_TRIALS)
        folded_chars, folded_evals = eval_folded_stack(spec, folded, keys)
        assert np.array_equal(folded_chars, engine_chars)
        assert np.array_equal(folded_evals, eval_stack(spec, top, engine_chars))
