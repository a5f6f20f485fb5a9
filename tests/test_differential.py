"""Every evaluation path agrees on random valid specs and keys.

The scalar ``derive``/``eval`` loops are the reference. Against them run
``derive_batch``/``eval_batch``/``eval_folded_batch`` (the lane walk with
one trial), the scalar folded path where the spec has one, and, over
several trials each checked against its own ``TornadoHash.build``, the
engine's two chunk routes for shared and for per-trial keys: the hashed
``derive_stack``/``eval_stack``, and the lane walk over lanes packed from
the trial seeds by ``fold_stacks``, with and without the top entry.
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
)
from trial_reference import per_trial_reference

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
@example(_case(TornadoSpec(8, 2, 2, 3, Variant.TORNADO_MIX, psi_bits=10)))
@example(_case(TornadoSpec(8, 8, 5, 64, Variant.TORNADO_MIX, psi_bits=16)))  # w128mix
@example(_case(TornadoSpec(8, 4, 4, 24, Variant.TORNADO)))  # w64
@example(_case(TornadoSpec(8, 1, 3, 32, Variant.TORNADO)))  # w64 at c = 1: no twist
# w128mix whose level entries need 72 bits, past one 64-bit word
@example(_case(TornadoSpec(8, 4, 6, 48, Variant.TORNADO_MIX, psi_bits=16)))
# several 64-bit lanes of packed level entries in the engine
@example(_case(TornadoSpec(12, 5, 5, 40, Variant.TORNADO)))  # level 5 would straddle bit 64
@example(_case(TornadoSpec(4, 2, 40, 16, Variant.SIMPLE_TORNADO)))  # three lanes
@example(_case(TornadoSpec(6, 4, 8, 48, Variant.TORNADO_MIX, psi_bits=12)))
# the top entry in a lane of its own, and sharing the lane after a lane break
@example(_case(TornadoSpec(8, 4, 4, 32, Variant.TORNADO)))
@example(_case(TornadoSpec(16, 2, 4, 16, Variant.TORNADO)))
def test_evaluation_paths_agree(case):
    spec, seed, keys = case
    h = TornadoHash.build(spec, seed)
    xs = np.array(keys, dtype=np.uint64)
    expected = [h.eval(x) for x in keys]

    assert [tuple(row) for row in h.derive_batch(xs).tolist()] == [h.derive(x) for x in keys]
    assert h.eval_batch(xs).tolist() == expected

    assert eval_folded_batch(h, xs).tolist() == expected

    seeds = rng.trial_seed_vec(seed, np.arange(ENGINE_TRIALS, dtype=np.uint64))
    per_trial = np.stack([np.roll(xs, t) for t in range(ENGINE_TRIALS)])
    for batch in (xs, per_trial):
        want_chars, want_evals = per_trial_reference(spec, seeds, batch)
        chars = derive_stack(spec, seeds, batch)
        assert np.array_equal(chars, want_chars)
        assert np.array_equal(eval_stack(spec, seeds, chars), want_evals)
        walked_chars, walked_evals = eval_folded_stack(spec, fold_stacks(spec, seeds, batch), batch)
        assert np.array_equal(walked_chars, want_chars)
        assert np.array_equal(walked_evals, want_evals)
        lanes = fold_stacks(spec, seeds, batch, top=False)
        if lanes:  # none when no level reads a position
            walked_chars, walked_evals = eval_folded_stack(spec, lanes, batch)
            assert np.array_equal(walked_chars, want_chars) and walked_evals is None

    try:
        fold_tables(h)
    except ConfigError:
        return
    assert [h.eval_folded(x) for x in keys] == expected
