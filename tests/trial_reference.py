"""The per-trial reference that the tests hold the batched engine against.

Each trial is its own ``TornadoHash.build(spec, trial_seed)``, derived and
evaluated key by key by the scalar ``derive``/``eval`` loops, which share no
code with the lane walk over either of its entry sources.
"""

import numpy as np

from tornadotab.core import TornadoHash


def per_trial_reference(spec, seeds, xs):
    """(derived keys, hashes) of the keys ``xs``, (n,) shared or (B, n) per
    trial, under each of the (B,) trial seeds: (B, n, c + d) intp and (B, n)
    uint64, as the engine returns them."""
    hashes = [TornadoHash.build(spec, seed) for seed in np.asarray(seeds).tolist()]
    xs = np.asarray(xs, dtype=np.uint64)
    rows = [xs.tolist()] * len(hashes) if xs.ndim == 1 else xs.tolist()
    shape = (len(hashes), xs.shape[-1])
    chars = [[h.derive(x) for x in row] for h, row in zip(hashes, rows)]
    evals = [[h.eval(x) for x in row] for h, row in zip(hashes, rows)]
    return (np.array(chars, dtype=np.intp).reshape(shape + (spec.positions,)),
            np.array(evals, dtype=np.uint64).reshape(shape))
