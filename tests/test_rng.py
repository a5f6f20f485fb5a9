import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from tornadotab import rng


def test_mix64_scalar_vec_agree():
    xs = np.array([0, 1, 2, 0xDEADBEEF, rng.M64], dtype=np.uint64)
    vec = rng.mix64_vec(xs)
    for x, v in zip(xs, vec):
        assert rng.mix64(int(x)) == int(v)


def test_mix64_is_64_bits_and_nontrivial():
    vals = {rng.mix64(i) for i in range(1000)}
    assert len(vals) == 1000
    assert all(0 <= v <= rng.M64 for v in vals)


def test_field_value_scalar_vec_agree():
    slots = np.arange(64, dtype=np.uint64)
    vec = rng.field_value_vec(7, rng.KIND_LEVEL, 3, 2, slots)
    for a, v in zip(slots, vec):
        assert rng.field_value(7, rng.KIND_LEVEL, 3, 2, int(a)) == int(v)


def field_value_reference(seed, kind, major, minor, slots) -> list[int]:
    """Scalar :func:`rng.field_value` of every element, after broadcasting."""
    cols = np.broadcast_arrays(*(np.asarray(a) for a in (seed, kind, major, minor, slots)))
    return [rng.field_value(*map(int, t)) for t in zip(*(c.reshape(-1).tolist() for c in cols))]


MIX_SIZES = [0, 1, rng.MIX_BLOCK - 1, rng.MIX_BLOCK, rng.MIX_BLOCK + 1, 3 * rng.MIX_BLOCK + 7]


@pytest.mark.parametrize("size", MIX_SIZES)
@pytest.mark.parametrize("dtype", [np.intp, np.uint64])
# no shrinking: a failing example already names its size, and each shrink
# step recomputes up to 3 * MIX_BLOCK scalar references
@settings(max_examples=3, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(seed=st.integers(0, rng.M64), kind=st.integers(0, 1), major=st.integers(0, 64),
       minor=st.integers(0, 64), values=st.integers(0, 2**32), strided=st.booleans())
def test_field_value_vec_blocks(size, dtype, seed, kind, major, minor, values, strided):
    """Every element equals the scalar field_value, across block edges, for
    the engine's intp characters and for uint64 slots, contiguous or not;
    the slot array is left unchanged."""
    gen = np.random.default_rng(values)
    slots = gen.integers(0, 2**63, 2 * size if strided else size, dtype=np.uint64)
    slots = slots.astype(dtype)[::2] if strided else slots.astype(dtype)
    before = slots.copy()
    vec = rng.field_value_vec(seed, kind, major, minor, slots)
    assert vec.shape == (size,) and vec.dtype == np.uint64
    assert vec.tolist() == field_value_reference(seed, kind, major, minor, slots)
    assert np.array_equal(slots, before) and slots.dtype == dtype


@settings(max_examples=20, deadline=None)
@given(b=st.integers(1, 4), npos=st.integers(1, 4), sigma=st.sampled_from([1, 16, 256, 300]),
       seed=st.integers(0, rng.M64), level=st.integers(0, 8))
def test_field_value_vec_level_broadcast(b, npos, sigma, seed, level):
    """The position-major level_stacks shape: (npos,1,1) positions x (1,B,1)
    seeds x (1,1,S) slots, each element the scalar field_value; inputs
    unchanged."""
    seeds = rng.trial_seed_vec(seed, np.arange(b, dtype=np.uint64))[None, :, None]
    pos = np.arange(npos, dtype=np.uint64)[:, None, None]
    slots = np.arange(sigma, dtype=np.uint64)[None, None, :]
    copies = [a.copy() for a in (seeds, pos, slots)]
    vec = rng.field_value_vec(seeds, rng.KIND_LEVEL, level, pos, slots)
    assert vec.shape == (npos, b, sigma)
    assert vec.reshape(-1).tolist() == field_value_reference(seeds, rng.KIND_LEVEL, level,
                                                             pos, slots)
    assert all(np.array_equal(a, c) for a, c in zip((seeds, pos, slots), copies))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, rng.M64), kind=st.integers(0, 1), major=st.integers(0, rng.M64),
       minor=st.integers(0, rng.M64), slot=st.integers(0, rng.M64))
def test_field_value_vec_all_scalar(seed, kind, major, minor, slot):
    vec = rng.field_value_vec(seed, kind, major, minor, slot)
    assert np.ndim(vec) == 0
    assert int(vec) == rng.field_value(seed, kind, major, minor, slot)


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int32, np.uint32])
def test_field_value_vec_narrow_slots(dtype):
    """Slots narrower than 64 bits are widened, each element the scalar field_value."""
    slots = np.arange(np.iinfo(dtype).max - 40, np.iinfo(dtype).max, 3).astype(dtype)
    vec = rng.field_value_vec(9, rng.KIND_TOP, 0, 1, slots)
    assert vec.dtype == np.uint64
    assert vec.tolist() == [rng.field_value(9, rng.KIND_TOP, 0, 1, int(a)) for a in slots]


@pytest.mark.parametrize("slots", [3.7, np.array([1.0, 2.0]), True,
                                   np.array([True, False])], ids=repr)
def test_field_value_vec_refuses_non_integer_slots(slots):
    """A float slot was truncated to a table address: 3.7 read as slot 3."""
    with pytest.raises(ValueError, match="slots must be integers"):
        rng.field_value_vec(9, rng.KIND_TOP, 0, 1, slots)


def test_field_value_distinguishes_coordinates():
    base = rng.field_value(1, 0, 0, 0, 0)
    assert base != rng.field_value(2, 0, 0, 0, 0)
    assert base != rng.field_value(1, 1, 0, 0, 0)
    assert base != rng.field_value(1, 0, 1, 0, 0)
    assert base != rng.field_value(1, 0, 0, 1, 0)
    assert base != rng.field_value(1, 0, 0, 0, 1)


def test_trial_seed_vec_agrees():
    ts = np.arange(100, dtype=np.uint64)
    vec = rng.trial_seed_vec(42, ts)
    assert all(rng.trial_seed(42, t) == int(v) for t, v in enumerate(vec))


def test_sample_distinct_keys_properties():
    keys = rng.sample_distinct_keys(5, 200, 10)
    assert len(keys) == 200
    assert len(np.unique(keys)) == 200
    assert keys.max() < 1024
    again = rng.sample_distinct_keys(5, 200, 10)
    assert np.array_equal(keys, again)


def test_sample_distinct_keys_whole_universe():
    keys = rng.sample_distinct_keys(9, 256, 8)
    assert sorted(int(k) for k in keys) == list(range(256))


def test_sample_distinct_keys_too_many():
    with pytest.raises(ValueError):
        rng.sample_distinct_keys(1, 300, 8)
    with pytest.raises(ValueError):
        rng.sample_distinct_keys(np.arange(3, dtype=np.uint64), 300, 8)
    with pytest.raises(ValueError):
        rng.sample_distinct_keys(1, -1, 8)


def test_first_occurrence_branches_agree():
    """The packed sort and the stable argsort mark the same first occurrences
    on rows full of repeats, which the wide keys that take the argsort branch
    almost never have."""
    vals = rng.raw_key_stream(np.arange(8, dtype=np.uint64), 300, 4)
    expect = [[v not in row[:i] for i, v in enumerate(row)] for row in vals.tolist()]
    assert rng._first_occurrences(vals, 4).tolist() == expect  # packed words
    assert rng._first_occurrences(vals, 64).tolist() == expect  # stable argsort


def first_distinct_reference(seed, n, bits):
    """Walk the stream one value at a time, as the sampler's definition reads."""
    count = 64
    while True:
        seen, picked = set(), []
        for v in rng.raw_key_stream(seed, count, bits).tolist():
            if len(picked) == n:
                return picked
            if v not in seen:
                seen.add(v)
                picked.append(v)
        count *= 4


@settings(max_examples=60, deadline=None)
@given(b=st.integers(1, 5), n=st.integers(0, 300), bits=st.sampled_from([8, 9, 12, 40, 62, 64]),
       seed=st.integers(0, rng.M64))
def test_batched_rows_equal_single_seed_calls(b, n, bits, seed):
    """Row b of a seed-array call is the B=1 call for seed b, and both are the
    first n distinct stream values; bits=8 and 9 make dense universes where
    rows come up short and are redrawn, 62 and 64 take the stable-argsort
    branch."""
    n = min(n, 1 << bits)
    seeds = rng.trial_seed_vec(seed, np.arange(b, dtype=np.uint64))
    block = rng.sample_distinct_keys(seeds, n, bits)
    assert block.shape == (b, n) and block.dtype == np.uint64
    for s, row in zip(seeds.tolist(), block):
        single = rng.sample_distinct_keys(s, n, bits)
        assert np.array_equal(row, single)
        assert single.tolist() == first_distinct_reference(s, n, bits)


def test_mixer_hash_matches_vec():
    xs = np.arange(50, dtype=np.uint64)
    vec = rng.mixer_hash_vec(3, xs, 16)
    assert all(rng.mixer_hash(3, int(x), 16) == int(v) for x, v in zip(xs, vec))
    assert vec.max() < 1 << 16
