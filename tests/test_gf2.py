import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tornadotab.core import ConfigError
from tornadotab.gf2 import (
    GenKey,
    GF2Basis,
    diff_key,
    find_zero_subset,
    genkey_from_key,
    is_linearly_independent,
    is_zero_set,
    rank,
)


def brute_force_dependent(keys) -> bool:
    """2^|Y| subset oracle: dependent iff some non-empty subset XORs to zero."""
    for size in range(1, len(keys) + 1):
        for sub in itertools.combinations(keys, size):
            acc = 0
            for k in sub:
                acc ^= k.bits
            if acc == 0:
                return True
    return False


def brute_force_min_zero_subsets(keys):
    """All zero subsets, smallest first."""
    out = []
    for size in range(1, len(keys) + 1):
        for sub in itertools.combinations(range(len(keys)), size):
            acc = 0
            for i in sub:
                acc ^= keys[i].bits
            if acc == 0:
                out.append(sub)
    return out


class TestGenKey:
    def test_from_key_bits(self):
        # char_bits=1, b=2, x=0b10 -> characters (1,0),(2,1) i.e. bits 0 and 3
        k = genkey_from_key(0b10, 2, 1)
        assert k.bits == 0b1001
        assert k.position_chars() == [(0, 0), (1, 1)]

    def test_popcount_regular(self):
        for b, cb in ((2, 1), (3, 2), (4, 4)):
            for x in (0, 1, (1 << (b * cb)) - 1):
                assert genkey_from_key(x, b, cb).popcount == b

    def test_xor_is_diff(self):
        x = genkey_from_key(0b0001, 2, 2)
        y = genkey_from_key(0b0100, 2, 2)
        assert (x ^ y) == diff_key(x, y, 2)

    def test_diff_same_key_empty(self):
        x = genkey_from_key(7, 2, 4)
        assert diff_key(x, x, 2).is_empty

    def test_diff_prefix_zero_empty(self):
        x = genkey_from_key(3, 2, 2)
        y = genkey_from_key(9, 2, 2)
        assert diff_key(x, y, 0).is_empty

    def test_diff_keys_00_01(self):
        # keys differing in one character produce a two-bit diff there
        x = genkey_from_key(0b00, 2, 1)
        y = genkey_from_key(0b01, 2, 1)
        d = diff_key(x, y, 2)
        assert d.position_chars() == [(0, 0), (0, 1)]
        assert d.popcount == 2
        # written-form keys "00" and "01" differ in their second position
        y2 = genkey_from_key(0b10, 2, 1)
        assert diff_key(x, y2, 2).position_chars() == [(1, 0), (1, 1)]
        # a prefix cut before that position hides the difference
        assert diff_key(x, y2, 1).is_empty

    def test_diff_key_has_zero_or_two_per_position(self):
        for xa in range(16):
            for ya in range(16):
                d = genkey_from_key(xa, 2, 2) ^ genkey_from_key(ya, 2, 2)
                for pos in range(2):
                    n = sum(1 for p, _ in d.position_chars() if p == pos)
                    assert n in (0, 2)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            genkey_from_key(0, 2, 1) ^ genkey_from_key(0, 2, 2)

    def test_char_out_of_range(self):
        with pytest.raises(ValueError):
            GenKey.from_chars([2], (2,))

    @pytest.mark.parametrize("chars", [[True, 0], [0, np.bool_(True)], [0.5, 1], [1.0, 0],
                                       [np.float64(1), 0], ["1", 0]], ids=repr)
    def test_character_must_be_an_integer(self, chars):
        """True would be stored as character 1, and 0.5 failed in a shift."""
        with pytest.raises(ValueError, match="is not an integer"):
            GenKey.from_chars(chars, (2, 2))

    def test_numpy_integer_characters(self):
        want = GenKey.from_chars([1, 3], (2, 4))
        assert GenKey.from_chars([np.int64(1), np.uint8(3)], (2, 4)) == want
        assert GenKey.from_chars([np.int8(1), 0], (2, 2)) == GenKey.from_chars([1, 0], (2, 2))
        with pytest.raises(ValueError, match="is not an integer"):
            GenKey.from_chars([1.5, 0], (2, 2))

    @pytest.mark.parametrize("bits", [-1, 1 << 4], ids=repr)
    def test_bitset_out_of_range(self, bits):
        with pytest.raises(ValueError, match="bitset out of range"):
            GenKey((2, 2), bits)

    @pytest.mark.parametrize("bits", [True, (2,), 2.0], ids=repr)
    def test_bitset_must_be_an_integer(self, bits):
        """GenKey((2,), True) was the key with character 0."""
        with pytest.raises(ValueError, match="bitset .* is not an integer"):
            GenKey((2,), bits)

    def test_numpy_integer_bitset_is_a_plain_int(self):
        """A NumPy bitset was stored as it came, and rank failed on its missing bit_length."""
        k = GenKey((2, 2), np.int64(5))
        assert type(k.bits) is int and k == GenKey((2, 2), 5) and rank([k]) == 1

    @pytest.mark.parametrize("x", [-1, True, 2**4, 1.5, "1"], ids=repr)
    def test_key_outside_universe_refused(self, x):
        """genkey_from_key(-1, 2, 2) gave bits 136 and 16 aliased the key 0."""
        with pytest.raises(ConfigError):
            genkey_from_key(x, 2, 2)

    def test_key_at_universe_edges(self):
        assert genkey_from_key(np.uint8(15), 2, 2) == genkey_from_key(15, 2, 2)
        assert genkey_from_key(2**64 - 1, 8, 8).popcount == 8

    def test_one_character_per_position(self):
        with pytest.raises(ValueError, match="one character per position"):
            GenKey.from_chars([0], (2, 2))

    @pytest.mark.parametrize("i", [-1, 3])
    def test_prefix_out_of_range(self, i):
        with pytest.raises(ValueError, match=f"prefix {i} out of range"):
            genkey_from_key(0, 2, 1).prefix(i)

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            GenKey((1 << 23,), 0)


class TestZeroSet:
    def test_four_square(self):
        ks = [genkey_from_key(x, 2, 1) for x in (0b00, 0b01, 0b10, 0b11)]
        assert is_zero_set(ks)

    def test_three_not(self):
        ks = [genkey_from_key(x, 2, 1) for x in (0b00, 0b01, 0b10)]
        assert not is_zero_set(ks)

    def test_hard_family(self):
        # {0c1, 1c1, 0c2, 1c2} is a zero-set for any c1 != c2
        for c1 in range(4):
            for c2 in range(4):
                if c1 == c2:
                    continue
                ks = [
                    GenKey.from_chars((0, c1), (2, 4)),
                    GenKey.from_chars((1, c1), (2, 4)),
                    GenKey.from_chars((0, c2), (2, 4)),
                    GenKey.from_chars((1, c2), (2, 4)),
                ]
                assert is_zero_set(ks)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            is_zero_set([])


class TestRank:
    def test_single_regular_key_independent(self):
        assert is_linearly_independent([genkey_from_key(5, 2, 2)])

    def test_four_square_rank3(self):
        ks = [genkey_from_key(x, 2, 1) for x in (0b00, 0b01, 0b10, 0b11)]
        assert rank(ks) == 3
        assert not is_linearly_independent(ks)
        # brute force: no smaller zero subset than the full 4-set
        subs = brute_force_min_zero_subsets(ks)
        assert subs == [(0, 1, 2, 3)]

    def test_rank_permutation_invariant(self):
        ks = [genkey_from_key(x, 3, 2) for x in (1, 9, 33, 40, 41)]
        r0 = rank(ks)
        for perm in itertools.permutations(ks):
            assert rank(perm) == r0
        assert r0 <= min(len(ks), sum(ks[0].sizes))

    def test_empty_independent(self):
        assert is_linearly_independent([])

    def test_zero_vector_dependent(self):
        assert not is_linearly_independent([GenKey((2, 2), 0)])

    def test_matches_brute_force_fixed_sweep(self):
        rs = np.random.default_rng(1234)
        for _ in range(400):
            b = int(rs.integers(1, 4))
            cb = int(rs.integers(1, 3))
            n = int(rs.integers(1, 9))
            ks = [genkey_from_key(int(rs.integers(0, 1 << (b * cb))), b, cb) for _ in range(n)]
            assert is_linearly_independent(ks) == (not brute_force_dependent(ks))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 2),
    st.lists(st.integers(0, 63), min_size=1, max_size=10),
)
def test_rank_property_vs_brute_force(b, cb, xs):
    ks = [genkey_from_key(x & ((1 << (b * cb)) - 1), b, cb) for x in xs]
    indep = is_linearly_independent(ks)
    assert indep == (not brute_force_dependent(ks))
    if not indep:
        w = find_zero_subset(ks)
        assert is_zero_set(w)


class TestWitness:
    def test_four_square_full_witness(self):
        ks = [genkey_from_key(x, 2, 1) for x in (0b00, 0b01, 0b10, 0b11)]
        assert sorted(k.bits for k in find_zero_subset(ks)) == sorted(k.bits for k in ks)

    def test_constructed_dependency(self):
        base = [genkey_from_key(x, 3, 2) for x in (0b000001, 0b000100, 0b010000)]
        assert is_linearly_independent(base)
        forced = GenKey(base[0].sizes, base[0].bits ^ base[1].bits ^ base[2].bits)
        ks = base + [forced]
        w = find_zero_subset(ks)
        assert forced in w
        assert is_zero_set(w)

    def test_witness_ends_at_first_dependent_prefix(self):
        rs = np.random.default_rng(77)
        checked = 0
        while checked < 100:
            raw = rs.choice(64, size=8, replace=False)
            ks = [genkey_from_key(int(x), 3, 2) for x in raw]
            if is_linearly_independent(ks):
                continue
            checked += 1
            w = find_zero_subset(ks)
            assert is_zero_set(w)
            last = max(ks.index(k) for k in w)
            prefix_end = next(
                i for i in range(len(ks)) if not is_linearly_independent(ks[: i + 1])
            )
            assert last == prefix_end

    def test_independent_raises(self):
        ks = [genkey_from_key(x, 2, 2) for x in (1, 4)]
        with pytest.raises(ValueError):
            find_zero_subset(ks)


class TestBasis:
    def test_combo_tracks_inserted_indices(self):
        basis = GF2Basis()
        vecs = [0b001, 0b010, 0b011]
        combos = [basis.insert(v) for v in vecs]
        assert combos[0] is None and combos[1] is None
        assert combos[2] == 0b111  # v2 = v0 ^ v1
        assert basis.rank == 2
        assert basis.inserted == 3

    def test_zero_vector_combo_is_self(self):
        basis = GF2Basis()
        assert basis.insert(0) == 0b1
