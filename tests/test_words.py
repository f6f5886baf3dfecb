import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from quasilab import words
from quasilab.errors import ResourceLimitError
from quasilab.words import (
    _alpha_longdouble,
    _check_s,
    find_twin,
    iterate,
    metallic_alpha,
    occurrences,
    parity_pattern,
    prefix,
    rotation_sequence,
    twin_witness,
    word_length,
)


def substitute(word: str, s: int) -> str:
    """Apply the substitution a -> a^s b, b -> a to every letter of ``word``."""
    _check_s(s)
    image_a = "a" * s + "b"
    out = []
    for ch in word:
        if ch == "a":
            out.append(image_a)
        elif ch == "b":
            out.append("a")
        else:
            raise ValueError(f"letter {ch!r} is not in the alphabet {{a, b}}")
    return "".join(out)


def brute_force_twin(y, x, parity):
    """Independent oracle: scan all occurrence pairs directly."""
    want = 1 if parity == "odd" else 0
    starts = [i + 1 for i in range(len(x) - len(y) + 1) if x[i : i + len(y)] == y]
    pairs = []
    for i, p in enumerate(starts):
        for q in starts[i + 1 :]:
            if q - p >= len(y) and (q - p) % 2 == want:
                pairs.append((p, q))
    return pairs


class TestSubstitute:
    def test_single_step_golden(self):
        assert substitute("a", 1) == "ab"
        assert substitute("ab", 1) == "aba"

    def test_single_step_silver(self):
        assert substitute("a", 2) == "aab"

    def test_rejects_bad_letter(self):
        with pytest.raises(ValueError):
            substitute("ax", 1)


class TestIterate:
    def test_golden_chain(self):
        assert iterate(1, 0) == "a"
        assert iterate(1, 1) == "ab"
        assert iterate(1, 2) == "aba"
        assert iterate(1, 3) == "abaab"
        assert iterate(1, 4) == "abaababa"

    def test_golden_length_144(self):
        # Fibonacci lengths 1, 2, 3, 5, ..., 144 at n = 10.
        assert len(iterate(1, 10)) == 144
        assert word_length(1, 10) == 144

    def test_silver_base(self):
        assert iterate(2, 1) == "aab"
        assert iterate(2, 2) == "aabaaba"

    def test_matches_repeated_substitution(self):
        for s in (1, 2, 3):
            w = "a"
            for n in range(6):
                assert iterate(s, n) == w
                w = substitute(w, s)

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_concatenation_rule(self, s):
        for n in range(1, 11):
            if word_length(s, n + 1) > 200_000:
                break
            assert iterate(s, n + 1) == iterate(s, n) * s + iterate(s, n - 1)

    def test_length_cap(self):
        with pytest.raises(ResourceLimitError):
            iterate(1, 40)

    def test_capped_length_stops_at_the_cap(self):
        # uncapped, this loops 40000 times over integers of thousands of digits
        with pytest.raises(ResourceLimitError, match="cap of 1000 letters"):
            word_length(1, 40000, max_len=1000)
        with pytest.raises(ResourceLimitError):
            iterate(1, 0, max_len=0)
        assert word_length(1, 10, max_len=144) == 144

    def test_prefix_is_prefix(self):
        full = iterate(2, 6)
        assert prefix(2, 50) == full[:50]

    def test_prefix_of_a_huge_order_builds_only_the_letters_it_needs(self):
        # the level-1 word a^s b has 10**15 + 1 letters; the prefix needs five of them
        assert prefix(10**15, 5) == "aaaaa"


class TestRotationSequence:
    def test_golden_prefix_matches_iterate(self):
        w = iterate(1, 10)
        assert rotation_sequence(1, 0.0, range(1, len(w) + 1)) == w

    def test_silver_prefix_matches_iterate(self):
        w = iterate(2, 7)
        assert rotation_sequence(2, 0.0, range(1, len(w) + 1)) == w

    @pytest.mark.parametrize("s,n", [(1, 12), (2, 8), (3, 6), (4, 5)])
    def test_prefix_agreement_families(self, s, n):
        w = iterate(s, n)
        assert rotation_sequence(s, 0.0, range(1, len(w) + 1)) == w

    def test_alpha_values(self):
        assert metallic_alpha(1) == pytest.approx((3 - 5**0.5) / 2)
        # frequency of b in a long prefix approaches alpha
        w = iterate(1, 15)
        assert w.count("b") / len(w) == pytest.approx(metallic_alpha(1), abs=1e-3)

    def test_two_sided_indices(self):
        # hull elements extend to negative indices; the coding is defined there too
        out = rotation_sequence(2, 0.25, range(-10, 11))
        assert len(out) == 21 and set(out) <= {"a", "b"}


def one_pass_rotation(s, beta, indices) -> str:
    """The rotation coding of every index in one extended-precision pass, with
    the phase taken as given: the reference for phases in (-1, 1)."""
    al = _alpha_longdouble(s)
    n = np.array(list(indices), dtype=np.int64)
    frac = np.mod(n * al + np.longdouble(beta), np.longdouble(1.0))
    return "".join("b" if f >= np.longdouble(1.0) - al else "a" for f in frac)


class TestBlockedRotation:
    B = words._INDEX_BLOCK

    @pytest.mark.parametrize("length", [B - 1, B, B + 1, 2 * B + 3])
    def test_block_boundaries(self, length):
        assert rotation_sequence(2, 0.0, range(1, length + 1)) == prefix(2, length)
        assert rotation_sequence(1, 0.375, range(1, length + 1)) == one_pass_rotation(1, 0.375, range(1, length + 1))

    def test_generator_negative_and_unordered_indices(self):
        idx = [5, -3, 2 * self.B, 0, -self.B - 7, 1, 1] * 5000
        want = one_pass_rotation(3, -0.25, idx)
        assert rotation_sequence(3, -0.25, idx) == want
        assert rotation_sequence(3, -0.25, (i for i in idx)) == want

    def test_empty_iterable(self):
        assert rotation_sequence(1, 0.5, []) == ""
        assert rotation_sequence(1, 0.5, iter(())) == ""
        assert rotation_sequence(1, 0.5, range(4, 4)) == ""

    @given(st.integers(min_value=-3 * B, max_value=3 * B), st.integers(min_value=0, max_value=3 * B),
           st.sampled_from([1, 2, 3, -1, -2, 7, -B - 1]), st.sampled_from([1, 2, 3]),
           st.sampled_from([0.0, 0.375, -0.6]))
    def test_range_codes_as_its_list(self, start, length, step, s, beta):
        # a range is coded as arange blocks, a list through fromiter: the words agree
        r = range(start, start + step * length, step)
        assert rotation_sequence(s, beta, r) == rotation_sequence(s, beta, list(r))

    def test_peak_memory_is_a_few_blocks(self):
        # bound fixed from the block arithmetic before measuring: a block of
        # 2**14 indices holds int64 indices and three 16-byte longdouble
        # temporaries (about 1 MB); the 10**6 letters are held three times at
        # one byte each (the blocks, their join, the str), about 3 MB.  8 MB
        # leaves room for allocator slack and stays far below the whole-word
        # arrays (about 39 MB traced at 10**6 indices).
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            word = rotation_sequence(1, 0.5, range(10**6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(word) == 10**6
        assert peak < 8 * 2**20


dyadic_phases = st.integers(min_value=-255, max_value=255).map(lambda k: k / 256)


class TestPhaseReduction:
    @given(dyadic_phases, st.integers(min_value=-10**20, max_value=10**20))
    def test_integer_shift_of_the_phase_keeps_the_word(self, beta, k):
        shifted = beta + float(k)
        if shifted - float(k) != beta:  # beta + k is not a float: compare beta = 0 with k
            beta, shifted = 0.0, float(k)
        assert rotation_sequence(1, shifted, range(1, 300)) == rotation_sequence(1, beta, range(1, 300))

    def test_phases_below_one_enter_unchanged(self):
        for beta in (0.0, -0.0, 0.3, -0.7, 0.9999999999999999, -0.9999999999999999):
            assert rotation_sequence(2, beta, range(-50, 400)) == one_pass_rotation(2, beta, range(-50, 400))


class TestTwins:
    def test_examples(self):
        rep = find_twin("ab", "abaab", "odd")
        assert rep is not None and rep.offset == 3
        rep = find_twin("ab", "abab", "even")
        assert rep is not None and rep.offset == 2
        assert find_twin("ab", "abab", "odd") is None

    def test_report_fields_revalidate(self):
        rep = find_twin("ab", "abaab", "odd")
        assert rep.check("ab", "abaab")
        # the CLI writes the report as its dataclass fields, in this order
        assert list(dataclasses.asdict(rep).items()) == [
            ("parity", "odd"), ("pos1", 1), ("pos2", 4), ("offset", 3)]

    def test_witness_golden_odd_length(self):
        # |C(3)| = 5 is odd -> witness C(3)C(3), twin at offset 5
        x = twin_witness(1, 3)
        assert x == iterate(1, 3) * 2
        rep = find_twin(iterate(1, 3), x, "odd")
        assert rep is not None and rep.offset == 5

    def test_witness_golden_even_length(self):
        # |C(4)| = 8 is even -> witness C(4)C(3)C(4), twin at offset 13
        x = twin_witness(1, 4)
        assert x == iterate(1, 4) + iterate(1, 3) + iterate(1, 4)
        rep = find_twin(iterate(1, 4), x, "odd")
        assert rep is not None and rep.offset == 13

    def test_witness_silver(self):
        x = twin_witness(2, 2)
        rep = find_twin(iterate(2, 2), x, "odd")
        assert rep is not None and rep.check(iterate(2, 2), x)

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_witness_small_ranges(self, s):
        for k in range(1, 7):
            y = iterate(s, k)
            x = twin_witness(s, k)
            assert len(x) <= 3 * len(y)
            rep = find_twin(y, x, "odd")
            assert rep is not None and rep.check(y, x)

    @pytest.mark.parametrize("s,k", [(1, 3), (1, 4), (2, 2), (3, 2)])
    def test_witness_is_a_factor_of_the_language(self, s, k):
        assert twin_witness(s, k) in iterate(s, k + 3)

    @given(
        y=st.text(alphabet="ab", min_size=1, max_size=3),
        x=st.text(alphabet="ab", min_size=1, max_size=14),
        parity=st.sampled_from(["odd", "even"]),
    )
    def test_against_brute_force(self, y, x, parity):
        pairs = brute_force_twin(y, x, parity)
        rep = find_twin(y, x, parity)
        if pairs:
            assert rep is not None
            assert (rep.pos1, rep.pos2) in pairs
            assert rep.check(y, x)
        else:
            assert rep is None

    def test_occurrences_overlapping(self):
        assert occurrences("aa", "aaaa") == [1, 2, 3]
        with pytest.raises(ValueError):
            occurrences("", "ab")


class TestParityPattern:
    def test_even_s_all_ones(self):
        assert parity_pattern(2, 8) == [1] * 8

    def test_golden_period_three(self):
        assert parity_pattern(1, 6) == [1, 0, 1, 1, 0, 1]

    def test_bronze_period_three(self):
        assert parity_pattern(3, 6) == [1, 0, 1, 1, 0, 1]

    @pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
    def test_matches_direct_lengths(self, s):
        pat = parity_pattern(s, 8)
        assert pat == [word_length(s, n) % 2 for n in range(8)]
