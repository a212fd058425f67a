"""Frequent-pattern classifier tests (Fig. 1 machinery)."""

import pytest
from hypothesis import given, strategies as st

from repro.traffic.patterns import (
    PatternKind,
    WORD_MASK,
    classify_line,
    classify_word,
    flit_active_groups,
    line_active_groups,
)


class TestClassifyWord:
    def test_zero(self):
        assert classify_word(0) is PatternKind.ZERO

    def test_all_ones(self):
        assert classify_word(WORD_MASK) is PatternKind.ONE

    def test_small_positive_is_sign8(self):
        assert classify_word(42) is PatternKind.SIGN8

    def test_small_negative_is_sign8(self):
        assert classify_word((-42) & WORD_MASK) is PatternKind.SIGN8

    def test_halfword_is_sign16(self):
        assert classify_word(30000) is PatternKind.SIGN16

    def test_negative_halfword_is_sign16(self):
        assert classify_word((-30000) & WORD_MASK) is PatternKind.SIGN16

    def test_repeated_byte(self):
        assert classify_word(0xABABABAB) is PatternKind.REPEATED

    def test_random(self):
        assert classify_word(0x12345678) is PatternKind.RANDOM

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            classify_word(-1)
        with pytest.raises(ValueError):
            classify_word(1 << 32)

    def test_boundary_sign8(self):
        assert classify_word(127) is PatternKind.SIGN8
        assert classify_word(128) is PatternKind.SIGN16
        assert classify_word((-128) & WORD_MASK) is PatternKind.SIGN8


class TestActiveGroups:
    def test_all_zero_lower_words_is_short(self):
        assert flit_active_groups([5, 0, 0, 0]) == 1

    def test_all_ones_lower_words_is_short(self):
        assert flit_active_groups([5, WORD_MASK, WORD_MASK, WORD_MASK]) == 1

    def test_mixed_redundant_lower_words_is_short(self):
        assert flit_active_groups([7, 0, WORD_MASK, 0]) == 1

    def test_full_flit(self):
        assert flit_active_groups([1, 2, 3, 4]) == 4

    def test_partial_activity(self):
        assert flit_active_groups([1, 9, 0, 0]) == 2
        assert flit_active_groups([1, 0, 9, 0]) == 3

    def test_top_word_always_counts(self):
        assert flit_active_groups([0, 0, 0, 0]) == 1

    def test_live_bottom_word_forces_full(self):
        assert flit_active_groups([0, 0, 0, 9]) == 4

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            flit_active_groups([1, 2, 3])

    def test_line_active_groups_per_flit(self):
        line = [5, 0, 0, 0] + [1, 2, 3, 4] + [9, 7, 0, 0] + [0, 0, 0, 0]
        assert line_active_groups(line) == [1, 4, 2, 1]

    def test_line_length_validated(self):
        with pytest.raises(ValueError):
            line_active_groups([0] * 15)

    def test_classify_line(self):
        kinds = classify_line([0, WORD_MASK, 5, 0x13572468])
        assert kinds == [
            PatternKind.ZERO,
            PatternKind.ONE,
            PatternKind.SIGN8,
            PatternKind.RANDOM,
        ]


@given(st.lists(st.integers(min_value=0, max_value=WORD_MASK), min_size=4, max_size=4))
def test_property_active_groups_bounds(words):
    active = flit_active_groups(words)
    assert 1 <= active <= 4


@given(st.lists(st.integers(min_value=0, max_value=WORD_MASK), min_size=4, max_size=4))
def test_property_short_iff_lower_words_redundant(words):
    lower_redundant = all(w in (0, WORD_MASK) for w in words[1:])
    assert (flit_active_groups(words) == 1) == lower_redundant


@given(st.integers(min_value=0, max_value=WORD_MASK))
def test_property_every_word_classified(word):
    assert classify_word(word) in PatternKind
