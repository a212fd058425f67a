"""Frequent-data-pattern classification (Fig. 1).

NUCA data packets carry cache lines whose words very often hold frequent
patterns — all zeros, all ones, narrow sign-extended values (the paper
cites Alameldeen & Wood's Frequent Pattern Compression study [18]).  MIRA
exploits this: a flit whose lower word groups are all redundant is a
*short flit* and can traverse the router with the bottom layers gated off.

This module classifies 32-bit words and whole cache lines, and computes
the per-flit ``active_groups`` used by the shutdown model.
"""

from __future__ import annotations

import enum
from typing import List, Sequence

#: Bits per word (one word per stacked layer in the 4-layer design).
WORD_BITS = 32
WORD_MASK = (1 << WORD_BITS) - 1
#: Words per flit (128-bit flit / 32-bit word groups).
WORDS_PER_FLIT = 4
#: Words per 64-byte cache line.
WORDS_PER_LINE = 16


class PatternKind(enum.Enum):
    """FPC-style word pattern classes."""

    ZERO = "zero"
    ONE = "one"
    SIGN8 = "sign8"
    SIGN16 = "sign16"
    REPEATED = "repeated"
    RANDOM = "random"


def classify_word(word: int) -> PatternKind:
    """Classify a 32-bit *word* into its frequent-pattern class."""
    if not 0 <= word <= WORD_MASK:
        raise ValueError(f"word out of 32-bit range: {word:#x}")
    if word == 0:
        return PatternKind.ZERO
    if word == WORD_MASK:
        return PatternKind.ONE
    # Sign-extended byte: value representable as an 8-bit two's complement.
    signed = word - (1 << WORD_BITS) if word >> (WORD_BITS - 1) else word
    if -128 <= signed < 128:
        return PatternKind.SIGN8
    if -(1 << 15) <= signed < (1 << 15):
        return PatternKind.SIGN16
    b0 = word & 0xFF
    if word == (b0 | (b0 << 8) | (b0 << 16) | (b0 << 24)):
        return PatternKind.REPEATED
    return PatternKind.RANDOM


def classify_line(words: Sequence[int]) -> List[PatternKind]:
    """Classify each word of a cache line."""
    return [classify_word(w) for w in words]


def _word_redundant(word: int) -> bool:
    """Redundant words carry no information beyond a gated constant.

    The paper's zero-detector treats all-0 and all-1 words as redundant
    (Sec. 1: "all 0 word or all 1 word or short address flits").
    """
    return word == 0 or word == WORD_MASK


def flit_active_groups(words: Sequence[int]) -> int:
    """Active word groups in one flit (``words[0]`` rides the top layer).

    The shutdown circuit gates contiguous *bottom* layers, so the count is
    the highest non-redundant word index + 1, clamped to at least 1 (the
    top layer always stays on to carry the header/valid word).
    """
    if len(words) != WORDS_PER_FLIT:
        raise ValueError(f"a flit has {WORDS_PER_FLIT} words, got {len(words)}")
    active = 1
    for idx in range(WORDS_PER_FLIT - 1, 0, -1):
        if not _word_redundant(words[idx]):
            active = idx + 1
            break
    return active


def line_active_groups(words: Sequence[int]) -> List[int]:
    """Per-flit ``active_groups`` for a full cache line (4 payload flits)."""
    if len(words) != WORDS_PER_LINE:
        raise ValueError(
            f"a cache line has {WORDS_PER_LINE} words, got {len(words)}"
        )
    return [
        flit_active_groups(words[i : i + WORDS_PER_FLIT])
        for i in range(0, WORDS_PER_LINE, WORDS_PER_FLIT)
    ]
