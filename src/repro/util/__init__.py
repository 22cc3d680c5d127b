"""Shared low-level utilities: constants, bit math, statistics."""

from repro.util.bitops import (
    align_down,
    align_up,
    is_aligned,
    line_base,
    line_offset,
    lines_covering,
    page_base,
    pages_covering,
    split_lines,
    split_pages,
)
from repro.util.constants import (
    CACHE_LINE_SIZE,
    LINES_PER_PAGE,
    MAX_PHYS_ADDR,
    NULL_ADDR,
    PAGE_SIZE,
    WORD_SIZE,
    WORDS_PER_LINE,
    is_power_of_two,
)
from repro.util.stats import Counter, Histogram, StatGroup, ratio

__all__ = [
    "CACHE_LINE_SIZE",
    "LINES_PER_PAGE",
    "MAX_PHYS_ADDR",
    "NULL_ADDR",
    "PAGE_SIZE",
    "WORD_SIZE",
    "WORDS_PER_LINE",
    "Counter",
    "Histogram",
    "StatGroup",
    "align_down",
    "align_up",
    "is_aligned",
    "is_power_of_two",
    "line_base",
    "line_offset",
    "lines_covering",
    "page_base",
    "pages_covering",
    "ratio",
    "split_lines",
    "split_pages",
]
