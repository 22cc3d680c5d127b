"""Alignment and address-range helpers.

All the simulators in this package slice byte ranges into cache lines or
pages. The helpers here centralize that arithmetic so off-by-one errors
live in exactly one place.
"""

from repro.errors import AddressError
from repro.util.constants import CACHE_LINE_SIZE, PAGE_SIZE, is_power_of_two


def align_down(value, alignment):
    """Round ``value`` down to a multiple of ``alignment`` (a power of two)."""
    if not is_power_of_two(alignment):
        raise AddressError("alignment must be a power of two, got %r" % (alignment,))
    return value & ~(alignment - 1)


def align_up(value, alignment):
    """Round ``value`` up to a multiple of ``alignment`` (a power of two)."""
    if not is_power_of_two(alignment):
        raise AddressError("alignment must be a power of two, got %r" % (alignment,))
    return (value + alignment - 1) & ~(alignment - 1)


def is_aligned(value, alignment):
    """Return True if ``value`` is a multiple of ``alignment``."""
    if not is_power_of_two(alignment):
        raise AddressError("alignment must be a power of two, got %r" % (alignment,))
    return (value & (alignment - 1)) == 0


def line_base(addr):
    """Return the base address of the cache line containing ``addr``."""
    return align_down(addr, CACHE_LINE_SIZE)


def line_offset(addr):
    """Return the offset of ``addr`` within its cache line."""
    return addr & (CACHE_LINE_SIZE - 1)


def page_base(addr):
    """Return the base address of the page containing ``addr``."""
    return align_down(addr, PAGE_SIZE)


def split_lines(addr, size):
    """Split the byte range ``[addr, addr+size)`` into per-line chunks.

    Yields ``(line_base_addr, offset_in_line, chunk_len)`` tuples covering
    the range in address order. A range wholly inside one line yields a
    single tuple.

    >>> list(split_lines(60, 8))
    [(0, 60, 4), (64, 0, 4)]
    """
    if size < 0:
        raise AddressError("size must be non-negative, got %d" % size)
    end = addr + size
    cursor = addr
    while cursor < end:
        base = line_base(cursor)
        offset = cursor - base
        chunk = min(end - cursor, CACHE_LINE_SIZE - offset)
        yield (base, offset, chunk)
        cursor += chunk


def split_pages(addr, size):
    """Split ``[addr, addr+size)`` into per-page ``(page_base, off, len)``."""
    if size < 0:
        raise AddressError("size must be non-negative, got %d" % size)
    end = addr + size
    cursor = addr
    while cursor < end:
        base = page_base(cursor)
        offset = cursor - base
        chunk = min(end - cursor, PAGE_SIZE - offset)
        yield (base, offset, chunk)
        cursor += chunk


def lines_covering(addr, size):
    """Return the list of line base addresses touched by ``[addr, addr+size)``."""
    return [base for (base, _off, _len) in split_lines(addr, size)]


def pages_covering(addr, size):
    """Return the list of page base addresses touched by ``[addr, addr+size)``."""
    return [base for (base, _off, _len) in split_pages(addr, size)]
