"""Enumerations that more than one test module checks, run once per
test session."""

import functools

from magiclab.search import SearchOptions, enumerate_sr


@functools.lru_cache(maxsize=None)
def nd_enumeration(n):
    """enumerate_sr(n) of the non-degenerate classes: (pairs, report)."""
    return enumerate_sr(n, SearchOptions(require_nondegenerate=True, thread_budget=8))
