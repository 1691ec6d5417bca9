"""Shared helpers for the test suite."""

import itertools

from twostep.strings import all_strings


def all_triples(a, b, n):
    """All (u, v, w) boundary triples of one content."""
    return itertools.product(all_strings(a, b, n), repeat=3)
