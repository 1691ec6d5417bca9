"""Shared helpers for the test suite."""

import itertools
from importlib import resources

from twostep.board import Puzzle
from twostep.strings import all_strings


def all_triples(a, b, n):
    """All (u, v, w) boundary triples of one content."""
    return itertools.product(all_strings(a, b, n), repeat=3)


def rotate_gash(g, k):
    """The directed gash ``g = (d, a, b)`` rotated by ``k`` sixth-turns
    counterclockwise."""
    d, a, b = g
    return ((d + k) % 6, a, b)


def table_text():
    """The packaged piece-table fixture, to copy or corrupt."""
    return resources.files("twostep").joinpath("data/piece_tables.txt").read_text("utf-8")


def demo_puzzle():
    """The unique puzzle with boundary (10, 10, 10): one rhombus."""
    labels = {
        ("A", 0, 0): 0,
        ("B", 0, 0): 1,
        ("A", 0, 1): 1,
        ("B", 0, 1): 1,
        ("H", 0, 1): 1,
        ("A", 1, 1): 0,
        ("B", 1, 1): 0,
        ("H", 1, 1): 0,
    }
    return Puzzle(2, labels, frozenset({(0, 0)}))
