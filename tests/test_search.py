"""Tests for puzzle enumeration and structure constants."""

import inspect
import itertools
import random

import pytest

import reference_oracle
import reference_search
from conftest import table_text
from reference_search import restriction_puzzle
from twostep import search
from twostep.aura import check_recursion, check_two_sums
from twostep.labels import LABELS, SIMPLE, PieceTables, tables
from twostep.mutation import down_temporary_table, enumerate_flawed, temporary_table
from twostep.strings import (
    all_strings,
    bruhat_leq,
    content,
    contents_up_to,
    extreme_constant,
    length,
    oracle_constant,
    parse,
)
from twostep.search import (
    enumerate_one_special,
    enumerate_puzzles,
    product_expansion,
    structure_constant,
)


def test_restriction_puzzle_properties():
    for a, b, n in [(1, 2, 3), (1, 2, 4), (2, 3, 4)]:
        for w in all_strings(a, b, n):
            P = restriction_puzzle(w)
            assert P.boundary() == (w, w, w)
            assert P.weight() == extreme_constant(w)
            assert list(enumerate_puzzles(w, w, w)) == [P]


def test_mismatched_content_gives_nothing():
    u, w = parse("012"), parse("122")
    assert list(enumerate_puzzles(u, u, w)) == []
    assert list(enumerate_one_special(u, u, w)) == []


def test_constants_are_homogeneous():
    u, v = parse("0121"), parse("1021")
    for w, c in product_expansion(u, v).items():
        assert c.is_homogeneous()
        assert c.degree() == length(u) + length(v) - length(w)


def test_commutative():
    S = all_strings(1, 2, 3)
    for u, v in itertools.combinations(S, 2):
        for w in S:
            assert structure_constant(u, v, w) == structure_constant(v, u, w)


def test_matches_oracle_small():
    for u, v, w in itertools.product(all_strings(1, 1, 3), repeat=3):
        assert structure_constant(u, v, w) == oracle_constant(u, v, w)


def n5_bruhat_triples():
    """The 23,136 ``n = 5`` triples with ``u <= w`` and ``v <= w``: a
    constant vanishes unless both hold, so these are the ones worth
    sampling."""
    return [
        (u, v, w)
        for a, b, n in contents_up_to(5)
        if n == 5
        for u, v, w in itertools.product(all_strings(a, b, n), repeat=3)
        if bruhat_leq(u, w) and bruhat_leq(v, w)
    ]


def test_matches_oracle_n5_sample():
    nonzero = 0
    for u, v, w in random.Random(7).sample(n5_bruhat_triples(), 200):
        c = structure_constant(u, v, w)
        assert c == oracle_constant(u, v, w), (u, v, w)
        nonzero += bool(c)
    # 94 at the time of writing; a sample of zeros would check little
    assert nonzero >= 60


HEAVY_TRIPLES = [
    ("001211", "210101", "211010"),
    ("202101", "201210", "221010"),
    ("101212", "102112", "112102"),
    ("212022", "202212", "222120"),
    ("121202", "022121", "122210"),
    ("11202", "20121", "21210"),
]


@pytest.mark.parametrize("u, v, w", HEAVY_TRIPLES)
def test_matches_oracle_heavy_triples(u, v, w):
    # the costliest crosscheck triples of the benchmark, each from a cold
    # oracle cache
    oracle_constant.cache_clear()
    u, v, w = parse(u), parse(v), parse(w)
    assert structure_constant(u, v, w) == oracle_constant(u, v, w)


# oracle cache entries after one call from a cold cache; without the
# support test ``u <= w, v <= w`` they were 6,166 / 5,654 / 2,189 /
# 3,064 / 3,716 / 1,817
HEAVY_ORACLE_ENTRIES = [338, 114, 59, 239, 85, 113]


@pytest.mark.parametrize(
    "triple, entries", list(zip(HEAVY_TRIPLES, HEAVY_ORACLE_ENTRIES))
)
def test_oracle_stays_in_bruhat_interval(triple, entries):
    u, v, w = (parse(s) for s in triple)
    oracle_constant.cache_clear()
    c = oracle_constant(u, v, w)
    assert oracle_constant.cache_info().currsize == entries
    assert c == reference_oracle.oracle_constant(u, v, w)


def test_identity_is_unit():
    S = all_strings(1, 2, 3)
    e = parse("012")
    for v in S:
        exp = product_expansion(e, v)
        assert set(exp) == {v}
        assert exp[v].tuple_terms() == {(): 1}


def test_deterministic_order():
    u, v, w = parse("01201"), parse("10102"), parse("10210")
    first = [P.weight() for P in enumerate_puzzles(u, v, w)]
    second = [P.weight() for P in enumerate_puzzles(u, v, w)]
    assert first == second


def test_enumerated_puzzles_have_right_boundary():
    u, v = parse("0121"), parse("0211")
    assert content(u) == content(v)
    for w, _ in product_expansion(u, v).items():
        for P in enumerate_puzzles(u, v, w):
            assert P.boundary() == (u, v, w)
            assert P.validate() == []


# -- the listing walk against the backtracking reference ----------------------


def listed(u, v, w):
    """The plain puzzle keys and the ``(key, cell)`` pairs of the
    one-special listing of ``(u, v, w)``, in order."""
    return (
        [P.key for P in enumerate_puzzles(u, v, w)],
        [(P.key, cell) for P, cell in enumerate_one_special(u, v, w)],
    )


def reference_listed(u, v, w):
    """``listed`` by the backtracking reference."""
    # the reference takes its special pieces as sets: the temporary pieces
    sp_up, sp_down = set(temporary_table()), set(down_temporary_table())
    return (
        [P.key for P in reference_search.enumerate_puzzles(u, v, w)],
        [
            (P.key, cell)
            for P, cell in reference_search.enumerate_one_special(u, v, w, sp_up, sp_down)
        ],
    )


def assert_lists_match_reference(u, v, w):
    assert listed(u, v, w) == reference_listed(u, v, w), (u, v, w)


def memo_holds(t, *keys):
    """Whether the listing memo holds each ``(u, v, w, need)`` of ``keys``
    for the table value ``t``: asking for them all misses none.  Each
    one asked for becomes the most recently used."""
    misses = search._listing.cache_info().misses
    for key in keys:
        search._listing(t, *key)
    return search._listing.cache_info().misses == misses


def test_listing_matches_reference_up_to_4():
    # each triple is listed twice from an emptied memo: the walk, which
    # stores both listings, then the memo's copy
    t = tables()
    triples = [((), (), ())] + [
        triple
        for a, b, n in contents_up_to(4)
        for triple in itertools.product(all_strings(a, b, n), repeat=3)
    ]
    for u, v, w in triples:
        search._listing.cache_clear()
        want = reference_listed(u, v, w)
        assert listed(u, v, w) == want, (u, v, w)
        assert search._listing.cache_info().currsize == 2
        assert memo_holds(t, (u, v, w, False), (u, v, w, True))
        assert listed(u, v, w) == want, (u, v, w)


def test_listing_matches_reference_n5_sample():
    for u, v, w in random.Random(8).sample(n5_bruhat_triples(), 300):
        assert_lists_match_reference(u, v, w)


@pytest.mark.parametrize("u, v, w", HEAVY_TRIPLES)
def test_listing_matches_reference_heavy_triples(u, v, w):
    assert_lists_match_reference(parse(u), parse(v), parse(w))


def test_listings_are_generator_functions():
    # the benchmark's tracer counts yielded puzzles of generator functions only
    assert inspect.isgeneratorfunction(enumerate_puzzles)
    assert inspect.isgeneratorfunction(enumerate_one_special)


def test_listing_rejects_unequal_lengths():
    u, v = parse("012"), parse("0121")
    with pytest.raises(ValueError, match="^boundary strings must have equal length$"):
        list(enumerate_puzzles(u, u, v))
    with pytest.raises(ValueError, match="^boundary strings must have equal length$"):
        list(enumerate_one_special(u, v, u))


def test_one_special_tables_are_kept_apart():
    # the temporary pieces' moves and the ordinary ones live in one table,
    # apart by the key's last bit; listing with one must not leak into
    # the other
    u, v, w = parse("01201"), parse("10102"), parse("10210")
    assert len(list(enumerate_one_special(u, v, w))) == 1
    assert len(list(enumerate_puzzles(u, v, w))) == 2
    cells = {False: set(), True: set()}  # special cells, by the key's last bit
    for key, moves in tables().step_moves.items():
        cells[key[-1]].update(sp for *_, sp in moves)
    assert cells[False] == {None}
    assert {"U", "D"} <= cells[True]


def test_step_moves_have_one_owner(monkeypatch, tmp_path):
    # and the memo of listings is kept apart by table value
    u, v, w = (parse(s) for s in HEAVY_TRIPLES[1])
    keys = [(u, v, w, False), (u, v, w, True)]
    old = tables()
    assert old.step_moves is old.step_moves
    assert_lists_match_reference(u, v, w)
    filled = dict(old.step_moves)
    # both listings filled the table: plain and temporary-piece entries
    assert {key[-1] for key in filled} == {False, True}
    assert memo_holds(old, *keys)
    listed_before = [search._listing(old, *key) for key in keys]

    copy = tmp_path / "tables.txt"
    copy.write_text(table_text())
    monkeypatch.setenv("PUZZLE_TABLE_PATH", str(copy))
    new = tables()
    assert new is not old
    assert new != old  # an identical file, but another value
    assert len(new.step_moves) == 0
    misses = search._listing.cache_info().misses
    assert_lists_match_reference(u, v, w)
    # both listings were walked with the new value's moves, not served
    # from the old value's entries
    assert search._listing.cache_info().misses == misses + 2
    assert {key[-1] for key in new.step_moves} == {False, True}
    assert memo_holds(new, *keys)
    assert new.step_moves is not old.step_moves
    # the old value's tables saw none of the second listing
    assert old.step_moves == filled
    assert memo_holds(old, *keys)
    assert all(search._listing(old, *key) is L for key, L in zip(keys, listed_before))


def test_row_items_pack_into_one_byte():
    # every item that a move can place, over every key, is one byte of a
    # packed product state: an up-triangle's bottom label below 8, a
    # rhombus's top half as 8 + 8p + q, which decodes to a rhombus of the
    # table whose p the move places on B(x, y), so distinct pieces get
    # distinct bytes; a fresh table value keeps the shared step moves as
    # they are
    t = tables()
    moves = PieceTables(t.triangles, t.rhombi).step_moves
    overs = [None, *LABELS, *(8 + 8 * p + q for p in LABELS for q in LABELS)]
    labels, rhombi = set(), set()
    for key in itertools.product(LABELS, overs, (None, *LABELS), (None, LABELS), (False, True)):
        for right, item, _, _ in moves[key]:
            assert 0 <= item < 256
            if item < 8:
                labels.add(item)
            else:
                p, q = (item - 8) >> 3, item & 7
                assert (p, q) in t.rhombi and right == p
                rhombi.add(item)
    assert labels == {h for *_, h in t.up_list} | {h for *_, h in t.temporaries}
    assert sorted(((i - 8) >> 3, i & 7) for i in rhombi) == sorted(t.rhombi)


def test_move_keys_cannot_collide(monkeypatch, tmp_path):
    # True == 1 and False == 0 as dict keys, so a bool and a label in one
    # key position would make two keys one entry; every key that a
    # product pass, a listing and a one-special listing leave in a fresh
    # table value keeps each position to one kind
    copy = tmp_path / "tables.txt"
    copy.write_text(table_text())
    monkeypatch.setenv("PUZZLE_TABLE_PATH", str(copy))
    u, v, w = (parse(s) for s in HEAVY_TRIPLES[1])
    assert product_expansion(u, v)
    assert list(enumerate_puzzles(u, v, w))
    assert list(enumerate_one_special(u, v, w))
    keys = list(tables().step_moves)
    for carry, over, preset, bottom, special in keys:
        assert type(carry) is int and carry in LABELS
        assert over is None or type(over) is int and 0 <= over < 256
        assert preset is None or type(preset) is int and preset in LABELS
        assert bottom is None or type(bottom) is tuple
        assert all(type(label) is int and label in LABELS for label in bottom or ())
        assert type(special) is bool
    assert {key[3] for key in keys} == {None, SIMPLE, *((label,) for label in w)}
    assert {key[4] for key in keys} == {False, True}


def test_empty_boundary():
    [P] = list(enumerate_puzzles((), (), ()))
    assert P.n == 0 and P.boundary() == ((), (), ())
    assert list(enumerate_one_special((), (), ())) == []


# -- the memo of complete listings ---------------------------------------------


def test_listings_keep_the_most_recent():
    capacity = search._listing.cache_info().maxsize
    assert capacity == 64
    triples = list(itertools.product(all_strings(1, 2, 4), repeat=3))[: 2 * capacity]
    t = tables()
    search._listing.cache_clear()
    for u, v, w in triples:
        list(enumerate_puzzles(u, v, w))
    assert search._listing.cache_info().currsize == capacity
    # the last listed are kept; asked for in the order they were listed,
    # they keep that order
    assert memo_holds(t, *[(*triple, False) for triple in triples[capacity:]])
    # a hit makes its key the most recent, so the next miss drops another
    list(enumerate_puzzles(*triples[capacity]))
    list(enumerate_puzzles(*triples[0]))
    assert search._listing.cache_info().currsize == capacity
    assert memo_holds(t, (*triples[capacity], False), (*triples[0], False))
    assert not memo_holds(t, (*triples[capacity + 1], False))


def test_listing_stores_only_when_complete(monkeypatch):
    u, v, w = (parse(s) for s in HEAVY_TRIPLES[1])
    search._listing.cache_clear()
    # abandoned after the first puzzle: the walk finished before the
    # first puzzle was handed out, so the stored listings are complete
    for listing in (enumerate_puzzles(u, v, w), enumerate_one_special(u, v, w)):
        next(listing)
        listing.close()
    assert search._listing.cache_info().currsize == 2
    assert memo_holds(tables(), (u, v, w, False), (u, v, w, True))
    assert listed(u, v, w) == reference_listed(u, v, w)
    search._listing.cache_clear()

    # a walk that fails part-way
    build = search._build
    built = []

    def fail_third(*args):
        built.append(1)
        if len(built) == 3:
            raise RuntimeError("third build")
        return build(*args)

    monkeypatch.setattr(search, "_build", fail_third)
    with pytest.raises(RuntimeError, match="^third build$"):
        list(enumerate_puzzles(u, v, w))
    assert search._listing.cache_info().currsize == 0


def test_listed_puzzles_are_read_only():
    u, v, w = (parse(s) for s in HEAVY_TRIPLES[1])
    [P, *_] = enumerate_puzzles(u, v, w)
    [Q, *_] = enumerate_puzzles(u, v, w)
    assert P is Q  # the memo's puzzle, shared
    e = next(iter(P.labels))
    writes = [
        lambda L: L.__setitem__(e, 0),
        lambda L: L.__delitem__(e),
        lambda L: L.__ior__({e: 0}),
        lambda L: L.clear(),
        lambda L: L.pop(e),
        lambda L: L.popitem(),
        lambda L: L.setdefault(("H", 99, 99), 0),
        lambda L: L.update({e: 0}),
    ]
    labels = P.labels.copy()
    for write in writes:
        with pytest.raises((TypeError, AttributeError)):
            write(P.labels)
    assert P.labels == labels
    # a copy is an ordinary dict, and editing it leaves the puzzle alone
    copy = P.labels.copy()
    copy[e] += 1
    assert type(copy) is dict
    assert P.labels == labels != copy


def test_sweep_triple_walks_each_boundary_once(monkeypatch):
    # the listings of one triple of the mutation and aura sweeps, in the
    # benchmark's order (``perfbench/ops.py:sweep_triple``): the flaws are
    # puzzles of the neighbouring boundaries, and the recursion reads the
    # neighbours' constants; without the memo each walk ran four times
    u, v, w = parse("2102"), parse("0221"), parse("2120")
    walks = []
    walk = search._walk
    monkeypatch.setattr(search, "_walk", lambda *args: walks.append(args[:4]) or walk(*args))
    search._listing.cache_clear()
    flawed = list(enumerate_flawed(u, v, w))
    puzzles = list(enumerate_puzzles(u, v, w))
    assert check_two_sums(u, v, w)["pass"] and check_recursion(u, v, w)["pass"]
    assert list(enumerate_flawed(u, v, w)) == flawed
    assert (len(puzzles), len(flawed)) == (3, 20)
    assert len(walks) == len(set(walks)) == 9


# -- product_expansion (row transfer) against the enumerator -------------------


def enumerated_expansion(u, v):
    """``product_expansion`` by one backtracking enumeration per ``w``: the
    reference."""
    return {
        w: c
        for w in all_strings(*content(u))
        if (c := reference_search.structure_constant(u, v, w))
    }


def assert_matches_enumerator(u, v):
    got, want = product_expansion(u, v), enumerated_expansion(u, v)
    assert got == want, (u, v)
    assert list(got) == list(want), (u, v)


def test_expansion_matches_enumerator_up_to_4():
    for a, b, n in contents_up_to(4):
        for u, v in itertools.product(all_strings(a, b, n), repeat=2):
            assert_matches_enumerator(u, v)


def test_expansion_matches_enumerator_n5_sample():
    rng = random.Random(5)
    pairs = [
        (u, v)
        for a, b, n in contents_up_to(5)
        if n == 5
        for u, v in itertools.product(all_strings(a, b, n), repeat=2)
    ]
    for u, v in rng.sample(pairs, 150):
        assert_matches_enumerator(u, v)


@pytest.mark.parametrize(
    "u, v",
    [
        ("012110", "010121"),
        ("120002", "002021"),
        ("200012", "120020"),
        ("0222121", "2201212"),
        ("0102212", "0120122"),
    ],
)
def test_expansion_matches_enumerator_n6_n7(u, v):
    assert_matches_enumerator(parse(u), parse(v))


def test_expansion_rejects_unequal_lengths():
    with pytest.raises(ValueError, match="^boundary strings must have equal length$"):
        product_expansion(parse("012"), parse("0121"))


def test_expansion_of_mismatched_contents_is_empty():
    assert product_expansion(parse("012"), parse("122")) == {}


def test_expansion_keys_in_all_strings_order():
    u, v = parse("1201020"), parse("0021120")
    exp = product_expansion(u, v)
    assert len(exp) == 19
    assert list(exp) == [w for w in all_strings(*content(u)) if w in exp]


def test_expansion_of_empty_strings():
    # the pass starts on the one state of the empty board, which is live
    assert product_expansion((), ()) == {(): 1}


def test_expansion_n1():
    assert product_expansion((0,), (0,)) == {(0,): 1}


# -- product_expansion against the dense pass over every state -----------------


def dense_expansion(u, v):
    """``product_expansion`` by the dense row-transfer pass, which carries
    every partial state to the last row: the reference."""
    bottom = reference_search.bottom_rows(u, v)
    return {w: c for w in all_strings(*content(u)) if (c := bottom.get(w))}


def assert_matches_dense(u, v):
    got, want = product_expansion(u, v), dense_expansion(u, v)
    assert got == want, (u, v)
    assert list(got) == list(want), (u, v)


def test_expansion_matches_dense_pass_up_to_5():
    # every content, the Grassmannian and trivial ones included
    for n in range(1, 6):
        for b in range(n + 1):
            for a in range(b + 1):
                for u, v in itertools.product(all_strings(a, b, n), repeat=2):
                    assert_matches_dense(u, v)


def test_expansion_matches_dense_pass_n6_to_8_sample():
    rng = random.Random(8)
    for n, pairs in ((6, 40), (7, 12), (8, 4)):
        contents = [c for c in contents_up_to(n) if c[2] == n]
        for _ in range(pairs):
            strings = all_strings(*rng.choice(contents))
            assert_matches_dense(rng.choice(strings), rng.choice(strings))
