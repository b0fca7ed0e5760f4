import json
import random
import time
import weakref
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from stoimenow import (
    EMPTY,
    Pattern,
    PatternSet,
    catalan_number,
    count_avoiders,
    count_stoimenow,
    count_table,
    enumerate_stoimenow,
    fishburn_oracle,
    gf_coefficients,
    gf_registry,
    is_stoimenow,
    make_matching,
    parse_pattern_set,
    registry,
)
from stoimenow import enumeration
from stoimenow.enumeration import (
    MAX_ARCS,
    MAX_FISHBURN_ARCS,
    MAX_WALK_ARCS,
    _counts,
    _tally,
    avoider_counts,
    fishburn_numbers,
)

from util import all_matchings, naive_contains, recursive_completions

# A022493 prefix, used as frozen cross-check data next to the two
# independent computations (pruned generation and ascent sequences).
FISHBURN = [1, 1, 2, 5, 15, 53, 217, 1014, 5335, 31240, 201608]
# F(64), from the ascent-sequence DP (`fishburn_oracle(64)`).
F64 = 39921188510110481663222349863704777328113003001966505846965727427322450165110


def test_small_listings():
    assert list(enumerate_stoimenow(0)) == [EMPTY]
    assert list(enumerate_stoimenow(1)) == [make_matching([(1, 2)])]
    assert [str(m) for m in enumerate_stoimenow(2)] == ["(1,2)(3,4)", "(1,3)(2,4)"]


def test_enumeration_is_deterministic():
    assert list(enumerate_stoimenow(5)) == list(enumerate_stoimenow(5))


def test_counts_match_ascent_sequence_oracle():
    for n in range(8):
        assert count_stoimenow(n) == fishburn_oracle(n) == FISHBURN[n]


def test_generator_counter_and_oracle_agree():
    for n in range(10):
        assert sum(1 for _ in enumerate_stoimenow(n)) == count_stoimenow(n) == fishburn_oracle(n)


def test_counter_matches_oracle_to_the_size_cap():
    assert [count_stoimenow(n) for n in range(15)] == [fishburn_oracle(n) for n in range(15)]
    assert count_stoimenow(14) == 796713190


def test_zagier_series_matches_ascent_sequences():
    column = fishburn_numbers(MAX_FISHBURN_ARCS)
    assert len(column) == MAX_FISHBURN_ARCS + 1
    for n in [*range(31), 37, 44, 51, 58, 64]:
        assert column[n] == fishburn_oracle(n), n
    assert column[64] == F64
    for n in range(MAX_FISHBURN_ARCS + 1):
        assert fishburn_numbers(n) == column[: n + 1], n


def test_zagier_series_matches_the_counter_to_its_cap():
    # the counter's pattern-free mode is the patterned code with no occurrence
    for n in range(MAX_ARCS + 1):
        assert fishburn_numbers(n) == _counts(n, ()), n


def test_avoider_counts_is_the_column_that_count_avoiders_slices():
    for name in ("", "P1", "P2", "R4", "P1,P3"):
        ps = parse_pattern_set(name)
        column = avoider_counts(9, ps)
        assert len(column) == 10
        assert column == [count_avoiders(n, ps) for n in range(10)], name


def _pairs(matchings):
    return [tuple((a.opener, a.closer) for a in m.arcs) for m in matchings]


def test_emission_order_matches_recursive_reference():
    for n in range(10):
        assert _pairs(enumerate_stoimenow(n)) == list(recursive_completions(n)), n


def test_two_interleaved_walks_each_match_the_recursive_reference():
    # each walk owns its rank and arc lists, and a leaf is a copy of them:
    # a walk one leaf ahead of the other must not change the other's leaves,
    # and no later leaf may change an earlier one
    for n in range(8):
        first, second = enumeration.completions(n), enumeration.completions(n)
        left, right = [next(first)], []
        for a, b in zip(first, second):
            left.append(a)
            right.append(b)
        right.extend(second)
        assert _pairs(left) == _pairs(right) == list(recursive_completions(n)), n


def test_one_walk_shares_one_arc_per_opener_and_closer():
    # `format_arcs` is cheap on `gen` because each shared Arc caches its text
    arcs = [a for m in enumeration.completions(7) for a in m.arcs]
    assert len({id(a) for a in arcs}) == len({(a.opener, a.closer) for a in arcs})


def test_emitted_matchings_are_stoimenow_and_distinct():
    for n in range(7):
        seen = list(enumerate_stoimenow(n))
        assert all(is_stoimenow(m) for m in seen)
        assert all(m.n == n for m in seen)
        assert len(set(seen)) == len(seen)


def test_fishburn_oracle_values():
    assert [fishburn_oracle(n) for n in range(11)] == FISHBURN
    with pytest.raises(ValueError):
        fishburn_oracle(-1)


def test_size_guard(monkeypatch):
    def no_walk(n):
        raise AssertionError(f"walked M_{n}")

    def no_layer(*args):
        raise AssertionError("built the counter's occurrence table")

    # Each refusal comes before the first walk, and pattern-free counts never walk.
    monkeypatch.setattr(enumeration, "completions", no_walk)
    with pytest.raises(ValueError):
        list(enumerate_stoimenow(15))
    with pytest.raises(ValueError):
        count_stoimenow(MAX_FISHBURN_ARCS + 1)
    with pytest.raises(ValueError):
        enumerate_stoimenow(-1)
    p1 = parse_pattern_set("P1")
    with monkeypatch.context() as m:
        # the counter refuses before it builds its table, so before any layer
        m.setattr(enumeration, "_Occurrences", no_layer)
        for refuse in (
            lambda: enumerate_stoimenow(MAX_WALK_ARCS + 1),
            lambda: count_avoiders(MAX_ARCS + 1, p1),
            lambda: count_avoiders(-1, p1),
            lambda: count_table([p1], MAX_WALK_ARCS + 1),
            lambda: count_avoiders(MAX_FISHBURN_ARCS + 1, PatternSet.of()),
            lambda: count_table([PatternSet.of()], MAX_FISHBURN_ARCS + 1),
        ):
            start = time.perf_counter()
            with pytest.raises(ValueError):
                refuse()
            assert time.perf_counter() - start < 0.5
    # Pattern-free counts are not walked; they read Zagier's series up to its cap.
    top = count_table([PatternSet.of()], MAX_FISHBURN_ARCS).rows[0][1]
    assert top[:MAX_ARCS] == tuple(fishburn_oracle(n) for n in range(1, MAX_ARCS + 1))
    assert count_avoiders(MAX_FISHBURN_ARCS, PatternSet.of()) == top[-1] == F64


def test_avoidance_counter_refuses_a_layer_past_the_occurrence_budget(monkeypatch):
    p1 = parse_pattern_set("P1")
    # P1's largest layer at n = 6 holds 40 partial occurrences
    monkeypatch.setattr(enumeration, "MAX_HELD_OCCURRENCES", 40)
    assert count_avoiders(6, p1) == 132
    monkeypatch.setattr(enumeration, "MAX_HELD_OCCURRENCES", 39)
    with pytest.raises(ValueError, match="more than 39 partial occurrences"):
        count_avoiders(6, p1)
    # the budget bounds only layers that hold pattern occurrences
    monkeypatch.setattr(enumeration, "MAX_HELD_OCCURRENCES", 0)
    assert count_avoiders(6, PatternSet.of()) == FISHBURN[6]
    # and pattern-free layers are not even summed, since they hold nothing
    monkeypatch.setattr(enumeration, "MAX_HELD_OCCURRENCES", -1)
    assert _counts(6, ()) == FISHBURN[:7]


def test_occurrence_budget_refuses_twenty_random_templates():
    # twenty random four-arc templates hold far more occurrences per state
    # than any set of atlas patterns; the budget refuses them within seconds
    # at n = 12, one arc past the largest n it counts
    templates = random.Random(5).sample(all_matchings(4), 20)
    ps = PatternSet(frozenset(Pattern(t) for t in templates))
    # the counter without the blocked-chain prune, with the budget lifted,
    # also counts 2,956
    assert count_avoiders(11, ps) == 2956
    with pytest.raises(ValueError, match=f"more than {enumeration.MAX_HELD_OCCURRENCES} partial"):
        count_avoiders(12, ps)


def test_count_avoiders_examples():
    assert count_avoiders(4, parse_pattern_set("P1,P2")) == 13
    assert count_avoiders(5, parse_pattern_set("P4,P5")) == 34
    assert count_avoiders(5, parse_pattern_set("R4")) == 16
    assert count_avoiders(0, parse_pattern_set("P1")) == 1
    # past the walk's cap, within the occurrence budget
    assert count_avoiders(12, parse_pattern_set("P1")) == 208012 == catalan_number(12)


def test_count_avoiders_empty_set_matches_totals():
    for n in range(7):
        assert count_avoiders(n, parse_pattern_set("")) == FISHBURN[n]


def test_count_table_rows():
    table = count_table([parse_pattern_set(""), parse_pattern_set("P3")], 6)
    assert table.rows[0][1] == (1, 2, 5, 15, 53, 217)
    assert table.rows[1][1] == (1, 2, 5, 14, 42, 132)


def test_count_table_csv_and_json():
    table = count_table([parse_pattern_set("P1,P2")], 3)
    assert table.to_csv() == 'patterns,n,count\n"P1,P2",1,1\n"P1,P2",2,2\n"P1,P2",3,5\n'
    assert json.loads(table.to_json()) == [
        {"patterns": "P1,P2", "n_from": 1, "counts": [1, 2, 5]}
    ]


def test_count_table_walks_a_pattern_free_row_beside_patterned_rows():
    rows = [parse_pattern_set(name) for name in ("", "P1", "P1,P3", "R4")]
    table = count_table(rows, 7)
    assert table.rows[0] == (rows[0], tuple(fishburn_oracle(n) for n in range(1, 8)))
    for ps, (row, counts) in zip(rows[1:], table.rows[1:]):
        assert row == ps
        assert counts == tuple(count_avoiders(n, ps) for n in range(1, 8)), ps.name


def test_count_table_bounds():
    with pytest.raises(ValueError):
        count_table([parse_pattern_set("P1")], 0)


def test_avoider_counts_match_naive_filtering():
    atlas = sorted(registry().values(), key=str)
    sets = [PatternSet.of(*c) for k in (1, 2, 3) for c in combinations(atlas, k)]
    table = count_table(sets, 6)
    for n in range(1, 7):
        # one naive verdict per (leaf, atlas pattern), shared by every set
        hits = [{p for p in atlas if naive_contains(m, p)} for m in enumerate_stoimenow(n)]
        for ps, (row, counts) in zip(sets, table.rows):
            expected = sum(1 for h in hits if not h & ps.members)
            assert row == ps
            assert count_avoiders(n, ps) == counts[n - 1] == expected, (ps.name, n)


def test_count_table_rows_sharing_patterns_match_count_avoiders():
    singles = [registry()[f"P{i}"] for i in range(1, 6)]
    power_set = [PatternSet.of(*c) for k in range(6) for c in combinations(singles, k)]
    table = count_table(power_set, 6)
    for ps, (_, counts) in zip(power_set, table.rows):
        assert counts == tuple(count_avoiders(n, ps) for n in range(1, 7)), ps.name


def test_avoidance_counter_matches_the_walk():
    atlas = sorted(registry().values(), key=str)
    sets = [parse_pattern_set(name) for name in gf_registry()] + [PatternSet.of(p) for p in atlas]
    masks = [sum(1 << atlas.index(p) for p in ps.members) for ps in sets]
    walked = [_tally(n, atlas, masks) for n in range(9)]
    for n in range(9):
        for ps, expected in zip(sets, walked[n]):
            assert count_avoiders(n, ps) == expected, (ps.name, n)
    # one pass at n = 8 reads off the count of every smaller n
    for ps, column in zip(sets, zip(*walked)):
        assert _counts(8, sorted(ps.members, key=str)) == list(column), ps.name


def test_avoidance_counter_matches_the_walk_for_every_set_of_atlas_patterns():
    # one walk, one row per non-empty subset; a larger set shares the
    # interned occurrences of its patterns within one pass
    atlas = sorted(registry().values(), key=str)
    masks = list(range(1, 1 << len(atlas)))
    walked = [_tally(n, atlas, masks) for n in range(8)]
    for mask, column in zip(masks, zip(*walked)):
        patterns = [p for bit, p in enumerate(atlas) if mask >> bit & 1]
        assert _counts(7, patterns) == list(column), mask


def test_avoidance_counter_rejects_every_matching_for_the_empty_pattern():
    empty = PatternSet.of(Pattern(EMPTY))
    for n in range(4):
        assert count_avoiders(n, empty) == 0 == _tally(n, [Pattern(EMPTY)], [1])[0]
        # inside one pass too, alone or beside a pattern that has occurrences
        assert _counts(n, [Pattern(EMPTY)]) == [0] * (n + 1)
        assert _counts(n, [registry()["P1"], Pattern(EMPTY)]) == [0] * (n + 1)


def test_occurrence_table_dies_with_its_call(monkeypatch):
    # the table holds no reference cycle, so refcounting frees it at once
    refs = []

    class Recorded(enumeration._Occurrences):
        def __init__(self, *args):
            super().__init__(*args)
            refs.append(weakref.ref(self))

    monkeypatch.setattr(enumeration, "_Occurrences", Recorded)
    assert count_avoiders(8, parse_pattern_set("P1,P3")) == gf_coefficients(gf_registry()["P1,P3"], 8)[8]
    assert refs and all(ref() is None for ref in refs)


# every perfect matching with 1..4 arcs, Stoimenow or not
pattern_templates = st.integers(1, 4).flatmap(lambda k: st.sampled_from(all_matchings(k)))


@settings(deadline=None, max_examples=60)
@given(st.lists(pattern_templates, min_size=1, max_size=4), st.integers(0, 6))
# its last two closers run up the open arcs, which forces them only along a
# blocked chain or once no arc is left to open
@example([make_matching([(1, 5), (2, 4), (3, 6)])], 6)
def test_avoidance_counter_matches_naive_filtering(templates, n):
    ps = PatternSet(frozenset(Pattern(t) for t in templates))
    expected = sum(
        1 for m in enumerate_stoimenow(n) if not any(naive_contains(m, p) for p in ps.members)
    )
    assert count_avoiders(n, ps) == expected


@pytest.mark.parametrize(
    "name, n",
    [
        ("P1,P3", 11),
        ("P1,P2,P4", 11),
        ("P1,P2,P4,P5", 11),
        ("P1,P3,P4,P5", 11),
        ("P1,P2,P3,P4,P5", 11),
        ("R3", 11),
        ("R4", 11),
        ("R5", 11),
        ("R4", 14),
        # refused by the occurrence budget before the blocked-chain prune
        ("P1,P2,P3,P4,P5", 12),
        ("P1,P2,P3,P4,P5", 13),
    ],
)
def test_avoidance_counter_matches_closed_forms_past_the_walk(monkeypatch, name, n):
    def no_walk(n):
        raise AssertionError(f"walked M_{n}")

    monkeypatch.setattr(enumeration, "completions", no_walk)
    expected = gf_coefficients(gf_registry()[name], n)[n]
    assert count_avoiders(n, parse_pattern_set(name)) == expected
