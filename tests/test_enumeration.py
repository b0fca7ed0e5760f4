from itertools import combinations

import pytest

from stoimenow import (
    EMPTY,
    PatternSet,
    completions,
    count_avoiders,
    count_completions,
    count_stoimenow,
    count_table,
    enumerate_stoimenow,
    fishburn_oracle,
    is_stoimenow,
    make_matching,
    parse_pattern_set,
    partition_prefixes,
    registry,
)

from util import naive_contains, recursive_completions

# A022493 prefix, used as frozen cross-check data next to the two
# independent computations (pruned generation and ascent sequences).
FISHBURN = [1, 1, 2, 5, 15, 53, 217, 1014, 5335, 31240, 201608]


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


def test_counter_matches_generator_from_every_prefix():
    for n in range(8):
        for depth in range(2 * n + 1):
            for s in partition_prefixes(n, depth):
                assert count_completions(s) == len(list(completions(s))), (n, depth, s)


def _pairs(matchings):
    return [tuple((a.opener, a.closer) for a in m.arcs) for m in matchings]


def test_emission_order_matches_recursive_reference():
    prefixes = [s for n in range(8) for s in partition_prefixes(n, 0)]
    prefixes += partition_prefixes(6, 5) + partition_prefixes(7, 9)
    for s in prefixes:
        want = list(recursive_completions(s.n, s.pos, s.open_openers, s.pairs, s.last_closed_opener))
        assert _pairs(completions(s)) == want, s


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


def test_size_guard():
    with pytest.raises(ValueError):
        list(enumerate_stoimenow(15))
    with pytest.raises(ValueError):
        count_stoimenow(15)
    with pytest.raises(ValueError):
        enumerate_stoimenow(-1)


def test_partition_prefixes():
    root = partition_prefixes(3, 0)
    assert len(root) == 1 and root[0].pos == 1
    assert len(partition_prefixes(2, 1)) == 1  # site 1 is always an opener
    states = partition_prefixes(6, 4)
    assert sum(len(list(completions(s))) for s in states) == 217
    with pytest.raises(ValueError):
        partition_prefixes(3, 7)
    with pytest.raises(ValueError):
        partition_prefixes(3, -1)


def test_partition_preserves_order():
    for depth in (1, 3, 6):
        flattened = [
            m for s in partition_prefixes(5, depth) for m in completions(s)
        ]
        assert flattened == list(enumerate_stoimenow(5))


def test_count_avoiders_examples():
    assert count_avoiders(4, parse_pattern_set("P1,P2")) == 13
    assert count_avoiders(5, parse_pattern_set("P4,P5")) == 34
    assert count_avoiders(5, parse_pattern_set("R4")) == 16
    assert count_avoiders(0, parse_pattern_set("P1")) == 1


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
    assert table.to_json_obj() == [
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
