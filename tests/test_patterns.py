from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from stoimenow import patterns
from stoimenow import (
    Arc,
    Pattern,
    PatternSet,
    avoids_all,
    catalan_number,
    contains,
    count_avoiders,
    enumerate_stoimenow,
    make_matching,
    parse_pattern_set,
    registry,
    reverse,
    reverse_pattern,
    reverse_pattern_set,
    standardize,
)
from util import all_matchings, naive_contains, split_top_level

ATLAS_EXPECTED = {
    "P1": [(1, 3), (2, 7), (4, 5), (6, 8)],
    "P2": [(1, 3), (2, 5), (4, 7), (6, 8)],
    "P3": [(1, 2), (3, 5), (4, 6), (7, 8)],
    "P4": [(1, 2), (3, 5), (4, 7), (6, 8)],
    "P5": [(1, 3), (2, 5), (4, 6), (7, 8)],
    "R3": [(1, 3), (2, 5), (4, 6)],
    "R4": [(1, 2), (3, 5), (4, 6)],
    "R5": [(1, 3), (2, 4), (5, 6)],
}


def test_registry_contents():
    reg = registry()
    assert set(reg) == set(ATLAS_EXPECTED)
    for name, arcs in ATLAS_EXPECTED.items():
        assert reg[name].template == make_matching(arcs)
        assert reg[name].name == name


def test_registry_reversal_pairs():
    reg = registry()
    assert reverse_pattern(reg["P4"]) == reg["P5"]
    assert reverse_pattern(reg["R4"]) == reg["R5"]
    assert reverse_pattern(reg["R4"]).name == "R5"
    for self_reverse in ("P1", "P2", "P3", "R3"):
        assert reverse_pattern(reg[self_reverse]) == reg[self_reverse]


def test_standardize_examples():
    assert standardize([Arc(2, 7), Arc(4, 5)]).template == make_matching([(1, 4), (2, 3)])
    assert standardize([Arc(1, 2)]).template == make_matching([(1, 2)])
    assert standardize([Arc(3, 8), Arc(6, 9), Arc(7, 10)]).template == make_matching(
        [(1, 4), (2, 5), (3, 6)]
    )


def test_standardize_rejects_shared_endpoints():
    with pytest.raises(ValueError):
        standardize([Arc(1, 3), Arc(3, 5)])


def test_contains_basics():
    reg = registry()
    p3_as_matching = make_matching(ATLAS_EXPECTED["P3"])
    assert contains(p3_as_matching, reg["P3"])
    five_crossing = make_matching([(i, i + 5) for i in range(1, 6)])
    assert not contains(five_crossing, reg["P3"])
    empty_pattern = Pattern(make_matching([]))
    assert contains(p3_as_matching, empty_pattern)
    assert contains(make_matching([]), empty_pattern)


def test_contains_matches_naive_oracle():
    reg = registry()
    for n in range(8):
        for m in enumerate_stoimenow(n):
            for p in reg.values():
                assert contains(m, p) == naive_contains(m, p)


def test_contains_on_general_matchings_too():
    # the oracle comparison above only sees Stoimenow matchings and atlas
    # templates; here every template of 1-3 arcs, nested ones included
    templates = list(registry().values()) + [Pattern(t) for k in (1, 2, 3) for t in all_matchings(k)]
    for n in range(5):
        for m in all_matchings(n):
            for p in templates:
                assert contains(m, p) == naive_contains(m, p)


def test_contains_commutes_with_reversal():
    reg = registry()
    for n in range(6):
        for m in enumerate_stoimenow(n):
            rev = reverse(m)
            for p in reg.values():
                assert contains(m, p) == contains(rev, reverse_pattern(p))


def test_contains_is_monotone_under_submatchings():
    reg = registry()
    for n in range(2, 6):
        for m in enumerate_stoimenow(n):
            for drop in range(n):
                sub = standardize(a for i, a in enumerate(m.arcs) if i != drop).template
                for p in reg.values():
                    if contains(sub, p):
                        assert contains(m, p)


def test_avoids_all():
    reg = registry()
    four_crossing = make_matching([(1, 5), (2, 6), (3, 7), (4, 8)])
    catalan_five = PatternSet.of(*(reg[f"P{i}"] for i in range(1, 6)))
    assert avoids_all(four_crossing, catalan_five)
    assert avoids_all(four_crossing, PatternSet.of())
    p2_as_matching = make_matching(ATLAS_EXPECTED["P2"])
    assert not avoids_all(p2_as_matching, PatternSet.of(reg["P2"], reg["P4"]))


def test_single_pattern_counts_are_catalan():
    for i in range(1, 6):
        ps = parse_pattern_set(f"P{i}")
        for n in range(7):
            assert count_avoiders(n, ps) == catalan_number(n)


def test_parse_pattern_set():
    ps = parse_pattern_set("P1,P3")
    assert ps.name == "P1,P3"
    assert len(ps) == 2
    custom = parse_pattern_set("P2,(1,4)(2,5)(3,6)")
    assert len(custom) == 2
    assert custom.name == "(1,4)(2,5)(3,6),P2"
    # a literal spelling an atlas template takes the atlas name
    assert parse_pattern_set("P2,(1,3)(2,5)(4,6)").name == "P2,R3"
    assert parse_pattern_set("(1,3)(2,7)(4,5)(6,8),P2").name == "P1,P2"
    assert parse_pattern_set("(1,3)(2,7)(4,5)(6,8),P2") == parse_pattern_set("P1,P2")
    assert parse_pattern_set("P3,P1").name == "P1,P3"
    assert parse_pattern_set("P1,P1").name == "P1"
    assert parse_pattern_set("").name == ""
    assert len(parse_pattern_set("")) == 0


def test_parse_pattern_set_rejects_unknown():
    with pytest.raises(ValueError):
        parse_pattern_set("P9")
    with pytest.raises(ValueError):
        parse_pattern_set("P1,(1,3)(2,5)")


def _parsed(text):
    """parse_pattern_set's set and its canonical name, or "refused"."""
    try:
        ps = parse_pattern_set(text)
    except ValueError:
        return "refused"
    return ps, ps.name


# Single characters of the grammar, plus two whole literals: of the
# strings of up to 7 single characters, about one in 19,000 is accepted.
PATTERN_TEXT_TOKENS = ["P1", "R3", "(", ")", ",", "1", "2", "3", "4", " ", "(1,2)", "(1,3)(2,4)"]


@settings(deadline=None, max_examples=2000)
@example("P2,(1,4)(2,5)(3,6)")
@example("(1,3)(2,7)(4,5)(6,8),P2")
@example("(1,2),(3,4)")
@example("P1,(1,3")
@example("P1,,P2")
@example(" P1 , R3 ")
@given(st.lists(st.sampled_from(PATTERN_TEXT_TOKENS), max_size=7).map("".join))
def test_comma_regex_splits_like_a_depth_scanner(text):
    # the depth scanner keeps an unbalanced "(1,3" whole where the regex
    # splits it, but parse_arcs refuses both halves and the whole alike
    with mock.patch.object(patterns, "_TOP_LEVEL_COMMA", SimpleNamespace(split=split_top_level)):
        expected = _parsed(text)
    assert _parsed(text) == expected


def test_reverse_pattern_set_maps_names():
    assert reverse_pattern_set(parse_pattern_set("P1,P4")).name == "P1,P5"
    assert reverse_pattern_set(parse_pattern_set("P1,P2,P4,P5")).name == "P1,P2,P4,P5"


def test_chain_mask_forces_an_increasing_close_order_along_a_blocked_chain():
    p1 = registry()["P1"]
    letters, _ = patterns._endpoint_word(p1.template)
    assert letters == (-1, -1, 0, -1, 1, -1, 0, 0)
    # one closer left: that arc closes in every completion, so no bit is needed
    assert patterns._chain_mask(letters, 7, (3,)) == 0
    # closers of open arcs 0 then 2 left: bits 1..2 chain arc 0 to arc 2
    assert patterns._chain_mask(letters, 6, (0, 2)) == 0b110
    # a nested close order is never forced
    nested = make_matching([(1, 4), (2, 3)])
    nested_letters, _ = patterns._endpoint_word(nested)
    assert patterns._chain_mask(nested_letters, 2, (0, 1)) == -1

    table = patterns._Occurrences([p1], 4)
    last = table.intern(0, (7, (3,)))
    # forced whatever `blocked` is, by an opener or a closer
    assert table.open(frozenset({last}), 4, 1, 0) is None
    assert table.close(frozenset({last}), 0, 0) is None
    pair = table.intern(0, (6, (0, 2)))
    for blocked in range(16):
        kept = table.open(frozenset({pair}), 4, 1, blocked)
        # a gap at bit 1 or bit 2 breaks the chain; bit 0 is not part of it
        assert (kept is None) == (blocked & 0b110 == 0b110), blocked
    # with no arc left to open only open arc 0 may close, so -1 forces any
    # increasing order, and a nested one still is not forced
    assert table.open(frozenset({pair}), 4, 0, -1) is None
    table = patterns._Occurrences([Pattern(nested)], 2)
    both = table.intern(0, (2, (0, 1)))
    assert table.open(frozenset({both}), 2, 0, -1) == frozenset({both})
