import pytest
from hypothesis import given, settings, strategies as st

from stoimenow import (
    EMPTY,
    Arc,
    InvertedArc,
    Matching,
    NoSuchArc,
    NotPerfectMatching,
    enumerate_stoimenow,
    format_arcs,
    irreducible_blocks,
    is_stoimenow,
    make_matching,
    parse_arcs,
    reduction_arc,
    reverse,
)
from util import all_matchings, naive_is_stoimenow

M1 = make_matching([(1, 4), (2, 5), (3, 8), (6, 9), (7, 10)])
M2 = make_matching([(1, 2), (3, 5), (4, 6), (7, 8)])


@st.composite
def matchings(draw, max_n=6):
    n = draw(st.integers(0, max_n))
    perm = draw(st.permutations(range(1, 2 * n + 1)))
    pairs = [tuple(sorted((perm[2 * i], perm[2 * i + 1]))) for i in range(n)]
    return make_matching(pairs)


def test_make_matching_canonicalizes():
    m = make_matching([(6, 9), (1, 4), (7, 10), (2, 5), (3, 8)])
    assert m == M1
    assert m.n == 5
    assert m.arcs[0] == Arc(1, 4)


def test_make_matching_smallest():
    assert make_matching([(1, 2)]).n == 1
    assert make_matching([]) == EMPTY


def test_make_matching_rejects_reused_endpoint():
    with pytest.raises(NotPerfectMatching):
        make_matching([(1, 3), (2, 3)])


def test_make_matching_rejects_inverted_arc():
    with pytest.raises(InvertedArc):
        make_matching([(4, 1), (2, 3)])


def test_make_matching_rejects_gaps():
    with pytest.raises(NotPerfectMatching):
        make_matching([(1, 5), (2, 3)])


@pytest.mark.parametrize(
    "pairs", [[(1.9, 2.2)], [(1.0, 2)], [("1", "2")], [(True, 2)], [(1, 2), (3, 4.0)]]
)
def test_make_matching_refuses_non_int_endpoints(pairs):
    with pytest.raises(TypeError):
        make_matching(pairs)


def test_arc_list_format_round_trip():
    text = "(1,4)(2,5)(3,8)(6,9)(7,10)"
    assert format_arcs(M1) == text
    assert parse_arcs(text) == M1
    assert parse_arcs("") == EMPTY
    assert parse_arcs("∅") == EMPTY
    assert format_arcs(EMPTY) == ""


@pytest.mark.parametrize("bad", ["(1,4", "(1,4)x(2,3)", "1,4", "(1,4) (2,3)"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_arcs(bad)


def test_is_stoimenow_examples():
    assert is_stoimenow(M2)
    assert not is_stoimenow(make_matching([(1, 4), (2, 3)]))
    assert is_stoimenow(make_matching([(1, 3), (2, 4)]))
    assert is_stoimenow(EMPTY)


def test_is_stoimenow_matches_naive_oracle_up_to_n4():
    for n in range(5):
        for m in all_matchings(n):
            assert is_stoimenow(m) == naive_is_stoimenow(m)


def test_reverse_swaps_the_two_mirror_patterns():
    p4 = make_matching([(1, 2), (3, 5), (4, 7), (6, 8)])
    p5 = make_matching([(1, 3), (2, 5), (4, 6), (7, 8)])
    assert reverse(p4) == p5
    assert reverse(p5) == p4
    assert reverse(make_matching([(1, 2)])) == make_matching([(1, 2)])


@settings(deadline=None)
@given(matchings())
def test_reverse_is_an_involution(m):
    assert reverse(reverse(m)) == m


@settings(deadline=None)
@given(matchings())
def test_reverse_preserves_stoimenow(m):
    assert is_stoimenow(m) == is_stoimenow(reverse(m))


def test_reverse_preserves_stoimenow_exhaustive():
    for n in range(5):
        for m in all_matchings(n):
            assert is_stoimenow(m) == is_stoimenow(reverse(m))


def test_irreducible_blocks_examples():
    assert [(str(b), off) for b, off in irreducible_blocks(M2)] == [
        ("(1,2)", 1),
        ("(1,3)(2,4)", 3),
        ("(1,2)", 7),
    ]
    assert len(irreducible_blocks(M1)) == 1
    assert len(irreducible_blocks(make_matching([(1, 2)]))) == 1
    assert irreducible_blocks(EMPTY) == ()


def test_blocks_reassemble_to_parent():
    general = [m for n in range(4) for m in all_matchings(n)]
    for m in general + [m for n in range(6) for m in enumerate_stoimenow(n)]:
        blocks = irreducible_blocks(m)
        arcs = [Arc(a.opener + off - 1, a.closer + off - 1) for block, off in blocks for a in block.arcs]
        assert Matching(tuple(sorted(arcs))) == m


def test_reduction_arc_examples():
    assert reduction_arc(M1) == Arc(3, 8)
    assert reduction_arc(M2) == Arc(7, 8)
    assert reduction_arc(make_matching([(1, 2)])) == Arc(1, 2)
    with pytest.raises(NoSuchArc):
        reduction_arc(EMPTY)


def test_reduction_arc_closer_follows_last_opener():
    for n in range(1, 5):
        for m in all_matchings(n):
            last_opener = max(a.opener for a in m.arcs)
            assert reduction_arc(m).closer == last_opener + 1
