from itertools import product

import pytest

from stoimenow import (
    EMPTY,
    EmptyMatching,
    NotP2Avoiding,
    NotR4Avoiding,
    avoids_all,
    count_avoiders,
    enumerate_stoimenow,
    glue,
    make_matching,
    matching_to_string,
    parse_arcs,
    parse_pattern_set,
    split,
    string_to_matching,
)
from stoimenow.verify import GLUE_EXAMPLE, STRING_EXAMPLES

P2 = parse_pattern_set("P2")
P2P3 = parse_pattern_set("P2,P3")


def p2_avoiders(n):
    return [m for m in enumerate_stoimenow(n) if avoids_all(m, P2)]


def test_glue_worked_example():
    m1, m2, expected = (parse_arcs(t) for t in GLUE_EXAMPLE)
    assert glue(m1, m2) == expected


def test_glue_edge_cases():
    assert glue(EMPTY, EMPTY) == make_matching([(1, 2)])
    # glue(k-crossing, empty) is the (k+1)-crossing; k = 2 gives (1,4)(2,5)(3,6)
    for k in (*range(1, 13), 50, 99):
        crossing = make_matching([(i, i + k) for i in range(1, k + 1)])
        wider = make_matching([(i, i + k + 1) for i in range(1, k + 2)])
        assert glue(crossing, EMPTY) == wider, k


def test_glue_rejects_bad_operands():
    p2_as_matching = make_matching([(1, 3), (2, 5), (4, 7), (6, 8)])
    with pytest.raises(NotP2Avoiding):
        glue(p2_as_matching, EMPTY)
    with pytest.raises(NotP2Avoiding):
        glue(EMPTY, p2_as_matching)
    not_stoimenow = make_matching([(1, 4), (2, 3)])
    with pytest.raises(NotP2Avoiding):
        glue(not_stoimenow, EMPTY)


def test_split_examples():
    m = parse_arcs(GLUE_EXAMPLE[2])
    assert split(m) == (parse_arcs(GLUE_EXAMPLE[0]), parse_arcs(GLUE_EXAMPLE[1]))
    assert split(make_matching([(1, 2)])) == (EMPTY, EMPTY)
    four_crossing = make_matching([(1, 5), (2, 6), (3, 7), (4, 8)])
    assert split(four_crossing) == (make_matching([(1, 4), (2, 5), (3, 6)]), EMPTY)


def test_split_rejections():
    with pytest.raises(EmptyMatching):
        split(EMPTY)
    with pytest.raises(NotP2Avoiding):
        split(make_matching([(1, 3), (2, 5), (4, 7), (6, 8)]))


def test_round_trips():
    avoiders = {n: p2_avoiders(n) for n in range(6)}
    for n1 in range(5):
        for n2 in range(5 - n1):
            for m1, m2 in product(avoiders[n1], avoiders[n2]):
                assert split(glue(m1, m2)) == (m1, m2)
    for n in range(1, 6):
        for m in avoiders[n]:
            assert glue(*split(m)) == m


def test_glue_totality_gives_catalan_recurrence():
    counts = [count_avoiders(n, P2) for n in range(7)]
    for n in range(1, 7):
        assert counts[n] == sum(counts[k - 1] * counts[n - k] for k in range(1, n + 1))


def test_glue_and_split_within_p2_p3_avoiders():
    # Appending a second block can create P3 across block boundaries
    # (glue(EMPTY, R5-as-matching) is the P3 template itself), so closure
    # only holds for the reduction-arc insertion and for splitting.
    for n in range(6):
        for m in enumerate_stoimenow(n):
            if avoids_all(m, P2P3):
                assert avoids_all(glue(m, EMPTY), P2P3)
                if n >= 1:
                    m1, m2 = split(m)
                    assert avoids_all(m1, P2P3) and avoids_all(m2, P2P3)
                    assert glue(m1, m2) == m


def test_string_worked_examples():
    for word, expected in STRING_EXAMPLES.items():
        assert string_to_matching(word) == parse_arcs(expected)
        assert matching_to_string(parse_arcs(expected)) == word


def test_string_edges():
    assert string_to_matching("") == make_matching([(1, 2)])
    assert matching_to_string(make_matching([(1, 2)])) == ""
    for n in range(2, 7):
        crossing = make_matching([(i, i + n) for i in range(1, n + 1)])
        assert matching_to_string(crossing) == "a" * (n - 1)
        assert string_to_matching("a" * (n - 1)) == crossing


def test_string_bijection_small():
    r4 = parse_pattern_set("R4")
    for n in range(1, 7):
        words = ["".join(w) for w in product("ab", repeat=n - 1)]
        images = [string_to_matching(w) for w in words]
        assert len(set(images)) == len(words)
        assert set(images) == {m for m in enumerate_stoimenow(n) if avoids_all(m, r4)}
        assert all(matching_to_string(m) == w for w, m in zip(words, images))


def test_string_rejections():
    with pytest.raises(ValueError):
        string_to_matching("abc")
    with pytest.raises(EmptyMatching):
        matching_to_string(EMPTY)
    with pytest.raises(NotR4Avoiding):
        matching_to_string(make_matching([(1, 2), (3, 5), (4, 6)]))
    with pytest.raises(NotR4Avoiding):
        matching_to_string(make_matching([(1, 4), (2, 3)]))  # not Stoimenow
