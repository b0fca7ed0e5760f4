import time
from itertools import permutations

import pytest

from stoimenow import (
    UnknownForbiddenPoset,
    avoids_all,
    canonical_form,
    contains,
    cover_relations,
    enumerate_stoimenow,
    make_matching,
    omega,
    parse_pattern_set,
    poset_contains,
    registry,
)
from stoimenow.posets import poset_from_relations, poset_to_json
from stoimenow.verify import omega_suite
from util import arrangements_canonical_form, brute_canonical_form


def chain(n):
    return poset_from_relations(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def antichain(n):
    return poset_from_relations(n, [])


def test_omega_on_crossings_and_noncrossings():
    crossing = make_matching([(1, 4), (2, 5), (3, 6)])
    assert omega(crossing) == antichain(3)
    noncrossing = make_matching([(1, 2), (3, 4), (5, 6)])
    assert omega(noncrossing) == chain(3)


def test_omega_worked_example():
    m2 = make_matching([(1, 2), (3, 5), (4, 6), (7, 8)])
    expected = poset_from_relations(4, [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)])
    assert omega(m2) == expected


def test_poset_validation():
    with pytest.raises(ValueError):
        poset_from_relations(2, [(0, 0)])  # reflexive
    with pytest.raises(ValueError):
        poset_from_relations(2, [(0, 1), (1, 0)])  # not antisymmetric
    with pytest.raises(ValueError):
        poset_from_relations(3, [(0, 1), (1, 2)])  # not transitive


def test_poset_relations_must_name_elements():
    for pair in [(0, 2), (2, 0), (-1, 0), (0, -1)]:
        with pytest.raises(ValueError):
            poset_from_relations(2, [pair])


def test_omega_images_pass_the_relation_checks():
    # omega builds Poset directly, unchecked; every image must survive the
    # checks of poset_from_relations unchanged
    for n in range(8):
        for m in enumerate_stoimenow(n):
            image = omega(m)
            pairs = [(i, j) for i in range(n) for j in range(n) if image.less[i][j]]
            assert poset_from_relations(n, pairs) == image


def test_omega_suite_caps_injectivity_at_n_max():
    outcomes = omega_suite(3, injectivity_n_max=6)
    assert [o.line() for o in outcomes][-1] == "omega-injective: PASS (n <= 3)"
    assert all(o.passed for o in outcomes)


def test_forbidden_poset_detection():
    assert not poset_contains(antichain(4), "2+2")
    assert not poset_contains(chain(4), "3+1")
    n_poset = poset_from_relations(4, [(0, 2), (0, 3), (1, 3)])
    assert poset_contains(n_poset, "N")
    two_plus_two = poset_from_relations(4, [(0, 1), (2, 3)])
    assert poset_contains(two_plus_two, "2+2")
    assert not poset_contains(two_plus_two, "3+1")
    three_plus_one = poset_from_relations(4, [(0, 1), (0, 2), (1, 2)])
    assert poset_contains(three_plus_one, "3+1")
    assert not poset_contains(chain(4), "N")
    assert not poset_contains(chain(3), "2+2")  # fewer than four elements


def test_unknown_forbidden_poset():
    with pytest.raises(UnknownForbiddenPoset):
        poset_contains(chain(4), "M")


def test_cover_relations():
    assert cover_relations(chain(3)) == [(0, 1), (1, 2)]
    assert cover_relations(antichain(3)) == []


def test_canonical_form_is_relabeling_invariant():
    p = poset_from_relations(4, [(0, 2), (0, 3), (1, 3)])
    q = poset_from_relations(4, [(3, 1), (3, 0), (2, 0)])  # same shape, relabeled
    assert canonical_form(p) == canonical_form(q)
    assert canonical_form(p) != canonical_form(chain(4))


def test_poset_json():
    assert (
        poset_to_json(chain(2))
        == '{"size": 2, "covers": [[1, 2]], "less": [[0, 1], [0, 0]]}'
    )


def test_omega_equivalences_small():
    p1, p2 = registry()["P1"], registry()["P2"]
    for n in range(6):
        for m in enumerate_stoimenow(n):
            image = omega(m)
            assert not poset_contains(image, "2+2")
            assert contains(m, p1) == poset_contains(image, "3+1")
            assert contains(m, p2) == poset_contains(image, "N")


def test_omega_injective_small():
    for n in range(6):
        forms = [canonical_form(omega(m)) for m in enumerate_stoimenow(n)]
        assert len(set(forms)) == len(forms)


def labelled_posets(n):
    """Every strict partial order on range(n): each naturally labelled one
    (i < j whenever i is below j), under every relabeling."""
    upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
    natural = []
    for mask in range(1 << len(upper)):
        rel = {pair for k, pair in enumerate(upper) if mask >> k & 1}
        if all((i, l) in rel for i, j in rel for k, l in rel if j == k):
            natural.append(rel)
    seen = set()
    for rel in natural:
        for perm in permutations(range(n)):
            relabeled = frozenset((perm[i], perm[j]) for i, j in rel)
            if relabeled not in seen:
                seen.add(relabeled)
                yield poset_from_relations(n, sorted(relabeled))


def test_labelled_poset_counts():
    assert [sum(1 for _ in labelled_posets(n)) for n in range(6)] == [1, 1, 3, 19, 219, 4231]


def test_canonical_form_classes_match_brute_force():
    # every labelled poset on at most 5 elements and every omega image with
    # n <= 6, mixed: equal forms iff equal brute-force forms
    family = [p for n in range(6) for p in labelled_posets(n)]
    family += [omega(m) for n in range(7) for m in enumerate_stoimenow(n)]
    brute_of = {}
    form_of = {}
    for p in family:
        form, brute = canonical_form(p), brute_canonical_form(p)
        assert brute_of.setdefault(form, brute) == brute
        assert form_of.setdefault(brute, form) == form


def test_twin_classes_take_one_arrangement():
    # arranging a class of twins differently never changes the relation list
    family = [omega(m) for n in range(6) for m in enumerate_stoimenow(n)]
    family += [p for n in range(5) for p in labelled_posets(n)]
    for p in family:
        assert canonical_form(p) == arrangements_canonical_form(p)
    start = time.perf_counter()
    assert canonical_form(antichain(9)) == ()
    assert time.perf_counter() - start < 0.1
