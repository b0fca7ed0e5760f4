import random
from dataclasses import fields
from functools import cache
from itertools import combinations, permutations

import pytest

from stoimenow import patterns, verify
from stoimenow import (
    UnknownForbiddenPoset,
    avoids_all,
    contains,
    cover_relations,
    enumerate_stoimenow,
    interval_type,
    make_matching,
    omega,
    parse_pattern_set,
    poset_contains,
    registry,
    standardize,
)
from stoimenow.posets import Poset, poset_from_relations, poset_to_json
from stoimenow.verify import omega_suite
from util import NAIVE_FORBIDDEN_RELATIONS, brute_canonical_form, naive_poset_contains


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
    outcomes = omega_suite(7)
    assert [o.line() for o in outcomes][-1] == "omega-injective: PASS (n <= 7)"
    assert all(o.passed for o in outcomes)


def test_omega_suite_tests_no_matching_for_a_pattern(monkeypatch):
    def no_contains(m, p):
        raise AssertionError(f"contains({m}, {p})")

    monkeypatch.setattr(patterns, "contains", no_contains)
    monkeypatch.setattr(verify, "contains", no_contains)
    assert all(o.passed for o in omega_suite(6))


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


def test_each_named_poset_induces_exactly_itself():
    for name, relations in NAIVE_FORBIDDEN_RELATIONS.items():
        assert poset_from_relations(4, relations).induced_shapes == {name}


def test_unknown_forbidden_poset():
    # refused by name alone: on small posets too, and before any shape set
    # is computed (the refusal computes none)
    for p in (chain(4), chain(3), antichain(0)):
        assert "induced_shapes" not in vars(p)
        with pytest.raises(UnknownForbiddenPoset):
            poset_contains(p, "M")
        assert "induced_shapes" not in vars(p)
    p = chain(4)
    assert not poset_contains(p, "N")
    with pytest.raises(UnknownForbiddenPoset):
        poset_contains(p, "2+1")


def test_cached_shapes_leave_equality_hash_json_and_fields_alone():
    n_poset = poset_from_relations(4, [(0, 2), (0, 3), (1, 3)])
    assert poset_contains(n_poset, "N")
    assert "induced_shapes" in vars(n_poset)
    fresh = Poset(n_poset.size, n_poset.less)
    assert "induced_shapes" not in vars(fresh)
    assert n_poset == fresh and hash(n_poset) == hash(fresh)
    assert poset_to_json(n_poset) == poset_to_json(fresh)
    assert repr(n_poset) == repr(fresh)
    assert [f.name for f in fields(n_poset)] == ["size", "less"]


def test_cover_relations():
    assert cover_relations(chain(3)) == [(0, 1), (1, 2)]
    assert cover_relations(antichain(3)) == []


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


def test_contains_agrees_with_the_omega_shapes_through_n_7():
    # the per-matching comparison that omega_suite replaces by one count per n
    p1, p2 = registry()["P1"], registry()["P2"]
    total = 0
    for n in range(8):
        for m in enumerate_stoimenow(n):
            image = omega(m)
            total += 1
            assert contains(m, p1) == poset_contains(image, "3+1"), m
            assert contains(m, p2) == poset_contains(image, "N"), m
    assert total == 1308


def induced(p, keep):
    return Poset(len(keep), tuple(tuple(p.less[i][j] for j in keep) for i in keep))


def assert_restriction(m, keep):
    sub = standardize(m.arcs[i] for i in keep).template
    assert omega(sub) == induced(omega(m), keep), (m, keep)


def test_omega_of_a_sub_matching_is_the_induced_subposet():
    # the lemma behind omega_suite: an occurrence of a pattern P in m makes
    # omega(m) induce omega(P) on the occurrence's arcs
    for n in range(7):
        for m in enumerate_stoimenow(n):
            for k in range(n + 1):
                for keep in combinations(range(n), k):
                    assert_restriction(m, keep)
    rng = random.Random(28)
    for n in (7, 8):
        for m in rng.sample(list(enumerate_stoimenow(n)), 40):
            for _ in range(20):
                assert_restriction(m, sorted(rng.sample(range(n), rng.randint(0, n))))


def test_omega_of_each_catalan_pattern_induces_its_shape_or_none():
    names = ("P1", "P2", "P3", "P4", "P5")
    shapes = {name: omega(registry()[name].template).induced_shapes for name in names}
    assert shapes == {"P1": {"3+1"}, "P2": {"N"}, "P3": set(), "P4": set(), "P5": set()}


def test_omega_injective_small():
    for n in range(6):
        forms = [brute_canonical_form(omega(m)) for m in enumerate_stoimenow(n)]
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


def isomorphism_class(p):
    # the brute-force form drops isolated elements, so the size goes with it
    return p.size, brute_canonical_form(p)


@cache
def small_posets_with_classes():
    """Every labelled poset on at most 5 elements, with its isomorphism class."""
    return [(p, isomorphism_class(p)) for n in range(6) for p in labelled_posets(n)]


def test_poset_contains_matches_the_orbit_oracle_on_small_posets():
    for p, _ in small_posets_with_classes():
        for name in NAIVE_FORBIDDEN_RELATIONS:
            assert poset_contains(p, name) == naive_poset_contains(p, name), (p, name)


def test_poset_contains_matches_the_orbit_oracle_on_omega_images():
    for n in range(8):
        for m in enumerate_stoimenow(n):
            image = omega(m)
            for name in NAIVE_FORBIDDEN_RELATIONS:
                assert poset_contains(image, name) == naive_poset_contains(image, name), (m, name)


def test_interval_type_is_complete_on_interval_orders():
    # every (2+2)-free labelled poset on at most 5 elements and every omega
    # image with n <= 6, mixed: equal types iff isomorphic
    family = [(p, c) for p, c in small_posets_with_classes() if not poset_contains(p, "2+2")]
    family += [(p, isomorphism_class(p)) for n in range(7) for p in map(omega, enumerate_stoimenow(n))]
    class_of = {}
    type_of = {}
    for p, c in family:
        kind = interval_type(p)
        assert class_of.setdefault(kind, c) == c
        assert type_of.setdefault(c, kind) == kind


def test_interval_type_is_an_invariant_of_every_poset():
    type_of = {}
    for p, c in small_posets_with_classes():
        kind = interval_type(p)
        assert type_of.setdefault(c, kind) == kind


def test_interval_type_is_incomplete_once_2_plus_2_occurs():
    p = poset_from_relations(6, [(0, 4), (0, 5), (1, 3), (2, 3)])
    q = poset_from_relations(6, [(0, 3), (0, 5), (1, 4), (2, 3)])
    shared = ((0, 1), (0, 1), (0, 2), (1, 0), (1, 0), (2, 0))
    assert interval_type(p) == interval_type(q) == shared
    assert brute_canonical_form(p) != brute_canonical_form(q)
    assert poset_contains(p, "2+2") and poset_contains(q, "2+2")
