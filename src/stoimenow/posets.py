"""Finite strict partial orders on arc indices and induced-subposet tests.

The arcs-to-poset map orders arc i below arc j exactly when arc i closes
before arc j opens, so the image is an interval order, that is, a
(2+2)-free poset (Fishburn 1970).  The three named four-element posets
screened for are (2+2), (3+1), and N.  `interval_type`, the sorted
(down-set size, up-set size) pairs, tells interval orders apart up to
isomorphism, so it is what `verify.omega_suite` compares to show the map
injective.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
from itertools import combinations, permutations

from .matching import Matching


class UnknownForbiddenPoset(ValueError):
    """The named forbidden poset is not one of 2+2, 3+1, N."""


@dataclass(frozen=True)
class Poset:
    """Strictly-less relation as an n-by-n boolean matrix.

    A directly built `Poset` is trusted to be a strict partial order, as a
    directly built `Matching` is trusted to be a perfect matching; `omega`
    builds one by construction.  Relations from outside go through
    `poset_from_relations`, which checks them.
    """

    size: int
    less: tuple[tuple[bool, ...], ...]


def poset_from_relations(size: int, relations: list[tuple[int, int]]) -> Poset:
    """Build a poset from 0-based (smaller, larger) pairs.

    Raises ValueError unless the pairs, as given, already form a strict
    partial order on range(size): irreflexive, antisymmetric, transitive.
    """
    rel = [[False] * size for _ in range(size)]
    for i, j in relations:
        if not (0 <= i < size and 0 <= j < size):
            raise ValueError(f"relation {(i, j)} is outside 0..{size - 1}")
        rel[i][j] = True
    for i in range(size):
        if rel[i][i]:
            raise ValueError("relation must be irreflexive")
        for j in range(size):
            if rel[i][j] and rel[j][i]:
                raise ValueError("relation must be antisymmetric")
            if rel[i][j] and any(rel[j][k] and not rel[i][k] for k in range(size)):
                raise ValueError("relation must be transitive")
    return Poset(size, tuple(tuple(row) for row in rel))


def omega(m: Matching) -> Poset:
    """One element per arc; arc i lies below arc j iff closer(i) < opener(j)."""
    arcs = m.arcs
    n = m.n
    rel = tuple(
        tuple(arcs[i].closer < arcs[j].opener for j in range(n)) for i in range(n)
    )
    return Poset(n, rel)


_FORBIDDEN_RELATIONS = {
    "2+2": [(0, 1), (2, 3)],
    "3+1": [(0, 1), (0, 2), (1, 2)],
    "N": [(0, 2), (0, 3), (1, 3)],
}


@cache
def _forbidden_orbit(name: str) -> frozenset[frozenset[tuple[int, int]]]:
    # All relabelings of the named 4-element poset, as relation-pair sets.
    if name not in _FORBIDDEN_RELATIONS:
        raise UnknownForbiddenPoset(f"no forbidden poset named {name!r}")
    base = _FORBIDDEN_RELATIONS[name]
    orbit = set()
    for perm in permutations(range(4)):
        orbit.add(frozenset((perm[i], perm[j]) for i, j in base))
    return frozenset(orbit)


def poset_contains(p: Poset, name: str) -> bool:
    """True iff some 4-element subset induces exactly the named poset."""
    orbit = _forbidden_orbit(name)
    for subset in combinations(range(p.size), 4):
        rels = frozenset(
            (a, b)
            for a in range(4)
            for b in range(4)
            if p.less[subset[a]][subset[b]]
        )
        if rels in orbit:
            return True
    return False


def cover_relations(p: Poset) -> list[tuple[int, int]]:
    """Pairs (i, j) with i < j and no element strictly between."""
    covers = []
    for i in range(p.size):
        for j in range(p.size):
            if p.less[i][j] and not any(
                p.less[i][k] and p.less[k][j] for k in range(p.size)
            ):
                covers.append((i, j))
    return covers


def interval_type(p: Poset) -> tuple[tuple[int, int], ...]:
    """The sorted (down-set size, up-set size) pairs of p's elements.

    Relabeling permutes the pairs, so the type is an isomorphism
    invariant of every poset.  On an interval order it is also complete.
    Write D(x), U(x) for the sets below and above x, and d(x), u(x) for
    their sizes.  If a lies in D(x) - D(y) and b in D(y) - D(x), then
    a < x and b < y induce a 2+2, so the down-sets of an interval order
    are nested; dually so are its up-sets, and u(z) >= u(x) iff U(z)
    contains U(x).  Hence x < y iff #{z : u(z) >= u(x)} <= d(y): if x
    lies in D(y), so does every z with U(z) containing U(x); if not,
    every z in D(y) has y in U(z) - U(x), so u(z) > u(x), and D(y) misses
    x.  The relation is thus read off the pairs alone, and two interval
    orders with one type are isomorphic.  Posets that contain 2+2 can
    share a type without being isomorphic.
    """
    down = [sum(column) for column in zip(*p.less)]
    up = [sum(row) for row in p.less]
    return tuple(sorted(zip(down, up)))


def poset_to_json(p: Poset) -> str:
    """JSON with 1-based cover relations plus the full 0/1 relation matrix."""
    obj = {
        "size": p.size,
        "covers": [[i + 1, j + 1] for i, j in cover_relations(p)],
        "less": [[1 if v else 0 for v in row] for row in p.less],
    }
    return json.dumps(obj)
