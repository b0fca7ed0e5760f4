"""Finite strict partial orders on arc indices and induced-subposet tests.

The arcs-to-poset map orders arc i below arc j exactly when arc i closes
before arc j opens, so the image is an interval order.  The three named
four-element posets screened for are (2+2), (3+1), and N.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
from itertools import chain, combinations, groupby, permutations, product

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


def canonical_form(p: Poset) -> tuple[tuple[int, int], ...]:
    """Isomorphism invariant: the least sorted relation list over a
    restricted set of relabelings.

    Elements are sorted by the isomorphism invariant (down-set size,
    up-set size), largest first, and only labelings that respect this class
    order are tried: the product of the permutations within each class.
    The classes and the allowed labelings are defined the same way for
    every poset, so isomorphic posets get the same form and the form is
    still a complete invariant.  Isolated elements, class (0, 0), take the
    largest labels and never appear in the list, so, as with the least list
    over all n! relabelings, adding them does not change the form.

    When every member of a class has the same down-set and the same
    up-set, permuting them is an automorphism and leaves every relation
    list unchanged, so that class is tried in one arrangement only.  This
    always holds in `omega` images, which are interval orders, so an
    antichain costs one labeling.  Classes of elements with equal set
    sizes but different sets still cost every arrangement: k disjoint
    2-element chains cost (k!)^2 labelings, about 2.3 s at k = 6 on a
    2-core host.  `omega_suite` computes forms only up to
    `verify.OMEGA_INJECTIVITY_N_MAX` = 6 arcs.
    """
    n = p.size
    pairs = [(i, j) for i in range(n) for j in range(n) if p.less[i][j]]
    down = [0] * n
    up = [0] * n
    for i, j in pairs:
        up[i] |= 1 << j
        down[j] |= 1 << i
    invariant = [(d.bit_count(), u.bit_count()) for d, u in zip(down, up)]
    order = sorted(range(n), key=invariant.__getitem__, reverse=True)
    classes = [tuple(block) for _, block in groupby(order, key=invariant.__getitem__)]
    arrangements = [
        [c] if len({(down[e], up[e]) for e in c}) == 1 else permutations(c) for c in classes
    ]
    best = None
    label = [0] * n
    for arrangement in product(*arrangements):
        for position, e in enumerate(chain.from_iterable(arrangement)):
            label[e] = position
        rels = tuple(sorted((label[i], label[j]) for i, j in pairs))
        if best is None or rels < best:
            best = rels
    return best


def poset_to_json(p: Poset) -> str:
    """JSON with 1-based cover relations plus the full 0/1 relation matrix."""
    obj = {
        "size": p.size,
        "covers": [[i + 1, j + 1] for i, j in cover_relations(p)],
        "less": [[1 if v else 0 for v in row] for row in p.less],
    }
    return json.dumps(obj)
