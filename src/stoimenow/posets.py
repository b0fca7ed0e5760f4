"""Finite strict partial orders on arc indices and induced-subposet tests.

The arcs-to-poset map orders arc i below arc j exactly when arc i closes
before arc j opens, so the image is an interval order, that is, a
(2+2)-free poset (Fishburn 1970).  The three named four-element posets
screened for are (2+2), (3+1), and N.  `Poset.induced_shapes` names
those that a poset's 4-subsets induce, reading each subset's 12-bit code
(two bits, "below" and "above", per pair) once per poset against one
table of the named posets' relabelings, and `poset_contains` looks a
name up in it.  `interval_type`, the sorted (down-set size, up-set
size) pairs, tells interval orders apart up to isomorphism, so it is
what `verify.omega_suite` compares to show the map injective.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
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

    @cached_property
    def induced_shapes(self) -> frozenset[str]:
        """The named forbidden posets that some 4-subset induces, found once per Poset.

        One pass over a < b < c < d ORs each subset's code out of two-bit
        pair codes; the distinct codes are then looked up in the table.
        """
        n = self.size
        less = self.less
        pair = [[less[x][y] | less[y][x] << 1 for y in range(n)] for x in range(n)]
        codes = set()
        for a in range(n):
            pa = pair[a]
            for b in range(a + 1, n):
                pb = pair[b]
                ab = pa[b]
                for c in range(b + 1, n):
                    pc = pair[c]
                    abc = ab | pa[c] << 2 | pb[c] << 6
                    for d in range(c + 1, n):
                        codes.add(abc | pa[d] << 4 | pb[d] << 8 | pc[d] << 10)
        return frozenset(_SHAPE_OF_CODE[code] for code in codes if code in _SHAPE_OF_CODE)


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


def _shape_table() -> dict[int, str]:
    # Four elements at sorted positions 0..3 induce a 12-bit code: pair k
    # of combinations(range(4), 2) gives bit 2k when its first element
    # lies below its second, and bit 2k + 1 when it lies above.  Every
    # relabeling of a named poset is one code, and the three names share
    # none (60 codes in all).
    bit = {}
    for k, (x, y) in enumerate(combinations(range(4), 2)):
        bit[x, y] = 1 << 2 * k
        bit[y, x] = 2 << 2 * k
    return {
        sum(bit[perm[i], perm[j]] for i, j in base): name
        for name, base in _FORBIDDEN_RELATIONS.items()
        for perm in permutations(range(4))
    }


_SHAPE_OF_CODE = _shape_table()


def poset_contains(p: Poset, name: str) -> bool:
    """True iff some 4-element subset induces exactly the named poset.

    A lookup in `p.induced_shapes`, so the three names together cost one
    pass over the 4-subsets of p.
    """
    if name not in _FORBIDDEN_RELATIONS:
        raise UnknownForbiddenPoset(f"no forbidden poset named {name!r}")
    return name in p.induced_shapes


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
