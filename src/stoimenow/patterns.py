"""Patterns, order-isomorphic containment, and the bundled pattern atlas.

A matching contains a pattern if some subset of its arcs, with endpoints
relabeled by rank, equals the pattern's template.  The atlas ships the
five four-arc Catalan patterns P1..P5 and the three three-arc patterns
R3/R4/R5 (CLI-safe names for the superscripted length-3 patterns).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, lru_cache
from typing import Iterable

from .matching import Arc, Matching, format_arcs, make_matching, parse_arcs, reverse


@dataclass(frozen=True)
class Pattern:
    """A small matching used as an order-isomorphism template."""

    template: Matching
    name: str | None = field(default=None, compare=False)

    @property
    def size(self) -> int:
        return self.template.n

    def __str__(self) -> str:
        return self.name or format_arcs(self.template)


@dataclass(frozen=True)
class PatternSet:
    """An unordered set of patterns to avoid simultaneously."""

    members: frozenset[Pattern]

    @classmethod
    def of(cls, *patterns: Pattern) -> "PatternSet":
        return cls(frozenset(patterns))

    @property
    def name(self) -> str:
        """Canonical spelling: member names sorted and comma-joined."""
        return ",".join(sorted(str(p) for p in self.members))

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)


_ATLAS_ARCS = {
    "P1": [(1, 3), (2, 7), (4, 5), (6, 8)],
    "P2": [(1, 3), (2, 5), (4, 7), (6, 8)],
    "P3": [(1, 2), (3, 5), (4, 6), (7, 8)],
    "P4": [(1, 2), (3, 5), (4, 7), (6, 8)],
    "P5": [(1, 3), (2, 5), (4, 6), (7, 8)],
    "R3": [(1, 3), (2, 5), (4, 6)],
    "R4": [(1, 2), (3, 5), (4, 6)],
    "R5": [(1, 3), (2, 4), (5, 6)],
}


@cache
def registry() -> dict[str, Pattern]:
    """The eight named patterns of the atlas."""
    return {name: Pattern(make_matching(arcs), name) for name, arcs in _ATLAS_ARCS.items()}


@cache
def _template_names() -> dict[Matching, str]:
    return {p.template: name for name, p in registry().items()}


def reverse_pattern(p: Pattern) -> Pattern:
    """Reverse the template; keeps an atlas name when the image is in the atlas."""
    template = reverse(p.template)
    return Pattern(template, _template_names().get(template))


def reverse_pattern_set(s: PatternSet) -> PatternSet:
    return PatternSet(frozenset(reverse_pattern(p) for p in s.members))


def _signature(arcs: tuple[Arc, ...]) -> tuple[tuple[int, int], ...]:
    # Order type of an arc list given in opener order: endpoints replaced by rank.
    points = sorted(p for a in arcs for p in (a.opener, a.closer))
    rank = {p: i + 1 for i, p in enumerate(points)}
    return tuple((rank[a.opener], rank[a.closer]) for a in arcs)


def standardize(arcs: Iterable[Arc]) -> Pattern:
    """Relabel the endpoints of `arcs` by rank onto {1..2k}."""
    ordered = tuple(sorted(arcs))
    points = [p for a in ordered for p in (a.opener, a.closer)]
    if len(set(points)) != len(points):
        raise ValueError("arcs share an endpoint")
    template = Matching(tuple(Arc(o, c) for o, c in _signature(ordered)))
    return Pattern(template, _template_names().get(template))


@lru_cache(maxsize=None)
def _prefix_signatures(template: Matching) -> tuple[tuple[tuple[int, int], ...], ...]:
    return tuple(_signature(template.arcs[: j + 1]) for j in range(template.n))


def contains(m: Matching, p: Pattern) -> bool:
    """True iff some subset of m's arcs standardizes to p.

    Arcs are selected depth-first in opener order; a partial selection is
    abandoned as soon as its order type stops being a prefix of the
    pattern's (the order type of the first j chosen arcs must equal the
    order type of the pattern's first j arcs).
    """
    k = p.size
    if k == 0:
        return True
    if k > m.n:
        return False
    prefixes = _prefix_signatures(p.template)
    arcs = m.arcs
    n = m.n

    def extend(chosen: tuple[Arc, ...], start: int) -> bool:
        j = len(chosen)
        if j == k:
            return True
        for i in range(start, n - (k - j) + 1):
            cand = chosen + (arcs[i],)
            if _signature(cand) == prefixes[j] and extend(cand, i + 1):
                return True
        return False

    return extend((), 0)


def avoids_all(m: Matching, s: PatternSet) -> bool:
    """True iff m contains none of the patterns in s; vacuously true for s = {}."""
    return not any(contains(m, p) for p in s.members)


def _split_top_level(text: str) -> list[str]:
    tokens, depth, cur = [], 0, []
    for ch in text:
        if ch == "," and depth == 0:
            tokens.append("".join(cur))
            cur = []
            continue
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        cur.append(ch)
    tokens.append("".join(cur))
    return tokens


def parse_pattern_set(text: str) -> PatternSet:
    """Parse the CLI grammar: comma-separated atlas names or arc-list literals.

    Example: ``P1,P3`` or ``P2,(1,3)(2,5)(4,6)``.  Custom literals must
    already be valid matchings on {1..2k} (one canonical spelling each); a
    literal equal to an atlas template takes the atlas name, so
    ``(1,3)(2,5)(4,6)`` is R3.
    """
    text = text.strip()
    if not text:
        return PatternSet(frozenset())
    reg = registry()
    members = []
    for token in _split_top_level(text):
        token = token.strip()
        if token in reg:
            members.append(reg[token])
        elif token.startswith("("):
            template = parse_arcs(token)
            members.append(Pattern(template, _template_names().get(template)))
        else:
            raise ValueError(f"unknown pattern {token!r}")
    return PatternSet(frozenset(members))
