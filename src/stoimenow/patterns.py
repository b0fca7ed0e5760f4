"""Patterns, order-isomorphic containment, and the bundled pattern atlas.

A matching contains a pattern if some subset of its arcs, with endpoints
relabeled by rank, equals the pattern's template.  The atlas ships the
five four-arc Catalan patterns P1..P5 and the three three-arc patterns
R3/R4/R5 (CLI-safe names for the superscripted length-3 patterns).

Containment is one left-to-right scan of the matching's sites that
carries the partial occurrences of the pattern's endpoint word: the
prefix's chosen arcs whose endpoints, in site order, spell the word's
first letters (the method of Bloom and Elizalde, "Pattern avoidance in
matchings and partitions", 2013).  `_opened` and `_closed` are the two
transitions of that scan, one per kind of site; the avoidance counter
in `enumeration` runs the same two over every prefix at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import Iterable, Sequence

from .matching import Arc, Matching, format_arcs, make_matching, parse_arcs, partners, reverse


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


def standardize(arcs: Iterable[Arc]) -> Pattern:
    """Relabel the endpoints of `arcs` by rank onto {1..2k}."""
    ordered = sorted(arcs)
    points = sorted(p for a in ordered for p in (a.opener, a.closer))
    rank = {p: i for i, p in enumerate(points, 1)}
    if len(rank) != len(points):
        raise ValueError("arcs share an endpoint")
    template = Matching(tuple(Arc(rank[a.opener], rank[a.closer]) for a in ordered))
    return Pattern(template, _template_names().get(template))


# A pattern's endpoint word: (letters, openers_left), see `_endpoint_word`.
_Word = tuple[tuple[int, ...], tuple[int, ...]]
_NO_OCCURRENCES = frozenset()


@cache
def _endpoint_word(template: Matching) -> _Word:
    """A pattern's endpoint word, read left to right, as two tables.

    letters[t] is -1 when letter t is an opener; otherwise it is the
    position, among the pattern arcs open before it, of the arc it closes.
    openers_left[t] counts the openers among letters t and later.  Only
    pattern templates come here, so the cache stays small.
    """
    arc_at = {p: a for a in template.arcs for p in (a.opener, a.closer)}
    letters: list[int] = []
    open_now: list[Arc] = []
    for site in range(1, 2 * template.n + 1):
        arc = arc_at[site]
        if arc.opener == site:
            letters.append(-1)
            open_now.append(arc)
        else:
            letters.append(open_now.index(arc))
            open_now.remove(arc)
    openers_left = [letters[t:].count(-1) for t in range(len(letters) + 1)]
    return tuple(letters), tuple(openers_left)


def _opened(occ: frozenset, words: Sequence[_Word], new: int, left_open: int, rest_sites: int) -> frozenset:
    """The partial occurrences after an arc opens as open arc `new`.

    Every occurrence is kept (the new arc is skipped), a copy with t + 1
    and the new arc appended is spawned for each occurrence whose next
    letter is an opener, and a fresh occurrence of every pattern starts
    at the new arc.  An occurrence that needs more openers than the
    `left_open` still to come, or more letters than the `rest_sites`
    sites after this one, is dropped.  Every pattern must have an arc.
    """
    spawned = []
    for p, t, slots in occ:
        letters, openers_left = words[p]
        if openers_left[t] <= left_open and len(letters) - t <= rest_sites:
            spawned.append((p, t, slots))
        if letters[t] < 0:
            spawned.append((p, t + 1, slots + (new,)))
    for p, (letters, openers_left) in enumerate(words):
        if openers_left[1] <= left_open and len(letters) - 1 <= rest_sites:
            spawned.append((p, 1, (new,)))
    return frozenset(spawned) if spawned else _NO_OCCURRENCES


def _closed(occ: frozenset, words: Sequence[_Word], i: int, rest_sites: int) -> frozenset | None:
    """The partial occurrences after open arc i closes, or None once one completes.

    An occurrence that uses arc i advances if its next letter closes that
    very pattern arc, and is dropped otherwise.  An occurrence without i
    only re-indexes its slots, and is dropped if it needs more letters
    than the `rest_sites` sites after this one.
    """
    advanced = []
    for p, t, slots in occ:
        letters = words[p][0]
        if i in slots:
            j = slots.index(i)
            if letters[t] != j:
                continue
            t += 1
            if t == len(letters):
                return None
            slots = slots[:j] + tuple(x - 1 for x in slots[j + 1 :])
        elif len(letters) - t > rest_sites:
            continue
        elif slots and slots[-1] > i:
            slots = tuple(x - 1 if x > i else x for x in slots)
        advanced.append((p, t, slots))
    return frozenset(advanced)


def contains(m: Matching, p: Pattern) -> bool:
    """True iff some subset of m's arcs standardizes to p.

    m's sites are read left to right, holding the set of partial
    occurrences of p's endpoint word.  An opener feeds `_opened`, and the
    closer of open arc i (the i-th open arc, by opener) feeds `_closed`;
    the scan returns True at the first occurrence that completes.  A
    site costs one step per occurrence held, and an occurrence holds at
    most w open arcs, where w is the most arcs p has open at once (2 for
    every atlas pattern), so an n-arc matching costs O(n^(w+1)) steps.
    """
    k = p.size
    if k == 0:
        return True  # `_opened` reads openers_left[1]
    if k > m.n:
        return False
    words = (_endpoint_word(p.template),)
    mate = partners(m)
    n2 = 2 * m.n
    to_open = m.n
    open_now: list[int] = []
    occ = _NO_OCCURRENCES
    for site in range(1, n2 + 1):
        if mate[site] > site:
            to_open -= 1
            occ = _opened(occ, words, len(open_now), to_open, n2 - site)
            open_now.append(site)
        else:
            i = open_now.index(mate[site])
            del open_now[i]
            if occ:
                occ = _closed(occ, words, i, n2 - site)
                if occ is None:
                    return True
    return False


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
