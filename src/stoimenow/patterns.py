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
transitions of one occurrence, one per kind of site.  The avoidance
counter in `enumeration` runs the same two over every prefix at once,
through an `_Occurrences` table: it builds the patterns' endpoint words
and start set, interns each occurrence as an int for one pass, memoises
its transitions, and drops those that cannot complete.  `contains` stays
an unmemoised scan, because within one matching an occurrence seldom
recurs.
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


# A partial occurrence of one pattern: (letters matched, open-arc indices
# of its pattern arcs still open, in opener order).
_Occurrence = tuple[int, tuple[int, ...]]


def _opened(letters: tuple[int, ...], t: int, slots: tuple[int, ...], new: int) -> _Occurrence | None:
    """A partial occurrence (t, slots) extended by an arc that opens as open arc `new`.

    That arc joins the occurrence if letter t is an opener, giving
    (t + 1, slots + (new,)); otherwise None.  The occurrence that skips
    the new arc stays as it is.  The empty occurrence (0, ()) spawns a
    fresh one at every opener.
    """
    return (t + 1, slots + (new,)) if letters[t] < 0 else None


def _closed(letters: tuple[int, ...], t: int, slots: tuple[int, ...], i: int) -> _Occurrence | None:
    """A partial occurrence (t, slots) after open arc i closes, or None if it is dropped.

    An occurrence that uses arc i advances if its next letter closes that
    very pattern arc, and is dropped otherwise; it has completed once the
    returned t reaches len(letters).  An occurrence without i only
    re-indexes its slots.
    """
    if i in slots:
        j = slots.index(i)
        if letters[t] != j:
            return None
        return t + 1, slots[:j] + tuple(x - 1 for x in slots[j + 1 :])
    if slots and slots[-1] > i:
        return t, tuple(x - 1 if x > i else x for x in slots)
    return t, slots


def contains(m: Matching, p: Pattern) -> bool:
    """True iff some subset of m's arcs standardizes to p.

    m's sites are read left to right, holding the set of partial
    occurrences (t, slots) of p's endpoint word, the empty one (0, ())
    included.  An opener feeds each of them to `_opened`, and the closer
    of open arc i (the i-th open arc, by opener) to `_closed`; the scan
    returns True at the first occurrence that completes.  At an opener,
    an occurrence that skips it is dropped if it needs more openers than
    remain; as `_Occurrences.open` shows, that alone keeps every
    occurrence within the letters that remain.  A site costs one step
    per occurrence held, and an occurrence holds at most w open arcs,
    where w is the most arcs p has open at once (2 for every atlas
    pattern), so an n-arc matching costs O(n^(w+1)) steps.
    """
    k = p.size
    if k == 0:
        return True
    if k > m.n:
        return False
    letters, openers_left = _endpoint_word(p.template)
    size = len(letters)
    mate = partners(m)
    to_open = m.n
    open_now: list[int] = []
    occ = {(0, ())}
    for site in range(1, 2 * m.n + 1):
        held = occ
        occ = set()
        if mate[site] > site:
            to_open -= 1
            new = len(open_now)
            open_now.append(site)
            for t, slots in held:
                if openers_left[t] <= to_open:
                    occ.add((t, slots))
                step = _opened(letters, t, slots, new)
                if step is not None:
                    occ.add(step)
        else:
            i = open_now.index(mate[site])
            del open_now[i]
            for t, slots in held:
                step = _closed(letters, t, slots, i)
                if step is not None:
                    if step[0] == size:
                        return True
                    occ.add(step)
    return False


_DROPPED, _COMPLETED = -1, -2


class _Occurrences:
    """The partial occurrences of a set of patterns, interned as small ints.

    The avoidance counter (`enumeration._counts`) makes one table per
    pass; it runs `_opened` and `_closed`, the transitions `contains` runs
    over one matching, over every prefix at once.  An occurrence (pattern
    index, t, slots) gets its id when first met.  `start` holds the empty
    occurrence of each pattern with at most n arcs, or is None when a
    template is empty, since every matching contains the empty pattern.
    `openers_needed[o]` counts the openers occurrence o still needs;
    `closed[o][i]` memoises `_closed` at open arc i and `opened[o][new]`
    `_opened` at open arc `new`, each as an id, `_DROPPED` or (closed
    only) `_COMPLETED`.  The tables live only as long as the pass that
    made them, and hold no reference cycle.
    """

    def __init__(self, patterns: Sequence[Pattern], n: int) -> None:
        self.words = [_endpoint_word(p.template) for p in patterns]
        self.ids: dict[tuple[int, int, tuple[int, ...]], int] = {}
        self.occurrences: list[tuple[int, int, tuple[int, ...]]] = []
        self.openers_needed: list[int] = []
        self.closed: list[dict[int, int]] = []
        self.opened: list[dict[int, int]] = []
        start = [self.intern(i, (0, ())) for i, p in enumerate(patterns) if p.size <= n]
        # an empty template completes at once: every matching contains it
        self.start: frozenset[int] | None = None if _COMPLETED in start else frozenset(start)

    def intern(self, p: int, step: _Occurrence | None) -> int:
        """The id of pattern p's occurrence `step`, `_DROPPED` for None, or `_COMPLETED`."""
        if step is None:
            return _DROPPED
        letters, openers_left = self.words[p]
        t, slots = step
        if t == len(letters):
            return _COMPLETED
        key = (p, t, slots)
        o = self.ids.get(key)
        if o is None:
            o = self.ids[key] = len(self.occurrences)
            self.occurrences.append(key)
            self.openers_needed.append(openers_left[t])
            self.closed.append({})
            self.opened.append({})
        return o

    def _fill(self, table: list[dict[int, int]], transition, o: int, arc: int) -> int:
        """Run `transition` on occurrence o at open arc `arc`, and memoise it in `table`."""
        p, t, slots = self.occurrences[o]
        step = table[o][arc] = self.intern(p, transition(self.words[p][0], t, slots, arc))
        return step

    def close(self, occ: frozenset[int], i: int) -> frozenset[int] | None:
        """The occurrences after open arc i closes, or None once one completes."""
        closed = self.closed
        kept = []
        for o in occ:
            try:
                o = closed[o][i]
            except KeyError:
                o = self._fill(closed, _closed, o, i)
            if o >= 0:
                kept.append(o)
            elif o == _COMPLETED:
                return None
        return frozenset(kept)

    def open(self, occ: frozenset[int], new: int, left_open: int) -> frozenset[int]:
        """The occurrences after an arc opens as open arc `new`, given `left_open` openers to come.

        One that skips the new arc is dropped if it needs more openers than
        remain, and no other prune is needed: an occurrence needs
        2 * openers_needed + len(slots) more letters, and 2 * openers to
        come + open arcs sites remain, so it never needs more letters than
        sites remain; a closer changes neither count.
        """
        opened, openers_needed = self.opened, self.openers_needed
        kept = [o for o in occ if openers_needed[o] <= left_open]
        for o in occ:
            try:
                o = opened[o][new]
            except KeyError:
                o = self._fill(opened, _opened, o, new)
            # an occurrence that fits still fits once it takes the new arc
            if o >= 0:
                kept.append(o)
        return frozenset(kept)


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
