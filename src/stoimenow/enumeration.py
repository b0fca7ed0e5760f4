"""Exhaustive generation and counting of Stoimenow matchings with online pruning.

Sites 1..2n are filled left to right; each site either opens a new arc or
closes one of the open arcs.  Both forbidden configurations are rejected
at the earliest possible site:

* closing the arc opened at o is illegal while the arc opened at o-1 is
  still open (the pair would nest with adjacent openers), and
* when the previous site was a closer, the next closer must belong to an
  arc with a strictly larger opener (else the pair nests with adjacent
  closers).

Emission order is deterministic: at each site, closers are tried in
increasing order of their arc's opener, then the opener branch.

Generation and counting both start at site 1 with no arc open; every
walk covers all of M_n.

`completions` is one iterative depth-first search.  Its explicit stack
holds (site, open openers, opener closed at site-1, every opener on the
path), and a partner array records the closer of each closed arc, so a
leaf is n lookups.  Once the last opener is placed, the closing tail is
forced: two consecutive closers must close arcs in increasing opener
order (else they nest with adjacent closers), so the open arcs close in
that order, and Type 1 cannot fire because every arc opened before the
smallest one still open is closed.  The search writes that tail in one
step: at n = 9 it pops 69,122 nodes for 31,240 leaves, where one node
per closer would pop 239,490.

Two counters never visit the leaves.  The number of ways to finish a
partial matching depends only on a compressed state (a generating-tree,
or transfer-matrix, count): the sites left, the arcs still to open, one
bit per open arc telling whether site o-1 opened an arc that is still
open, the index of the first open arc the last closer allows, and
whether the previous site was an opener.  `count_stoimenow` memoises
over that state, and the count of M_14 takes 8,823 states.
`count_avoiders` adds to it the set of partial pattern occurrences the
prefix holds (the method of Bloom and Elizalde, "Pattern avoidance in
matchings and partitions", 2013) and counts avoiders layer by layer.
`count_table` takes pattern-free rows from one compressed-counter memo
shared by every n, and with a pattern still walks every matching and
tests it with `contains`.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

from .matching import Arc, Matching
from .patterns import Pattern, PatternSet, contains

# Cap of the compressed counter, which visits no matching.
MAX_ARCS = 14
# Cap of the avoidance counter: its worst atlas set, P1..P5, takes 8-10 s
# and 200 MiB at n = 11 on a 2-core host, about four times n = 10.
MAX_AVOID_ARCS = 11
# Cap of the states the avoidance counter holds at one site.  Every one of
# the 255 sets of atlas patterns stays under it at n = 11; the largest,
# P1,P2,P4, holds 21,397 states (about 9 s, 185 MiB).  It bounds states,
# not their occurrence sets: a custom set whose states hold more partial
# occurrences can run about 12 s before a layer passes it.
MAX_AVOID_STATES = 22_000
# Anything that visits every matching (generation, and `count_table` with
# a pattern) refuses larger n: M_11 already holds 1,420,053 matchings, and
# M_12 is 7.6 times as many.
MAX_WALK_ARCS = 11


def completions(n: int) -> Iterator[Matching]:
    """All Stoimenow matchings with n arcs, in the canonical order; n is not range-checked.

    A stack entry is (site, open openers, opener closed at site-1, every
    opener on the path); `partner[o]` holds the closer of each closed arc
    o.  Once only closers remain, Type 2 forces them to close the open
    arcs in increasing opener order, so that tail is written in one step
    and the leaf is read off the path's openers.
    """
    n2 = 2 * n
    # one Arc per (opener, closer), shared by every leaf that uses it
    arc = [[Arc(o, c) if o < c else None for c in range(n2 + 1)] for o in range(n2 + 1)]
    partner = [0] * (n2 + 1)
    stack = [(1, (), 0, ())]
    while stack:
        site, opens, last, openers = stack.pop()
        if last:
            partner[last] = site - 1
        if site + len(opens) > n2:
            # reached only through an opener branch, so no closer precedes the tail
            for closer, o in enumerate(opens, site):
                partner[o] = closer
            yield Matching(tuple([arc[o][partner[o]] for o in openers]))
            continue
        # pushed in reverse, so popped in the canonical order; an opener
        # always fits, since site + len(opens) is odd and so below 2n here
        stack.append((site + 1, opens + (site,), 0, openers + (site,)))
        for idx in range(len(opens) - 1, -1, -1):
            o = opens[idx]
            if o < last:
                break
            if idx and opens[idx - 1] == o - 1:
                continue
            stack.append((site + 1, opens[:idx] + opens[idx + 1 :], o, openers))


_WALK = "a walk over every matching"


def _check_size(n: int, cap: int, method: str) -> None:
    """Refuse a negative n, or an n past the cap of the method that pays for it."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > cap:
        raise ValueError(f"n={n}: n must be at most {cap} for {method}")


def enumerate_stoimenow(n: int) -> Iterator[Matching]:
    """Every Stoimenow matching with n arcs, exactly once, in deterministic order."""
    _check_size(n, MAX_WALK_ARCS, _WALK)
    return completions(n)


def count_stoimenow(n: int) -> int:
    """|M_n| without materializing matchings."""
    _check_size(n, MAX_ARCS, "the counter")
    return _stoimenow_counts([n])[0]


def _stoimenow_counts(sizes: Sequence[int]) -> list[int]:
    """|M_n| for each n in `sizes`, all from one memo that lives for this call.

    `blocked` has bit i set when open arc i (by opener) cannot close yet,
    because the arc opened at the site before it is still open; the open
    arcs number `sites_left - 2 * to_open`.  No part of the state names n,
    so the states of M_n are shared by every larger size.
    """

    @lru_cache(maxsize=None)
    def count(sites_left: int, to_open: int, blocked: int, first: int, after_opener: bool) -> int:
        if sites_left == 0:
            return 1
        open_arcs = sites_left - 2 * to_open
        total = 0
        for i in range(first, open_arcs):
            if not blocked >> i & 1:
                # drop bit i; the arc after it is no longer blocked
                rest = (blocked >> (i + 1) & ~1) << i | blocked & ((1 << i) - 1)
                total += count(sites_left - 1, to_open, rest, i, False)
        if to_open:
            total += count(sites_left - 1, to_open - 1, blocked | after_opener << open_arcs, 0, True)
        return total

    result = [count(2 * n, n, 0, 0, False) for n in sizes]
    count.cache_clear()
    return result


def fishburn_oracle(n: int) -> int:
    """The n-th Fishburn number, counted via ascent sequences only.

    An ascent sequence starts with 0 and each later entry lies between 0
    and one plus the number of ascents among the earlier entries.  The
    count depends only on (length so far, last entry, ascents so far).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return 1

    @lru_cache(maxsize=None)
    def ways(length: int, last: int, ascents: int) -> int:
        if length == n:
            return 1
        return sum(
            ways(length + 1, v, ascents + (1 if v > last else 0)) for v in range(ascents + 2)
        )

    result = ways(1, 0, 0)
    ways.cache_clear()
    return result


def count_avoiders(n: int, s: PatternSet) -> int:
    """|M_n(S)|: Stoimenow matchings of size n avoiding every pattern in s.

    With no pattern this is `count_stoimenow`.  Otherwise sites are filled
    left to right, and a dict maps each state reached to its number of
    prefixes; only two layers of sites are held at a time.  A state is
    `count_stoimenow`'s compressed state plus the frozenset of partial
    occurrences (pattern index, t, slots): the prefix matches the first t
    letters of the pattern's endpoint word, and `slots` lists the open-arc
    indices of the pattern arcs still open, in opener order.

    * An opener keeps every occurrence, spawns a copy with t + 1 and the
      new arc appended for each occurrence whose next letter is an
      opener, and starts a fresh occurrence of every pattern.
    * Closing open arc i advances an occurrence that uses i if its next
      letter closes that very pattern arc, and drops it otherwise; a
      finished occurrence kills the prefix.  Occurrences without i only
      re-index their slots.
    * An occurrence that needs more openers, or more letters, than
      remain is dropped.
    """
    distinct = sorted(s.members, key=str)
    if not distinct:
        return count_stoimenow(n)
    _check_size(n, MAX_AVOID_ARCS, "the avoidance counter")
    if min(p.size for p in distinct) == 0:
        return 0  # every matching contains the empty pattern
    words = [_endpoint_word(p.template) for p in distinct]
    layer = {(n, 0, 0, False, frozenset()): 1}
    for sites_left in range(2 * n, 0, -1):
        rest_sites = sites_left - 1
        nxt: dict[tuple, int] = {}
        for (to_open, blocked, first, after_opener, occ), ways in layer.items():
            open_arcs = sites_left - 2 * to_open
            for i in range(first, open_arcs):
                if blocked >> i & 1:
                    continue
                found = False
                kept = []
                for p, t, slots in occ:
                    letters = words[p][0]
                    if i in slots:
                        j = slots.index(i)
                        if letters[t] != j:
                            continue
                        t += 1
                        if t == len(letters):
                            found = True
                            break
                        slots = slots[:j] + tuple(x - 1 for x in slots[j + 1 :])
                    elif len(letters) - t > rest_sites:
                        continue
                    elif slots and slots[-1] > i:
                        slots = tuple(x - 1 if x > i else x for x in slots)
                    kept.append((p, t, slots))
                if found:
                    continue
                rest = (blocked >> (i + 1) & ~1) << i | blocked & ((1 << i) - 1)
                key = (to_open, rest, i, False, frozenset(kept))
                nxt[key] = nxt.get(key, 0) + ways
            if to_open:
                left_open = to_open - 1
                kept = []
                for p, t, slots in occ:
                    letters, openers_left = words[p]
                    if openers_left[t] <= left_open and len(letters) - t <= rest_sites:
                        kept.append((p, t, slots))
                    if letters[t] < 0:
                        kept.append((p, t + 1, slots + (open_arcs,)))
                for p, (letters, openers_left) in enumerate(words):
                    if openers_left[1] <= left_open and len(letters) - 1 <= rest_sites:
                        kept.append((p, 1, (open_arcs,)))
                key = (left_open, blocked | after_opener << open_arcs, 0, True, frozenset(kept))
                nxt[key] = nxt.get(key, 0) + ways
        if len(nxt) > MAX_AVOID_STATES:
            raise ValueError(
                f"n={n}: the avoidance counter needs more than {MAX_AVOID_STATES} states at one site"
            )
        layer = nxt
    return sum(layer.values())


def _endpoint_word(template: Matching) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """A pattern's endpoint word, read left to right, as two tables.

    letters[t] is -1 when letter t is an opener; otherwise it is the
    position, among the pattern arcs open before it, of the arc it closes.
    openers_left[t] counts the openers among letters t and later.
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


@dataclass(frozen=True)
class CountTable:
    """Avoidance counts a_1..a_{n_max} for each requested pattern set."""

    rows: tuple[tuple[PatternSet, tuple[int, ...]], ...]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["patterns", "n", "count"])
        for patterns, counts in self.rows:
            for i, count in enumerate(counts, start=1):
                writer.writerow([patterns.name, i, count])
        return buf.getvalue()

    def to_json_obj(self) -> list[dict]:
        return [
            {"patterns": patterns.name, "n_from": 1, "counts": list(counts)}
            for patterns, counts in self.rows
        ]

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2)


def _tally(n: int, distinct: Sequence[Pattern], row_masks: Sequence[int]) -> list[int]:
    """Avoider counts in M_n for each row, by walking M_n; row r forbids
    the patterns of `distinct` whose bits are set in row_masks[r].

    Each leaf keeps an `alive` bitmask of the rows it still avoids.  A
    pattern is tested only while some alive row forbids it, so a leaf's
    tests stop once no row is alive; a row with no patterns never dies
    and counts every leaf.  Callers check n against `MAX_WALK_ARCS`.
    """
    rows_of = [
        sum(1 << r for r, mask in enumerate(row_masks) if mask >> bit & 1) for bit in range(len(distinct))
    ]
    everyone = (1 << len(row_masks)) - 1
    survivors: Counter[int] = Counter()
    for m in completions(n):
        alive = everyone
        for p, rows in zip(distinct, rows_of):
            if alive & rows and contains(m, p):
                alive &= ~rows
                if not alive:
                    break
        survivors[alive] += 1
    return [sum(k for alive, k in survivors.items() if alive >> r & 1) for r in range(len(row_masks))]


def count_table(rows: Sequence[PatternSet], n_max: int) -> CountTable:
    """Avoidance counts for every row and every n in 1..n_max.

    When no row has a pattern, every count comes from the compressed
    counter, one memo serving all n.  Otherwise one `_tally` walk per n
    covers every row, each leaf being tested against each distinct
    pattern at most once; a pattern-free row beside rows with patterns is
    counted in the walk.  n_max is checked against the cap of that method
    before any n is counted.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    sizes = range(1, n_max + 1)
    distinct = sorted({p for ps in rows for p in ps.members}, key=str)
    if not distinct:
        _check_size(n_max, MAX_ARCS, "the counter")
        counts = tuple(_stoimenow_counts(sizes))
        return CountTable(tuple((ps, counts) for ps in rows))
    _check_size(n_max, MAX_WALK_ARCS, _WALK)
    bit = {p: i for i, p in enumerate(distinct)}
    row_masks = [sum(1 << bit[p] for p in ps.members) for ps in rows]
    per_n = [_tally(n, distinct, row_masks) for n in sizes]
    return CountTable(tuple(zip(rows, zip(*per_n))))
