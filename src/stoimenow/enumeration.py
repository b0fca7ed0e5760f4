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
holds (site, open openers, opener closed at site-1).  The k-th opener on
a path is arc k of every leaf below it, so the search keeps one list of
n arcs indexed by that rank and writes an arc into it when the arc
closes; a leaf is one C-level copy of that list, with no Python loop
over its n arcs.  Once the last opener is placed, the closing tail is
forced: two consecutive closers must close arcs in increasing opener
order (else they nest with adjacent closers), so the open arcs close in
that order, and Type 1 cannot fire because every arc opened before the
smallest one still open is closed.  The search writes that tail in one
step: at n = 9 it pops 69,122 nodes for 31,240 leaves (37,882 inner
nodes, 2.2 pops per leaf), where one node per closer would pop 239,490.

One counter never visits the leaves.  The number of ways to finish a
partial matching depends only on a compressed state (a generating-tree,
or transfer-matrix, count): the sites left, the arcs still to open, one
bit per open arc telling whether site o-1 opened an arc that is still
open, the index of the first open arc the last closer allows, whether
the previous site was an opener, and the set of partial pattern
occurrences the prefix holds, empty when no pattern is forbidden.
Those occurrences, and how each is started, stepped, pruned and
completed, belong to `patterns`: `_counts` holds them as ids from one
`patterns._Occurrences` table that lives for that call only.  `_counts`
fills the sites left to right, one layer of states at a time, and reads
|M_m(S)| for every m <= n off the states with no arc open after site
2m; the largest pattern-free layer holds 1,182 states at n = 14.
`count_stoimenow`, `count_avoiders` and pattern-free `count_table` all
take slices of that pass; `count_table` with a pattern still walks
every matching and tests it with `contains`.

Most states that hold occurrences are dead: no avoider extends them.
The counter drops a state as soon as one of its occurrences is forced
to complete (the blocked-chain prune).  An occurrence that needs no
more openers has only closers left, which fix the order its arcs must
close in.  Say that order runs up the open arcs, from open arc a to
open arc b, and each of the open arcs a+1..b is blocked: the arc before
it opened at the site before it and is still open.  Then Type 1 makes
arcs a..b close in increasing order in every completion.  Once no arc
is left to open, only open arc 0 may close, so any increasing order is
forced.  Every completion of such a state contains the pattern, so the
prune never drops a prefix of an avoider; it takes
`count --n 12 --avoid P1,P4,P5` from 2.4 s to 0.33 s (in-process, 2-core
host) and lets every set of atlas patterns be counted through n = 13.

`_counts` alone bounds the counter, with two limits: n at most
`MAX_ARCS`, and with patterns at most `MAX_HELD_OCCURRENCES` partial
occurrences held by one layer.  The budget counts occurrences, not
states, because a state's cost grows with the occurrences it holds: 20
random four-arc templates hold far more per state than any set of atlas
patterns.
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
from .patterns import Pattern, PatternSet, _Occurrences, contains

# Cap of the counter, with or without patterns; it visits no matching.
MAX_ARCS = 14
# Budget of the partial occurrences one layer of the counter may hold with
# patterns (the sum over its states of their occurrence sets' sizes).
# Every one of the 255 sets of atlas patterns peaks at 479,174 or fewer at
# n = 13 (75,521 at n = 11); at n = 14 it counts 248 of them and refuses
# 7, and each call, counted or refused, ends within about 3 s and 100 MiB
# on a 2-core host.
MAX_HELD_OCCURRENCES = 1_000_000
# Anything that visits every matching (generation, and `count_table` with
# a pattern) refuses larger n: M_11 already holds 1,422,074 matchings, and
# M_12 is 7.7 times as many.
MAX_WALK_ARCS = 11


def completions(n: int) -> Iterator[Matching]:
    """All Stoimenow matchings with n arcs, in the canonical order; n is not range-checked.

    A stack entry is (site, open openers, opener closed at site-1).
    `rank[o]` is the number of openers before site o, so the arc opened at
    o is `arcs[rank[o]]` in every leaf below; it is written when the arc
    closes.  Along one path a rank names one opener, and every node popped
    between that write and a leaf that reads it lies at later sites, so no
    entry is overwritten before it is read.  Once only closers remain,
    Type 2 forces them to close the open arcs in increasing opener order,
    so that tail is written in one step and the leaf is a copy of `arcs`.
    """
    n2 = 2 * n
    # one Arc per (opener, closer), shared by every leaf that uses it
    arc = [[Arc(o, c) if o < c else None for c in range(n2 + 1)] for o in range(n2 + 1)]
    rank, arcs = [0] * (n2 + 1), [None] * n
    stack = [(1, (), 0)]
    while stack:
        site, opens, last = stack.pop()
        if last:
            arcs[rank[last]] = arc[last][site - 1]
        if site + len(opens) > n2:
            # reached only through an opener branch, so no closer precedes the tail
            for closer, o in enumerate(opens, site):
                arcs[rank[o]] = arc[o][closer]
            yield Matching(tuple(arcs))
            continue
        rank[site] = (site - 1 + len(opens)) >> 1
        # pushed in reverse, so popped in the canonical order; an opener
        # always fits, since site + len(opens) is odd and so below 2n here
        stack.append((site + 1, opens + (site,), 0))
        for idx in range(len(opens) - 1, -1, -1):
            o = opens[idx]
            if o < last:
                break
            if not idx or opens[idx - 1] != o - 1:
                stack.append((site + 1, opens[:idx] + opens[idx + 1 :], o))


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
    return _counts(n, ())[n]


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
    """|M_n(S)|: Stoimenow matchings of size n avoiding every pattern in s."""
    if not s.members:
        return count_stoimenow(n)
    return _counts(n, sorted(s.members, key=str))[n]


def _counts(n: int, patterns: Sequence[Pattern]) -> list[int]:
    """|M_m(S)| for m = 0..n, where S is the set of `patterns`.

    Sites are filled left to right, and a dict maps each state reached to
    its number of prefixes; a layer is emptied as the next one is built.
    A state is (arcs still to open, blocked, first, after_opener, partial
    occurrences).  `blocked` has bit i set when open arc i (by opener)
    cannot close yet, because the arc opened at the site before it is
    still open; `first` is the first open arc the last closer allows; the
    open arcs number sites_left - 2 * to_open.  The partial occurrences
    are a frozenset of ids from one `patterns._Occurrences` table, made
    for this call: the root holds its `start`, an opener steps them with
    `open` and a closer with `close`, which returns None once an
    occurrence completes and so kills the prefix.  With no pattern the
    set stays empty, and no state calls the table.  Every count is 0 when
    `start` is None (an empty template).

    With no arc left to open only open arc 0 may close, and no dead state
    is made: closing arc i > 0 makes every later closer pass arc 0 (Type
    2), and with no opener left to reset that, arc 0 never closes.

    `close` and `open` also get the state's `blocked` after the step, or
    -1 once no arc is left to open, and return None when that forces an
    occurrence to complete (`patterns._chain_mask`).  Type 1, or with -1
    the rule above, then makes every completion close the occurrence's
    arcs in the order its letters need, so every completion contains the
    pattern and the state is dead.

    After site 2m, the states with no arc open hold exactly the prefixes
    in M_m(S): Type 1 and Type 2 look only at adjacent sites, so such a
    prefix is a matching of M_m; an occurrence that completes within it
    killed it at that site; the prune above kills only prefixes that no
    avoider extends, so never a prefix of a matching in M_m(S); and the
    table drops only occurrences that cannot complete by site 2n, so
    never one that completes by site 2m.  n is checked against
    `MAX_ARCS` before the table or any layer is built.  With patterns, a
    layer whose states hold more than `MAX_HELD_OCCURRENCES` partial
    occurrences in all is refused; a pattern-free layer holds none, so
    its sum is not taken.
    """
    _check_size(n, MAX_ARCS, "the counter")
    table = _Occurrences(patterns, n)
    if table.start is None:
        return [0] * (n + 1)
    counts = [1]
    layer = {(n, 0, 0, False, table.start): 1}
    for sites_left in range(2 * n, 0, -1):
        rest_sites = sites_left - 1
        nxt: dict[tuple, int] = {}
        while layer:
            # popped, so a state is freed once stepped and two full layers are never held
            (to_open, blocked, first, after_opener, occ), ways = layer.popitem()
            open_arcs = sites_left - 2 * to_open
            for i in range(first, open_arcs if to_open else 1):
                if blocked >> i & 1:
                    continue
                # drop bit i; the arc after it is no longer blocked
                rest = (blocked >> (i + 1) & ~1) << i | blocked & ((1 << i) - 1)
                kept = table.close(occ, i, rest if to_open else -1) if occ else occ
                if kept is None:
                    continue
                key = (to_open, rest, i, False, kept)
                nxt[key] = nxt.get(key, 0) + ways
            if to_open:
                left_open = to_open - 1
                rest = blocked | after_opener << open_arcs
                kept = table.open(occ, open_arcs, left_open, rest if left_open else -1) if occ else occ
                if kept is not None:
                    key = (left_open, rest, 0, True, kept)
                    nxt[key] = nxt.get(key, 0) + ways
        if patterns and sum(len(key[4]) for key in nxt) > MAX_HELD_OCCURRENCES:
            raise ValueError(f"n={n}: more than {MAX_HELD_OCCURRENCES} partial occurrences at one site")
        layer = nxt
        if rest_sites % 2 == 0:
            # the states with no arc open: 2 * to_open == rest_sites
            counts.append(sum(ways for key, ways in layer.items() if 2 * key[0] == rest_sites))
    return counts


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

    def to_json(self) -> str:
        rows = [{"patterns": ps.name, "n_from": 1, "counts": list(counts)} for ps, counts in self.rows]
        return json.dumps(rows, indent=2)


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

    When no row has a pattern, every count comes from one `_counts` pass
    at n_max, which reads off every smaller n on the way.  Otherwise one
    `_tally` walk per n covers every row, each leaf being tested against
    each distinct pattern at most once; a pattern-free row beside rows
    with patterns is counted in the walk.  n_max is checked against the
    cap of that method before any n is counted.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    distinct = sorted({p for ps in rows for p in ps.members}, key=str)
    if not distinct:
        counts = tuple(_counts(n_max, ())[1:])
        return CountTable(tuple((ps, counts) for ps in rows))
    _check_size(n_max, MAX_WALK_ARCS, _WALK)
    bit = {p: i for i, p in enumerate(distinct)}
    row_masks = [sum(1 << bit[p] for p in ps.members) for ps in rows]
    per_n = [_tally(n, distinct, row_masks) for n in range(1, n_max + 1)]
    return CountTable(tuple(zip(rows, zip(*per_n))))
