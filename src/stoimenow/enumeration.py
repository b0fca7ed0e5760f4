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

`completions` is one iterative depth-first search.  Its explicit stack
holds (site, open openers, opener closed at site-1), and a partner array
indexed by site records the current path, so a leaf is read off the
array.

Counting never visits the leaves.  The number of completions of a prefix
depends only on a compressed state (a generating-tree, or
transfer-matrix, count): the sites left, the arcs still to open, one bit
per open arc telling whether site o-1 opened an arc that is still open,
the index of the first open arc the last closer allows, and whether the
previous site was an opener.  A memo over that state makes the count of
M_14 take 8,823 states.
"""

from __future__ import annotations

import csv
import io
import json
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

from .matching import Arc, Matching
from .patterns import Pattern, PatternSet, contains

MAX_ARCS = 14


@dataclass(frozen=True)
class GenState:
    """A viable generation prefix: sites below `pos` are already decided."""

    n: int
    pos: int
    open_openers: tuple[int, ...]
    pairs: tuple[tuple[int, int], ...]
    last_closed_opener: int = 0  # 0 unless site pos-1 is a closer


def _root(n: int) -> GenState:
    return GenState(n=n, pos=1, open_openers=(), pairs=())


def _children(s: GenState) -> list[GenState]:
    kids = []
    opens = s.open_openers
    for idx, o in enumerate(opens):
        if o < s.last_closed_opener:
            continue
        if idx and opens[idx - 1] == o - 1:
            continue
        kids.append(
            GenState(s.n, s.pos + 1, opens[:idx] + opens[idx + 1 :], s.pairs + ((o, s.pos),), o)
        )
    if len(s.pairs) + len(opens) < s.n and len(opens) + 1 <= 2 * s.n - s.pos:
        kids.append(GenState(s.n, s.pos + 1, opens + (s.pos,), s.pairs))
    return kids


def completions(state: GenState) -> Iterator[Matching]:
    """All Stoimenow matchings extending `state`, in the canonical order."""
    n2 = 2 * state.n
    # one Arc per (opener, closer), shared by every leaf that uses it
    arc = [[Arc(o, c) if o < c else None for c in range(n2 + 1)] for o in range(n2 + 1)]
    partner = [0] * (n2 + 1)
    for o, c in state.pairs:
        partner[o], partner[c] = c, o
    stack = [(state.pos, state.open_openers, state.last_closed_opener)]
    while stack:
        site, opens, last = stack.pop()
        if last:
            partner[last], partner[site - 1] = site - 1, last
        if site > n2:
            yield Matching(tuple([arc[o][c] for o, c in enumerate(partner) if o < c]))
            continue
        # pushed in reverse, so popped in the canonical order
        if site + len(opens) < n2:
            stack.append((site + 1, opens + (site,), 0))
        for idx in range(len(opens) - 1, -1, -1):
            o = opens[idx]
            if o < last:
                break
            if idx and opens[idx - 1] == o - 1:
                continue
            stack.append((site + 1, opens[:idx] + opens[idx + 1 :], o))


def count_completions(state: GenState) -> int:
    """How many matchings `completions(state)` yields, without visiting them.

    `blocked` has bit i set when open arc i (by opener) cannot close yet,
    because the arc opened at the site before it is still open; the open
    arcs number `sites_left - 2 * to_open`.  The memo lives for this call.
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

    opens = state.open_openers
    result = count(
        2 * state.n - state.pos + 1,
        state.n - len(state.pairs) - len(opens),
        sum(1 << i for i in range(1, len(opens)) if opens[i - 1] == opens[i] - 1),
        bisect_left(opens, state.last_closed_opener) if state.last_closed_opener else 0,
        state.pos > 1 and not state.last_closed_opener,
    )
    count.cache_clear()
    return result


def _check_size(n: int) -> None:
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > MAX_ARCS:
        raise ValueError(f"n={n} exceeds the supported maximum of {MAX_ARCS}")


def enumerate_stoimenow(n: int) -> Iterator[Matching]:
    """Every Stoimenow matching with n arcs, exactly once, in deterministic order."""
    _check_size(n)
    return completions(_root(n))


def count_stoimenow(n: int) -> int:
    """|M_n| without materializing matchings."""
    _check_size(n)
    return count_completions(_root(n))


def partition_prefixes(n: int, depth: int) -> list[GenState]:
    """Viable prefixes of length `depth` whose completions partition M_n."""
    _check_size(n)
    if not 0 <= depth <= 2 * n:
        raise ValueError("depth must be between 0 and 2n")
    states = [_root(n)]
    for _ in range(depth):
        states = [child for s in states for child in _children(s)]
    return states


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
    _check_size(n)
    return _tally(n, sorted(s.members, key=str), [(1 << len(s.members)) - 1])[0]


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
    """Avoider counts in M_n for each row; row r forbids the patterns of
    `distinct` whose bits are set in row_masks[r].

    Pattern-free counts are decided here and nowhere else: with no
    patterns at all, every row is |M_n| from the compressed counter and no
    matching is visited.  Otherwise each leaf keeps an `alive` bitmask of
    the rows it still avoids.  A pattern is tested only while some alive
    row forbids it, so a leaf's tests stop once no row is alive; a row
    with no patterns never dies and counts every leaf.
    """
    if not distinct:
        return [count_stoimenow(n)] * len(row_masks)
    rows_of = [
        sum(1 << r for r, mask in enumerate(row_masks) if mask >> bit & 1) for bit in range(len(distinct))
    ]
    everyone = (1 << len(row_masks)) - 1
    survivors: Counter[int] = Counter()
    for m in completions(_root(n)):
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

    One `_tally` call per n covers every row, each leaf being tested
    against each distinct pattern at most once.  When no row has a
    pattern, `_tally` takes every count from the compressed counter; a
    pattern-free row beside rows with patterns is counted in the walk.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    _check_size(n_max)
    distinct = sorted({p for ps in rows for p in ps.members}, key=str)
    bit = {p: i for i, p in enumerate(distinct)}
    row_masks = [sum(1 << bit[p] for p in ps.members) for ps in rows]
    per_n = [_tally(n, distinct, row_masks) for n in range(1, n_max + 1)]
    return CountTable(tuple(zip(rows, zip(*per_n))))
