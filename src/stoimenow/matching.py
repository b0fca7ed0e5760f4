"""Perfect matchings of {1..2n} and the Stoimenow property.

Positions are 1-based throughout.  An arc pairs an opener with a later
closer; a matching covers {1..2n} with n arcs, kept sorted by opener.  A
matching is *Stoimenow* when no two nested arcs have adjacent openers
(Type 1) and no two nested arcs have adjacent closers (Type 2); these
matchings are counted by the Fishburn numbers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable


class NotPerfectMatching(ValueError):
    """The endpoints do not cover {1..2n} exactly once."""


class InvertedArc(ValueError):
    """An arc was given with opener >= closer."""


class NoSuchArc(ValueError):
    """No arc with the requested endpoint exists."""


@dataclass(frozen=True, order=True)
class Arc:
    opener: int
    closer: int

    @cached_property
    def text(self) -> str:
        """The arc as "(opener,closer)", built once per Arc; a walk shares its Arcs among leaves."""
        return f"({self.opener},{self.closer})"


@dataclass(frozen=True)
class Matching:
    """A perfect matching of {1..2n}; arcs sorted by opener.  n may be 0.

    Instances built directly are trusted; use :func:`make_matching` or
    :func:`parse_arcs` to validate untrusted input.
    """

    arcs: tuple[Arc, ...]

    @property
    def n(self) -> int:
        return len(self.arcs)

    def __str__(self) -> str:
        return format_arcs(self)


EMPTY = Matching(())


def make_matching(pairs: Iterable[tuple[int, int]]) -> Matching:
    """Validate `pairs` and return the canonical Matching.

    Raises TypeError if an endpoint is not an int, InvertedArc if some
    pair has opener >= closer, and NotPerfectMatching if the endpoints are
    not {1..2n} each used once.
    """
    arcs = []
    for opener, closer in pairs:
        if type(opener) is not int or type(closer) is not int:
            raise TypeError(f"arc endpoints must be int: ({opener!r},{closer!r})")
        if opener >= closer:
            raise InvertedArc(f"arc ({opener},{closer}) has opener >= closer")
        arcs.append(Arc(opener, closer))
    endpoints = sorted(p for a in arcs for p in (a.opener, a.closer))
    if endpoints != list(range(1, 2 * len(arcs) + 1)):
        raise NotPerfectMatching("endpoints must be 1..2n, each used exactly once")
    arcs.sort()
    return Matching(tuple(arcs))


_ARC_TOKEN = re.compile(r"\((\d+),(\d+)\)")


def parse_arcs(text: str) -> Matching:
    """Parse the arc-list format ``(o1,c1)(o2,c2)...``; "" and "∅" are empty."""
    text = text.strip()
    if text in ("", "∅"):
        return EMPTY
    pairs = []
    pos = 0
    for m in _ARC_TOKEN.finditer(text):
        if m.start() != pos:
            raise ValueError(f"malformed arc list {text!r}")
        pairs.append((int(m.group(1)), int(m.group(2))))
        pos = m.end()
    if pos != len(text):
        raise ValueError(f"malformed arc list {text!r}")
    return make_matching(pairs)


def format_arcs(m: Matching) -> str:
    """Render in the arc-list format; the empty matching renders as ""."""
    return "".join([a.text for a in m.arcs])


def partners(m: Matching) -> list[int]:
    """Partner array: partner[p] is the other endpoint of p's arc (index 0 unused)."""
    part = [0] * (2 * m.n + 1)
    for a in m.arcs:
        part[a.opener] = a.closer
        part[a.closer] = a.opener
    return part


def is_stoimenow(m: Matching) -> bool:
    """True iff no Type 1 and no Type 2 configuration exists.

    Both forbidden configurations are partner inversions on adjacent
    same-kind positions, so one linear scan over the partner array decides.
    """
    part = partners(m)
    for i in range(1, 2 * m.n):
        same_kind = (part[i] > i) == (part[i + 1] > i + 1)
        if same_kind and part[i] > part[i + 1]:
            return False
    return True


def reverse(m: Matching) -> Matching:
    """Mirror the matching: position i maps to 2n+1-i.  An involution."""
    t = 2 * m.n + 1
    return Matching(tuple(sorted(Arc(t - a.closer, t - a.opener) for a in m.arcs)))


def irreducible_blocks(m: Matching) -> tuple[tuple[Matching, int], ...]:
    """Split at every proper prefix with as many openers as closers.

    Each block is renormalized to its own ground set {1..2m}; the blocks
    are returned left to right as (block, 1-based offset in the parent)
    pairs.
    """
    part = partners(m)
    blocks = []
    start = 1
    balance = 0
    for p in range(1, 2 * m.n + 1):
        balance += 1 if part[p] > p else -1
        if balance == 0:
            arcs = tuple(
                Arc(a.opener - start + 1, a.closer - start + 1)
                for a in m.arcs
                if start <= a.opener <= p
            )
            blocks.append((Matching(arcs), start))
            start = p + 1
    return tuple(blocks)


def reduction_arc(m: Matching) -> Arc:
    """The arc whose closer sits immediately after the last opener.

    Every position after the last opener is a closer, so this arc exists in
    every nonempty matching.
    """
    if m.n == 0:
        raise NoSuchArc("the empty matching has no reduction arc")
    last_opener = m.arcs[-1].opener
    target = last_opener + 1
    return next(a for a in m.arcs if a.closer == target)
