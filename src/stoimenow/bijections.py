"""Constructive bijections on pattern-avoiding Stoimenow matchings.

Two families live here:

* gluing/splitting, an inverse pair between pairs of P2-avoiders and
  single P2-avoiders one arc larger, and
* the letter encoding of R4-avoiders as strings over {a, b} (ASCII
  spellings of the alpha/beta labels), one letter per arc beyond the
  first.

Each family checks its own operands: glue and split require P2-avoiders,
and matching_to_string requires an R4-avoider.

The arcs-to-poset map itself lives in :mod:`stoimenow.posets`.
"""

from __future__ import annotations

from .matching import (
    Arc,
    Matching,
    is_stoimenow,
    irreducible_blocks,
    make_matching,
    partners,
    reduction_arc,
)
from .patterns import contains, registry, standardize


class NotP2Avoiding(ValueError):
    """Operand is not a P2-avoiding Stoimenow matching."""


class NotR4Avoiding(ValueError):
    """Operand is not an R4-avoiding Stoimenow matching."""


class EmptyMatching(ValueError):
    """The operation needs a nonempty matching."""


def _require_p2_avoider(m: Matching, which: str) -> None:
    if not is_stoimenow(m) or contains(m, registry()["P2"]):
        raise NotP2Avoiding(f"{which} is not a P2-avoiding Stoimenow matching")


def _insert_position(pairs: list[tuple[int, int]], pos: int) -> list[tuple[int, int]]:
    # Shift every endpoint at or beyond pos up by one, freeing pos.
    return [(o + (o >= pos), c + (c >= pos)) for o, c in pairs]


def _with_reduction_arc(m1: Matching) -> Matching:
    """Insert a fresh arc into m1 so that it becomes the reduction arc.

    The opener goes immediately before the run of openers below the first
    closer whose arcs close beyond the last opener (in a crossing that run
    is every opener), or before the first closer when that run is empty.
    The closer then goes immediately after the last opener of the updated
    configuration.
    """
    if m1.n == 0:
        return make_matching([(1, 2)])
    b1 = m1.arcs[0].closer
    last_opener = m1.arcs[-1].opener
    run = [a.opener for a in m1.arcs if a.opener < b1 and a.closer > last_opener]
    a_pos = min(run, default=b1)
    shifted = _insert_position([(a.opener, a.closer) for a in m1.arcs], a_pos)
    b_pos = max(a_pos, *(o for o, _ in shifted)) + 1
    return make_matching(_insert_position(shifted, b_pos) + [(a_pos, b_pos)])


def glue(m1: Matching, m2: Matching) -> Matching:
    """Combine two P2-avoiders into one with |m1| + |m2| + 1 arcs.

    m1 gains a reduction arc and m2 is appended to its right; splitting the
    result returns (m1, m2) exactly.  Both operands are checked first, and
    `_glue` does the rest.
    """
    _require_p2_avoider(m1, "first operand")
    _require_p2_avoider(m2, "second operand")
    return _glue(m1, m2)


def _glue(m1: Matching, m2: Matching) -> Matching:
    """`glue` for operands already known to be P2-avoiders; checks nothing.

    `verify.bijection_suite` calls it on earlier glue images, each of which
    `split` has already checked.
    """
    head = _with_reduction_arc(m1)
    shift = 2 * head.n
    arcs = head.arcs + tuple(Arc(a.opener + shift, a.closer + shift) for a in m2.arcs)
    return Matching(arcs)


def split(m: Matching) -> tuple[Matching, Matching]:
    """Inverse of glue: strip the first irreducible block's reduction arc.

    Returns (m1, m2) where m1 is the first block minus its reduction arc,
    renormalized, and m2 is everything after the first block, shifted down.
    """
    _require_p2_avoider(m, "input")
    if m.n == 0:
        raise EmptyMatching("cannot split the empty matching")
    head, _ = irreducible_blocks(m)[0]
    drop = 2 * head.n
    m2 = Matching(
        tuple(
            Arc(a.opener - drop, a.closer - drop)
            for a in m.arcs
            if a.opener > drop
        )
    )
    red = reduction_arc(head)
    m1 = standardize(a for a in head.arcs if a != red).template
    return m1, m2


def _check_letters(word: str) -> None:
    if any(ch not in "ab" for ch in word):
        raise ValueError(f"letters must be 'a' or 'b', got {word!r}")


def string_to_matching(word: str) -> Matching:
    """Decode a string over {a, b} into an R4-avoider with len(word)+1 arcs.

    The first arc [1, b1] covers one opener per 'a'; those openers form a
    crossing whose closers are placed left to right, one per 'a'.  Each 'b'
    contributes an arc right of b1, these arcs being pairwise disjoint; an
    'a' drops its closer inside the arc of the nearest 'b' to its left, or
    immediately right of b1 when no 'b' precedes it.
    """
    _check_letters(word)
    crossing_count = word.count("a")
    b1 = crossing_count + 2
    arcs = [(1, b1)]
    crossing_closers: list[int] = []
    pos = b1
    open_b: int | None = None
    for letter in word:
        if letter == "b":
            if open_b is not None:
                pos += 1
                arcs.append((open_b, pos))
            pos += 1
            open_b = pos
        else:
            pos += 1
            crossing_closers.append(pos)
    if open_b is not None:
        pos += 1
        arcs.append((open_b, pos))
    arcs.extend((2 + i, c) for i, c in enumerate(crossing_closers))
    return make_matching(arcs)


def matching_to_string(m: Matching) -> str:
    """Inverse of string_to_matching; the input must be an R4-avoider."""
    if m.n == 0:
        raise EmptyMatching("the encoding is defined for one arc or more")
    if not is_stoimenow(m) or contains(m, registry()["R4"]):
        raise NotR4Avoiding("input is not an R4-avoiding Stoimenow matching")
    part = partners(m)
    b1 = part[1]
    crossing_closers = {part[o] for o in range(2, b1)}
    letters = []
    for p in range(b1 + 1, 2 * m.n + 1):
        if part[p] > p:
            letters.append("b")
        elif p in crossing_closers:
            letters.append("a")
    return "".join(letters)
