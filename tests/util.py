"""Shared brute-force oracles for the test suite.

These stay deliberately naive and independent of the library's pruned
search paths: full enumeration of all perfect matchings, a template scan
over arc pairs, and unpruned subset enumeration for containment.
"""

from itertools import combinations

from stoimenow import Matching, Pattern, make_matching, standardize


def all_matchings(n: int) -> list[Matching]:
    """Every perfect matching of {1..2n} (not just the Stoimenow ones)."""

    def rec(points):
        if not points:
            yield []
            return
        first, rest = points[0], points[1:]
        for i in range(len(rest)):
            for tail in rec(rest[:i] + rest[i + 1 :]):
                yield [(first, rest[i])] + tail

    return [make_matching(p) for p in rec(list(range(1, 2 * n + 1)))]


def naive_is_stoimenow(m: Matching) -> bool:
    """Quadruple-loop template check over all ordered arc pairs."""
    for a in m.arcs:
        for b in m.arcs:
            if a == b:
                continue
            if b.opener == a.opener + 1 and b.closer < a.closer:
                return False  # nested pair with adjacent openers
            if a.closer == b.closer + 1 and a.opener < b.opener:
                return False  # nested pair with adjacent closers
    return True


def naive_contains(m: Matching, p: Pattern) -> bool:
    """Unpruned subset enumeration."""
    k = p.size
    if k > m.n:
        return False
    return any(
        standardize(subset).template == p.template
        for subset in combinations(m.arcs, k)
    )


def recursive_completions(n, pos, open_openers, pairs, last_closed_opener=0):
    """Frozen recursive reference of the generator's canonical order.

    Takes the fields of a generation prefix and yields the arc pairs of
    each completion, sorted by opener.  At each site the closers come in
    increasing order of their opener, then the opener branch.
    """
    if pos > 2 * n:
        yield tuple(sorted(pairs))
        return
    for idx, o in enumerate(open_openers):
        if o < last_closed_opener or (idx and open_openers[idx - 1] == o - 1):
            continue
        rest = open_openers[:idx] + open_openers[idx + 1 :]
        yield from recursive_completions(n, pos + 1, rest, pairs + ((o, pos),), o)
    if len(pairs) + len(open_openers) < n and len(open_openers) + 1 <= 2 * n - pos:
        yield from recursive_completions(n, pos + 1, open_openers + (pos,), pairs)
