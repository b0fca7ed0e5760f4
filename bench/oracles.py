"""Independent oracles for checking the CLI's outputs.

Nothing here imports the package under test: each oracle recomputes its
answer from the definitions (ascent sequences, the Catalan binomial,
partner arrays, subset standardization, long division of series), so a
defect in the program cannot hide behind the same defect in its check.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import combinations
from math import comb

_ARC = re.compile(r"\((\d+),(\d+)\)")


@lru_cache(maxsize=None)
def fishburn(n: int) -> int:
    """The n-th Fishburn number, counted over ascent sequences of length n."""
    if n == 0:
        return 1
    # counts[(last, ascents)] = number of ascent sequences of the current length
    counts = {(0, 0): 1}
    for _ in range(n - 1):
        nxt: dict[tuple[int, int], int] = {}
        for (last, asc), ways in counts.items():
            for v in range(asc + 2):
                key = (v, asc + (v > last))
                nxt[key] = nxt.get(key, 0) + ways
        counts = nxt
    return sum(counts.values())


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def parse_arcs(text: str) -> list[tuple[int, int]] | None:
    """Pairs of an arc-list rendering, or None unless it is a perfect
    matching of {1..2n} listed in opener order."""
    text = text.strip()
    if text in ("", "∅"):
        return []
    pairs = [(int(a), int(b)) for a, b in _ARC.findall(text)]
    if "".join(f"({a},{b})" for a, b in pairs) != text:
        return None
    if any(a >= b for a, b in pairs) or pairs != sorted(pairs):
        return None
    if sorted(p for arc in pairs for p in arc) != list(range(1, 2 * len(pairs) + 1)):
        return None
    return pairs


def render(pairs: list[tuple[int, int]]) -> str:
    return "".join(f"({a},{b})" for a, b in pairs) or "∅"


def is_stoimenow(pairs: list[tuple[int, int]]) -> bool:
    """No two nested arcs with adjacent openers or adjacent closers,
    checked over all pairs of arcs."""
    for (a, b), (c, d) in combinations(pairs, 2):
        outer, inner = ((a, b), (c, d)) if a < c else ((c, d), (a, b))
        nested = outer[0] < inner[0] and inner[1] < outer[1]
        if nested and (inner[0] == outer[0] + 1 or outer[1] == inner[1] + 1):
            return False
    return True


def standardize(pairs) -> tuple[tuple[int, int], ...]:
    """Relabel endpoints by rank; arcs sorted by opener."""
    pts = sorted(p for arc in pairs for p in arc)
    rank = {p: i + 1 for i, p in enumerate(pts)}
    return tuple(sorted((rank[a], rank[b]) for a, b in pairs))


def contains(pairs, pattern) -> bool:
    """Unpruned subset scan: some k arcs of `pairs` standardize to `pattern`."""
    target = standardize(pattern)
    return any(standardize(sub) == target for sub in combinations(pairs, len(target)))


P2 = ((1, 3), (2, 5), (4, 7), (6, 8))
R4 = ((1, 2), (3, 5), (4, 6))


def all_matchings(n: int):
    """Every perfect matching of {1..2n}, as sorted pair lists."""

    def rec(points):
        if not points:
            yield []
            return
        first, rest = points[0], points[1:]
        for i, partner in enumerate(rest):
            for tail in rec(rest[:i] + rest[i + 1 :]):
                yield [(first, partner)] + tail

    return [sorted(p) for p in rec(list(range(1, 2 * n + 1)))]


def p2_avoiders(n: int) -> list[list[tuple[int, int]]]:
    """P2-avoiding Stoimenow matchings of size n by brute force (n <= 6)."""
    return [m for m in all_matchings(n) if is_stoimenow(m) and not contains(m, P2)]


def series_expansion(num: tuple[int, ...], den: tuple[int, ...], order: int) -> list[int]:
    """a_0..a_order of num/den by long division (den[0] must be +-1)."""
    out: list[int] = []
    for n in range(order + 1):
        acc = num[n] if n < len(num) else 0
        for k in range(1, min(n, len(den) - 1) + 1):
            acc -= den[k] * out[n - k]
        if acc % den[0]:
            raise ValueError("denominator constant term must be a unit")
        out.append(acc // den[0])
    return out


def omega_relation(pairs) -> list[list[int]]:
    """less[i][j] = 1 iff arc i closes before arc j opens."""
    return [[int(pairs[i][1] < pairs[j][0]) for j in range(len(pairs))] for i in range(len(pairs))]


def cover_pairs(less: list[list[int]]) -> list[list[int]]:
    """1-based cover relations of a strict order given as a 0/1 matrix."""
    n = len(less)
    return [
        [i + 1, j + 1]
        for i in range(n)
        for j in range(n)
        if less[i][j] and not any(less[i][k] and less[k][j] for k in range(n))
    ]
