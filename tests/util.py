"""Shared brute-force oracles for the test suite.

These stay deliberately naive and independent of the library's pruned
search paths: full enumeration of all perfect matchings, a template scan
over arc pairs, unpruned subset enumeration for containment, per-term
Fraction loops for the series kernels, the all-permutations canonical
form of a poset, an induced-subposet test against every relabeling of
the forbidden poset, and a parenthesis-depth scanner for pattern-set
text.
"""

from fractions import Fraction
from itertools import combinations, permutations

from stoimenow import Matching, Pattern, Poset, PowerSeries, make_matching, standardize


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


def recursive_completions(n):
    """Frozen recursive reference of the generator's canonical order.

    Yields the arc pairs of each Stoimenow matching with n arcs, sorted
    by opener.  At each site the closers come in increasing order of
    their opener, then the opener branch.
    """

    def walk(pos, open_openers, pairs, last_closed_opener):
        if pos > 2 * n:
            yield tuple(sorted(pairs))
            return
        for idx, o in enumerate(open_openers):
            if o < last_closed_opener or (idx and open_openers[idx - 1] == o - 1):
                continue
            rest = open_openers[:idx] + open_openers[idx + 1 :]
            yield from walk(pos + 1, rest, pairs + ((o, pos),), o)
        if len(pairs) + len(open_openers) < n and len(open_openers) + 1 <= 2 * n - pos:
            yield from walk(pos + 1, open_openers + (pos,), pairs, 0)

    return walk(1, (), (), 0)


# Frozen Fraction reference of the series kernels: one Fraction operation
# per term, the way PowerSeries computed them before its integer kernels.


def ref_mul(lhs: PowerSeries, rhs: PowerSeries) -> PowerSeries:
    n = min(lhs.order, rhs.order)
    out = [Fraction(0)] * (n + 1)
    for i, a in enumerate(lhs.coeffs[: n + 1]):
        if not a:
            continue
        for j in range(n + 1 - i):
            b = rhs.coeffs[j]
            if b:
                out[i + j] += a * b
    return PowerSeries(tuple(out))


def ref_truediv(lhs: PowerSeries, rhs: PowerSeries) -> PowerSeries:
    n = min(lhs.order, rhs.order)
    inv0 = 1 / rhs.coeffs[0]
    out: list[Fraction] = []
    for k in range(n + 1):
        acc = lhs.coeffs[k]
        for j in range(1, k + 1):
            if j < len(rhs.coeffs) and rhs.coeffs[j]:
                acc -= rhs.coeffs[j] * out[k - j]
        out.append(acc * inv0)
    return PowerSeries(tuple(out))


def ref_pow(base: PowerSeries, k: int) -> PowerSeries:
    result = PowerSeries.constant(1, base.order)
    for _ in range(k):
        result = ref_mul(result, base)
    return result


def ref_sqrt(s: PowerSeries) -> PowerSeries:
    """Newton iteration y <- (y + s / y) / 2, doubling the order each step."""
    target = s.order
    y = PowerSeries((Fraction(1),))
    while y.order < target:
        m = min(2 * y.order + 1, target)
        quotient = ref_truediv(s.with_order(m), y.with_order(m))
        y = ref_mul(y.with_order(m) + quotient, PowerSeries.constant(Fraction(1, 2), m))
    return y


def brute_canonical_form(p: Poset) -> tuple[tuple[int, int], ...]:
    """Least sorted relation list over all n! relabelings."""
    best = None
    for perm in permutations(range(p.size)):
        rels = tuple(
            sorted(
                (perm[i], perm[j])
                for i in range(p.size)
                for j in range(p.size)
                if p.less[i][j]
            )
        )
        if best is None or rels < best:
            best = rels
    return best


NAIVE_FORBIDDEN_RELATIONS = {
    "2+2": [(0, 1), (2, 3)],
    "3+1": [(0, 1), (0, 2), (1, 2)],
    "N": [(0, 2), (0, 3), (1, 3)],
}


def naive_poset_contains(p: Poset, name: str) -> bool:
    """Compare each 4-subset's relation-pair set with every relabeling of the named poset."""
    base = NAIVE_FORBIDDEN_RELATIONS[name]
    orbit = {frozenset((perm[i], perm[j]) for i, j in base) for perm in permutations(range(4))}
    for subset in combinations(range(p.size), 4):
        rels = frozenset(
            (a, b) for a in range(4) for b in range(4) if p.less[subset[a]][subset[b]]
        )
        if rels in orbit:
            return True
    return False


def split_top_level(text: str) -> list[str]:
    """Split at every comma outside parentheses, tracking their depth by hand."""
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
