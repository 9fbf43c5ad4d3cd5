"""Exact integer enumeration of cross-interval contraction patterns.

Every multi-interval correlation integral in this package is indexed by a
pairing pattern: 2k interaction-interval endpoints matched into k pairs such
that no pair stays inside a single interval.  This module counts and
enumerates those patterns exactly (big-integer arithmetic throughout), along
with the restricted partitions and tableau fillings used to organize them
into closed-form bound terms.

Note on the pairing-count base cases: the recurrence defining ``crossing_count``
fixes c(0)=1 and c(1)=0 (the empty pairing exists; a single interval cannot
pair with itself).  Printed tables elsewhere sometimes list the first two
entries swapped; the recurrence is authoritative here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, permutations

WICK_COUNT_MAX = 20
CONTRACTION_ENUM_MAX = 6


def wick_term_count(n: int) -> int:
    """Number of pairings of 2n points: (2n)!/(2^n n!)."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n > WICK_COUNT_MAX:
        raise OverflowError(
            f"wick_term_count supports n <= {WICK_COUNT_MAX}, got {n}"
        )
    return math.factorial(2 * n) // (2**n * math.factorial(n))


def crossing_count(k: int) -> int:
    """Number of pairings of 2k endpoints with no same-interval pair.

    Satisfies c(k) = 2(k-1)[c(k-1) + c(k-2)] with c(0)=1, c(1)=0, run
    upwards in a loop, so any k is reached without recursion.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    before, current = 1, 0  # c(0), c(1)
    for j in range(2, k + 1):
        before, current = current, 2 * (j - 1) * (current + before)
    return before if k == 0 else current


def double_factorial(n: int) -> int:
    """(n)!! for n >= -1, with (-1)!! = 0!! = 1."""
    if n < -1:
        raise ValueError(f"n must be >= -1, got {n}")
    result = 1
    while n > 1:
        result *= n
        n -= 2
    return result


@dataclass(frozen=True)
class RestrictedPartition:
    """Partition of an integer into parts >= 2, sorted descending."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(p < 2 for p in self.parts):
            raise ValueError(f"all parts must be >= 2, got {self.parts}")
        if tuple(sorted(self.parts, reverse=True)) != self.parts:
            raise ValueError(f"parts must be sorted descending, got {self.parts}")

    @property
    def total(self) -> int:
        return sum(self.parts)

    def row_multiplicities(self) -> dict[int, int]:
        """Map part size -> number of rows of that size."""
        counts: dict[int, int] = {}
        for p in self.parts:
            counts[p] = counts.get(p, 0) + 1
        return counts


def restricted_partitions(k: int) -> list[RestrictedPartition]:
    """All partitions of k into parts >= 2, in descending-lex order."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")

    out: list[RestrictedPartition] = []

    def recurse(remaining: int, cap: int, acc: list[int]) -> None:
        if remaining == 0:
            out.append(RestrictedPartition(tuple(acc)))
            return
        for part in range(min(cap, remaining), 1, -1):
            if remaining - part == 1:
                continue  # would force a trailing part of 1
            recurse(remaining - part, part, acc + [part])

    recurse(k, k, [])
    return out


def partition_term_count(p: RestrictedPartition) -> int:
    """Number of irreducible pairing patterns organized under partition p.

    A row of length m placed after rows of total length t contributes
    C(k - t, m) * (2m - 2)!! choices; rows of equal length are
    interchangeable, dividing by the factorial of their multiplicity.
    """
    k = p.total
    count = 1
    used = 0
    for m in p.parts:
        count *= math.comb(k - used, m) * double_factorial(2 * m - 2)
        used += m
    for mult in p.row_multiplicities().values():
        count //= math.factorial(mult)
    return count


def cyclic_term_count(p: RestrictedPartition) -> int:
    """Number of distinct product-of-cycles monomials for partition p."""
    k = p.total
    count = 1
    used = 0
    for m in p.parts:
        count *= math.comb(k - used, m) * _free_cycle_count(m)
        used += m
    for mult in p.row_multiplicities().values():
        count //= math.factorial(mult)
    return count


def _free_cycle_count(m: int) -> int:
    # (m-1)!/2 free cyclic orders for m >= 3; a 2-cycle is unique.
    return 1 if m <= 2 else math.factorial(m - 1) // 2


@dataclass(frozen=True)
class ContractionClass:
    """One cross-interval pairing of 2k endpoints.

    Endpoints are (interval_label, side) with side 0 for the later point u_i
    and side 1 for the earlier point u_i - s_i.  Edges form a perfect
    matching and never join two endpoints of the same interval.
    """

    interval_labels: tuple[int, ...]
    edges: tuple[tuple[tuple[int, int], tuple[int, int]], ...]

    def __post_init__(self) -> None:
        endpoints = [e for edge in self.edges for e in edge]
        expected = [(lab, side) for lab in self.interval_labels for side in (0, 1)]
        if sorted(endpoints) != sorted(expected):
            raise ValueError("edges are not a perfect matching on the endpoints")
        if any(a[0] == b[0] for a, b in self.edges):
            raise ValueError("an edge joins two endpoints of the same interval")

    def partition(self) -> RestrictedPartition:
        """Connected-component sizes over intervals, as a restricted partition."""
        parent = {lab: lab for lab in self.interval_labels}

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for (a, _), (b, _) in self.edges:
            parent[find(a)] = find(b)
        sizes: dict[int, int] = {}
        for lab in self.interval_labels:
            r = find(lab)
            sizes[r] = sizes.get(r, 0) + 1
        return RestrictedPartition(tuple(sorted(sizes.values(), reverse=True)))


def _canonical_edges(edges):
    return tuple(sorted(tuple(sorted(edge)) for edge in edges))


def enumerate_contraction_classes(
    k: int, interval_labels: list[int] | tuple[int, ...] | None = None
) -> list[ContractionClass]:
    """All cross-interval pairings over k intervals, canonically ordered.

    The result has exactly crossing_count(k) elements; classes are sorted
    lexicographically on their sorted edge lists so downstream quadrature
    sums reduce in a reproducible order.
    """
    if not 2 <= k <= CONTRACTION_ENUM_MAX:
        raise ValueError(
            f"enumeration supports 2 <= k <= {CONTRACTION_ENUM_MAX}, got {k}"
        )
    if interval_labels is None:
        interval_labels = tuple(range(k))
    labels = tuple(interval_labels)
    if len(labels) != k or len(set(labels)) != k:
        raise ValueError(f"need {k} distinct interval labels, got {labels!r}")

    endpoints = [(lab, side) for lab in labels for side in (0, 1)]
    classes: list[ContractionClass] = []

    def match(rem: list[tuple[int, int]], acc: list) -> None:
        if not rem:
            classes.append(ContractionClass(labels, _canonical_edges(acc)))
            return
        first = rem[0]
        for i in range(1, len(rem)):
            other = rem[i]
            if other[0] == first[0]:
                continue
            match(rem[1:i] + rem[i + 1 :], acc + [(first, other)])

    match(endpoints, [])
    classes.sort(key=lambda c: c.edges)
    return classes


def _inequivalent_fills(p: RestrictedPartition, labels: tuple[int, ...]):
    """Assignments of labels to rows, deduplicated under equal-length row swaps."""
    if sum(p.parts) != len(labels):
        raise ValueError("partition size must match the number of labels")

    def recurse(parts, pool):
        if not parts:
            yield []
            return
        m = parts[0]
        anchor_needed = parts[1:] and parts[1] == m
        for combo in combinations(sorted(pool), m):
            # rows of equal length are kept in increasing order of first label
            rest = [x for x in pool if x not in combo]
            for tail in recurse(parts[1:], rest):
                if anchor_needed and tail and tail[0][0] < combo[0]:
                    continue
                yield [combo] + tail

    yield from recurse(list(p.parts), list(labels))


def _row_cycles(row: tuple[int, ...]):
    """Free cyclic orders of a row, each as a multiset of adjacent pairs."""
    if len(row) == 2:
        a, b = row
        yield ((a, b) if a < b else (b, a),) * 2
        return
    first, rest = row[0], row[1:]
    for perm in permutations(rest):
        if perm[0] > perm[-1]:
            continue  # orientation representative
        cycle = (first,) + perm
        pairs = []
        for i in range(len(cycle)):
            a, b = cycle[i], cycle[(i + 1) % len(cycle)]
            pairs.append((a, b) if a < b else (b, a))
        yield tuple(sorted(pairs))


def cyclic_bound_terms(
    p: RestrictedPartition, interval_labels: list[int] | tuple[int, ...]
) -> list[tuple[tuple[tuple[int, int], ...], int]]:
    """Pair-ratio monomials bounding the partition's pairing patterns.

    Returns (monomial, multiplicity) entries, where a monomial is a sorted
    multiset of interval pairs (i, j); substituting the adjacent-ratio value
    for each pair yields the closed-form bound contribution.  Multiplicities
    sum to partition_term_count(p).
    """
    labels = tuple(interval_labels)
    n_terms = partition_term_count(p)
    n_monomials = cyclic_term_count(p)
    if n_terms % n_monomials != 0:
        raise RuntimeError("term count not divisible by monomial count")
    multiplicity = n_terms // n_monomials

    out: list[tuple[tuple[tuple[int, int], ...], int]] = []
    seen: set[tuple[tuple[int, int], ...]] = set()
    for fill in _inequivalent_fills(p, labels):
        def expand(rows):
            if not rows:
                yield ()
                return
            for head in _row_cycles(rows[0]):
                for tail in expand(rows[1:]):
                    yield tuple(sorted(head + tail))

        for monomial in expand(fill):
            if monomial in seen:
                raise RuntimeError("duplicate monomial across fills")
            seen.add(monomial)
            out.append((monomial, multiplicity))
    if len(out) != n_monomials:
        raise RuntimeError(
            f"expected {n_monomials} monomials, produced {len(out)}"
        )
    return sorted(out)


def unrestricted_partition_count(k: int) -> int:
    """pi(k), via Euler's pentagonal-number recurrence."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    table = [1] + [0] * k
    for n in range(1, k + 1):
        total = 0
        j = 1
        while True:
            g1 = j * (3 * j - 1) // 2
            g2 = j * (3 * j + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = -1 if j % 2 == 0 else 1
            if g1 <= n:
                total += sign * table[n - g1]
            if g2 <= n:
                total += sign * table[n - g2]
            j += 1
        table[n] = total
    return table[k]
