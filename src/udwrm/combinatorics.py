"""Cross-interval contraction patterns: exact counts, a reference
enumeration, and the subset programme that sums over them.

Every multi-interval correlation integral in this package is indexed by a
pairing pattern: 2k interaction-interval endpoints matched into k pairs such
that no pair stays inside a single interval.  This module counts those
patterns exactly (big-integer arithmetic throughout), along with the
restricted partitions that organize them by connected component.

Each interval has exactly two endpoints, so a pattern is a union of cycles
over intervals, and a sum over patterns is a sum over cycle covers.
``cycle_cover_sums`` evaluates such sums by a subset dynamic programme
without listing the patterns, on at most ``MAX_WINDOWS`` intervals; it is
the one place the package sums over them.  ``enumerate_contraction_classes``
lists them, up to ``CONTRACTION_ENUM_MAX`` intervals, as its test reference.

Note on the pairing-count base cases: the recurrence defining ``crossing_count``
fixes c(0)=1 and c(1)=0 (the empty pairing exists; a single interval cannot
pair with itself).  Printed tables elsewhere sometimes list the first two
entries swapped; the recurrence is authoritative here.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

CONTRACTION_ENUM_MAX = 6


def wick_term_count(n: int) -> int:
    """Number of pairings of 2n points: (2n)!/(2^n n!)."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
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


def _canonical_edges(edges):
    return tuple(sorted(tuple(sorted(edge)) for edge in edges))


def enumerate_contraction_classes(labels) -> list[ContractionClass]:
    """All cross-interval pairings over the intervals ``labels``, canonically
    ordered.

    The result has exactly crossing_count(len(labels)) elements; classes are
    sorted lexicographically on their sorted edge lists so downstream
    quadrature sums reduce in a reproducible order.
    """
    labels = tuple(labels)
    k = len(labels)
    if not 2 <= k <= CONTRACTION_ENUM_MAX:
        raise ValueError(
            f"enumeration supports 2 <= k <= {CONTRACTION_ENUM_MAX}, got {k}"
        )
    if len(set(labels)) != k:
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


#: Most windows one ``cycle_cover_sums`` pass takes; it costs O(2^k k^2) link products.
MAX_WINDOWS = 10


def cycle_cover_sums(windows, link) -> np.ndarray:
    """Sums over the cross-interval pairings of every subset of the distinct
    intervals ``windows``.

    A pairing is a union of cycles over intervals.  A cycle enters each of
    its intervals at one endpoint (side 0 or 1) and leaves at the other;
    ``link(side, gap)`` is the matrix for leaving interval a, entered at
    ``side``, towards interval b, whichever endpoint of b it meets, where
    gap = windows[a] - windows[b].  A cycle weighs the trace of its links'
    product, taken from its smallest interval entered at side 0; a pairing
    weighs the product of its cycles.

    Held-Karp paths from each smallest interval s, over (visited mask,
    current interval) with both entry sides summed into the next link, once
    per signed gap, give W[C], the total weight of the cycles through
    exactly the intervals in C.  The covers then follow F[0] = 1,
    F[S] = sum_{C ∋ min S} W[C] F[S - C].  Returns F as an array indexed by
    the bit mask S, bit a for windows[a]; with unit 1x1 links
    F[2^k - 1] = crossing_count(k).  Python ``float`` links are multiplied
    as floats, which gives the same values as 1x1 matrices without numpy's
    per-call overhead.
    """
    k = len(windows)
    size = 1 << k
    weights = [0.0] * size
    scalar = k > 1 and type(link(0, windows[0] - windows[1])) is float
    add, join = (operator.add, operator.mul) if scalar else (np.add, operator.matmul)
    start = float if scalar else np.asarray
    step = {  # leaving an interval entered at either side, by signed gap
        gap: add(link(0, gap), link(1, gap))
        for gap in {a - b for a in windows for b in windows if a != b}
    }
    for s in range(k - 1):
        # paths[mask][c]: the summed link products of the paths from s
        # through the intervals of mask, ending at c
        paths = {
            1 << s | 1 << b: {b: start(link(0, windows[s] - windows[b]))}
            for b in range(s + 1, k)
        }
        for mask in range(size):
            for c, product in paths.pop(mask, {}).items():
                back = step[windows[c] - windows[s]]
                weights[mask] += product * back if scalar else float(np.vdot(product, back.T))
                for b in range(s + 1, k):
                    if not mask >> b & 1:
                        grown = join(product, step[windows[c] - windows[b]])
                        ends = paths.setdefault(mask | 1 << b, {})
                        ends[b] = ends[b] + grown if b in ends else grown
    covers = [1.0] + [0.0] * (size - 1)
    for full in range(1, size):
        low = full & -full
        rest = sub = full ^ low
        total = 0.0
        while True:
            total += weights[sub | low] * covers[rest ^ sub]
            if not sub:
                break
            sub = (sub - 1) & rest
        covers[full] = total
    return np.array(covers)


def subset_sums(values) -> tuple[np.ndarray, np.ndarray]:
    """Zeta transforms over bit masks, (history, query): history[A] sums
    values[S] over S ⊆ A, query[A] over those S that hold A's highest bit.

    ``values`` has 2^k entries along its last axis, each row transformed on
    its own; one pass per bit, O(2^k k) additions.  At bit b the query sums
    skip the masks below 2^(b+1), whose highest bit is at most b.
    """
    history = np.array(values, dtype=float)
    size = history.shape[-1]
    if not size or size & (size - 1):
        raise ValueError(f"need 2^k values, got {size}")
    query = history.copy()
    bit = 1
    while bit < size:
        halves = history.reshape(-1, size // (2 * bit), 2, bit)
        halves[:, :, 1] += halves[:, :, 0]
        halves = query.reshape(-1, size // (2 * bit), 2, bit)
        halves[:, 1:, 1] += halves[:, 1:, 0]
        bit <<= 1
    return history, query
