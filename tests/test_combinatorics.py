import math
import os
import subprocess
import sys

import numpy as np
import pytest

import udwrm
from udwrm.combinatorics import (
    crossing_count,
    cycle_cover_sums,
    double_factorial,
    enumerate_contraction_classes,
    partition_term_count,
    restricted_partitions,
    subset_sums,
    wick_term_count,
)


def test_wick_term_count_double_factorial():
    for n in range(1, 9):
        assert wick_term_count(n) == double_factorial(2 * n - 1)
    assert wick_term_count(2) == 3
    assert wick_term_count(3) == 15


def test_wick_term_count_is_exact_past_twenty():
    assert wick_term_count(21) == double_factorial(41)


def test_crossing_count_base_cases():
    assert crossing_count(0) == 1
    assert crossing_count(1) == 0
    assert crossing_count(2) == 2


def test_crossing_count_recurrence():
    for k in range(2, 12):
        assert crossing_count(k) == 2 * (k - 1) * (
            crossing_count(k - 1) + crossing_count(k - 2)
        )


def test_crossing_count_deep_call_from_cold_start():
    # a fresh interpreter has nothing cached, so a recursive form would
    # need 1,500 nested frames here
    code = "from udwrm import crossing_count; print(crossing_count(1500) % 1000003)"
    src = os.path.dirname(os.path.dirname(udwrm.__file__))
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert int(out.stdout) == crossing_count(1500) % 1000003


def test_restricted_partition_counts():
    # parts >= 2 only
    expected = {2: 1, 3: 1, 4: 2, 5: 2, 6: 4, 7: 4, 8: 7}
    for k, count in expected.items():
        assert len(restricted_partitions(k)) == count


def test_partition_term_counts_k4():
    by_parts = {p.parts: partition_term_count(p) for p in restricted_partitions(4)}
    assert by_parts[(4,)] == 48
    assert by_parts[(2, 2)] == 12
    assert sum(by_parts.values()) == crossing_count(4)


def test_partition_term_counts_sum_to_crossing_count():
    for k in range(2, 9):
        total = sum(partition_term_count(p) for p in restricted_partitions(k))
        assert total == crossing_count(k)


def test_decomposition_identity():
    # sum_k C(n, k) c(k) = (2n-1)!!  for the full Wick expansion
    for n in range(0, 13):
        total = sum(math.comb(n, k) * crossing_count(k) for k in range(n + 1))
        assert total == wick_term_count(n)


def test_enumerate_classes_count_matches_multiplicity():
    for k in (2, 3, 4):
        classes = enumerate_contraction_classes(range(k))
        assert len(classes) == crossing_count(k)


@pytest.mark.parametrize("k", range(2, 9))
def test_cycle_cover_sums_count_pairings_of_every_subset(k):
    covers = cycle_cover_sums(range(k), lambda side, gap: np.ones((1, 1)))
    assert covers[-1] == crossing_count(k)
    for subset, count in enumerate(covers):
        assert count == crossing_count(bin(subset).count("1")), subset


@pytest.mark.parametrize("k", [0, 1, 2, 5, 10])
def test_cycle_cover_sums_float_links_match_1x1_links(k):
    # the float path multiplies in the same order as the 1x1 matrix path,
    # so every sum is the same double; side-dependent links tell the
    # entry sides apart, and windows at 2^i - 1 have distinct signed gaps,
    # so links drawn at random per gap are drawn at random per pair
    windows = [(1 << i) - 1 for i in range(k)]
    span = max(windows, default=0)
    links = np.random.default_rng(k).uniform(-1.0, 1.0, size=(2, 2 * span + 1))
    matrices = cycle_cover_sums(windows, lambda side, gap: links[side, gap + span, None, None])
    floats = cycle_cover_sums(windows, lambda side, gap: float(links[side, gap + span]))
    np.testing.assert_array_equal(floats, matrices)
    assert floats.shape == (1 << k,)


@pytest.mark.parametrize("k", [0, 1, 3, 6])
def test_subset_sums_is_the_zeta_transform(k):
    # history sums over every submask; query sums over the submasks that
    # hold the mask's highest bit (mask 0 has none and keeps its value)
    values = np.random.default_rng(k).normal(size=1 << k)
    history = [
        math.fsum(values[s] for s in range(1 << k) if s & a == s) for a in range(1 << k)
    ]
    query = [values[0]] + [
        math.fsum(values[s] for s in range(1 << k) if s & a == s and s >> (a.bit_length() - 1))
        for a in range(1, 1 << k)
    ]
    sums, query_sums = subset_sums(values)
    np.testing.assert_allclose(sums, history, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(query_sums, query, rtol=1e-12, atol=1e-12)
    # each row of a stack is transformed on its own, bit for bit
    rows = np.stack([values, values[::-1]])
    stacked = subset_sums(rows)
    for row, history_row, query_row in zip(rows, *stacked):
        for out, alone in zip((history_row, query_row), subset_sums(row)):
            np.testing.assert_array_equal(out, alone)
    with pytest.raises(ValueError):
        subset_sums(np.zeros(3))


def test_enumerate_classes_edges_cover_all_intervals():
    for c in enumerate_contraction_classes((0, 2, 5)):
        touched = {i for e in c.edges for (i, _) in e}
        assert touched == {0, 2, 5}


def test_invalid_arguments():
    with pytest.raises(ValueError):
        crossing_count(-1)
    with pytest.raises(ValueError):
        wick_term_count(-2)
