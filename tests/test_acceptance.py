"""End-to-end acceptance checks: one test per published-result criterion.

Each test pins a documented tolerance; the shared session fixtures in
conftest.py provide the production-accuracy response models so expensive
correction integrals are computed once and reused.
"""

import itertools
import math

import numpy as np
import pytest

from udwrm import (
    BitString,
    CorrectionModel,
    GammaProfile,
    HistoryRecord,
    Posterior,
    born_string_prob,
    crossing_count,
    delta_p_first_order,
    exact_step_probability,
    exact_string_prob,
    iid_model,
    loose_bounds,
    n_limit,
    perturbative_corrections,
    q_closed_accelerated,
    q_closed_inertial,
    q_direct,
    random_model,
    random_weak_model,
    restricted_partitions,
    rm_string_prob,
    string_distribution,
    tight_bounds,
    update_posterior,
    wick_term_count,
)
from udwrm.combinatorics import partition_term_count


def test_criterion_01_combinatorics_golden_values():
    assert [len(restricted_partitions(k)) for k in range(2, 9)] == [1, 1, 2, 2, 4, 4, 7]
    assert [crossing_count(k) for k in range(2, 9)] == [
        2, 8, 60, 544, 6040, 79008, 1190672,
    ]
    by_parts = {p.parts: partition_term_count(p) for p in restricted_partitions(4)}
    assert by_parts[(4,)] == 48
    assert by_parts[(2, 2)] == 12
    assert wick_term_count(2) == 3
    assert wick_term_count(3) == 15


def test_criterion_02_decomposition_identity():
    for n in range(0, 13):
        total = sum(
            math.comb(n, k) * crossing_count(k) for k in range(0, n + 1)
        )
        assert total == wick_term_count(n)


def test_criterion_03_horizon_reproduction():
    assert n_limit(0.1, 0.01) == 55
    # published horizon axis: row n reports the bound certified before the
    # n-th outcome, i.e. the (n-1)-window bound
    first_exceeding = next(
        n for n in range(2, 60) if loose_bounds(n - 1, 0.1, 0.01).upper > 1.0
    )
    assert first_exceeding == 56


def test_criterion_04_closed_form_vs_quadrature(inertial_kernel, schedule, detector):
    ref = q_closed_inertial(detector, 1.0)
    direct = q_direct(inertial_kernel, schedule, detector, truncated=False)
    assert abs(direct.value - ref.value) / ref.value < 1e-6


def test_criterion_05_accelerated_consistency(accelerated_kernel, schedule, detector):
    qi = q_closed_inertial(detector, 1.0).value
    qa_small = q_closed_accelerated(detector, 1.0, 1e-3).value
    assert abs(qa_small - qi) / qi < 1e-6
    qa = q_closed_accelerated(detector, 1.0, 0.1).value
    direct = q_direct(accelerated_kernel, schedule, detector, truncated=False).value
    assert abs(qa - direct) / qa < 1e-4


def test_criterion_06_bound_containment(full_model, inertial_kernel, schedule):
    gp = GammaProfile.from_kernel(inertial_kernel, schedule)
    q = full_model.q
    histories = []
    for query in range(8):
        histories.append(HistoryRecord(excitations=(), query=query))
        for size in (1, 2):
            for exc in itertools.combinations(range(query), size):
                histories.append(HistoryRecord(excitations=exc, query=query))
    assert len(histories) == 92
    for h in histories:
        p = full_model.conditional_excitation(h)
        tight = tight_bounds(h.excitations, h.query, q, gp)
        loose = loose_bounds(h.order, q, gp.gamma)
        assert loose.lower <= tight.lower <= tight.upper <= loose.upper
        slack = 10.0 * p.abs_error
        assert tight.lower - slack <= p.value <= tight.upper + slack, h


def test_criterion_07_string_normalization(full_model):
    total, err = 0.0, 0.0
    for v in range(16):
        r = rm_string_prob(BitString.from_int(v, 4), full_model)
        total += r.value
        err += r.abs_error
    assert abs(total - 1.0) <= max(10.0 * err, 1e-12)


def test_criterion_08a_inertial_corrections_nonpositive(full_model):
    """Sign structure of the inertial length-4 memory corrections.

    The chain law normalizes exactly (criterion 07), so with c_v the
    log-ratio correction of string v, sum_v P_born(v) * expm1(c_v) = 0:
    the corrections cannot all be non-positive unless every one is zero.
    They are not zero, because each two-window fraction f is a sum of
    squared magnitudes of cross-window amplitudes and hence positive.
    What the method does fix is the sign of each class of strings:

    - no excitation, or only the last outcome excited: no factor has a
      history, so c = 0 exactly;
    - one excitation before the last window: only the later 0-factors
      carry a history, each adding log1p(-q f / (1 - q)), so c < 0;
    - two or more excitations: each excited factor after the first gains
      log1p(f), which outweighs the O(q f) loss of the 0-factors, so c > 0.

    Strict signs must hold beyond 10x the reported log-ratio error.
    """
    length = 4
    for v in range(1 << length):
        b = BitString.from_int(v, length)
        r = rm_string_prob(b, full_model)
        c = r.log_ratio_correction
        bar = 10.0 * r.abs_error / r.value
        if b.ones in ((), (length,)):
            assert c == 0.0, (str(b), c)
        elif b.popcount == 1:
            assert c < -bar, (str(b), c, bar)
        else:
            assert c > bar, (str(b), c, bar)


def test_criterion_08b_accelerated_adjacent_ordering(full_accelerated_model):
    corr = {
        v: rm_string_prob(
            BitString.from_int(v, 4), full_accelerated_model
        ).log_ratio_correction
        for v in (3, 5, 6, 9, 10, 12)
    }
    adjacent = [corr[v] for v in (3, 6, 12)]
    separated = [corr[v] for v in (5, 9, 10)]
    assert min(adjacent) > max(separated)


def test_criterion_09_oracle_suite():
    m = random_model(env_dim=8, steps=10, seed=0)
    total = sum(string_distribution(m, 10).values())
    assert abs(total - 1.0) < 1e-10

    for seed in range(10):
        mw = random_weak_model(env_dim=6, steps=1, epsilon=1e-3, seed=seed)
        p, q1, q2 = perturbative_corrections(mw, 0, mw.env_initial)

        def residual(eps):
            exact = exact_step_probability(mw, 0, mw.env_initial, eps)
            return abs(exact[1] - (p + eps * q1 + eps * eps * q2)[1])

        ratio = residual(1e-3) / residual(5e-4)
        assert 6.4 <= ratio <= 9.6, seed  # 8 +/- 20%

    mi = iid_model(env_dim=4, steps=5, seed=1)
    base = BitString(bits=(1, 0, 1, 0, 0))
    ref = exact_string_prob(mi, base)
    for perm in set(itertools.permutations(base.bits)):
        assert exact_string_prob(mi, BitString(bits=perm)) == pytest.approx(
            ref, abs=1e-13
        )


def test_criterion_10_bayes_suite():
    def zero(qgrid, b):
        return np.zeros_like(qgrid)

    m0 = CorrectionModel(coupling_epsilon=0.0, delta_p=zero)
    post = Posterior()
    rng = np.random.default_rng(0)
    for _ in range(1000):
        bits = tuple(int(x) for x in rng.random(4) < 0.1)
        post = update_posterior(post, BitString(bits=bits), m0)
    np.testing.assert_allclose(post.h1, post.h2, atol=1e-12)
    assert abs(post.total_mass() - 1.0) < 1e-9

    def total_residual(eps):
        mw = random_weak_model(env_dim=5, steps=4, epsilon=eps, seed=2)
        q = perturbative_corrections(mw, 0, mw.env_initial)[0][1]
        total = 0.0
        for v in range(16):
            b = BitString.from_int(v, 4)
            steps = [
                perturbative_corrections(mw, k, mw.env_initial)[1][bit]
                for k, bit in enumerate(b.bits)
            ]
            first_order = delta_p_first_order(q, steps, b)
            exact_rate = (exact_string_prob(mw, b) - born_string_prob(q, b)) / eps
            total += abs(first_order - exact_rate)
        return total

    # the first-order model reproduces (exact - Born)/eps up to an O(eps)
    # remainder: the summed residual must shrink linearly with eps
    eps = 1e-2
    r1, r2 = total_residual(eps), total_residual(eps / 2)
    assert r1 < 1.0
    assert 1.6 <= r1 / r2 <= 2.4
