import math
import random

import numpy as np
import pytest

from udwrm import (
    BitString,
    CorrectionModel,
    DegenerateEvidenceError,
    Posterior,
    delta_p_first_order,
    fapp_verdict,
    posterior_trace,
    update_posterior,
)
from udwrm.bayes import MASS_HIGH, MASS_LOW


def zero_delta(q, b):
    return np.zeros_like(q)


def test_uniform_prior_is_normalized():
    p = Posterior()
    assert p.total_mass() == pytest.approx(1.0)
    assert p.family_mass(1) == pytest.approx(0.5)
    assert p.family_mass(2) == pytest.approx(0.5)


def test_zero_correction_keeps_families_identical():
    m = CorrectionModel(coupling_epsilon=0.0, delta_p=zero_delta)
    p = Posterior()
    for bits in ((0, 1, 0), (1, 1, 0, 0), (0,)):
        p = update_posterior(p, BitString(bits=bits), m)
    np.testing.assert_allclose(p.h1, p.h2, atol=1e-14)
    assert p.family_mass(1) == pytest.approx(0.5, abs=1e-12)


def test_update_concentrates_on_true_q():
    m = CorrectionModel(coupling_epsilon=0.0, delta_p=zero_delta)
    p = Posterior()
    rng = np.random.default_rng(0)
    q_true = 0.2
    for _ in range(50):
        bits = tuple(int(x) for x in rng.random(8) < q_true)
        p = update_posterior(p, BitString(bits=bits), m)
    q_map = p.q[np.argmax(p.h1 + p.h2)]
    assert q_map == pytest.approx(q_true, abs=0.03)


def test_positive_correction_shifts_mass_to_h2():
    def delta(q, b):
        # favor the corrected family whenever a 1 is observed
        return np.full_like(q, 0.5 if b.popcount else -0.5)

    m = CorrectionModel(coupling_epsilon=0.1, delta_p=delta)
    p = Posterior()
    p = update_posterior(p, BitString(bits=(1, 1, 1)), m)
    assert p.family_mass(2) > p.family_mass(1)
    assert p.total_mass() == pytest.approx(1.0)


def test_degenerate_evidence_raises():
    def impossible(q, b):
        return -np.ones_like(q) * 1e6

    m = CorrectionModel(coupling_epsilon=1.0, delta_p=impossible)
    grid = Posterior().q.size
    p = Posterior(h1=np.zeros(grid), h2=np.ones(grid))
    with pytest.raises(DegenerateEvidenceError):
        update_posterior(p, BitString(bits=(1,)), m)


def test_fapp_verdict_threshold():
    m = CorrectionModel(coupling_epsilon=1e-2, delta_p=zero_delta)
    b = BitString(bits=(1, 0))
    # |delta|/P >= kappa / eps => distinguishable
    assert fapp_verdict(0.1, b, m, kappa=1e6) == "indistinguishable"

    def big(q, b):
        return np.ones_like(q) * 1e3

    m2 = CorrectionModel(coupling_epsilon=1e-2, delta_p=big)
    assert fapp_verdict(0.1, b, m2, kappa=1e-4) == "h2_selected"


def test_delta_p_first_order_scalar_and_grid():
    b = BitString(bits=(1, 0, 1))
    steps = [0.01, -0.02, 0.005]
    q = 0.1
    expected = (
        0.01 * q * (1 - q)
        + (-0.02) * q * q
        + 0.005 * q * (1 - q)
    )
    assert delta_p_first_order(q, steps, b) == pytest.approx(expected)
    grid = np.linspace(0.05, 0.2, 5)
    out = delta_p_first_order(grid, steps, b)
    assert out.shape == grid.shape


def delta_p_term_by_term(q, steps, b):
    """The first-order correction as its definition reads: each step's
    correction times the Born product over every other step."""
    q = np.asarray(q, dtype=float)
    total = np.zeros_like(q)
    for j, correction in enumerate(steps):
        term = np.full_like(q, correction)
        for j2, bit in enumerate(b.bits):
            if j2 != j:
                term = term * (q if bit else 1.0 - q)
        total = total + term
    return total


@pytest.mark.parametrize("length", [1, 2, 7, 50, 200])
def test_delta_p_first_order_matches_the_term_by_term_sum(length):
    rng = random.Random(length)
    q = Posterior().q
    for _ in range(3):
        b = BitString(bits=tuple(int(rng.random() < 0.3) for _ in range(length)))
        steps = [rng.uniform(-1e-2, 1e-2) for _ in range(length)]
        # the sums differ in rounding only: within 1e-14 of the summed
        # magnitudes of their terms (9.5e-16 measured at these lengths), or
        # 1e-300 where the terms near the subnormal range
        scale = delta_p_term_by_term(q, [abs(c) for c in steps], b)
        err = np.abs(delta_p_first_order(q, steps, b) - delta_p_term_by_term(q, steps, b))
        assert np.all(err <= 1e-14 * scale + 1e-300)
        for q0 in (0.0, 1.0):
            exact = float(delta_p_term_by_term(q0, steps, b))
            assert delta_p_first_order(q0, steps, b) == exact


def test_delta_p_first_order_length_mismatch():
    with pytest.raises(ValueError):
        delta_p_first_order(0.1, [0.01], BitString(bits=(1, 0)))


def update_posterior_reference(p: Posterior, b: BitString, m: CorrectionModel) -> Posterior:
    """The one-step update as it stood before ``posterior_trace``: fresh
    likelihoods, trapezoid evidence and a new Posterior on every call."""
    n = b.popcount
    zeros = b.length - n
    like1 = p.q**n * (1.0 - p.q) ** zeros
    like2 = like1 + m.coupling_epsilon * np.asarray(m.delta_p(p.q, b), dtype=float)
    like2 = np.clip(like2, 0.0, None)  # an order-eps model can dip below zero
    new1 = p.h1 * like1
    new2 = p.h2 * like2
    evidence = float(np.trapezoid(new1, p.q) + np.trapezoid(new2, p.q))
    if evidence <= 0.0:
        raise DegenerateEvidenceError(
            "all hypotheses assign zero probability to the observed string"
        )
    return Posterior(new1 / evidence, new2 / evidence, grid_size=len(p.q))


def sequential_reference(post: Posterior, strings, m: CorrectionModel):
    """The CLI's former per-chunk loop, with trapezoid masses."""
    rows = []
    for b in strings:
        post = update_posterior_reference(post, b, m)
        mass1 = float(np.trapezoid(post.h1, post.q))
        mass2 = float(np.trapezoid(post.h2, post.q))
        rows.append((mass1, mass2, mass1 + mass2))
    return post, rows


def record(seed, outcomes=4000, rate=0.1):
    """A Born-like outcome record, drawn as the benchmark's bayes record is."""
    rng = random.Random(seed)
    return [int(rng.random() < rate) for _ in range(outcomes)]


def chunked(bits, chunk):
    return [BitString(bits=tuple(bits[i : i + chunk])) for i in range(0, len(bits), chunk)]


def step_model(eps, steps):
    def delta(q, b):
        return delta_p_first_order(q, steps[: b.length], b)

    return CorrectionModel(coupling_epsilon=eps, delta_p=delta)


@pytest.mark.parametrize(
    "chunk, eps, steps",
    [(1, 1e-3, [1e-3]), (3, 0.2, [0.05, -0.08, 0.03])],
    ids=["chunk1", "chunk3"],
)
def test_trace_matches_sequential_reference(chunk, eps, steps):
    m = step_model(eps, steps)
    strings = chunked(record(seed=2, outcomes=4000 if chunk == 1 else 900), chunk)
    ref_post, ref_rows = sequential_reference(Posterior(), strings, m)
    post, rows = posterior_trace(Posterior(), iter(strings), m)
    assert len(rows) == len(ref_rows) == len(strings)
    np.testing.assert_allclose(rows, ref_rows, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(post.h1, ref_post.h1, rtol=1e-12, atol=1e-300)
    np.testing.assert_allclose(post.h2, ref_post.h2, rtol=1e-12, atol=1e-300)
    assert max(abs(total - 1.0) for _, _, total in rows) <= 1e-12
    # the corrected family gets a different posterior mass
    assert rows[-1][0] != rows[-1][1]


def test_trace_matches_sequential_reference_at_tiny_likelihoods():
    # 200-outcome strings at rate 0.1: each string's Born likelihood is
    # below 1e-50 on most of the grid, and the final densities below 1e-250
    def delta(q, b):
        return 0.3 * np.cos(7.0 * q) * q**b.popcount * (1.0 - q) ** (b.length - b.popcount)

    m = CorrectionModel(coupling_epsilon=0.5, delta_p=delta)
    strings = chunked(record(seed=6, outcomes=4000), 200)
    q = Posterior().q
    like = [q**b.popcount * (1.0 - q) ** (b.length - b.popcount) for b in strings]
    assert all(np.mean(row < 1e-50) > 0.5 for row in like)
    ref_post, ref_rows = sequential_reference(Posterior(), strings, m)
    post, rows = posterior_trace(Posterior(), strings, m)
    assert np.mean(post.h1 < 1e-250) > 0.5 and np.mean(post.h2 < 1e-250) > 0.5
    np.testing.assert_allclose(rows, ref_rows, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(post.h1, ref_post.h1, rtol=1e-12, atol=1e-300)
    np.testing.assert_allclose(post.h2, ref_post.h2, rtol=1e-12, atol=1e-300)
    assert rows[-1][0] != rows[-1][1]


def test_trace_matches_sequential_reference_when_the_mass_falls_below_its_floor():
    # a prior near q = 0 and a run of ones: each one has evidence near the
    # prior mean of q, so the undivided mass falls below MASS_LOW.  Every
    # prior entry is a normal double: an entry grown from a subnormal one
    # (at (1 - q)^199, say) is off by up to 1e-5 in the reference and in the
    # trace alike
    q = Posterior().q
    density = (1.0 - q) ** 99
    density /= np.trapezoid(density, q)
    assert density[-2] > np.finfo(float).tiny
    prior = Posterior(h1=0.5 * density, h2=0.5 * density)
    strings = chunked([1] * 30, 1)
    assert np.trapezoid(density * q ** len(strings), q) < 1e-6 * MASS_LOW
    m = step_model(1e-3, [1e-3])
    ref_post, ref_rows = sequential_reference(prior, strings, m)
    post, rows = posterior_trace(prior, strings, m)
    np.testing.assert_allclose(rows, ref_rows, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(post.h1, ref_post.h1, rtol=1e-12, atol=1e-300)
    np.testing.assert_allclose(post.h2, ref_post.h2, rtol=1e-12, atol=1e-300)
    assert rows[-1][0] != rows[-1][1]


def test_trace_matches_sequential_reference_when_the_mass_rises_above_its_ceiling():
    # a correction that lifts the corrected family's likelihood above 20 on
    # every string, so its undivided mass grows past MASS_HIGH, and would
    # overflow by the end of the record.  The Born family starts at zero, as
    # any mass it had would fall below the double range first
    boost = 20.0
    m = CorrectionModel(coupling_epsilon=1.0, delta_p=lambda q, b: np.full_like(q, boost))
    strings = chunked(record(seed=8, outcomes=300), 1)
    assert 0.5 * boost**10 > MASS_HIGH
    assert len(strings) * math.log(boost) > math.log(np.finfo(float).max)
    grid = Posterior().q.size
    prior = Posterior(h1=np.zeros(grid), h2=np.ones(grid))
    ref_post, ref_rows = sequential_reference(prior, strings, m)
    post, rows = posterior_trace(prior, strings, m)
    np.testing.assert_allclose(rows, ref_rows, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(post.h1, ref_post.h1, rtol=1e-12, atol=1e-300)
    np.testing.assert_allclose(post.h2, ref_post.h2, rtol=1e-12, atol=1e-300)
    assert not np.any(post.h1)


def test_nan_correction_raises_value_error():
    m = CorrectionModel(coupling_epsilon=0.1, delta_p=lambda q, b: np.full_like(q, np.nan))
    with pytest.raises(ValueError, match="posterior mass"):
        posterior_trace(Posterior(), chunked(record(seed=1, outcomes=10), 2), m)


def test_update_posterior_is_a_one_string_trace():
    m = step_model(0.2, [0.05, -0.08])
    b = BitString(bits=(1, 0))
    post = update_posterior(Posterior(), b, m)
    ref = update_posterior_reference(Posterior(), b, m)
    np.testing.assert_allclose(post.h1, ref.h1, rtol=1e-13)
    np.testing.assert_allclose(post.h2, ref.h2, rtol=1e-13)


def test_trace_leaves_the_prior_unchanged():
    grid = Posterior().q.size
    h1 = np.linspace(0.0, 1.0, grid)
    prior = Posterior(h1=h1, h2=h1.copy())
    before1, before2 = prior.h1.copy(), prior.h2.copy()
    post, _ = posterior_trace(prior, chunked(record(seed=5, outcomes=50), 1), step_model(1e-2, [0.1]))
    np.testing.assert_array_equal(prior.h1, before1)
    np.testing.assert_array_equal(prior.h2, before2)
    assert post.h1 is not prior.h1 and post.h2 is not prior.h2


def test_zero_prior_family_stays_exactly_zero():
    grid = Posterior().q.size
    prior = Posterior(h1=np.zeros(grid), h2=np.ones(grid))
    post, rows = posterior_trace(prior, chunked(record(seed=3, outcomes=300), 2), step_model(0.1, [0.2, -0.1]))
    assert not np.any(post.h1)
    assert all(mass1 == 0.0 for mass1, _, _ in rows)
    assert post.family_mass(2) == pytest.approx(1.0, abs=1e-12)


def test_degenerate_evidence_raises_at_the_reference_step():
    def forbid_two_ones(q, b):
        # the corrected family cannot produce the string (1, 1)
        return np.full_like(q, -1e6 if b.bits == (1, 1) else 0.0)

    m = CorrectionModel(coupling_epsilon=1.0, delta_p=forbid_two_ones)
    grid = Posterior().q.size
    prior = Posterior(h1=np.zeros(grid), h2=np.ones(grid))
    strings = [BitString(bits=bits) for bits in ((0, 1), (1, 0), (0, 0), (1, 1), (0, 1))]

    ref, ref_steps = prior, 0
    with pytest.raises(DegenerateEvidenceError):
        for b in strings:
            ref = update_posterior_reference(ref, b, m)
            ref_steps += 1

    consumed = []

    def feed():
        for b in strings:
            consumed.append(b)
            yield b

    with pytest.raises(DegenerateEvidenceError):
        posterior_trace(prior, feed(), m)
    assert len(consumed) == ref_steps + 1 == 4


def test_delta_p_runs_once_per_distinct_string():
    calls = []

    def counted(q, b):
        calls.append(b)
        return delta_p_first_order(q, [1e-3, 2e-3, -1e-3][: b.length], b)

    m = CorrectionModel(coupling_epsilon=1e-2, delta_p=counted)
    for chunk in (1, 3):
        calls.clear()
        strings = chunked(record(seed=4, outcomes=600), chunk)
        posterior_trace(Posterior(), iter(strings), m)
        assert len(calls) == len(set(calls)) == len(set(strings))
    assert len(set(chunked(record(seed=4, outcomes=600), 1))) == 2


def test_posterior_masses_are_trapezoid_sums():
    rng = np.random.default_rng(1)
    grid = 257
    q = np.linspace(0.0, 1.0, grid)
    h1, h2 = rng.random(grid), rng.random(grid)
    scale = np.trapezoid(h1, q) + np.trapezoid(h2, q)
    p = Posterior(h1=h1 / scale, h2=h2 / scale, grid_size=grid)
    assert p.family_mass(1) == pytest.approx(np.trapezoid(h1 / scale, q), rel=1e-14)
    assert p.total_mass() == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError):
        Posterior(grid_size=1)
