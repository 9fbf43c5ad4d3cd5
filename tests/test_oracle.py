import dataclasses
import itertools
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.linalg import expm

from udwrm import (
    BitString,
    ModelError,
    exact_step_probability,
    exact_string_prob,
    iid_model,
    perturbative_corrections,
    propagator_consistency,
    random_model,
    random_weak_model,
    remainder_check,
    string_distribution,
)
from udwrm import oracle
from udwrm.oracle import FiniteRmModel


def test_step_unitary_is_unitary():
    m = random_model(env_dim=5, steps=3, seed=1)
    for k in range(3):
        u = m.step_unitary(k)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(10), atol=1e-12)


def test_string_distribution_normalizes():
    m = random_model(env_dim=4, steps=6, seed=2)
    probs = string_distribution(m, 6)
    assert probs.shape == (64,) and probs.dtype == float
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_exact_string_prob_chain_consistency():
    m = random_model(env_dim=4, steps=3, seed=3)
    # P(b1 b2) must marginalize to P(b1)
    for b1 in (0, 1):
        marg = sum(
            exact_string_prob(m, BitString(bits=(b1, b2))) for b2 in (0, 1)
        )
        assert marg == pytest.approx(
            exact_string_prob(m, BitString(bits=(b1,))), abs=1e-12
        )


def test_memory_breaks_exchangeability():
    m = random_model(env_dim=6, steps=4, seed=4)
    p01 = exact_string_prob(m, BitString(bits=(0, 1)))
    p10 = exact_string_prob(m, BitString(bits=(1, 0)))
    assert abs(p01 - p10) > 1e-6


def test_iid_model_is_exchangeable():
    m = iid_model(env_dim=4, steps=5, seed=5)
    base = BitString(bits=(1, 1, 0, 0, 0))
    ref = exact_string_prob(m, base)
    for perm in itertools.permutations(base.bits):
        assert exact_string_prob(m, BitString(bits=perm)) == pytest.approx(
            ref, abs=1e-13
        )
    # over a long record, from the breadth-first tree: a string's
    # probability depends on its number of ones only, up to the roundoff of
    # its 2 L rounded factors (spreads of 1.4e-15 to 3.3e-15 measured at
    # L = 16, d = 2, 4, 8, seeds 0-5)
    length = 16
    probs = string_distribution(iid_model(env_dim=4, steps=length, seed=5), length)
    by_count = {}
    for v, p in enumerate(probs):
        by_count.setdefault(bin(v).count("1"), []).append(p)
    assert sorted(by_count) == list(range(length + 1))
    for ones, ps in by_count.items():
        assert max(ps) - min(ps) <= 2 * length * np.finfo(float).eps * max(ps), ones


@pytest.mark.parametrize("env_dim", [1, 2, 8, 64])
@pytest.mark.parametrize(
    "make",
    [
        lambda d: random_weak_model(env_dim=d, steps=1, epsilon=1e-3, seed=d),
        lambda d: random_model(env_dim=d, steps=1, seed=d),
        lambda d: iid_model(env_dim=d, steps=1, seed=d),
    ],
    ids=["weak", "random", "iid"],
)
def test_corrections_are_central_differences_of_the_exact_step(make, env_dim):
    # q1 and q2 are the first derivative and half the second derivative of
    # the exact outcome probabilities in eps at eps = 0
    m = make(env_dim)
    h = 1e-4
    g_norm = float(np.linalg.norm(m.generators[0], 2))
    p, q1, q2 = perturbative_corrections(m, 0)
    plus, zero, minus = (exact_step_probability(m, 0, e) for e in (h, 0.0, -h))
    np.testing.assert_allclose(zero, p, rtol=0, atol=oracle.PROBABILITY_ROUNDOFF)
    np.testing.assert_allclose(q1, (plus - minus) / (2 * h), rtol=0, atol=1e-6 * g_norm)
    np.testing.assert_allclose(
        q2, (plus - 2 * zero + minus) / (2 * h * h), rtol=0, atol=1e-6 * g_norm**2
    )


def test_perturbative_corrections_stay_small_at_the_largest_environment():
    # the expansion needs only vectors of length 2d; one complex d^2 x d^2
    # intermediate, as an operator decomposition builds, is 256 MiB at d = 64
    m = random_weak_model(env_dim=oracle.MAX_ENV_DIM, steps=1, epsilon=1e-3, seed=3)
    tracemalloc.start()
    try:
        perturbative_corrections(m, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_perturbative_corrections_are_real_and_balanced():
    m = random_weak_model(env_dim=5, steps=2, epsilon=1e-3, seed=7)
    p, q1, q2 = perturbative_corrections(m, 0)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    # corrections only redistribute probability between the two outcomes
    assert q1.sum() == pytest.approx(0.0, abs=1e-10)
    assert q2.sum() == pytest.approx(0.0, abs=1e-10)


def test_perturbative_expansion_third_order_residual():
    m = random_weak_model(env_dim=5, steps=1, epsilon=1e-3, seed=8)
    p, q1, q2 = perturbative_corrections(m, 0)

    def residual(eps):
        exact = exact_step_probability(m, 0, eps)
        return abs(exact[1] - (p + eps * q1 + eps * eps * q2)[1])

    ratio = residual(1e-3) / residual(5e-4)
    assert 6.0 <= ratio <= 10.0


def test_propagator_consistency_small():
    m = random_model(env_dim=4, steps=2, seed=9)
    assert propagator_consistency(m, 0) < 1e-9


@pytest.mark.parametrize(
    "make",
    [
        lambda: random_model(env_dim=4, steps=2, seed=9),
        lambda: random_weak_model(env_dim=4, steps=2, epsilon=1e-3, seed=9),
    ],
    ids=["random", "weak"],
)
def test_propagator_consistency_detects_phase_error(monkeypatch, make):
    # a step unitary whose phase is off by 1e-8 must fail the 1e-9 check
    original = FiniteRmModel.step_unitary
    monkeypatch.setattr(
        FiniteRmModel, "step_unitary", lambda self, *a: original(self, *a) * np.exp(-1e-8j)
    )
    assert propagator_consistency(make(), 0) > 1e-9


@pytest.mark.parametrize("seed", [0, 9, 21])
def test_step_unitaries_match_scipy_expm(seed):
    for m in (
        random_model(env_dim=8, steps=3, seed=seed),
        random_weak_model(env_dim=8, steps=3, epsilon=1e-3, seed=seed),
        iid_model(env_dim=8, steps=3, seed=seed),
    ):
        base = np.kron(m.u_detector, np.eye(8))
        for k in range(3):
            ref = expm(-1j * m.epsilon * m.generators[k]) @ base
            np.testing.assert_allclose(m.step_unitary(k), ref, rtol=0, atol=1e-13)


def test_model_guards():
    m = random_model(env_dim=4, steps=2, seed=10)
    with pytest.raises(ModelError):
        exact_string_prob(m, BitString(bits=(0, 0, 0)))  # more bits than steps
    # an uncoupled model has no corrections, at any coupling
    mi = iid_model(env_dim=4, steps=2, seed=10)
    p, q1, q2 = perturbative_corrections(mi, 0)
    assert np.all(q1 == 0.0) and np.all(q2 == 0.0)
    for eps in (0.0, 1e-3, 0.5, 3.0):
        exact = exact_step_probability(mi, 0, eps)
        np.testing.assert_allclose(exact, p, rtol=0, atol=1e-15)


@dataclass
class TrajectoryState:
    """Environment vector plus the outcomes and probability accumulated so
    far along one branch of the measurement tree."""

    env: np.ndarray
    bits: tuple[int, ...] = ()
    probability: float = 1.0

    def __post_init__(self) -> None:
        if not abs(np.linalg.norm(self.env) - 1.0) <= 1e-10:
            raise ModelError("trajectory environment state must be normalized")


def step_distribution(m: FiniteRmModel, t: TrajectoryState, k: int):
    """Outcome distribution of step k and the post-measurement states.

    Returns (p0, p1, state_for_0, state_for_1); the post-states have the
    detector already reset to the ground state, so only the environment
    vector survives.  A branch of probability zero carries a None state.
    """
    d = m.env_dim
    u = m.step_unitary(k)
    psi = u @ np.kron(np.array([1.0, 0.0]), t.env)
    blocks = psi.reshape(2, d)
    probs = [float(np.sum(np.abs(blocks[b]) ** 2)) for b in (0, 1)]
    if not abs(probs[0] + probs[1] - 1.0) <= 1e-12:
        raise ModelError(f"step {k} outcome probabilities sum to {sum(probs)}")
    states = []
    for b in (0, 1):
        if probs[b] <= 0.0:
            states.append(None)
            continue
        env = blocks[b] / np.sqrt(probs[b])
        states.append(
            TrajectoryState(
                env=env, bits=t.bits + (b,), probability=t.probability * probs[b]
            )
        )
    return probs[0], probs[1], states[0], states[1]


def step_chain_probabilities(m, length):
    """String probabilities as products of step_distribution outcomes along
    each branch, walked depth-first with a fresh step unitary per step."""
    out = {}

    def walk(t, k, value):
        if k == length:
            out[value] = t.probability
            return
        _, _, s0, s1 = step_distribution(m, t, k)
        walk(s0, k + 1, 2 * value)
        walk(s1, k + 1, 2 * value + 1)

    walk(TrajectoryState(env=m.env_initial.astype(complex)), 0, 0)
    return out


@pytest.mark.parametrize(
    "make",
    [
        lambda: random_model(env_dim=4, steps=8, seed=11),
        lambda: random_weak_model(env_dim=4, steps=8, epsilon=0.05, seed=12),
        lambda: iid_model(env_dim=4, steps=8, seed=13),
    ],
    ids=["random", "weak", "iid"],
)
def test_string_distribution_matches_step_chain(make):
    m = make()
    tree = string_distribution(m, 8)
    chain = step_chain_probabilities(m, 8)
    assert tree.shape == (256,) and sorted(chain) == list(range(256))
    for v, p in chain.items():
        assert tree[v] == pytest.approx(p, abs=1e-15)
        assert exact_string_prob(m, BitString.from_int(v, 8)) == pytest.approx(p, abs=1e-15)


def test_string_distribution_normalizes_at_length_16():
    m = random_model(env_dim=4, steps=16, seed=14)
    probs = string_distribution(m, 16)
    assert probs.shape == (1 << 16,)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_string_distribution_batches_agree(monkeypatch):
    m = random_model(env_dim=4, steps=7, seed=17)
    whole = string_distribution(m, 7)
    monkeypatch.setattr("udwrm.oracle.TREE_BLOCK", 12)
    batched = string_distribution(m, 7)
    np.testing.assert_allclose(batched, whole, rtol=0, atol=1e-15)


@pytest.mark.parametrize("env_dim, length", [(8, 11), (64, 8)])
def test_default_batches_agree_with_one_batch(monkeypatch, env_dim, length):
    m = random_model(env_dim=env_dim, steps=length, seed=18)
    batched = string_distribution(m, length)
    monkeypatch.setattr("udwrm.oracle.TREE_BLOCK", 1 << 30)
    whole = string_distribution(m, length)
    assert batched.shape == whole.shape == (1 << length,)
    np.testing.assert_allclose(batched, whole, rtol=0, atol=1e-15)


@pytest.mark.parametrize("env_dim, length", [(8, 11), (64, 8)])
def test_tree_products_stay_within_tree_block(monkeypatch, env_dim, length):
    # a larger product can wake the BLAS thread pool, which costs more than
    # the product itself
    sizes = []
    children = oracle._children

    def counted(m, k, amps, probs):
        sizes.append(amps.size)
        return children(m, k, amps, probs)

    monkeypatch.setattr(oracle, "_children", counted)
    probs = string_distribution(random_model(env_dim=env_dim, steps=length, seed=19), length)
    assert probs.shape == (1 << length,)
    assert max(sizes) <= oracle.TREE_BLOCK
    # every step runs in batches, and the last steps in more than one
    assert len(sizes) > length


@pytest.mark.parametrize("length", [0, -1, 6])
def test_string_length_outside_the_model_is_rejected(length):
    m = random_model(env_dim=2, steps=5, seed=20)
    with pytest.raises(ModelError, match="length"):
        string_distribution(m, length)


class LeakyModel(FiniteRmModel):
    """Step unitaries scaled by 1 + 1e-9: each passes the unitarity check
    before scaling, so only the per-step probability check can catch it."""

    def step_unitary(self, k):
        return super().step_unitary(k) * (1.0 + 1e-9)


def test_non_unitary_step_is_caught_by_the_tree():
    m = random_model(env_dim=4, steps=5, seed=15)
    leaky = LeakyModel(*(getattr(m, f.name) for f in dataclasses.fields(m)))
    with pytest.raises(ModelError, match="outcome probabilities"):
        string_distribution(leaky, 5)
    with pytest.raises(ModelError, match="outcome probabilities"):
        exact_string_prob(leaky, BitString(bits=(0, 1, 0)))


def test_step_unitaries_built_once_per_model(monkeypatch):
    m = random_model(env_dim=4, steps=6, seed=16)
    calls = []
    original = FiniteRmModel.step_unitary
    monkeypatch.setattr(
        FiniteRmModel, "step_unitary", lambda self, k: calls.append(k) or original(self, k)
    )
    string_distribution(m, 6)
    exact_string_prob(m, BitString(bits=(1, 0, 1)))
    assert calls == list(range(6))


def test_remainder_check_passes_and_a_wrong_q2_fails_on_seeds_0_to_399():
    # the CLI's oracle model (env_dim 8, step 0, eps 1e-3); at seeds 23, 303,
    # 307 and 347 the residual's cubic coefficient is accidentally small and
    # the former eps-halving ratio left 8 +- 1.6
    mutant_fails = []
    for seed in range(400):
        mw = random_weak_model(env_dim=8, steps=2, epsilon=1e-3, seed=seed)
        p, q1, q2 = perturbative_corrections(mw, 0)
        check = remainder_check(mw, 0, 1e-3, corrections=(p, q1, q2))
        assert check.passed, (seed, check)
        mutant = remainder_check(mw, 0, 1e-3, corrections=(p, q1, 1.01 * q2))
        mutant_fails.append(not mutant.passed)
    assert all(mutant_fails)


def test_remainder_check_differences_halve_and_double():
    mw = random_weak_model(env_dim=8, steps=2, epsilon=1e-3, seed=1)
    p, q1, q2 = perturbative_corrections(mw, 0)
    for scale, ratio in ((1.0, 0.5), (1.01, 2.0)):
        check = remainder_check(mw, 0, 1e-3, corrections=(p, q1, scale * q2))
        s = [r / e**3 for r, e in zip(check.residuals, check.epsilons)]
        d = np.diff(s)
        np.testing.assert_allclose(d[1:] / d[:-1], ratio, rtol=0.1)
    assert check.contraction == pytest.approx(2.0, rel=0.01)
    assert not check.passed
