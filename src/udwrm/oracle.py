"""Exact state-vector oracle for the repeated-measurement protocol on a
finite detector+environment system.

A two-level detector is coupled to a d-dimensional environment.  Step k
applies U_k(eps) = exp(-i eps G_k)(U (x) I), with G_k a hermitian generator
on the product space and U a detector-only unitary (the identity unless
given), then projects the detector on the recorded outcome and resets it to
the ground state.  Every constructor builds this one model type, so the
measurement tree, the eps-expansion of a step and the propagator check all
read the same G_k and U.  This gives brute-force ground truth for the
perturbative outcome formulas and for the Bayesian machinery, at dimensions
where everything is cheap.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .strings import BitString

MAX_ENV_DIM = 64
MAX_STRING_LENGTH = 20
HERMITICITY_TOL = 1e-12
UNITARITY_TOL = 1e-10
# children's probabilities must sum to their branch's, relative to it
BRANCH_TOL = 1e-12
# complex amplitudes evolved per batch of branches in the measurement tree.
# It bounds the memory of a batch and the size of each (branches, d) @ (d, 2d)
# product: at d = 8, at most (256, 8) @ (8, 16), below the size where
# OpenBLAS hands a product to its thread pool, whose start-up costs more than
# the product and whose spinning worker slows whatever runs next
TREE_BLOCK = 1 << 11
# Runge-Kutta steps of the propagator check: the first run, and the cap;
# the steps halve until two runs agree entrywise to RK_TOL
RK_STEPS = 16
RK_MAX_STEPS = 1 << 20
RK_TOL = 1e-12
# absolute roundoff allowed in an exact step probability: 64 ulp of 1, six
# times the largest deviation measured (at eps = 1e-6, d = 4, 5, 8, seeds
# 0-199, where the true O(eps^3) remainder is below 1e-16)
PROBABILITY_ROUNDOFF = 64 * np.finfo(float).eps
# couplings eps / 2^j, j < REMAINDER_LEVELS, of the cubic remainder check;
# each difference of residual / eps^3 must shrink by REMAINDER_CONTRACTION
REMAINDER_LEVELS = 4
REMAINDER_CONTRACTION = 0.75


class ModelError(ValueError):
    """The model data violate a structural invariant."""


# every tolerance check below is written ``not (err <= tol)``, so that a
# NaN error, which compares False with anything, fails it
def _check_hermitian(h: np.ndarray, what: str) -> None:
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ModelError(f"{what} is not square")
    if not np.max(np.abs(h - h.conj().T)) <= HERMITICITY_TOL * max(1.0, np.max(np.abs(h))):
        raise ModelError(f"{what} is not a finite hermitian matrix")


def _check_unitary(u: np.ndarray, what: str, tol: float = UNITARITY_TOL) -> None:
    eye = np.eye(u.shape[0])
    if not np.max(np.abs(u.conj().T @ u - eye)) <= tol:
        raise ModelError(f"{what} is not unitary")


def expm_hermitian(h: np.ndarray, t: float = 1.0) -> np.ndarray:
    """exp(-i t h) of a hermitian h from its eigendecomposition,
    V exp(-i t lambda) V^dagger, which is unitary to roundoff (Moler & Van
    Loan, "Nineteen dubious ways to compute the exponential of a matrix",
    SIAM Rev. 45, 2003)."""
    lam, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * t * lam)) @ v.conj().T


@dataclass(frozen=True)
class FiniteRmModel:
    """Detector (x) environment model executed step by step.

    ``generators[k]`` is the hermitian interaction generator G_k of step k on
    the 2d-dimensional product space, d = len(env_initial).  The step
    propagator U_k(eps) = exp(-i eps G_k)(U (x) I), with U = ``u_detector``
    (the identity unless given), is exactly unitary at every eps.
    """

    generators: tuple[np.ndarray, ...]
    epsilon: float
    env_initial: np.ndarray
    u_detector: np.ndarray = field(default_factory=lambda: np.eye(2))

    def __post_init__(self) -> None:
        if not 1 <= self.env_dim <= MAX_ENV_DIM:
            raise ModelError(f"environment dimension must be in [1, {MAX_ENV_DIM}]")
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ModelError(f"epsilon must be a finite number >= 0, got {self.epsilon!r}")
        for k, g in enumerate(self.generators):
            if g.shape != (2 * self.env_dim, 2 * self.env_dim):
                raise ModelError(f"generator {k} has wrong dimension")
            _check_hermitian(g, f"generator {k}")
        if self.u_detector.shape != (2, 2):
            raise ModelError("detector unitary is not 2 x 2")
        _check_unitary(self.u_detector, "detector unitary")
        if not abs(np.linalg.norm(self.env_initial) - 1.0) <= 1e-12:
            raise ModelError("env_initial must be a finite normalized vector")

    @property
    def env_dim(self) -> int:
        return len(self.env_initial)

    @property
    def steps(self) -> int:
        return len(self.generators)

    @functools.cached_property
    def _uncoupled_step(self) -> np.ndarray:
        """U (x) I, every step unitary at eps = 0."""
        return np.kron(self.u_detector, np.eye(self.env_dim))

    def step_unitary(self, k: int, epsilon: float | None = None) -> np.ndarray:
        """U_k at the model's coupling, or at ``epsilon`` if given."""
        eps = self.epsilon if epsilon is None else epsilon
        u = expm_hermitian(self.generators[k], eps) @ self._uncoupled_step
        _check_unitary(u, f"step {k} propagator")
        return u

    @functools.cached_property
    def _step_columns(self) -> tuple[np.ndarray, ...]:
        """The columns of each step unitary on detector |0> (x) environment,
        the only ones a reset detector reaches; built once per model."""
        d = self.env_dim
        return tuple(
            np.ascontiguousarray(self.step_unitary(k)[:, :d]) for k in range(self.steps)
        )


def _check_length(m: FiniteRmModel, length: int) -> None:
    if length < 1:
        raise ModelError(f"string length must be >= 1, got {length}")
    if length > m.steps:
        raise ModelError(f"string of length {length} exceeds {m.steps} steps")
    if length > MAX_STRING_LENGTH:
        raise ModelError(f"string length capped at {MAX_STRING_LENGTH}")


def _children(m: FiniteRmModel, k: int, amps: np.ndarray, probs: np.ndarray):
    """Branches after step k.  Row r of ``amps`` is the unnormalized
    environment vector of a branch and ``probs[r]`` its probability; its
    outcome-b child is row 2r + b of the result."""
    child = (amps @ m._step_columns[k].T).reshape(-1, m.env_dim)
    child_probs = np.sum(np.abs(child) ** 2, axis=1)
    total = child_probs[0::2] + child_probs[1::2]
    if not np.all(np.abs(total - probs) <= BRANCH_TOL * probs):
        raise ModelError(f"step {k} outcome probabilities do not sum to their branch's")
    return child, child_probs


def _leaf_probabilities(m, k, length, amps, probs) -> np.ndarray:
    """Probabilities of all strings extending the branches ``amps`` at step
    k to the given length, breadth-first, in batches of TREE_BLOCK."""
    while k < length:
        if amps.size > TREE_BLOCK:
            half = amps.shape[0] // 2
            return np.concatenate(
                [
                    _leaf_probabilities(m, k, length, amps[:half], probs[:half]),
                    _leaf_probabilities(m, k, length, amps[half:], probs[half:]),
                ]
            )
        amps, probs = _children(m, k, amps, probs)
        k += 1
    return probs


def _root(m: FiniteRmModel):
    amps = m.env_initial.astype(complex)[None, :]
    return amps, np.sum(np.abs(amps) ** 2, axis=1)


def exact_string_prob(m: FiniteRmModel, b: BitString) -> float:
    """Chain-rule probability of the full outcome string."""
    _check_length(m, b.length)
    amps, probs = _root(m)
    for k, bit in enumerate(b.bits):
        amps, probs = _children(m, k, amps, probs)
        amps, probs = amps[bit : bit + 1], probs[bit : bit + 1]
    return float(probs[0])


def string_distribution(m: FiniteRmModel, length: int) -> np.ndarray:
    """Probabilities of every outcome string of the given length, as an
    array of 2^length floats indexed by ``BitString.to_int`` (first outcome
    most significant).

    The measurement tree is evolved breadth-first as a (2^k, d) array of
    branch amplitudes, so each step is one matrix product."""
    _check_length(m, length)
    return _leaf_probabilities(m, 0, length, *_root(m))


def perturbative_corrections(m: FiniteRmModel, k: int, env: np.ndarray):
    """Born part and the first/second order outcome corrections at step k.

    Returns (p, q1, q2) as length-2 arrays over outcomes; the exact step
    probability is p + eps q1 + eps^2 q2 + O(eps^3).  The post-step state
    expands as psi0 + eps psi1 + eps^2 psi2 + O(eps^3), with
    psi0 = (U (x) I)(|0> (x) env), psi1 = -i G_k psi0 and
    psi2 = -G_k^2 psi0 / 2, so outcome b has q1 = 2 Re <psi1|P_b|psi0> and
    q2 = ||P_b psi1||^2 + 2 Re <psi2|P_b|psi0>.
    """
    u0 = m.u_detector[:, 0]
    g = m.generators[k]
    psi0 = np.kron(u0, env)
    psi1 = -1j * (g @ psi0)
    psi2 = -0.5j * (g @ psi1)
    psi0, psi1, psi2 = (v.reshape(2, m.env_dim) for v in (psi0, psi1, psi2))
    q1 = 2.0 * np.sum(psi1.conj() * psi0, axis=1).real
    q2 = np.sum(np.abs(psi1) ** 2, axis=1) + 2.0 * np.sum(psi2.conj() * psi0, axis=1).real
    return np.abs(u0) ** 2, q1, q2


def exact_step_probability(
    m: FiniteRmModel, k: int, env: np.ndarray, epsilon: float | None = None
) -> np.ndarray:
    """Outcome probabilities of step k from the full unitary, optionally at
    a rescaled coupling."""
    u = m.step_unitary(k, epsilon)
    psi = u @ np.kron(np.array([1.0, 0.0]), env)
    blocks = psi.reshape(2, m.env_dim)
    return np.array([float(np.sum(np.abs(blocks[b]) ** 2)) for b in (0, 1)])


@dataclass(frozen=True)
class RemainderCheck:
    """Residuals of a second-order step expansion at eps_j = eps / 2^j.

    ``contraction`` is the largest ratio |d_j| / |d_(j-1)| of successive
    differences d_j = s_(j+1) - s_j of s_j = residual_j / eps_j^3, over the
    d_j above their roundoff floor (0 when none is); ``bound_ratio`` is the
    largest |residual_j| over its Taylor bound.
    """

    epsilons: tuple[float, ...]
    residuals: tuple[float, ...]
    contraction: float
    bound_ratio: float

    @property
    def passed(self) -> bool:
        return self.contraction <= REMAINDER_CONTRACTION and self.bound_ratio <= 1.0


def remainder_check(
    m: FiniteRmModel,
    k: int,
    env: np.ndarray,
    epsilon: float,
    corrections: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> RemainderCheck:
    """Check that exact - (p + eps q1 + eps^2 q2) for outcome 1 at step k is
    an O(eps^3) remainder, with (p, q1, q2) from ``perturbative_corrections``
    unless given.

    For a true expansion s_j = residual_j / eps_j^3 = c3 + c4 eps_j + ...
    converges: its successive differences halve with eps_j.  A wrong
    second-order coefficient adds delta q2 / eps_j, whose differences double.
    A difference passes if it shrinks by REMAINDER_CONTRACTION or lies under
    its floor PROBABILITY_ROUNDOFF (eps_j^-3 + eps_(j+1)^-3).  Each residual
    must also stay within the Taylor remainder of <e^(i eps G) P e^(-i eps G)>,
    (2 eps ||G||)^3 / 6, plus PROBABILITY_ROUNDOFF.
    """
    p, q1, q2 = perturbative_corrections(m, k, env) if corrections is None else corrections
    g_norm = float(np.linalg.norm(m.generators[k], 2))
    eps = [epsilon / 2**j for j in range(REMAINDER_LEVELS)]
    res = [
        float(exact_step_probability(m, k, env, e)[1] - (p + e * q1 + e * e * q2)[1])
        for e in eps
    ]
    diffs = np.diff([r / e**3 for r, e in zip(res, eps)])
    contraction = 0.0
    for j in range(1, len(diffs)):
        floor = PROBABILITY_ROUNDOFF * (eps[j] ** -3 + eps[j + 1] ** -3)
        if abs(diffs[j]) > floor:
            prev = abs(diffs[j - 1])
            contraction = max(contraction, abs(diffs[j]) / prev if prev else math.inf)
    bound_ratio = max(
        abs(r) / ((2.0 * e * g_norm) ** 3 / 6.0 + PROBABILITY_ROUNDOFF)
        for r, e in zip(res, eps)
    )
    return RemainderCheck(tuple(eps), tuple(res), contraction, bound_ratio)


def propagator_consistency(m: FiniteRmModel, k: int) -> float:
    """Max deviation between the model's step unitary U_k and an explicit
    Runge-Kutta integration of i psi' = eps G_k psi over unit time, for all
    basis columns at once, times U (x) I.

    For this linear equation a classical fourth-order step is the degree-4
    Taylor polynomial of exp(-i dt eps G_k), so a run is that polynomial's
    power and uses no eigendecomposition.  The step halves from
    1 / RK_STEPS until two runs agree entrywise to RK_TOL.
    """
    h = m.epsilon * m.generators[k]
    eye = np.eye(h.shape[0])
    steps, prev = RK_STEPS, None
    while steps <= RK_MAX_STEPS:
        z = (-1j / steps) * h
        step = eye + z @ (eye + z @ (eye + z @ (eye + z / 4.0) / 3.0) / 2.0)
        integrated = np.linalg.matrix_power(step, steps)
        if prev is not None and np.max(np.abs(integrated - prev)) <= RK_TOL:
            expected = integrated @ m._uncoupled_step
            return float(np.max(np.abs(m.step_unitary(k) - expected)))
        steps, prev = 2 * steps, integrated
    raise ModelError(f"step {k} propagator integration did not converge by {RK_MAX_STEPS} steps")


def _random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2.0


def _random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_env_state(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def random_model(env_dim: int, steps: int, seed: int) -> FiniteRmModel:
    """Generic coupled instance: an independent hermitian generator per step
    at eps = 0.05, with no detector-only unitary."""
    rng = np.random.default_rng(seed)
    gens = tuple(_random_hermitian(rng, 2 * env_dim) for _ in range(steps))
    return FiniteRmModel(gens, 0.05, _random_env_state(rng, env_dim))


def random_weak_model(env_dim: int, steps: int, epsilon: float, seed: int) -> FiniteRmModel:
    """Weakly coupled instance: a random detector unitary U and an
    independent hermitian generator per step at the given eps."""
    rng = np.random.default_rng(seed)
    u = _random_unitary(rng, 2)
    gens = tuple(_random_hermitian(rng, 2 * env_dim) for _ in range(steps))
    return FiniteRmModel(gens, epsilon, _random_env_state(rng, env_dim), u)


def iid_model(env_dim: int, steps: int, seed: int) -> FiniteRmModel:
    """Detector-only dynamics: every G_k is zero, so every step applies the
    same product unitary U (x) I and the outcomes are independent and
    identically distributed."""
    rng = np.random.default_rng(seed)
    u = _random_unitary(rng, 2)
    uncoupled = (np.zeros((2 * env_dim, 2 * env_dim)),) * steps
    return FiniteRmModel(uncoupled, 0.0, _random_env_state(rng, env_dim), u)
