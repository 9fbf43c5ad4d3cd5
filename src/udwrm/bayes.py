"""Sequential Bayesian discrimination between an exact Born hypothesis
family H1(q) and a corrected family H2(q) = Born + epsilon * correction,
with a for-all-practical-purposes verdict.

Both families are continuous in q; the posterior lives on a uniform q-grid
and is integrated with the trapezoid rule.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .strings import BitString, born_string_prob

GRID_SIZE = 1024
# a posterior whose trapezoid mass is further than this from 1 is rejected
MASS_TOL = 1e-9
# ``posterior_trace`` divides its densities by their running mass only when
# the mass leaves [MASS_LOW, MASS_HIGH], far from under- and overflow
MASS_LOW = 1e-8
MASS_HIGH = 1e8


class DegenerateEvidenceError(RuntimeError):
    """Every hypothesis assigned zero likelihood to the observed data."""


@dataclass(frozen=True)
class CorrectionModel:
    """Order-epsilon deviation from the Born string law.

    ``delta_p(q, B)`` must accept a grid of q values and return the
    correction Delta P_q(B) on that grid; the likelihood under H2 is
    Born + epsilon * delta_p (for a correction of order epsilon^2, pass
    epsilon^2).  It must be a pure function of (q, B): ``posterior_trace``
    evaluates it once per distinct string of a record and reuses the result
    for every repeat of that string.
    """

    coupling_epsilon: float
    delta_p: Callable[[np.ndarray, BitString], np.ndarray]

    def __post_init__(self) -> None:
        eps = self.coupling_epsilon
        if not (math.isfinite(eps) and eps >= 0):
            raise ValueError(f"coupling_epsilon must be a finite number >= 0, got {eps!r}")


@functools.lru_cache(maxsize=None)
def _grid(grid_size: int) -> tuple[np.ndarray, np.ndarray]:
    """The uniform q grid on [0, 1] and its trapezoid weights
    dq * [1/2, 1, ..., 1, 1/2], built once per size and read-only."""
    if grid_size < 2:
        raise ValueError(f"the q grid needs at least 2 points, got {grid_size}")
    q = np.linspace(0.0, 1.0, grid_size)
    w = np.full(grid_size, 1.0 / (grid_size - 1))
    w[0] = w[-1] = 0.5 / (grid_size - 1)
    q.flags.writeable = False
    w.flags.writeable = False
    return q, w


class Posterior:
    """Joint density over (hypothesis family, q) on a uniform grid.

    Stored as two density arrays; the total mass (trapezoid over q, summed
    over families) is kept at 1.  The grid has as many points as the given
    densities, and a density left out is 0.5 on it; with neither given it
    is the uniform prior on GRID_SIZE points.
    """

    def __init__(self, h1: np.ndarray | None = None, h2: np.ndarray | None = None) -> None:
        given = [h for h in (h1, h2) if h is not None]
        size = np.size(given[0]) if given else GRID_SIZE
        self.q, self._weights = _grid(size)
        self.h1 = np.full(size, 0.5) if h1 is None else np.asarray(h1, dtype=float)
        self.h2 = np.full(size, 0.5) if h2 is None else np.asarray(h2, dtype=float)
        if self.h1.shape != self.q.shape or self.h2.shape != self.q.shape:
            raise ValueError("density arrays must match the grid")
        for name, h in (("h1", self.h1), ("h2", self.h2)):
            if not (np.all(np.isfinite(h)) and np.all(h >= 0)):
                raise ValueError(f"{name} must be finite and non-negative")
        if not abs(self.total_mass() - 1.0) <= MASS_TOL:
            raise ValueError(f"posterior mass {self.total_mass()} is not 1")

    def total_mass(self) -> float:
        return float(self._weights @ self.h1 + self._weights @ self.h2)

    def family_mass(self, i: int) -> float:
        if i not in (1, 2):
            raise ValueError("family index must be 1 or 2")
        return float(self._weights @ (self.h1 if i == 1 else self.h2))


def _likelihoods(q: np.ndarray, b: BitString, m: CorrectionModel):
    """Per-family likelihoods of the string b on the grid: the Born product
    q^n (1-q)^z, and that plus epsilon * delta_p clipped at zero."""
    n = b.popcount
    zeros = b.length - n
    like1 = q**n * (1.0 - q) ** zeros
    like2 = like1 + m.coupling_epsilon * np.asarray(m.delta_p(q, b), dtype=float)
    like2 = np.clip(like2, 0.0, None)  # an order-eps model can dip below zero
    return like1, like2


def posterior_trace(
    prior: Posterior, strings: Iterable[BitString], m: CorrectionModel
) -> tuple[Posterior, list[tuple[float, float, float]]]:
    """Bayes updates by each string in turn: multiply by the per-family
    string likelihoods and renormalize over the whole (family, q) product
    space.

    Returns the final posterior and (mass_h1, mass_h2, total_mass) after
    each update.  ``strings`` may be any iterable and is consumed once; each
    distinct string's likelihood pair is evaluated once, as one (2, G)
    array.  Both densities are kept unnormalized on one stacked copy of the
    prior's arrays: per string, one in-place product and one mat-vec for
    both masses u, reported as u / sum(u).  The densities are divided by
    their mass only when it leaves [MASS_LOW, MASS_HIGH], and once at the
    end.
    """
    w = prior._weights
    h = np.stack([prior.h1, prior.h2])
    # keyed by the bits, whose equality is the strings': a tuple hashes in C,
    # the dataclass's generated __hash__ in Python
    likelihoods: dict[tuple[int, ...], np.ndarray] = {}
    masses = []
    evidence = 1.0  # trapezoid mass of h
    for b in strings:
        like = likelihoods.get(b.bits)
        if like is None:
            like = likelihoods[b.bits] = np.stack(_likelihoods(prior.q, b, m))
        h *= like
        mass1, mass2 = (h @ w).tolist()
        evidence = mass1 + mass2
        if evidence <= 0.0:
            raise DegenerateEvidenceError(
                "all hypotheses assign zero probability to the observed string"
            )
        mass1, mass2 = mass1 / evidence, mass2 / evidence
        total = mass1 + mass2
        if not abs(total - 1.0) <= MASS_TOL:
            raise ValueError(f"posterior mass {total} is not 1")
        masses.append((mass1, mass2, total))
        if not MASS_LOW <= evidence <= MASS_HIGH:
            h /= evidence
            evidence = 1.0
    h /= evidence
    return Posterior(h[0], h[1]), masses


def update_posterior(p: Posterior, b: BitString, m: CorrectionModel) -> Posterior:
    """One Bayes step: multiply by the per-family string likelihoods and
    renormalize over the whole (family, q) product space."""
    return posterior_trace(p, (b,), m)[0]


def fapp_verdict(
    q: float, b: BitString, m: CorrectionModel, kappa: float = 1.0
) -> str:
    """'h2_selected' when the correction is resolvable against the Born
    probability at the given coupling, else 'indistinguishable' (the Born
    rule is usable for all practical purposes).

    Resolvability threshold: |Delta P| / P >= kappa / epsilon.
    """
    if kappa <= 0:
        raise ValueError("kappa must be > 0")
    born = born_string_prob(q, b)
    if born <= 0.0:
        raise ValueError("Born probability of the observed string vanishes")
    if m.coupling_epsilon == 0.0:
        return "indistinguishable"
    delta = float(np.asarray(m.delta_p(np.array([q]), b))[0])
    if abs(delta) / born >= kappa / m.coupling_epsilon:
        return "h2_selected"
    return "indistinguishable"


def delta_p_first_order(q, step_corrections, b: BitString):
    """First-order string-probability correction from per-step outcome
    corrections: sum over steps j of Q(1)_{b_j}(j) times the Born product
    over the other steps.

    ``step_corrections[j]`` is the first-order correction to the probability
    of the outcome actually recorded at step j.  Accepts scalar or gridded q.
    One pass over the steps keeps the product of the Born factors so far and
    the sum of the terms so far (the product rule), with no division, so
    q = 0 and 1 stay exact.
    """
    if len(step_corrections) != b.length:
        raise ValueError(
            f"{len(step_corrections)} step corrections for {b.length} bits"
        )
    q_arr = np.asarray(q, dtype=float)
    factors = (1.0 - q_arr, q_arr)
    prefix = np.ones_like(q_arr)
    total = np.zeros_like(q_arr)
    for bit, correction in zip(b.bits, step_corrections):
        total = total * factors[bit] + correction * prefix
        prefix = prefix * factors[bit]
    return total if total.shape else float(total)
