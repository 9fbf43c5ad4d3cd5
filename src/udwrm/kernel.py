"""Detector worldlines and regularized two-point field correlators.

Two stationary trajectories are supported: a detector at rest and one in
uniform proper acceleration.  Both give a correlator depending only on the
proper-time difference s; a small imaginary shift (the cut-off ``epsilon``
that every call of ``WightmanKernel.value`` passes) keeps it finite at
s = 0.  Quadrature extrapolates it to zero; it is not the weak-coupling
parameter used elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Worldline:
    """Detector trajectory: inertial (fixed spatial point) or accelerated."""

    kind: str  # "inertial" | "accelerated"
    alpha: float | None = None  # proper acceleration, 1/time

    def __post_init__(self) -> None:
        if self.kind not in ("inertial", "accelerated"):
            raise ValueError(f"unknown worldline kind {self.kind!r}")
        if self.kind == "accelerated":
            if self.alpha is None or not (math.isfinite(self.alpha) and self.alpha > 0):
                raise ValueError(
                    f"accelerated worldline needs alpha a finite number > 0, got {self.alpha!r}"
                )
        elif self.alpha is not None:
            raise ValueError("inertial worldline takes no acceleration")


def inertial() -> Worldline:
    return Worldline("inertial")


def accelerated(alpha: float) -> Worldline:
    return Worldline("accelerated", alpha)


def unruh_temperature(w: Worldline) -> float | None:
    """alpha / 2 pi for an accelerated worldline, None for inertial."""
    if w.kind == "inertial":
        return None
    return w.alpha / TWO_PI


@dataclass(frozen=True)
class WightmanKernel:
    """Vacuum two-point correlator pulled back to a stationary worldline."""

    worldline: Worldline

    def value(self, s, epsilon: float):
        """Regularized correlator at proper-time difference s (complex), at
        cut-off epsilon.

        Inertial: -1/(4 pi^2) (s - i eps)^-2.
        Accelerated: -a^2/(16 pi^2) sinh^-2(a s / 2 - i a eps).
        """
        if epsilon <= 0:
            raise ValueError("epsilon must be > 0")
        s = np.asarray(s, dtype=float)
        if self.worldline.kind == "inertial":
            z = s - 1j * epsilon
            return -1.0 / (TWO_PI**2) / (z * z)
        a = self.worldline.alpha
        sh = np.sinh(0.5 * a * s - 1j * a * epsilon)
        return -(a**2) / (4.0 * TWO_PI**2) / (sh * sh)

    def limit(self, s):
        """Unregularized correlator at s != 0 (real, negative)."""
        s = np.asarray(s, dtype=float)
        if np.any(s == 0.0):
            raise ValueError("limit undefined at s = 0")
        if self.worldline.kind == "inertial":
            return -1.0 / (TWO_PI**2) / (s * s)
        a = self.worldline.alpha
        sh = np.sinh(0.5 * a * s)
        return -(a**2) / (4.0 * TWO_PI**2) / (sh * sh)


def extreme_point_value(k: WightmanKernel, schedule, i: int, j: int) -> float:
    """Correlator at the closest approach of two interaction intervals.

    For intervals i != j on the repetition grid the minimum separation is
    T |i - j| - T_on, strictly positive, so the cut-off can be dropped.
    """
    if i == j:
        raise ValueError("the two intervals must be distinct")
    gap = schedule.t * abs(i - j) - schedule.t_on
    if gap <= 0:
        raise ValueError("intervals overlap; extreme-point value undefined")
    return float(k.limit(gap))
