"""Detector worldlines and regularized two-point field correlators.

Two stationary trajectories are supported: a detector at rest and one in
uniform proper acceleration.  Both give a correlator K depending only on the
proper-time difference s, singular on the imaginary axis only: at s = 0, and
for the accelerated one at every multiple of 2 pi i / alpha.  The vacuum
correlator is the boundary value K(s - i0); ``WightmanKernel.value(s, eps)``
is K(s - i eps) itself, the correlator on the line eps below the real axis,
where ``q_direct`` integrates.  ``WightmanKernel.limit`` is K on the real
axis away from 0.
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
        """The correlator at z = s - i epsilon, for real s (complex).

        Inertial: -1/(4 pi^2) z^-2.
        Accelerated: -a^2/(16 pi^2) sinh^-2(a z / 2), finite for
        0 < epsilon < 2 pi / a.
        """
        if epsilon <= 0:
            raise ValueError("epsilon must be > 0")
        z = np.asarray(s, dtype=float) - 1j * epsilon
        if self.worldline.kind == "inertial":
            return -1.0 / (TWO_PI**2) / (z * z)
        a = self.worldline.alpha
        # sinh^-2(x) = 4 e^-2x / (1 - e^-2x)^2 is even; at Re x >= 0 this form
        # neither overflows far out nor loses digits near 0
        x = 0.5 * a * np.where(z.real < 0.0, -z, z)
        return -(a**2) / (TWO_PI**2) * np.exp(-2.0 * x) / np.expm1(-2.0 * x) ** 2

    def limit(self, s):
        """Unregularized correlator at s != 0 (real, negative)."""
        s = np.asarray(s, dtype=float)
        if np.any(s == 0.0):
            raise ValueError("limit undefined at s = 0")
        if self.worldline.kind == "inertial":
            return -1.0 / (TWO_PI**2) / (s * s)
        a = self.worldline.alpha
        # far out sinh^2 overflows to inf and the correlator to -0, which
        # it is to double precision
        with np.errstate(over="ignore"):
            sh = np.sinh(0.5 * a * s)
            return -(a**2) / (4.0 * TWO_PI**2) / (sh * sh)
