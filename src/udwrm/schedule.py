"""Switching profiles and the repetition-interval grid.

A repetition interval of length T = T_on + T_off starts with an interaction
window [kT, kT + T_on] carrying one copy of the switching profile, a
Gaussian cut at 4 sigma, followed by a measurement window with the coupling
off.  The profile peaks at 1 in the middle of its window and vanishes
identically outside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def is_integer(n) -> bool:
    """An int or numpy integer; a bool is neither."""
    return type(n) is int or isinstance(n, np.integer)


@dataclass(frozen=True)
class SwitchingProfile:
    """Interaction envelope: a Gaussian of standard deviation ``width``,
    cut at its declared support half-width of 4 sigma."""

    width: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.width) and self.width > 0):
            raise ValueError(f"profile width must be a finite number > 0, got {self.width!r}")

    @property
    def half_width(self) -> float:
        return 4.0 * self.width

    def value(self, x):
        """Profile at offset x from the window center, truncated to support."""
        x = np.asarray(x, dtype=float)
        inside = np.abs(x) < self.half_width
        out = np.where(inside, np.exp(-(x * x) / (2.0 * self.width**2)), 0.0)
        return out if out.ndim else float(out)


def truncated_gaussian(sigma: float) -> SwitchingProfile:
    return SwitchingProfile(sigma)


@dataclass(frozen=True)
class RepetitionSchedule:
    """Grid of interaction/measurement windows with a common profile."""

    t_on: float
    t_off: float
    repetitions: int
    profile: SwitchingProfile = field(default_factory=lambda: truncated_gaussian(1.0))

    def __post_init__(self) -> None:
        for name in ("t_on", "t_off"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a finite number > 0, got {value!r}")
        if not is_integer(self.repetitions):
            raise ValueError(f"repetitions must be an integer, got {self.repetitions!r}")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.profile.half_width > self.t_on / 2 + 1e-12:
            raise ValueError("profile support does not fit the interaction window")

    @property
    def t(self) -> float:
        return self.t_on + self.t_off

    def interaction_interval(self, k: int) -> tuple[float, float]:
        return (k * self.t, k * self.t + self.t_on)

    def window_center(self, k: int) -> float:
        return k * self.t + self.t_on / 2.0

    def chi(self, tau):
        """Repeated switching function: k-th profile inside window k, else 0."""
        tau = np.asarray(tau, dtype=float)
        k = np.floor(tau / self.t)
        local = tau - k * self.t
        in_grid = (k >= 0) & (k < self.repetitions)
        on = in_grid & (local >= 0.0) & (local <= self.t_on)
        out = np.where(on, self.profile.value(local - self.t_on / 2.0), 0.0)
        return out if out.ndim else float(out)

    def chi_window(self, x):
        """Profile in window-local coordinates x in [0, t_on]."""
        return self.profile.value(np.asarray(x, dtype=float) - self.t_on / 2.0)


def default_schedule(
    sigma: float = 1.0, repetitions: int = 8, t_off_factor: float = 10.0
) -> RepetitionSchedule:
    """T_on = 8 sigma and T_off = 10 T_on unless told otherwise."""
    t_on = 8.0 * sigma
    return RepetitionSchedule(
        t_on=t_on,
        t_off=t_off_factor * t_on,
        repetitions=repetitions,
        profile=truncated_gaussian(sigma),
    )
