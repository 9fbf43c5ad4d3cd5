"""Switching profiles and the repetition-interval grid.

A repetition interval of length T = T_on + T_off starts with an interaction
window [kT, kT + T_on] carrying one copy of the switching profile, followed
by a measurement window with the coupling off.  Profiles are normalized to
peak at 1 in the middle of their window and vanish identically outside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class SwitchingProfile:
    """Interaction envelope: truncated Gaussian or smooth bump.

    ``width`` is the Gaussian sigma or the bump half-width Delta.  The
    declared support half-width is 4 sigma for the Gaussian (the tail beyond
    that is cut) and Delta for the bump (exactly zero outside).
    """

    kind: str  # "truncated_gaussian" | "bump"
    width: float

    def __post_init__(self) -> None:
        if self.kind not in ("truncated_gaussian", "bump"):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if self.width <= 0:
            raise ValueError("profile width must be > 0")

    @property
    def half_width(self) -> float:
        return 4.0 * self.width if self.kind == "truncated_gaussian" else self.width

    def value(self, x):
        """Profile at offset x from the window center, truncated to support."""
        x = np.asarray(x, dtype=float)
        inside = np.abs(x) < self.half_width
        if self.kind == "truncated_gaussian":
            out = np.where(inside, np.exp(-(x * x) / (2.0 * self.width**2)), 0.0)
        else:
            d2 = self.width**2
            x2 = np.minimum(x * x, d2 * (1.0 - 1e-12))
            out = np.where(inside, np.exp(x2 / (x2 - d2)), 0.0)
        return out if out.ndim else float(out)

    def untruncated_value(self, x):
        """Profile without the support cut (Gaussian tails included)."""
        x = np.asarray(x, dtype=float)
        if self.kind == "truncated_gaussian":
            out = np.exp(-(x * x) / (2.0 * self.width**2))
            return out if out.ndim else float(out)
        return self.value(x)

    @property
    def compact_support(self) -> bool:
        """True if the underlying profile is exactly zero outside its support."""
        return self.kind == "bump"


def truncated_gaussian(sigma: float) -> SwitchingProfile:
    return SwitchingProfile("truncated_gaussian", sigma)


def bump(delta: float) -> SwitchingProfile:
    return SwitchingProfile("bump", delta)


@dataclass(frozen=True)
class RepetitionSchedule:
    """Grid of interaction/measurement windows with a common profile."""

    t_on: float
    t_off: float
    repetitions: int
    profile: SwitchingProfile = field(default_factory=lambda: truncated_gaussian(1.0))

    def __post_init__(self) -> None:
        if self.t_on <= 0 or self.t_off <= 0:
            raise ValueError("t_on and t_off must be > 0")
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


#: Safety factor interpreting "much smaller than" in the repetition cap.
MAX_REPETITION_SAFETY = 1e-2


def max_repetitions(profile: SwitchingProfile, schedule: RepetitionSchedule) -> int | None:
    """Cap on usable repetitions for a profile whose tails never vanish.

    Compactly supported profiles return None (unbounded).  Otherwise the
    residual is the untruncated profile's value at the edge of its own
    support, the largest leakage any foreign window can see; the cap is
    a fixed hundredth of that residual's reciprocal.
    """
    if profile.compact_support:
        return None
    residual = float(profile.untruncated_value(profile.half_width))
    if residual <= 0.0:
        return None
    return math.floor(MAX_REPETITION_SAFETY / residual)
