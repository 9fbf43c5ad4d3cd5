"""The repetition-interval grid.

Three numbers fix it: the Gaussian switching width sigma, the number of
windows, and t_off_factor.  A repetition interval of length
T = T_on + t_off_factor T_on starts with an interaction window
[kT, kT + T_on] of length T_on = 8 sigma, carrying one copy of the switching
profile, a Gaussian cut at 4 sigma, followed by a measurement window with
the coupling off.  The profile peaks at 1 in the middle of its window and
vanishes at and beyond the window's ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def is_integer(n) -> bool:
    """An int or numpy integer; a bool is neither."""
    return type(n) is int or isinstance(n, np.integer)


@dataclass(frozen=True)
class RepetitionSchedule:
    """Grid of interaction/measurement windows, each window switched by a
    Gaussian of standard deviation ``sigma`` cut at 4 sigma."""

    sigma: float
    repetitions: int
    t_off_factor: float

    def __post_init__(self) -> None:
        for name in ("sigma", "t_off_factor"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a finite number > 0, got {value!r}")
        if not is_integer(self.repetitions):
            raise ValueError(f"repetitions must be an integer, got {self.repetitions!r}")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")

    @property
    def t_on(self) -> float:
        """Interaction window length, 8 sigma: the cut Gaussian's support."""
        return 8.0 * self.sigma

    @property
    def t(self) -> float:
        """Repetition period T_on + T_off, T_off = t_off_factor T_on."""
        t_on = self.t_on
        return t_on + self.t_off_factor * t_on

    def chi_window(self, x):
        """Profile in window-local coordinates x in [0, t_on]: the Gaussian
        exp(-y^2 / 2 sigma^2) at y = x - t_on / 2, zero where |y| >= 4 sigma."""
        y = np.asarray(x, dtype=float) - self.t_on / 2.0
        inside = np.abs(y) < 4.0 * self.sigma
        out = np.where(inside, np.exp(-(y * y) / (2.0 * self.sigma**2)), 0.0)
        return out if out.ndim else float(out)


def default_schedule(
    sigma: float = 1.0, repetitions: int = 8, t_off_factor: float = 10.0
) -> RepetitionSchedule:
    """T_on = 8 sigma and T_off = 10 T_on unless told otherwise."""
    return RepetitionSchedule(sigma, repetitions, t_off_factor)
