"""Excitation probabilities: closed forms, regularized quadrature, and the
history-dependent conditional probabilities built from cross-interval
correlation integrals.

The single-window probability q comes either from closed forms (infinite
interaction time, Gaussian envelope) or from direct quadrature of the
regularized correlator with cut-off extrapolation.  Multi-window corrections
are dimensionless fractions: each cross-interval pairing pattern contributes
a 2k-dimensional integral, normalized by the k-th power of the single-window
response.  Conditional probabilities divide two such correction sums, and are
always handled as ratios to q so that corrections far below double-precision
absolute resolution stay meaningful.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import mpmath
import numpy as np
from scipy.integrate import quad
from scipy.special import erfc

from .combinatorics import ContractionClass, enumerate_contraction_classes
from .kernel import WightmanKernel
from .schedule import RepetitionSchedule

WEAK_COUPLING_WARN = 0.1


@dataclass(frozen=True)
class DetectorParams:
    """Two-level detector: energy gap omega, dimensionless coupling lam."""

    omega: float
    lam: float

    def __post_init__(self) -> None:
        if self.omega <= 0:
            raise ValueError("omega must be > 0")
        if self.lam <= 0:
            raise ValueError("lam must be > 0")
        if self.lam > WEAK_COUPLING_WARN:
            warnings.warn(
                f"coupling {self.lam} exceeds the weak-coupling regime "
                f"(> {WEAK_COUPLING_WARN}); perturbative results are unreliable",
                stacklevel=3,
            )


@dataclass(frozen=True)
class ProbabilityResult:
    value: float
    abs_error: float
    method: str  # "closed_form" | "quadrature"

    def __post_init__(self) -> None:
        if self.abs_error < 0:
            raise ValueError("abs_error must be >= 0")
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"probability {self.value} outside [0, 1]")


@dataclass(frozen=True)
class HistoryRecord:
    """Excitation record: windows that read 1 so far, plus the queried one."""

    excitations: tuple[int, ...]
    query: int

    def __post_init__(self) -> None:
        if any(n < 0 for n in self.excitations):
            raise ValueError("interval indices must be >= 0")
        if list(self.excitations) != sorted(set(self.excitations)):
            raise ValueError("excitation intervals must be strictly increasing")
        if self.excitations and self.query <= self.excitations[-1]:
            raise ValueError("query interval must follow all excitations")
        if self.query < 0:
            raise ValueError("query interval must be >= 0")

    @property
    def order(self) -> int:
        """n: the number of windows entering the correlation integrals."""
        return len(self.excitations) + 1


class QuadratureError(RuntimeError):
    """Cut-off extrapolation or integral refinement failed to converge."""


class BoundViolationError(RuntimeError):
    """A correction denominator left (0, inf); quadrature is untrustworthy."""


def q_closed_inertial(d: DetectorParams, sigma: float) -> ProbabilityResult:
    """Infinite-interaction-time excitation probability, detector at rest.

    (lam^2 / 4 pi) [exp(-w^2 s^2) - w s Gamma(1/2, w^2 s^2)] with the upper
    incomplete gamma written through erfc.
    """
    if sigma <= 0:
        raise ValueError("sigma must be > 0")
    x = d.omega * sigma
    bracket = math.exp(-x * x) - x * math.sqrt(math.pi) * erfc(x)
    value = d.lam**2 / (4.0 * math.pi) * bracket
    return ProbabilityResult(value, abs_error=abs(value) * 1e-14, method="closed_form")


def q_closed_accelerated(
    d: DetectorParams,
    sigma: float,
    alpha: float,
    n_max: int | None = None,
    rel_tol: float = 1e-12,
) -> ProbabilityResult:
    """Infinite-interaction-time excitation probability, uniform acceleration.

    Image sum over b_n = -2 pi n / alpha; each term carries a factor
    exp(b_n^2 / 4 sigma^2 + omega b_n) against a half-line Gaussian moment,
    so it is evaluated in high-precision arithmetic where the giant
    exponentials cancel analytically.  The surviving terms fall off only
    like 1 / n^2, so the tail is summed with series acceleration unless an
    explicit ``n_max`` truncation is requested.
    """
    if sigma <= 0 or alpha <= 0:
        raise ValueError("sigma and alpha must be > 0")
    if n_max is not None and n_max < 1:
        raise ValueError("n_max must be >= 1")

    with mpmath.workdps(60):
        w = mpmath.mpf(d.omega)
        s = mpmath.mpf(sigma)
        a = mpmath.mpf(alpha)
        sqrt_pi = mpmath.sqrt(mpmath.pi)

        def term(n: int):
            b = -2 * mpmath.pi * n / a
            r = w * s + b / (2 * s)
            xi = 1 if n > 0 else -1
            lower = -xi * r  # lower limit of the Gaussian moment integral
            inner = mpmath.exp(-lower * lower) / 2 + xi * r * sqrt_pi / 2 * mpmath.erfc(lower)
            return mpmath.exp(b * b / (4 * s * s) + w * b) * inner

        prefactor = mpmath.mpf(d.lam) ** 2 / (2 * mpmath.pi)
        if n_max is None:
            total = term(0) + mpmath.nsum(lambda n: term(n) + term(-n), [1, mpmath.inf])
            value = float(prefactor * total)
            abs_error = abs(value) * max(rel_tol, 1e-13)
            return ProbabilityResult(value, abs_error=abs_error, method="closed_form")

        total = term(0)
        tail = mpmath.mpf(0)
        for n in range(1, n_max + 1):
            t = term(n) + term(-n)
            total += t
            if n == n_max:
                # 1/n^2 fall-off: the omitted remainder is about n_max * t
                tail = abs(t) * n_max
        value = float(prefactor * total)
        abs_error = float(prefactor * tail) + abs(value) * 1e-13
    if abs_error > max(1e-3 * abs(value), 1e-300):
        raise QuadratureError(
            f"truncation at n_max={n_max} leaves an estimated tail {abs_error:g}"
        )
    return ProbabilityResult(value, abs_error=abs_error, method="closed_form")


def _overlap_function(
    sched: RepetitionSchedule, interval: int, truncated: bool, gl_nodes: int = 240
):
    """Auto-correlation of the window profile: G(s) = int chi(u) chi(u-s) du.

    With ``truncated`` the integral runs over the actual interaction window
    of the given repetition interval; otherwise the profile's tails are kept
    and the overlap runs over the whole line (the closed forms' convention).
    """
    lo, hi = sched.interaction_interval(interval)
    x, wts = np.polynomial.legendre.leggauss(gl_nodes)

    if truncated:
        def overlap(s: float) -> float:
            if s >= sched.t_on:
                return 0.0
            a, b = lo + s, hi
            u = 0.5 * (b - a) * x + 0.5 * (a + b)
            vals = sched.chi(u) * sched.chi(u - s)
            return 0.5 * (b - a) * float(np.dot(wts, vals))

        return overlap, sched.t_on

    if sched.profile.kind == "truncated_gaussian":
        sig = sched.profile.width
        s_max = 14.0 * sig

        def overlap(s: float) -> float:
            return sig * math.sqrt(math.pi) * math.exp(-s * s / (4.0 * sig**2))

        return overlap, s_max

    # bump profiles are compactly supported; truncation changes nothing
    return _overlap_function(sched, interval, truncated=True, gl_nodes=gl_nodes)


def _richardson(values: list[float]) -> tuple[float, float]:
    """Neville extrapolation to zero cut-off for a halving sequence."""
    table = [list(values)]
    n = len(values)
    for m in range(1, n):
        prev = table[-1]
        table.append(
            [(2**m * prev[j + 1] - prev[j]) / (2**m - 1) for j in range(n - m)]
        )
    best = table[-1][0]
    alt = table[-2][0] if n >= 2 else best
    return best, abs(best - alt)


def q_direct(
    kern: WightmanKernel,
    sched: RepetitionSchedule,
    d: DetectorParams,
    *,
    interval: int = 0,
    eps0: float = 0.1,
    levels: int = 5,
    truncated: bool = True,
    rel_tol: float = 1e-6,
) -> ProbabilityResult:
    """Single-window excitation probability by regularized quadrature.

    2 lam^2 int du int ds chi(u) chi(u-s) Re[exp(-i w s) W_eps(s)], reduced
    to one dimension through the window auto-correlation, evaluated on the
    cut-off sequence eps0 / 2^j and extrapolated to zero.

    ``truncated=False`` keeps the profile's tails (infinite-interaction
    reference mode, directly comparable to the closed forms).
    """
    if eps0 <= 0 or levels < 2:
        raise ValueError("need eps0 > 0 and at least two extrapolation levels")
    overlap, s_max = _overlap_function(sched, interval, truncated)

    def level_value(eps: float) -> float:
        def f(s: float) -> float:
            return overlap(s) * float(np.real(np.exp(-1j * d.omega * s) * kern.value(s, eps)))

        cut = min(s_max, 100.0 * eps)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            v1, _ = quad(f, 0.0, cut, limit=400, epsabs=1e-16, epsrel=1e-13)
            v2, _ = quad(f, cut, s_max, limit=400, epsabs=1e-16, epsrel=1e-13)
        return 2.0 * (v1 + v2)

    values = [level_value(eps0 / 2**j) for j in range(levels)]
    best, err = _richardson(values)
    if not math.isfinite(best) or (best != 0.0 and err > 10 * rel_tol * abs(best)):
        raise QuadratureError(
            f"cut-off extrapolation unstable: value {best:g}, spread {err:g}, "
            f"levels {values}"
        )
    value = d.lam**2 * best
    return ProbabilityResult(
        value=value, abs_error=d.lam**2 * err, method="quadrature"
    )


def calQ(
    kern: WightmanKernel,
    sched: RepetitionSchedule,
    d: DetectorParams,
    mode: str = "closed_form",
) -> float:
    """Single-window response q / lam^2.

    ``closed_form`` uses the infinite-interaction Gaussian results (the
    convention under which all published reference numbers are produced);
    ``quadrature`` integrates the schedule's actual truncated profile.
    """
    if mode == "closed_form":
        if sched.profile.kind != "truncated_gaussian":
            raise ValueError("closed-form mode needs a Gaussian profile")
        sigma = sched.profile.width
        if kern.worldline.kind == "inertial":
            q = q_closed_inertial(d, sigma)
        else:
            q = q_closed_accelerated(d, sigma, kern.worldline.alpha)
        return q.value / d.lam**2
    if mode == "quadrature":
        return q_direct(kern, sched, d).value / d.lam**2
    raise ValueError(f"unknown calQ mode {mode!r}")


#: Chebyshev resolutions p of the cross-window correlators, tried in turn
#: until two successive ones agree to the roundoff floor.
CHEB_RESOLUTIONS = (12, 24, 48, 96)
#: Roundoff floor of a correction sum, in units of eps * sum |class value|.
#: Repeated evaluations at different resolutions scatter over 55-140 units.
ROUNDOFF_UNITS = 256.0


def _chebyshev_basis(p: int, t_on: float, x) -> np.ndarray:
    """Lagrange basis of the p Chebyshev (first-kind) nodes on [0, t_on],
    evaluated at x: shape (len(x), p).

    Uses the discrete orthogonality of T_k on the nodes, so no node or
    evaluation point can hit a zero denominator.
    """
    theta = (np.arange(p) + 0.5) * math.pi / p
    k = np.arange(p)
    at_nodes = np.cos(np.outer(theta, k))
    at_nodes[:, 0] *= 0.5
    phi = np.arccos(np.clip(2.0 * np.asarray(x, dtype=float) / t_on - 1.0, -1.0, 1.0))
    return (2.0 / p) * np.cos(np.outer(phi, k)) @ at_nodes.T


def _chebyshev_nodes(p: int, t_on: float) -> np.ndarray:
    theta = (np.arange(p) + 0.5) * math.pi / p
    return 0.5 * t_on * (1.0 + np.cos(theta))


def _window_moments(
    sched: RepetitionSchedule, d: DetectorParams, p: int
) -> np.ndarray:
    """M[m, n] = int_{u' <= u} 2 chi(u) chi(u') cos(w (u - u')) l_m(u) l_n(u').

    Stationarity gives every window the same matrix.  Tensor Gauss-Legendre
    on (v, t) with u = v, u' = v - t v (Jacobian v); its order is tied to p.
    """
    x, w = np.polynomial.legendre.leggauss(max(32, 2 * p))
    v = 0.5 * sched.t_on * (x + 1.0)
    t = 0.5 * (x + 1.0)
    s = v[:, None] * t[None, :]
    weight = (
        2.0
        * sched.chi_window(v)[:, None]
        * sched.chi_window(v[:, None] - s)
        * np.cos(d.omega * s)
        * (v * 0.5 * sched.t_on * w)[:, None]
        * (0.5 * w)[None, :]
    )
    later = _chebyshev_basis(p, sched.t_on, v)
    earlier = _chebyshev_basis(p, sched.t_on, (v[:, None] - s).ravel())
    inner = np.einsum("ij,ijn->in", weight, earlier.reshape(len(v), len(t), p))
    return later.T @ inner


class ResponseModel:
    """Bundles kernel, schedule, and detector; caches correction fractions.

    Correction fractions depend only on the gaps between the chosen windows
    (stationarity), so results are cached by gap signature and reused across
    translated histories.

    Windows are well separated, so each cross-window correlator is smooth in
    the two window-local times and is replaced by its p-node Chebyshev
    interpolant, K(T g + x - y) ~ sum_mn C[m, n] l_m(x) l_n(y).  Each window
    has exactly two endpoints, so a contraction class is a union of cycles
    over windows, and its integral is the product of the cycle traces of
    alternating window moment matrices and correlator matrices.
    """

    def __init__(
        self,
        kern: WightmanKernel,
        sched: RepetitionSchedule,
        detector: DetectorParams,
        *,
        q_mode: str = "closed_form",
        gl_order: int = 32,
        qmc_points: int = 1 << 20,
        seed: int = 0,
    ) -> None:
        """``gl_order``, ``qmc_points`` and ``seed`` are kept for callers, unused."""
        self.kernel = kern
        self.schedule = sched
        self.detector = detector
        self.q_mode = q_mode
        self._calq = calQ(kern, sched, detector, mode=q_mode)
        self._f_cache: dict[tuple[int, ...], tuple[float, float]] = {}
        self._moments: dict[int, np.ndarray] = {}
        self._links: dict[tuple[int, int, int], np.ndarray] = {}

    @property
    def q(self) -> float:
        return self.detector.lam**2 * self._calq

    @property
    def calq(self) -> float:
        return self._calq

    def f_fraction(self, intervals) -> tuple[float, float]:
        """Correction fraction over a set of windows: sum of all pairing
        integrals divided by the matching power of the single-window response.

        The Chebyshev resolution p doubles through CHEB_RESOLUTIONS until two
        successive sums agree to the roundoff floor; the error is their
        difference plus that floor.
        """
        labels = tuple(sorted(intervals))
        k = len(labels)
        if k < 2:
            raise ValueError("need at least two intervals")
        gaps = tuple(lab - labels[0] for lab in labels)
        if gaps in self._f_cache:
            return self._f_cache[gaps]

        classes = enumerate_contraction_classes(k, gaps)
        eps = float(np.finfo(float).eps)
        total = None
        for p in CHEB_RESOLUTIONS:
            values = [self._class_value(cls, p) for cls in classes]
            prev, total = total, math.fsum(values)
            floor = ROUNDOFF_UNITS * eps * math.fsum(abs(v) for v in values)
            if prev is not None and abs(total - prev) <= floor:
                norm = self._calq**k
                result = (total / norm, (abs(total - prev) + floor) / norm)
                self._f_cache[gaps] = result
                return result
        raise QuadratureError(
            f"correction integrals over gaps {gaps} did not converge by "
            f"p = {p}: last change {abs(total - prev):g} against floor {floor:g}"
        )

    def _class_value(self, cls: ContractionClass, p: int) -> float:
        """Product over the class's cycles of the traces of link products."""
        partner = {}
        for a, b in cls.edges:
            partner[a] = b
            partner[b] = a
        value = 1.0
        seen = set()
        for lab in cls.interval_labels:
            if lab in seen:
                continue
            start = entry = (lab, 0)
            product = None
            while True:
                window, side = entry
                seen.add(window)
                entry = partner[(window, 1 - side)]
                link = self._link(p, side, window - entry[0])
                product = link if product is None else product @ link
                if entry == start:
                    break
            value *= float(np.trace(product))
        return value

    def _link(self, p: int, side: int, gap: int) -> np.ndarray:
        """A window entered at endpoint ``side`` (M, or M^T from the earlier
        endpoint) times the correlator to the window ``gap`` repetitions
        earlier: C[m, n] = K(T gap + x_m - x_n)."""
        key = (p, side, gap)
        if key not in self._links:
            if p not in self._moments:
                self._moments[p] = _window_moments(self.schedule, self.detector, p)
            moments = self._moments[p]
            x = _chebyshev_nodes(p, self.schedule.t_on)
            corr = self.kernel.limit(self.schedule.t * gap + x[:, None] - x[None, :])
            self._links[key] = (moments if side == 0 else moments.T) @ corr
        return self._links[key]

    def correction_sums(self, h: HistoryRecord) -> tuple[float, float, float]:
        """(numerator sum, denominator sum, combined abs error) for P_n/q."""
        from itertools import combinations

        n = h.order
        all_intervals = h.excitations + (h.query,)
        num = den = 0.0
        err = 0.0
        for k in range(2, n + 1):
            for subset in combinations(all_intervals, k):
                val, e = self.f_fraction(subset)
                num += val
                err += e
                if h.query not in subset:
                    den += val
        return num, den, err

    def conditional_excitation(self, h: HistoryRecord) -> ProbabilityResult:
        """P_n = q (1 + numerator corrections) / (1 + history corrections)."""
        if h.order == 1:
            return ProbabilityResult(self.q, abs_error=0.0, method="quadrature")
        num, den, err = self.correction_sums(h)
        if 1.0 + den <= 0.0:
            raise BoundViolationError(
                f"history correction sum {den} drove the denominator to zero"
            )
        value = self.q * (1.0 + num) / (1.0 + den)
        return ProbabilityResult(
            value=value, abs_error=self.q * 2.0 * err, method="quadrature"
        )

    def correction_ratio(self, h: HistoryRecord) -> tuple[float, float]:
        """P_n / q - 1, formed from the correction sums directly."""
        if h.order == 1:
            return 0.0, 0.0
        num, den, err = self.correction_sums(h)
        if 1.0 + den <= 0.0:
            raise BoundViolationError(
                f"history correction sum {den} drove the denominator to zero"
            )
        return (num - den) / (1.0 + den), 2.0 * err

