"""Excitation probabilities: closed forms, contour quadrature, and the
history-dependent conditional probabilities built from cross-interval
correlation integrals.

The single-window probability q comes either from closed forms (infinite
interaction time, Gaussian envelope) or from direct quadrature on a line
below the real axis.  Multi-window corrections are dimensionless fractions:
each cross-interval pairing pattern contributes a 2k-dimensional integral,
normalized by the k-th power of the single-window response.  A conditional
probability is q (1 + num / (1 + den)): num sums the fractions of the
window subsets that hold the query, den those of the history alone.  It is
always handled as a ratio to q so that corrections far below
double-precision absolute resolution stay meaningful.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .combinatorics import MAX_WINDOWS, cycle_cover_sums, subset_sums
from .kernel import TWO_PI, WightmanKernel
from .schedule import RepetitionSchedule, is_integer

WEAK_COUPLING_WARN = 0.1


@dataclass(frozen=True)
class DetectorParams:
    """Two-level detector: energy gap omega, dimensionless coupling lam."""

    omega: float
    lam: float

    def __post_init__(self) -> None:
        for name in ("omega", "lam"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a finite number > 0, got {value!r}")
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
        object.__setattr__(self, "excitations", tuple(self.excitations))
        last = -1
        for n in self.excitations:
            if not is_integer(n):
                raise ValueError(
                    f"excitations must be integer window indices, got {self.excitations!r}"
                )
            if n < 0:
                raise ValueError("interval indices must be >= 0")
            if n <= last:
                raise ValueError("excitation intervals must be strictly increasing")
            last = n
        if not is_integer(self.query):
            raise ValueError(f"query must be an integer window index, got {self.query!r}")
        if self.excitations and self.query <= last:
            raise ValueError("query interval must follow all excitations")
        if self.query < 0:
            raise ValueError("query interval must be >= 0")

    @property
    def order(self) -> int:
        """n: the number of windows entering the correlation integrals."""
        return len(self.excitations) + 1


class QuadratureError(RuntimeError):
    """An integral's refinement failed to converge, or its interpolation
    needs more nodes than MAX_RESOLUTION."""


class BoundViolationError(RuntimeError):
    """A correction denominator left (0, inf); quadrature is untrustworthy."""


#: Levels of erfc's continued fraction in q_closed_inertial: from x = 2 on,
#: 80 levels agree with the infinite fraction to below eps.
_ERFC_CF_LEVELS = 80


def q_closed_inertial(d: DetectorParams, sigma: float) -> ProbabilityResult:
    """Infinite-interaction-time excitation probability, detector at rest.

    (lam^2 / 4 pi) [exp(-x^2) - x sqrt(pi) erfc(x)], x = w sigma (the upper
    incomplete gamma Gamma(1/2, x^2) written through erfc).  Its two terms
    cancel like 2 x^2, so from x = 2 on the bracket comes from erfc's
    continued fraction (Abramowitz & Stegun 7.1.14) instead:
    exp(-x^2) r / (x + r), r = (1/2) / (x + 1 / (x + (3/2) / (x + ...))),
    with nothing left to cancel.
    """
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be a finite number > 0, got {sigma!r}")
    x = d.omega * sigma
    if x < 2.0:
        bracket = math.exp(-x * x) - x * math.sqrt(math.pi) * math.erfc(x)
        value = d.lam**2 / (4.0 * math.pi) * bracket
        return ProbabilityResult(value, abs_error=abs(value) * 1e-14, method="closed_form")
    r = 0.0
    for k in range(_ERFC_CF_LEVELS, 0, -1):
        r = 0.5 * k / (x + r)
    value = math.exp(-x * x) * (d.lam**2 / (4.0 * math.pi) * r / (x + r))
    # the roundings of w sigma and of x^2 move the exponent by up to
    # 1.5 eps x^2; where exp(-x^2) is subnormal (x > 26.6) it carries an
    # absolute error of a few units of the smallest subnormal (past
    # x = 1.3e154, x^2 overflows and the value is 0)
    rel_error = 1e-14 + 2.0 * float(np.finfo(float).eps) * x * x
    abs_error = (value * rel_error if value else 0.0) + 4.0 * math.ulp(0.0)
    return ProbabilityResult(value, abs_error=abs_error, method="closed_form")


#: Gauss-Legendre orders per panel of a q integral, tried in turn until two
#: successive sums agree to the roundoff floor.
PANEL_ORDERS = (16, 32, 64, 128)
#: Roundoff floor of a quadrature or correction sum, in units of
#: eps * sum |term|.  Correction sums at resolutions 48 and 96 scatter over
#: up to 155 units (median 10) of their |M| |C| sums, sampled over
#: w in [0.05, 2], sigma in [0.5, 3], alpha sigma up to 3, t_off_factor 2-20.
ROUNDOFF_UNITS = 256.0
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


def _legendre_series(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """sum_k c[k] P_k(x) by Clenshaw's recurrence, in numpy's ``legval``
    order of operations."""
    if len(c) == 1:
        return c[0] + 0 * x
    c0, c1 = c[-2], c[-1]
    for nd in range(len(c) - 1, 1, -1):
        c0, c1 = c[nd - 2] - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [-1, 1], built once and
    shared, hence read-only.

    numpy's ``leggauss`` step for step, so the same bits without importing
    ``numpy.polynomial``: the eigenvalues of the symmetric Legendre
    companion matrix (Golub & Welsch), one Newton step on P_n, weights
    1 / (P_{n-1} P_n') each scaled by its largest modulus, then both
    symmetrised and the weights normalised to sum 2.
    """
    scale = 1.0 / np.sqrt(2 * np.arange(n) + 1)
    off = np.arange(1, n) * scale[:-1] * scale[1:]
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    c = np.zeros(n + 1)
    c[-1] = 1.0
    k = np.arange(n)
    dc = np.where(k % 2 == (n - 1) % 2, 2.0 * k + 1.0, 0.0)  # P_n' in Legendre terms
    df = _legendre_series(x, dc)
    x = x - _legendre_series(x, c) / df
    fm = _legendre_series(x, c[1:])
    w = 1.0 / ((fm / np.abs(fm).max()) * (df / np.abs(df).max()))
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _panel_quadrature(f, edges) -> tuple[float, float]:
    """Integral of the vectorized f over [edges[0], edges[-1]] by n-node
    Gauss-Legendre on each panel between successive edges.

    n doubles through PANEL_ORDERS until two successive sums agree to the
    roundoff floor; returns (sum, error), the error being their difference
    plus that floor.
    """
    edges = np.asarray(edges, dtype=float)
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    half = 0.5 * np.diff(edges)[:, None]
    eps = float(np.finfo(float).eps)
    total = None
    for n in PANEL_ORDERS:
        x, w = _gauss_legendre(n)
        terms = (half * w * f(mid + half * x)).ravel()
        prev, total = total, math.fsum(terms)
        floor = ROUNDOFF_UNITS * eps * math.fsum(np.abs(terms))
        if prev is not None and abs(total - prev) <= floor:
            return total, abs(total - prev) + floor
    raise QuadratureError(
        f"Gauss-Legendre sums over {len(edges) - 1} panels did not converge by "
        f"order {n}: last change {abs(total - prev):g} against floor {floor:g}"
    )


def _geometric_edges(eps: float, s_max: float) -> np.ndarray:
    """Panel edges 0, eps, 2 eps, 4 eps, ... ending at s_max: each panel is
    as long as its distance from a pole at i eps, so Gauss-Legendre
    converges at the same geometric rate on every panel."""
    edges = [0.0]
    step = eps
    while step < s_max:
        edges.append(step)
        step *= 2.0
    edges.append(s_max)
    return np.array(edges)


def q_closed_accelerated(d: DetectorParams, sigma: float, alpha: float) -> ProbabilityResult:
    """Infinite-interaction-time excitation probability, uniform acceleration.

    The Rindler correlator has a Planckian spectrum at temperature
    alpha / 2 pi, so with energies E = alpha y the response is the inertial
    one plus a thermal integral,

        q_inertial + lam^2 sigma^2 alpha^2 int_0^inf n(y)
            [exp(-sigma^2 (alpha y - w)^2) + exp(-sigma^2 (alpha y + w)^2)] dy,

    n(y) = y / (2 pi (exp(2 pi y) - 1)).  The integrand is smooth on either
    side of the Gaussian peak at w / alpha, and n(y) has its nearest poles
    at y = +-i, so Gauss-Legendre converges geometrically on the panels
    [0, 1], [1, 2], [2, 4], ... split at the peak; the range stops where
    n(y) or the Gaussian factor has fallen below exp(-64).
    """
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be a finite number > 0, got {alpha!r}")
    inertial = q_closed_inertial(d, sigma)
    w = d.omega

    def integrand(y: np.ndarray) -> np.ndarray:
        # Gauss-Legendre nodes are interior, so y > 0
        n = y / (2.0 * math.pi * np.expm1(2.0 * math.pi * y))
        below, above = sigma * (alpha * y - w), sigma * (alpha * y + w)
        return n * (np.exp(-below * below) + np.exp(-above * above))

    upper = min(40.0, (w + 8.0 / sigma) / alpha)
    edges = _geometric_edges(1.0, upper)
    peak = w / alpha
    # split the panels at the peak, unless it already is an edge
    if peak < upper and peak not in edges:
        edges = np.sort(np.append(edges, peak))
    thermal, err = _panel_quadrature(integrand, edges)
    scale = d.lam**2 * sigma**2 * alpha**2
    return ProbabilityResult(
        float(inertial.value + scale * thermal),
        abs_error=float(inertial.abs_error + scale * err),
        method="closed_form",
    )


def q_direct(
    kern: WightmanKernel,
    sched: RepetitionSchedule,
    d: DetectorParams,
    *,
    truncated: bool = False,
) -> ProbabilityResult:
    """Single-window excitation probability by direct quadrature, with the
    switching profile's Gaussian tails kept (the closed forms' convention).

    q = lam^2 int ds G(s) exp(-i w s) K(s - i0) over the real line, with
    G(s) = sigma sqrt(pi) exp(-s^2 / 4 sigma^2) the profile's
    auto-correlation.  G is entire and K is singular only on the imaginary
    axis, at 0 and, when accelerated, at the multiples of 2 pi i / alpha, so
    the integral moves onto the line s = t - i eta.  There
    G(s) exp(-i w s) = sigma sqrt(pi) exp((eta^2 - t^2) / 4 sigma^2 - w eta
    + i t (eta / 2 sigma^2 - w)): at eta = 2 w sigma^2 it does not
    oscillate, so its terms do not cancel.  eta takes that value, kept at
    least d = min(sigma, pi / 2 alpha) from the poles at 0 and
    -2 pi i / alpha; where the latter moves it, the terms cancel in part
    and the roundoff floor grows.

    No pole lies within d of the line and the integrand is conjugate-even
    in t, so the trapezoid rule with step h = d / 6 converges geometrically
    (Trefethen & Weideman, SIAM Rev. 56 (2014) 385): the sum runs over
    t >= 0, weight 1/2 at t = 0, doubled, until the Gaussian and the
    accelerated correlator's e^(-alpha t) have fallen e^-40 below q's
    scale.  The value is the sum at step h / 2; the error is its
    difference from the sum at step h plus the ROUNDOFF_UNITS floor.

    ``truncated=True``, the Gaussian cut at the window's ends, raises
    ``ValueError``: the cut puts a kink in G at s = 0, G'(0+) = -e^-16, and
    the integral diverges like log(1/eps) as the regulator eps -> 0.
    """
    if truncated:
        raise ValueError(
            "truncated=True has no eps -> 0 limit: the cut Gaussian's overlap has a "
            "kink at s = 0 (G'(0+) = -e^-16), so the regulated integral diverges like "
            "log(1/eps) (sudden switching)"
        )
    w, sig = d.omega, sched.sigma
    alpha = kern.worldline.alpha or 0.0
    pole = 2.0 * math.pi / alpha if alpha else math.inf
    dist = min(sig, 0.25 * pole)
    eta = min(max(2.0 * w * sig**2, dist), pole - dist)
    step = dist / 6.0
    # t_max^2 / 4 sigma^2 + alpha t_max = budget: there the Gaussian and the
    # accelerated correlator's e^(-alpha t) have fallen e^-40 below
    # exp(-w^2 sigma^2), q's scale
    budget = 40.0 + ((2.0 * w * sig**2 - eta) / (2.0 * sig)) ** 2
    t_max = 2.0 * budget / (math.sqrt(alpha**2 + budget / sig**2) + alpha)
    t = np.arange(math.ceil(2.0 * t_max / step) + 1) * (0.5 * step)
    exponent = (eta**2 - t * t) / (4.0 * sig**2) - w * eta + 1j * t * (eta / (2.0 * sig**2) - w)
    f = np.real(sig * math.sqrt(math.pi) * np.exp(exponent) * kern.value(t, eta))
    f[0] *= 0.5
    fine = step * math.fsum(f)
    coarse = 2.0 * step * math.fsum(f[::2])
    floor = ROUNDOFF_UNITS * float(np.finfo(float).eps) * step * math.fsum(np.abs(f))
    return ProbabilityResult(
        value=d.lam**2 * fine,
        abs_error=d.lam**2 * (abs(fine - coarse) + floor),
        method="quadrature",
    )


def calQ(kern: WightmanKernel, sched: RepetitionSchedule, d: DetectorParams) -> float:
    """Single-window response q / lam^2 from the infinite-interaction
    Gaussian closed forms: the normalisation of every correction fraction,
    and the convention under which all published reference numbers are
    produced."""
    sigma = sched.sigma
    if kern.worldline.kind == "inertial":
        q = q_closed_inertial(d, sigma)
    else:
        q = q_closed_accelerated(d, sigma, kern.worldline.alpha)
    return q.value / d.lam**2


#: Most Chebyshev nodes p per window: a model whose correlator needs more
#: raises QuadratureError before any correction integral.
MAX_RESOLUTION = 96
#: Orders per block of ``_chebyshev_resolution``'s scan: the README models
#: fit in the first block, so no bound of a higher order is formed.
_RESOLUTION_BLOCK = 16


def _log_correlator_bound(kern: WightmanKernel, s) -> np.ndarray:
    """log of a bound on |K(z)| over Re z = s > 0, taken in logs so that it
    neither underflows nor overflows: inertial |K| = 1/(4 pi^2 |z|^2) and
    |z| >= s; accelerated |K| = a^2/(16 pi^2 |sinh(a z/2)|^2) and
    |sinh z| >= sinh Re z.  At real z = s it is log |K(s)|."""
    s = np.asarray(s, dtype=float)
    if kern.worldline.kind == "inertial":
        return -2.0 * np.log(TWO_PI * s)
    a = kern.worldline.alpha
    x = 0.5 * a * s
    # log sinh x = x - log 2 + log1p(-e^-2x)
    return 2.0 * (math.log(0.5 * a / TWO_PI) - x + math.log(2.0) - np.log1p(-np.exp(-2.0 * x)))


def _log_interpolation_bound(kern: WightmanKernel, sched: RepetitionSchedule, gap: int, orders):
    """log of a bound on |K(T gap + x - y) - its p-node tensor Chebyshev
    interpolant| over a window pair, x, y in [0, T_on], for each p in orders.

    For each y, x -> K(T gap + x - y) is analytic for (2x - T_on) / T_on in
    the Bernstein ellipse of parameter r while that keeps off K's
    singularity at s = 0.  The ellipse's leftmost point, at y = T_on, is
    s = T gap - T_on (1 + (r + 1/r) / 2) / 2, where |K| <= M(r), so the
    p-node interpolant in x is within 4 M(r) r^(1 - p) / (r - 1) of it
    (Trefethen, ATAP, Thm 8.2), and so is the one in y at fixed x.  As
    f - I_x I_y f = (f - I_x f) + I_x (f - I_y f), the tensor interpolant is
    within (1 + Lambda_p) times that, Lambda_p <= 1 + (2/pi) ln p the
    Lebesgue constant of the p Chebyshev nodes.  The bound is minimized
    over one grid of r - 1 in [1e-3, 1e3], the same for every gap, on the
    points that keep s > 0 (inf where none does); a wider gap keeps all
    the points of a narrower one.
    """
    r = 1.0 + np.geomspace(1e-3, 1e3, 512)
    s = sched.t * gap - 0.5 * sched.t_on * (1.0 + 0.5 * (r + 1.0 / r))
    r, s = r[s > 0.0], s[s > 0.0]
    p = np.asarray(orders, dtype=float)[:, None]
    lebesgue = 1.0 + 2.0 / math.pi * np.log(p)
    log_bound = (
        np.log(4.0 * (1.0 + lebesgue))
        + _log_correlator_bound(kern, s)
        - (p - 1.0) * np.log(r)
        - np.log(r - 1.0)
    )
    return log_bound.min(axis=1, initial=np.inf)


def _chebyshev_resolution(kern: WightmanKernel, sched: RepetitionSchedule) -> tuple[int, float]:
    """(p, tau): the fewest Chebyshev nodes per window whose interpolation
    bound on adjacent windows is at most eps kappa_1, kappa_g = |K(T g - T_on)|
    the correlator's largest value on a window pair g apart, and tau that
    bound over kappa_1.

    kappa_1 is floored at the smallest normal double: below it every link
    underflows, and tau is relative to the floor.  M(r) / kappa_g falls with
    g for both kernels, so tau bounds the relative tail of every gap.  A
    model that needs more than MAX_RESOLUTION nodes raises QuadratureError.
    The orders are bounded _RESOLUTION_BLOCK at a time, from p = 2 up, until
    a block holds a fit.
    """
    scale = max(float(_log_correlator_bound(kern, sched.t - sched.t_on)), math.log(_TINY))
    for start in range(2, MAX_RESOLUTION + 1, _RESOLUTION_BLOCK):
        orders = np.arange(start, min(start + _RESOLUTION_BLOCK, MAX_RESOLUTION + 1))
        log_tau = _log_interpolation_bound(kern, sched, 1, orders) - scale
        (fits,) = np.nonzero(log_tau <= math.log(_EPS))
        if fits.size:
            return int(orders[fits[0]]), math.exp(log_tau[fits[0]])
    raise QuadratureError(
        f"the correlator across adjacent windows (T / T_on = {sched.t / sched.t_on:g}) "
        f"needs more than {MAX_RESOLUTION} Chebyshev nodes: the interpolation bound at "
        f"p = {MAX_RESOLUTION} is {math.exp(log_tau[-1]):g} of the correlator"
    )


def _chebyshev_basis(p: int, t_on: float, x) -> np.ndarray:
    """Lagrange basis of the p Chebyshev (first-kind) nodes on [0, t_on],
    evaluated at x: shape (len(x), p).

    The barycentric formula l_j(x) = (w_j / (x - x_j)) / sum_k w_k / (x - x_k)
    with w_j = (-1)^j sin theta_j, which is forward stable on these nodes
    (Higham, IMA J. Numer. Anal. 24 (2004) 547); at a node the basis is the
    unit vector.
    """
    theta = (np.arange(p) + 0.5) * math.pi / p
    weights = (-1.0) ** np.arange(p) * np.sin(theta)
    diff = np.asarray(x, dtype=float)[:, None] - _chebyshev_nodes(p, t_on)
    at_node = diff == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = weights / diff
        basis = ratio / ratio.sum(axis=1, keepdims=True)
    hit = at_node.any(axis=1)
    basis[hit] = at_node[hit]
    return basis


def _chebyshev_nodes(p: int, t_on: float) -> np.ndarray:
    theta = (np.arange(p) + 0.5) * math.pi / p
    return 0.5 * t_on * (1.0 + np.cos(theta))


def _moment_order(sched: RepetitionSchedule, d: DetectorParams, p: int) -> int:
    """Gauss-Legendre nodes per axis of ``_window_moments``.  n nodes
    integrate degree 2n - 1 exactly; the basis products have degree
    2p - 1 with the Jacobian, the two cut Gaussians need about 48 more to
    reach eps, and cos(w s) about w T_on / 2."""
    return p + 24 + math.ceil(d.omega * sched.t_on / 4.0)


def _window_moments(
    sched: RepetitionSchedule, d: DetectorParams, p: int
) -> np.ndarray:
    """M[m, n] = int_{u' <= u} 2 chi(u) chi(u') cos(w (u - u')) l_m(u) l_n(u').

    Stationarity gives every window the same matrix.  Tensor Gauss-Legendre
    on (v, t) with u = v, u' = v - t v (Jacobian v), of ``_moment_order``.
    """
    x, w = _gauss_legendre(_moment_order(sched, d, p))
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


def _window_weight(sched: RepetitionSchedule) -> float:
    """W = int_{u' <= u} 2 chi(u) chi(u') = (int chi)^2, which bounds the
    integral of a window's |weight| 2 chi chi |cos|: the Gaussian cut at
    4 sigma integrates to sigma sqrt(2 pi) erf(2 sqrt 2)."""
    return (sched.sigma * math.sqrt(TWO_PI) * math.erf(2.0 * math.sqrt(2.0))) ** 2


class ResponseModel:
    """Bundles kernel, schedule, and detector; caches correction fractions.

    Correction fractions depend only on the gaps between the chosen windows
    (stationarity).  One pass over a window set gives the fraction of every
    subset of it; the pass is cached whole by the set's gap signature and
    reused by every translate of the set.

    Windows are well separated, so each cross-window correlator is smooth in
    the two window-local times and is replaced by its p-node Chebyshev
    interpolant, K(T g + x - y) ~ sum_mn C[m, n] l_m(x) l_n(y).  Each window
    has exactly two endpoints, so a contraction class is a union of cycles
    over windows, and its integral is the product of the cycle traces of
    alternating window moment matrices and correlator matrices.  The sum
    over all classes is a sum over cycle covers, which
    ``cycle_cover_sums`` evaluates by a subset dynamic programme over these
    link matrices, without listing the classes.

    p is fixed per model, on its first correction pass, by a Bernstein
    ellipse bound on the interpolation error (``_chebyshev_resolution``):
    the fewest nodes at which it is below eps of the correlator across
    adjacent windows.  Every fraction is evaluated at that one p.
    """

    def __init__(
        self,
        kern: WightmanKernel,
        sched: RepetitionSchedule,
        detector: DetectorParams,
        *,
        gl_order: int = 32,
        qmc_points: int = 1 << 20,
        seed: int = 0,
    ) -> None:
        """``gl_order``, ``qmc_points`` and ``seed`` are kept for callers, unused."""
        self.kernel = kern
        self.schedule = sched
        self.detector = detector
        self._calq = calQ(kern, sched, detector)
        self._passes: dict[tuple[int, ...], tuple] = {}
        self._links: dict[tuple[int, int], tuple[np.ndarray, np.ndarray, float]] = {}

    @property
    def q(self) -> float:
        return self.detector.lam**2 * self._calq

    @functools.cached_property
    def _resolution(self) -> tuple[int, float]:
        """(p, tau) of ``_chebyshev_resolution``, found on the first pass."""
        return _chebyshev_resolution(self.kernel, self.schedule)

    @functools.cached_property
    def _moments(self) -> np.ndarray:
        return _window_moments(self.schedule, self.detector, self._resolution[0])

    def f_fraction(self, intervals) -> tuple[float, float]:
        """Correction fraction over a set of windows: sum of all pairing
        integrals divided by the matching power of the single-window response.

        The windows are distinct integer indices below the repetitions,
        checked before any integral; the fraction is the full-mask entry of
        their ``_subset_fractions`` pass.
        """
        windows = tuple(intervals)
        if not all(is_integer(w) for w in windows):
            raise ValueError(f"windows must be integer indices, got {windows!r}")
        labels = tuple(sorted(windows))
        if len(labels) < 2:
            raise ValueError("need at least two intervals")
        if len(set(labels)) < len(labels):
            raise ValueError(f"windows must be distinct, got {windows!r}")
        reps = self.schedule.repetitions
        if labels[0] < 0 or labels[-1] >= reps:
            raise ValueError(f"windows must lie in [0, {reps}) (the repetitions), got {windows!r}")
        values, errors = self._subset_fractions(labels)[:2]
        return values[-1], errors[-1]

    def _subset_fractions(self, windows) -> tuple:
        """Correction fractions of every subset of a window set, and their
        chain sums, from one ``cycle_cover_sums`` pass over the links at the
        model's resolution p.

        ``windows`` is strictly increasing; bit a of a mask stands for
        windows[a].  Returns (values, errors, num, den, num_err, den_err),
        cached whole by the set's gap signature: read-only (fraction, error)
        arrays indexed by mask, zero on masks of fewer than two windows, and
        the lists of their ``subset_sums``, num the query and den the
        history sums.  Links depend only on (side, gap), and the DP and the
        transforms visit a mask's sub-lattice in the same order whatever the
        other windows, so each mask and its sums are, bit for bit, the full
        mask of the pass over its own windows.
        The error of subset S, before the division by calQ^|S|, is

        - the roundoff floor, ROUNDOFF_UNITS (eps F(|M| |C|)[S] + tiny), the
          same pass over the |M| |C| links; and
        - the interpolation tail, ((1 + tau)^|S| - 1) F(W kappa)[S], a scalar
          pass over the links W kappa_g of ``_link``.  Each class integrates
          |S| correlators against window weights of mass at most W; each
          interpolant is within tau kappa_g of its correlator, whose modulus
          is at most kappa_g.

        More than MAX_WINDOWS windows raise before any integral; fewer than
        two run no pass and leave p unfixed.
        """
        k = len(windows)
        if k > MAX_WINDOWS:
            raise ValueError(f"{k} windows exceed MAX_WINDOWS = {MAX_WINDOWS}")
        if k < 2:
            return np.zeros(1 << k), np.zeros(1 << k), *[[0.0] * (1 << k)] * 4
        gaps = tuple(w - windows[0] for w in windows)
        if gaps in self._passes:
            return self._passes[gaps]
        # sums over the value links M C; over the |M| |C| links, which bound
        # sum |class value| and the rounding of the correlator samples C
        # carried through M; and over the tail's scalar links W kappa
        total, magnitude, reach = (
            cycle_cover_sums(gaps, lambda side, gap: self._link(side, gap)[part])
            for part in range(3)
        )
        # the absolute term keeps the floor above 0 where |link| sums underflow
        floor = ROUNDOFF_UNITS * (_EPS * magnitude + _TINY)
        size = sum(np.arange(1 << k) >> a & 1 for a in range(k))  # windows per mask
        norm = self._calq**size
        tail = np.expm1(size * math.log1p(self._resolution[1])) * reach
        values = np.where(size >= 2, total / norm, 0.0)
        errors = np.where(size >= 2, (floor + tail) / norm, 0.0)
        values.flags.writeable = errors.flags.writeable = False
        (den, den_err), (num, num_err) = (s.tolist() for s in subset_sums((values, errors)))
        self._passes[gaps] = values, errors, num, den, num_err, den_err
        return self._passes[gaps]

    def _link(self, side: int, gap: int) -> tuple[np.ndarray, np.ndarray, float]:
        """A window entered at endpoint ``side`` (M, or M^T from the earlier
        endpoint) times the correlator to the window ``gap`` repetitions
        earlier, C[m, n] = K(T gap + x_m - x_n): (M C, |M| |C|, W kappa),
        the last the tail's scalar link, kappa = |K(T |gap| - T_on)|
        floored at tiny as in ``_chebyshev_resolution``."""
        key = (side, gap)
        if key not in self._links:
            moments = self._moments if side == 0 else self._moments.T
            sched = self.schedule
            x = _chebyshev_nodes(self._resolution[0], sched.t_on)
            corr = self.kernel.limit(sched.t * gap + x[:, None] - x[None, :])
            kappa = abs(float(self.kernel.limit(sched.t * abs(gap) - sched.t_on)))
            self._links[key] = (
                moments @ corr,
                np.abs(moments) @ np.abs(corr),
                _window_weight(sched) * max(kappa, _TINY),
            )
        return self._links[key]

    def correction_sums(self, h: HistoryRecord) -> tuple[float, float, float, float]:
        """(num, den, num_err, den_err) for P_n/q - 1 = num / (1 + den).

        Lookups in the subset pass over the history's windows and its query,
        bit for bit the string table's sums for the same factor.  The single
        entry point for histories, so they are validated here.
        """
        if h.query >= self.schedule.repetitions:
            raise ValueError(
                f"query window {h.query} is past the last of "
                f"{self.schedule.repetitions} repetitions"
            )
        *_, num, den, num_err, den_err = self._subset_fractions(h.excitations + (h.query,))
        full = (1 << h.order) - 1
        return num[full], den[full >> 1], num_err[full], den_err[full >> 1]

    def conditional_excitation(self, h: HistoryRecord) -> ProbabilityResult:
        """P_n = q (1 + P_n/q - 1), the ratio from the correction sums."""
        ratio, err = ratio_from_sums(*self.correction_sums(h))
        return ProbabilityResult(
            value=self.q * (1.0 + ratio), abs_error=self.q * err, method="quadrature"
        )


def ratio_from_sums(num: float, den: float, num_err: float, den_err: float) -> tuple[float, float]:
    """(P_n / q - 1, abs error) = num / (1 + den) from a history's correction
    sums.  num is summed directly, not as a difference of two sums, so a
    query's fractions far below the history's own are not lost to
    cancellation (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., sec. 1.7)."""
    if 1.0 + den <= 0.0:
        raise BoundViolationError(f"history correction sum {den} drove the denominator to zero")
    ratio = num / (1.0 + den)
    return ratio, (num_err + abs(ratio) * den_err) / (1.0 + den)
