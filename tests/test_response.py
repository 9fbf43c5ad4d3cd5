import dataclasses
import functools
import itertools
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erfcx, zeta

import udwrm
from udwrm import (
    BitString,
    BoundViolationError,
    CorrectionModel,
    DetectorParams,
    FiniteRmModel,
    HistoryRecord,
    Posterior,
    RepetitionSchedule,
    ResponseModel,
    WightmanKernel,
    accelerated,
    calQ,
    default_schedule,
    enumerate_contraction_classes,
    inertial,
    q_closed_accelerated,
    q_closed_inertial,
    q_direct,
    random_model,
    rate_report,
)
from udwrm.combinatorics import CONTRACTION_ENUM_MAX, MAX_WINDOWS
from udwrm.response import (
    MAX_RESOLUTION,
    ROUNDOFF_UNITS,
    QuadratureError,
    _chebyshev_basis,
    _chebyshev_nodes,
    _chebyshev_resolution,
    _geometric_edges,
    _log_correlator_bound,
    _log_interpolation_bound,
    _moment_order,
    _panel_quadrature,
    _window_moments,
    ratio_from_sums,
)


def test_q_closed_inertial_value(detector):
    r = q_closed_inertial(detector, 1.0)
    assert r.value == pytest.approx(5.4530039131486545e-06, rel=1e-12)
    assert r.value > 0


# q at lam = 0.01 to 40 digits, from mpmath 1.3.0 at 40 decimal digits on
# the doubles w and sigma: (lam^2 / 4 pi) [exp(-x^2) - x sqrt(pi) erfc(x)]
Q_INERTIAL_REFERENCES = [
    (1.5, 1.3, "1.748343093750889407934750235190786163033e-8"),
    (2.0, 1.0, "1.379475570621825214244110470170350526903e-8"),
    (2.0, 2.25, "2.945175307297561381873277857787695656073e-16"),
    (10.0, 1.0, "1.458505098649097337907189584756852624723e-51"),
    (4.79, 3.77, "2.884256308150053143565119426150982545278e-150"),
    (1.0, 26.5, "5.875476959380143026503641518142478592282e-314"),
]


@pytest.mark.parametrize(
    "omega, sigma, reference",
    Q_INERTIAL_REFERENCES,
    ids=[f"x={w * s:.4g}" for w, s, _ in Q_INERTIAL_REFERENCES],
)
def test_q_closed_inertial_error_covers_40_digit_reference(omega, sigma, reference):
    # the two terms of the bracket cancel like 2 x^2 at large x = w sigma
    # (at w = 4.79, sigma = 3.77 by 1.4e-11 relative when subtracted)
    r = q_closed_inertial(DetectorParams(omega=omega, lam=0.01), sigma)
    ref = float(reference)
    assert abs(r.value - ref) <= r.abs_error
    # the bar stays near roundoff: 1e-14 plus the exponent's 2 eps x^2
    assert r.abs_error <= ref * (1e-14 + 2.5 * np.finfo(float).eps * (omega * sigma) ** 2) + 1e-322


def test_q_closed_inertial_scaling(detector):
    # lambda^2 prefactor
    strong = DetectorParams(omega=detector.omega, lam=2 * detector.lam)
    assert q_closed_inertial(strong, 1.0).value == pytest.approx(
        4 * q_closed_inertial(detector, 1.0).value
    )


def test_q_closed_inertial_gap_suppression(detector):
    wide = DetectorParams(omega=1.0, lam=detector.lam)
    assert q_closed_inertial(wide, 1.0).value < q_closed_inertial(detector, 1.0).value


def test_q_closed_accelerated_thermal_enhancement(detector):
    qi = q_closed_inertial(detector, 1.0).value
    qa = q_closed_accelerated(detector, 1.0, 0.1).value
    assert qa > qi  # thermal bath adds excitations
    assert qa == pytest.approx(qi, rel=1e-2)


def test_q_closed_accelerated_small_alpha_limit(detector):
    qi = q_closed_inertial(detector, 1.0).value
    qa = q_closed_accelerated(detector, 1.0, 1e-4).value
    assert qa == pytest.approx(qi, rel=1e-7)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "name, call",
    [
        ("sigma", lambda d, v: q_closed_inertial(d, v)),
        ("sigma", lambda d, v: q_closed_accelerated(d, v, 0.1)),
        ("alpha", lambda d, v: q_closed_accelerated(d, 1.0, v)),
        ("omega", lambda d, v: rate_report(BitString(bits=(0, 1)), 0.1, accelerated(0.1), v)),
    ],
    ids=["inertial-sigma", "accelerated-sigma", "accelerated-alpha", "rate_report-omega"],
)
def test_non_finite_input_raises_naming_the_argument(detector, name, call, value):
    with pytest.raises(ValueError, match=f"{name} must be a finite number > 0"):
        call(detector, value)


def image_sum_reference(d, sigma, alpha):
    """Accelerated q as the image sum over the thermal poles, (value, error).

    With x = w sigma, c = pi / (alpha sigma) and
    g(z) = 1/2 - z (sqrt(pi)/2) erfcx(z), the sum is
    lam^2 / (2 pi) e^{-x^2} [sum_{n>=0} g(n c + x) + sum_{n>=1} g(n c - x)].
    Terms with z < 20 are summed directly; beyond, g follows its asymptotic
    series sum_m (-1)^{m+1} (2m-1)!! / (2^{m+1} z^{2m}), whose sums over n
    are Hurwitz zeta values.  The error is 4 eps per direct term plus the
    last asymptotic term.
    """
    x = d.omega * sigma
    c = math.pi / (alpha * sigma)
    n_direct = max(1, math.ceil((20.0 + x) / c))
    n = np.arange(n_direct)
    z = np.concatenate([n * c + x, n[1:] * c - x])
    bracket = math.fsum(0.5 - 0.5 * math.sqrt(math.pi) * z * erfcx(z))
    coef = 0.5
    for m in range(1, 9):
        coef *= (2 * m - 1) / 2.0
        last = (-1) ** (m + 1) * coef / c ** (2 * m) * (
            zeta(2 * m, n_direct + x / c) + zeta(2 * m, n_direct - x / c)
        )
        bracket += last
    prefactor = d.lam**2 / (2.0 * math.pi) * math.exp(-x * x)
    error = len(z) * 4.0 * np.finfo(float).eps + abs(last)
    return prefactor * bracket, prefactor * error


def q_estimates(d, sigma, alpha):
    """(value, abs_error) of the accelerated q by the closed form and the
    image sum, which are valid for every parameter."""
    closed = q_closed_accelerated(d, sigma, alpha)
    return {
        "closed_form": (closed.value, closed.abs_error),
        "image_sum": image_sum_reference(d, sigma, alpha),
    }


def quadrature_estimate(d, sigma, alpha):
    direct = q_direct(WightmanKernel(accelerated(alpha)), default_schedule(sigma=sigma), d)
    return direct.value, direct.abs_error


def assert_errors_cover(estimates):
    """Every two estimates agree within the sum of their reported errors."""
    for a, b in itertools.combinations(estimates, 2):
        (va, ea), (vb, eb) = estimates[a], estimates[b]
        assert abs(va - vb) <= ea + eb, (a, b, estimates)


@pytest.mark.parametrize("alpha", [1e-3, 0.1, 1.0, 5.0])
def test_q_closed_accelerated_error_covers_references(alpha, detector):
    estimates = q_estimates(detector, 1.0, alpha)
    estimates["quadrature"] = quadrature_estimate(detector, 1.0, alpha)
    assert_errors_cover(estimates)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    omega=st.floats(0.05, 2.0),
    sigma=st.floats(0.5, 3.0),
    alpha=st.floats(-3.0, 1.0).map(lambda e: 10.0**e),
)
def test_q_closed_accelerated_error_covers_references_property(omega, sigma, alpha):
    d = DetectorParams(omega=omega, lam=1e-2)
    estimates = q_estimates(d, sigma, alpha)
    estimates["quadrature"] = quadrature_estimate(d, sigma, alpha)
    assert_errors_cover(estimates)


# the (w, sigma, worldline) corners: alpha None is the inertial worldline
Q_GRID = [
    (omega, sigma, alpha)
    for omega in (0.05, 0.2, 1.0, 2.0)
    for sigma in (0.5, 1.0, 2.25, 3.0)
    for alpha in (None, 1e-3, 0.1, 1.0, 3.0, 10.0)
] + [
    (omega, sigma, alpha)
    for omega in (3.0, 4.0)
    for sigma in (2.25, 3.0)
    for alpha in (None, 1e-3, 0.1, 1.0, 3.0, 10.0)
]


def test_q_direct_reaches_every_corner():
    """q_direct returns on every corner, and agrees with the closed form
    within the sum of their errors.  At w = 4, sigma = 3, alpha = 0.1 the
    contour meets the pole cap (2 w sigma^2 = 72 > 2 pi / alpha) and q is
    1.3e-66."""
    assert len(Q_GRID) == 120
    for omega, sigma, alpha in Q_GRID:
        d = DetectorParams(omega=omega, lam=1e-2)
        if alpha is None:
            kern, ref = WightmanKernel(inertial()), q_closed_inertial(d, sigma)
        else:
            kern, ref = WightmanKernel(accelerated(alpha)), q_closed_accelerated(d, sigma, alpha)
        r = q_direct(kern, default_schedule(sigma=sigma), d)
        assert r.method == "quadrature"
        assert abs(r.value - ref.value) <= r.abs_error + ref.abs_error, (omega, sigma, alpha, r, ref)


def quad_reference(kern, sched, d):
    """q by adaptive QUADPACK on the real line at the regulator cut-offs
    eps = 0.1 / 2^j, j < 5, extrapolated to eps -> 0: (value, abs_error).

    Each level integrates G(s) Re[exp(-i w s) K(s - i eps)], G the
    untruncated Gaussian overlap, by two scalar ``quad`` calls split at
    100 eps.  Neville extrapolation over the halving sequence; the error is
    the spread of its last two estimates plus the levels' errors carried
    through it, each step multiplying them by at most (2^m + 1) / (2^m - 1).
    """
    sig = sched.sigma
    s_max = 14.0 * sig

    def level_value(eps):
        def f(s):
            overlap = sig * math.sqrt(math.pi) * math.exp(-s * s / (4.0 * sig**2))
            return overlap * float(np.real(np.exp(-1j * d.omega * s) * kern.value(s, eps)))

        cut = min(s_max, 100.0 * eps)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            v1, e1 = quad(f, 0.0, cut, limit=400, epsabs=1e-16, epsrel=1e-13)
            v2, e2 = quad(f, cut, s_max, limit=400, epsabs=1e-16, epsrel=1e-13)
        return 2.0 * (v1 + v2), 2.0 * (e1 + e2)

    levels = 5
    values, errors = zip(*(level_value(0.1 / 2**j) for j in range(levels)))
    table = [list(values)]
    for m in range(1, levels):
        prev = table[-1]
        table.append([(2**m * prev[j + 1] - prev[j]) / (2**m - 1) for j in range(levels - m)])
    best, spread = table[-1][0], abs(table[-1][0] - table[-2][0])
    carried = max(errors) * math.prod((2**m + 1) / (2**m - 1) for m in range(1, levels))
    return d.lam**2 * best, d.lam**2 * (spread + carried)


@pytest.mark.parametrize(
    "alpha", [None, 0.1, 1.0, 5.0], ids=["inertial-tails", "a0.1-tails", "a1-tails", "a5-tails"]
)
def test_q_direct_error_covers_quad_reference(alpha, schedule, detector):
    kern = WightmanKernel(inertial() if alpha is None else accelerated(alpha))
    r = q_direct(kern, schedule, detector)
    ref, ref_err = quad_reference(kern, schedule, detector)
    assert abs(r.value - ref) <= r.abs_error + ref_err, (r.value, ref, r.abs_error, ref_err)


def test_panel_quadrature_raises_when_orders_run_out():
    # an endpoint singularity defeats Gauss-Legendre at every order tried
    value, err = _panel_quadrature(np.exp, [0.0, 1.0, 2.0])
    assert abs(value - math.expm1(2.0)) <= err
    with pytest.raises(QuadratureError, match="did not converge"):
        _panel_quadrature(lambda s: 1.0 / np.sqrt(s), [0.0, 1.0])


def test_q_direct_matches_closed_form(inertial_kernel, schedule, detector):
    r = q_direct(inertial_kernel, schedule, detector)
    ref = q_closed_inertial(detector, 1.0).value
    assert abs(r.value - ref) / ref < 1e-8


def test_q_direct_truncated_mode_raises(inertial_kernel, schedule, detector):
    # the cut Gaussian's overlap has a kink at s = 0, so the regulated
    # integral has no eps -> 0 limit
    with pytest.raises(ValueError, match="diverges like log"):
        q_direct(inertial_kernel, schedule, detector, truncated=True)
    assert q_direct(inertial_kernel, schedule, detector, truncated=False) == q_direct(
        inertial_kernel, schedule, detector
    )


def test_calq_strips_coupling(inertial_kernel, schedule, detector):
    q = calQ(inertial_kernel, schedule, detector)
    assert q * detector.lam**2 == pytest.approx(
        q_closed_inertial(detector, 1.0).value, rel=1e-10
    )


def test_history_record_validation():
    h = HistoryRecord(excitations=(0, 2), query=5)
    assert h.order == 3
    assert HistoryRecord(tuple(np.arange(2)), np.int64(3)).order == 3
    with pytest.raises(ValueError):
        HistoryRecord(excitations=(2, 0), query=5)
    with pytest.raises(ValueError):
        HistoryRecord(excitations=(0, 2), query=2)


def _oracle_model(**changes) -> FiniteRmModel:
    """A valid two-dimensional oracle model with the given fields replaced."""
    return dataclasses.replace(random_model(env_dim=2, steps=1, seed=0), **changes)


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: DetectorParams(math.nan, 0.01), "omega"),
        (lambda: DetectorParams(0.2, math.inf), "lam"),
        (lambda: accelerated(math.nan), "alpha"),
        (lambda: default_schedule(sigma=math.nan), "sigma"),
        (lambda: default_schedule(t_off_factor=math.nan), "t_off_factor"),
        (lambda: RepetitionSchedule(math.inf, 4, 10.0), "sigma"),
        (lambda: RepetitionSchedule(1.0, 4.0, 10.0), "repetitions"),
        (lambda: CorrectionModel(math.nan, lambda q, b: 0.0 * q), "coupling_epsilon"),
        (lambda: HistoryRecord((0.5,), 2), "excitations"),
        (lambda: HistoryRecord((True,), 2), "excitations"),
        (lambda: HistoryRecord((0,), 2.0), "query"),
        (lambda: _oracle_model(env_initial=np.full(2, math.nan)), "env_initial"),
        (lambda: _oracle_model(epsilon=math.inf), "epsilon"),
        (lambda: _oracle_model(generators=(np.full((4, 4), math.nan),)), "generator 0"),
        (lambda: Posterior(h1=np.full(1024, math.nan)), "h1"),
    ],
    ids=[
        "omega-nan",
        "lam-inf",
        "alpha-nan",
        "sigma-nan",
        "t_off_factor-nan",
        "sigma-inf",
        "repetitions-float",
        "coupling_epsilon-nan",
        "excitation-float",
        "excitation-bool",
        "query-float",
        "env_initial-nan",
        "epsilon-inf",
        "generator-nan",
        "h1-nan",
    ],
)
def test_non_finite_or_non_integer_input_rejected_at_construction(build, field):
    with pytest.raises(ValueError, match=field):
        build()


def test_query_past_schedule_rejected(full_model):
    past = full_model.schedule.repetitions
    with pytest.raises(ValueError, match="past the last"):
        full_model.conditional_excitation(HistoryRecord(excitations=(0,), query=past))
    with pytest.raises(ValueError, match="past the last"):
        full_model.correction_sums(HistoryRecord(excitations=(), query=past))


def test_history_beyond_enumeration_rejected_before_integrals(inertial_kernel, detector):
    # past MAX_WINDOWS, though inside the schedule's repetitions
    model = ResponseModel(inertial_kernel, default_schedule(repetitions=12), detector)
    h = HistoryRecord(excitations=tuple(range(MAX_WINDOWS)), query=MAX_WINDOWS)
    with pytest.raises(ValueError, match="MAX_WINDOWS"):
        model.correction_sums(h)
    assert model._passes == {}
    assert model._links == {}


def test_first_window_is_unconditioned(full_model):
    r = full_model.conditional_excitation(HistoryRecord(excitations=(), query=0))
    assert r.value == full_model.q
    assert r.abs_error == 0.0


def test_f_fraction_translation_invariance(full_model):
    a, _ = full_model.f_fraction((0, 1))
    b, _ = full_model.f_fraction((3, 4))
    assert a == b  # stationary schedule: only gaps matter


def test_f_fraction_gap_decay(full_model):
    near = abs(full_model.f_fraction((0, 1))[0])
    far = abs(full_model.f_fraction((0, 5))[0])
    assert far < near


def test_f_fraction_pair_is_positive(full_model):
    # two-interval cross terms factor into squared magnitudes
    val, _ = full_model.f_fraction((0, 1))
    assert val > 0


def test_f_fraction_triple_is_negative(full_model):
    val, _ = full_model.f_fraction((0, 1, 2))
    assert val < 0


@pytest.mark.parametrize(
    "windows, message",
    [
        ((0, 1.5), "integer"),
        ((0, True), "integer"),
        ((0, 100), r"\[0, 8\)"),
        ((-3, -2), r"\[0, 8\)"),
        ((0, 0), "distinct"),
        ((3,), "need at least two intervals"),
    ],
    ids=["half-period", "bool", "past-the-schedule", "negative", "repeated", "single"],
)
def test_f_fraction_rejects_bad_windows_before_any_integral(
    windows, message, inertial_kernel, schedule, detector, monkeypatch
):
    model = ResponseModel(inertial_kernel, schedule, detector)

    def no_integral(windows):
        raise AssertionError(f"an integral ran on {windows}")

    monkeypatch.setattr(model, "_subset_fractions", no_integral)
    with pytest.raises(ValueError, match=message):
        model.f_fraction(windows)


def test_ratio_from_sums_rejects_a_non_positive_denominator():
    # 1 + den = 0: history corrections that cancel the Born part leave no
    # conditional probability to form
    with pytest.raises(BoundViolationError, match="denominator"):
        ratio_from_sums(1.0, -1.0, 0.0, 0.0)


def test_f_fraction_accepts_numpy_integer_windows(full_model):
    assert full_model.f_fraction(np.array([3, 4])) == full_model.f_fraction((0, 1))


def test_conditional_excitation_near_q(full_model):
    r = full_model.conditional_excitation(HistoryRecord(excitations=(0,), query=1))
    assert r.value == pytest.approx(full_model.q, rel=1e-3)
    assert r.value != full_model.q


@pytest.mark.parametrize("excitations", [np.array([0, 2]), [0, 2], range(0, 4, 2)])
def test_history_excitations_any_sequence(full_model, excitations):
    h = HistoryRecord(excitations=excitations, query=3)
    ref = HistoryRecord(excitations=(0, 2), query=3)
    assert h.excitations == (0, 2) and type(h.excitations) is tuple
    assert h == ref and hash(h) == hash(ref)
    assert full_model.conditional_excitation(h) == full_model.conditional_excitation(ref)


def test_correction_ratio_small(full_model):
    h = HistoryRecord(excitations=(0,), query=1)
    ratio, err = ratio_from_sums(*full_model.correction_sums(h))
    assert abs(ratio) < 1e-3
    assert err >= 0.0


def test_f_fraction_ignores_seed_and_points(inertial_kernel, schedule, detector):
    m1 = ResponseModel(inertial_kernel, schedule, detector, qmc_points=1 << 10, seed=42)
    m2 = ResponseModel(inertial_kernel, schedule, detector, qmc_points=1 << 20, seed=7)
    assert m1.f_fraction((0, 1, 3)) == m2.f_fraction((0, 1, 3))


def _window_points(sched, d, order):
    """Tensor Gauss-Legendre points of one window on the (v, t) map: the
    later time u = v, the earlier time u' = v - t v, and the weights
    2 chi(u) chi(u') cos(w (u - u')) v dv dt."""
    x, w = np.polynomial.legendre.leggauss(order)
    v = 0.5 * sched.t_on * (x[:, None] + 1.0)
    s = v * 0.5 * (x[None, :] + 1.0)
    weight = (
        2.0
        * sched.chi_window(v)
        * sched.chi_window(v - s)
        * np.cos(d.omega * s)
        * v
        * (0.25 * sched.t_on * w[:, None] * w[None, :])
    )
    later = np.broadcast_to(v, s.shape).ravel()
    return (later, (v - s).ravel()), weight.ravel()


def reference_fraction(model, gaps, order=32):
    """Correction fraction by tensor Gauss-Legendre over every window.

    For two windows this is the four-dimensional product rule; for more,
    the same product rule is contracted over the quadrature points of each
    window with einsum.  The correlators are evaluated at the points
    themselves, not interpolated.
    """
    sched, kern = model.schedule, model.kernel
    ends, weight = _window_points(sched, model.detector, order)
    index = {g: "abcdef"[i] for i, g in enumerate(gaps)}
    total = 0.0
    for cls in enumerate_contraction_classes(gaps):
        subscripts = [index[g] for g in gaps]
        operands = [weight] * len(gaps)
        for (ga, sa), (gb, sb) in cls.edges:
            subscripts.append(index[ga] + index[gb])
            operands.append(
                kern.limit(sched.t * (ga - gb) + ends[sa][:, None] - ends[sb][None, :])
            )
        total += np.einsum(",".join(subscripts) + "->", *operands, optimize=True)
    return total / calQ(model.kernel, model.schedule, model.detector) ** len(gaps)


@pytest.mark.parametrize("gaps", [(0, 1), (0, 2), (0, 3), (0, 1, 2), (0, 1, 3)])
@pytest.mark.parametrize("kind", ["inertial", "accelerated"])
def test_f_fraction_error_covers_reference(kind, gaps, full_model, full_accelerated_model):
    model = full_model if kind == "inertial" else full_accelerated_model
    val, err = model.f_fraction(gaps)
    ref = reference_fraction(model, gaps)
    assert abs(val - ref) <= err, (val, ref, err)


@pytest.mark.parametrize(
    "omega, sigma, alpha", [(2.0, 1.25, 2.4), (1.0, 2.0, 1.5)], ids=["w2-a2.4", "w1-a1.5"]
)
def test_f_fraction_error_covers_reference_at_fast_decay(omega, sigma, alpha):
    # alpha sigma = 3 and T_off = 2 T_on: the correlator falls by e^-48
    # across a window pair, so an ulp of a basis value or of a correlator
    # sample, carried through the moments, is 1e-12 of the fraction
    model = ResponseModel(
        WightmanKernel(accelerated(alpha)),
        default_schedule(sigma=sigma, repetitions=4, t_off_factor=2.0),
        DetectorParams(omega=omega, lam=1e-2),
    )
    val, err = model.f_fraction((0, 1))
    for order in (48, 64):
        ref = reference_fraction(model, (0, 1), order=order)
        assert abs(val - ref) <= err, (order, val, ref, err)


@functools.lru_cache(maxsize=None)
def sampled_model(omega, sigma, alpha, t_off_factor):
    """One model per sampled point, shared by every example that draws it
    again (as shrinking does), with its cached fractions."""
    kern = WightmanKernel(inertial() if alpha is None else accelerated(alpha))
    sched = default_schedule(sigma=sigma, repetitions=4, t_off_factor=t_off_factor)
    return ResponseModel(kern, sched, DetectorParams(omega=omega, lam=1e-2))


@functools.lru_cache(maxsize=None)
def sampled_reference(point, gaps, order):
    return reference_fraction(sampled_model(*point), gaps, order=order)


def doubled_resolution(model):
    """A fresh copy of the model at twice its Chebyshev resolution, whose
    interpolation tail is far below roundoff."""
    fine = ResponseModel(model.kernel, model.schedule, model.detector)
    fine._resolution = (2 * model._resolution[0], 0.0)
    return fine


@settings(max_examples=8, deadline=None, derandomize=True)
@given(
    omega=st.floats(0.05, 2.0),
    sigma=st.floats(0.5, 3.0),
    accel=st.none() | st.floats(0.0, 1.0),
    t_off_factor=st.floats(2.0, 20.0),
)
def test_f_fraction_error_covers_converged_reference_property(
    omega, sigma, accel, t_off_factor
):
    # inertial, or alpha sigma in [1e-3 sigma, 3], where the fractions
    # underflow double range from about 2.2 on
    alpha = None if accel is None else 1e-3 + accel * (3.0 / sigma - 1e-3)
    point = (omega, sigma, alpha, t_off_factor)
    model = sampled_model(*point)
    for gaps in ((0, 1), (0, 2)):
        val, err = model.f_fraction(gaps)
        ref48 = sampled_reference(point, gaps, 48)
        ref32 = sampled_reference(point, gaps, 32)
        assert abs(val - ref48) <= err, (gaps, val, ref48, err)
        # the reference has itself converged to within the claimed error
        assert abs(ref48 - ref32) <= err, (gaps, ref48, ref32, err)
    # three windows, and every chain factor P(1 | h) / q - 1 on them, whose
    # bar (num_err + |ratio| den_err) / (1 + den) must cover the distance to
    # the model at twice its resolution
    fine = doubled_resolution(model)
    val, err = model.f_fraction((0, 1, 2))
    ref, _ = fine.f_fraction((0, 1, 2))
    assert abs(val - ref) <= err, (val, ref, err)
    for exc, query in (((0,), 1), ((0,), 2), ((1,), 2), ((0, 1), 2)):
        h = HistoryRecord(excitations=exc, query=query)
        ratio, ratio_err = ratio_from_sums(*model.correction_sums(h))
        ref_ratio, _ = ratio_from_sums(*fine.correction_sums(h))
        assert abs(ratio - ref_ratio) <= ratio_err, (h, ratio, ref_ratio, ratio_err)


@pytest.mark.parametrize("omega", [0.05, 0.5, 2.0])
def test_f_fraction_underflow_has_an_error_bar(omega):
    # at alpha sigma = 2.2 the |link| sums underflow to 0, so only the
    # floor's absolute term keeps the error above 0
    kern = WightmanKernel(accelerated(2.2))
    sched = default_schedule(sigma=1.0, repetitions=2, t_off_factor=20.0)
    model = ResponseModel(kern, sched, DetectorParams(omega=omega, lam=1e-2))
    val, err = model.f_fraction((0, 1))
    ref48 = reference_fraction(model, (0, 1), order=48)
    ref32 = reference_fraction(model, (0, 1), order=32)
    assert abs(val - ref48) <= err, (val, ref48, err)
    assert abs(ref48 - ref32) <= err, (ref48, ref32, err)
    assert 0.0 < err < 1e-290


def class_value(model, cls):
    """One contraction class at the model's Chebyshev resolution: the
    product over its cycles of the traces of the link products, each cycle
    walked from its smallest window entered at side 0."""
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
            link = model._link(side, window - entry[0])[0]
            product = link if product is None else product @ link
            if entry == start:
                break
        value *= float(np.trace(product))
    return value


def enumerated_fraction(model, gaps):
    """The correction fraction as a sum over the enumerated classes, at the
    model's one Chebyshev resolution."""
    classes = enumerate_contraction_classes(gaps)
    return math.fsum(class_value(model, cls) for cls in classes) / calQ(model.kernel, model.schedule, model.detector) ** len(gaps)


@pytest.mark.parametrize("k", range(2, CONTRACTION_ENUM_MAX + 1))
@pytest.mark.parametrize("kind", ["inertial", "accelerated"])
def test_f_fraction_matches_class_enumeration(kind, k, full_model, full_accelerated_model):
    # every gap set of k windows among the first CONTRACTION_ENUM_MAX
    model = full_model if kind == "inertial" else full_accelerated_model
    for rest in itertools.combinations(range(1, CONTRACTION_ENUM_MAX), k - 1):
        gaps = (0,) + rest
        val, err = model.f_fraction(gaps)
        ref = enumerated_fraction(model, gaps)
        assert abs(val - ref) <= err, (gaps, val, ref, err)


@pytest.mark.parametrize("gaps", [((0, 1, 3), (0, 2, 3)), ((0, 1, 2, 4), (0, 2, 3, 4))])
def test_f_fraction_reflection_symmetry(gaps, full_model):
    # reversing time maps one window set onto the other
    (a, ea), (b, eb) = (full_model.f_fraction(g) for g in gaps)
    assert abs(a - b) <= ea + eb, (a, b, ea + eb)


@pytest.mark.parametrize("p", [12, 24, 48, 96])
def test_chebyshev_basis_interpolates(p):
    # the unit vectors at the nodes, and x^5 reproduced at points between
    t_on = 8.0
    nodes = _chebyshev_nodes(p, t_on)
    np.testing.assert_array_equal(_chebyshev_basis(p, t_on, nodes), np.eye(p))
    x = np.linspace(0.0, t_on, 41)
    got = _chebyshev_basis(p, t_on, x) @ (nodes / t_on) ** 5
    np.testing.assert_allclose(got, (x / t_on) ** 5, rtol=0.0, atol=1e-14)


def test_f_fraction_refines_fast_decaying_correlator(schedule, detector):
    # at alpha = 1 the correlator falls like exp(-alpha s) across a window,
    # which takes twice the nodes of the README point
    kern = WightmanKernel(accelerated(1.0))
    model = ResponseModel(kern, schedule, detector)
    val, err = model.f_fraction((0, 1))
    ref = reference_fraction(model, (0, 1))
    assert abs(val - ref) <= err, (val, ref, err)


EPS = float(np.finfo(float).eps)


@pytest.mark.parametrize("kind", ["inertial", "accelerated"])
def test_resolution_at_the_readme_point(kind, full_model, full_accelerated_model):
    model = full_model if kind == "inertial" else full_accelerated_model
    p, tau = _chebyshev_resolution(model.kernel, model.schedule)
    assert p <= 16
    assert 0.0 < tau <= EPS


# (alpha, sigma, t_off_factor) of every schedule and worldline the tests
# take correction fractions on, alpha None for the inertial worldline
TESTED_WINDOWS = [
    (None, 1.0, 10.0),
    (0.1, 1.0, 10.0),
    (None, 1.0, 2.0),
    (0.1, 1.0, 2.0),
    (None, 1.0, 0.5),
    (0.1, 1.0, 0.5),
    (0.5, 2.25, 0.5),
    (0.5, 2.25, 3.0),
    (1.0, 1.0, 10.0),
    (2.0, 1.0, 10.0),
    (5.0, 1.0, 10.0),
    (9.0, 1.0, 10.0),
    (20.0, 1.0, 10.0),
    (2.2, 1.0, 20.0),
    (2.4, 1.25, 2.0),
    (1.5, 2.0, 2.0),
    (6.0, 0.5, 2.0),
    (1.0, 3.0, 2.0),
    (None, 0.5, 2.0),
    (None, 3.0, 20.0),
]


@pytest.mark.parametrize("alpha, sigma, t_off_factor", TESTED_WINDOWS)
def test_resolution_fits_every_tested_schedule(alpha, sigma, t_off_factor):
    kern = WightmanKernel(inertial() if alpha is None else accelerated(alpha))
    p, tau = _chebyshev_resolution(kern, default_schedule(sigma=sigma, t_off_factor=t_off_factor))
    assert 2 <= p <= MAX_RESOLUTION
    # where even the floored bound underflows (alpha 20), tau is 0
    assert 0.0 <= tau <= EPS


@pytest.mark.parametrize("t_off_factor", [0.5, 2.0, 10.0])
@pytest.mark.parametrize("alpha", [None, 0.1, 1.0], ids=["inertial", "a0.1", "a1"])
def test_interpolation_tail_falls_with_the_gap(alpha, t_off_factor):
    # the tail relative to kappa_g at the model's p is largest at g = 1,
    # so the one tau covers every link
    kern = WightmanKernel(inertial() if alpha is None else accelerated(alpha))
    sched = default_schedule(repetitions=33, t_off_factor=t_off_factor)
    p, tau = _chebyshev_resolution(kern, sched)
    for g in range(1, sched.repetitions):
        log_kappa = _log_correlator_bound(kern, sched.t * g - sched.t_on)
        log_tau = _log_interpolation_bound(kern, sched, g, [p])[0] - log_kappa
        assert log_tau <= math.log(tau) + 1e-12, (g, math.exp(log_tau), tau)


def test_log_correlator_bound_is_the_log_of_the_correlator():
    s = np.array([0.5, 8.0, 80.0, 700.0])
    for kern in (WightmanKernel(inertial()), WightmanKernel(accelerated(0.1))):
        np.testing.assert_allclose(
            _log_correlator_bound(kern, s), np.log(np.abs(kern.limit(s))), rtol=1e-14
        )
    # far out, where the correlator itself underflows to 0
    assert _log_correlator_bound(WightmanKernel(accelerated(20.0)), 80.0) == pytest.approx(
        2.0 * math.log(20.0 / (4.0 * math.pi)) - 1600.0 + 2.0 * math.log(2.0), rel=1e-15
    )


@pytest.mark.parametrize("p", [4, 6, 8])
@pytest.mark.parametrize("kind", ["inertial", "accelerated"])
def test_error_bar_covers_an_under_resolved_model(kind, p, full_model, full_accelerated_model):
    # below the model's p the interpolation tail, not roundoff, sets the
    # error: the bar built from the bound at p still covers the fractions
    # at the model's own resolution
    model = full_model if kind == "inertial" else full_accelerated_model
    kern, sched = model.kernel, model.schedule
    log_kappa = _log_correlator_bound(kern, sched.t - sched.t_on)
    tau = math.exp(_log_interpolation_bound(kern, sched, 1, [p])[0] - log_kappa)
    assert tau > 1e3 * EPS
    coarse = ResponseModel(kern, sched, model.detector)
    coarse._resolution = (p, tau)
    for gaps in ((0, 1), (0, 3), (0, 1, 2), (0, 2, 3, 5)):
        val, err = coarse.f_fraction(gaps)
        ref, ref_err = model.f_fraction(gaps)
        assert abs(val - ref) <= err + ref_err, (gaps, val, ref, err)


@pytest.mark.parametrize(
    "alpha, sigma, t_off_factor, omega",
    [
        (None, 1.0, 10.0, 0.2),
        (0.1, 1.0, 10.0, 0.2),
        (None, 1.0, 0.5, 0.2),
        (2.4, 1.25, 2.0, 2.0),
        (None, 3.0, 10.0, 4.0),
        (1.0, 3.0, 0.5, 4.0),
    ],
    ids=["inertial", "a0.1", "short-gap", "fast-decay", "w-T_on-96", "w-T_on-96-short-gap"],
)
def test_window_moments_converge_at_the_model_resolution(alpha, sigma, t_off_factor, omega):
    # the links M C at the model's p agree with those from moments at twice
    # the Gauss-Legendre order, within the roundoff floor of the sums of
    # |terms| carried through |C|.  (Entry by entry the moments are not
    # converged: their high-degree parts, which the smooth correlator does
    # not see, can be off by 1e-8 of their terms.)
    kern = WightmanKernel(inertial() if alpha is None else accelerated(alpha))
    sched = default_schedule(sigma=sigma, t_off_factor=t_off_factor)
    d = DetectorParams(omega=omega, lam=1e-2)
    p, _ = _chebyshev_resolution(kern, sched)
    (later, earlier), weight = _window_points(sched, d, 2 * _moment_order(sched, d, p))
    a, b = _chebyshev_basis(p, sched.t_on, later), _chebyshev_basis(p, sched.t_on, earlier)
    ref = a.T @ (weight[:, None] * b)
    terms = np.abs(a).T @ (np.abs(weight)[:, None] * np.abs(b))
    moments = _window_moments(sched, d, p)
    x = _chebyshev_nodes(p, sched.t_on)
    for g in (1, 2):
        corr = kern.limit(sched.t * g + x[:, None] - x[None, :])
        for got, want, size in ((moments, ref, terms), (moments.T, ref.T, terms.T)):
            floor = ROUNDOFF_UNITS * EPS * (size @ np.abs(corr))
            diff = np.abs(got @ corr - want @ corr)
            assert np.all(diff <= floor), (g, np.max(diff / floor))


@pytest.mark.parametrize(
    "alpha, sigma, t_off_factor",
    [(None, 1.0, 0.5), (0.1, 1.0, 0.5), (3.0, 1.0, 10.0), (3.0, 1.0, 0.5), (1.2, 2.5, 2.0)],
    ids=[
        "inertial-short-gap",
        "a0.1-short-gap",
        "a-sigma-3",
        "a-sigma-3-short-gap",
        "a-sigma-3-t2",
    ],
)
def test_f_fraction_error_covers_reference_at_short_gap_and_fast_decay(
    alpha, sigma, t_off_factor
):
    # t_off_factor 0.5 puts the correlator's pole T_on / 2 from a window
    # pair; alpha sigma = 3 makes it fall by e^-24 across one
    kern = WightmanKernel(inertial() if alpha is None else accelerated(alpha))
    sched = default_schedule(sigma=sigma, repetitions=3, t_off_factor=t_off_factor)
    model = ResponseModel(kern, sched, DetectorParams(omega=0.2, lam=1e-2))
    for gaps in ((0, 1), (0, 2)):
        val, err = model.f_fraction(gaps)
        ref48 = reference_fraction(model, gaps, order=48)
        ref32 = reference_fraction(model, gaps, order=32)
        assert abs(val - ref48) <= err, (gaps, val, ref48, err)
        assert abs(ref48 - ref32) <= err, (gaps, ref48, ref32, err)


def test_f_fraction_stalls_for_touching_windows(inertial_kernel, detector):
    model = ResponseModel(inertial_kernel, default_schedule(t_off_factor=1e-4), detector)
    with pytest.raises(QuadratureError):
        model.f_fraction((0, 1))


def test_query_only_history_runs_no_pass(inertial_kernel, detector):
    # a history without excitations is exactly q, even where the first pass
    # would raise: it neither runs a pass nor fixes the resolution
    model = ResponseModel(inertial_kernel, default_schedule(t_off_factor=1e-4), detector)
    r = model.conditional_excitation(HistoryRecord(excitations=(), query=3))
    assert (r.value, r.abs_error) == (model.q, 0.0)
    assert "_resolution" not in vars(model)
    assert model._passes == {}


@pytest.mark.parametrize("kind", ["inertial", "accelerated"])
def test_each_mask_of_a_pass_is_the_pass_over_its_windows(kind, schedule, detector):
    # links depend only on (side, gap), and the DP visits a mask's
    # sub-lattice in the same order under an order-preserving relabelling,
    # so every mask equals, bit for bit, the full mask of a fresh pass over
    # its own windows shifted to start at 0
    kern = WightmanKernel(inertial() if kind == "inertial" else accelerated(0.1))
    windows = (0, 1, 3, 4, 7)
    values, errors, *_ = ResponseModel(kern, schedule, detector)._subset_fractions(windows)
    assert not (values.flags.writeable or errors.flags.writeable)
    for mask in range(1 << len(windows)):
        members = [w for a, w in enumerate(windows) if mask >> a & 1]
        if len(members) < 2:
            assert values[mask] == errors[mask] == 0.0, members
            continue
        fresh = ResponseModel(kern, schedule, detector)
        shifted = [w - members[0] for w in members]
        assert fresh.f_fraction(shifted) == (values[mask], errors[mask]), members


@pytest.mark.parametrize("module", ["scipy.stats", "mpmath", "scipy"])
def test_import_skips_unused_module(module):
    src = os.path.dirname(os.path.dirname(udwrm.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for entry in ("udwrm", "udwrm.cli"):
        code = f"import sys, {entry}; print({module!r} in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
        )
        assert out.stdout.strip() == "False", entry


def test_every_export_resolves():
    # a name removed from the package must leave __all__ with it
    assert len(set(udwrm.__all__)) == len(udwrm.__all__)
    for name in udwrm.__all__:
        assert hasattr(udwrm, name), name
    namespace = {}
    exec("from udwrm import *", namespace)
    assert set(udwrm.__all__) <= namespace.keys()


NO_NUMPY_MA_SCRIPT = """
import sys
from udwrm import DetectorParams, q_closed_accelerated
from udwrm.cli import main

q_closed_accelerated(DetectorParams(omega=0.2, lam=0.01), 1.0, 0.1)
after_closed_form = "numpy.ma" in sys.modules
code = main(["transition", "--config", sys.argv[1], "--out", sys.argv[2]])
print(code, after_closed_form, "numpy.ma" in sys.modules)
"""


def test_transition_skips_numpy_ma(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text('{"worldline": {"kind": "accelerated", "alpha": 0.1}}')
    src = os.path.dirname(os.path.dirname(udwrm.__file__))
    out = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_MA_SCRIPT, str(cfg), str(tmp_path / "q.csv")],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert out.stdout.split() == ["0", "False", "False"], out.stderr


@pytest.mark.parametrize("alpha", [0.1, 1.0, 5.0])
def test_accelerated_panels_split_once_at_the_peak(alpha, detector, monkeypatch):
    """The thermal integral's panels are the geometric edges with the peak
    w / alpha added once (the former ``np.union1d``), so its value is the
    same sum bit for bit; at alpha = 0.1 the peak, 2.0, is already an edge."""
    calls = []

    def recording(f, edges):
        result = _panel_quadrature(f, edges)
        calls.append((f, np.asarray(edges), result))
        return result

    monkeypatch.setattr(udwrm.response, "_panel_quadrature", recording)
    q_closed_accelerated(detector, 1.0, alpha)
    ((f, edges, result),) = calls
    assert np.all(np.diff(edges) > 0)
    peak = detector.omega / alpha
    expected = _geometric_edges(1.0, edges[-1])
    if peak < edges[-1]:
        assert peak in edges
        expected = np.union1d(expected, [peak])
    np.testing.assert_array_equal(edges, expected)
    assert _panel_quadrature(f, expected) == result


def test_strong_coupling_warns(inertial_kernel, schedule):
    with pytest.warns(UserWarning):
        DetectorParams(omega=0.2, lam=0.5)


def correction_sums_reference(model, h):
    """``correction_sums`` by a loop over every subset of the history's
    windows, each fraction from ``f_fraction``: (num, den, num_err,
    den_err), num over the subsets that contain the query."""
    from itertools import combinations

    n = h.order
    all_intervals = h.excitations + (h.query,)
    sums = [0.0, 0.0, 0.0, 0.0]
    for k in range(2, n + 1):
        for subset in combinations(all_intervals, k):
            val, e = model.f_fraction(subset)
            part = 0 if h.query in subset else 1
            sums[part] += val
            sums[part + 2] += e
    return tuple(sums)


@pytest.mark.parametrize("kind", ["inertial", "accelerated"])
def test_correction_sums_match_the_subset_loop(kind, schedule, detector):
    # every history of up to three excitations in the 8-window schedule, on
    # two fresh models so that neither reads fractions the other computed
    kern = WightmanKernel(inertial() if kind == "inertial" else accelerated(0.1))
    reference = ResponseModel(kern, schedule, detector)
    model = ResponseModel(kern, schedule, detector)
    checked = 0
    for query in range(schedule.repetitions):
        for size in range(4):
            for exc in itertools.combinations(range(query), size):
                h = HistoryRecord(excitations=exc, query=query)
                num, den, num_err, den_err = model.correction_sums(h)
                ref_num, ref_den, ref_num_err, ref_den_err = correction_sums_reference(
                    reference, h
                )
                assert abs(num - ref_num) <= num_err, (h, num, ref_num, num_err)
                assert abs(den - ref_den) <= den_err, (h, den, ref_den, den_err)
                assert (num_err > 0.0) == (ref_num_err > 0.0) == bool(exc), h
                assert (den_err > 0.0) == (ref_den_err > 0.0) == (size >= 2), h
                checked += 1
    assert checked == 162
