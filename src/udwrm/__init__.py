"""Repeated-measurement statistics for an Unruh-DeWitt detector.

A pointlike two-level detector, Gaussian-switched and repeatedly measured
along inertial or uniformly accelerated worldlines, does not produce exactly
i.i.d. outcome strings: field-mediated memory between interaction windows
corrects the Born product law.  This package computes the single-window
excitation probability, the leading cross-window corrections and rigorous
bounds on them, per-string probabilities, Bayesian model selection between
the Born law and its corrected variant, and an exact finite-dimensional
model used as an independent oracle.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .bayes import (
    CorrectionModel,
    DegenerateEvidenceError,
    Posterior,
    delta_p_first_order,
    fapp_verdict,
    posterior_trace,
    update_posterior,
)
from .bounds import (
    BoundPair,
    GammaProfile,
    HorizonExceededError,
    MonotonicityError,
    loose_bounds,
    n_limit,
    parity_correction_sum,
    tight_bounds,
)
from .combinatorics import (
    ContractionClass,
    RestrictedPartition,
    crossing_count,
    double_factorial,
    enumerate_contraction_classes,
    partition_term_count,
    restricted_partitions,
    wick_term_count,
)
from .kernel import WightmanKernel, Worldline, accelerated, inertial, unruh_temperature
from .oracle import (
    FiniteRmModel,
    ModelError,
    exact_step_probability,
    exact_string_prob,
    iid_model,
    perturbative_corrections,
    propagator_consistency,
    random_model,
    random_weak_model,
    remainder_check,
    string_distribution,
)
from .response import (
    BoundViolationError,
    DetectorParams,
    HistoryRecord,
    ProbabilityResult,
    QuadratureError,
    ResponseModel,
    calQ,
    q_closed_accelerated,
    q_closed_inertial,
    q_direct,
)
from .schedule import RepetitionSchedule, default_schedule
from .strings import (
    BitString,
    RateReport,
    StringProbability,
    born_string_prob,
    rate_report,
    ratio_bounds,
    rm_string_prob,
    rm_string_table,
)

__all__ = [
    "__version__",
    "BitString",
    "BoundPair",
    "BoundViolationError",
    "ContractionClass",
    "CorrectionModel",
    "DegenerateEvidenceError",
    "DetectorParams",
    "FiniteRmModel",
    "GammaProfile",
    "HistoryRecord",
    "HorizonExceededError",
    "ModelError",
    "MonotonicityError",
    "Posterior",
    "ProbabilityResult",
    "QuadratureError",
    "RateReport",
    "RepetitionSchedule",
    "ResponseModel",
    "RestrictedPartition",
    "StringProbability",
    "WightmanKernel",
    "Worldline",
    "accelerated",
    "born_string_prob",
    "calQ",
    "crossing_count",
    "default_schedule",
    "delta_p_first_order",
    "double_factorial",
    "enumerate_contraction_classes",
    "exact_step_probability",
    "exact_string_prob",
    "fapp_verdict",
    "iid_model",
    "inertial",
    "loose_bounds",
    "n_limit",
    "parity_correction_sum",
    "partition_term_count",
    "perturbative_corrections",
    "posterior_trace",
    "propagator_consistency",
    "q_closed_accelerated",
    "q_closed_inertial",
    "q_direct",
    "random_model",
    "random_weak_model",
    "rate_report",
    "ratio_bounds",
    "remainder_check",
    "restricted_partitions",
    "rm_string_prob",
    "rm_string_table",
    "string_distribution",
    "tight_bounds",
    "unruh_temperature",
    "update_posterior",
    "wick_term_count",
]
